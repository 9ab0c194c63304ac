"""Batch command-line front end.

Subcommands map one-to-one onto library operations; every run emits a JSON
report on stdout (deterministic: canonical rational strings, sorted keys,
lexicographically-first witnesses) and a short human summary on stderr.
Exit codes: 0 = yes/success/vacuous, 1 = no-with-witness, 2 = input error.

Input files have one boundary, ``InputFile``: the type of every file
argument, it reads each file and parses it in full while the arguments are
parsed, before any computation starts.  A malformed file, like a usage
error, becomes a JSON error report naming it, with exit code 2.

Timing is reported only under --timing so that identical inputs produce
byte-identical reports.  --verify-witness re-checks any emitted refutation
witness in isolation before reporting it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from . import fanchow, hereditary, lorentzian, matroid, polytope, subdivision
from .cones import ConeByGenerators
from .inertia import hessian, inertia
from .polycore import HomPoly, LinSubspace, parse_poly
from .rat import Q, Rational, rat_str, read_list, read_lists, read_rat
from .simplicial import SimComplex, face_str, label_key, label_str


class InputError(Exception):
    pass


class _JsonDecimal(float):
    """A JSON number whose float does not print as its exact value: it is
    that float in every use, except that str() gives the decimal text,
    which is what ``rat.read_rat`` reads."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        x = super().__new__(cls, text)
        x.text = text
        return x

    def __str__(self) -> str:
        return self.text


def _json_number(text: str) -> float:
    """``parse_float`` for input files: the plain float when its repr reads
    back as the exact value of the text (so reports and labels stay as
    float parsing gives them), else a float that prints as its text.  The
    text is read by ``Q``, which refuses an exponent above its cap."""
    exact, x = Q(text), float(text)
    if math.isfinite(x) and Fraction(repr(x)) == exact:
        return x
    return _JsonDecimal(text)


def _loads(text: str):
    return json.loads(text, parse_float=_json_number)


class InputFile:
    """The type of every file argument, and the one input boundary (see the
    module docstring): ``parse`` gets the file's JSON value, checked to be
    a non-empty ``shape``, or the file's text when ``shape`` is None."""

    def __init__(self, parse, shape: type | None = dict):
        self.parse, self.shape = parse, shape

    def __call__(self, path: str):
        try:
            with open(path) as fh:
                text = fh.read()
            return self.parse(text if self.shape is None else _expect(_loads(text), self.shape))
        except (OSError, KeyError, IndexError, TypeError, ValueError, RecursionError) as e:
            if isinstance(e, KeyError):
                e = f"missing field {e}"
            elif isinstance(e, json.JSONDecodeError):
                e = f"bad JSON ({e})"
            raise InputError(f"{path}: {e}") from None


def _expect(data, shape: type):
    if not (isinstance(data, shape) and data):
        want = "object" if shape is dict else "list"
        raise ValueError(f"expected a non-empty JSON {want}, got {json.dumps(data)[:60]}")
    return data


# ---------------------------------------------------------------------------
# file parsers beyond the library's from_json_dict
# ---------------------------------------------------------------------------


def read_poly(text: str) -> HomPoly:
    """A JSON polynomial object when the file starts with "{" or "[", else
    the text grammar (where ``2`` is a constant and ``null`` a variable)."""
    text = text.strip()
    if text[:1] in ("{", "["):
        return HomPoly.from_json_dict(_expect(_loads(text), dict))
    return parse_poly(text)


def read_matroid_of_positive_rank(data: dict) -> matroid.Matroid:
    M = matroid.Matroid.from_json_dict(data)
    if M.rank_total < 1:
        raise ValueError("matroid charpoly, hrw and bergman need rank >= 1")
    return M


def _facet_weights(entries) -> dict:
    """Facet weights by facet; a facet listed twice is an error naming it."""
    weights = {}
    for e in _expect(entries, list):
        F = frozenset(read_list(e["facet"], "facet"))
        if F in weights:
            raise ValueError(f"facet {face_str(F)} is listed twice in the weights")
        weights[F] = read_rat(e["w"])
    return weights


def read_weights_bundle(data: dict) -> tuple:
    """The weights schema: complex, lineality rows, facet weights."""
    delta = SimComplex.from_json_dict(_expect(data["complex"], dict))
    rows = read_lists(data["lineality"], "lineality")
    lin = LinSubspace(delta.vertices, [[read_rat(x) for x in row] for row in rows])
    return delta, lin, _facet_weights(read_list(data["weights"], "weights"))


def read_fan_weights(text: str) -> dict:
    """Facet weights: a list of facet/w entries, bare or under "weights"."""
    data = _loads(text)
    return _facet_weights(read_list(data["weights"], "weights") if isinstance(data, dict) else data)


def read_chain(steps: list) -> list:
    return [subdivision.SubdivStep.from_json_dict(s) for s in steps]


def read_fan_chain(steps: list) -> list:
    return [fanchow.read_step(s) for s in steps]


def _json_default(x):
    """The JSON form of what ``json`` has no type for: a rational as its
    canonical string, a set as a list in ``label_key`` order, and any other
    label as ``label_str``."""
    if isinstance(x, (Rational, Fraction)):
        return rat_str(x)
    if isinstance(x, (set, frozenset)):
        return sorted(x, key=label_key)
    return label_str(x)


def emit(args, code: int, verdict: str, **fields) -> int:
    """Print the report of one command and return its exit code.  Every
    key of the report is a ``str``."""
    rep = {"command": " ".join(args.command_echo), "verdict": verdict, **fields}
    if args.timing:
        rep["timing_ms"] = round(1000 * (time.monotonic() - args.t0), 3)
    print(json.dumps(rep, indent=2, sort_keys=True, default=_json_default))
    print(f"[lorentzlab] {rep['command']}: {rep['verdict']}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# handlers: one per subcommand, except where two share all but one step
# ---------------------------------------------------------------------------


def cmd_poly_lorentzian(args) -> int:
    f = args.file
    v = lorentzian.is_lorentzian(f)
    ok = v.value == "yes"
    fields = {"detail": v.detail, "witness": v.witness,
              "certificates": [(list(map(label_str, c)), list(i)) for c, i in v.certificates]}
    if not ok and args.verify_witness:
        fields["witness_verified"] = _verify_lorentz_witness(f, v)
    return emit(args, 0 if ok else 1, v.value, **fields)


def _verify_lorentz_witness(f: HomPoly, v) -> bool:
    """Re-check a refutation of ``is_lorentzian`` on its own: a support
    witness against f's support, a Hessian witness by deriving the quadratic
    through ``HomPoly.partial`` chains, a route independent of the scan that
    reads the Hessians off the coefficients."""
    kind = v.witness[0]
    if kind == "support":
        a, b, i = v.witness[1]
        pts = f.support()

        def moved(j):
            out = list(a)
            out[i] -= 1
            out[j] += 1
            return tuple(out)

        return (
            a in pts and b in pts and a[i] > b[i]
            and not any(b[j] > a[j] and moved(j) in pts for j in range(len(a)))
        )
    if kind == "hessian":
        combo = v.witness[1]
        q = f
        for lab in combo:
            q = q.partial(lab)
        return inertia(hessian(q)).pos > 1
    return False


def cmd_poly_k_lorentzian(args) -> int:
    f, cone = args.file, args.cone
    if cone.dim_ambient != len(f.vars):
        raise InputError("cone generators and polynomial have different dimensions")
    v = lorentzian.is_k_lorentzian(f, cone)
    ok = v.value == "yes"
    fields = {"detail": v.detail, "witness": v.witness}
    if not ok and args.verify_witness and v.witness and v.witness[0] == "hessian":
        q = f
        for idx in v.witness[1]:
            q = q.dir_derivative(cone.generators[idx])
        fields["witness_verified"] = inertia(hessian(q)).pos > 1
    return emit(args, 0 if ok else 1, v.value, **fields)


def cmd_hereditary(args) -> int:
    """hereditary check and hereditary lorentzian, which share the heredity
    check and its "no" report."""
    try:
        h = hereditary.check_hereditary(args.file)
    except hereditary.NotHereditaryError as e:
        return emit(args, 1, "no", failing_face=sorted(map(label_str, e.face)))
    if args.sub == "check":
        return emit(args, 0, "yes", strong=h.strong, lineality_dim=h.lin.dim,
                    facets=sorted(sorted(map(label_str, F)) for F in h.delta.facets))
    return emit_hl_verdict(args, h, hereditary.is_hereditary_lorentzian(h))


def cmd_hereditary_from_weights(args) -> int:
    h = hereditary.from_weights(*args.file)
    return emit(args, 0, "success", polynomial=h.f.to_json_dict(), strong=h.strong)


def emit_hl_verdict(args, h: hereditary.HereditaryPoly, v: hereditary.HLVerdict) -> int:
    """Report a hereditary-Lorentzian verdict: exit 1 only on "no" (whose
    witness --verify-witness re-checks), exit 0 on "yes" and "vacuous"."""
    fields = v.to_json_dict()
    if v.value == "no" and args.verify_witness:
        verify_hl_witness(fields, h, v)
    return emit(args, 1 if v.value == "no" else 0, v.value, **fields)


def verify_hl_witness(rep: dict, h: hereditary.HereditaryPoly, v: hereditary.HLVerdict) -> None:
    """Re-check a hereditary-Lorentzian refutation on its own and record the
    outcome as ``witness_verified``: more than one positive eigenvalue of
    the restriction at a Hessian witness, or a disconnected link of the face
    complex (not of its skeleton) at a connectivity witness."""
    if v.q_witness is not None:
        rep["witness_verified"] = inertia(hessian(hereditary.restrict_poly(h, v.q_witness))).pos > 1
    elif v.c_witness is not None:
        rep["witness_verified"] = not h.delta.link(v.c_witness).is_connected()


def cmd_stellar(args) -> int:
    """subdivide and weld: the same face and coefficients, one operator each."""
    op = subdivision.weld if args.group == "weld" else subdivision.subdivide
    g = op(args.file, args.face.split(","), [read_rat(x) for x in args.coeffs.split(",")], args.vertex)
    return emit(args, 0, "success", polynomial=g.to_json_dict())


def cmd_chain(args) -> int:
    res = subdivision.apply_chain(args.file, args.chain)
    return emit(args, 0, "success", polynomial=res.poly.to_json_dict(), steps=res.certificates)


def cmd_matroid_flats(args) -> int:
    L = matroid.flats(args.file)
    return emit(args, 0, "success", flats=[sorted(map(label_str, F)) for F in L.flats],
                ranks=L.ranks)


def cmd_matroid_charpoly(args) -> int:
    cp = matroid.char_poly(matroid.flats(args.file))
    return emit(args, 0 if cp.agree else 1, "success" if cp.agree else "no",
                chi=[rat_str(c) for c in cp.chi], reduced=[rat_str(c) for c in cp.reduced],
                routes_agree=cp.agree)


def cmd_matroid_hrw(args) -> int:
    L = matroid.flats(args.file)
    hr = matroid.hrw_check(L)
    cp = hr.char
    verdict = hr.log_concave and hr.mixed_identity
    witness = matroid.submodular_witness(L)
    return emit(args, 0 if verdict else 1, "yes" if verdict else "no",
                chi=[rat_str(c) for c in cp.chi],
                reduced=[rat_str(c) for c in cp.reduced],
                coefficients=[rat_str(c) for c in hr.reduced_abs],
                log_concave=hr.log_concave,
                mixed_identity=hr.mixed_identity,
                volume_at_alpha=rat_str(cp.expansion[0]),
                volume_at_beta=rat_str(cp.expansion[-1]),
                cone_witness={str(sorted(map(label_str, F))): rat_str(c)
                              for F, c in zip(witness.vars, witness.coords)})


def cmd_matroid_bergman(args) -> int:
    fan = matroid.bergman_fan(matroid.flats(args.file))
    return emit(args, 0, "success", fan=fan.to_json_dict())


def cmd_polytope_volume(args) -> int:
    return emit(args, 0, "success", volume=rat_str(polytope.volume(args.file)))


def cmd_polytope_polynomial(args) -> int:
    h = polytope.volume_polynomial(args.file)
    return emit(args, 0, "success", polynomial=h.f.to_json_dict(), strong=h.strong)


def cmd_polytope_mixed(args) -> int:
    return emit(args, 0, "success", mixed_volume=rat_str(polytope.mixed_volume(args.files)))


def cmd_polytope_af(args) -> int:
    ok = polytope.af_check(args.files)
    return emit(args, 0 if ok else 1, "yes" if ok else "no")


def _weights_report(alpha: fanchow.DegreeFunctional) -> list:
    return [{"facet": sorted(map(label_str, F)), "w": rat_str(alpha.weight(F))}
            for F in sorted(alpha.fan.cones.facets, key=lambda f: sorted(map(label_str, f)))]


def cmd_fan_check(args) -> int:
    alpha = fanchow.functional_from_weights(args.fan, args.weights)
    return emit_hl_verdict(args, alpha.h, fanchow.check_fan_lorentzian(alpha))


def cmd_fan_subdivide(args) -> int:
    fan2, transport = fanchow.fan_subdivide(args.fan, [read_rat(x) for x in args.ray.split(",")])
    fields = {"fan": fan2.to_json_dict()}
    if args.weights is not None:
        fields["weights"] = _weights_report(transport(fanchow.functional_from_weights(args.fan, args.weights)))
    return emit(args, 0, "success", **fields)


def cmd_fan_bijection(args) -> int:
    a1 = fanchow.functional_from_weights(args.fan, args.weights)
    a2 = fanchow.functional_from_weights(args.fan2, args.weights2)
    ok = fanchow.canonical_bijection_check(args.fan, a1, args.fan2, a2)
    return emit(args, 0 if ok else 1, "yes" if ok else "no")


def cmd_fan_transport(args) -> int:
    alpha = fanchow.functional_from_weights(args.fan, args.weights)
    fan2, alpha2 = fanchow.transport_chain(args.fan, alpha, args.chain)
    return emit(args, 0, "success", fan=fan2.to_json_dict(), weights=_weights_report(alpha2))


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become input errors, reported as JSON with exit code 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one (parsing leaves no state on it); not at import, so importing
    the package stays cheap.  Every file argument has an ``InputFile``
    type, so parsing the arguments parses the files."""
    poly, fan = InputFile(read_poly, None), InputFile(fanchow.Fan.from_json_dict)
    weights = InputFile(read_fan_weights, None)
    ap = _Parser(prog="lorentzlab", description=__doc__)
    ap.add_argument("--timing", action="store_true", help="include timing_ms in the report")
    ap.add_argument("--verify-witness", action="store_true",
                    help="re-check any refutation witness before reporting")
    sub = ap.add_subparsers(dest="group", required=True)

    group = sub.add_parser("poly").add_subparsers(dest="sub", required=True)
    p = group.add_parser("lorentzian")
    p.add_argument("file", type=poly)
    p.set_defaults(func=cmd_poly_lorentzian)
    p = group.add_parser("k-lorentzian")
    p.add_argument("file", type=poly)
    p.add_argument("--cone", required=True, type=InputFile(ConeByGenerators.from_json_dict))
    p.set_defaults(func=cmd_poly_k_lorentzian)

    group = sub.add_parser("hereditary").add_subparsers(dest="sub", required=True)
    for name in ("check", "lorentzian"):
        p = group.add_parser(name)
        p.add_argument("file", type=poly)
        p.set_defaults(func=cmd_hereditary)
    p = group.add_parser("from-weights")
    p.add_argument("file", type=InputFile(read_weights_bundle))
    p.set_defaults(func=cmd_hereditary_from_weights)

    for name in ("subdivide", "weld"):
        p = sub.add_parser(name)
        p.add_argument("file", type=poly)
        p.add_argument("--face", required=True, help="comma-separated face variables")
        p.add_argument("--coeffs", required=True, help="comma-separated positive rationals")
        p.add_argument("--vertex", required=name == "weld", help="the apex variable")
        p.set_defaults(func=cmd_stellar)

    group = sub.add_parser("chain").add_subparsers(dest="sub", required=True)
    p = group.add_parser("apply")
    p.add_argument("file", type=poly)
    p.add_argument("chain", type=InputFile(read_chain, list))
    p.set_defaults(func=cmd_chain)

    group = sub.add_parser("matroid").add_subparsers(dest="sub", required=True)
    p = group.add_parser("flats")
    p.add_argument("file", type=InputFile(matroid.Matroid.from_json_dict))
    p.set_defaults(func=cmd_matroid_flats)
    for name, func in (("charpoly", cmd_matroid_charpoly), ("hrw", cmd_matroid_hrw),
                       ("bergman", cmd_matroid_bergman)):
        p = group.add_parser(name)
        p.add_argument("file", type=InputFile(read_matroid_of_positive_rank))
        p.set_defaults(func=func)

    group = sub.add_parser("polytope").add_subparsers(dest="sub", required=True)
    body = InputFile(polytope.SimplePolytope.from_json_dict)
    for name, func, nargs in (("volume", cmd_polytope_volume, None),
                              ("polynomial", cmd_polytope_polynomial, None),
                              ("mixed", cmd_polytope_mixed, "+"), ("af", cmd_polytope_af, "+")):
        p = group.add_parser(name)
        p.add_argument("file" if nargs is None else "files", nargs=nargs, type=body)
        p.set_defaults(func=func)

    group = sub.add_parser("fan").add_subparsers(dest="sub", required=True)
    p = group.add_parser("check")
    p.add_argument("fan", type=fan)
    p.add_argument("--weights", required=True, type=weights)
    p.set_defaults(func=cmd_fan_check)
    p = group.add_parser("subdivide")
    p.add_argument("fan", type=fan)
    p.add_argument("--ray", required=True, help="comma-separated rational coordinates")
    p.add_argument("--weights", type=weights)
    p.set_defaults(func=cmd_fan_subdivide)
    p = group.add_parser("bijection")
    p.add_argument("fan", type=fan)
    p.add_argument("weights", type=weights)
    p.add_argument("fan2", type=fan)
    p.add_argument("weights2", type=weights)
    p.set_defaults(func=cmd_fan_bijection)
    p = group.add_parser("transport")
    p.add_argument("fan", type=fan)
    p.add_argument("weights", type=weights)
    p.add_argument("chain", type=InputFile(read_fan_chain, list))
    p.set_defaults(func=cmd_fan_transport)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    t0 = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        args.command_echo = ["lorentzlab"] + argv
        args.t0 = t0
        return args.func(args)
    except (InputError, ValueError) as e:
        print(json.dumps({"verdict": "error", "message": str(e)}, indent=2, sort_keys=True))
        print(f"[lorentzlab] input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
