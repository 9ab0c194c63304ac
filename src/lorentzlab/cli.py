"""Batch command-line front end.

Subcommands map one-to-one onto library operations; every run emits a JSON
report on stdout (deterministic: canonical rational strings, sorted keys,
lexicographically-first witnesses) and a short human summary on stderr.
Exit codes: 0 = yes/success, 1 = no-with-witness, 2 = input error.

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
from .rat import Q, rat_str
from .simplicial import SimComplex


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


class _JsonDecimal(float):
    """A JSON number whose float does not print as its exact value: it is
    that float in every use, except that str() gives the decimal text,
    which is what ``Q(str(x))`` reads."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        x = super().__new__(cls, text)
        x.text = text
        return x

    def __str__(self) -> str:
        return self.text


# the digit limit CPython puts on int(str); a longer exponent is an input error
_MAX_EXPONENT = 4300


def _json_number(text: str) -> float:
    """``parse_float`` for input files: the plain float when its repr reads
    back as the exact value of the text (so reports and labels stay as
    float parsing gives them), else a float that prints as its text."""
    _, _, exponent = text.lower().partition("e")
    if exponent and abs(int(exponent)) > _MAX_EXPONENT:
        raise InputError(f"JSON number {text} is out of range")
    x = float(text)
    if math.isfinite(x) and Fraction(repr(x)) == Fraction(text):
        return x
    return _JsonDecimal(text)


def _loads(text: str):
    return json.loads(text, parse_float=_json_number)


def load_poly(path: str) -> HomPoly:
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return HomPoly.from_json_dict(_loads(text))
        except (KeyError, ValueError) as e:
            raise InputError(f"bad polynomial JSON in {path}: {e}") from None
    try:
        return parse_poly(text.strip())
    except ValueError as e:
        raise InputError(f"bad polynomial text in {path}: {e}") from None


def load_json(path: str):
    try:
        return _loads(_read(path))
    except json.JSONDecodeError as e:
        raise InputError(f"bad JSON in {path}: {e}") from None


def load_object(path: str) -> dict:
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got a JSON {type(data).__name__}")
    return data


def load_weights_bundle(path: str):
    """The weights schema: complex, lineality rows, facet weights."""
    data = load_json(path)
    for field in ("complex", "lineality", "weights"):
        if field not in data:
            raise InputError(f"{path}: missing field {field!r}")
    delta = SimComplex.from_json_dict(data["complex"])
    lin = LinSubspace(delta.vertices, [[Q(str(x)) for x in row] for row in data["lineality"]])
    w = {frozenset(entry["facet"]): Q(str(entry["w"])) for entry in data["weights"]}
    return delta, lin, w


def report(args, verdict: str, **fields) -> dict:
    out = {"command": " ".join(args.command_echo), "verdict": verdict}
    out.update(fields)
    if args.timing:
        out["timing_ms"] = round(1000 * (time.monotonic() - args.t0), 3)
    return out


def emit(args, rep: dict, code: int) -> int:
    print(json.dumps(lorentzian._jsonable(rep), indent=2, sort_keys=True))
    print(f"[lorentzlab] {rep.get('command', '')}: {rep.get('verdict')}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_poly_lorentzian(args) -> int:
    f = load_poly(args.file)
    v = lorentzian.is_lorentzian(f)
    ok = v.value == "yes"
    verified = None
    if not ok and args.verify_witness:
        verified = _verify_lorentz_witness(f, v)
    rep = report(args, v.value, detail=v.detail, witness=v.witness,
                 certificates=[(list(map(str, c)), list(i)) for c, i in v.certificates])
    if verified is not None:
        rep["witness_verified"] = verified
    return emit(args, rep, 0 if ok else 1)


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
    f = load_poly(args.file)
    cone = _load_cone(args.cone)
    if cone.dim_ambient != len(f.vars):
        raise InputError("cone generators and polynomial have different dimensions")
    v = lorentzian.is_k_lorentzian(f, cone)
    ok = v.value == "yes"
    rep = report(args, v.value, detail=v.detail, witness=v.witness)
    if not ok and args.verify_witness and v.witness and v.witness[0] == "hessian":
        T = v.witness[1]
        q = f
        for idx in T:
            q = q.dir_derivative(cone.generators[idx])
        rep["witness_verified"] = inertia(hessian(q)).pos > 1
    return emit(args, rep, 0 if ok else 1)


def _load_cone(path: str) -> ConeByGenerators:
    try:
        return ConeByGenerators.from_json_dict(load_object(path))
    except KeyError as e:
        raise InputError(f"{path}: missing field {e}") from None
    except TypeError as e:
        raise InputError(f"{path}: {e}") from None


def cmd_hereditary(args) -> int:
    if args.sub == "from-weights":
        delta, lin, w = load_weights_bundle(args.file)
        h = hereditary.from_weights(delta, lin, w)
        rep = report(args, "success", polynomial=h.f.to_json_dict(), strong=h.strong)
        return emit(args, rep, 0)
    f = load_poly(args.file)
    try:
        h = hereditary.check_hereditary(f)
    except hereditary.NotHereditaryError as e:
        rep = report(args, "no", failing_face=sorted(map(str, e.face)))
        return emit(args, rep, 1)
    if args.sub == "check":
        rep = report(args, "yes", strong=h.strong, lineality_dim=h.lin.dim,
                     facets=sorted(sorted(map(str, F)) for F in h.delta.facets))
        return emit(args, rep, 0)
    v = hereditary.is_hereditary_lorentzian(h)
    rep = report(args, v.value, **v.to_json_dict())
    if v.value == "no" and args.verify_witness:
        verify_hl_witness(rep, h, v)
    return emit(args, rep, 0 if v.value == "yes" else 1)


def verify_hl_witness(rep: dict, h: hereditary.HereditaryPoly, v: hereditary.HLVerdict) -> None:
    """Re-check a hereditary-Lorentzian refutation on its own and record the
    outcome as ``witness_verified``: more than one positive eigenvalue of
    the restriction at a Hessian witness, or a disconnected link of the face
    complex (not of its skeleton) at a connectivity witness."""
    if v.q_witness is not None:
        rep["witness_verified"] = inertia(hessian(hereditary.restrict_poly(h, v.q_witness))).pos > 1
    elif v.c_witness is not None:
        rep["witness_verified"] = not h.delta.link(v.c_witness).is_connected()


def cmd_subdivide(args) -> int:
    f = load_poly(args.file)
    face = args.face.split(",")
    c = [Q(x) for x in args.coeffs.split(",")]
    g = subdivision.subdivide(f, face, c, vertex=args.vertex)
    rep = report(args, "success", polynomial=g.to_json_dict())
    return emit(args, rep, 0)


def cmd_weld(args) -> int:
    f = load_poly(args.file)
    face = args.face.split(",")
    c = [Q(x) for x in args.coeffs.split(",")]
    if args.vertex is None:
        raise InputError("weld requires --vertex naming the apex variable")
    g = subdivision.weld(f, face, c, args.vertex)
    rep = report(args, "success", polynomial=g.to_json_dict())
    return emit(args, rep, 0)


def cmd_chain(args) -> int:
    f = load_poly(args.file)
    steps = load_json(args.chain)
    if not isinstance(steps, list):
        raise InputError(f"{args.chain}: chain file must be a JSON list of steps")
    res = subdivision.apply_chain(f, steps)
    rep = report(args, "success", polynomial=res.poly.to_json_dict(), steps=res.certificates)
    return emit(args, rep, 0)


def _load_lattice(path: str) -> matroid.FlatLattice:
    data = load_json(path)
    try:
        M = matroid.Matroid.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{path}: {e}") from None
    return matroid.flats(M)


def cmd_matroid(args) -> int:
    L = _load_lattice(args.file)
    if args.sub != "flats" and L.rank_total < 1:
        raise InputError(f"{args.file}: matroid {args.sub} needs rank >= 1")
    if args.sub == "flats":
        rep = report(args, "success",
                     flats=[sorted(map(str, F)) for F in L.flats],
                     ranks=[L.rank[F] for F in L.flats])
        return emit(args, rep, 0)
    if args.sub == "charpoly":
        cp = matroid.char_poly(L)
        rep = report(args, "success" if cp.agree else "no",
                     chi=[rat_str(c) for c in cp.chi],
                     reduced=[rat_str(c) for c in cp.reduced],
                     routes_agree=cp.agree)
        return emit(args, rep, 0 if cp.agree else 1)
    if args.sub == "hrw":
        hr = matroid.hrw_check(L)
        cp = hr.char
        verdict = hr.log_concave and hr.mixed_identity
        witness = matroid.submodular_witness(L)
        rep = report(args, "yes" if verdict else "no",
                     chi=[rat_str(c) for c in cp.chi],
                     reduced=[rat_str(c) for c in cp.reduced],
                     coefficients=[rat_str(c) for c in hr.reduced_abs],
                     log_concave=hr.log_concave,
                     mixed_identity=hr.mixed_identity,
                     volume_at_alpha=rat_str(cp.expansion[0]),
                     volume_at_beta=rat_str(cp.expansion[-1]),
                     cone_witness={str(sorted(map(str, F))): rat_str(c)
                                   for F, c in zip(witness.vars, witness.coords)})
        return emit(args, rep, 0 if verdict else 1)
    if args.sub == "bergman":
        fan = matroid.bergman_fan(L)
        rep = report(args, "success", fan=fan.to_json_dict())
        return emit(args, rep, 0)
    raise InputError(f"unknown matroid subcommand {args.sub}")


def _load_polytope(path: str) -> polytope.SimplePolytope:
    try:
        return polytope.SimplePolytope.from_json_dict(load_object(path))
    except (polytope.PolytopeError, TypeError) as e:
        raise InputError(f"{path}: {e}") from None
    except KeyError as e:
        raise InputError(f"{path}: missing field {e}") from None


def cmd_polytope(args) -> int:
    if args.sub == "volume":
        P = _load_polytope(args.files[0])
        rep = report(args, "success", volume=rat_str(polytope.volume(P)))
        return emit(args, rep, 0)
    if args.sub == "polynomial":
        P = _load_polytope(args.files[0])
        h = polytope.volume_polynomial(P)
        rep = report(args, "success", polynomial=h.f.to_json_dict(), strong=h.strong)
        return emit(args, rep, 0)
    bodies = [_load_polytope(p) for p in args.files]
    if args.sub == "mixed":
        v = polytope.mixed_volume(bodies)
        rep = report(args, "success", mixed_volume=rat_str(v))
        return emit(args, rep, 0)
    if args.sub == "af":
        ok = polytope.af_check(bodies)
        rep = report(args, "yes" if ok else "no")
        return emit(args, rep, 0 if ok else 1)
    raise InputError(f"unknown polytope subcommand {args.sub}")


def _load_fan(path: str) -> fanchow.Fan:
    try:
        return fanchow.Fan.from_json_dict(load_object(path))
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{path}: {e}") from None


def _load_fan_weights(path: str) -> dict:
    data = load_json(path)
    if isinstance(data, dict) and "weights" in data:
        data = data["weights"]
    if not isinstance(data, list):
        raise InputError(f"{path}: weights must be a list of facet/w entries")
    return {frozenset(e["facet"]): Q(str(e["w"])) for e in data}


def cmd_fan(args) -> int:
    fan = _load_fan(args.fan)
    if args.sub == "check":
        w = _load_fan_weights(args.weights)
        alpha = fanchow.functional_from_weights(fan, w)
        v = fanchow.check_fan_lorentzian(alpha)
        rep = report(args, v.value, **v.to_json_dict())
        if v.value == "no" and args.verify_witness:
            verify_hl_witness(rep, alpha.h, v)
        return emit(args, rep, 0 if v.value == "yes" else 1)
    if args.sub == "subdivide":
        rho = [Q(x) for x in args.ray.split(",")]
        fan2, transport = fanchow.fan_subdivide(fan, rho)
        fields = {"fan": fan2.to_json_dict()}
        if args.weights:
            alpha = fanchow.functional_from_weights(fan, _load_fan_weights(args.weights))
            alpha2 = transport(alpha)
            fields["weights"] = [
                {"facet": sorted(map(str, F)), "w": rat_str(alpha2.weight(F))}
                for F in sorted(fan2.cones.facets, key=lambda f: sorted(map(str, f)))
            ]
        rep = report(args, "success", **fields)
        return emit(args, rep, 0)
    if args.sub == "bijection":
        fan2 = _load_fan(args.fan2)
        a1 = fanchow.functional_from_weights(fan, _load_fan_weights(args.weights))
        a2 = fanchow.functional_from_weights(fan2, _load_fan_weights(args.weights2))
        ok = fanchow.canonical_bijection_check(fan, a1, fan2, a2)
        rep = report(args, "yes" if ok else "no")
        return emit(args, rep, 0 if ok else 1)
    if args.sub == "transport":
        alpha = fanchow.functional_from_weights(fan, _load_fan_weights(args.weights))
        steps = load_json(args.chain)
        fan2, alpha2 = fanchow.transport_chain(fan, alpha, steps)
        rep = report(args, "success", fan=fan2.to_json_dict(),
                     weights=[{"facet": sorted(map(str, F)), "w": rat_str(alpha2.weight(F))}
                              for F in sorted(fan2.cones.facets, key=lambda f: sorted(map(str, f)))])
        return emit(args, rep, 0)
    raise InputError(f"unknown fan subcommand {args.sub}")


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
    the package stays cheap."""
    ap = _Parser(prog="lorentzlab", description=__doc__)
    ap.add_argument("--timing", action="store_true", help="include timing_ms in the report")
    ap.add_argument("--verify-witness", action="store_true",
                    help="re-check any refutation witness before reporting")
    sub = ap.add_subparsers(dest="group", required=True)

    poly = sub.add_parser("poly").add_subparsers(dest="sub", required=True)
    p = poly.add_parser("lorentzian")
    p.add_argument("file")
    p.set_defaults(func=cmd_poly_lorentzian)
    p = poly.add_parser("k-lorentzian")
    p.add_argument("file")
    p.add_argument("--cone", required=True)
    p.set_defaults(func=cmd_poly_k_lorentzian)

    her = sub.add_parser("hereditary").add_subparsers(dest="sub", required=True)
    for name in ("check", "lorentzian", "from-weights"):
        p = her.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=cmd_hereditary)

    p = sub.add_parser("subdivide")
    p.add_argument("file")
    p.add_argument("--face", required=True, help="comma-separated face variables")
    p.add_argument("--coeffs", required=True, help="comma-separated positive rationals")
    p.add_argument("--vertex", default=None)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("weld")
    p.add_argument("file")
    p.add_argument("--face", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--vertex", default=None)
    p.set_defaults(func=cmd_weld)

    chain = sub.add_parser("chain").add_subparsers(dest="sub", required=True)
    p = chain.add_parser("apply")
    p.add_argument("file")
    p.add_argument("chain")
    p.set_defaults(func=cmd_chain)

    mat = sub.add_parser("matroid").add_subparsers(dest="sub", required=True)
    for name in ("flats", "charpoly", "hrw", "bergman"):
        p = mat.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=cmd_matroid)

    pol = sub.add_parser("polytope").add_subparsers(dest="sub", required=True)
    for name in ("volume", "polynomial", "mixed", "af"):
        p = pol.add_parser(name)
        p.add_argument("files", nargs="+")
        p.set_defaults(func=cmd_polytope)

    fan = sub.add_parser("fan").add_subparsers(dest="sub", required=True)
    p = fan.add_parser("check")
    p.add_argument("fan")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_fan)
    p = fan.add_parser("subdivide")
    p.add_argument("fan")
    p.add_argument("--ray", required=True, help="comma-separated rational coordinates")
    p.add_argument("--weights", default=None)
    p.set_defaults(func=cmd_fan)
    p = fan.add_parser("bijection")
    p.add_argument("fan")
    p.add_argument("weights")
    p.add_argument("fan2")
    p.add_argument("weights2")
    p.set_defaults(func=cmd_fan)
    p = fan.add_parser("transport")
    p.add_argument("fan")
    p.add_argument("weights")
    p.add_argument("chain")
    p.set_defaults(func=cmd_fan)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        args.command_echo = ["lorentzlab"] + argv
        args.t0 = time.monotonic()
        return args.func(args)
    except (InputError, ValueError) as e:
        print(json.dumps({"verdict": "error", "message": str(e)}, indent=2, sort_keys=True))
        print(f"[lorentzlab] input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
