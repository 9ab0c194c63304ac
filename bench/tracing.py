"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each listed public function of a ``lorentzlab``
module with a wrapper that records a span (name, start, end, parent span,
request id) and accumulates calls and self time, where self time is the
span's duration minus the durations of its child spans.  A function is
rebound under every name any ``lorentzlab`` module holds it by, so by-name
imports (``inertia`` in ``matroid``, ``lorentzian`` and ``cli``, imported as
``matrix_inertia`` in ``hereditary``; ``strict_feasible`` in ``matroid``,
``polytope`` and ``fanchow``) are traced too.  Methods are wrapped on their
class; classmethods and staticmethods keep their descriptor type.
``uninstall`` puts every original back.

Spans stay in memory until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer (module) -> traced functions; "Class.method" names a method
LAYERS = {
    "matroid": ("flats", "char_poly", "hrw_check", "LatticeVolume.eval_bivariate",
                "LatticeVolume.chains", "bergman_fan"),
    "cones": ("lp_max", "strict_feasible", "solve_in_span"),
    "linalg": ("rref", "rank", "solve", "nullspace", "det"),
    "polytope": ("build", "volume", "volume_polynomial", "mixed_volume", "af_check"),
    "cli": ("main", "build_parser"),
    "lorentzian": ("is_lorentzian", "is_k_lorentzian", "is_m_convex"),
    "inertia": ("inertia", "hessian"),
    "polycore": ("HomPoly.partial", "HomPoly.dir_derivative", "HomPoly.mixed_partial",
                 "HomPoly.substitute", "HomPoly.__mul__", "HomPoly.__add__", "HomPoly.evaluate",
                 "parse_poly"),
    "hereditary": ("check_hereditary", "is_hereditary_lorentzian", "cone_system", "cone_nonempty",
                   "cone_member", "from_weights"),
    "fanchow": ("check_fan_lorentzian", "functional_from_weights", "fan_subdivide",
                "canonical_bijection_check", "ample_cone_member", "transport_chain"),
    "simplicial": ("SimComplex.link", "SimComplex.faces", "SimComplex.skeleton",
                   "SimComplex.is_connected"),
    "subdivision": ("subdivide", "weld", "apply_chain"),
}
# called far too often for a span each; only their calls are counted
COUNTED = {"rat": ("Q", "rat_str")}

EXTRA_METRICS = (
    ("matroid.chains_visited", "count"),
    ("cones.lp_max.distinct_ratio", "ratio"),
    ("cones.lp_max.cells", "count"),
    ("lorentzian.is_m_convex.points", "count"),
    ("lorentzian.deriv_cache.hit_ratio", "ratio"),
    ("inertia.calls_n_le4", "count"),
    ("inertia.calls_n_5to8", "count"),
    ("inertia.calls_n_ge9", "count"),
    ("trace_overhead", "ratio"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
    for module, funcs in COUNTED.items():
        out.extend((f"{module}.{fn}.calls", "count") for fn in funcs)
    return out + list(EXTRA_METRICS)


class Tracer:
    def __init__(self):
        self.request_id = -1
        self.spans: list[tuple] = []      # (span id, parent id, request id, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []      # [span id, child time] per open span
        self._last_id = [0]
        self._lp_inputs: set[int] = set()
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        stack, spans, calls, self_s, last_id = self._stack, self.spans, self.calls, self.self_s, self._last_id
        calls[name] = 0
        self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            last_id[0] += 1
            sid = last_id[0]
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                spans.append((sid, parent, self.request_id, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_only(self, name: str, fn, before=None):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer counts and ratios ------------------------------------------

    def _bump(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _on_lp(self, args):
        c, A, b = args[:3]
        self._bump("lp_max.cells", len(A) * (len(c) + len(A)))
        self._lp_inputs.add(hash((tuple(c), tuple(map(tuple, A)), tuple(b))))

    def _on_inertia(self, args):
        n = args[0].n
        self._bump("inertia.calls_n_le4" if n <= 4 else "inertia.calls_n_5to8" if n <= 8 else "inertia.calls_n_ge9")

    def _on_m_convex(self, args):
        M = args[0]
        self._bump("is_m_convex.points", len(getattr(M, "points", M)))

    def _on_chains(self, args, result):
        self._bump("chains_visited", len(result))

    def _on_deriv_cache(self, args):
        cache, multiset = args[0], args[1]
        self._bump("deriv_cache.calls")
        if multiset in cache.cache:
            self._bump("deriv_cache.hits")

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        hooks = {
            "cones.lp_max": (self._on_lp, None),
            "inertia.inertia": (self._on_inertia, None),
            "lorentzian.is_m_convex": (self._on_m_convex, None),
            "matroid.LatticeVolume.chains": (None, self._on_chains),
        }
        for module, funcs in LAYERS.items():
            for fn in funcs:
                name = f"{module}.{fn}"
                before, after = hooks.get(name, (None, None))
                self._replace(module, fn, lambda f, n=name, b=before, a=after: self._span(n, f, b, a))
        for module, funcs in COUNTED.items():
            for fn in funcs:
                self._replace(module, fn, lambda f, n=f"{module}.{fn}": self._count_only(n, f))
        self._replace("lorentzian", "_DerivativeCache.poly",
                      lambda f: self._count_only("lorentzian._DerivativeCache.poly", f, self._on_deriv_cache))

    def _replace(self, module: str, qualname: str, make):
        mod = sys.modules[f"lorentzlab.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))
            return
        orig = getattr(mod, qualname)
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if name == "lorentzlab" or name.startswith("lorentzlab."):
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, new)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.self_s:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for module, funcs in COUNTED.items():
            for fn in funcs:
                out[f"{module}.{fn}.calls"] = self.calls[f"{module}.{fn}"]
        c = self.counts
        lp_calls = self.calls["cones.lp_max"]
        out["matroid.chains_visited"] = c.get("chains_visited", 0)
        out["cones.lp_max.distinct_ratio"] = len(self._lp_inputs) / lp_calls if lp_calls else 0.0
        out["cones.lp_max.cells"] = c.get("lp_max.cells", 0)
        out["lorentzian.is_m_convex.points"] = c.get("is_m_convex.points", 0)
        dc = c.get("deriv_cache.calls", 0)
        out["lorentzian.deriv_cache.hit_ratio"] = c.get("deriv_cache.hits", 0) / dc if dc else 0.0
        for key in ("calls_n_le4", "calls_n_5to8", "calls_n_ge9"):
            out[f"inertia.{key}"] = c.get(f"inertia.{key}", 0)
        out["trace_overhead"] = overhead
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tname\tstart\tend\n")
            for sid, parent, rid, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{rid}\t{name}\t{start:.9f}\t{end:.9f}\n")
