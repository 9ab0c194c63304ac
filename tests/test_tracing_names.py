"""The per-layer tracer of the benchmark (``bench/tracing.py``) looks the
functions it wraps up by name.  A rename in ``src/`` would break
``bench/run.py --trace 1`` without failing any other test under ``tests/``,
so every name it lists, and the derivative-cache method it patches
besides, must resolve: a function on its ``lorentzlab`` module, or a
method defined on its class there."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing_names", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    listed = [(module, fn) for table in (tracing.LAYERS, tracing.COUNTED)
              for module, fns in table.items() for fn in fns]
    # patched by Tracer.install on every workload, outside both tables
    listed.append(("lorentzian", "_DerivativeCache.poly"))
    assert len(listed) > 50
    missing = []
    for module, name in listed:
        mod = importlib.import_module(f"lorentzlab.{module}")
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and attr in vars(cls)
        else:
            ok = callable(getattr(mod, name, None))
        if not ok:
            missing.append(f"{module}.{name}")
    assert not missing, missing
