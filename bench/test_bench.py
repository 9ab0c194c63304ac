"""Self-tests of the benchmark: tracer coverage and digest equality, seeded
determinism of the request files, and the closed forms the checks use.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import expected as ex
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

# layer -> workloads on which it must record calls (and, unless it is only
# counted, self time)
ASSIGNED = {
    "matroid": ("matroid-hrw",),
    "cones": ("polytope-af", "hereditary-fan"),
    "linalg": ("polytope-af",),
    "polytope": ("polytope-af",),
    "cli": workloads.WORKLOADS,
    "lorentzian": ("lorentzian-mix",),
    "inertia": ("lorentzian-mix", "hereditary-fan"),
    "polycore": ("lorentzian-mix", "polytope-af"),
    "hereditary": ("hereditary-fan",),
    "fanchow": ("hereditary-fan",),
    "simplicial": ("hereditary-fan",),
    "subdivision": ("hereditary-fan",),
    "rat": workloads.WORKLOADS,
}


def test_every_layer_is_assigned():
    assert set(ASSIGNED) == set(tracing.LAYERS) | set(tracing.COUNTED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_covers_its_layers(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail_line), json.loads(result_line)
    assert result["correct"] and result["failed"] == 0
    assert detail["traced_report_sha256"] == detail["report_sha256"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in tracing.metric_names()}
    for layer, assigned in ASSIGNED.items():
        if workload not in assigned:
            continue
        calls = sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".calls"))
        assert calls > 0, layer
        if layer in tracing.LAYERS:
            self_s = sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
            assert self_s > 0, layer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_request_files(workload, tmp_path):
    import run

    digests = []
    for seed in (7, 7, 8):
        workloads.generate(workload, seed, tmp_path / "work", tmp_path)
        digests.append(run.files_digest(tmp_path / "work"))
    assert digests[0] == digests[1] != digests[2]


def test_closed_forms():
    assert ex.complete_graph_chi(5) == [24, -50, 35, -10, 1]
    assert ex.graph_chi(5, list(combinations(range(5), 2))) == ex.complete_graph_chi(5)
    # U(n-1, n) is the cycle matroid of an n-cycle
    assert ex.uniform_chi(3, 4) == ex.graph_chi(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert ex.reduced(ex.FANO_CHI) == [8, -6, 1]
    assert ex.volume("cube", [1, 2, 3, 1, 1, 1]) == 24
    for kind, t in (("square", [1, 2, 3, 1]), ("pentagon", [2, 3, 2, 1, 1]), ("cube", [1, 2, 3, 1, 1, 1]),
                    ("prism", [2, 1, 3, 1, 2])):
        dim = len(ex.NORMALS[kind][0])
        assert ex.mixed_volume(kind, [t] * dim) == ex.volume(kind, t) * (2 if dim == 2 else 6)
