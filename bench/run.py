"""lorentzlab benchmark: seeded request streams through the CLI.

Run from the repository root:

    python3 bench/run.py --workload matroid-hrw --seed 1 --seconds 12 --trace 0

One process, one client, closed loop: each request is sent after the
previous one returned.  A request is one call of ``lorentzlab.cli.main``
with stdout captured (``fanchow.ample_cone_member``, which no command
reaches, is called directly).  The run

1. sets up several times (fresh import of ``lorentzlab`` from ``src/``,
   writing the seeded request files, loading them) and reports the median
   CPU time as ``setup_s``;
2. sends every request once, untimed, and checks each report (see
   ``checks.py``); these reports are the reference and their sha256 is the
   report digest;
3. with ``--trace 0``, sends the whole stream again in passes until
   ``--seconds`` have gone by, requiring every report to equal its
   reference, and prints the end-to-end metrics;
4. with ``--trace 1``, times untraced passes for half of ``--seconds``,
   then sends one pass with every layer wrapped by ``tracing.Tracer`` and
   prints the per-layer metrics, including ``trace_overhead``.

End-to-end times are rescaled to a reference machine speed, measured by a
calibration slice next to every timing (see ``rescale``); the raw figures
are on the detail line under ``unscaled``.

The last line of stdout is the result; the line before it holds the
environment stamp, digests and sample counts.  Results are comparable only
between runs with the same ``rat_backend``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 15
# calibration samples before each set-up (see ``rescale``)
SETUP_CALIBRATIONS = 3
# at least 15 requests beyond the 90th percentile
P90_SAMPLES = 150
# time of one warm calibration slice at the reference speed (about the
# median on a 2-vCPU Xeon VM with Python 3.11.7); see ``calibrate``
CALIBRATION_REF_S = 0.0007


def _calibration_slice():
    """Fixed exact arithmetic of the kind lorentzlab does (Fraction products
    and sums, tuple-keyed dicts), written without lorentzlab."""
    acc = Fraction(0)
    counts = {}
    for k in range(1, 120):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 3)
        key = (k % 7, k % 5)
        counts[key] = counts.get(key, 0) + k
    return acc, counts


def calibrate() -> float:
    """Seconds one calibration slice takes right now.  The slice runs once
    untimed, so the timed run does not pay for caches the last request
    evicted, and with the garbage collector off, so the time does not
    depend on how much the program keeps alive."""
    _calibration_slice()
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_slice()
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(times: list, calibrations: list, per_time: int = 1) -> list:
    """Rescale each time to the reference speed.  The machine's speed swings
    by up to 2.4x in phases of about a second (see NOTES.md), so each time
    is divided by the speed measured right around it: ``per_time``
    calibration samples were taken right before each time and as many after
    the last, so those around time i are
    ``calibrations[per_time * i : per_time * (i + 2)]``."""
    return [t * CALIBRATION_REF_S / statistics.median(calibrations[per_time * i:per_time * (i + 2)])
            for i, t in enumerate(times)]


def _fresh_import():
    for name in [n for n in sys.modules if n == "lorentzlab" or n.startswith("lorentzlab.")]:
        del sys.modules[name]
    return importlib.import_module("lorentzlab.cli")


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list, float, float]:
    """Set up SETUP_REPS times; returns the requests and the median of the
    rescaled and of the raw process CPU time of one set-up.  Garbage left
    by the previous set-up is collected before the clock starts."""
    cpu, calibrations = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        calibrations += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        start = time.process_time()
        _fresh_import()
        workloads.generate(workload, seed, workdir, ROOT)
        requests = workloads.load(workdir)
        cpu.append(time.process_time() - start)
    calibrations += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return requests, statistics.median(rescale(cpu, calibrations, SETUP_CALIBRATIONS)), statistics.median(cpu)


class Runner:
    """Sends one request and captures what it printed."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.cli = sys.modules["lorentzlab.cli"]
        self.fanchow = sys.modules["lorentzlab.fanchow"]
        self.tracer = tracer

    def one(self, index: int, req: dict) -> tuple:
        """Returns (exit code, stdout, traceback or None, seconds)."""
        if self.tracer is not None:
            self.tracer.request_id = index
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self._ample(req) if "call" in req else self.cli.main(list(req["argv"]))
        except SystemExit as e:
            code = e.code
        except Exception:
            code, error = None, traceback.format_exc()
        return code, out.getvalue(), error, time.perf_counter() - start

    def _ample(self, req: dict) -> int:
        args = req["args"]
        with open(args["fan"]) as fh:
            fan = self.fanchow.Fan.from_json_dict(json.load(fh))
        with open(args["vector"]) as fh:
            v = json.load(fh)
        member = self.fanchow.ample_cone_member(fan, v)
        print(json.dumps({"call": req["call"], "fan": args["fan"], "member": member,
                          "verdict": "success"}, indent=2, sort_keys=True))
        return 0


def reference_pass(runner: Runner, requests: list) -> tuple[list, list]:
    refs, problems, verdicts = [], [], {}
    for i, req in enumerate(requests):
        code, out, error, _ = runner.one(i, req)
        verdict, problem = checks.check(req, code, out, error, verdicts)
        verdicts[req["id"]] = verdict
        refs.append((code, out))
        if problem is not None:
            problems.append(f"{req['id']}: {problem}")
    return refs, problems


def timed_passes(runner: Runner, requests: list, refs: list, seconds: float,
                 min_samples: int = 1, max_passes: int | None = None, calibrations: list | None = None):
    """Whole passes over the stream until `seconds` have gone by and at
    least `min_samples` requests were sent, so every run measures the same
    mix.  With a `calibrations` list, a calibration sample is appended to it
    before each request and after the last.  Returns (latencies, wall,
    passes, problems, report digest of the first pass)."""
    latencies, problems, first = [], [], []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or (passes != max_passes and (
            time.perf_counter() - start < seconds or len(latencies) < min_samples)):
        for i, req in enumerate(requests):
            if calibrations is not None:
                calibrations.append(calibrate())
            code, out, error, dt = runner.one(i, req)
            latencies.append(dt)
            if passes == 0:
                first.append((code, out))
            if error is not None or (code, out) != refs[i]:
                problems.append(f"{req['id']}: report differs from its first run")
        passes += 1
    if calibrations is not None:
        calibrations.append(calibrate())
    wall = time.perf_counter() - start
    return latencies, wall, passes, problems, report_digest(requests, first)


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def report_digest(requests: list, reports: list) -> str:
    return digest((req["id"],) + rep for req, rep in zip(requests, reports))


def files_digest(workdir: Path) -> str:
    return digest((p.name, p.read_bytes()) for p in sorted(workdir.iterdir()))


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lorentzlab" / "__init__.py").is_file():
        print(f"bench: no lorentzlab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}"

    requests, setup_s, setup_cpu_s = set_up(args.workload, args.seed, workdir)
    runner = Runner()
    refs, problems = reference_pass(runner, requests)
    attempted = len(requests)
    detail = {
        "workload": args.workload,
        "env": {
            "rat_backend": sys.modules["lorentzlab.rat"].RAT_BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "seed": args.seed,
        },
        "requests": len(requests),
        "request_files_sha256": files_digest(workdir),
        "report_sha256": report_digest(requests, refs),
    }

    if args.trace:
        seconds = args.seconds / 2
        calibrations, t_calibrations = [], []
        latencies, _, passes, more, _ = timed_passes(runner, requests, refs, seconds,
                                                     calibrations=calibrations)
        problems += more
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_lat, t_wall, _, more, traced_digest = timed_passes(Runner(tracer), requests, refs, 0, max_passes=1,
                                                                 calibrations=t_calibrations)
        finally:
            tracer.uninstall()
        problems += more
        attempted += len(latencies) + len(t_lat)
        # rescaled, so that a change of machine speed between the two phases
        # does not show as overhead
        overhead = (len(latencies) / sum(rescale(latencies, calibrations))) / (
            len(t_lat) / sum(rescale(t_lat, t_calibrations)))
        tracer.write_spans(workdir / "spans.tsv")
        detail.update(untraced_passes=passes, spans=len(tracer.spans), traced_wall_s=t_wall,
                      traced_report_sha256=traced_digest)
        names = tracing.metric_names()
        values = tracer.metrics(overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    else:
        calibrations = []
        latencies, wall, passes, more, _ = timed_passes(runner, requests, refs, args.seconds, P90_SAMPLES,
                                                        calibrations=calibrations)
        problems += more
        attempted += len(latencies)
        completed = len(latencies) - len(more)
        scaled = rescale(latencies, calibrations)
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
        raw_p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        (workdir / "timings.json").write_text(json.dumps({"latencies": latencies, "calibrations": calibrations}))
        detail.update(passes=passes, samples=len(latencies), beyond_p90=sum(x > p90 for x in scaled),
                      timed_wall_s=wall, calibration_median_ms=1000 * statistics.median(calibrations),
                      unscaled={"throughput_rps": completed / sum(latencies),
                                "latency_p50_ms": 1000 * statistics.median(latencies),
                                "latency_p90_ms": 1000 * raw_p90, "setup_s": setup_cpu_s})
        metrics = {
            "throughput_rps": {"value": completed / sum(scaled), "unit": "req/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * p90, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    detail["fail_rate"] = len(problems) / attempted
    detail["failures"] = problems[:20]
    for p in problems[:20]:
        print(f"bench: FAILED {p}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
