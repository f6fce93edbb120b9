"""diracline benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
only.  ``--trace 0`` measures the end-to-end metrics in one fresh worker
process.  ``--trace 1`` splits the time between an untraced and a traced
worker on the same request stream and reports the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the same numbers for people, including the fail ratio
and the percentile behind ``latency_tail_ms``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

# cold imports for setup_s, half before and half after the measured run,
# so that the median spans two moments of a machine whose speed drifts
SETUP_SAMPLES = 21
# the whole run, checks included, must end inside 180 s
TIME_BUDGET_S = 170.0

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diracline; "
    "print(repr(time.perf_counter() - t)); print(diracline.__file__)"
)


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def _check_tree():
    for rel in ("src/diracline/__init__.py", "src/diracline/cli.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found under {ROOT}: not a diracline checkout")


def _run_child(cmd, deadline):
    """Run ``cmd`` in its own session; kill the whole group past ``deadline``."""
    label = " ".join(cmd[1:3])[:60]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{label} overran the time budget")
    except BaseException:  # interrupted or terminated: take the group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{label} exited {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    return out.decode()


def measure_setup(deadline, count):
    """Seconds to import diracline in ``count`` fresh interpreters."""
    samples = []
    expected = os.path.join(SRC, "diracline", "__init__.py")
    for _ in range(count):
        seconds, path = _run_child([sys.executable, "-c", _IMPORT_PROBE],
                                   deadline).split("\n")[:2]
        if os.path.realpath(path) != os.path.realpath(expected):
            raise BenchError(f"imported diracline from {path}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def run_worker(workload, seed, seconds, traced, deadline):
    tag = f"{workload}-{'traced' if traced else 'plain'}"
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "result": os.path.join(OUT, f"{tag}.result.json"),
        "spans": os.path.join(OUT, f"{workload}.spans.jsonl.gz"),
        "span_dir": os.path.join(OUT, f"{workload}-cli-spans"),
    }
    if traced and workload == "cli":
        shutil.rmtree(spec["span_dir"], ignore_errors=True)
    _run_child([sys.executable, "-m", "perfbench.worker", json.dumps(spec)], deadline)
    with open(spec["result"]) as fh:
        return json.load(fh)


def tail(latencies, percentile):
    """Latency at ``percentile`` (linear interpolation) and the samples beyond it."""
    ordered = sorted(latencies)
    pos = percentile / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(1 for x in ordered if x > value)


def end_to_end(res, setup_s, workload):
    lat = res["latencies"]
    pct = workloads.tail_percentile(workload)
    tail_s, beyond = tail(lat, pct)
    fail_ratio = res["failed"] / res["attempted"]
    metrics = {
        "throughput_rps": (res["attempted"] / res["elapsed"], "req/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "success_ratio": (1.0 - fail_ratio, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    notes = {
        "latency_tail_ms": f"p{pct:.1f} of {len(lat)} samples, {beyond} beyond it",
        "success_ratio": f"fail_ratio {fail_ratio!r} ({res['failed']} of {res['attempted']})",
    }
    return metrics, notes


def trace_metrics(plain, traced):
    """Tracing overhead: untraced minus traced throughput on the same stream."""
    return {
        "trace.overhead_rps": (plain["attempted"] / plain["elapsed"]
                               - traced["attempted"] / traced["elapsed"]),
        "trace.requests": traced["attempted"],
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rps"):
        return "req/s"
    if name.endswith("_ratio") or name.endswith("_per_level"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + TIME_BUDGET_S
    # turn SIGTERM into SystemExit so the worker's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _check_tree()
        os.makedirs(OUT, exist_ok=True)
        if args.trace:
            half = 0.5 * args.seconds
            plain = run_worker(args.workload, args.seed, half, False, deadline)
            traced = run_worker(args.workload, args.seed, half, True, deadline)
            results = [plain, traced]
            layers = dict(traced["layers"], **trace_metrics(plain, traced))
            metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
            notes = {}
        else:
            before = measure_setup(deadline, SETUP_SAMPLES // 2)
            res = run_worker(args.workload, args.seed, args.seconds, False, deadline)
            after = measure_setup(deadline, SETUP_SAMPLES - len(before))
            setup_s = statistics.median(before + after)
            results = [res]
            metrics, notes = end_to_end(res, setup_s, args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["fixed_checks_ok"] for r in results)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  attempted {attempted}  failed {failed}")
    for r in results:
        for msg in r["failures"]:
            print(f"  FAIL {msg}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value!r:>24} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
