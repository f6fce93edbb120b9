"""One measured run in a fresh process: a closed loop with a single client.

Started by ``run.py`` as ``python -m perfbench.worker SPEC_JSON``.  The
process imports diracline once, so the process-global ``lru_cache`` in
``specfun`` starts cold, as it does for a CLI user.  It sends the
workload's requests one after another until the first pass boundary after
``seconds``, and only then checks the outputs, so checking neither costs
measured time nor warms the cache.  The result is written as JSON to
``SPEC_JSON["result"]``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from perfbench import tracer as tr
from perfbench import workloads as wl

MAX_FAILURE_MESSAGES = 5


class _Cli:
    """Request runner for the cli workload: one cold process per request."""

    def __init__(self, span_dir=None):
        self.span_dir = span_dir
        self.count = 0

    def execute(self, req):
        bootstrap = None
        if self.span_dir is not None:
            bootstrap = os.path.join(self.span_dir, f"{self.count}.json")
        self.count += 1
        return wl.run_cli(req["argv"], bootstrap)

    def digest(self, out):
        return out

    def check(self, req, out):
        wl.check_cli(req, out)


def _cli_layers(span_dir, done, latencies):
    """Merge the span files of traced CLI children into cli layer metrics."""
    spans, repeats, startup, out_bytes = [], 0, 0.0, 0
    for i, ((_req, out, _err), latency) in enumerate(zip(done, latencies)):
        path = os.path.join(span_dir, f"{i}.json")
        if not os.path.exists(path):  # the child died before writing
            continue
        with open(path) as fh:
            child = json.load(fh)
        offset = len(spans)
        main_wall = 0.0
        for sid, parent, _r, name, start, end, extra in child["spans"]:
            spans.append((sid + offset, parent + offset if parent >= 0 else -1,
                          i, name, start, end, extra))
            if name == "cli.main":
                main_wall += end - start
        repeats += child["pcf_d_repeats"]
        startup += latency - main_wall
        out_bytes += len(out[1]) if out is not None else 0
    n = len(latencies)
    metrics = tr.layer_metrics(spans, n, repeats)
    metrics["cli.startup_s"] = startup / n
    metrics["cli.output_bytes"] = out_bytes / n
    return metrics, spans


def run(spec):
    name, traced = spec["workload"], bool(spec["trace"])
    stream = wl.requests(name, spec["seed"])
    span_dir = tracer = None
    if name == "cli":
        if traced:
            span_dir = spec["span_dir"]
            os.makedirs(span_dir, exist_ok=True)
        runner = _Cli(span_dir)
        usage_of = resource.RUSAGE_CHILDREN
    else:
        runner = wl.InProcess(name)
        usage_of = resource.RUSAGE_SELF
        if traced:
            tracer = tr.Tracer().install()

    latencies, done = [], []
    clock = time.perf_counter
    start = clock()
    deadline = start + spec["seconds"]
    while True:
        req = next(stream)
        if tracer is not None:
            tracer.request = len(latencies)
        t0 = clock()
        try:
            out, err = runner.execute(req), None
        except Exception as exc:  # a failed request, never a crashed run
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        if err is None:
            out = runner.digest(out)
        done.append((req, out, err))
        if req["pass_end"] and clock() >= deadline:
            break
    elapsed = clock() - start
    peak_rss_mib = resource.getrusage(usage_of).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tr.layer_metrics(tracer.spans, len(latencies), len(tracer.repeat_ids))
        tr.write_spans(spec["spans"], tracer.spans)
    elif span_dir is not None:
        layers, spans = _cli_layers(span_dir, done, latencies)
        tr.write_spans(spec["spans"], spans)

    failures = []
    for req, out, err in done:
        if err is None:
            try:
                runner.check(req, out)
            except Exception as exc:
                err = f"check: {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{json.dumps(req)} -> {err}")
    extra_failures = []
    if name == "spectrum":
        try:
            runner.check_readme_table()
        except Exception as exc:
            extra_failures.append(f"README table: {type(exc).__name__}: {exc}")
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "attempted": len(done),
        "failed": len(failures),
        "failures": (failures + extra_failures)[:MAX_FAILURE_MESSAGES],
        "fixed_checks_ok": not extra_failures,
        "peak_rss_mib": peak_rss_mib,
        "layers": layers,
    }


def main():
    spec = json.loads(sys.argv[1])
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
