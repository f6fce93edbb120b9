"""Tests of the benchmark itself: inputs, span arithmetic and tracer hygiene.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import itertools
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import run, tracer, workloads  # noqa: E402


def _first(name, seed, n=40):
    return list(itertools.islice(workloads.requests(name, seed), n))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_requests_repeat_for_one_seed(name):
    assert _first(name, 7) == _first(name, 7)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_requests_differ_across_seeds(name):
    assert _first(name, 7) != _first(name, 8)


def test_requests_stay_in_documented_ranges():
    for req in _first("spectrum", 3, 200):
        assert 0.0 <= req["alpha"] < 10.0 and 1 <= req["levels"] <= 6
    for req in _first("states", 3, 200):
        assert 0.0 <= req["alpha"] < 2.0 and req["level"] == workloads.STATES_LEVEL
    for req in _first("crosscheck", 3, 200):
        assert 0.0 <= req["alpha"] < 3.0 and 2 <= req["levels"] <= 6
    cli = _first("cli", 3, 200)
    for req in cli:
        assert req["argv"][0] in workloads.CLI_COLUMNS
        assert 0.0 <= float(req["argv"][2]) < 1.0
    assert {r["argv"][0] for r in cli} == set(workloads.CLI_COLUMNS)
    assert any("--normalize" in r["argv"] for r in cli)


def test_each_pass_takes_one_alpha_per_stratum():
    reqs = _first("spectrum", 11, 2 * workloads.SPECTRUM_PASS)
    m = workloads.SPECTRUM_PASS
    for one_pass in (reqs[:m], reqs[m:]):
        assert sorted(int(r["alpha"] / 10.0 * m) for r in one_pass) == list(range(m))
        assert [r["pass_end"] for r in one_pass] == [False] * (m - 1) + [True]
        assert sum(r["oracle"] for r in one_pass) == 1


def test_cli_pass_mix():
    size = len(workloads.CLI_VARIANTS) * workloads.CLI_STRATA + len(workloads.CLI_ONCE)
    reqs = _first("cli", 5, size)
    assert [r["pass_end"] for r in reqs] == [False] * (size - 1) + [True]
    once = [r["argv"] for r in reqs if r["argv"][0] == "oracle-compare"
            or "--normalize" in r["argv"]]
    assert len(once) == len(workloads.CLI_ONCE)
    for argv in once:
        if "--normalize" in argv:
            assert argv[argv.index("--level") + 1] == str(workloads.CLI_NORMALIZE_LEVEL)
    rest = [r["argv"] for r in reqs if r["argv"] not in once]
    for (cmd,) in workloads.CLI_VARIANTS:
        runs = [argv for argv in rest if argv[0] == cmd]
        assert len(runs) == workloads.CLI_STRATA
        assert sum("json" in argv for argv in runs) == workloads.CLI_STRATA // 2


def _span(sid, parent, name, start, end, extra=None, req=0):
    return (sid, parent, req, name, start, end, extra)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        _span(4, 1, "leaf", 2.0, 3.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),   # overlaps a: [1, 6] is covered once
        _span(3, 0, "c", 8.0, 12.0),  # sticks out of the root: clipped to 10
        _span(0, -1, "root", 0.0, 10.0),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_layer_metrics_per_request_and_nesting():
    spans = [
        _span(1, 0, "specfun.pcf_d", 0.5, 1.0, "series"),
        _span(2, 0, "specfun.pcf_d", 1.0, 3.0, "ode-fallback"),
        _span(0, -1, "diracmodel.normalize", 0.0, 4.0),
        _span(3, -1, "specfun.pcf_d", 5.0, 5.5, "series", req=1),
    ]
    m = tracer.layer_metrics(spans, requests=2, pcf_d_repeats=1)
    assert m["specfun.pcf_d.calls"] == 1.5
    assert m["specfun.pcf_d.route.series"] == 1.0
    assert m["specfun.pcf_d.route.ode-fallback"] == 0.5
    assert m["specfun.pcf_d.route.ode-fallback.self_s"] == pytest.approx(1.0)
    assert m["specfun.pcf_d.self_s"] == pytest.approx(1.5)
    assert m["specfun.pcf_d.repeat_ratio"] == pytest.approx(1 / 3)
    assert m["diracmodel.normalize.self_s"] == pytest.approx(0.75)
    assert m["diracmodel.normalize.pcf_d_calls"] == 1.0
    assert m["oracle.integrate_side.calls"] == 0.0


def _attributes():
    import importlib

    mods = [importlib.import_module("diracline")] + [
        importlib.import_module(f"diracline.{m}") for m in tracer.MODULES
    ]
    return {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}


def test_tracer_wraps_reimported_names_and_restores_every_attribute():
    import diracline
    from diracline import cli, diracmodel, quantize, specfun

    before = _attributes()
    with tracer.Tracer() as t:
        for module, attr in ((diracline, "spectrum"), (quantize, "spectrum"),
                             (cli, "spectrum"), (quantize, "pcf_d"),
                             (diracmodel, "pcf_d"), (specfun, "pcf_d")):
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        t.request = 0
        diracline.spectrum(0.5, 1)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s[3] for s in t.spans}
    assert {"quantize.spectrum", "quantize.condition_residual",
            "specfun.pcf_d"} <= names
    by_id = {s[0]: s for s in t.spans}
    for span in t.spans:
        if span[3] == "quantize.condition_residual":
            assert by_id[span[1]][3] in ("quantize.spectrum", "quantize.refine_root")
    # no span is recorded once the tracer is gone
    count = len(t.spans)
    diracline.spectrum(0.6, 1)
    assert len(t.spans) == count


def test_tail_percentile_leaves_ten_samples_beyond_in_a_reference_run():
    for name in workloads.NAMES:
        n = workloads.REFERENCE_REQUESTS[name]
        lat = [float(i) for i in range(n)]
        value, beyond = run.tail(lat, workloads.tail_percentile(name))
        assert beyond == 10, name
        assert value == pytest.approx(n - 11, abs=1.0)
    assert run.tail([3.0, 1.0, 2.0, 4.0], 50.0) == (2.5, 2)


def test_emitted_metrics_match_benchmark_json():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    fake = {"latencies": [0.5, 1.5], "elapsed": 2.0, "attempted": 2, "failed": 0,
            "peak_rss_mib": 20.0}
    metrics, _notes = run.end_to_end(fake, 0.03, "spectrum")
    assert {k: u for k, (_v, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = dict(tracer.layer_metrics([], 1), **run.trace_metrics(fake, fake))
    assert {k: run.layer_unit(k) for k in layers} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
