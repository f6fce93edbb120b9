"""Outside-in tracer: wraps diracline's public functions without editing them.

Every module attribute that holds a traced function (including names
re-imported into other modules and the package namespace) is replaced by a
wrapper that records one span per call; uninstalling puts every original
object back.  Spans live in memory as tuples

    (span_id, parent_id, request_id, name, start, end, extra)

and are written out once, at the end of a run.  ``extra`` carries the one
per-call fact a layer metric needs: the ``EvalReport.path`` of a special
function, the iterations of a refined root, the level count of a spectrum,
the RK4 step count of a shooting integration.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

MODULES = ("specfun", "quantize", "diracmodel", "oracle", "cli")

TARGETS = {
    "specfun": ("pcf_d", "pcf_d_prime"),
    "quantize": ("spectrum", "condition_residual", "refine_root", "hermite_root_table"),
    "diracmodel": ("assemble_coefficients", "normalize", "sample_wavefunction"),
    "oracle": ("default_config", "eigenvalues", "match_determinant", "integrate_side"),
    "cli": ("main",),
}

ROUTES = ("series", "asymptotic", "ode-fallback")


# the one per-call fact a layer metric needs, from (args, result)
_EXTRA = {
    "specfun.pcf_d": lambda args, result: result.path,
    "specfun.pcf_d_prime": lambda args, result: result.path,
    "quantize.spectrum": lambda args, result: len(result),
    "quantize.refine_root": lambda args, result: result.iterations,
    # the step count integrate_side derives from its ShootingConfig
    "oracle.integrate_side": lambda args, result: int(round(args[3].x_max / args[3].h)),
}


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed.

    Use as a context manager; ``request`` is the id stamped on new spans.
    """

    def __init__(self):
        self.spans = []
        self.request = -1
        # ids of pcf_d spans whose (nu, z) an earlier call already requested
        self.repeat_ids = set()
        self._seen = set()
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_fn = _EXTRA.get(name)
        is_pcf_d = name == "specfun.pcf_d"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            if is_pcf_d:
                nu = args[0]
                key = (float(getattr(nu, "nu", nu)), float(args[1]))
                if key in self._seen:
                    self.repeat_ids.add(sid)
                else:
                    self._seen.add(key)
            stack.append(sid)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end, extra))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        package = importlib.import_module("diracline")
        modules = [package] + [
            importlib.import_module(f"diracline.{m}") for m in MODULES
        ]
        for mod_name, fn_names in TARGETS.items():
            home = importlib.import_module(f"diracline.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        return self

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time per span id: duration minus the part its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    children = defaultdict(list)
    for sid, parent, _req, _name, start, end, _extra in spans:
        if parent in bounds:
            children[parent].append((start, end))
    result = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[sid] = (end - start) - covered
    return result


def layer_metrics(spans, requests, pcf_d_repeats=0):
    """Per-layer metrics of one traced run, as means per completed request.

    Counts and self times are divided by ``requests``, so a faster program
    that completes more requests in the same window shows less work per
    request rather than the same total.  Ratios are plain ratios.
    """
    per = 1.0 / requests if requests else 0.0
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    extra_sum = defaultdict(float)
    routes = defaultdict(int)
    route_self = defaultdict(float)
    under = defaultdict(int)
    for span in spans:
        sid, parent, _req, name, _start, _end, extra = span
        calls[name] += 1
        self_s[name] += own[sid]
        if name in ("specfun.pcf_d", "specfun.pcf_d_prime"):
            if extra is not None:
                routes[(name, extra)] += 1
                route_self[(name, extra)] += own[sid]
            if name == "specfun.pcf_d":
                seen = set()
                while parent in by_id:
                    ancestor = by_id[parent][3]
                    if ancestor not in seen:
                        under[ancestor] += 1
                        seen.add(ancestor)
                    parent = by_id[parent][1]
        elif extra is not None:
            extra_sum[name] += extra

    m = {}
    for fn in ("pcf_d", "pcf_d_prime"):
        name = f"specfun.{fn}"
        m[f"{name}.calls"] = calls[name] * per
        m[f"{name}.self_s"] = self_s[name] * per
        for route in ROUTES:
            m[f"{name}.route.{route}"] = routes[(name, route)] * per
    for route in ROUTES:
        m[f"specfun.pcf_d.route.{route}.self_s"] = route_self[("specfun.pcf_d", route)] * per
    n_pcf = calls["specfun.pcf_d"]
    m["specfun.pcf_d.repeat_ratio"] = pcf_d_repeats / n_pcf if n_pcf else 0.0

    levels = extra_sum["quantize.spectrum"]
    m["quantize.spectrum.self_s"] = self_s["quantize.spectrum"] * per
    m["quantize.condition_residual.calls"] = calls["quantize.condition_residual"] * per
    m["quantize.residual_per_level"] = (
        calls["quantize.condition_residual"] / levels if levels else 0.0
    )
    m["quantize.refine_root.iterations"] = extra_sum["quantize.refine_root"] * per
    m["quantize.hermite_root_table.self_s"] = self_s["quantize.hermite_root_table"] * per

    m["diracmodel.assemble_coefficients.self_s"] = (
        self_s["diracmodel.assemble_coefficients"] * per
    )
    for fn in ("normalize", "sample_wavefunction"):
        name = f"diracmodel.{fn}"
        m[f"{name}.self_s"] = self_s[name] * per
        m[f"{name}.pcf_d_calls"] = under[name] * per

    m["oracle.eigenvalues.self_s"] = self_s["oracle.eigenvalues"] * per
    m["oracle.match_determinant.calls"] = calls["oracle.match_determinant"] * per
    m["oracle.integrate_side.calls"] = calls["oracle.integrate_side"] * per
    m["oracle.integrate_side.self_s"] = self_s["oracle.integrate_side"] * per
    m["oracle.integrate_side.rk4_steps"] = extra_sum["oracle.integrate_side"] * per

    m["cli.main.self_s"] = self_s["cli.main"] * per
    # filled in from process wall times by the cli workload's traced run
    m["cli.startup_s"] = 0.0
    m["cli.output_bytes"] = 0.0
    return m


def write_spans(path, spans):
    """Write spans as gzipped JSON lines, one span per line."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")

