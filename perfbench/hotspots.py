"""Traced counts for the two hand-measured hot spots in ROADMAP.md.

    PYTHONPATH=src:. python3 -m perfbench.hotspots

1. ``normalize`` of level 4 at alpha = 1/sqrt(2): pcf_d calls under it.
2. Self time per pcf_d evaluation by route, over uniform random points of
   the supported box nu in [-1, 200], |z| <= 40 (the ROADMAP's sample), and
   over one pass of the spectrum workload (seed 1).  Only first calls for
   a (nu, z) count, since a repeat is an ``lru_cache`` hit whatever its
   route.  The route is the one returned: an evaluation that tried the ODE
   and kept another route's value is counted under that route.

Each case starts from an empty ``lru_cache``, as a CLI process does.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from collections import defaultdict

import diracline
from diracline import specfun

from perfbench import tracer as tr
from perfbench import workloads as wl

BOX_POINTS = 300


def _traced(fn):
    specfun._pcf_d_impl.cache_clear()
    with tr.Tracer() as t:
        t.request = 0
        fn()
    return t


def main():
    alpha = 1.0 / math.sqrt(2.0)
    params = diracline.PotentialParams.from_alpha(alpha)
    root = diracline.spectrum(alpha, 4)[3]
    coeffs = diracline.assemble_coefficients(params, root)
    t = _traced(lambda: diracline.normalize(params, coeffs, root, 12.0))
    m = tr.layer_metrics(t.spans, 1, len(t.repeat_ids))
    print(f"normalize level 4, alpha=1/sqrt(2): "
          f"{m['diracmodel.normalize.pcf_d_calls']:.0f} pcf_d calls")

    rng = random.Random(0)
    box = [(rng.uniform(-1.0, 200.0), rng.uniform(-40.0, 40.0)) for _ in range(BOX_POINTS)]
    _route_table("box", _traced(lambda: [_pcf_d_or_none(nu, z) for nu, z in box]))
    reqs = itertools.islice(wl.requests("spectrum", 1), wl.SPECTRUM_PASS)
    _route_table("spectrum pass",
                 _traced(lambda: [diracline.spectrum(r["alpha"], r["levels"]) for r in reqs]))


def _pcf_d_or_none(nu, z):
    """Points where D_nu(z) exceeds the double range raise; they are skipped."""
    try:
        return diracline.pcf_d(nu, z)
    except OverflowError:
        return None


def _route_table(label, t):
    own = tr.self_times(t.spans)
    fresh = defaultdict(list)
    for sid, _parent, _req, name, _start, _end, route in t.spans:
        if name == "specfun.pcf_d" and sid not in t.repeat_ids:
            fresh[route].append(own[sid])
    for route in tr.ROUTES:
        times = fresh[route]
        print(f"{label} {route:>12}: {len(times):6d} evaluations, "
              f"median {1e3 * statistics.median(times):.3f} ms, "
              f"mean {1e3 * statistics.fmean(times):.3f} ms")
    ratio = statistics.median(fresh["ode-fallback"]) / statistics.median(fresh["series"])
    print(f"{label} ode-fallback / series, median per evaluation: {ratio:.0f}x")


if __name__ == "__main__":
    main()
