"""Workload generators, request execution and output checks.

Inputs come only from the seed.  A workload is an endless series of passes;
a run always measures whole passes.  Each pass draws one value from each of
M equal strata of the workload's alpha range, placed within +-JITTER/2 of
a stratum width from the stratum's centre, and sends the requests in a
seeded order.  Different seeds thus send different inputs in a different
order, but every run carries the same mix of cheap and expensive requests.
That is what keeps the run-to-run spread small: one spectrum request costs
1 ms at alpha=0 and 4 s at alpha=7.5, and a run holds only 24-28 of them;
independent uniform draws spread the throughput of five 28-s runs by 29%
when the benchmark was written.  Spectrum uses four strata because their
costs then sort into three groups (alpha near 1.25; near 3.75 and 8.75;
near 6.25) and the median falls in the middle of the largest group, not
on its edge as it did with five strata.

``execute`` and ``check`` use the diracline package the worker imported
before its clock started.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import subprocess
import sys

ALPHA_STAR = 1.0 / math.sqrt(2.0)
# README table at alpha = 1/sqrt(2): (nu, branch)
README_TABLE = (
    (0.0, "Plus"),
    (1.524792910, "Minus"),
    (2.680978517, "Plus"),
    (3.914734402, "Minus"),
)
README_TOL = 1e-9
# README wavefunction grid and the CLI's automatic normalization halfwidth
GRID_X_MIN, GRID_X_MAX, GRID_DX = -5.0, 5.0, 0.01
AUTO_HALFWIDTH = 12.0
ORACLE_REL_TOL = 1e-4
NORM_TOL = 1e-9
CONTINUITY_TOL = 1e-9
# the shooting oracle's matching determinant reads exactly 0 on its whole
# energy grid at alpha >= 7 (measured when the benchmark was written), so
# it serves as a reference for spectrum only up to here
ORACLE_ALPHA_MAX = 5.0
# states requests only level 1, each at a fresh alpha.  With levels 1..K,
# K up to 4, one request costs 0.9-7.6 s, a run holds 6-11 of them, and the
# throughput of five seeds spread by 51% (measured); level 1 alone costs
# 0.9-2.5 s.
STATES_LEVEL = 1

CLI_COLUMNS = {
    "spectrum": ["index", "nu", "branch", "energy_plus", "energy_minus", "residual"],
    "scan": ["nu", "residual_eq_ratio", "residual_eq_deriv", "sign_change"],
    "hermite-check": ["n", "residual_plus", "residual_minus", "is_root"],
    "wavefunction": ["x", "psi1", "psi2"],
    "oracle-compare": ["index", "energy_analytic", "energy_oracle", "abs_diff",
                       "rel_diff", "within_tol"],
}
CLI_TEXT_COLUMNS = ("branch", "is_root", "sign_change", "within_tol")
CLI_FORMATS = (("csv",), ("json", "--deterministic"))
# the commands of the issue run four times per pass, twice in each format,
# at alphas from the four quarters of [0, 1)
CLI_VARIANTS = (("spectrum",), ("scan",), ("hermite-check",), ("wavefunction",))
CLI_STRATA = 4
# once per pass, in alternating formats: they carry the normalize and
# oracle paths, which no other workload in BENCHMARK.json measures.  They
# are few, and normalize asks for level 1 only, so that the median falls
# among the short processes (0.1-0.4 s) and the tail among the plain
# wavefunction runs (0.5-1.4 s), not on a gap between groups;
# `wavefunction --normalize` at level 3 took 2-7 s.
CLI_ONCE = (("wavefunction", "--normalize"), ("oracle-compare",))
CLI_NORMALIZE_LEVEL = 1

NAMES = ("spectrum", "states", "crosscheck", "cli")

JITTER = 0.2
# requests per pass: 4-10 s each on the machine the benchmark was written
# on, so a run ends soon after --seconds, and always on a pass boundary
SPECTRUM_PASS = 4
STATES_PASS = 3
CROSSCHECK_PASS = 10
# requests in a run on that machine (spectrum and cli: the fewest seen in
# 50-s runs; states and crosscheck: one 45-s run); the tail percentile
# leaves TAIL_BEYOND of them beyond it
REFERENCE_REQUESTS = {"spectrum": 24, "states": 33, "crosscheck": 90, "cli": 90}
TAIL_BEYOND = 10


def tail_percentile(name):
    """The highest percentile with TAIL_BEYOND samples beyond it in a reference run.

    Fixed per workload, so the tail keeps its meaning when a slower or
    faster machine fits fewer or more requests into a run.
    """
    return 100.0 * (1.0 - TAIL_BEYOND / REFERENCE_REQUESTS[name])


def _strata(rng, m, lo, hi):
    """One value per equal stratum of [lo, hi), near its centre.

    Returns (stratum index, value) pairs in seeded order.
    """
    width = (hi - lo) / m
    order = list(range(m))
    rng.shuffle(order)
    return [(j, lo + width * (j + 0.5 + JITTER * (rng.random() - 0.5))) for j in order]


def _one_pass(name, rng, p):
    """Requests of pass ``p``.

    Parameters other than alpha are tied to the stratum j and the pass
    index, so the mix repeats exactly every few passes.
    """
    if name == "spectrum":
        cells = _strata(rng, SPECTRUM_PASS, 0.0, 10.0)
        checked = rng.choice([j for j, a in cells if a <= ORACLE_ALPHA_MAX])
        return [{"alpha": a, "levels": 1 + (p * SPECTRUM_PASS + j) % 6, "oracle": j == checked}
                for j, a in cells]
    if name == "states":
        return [{"alpha": a, "level": STATES_LEVEL}
                for _j, a in _strata(rng, STATES_PASS, 0.0, 2.0)]
    if name == "crosscheck":
        return [{"alpha": a, "levels": 2 + j % 5}
                for j, a in _strata(rng, CROSSCHECK_PASS, 0.0, 3.0)]
    reqs = []
    for variant in CLI_VARIANTS:
        for j, a in _strata(rng, CLI_STRATA, 0.0, 1.0):
            fmt = CLI_FORMATS[j % len(CLI_FORMATS)]
            reqs.append({"argv": _cli_argv(variant, fmt, a, p * CLI_STRATA + j)})
    halves = dict(_strata(rng, len(CLI_FORMATS), 0.0, 1.0))
    for i, variant in enumerate(CLI_ONCE):
        j = (p + i) % len(CLI_FORMATS)
        reqs.append({"argv": _cli_argv(variant, CLI_FORMATS[j], halves[j], p)})
    rng.shuffle(reqs)
    return reqs


def requests(name, seed):
    """Endless request stream of a workload; each request is a plain dict.

    ``pass_end`` marks the last request of a pass: a run stops only there.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    for p in itertools.count():
        batch = _one_pass(name, rng, p)
        for k, req in enumerate(batch):
            req["pass_end"] = k == len(batch) - 1
            yield req


def _cli_argv(variant, fmt, alpha, k):
    cmd = variant[0]
    argv = [cmd, "--alpha", repr(alpha), "--format", *fmt, *variant[1:]]
    if cmd in ("spectrum", "oracle-compare"):
        argv += ["--levels", str(1 + k % 4)]
    elif cmd == "scan":
        argv += ["--branch", ("plus", "minus")[k // 2 % 2],
                 "--nu-min", "-0.99", "--nu-max", "6", "--step", "0.01"]
    elif "--normalize" in variant:
        argv += ["--level", str(CLI_NORMALIZE_LEVEL)]
    elif cmd == "wavefunction":
        argv += ["--level", str(1 + k % 3)]
    return argv


def _grid():
    n = int(math.floor((GRID_X_MAX - GRID_X_MIN) / GRID_DX + 1e-12))
    return [GRID_X_MIN + i * GRID_DX for i in range(n + 1)]


class InProcess:
    """Runs requests of one in-process workload against the public API."""

    def __init__(self, name):
        import diracline

        self.name = name
        self.dl = diracline
        self.grid = _grid()

    def execute(self, req):
        dl = self.dl
        if self.name == "spectrum":
            return dl.spectrum(req["alpha"], req["levels"])
        params = dl.PotentialParams.from_alpha(req["alpha"])
        if self.name == "states":
            level = req["level"]
            root = dl.spectrum(req["alpha"], level)[level - 1]
            coeffs = dl.assemble_coefficients(params, root)
            coeffs, _err = dl.normalize(params, coeffs, root, AUTO_HALFWIDTH)
            samples = dl.sample_wavefunction(params, coeffs, root, self.grid)
            return root, coeffs, samples
        roots = dl.spectrum(req["alpha"], req["levels"])
        analytic = [dl.energy_from_nu(params, r.nu).energy for r in roots]
        cfg = dl.default_config(params, e_max=analytic[-1] + 0.25)
        return analytic, dl.eigenvalues(params, cfg)

    def digest(self, out):
        """What the check needs of ``out``, taken after the clock stops.

        A states run would otherwise hold 1001 samples per request until the
        end, and the peak RSS would grow with the number of passes.
        """
        if self.name != "states":
            return out
        root, coeffs, samples = out
        finite = all(math.isfinite(s.psi1) and math.isfinite(s.psi2) for s in samples)
        return root, coeffs, len(samples), finite

    def check(self, req, out):
        """Raise AssertionError unless ``out`` (a digest) answers ``req`` correctly."""
        getattr(self, "_check_" + self.name)(req, out)

    def _check_spectrum(self, req, roots):
        dl = self.dl
        alpha = req["alpha"]
        _check(len(roots) == req["levels"], f"{len(roots)} roots for {req['levels']}")
        nus = [r.nu for r in roots]
        _check(all(b > a for a, b in zip(nus, nus[1:])), f"roots not ascending: {nus}")
        for r in roots:
            delta = 1e-9 * (1.0 + abs(r.nu))
            f_lo = dl.condition_residual(r.nu - delta, alpha, r.branch)
            f_hi = dl.condition_residual(r.nu + delta, alpha, r.branch)
            exact = dl.condition_residual(r.nu, alpha, r.branch) == 0.0
            _check(exact or f_lo * f_hi < 0.0,
                   f"root nu={r.nu!r} ({r.branch.value}) at alpha={alpha!r} "
                   "has no sign change")
        if req["oracle"]:
            params = dl.PotentialParams.from_alpha(alpha)
            energies = [dl.energy_from_nu(params, nu).energy for nu in nus]
            cfg = dl.default_config(params, e_max=energies[-1] + 0.25)
            _compare_energies(energies, dl.eigenvalues(params, cfg), alpha)

    def _check_states(self, req, out):
        dl = self.dl
        root, coeffs, n_samples, finite = out
        alpha = req["alpha"]
        _check(n_samples == len(self.grid), f"{n_samples} samples")
        _check(finite, "non-finite sample")
        params = dl.PotentialParams.from_alpha(alpha)
        right, left = dl.sample_wavefunction(params, coeffs, root, [0.0, -1e-300])
        scale = max(abs(right.psi1), abs(right.psi2))
        _check(abs(right.psi1 - left.psi1) <= CONTINUITY_TOL * scale
               and abs(right.psi2 - left.psi2) <= CONTINUITY_TOL * scale,
               f"discontinuous at x=0 (alpha={alpha!r}, level {req['level']})")
        norm = _norm_integral(dl, alpha, root.nu, coeffs)
        _check(abs(norm - 1.0) <= NORM_TOL,
               f"norm {norm!r} (alpha={alpha!r}, level {req['level']})")

    def _check_crosscheck(self, req, out):
        analytic, shot = out
        _check(len(analytic) == req["levels"], f"{len(analytic)} analytic levels")
        _compare_energies(analytic, shot, req["alpha"])

    def check_readme_table(self):
        roots = self.dl.spectrum(ALPHA_STAR, len(README_TABLE))
        for root, (nu, branch) in zip(roots, README_TABLE):
            _check(abs(root.nu - nu) <= README_TOL and root.branch.value == branch,
                   f"README table: got nu={root.nu!r} {root.branch.value}, "
                   f"want {nu!r} {branch}")


def _check(condition, message):
    if not condition:
        raise AssertionError(message)


def _compare_energies(analytic, shot, alpha):
    _check(len(shot) >= len(analytic),
           f"oracle found {len(shot)} of {len(analytic)} levels at alpha={alpha!r}")
    for k, (e_a, res) in enumerate(zip(analytic, shot), start=1):
        rel = abs(e_a - res.energy) / abs(e_a)
        _check(rel <= ORACLE_REL_TOL,
               f"level {k} at alpha={alpha!r}: analytic {e_a!r}, oracle {res.energy!r}")


def _gauss_legendre(n):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1]."""
    nodes, weights = [], []
    for k in range(1, n + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(12)
_GL_PANELS = 24


def _norm_integral(dl, alpha, nu, coeffs):
    """Integral of psi1^2 + psi2^2 over [-12, 12] (g = 1), by panel Gauss-Legendre.

    Independent of ``normalize``: the piecewise bispinor is rebuilt from the
    four amplitudes and ``pcf_d`` alone, with eta = sqrt(2)(alpha + |x|).
    """
    pcf_d = dl.pcf_d
    width = AUTO_HALFWIDTH / _GL_PANELS
    total = 0.0
    for p in range(_GL_PANELS):
        mid = (p + 0.5) * width
        for t, w in zip(_GL_NODES, _GL_WEIGHTS):
            eta = math.sqrt(2.0) * (alpha + mid + 0.5 * width * t)
            d_lo, d_up = pcf_d(nu, eta).value, pcf_d(nu + 1.0, eta).value
            right = (coeffs.c_plus * d_up) ** 2 + (coeffs.d_plus * d_lo) ** 2
            left = (coeffs.c_minus * d_lo) ** 2 + (coeffs.d_minus * d_up) ** 2
            total += 0.5 * width * w * (right + left)
    return total


def run_cli(argv, bootstrap=None):
    """Run one cold CLI process; returns (exit code, stdout bytes)."""
    if bootstrap is None:
        cmd = [sys.executable, "-m", "diracline.cli", *argv]
    else:
        cmd = [sys.executable, "-m", "perfbench.traced_cli", bootstrap, *argv]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    return proc.returncode, proc.stdout


def check_cli(req, out):
    code, stdout = out
    argv = req["argv"]
    cmd = argv[0]
    _check(code == 0, f"exit code {code} for {' '.join(argv)}")
    columns = CLI_COLUMNS[cmd]
    text = stdout.decode("utf-8")
    if "json" in argv:
        record = json.loads(text)
        _check(set(record) == {"schema_version", "command", "params", "columns",
                               "rows", "metadata"}, f"envelope keys {sorted(record)}")
        _check(record["command"] == cmd, f"command {record['command']!r}")
        header, rows = record["columns"], record["rows"]
    else:
        table = list(csv.reader(io.StringIO(text)))
        header, rows = table[0], table[1:]
        for row in rows:
            for value, col in zip(row, header):
                if col not in CLI_TEXT_COLUMNS:
                    float(value)
    _check(header == columns, f"columns {header} for {cmd}")
    _check(len(rows) > 0, f"no rows for {' '.join(argv)}")
    _check(all(len(row) == len(columns) for row in rows), "ragged rows")
