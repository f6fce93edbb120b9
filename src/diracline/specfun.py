"""Real-argument special functions used by the bound-state solver.

Provides the reciprocal gamma function, physicists' Hermite polynomials,
and the parabolic cylinder function D_nu(z) of real order together with its
z-derivative.

D_nu(z) solves Weber's equation

    y''(z) - (z^2/4 - nu - 1/2) y(z) = 0

and is the solution that decays as z -> +oo.  It is assembled from the
even/odd Kummer pair

    D_nu(z) = 2^(nu/2) sqrt(pi) exp(-z^2/4)
              * [ M(-nu/2, 1/2, z^2/2) / Gamma((1-nu)/2)
                  - sqrt(2) z M((1-nu)/2, 3/2, z^2/2) / Gamma(-nu/2) ]

with 1/Gamma evaluated through ``rgamma`` so the expression stays smooth
across integer orders, where one reciprocal gamma vanishes and the
surviving series terminates (Gaussian-weighted Hermite polynomials).

The series pair cancels catastrophically for large positive z and large
orders, so every evaluation carries an honest absolute-error estimate and the
evaluator picks among the series (rerun in ``decimal`` where it cancels),
direct large-|z| asymptotic expansions, the upward order recurrence from
seeds of order below 2, and two Runge-Kutta integrations of Weber's
equation: the log-derivative (Riccati) form inward through the monotone
tail z > 0, and the linear form outward from z = 0 to z < 0, where the
solution is oscillatory or dominant.  The route taken is reported in
``EvalReport.path``.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NonConvergence

__all__ = [
    "NU_MIN",
    "NU_MAX",
    "Z_MAX",
    "EvalReport",
    "rgamma",
    "hermite",
    "pcf_d",
    "pcf_d_prime",
]

_EPS = 2.220446049250313e-16
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)

NU_MIN = -1.0
NU_MAX = 200.0
Z_MAX = 40.0

_KUMMER_MAX_TERMS = 10000
_KUMMER_ARG_MAX = 400.0
# Kummer pair is attempted for z^2/2 below these caps.  On the positive
# side larger z is pointless (the even/odd parts cancel to ~e^{-z^2/2} of
# their size); on the negative side they add and the only limit is the
# series argument cap.
_SERIES_ARG_MAX_POS = 60.0
_SERIES_ARG_MAX_NEG = _KUMMER_ARG_MAX

_ASYM_MAX_TERMS = 60
_ASYM_OK_REL = 1e-13

# Dimensionless step controls: local step is c / (local stiffness scale).
_ODE_PHASE_STEP = 0.0035
_RICCATI_STEP = 0.25
_RENORM_LIMIT = 1e100
_EST_SAFETY = 10.0


@dataclass(frozen=True)
class EvalReport:
    """Value plus an honest absolute error bound and the route taken.

    ``path`` is one of ``"series"`` (the Kummer pair, with any ``decimal``
    rerun), ``"asymptotic"``, ``"ode-fallback"`` (Riccati inward on the
    z > 0 tail, linear outward to z < 0).  The order recurrence reports the
    path of its seed with the larger bound.
    """

    value: float
    est_abs_error: float
    path: str


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x), entire in x.

    Returns exactly 0.0 at the poles of Gamma (non-positive integers) and
    decays smoothly to zero for large positive x where Gamma overflows.
    """
    if not math.isfinite(x):
        raise DomainError(f"rgamma: argument must be finite, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        # Gamma only overflows for x > ~171.6 where it is positive.
        return math.exp(-math.lgamma(x))
    if g != 0.0:
        return 1.0 / g
    # Gamma underflowed (deeply negative x): reflect in log space.
    # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi; saturates to +-inf past range.
    ln = math.lgamma(1.0 - x) + math.log(abs(math.sin(math.pi * x))) - math.log(math.pi)
    sign = _gamma_sign(x)
    try:
        return math.copysign(math.exp(ln), sign)
    except OverflowError:
        return math.copysign(math.inf, sign)


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) away from poles."""
    if x > 0.0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def _kummer_m(a: float, b: float, z: float) -> EvalReport:
    """Confluent hypergeometric M(a, b, z) by direct series summation.

    M(a,b,z) = sum_k (a)_k z^k / ((b)_k k!).  The error estimate tracks the
    sum of absolute terms, so cancellation between terms (a < 0, z > 0)
    shows up honestly in ``est_abs_error``.
    """
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"_kummer_m: series undefined at non-positive integer b={b:g}")
    if not abs(z) <= _KUMMER_ARG_MAX:
        raise DomainError(f"_kummer_m: |z| <= {_KUMMER_ARG_MAX:g} required, got {z!r}")
    term = 1.0
    total = 1.0
    abs_sum = 1.0
    weighted_abs_sum = 1.0
    small_streak = 0
    for k in range(_KUMMER_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        abs_sum += abs(term)
        # term k is built by ~k rounded multiplications, so its own error
        # scales with k; without the weight long series under-report
        weighted_abs_sum += abs(term) * (k + 2.0)
        if term == 0.0:
            break
        # Two consecutive negligible terms: a single small term can be a
        # Pochhammer sign-change dip, not the tail.
        if abs(term) <= _EPS * abs(total) + 1e-305:
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise NonConvergence(
            f"_kummer_m({a:g}, {b:g}, {z:g}): no convergence in {_KUMMER_MAX_TERMS} terms"
        )
    est = _EPS * (6.0 * weighted_abs_sum + 8.0 * abs_sum + abs(total)) + abs(term)
    return EvalReport(total, est, "series")


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) (see ``_hermite_ladder``)."""
    if n != int(n) or n < 0 or n > 300:
        raise DomainError(f"hermite: need integer 0 <= n <= 300, got {n!r}")
    return _hermite_ladder(int(n), x)[-1]


def _hermite_ladder(n_max: int, x: float) -> list[float]:
    """[H_0(x), ..., H_{n_max}(x)] in one pass of the stable three-term
    recurrence H_{k+1} = 2x H_k - 2k H_{k-1}; the closed-form coefficient
    sum overflows near n ~ 30 and is avoided.

    Raises OverflowError naming the first degree that leaves double range.
    """
    ladder = [1.0]
    for k in range(n_max):
        # at k = 0 the second term is 0 * H_0, leaving H_1 = 2x
        h = 2.0 * x * ladder[k] - 2.0 * k * ladder[k - 1]
        if not math.isfinite(h):
            raise OverflowError(f"hermite({k + 1}, {x:g}) exceeds double range")
        ladder.append(h)
    return ladder


# ---------------------------------------------------------------------------
# parabolic cylinder function internals


def _kummer_decimal_run(a: float, b: float, x: float, prec: int):
    """One decimal-arithmetic pass of the Kummer series at given precision.

    Returns (value, cancellation_digits) where the digit count is measured
    from the run itself (log10 of the absolute-term sum over the result),
    so the caller can tell whether the precision actually absorbed the
    cancellation.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        da, db, dx = decimal.Decimal(a), decimal.Decimal(b), decimal.Decimal(x)
        term = decimal.Decimal(1)
        total = decimal.Decimal(1)
        # adjusted() is the decimal exponent: an O(1) order-of-magnitude probe
        max_term_mag = 0
        rel_floor = decimal.Decimal(10) ** (-prec + 2)
        small_streak = 0
        for k in range(2 * _KUMMER_MAX_TERMS):
            term *= (da + k) * dx / ((db + k) * (k + 1))
            total += term
            if term == 0:
                break
            mag = term.adjusted()
            if mag > max_term_mag:
                max_term_mag = mag
            if abs(term) <= abs(total) * rel_floor:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
        else:
            raise NonConvergence(f"decimal Kummer series stalled for ({a}, {b}, {x})")
        value = float(total)
    mag = math.log10(abs(value)) if value != 0.0 else -prec
    return value, max(max_term_mag + 1.0 - mag, 0.0)


def _kummer_decimal(a: float, b: float, x: float):
    """Widened-precision Kummer series; (value, honest est).

    The needed precision is unknown upfront (it depends on how badly the
    terms cancel against the true value), so the run re-tries with the
    measured cancellation until the result is clean at double precision.
    """
    prec = 45
    for _ in range(5):
        value, cancel_digits = _kummer_decimal_run(a, b, x, prec)
        spare = prec - cancel_digits - 4.0
        est = abs(value) * (10.0 ** (-spare) + 8.0 * _EPS) + 10.0 ** (-spare)
        if spare >= 18.0 or prec >= 250:
            return value, est
        prec = min(int(cancel_digits) + 30, 250)
    return value, est


def _kummer_best(a: float, b: float, x: float):
    """M(a, b, x) by the direct series when it is clean, else by whichever
    of the series and a widened-precision rerun has the smaller bound;
    (value, est)."""
    direct = _kummer_m(a, b, x)
    if direct.est_abs_error <= 64.0 * _EPS * abs(direct.value):
        return direct.value, direct.est_abs_error
    value, est = _kummer_decimal(a, b, x)
    if est < direct.est_abs_error:
        return value, est
    return direct.value, direct.est_abs_error


def _series_pair(nu: float, z: float):
    """Kummer-pair evaluation of D_nu(z); returns (value, est_abs_error)."""
    zh = 0.5 * z * z
    pref = 2.0 ** (0.5 * nu) * _SQRT_PI * math.exp(-0.5 * zh)
    r_even = rgamma(0.5 * (1.0 - nu))
    r_odd = rgamma(-0.5 * nu)
    a_even = 0.0
    est_even = 0.0
    if r_even != 0.0:
        m_val, m_est = _kummer_best(-0.5 * nu, 0.5, zh)
        a_even = r_even * m_val
        # reciprocal gamma loses relative accuracy linearly in |argument|
        # (sin(pi x) argument reduction inside the reflection)
        est_even = abs(r_even) * m_est
        est_even += abs(a_even) * _EPS * (6.0 + 4.0 * abs(0.5 * (1.0 - nu)))
    b_odd = 0.0
    est_odd = 0.0
    if r_odd != 0.0 and z != 0.0:
        m_val, m_est = _kummer_best(0.5 * (1.0 - nu), 1.5, zh)
        b_odd = _SQRT_2 * z * r_odd * m_val
        est_odd = abs(_SQRT_2 * z * r_odd) * m_est
        est_odd += abs(b_odd) * _EPS * (6.0 + 4.0 * abs(0.5 * nu))
    value = pref * (a_even - b_odd)
    est = pref * (est_even + est_odd + 2.0 * _EPS * (abs(a_even) + abs(b_odd)))
    # exp/pow argument roundoff in the prefactor scales with its log
    est += abs(value) * _EPS * (4.0 + zh + 0.7 * abs(nu))
    return value, est


def _asym_sum_recessive(nu: float, z: float):
    """Tail series of the z->+oo recessive expansion; (sum, |trunc|)."""
    zz2 = 2.0 * z * z
    t = 1.0
    s = 1.0
    for k in range(_ASYM_MAX_TERMS):
        t_next = t * (-(nu - 2.0 * k) * (nu - 2.0 * k - 1.0) / (zz2 * (k + 1.0)))
        if t_next == 0.0:
            return s, 0.0
        if abs(t_next) >= abs(t):
            # asymptotic divergence floor
            return s, abs(t_next)
        s += t_next
        t = t_next
        if abs(t) <= _EPS * abs(s):
            return s, abs(t)
    return s, abs(t)


def _asym_sum_dominant(nu: float, z: float):
    """Tail series of the z->-oo dominant expansion; (sum, |trunc|)."""
    zz2 = 2.0 * z * z
    t = 1.0
    s = 1.0
    for k in range(_ASYM_MAX_TERMS):
        t_next = t * ((nu + 2.0 * k + 1.0) * (nu + 2.0 * k + 2.0) / (zz2 * (k + 1.0)))
        if abs(t_next) >= abs(t):
            return s, abs(t_next)
        s += t_next
        t = t_next
        if abs(t) <= _EPS * abs(s):
            return s, abs(t)
    return s, abs(t)


def _asym_log_recessive(nu: float, z: float):
    """log|D_nu(z)| for z in the asymptotic zone; (log, trunc_rel).

    Valid only where the recessive expansion converges (trunc_rel small);
    the sign is positive there.
    """
    s, trunc = _asym_sum_recessive(nu, z)
    return -0.25 * z * z + nu * math.log(z) + math.log(s), trunc / abs(s)


def _pcf_asym_pos(nu: float, z: float):
    """Direct recessive asymptotic at z > 0; (value, est, trunc_rel)."""
    s, trunc = _asym_sum_recessive(nu, z)
    trunc_rel = trunc / abs(s) if s != 0.0 else math.inf
    ln_mag = -0.25 * z * z + nu * math.log(z)
    value = math.exp(ln_mag) * s
    # roundoff in the exp argument scales with its magnitude
    est = abs(value) * (3.0 * trunc_rel + (40.0 + 4.0 * abs(ln_mag)) * _EPS)
    return value, est, trunc_rel


def _pcf_asym_neg(nu: float, z: float):
    """Two-series asymptotic at z < 0; (value, est, trunc_rel).

    D_nu(-a) = cos(pi nu) e^{-a^2/4} a^nu S_rec
               + sqrt(2 pi) rgamma(-nu) e^{+a^2/4} a^{-nu-1} S_dom,  a = -z.

    At integer nu the dominant term vanishes identically and the recessive
    one reproduces the parity relation D_n(-z) = (-1)^n D_n(z).
    """
    a = -z
    s_rec, tr_rec = _asym_sum_recessive(nu, a)
    s_dom, tr_dom = _asym_sum_dominant(nu, a)
    trunc_rel = max(tr_rec / abs(s_rec), tr_dom / abs(s_dom))
    log_a = math.log(a)
    arg_rec = -0.25 * a * a + nu * log_a
    t_rec = math.cos(math.pi * nu) * math.exp(arg_rec) * s_rec
    arg_dom = 0.0
    if nu >= 0.0 and nu == math.floor(nu):
        # non-negative integer order: pure parity case, 1/Gamma(-nu) = 0
        t_dom = 0.0
    else:
        # |1/Gamma(-nu)| can overflow on its own; assemble in log form.
        arg_dom = (
            0.5 * math.log(2.0 * math.pi)
            - math.lgamma(-nu)
            + 0.25 * a * a
            - (nu + 1.0) * log_a
            + math.log(abs(s_dom))
        )
        sign = _gamma_sign(-nu) * math.copysign(1.0, s_dom)
        if arg_dom > 709.0:
            raise OverflowError(f"pcf_d({nu:g}, {z:g}) exceeds double range")
        t_dom = sign * math.exp(arg_dom)
    value = t_rec + t_dom
    est = abs(t_rec) * (3.0 * trunc_rel + (40.0 + 4.0 * abs(arg_rec)) * _EPS)
    est += abs(t_dom) * (3.0 * trunc_rel + (40.0 + 4.0 * abs(arg_dom)) * _EPS)
    return value, est, trunc_rel


def _rk4_weber(nu, t, y, w, h):
    """One RK4 step of y'' = q(t) y with q(t) = t^2/4 - nu - 1/2."""
    q1 = 0.25 * t * t - nu - 0.5
    th = t + 0.5 * h
    q2 = 0.25 * th * th - nu - 0.5
    t3 = t + h
    q3 = 0.25 * t3 * t3 - nu - 0.5
    k1y = w
    k1w = q1 * y
    k2y = w + 0.5 * h * k1w
    k2w = q2 * (y + 0.5 * h * k1y)
    k3y = w + 0.5 * h * k2w
    k3w = q2 * (y + 0.5 * h * k2y)
    k4y = w + h * k3w
    k4w = q3 * (y + h * k3y)
    y_new = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    w_new = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return y_new, w_new


def _integrate_weber(nu, t0, t1, y0, w0, c):
    """Variable-step RK4 for Weber's equation from t0 to t1.

    Steps resolve the local frequency/decay scale sqrt|q|; the state is
    renormalized when it grows past 1e100 and the accumulated log scale is
    returned: (y, w, log_scale).
    """
    t, y, w = t0, y0, w0
    acc = 0.0
    direction = 1.0 if t1 > t0 else -1.0
    while (t1 - t) * direction > 1e-14 * (1.0 + abs(t1)):
        q = 0.25 * t * t - nu - 0.5
        h = direction * min(c / max(1.0, math.sqrt(abs(q))), abs(t1 - t))
        y, w = _rk4_weber(nu, t, y, w, h)
        t += h
        m = max(abs(y), abs(w))
        if m > _RENORM_LIMIT:
            y /= m
            w /= m
            acc += math.log(m)
        if not (math.isfinite(y) and math.isfinite(w)):
            raise NonConvergence(f"Weber integration blew up at t={t:g} (nu={nu:g})")
    return y, w, acc


def _asym_start(nu: float, z: float):
    """Starting point z0 >= z where the recessive expansion converges,
    with log D_nu(z0) and the log-derivative D'_nu/D_nu there."""
    z0 = max(z, 2.0 * math.sqrt(nu + 1.5) + 2.0, 6.0)
    for _ in range(60):
        ln0, tr0 = _asym_log_recessive(nu, z0)
        ln1, tr1 = _asym_log_recessive(nu + 1.0, z0)
        if max(tr0, tr1) <= _ASYM_OK_REL:
            break
        z0 *= 1.2
    else:
        raise NonConvergence(f"no asymptotic start found for nu={nu:g}")
    # D'_nu/D_nu = z/2 - D_{nu+1}/D_nu
    dlog = 0.5 * z0 - math.exp(ln1 - ln0)
    return z0, ln0, dlog, max(tr0, tr1)


def _pcf_ode_inward_riccati(nu: float, z: float):
    """D_nu(z) on the monotone tail (z > turning point) via the Riccati form.

    Integrates w = y'/y and its running integral inward from the asymptotic
    zone; w is smooth and pole-free there, so thousands of e-folds of decay
    cost no rescaling.  Error from a coarse/fine Richardson pair.
    """
    z0, ln0, w0, tr = _asym_start(nu, z)

    def sweep(c):
        # step limited by the contraction rate 2|w| so the pair stays in
        # the clean h^4 regime
        t, w, lam = z0, w0, 0.0
        while t - z > 1e-13 * (1.0 + abs(z)):
            h = -min(0.06 * c, c / max(1.0, 2.0 * abs(w)), t - z)
            k1w = (0.25 * t * t - nu - 0.5) - w * w
            k1l = w
            th = t + 0.5 * h
            w2 = w + 0.5 * h * k1w
            k2w = (0.25 * th * th - nu - 0.5) - w2 * w2
            k2l = w2
            w3 = w + 0.5 * h * k2w
            k3w = (0.25 * th * th - nu - 0.5) - w3 * w3
            k3l = w3
            t4 = t + h
            w4 = w + h * k3w
            k4w = (0.25 * t4 * t4 - nu - 0.5) - w4 * w4
            k4l = w4
            w += (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            lam += (h / 6.0) * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
            t = t4
        return lam

    lam_c = sweep(_RICCATI_STEP)
    lam_f = sweep(0.5 * _RICCATI_STEP)
    # Richardson-extrapolate; keep the full coarse/fine gap as the bound.
    ln_val = ln0 + lam_f + (lam_f - lam_c) / 15.0
    if ln_val > 709.0:
        raise OverflowError(f"pcf_d({nu:g}, {z:g}) exceeds double range")
    value = math.exp(ln_val)
    rel = 16.0 * abs(lam_f - lam_c) + 3.0 * tr + 32.0 * _EPS * (1.0 + abs(ln_val))
    return value, abs(value) * rel


def _scaled_value(y: float, log_scale: float, context: str) -> float:
    """Recombine a renormalized amplitude with its accumulated log scale."""
    if y == 0.0:
        return 0.0
    ln = log_scale + math.log(abs(y))
    if ln > 709.0:
        raise OverflowError(f"{context} exceeds double range")
    return math.copysign(math.exp(ln), y)


def _pcf_ode_outward_neg(nu: float, z: float):
    """Linear Weber integration from z=0 closed-form data out to z < 0.

    Stable because D_nu is oscillatory or dominant on the negative axis.
    """
    y0 = 2.0 ** (0.5 * nu) * _SQRT_PI * rgamma(0.5 * (1.0 - nu))
    w0 = -(2.0 ** (0.5 * (nu + 1.0))) * _SQRT_PI * rgamma(-0.5 * nu)
    ctx = f"pcf_d({nu:g}, {z:g})"

    def sweep(c):
        y, w, acc = _integrate_weber(nu, 0.0, z, y0, w0, c)
        return _scaled_value(y, acc, ctx)

    v_c = sweep(_ODE_PHASE_STEP * 2.0)
    v_f = sweep(_ODE_PHASE_STEP)
    value = v_f + (v_f - v_c) / 15.0
    est = abs(v_f - v_c) + abs(value) * _log_arg_eps(value)
    return value, est


def _log_arg_eps(value: float) -> float:
    """Relative roundoff of a value recombined through exp(log-scale)."""
    if value == 0.0:
        return 32.0 * _EPS
    return (32.0 + 2.0 * abs(math.log(abs(value)))) * _EPS


def _pcf_recurrence_up(nu: float, z: float):
    """D_nu(z) by the upward order recurrence D_{m+1} = z D_m - m D_{m-1}.

    Used for z > 0 targets inside the oscillatory region with nu >= 3,
    where the recurrence is neutrally stable (both solutions share the
    envelope) and the seeds mu, mu+1 in [0, 2) are cheap to evaluate.
    The seed errors are propagated through the exact transfer coefficients
    (the recurrence run on unit seed vectors), not by naive magnitude
    compounding, which would overestimate by many orders.
    """
    mu = nu - math.floor(nu)
    n_steps = int(round(nu - mu))
    r0 = _pcf_d_impl(mu, z)
    r1 = _pcf_d_impl(mu + 1.0, z)
    d0, d1 = r0.value, r1.value
    a0, a1 = 1.0, 0.0
    b0, b1 = 0.0, 1.0
    order = mu + 1.0
    for _ in range(n_steps - 1):
        d0, d1 = d1, z * d1 - order * d0
        a0, a1 = a1, z * a1 - order * a0
        b0, b1 = b1, z * b1 - order * b0
        order += 1.0
    if not math.isfinite(d1):
        raise OverflowError(f"pcf_d({nu:g}, {z:g}) exceeds double range")
    est = 2.0 * (abs(a1) * r0.est_abs_error + abs(b1) * r1.est_abs_error)
    est += 8.0 * _EPS * n_steps * (abs(a1 * r0.value) + abs(b1 * r1.value) + abs(d1))
    path = r1.path if r1.est_abs_error >= r0.est_abs_error else r0.path
    return d1, est, path


@lru_cache(maxsize=16384)
def _pcf_d_impl(nu: float, z: float) -> EvalReport:
    candidates = []
    zh = 0.5 * z * z
    if (z >= 0.0 and zh <= _SERIES_ARG_MAX_POS) or (z < 0.0 and zh <= _SERIES_ARG_MAX_NEG):
        value, est = _series_pair(nu, z)
        if est <= 1e-13 * abs(value):
            return EvalReport(value, _EST_SAFETY * est, "series")
        candidates.append(EvalReport(value, est, "series"))
    z_turn = 2.0 * math.sqrt(max(nu + 0.5, 0.0))
    if z > 0.0:
        if z >= z_turn + 2.0:
            value, est, trunc_rel = _pcf_asym_pos(nu, z)
            if trunc_rel <= _ASYM_OK_REL:
                candidates.append(EvalReport(value, est, "asymptotic"))
        elif nu >= 3.0:
            value, est, path = _pcf_recurrence_up(nu, z)
            candidates.append(EvalReport(value, est, path))
    elif z < 0.0:
        value, est, trunc_rel = _pcf_asym_neg(nu, z)
        if trunc_rel <= _ASYM_OK_REL:
            candidates.append(EvalReport(value, est, "asymptotic"))
    # an ODE integration is only worth its cost if the cheap routes left
    # more than this relative error (tighter inside the accuracy box)
    ode_gate = 1e-10 if (abs(z) <= 8.0 and nu <= 60.0) else 2e-9
    best = min(candidates, key=lambda r: r.est_abs_error) if candidates else None
    if z != 0.0 and (best is None or best.est_abs_error > ode_gate * abs(best.value)):
        if z >= z_turn + 2.0:
            value, est = _pcf_ode_inward_riccati(nu, z)
            candidates.append(EvalReport(value, est, "ode-fallback"))
        elif z < 0.0:
            value, est = _pcf_ode_outward_neg(nu, z)
            candidates.append(EvalReport(value, est, "ode-fallback"))
        # z > 0 oscillatory: the series (nu < 3, so z < 5.74 keeps it in
        # range) or the order recurrence (nu >= 3) is the terminal route; the
        # series is only loose at zeros of D_nu, where no integration beats it
    if not candidates:
        # z == 0 always returns through the series fast path.
        raise NonConvergence(f"no evaluation route for pcf_d({nu:g}, {z:g})")
    best = min(candidates, key=lambda r: r.est_abs_error)
    if not math.isfinite(best.value):
        raise OverflowError(f"pcf_d({nu:g}, {z:g}) exceeds double range")
    # route choice uses the raw estimates; the claimed bound carries a
    # global safety margin on top of the per-path models
    return EvalReport(best.value, _EST_SAFETY * best.est_abs_error, best.path)


def _order_value(nu) -> float:
    value = float(nu)
    if not math.isfinite(value) or not (NU_MIN <= value <= NU_MAX):
        raise DomainError(
            f"pcf order must lie in [{NU_MIN:g}, {NU_MAX:g}], got {value!r}"
        )
    return value


def pcf_d(nu, z: float) -> EvalReport:
    """Parabolic cylinder function D_nu(z), recessive as z -> +oo.

    Supported box is nu in [-1, 200], |z| <= 40 (outside it a DomainError
    is raised rather than silently returning garbage).
    """
    order = _order_value(nu)
    if not math.isfinite(z) or abs(z) > Z_MAX:
        raise DomainError(f"pcf_d: need |z| <= {Z_MAX:g}, got {z!r}")
    return _pcf_d_impl(order, float(z))


def pcf_d_prime(nu, z: float) -> EvalReport:
    """Derivative D'_nu(z) from the recurrence D'_nu = (z/2) D_nu - D_{nu+1}."""
    order = _order_value(nu)
    if order + 1.0 > NU_MAX:
        raise DomainError(f"pcf_d_prime: needs nu+1 <= {NU_MAX:g}, got nu={order!r}")
    if not math.isfinite(z) or abs(z) > Z_MAX:
        raise DomainError(f"pcf_d_prime: need |z| <= {Z_MAX:g}, got {z!r}")
    r0 = _pcf_d_impl(order, float(z))
    r1 = _pcf_d_impl(order + 1.0, float(z))
    half_z = 0.5 * z
    value = half_z * r0.value - r1.value
    est = (
        abs(half_z) * r0.est_abs_error
        + r1.est_abs_error
        + _EPS * (abs(half_z * r0.value) + abs(r1.value))
    )
    path = r0.path if abs(half_z) * r0.est_abs_error >= r1.est_abs_error else r1.path
    return EvalReport(value, est, path)
