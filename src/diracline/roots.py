"""Bracketed root finding, shared by ``quantize`` and the shooting oracle.

Imports nothing but ``errors``, so the oracle can use it and still share no
code with the parabolic-cylinder method it checks.
"""

from .errors import NonConvergence

_MAX_ITER = 200


def illinois(f, lo, hi, f_lo, f_hi, width, f_stop=0.0):
    """Root of ``f`` on [lo, hi], where ``f_lo`` and ``f_hi`` differ in sign.

    Illinois false position (Dowell & Jarratt, BIT 11 (1971) 168): an end
    kept twice in a row has its value halved, so neither end can stall.
    Stops once the bracket is no wider than ``width``, once |f| <= ``f_stop``,
    or at an exact zero.  Returns ``(x, f(x), iterations)`` for the point with
    the smallest |f| seen, where ``iterations`` counts the calls of ``f``.
    """
    x_best, f_best = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    lo_negative = f_lo < 0.0
    kept = 0  # -1: lo was kept last time, +1: hi was
    for iteration in range(_MAX_ITER):
        if hi - lo <= width or abs(f_best) <= f_stop:
            return x_best, f_best, iteration
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        fx = f(x)
        if fx == 0.0:
            return x, 0.0, iteration + 1
        if (fx < 0.0) == lo_negative:
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        if abs(fx) < abs(f_best):
            x_best, f_best = x, fx
    raise NonConvergence(
        f"root search did not converge in {_MAX_ITER} iterations "
        f"(bracket [{lo!r}, {hi!r}], best x={x_best!r})"
    )
