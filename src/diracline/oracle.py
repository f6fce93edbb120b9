"""Independent eigenvalue oracle: two-sided shooting on the first-order system.

Integrates the coupled pair

    psi1' =  E psi2 - (m + g|x|) psi1
    psi2' = (m + g|x|) psi2 - E psi1

with fixed-step RK4 from both box edges toward the kink at x=0, starting in
the decaying asymptotic direction, and locates eigenvalues as zeros of a
scale-invariant matching determinant.  Shooting on the first-order system
(rather than finite-difference diagonalization) avoids spurious doubler
modes; this module deliberately knows nothing about parabolic cylinder
functions so its failure modes are disjoint from the primary method's.

``params`` arguments only need ``.m`` and ``.g`` attributes.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, NonConvergence, StepError

__all__ = [
    "ShootSide",
    "ShootingConfig",
    "MatchResult",
    "default_config",
    "integrate_side",
    "match_determinant",
    "eigenvalues",
]

_RENORM_EVERY = 100
_RENORM_LIMIT = 1e150
_MAX_BISECT = 200


class ShootSide(enum.Enum):
    LEFT = "Left"
    RIGHT = "Right"


@dataclass(frozen=True)
class ShootingConfig:
    """Domain, step, and energy-scan window for the shooting solver."""

    x_max: float
    h: float
    e_min: float
    e_max: float
    e_step: float
    tol: float = 1e-8

    def validated(self, g: float) -> "ShootingConfig":
        if not (self.x_max * math.sqrt(g) >= 8.0):
            raise DomainError(
                f"x_max*sqrt(g) >= 8 required, got {self.x_max * math.sqrt(g):g}"
            )
        if not (0.0 < self.h <= 1e-3 * self.x_max):
            raise DomainError(f"h <= 1e-3*x_max required, got h={self.h!r}")
        if not (self.e_min >= 0.0):
            raise DomainError(f"e_min >= 0 required, got {self.e_min!r}")
        if not (self.e_max > self.e_min and self.e_step > 0.0):
            raise DomainError("need e_max > e_min and e_step > 0")
        if not (self.tol > 0.0):
            raise DomainError(f"need tol > 0, got {self.tol!r}")
        return self


def default_config(params, e_max: float, e_min: float | None = None) -> ShootingConfig:
    """Config scaled to the problem: box past the classical turning point,
    step at the allowed ceiling, scan window up to ``e_max``."""
    root_g = math.sqrt(params.g)
    span = max(10.0, 1.25 * e_max / root_g + 5.0)
    x_max = span / root_g
    lo = 0.02 * root_g if e_min is None else e_min
    return ShootingConfig(
        x_max=x_max,
        h=1e-3 * x_max,
        e_min=lo,
        e_max=e_max,
        e_step=0.05 * root_g,
    )


def integrate_side(params, E: float, side: ShootSide, config: ShootingConfig):
    """Shoot one side toward x=0; returns (psi1_0, psi2_0, log_scale).

    The start lives in the decaying direction: psi ~ exp(-int (m+g|x'|)),
    with the component ratio E/(2(m+g x_max)) from the large-|x| algebraic
    balance, so the start error dies off like the solution itself.  The
    state is renormalized every 100 steps against under/overflow and the
    accumulated log magnitude is returned alongside.
    """
    cfg = config.validated(params.g)
    if not (E >= 0.0 and math.isfinite(E)):
        raise DomainError(f"need E >= 0, got {E!r}")
    m, g = params.m, params.g
    n = max(8, int(round(cfg.x_max / cfg.h)))
    h = cfg.x_max / n
    edge_mass = m + g * cfg.x_max
    ratio = E / (2.0 * edge_mass)
    if side is ShootSide.RIGHT:
        x, step = cfg.x_max, -h
        psi1, psi2 = 1.0, ratio
    else:
        x, step = -cfg.x_max, h
        psi1, psi2 = ratio, 1.0
    log_scale = 0.0
    half = 0.5 * step
    sixth = step / 6.0
    for i in range(n):
        m0 = m + g * abs(x)
        mh = m + g * abs(x + half)
        m1 = m + g * abs(x + step)
        k1a = E * psi2 - m0 * psi1
        k1b = m0 * psi2 - E * psi1
        a2 = psi1 + half * k1a
        b2 = psi2 + half * k1b
        k2a = E * b2 - mh * a2
        k2b = mh * b2 - E * a2
        a3 = psi1 + half * k2a
        b3 = psi2 + half * k2b
        k3a = E * b3 - mh * a3
        k3b = mh * b3 - E * a3
        a4 = psi1 + step * k3a
        b4 = psi2 + step * k3b
        k4a = E * b4 - m1 * a4
        k4b = m1 * b4 - E * a4
        psi1 += sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        psi2 += sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        x += step
        if i % _RENORM_EVERY == _RENORM_EVERY - 1:
            mag = max(abs(psi1), abs(psi2))
            if mag > _RENORM_LIMIT or (0.0 < mag < 1.0 / _RENORM_LIMIT):
                psi1 /= mag
                psi2 /= mag
                log_scale += math.log(mag)
    if not (math.isfinite(psi1) and math.isfinite(psi2)):
        raise StepError(f"shooting state blew up (E={E:g}, side={side.value})")
    return psi1, psi2, log_scale


def match_determinant(params, E: float, config: ShootingConfig) -> float:
    """Scale-invariant mismatch psi1_L psi2_R - psi1_R psi2_L at x=0.

    Each side is scaled to unit length before the product, so the result is
    independent of the integration scalings and cannot overflow; zero
    exactly at eigenvalues and of opposite sign on the two sides of each one.
    """
    l1, l2, _ = integrate_side(params, E, ShootSide.LEFT, config)
    r1, r2, _ = integrate_side(params, E, ShootSide.RIGHT, config)
    left, right = math.hypot(l1, l2), math.hypot(r1, r2)
    if left == 0.0 or right == 0.0:
        raise StepError(f"degenerate shooting state at E={E:g}")
    return (l1 / left) * (r2 / right) - (r1 / right) * (l2 / left)


@dataclass(frozen=True)
class MatchResult:
    energy: float
    mismatch: float
    converged: bool


def _refine_energy(f, lo, hi, f_lo, f_hi, tol_e):
    """Bracketed bisection with secant acceleration on the determinant."""
    x_best, f_best = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    for _ in range(_MAX_BISECT):
        width = hi - lo
        if width <= tol_e or f_best == 0.0:
            return x_best, f_best
        denom = f_hi - f_lo
        x = lo - f_lo * width / denom if denom != 0.0 else 0.5 * (lo + hi)
        margin = 0.05 * width
        if not (lo + margin <= x <= hi - margin):
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x, 0.0
        if f_lo * fx < 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        if abs(fx) < abs(f_best):
            x_best, f_best = x, fx
    raise NonConvergence(f"energy refinement stalled near E={x_best:g}")


def eigenvalues(params, config: ShootingConfig) -> list[MatchResult]:
    """All eigenvalues in the scan window, ascending.

    Brackets sign changes of the matching determinant on the energy grid,
    refines each by bisection, and warns when a refined level sits within
    two scan steps of a window edge (levels just outside may be missed).
    """
    cfg = config.validated(params.g)

    def det(E):
        return match_determinant(params, E, cfg)

    tol_e = 1e-12 * max(1.0, cfg.e_max)
    results = []
    e_prev = cfg.e_min
    f_prev = det(e_prev)
    k = 1
    while e_prev < cfg.e_max:
        e = min(cfg.e_min + k * cfg.e_step, cfg.e_max)
        fx = det(e)
        if fx == 0.0:
            results.append(MatchResult(e, 0.0, True))
        elif f_prev * fx < 0.0:
            root, f_root = _refine_energy(det, e_prev, e, f_prev, fx, tol_e)
            results.append(
                MatchResult(root, f_root, abs(f_root) <= cfg.tol)
            )
        e_prev, f_prev = e, fx
        k += 1
    for r in results:
        if (r.energy - cfg.e_min < 2.0 * cfg.e_step) or (
            cfg.e_max - r.energy < 2.0 * cfg.e_step
        ):
            warnings.warn(
                f"eigenvalue {r.energy:g} is within 2 scan steps of the window "
                "edge; neighbouring levels may lie outside the window",
                stacklevel=2,
            )
    return results
