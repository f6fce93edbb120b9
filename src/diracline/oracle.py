"""Independent eigenvalue oracle: Prüfer-angle shooting on the first-order system.

Integrates the coupled pair

    psi1' =  E psi2 - (m + g|x|) psi1
    psi2' = (m + g|x|) psi2 - E psi1

with fixed-step RK4 from the box edge x_max toward the kink at x=0,
starting in the decaying asymptotic direction.  Shooting on the
first-order system (rather than finite-difference diagonalization) avoids
spurious doubler modes; this module deliberately knows nothing about
parabolic cylinder functions so its failure modes are disjoint from the
primary method's.

**One shot serves both sides.**  Under x -> -x with the components swapped,
(psi1, psi2)(x) -> (psi2, psi1)(-x), the system maps onto itself, and so do
the left start (ratio, 1) at -x_max and the right start (1, ratio) at
x_max.  The left shot is therefore the right shot with its components
swapped, step for step.  With the right state at x = 0+ written as
r (cos phi, sin phi), the matching determinant psi1_L psi2_R - psi1_R psi2_L
of the unit states is sin^2 phi - cos^2 phi = -cos 2 phi.

**Level k is the crossing phi = pi/4 + (k-1) pi/2.**  The Prüfer angle obeys
phi' = M sin 2phi - E with M = m + g|x|.  Let s = x_max - x and
u = d phi / dE.  Then du/ds = 1 - 2 M cos 2phi u, and u > 0 at x_max
because the start angle is atan(E / (2(m + g x_max))); so u stays positive
and phi(0) rises strictly with E.  At E = 0, phi stays 0.  Where psi1 = 0,
phi' = -E, so as x falls phi crosses every zero of psi1 upward: each sign
change of psi1 adds exactly pi to the unwrapped angle (Teschl, Proc. AMS 126
(1998) 1685).  Counting those sign changes along the linear RK4 solution
gives phi without integrating the angle equation itself.  The step bound
h E < pi/2 keeps at most one zero of psi1 in a step.

``params`` arguments only need ``.m`` and ``.g`` attributes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, StepError
from .roots import illinois

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


class ShootSide(enum.Enum):
    LEFT = "Left"
    RIGHT = "Right"


@dataclass(frozen=True)
class ShootingConfig:
    """Domain, step, and energy window for the shooting solver.

    ``e_step`` is unused: levels are counted by the Prüfer angle, not found
    by an energy scan.  The field stays so that configs built from six
    positional arguments keep working.
    """

    x_max: float
    h: float
    e_min: float
    e_max: float
    e_step: float = 0.0
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
        if not (self.e_max > self.e_min):
            raise DomainError("need e_max > e_min")
        if not (self.h * self.e_max < 0.5 * math.pi):
            raise DomainError(
                f"h*e_max < pi/2 required, got {self.h * self.e_max:g}"
            )
        if not (self.tol > 0.0):
            raise DomainError(f"need tol > 0, got {self.tol!r}")
        return self


def default_config(params, e_max: float, e_min: float | None = None) -> ShootingConfig:
    """Config scaled to the problem: box past the classical turning point,
    step at the allowed ceiling, window up to ``e_max``."""
    root_g = math.sqrt(params.g)
    span = max(10.0, 1.25 * e_max / root_g + 5.0)
    x_max = span / root_g
    lo = 0.02 * root_g if e_min is None else e_min
    return ShootingConfig(x_max=x_max, h=1e-3 * x_max, e_min=lo, e_max=e_max)


def integrate_side(params, E: float, side: ShootSide, config: ShootingConfig):
    """Shoot toward x=0; returns the unit state and its Prüfer angle.

    ``(cos phi, sin phi, phi)`` for ``RIGHT`` and, by the mirror identity,
    ``(sin phi, cos phi, pi/2 - phi)`` for ``LEFT``, where phi is the
    unwrapped angle of the right-side state at x = 0+.

    The start lives in the decaying direction: psi ~ exp(-int (m+g|x'|)),
    with the component ratio E/(2(m+g x_max)) from the large-|x| algebraic
    balance, so the start error dies off like the solution itself.  The
    state is renormalized every 100 steps against under/overflow.
    """
    cfg = config.validated(params.g)
    if not (E >= 0.0 and math.isfinite(E)):
        raise DomainError(f"need E >= 0, got {E!r}")
    m, g = params.m, params.g
    n = max(8, int(round(cfg.x_max / cfg.h)))
    h = cfg.x_max / n
    x, step = cfg.x_max, -h
    psi1, psi2 = 1.0, E / (2.0 * (m + g * cfg.x_max))
    crossings = 0
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
        negative = psi1 < 0.0
        psi1 += sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        psi2 += sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if (psi1 < 0.0) != negative:
            crossings += 1
        x += step
        if i % _RENORM_EVERY == _RENORM_EVERY - 1:
            mag = max(abs(psi1), abs(psi2))
            if mag > _RENORM_LIMIT or (0.0 < mag < 1.0 / _RENORM_LIMIT):
                psi1 /= mag
                psi2 /= mag
    if not (math.isfinite(psi1) and math.isfinite(psi2)):
        raise StepError(f"shooting state blew up (E={E:g}, side={side.value})")
    r = math.hypot(psi1, psi2)
    if r == 0.0:
        raise StepError(f"degenerate shooting state at E={E:g}")
    # psi1 keeps the sign of cos(crossings * pi) between its zeros, so the
    # angle lies within pi/2 of crossings * pi
    if psi1 != 0.0:
        phi = crossings * math.pi + math.atan(psi2 / psi1)
    else:
        phi = crossings * math.pi + math.copysign(0.5 * math.pi, psi2)
    c, s = psi1 / r, psi2 / r
    if side is ShootSide.RIGHT:
        return c, s, phi
    return s, c, 0.5 * math.pi - phi


def match_determinant(params, E: float, config: ShootingConfig) -> float:
    """Scale-invariant mismatch psi1_L psi2_R - psi1_R psi2_L at x=0.

    The left unit state is the right one with its components swapped, so one
    shot gives the determinant, -cos 2phi: zero exactly at eigenvalues and
    of opposite sign on the two sides of each one.
    """
    r1, r2, _ = integrate_side(params, E, ShootSide.RIGHT, config)
    return r2 * r2 - r1 * r1


@dataclass(frozen=True)
class MatchResult:
    energy: float
    mismatch: float
    converged: bool


def eigenvalues(params, config: ShootingConfig) -> list[MatchResult]:
    """All eigenvalues in the window [e_min, e_max], ascending.

    The Prüfer angle at the window ends fixes which levels lie inside: one
    per target pi/4 + j pi/2 between the two angles.  Each is refined on
    the angle by ``roots.illinois``, from the previous root up to e_max.
    """
    cfg = config.validated(params.g)

    def angle(E):
        return integrate_side(params, E, ShootSide.RIGHT, cfg)[2]

    tol_e = 1e-12 * max(1.0, cfg.e_max)
    quarter = 0.5 * math.pi
    lo, phi_lo = cfg.e_min, angle(cfg.e_min)
    phi_hi = angle(cfg.e_max)
    j = max(0, math.floor((phi_lo - 0.25 * math.pi) / quarter) + 1)
    results = []
    while (target := 0.25 * math.pi + j * quarter) <= phi_hi:
        root, f_root, _ = illinois(
            lambda E: angle(E) - target, lo, cfg.e_max,
            phi_lo - target, phi_hi - target, tol_e,
        )
        mismatch = -math.cos(2.0 * (target + f_root))
        results.append(MatchResult(root, mismatch, abs(mismatch) <= cfg.tol))
        lo, phi_lo = root, target + f_root
        j += 1
    return results
