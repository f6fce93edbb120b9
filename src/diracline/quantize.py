"""Transcendental quantization conditions and their root search.

Matching the two bispinor components of a bound state across the potential
kink at x=0 forces, at z0 = sqrt(2)*alpha,

    D_{nu+1}(z0) = +- sqrt(nu+1) D_nu(z0)          (ratio form)

with the branch sign fixing the relative sign of the left/right amplitude
pairs.  An equivalent statement through the derivative recurrence is

    D'_nu(z0) = [alpha/sqrt(2) -+ sqrt(nu+1)] D_nu(z0)   (derivative form)

where the sign pairing is opposite: the ratio-form Plus branch is the
derivative-form minus branch and vice versa.

The historical integer-order condition H_{n+1}(alpha) = +- sqrt(2(n+1))
H_n(alpha) is kept as a separate residual so its lack of integer solutions
can be demonstrated directly.

Roots in nu are located by sign-change bracketing on a grid and refined by
bisection with secant acceleration.  Residuals are kept in the entire
(polynomial-like) form above: no normalization by D_nu(z0), hence no
spurious poles to confuse the bracketing.

No root lies below a floor that follows from squaring the Dirac equation.
Each component then obeys -psi'' + [(m+g|x|)^2 -+ g sgn x] psi = E^2 psi,
and for m >= 0

    (m+g|x|)^2 >= m^2 + 2mg|x|,    -+g sgn x >= -g,
    lowest eigenvalue of -d^2 + c|x| = |a'_1| c^(2/3)   (a'_1: first zero of Ai')

so E^2 >= m^2 - g + |a'_1| (2mg)^(2/3).  With E^2 = 2g(nu+1) and
alpha = m/sqrt(g) this reads

    nu >= nu_floor(alpha) = alpha^2/2 - 3/2 + (|a'_1|/2) (2 alpha)^(2/3).

``spectrum`` starts its grid scan just below that floor, on the same grid
points it would visit from ``nu_min``, so its roots do not depend on the
floor; it evaluates no grid point above the scan cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergence, WindowExhausted
from .specfun import hermite, pcf_d, pcf_d_prime

__all__ = [
    "SignBranch",
    "RootBracket",
    "QuantizationRoot",
    "paired_branch",
    "condition_residual",
    "condition_residual_deriv_form",
    "scan_brackets",
    "refine_root",
    "spectrum",
    "hermite_condition_residual",
]

DEFAULT_REFINE_TOL = 1e-12
DEFAULT_NU_MIN = -1.0 + 1e-9
DEFAULT_STEP = 0.01
# the residual at nu evaluates order nu+1, which must stay inside the
# supported evaluation box nu <= 200
WINDOW_CAP = 199.0
_RESIDUAL_STOP = 1e-13
_MAX_REFINE_ITER = 200
_DEDUP_TOL = 1e-9
# |a'_1|, the first zero of Ai' (DLMF 9.9.1)
_AIRY_PRIME_ZERO = 1.0187929716474710


class SignBranch(enum.Enum):
    """The two sign choices of the ratio-form matching condition."""

    PLUS = "Plus"
    MINUS = "Minus"

    @property
    def sign(self) -> float:
        return 1.0 if self is SignBranch.PLUS else -1.0


def paired_branch(branch: SignBranch) -> SignBranch:
    """Derivative-form branch equivalent to a ratio-form branch (and back).

    Substituting D_{nu+1} = (z/2) D_nu - D'_nu into the ratio form flips
    the sign choice, so Plus pairs with minus and Minus with plus.
    """
    return SignBranch.MINUS if branch is SignBranch.PLUS else SignBranch.PLUS


def _check_nu_alpha(nu: float, alpha: float):
    if not math.isfinite(nu) or nu <= -1.0:
        raise DomainError(f"need nu > -1, got {nu!r}")
    if not math.isfinite(alpha) or alpha < 0.0:
        raise DomainError(f"need alpha >= 0, got {alpha!r}")


def condition_residual(nu: float, alpha: float, branch: SignBranch) -> float:
    """Ratio-form residual D_{nu+1}(z0) -+ sqrt(nu+1) D_nu(z0), z0=sqrt(2)alpha.

    Zero exactly at quantized orders; continuous (entire) in nu, including
    across integer orders.
    """
    _check_nu_alpha(nu, alpha)
    z0 = math.sqrt(2.0) * alpha
    d_up = pcf_d(nu + 1.0, z0).value
    d_lo = pcf_d(nu, z0).value
    return d_up - branch.sign * math.sqrt(nu + 1.0) * d_lo


def condition_residual_deriv_form(nu: float, alpha: float, branch: SignBranch) -> float:
    """Derivative-form residual D'_nu(z0) - [alpha/sqrt2 + s sqrt(nu+1)] D_nu(z0).

    ``branch`` carries the derivative-form sign itself (s = +1 for PLUS,
    s = -1 for MINUS).  For any (nu, alpha) this equals minus the
    ratio-form residual of the paired branch.
    """
    _check_nu_alpha(nu, alpha)
    z0 = math.sqrt(2.0) * alpha
    dp = pcf_d_prime(nu, z0).value
    d_lo = pcf_d(nu, z0).value
    coeff = alpha / math.sqrt(2.0) + branch.sign * math.sqrt(nu + 1.0)
    return dp - coeff * d_lo


@dataclass(frozen=True)
class RootBracket:
    """Sign-change interval of a residual; degenerate when an exact grid zero."""

    nu_lo: float
    nu_hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if self.nu_lo > self.nu_hi:
            raise DomainError("bracket needs nu_lo <= nu_hi")
        degenerate = self.nu_lo == self.nu_hi
        if not degenerate and not (self.f_lo * self.f_hi < 0.0):
            raise DomainError("bracket endpoints must change sign")

    @property
    def degenerate(self) -> bool:
        return self.nu_lo == self.nu_hi


@dataclass(frozen=True)
class QuantizationRoot:
    """One refined root of a quantization condition."""

    nu: float
    branch: SignBranch
    residual: float
    iterations: int

    @property
    def below_integer_window(self) -> bool:
        """True for nu < 0: a state outside the historical integer ladder."""
        return self.nu < -1e-9


def _nu_floor(alpha: float) -> float:
    """Lower bound on every root nu of the matching condition at ``alpha``.

    From the squared Dirac equation (see the module docstring):
    E^2 >= m^2 - g + |a'_1| (2mg)^(2/3) with E^2 = 2g(nu+1).
    """
    airy = 0.5 * _AIRY_PRIME_ZERO * (2.0 * alpha) ** (2.0 / 3.0)
    return 0.5 * alpha * alpha - 1.5 + airy


def _first_scan_index(nu_floor: float, nu_min: float, step: float) -> int:
    """Index i of the grid point nu_min + i*step where the scan starts.

    One grid step below the last point under the floor, so rounding in the
    index cannot skip a bracket; never below the window start.
    """
    return max(0, math.floor((nu_floor - nu_min) / step) - 1)


def _scan_function(f, lo: float, hi: float, step: float):
    """Brackets of sign changes of ``f`` on the closed grid lo, lo+step, ..."""
    if not (lo < hi):
        raise DomainError(f"need nu_min < nu_max, got [{lo!r}, {hi!r}]")
    if not (step > 0.0) or not math.isfinite(step):
        raise DomainError(f"need step > 0, got {step!r}")
    n = int(math.floor((hi - lo) / step + 1e-12))
    brackets = []
    x_prev = lo
    try:
        f_prev = f(x_prev)
    except Exception as exc:
        raise type(exc)(f"{exc} (while scanning at nu={x_prev!r})") from exc
    if f_prev == 0.0:
        brackets.append(RootBracket(x_prev, x_prev, 0.0, 0.0))
    for i in range(1, n + 1):
        x = lo + i * step
        if x > hi:
            break
        try:
            fx = f(x)
        except Exception as exc:
            raise type(exc)(f"{exc} (while scanning at nu={x!r})") from exc
        if fx == 0.0:
            brackets.append(RootBracket(x, x, 0.0, 0.0))
        elif f_prev * fx < 0.0:
            brackets.append(RootBracket(x_prev, x, f_prev, fx))
        x_prev, f_prev = x, fx
    return brackets


def scan_brackets(
    alpha: float,
    branch: SignBranch,
    nu_min: float,
    nu_max: float,
    step: float,
) -> list[RootBracket]:
    """All sign-change brackets of the ratio-form residual on a nu grid.

    Deterministic; exact grid zeros come back as degenerate brackets.  A
    step wider than the window yields no interior pairs, hence an empty
    list.
    """
    if nu_min <= -1.0:
        raise DomainError(f"need nu_min > -1, got {nu_min!r}")
    return _scan_function(
        lambda nu: condition_residual(nu, alpha, branch), nu_min, nu_max, step
    )


def refine_root(
    bracket: RootBracket,
    alpha: float,
    branch: SignBranch,
    tol: float = DEFAULT_REFINE_TOL,
) -> QuantizationRoot:
    """Refine a bracket by bisection with secant acceleration.

    Stops once the bracket width drops below ``tol`` or the residual
    magnitude below 1e-13; the sign-change guarantee of the input bracket
    is preserved throughout.
    """
    if not (tol > 0.0):
        raise DomainError(f"need tol > 0, got {tol!r}")
    if bracket.degenerate:
        return QuantizationRoot(bracket.nu_lo, branch, bracket.f_lo, 0)
    lo, hi, f_lo, f_hi = bracket.nu_lo, bracket.nu_hi, bracket.f_lo, bracket.f_hi
    x_best, f_best = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    for iteration in range(1, _MAX_REFINE_ITER + 1):
        width = hi - lo
        if width <= tol or abs(f_best) <= _RESIDUAL_STOP:
            return QuantizationRoot(x_best, branch, f_best, iteration - 1)
        # secant proposal, guarded away from the bracket ends
        denom = f_hi - f_lo
        x = lo - f_lo * width / denom if denom != 0.0 else 0.5 * (lo + hi)
        margin = 0.05 * width
        if not (lo + margin <= x <= hi - margin):
            x = 0.5 * (lo + hi)
        fx = condition_residual(x, alpha, branch)
        if fx == 0.0:
            return QuantizationRoot(x, branch, 0.0, iteration)
        if f_lo * fx < 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        if abs(fx) < abs(f_best):
            x_best, f_best = x, fx
    raise NonConvergence(
        f"root refinement did not converge in {_MAX_REFINE_ITER} iterations "
        f"(bracket [{bracket.nu_lo:g}, {bracket.nu_hi:g}], branch {branch.value})"
    )


def spectrum(
    alpha: float,
    n_levels: int,
    *,
    nu_min: float = DEFAULT_NU_MIN,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_REFINE_TOL,
) -> list[QuantizationRoot]:
    """Lowest ``n_levels`` roots merged from both branches, ascending in nu.

    The scan is lazy, so requesting a few levels never evaluates the
    residual far above the highest root returned.  It starts one grid step
    below ``_nu_floor(alpha)`` (or at ``nu_min`` if that is higher), on the
    grid nu_min + i*step, so the roots are the ones a scan from ``nu_min``
    finds.  It raises WindowExhausted before evaluating any grid point above
    WINDOW_CAP, so without any evaluation when the floor lies two steps above.
    """
    if n_levels < 1:
        raise DomainError(f"need n_levels >= 1, got {n_levels!r}")
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"need step > 0, got {step!r}")
    _check_nu_alpha(nu_min, alpha)
    nu_floor = _nu_floor(alpha)
    branches = (SignBranch.PLUS, SignBranch.MINUS)
    roots: list[QuantizationRoot] = []
    i = _first_scan_index(nu_floor, nu_min, step)
    x_prev, f_prev = None, dict.fromkeys(branches, 0.0)
    while True:
        x = nu_min + i * step
        if x > WINDOW_CAP:
            raise WindowExhausted(
                f"found {len(roots)} of {n_levels} roots with nu <= {WINDOW_CAP:g} "
                f"at alpha={alpha:g} (none lies below nu={nu_floor:g})"
            )
        f_here = {}
        for b in branches:
            fx = condition_residual(x, alpha, b)
            f_here[b] = fx
            if fx == 0.0:
                roots.append(QuantizationRoot(x, b, 0.0, 0))
            elif f_prev[b] * fx < 0.0:
                bracket = RootBracket(x_prev, x, f_prev[b], fx)
                roots.append(refine_root(bracket, alpha, b, tol))
        x_prev, f_prev = x, f_here
        i += 1
        if len(roots) < n_levels:
            continue
        roots.sort(key=lambda r: r.nu)
        deduped: list[QuantizationRoot] = []
        for root in roots:
            if deduped and abs(root.nu - deduped[-1].nu) <= _DEDUP_TOL:
                if abs(root.residual) < abs(deduped[-1].residual):
                    deduped[-1] = root
                continue
            deduped.append(root)
        roots = deduped
        if len(roots) >= n_levels:
            return roots[:n_levels]


def hermite_condition_residual(n: int, alpha: float, branch: SignBranch) -> float:
    """Integer-order residual H_{n+1}(alpha) -+ sqrt(2(n+1)) H_n(alpha)."""
    if n != int(n) or n < 0 or n > 250:
        raise DomainError(f"need integer 0 <= n <= 250, got {n!r}")
    n = int(n)
    return hermite(n + 1, alpha) - branch.sign * math.sqrt(2.0 * (n + 1)) * hermite(
        n, alpha
    )


def hermite_root_table(alpha: float, n_max: int):
    """Residual table for the integer-order condition, n = 0..n_max.

    Returns (rows, root_count, sign_changes) where each row is
    (n, residual_plus, residual_minus, is_root).  A residual counts as an
    exact root when it is below 1e-9 of the |H_{n+1}(alpha)| scale; sign
    changes of the rescaled residuals between adjacent n are tallied as a
    diagnostic (they mark non-integer crossings, not integer roots).
    """
    if n_max < 0 or n_max > 250:
        raise DomainError(f"need 0 <= n_max <= 250, got {n_max!r}")
    rows = []
    root_count = 0
    sign_changes = 0
    prev_scaled = None
    for n in range(n_max + 1):
        r_plus = hermite_condition_residual(n, alpha, SignBranch.PLUS)
        r_minus = hermite_condition_residual(n, alpha, SignBranch.MINUS)
        scale = abs(hermite(n + 1, alpha))
        is_root = abs(r_plus) <= 1e-9 * scale or abs(r_minus) <= 1e-9 * scale
        if is_root:
            root_count += 1
        norm = scale + math.sqrt(2.0 * (n + 1)) * abs(hermite(n, alpha))
        scaled = (r_plus / norm, r_minus / norm) if norm > 0.0 else (0.0, 0.0)
        if prev_scaled is not None:
            for new, old in zip(scaled, prev_scaled):
                if new * old < 0.0:
                    sign_changes += 1
        prev_scaled = scaled
        rows.append((n, r_plus, r_minus, is_root))
    return rows, root_count, sign_changes
