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

Roots in nu are refined by Illinois false position (``roots``) inside
sign-change brackets.  Residuals are kept in the entire (polynomial-like)
form above: no normalization by D_nu(z0), hence no spurious poles to
confuse the bracketing.

The ratio form says tan(theta) = +-1 for the single phase

    theta(nu) = atan2(D_{nu+1}(z0), sqrt(nu+1) D_nu(z0)).

With I_mu = int_{z0}^oo D_mu(t)^2 dt > 0 and the identities of the
``diracmodel`` docstring, I_mu = D_{mu+1} d_mu D_mu - D_mu d_mu D_{mu+1} and
I_{nu+1} = (nu+1) I_nu + D_nu D_{nu+1},

    dtheta/dnu = -[(nu+1) I_nu + I_{nu+1}]
                 / (2 sqrt(nu+1) (D_{nu+1}^2 + (nu+1) D_nu^2)) < 0,

and theta -> pi/2 as nu -> -1, where D_{nu+1} -> D_0 > 0.  So theta falls
strictly, and level k is its single crossing of pi/4 - (k-1) pi/2: on the
Plus branch for odd k, on the Minus branch for even k.

No root lies below a floor that follows from squaring the Dirac equation.
Each component then obeys -psi'' + [(m+g|x|)^2 -+ g sgn x] psi = E^2 psi,
and for m >= 0

    (m+g|x|)^2 >= m^2 + 2mg|x|,    -+g sgn x >= -g,
    lowest eigenvalue of -d^2 + c|x| = |a'_1| c^(2/3)   (a'_1: first zero of Ai')

so E^2 >= m^2 - g + |a'_1| (2mg)^(2/3).  With E^2 = 2g(nu+1) and
alpha = m/sqrt(g) this reads

    nu >= nu_floor(alpha) = alpha^2/2 - 3/2 + (|a'_1|/2) (2 alpha)^(2/3).

``spectrum`` marches nu up from that floor in strides of 0.25 and unwraps
theta on the way.  No root lies below the floor, so theta starts in
(pi/4, pi/2]; the stride on which it passes the next level's target
brackets that level's root on its branch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, WindowExhausted
from .roots import illinois
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

DEFAULT_NU_MIN = -1.0 + 1e-9
# the residual at nu evaluates order nu+1, which must stay inside the
# supported evaluation box nu <= 200
WINDOW_CAP = 199.0
# refinement stops at this nu width or at this residual magnitude
_REFINE_WIDTH = 1e-12
_RESIDUAL_STOP = 1e-13
# nu stride of the phase march; on alpha in [0, 19.5] theta falls by at most
# 0.66 rad per stride, under the pi/2 between two levels
_STRIDE = 0.25
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


def _phase(nu: float, alpha: float) -> float:
    """theta(nu) of the module docstring, wrapped to (-pi, pi]."""
    z0 = math.sqrt(2.0) * alpha
    return math.atan2(pcf_d(nu + 1.0, z0).value, math.sqrt(nu + 1.0) * pcf_d(nu, z0).value)


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
) -> QuantizationRoot:
    """Refine a bracket by Illinois false position on the ratio-form residual.

    Stops once the bracket is no wider than 1e-12 or the residual magnitude
    is at most 1e-13, and returns the point with the smallest residual seen;
    the sign-change guarantee of the input bracket is preserved throughout.
    """
    if bracket.degenerate:
        return QuantizationRoot(bracket.nu_lo, branch, bracket.f_lo, 0)
    nu, residual, iterations = illinois(
        lambda nu: condition_residual(nu, alpha, branch),
        bracket.nu_lo, bracket.nu_hi, bracket.f_lo, bracket.f_hi,
        _REFINE_WIDTH, _RESIDUAL_STOP,
    )
    return QuantizationRoot(nu, branch, residual, iterations)


def spectrum(alpha: float, n_levels: int) -> list[QuantizationRoot]:
    """Lowest ``n_levels`` roots, ascending in nu; level k sits on the Plus
    branch for odd k and on Minus for even k.

    Marches nu up from ``_nu_floor(alpha)`` in steps of ``_STRIDE`` and
    refines level k inside the stride where the unwrapped phase passes
    pi/4 - (k-1) pi/2 (module docstring).  Raises WindowExhausted once the
    march reaches WINDOW_CAP, without any evaluation when the floor lies
    above it.
    """
    if n_levels < 1:
        raise DomainError(f"need n_levels >= 1, got {n_levels!r}")
    _check_nu_alpha(DEFAULT_NU_MIN, alpha)
    nu_floor = _nu_floor(alpha)
    nu = max(DEFAULT_NU_MIN, nu_floor)
    # theta starts in (pi/4, pi/2] (module docstring); above the cap the
    # first pass through the march raises before any evaluation
    theta = wrapped = _phase(nu, alpha) if nu <= WINDOW_CAP else math.inf
    roots: list[QuantizationRoot] = []
    while len(roots) < n_levels:
        target = math.pi / 4.0 - len(roots) * math.pi / 2.0
        branch = SignBranch.PLUS if len(roots) % 2 == 0 else SignBranch.MINUS
        while theta > target:
            if nu >= WINDOW_CAP:
                raise WindowExhausted(
                    f"found {len(roots)} of {n_levels} roots with nu <= {WINDOW_CAP:g} "
                    f"at alpha={alpha:g} (none lies below nu={nu_floor:g})"
                )
            nu_prev, nu = nu, min(nu + _STRIDE, WINDOW_CAP)
            theta_wrapped = _phase(nu, alpha)
            theta -= (wrapped - theta_wrapped) % (2.0 * math.pi)
            wrapped = theta_wrapped
        f_hi = condition_residual(nu, alpha, branch)
        lo = nu_prev if f_hi != 0.0 else nu
        bracket = RootBracket(lo, nu, condition_residual(lo, alpha, branch), f_hi)
        roots.append(refine_root(bracket, alpha, branch))
    return roots


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
