"""Physical layer: parameters, energies, and piecewise bispinor assembly.

Natural units (hbar = c = 1) throughout.  The configuration is a mass m and
a linear coupling g > 0 (dimension mass^2); the dimensionless combination
alpha = m/sqrt(g) fixes the spectrum, while g alone sets the energy scale
through E = +-sqrt(2 g (nu + 1)).

A bound state of order nu is assembled piecewise from parabolic cylinder
functions of the stretched coordinates

    x >= 0:  eta  = sqrt(2g) (m/g + x),   psi = (C D_{nu+1}(eta),  D D_nu(eta))
    x <  0:  eta' = sqrt(2g) (m/g - x),   psi = (C' D_nu(eta'), D' D_{nu+1}(eta'))

with the amplitude ratios D/C = C'/D' = E/sqrt(2g) and continuity at the
kink fixing the remaining freedom up to one overall scale.

Both pieces start at eta0 = sqrt(2) alpha, so the norm over the whole line
is (2g)^(-1/2) [(C^2 + D'^2) I_{nu+1}(eta0) + (D^2 + C'^2) I_nu(eta0)] with
I_mu(z) = int_z^oo D_mu(t)^2 dt.  D_mu'' = q D_mu with q = t^2/4 - mu - 1/2
and d_mu q = -1, so u = dD_mu/dmu solves u'' = q u - D_mu, whence
(D_mu u' - D_mu' u)' = -D_mu^2; D_mu' = (z/2) D_mu - D_{mu+1} then gives

    I_mu(z) = D_{mu+1}(z) dD_mu/dmu(z) - D_mu(z) dD_{mu+1}/dmu(z),

and the recurrence D_{nu+2} = z D_{nu+1} - (nu+1) D_nu, differentiated in
nu, gives I_{nu+1} = (nu+1) I_nu + D_nu D_{nu+1}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateError, DomainError, NonConvergence, TailError
from .quantize import QuantizationRoot, SignBranch
from .specfun import NU_MAX, NU_MIN, pcf_d

__all__ = [
    "Side",
    "EnergySign",
    "PotentialParams",
    "EnergyLevel",
    "WavefunctionCoefficients",
    "BispinorSample",
    "potential_at",
    "coordinates",
    "energy_from_nu",
    "energy_integer_case",
    "assemble_coefficients",
    "sample_wavefunction",
    "normalize",
    "dirac_residual",
]

_SQRT_2 = math.sqrt(2.0)
_PIVOT_REL_TOL = 1e-12
_TAIL_REL_TOL = 1e-12
_ROUNDOFF = 8.0 * 2.220446049250313e-16
# nu step h of the d/dnu stencil, and the (step / h, weight) pairs that
# Richardson-extrapolate its central differences to O(h^6)
_NU_STEP = 0.02
_RICHARDSON = ((1.0, 1.0 / 45.0), (0.5, -20.0 / 45.0), (0.25, 64.0 / 45.0))


class Side(enum.Enum):
    RIGHT = "Right"
    LEFT = "Left"


class EnergySign(enum.Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"

    @property
    def sign(self) -> float:
        return 1.0 if self is EnergySign.POSITIVE else -1.0


@dataclass(frozen=True)
class PotentialParams:
    """Mass and linear-coupling configuration; alpha is always derived."""

    m: float
    g: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0.0):
            raise DomainError(f"need coupling g > 0, got {self.g!r}")
        if not (math.isfinite(self.m) and self.m >= 0.0):
            raise DomainError(f"need mass m >= 0, got {self.m!r}")

    @property
    def alpha(self) -> float:
        return self.m / math.sqrt(self.g)

    @classmethod
    def from_alpha(cls, alpha: float, g: float = 1.0) -> "PotentialParams":
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise DomainError(f"need alpha >= 0, got {alpha!r}")
        return cls(m=alpha * math.sqrt(g), g=g)


@dataclass(frozen=True)
class EnergyLevel:
    nu: float
    branch: SignBranch
    energy: float
    energy_sign: EnergySign


@dataclass(frozen=True)
class WavefunctionCoefficients:
    """Amplitudes (C, D) on the right piece and (C', D') on the left."""

    c_plus: float
    d_plus: float
    c_minus: float
    d_minus: float

    def scaled(self, factor: float) -> "WavefunctionCoefficients":
        return WavefunctionCoefficients(
            self.c_plus * factor,
            self.d_plus * factor,
            self.c_minus * factor,
            self.d_minus * factor,
        )


@dataclass(frozen=True)
class BispinorSample:
    x: float
    psi1: float
    psi2: float


def potential_at(params: PotentialParams, x: float) -> float:
    """Scalar potential g|x|."""
    return params.g * abs(x)


def coordinates(params: PotentialParams, x: float):
    """Stretched coordinates (xi, eta, side) at position x; x=0 maps Right."""
    root_g = math.sqrt(params.g)
    if x >= 0.0:
        xi = root_g * (params.m / params.g + x)
        return xi, _SQRT_2 * xi, Side.RIGHT
    xi = root_g * (params.m / params.g - x)
    return xi, _SQRT_2 * xi, Side.LEFT


def energy_from_nu(
    params: PotentialParams, nu: float, sign: EnergySign = EnergySign.POSITIVE,
    branch: SignBranch = SignBranch.PLUS,
) -> EnergyLevel:
    """Energy E = +-sqrt(2 g (nu+1)) attached to an order nu."""
    if nu < -1.0:
        raise DomainError(f"need nu >= -1, got {nu!r}")
    energy = sign.sign * math.sqrt(2.0 * params.g * (nu + 1.0))
    return EnergyLevel(nu=nu, branch=branch, energy=energy, energy_sign=sign)


def energy_integer_case(g: float, n: int) -> float:
    """Integer-ladder energy sqrt(2 (n+1) g); equals energy_from_nu at nu=n."""
    if n < 0 or n != int(n):
        raise DomainError(f"need integer n >= 0, got {n!r}")
    if not (g > 0.0):
        raise DomainError(f"need g > 0, got {g!r}")
    return math.sqrt(2.0 * (int(n) + 1) * g)


def _matching_values(params: PotentialParams, nu: float):
    z0 = _SQRT_2 * params.alpha
    return pcf_d(nu, z0).value, pcf_d(nu + 1.0, z0).value


def assemble_coefficients(
    params: PotentialParams,
    root: QuantizationRoot,
    energy_sign: EnergySign = EnergySign.POSITIVE,
    c_scale: float = 1.0,
) -> WavefunctionCoefficients:
    """Coefficients of the piecewise bound state at a quantization root.

    Anchors C = c_scale, sets D = C E/sqrt(2g), and fixes the left-side pair
    from continuity at x=0.  If D_nu(z0) vanishes there (possible only away
    from true roots) the anchor falls back to D'; DegenerateError is raised
    when both matching values vanish.
    """
    if c_scale == 0.0:
        raise DomainError("c_scale must be nonzero")
    d_lo, d_up = _matching_values(params, root.nu)
    e_ratio = energy_sign.sign * math.sqrt(root.nu + 1.0)
    scale = max(abs(d_lo), abs(d_up))
    if scale == 0.0:
        raise DegenerateError(
            f"both matching values vanish at nu={root.nu:g}, alpha={params.alpha:g}"
        )
    if abs(d_lo) > _PIVOT_REL_TOL * scale and abs(d_up) > _PIVOT_REL_TOL * scale:
        c_plus = c_scale
        d_plus = c_plus * e_ratio
        c_minus = c_plus * d_up / d_lo
        d_minus = d_plus * d_lo / d_up
    elif abs(d_up) > _PIVOT_REL_TOL * scale:
        # D_nu(z0) ~ 0: anchor the left lower amplitude instead of C
        d_minus = c_scale
        c_minus = e_ratio * d_minus
        c_plus = c_minus * d_lo / d_up
        d_plus = c_plus * e_ratio
    else:
        raise DegenerateError(
            f"no usable matching pivot at nu={root.nu:g}, alpha={params.alpha:g}"
        )
    return WavefunctionCoefficients(c_plus, d_plus, c_minus, d_minus)


def _psi(params: PotentialParams, coeffs: WavefunctionCoefficients, nu: float, x: float):
    _, eta, side = coordinates(params, x)
    if side is Side.RIGHT:
        return (
            coeffs.c_plus * pcf_d(nu + 1.0, eta).value,
            coeffs.d_plus * pcf_d(nu, eta).value,
        )
    return (
        coeffs.c_minus * pcf_d(nu, eta).value,
        coeffs.d_minus * pcf_d(nu + 1.0, eta).value,
    )


def sample_wavefunction(
    params: PotentialParams,
    coeffs: WavefunctionCoefficients,
    root: QuantizationRoot,
    grid,
) -> list[BispinorSample]:
    """Both bispinor components on a grid of positions."""
    samples = []
    for x in grid:
        if not math.isfinite(x):
            raise DomainError(f"grid contains non-finite position {x!r}")
        psi1, psi2 = _psi(params, coeffs, root.nu, x)
        samples.append(BispinorSample(x=x, psi1=psi1, psi2=psi2))
    return samples


def _order_slope(mu: float, z: float, h: float):
    """(D_mu(z), its error, dD_mu/dmu at z, its error) from central differences
    at steps h, h/2, h/4, Richardson-extrapolated; the derivative's bound is
    the gap to the O(h^4) value plus the propagated value errors."""
    slopes, noise = [], 0.0
    for scale, weight in _RICHARDSON:
        k = scale * h
        up, down = pcf_d(mu + k, z), pcf_d(mu - k, z)
        slopes.append((up.value - down.value) / (2.0 * k))
        spread = up.est_abs_error + down.est_abs_error
        spread += _ROUNDOFF * (abs(up.value) + abs(down.value))
        noise += abs(weight) * spread / (2.0 * k)
    slope = sum(w * d for (_, w), d in zip(_RICHARDSON, slopes))
    coarse = (4.0 * slopes[2] - slopes[1]) / 3.0
    centre = pcf_d(mu, z)
    return centre.value, centre.est_abs_error, slope, abs(slope - coarse) + noise


def _probability_beyond(params, coeffs, nu: float, h: float, x: float):
    """(P, err, shift): the probability on |x'| >= x >= 0 is P 4^shift, and
    err 4^shift bounds its error.  The D values are first divided by the
    exact power of two 2^shift, so values near 1e170 can be squared."""
    _, eta, _ = coordinates(params, x)
    stencils = _order_slope(nu, eta, h) + _order_slope(nu + 1.0, eta, h)
    shift = math.frexp(max(map(abs, stencils)))[1]
    d0, a0, p0, e0, d1, a1, p1, e1 = (math.ldexp(v, -shift) for v in stencils)
    i_nu = d1 * p0 - d0 * p1
    i_err = a1 * abs(p0) + abs(d1) * e0 + a0 * abs(p1) + abs(d0) * e1
    i_err += _ROUNDOFF * (abs(d1 * p0) + abs(d0 * p1))
    # I_{nu+1} = (nu+1) I_nu + D_nu D_{nu+1} (module docstring)
    w_up = coeffs.c_plus ** 2 + coeffs.d_minus ** 2
    weight = w_up * (nu + 1.0) + coeffs.d_plus ** 2 + coeffs.c_minus ** 2
    cross = w_up * d0 * d1
    err = weight * i_err + w_up * (a0 * abs(d1) + abs(d0) * a1)
    err += _ROUNDOFF * (weight * abs(i_nu) + abs(cross))
    scale = 1.0 / math.sqrt(2.0 * params.g)
    return scale * (weight * i_nu + cross), scale * err, shift


def normalize(
    params: PotentialParams,
    coeffs: WavefunctionCoefficients,
    root: QuantizationRoot,
    domain_halfwidth: float,
):
    """Rescale all four amplitudes so the total probability integrates to 1.

    The norm is the closed form of the module docstring at eta0.  Raises
    TailError when the probability beyond |x| = domain_halfwidth, the same
    form at eta_L = sqrt(2g)(m/g + L), exceeds 1e-12 of the total.  Returns
    (coefficients, norm_error), a bound on the norm's error relative to 1;
    the overall sign is fixed so the anchor amplitude is positive.
    """
    nu = root.nu
    # keep the stencils around orders nu and nu+1 inside the evaluation box
    h = min(_NU_STEP, 0.5 * (nu - NU_MIN), 0.5 * (NU_MAX - 1.0 - nu))
    if not (domain_halfwidth > 0.0 and h > 0.0):
        raise DomainError(f"need halfwidth > 0, -1 < nu < 199; got {domain_halfwidth!r}, {nu!r}")
    total, err, shift = _probability_beyond(params, coeffs, nu, h, 0.0)
    if total == 0.0:
        raise DegenerateError("wavefunction vanishes identically")
    if not (total > 0.0) or not math.isfinite(total):
        raise NonConvergence(f"normalization integral came out as {total!r}")
    tail, _, tail_shift = _probability_beyond(params, coeffs, nu, h, domain_halfwidth)
    tail = math.ldexp(tail, 2 * (tail_shift - shift))
    if tail > _TAIL_REL_TOL * total:
        raise TailError(
            f"probability beyond |x|={domain_halfwidth:g} is {tail / total:.2e} "
            "of the total; increase domain_halfwidth"
        )
    factor = math.ldexp(1.0 / math.sqrt(total), -shift)
    anchor = coeffs.c_plus if coeffs.c_plus != 0.0 else coeffs.d_minus
    if anchor * factor < 0.0:
        factor = -factor
    return coeffs.scaled(factor), err / total + _ROUNDOFF


def dirac_residual(
    params: PotentialParams,
    level: EnergyLevel,
    coeffs: WavefunctionCoefficients,
    x: float,
):
    """Residuals of the first-order bispinor system at x != 0.

    r1 = psi1' + (m+g|x|) psi1 - E psi2
    r2 = -psi2' + (m+g|x|) psi2 - E psi1

    Derivatives come from 5-point central differences with step
    1e-4/sqrt(g); the stencil must not straddle the kink, so |x| > 2 steps
    is required.
    """
    h = 1e-4 / math.sqrt(params.g)
    if x == 0.0 or abs(x) <= 2.0 * h:
        raise DomainError(f"residual stencil would straddle the kink at x={x!r}")
    nu = level.nu

    def psi(pos):
        return _psi(params, coeffs, nu, pos)

    f2, f1 = psi(x + 2.0 * h), psi(x + h)
    b1, b2 = psi(x - h), psi(x - 2.0 * h)
    dpsi1 = (-f2[0] + 8.0 * f1[0] - 8.0 * b1[0] + b2[0]) / (12.0 * h)
    dpsi2 = (-f2[1] + 8.0 * f1[1] - 8.0 * b1[1] + b2[1]) / (12.0 * h)
    psi1, psi2 = psi(x)
    mass_term = params.m + potential_at(params, x)
    r1 = dpsi1 + mass_term * psi1 - level.energy * psi2
    r2 = -dpsi2 + mass_term * psi2 - level.energy * psi1
    return r1, r2
