"""Bound states of the 1+1-dimensional Dirac equation with a linear scalar
potential g|x|, through parabolic cylinder functions of real order.

The spectrum follows from the transcendental matching condition
D_{nu+1}(sqrt(2) alpha) = +- sqrt(nu+1) D_nu(sqrt(2) alpha) with
alpha = m/sqrt(g); energies are E = +-sqrt(2 g (nu+1)).  An independent
Runge-Kutta shooting solver cross-validates every level.
"""

__version__ = "1.0.0"

from .errors import (
    DegenerateError,
    DiraclineError,
    DomainError,
    NonConvergence,
    PoleError,
    StepError,
    TailError,
    WindowExhausted,
)
from .specfun import (
    EvalReport,
    gamma,
    hermite,
    kummer_m,
    pcf_d,
    pcf_d_prime,
    rgamma,
)
from .quantize import (
    QuantizationRoot,
    RootBracket,
    SignBranch,
    condition_residual,
    condition_residual_deriv_form,
    hermite_condition_residual,
    paired_branch,
    refine_root,
    scan_brackets,
    spectrum,
)
from .diracmodel import (
    BispinorSample,
    EnergyLevel,
    EnergySign,
    PotentialParams,
    Side,
    WavefunctionCoefficients,
    assemble_coefficients,
    coordinates,
    dirac_residual,
    energy_from_nu,
    energy_integer_case,
    normalize,
    potential_at,
    sample_wavefunction,
)
from .oracle import (
    MatchResult,
    ShootSide,
    ShootingConfig,
    default_config,
    eigenvalues,
    integrate_side,
    match_determinant,
)

__all__ = [
    "__version__",
    "DiraclineError", "DomainError", "PoleError", "NonConvergence",
    "WindowExhausted", "DegenerateError", "TailError", "StepError",
    "EvalReport", "gamma", "rgamma", "kummer_m", "hermite",
    "pcf_d", "pcf_d_prime",
    "SignBranch", "RootBracket", "QuantizationRoot", "paired_branch",
    "condition_residual", "condition_residual_deriv_form", "scan_brackets",
    "refine_root", "spectrum", "hermite_condition_residual",
    "Side", "EnergySign", "PotentialParams", "EnergyLevel",
    "WavefunctionCoefficients", "BispinorSample", "potential_at",
    "coordinates", "energy_from_nu", "energy_integer_case",
    "assemble_coefficients", "sample_wavefunction", "normalize",
    "dirac_residual",
    "ShootSide", "ShootingConfig", "MatchResult", "default_config",
    "integrate_side", "match_determinant", "eigenvalues",
]
