import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from diracline import specfun as sf
from diracline.errors import DomainError, PoleError

from _oracles import rk4_pcfd

SQRT_PI = math.sqrt(math.pi)
SQRT_2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# gamma / rgamma

def test_gamma_known_values():
    assert sf.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
    assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-15)
    assert sf.gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)


def test_gamma_against_exact_factorials():
    # integer factorials are exact in bignum arithmetic
    for n in (3, 10, 50, 120, 170):
        assert sf.gamma(float(n)) == pytest.approx(
            float(math.factorial(n - 1)), rel=1e-13
        )


def test_gamma_poles_and_overflow():
    for x in (0.0, -1.0, -2.0, -37.0):
        with pytest.raises(PoleError):
            sf.gamma(x)
    with pytest.raises(OverflowError):
        sf.gamma(172.0)
    with pytest.raises(DomainError):
        sf.gamma(math.inf)


def test_rgamma_zeros_and_values():
    assert sf.rgamma(0.0) == 0.0
    assert sf.rgamma(-1.0) == 0.0
    assert sf.rgamma(-42.0) == 0.0
    assert sf.rgamma(0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
    # smooth decay where gamma itself overflows
    assert sf.rgamma(180.0) == pytest.approx(0.0, abs=1e-300)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-50.0, max_value=170.0))
def test_gamma_rgamma_inverse(x):
    if x <= 0.5 and abs(x - round(x)) < 1e-3:
        return  # too close to a pole for the product check
    assert sf.gamma(x) * sf.rgamma(x) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# kummer_m

def test_kummer_examples():
    r = sf.kummer_m(2.0, 2.0, 1.0)
    assert r.value == pytest.approx(math.e, rel=1e-13)
    assert sf.kummer_m(1.3, 0.7, 0.0).value == 1.0
    assert sf.kummer_m(-1.0, 0.5, 3.0).value == pytest.approx(-5.0, rel=1e-14)


def test_kummer_domain_errors():
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, -3.0, 1.0)
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, 1.0, 401.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_kummer_exponential_identity(a, z):
    r = sf.kummer_m(a, a, z)
    expect = math.exp(z)
    assert abs(r.value - expect) <= max(r.est_abs_error, 1e-13 * abs(expect))


def test_kummer_cancellation_is_reported():
    # a < 0 with large positive argument cancels badly; est must say so
    r = sf.kummer_m(-30.5, 0.5, 60.0)
    assert r.est_abs_error > 1e-6 * abs(r.value)


# ---------------------------------------------------------------------------
# hermite

def test_hermite_examples():
    assert sf.hermite(0, 3.7) == 1.0
    # the alpha = 1/sqrt(2) ground-state identity: H_1 = sqrt(2) = sqrt(2) H_0
    assert sf.hermite(1, 1.0 / SQRT_2) == pytest.approx(SQRT_2, rel=1e-15)
    assert sf.hermite(3, 0.5) == pytest.approx(-5.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0))
def test_hermite_against_explicit_polynomials(x):
    explicit = {
        2: 4 * x * x - 2,
        3: 8 * x ** 3 - 12 * x,
        4: 16 * x ** 4 - 48 * x * x + 12,
        5: 32 * x ** 5 - 160 * x ** 3 + 120 * x,
    }
    for n, value in explicit.items():
        assert sf.hermite(n, x) == pytest.approx(value, rel=1e-12, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.floats(min_value=0.0, max_value=3.0))
def test_hermite_parity(n, x):
    left = sf.hermite(n, -x)
    right = (-1.0) ** n * sf.hermite(n, x)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_hermite_domain_and_overflow():
    with pytest.raises(DomainError):
        sf.hermite(-1, 0.0)
    with pytest.raises(DomainError):
        sf.hermite(301, 0.0)
    with pytest.raises(OverflowError):
        sf.hermite(300, 3.0)


# ---------------------------------------------------------------------------
# pcf_d / pcf_d_prime point values

def test_pcf_d_closed_forms():
    assert sf.pcf_d(0.0, 1.0).value == pytest.approx(math.exp(-0.25), rel=1e-14)
    assert sf.pcf_d(1.0, 1.0).value == pytest.approx(math.exp(-0.25), rel=1e-14)
    # D_nu(0) = 2^{nu/2} sqrt(pi) / Gamma((1-nu)/2), frozen via the gamma op
    closed = 2.0 ** 0.25 * SQRT_PI / sf.gamma(0.25)
    assert sf.pcf_d(0.5, 0.0).value == pytest.approx(closed, rel=1e-13)
    assert sf.pcf_d(0.5, 0.0).value == pytest.approx(0.58136831701911858, rel=1e-12)


def test_pcf_d_integer_hermite_reduction_example():
    # D_n(z) = 2^{-n/2} exp(-z^2/4) H_n(z/sqrt(2)) at n=3, z=-2
    reduced = 2.0 ** -1.5 * math.exp(-1.0) * sf.hermite(3, -2.0 / SQRT_2)
    assert sf.pcf_d(3.0, -2.0).value == pytest.approx(reduced, rel=1e-12)


@pytest.mark.parametrize(
    "nu,z",
    [(0.5, 0.0), (1.7, 1.3), (2.042, 2.5), (0.3, -1.5), (4.6, 3.1), (0.5, 7.0)],
)
def test_pcf_d_against_ode_oracle(nu, z):
    ref = rk4_pcfd(nu, z)
    assert sf.pcf_d(nu, z).value == pytest.approx(ref, rel=2e-9)


def test_pcf_d_prime_values():
    assert sf.pcf_d_prime(0.0, 1.0).value == pytest.approx(
        -0.5 * math.exp(-0.25), rel=1e-13
    )
    assert sf.pcf_d_prime(0.0, 0.0).value == 0.0


def test_pcf_d_prime_matches_finite_difference():
    # central difference of pcf_d, step 1e-5
    nu, z, h = 1.7, 1.3, 1e-5
    fd = (sf.pcf_d(nu, z + h).value - sf.pcf_d(nu, z - h).value) / (2.0 * h)
    assert abs(sf.pcf_d_prime(nu, z).value - fd) <= 1e-7


def test_pcf_domain_errors():
    with pytest.raises(DomainError):
        sf.pcf_d(-1.5, 0.0)
    with pytest.raises(DomainError):
        sf.pcf_d(201.0, 0.0)
    with pytest.raises(DomainError):
        sf.pcf_d(1.0, 41.0)
    with pytest.raises(DomainError):
        sf.pcf_d_prime(200.0, 0.0)  # needs nu+1 in range


def test_eval_report_paths_are_recorded():
    seen = set()
    for nu, z in [(0.5, 1.0), (80.0, 2.0), (0.5, 12.0), (-0.9, 5.0), (100.0, 30.0)]:
        r = sf.pcf_d(nu, z)
        assert r.est_abs_error >= 0.0
        assert r.path in {"series", "asymptotic", "ode-fallback"}
        seen.add(r.path)
    assert seen == {"series", "asymptotic", "ode-fallback"}


# ---------------------------------------------------------------------------
# module invariants

def test_recurrence_residual_on_random_grid():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(200):
        nu = rng.uniform(-1.0, 199.0)
        z = rng.uniform(-40.0, 40.0)
        try:
            d = sf.pcf_d(nu, z)
            d_up = sf.pcf_d(nu + 1.0, z)
            dp = sf.pcf_d_prime(nu, z)
        except OverflowError:
            continue
        residual = dp.value - 0.5 * z * d.value + d_up.value
        combined = (
            dp.est_abs_error + 0.5 * abs(z) * d.est_abs_error + d_up.est_abs_error
        )
        assert abs(residual) <= 10.0 * combined + 1e-300
        checked += 1
    assert checked >= 190


def test_derivative_finite_difference_on_moderate_grid():
    rng = random.Random(77)
    h = 1e-5
    for _ in range(40):
        nu = rng.uniform(-0.9, 8.0)
        z = rng.uniform(-4.0, 4.0)
        fd = (sf.pcf_d(nu, z + h).value - sf.pcf_d(nu, z - h).value) / (2.0 * h)
        dp = sf.pcf_d_prime(nu, z).value
        assert abs(dp - fd) <= 1e-7 * max(1.0, abs(dp))


def test_weber_equation_residual():
    rng = random.Random(4242)
    h = 1e-4
    for _ in range(60):
        nu = rng.uniform(-0.9, 10.0)
        z = rng.uniform(-5.0, 5.0)
        d0 = sf.pcf_d(nu, z).value
        second = (
            sf.pcf_d(nu, z + h).value - 2.0 * d0 + sf.pcf_d(nu, z - h).value
        ) / (h * h)
        residual = second - (0.25 * z * z - nu - 0.5) * d0
        assert abs(residual) <= 1e-5 * max(1.0, abs(d0))


def _wronskian(nu, z):
    d_pos = sf.pcf_d(nu, z).value
    d_neg = sf.pcf_d(nu, -z).value
    dp_pos = sf.pcf_d_prime(nu, z).value
    dp_neg = sf.pcf_d_prime(nu, -z).value
    return -d_pos * dp_neg - dp_pos * d_neg


@pytest.mark.parametrize("nu", [0.5, 1.3, -0.4, 2.042, 5.7, 9.3])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_wronskian_constant_noninteger(nu, z):
    expect = math.sqrt(2.0 * math.pi) * sf.rgamma(-nu)
    assert _wronskian(nu, z) == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("n", range(0, 9))
def test_integer_order_reduction_and_parity(n):
    for z in (-3.0, -1.2, 0.7, 2.5):
        d = sf.pcf_d(float(n), z).value
        mirrored = sf.pcf_d(float(n), -z).value
        assert mirrored == pytest.approx((-1.0) ** n * d, rel=1e-10, abs=1e-13)
        reduced = 2.0 ** (-0.5 * n) * math.exp(-0.25 * z * z) * sf.hermite(n, z / SQRT_2)
        assert d == pytest.approx(reduced, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("n", range(0, 6))
def test_integer_order_linear_dependence(n):
    # rgamma(-n) = 0 exactly, and the numerical Wronskian agrees
    assert math.sqrt(2.0 * math.pi) * sf.rgamma(float(-n)) == 0.0
    for z in (0.5, 1.0, 2.0):
        scale = abs(sf.pcf_d(float(n), z).value * sf.pcf_d_prime(float(n), -z).value)
        scale += abs(sf.pcf_d_prime(float(n), z).value * sf.pcf_d(float(n), -z).value)
        assert abs(_wronskian(float(n), z)) <= 1e-10 * max(scale, 1e-30)
