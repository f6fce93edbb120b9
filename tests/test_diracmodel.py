import math

import pytest
from hypothesis import given, settings, strategies as st

from diracline import diracmodel as dm
from diracline import oracle as oc
from diracline import quantize as q
from diracline.errors import DomainError, NonConvergence, TailError

from _oracles import composite_simpson

ALPHA_STAR = 1.0 / math.sqrt(2.0)
SQRT_2 = math.sqrt(2.0)


def params_star(g=1.0):
    return dm.PotentialParams.from_alpha(ALPHA_STAR, g=g)


def fake_root(nu, branch=q.SignBranch.PLUS):
    return q.QuantizationRoot(nu=nu, branch=branch, residual=0.0, iterations=0)


# ---------------------------------------------------------------------------
# parameters, potential, coordinates, energies

def test_params_validation():
    with pytest.raises(DomainError):
        dm.PotentialParams(m=1.0, g=0.0)
    with pytest.raises(DomainError):
        dm.PotentialParams(m=-0.5, g=1.0)
    p = dm.PotentialParams(m=1.0, g=2.0)
    assert p.alpha == pytest.approx(1.0 / SQRT_2, rel=1e-15)


def test_potential_at():
    assert dm.potential_at(dm.PotentialParams(m=0.0, g=1.0), -2.0) == 2.0
    assert dm.potential_at(dm.PotentialParams(m=1.0, g=0.5), 0.0) == 0.0
    assert dm.potential_at(dm.PotentialParams(m=1.0, g=2.0), 3.0) == 6.0


def test_coordinates():
    p = dm.PotentialParams(m=1.0, g=2.0)
    xi, eta, side = dm.coordinates(p, 0.0)
    assert side is dm.Side.RIGHT
    assert xi == pytest.approx(1.0 / SQRT_2, rel=1e-15)
    assert eta == pytest.approx(1.0, rel=1e-15)
    p0 = dm.PotentialParams(m=0.0, g=1.0)
    xi, eta, side = dm.coordinates(p0, -3.0)
    assert side is dm.Side.LEFT
    assert xi == pytest.approx(3.0, rel=1e-15)
    assert eta == pytest.approx(3.0 * SQRT_2, rel=1e-15)
    # both stretched coordinates meet at sqrt(2)*alpha on the kink
    p = params_star()
    assert dm.coordinates(p, 0.0)[1] == pytest.approx(SQRT_2 * p.alpha, rel=1e-15)
    assert dm.coordinates(p, -1e-300)[1] == pytest.approx(SQRT_2 * p.alpha, rel=1e-15)


def test_energy_from_nu():
    p = dm.PotentialParams(m=0.0, g=1.0)
    assert dm.energy_from_nu(p, 0.0).energy == pytest.approx(SQRT_2, rel=1e-15)
    assert dm.energy_from_nu(p, 2.681).energy == pytest.approx(
        math.sqrt(2.0 * 3.681), rel=1e-14
    )
    assert dm.energy_from_nu(p, -1.0).energy == 0.0
    neg = dm.energy_from_nu(p, 0.0, dm.EnergySign.NEGATIVE)
    assert neg.energy == pytest.approx(-SQRT_2, rel=1e-15)
    with pytest.raises(DomainError):
        dm.energy_from_nu(p, -1.5)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=50.0),
    st.floats(min_value=0.01, max_value=30.0),
)
def test_energy_squared_invariant(nu, g):
    p = dm.PotentialParams(m=0.0, g=g)
    level = dm.energy_from_nu(p, nu)
    assert level.energy ** 2 == pytest.approx(2.0 * g * (nu + 1.0), rel=1e-12, abs=1e-12)


def test_energy_integer_case():
    assert dm.energy_integer_case(1.0, 0) == pytest.approx(SQRT_2, rel=1e-15)
    assert dm.energy_integer_case(1.0, 3) == pytest.approx(2.0 * SQRT_2, rel=1e-15)
    assert dm.energy_integer_case(2.0, 0) == pytest.approx(2.0, rel=1e-15)
    p = dm.PotentialParams(m=0.0, g=1.7)
    for n in range(4):
        assert dm.energy_integer_case(1.7, n) == pytest.approx(
            dm.energy_from_nu(p, float(n)).energy, rel=1e-14
        )


# ---------------------------------------------------------------------------
# coefficient assembly

def test_assemble_ground_state_all_ones():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root)
    assert c.c_plus == 1.0
    assert c.d_plus == pytest.approx(1.0, rel=1e-12)
    assert c.c_minus == pytest.approx(1.0, rel=1e-9)
    assert c.d_minus == pytest.approx(1.0, rel=1e-9)


def test_assemble_ratio_is_energy_ratio():
    p = params_star()
    for root in q.spectrum(ALPHA_STAR, 3):
        for sign in (dm.EnergySign.POSITIVE, dm.EnergySign.NEGATIVE):
            c = dm.assemble_coefficients(p, root, sign, c_scale=0.7)
            e_ratio = dm.energy_from_nu(p, root.nu, sign).energy / math.sqrt(2.0 * p.g)
            assert c.d_plus / c.c_plus == pytest.approx(e_ratio, rel=1e-14)


def test_assemble_negative_energy_flips_ratio():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 2)[1]
    pos = dm.assemble_coefficients(p, root, dm.EnergySign.POSITIVE)
    neg = dm.assemble_coefficients(p, root, dm.EnergySign.NEGATIVE)
    assert neg.d_plus / neg.c_plus == pytest.approx(-pos.d_plus / pos.c_plus, rel=1e-13)


def test_assemble_fallback_anchor_when_lower_value_vanishes():
    # D_1(0) = 0: with a fabricated root at nu=1, alpha=0 the C anchor is
    # unusable and the left lower amplitude takes the scale instead
    p = dm.PotentialParams(m=0.0, g=1.0)
    c = dm.assemble_coefficients(p, fake_root(1.0), c_scale=2.0)
    assert c.d_minus == 2.0
    assert math.isfinite(c.c_plus) and math.isfinite(c.d_plus)


def test_assemble_rejects_zero_scale():
    p = params_star()
    with pytest.raises(DomainError):
        dm.assemble_coefficients(p, fake_root(0.0), c_scale=0.0)


# ---------------------------------------------------------------------------
# sampled wavefunctions: continuity, reduction, residuals

@pytest.mark.parametrize("alpha", [ALPHA_STAR, 0.2, 1.0, 2.0])
def test_continuity_across_kink(alpha):
    p = dm.PotentialParams.from_alpha(alpha)
    for root in q.spectrum(alpha, 4):
        c = dm.assemble_coefficients(p, root)
        right = dm.sample_wavefunction(p, c, root, [0.0])[0]
        left = dm.sample_wavefunction(p, c, root, [-1e-300])[0]
        scale = max(abs(right.psi1), abs(right.psi2))
        assert abs(right.psi1 - left.psi1) <= 1e-9 * scale
        assert abs(right.psi2 - left.psi2) <= 1e-9 * scale


def test_cross_ratio_closure():
    # independently assembled left/right ratios reproduce C'/D' = E/sqrt(2g)
    for alpha in (ALPHA_STAR, 0.2, 1.0, 2.0):
        p = dm.PotentialParams.from_alpha(alpha)
        for root in q.spectrum(alpha, 4):
            c = dm.assemble_coefficients(p, root)
            e_ratio = dm.energy_from_nu(p, root.nu).energy / math.sqrt(2.0 * p.g)
            assert c.c_minus / c.d_minus == pytest.approx(e_ratio, rel=1e-8)


def _fd_second(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_second_order_reduction_both_sides():
    p = params_star(g=1.3)
    root = q.spectrum(p.alpha, 3)[2]
    c = dm.assemble_coefficients(p, root)
    two_g = 2.0 * p.g
    h = 1e-4

    def psi1(x):
        return dm.sample_wavefunction(p, c, root, [x])[0].psi1

    def psi2(x):
        return dm.sample_wavefunction(p, c, root, [x])[0].psi2

    for x in (0.4, 1.1):
        _, eta, _ = dm.coordinates(p, x)
        v1 = psi1(x)
        v2 = psi2(x)
        # upper component carries order nu+1, lower order nu
        assert _fd_second(psi1, x, h) == pytest.approx(
            two_g * (0.25 * eta * eta - root.nu - 1.5) * v1, rel=1e-5, abs=1e-7
        )
        assert _fd_second(psi2, x, h) == pytest.approx(
            two_g * (0.25 * eta * eta - root.nu - 0.5) * v2, rel=1e-5, abs=1e-7
        )
    for x in (-0.4, -1.1):
        _, eta, _ = dm.coordinates(p, x)
        v1 = psi1(x)
        v2 = psi2(x)
        # mirrored: the roles of the two orders swap
        assert _fd_second(psi1, x, h) == pytest.approx(
            two_g * (0.25 * eta * eta - root.nu - 0.5) * v1, rel=1e-5, abs=1e-7
        )
        assert _fd_second(psi2, x, h) == pytest.approx(
            two_g * (0.25 * eta * eta - root.nu - 1.5) * v2, rel=1e-5, abs=1e-7
        )


def test_dirac_residual_small_at_root():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root)
    level = dm.energy_from_nu(p, root.nu)
    for x in (0.5, -0.5):
        r1, r2 = dm.dirac_residual(p, level, c, x)
        s = dm.sample_wavefunction(p, c, root, [x])[0]
        scale = abs(level.energy) * max(abs(s.psi1), abs(s.psi2))
        assert abs(r1) <= 1e-6 * scale
        assert abs(r2) <= 1e-6 * scale


def test_dirac_residual_negative_control_off_root():
    # a non-root order assembled the same way fails the first-order system
    # on the left piece (the right piece satisfies it identically)
    p = params_star()
    root = fake_root(1.3)
    c = dm.assemble_coefficients(p, root)
    level = dm.energy_from_nu(p, root.nu)
    r1, r2 = dm.dirac_residual(p, level, c, -0.5)
    s = dm.sample_wavefunction(p, c, root, [-0.5])[0]
    scale = abs(level.energy) * max(abs(s.psi1), abs(s.psi2))
    assert max(abs(r1), abs(r2)) > 1e-2 * scale


def test_dirac_residual_mirror_point():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root)
    level = dm.energy_from_nu(p, root.nu)
    plus = dm.dirac_residual(p, level, c, 0.7)
    minus = dm.dirac_residual(p, level, c, -0.7)
    s = dm.sample_wavefunction(p, c, root, [0.7])[0]
    scale = abs(level.energy) * max(abs(s.psi1), abs(s.psi2))
    assert max(map(abs, plus)) <= 1e-6 * scale
    assert max(map(abs, minus)) <= 1e-6 * scale


def test_dirac_residual_rejects_kink_stencil():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root)
    level = dm.energy_from_nu(p, root.nu)
    with pytest.raises(DomainError):
        dm.dirac_residual(p, level, c, 0.0)
    with pytest.raises(DomainError):
        dm.dirac_residual(p, level, c, 1e-5)


def test_ground_state_lower_component_is_gaussian():
    # order zero reduces to D_0(eta) = exp(-eta^2/4) on the right piece
    p = dm.PotentialParams(m=1.0, g=2.0)
    root = q.spectrum(p.alpha, 1)[0]
    c = dm.assemble_coefficients(p, root)
    for x in (0.0, 0.3, 1.0, 2.0):
        _, eta, _ = dm.coordinates(p, x)
        s = dm.sample_wavefunction(p, c, root, [x])[0]
        assert s.psi2 == pytest.approx(c.d_plus * math.exp(-0.25 * eta * eta), rel=1e-9)


def test_wavefunction_tail_decay():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 2)[1]
    c = dm.assemble_coefficients(p, root)
    xs = [-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0]
    samples = dm.sample_wavefunction(p, c, root, xs)
    peak = max(abs(s.psi1) for s in samples)
    for s in samples:
        if abs(s.x) >= 8.0:
            assert abs(s.psi1) < 1e-10 * peak


# ---------------------------------------------------------------------------
# normalization

def test_normalize_matches_gaussian_closed_form():
    # m=0 with the nu=0 piecewise shape: all four pieces are Gaussians or
    # x-weighted Gaussians with elementary integrals
    p = dm.PotentialParams(m=0.0, g=1.0)
    root = fake_root(0.0)
    c = dm.WavefunctionCoefficients(1.0, 1.0, 1.0, 1.0)
    total = 2.0 * (math.sqrt(math.pi) / 2.0 + 2.0 * math.sqrt(math.pi) / 4.0)
    normalized, err = dm.normalize(p, c, root, 10.0)
    assert err <= 1e-9
    assert normalized.c_plus == pytest.approx(1.0 / math.sqrt(total), rel=1e-9)


def test_normalize_unit_norm_and_idempotence():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 2)[1]
    c = dm.assemble_coefficients(p, root)
    normalized, err = dm.normalize(p, c, root, 12.0)
    assert err <= 1e-9
    again, _ = dm.normalize(p, normalized, root, 12.0)
    assert again.c_plus == pytest.approx(normalized.c_plus, rel=1e-9)
    # re-integrate on a uniform grid as an independent check
    xs = [-12.0 + 24.0 * i / 4800 for i in range(4801)]
    samples = dm.sample_wavefunction(p, normalized, root, xs)
    dens = [s.psi1 ** 2 + s.psi2 ** 2 for s in samples]
    assert composite_simpson(dens, 24.0 / 4800) == pytest.approx(1.0, abs=1e-9)


def test_normalize_halfwidth_doubling_is_stable():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root)
    n1, _ = dm.normalize(p, c, root, 8.0)
    n2, _ = dm.normalize(p, c, root, 16.0)
    assert n2.c_plus == pytest.approx(n1.c_plus, rel=1e-9)


def test_normalize_fixes_sign():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root, c_scale=-3.0)
    normalized, _ = dm.normalize(p, c, root, 12.0)
    assert normalized.c_plus > 0.0


def test_normalize_tail_error():
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 1)[0]
    c = dm.assemble_coefficients(p, root)
    with pytest.raises(TailError):
        dm.normalize(p, c, root, 1.5)


@pytest.mark.parametrize("alpha", [0.0, 0.35, ALPHA_STAR, 1.2, 2.0, 3.0])
def test_normalize_error_bound_is_honest(alpha, monkeypatch):
    mp = pytest.importorskip("mpmath")
    monkeypatch.setattr(mp.mp, "dps", 20)
    p = dm.PotentialParams.from_alpha(alpha)
    z0 = mp.sqrt(2) * mp.mpf(alpha)

    def half_line(mu):
        return mp.quad(lambda t: mp.pcfd(mu, t) ** 2, [z0, z0 + 4, z0 + 12, mp.inf])

    for level, root in enumerate(q.spectrum(alpha, 4), start=1):
        normalized, err = dm.normalize(p, dm.assemble_coefficients(p, root), root, 12.0)
        c, d, c2, d2 = (mp.mpf(v) for v in (
            normalized.c_plus, normalized.d_plus, normalized.c_minus, normalized.d_minus))
        nu = mp.mpf(root.nu)
        norm = ((c * c + d2 * d2) * half_line(nu + 1)
                + (d * d + c2 * c2) * half_line(nu)) / mp.sqrt(2)
        assert abs(float(norm - 1)) <= err, f"level {level}: claimed {err:.2e}"


def _recording_pcf_d(monkeypatch):
    orders, real = [], dm.pcf_d

    def recording(nu, z):
        orders.append(nu)
        return real(nu, z)

    monkeypatch.setattr(dm, "pcf_d", recording)
    return orders


def test_normalize_evaluation_count(monkeypatch):
    p = params_star()
    root = q.spectrum(ALPHA_STAR, 4)[3]
    c = dm.assemble_coefficients(p, root)
    orders = _recording_pcf_d(monkeypatch)
    dm.normalize(p, c, root, 12.0)
    assert len(orders) <= 40


def test_normalize_stencil_stays_in_order_box(monkeypatch):
    p = params_star()
    low, high = fake_root(-0.995), fake_root(198.995)
    c_low, c_high = dm.assemble_coefficients(p, low), dm.assemble_coefficients(p, high)
    orders = _recording_pcf_d(monkeypatch)
    _, err = dm.normalize(p, c_low, low, 12.0)
    assert err <= 1e-8
    assert -1.0 <= min(orders) < -0.995
    orders.clear()
    # |D_199(1)| ~ 1e186, so the norm of this unit-anchored shape overflows
    # after the stencil has been evaluated
    with pytest.raises(NonConvergence):
        dm.normalize(p, c_high, high, 12.0)
    assert 199.995 < max(orders) <= 200.0


# ---------------------------------------------------------------------------
# massless limit against the shooting oracle

def test_massless_levels_match_oracle():
    p = dm.PotentialParams(m=0.0, g=1.0)
    roots = q.spectrum(0.0, 2)
    energies = [dm.energy_from_nu(p, r.nu).energy for r in roots]
    cfg = oc.default_config(p, e_max=energies[-1] + 0.3)
    found = oc.eigenvalues(p, cfg)
    assert len(found) >= 2
    for e_a, r in zip(energies, found):
        assert r.energy == pytest.approx(e_a, rel=1e-4)
