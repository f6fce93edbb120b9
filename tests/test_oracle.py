import math

import pytest

from diracline import diracmodel as dm
from diracline import oracle as oc
from diracline import quantize as q
from diracline.errors import DomainError

ALPHA_STAR = 1.0 / math.sqrt(2.0)
SQRT_2 = math.sqrt(2.0)


def test_config_invariants():
    with pytest.raises(DomainError):
        oc.ShootingConfig(5.0, 0.005, 0.1, 3.0, 0.05).validated(1.0)  # box too small
    with pytest.raises(DomainError):
        oc.ShootingConfig(10.0, 0.02, 0.1, 3.0, 0.05).validated(1.0)  # step too big
    with pytest.raises(DomainError):
        oc.ShootingConfig(10.0, 0.01, -0.1, 3.0, 0.05).validated(1.0)
    with pytest.raises(DomainError):
        oc.ShootingConfig(10.0, 0.01, 3.0, 1.0, 0.05).validated(1.0)
    cfg = oc.default_config(dm.PotentialParams(m=0.5, g=1.0), e_max=3.0)
    assert cfg.validated(1.0) is cfg


def test_integrate_side_ground_state_ratio_at_matching_root():
    # alpha = 1/sqrt(2): the order-zero closed form gives psi2/psi1 = 1 at 0+
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    cfg = oc.default_config(p, e_max=2.0)
    a, b, _ = oc.integrate_side(p, SQRT_2, oc.ShootSide.RIGHT, cfg)
    assert b / a == pytest.approx(1.0, abs=1e-6)


def test_integrate_side_ratio_off_matching_point():
    # same closed form at m=1: the matching argument is sqrt(2), where
    # D_0/D_1 = 1/sqrt(2); E=sqrt(2) is not an eigenvalue here, but the
    # right-side decaying solution still has the order-zero shape
    p = dm.PotentialParams(m=1.0, g=1.0)
    cfg = oc.default_config(p, e_max=2.0)
    a, b, _ = oc.integrate_side(p, SQRT_2, oc.ShootSide.RIGHT, cfg)
    assert b / a == pytest.approx(1.0 / SQRT_2, abs=1e-6)


def test_integrate_side_zero_energy_is_finite():
    p = dm.PotentialParams(m=1.0, g=1.0)
    cfg = oc.default_config(p, e_max=1.0)
    a, b, scale = oc.integrate_side(p, 0.0, oc.ShootSide.RIGHT, cfg)
    assert math.isfinite(a) and math.isfinite(b) and math.isfinite(scale)


def test_integrate_side_rk4_order():
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    base = oc.default_config(p, e_max=2.0)

    def ratio_at(h):
        cfg = oc.ShootingConfig(base.x_max, h, base.e_min, base.e_max, base.e_step)
        a, b, _ = oc.integrate_side(p, 1.9, oc.ShootSide.RIGHT, cfg)
        return b / a

    r1, r2, r4 = ratio_at(0.01), ratio_at(0.005), ratio_at(0.0025)
    order_ratio = abs(r1 - r2) / abs(r2 - r4)
    assert 8.0 <= order_ratio <= 40.0


def test_match_determinant_vanishes_at_level_and_not_between():
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    cfg = oc.default_config(p, e_max=3.0)
    assert abs(oc.match_determinant(p, SQRT_2, cfg)) <= 1e-6
    # midway between the first two levels
    assert abs(oc.match_determinant(p, 1.8, cfg)) > 1e-3
    # sign flip across the eigenvalue
    assert (
        oc.match_determinant(p, SQRT_2 - 0.05, cfg)
        * oc.match_determinant(p, SQRT_2 + 0.05, cfg)
        < 0.0
    )


def test_eigenvalues_lowest_levels_alpha_star():
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    cfg = oc.ShootingConfig(x_max=10.0, h=0.01, e_min=0.1, e_max=3.3, e_step=0.05)
    found = oc.eigenvalues(p, cfg)
    assert len(found) == 4
    expected = [
        math.sqrt(2.0 * (r.nu + 1.0)) for r in q.spectrum(ALPHA_STAR, 4)
    ]
    for r, e in zip(found, expected):
        assert r.energy == pytest.approx(e, rel=1e-4)
        assert r.converged
    # the three published-level energies in particular
    assert found[0].energy == pytest.approx(1.41421, abs=1e-4)
    assert found[2].energy == pytest.approx(2.71329, abs=1e-4)


@pytest.mark.filterwarnings("ignore:eigenvalue .* window edge")
@pytest.mark.parametrize("alpha", [6.0, 7.0, 10.0, 14.0])
def test_eigenvalues_match_spectrum_at_large_alpha(alpha):
    # the side values pass 1e77 here, so an unscaled determinant overflows
    # and reads 0 at every scan point; this also checks that the phase
    # march in spectrum skips no level
    p = dm.PotentialParams.from_alpha(alpha)
    expected = [math.sqrt(2.0 * (r.nu + 1.0)) for r in q.spectrum(alpha, 4)]
    e_floor = math.sqrt(2.0 * (q._nu_floor(alpha) + 1.0))
    cfg = oc.default_config(p, e_max=expected[-1] + 0.25, e_min=e_floor - 0.1)
    found = oc.eigenvalues(p, cfg)
    assert len(found) >= 4
    for r, e in zip(found, expected):
        assert r.energy == pytest.approx(e, abs=1e-4)


def test_eigenvalues_gauge_exact_g_rescaling():
    # scaling x, h, and the energy window by the right powers of g maps the
    # discretized problem onto itself, so energies double exactly for g=4
    p1 = dm.PotentialParams(m=1.0 / SQRT_2, g=1.0)
    p4 = dm.PotentialParams(m=2.0 / SQRT_2, g=4.0)
    c1 = oc.ShootingConfig(x_max=10.0, h=0.01, e_min=0.1, e_max=3.3, e_step=0.05)
    c4 = oc.ShootingConfig(x_max=5.0, h=0.005, e_min=0.2, e_max=6.6, e_step=0.1)
    e1 = oc.eigenvalues(p1, c1)
    e4 = oc.eigenvalues(p4, c4)
    assert len(e1) == len(e4)
    for a, b in zip(e1, e4):
        assert b.energy / a.energy == pytest.approx(2.0, abs=1e-12)


def test_eigenvalues_domain_insensitivity():
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    c8 = oc.ShootingConfig(x_max=8.0, h=0.008, e_min=1.0, e_max=2.0, e_step=0.05)
    c12 = oc.ShootingConfig(x_max=12.0, h=0.008, e_min=1.0, e_max=2.0, e_step=0.05)
    (r8,) = oc.eigenvalues(p, c8)
    (r12,) = oc.eigenvalues(p, c12)
    assert abs(r8.energy - r12.energy) <= 1e-8 * (1.0 + abs(r12.energy))


def test_eigenvalues_empty_window():
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    cfg = oc.ShootingConfig(x_max=10.0, h=0.01, e_min=0.1, e_max=0.9, e_step=0.05)
    assert oc.eigenvalues(p, cfg) == []


def test_eigenvalues_warns_near_window_edge():
    p = dm.PotentialParams.from_alpha(ALPHA_STAR)
    cfg = oc.ShootingConfig(x_max=10.0, h=0.01, e_min=1.38, e_max=1.5, e_step=0.05)
    with pytest.warns(UserWarning):
        oc.eigenvalues(p, cfg)


def test_duck_typed_params():
    class Bag:
        m = 1.0 / SQRT_2
        g = 1.0

    cfg = oc.default_config(Bag(), e_max=2.0)
    a, b, _ = oc.integrate_side(Bag(), SQRT_2, oc.ShootSide.RIGHT, cfg)
    assert b / a == pytest.approx(1.0, abs=1e-6)
