import math

import pytest
from hypothesis import given, settings, strategies as st

from diracline import diracmodel as dm
from diracline import oracle as oc
from diracline import quantize as q
from diracline.errors import DomainError, WindowExhausted

from _oracles import bisect, massless_ratio_residual

ALPHA_STAR = 1.0 / math.sqrt(2.0)
PLUS = q.SignBranch.PLUS
MINUS = q.SignBranch.MINUS
# grid step of the _scan_brackets references
SCAN_STEP = 0.01


def _scan_brackets(alpha, branch, nu_min, nu_max, step):
    """Sign-change brackets of the ratio-form residual on the closed grid
    nu_min, nu_min + step, ... <= nu_max: the grid scan that the phase
    march of ``spectrum`` replaced, kept as a reference.  Exact grid zeros
    come back as degenerate brackets; a step wider than the window gives
    none."""

    def f(nu):
        try:
            return q.condition_residual(nu, alpha, branch)
        except Exception as exc:
            raise type(exc)(f"{exc} (while scanning at nu={nu!r})") from exc

    n = int(math.floor((nu_max - nu_min) / step + 1e-12))
    brackets = []
    x_prev, f_prev = nu_min, f(nu_min)
    if f_prev == 0.0:
        brackets.append(q.RootBracket(x_prev, x_prev, 0.0, 0.0))
    for i in range(1, n + 1):
        x = nu_min + i * step
        if x > nu_max:
            break
        fx = f(x)
        if fx == 0.0:
            brackets.append(q.RootBracket(x, x, 0.0, 0.0))
        elif f_prev * fx < 0.0:
            brackets.append(q.RootBracket(x_prev, x, f_prev, fx))
        x_prev, f_prev = x, fx
    return brackets


def test_residual_exact_identity_at_nu_zero():
    # D_1(1) = sqrt(1) D_0(1) exactly
    assert abs(q.condition_residual(0.0, ALPHA_STAR, PLUS)) <= 1e-13


def test_residual_massless_minus_branch():
    # D_1(0) + sqrt(1) D_0(0) = 0 + 1
    assert q.condition_residual(0.0, 0.0, MINUS) == pytest.approx(1.0, rel=1e-13)


def test_residual_small_near_published_roots():
    assert abs(q.condition_residual(2.681, ALPHA_STAR, PLUS)) < 1e-3
    # 1.524 is a 3-digit rounding of the true root 1.52479; the residual
    # slope there (~2.8) puts the pre-refinement residual just above 1e-3
    assert abs(q.condition_residual(1.524, ALPHA_STAR, MINUS)) < 5e-3
    assert abs(q.condition_residual(1.5248, ALPHA_STAR, MINUS)) < 1e-3


def test_deriv_form_identity_at_nu_zero():
    # D'_0(1) = (1/2 - 1) D_0(1)
    assert abs(q.condition_residual_deriv_form(0.0, ALPHA_STAR, MINUS)) <= 1e-13


def test_deriv_form_small_near_published_roots():
    assert abs(q.condition_residual_deriv_form(1.524, ALPHA_STAR, PLUS)) < 5e-3
    assert abs(q.condition_residual_deriv_form(1.5248, ALPHA_STAR, PLUS)) < 1e-3


def test_paired_branch_involution():
    assert q.paired_branch(PLUS) is MINUS
    assert q.paired_branch(MINUS) is PLUS


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=30.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_branch_duality(nu, alpha):
    # ratio form and derivative form are the same condition with the sign
    # pairing flipped, so the residuals cancel
    for branch in (PLUS, MINUS):
        r_ratio = q.condition_residual(nu, alpha, branch)
        r_deriv = q.condition_residual_deriv_form(nu, alpha, q.paired_branch(branch))
        scale = max(1.0, abs(r_ratio), abs(r_deriv))
        assert abs(r_ratio + r_deriv) <= 1e-10 * scale


def test_residual_domain_errors():
    with pytest.raises(DomainError):
        q.condition_residual(-1.0, 1.0, PLUS)
    with pytest.raises(DomainError):
        q.condition_residual(1.0, -0.1, PLUS)


# ---------------------------------------------------------------------------
# bracketing

def test_scan_brackets_alpha_star_plus():
    brackets = _scan_brackets(ALPHA_STAR, PLUS, -0.999, 5.0, 0.01)
    assert len(brackets) == 2
    assert brackets[0].nu_lo <= 0.0 <= brackets[0].nu_hi
    assert brackets[1].nu_lo <= 2.681 <= brackets[1].nu_hi
    # the third branch root sits just above 5; a slightly larger window
    # picks it up
    wider = _scan_brackets(ALPHA_STAR, PLUS, -0.999, 5.2, 0.01)
    assert len(wider) == 3


def test_scan_brackets_against_massless_gamma_oracle():
    # at alpha=0 the condition closes over gamma functions alone; locate
    # the roots by brute-force bisection of that closed form
    for branch, sign in ((PLUS, 1.0), (MINUS, -1.0)):
        expected = []
        grid = [(-0.999 + 0.002 * i) for i in range(1800)]
        for lo, hi in zip(grid, grid[1:]):
            f_lo = massless_ratio_residual(lo, sign)
            f_hi = massless_ratio_residual(hi, sign)
            if f_lo * f_hi < 0.0:
                expected.append(
                    bisect(lambda t: massless_ratio_residual(t, sign), lo, hi)
                )
        found = [
            q.refine_root(b, 0.0, branch)
            for b in _scan_brackets(0.0, branch, -0.999, grid[-1], 0.01)
        ]
        assert len(found) == len(expected)
        for root, ref in zip(found, expected):
            assert root.nu == pytest.approx(ref, abs=1e-9)


def test_scan_step_wider_than_window_is_empty():
    assert _scan_brackets(ALPHA_STAR, PLUS, 0.5, 1.0, 2.0) == []


def test_midpoint_residual_guard_on_brackets():
    # returned brackets must not straddle a pole-like jump: the midpoint
    # residual stays within 10x the endpoint magnitudes
    for alpha in (ALPHA_STAR, 2.0):
        for branch in (PLUS, MINUS):
            for b in _scan_brackets(alpha, branch, -0.999, 8.0, 0.01):
                mid = q.condition_residual(0.5 * (b.nu_lo + b.nu_hi), alpha, branch)
                assert abs(mid) <= 10.0 * max(abs(b.f_lo), abs(b.f_hi))


# ---------------------------------------------------------------------------
# refinement

def test_refine_root_at_analytic_zero():
    (bracket,) = [
        b for b in _scan_brackets(ALPHA_STAR, PLUS, -0.5, 0.5, 0.01)
    ]
    root = q.refine_root(bracket, ALPHA_STAR, PLUS)
    assert abs(root.nu) <= 1e-10
    assert abs(root.residual) <= 1e-12


def test_refine_root_published_values():
    brackets = _scan_brackets(ALPHA_STAR, PLUS, 2.0, 3.0, 0.01)
    root = q.refine_root(brackets[0], ALPHA_STAR, PLUS)
    assert root.nu == pytest.approx(2.681, abs=5e-3)
    brackets = _scan_brackets(ALPHA_STAR, MINUS, 3.5, 4.5, 0.01)
    root = q.refine_root(brackets[0], ALPHA_STAR, MINUS)
    assert root.nu == pytest.approx(3.914, abs=5e-3)


def test_refine_degenerate_bracket_returns_immediately():
    bracket = q.RootBracket(1.25, 1.25, 0.0, 0.0)
    root = q.refine_root(bracket, ALPHA_STAR, PLUS)
    assert root.nu == 1.25
    assert root.iterations == 0


def test_bracket_validation():
    with pytest.raises(DomainError):
        q.RootBracket(1.0, 2.0, 1.0, 1.0)  # no sign change
    with pytest.raises(DomainError):
        q.RootBracket(2.0, 1.0, 1.0, -1.0)  # reversed


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_published_four_levels():
    roots = q.spectrum(ALPHA_STAR, 4)
    assert [r.branch for r in roots] == [PLUS, MINUS, PLUS, MINUS]
    assert abs(roots[0].nu) <= 1e-6
    assert roots[1].nu == pytest.approx(1.524, abs=5e-3)
    assert roots[2].nu == pytest.approx(2.681, abs=5e-3)
    assert roots[3].nu == pytest.approx(3.914, abs=5e-3)


def test_spectrum_single_level():
    (root,) = q.spectrum(ALPHA_STAR, 1)
    assert abs(root.nu) <= 1e-10
    assert root.branch is PLUS


def test_spectrum_massless_has_subzero_ground_state():
    roots = q.spectrum(0.0, 2)
    assert roots[0].nu < 0.0
    assert roots[0].below_integer_window
    assert not roots[1].below_integer_window


@pytest.mark.parametrize("alpha", [0.0, 0.35, 1.0, 2.0])
def test_spectrum_monotone_and_distinct(alpha):
    roots = q.spectrum(alpha, 6)
    nus = [r.nu for r in roots]
    assert all(b - a > 1e-9 for a, b in zip(nus, nus[1:]))


def test_spectrum_window_exhaustion():
    with pytest.raises(WindowExhausted):
        q.spectrum(0.0, 100000)
    # a full 0.01 scan of both branches finds 200 roots below nu = 199 at alpha = 0
    assert len(q.spectrum(0.0, 200)) == 200
    with pytest.raises(WindowExhausted, match="found 200 of 201"):
        q.spectrum(0.0, 201)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        q.spectrum(ALPHA_STAR, 0)
    with pytest.raises(DomainError):
        q.spectrum(-1.0, 1)


# ---------------------------------------------------------------------------
# the lower bound nu_floor(alpha) where the spectrum scan starts

def test_airy_prime_zero_constant():
    mpmath = pytest.importorskip("mpmath")
    ref = abs(float(mpmath.airyaizero(1, derivative=1)))
    assert q._AIRY_PRIME_ZERO == pytest.approx(ref, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.5 * k for k in range(11)])
def test_nu_floor_below_shooting_ground_state(alpha):
    # the shooting oracle's window starts at E = 0.02, so a level under
    # the floor would come back as its lowest eigenvalue
    params = dm.PotentialParams.from_alpha(alpha, g=1.0)
    (first,) = q.spectrum(alpha, 1)
    cfg = oc.default_config(params, e_max=math.sqrt(2.0 * (first.nu + 1.0)) + 0.25)
    e1 = oc.eigenvalues(params, cfg)[0].energy
    assert e1 * e1 / 2.0 - 1.0 > q._nu_floor(alpha)


# below alpha = 0.5 the floor lies under nu = -1, so there is nothing to scan
@pytest.mark.parametrize("alpha", [0.5 + 0.25 * k for k in range(15)])
def test_no_brackets_below_nu_floor(alpha):
    nu_floor = q._nu_floor(alpha)
    for branch in (PLUS, MINUS):
        brackets = _scan_brackets(alpha, branch, q.DEFAULT_NU_MIN, nu_floor, SCAN_STEP)
        assert brackets == []


def _unfloored_spectrum(alpha, n_levels, step, nu_max):
    """Both branches scanned from nu_min on the spectrum grid, each bracket
    bisected (not refined by the solver under test), then merged.

    Returns (nu, branch, |residual|) triples, ascending in nu.
    """
    roots = []
    for branch in (PLUS, MINUS):
        def f(nu, branch=branch):
            return q.condition_residual(nu, alpha, branch)

        for b in _scan_brackets(alpha, branch, q.DEFAULT_NU_MIN, nu_max, step):
            nu = b.nu_lo if b.degenerate else bisect(f, b.nu_lo, b.nu_hi)
            roots.append((nu, branch, abs(f(nu))))
    roots.sort(key=lambda r: r[0])
    merged = []
    for root in roots:
        if merged and abs(root[0] - merged[-1][0]) <= 1e-9:
            if root[2] < merged[-1][2]:
                merged[-1] = root
            continue
        merged.append(root)
    return merged[:n_levels]


@pytest.mark.parametrize("step", [SCAN_STEP, 0.005])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 3.75, 6.25])
def test_spectrum_matches_unfloored_scan(alpha, step):
    top = q.spectrum(alpha, 6)
    # the bracket of the highest root ends within one step above it
    reference = _unfloored_spectrum(alpha, 6, step, top[-1].nu + 2.0 * step)
    assert [r.branch for r in top] == [branch for _, branch, _ in reference]
    for got, (nu, _, _) in zip(top, reference):
        assert abs(got.nu - nu) <= 1e-10
    for n in range(1, 6):
        assert q.spectrum(alpha, n) == top[:n]


def _counting(monkeypatch, name):
    calls, real = [], getattr(q, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(q, name, counting)
    return calls


def test_spectrum_above_window_cap_fails_before_evaluating(monkeypatch):
    residuals = _counting(monkeypatch, "condition_residual")
    evaluations = _counting(monkeypatch, "pcf_d")
    assert q._nu_floor(20.0) > q.WINDOW_CAP
    with pytest.raises(WindowExhausted):
        q.spectrum(20.0, 6)
    assert residuals == [] and evaluations == []


def test_spectrum_evaluation_budget(monkeypatch):
    # the 0.01 scan of both branches made 5996 calls here, and the march
    # with a guarded-secant refinement 626
    evaluations = _counting(monkeypatch, "pcf_d")
    q.spectrum(6.25, 6)
    assert len(evaluations) <= 300


@pytest.mark.parametrize("alpha", [0.0, ALPHA_STAR, 3.75, 6.25, 10.0, 14.0])
def test_refinement_iteration_budget(alpha):
    # bisection from a 0.25 stride to the 1e-12 width stop takes 38 halvings;
    # Illinois converges superlinearly once it is close
    assert max(r.iterations for r in q.spectrum(alpha, 6)) <= 16


# ---------------------------------------------------------------------------
# the phase theta(nu) that indexes the levels


@pytest.mark.parametrize(
    "nu, alpha", [(-0.5, 0.0), (0.3, ALPHA_STAR), (2.5, 2.0), (7.1, 3.5), (12.0, 5.0)]
)
def test_phase_slope_matches_closed_form(nu, alpha):
    # dtheta/dnu = -[2(nu+1) I_nu + D_nu D_{nu+1}] / (2 sqrt(nu+1) (D_{nu+1}^2 + (nu+1) D_nu^2))
    mp = pytest.importorskip("mpmath")
    z0 = mp.sqrt(2) * mp.mpf(alpha)
    i_nu = mp.quad(lambda t: mp.pcfd(nu, t) ** 2, [z0, z0 + 4, z0 + 12, mp.inf])
    d0, d1 = mp.pcfd(nu, z0), mp.pcfd(nu + 1, z0)
    closed = -(2 * (nu + 1) * i_nu + d0 * d1) / (
        2 * mp.sqrt(nu + 1) * (d1 ** 2 + (nu + 1) * d0 ** 2)
    )
    h = 1e-4
    step = (q._phase(nu + h, alpha) - q._phase(nu - h, alpha) + math.pi) % (2.0 * math.pi)
    slope = (step - math.pi) / (2.0 * h)
    assert closed < 0
    assert slope == pytest.approx(float(closed), rel=1e-7)


def test_phase_falls_by_under_a_quarter_turn_per_stride():
    # so each stride crosses at most one level, and unwrapping cannot alias
    for alpha in [0.25 * k for k in range(79)]:
        nu = max(q.DEFAULT_NU_MIN, q._nu_floor(alpha))
        theta = wrapped = q._phase(nu, alpha)
        assert math.pi / 4.0 < theta <= math.pi / 2.0
        while theta > math.pi / 4.0 - 5.0 * math.pi / 2.0 and nu < q.WINDOW_CAP:
            nu = min(nu + q._STRIDE, q.WINDOW_CAP)
            new = q._phase(nu, alpha)
            drop = (wrapped - new) % (2.0 * math.pi)
            assert 0.0 < drop <= math.pi / 2.0, (alpha, nu)
            theta, wrapped = theta - drop, new


# ---------------------------------------------------------------------------
# integer-order (historical) condition

def test_hermite_condition_ground_state_root():
    r = q.hermite_condition_residual(0, ALPHA_STAR, PLUS)
    assert abs(r) <= 1e-15


def test_hermite_condition_at_zero_alpha():
    # H_1(0) = 0, so the residual is -+sqrt(2)
    assert q.hermite_condition_residual(0, 0.0, PLUS) == pytest.approx(
        -math.sqrt(2.0), rel=1e-15
    )
    assert q.hermite_condition_residual(0, 0.0, MINUS) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )


def test_hermite_condition_no_roots_above_ground_state():
    import diracline.specfun as sf

    for n in range(1, 251):
        scale = abs(sf.hermite(n + 1, ALPHA_STAR))
        for branch in (PLUS, MINUS):
            assert abs(q.hermite_condition_residual(n, ALPHA_STAR, branch)) > 1e-9 * scale


def test_hermite_root_table_counts():
    rows, count, sign_changes = q.hermite_root_table(ALPHA_STAR, 250)
    assert len(rows) == 251
    assert count == 1
    assert rows[0][3] is True
    assert sign_changes > 0  # non-integer crossings exist between integers


def test_hermite_root_table_massless_has_no_roots():
    rows, count, _ = q.hermite_root_table(0.0, 30)
    assert count == 0
    assert not any(r[3] for r in rows)


def test_hermite_root_table_runs_the_recurrence_once(monkeypatch):
    # every row reads H_n and H_{n+1} off one shared pass of the recurrence
    import diracline.specfun as sf

    passes, real = [], sf._hermite_ladder

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(sf, "_hermite_ladder", counting)
    monkeypatch.setattr(q, "_hermite_ladder", counting)
    rows, count, _ = q.hermite_root_table(ALPHA_STAR, 250)
    assert len(rows) == 251 and count == 1
    assert passes == [(251, ALPHA_STAR)]


def test_hermite_condition_validation():
    with pytest.raises(DomainError):
        q.hermite_condition_residual(-1, 1.0, PLUS)
    with pytest.raises(DomainError):
        q.hermite_condition_residual(251, 1.0, PLUS)
