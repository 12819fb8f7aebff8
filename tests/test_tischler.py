import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import first_return, tree_form

from cosymlab import catalog, forms as F, phase as P, section as S, tischler as T

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


def t2():
    return catalog.torus(2)


def t3():
    return catalog.torus(3)


# -- periods -----------------------------------------------------------------------


def test_periods_of_angle_form():
    pv = T.periods(F.coordinate_form(3, 2), t3())
    assert np.allclose(pv.values, [0, 0, 1], atol=1e-12)
    assert len(pv.cycles) == 3


def test_periods_constant_coefficients():
    alpha = F.coordinate_form(3, 2) + SQRT2 * F.coordinate_form(3, 0)
    pv = T.periods(alpha, t3())
    assert np.allclose(pv.values, [SQRT2, 0, 1], atol=1e-12)


def test_periods_kill_exact_part():
    exact = tree_form(3, 1, ["cos(x0)", 0, 0])
    pv = T.periods(F.coordinate_form(3, 2) + exact, t3())
    assert np.allclose(pv.values, [0, 0, 1], atol=1e-10)


def test_periods_of_non_constant_form_to_1e_10():
    # closed form on T^4 with exact parts of several frequencies; periods
    # [1, sqrt 2, sqrt 3, 0.1] in units of 2*pi
    alpha = tree_form(4, 1, ["1 + 0.3*cos(x0) + 0.2*sin(7*x0)", SQRT2,
                             f"0.5*sin(x2) + {math.sqrt(3.0)!r} + cos(20*x2)", 0.1])
    pv = T.periods(alpha, catalog.torus(4))
    assert np.max(np.abs(pv.values - [1.0, SQRT2, math.sqrt(3.0), 0.1])) < 1e-10


def _wave(frequency):
    """cos(frequency x0) dx0 + sqrt 2 dx1: periods (0, sqrt 2) in units of 2 pi."""
    return tree_form(2, 1, [f"cos({frequency}*x0)", SQRT2])


def test_periods_quadrature_error_is_enforced():
    # far beyond what PERIOD_QUAD_MAX_NODES nodes resolve: the last two rules
    # still disagree on cycle 0, and the vector says so instead of raising
    pv = T.periods(_wave(1000), t2())
    assert not pv.converged and pv.nodes == T.PERIOD_QUAD_MAX_NODES == 2048
    assert pv.estimate[0] > T.PERIOD_QUAD_ERR >= pv.estimate[1]
    assert set(pv.as_dict()) == {"values", "cycles", "estimate", "nodes"}


def test_declared_periods_carry_no_quadrature():
    pv = T.PeriodVector(np.array([1.0, SQRT2]), ("a", "b"), t2())
    assert pv.converged and set(pv.as_dict()) == {"values", "cycles"}


@pytest.mark.parametrize("frequency", [300, 400])
def test_periods_refine_until_two_rules_agree(frequency):
    # the 128- and 256-node rules disagree on these waves; doubling the nodes
    # reaches two rules that agree (512 and 1024 nodes for 300, 1024 and 2048
    # for 400, the cap)
    pv = T.periods(_wave(frequency), t2())
    assert np.max(np.abs(pv.values - [0.0, SQRT2])) < 1e-10


def test_periods_reject_non_closed():
    bad = tree_form(2, 1, ["sin(x1)", 0])
    with pytest.raises(ValueError, match="not closed"):
        T.periods(bad, t2())


def test_periods_reject_a_form_not_periodic_on_the_chart():
    # 5 sin(x0) dx0 is closed, and periodic on the 2*pi torus but not on a
    # chart of period 1, where it is no form
    wavy = tree_form(2, 1, ["5*sin(x0)", 0.5])
    assert T.periods(wavy, t2()).values[1] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError, match="not periodic"):
        T.periods(wavy, F.ChartManifold(2, (True, True), (1.0, 1.0)))


def test_periods_need_torus():
    with pytest.raises(ValueError, match="torus"):
        T.periods(F.coordinate_form(2, 0), F.ChartManifold(2))


# -- the Gauss-Legendre rule ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 7, 128, 256, 2048])
def test_gauss_legendre_rule_is_symmetric_and_weights_sum_to_two(n):
    x, w = T._leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) <= np.spacing(2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 128, 2048])
def test_gauss_legendre_rule_integrates_even_monomials_exactly(n):
    # an n-node rule is exact up to degree 2n - 1: x^(2k) integrates to 2 / (2k + 1)
    x, w = T._leggauss(n)
    for k in range(min(n, 6)):
        assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) < 1e-14, k


@pytest.mark.parametrize("n", [128, 256])
def test_gauss_legendre_rule_matches_numpy(n):
    # numpy solves the companion eigenproblem and takes one Newton step; both
    # rules are exact to a few ulp, numpy's weights to about 6e-15
    x, w = T._leggauss(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - x_ref) <= 2 * np.spacing(np.abs(x_ref)))
    assert np.max(np.abs(w - w_ref)) < 1e-14


def test_gauss_legendre_rule_memory_is_linear_in_the_nodes():
    # numpy's eigenproblem holds a 2048 x 2048 matrix (32 MiB); the recurrence
    # holds a few arrays of 2048 floats
    import tracemalloc
    tracemalloc.start()
    try:
        T._leggauss.__wrapped__(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_gauss_legendre_rule_raises_when_newton_does_not_converge(monkeypatch):
    # one step from Tricomi's guesses moves the 128 nodes by up to 2.5e-7
    monkeypatch.setattr(T, "LEGGAUSS_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match="128 nodes did not converge in 1 steps"):
        T._leggauss.__wrapped__(128)


# -- rationalization -----------------------------------------------------------------


def continued_fraction_convergents(x: float, q_cap: int):
    """Independent oracle: convergents of x with denominator up to q_cap."""
    out = []
    a, b = Fraction(x).limit_denominator(10**12), None
    # classical recurrence
    h0, h1 = 1, int(math.floor(x))
    k0, k1 = 0, 1
    frac = x - math.floor(x)
    out.append(Fraction(h1, k1))
    while frac > 1e-15:
        frac = 1.0 / frac
        a_i = int(math.floor(frac))
        frac -= a_i
        h0, h1 = h1, a_i * h1 + h0
        k0, k1 = k1, a_i * k1 + k0
        if k1 > q_cap:
            break
        out.append(Fraction(h1, k1))
    return out


def test_rationalize_sqrt2_reference():
    pv = T.PeriodVector(np.array([1.0, SQRT2]), ("a", "b"), t2())
    ra = T.rationalize(pv, 1e-2, 100)
    assert ra.d == 70
    assert list(ra.n) == [70, 99]
    assert ra.epsilon_achieved <= 1e-2
    assert ra.epsilon_achieved == pytest.approx(7.2e-5, rel=0.05)
    # oracle: 99/70 is the last continued-fraction convergent of sqrt(2)
    # with denominator at most 100
    conv = continued_fraction_convergents(SQRT2, 100)
    assert conv[-1] == Fraction(99, 70)
    # oracle: among denominators meeting the tolerance, 70 minimizes the
    # scaled lattice error (plain loop, independent of the implementation)
    best_d, best_err = None, math.inf
    for d in range(1, 101):
        n1, n2 = round(d * 1.0), round(d * SQRT2)
        if max(abs(1.0 - n1 / d), abs(SQRT2 - n2 / d)) > 1e-2:
            continue
        scaled = max(abs(d * 1.0 - n1), abs(d * SQRT2 - n2))
        if scaled < best_err:
            best_d, best_err = d, scaled
    assert best_d == 70


def test_rationalize_exact_fractions():
    pv = T.PeriodVector(np.array([1 / 3, 2 / 3]), ("a", "b"), t2())
    ra = T.rationalize(pv, 1e-9, 100)
    assert (ra.d, list(ra.n), ra.epsilon_achieved) == (3, [1, 2], 0.0)


def test_rationalize_zero_vector():
    pv = T.PeriodVector(np.zeros(3), ("a", "b", "c"), t3())
    ra = T.rationalize(pv, 1e-9, 100)
    assert (ra.d, list(ra.n), ra.epsilon_achieved) == (1, [0, 0, 0], 0.0)


def test_rationalize_cap_exhausted():
    # no d <= 50 meets eps: the least pointwise error |d v - n| / d is returned,
    # 11 / 35 here, with its error above eps
    v = math.pi / 10
    pv = T.PeriodVector(np.array([v]), ("a",), t2())
    ra = T.rationalize(pv, 1e-12, 50)
    errs = [abs(d * v - round(d * v)) / d for d in range(1, 51)]
    assert (ra.d, ra.n.tolist()) == (35, [11]) == (1 + int(np.argmin(errs)), [round(35 * v)])
    assert ra.epsilon_achieved == min(errs) > 1e-12


def test_rationalize_validates_inputs():
    pv = T.PeriodVector(np.array([1.0]), ("a",), t2())
    with pytest.raises(ValueError):
        T.rationalize(pv, -1.0, 10)
    with pytest.raises(ValueError):
        T.rationalize(pv, 1e-2, 0)


# -- rebuilt form ---------------------------------------------------------------------


def test_build_approximation_reproduces_fractions():
    alpha = F.coordinate_form(2, 0) + SQRT2 * F.coordinate_form(2, 1)
    pv = T.periods(alpha, t2())
    ra = T.rationalize(pv, 1e-2, 100)
    alpha_prime = T.build_approximation(alpha, pv, ra)
    pv2 = T.periods(alpha_prime, t2())
    assert np.max(np.abs(pv2.values - ra.fractions)) < 1e-10
    # constant coefficients: closed by construction, exactly
    d_prime = F.exterior_derivative(alpha_prime)
    assert np.max(np.abs(d_prime.coeffs(t2().sample(np.random.default_rng(0), 16)))) == 0.0


def test_build_approximation_exact_for_rational_input():
    alpha = F.coordinate_form(3, 2)
    pv = T.periods(alpha, t3())
    ra = T.rationalize(pv, 1e-9, 10)
    alpha_prime = T.build_approximation(alpha, pv, ra)
    xs = t3().sample(np.random.default_rng(1), 16)
    assert np.max(np.abs(alpha_prime.coeffs(xs) - alpha.coeffs(xs))) < 1e-14
    assert T.coefficient_distance(pv, ra) == 0.0


def test_coefficient_distance_matches_eps():
    pv = T.PeriodVector(np.array([1.0, SQRT2]), ("a", "b"), t2())
    ra = T.rationalize(pv, 1e-2, 100)
    assert T.coefficient_distance(pv, ra) == pytest.approx(ra.epsilon_achieved)


# -- transversality reports -----------------------------------------------------------


def test_transversality_margin_product_leaf(t4_system):
    samples = catalog.SYSTEMS["t4_product"].level(t4_system).sample(np.random.default_rng(2), 32)
    alpha = F.coordinate_form(4, 2)
    report = T.check_transversality_preserved(t4_system, alpha, samples, alpha)
    assert report.passed
    # margin |alpha(X_H)| = |cos theta| = 1 on the zero level
    assert report.min_margin == pytest.approx(1.0, abs=1e-10)


def test_transversality_failure_is_reported_not_raised(t4_system):
    samples = catalog.SYSTEMS["t4_product"].level(t4_system).sample(np.random.default_rng(3), 16)
    tangent = F.coordinate_form(4, 0)   # pairs to zero against the flow
    report = T.check_transversality_preserved(t4_system, tangent, samples, tangent)
    assert not report.passed
    assert report.min_margin == pytest.approx(0.0, abs=1e-15)


def test_transversality_needs_one_sign_and_the_tangency_margin(t4_system):
    # on the zero level X_H = d/dz, so alpha = c dz pairs to c: it passes at
    # TANGENCY_MARGIN and fails just under it; over the whole chart
    # X_H = cos(theta) d/dz, and dz pairs to cos(theta), which changes sign
    level = catalog.SYSTEMS["t4_product"].level(t4_system).sample(np.random.default_rng(5), 16)
    dz = F.coordinate_form(4, 2)
    for c, passed in ((S.TANGENCY_MARGIN, True), (0.5 * S.TANGENCY_MARGIN, False)):
        report = T.check_transversality_preserved(t4_system, c * dz, level, dz)
        assert report.passed == passed
        assert report.signed_min == report.signed_max == report.min_margin == c
    chart = np.random.default_rng(6).uniform(0.0, TWO_PI, (64, 4))
    report = T.check_transversality_preserved(t4_system, dz, chart, dz)
    assert report.signed_min < -0.5 and report.signed_max > 0.5
    assert report.min_margin > S.TANGENCY_MARGIN and not report.passed


def test_margin_converges_as_eps_shrinks(t4_system):
    samples = catalog.SYSTEMS["t4_product"].level(t4_system).sample(np.random.default_rng(4), 16)
    alpha = F.coordinate_form(4, 2)
    margins = []
    for eps in (0.5, 0.1, 0.01):
        perturbed = (1.0 - eps) * alpha
        margins.append(T.check_transversality_preserved(t4_system, perturbed, samples,
                                                        alpha).min_margin)
    assert margins[0] < margins[1] < margins[2] <= 1.0
    assert margins[2] == pytest.approx(0.99, abs=1e-10)


# -- leaf extraction ------------------------------------------------------------------


def test_extract_leaf_angle_coordinate():
    sec = S.leaf_section(t3(), [0, 0, 1])
    x = np.array([1.0, 2.0, 0.7])
    assert sec.theta(x) == pytest.approx(0.7)
    # its rate along the coordinate vectors is the gradient of theta
    assert np.allclose(sec.dtheta(np.broadcast_to(x, (3, 3)), np.eye(3)), [0, 0, 1])


def test_extract_leaf_subtorus_circle():
    # the (1, 2) integer data foliates the torus by closed curves in the
    # direction (2, -1); the section function is constant along each
    sec = S.leaf_section(t2(), [1, 2])
    ts = np.linspace(0.0, TWO_PI, 33)
    curve = np.stack([(-2.0 * ts) % TWO_PI, ts], axis=-1)
    assert np.max(np.abs(sec.offset(curve))) < 1e-9


def test_extract_leaf_high_winding_connected():
    # gcd(70, 99) = 1: the leaf through the origin is one closed curve in
    # the (99, -70) direction, traversed once as the parameter runs a period
    sec = S.leaf_section(t2(), [70, 99])
    x0 = np.array([0.3, 0.4])
    for shift in (np.array([TWO_PI, 0.0]), np.array([0.0, TWO_PI])):
        assert sec.theta(x0 + shift) == pytest.approx(sec.theta(x0), abs=1e-12)
    ts = np.linspace(0.0, TWO_PI, 257)
    curve = np.stack([(99.0 * ts) % TWO_PI, (-70.0 * ts) % TWO_PI], axis=-1)
    # the leaf through the origin sits at angle zero: wrapped distance stays flat
    assert np.max(np.abs(sec.offset(curve))) < 1e-8
    # the curve closes up: endpoint meets start on the torus
    assert np.max(np.abs(t2().wrapped_delta(curve[-1], curve[0]))) < 1e-9


def test_extract_leaf_rejects_zero_data():
    with pytest.raises(ValueError):
        S.leaf_section(t3(), np.zeros(3, dtype=int))


def test_extracted_leaf_usable_as_section():
    # pipeline: periods -> rationalize -> rebuild -> leaf -> first return on
    # a transverse constant flow
    alpha = F.coordinate_form(2, 0) + SQRT2 * F.coordinate_form(2, 1)
    pv = T.periods(alpha, t2())
    ra = T.rationalize(pv, 1e-2, 100)
    sec = S.leaf_section(t2(), ra.n)
    flow_sys = P.FlowSystem(t2(), lambda x: np.broadcast_to(np.array([1.0, 1.0]),
                                                            np.shape(x)))
    report = T.check_transversality_preserved(flow_sys, T.build_approximation(alpha, pv, ra),
                                              t2().sample(np.random.default_rng(5), 16), alpha)
    assert report.passed
    r = first_return(flow_sys, sec, [0.0, 0.0])
    assert r.times[0, 0] > 0
    assert abs(float(sec.offset(r.states[0, 0]))) < 1e-10
