import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosymlab import catalog, cosym as C, forms as F, phase as P, tischler as T
from helpers import tree_form

TWO_PI = 2.0 * math.pi


def t4():
    return F.ChartManifold(4, (True,) * 4)


def standard_omega4():
    return F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1)) \
        + F.wedge(F.coordinate_form(4, 2), F.coordinate_form(4, 3))


# -- chart basics -------------------------------------------------------------------


def test_reduce_wraps_periodic_coordinates():
    x = t4().reduce([TWO_PI + 0.5, -1.0, 0.0, 3.0])
    assert np.allclose(x, [0.5, TWO_PI - 1.0, 0.0, 3.0])


def test_chart_validation():
    with pytest.raises(ValueError):
        F.ChartManifold(0)
    with pytest.raises(ValueError):
        F.ChartManifold(2, (True, True), (1.0, -1.0))


def test_wrapped_delta():
    chart = F.ChartManifold(2, (True, False), (1.0, 1.0))
    d = chart.wrapped_delta(np.array([0.95, 2.0]), np.array([0.05, 0.0]))
    assert np.allclose(d, [-0.1, 2.0])


TINY_NEGATIVE = [-1e-17, -1e-300, -5e-324, -2e-16, -4.4e-16, -0.0]


@pytest.mark.parametrize("period", [TWO_PI, 1.0, 3.0, 1e-3])
def test_reduce_maps_tiny_negatives_into_the_period_and_is_idempotent(period):
    # NumPy's remainder of a value just below 0 rounds up to the period itself
    chart = F.ChartManifold(2, (True, False), (period, period))
    x = np.array([[v, v] for v in TINY_NEGATIVE] + [[period, 0.5], [-period, 0.5]])
    once = chart.reduce(x)
    assert np.all((once[:, 0] >= 0.0) & (once[:, 0] < period)), once[:, 0]
    assert np.array_equal(chart.reduce(once), once)
    assert np.array_equal(once[:, 1], x[:, 1])   # a non-periodic coordinate is kept
    assert np.all(np.abs(chart.wrapped_delta(once, x)[:, 0]) <= 1e-15 * max(1.0, period))


@pytest.mark.parametrize("period", [TWO_PI, 1.0, 3.0])
def test_wrapped_delta_stays_below_half_the_period(period):
    # a difference just below -period/2 wraps to [-period/2, period/2), not to period/2
    chart = F.ChartManifold(1, (True,), (period,))
    half = 0.5 * period
    d = np.array([np.nextafter(-half, -np.inf), -half, np.nextafter(half, np.inf), half,
                  -half - 1e-17, half + period, -half - period])
    out = chart.wrapped_delta(d[:, None], np.zeros((len(d), 1)))[:, 0]
    assert np.all((out >= -half) & (out < half)), out
    # each result is d up to a whole number of periods, to rounding
    turns = (d - out) / period
    assert np.all(np.abs(turns - np.round(turns)) < 1e-15)


def test_reduce_of_the_unit_period_suspension_chart():
    from cosymlab import catalog
    chart = catalog.torus(2)
    assert np.array_equal(chart.reduce([[-1e-17, 0.5]]), [[0.0, 0.5]])
    system = catalog.suspension_rotation()
    x = np.full((1, system.dim), -1e-17)
    once = system.manifold.reduce(x)
    periodic = np.array(system.manifold.periodic)
    assert np.all(once[0, periodic] == 0.0)
    assert np.array_equal(system.manifold.reduce(once), once)


# -- seeded sampler ----------------------------------------------------------------


def test_rng_same_seed_gives_identical_draws():
    a, b = F.Rng(42), F.Rng(42)
    for _ in range(3):
        assert a.uniform(-2.0, 3.0, (5, 4)).tobytes() == b.uniform(-2.0, 3.0, (5, 4)).tobytes()


def test_rng_different_seeds_give_different_draws():
    draws = {F.Rng(seed).uniform(0.0, 1.0, 8).tobytes() for seed in (0, 1, 2, 2**64 - 1)}
    assert len(draws) == 4


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-1.0, 1.0), (0.0, TWO_PI), (0.1, 0.9),
                                       (-1e-300, 1e-300), (5.0, 5.5)])
def test_rng_draws_lie_in_half_open_interval(low, high):
    x = F.Rng(3).uniform(low, high, 20_000)
    assert x.dtype == np.float64
    assert np.all(x >= low) and np.all(x < high)


def test_rng_size_gives_shape():
    rng = F.Rng(0)
    assert rng.uniform(0.0, 1.0, 7).shape == (7,)
    assert rng.uniform(0.0, 1.0, 0).shape == (0,)
    assert rng.uniform(0.0, 1.0, (3, 2)).shape == (3, 2)
    assert rng.uniform(0.0, 1.0, (2, 1, 4)).shape == (2, 1, 4)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_rng_draws_are_the_top_53_bits_of_mersenne_twister_words(seed):
    k = 6
    twister = random.Random(seed)
    expected = [(twister.getrandbits(64) >> 11) * 2**-53 for _ in range(k)]
    assert F.Rng(seed).uniform(0.0, 1.0, k).tolist() == expected


# -- evaluation --------------------------------------------------------------------


def test_evaluate_coordinate_basis():
    x, e = np.array([0.3, 1.0, 2.0, 0.1]), np.eye(4)
    dxdy = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1))
    assert F.evaluate_frame(dxdy, x, e[:, [0, 1]]) == 1.0
    assert F.evaluate_frame(dxdy, x, e[:, [0, 0]]) == 0.0
    assert F.evaluate_frame(standard_omega4(), x, e[:, [2, 3]]) == 1.0


def test_evaluate_arity_and_dimension_errors():
    x, e = np.zeros(4), np.eye(4)
    dxdy = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1))
    with pytest.raises(ValueError):
        F.evaluate_frame(dxdy, x, e[:, :1])
    d3 = F.coordinate_form(3, 0)
    with pytest.raises(ValueError):
        F.evaluate_frame(d3, x, e[:, :1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000))
def test_antisymmetry_exact_sign_flip(seed):
    rng = np.random.default_rng(seed)
    omega = standard_omega4()
    x = rng.normal(size=4)
    u, v = rng.normal(size=(2, 4))
    plus = F.evaluate_frame(omega, x, np.column_stack([u, v]))
    minus = F.evaluate_frame(omega, x, np.column_stack([v, u]))
    assert plus == -minus


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000), st.floats(-3, 3), st.floats(-3, 3))
def test_multilinearity(seed, a, b):
    rng = np.random.default_rng(seed)
    omega = standard_omega4()
    x = rng.normal(size=4)
    u, v, w = rng.normal(size=(3, 4))
    at = lambda *cs: F.evaluate_frame(omega, x, np.column_stack(cs))
    lhs = at(a * u + b * v, w)
    rhs = a * at(u, w) + b * at(v, w)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# -- wedge -------------------------------------------------------------------------


def test_wedge_standard_two_form():
    dxdy = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1))
    # lexicographic pair basis: {01, 02, 03, 12, 13, 23}
    assert np.allclose(dxdy.coeffs(np.zeros(4)), [1, 0, 0, 0, 0, 0])


def test_wedge_self_vanishes():
    dx = F.coordinate_form(4, 0)
    assert np.allclose(F.wedge(dx, dx).coeffs(np.zeros(4)), 0.0)


def test_wedge_top_degree_value():
    dxdy = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1))
    dzdth = F.wedge(F.coordinate_form(4, 2), F.coordinate_form(4, 3))
    top = F.wedge(dxdy, dzdth)
    assert F.evaluate_frame(top, np.zeros(4), np.eye(4)) == 1.0


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(5)
    a = F.KForm(1, 4, lambda x: np.stack([x[..., 1], np.cos(x[..., 2]),
                                          x[..., 0] ** 2, np.sin(x[..., 3])], axis=-1))
    b = F.KForm(2, 4, lambda x: np.stack([x[..., 0], x[..., 3], np.ones_like(x[..., 0]),
                                          x[..., 1] * x[..., 2], x[..., 2],
                                          np.cos(x[..., 0])], axis=-1))
    ab, ba = F.wedge(a, b), F.wedge(b, a)
    xs = rng.normal(size=(8, 4))
    sign = (-1.0) ** (a.degree * b.degree)
    assert np.allclose(ab.coeffs(xs), sign * ba.coeffs(xs), atol=1e-14)


def test_wedge_degree_overflow():
    top = F.wedge(F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1)),
                  F.wedge(F.coordinate_form(4, 2), F.coordinate_form(4, 3)))
    with pytest.raises(ValueError):
        F.wedge(top, F.coordinate_form(4, 0))


# -- the pairing of a vector with a two-form ---------------------------------------------


def test_interior_basis_examples():
    # iota_X f of a two-form is X^T M, M = two_form_matrix(f): the pairing that
    # phase.solve_pairing inverts
    def iota(X, f):
        return X @ F.two_form_matrix(f, np.zeros(f.dim))

    dxdy = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1))
    assert iota(np.eye(4)[0], dxdy).tolist() == [0, 1, 0, 0]
    dqdp = F.wedge(F.coordinate_form(2, 0), F.coordinate_form(2, 1))
    assert iota(np.eye(2)[0], dqdp).tolist() == [0, 1]
    assert iota(-np.eye(4)[3], standard_omega4()).tolist() == [0, 0, 1, 0]


# -- exterior derivative ------------------------------------------------------------


def test_d_of_sine_angle():
    df = F.exterior_derivative(tree_form(4, 0, ["sin(x3)"]))
    x = np.array([[0.0, 0.0, 0.0, 0.7]])
    assert np.array_equal(F.covector_values(df, x), [[0, 0, 0, np.cos(x[0, 3])]])


def test_d_of_constant_form_is_zero():
    df = F.exterior_derivative(F.constant_form(4, 1, [1.0, 2.0, 0.0, -1.0]))
    assert np.max(np.abs(df.coeffs(np.random.default_rng(0).normal(size=(8, 4))))) == 0.0


def test_d_of_p_dq():
    # chart (q, p); the one-form p dq differentiates to dp ^ dq = -(dq ^ dp)
    d = F.exterior_derivative(tree_form(2, 1, ["x1", 0]))
    assert d.coeffs(np.array([0.4, 0.9])).tolist() == [-1.0]


def test_d_top_degree_rejected():
    top = F.power(standard_omega4(), 2)
    with pytest.raises(ValueError):
        F.exterior_derivative(top)


def _dyadic_points(seed, n, dim):
    """Points whose coordinates are multiples of 1/8 in [-2, 2]: small-integer
    polynomials take exact values there."""
    return np.random.default_rng(seed).integers(-16, 17, size=(n, dim)) / 8.0


def test_d_squared_vanishes_exactly():
    f = tree_form(3, 1, ["x1^3", "x0*x2", "x0^2*x1 - x2"])
    ddf = F.exterior_derivative(F.exterior_derivative(f))
    assert np.array_equal(ddf.coeffs(_dyadic_points(1, 16, 3)), np.zeros((16, 1)))


def test_leibniz_rule_sampled():
    # d(a ^ b) = da ^ b - a ^ db, derived by the algebra, against the derivative of
    # the trees of a ^ b written out, exactly at points where both are exact
    a = tree_form(3, 1, ["x1", "x2", "x0*x1"])
    b = tree_form(3, 1, ["x0", 1, "x2^2"])
    ab = tree_form(3, 2, ["x1 - x2*x0", "x1*x2^2 - x0*x1*x0", "x2*x2^2 - x0*x1"])
    xs = _dyadic_points(3, 12, 3)
    assert np.array_equal(F.wedge(a, b).coeffs(xs), ab.coeffs(xs))
    derived = F.exterior_derivative(F.wedge(a, b)).coeffs(xs)
    assert np.array_equal(derived, F.exterior_derivative(ab).coeffs(xs))
    # d(a ^ b) = (x0^2 - x0 - x1 - x2^2) dx0 ^ dx1 ^ dx2, here by hand
    x0, x1, x2 = xs.T
    assert np.array_equal(derived[:, 0], x0 ** 2 - x0 - x1 - x2 ** 2)


def test_a_form_without_its_derivative_is_refused_not_differenced():
    bare = F.KForm(1, 2, lambda x: np.stack([np.sin(x[..., 1]), np.zeros(x.shape[:-1])], -1))
    samples = np.zeros((4, 2))
    for f in (bare, 2.0 * bare, bare + tree_form(2, 1, ["x1", 0]),
              F.pullback(F.ChartMap(np.eye(2)), bare)):
        with pytest.raises(ValueError, match="no exact derivative"):
            F.closed_residual(f, samples)
    assert not hasattr(F, "FD_STEP")


def test_d_commutes_with_the_algebra_exactly():
    # sums, multiples and pullbacks along an affine map of tree forms, against the
    # trees of the result written out
    f, g = tree_form(3, 1, ["x1*x2", "x0^2", 3]), tree_form(3, 1, [1, "x2", "x1"])
    xs = _dyadic_points(5, 8, 3)
    dsum = F.exterior_derivative(f - 2.0 * g).coeffs(xs)
    written = tree_form(3, 1, ["x1*x2 - 2", "x0^2 - 2*x2", "3 - 2*x1"])
    assert np.array_equal(dsum, F.exterior_derivative(written).coeffs(xs))
    # phi(y) = (y0 + y1, 2 y1, 1): phi* f = 2 y1 dy0 + (2 y1 + 2 (y0 + y1)^2) dy1, on a
    # chart whose coordinates are named x0, x1 here
    phi = F.ChartMap([[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]], [0.0, 0.0, 1.0])
    pulled = F.pullback(phi, f)
    by_hand = tree_form(2, 1, ["2*x1", "2*x1 + 2*(x0 + x1)^2"])
    ys = xs[:, :2]
    assert np.array_equal(pulled.coeffs(ys), by_hand.coeffs(ys))
    assert np.array_equal(F.exterior_derivative(pulled).coeffs(ys),
                          F.exterior_derivative(by_hand).coeffs(ys))


# -- pullback -----------------------------------------------------------------------


def test_pullback_along_projection_lifts_angle_form():
    proj = F.ChartMap.coordinate_projection(2, [1])
    dth = F.coordinate_form(1, 0)
    lifted = F.pullback(proj, dth)
    assert np.allclose(F.covector_values(lifted, np.array([0.4, 1.0])), [0, 1])


def test_pullback_identity():
    omega = standard_omega4()
    back = F.pullback(F.ChartMap.coordinate_projection(4, range(4)), omega)
    xs = np.random.default_rng(0).normal(size=(8, 4))
    assert np.allclose(back.coeffs(xs), omega.coeffs(xs))


def test_pullback_degree_two_circle_map():
    pulled = F.pullback(F.ChartMap([[2.0]]), F.coordinate_form(1, 0))
    assert np.allclose(pulled.coeffs(np.array([0.3])), [2.0])


def test_pullback_commutes_with_wedge():
    rng = np.random.default_rng(4)
    phi = F.ChartMap(rng.normal(size=(3, 3)), rng.normal(size=3))
    a = F.KForm(1, 3, lambda x: np.stack([x[..., 1], np.cos(x[..., 2]), x[..., 0] ** 2], axis=-1))
    b = F.KForm(1, 3, lambda x: np.stack([np.ones_like(x[..., 0]), x[..., 0],
                                          np.sin(x[..., 1])], axis=-1))
    lhs = F.pullback(phi, F.wedge(a, b))
    rhs = F.wedge(F.pullback(phi, a), F.pullback(phi, b))
    xs = rng.normal(size=(8, 3))
    assert np.max(np.abs(lhs.coeffs(xs) - rhs.coeffs(xs))) < 1e-12


def test_pullback_dimension_mismatch():
    proj = F.ChartMap.coordinate_projection(4, [0, 1])
    with pytest.raises(ValueError):
        F.pullback(proj, F.coordinate_form(3, 0))


# -- power --------------------------------------------------------------------------


def test_power_of_standard_form_counts_pairs():
    sq = F.power(standard_omega4(), 2)
    assert F.evaluate_frame(sq, np.zeros(4), np.eye(4)) == pytest.approx(2.0)


def test_power_zero_is_unit_function():
    one = F.power(standard_omega4(), 0)
    assert one.degree == 0
    assert np.allclose(one.coeffs(np.random.default_rng(0).normal(size=(5, 4))), 1.0)


def test_power_rank_deficient_square_vanishes():
    dxdy = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1))
    sq = F.power(dxdy, 2)
    assert np.allclose(sq.coeffs(np.zeros(4)), 0.0)


def test_power_overflow_rejected():
    with pytest.raises(ValueError):
        F.power(standard_omega4(), 3)
    with pytest.raises(ValueError):
        F.power(standard_omega4(), -1)


# -- algebraic identities across operations ------------------------------------------


def _generic_one_form():
    return F.KForm(1, 4, lambda x: np.stack([x[..., 1], np.cos(x[..., 2]),
                                             x[..., 0] ** 2, np.sin(x[..., 3])], axis=-1))


def _generic_two_form():
    return F.KForm(2, 4, lambda x: np.stack([x[..., 0], x[..., 3], np.ones_like(x[..., 0]),
                                             x[..., 1] * x[..., 2], x[..., 2],
                                             np.cos(x[..., 0])], axis=-1))


def test_wedge_associativity():
    a, b = _generic_one_form(), _generic_two_form()
    c = F.KForm(1, 4, lambda x: np.stack([np.sin(x[..., 0]), x[..., 2],
                                          np.ones_like(x[..., 0]), x[..., 1]], axis=-1))
    xs = np.random.default_rng(43).normal(size=(16, 4))
    lhs = F.wedge(F.wedge(a, b), c)
    rhs = F.wedge(a, F.wedge(b, c))
    assert np.max(np.abs(lhs.coeffs(xs) - rhs.coeffs(xs))) < 1e-13


def test_pullback_composition():
    rng = np.random.default_rng(44)

    A1, A2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    c1, c2 = rng.normal(size=4), rng.normal(size=4)
    phi, psi = F.ChartMap(A1, c1), F.ChartMap(A2, c2)
    composed = F.ChartMap(A2 @ A1, A2 @ c1 + c2)
    b = _generic_two_form()
    xs = rng.normal(size=(16, 4))
    lhs = F.pullback(phi, F.pullback(psi, b))
    rhs = F.pullback(composed, b)
    assert np.max(np.abs(lhs.coeffs(xs) - rhs.coeffs(xs))) < 1e-12


# -- periodic invariance -------------------------------------------------------------


def test_catalog_coefficients_respect_periods(rng):
    chart = t4()
    omega = standard_omega4()
    xs = chart.sample(np.random.default_rng(8), 16)
    shifted = xs + np.array([TWO_PI, 0.0, -TWO_PI, TWO_PI])
    assert np.allclose(omega.coeffs(xs), omega.coeffs(shifted))
    h = F.KForm(0, 4, lambda x: np.sin(x[..., 3])[..., None])
    assert np.allclose(h.coeffs(xs), h.coeffs(shifted))


def test_check_periodic_shifts_only_the_periodic_coordinates():
    # x1 dx0 on the circle x0 times the line x1 is a form there; on the torus it
    # jumps by L1 dx0 across x1, and the message names the form
    lam = F.KForm(1, 2, lambda x: np.stack([x[..., 1], np.zeros(x.shape[:-1])], axis=-1))
    samples = np.random.default_rng(0).uniform(0.0, 3.0, (16, 2))
    F.check_periodic(lam, F.ChartManifold(2, (True, False)), samples, "lambda")
    with pytest.raises(ValueError, match=r"^lambda is not periodic .* = 3\.000e\+00\)"):
        F.check_periodic(lam, F.ChartManifold(2, (True, True), (5.0, 3.0)), samples, "lambda")


def test_check_periodic_refuses_a_nan_jump():
    # finite at the samples x0 = 0, NaN one period on, at x0 = 2 pi
    jumpy = F.KForm(1, 2, lambda x: np.stack([np.sqrt(1.0 - x[..., 0]),
                                              np.ones(x.shape[:-1])], axis=-1))
    with pytest.raises(ValueError, match=r"^alpha is not periodic .* = nan\)"):
        F.check_periodic(jumpy, F.ChartManifold(2, (True, True)), np.zeros((4, 2)), "alpha")


def test_check_periodic_names_a_non_finite_coefficient():
    # a coefficient that is NaN at the samples is named as such, before any jump
    nan = F.KForm(1, 2, lambda x: np.stack([1.0 + np.zeros(x.shape[:-1]) / 0.0,
                                            np.ones(x.shape[:-1])], axis=-1))
    with pytest.raises(ValueError, match=r"^alpha is not finite at a sample$"):
        F.check_periodic(nan, F.ChartManifold(2, (True, True)), np.zeros((4, 2)), "alpha")


def test_check_periodic_passes_a_constant_form_unevaluated():
    broken = F.KForm(1, 2, lambda x: 1 / 0, constant_value=np.array([1.0, 2.0]))
    F.check_periodic(broken, F.ChartManifold(2, (True, True)), np.zeros((4, 2)), "alpha")


def test_constant_value_propagation():
    omega = standard_omega4()
    assert omega.constant_value is not None
    proj = F.ChartMap.coordinate_projection(5, [0, 1, 2, 3])
    lifted = F.pullback(proj, omega)
    assert lifted.constant_value is not None
    assert F.power(omega, 2).constant_value is not None
    # the derivative of a constant form is the constant zero form, exactly
    for dim in range(1, 6):
        for k in range(dim):
            c = np.arange(1.0, F.n_coeffs(dim, k) + 1.0)
            d = F.exterior_derivative(F.constant_form(dim, k, c))
            assert (d.degree, d.dim) == (k + 1, dim)
            assert d.constant_value is not None
            assert np.array_equal(d.constant_value, np.zeros(F.n_coeffs(dim, k + 1)))


# -- frame minors -------------------------------------------------------------------


def _polynomial_form(rng, dim, degree):
    """Degree-k form with distinct quadratic coefficients (never constant)."""
    a, b = rng.normal(size=(2, F.n_coeffs(dim, degree), dim))

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ci->...c", x, a) * np.einsum("...i,ci->...c", x, b) + 1.0

    return F.KForm(degree, dim, coeffs)


@st.composite
def _frames(draw, min_k=1):
    dim = draw(st.integers(max(1, min_k), 6))
    k = draw(st.integers(min_k, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    frame = scale * rng.normal(size=(draw(st.integers(1, 5)), dim, k))
    return rng, frame


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_frames())
def test_frame_minors_match_determinants(case):
    _, frame = case
    dim, k = frame.shape[-2:]
    ref = np.linalg.det(frame[..., np.array(F.basis_indices(dim, k)), :])
    # Hadamard's bound: a k x k minor is at most the product of the column norms
    scale = np.prod(np.linalg.norm(frame, axis=-2), axis=-1)[..., None]
    assert np.all(np.abs(F.frame_minors(frame) - ref) <= 1e-13 * scale)
    single = F.frame_minors(frame[0])
    assert single.shape == (F.n_coeffs(dim, k),)
    assert np.array_equal(single, F.frame_minors(frame)[0])


def test_frame_minors_rejects_empty_or_overfull_frames():
    for shape in [(3, 0), (2, 3)]:
        with pytest.raises(ValueError):
            F.frame_minors(np.zeros(shape))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_pullback_along_linear_map_matches_determinants(src, tgt, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(src, tgt) + 1))
    A = rng.normal(size=(tgt, src))
    phi = F.ChartMap(A)
    f = _polynomial_form(rng, tgt, k)
    xs = rng.normal(size=(4, src))
    c = f.coeffs(xs @ A.T)
    ref = np.zeros((4, F.n_coeffs(src, k)))
    for t, rows in enumerate(F.basis_indices(tgt, k)):
        for s, cols in enumerate(F.basis_indices(src, k)):
            ref[:, s] += c[:, t] * np.linalg.det(A[np.ix_(rows, cols)])
    got = F.pullback(phi, f).coeffs(xs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_frames(min_k=2), st.data())
def test_swapping_frame_columns_flips_the_sign_exactly(case, data):
    rng, frame = case
    dim, k = frame.shape[-2:]
    i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    order = list(range(k))
    order[i], order[j] = order[j], order[i]
    swapped = frame[..., order]
    x = rng.normal(size=(len(frame), dim))
    f = _polynomial_form(rng, dim, k)
    plus, minus = F.evaluate_frame(f, x, frame), F.evaluate_frame(f, x, swapped)
    if k == 2:
        assert np.array_equal(minus, -plus)
        const = F.constant_form(dim, 2, rng.normal(size=F.n_coeffs(dim, 2)))
        assert np.array_equal(F.evaluate_frame(const, x, swapped),
                              -F.evaluate_frame(const, x, frame))
    # larger k expand the minors in another order, so the sign flips to rounding:
    # Hadamard's bound on each minor times the coefficient magnitudes
    bound = np.sum(np.abs(f.coeffs(x)), axis=-1) * np.prod(np.linalg.norm(frame, axis=-2), -1)
    assert np.all(np.abs(minus + plus) <= 1e-13 * bound)


def test_constant_form_is_evaluated_without_its_coefficient_function():
    omega = standard_omega4()

    def refuse(x):
        raise AssertionError("a constant form evaluated its coefficient function")

    lazy = F.KForm(2, 4, refuse, constant_value=omega.constant_value)
    frame = np.random.default_rng(5).normal(size=(7, 4, 2))
    x = np.random.default_rng(6).normal(size=(7, 4))
    general = F.KForm(2, 4, omega.coeffs)
    assert np.allclose(F.evaluate_frame(lazy, x, frame),
                       F.evaluate_frame(general, x, frame), rtol=0, atol=1e-14)


# -- the closedness check every certificate shares --------------------------------------


def test_closed_residual_of_a_top_degree_form_is_zero():
    top = F.KForm(2, 2, lambda x: np.sin(x[..., :1]))
    samples = F.certification_samples(F.ChartManifold(2, (True, True)))
    assert F.closed_residual(top, samples, "refused") == (0.0, True)
    assert np.array_equal(samples, F.certification_samples(F.ChartManifold(2, (True, True))))


def validate_nan_omega():
    # canonical_r4's omega with a 0/0 coefficient on dx0 ^ dx1
    r4 = catalog.canonical_r4()
    omega = tree_form(4, 2, ["0/0", 0, -1, 0, -1, 0])
    P.HamiltonianSystem(r4.manifold, omega, r4.h, r4.grad_h).validate(
        np.random.default_rng(0).normal(size=(8, 4)))


def validate_nan_lambda():
    ho = catalog.harmonic_oscillator()
    bad = P.HamiltonianSystem(ho.manifold, ho.omega, ho.h, ho.grad_h,
                              lam=tree_form(2, 1, [0, "x0 + 0/0"]))
    bad.validate(np.random.default_rng(0).normal(size=(8, 2)))


def periods_nan_alpha():
    T.periods(tree_form(2, 1, ["1 + 0/0", math.sqrt(2.0)]), catalog.torus(2))


def field_to_cosym_nan_alpha():
    # alpha = iota_X omega of X = -d/dtheta on the slice, finite there, whose
    # derivative's tree divides 1e200 * 1e200 by 1e200 * 1e200: inf / inf
    Z = catalog.SYSTEMS["t4_product"].level(catalog.product_system("t3"))
    alpha = tree_form(4, 1, ["1e200*x3/1e200", 0, 1, 0])
    C.field_to_cosym(Z, alpha, catalog.torus(3).sample(np.random.default_rng(0), 64))


@pytest.mark.parametrize("caller, refusal", [
    (validate_nan_omega, r"omega is not closed: sampled \|d omega\| = nan"),
    (validate_nan_lambda, r"primitive does not differentiate to omega: "
                          r"sampled \|d lambda - omega\| = nan"),
    (periods_nan_alpha, r"one-form not closed, .*: sampled \|d alpha\| = nan"),
    (field_to_cosym_nan_alpha, r"not symplectic: sampled \|d\(iota_X omega\)\| = nan"),
], ids=["validate-omega", "validate-lambda", "tischler-periods", "field-to-cosym"])
def test_closed_residual_refuses_a_nan_in_every_caller(caller, refusal):
    with pytest.raises(ValueError, match=refusal):
        caller()
