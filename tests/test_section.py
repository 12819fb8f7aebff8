import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from helpers import first_return, jacobians, torus_chart
from hypothesis.extra import numpy as hnp

from cosymlab import catalog, forms as F, phase as P, section as S

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def t4_section():
    system = catalog.product_system("t3")
    return S.coordinate_section(system.manifold, system.dim - 2)


def test_first_return_product_constant_flow(t4_system, t4_section):
    # cross-check of the constant-flow prediction T = 2*pi by integration
    p = np.array([0.3, 1.1, 0.0, 0.0])
    r = first_return(t4_system, t4_section, p)
    assert abs(r.times[0, 0] - TWO_PI) < 1e-10
    assert np.max(np.abs(t4_system.manifold.wrapped_delta(r.states[0, 0], p))) < 1e-9
    assert r.margins[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert r.crossings_seen[0, 0] == 1


def test_first_return_suspension(suspension_system):
    sec = S.coordinate_section(suspension_system.manifold, 1)
    r = first_return(suspension_system, sec, [0.2, 0.0])
    assert abs(r.times[0, 0] - 1.0) < 1e-12
    delta = suspension_system.manifold.wrapped_delta(r.states[0, 0], [0.2 + 1.0 / 3.0, 0.0])
    assert abs(delta[0]) < 1e-10
    assert abs(delta[1]) < 1e-10


def test_first_return_oscillator_closed_form(osc_system):
    # linear flow: the second pair rotates at rate sqrt(2), so the first
    # return to its zero-phase half-plane takes 2*pi/sqrt(2)
    sec = S.angle_section()
    p = np.array([0.6, 0.0, 0.8, 0.0])
    r = first_return(osc_system, sec, p)
    assert abs(r.times[0, 0] - TWO_PI / SQRT2) < 1e-9
    assert abs(float(sec.offset(r.states[0, 0]))) < 1e-10
    assert abs(float(osc_system.energy(r.states[0, 0])) - float(osc_system.energy(p))) < 1e-8
    assert r.margins[0, 0] == pytest.approx(SQRT2, rel=1e-9)


def test_first_return_requires_section_point(t4_system, t4_section):
    r = S.iterate_returns(t4_system, t4_section, [0.0, 0.0, 1.0, 0.0], 1)
    assert r.failures == [
        (0, "start point is not on the section: |theta - level| = 1.000e+00 > 1e-08")]
    assert np.isnan(r.times).all()


def test_first_return_tangency_is_distinct(t4_system):
    # flow is d/dz; a section through the x coordinate never moves: the start
    # is refused as tangent, not reported as an orbit with no crossing
    sec = S.coordinate_section(t4_system.manifold, 0)
    r = S.iterate_returns(t4_system, sec, [0.0, 0.5, 0.3, 0.0], 1)
    assert r.failures == [(0, "tangency: flow tangent to section at start: "
                              "|d theta/dt| = 0.000e+00")]


def test_return_consistency_iterated(suspension_system):
    sec = S.coordinate_section(suspension_system.manifold, 1)
    x = np.array([0.05, 0.0])
    for k in range(1, 4):
        x = first_return(suspension_system, sec, x).states[0, 0]
        expected = (0.05 + k / 3.0) % 1.0
        assert abs(x[0] - expected) < k * 1e-8


def test_return_map_jacobian_identity_cases(t4_system, t4_section, suspension_system):
    J = jacobians(t4_system, t4_section, [[0.4, 2.0, 0.0, 0.0]])[0]
    assert np.max(np.abs(J - np.eye(2))) < 1e-8
    sec = S.coordinate_section(suspension_system.manifold, 1)
    J1 = jacobians(suspension_system, sec, [[0.2, 0.0]])[0]
    assert np.max(np.abs(J1 - np.eye(1))) < 1e-8


def test_return_map_jacobian_oscillator_rotation(osc_system):
    # closed form: the (q1, p1) pair rotates clockwise by T = 2*pi/sqrt(2)
    sec = S.angle_section()
    J = jacobians(osc_system, sec, [[0.6, 0.0, 0.8, 0.0]])[0]
    T = TWO_PI / SQRT2
    expected = np.array([[math.cos(T), math.sin(T)], [-math.sin(T), math.cos(T)]])
    assert np.max(np.abs(J - expected)) < 1e-8
    assert abs(np.linalg.det(J) - 1.0) < 1e-6


def test_return_map_determinants_match_per_point(osc_system):
    sec = S.angle_section()
    rng = np.random.default_rng(7)
    pts = catalog.sample_oscillator_surface(osc_system, 1.0, rng, 8)
    dets = np.linalg.det(jacobians(osc_system, sec, pts, t_max=50.0))
    assert np.max(np.abs(dets - 1.0)) < 1e-6
    J = jacobians(osc_system, sec, pts[:1], t_max=50.0)[0]
    assert abs(np.linalg.det(J) - dets[0]) < 1e-7


COUPLING = 0.05


def _coupled_oscillator() -> P.HamiltonianSystem:
    """The sqrt(2) oscillator with the quartic coupling COUPLING * q1^2 q2^2."""
    eps = COUPLING
    c4 = F.ChartManifold(4)
    om = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1)) \
        + F.wedge(F.coordinate_form(4, 2), F.coordinate_form(4, 3))

    def h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2) \
            + 0.5 * SQRT2 * (x[..., 2] ** 2 + x[..., 3] ** 2) \
            + eps * x[..., 0] ** 2 * x[..., 2] ** 2

    def grad_h(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0] + 2 * eps * x[..., 0] * x[..., 2] ** 2,
                         x[..., 1],
                         SQRT2 * x[..., 2] + 2 * eps * x[..., 0] ** 2 * x[..., 2],
                         SQRT2 * x[..., 3]], axis=-1)

    return P.HamiltonianSystem(c4, om, h, grad_h)


def test_return_map_symplectic_on_nonlinear_flow():
    # quartic coupling makes return times vary along the section; the map is
    # genuinely curved but must still transport the restricted form exactly
    coupled = _coupled_oscillator()
    sec = S.angle_section()
    rng = np.random.default_rng(1)
    pts = catalog.sample_oscillator_surface(coupled, 1.0, rng, 8)

    r = S.iterate_returns(coupled, sec, pts, 1, t_max=50.0, tol=1e-11)
    assert r.failures == [None] * len(pts)
    assert np.ptp(r.times) > 0.01   # the coupling really bends the map
    assert np.max(np.abs(coupled.energy(r.states[:, 0]) - coupled.energy(pts))) < 1e-8

    dets = np.linalg.det(jacobians(coupled, sec, pts, t_max=50.0, tol=1e-11))
    assert np.max(np.abs(dets - 1.0)) < 1e-6

    J = jacobians(coupled, sec, pts[:1], t_max=50.0, tol=1e-11)[0]
    M0 = S.restricted_form_matrix(coupled, sec, pts[0])
    M1 = S.restricted_form_matrix(coupled, sec, r.states[0, 0])
    assert np.max(np.abs(J.T @ M1 @ J - M0)) < 1e-6


def test_return_map_jacobian_matches_differenced_images():
    # Jacobian values where the return time varies along the section: against
    # central differences of certified return images of the section points
    # (q1, p1, q2, 0) on H = 1, with q2 > 0 in closed form
    coupled, sec, level, h = _coupled_oscillator(), S.angle_section(), 1.0, 1e-5

    def on_section(s):
        q1, p1 = s[..., 0], s[..., 1]
        q2 = np.sqrt((level - 0.5 * (q1 ** 2 + p1 ** 2)) / (0.5 * SQRT2 + COUPLING * q1 ** 2))
        return np.stack([q1, p1, q2, np.zeros_like(q1)], axis=-1)

    rng = np.random.default_rng(3)
    radius, phi = np.sqrt(rng.uniform(0.2, 1.6, 6)), rng.uniform(0.0, TWO_PI, 6)
    s = np.column_stack([radius * np.cos(phi), radius * np.sin(phi)])
    pts = on_section(s)
    assert all(S.section_frame(coupled, sec, p)[0] == (0, 1) for p in pts)
    # stencil (point, column a, sign) of (q1, p1)
    stencil = s[:, None, None] + h * np.array([1.0, -1.0])[:, None] * np.eye(2)[:, None]
    r = S.iterate_returns(coupled, sec, on_section(stencil).reshape(-1, 4), 1, t_max=50.0,
                          tol=1e-12)
    assert r.failures == [None] * len(r.starts)
    assert np.ptp(r.times) > 0.01   # the return time varies over the points
    images = r.states[:, 0, :2].reshape(6, 2, 2, 2)
    expected = ((images[:, :, 0] - images[:, :, 1]) / (2 * h)).transpose(0, 2, 1)
    J = jacobians(coupled, sec, pts, t_max=50.0)
    assert np.max(np.abs(J - expected)) < 1e-7


def test_higher_dimensional_symplecticity(t6_system):
    # four-dimensional section: the Jacobian preserves the restricted form
    sec = S.coordinate_section(t6_system.manifold, t6_system.dim - 2)
    p = np.array([0.3, 1.0, 2.0, 0.7, 0.0, 0.0])
    J = jacobians(t6_system, sec, [p])[0]
    M = S.restricted_form_matrix(t6_system, sec, p)
    assert np.max(np.abs(J.T @ M @ J - M)) < 1e-5


def test_jacobians_and_torus_refuse_a_point_off_the_section(t4_system, t4_section):
    # verify_global does not ask its samples to lie on the section, so its
    # forward record certifies a crossing of the second one; the Jacobians
    # and the mapping torus refuse that point all the same
    samples = np.array([[0.3, 1.1, 0.0, 0.0], [0.5, 2.0, 1.0, 0.0]])
    first = S.verify_global(t4_system, t4_section, samples, t_max=20.0).forward
    assert first.failures == [None, None]
    with pytest.raises(ValueError, match="point 1 is not on the section"):
        S.return_map_jacobians(t4_system, t4_section, first)
    with pytest.raises(ValueError, match="point 1 is not on the section"):
        S.mapping_torus_chart(t4_system, t4_section, first)
    # on the section, the record's first crossings are the points' returns
    J = S.return_map_jacobians(t4_system, t4_section, first.select([0]))
    assert np.max(np.abs(J - np.eye(2))) < 1e-8


def test_jacobians_and_torus_refuse_a_point_without_a_first_return(t4_system, t4_section):
    # a t_max short of the 2*pi leaf return certifies no first crossing
    samples = catalog.PRODUCT.starts(t4_system, np.random.default_rng(2), 2, 0.0)
    first = S.iterate_returns(t4_system, t4_section, samples, 1, t_max=1.0)
    assert first.failures == [(0, "no crossing")] * 2
    with pytest.raises(ValueError, match="point 0 has no certified first crossing: no crossing"):
        S.return_map_jacobians(t4_system, t4_section, first)
    with pytest.raises(ValueError, match="point 0 has no certified first crossing: no crossing"):
        S.mapping_torus_chart(t4_system, t4_section, first)


def test_a_zero_dimensional_section_refuses_its_starts_too():
    # the harmonic oscillator's section has no free coordinate, so its Jacobians
    # are 0 x 0 blocks; a start with no certified return, or off the section, is
    # refused all the same, with the reason a failed check reports
    system = catalog.get_system("harmonic_oscillator")
    sec = S.angle_section((0, 1))
    short = S.iterate_returns(system, sec, [[1.0, 0.0]], 1, t_max=1.0)
    assert short.failures == [(0, "no crossing")]
    for stage in (S.return_map_jacobians, S.mapping_torus_chart):
        with pytest.raises(S.SectionRefusal, match="point 0 has no certified first crossing: "
                           "no crossing") as exc:
            stage(system, sec, short)
        assert exc.value.reason == "no crossing"
    # verify_global does not ask its samples to lie on the section
    off = S.verify_global(system, sec, [[0.0, 1.0]], t_max=20.0).forward
    assert off.failures == [None]
    for stage in (S.return_map_jacobians, S.mapping_torus_chart):
        with pytest.raises(S.SectionRefusal, match="point 0 is not on the section") as exc:
            stage(system, sec, off)
        assert exc.value.reason == str(exc.value)
    assert S.return_map_jacobians(system, sec, short.select([])).shape == (0, 0, 0)


def test_restricted_form_degenerates_on_a_lagrangian_section(t4_system):
    # {x = 0} inside the zero level {theta = 0} of omega = dx^dy + dz^dtheta is
    # spanned by e_y and e_z, on which omega vanishes
    sec = S.coordinate_section(t4_system.manifold, 0)
    M = S.restricted_form_matrix(t4_system, sec, [0.0, 0.4, 1.1, 0.0])
    assert M.shape == (2, 2)
    assert np.array_equal(M, np.zeros((2, 2)))


def test_verify_global_product(t4_system, t4_section, rng):
    samples = catalog.PRODUCT.starts(t4_system, np.random.default_rng(1), 100, 0.0)
    rep = S.verify_global(t4_system, t4_section, samples, t_max=50.0)
    assert rep.passed
    assert abs(rep.max_return_time - TWO_PI) < 1e-9
    assert rep.min_margin == pytest.approx(1.0, abs=1e-12)


def test_verify_global_reports_counterexample(t4_system):
    # flow d/dz never advances the x angle: orbits do not cross {x = 0}
    sec = S.coordinate_section(t4_system.manifold, 0)
    samples = np.array([[1.0, 0.5, 0.3, 0.0], [2.0, 0.1, 1.0, 0.0]])
    rep = S.verify_global(t4_system, sec, samples, t_max=5.0)
    assert not rep.passed
    assert len(rep.failures) == 4  # both directions, both samples
    assert rep.n_pass == 0
    assert all(f[2] == "no crossing" for f in rep.failures)


def test_verify_global_empty_sample_set(t4_system, t4_section):
    rep = S.verify_global(t4_system, t4_section, np.zeros((0, 4)), t_max=5.0)
    # a check over zero samples certifies nothing, so it does not pass
    assert rep.vacuous and not rep.passed and rep.n_samples == 0


def _wiggle(a):
    # x' = 1, y' = a + cos(x) on T^2: along an orbit the y angle lifts to
    # v(t) = a t + sin(x0 + t) - sin(x0), which dips and recrosses lattice values
    t2 = F.ChartManifold(2, (True, True))
    system = P.FlowSystem(t2, lambda x: np.stack([np.ones_like(x[..., 0]),
                                                  a + np.cos(x[..., 0])], axis=-1))
    return system, S.coordinate_section(t2, 1)


def _bisect(f, lo, hi):
    """The zero of f in [lo, hi], where f changes sign once, by bisection down
    to adjacent floats: the end of the last bracket where |f| is smaller."""
    f_lo, f_hi = f(lo), f(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _wiggle_first_return(a, x0, t_max):
    """Exact first upward lattice passage of the wiggle lift after t = 0.

    Between consecutive turning points (a + cos(x0 + t) = 0) the lift is
    monotone, so every passage is bracketed exactly; the start owns the
    lattice value 0.
    """
    def lift(t):
        return a * t + math.sin(x0 + t) - math.sin(x0)

    c = math.acos(-a)
    turns = sorted(t for j in range(-1, int(t_max / TWO_PI) + 2)
                   for t in (c - x0 + TWO_PI * j, -c - x0 + TWO_PI * j) if 0.0 < t < t_max)
    knots = [0.0] + turns + [t_max]
    for lo, hi in zip(knots[:-1], knots[1:]):
        k = math.floor(lift(lo) / TWO_PI + 1e-12) + 1 if lo > 0.0 else 1
        if lift(hi) >= TWO_PI * k > lift(lo):
            return _bisect(lambda t: lift(t) - TWO_PI * k, lo, hi)
    return math.nan


@pytest.mark.parametrize("a", [0.3, 0.1])
def test_short_recrossings_match_analytic_lift(a):
    # brief excursions of the lift through a lattice value fall between grid
    # samples unless the grid resolves turning points near the lattice;
    # missing one puts the crossing a full lap late
    wig, sec = _wiggle(a)
    xs = np.sort(np.random.default_rng(5).uniform(0.0, TWO_PI, 200))
    starts = np.stack([xs, np.zeros_like(xs)], axis=1)
    expected = np.array([_wiggle_first_return(a, x0, 200.0) for x0 in xs])
    c = S.first_crossings(wig, sec, starts, t_max=200.0)
    assert c.ok.all()
    assert np.max(np.abs(c.times[:, 0] - expected)) < 1e-8
    assert np.max(c.residuals) < S.ANGLE_RESIDUAL
    for i in (135, 142, 145):
        r = first_return(wig, sec, starts[i], t_max=200.0)
        assert abs(r.times[0, 0] - expected[i]) < 1e-8


def test_grazing_crossing_fails_on_every_path():
    # x' = 1, y' = (x - pi)^2: y(t) = (t - 1/2)^3 / 3 from this start, so the
    # orbit crosses y = 0 at t = 1/2 with zero rate
    t2 = F.ChartManifold(2, (True, True))
    graze = P.FlowSystem(t2, lambda x: np.stack([np.ones_like(x[..., 0]),
                                                 (x[..., 0] - math.pi) ** 2], axis=-1))
    sec = S.coordinate_section(t2, 1)
    start = np.array([[math.pi - 0.5, (-0.5 ** 3 / 3.0) % TWO_PI]])
    rep = S.verify_global(graze, sec, start, t_max=20.0)
    assert not rep.passed
    assert [(f[0], f[1]) for f in rep.failures] == [(0, "forward")]
    assert rep.failures[0][2].startswith("tangency")
    # a section point of the same orbit, one lap of y before the graze
    x0 = math.pi - (6.0 * math.pi) ** (1.0 / 3.0)
    r = S.iterate_returns(graze, sec, [x0, 0.0], 1, t_max=20.0)
    assert r.failures[0][0] == 0 and r.failures[0][1].startswith("tangency: grazing crossing")


_RATE_CHART = F.ChartManifold(4, (True,) * 4, (TWO_PI, 3.0, TWO_PI, 0.7))
RATE_SECTIONS = {
    "coordinate, period 3": S.coordinate_section(_RATE_CHART, 1, 0.4),
    "coordinate, period 2 pi": S.coordinate_section(_RATE_CHART, 2, orientation=-1),
    "angle (2, 3)": S.angle_section((2, 3)),
    "angle (1, 0)": S.angle_section((1, 0)),
    "leaf, mixed-sign n": S.leaf_section(_RATE_CHART, [3, -5, 0, 2]),
    "leaf, gcd 2 at a level": S.leaf_section(_RATE_CHART, [4, 0, -6, 2], level=1.3),
}


#: the pair of each angle section: its theta is singular where the pair vanishes
ANGLE_PAIRS = {"angle (2, 3)": (2, 3), "angle (1, 0)": (1, 0)}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RATE_SECTIONS)), st.sampled_from([(4,), (6, 4), (3, 2, 4), (1, 1, 4)]),
       st.data())
def test_closed_form_rate_matches_a_difference_of_theta(name, shape, data):
    # each section's closed-form rate d theta(X), on (n, dim) and (g, m, dim)
    # batches alike, against the wrapped central difference of theta along X,
    # which uses no derivative code.  The step is 1e-6 of the length over which
    # theta is close to linear: the pair's amplitude r of an angle section, whose
    # |d theta| is 1/r, else max(1, |x|) (theta is linear up to its wrap); the
    # bound is 1e-7 |X| |d theta|, with a floor for products on the subnormal grid
    sec = RATE_SECTIONS[name]
    values = hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3))
    x, X = data.draw(values), data.draw(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = sec.dtheta(x, X)
    assert np.shape(rate) == shape[:-1]
    x, X, rate = x.reshape(-1, 4), X.reshape(-1, 4), np.reshape(rate, -1)
    if name in ANGLE_PAIRS:
        i, j = ANGLE_PAIRS[name]
        # compared where the squared amplitude of the closed form is a normal float
        keep = x[:, i] ** 2 + x[:, j] ** 2 >= np.finfo(float).tiny
        x, X, rate = x[keep], X[keep], rate[keep]
        length = np.hypot(x[:, i], x[:, j])
        slope = 1.0 / length
    else:
        length, slope = np.maximum(1.0, np.max(np.abs(x), axis=1)), 1.0
    size = np.max(np.abs(X), axis=1)
    U = X / np.where(size > 0, size, 1.0)[:, None]
    h = 1e-6 * length
    diff = sec.theta(x + h[:, None] * U) - sec.theta(x - h[:, None] * U)
    quotient = ((diff + math.pi) % TWO_PI - math.pi) / (2.0 * h)
    bound = 1e-7 * slope * size + np.finfo(float).tiny
    assert np.all(np.abs(rate - quotient * size) <= bound)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.floats(-1e3, 1e3), st.sampled_from([1, -1]),
       st.sampled_from([(4,), (6, 4), (3, 2, 4)]), st.data())
def test_coordinate_section_is_its_closed_form_bit_for_bit(index, level, orientation, shape,
                                                           data):
    # the leaf of e_i at the angle c * 2 pi / L_i is {x_i = c} to the bit: its
    # angle (x_i * (2 pi / L_i)) mod 2 pi, its rate (2 pi / L_i) * X_i and its
    # level (c * (2 pi / L_i)) mod 2 pi.  The rate is a sum of products, which
    # drops the sign of a zero; adding 0.0 drops it on both sides
    sec = S.coordinate_section(_RATE_CHART, index, level, orientation)
    scale = TWO_PI / _RATE_CHART.periods[index]
    values = hnp.arrays(float, shape, elements=st.floats(-1e6, 1e6))
    x, X = data.draw(values), data.draw(values)
    assert np.array_equal(_bits(sec.theta(x)), _bits((x[..., index] * scale) % TWO_PI))
    assert np.array_equal(_bits(sec.dtheta(x, X) + 0.0), _bits(scale * X[..., index] + 0.0))
    assert _bits(sec.level) == _bits((level * scale) % TWO_PI)
    assert sec.orientation == orientation


def test_angle_rate_is_nan_at_zero_amplitude():
    # the angle section is singular where its pair vanishes; the rate says so
    # with NaN (and no warning), so the crossing scan reports the orbit
    sec = RATE_SECTIONS["angle (2, 3)"]
    x = np.array([[0.3, 0.1, 0.0, 0.0], [0.3, 0.1, 0.6, 0.8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = sec.dtheta(x, np.ones((2, 4)))
    assert np.isnan(rate[0]) and rate[1] == pytest.approx(0.8 - 0.6)


def test_unconverged_polish_is_reported(suspension_system):
    # angle noise the rate does not know about: Newton cannot push the
    # residual below the noise, so no crossing may be certified
    base = S.coordinate_section(suspension_system.manifold, 1)

    def noisy_theta(x):
        x = np.asarray(x, dtype=float)
        return base.theta(x) + 1e-10 * np.sin(1e13 * np.sum(x, axis=-1))

    sec = S.SectionSpec(noisy_theta, base.dtheta, base.level, base.orientation)
    starts = np.array([[0.2, 0.0], [0.7, 0.0]])
    rep = S.verify_global(suspension_system, sec, starts, t_max=5.0)
    assert len(rep.failures) == 4
    assert all(f[2].startswith("unconverged") for f in rep.failures)
    r = S.iterate_returns(suspension_system, sec, starts[0], 1)
    assert r.failures[0][0] == 0
    assert r.failures[0][1].startswith("unconverged: angular residual")


@st.composite
def _crossing_batches(draw, families=("wiggle", "product", "oscillator")):
    """(system, section, starts): wiggle orbits, T^4 product leaf points or
    oscillator section points."""
    family = draw(st.sampled_from(families))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if family == "wiggle":
        system, sec = _wiggle(draw(st.floats(0.1, 0.6)))
        xs = rng.uniform(0.0, TWO_PI, n)
        return system, sec, np.stack([xs, np.zeros(n)], axis=1)
    if family == "product":
        system = catalog.product_system("t3")
        return system, S.coordinate_section(system.manifold, system.dim - 2), \
            catalog.PRODUCT.starts(system, rng, n, 0.0)
    system = catalog.oscillator_2dof()
    return system, S.angle_section(), \
        catalog.sample_oscillator_surface(system, 1.0, rng, n)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_crossing_batches(), st.sampled_from([1, -1]))
def test_batch_matches_batches_of_one(batch, direction):
    system, sec, starts = batch
    together = S.first_crossings(system, sec, starts, 100.0, direction=direction)
    alone = [S.first_crossings(system, sec, x[None], 100.0, direction=direction)
             for x in starts]
    assert [f is None for f in together.failures] == [c.failures[0] is None for c in alone]
    assert together.crossings_seen[:, 0].tolist() == [int(c.crossings_seen[0, 0]) for c in alone]
    ok = together.ok
    times_alone = np.array([c.times[0] for c in alone])
    assert np.all(np.abs(together.times[ok] - times_alone[ok]) < 1e-8)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_crossing_batches(("product", "oscillator")))
def test_backward_scan_from_forward_crossing_returns_to_start(batch):
    # forward vs reversed time: scanning back from each forward crossing
    # finds the start again, one return time earlier
    system, sec, starts = batch
    forward = S.first_crossings(system, sec, starts, 100.0)
    assert forward.ok.all()
    back = S.first_crossings(system, sec, forward.states[:, 0], 100.0, direction=-1)
    assert back.ok.all()
    assert np.all(np.abs(back.times + forward.times) < 1e-8)
    chart = system.manifold
    assert np.all(np.abs(chart.wrapped_delta(back.states[:, 0], starts)) < 1e-8)


@st.composite
def _return_batches(draw):
    """(system, section, starts, t_max): section points of wiggle orbits (whose
    returns take from under one to many laps, so a short t_max stops some of
    them mid-chain), T^4 product leaf points or oscillator section points;
    optionally one start is moved off the section."""
    family = draw(st.sampled_from(["wiggle", "wiggle", "product", "oscillator"]))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if family == "wiggle":
        system, sec = _wiggle(draw(st.floats(0.1, 0.6)))
        xs = rng.uniform(0.0, TWO_PI, n)
        starts, t_max = np.stack([xs, np.zeros(n)], axis=1), draw(st.sampled_from([12.0, 40.0]))
        angle = 1
    elif family == "product":
        system = catalog.product_system("t3")
        sec = S.coordinate_section(system.manifold, system.dim - 2)
        starts, t_max, angle = catalog.PRODUCT.starts(system, rng, n, 0.0), 20.0, 2
    else:
        system = catalog.oscillator_2dof()
        sec = S.angle_section()
        starts = catalog.sample_oscillator_surface(system, 1.0, rng, n)
        t_max, angle = 20.0, 3
    if draw(st.booleans()):
        starts[draw(st.integers(0, n - 1)), angle] += 0.25
    return system, sec, starts, t_max


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_return_batches(), st.integers(1, 3))
def test_iterate_returns_batch_matches_batches_of_one(batch, k):
    system, sec, starts, t_max = batch
    together = S.iterate_returns(system, sec, starts, k, t_max)
    alone = [S.iterate_returns(system, sec, x, k, t_max) for x in starts]
    assert [f and (f[0], f[1].split(":")[0]) for f in together.failures] == \
        [r.failures[0] and (r.failures[0][0], r.failures[0][1].split(":")[0]) for r in alone]
    times_alone = np.concatenate([r.times for r in alone])
    assert np.array_equal(np.isnan(together.times), np.isnan(times_alone))
    done = ~np.isnan(times_alone)
    assert np.all(np.abs(together.times[done] - times_alone[done]) < 1e-9)
    assert np.all(together.residuals[done] < S.ANGLE_RESIDUAL)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_return_batches(), st.integers(1, 3))
def test_iterate_returns_images_match_time_integration(batch, k):
    # an independent oracle for every certified image: integrate the true flow
    # from the previous image for the return time, the difference of the
    # reported crossing times
    system, sec, starts, t_max = batch
    chart = system.manifold
    r = S.iterate_returns(system, sec, starts, k, t_max)
    for i, x in enumerate(chart.reduce(starts)):
        for j in range(k if r.failures[i] is None else r.failures[i][0]):
            T = r.times[i, j] - (r.times[i, j - 1] if j else 0.0)
            end = chart.reduce(P.integrate_batch(system.field, x[None], T)[0])
            assert np.max(np.abs(chart.wrapped_delta(end, r.states[i, j]))) < 1e-9
            x = r.states[i, j]


def test_iterate_returns_oscillator_closed_form(osc_system):
    # every return of the second pair's phase takes 2*pi/sqrt(2), and the
    # iterates stay on the energy level
    sec = S.angle_section()
    starts = catalog.sample_oscillator_surface(osc_system, 1.0, np.random.default_rng(11), 6)
    r = S.iterate_returns(osc_system, sec, starts, 12, t_max=20.0)
    assert r.failures == [None] * 6
    assert np.max(np.abs(np.diff(r.times, prepend=0.0) - TWO_PI / SQRT2)) < 1e-9
    assert np.max(np.abs(osc_system.energy(r.states) - 1.0)) < 1e-8
    assert np.max(r.residuals) < S.ANGLE_RESIDUAL
    assert (r.crossings_seen == 1).all()


def test_iterate_returns_failure_stops_one_orbit(suspension_system):
    # the second start is off the section: it stops at iterate 0, the first
    # orbit goes on through all three returns
    sec = S.coordinate_section(suspension_system.manifold, 1)
    r = S.iterate_returns(suspension_system, sec, np.array([[0.1, 0.0], [0.1, 0.5]]), 3)
    assert r.failures[0] is None and not np.isnan(r.times[0]).any()
    assert r.failures[1][0] == 0 and r.failures[1][1].startswith("start point is not on")
    assert np.isnan(r.times[1]).all()
    assert np.max(np.abs(r.states[0, :, 0] - (0.1 + np.arange(1, 4) / 3.0) % 1.0)) < 1e-9


def _record_scan_steps(monkeypatch):
    """Patch the crossing engine's integrator to record, for every step its
    scan hook sees, the rows, the step's start and end times, whether the
    step stood and whether it ended its row."""
    steps = []
    integrate = P.integrate_batch

    def recording(field, x0, t1, tol=P.DEFAULT_FLOW_TOL, step=None, first_step=None):
        if step is None:
            return integrate(field, x0, t1, tol, first_step=first_step)

        def hook(rows, t, y, t_new, y_new, f, f_new):
            ok, cap, done = step(rows, t, y, t_new, y_new, f, f_new)
            steps.append((rows, t, t_new, ok, done))
            return ok, cap, done

        return integrate(field, x0, t1, tol, hook, first_step)

    monkeypatch.setattr(S.phase, "integrate_batch", recording)
    return steps


def _phase_rotor():
    # H = I + I^2 with I = (q^2 + p^2)/2: the phase turns at rate 1 + q^2 + p^2
    chart = F.ChartManifold(2)
    omega = F.wedge(F.coordinate_form(2, 0), F.coordinate_form(2, 1))
    return P.HamiltonianSystem(
        chart, omega, lambda x: 0.5 * np.sum(x ** 2, -1) * (1 + 0.5 * np.sum(x ** 2, -1)),
        lambda x: x * (1 + np.sum(x ** 2, -1))[..., None])


def test_crossing_scan_ends_one_step_past_last_crossing(monkeypatch):
    # each start at phase phi0 crosses phase 2*pi at (2*pi - phi0) / (1 + r^2)
    system = _phase_rotor()
    sec = S.angle_section((0, 1))
    rng = np.random.default_rng(8)
    r, phi0 = rng.uniform(0.3, 1.2, 6), rng.uniform(0.5, 6.0, 6)
    starts = np.stack([r * np.cos(phi0), -r * np.sin(phi0)], axis=1)
    steps = _record_scan_steps(monkeypatch)
    c = S.first_crossings(system, sec, starts, t_max=50.0)
    assert c.ok.all()
    assert np.max(np.abs(c.times[:, 0] - (TWO_PI - phi0) / (1 + r ** 2))) < 1e-8
    # no orbit is stepped past the step that holds its crossing: every step
    # it attempts starts before the crossing, and the last one stands, holds
    # the crossing and ends the orbit
    for orbit, t_cross in enumerate(c.times[:, 0]):
        tried = [(t[k], t_new[k], ok[k], done[k]) for rows, t, t_new, ok, done in steps
                 for k in np.flatnonzero(rows == orbit)]
        assert all(t0 < t_cross for t0, _, _, _ in tried)
        t0, t1, ok, done = tried[-1]
        assert ok and done and t0 < t_cross <= t1


def test_aliased_early_stop_continues_to_analytic_crossing(monkeypatch):
    # u' = 20 v, v' = 1 from (0.5, -1): u runs backward at a falling rate, turns
    # at t = 1 and crosses 2*pi*k upward at t = 1 + sqrt(2 (2 pi k - u_min) / 20).
    # The flow is quadratic in time, so DOP853's error estimate vanishes and
    # at a loose tol its steps would grow tenfold, far past pi of u, where a
    # backward lap reads as a passage; the angle rules keep every step that
    # stands under a quarter turn, and the true crossing is found
    chart = F.ChartManifold(2, (True, False))
    system = P.FlowSystem(chart, lambda x: np.stack([20.0 * x[..., 1], np.ones_like(x[..., 1])],
                                                    axis=-1))
    sec = S.coordinate_section(chart, 0)
    u0, v0 = 0.5, -1.0

    def u(t):
        return u0 + 20.0 * (v0 * t + 0.5 * t ** 2)

    u_min = u(1.0)
    expected = 1.0 + math.sqrt(2.0 * (TWO_PI * (math.floor(u_min / TWO_PI) + 1) - u_min) / 20.0)
    steps = _record_scan_steps(monkeypatch)
    c = S.first_crossings(system, sec, np.array([[u0, v0]]), t_max=50.0, tol=1e-3)
    assert c.failures == [None]
    assert abs(c.times[0, 0] - expected) < 1e-9
    stood = [(t[0], t_new[0]) for _, t, t_new, ok, _ in steps if ok[0]]
    assert max(abs(u(b) - u(a)) for a, b in stood) <= 0.5 * math.pi
    assert any(not ok[0] for _, _, _, ok, _ in steps)   # the error control would take them


def test_iterate_returns_field_work(monkeypatch):
    # machine-independent work of three returns of a fixed oscillator batch:
    # 722 field calls with all three followed in one crossing scan and
    # certified by one Hénon batch, which starts with one step over each
    # whole angle gap, and one polish (747 when the Hénon batch grew its
    # steps from the Hairer-Norsett-Wanner guess, 897 with one engine call
    # per return, 1651 when every return was re-integrated and polished a
    # second time, 1839 on a shared sample grid ending one step past the
    # last crossing, 3063 when every scan integrated its whole chunk)
    system = catalog.oscillator_2dof()
    sec = S.angle_section()
    starts = catalog.sample_oscillator_surface(system, 1.0, np.random.default_rng(3), 4)
    calls = []
    field = P.HamiltonianSystem.field
    monkeypatch.setattr(P.HamiltonianSystem, "field",
                        lambda self, x: calls.append(1) or field(self, x))
    r = S.iterate_returns(system, sec, starts, 3, t_max=20.0)
    assert r.failures == [None] * 4
    assert len(calls) == 722


def test_crossing_verdicts_keep_their_precedence(monkeypatch):
    # the acceptance checks run as arrays over all crossings; a failing one
    # gets the message of its first failed check in the order return time,
    # tangency, residual, bracket, as when they ran one crossing at a time
    system, sec = _drift()
    polish = S._polish

    def forged(directed, sec_, x, oriented):
        x, t_corr, residual, slowest = polish(directed, sec_, x, oriented)
        slowest[0], residual[0] = 1e-9, 1e-9          # grazing and unconverged
        residual[1], t_corr[1] = 2e-12, 50.0          # unconverged and outside
        t_corr[2] = 50.0                               # outside its step only
        t_corr[3], slowest[3] = 200.0, 1e-9            # after t_max and grazing
        return x, t_corr, residual, slowest

    monkeypatch.setattr(S, "_polish", forged)
    c = S.first_crossings(system, sec, [[0.0, v] for v in (1.0, 1.1, 1.2, 1.3, 1.4)], 100.0)
    # the failed crossings keep no time: the forged ones of the starts (0, v)
    # come at 2*pi / v plus their forged correction
    t = TWO_PI / np.array([1.0, 1.1, 1.2]) + [0.0, 50.0, 50.0]
    assert c.failures == [
        (0, f"tangency: grazing crossing at t={t[0]:.6g}: |d theta/dt| = 1.000e-09 < 1e-08"),
        (0, "unconverged: angular residual 2.000e-12 >= 1e-12"),
        (0, f"outside bracket: crossing at t={t[2]:.6g} outside the bracketing step of its orbit"),
        (0, "no crossing"), None]
    assert c.ok[:, 0].tolist() == [False] * 4 + [True]


def _slowing_drift(c):
    # u' = 1 / (1 + v), v' = c on S^1 x R: the lap from crossing j - 1 to j of
    # the start (0, 0) takes (exp(2 pi c) - 1) exp(2 pi c j) / c, longer each lap
    chart = F.ChartManifold(2, (True, False))
    system = P.FlowSystem(chart, lambda x: np.stack(
        [1.0 / (1.0 + x[..., 1]), np.full_like(x[..., 1], c)], axis=-1))
    laps = (math.exp(TWO_PI * c) - 1.0) * np.exp(TWO_PI * c * np.arange(3)) / c
    return system, S.coordinate_section(chart, 0), laps


def test_iterate_returns_t_max_bounds_each_return():
    # laps of about 7.4, 10.1 and 13.8: with t_max between the second and
    # third, the third return fails although all three fit in 3 * t_max
    system, sec, laps = _slowing_drift(0.05)
    t_max = 0.5 * (laps[1] + laps[2])
    assert laps.sum() < 3 * t_max
    r = S.iterate_returns(system, sec, np.array([[0.0, 0.0]]), 3, t_max)
    assert r.failures == [(2, "no crossing")]
    assert np.max(np.abs(np.diff(r.times[0, :2], prepend=0.0) - laps[:2])) < 1e-8
    assert np.isnan(r.times[0, 2]) and np.isnan(r.states[0, 2]).all()
    assert np.max(r.residuals[0, :2]) < S.ANGLE_RESIDUAL
    # the crossing engine's record: cumulative times, two certified entries
    c = S.first_crossings(system, sec, np.array([[0.0, 0.0]]), t_max, k=3)
    assert c.ok.tolist() == [[True, True, False]] and c.failures == [(2, "no crossing")]
    assert np.max(np.abs(c.times[0, :2] - np.cumsum(laps[:2]))) < 1e-8


def test_iterate_returns_t_max_below_first_return():
    # the first return comes after t_max, though the first two fit in 3 * t_max
    system, sec, laps = _slowing_drift(0.05)
    t_max = 0.8 * laps[0]
    assert laps[:2].sum() < 3 * t_max
    r = S.iterate_returns(system, sec, np.array([[0.0, 0.0]]), 3, t_max)
    assert r.failures == [(0, "no crossing")]
    assert np.isnan(r.times).all()


def test_mapping_torus_product(t4_system, t4_section):
    grid = np.array([[x, y, 0.0, 0.0] for x in (0.5, 2.0, 4.0) for y in (1.0, 3.0)])
    mt = torus_chart(t4_system, t4_section, grid, tol=1e-10)
    assert mt.gluing_residual < 1e-8
    assert mt.energy_residual < 1e-8
    assert np.allclose(mt.table[:, 0], grid)


def _torus_cases():
    t4, osc = catalog.product_system("t3"), catalog.oscillator_2dof()
    susp = catalog.suspension_rotation()
    pts = catalog.sample_oscillator_surface(osc, 1.0, np.random.default_rng(0), 3)
    return [("t4 product leaf", t4, S.coordinate_section(t4.manifold, t4.dim - 2),
             [[x, y, 0.0, 0.0] for x in (0.5, 2.0, 4.0) for y in (1.0, 3.0)]),
            ("oscillator angle", osc, S.angle_section(), pts),
            ("suspension rotation", susp, S.coordinate_section(susp.manifold, 1),
             [[x, 0.0] for x in (0.0, 0.2, 0.7)])]


@pytest.mark.parametrize("name, system, sec, points", _torus_cases(),
                         ids=[c[0] for c in _torus_cases()])
def test_mapping_torus_table_matches_direct_integration(name, system, sec, points):
    # the one batched time-scaled integration against a direct integration of
    # each entry to its own time t_j * T(p_i)
    tol = 1e-10
    chart = system.manifold
    grid = chart.reduce(points)
    mt = torus_chart(system, sec, grid, tol=tol)
    assert mt.table.shape == (len(grid), S.TORUS_TIMES, system.dim)
    times = S.iterate_returns(system, sec, grid, 1, tol=tol).times[:, 0]
    for i, (p, T) in enumerate(zip(grid, times)):
        assert np.array_equal(mt.table[i, 0], p)
        for j, t in enumerate(np.linspace(0.0, 1.0, S.TORUS_TIMES)[1:], start=1):
            x = chart.reduce(P.integrate_batch(system.field, p[None], t * T, tol)[0])
            assert np.max(np.abs(chart.wrapped_delta(mt.table[i, j], x))) < 10 * tol


def test_mapping_torus_energy_residual_is_enforced(osc_system):
    # at tol 1e-6 the gluing passes its 10*tol bound (8.3e-8) but the table
    # drifts off the energy level H = 1 by 5.1e-7, beyond LEVEL_TOL * max(1, |H|)
    sec = S.angle_section()
    pts = catalog.sample_oscillator_surface(osc_system, 1.0, np.random.default_rng(0), 3)
    loose = torus_chart(osc_system, sec, pts, tol=1e-6)
    assert not loose.passed
    assert loose.gluing_residual <= S.GLUING_FACTOR * 1e-6
    assert loose.energy_residual > P.LEVEL_TOL
    mt = torus_chart(osc_system, sec, pts, tol=1e-10)
    assert mt.passed and mt.energy_residual < P.LEVEL_TOL


def test_mapping_torus_rational_rotation_cycles(suspension_system):
    sec = S.coordinate_section(suspension_system.manifold, 1)
    grid = np.array([[x, 0.0] for x in (0.0, 1.0 / 3.0, 2.0 / 3.0)])
    mt = torus_chart(suspension_system, sec, grid, tol=1e-10)
    # holonomy is rotation by 1/3: applying it three times returns the grid
    x = grid[0]
    for _ in range(3):
        x = first_return(suspension_system, sec, x).states[0, 0]
    chart = suspension_system.manifold
    assert np.max(np.abs(chart.wrapped_delta(x, grid[0]))) < 3e-8
    # the table's t = 1 row is the holonomy image of its grid point
    expected = np.column_stack([(grid[:, 0] + 1.0 / 3.0) % 1.0, grid[:, 1]])
    assert np.max(np.abs(chart.wrapped_delta(mt.table[:, -1], expected))) < 1e-9


def test_first_return_with_wiggling_rate():
    # the section rate 0.3 + cos(x) changes sign along the orbit, so the lift
    # v(t) = 0.3 t + sin(x0 + t) - sin(x0) dips below the start before coming
    # back: the first return re-crosses the starting lattice value upward
    t2 = F.ChartManifold(2, (True, True))
    wig = P.FlowSystem(t2, lambda x: np.stack([np.ones_like(x[..., 0]),
                                               0.3 + np.cos(x[..., 0])], axis=-1))
    sec = S.coordinate_section(t2, 1)
    x0 = 1.0

    def lift(t):
        return 0.3 * t + np.sin(x0 + t) - np.sin(x0)

    # oracle: earliest upward passage of the lift through any lattice value,
    # located on a dense grid and polished by bisection
    ts = np.linspace(0.0, 40.0, 400_001)
    v = lift(ts)
    lattice = np.floor(v / TWO_PI + 1e-12)
    upward = np.where(np.diff(lattice) > 0)[0]
    i = upward[0]
    target = TWO_PI * lattice[i + 1]
    T_oracle = _bisect(lambda t: lift(t) - target, ts[i], ts[i + 1])

    r = first_return(wig, sec, [x0, 0.0])
    assert abs(r.times[0, 0] - T_oracle) < 1e-9
    assert abs(r.states[0, 0, 0] - (x0 + T_oracle) % TWO_PI) < 1e-9
    assert r.crossings_seen[0, 0] == 2   # one downward dip, then the counted return
    # the rate vanishes somewhere along the orbit, so the margin is small but
    # the crossing itself is transverse
    assert 0 < r.margins[0, 0] < 0.1


def test_orientation_selects_crossing_direction():
    # downward flow through the section: only the reversed orientation counts it
    t2 = F.ChartManifold(2, (True, True), (1.0, 1.0))
    falling = P.FlowSystem(t2, lambda x: np.broadcast_to(np.array([0.25, -1.0]),
                                                         np.shape(x)))
    p = [0.1, 0.0]
    sec_down = S.coordinate_section(t2, 1, orientation=-1)
    assert abs(first_return(falling, sec_down, p).times[0, 0] - 1.0) < 1e-10
    sec_up = S.coordinate_section(t2, 1, orientation=1)
    assert S.iterate_returns(falling, sec_up, p, 1, t_max=3.0).failures == [(0, "no crossing")]
    rep = S.verify_global(falling, sec_up, np.array([[0.3, 0.4]]), t_max=3.0)
    assert not rep.passed  # upward crossings never happen


def test_transversality_sign_constant_along_orbits(t4_system, t4_section):
    samples = catalog.PRODUCT.starts(t4_system, np.random.default_rng(3), 10, 0.0)
    rates = t4_section.dtheta(samples, t4_system.field(samples))
    assert np.all(rates > 0)


def _record(times, states, margins, failures):
    """A Crossings record of the given crossing values, each start its first state."""
    times, states, margins = (np.array(a, dtype=float) for a in (times, states, margins))
    return S.Crossings(np.nan_to_num(states[:, 0]), times, states, margins,
                       np.zeros(times.shape), np.ones(times.shape, dtype=int), failures, 1e-10)


def test_crossings_csv_roundtrip(tmp_path):
    record = _record([[1.5], [2.5]], [[[0.1, 0.2, 0.3, 0.4]], [[1.0, 2.0, 3.0, 4.0]]],
                     [[0.9], [0.8]], [None, None])
    path = tmp_path / "crossings.csv"
    S.write_crossings_csv(path, record)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["orbit_id", "t", "coord_0", "coord_1", "coord_2", "coord_3", "margin"]
        parsed = list(reader)
    assert len(parsed) == 2
    assert float(parsed[0][1]) == 1.5
    assert int(parsed[1][0]) == 1
    assert parsed[1][2:] == ["1.0", "2.0", "3.0", "4.0", "0.8"]


def test_crossings_csv_writes_only_certified_crossings(tmp_path):
    # k = 2: orbit 0 certifies both crossings, orbit 1 fails after its first, so
    # its second entry holds NaN and is not written
    nan = np.nan
    record = _record([[1.0, 2.0], [1.5, nan]],
                     [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [nan, nan]]],
                     [[0.7, 0.8], [0.9, nan]], [None, (1, "no crossing")])
    assert [2 if f is None else f[0] for f in record.failures] == record.ok.sum(axis=1).tolist()
    path = tmp_path / "crossings.csv"
    S.write_crossings_csv(path, record)
    text = path.read_text()
    assert "nan" not in text
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [["0", "1.0", "0.1", "0.2", "0.7"], ["0", "2.0", "0.3", "0.4", "0.8"],
                    ["1", "1.5", "0.5", "0.6", "0.9"]]


def _drift():
    # u' = v, v' = 0 on S^1 x R (the flow of H = v^2 / 2 with omega = du^dv):
    # the start (0, v) first returns to u = 0 after 2*pi / v
    chart = F.ChartManifold(2, (True, False))
    system = P.FlowSystem(chart, lambda x: np.stack([x[..., 1], np.zeros_like(x[..., 1])],
                                                    axis=-1))
    return system, S.coordinate_section(chart, 0)


def _fast_among_slow(v_fast):
    return np.array([[0.0, 1.0 + 0.01 * i] for i in range(9)] + [[0.0, v_fast]])


@pytest.mark.parametrize("v_fast", [150.0, 300.0, 2000.0, 1e4])
def test_fast_orbit_in_slow_batch_is_not_aliased(v_fast):
    # the drift flow is linear, so the error control would let the fast
    # orbit's steps grow until it turns close to a whole number of times per
    # step; the wrapped angle change then looks small and only its rate times
    # the step shows the step is too long (a later lap was certified before)
    system, sec = _drift()
    starts = _fast_among_slow(v_fast)
    c = S.first_crossings(system, sec, starts, t_max=100.0)
    assert c.failures == [None] * 10
    assert np.max(np.abs(c.times[:, 0] - TWO_PI / starts[:, 1])) < 1e-9
    assert c.crossings_seen[:, 0].tolist() == [1] * 10


@pytest.mark.parametrize("v_fast", [-97.0, -99.0, -101.0, -150.0, -300.0])
def test_fast_backward_orbit_in_slow_batch_matches_batch_of_one(v_fast):
    # the fast orbit runs backward, never crosses upward, and turns close to a
    # whole number of times in the time a slow orbit takes to cross.  Every
    # orbit takes its own steps, so each gets the outcome it has alone: the
    # fast one reaches t_max with no crossing (on a sample grid shared by the
    # batch it failed as unconverged when the grid refinement ran out)
    system, sec = _drift()
    starts = _fast_among_slow(v_fast)
    alone = [S.first_crossings(system, sec, x[None], t_max=40.0) for x in starts]
    c = S.first_crossings(system, sec, starts, t_max=40.0)
    assert c.failures == [a.failures[0] for a in alone] == [None] * 9 + [(0, "no crossing")]
    assert np.max(np.abs(c.times[:9, 0] - TWO_PI / starts[:9, 1])) < 1e-9
    assert np.max(np.abs(c.times[:9, 0] - [a.times[0, 0] for a in alone[:9]])) < 1e-12
    assert c.crossings_seen[:, 0].tolist() == [int(a.crossings_seen[0, 0]) for a in alone]
    assert np.isnan(c.times[9, 0])


def _tilted(v):
    # u' = 1 + 0.9 v sin(u), v' = 0 on S^1 x R: the start (0, v) first returns
    # to u = 0 after 2*pi / sqrt(1 - 0.81 v^2)
    chart = F.ChartManifold(2, (True, False))
    system = P.FlowSystem(chart, lambda x: np.stack(
        [1.0 + 0.9 * x[..., 1] * np.sin(x[..., 0]), np.zeros_like(x[..., 1])], axis=-1))
    starts = np.stack([np.zeros_like(v), v], axis=1)
    return system, S.coordinate_section(chart, 0), starts, TWO_PI / np.sqrt(1.0 - 0.81 * v ** 2)


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("n", [1, 10, 100])
def test_orbit_error_does_not_grow_with_its_batch(tol, n):
    # one RMS error norm over a stacked batch let n - 1 easy orbits (v = 0)
    # dilute the error of a hard one (v = 1): at tol 1e-6 its crossing-time
    # error grew from 2.3e-7 alone to 8.3e-5 among 9 others
    system, sec, starts, exact = _tilted(np.array([0.0] * (n - 1) + [1.0]))
    alone = {v: S.first_crossings(system, sec, [[0.0, v]], t_max=20.0, tol=tol).times[0, 0]
             for v in (0.0, 1.0)}
    batch = S.first_crossings(system, sec, starts, t_max=20.0, tol=tol)
    assert batch.ok.all()
    alone_error = np.abs([alone[v] for v in starts[:, 1]] - exact)
    assert abs(batch.times[-1, 0] - exact[-1]) <= 2.0 * alone_error[-1]
    # the easy orbits are near exact alone: a floor for rounding, far below tol
    assert np.all(np.abs(batch.times[:, 0] - exact) <= 2.0 * alone_error + 1e-13)


def _exact_first_crossings(system, sec, starts, direction):
    """Analytic first crossing times of the `_crossing_batches` families,
    forward only for the wiggle (None backward): the wiggle is the plain
    flow, and of the Hamiltonian families the product has no primitive."""
    if isinstance(system, P.HamiltonianSystem):
        period = TWO_PI if system.lam is None else TWO_PI / SQRT2
        return np.full(len(starts), direction * period)
    if direction < 0:
        return None
    a = float(system.field(np.zeros((1, 2)))[0, 1]) - 1.0
    return np.array([_wiggle_first_return(a, x0, 100.0) for x0 in starts[:, 0]])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_crossing_batches(), st.sampled_from([1, -1]))
def test_orbit_error_in_a_batch_is_within_twice_its_error_alone(batch, direction):
    system, sec, starts = batch
    exact = _exact_first_crossings(system, sec, starts, direction)
    if exact is None:
        return
    together = S.first_crossings(system, sec, starts, 100.0, direction=direction)
    alone = np.array([S.first_crossings(system, sec, x[None], 100.0,
                                        direction=direction).times[0, 0] for x in starts])
    assert together.ok.all()
    # a row alone and in a batch may round differently, far below any tol
    assert np.all(np.abs(together.times[:, 0] - exact) <= 2.0 * np.abs(alone - exact) + 1e-13)


@pytest.mark.parametrize("direction", [1, -1])
def test_scan_stops_evaluating_at_last_first_passage(monkeypatch, t4_system, t6_system,
                                                     direction):
    # every leaf orbit of a product system passes the section after 2*pi of
    # its leaf angle z.  No field point is evaluated for an orbit after the
    # step that holds its crossing, and the angle rules keep that step under a
    # quarter turn, so no evaluated point lies past 2*pi + pi/2
    for system in (t4_system, t6_system):
        points = []
        field = P.HamiltonianSystem.field
        monkeypatch.setattr(P.HamiltonianSystem, "field",
                            lambda self, x: points.append(np.array(x)) or field(self, x))
        sec = S.coordinate_section(system.manifold, system.dim - 2)
        starts = catalog.PRODUCT.starts(system, np.random.default_rng(5), 40, 0.0)
        c = S.first_crossings(system, sec, starts, t_max=50.0, direction=direction)
        monkeypatch.undo()
        assert c.ok.all()
        assert np.max(np.abs(c.times - direction * TWO_PI)) < 1e-9
        z = np.concatenate([p[..., -2].ravel() for p in points])
        assert TWO_PI < np.max(direction * z) <= TWO_PI + 0.5 * math.pi


@pytest.mark.parametrize("direction", [1, -1])
def test_mixed_rate_batch_brackets_on_own_rows(direction):
    # orbits of different rates and phases cross on different steps of their
    # own; the result matches batches of one
    system = _phase_rotor()
    sec = S.angle_section((0, 1))
    rng = np.random.default_rng(11)
    r, phi0 = rng.uniform(0.2, 1.6, 7), rng.uniform(0.3, 6.0, 7)
    starts = np.stack([r * np.cos(phi0), -r * np.sin(phi0)], axis=1)
    together = S.first_crossings(system, sec, starts, 50.0, direction=direction)
    assert together.ok.all()
    alone = [S.first_crossings(system, sec, x[None], 50.0, direction=direction) for x in starts]
    assert np.max(np.abs(together.times[:, 0] - [c.times[0, 0] for c in alone])) < 1e-8
    assert together.crossings_seen[:, 0].tolist() == [int(c.crossings_seen[0, 0]) for c in alone]


def test_verify_global_keeps_its_forward_scan():
    # the rows of a scan are independent, so the first 50 of verify_global's
    # 1500-orbit forward record, which demo-product writes to crossings.csv,
    # equal a 50-orbit scan bit for bit
    from cosymlab import cosym
    rng = F.Rng(1)
    system = cosym.build_product_system(catalog.SEEDS["t5"]())
    sec = S.coordinate_section(system.manifold, system.dim - 2)
    samples = catalog.PRODUCT.starts(system, rng, 1500, 0.0)
    whole = S.verify_global(system, sec, samples, 100.0, 1e-10).forward
    part = S.first_crossings(system, sec, samples[:50], 100.0, 1e-10)
    for name in ("times", "states", "margins", "residuals", "crossings_seen", "ok"):
        assert np.array_equal(getattr(whole, name)[:50], getattr(part, name)), name
    assert whole.failures[:50] == part.failures
    assert "forward" not in S.verify_global(system, sec, samples[:2]).as_dict()
    assert S.verify_global(system, sec, samples[:0]).forward is None


PRODUCT_LEAVES = {name: catalog.get_system(name) for name in ("t4_product", "t6_product")}


def _leaf_starts(name, n=6, off=None):
    """n leaf points of a product system's leaf section, the row ``off``
    moved off it."""
    system = PRODUCT_LEAVES[name]
    starts = catalog.PRODUCT.starts(system, np.random.default_rng(4), n, 0.0)
    if off is not None:
        starts[off, -2] += 0.3
    return system, S.coordinate_section(system.manifold, system.dim - 2), starts


def _assert_same_record(a, b, atol=0.0):
    """Records a and b hold the same starts, failures, tol and passages, NaN
    at the same entries, and values within atol (0: bit for bit)."""
    assert a.failures == b.failures and a.tol == b.tol
    assert np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.crossings_seen, b.crossings_seen)
    for name in ("times", "states", "margins", "residuals"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(np.isnan(x), np.isnan(y)), name
        assert np.all(np.abs(x[~np.isnan(x)] - y[~np.isnan(y)]) <= atol), name


@pytest.mark.parametrize("name", sorted(PRODUCT_LEAVES))
def test_consumers_read_any_record_of_the_same_starts_bit_for_bit(name):
    # verify_global's forward record and iterate_returns' record of the same
    # starts give the same Jacobians and mapping-torus table, bit for bit
    system, sec, starts = _leaf_starts(name)
    forward = S.verify_global(system, sec, starts, 20.0).forward
    returns = S.iterate_returns(system, sec, starts, 1, 20.0)
    assert forward.failures == returns.failures == [None] * len(starts)
    assert np.array_equal(S.return_map_jacobians(system, sec, forward),
                          S.return_map_jacobians(system, sec, returns))
    assert np.array_equal(S.mapping_torus_chart(system, sec, forward).table,
                          S.mapping_torus_chart(system, sec, returns).table)


def test_henon_refinement_is_one_step_on_a_constant_field(monkeypatch):
    # the field of t4_product is constant on its level, so the error control
    # passes the Hénon batch's first step over the whole angle gap: one step
    # of 12 stages and the end field, 13 field calls for the whole batch
    system, sec, starts = _leaf_starts("t4_product")
    henon_calls = []
    integrate = P.integrate_batch

    def counting(field, x0, t1, tol=P.DEFAULT_FLOW_TOL, step=None, first_step=None):
        if step is None:   # the Hénon batch; the scan has a step hook
            def counted(y):
                henon_calls.append(len(y))
                return field(y)
            return integrate(counted, x0, t1, tol, first_step=first_step)
        return integrate(field, x0, t1, tol, step, first_step)

    monkeypatch.setattr(S.phase, "integrate_batch", counting)
    c = S.first_crossings(system, sec, starts, 20.0, k=2)
    assert c.failures == [None] * len(starts)
    assert henon_calls == [2 * len(starts)] * 13


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PRODUCT_LEAVES)),
       st.lists(st.integers(0, 5), min_size=1, max_size=6), st.sampled_from([None, 1]))
def test_row_selection_equals_the_record_of_those_starts(name, rows, off):
    # rows are scanned on their own steps, so selecting rows of a record
    # gives the record of a scan of those starts alone; with a start off the
    # section, iterate_returns' refused row is selected too.  Values agree to
    # rounding only: the BLAS product that combines a step's stages over the
    # stacked rows rounds the rows of its tail block differently (t4_product,
    # rows [1]: the crossing time differs by 8.9e-16 from the batch of 6)
    system, sec, starts = _leaf_starts(name, off=off)
    for scan in (lambda x: S.first_crossings(system, sec, x, 20.0, k=2),
                 lambda x: S.iterate_returns(system, sec, x, 2, 20.0),
                 lambda x: S.verify_global(system, sec, x, 20.0).forward):
        whole = scan(starts)
        _assert_same_record(whole.select(rows), scan(starts[rows]), atol=1e-12)
        # selections compose exactly: reversing twice reads the same rows
        twice = whole.select(rows[::-1]).select(slice(None, None, -1))
        _assert_same_record(twice, whole.select(rows))


def _verify_global_traced_peak(n):
    """Traced memory peak of verify_global over n leaf samples of the T^6
    product, drawn as the demo-product command draws them."""
    import tracemalloc
    from cosymlab import cosym
    rng = np.random.default_rng(1000)
    system = cosym.build_product_system(catalog.SEEDS["t5"]())
    samples = catalog.PRODUCT.starts(system, rng, n, 0.0)
    sec = S.coordinate_section(system.manifold, system.dim - 2)
    tracemalloc.start()
    try:
        rep = S.verify_global(system, sec, samples, 100.0, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.n_pass == n
    return peak


def test_verify_global_memory_bound():
    # each orbit is followed on its own integrator steps, and no dense output
    # or sample grid is kept: the traced peak is about 4 MiB (13 MiB with a
    # shared sample grid evaluated up to the last first passage, 26 MiB when
    # every seed row was kept)
    assert _verify_global_traced_peak(1500) < 20 * 2 ** 20


def test_verify_global_memory_bound_at_10000_samples():
    # the scan's per-orbit state and one step's stages scale with the orbits:
    # about 27 MiB here (81 MiB with a shared sample grid, 168 MiB when every
    # seed row was kept)
    assert _verify_global_traced_peak(10_000) < 120 * 2 ** 20
