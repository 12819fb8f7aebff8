import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from helpers import divergence, energy_drift, tree_form
from hypothesis import given, settings
from hypothesis import strategies as st

from cosymlab import catalog, dop853, forms as F, phase as P

TWO_PI = 2.0 * math.pi


def test_field_harmonic_oscillator(ho_system):
    X = ho_system.field(np.array([1.0, 0.0]))
    assert np.allclose(X, [0.0, -1.0], atol=1e-14)


def test_field_product_system_is_angle_speed_times_dz(t4_system):
    # hand expansion of the pairing equation: only the (z, theta) block is
    # excited by dH = cos(theta) dtheta, giving X = cos(theta) d/dz
    for theta in (0.0, 0.9, 2.5):
        X = t4_system.field(np.array([0.3, 1.0, 2.0, theta]))
        assert np.allclose(X, [0, 0, np.cos(theta), 0], atol=1e-10)


def test_field_constant_energy_is_zero():
    c2 = F.ChartManifold(2)
    omega = F.wedge(F.coordinate_form(2, 0), F.coordinate_form(2, 1))
    sys_const = P.HamiltonianSystem(c2, omega, lambda x: np.full(np.shape(x)[:-1], 3.0),
                                    lambda x: np.zeros(np.shape(x)))
    X = sys_const.field(np.array([0.4, -1.0]))
    assert np.allclose(X, 0.0)


def test_solver_residual_via_interior_product(t4_system, osc_system, rng):
    # independent residual check: pair the solved field back into omega,
    # iota_X omega = X^T M with M the coefficient matrix, and compare against dH
    for system in (t4_system, osc_system):
        xs = system.manifold.sample(np.random.default_rng(5), 16)
        pairing = np.einsum("...i,...ij->...j", system.field(xs),
                            F.two_form_matrix(system.omega, xs))
        residual = np.max(np.abs(pairing - system.grad_h(xs)))
        assert residual < 1e-10


def test_near_singular_omega_rejected():
    c4 = F.ChartManifold(4)
    omega = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1)) \
        + 1e-12 * F.wedge(F.coordinate_form(4, 2), F.coordinate_form(4, 3))
    bad = P.HamiltonianSystem(c4, omega, lambda x: x[..., 0],
                              lambda x: np.broadcast_to(np.eye(4)[0], np.shape(x)))
    # the system's structure refuses it before its first field value
    with pytest.raises(ValueError, match=r"omega degenerate at a sample \(rcond 1\.000e-12\)"):
        bad.field(np.zeros(4))


def _solved_field(system, xs):
    M = F.two_form_matrix(system.omega, xs)
    return np.linalg.solve(np.swapaxes(M, -1, -2), system.grad_h(xs)[..., None])[..., 0]


def _counting_solve(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def _inline(omega):
    from cosymlab.cli import build_inline_system, validate
    return build_inline_system(validate("obstruct", {"system": {
        "dim": 2, "coordinates": ["q", "p"], "omega": omega,
        "hamiltonian": "0.5*(q^2 + p^2) + q*p^3"}})["system"])


@pytest.mark.parametrize("name", sorted(set(catalog.SYSTEMS) - {"suspension_rotation"})
                         + ["inline"])
def test_constant_omega_field_matches_solve(name, monkeypatch):
    # the cached Poisson matrix reproduces the pointwise solve, with no
    # solve per call
    system = _inline([[0, 1, 2.5]]) if name == "inline" else catalog.get_system(name)
    assert system.poisson_matrix is not None
    xs = system.manifold.sample(np.random.default_rng(2), 64) * 3.0
    expected = _solved_field(system, xs)
    calls = _counting_solve(monkeypatch)
    X = system.field(xs)
    single = system.field(xs[0])
    assert not calls
    scale = np.maximum(1.0, np.max(np.abs(system.grad_h(xs)), axis=-1, keepdims=True))
    assert np.all(np.abs(X - expected) <= 1e-13 * scale)
    assert np.array_equal(single, X[0])


@pytest.mark.parametrize("omega", [[[0, 1, 2.5]], [[0, 1, "1 + 0.5*sin(q)"]]])
def test_field_of_an_empty_batch_is_empty(omega):
    assert _inline(omega).field(np.zeros((0, 2))).shape == (0, 2)


def test_validate_rejects_vanishing_omega():
    # a zero omega has singular-value ratio 0/0 = NaN, which must not pass
    system = P.HamiltonianSystem(F.ChartManifold(2), F.constant_form(2, 2, [0.0]),
                                 lambda x: x[..., 0],
                                 lambda x: np.broadcast_to(np.eye(2)[0], np.shape(x)))
    with pytest.raises(ValueError, match="degenerate"):
        system.validate(np.zeros((4, 2)))


@pytest.mark.parametrize("rcond", [1e-12, 1.5e-10])
def test_near_singular_constant_omega_field(rcond):
    # a constant omega is certified by the system's structure before its first
    # field value, at validate()'s singular-value ratio: 1.5e-10 passes
    c4 = F.ChartManifold(4)
    omega = F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1)) \
        + rcond * F.wedge(F.coordinate_form(4, 2), F.coordinate_form(4, 3))
    system = P.HamiltonianSystem(c4, omega, lambda x: x[..., 0],
                                 lambda x: np.broadcast_to(np.eye(4)[0], np.shape(x)))
    assert omega.constant_value is not None
    if rcond >= P.RCOND_MIN:
        assert np.array_equal(system.field(np.zeros(4)), [0.0, -1.0, 0.0, 0.0])
        return
    for _ in range(2):   # a failed check is not cached away
        with pytest.raises(ValueError, match=r"omega degenerate at a sample \(rcond 1\.000e-12\)"):
            system.field(np.zeros(4))


def test_non_constant_omega_takes_solve_path(monkeypatch):
    # the field of a non-constant omega is the pointwise solve_pairing; in dim 2
    # that is the closed form, bit for bit LAPACK's solution without calling it
    system = _inline([[0, 1, "1 + 0.5*sin(q)"]])
    assert system.poisson_matrix is None
    xs = system.manifold.sample(np.random.default_rng(3), 16)
    expected = _solved_field(system, xs)
    pairings, solve_pairing = [], P.solve_pairing
    monkeypatch.setattr(P, "solve_pairing", lambda *a: pairings.append(1) or solve_pairing(*a))
    calls = _counting_solve(monkeypatch)
    assert np.array_equal(system.field(xs), expected)
    assert np.array_equal(system.field(xs[3]), expected[3])
    assert pairings == [1, 1] and not calls


def _wavy_omega(dim, rng, amplitude):
    """A non-constant two-form: the standard one plus amplitude * sin of a random
    linear function of the point in every coefficient (not closed; the pairing
    solve does not need that), with its coefficient matrices at points."""
    pairs = list(combinations(range(dim), 2))
    base = np.array([1.0 if j == i + 1 and i % 2 == 0 else 0.0 for i, j in pairs])
    W, phase = rng.normal(size=(len(pairs), dim)), rng.uniform(0.0, TWO_PI, len(pairs))
    scale = rng.uniform(0.5, 2.0)

    def coeffs(x):   # elementwise, so that a point gets the same bits in any batch
        return scale * (base + amplitude * np.sin((np.asarray(x)[..., None, :] * W).sum(-1)
                                                  + phase))

    return F.KForm(2, dim, coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.floats(0.0, 0.3), st.integers(0, 2 ** 32 - 1))
def test_closed_form_pairing_matches_lapack(n, amplitude, seed):
    # dim 2 solves M^T X = a in closed form, bit for bit LAPACK's solution on
    # non-constant omegas, and a point gets the same bits in a batch of one
    rng = np.random.default_rng(seed)
    omega = _wavy_omega(2, rng, amplitude)
    xs, a = rng.normal(size=(n, 2)) * 3.0, rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4)
    M = F.two_form_matrix(omega, xs)
    expected = np.linalg.solve(np.swapaxes(M, -1, -2), a[..., None])[..., 0]
    X = P.solve_pairing(omega, xs, a)
    assert X.shape == (n, 2)
    assert np.array_equal(X, expected)
    assert np.array_equal(P.solve_pairing(omega, xs[0], a[0]), X[0])


@pytest.mark.parametrize("dim, lapack", [(2, False), (4, True), (6, True)])
def test_pairing_takes_lapack_above_dim_2(dim, lapack, monkeypatch):
    rng = np.random.default_rng(7)
    omega = _wavy_omega(dim, rng, 0.2)
    xs, a = rng.normal(size=(5, dim)), rng.normal(size=(5, dim))
    calls = _counting_solve(monkeypatch)
    X = P.solve_pairing(omega, xs, a)
    assert bool(calls) == lapack
    M = F.two_form_matrix(omega, xs)
    assert np.max(np.abs(np.einsum("...ji,...j->...i", M, X) - a)) < 1e-12
    assert P.solve_pairing(omega, np.zeros((0, dim)), np.zeros((0, dim))).shape == (0, dim)


@pytest.mark.parametrize("omega, point", [
    ([[0, 1, "sin(q)"]], [0.0, 0.7]),
    ([[0, 1, "sin(q)^3"]], [1e-110, 0.7]),        # m underflows to 0
])
def test_degenerate_omega_raises_without_a_warning(omega, point):
    # a vanishing m is caught by the residual bound, with every RuntimeWarning an error
    system = _inline(omega)
    x = np.array([point, [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(P.SingularOmegaError):
            system.field(x)
        with pytest.raises(P.SingularOmegaError):
            system.field(x[0])
        assert np.all(np.isfinite(system.field(x[1:])))


@pytest.mark.parametrize("coefficient", [1e-310, np.nan])   # X = a / m overflows; NaN
def test_overflowing_pairing_raises_without_a_warning(coefficient):
    omega = F.constant_form(2, 2, [coefficient])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(P.SingularOmegaError):
            P.solve_pairing(omega, np.zeros((3, 2)), np.ones((3, 2)))


def test_flow_quarter_period(ho_system):
    x0 = np.array([1.0, 0.0])
    x1 = P.integrate_batch(ho_system.field, x0[None], math.pi / 2, tol=1e-10)[0]
    assert np.max(np.abs(ho_system.manifold.reduce(x1) - np.array([0.0, -1.0]))) < 1e-8
    assert abs(ho_system.energy(x1) - ho_system.energy(x0)) < 1e-10


def test_flow_constant_field_full_period(t4_system):
    chart, x0 = t4_system.manifold, np.array([0.2, 0.4, 0.0, 0.0])
    x1 = chart.reduce(P.integrate_batch(t4_system.field, x0[None], TWO_PI, tol=1e-10)[0])
    assert np.max(np.abs(chart.wrapped_delta(x1, x0))) < 1e-9


def test_flow_zero_length_interval_raises(ho_system):
    with pytest.raises(ValueError, match="t1 must be positive"):
        P.integrate_batch(ho_system.field, np.array([[0.7, -0.2]]), 0.0)


def test_energy_drift_harmonic_oscillator(ho_system):
    drift = energy_drift(ho_system, [1.0, 0.0], 100.0, tol=1e-10)
    assert drift < 1e-8


def test_energy_drift_constant_flow(t4_system):
    drift = energy_drift(t4_system, [0.1, 0.2, 0.3, 0.0], 50.0, tol=1e-10)
    assert drift < 1e-12


def test_energy_drift_zero_field():
    c2 = F.ChartManifold(2)
    omega = F.wedge(F.coordinate_form(2, 0), F.coordinate_form(2, 1))
    sys_const = P.HamiltonianSystem(c2, omega, lambda x: np.full(np.shape(x)[:-1], 1.0),
                                    lambda x: np.zeros(np.shape(x)))
    assert energy_drift(sys_const, [1.0, 1.0], 10.0) == 0.0


def test_divergence_examples(ho_system, t4_system, osc_system):
    assert abs(divergence(ho_system, np.array([1.0, 1.0]))) < 1e-6
    assert abs(divergence(t4_system, np.array([0.0, 0.0, 0.3, math.pi / 4]))) < 1e-6
    rng = np.random.default_rng(9)
    for x in catalog.sample_oscillator_surface(osc_system, 1.0, rng, 5):
        assert abs(divergence(osc_system, x)) < 1e-6


def test_flow_composition(ho_system, osc_system):
    tol = 1e-10
    for system, start in ((ho_system, [1.0, 0.0]), (osc_system, [0.6, 0.0, 0.8, 0.0])):
        chart = system.manifold

        def end(x, t):
            return chart.reduce(P.integrate_batch(system.field, x[None], t, tol)[0])

        s, t = 0.7, 1.9
        x0 = np.array(start)
        two_step, one_step = end(end(x0, s), t), end(x0, s + t)
        assert np.max(np.abs(chart.wrapped_delta(two_step, one_step))) < 10 * tol


def test_flow_preserves_polygon_area(ho_system):
    # the oscillator's flow is a rotation, a linear map, so the image of a convex
    # polygon is the polygon of its flowed vertices, and the two shoelace areas agree
    # up to the integration error (2e-12 relative at tol 1e-10); a divergence of
    # 1e-6 would move the area by 1e-6
    def shoelace(v):
        x, y = v[:, 0], v[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    s = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    polygon = np.stack([1.0 + 0.5 * np.cos(s) - 0.1 * np.sin(s),
                        0.2 + 0.1 * np.cos(s) + 0.25 * np.sin(s)], axis=-1)   # an ellipse
    image = P.integrate_batch(ho_system.field, polygon, 1.0, tol=1e-10)
    v0, v1 = shoelace(polygon), shoelace(image)
    assert abs(v0 - math.pi * 0.135) < 1e-5 * v0   # the ellipse's area, pi |det A|
    assert abs(v1 - v0) / v0 < 1e-9


def test_validate_rejects_non_closed_omega():
    c4 = F.ChartManifold(4)
    # coefficient of the (0,1) block depends on coordinate 3: not closed
    omega = tree_form(4, 2, ["1 + x3", 0, 0, 0, 0, 1])
    bad = P.HamiltonianSystem(c4, omega, lambda x: x[..., 0],
                              lambda x: np.broadcast_to(np.eye(4)[0], np.shape(x)))
    with pytest.raises(ValueError, match="not closed"):
        bad.validate(c4.sample(np.random.default_rng(0), 8))


def test_validate_rejects_bad_primitive(ho_system):
    bad = P.HamiltonianSystem(ho_system.manifold, ho_system.omega, ho_system.h,
                              ho_system.grad_h, lam=F.coordinate_form(2, 0))
    with pytest.raises(ValueError, match="primitive"):
        bad.validate(np.random.default_rng(0).normal(size=(8, 2)))


def test_validate_passes_catalog_systems(ho_system, osc_system, r4_system, t4_system):
    rng = np.random.default_rng(3)
    for system in (ho_system, osc_system, r4_system, t4_system):
        report = system.validate(system.manifold.sample(rng, 16))
        assert report["omega_rcond_min"] > 1e-10


def test_energy_surface_regularity_and_slices(osc_system, t4_system):
    rng = np.random.default_rng(4)
    zs = catalog.sample_oscillator_surface(osc_system, 1.0, rng, 32)
    # a regular level: dH stays away from zero on it
    assert np.min(np.linalg.norm(osc_system.grad_h(zs), axis=-1)) > 0.1

    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    assert Z.section_chart.dim == 3
    incl = Z.inclusion()
    pts = Z.section_chart.sample(rng, 4)
    ambient = incl.value(pts)
    assert np.allclose(ambient[:, 3], 0.0)
    back = Z.projection().value(ambient)
    assert np.allclose(back, pts)


def test_blowup_raises_step_underflow():
    c1 = F.ChartManifold(1)
    exploding = P.FlowSystem(c1, lambda x: 1.0 + np.asarray(x, dtype=float) ** 2)
    # the solution reaches infinity at finite time ~ pi/2
    with pytest.raises(dop853.StepSizeUnderflow):
        P.integrate_batch(exploding.field, np.array([[0.0]]), 10.0, tol=1e-10)


def test_integrate_batch_matches_single(t4_system):
    starts = np.array([[0.1, 0.2, 0.3, 0.0], [1.0, 2.0, 3.0, 0.0]])
    end = P.integrate_batch(t4_system.field, starts, 1.5, tol=1e-10)
    for i, x in enumerate(starts):
        single = P.integrate_batch(t4_system.field, x[None], 1.5, tol=1e-10)[0]
        assert np.max(np.abs(single - end[i])) < 1e-9
