import math

import numpy as np
import pytest

from cosymlab import catalog, forms as F, obstruct as O, phase as P, section as S

TWO_PI = 2.0 * math.pi


# -- Stokes test ---------------------------------------------------------------------


def test_stokes_torus_and_sphere_vanish(r4_system):
    # quadrature oracle at two resolutions: both integrals vanish (the
    # ambient form is exact, so closed surfaces carry no symplectic area)
    assert O.exactness_verdict(r4_system).negative
    for surf in (catalog.embedded_torus_r4(), catalog.embedded_sphere_r4()):
        coarse = O.surface_integral(r4_system.omega, surf, n=128)
        fine = O.surface_integral(r4_system.omega, surf, n=256)
        assert abs(fine) < 1e-8
        assert abs(coarse - fine) < 1e-8


def test_stokes_detects_nonexact_torus(t4_system):
    value = O.surface_integral(t4_system.omega, catalog.coordinate_torus_t4(), n=256)
    assert value == pytest.approx(TWO_PI ** 2, abs=1e-8)


def test_constant_form_integral_never_evaluates_the_patch(t4_system):
    # a constant form reads only the patch Jacobian, never the node positions
    torus = catalog.coordinate_torus_t4()

    def value(u, v):
        raise AssertionError("patch value evaluated for a constant form")

    blind = O.MeshedSurface(value, torus.jacobian, torus.extents)
    assert t4_system.omega.constant_value is not None
    assert O.surface_integral(t4_system.omega, blind, n=64) == \
        O.surface_integral(t4_system.omega, torus, n=64) == pytest.approx(TWO_PI ** 2)


def test_stokes_requires_primitive(t4_system):
    # without a primitive there is nothing to certify, and no Stokes verdict
    verdict = O.exactness_verdict(t4_system)
    assert not verdict.negative
    assert verdict.evidence == {"primitive": None}


def _exp_form():
    """exp(x2) dx0^dx1 on R^4: smooth, not closed, and not constant."""
    def coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (6,))
        out[..., 0] = np.exp(x[..., 2])
        return out

    return F.KForm(2, 4, coeffs)


def _offset_sphere():
    return catalog.embedded_sphere_r4(center=np.array([0.2, 0.1, -0.3, 0.0]))


def test_quadrature_second_order_convergence(r4_system):
    # smooth non-closed integrand over the sphere: composite midpoint error
    # falls by at least 4x per mesh halving
    sphere = _offset_sphere()
    form = _exp_form()
    reference = O.surface_integral(form, sphere, n=1024)
    errors = [abs(O.surface_integral(form, sphere, n=n) - reference) for n in (8, 16, 32)]
    assert errors[0] / errors[1] >= 4.0
    assert errors[1] / errors[2] >= 4.0


@pytest.mark.parametrize("n", [100, 512])
def test_quadrature_is_independent_of_the_block_size(monkeypatch, r4_system, n):
    # each u-row is summed on its own, so a block of one row, of three rows
    # (which does not divide n) and of every row give the same bits
    cases = [(r4_system.omega, catalog.embedded_torus_r4()),
             (r4_system.omega, catalog.embedded_sphere_r4()),
             (_exp_form(), _offset_sphere())]
    results = []
    for rows in (1, 3, n):
        # a block of r rows holds r * n nodes' (4, 2) Jacobians
        monkeypatch.setattr(O, "BLOCK_VALUES", rows * n * 4 * 2)
        results.append([O.surface_integral(form, surf, n) for form, surf in cases])
    assert results[0] == results[1] == results[2]
    assert all(abs(value) < 1e-12 for value in results[0][:2])


def _pointwise_integral(form, surf, n):
    """The midpoint rule with the patch evaluated node by node: u and v as flat
    arrays over all n^2 nodes, each u-row summed on its own and the row sums last."""
    u = (np.arange(n) + 0.5) * surf.extents[0] / n
    v = (np.arange(n) + 0.5) * surf.extents[1] / n
    U, V = (a.ravel() for a in np.meshgrid(u, v, indexing="ij"))
    pts = None if form.constant_value is not None else surf.value(U, V)
    vals = F.evaluate_frame(form, pts, surf.jacobian(U, V)).reshape(n, n)
    return float(np.sum(np.sum(vals, axis=1)) * ((surf.extents[0] / n) * (surf.extents[1] / n)))


@pytest.mark.parametrize("surface", ["torus", "sphere", "coordinate torus"])
@pytest.mark.parametrize("form", ["constant", "exp(x2)"])
@pytest.mark.parametrize("n", [7, 100])
def test_per_axis_quadrature_equals_the_pointwise_rule(monkeypatch, r4_system, surface, form, n):
    # the quadrature passes each block a column of u and a row of v; every node
    # sees the same arithmetic as when the patch is evaluated at it alone, so the
    # integrals agree to the bit.  Blocks of 3 u-rows, which divide neither n
    surf = {"torus": catalog.embedded_torus_r4, "sphere": _offset_sphere,
            "coordinate torus": catalog.coordinate_torus_t4}[surface]()
    form = r4_system.omega if form == "constant" else _exp_form()
    monkeypatch.setattr(O, "BLOCK_VALUES", 3 * n * 4 * 2)
    assert O.surface_integral(form, surf, n) == _pointwise_integral(form, surf, n)


def test_stokes_memory_bound(r4_system):
    # the nodes are evaluated one block of u-rows at a time: the traced peak
    # is about 2.3 MiB at n = 1024, against 136 MiB when all n^2 nodes, their
    # Jacobians and their frame minors were built at once
    import tracemalloc
    sphere = catalog.embedded_sphere_r4()
    tracemalloc.start()
    try:
        value = O.surface_integral(r4_system.omega, sphere, n=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value) < 1e-12
    assert peak < 8 * 2 ** 20


# -- exactness verdict -----------------------------------------------------------------


def test_exactness_verdict_negative_on_cotangent_model(r4_system):
    verdict = O.exactness_verdict(r4_system)
    assert verdict.negative
    assert "no compact level set" in verdict.statement
    assert "cotangent" in verdict.statement
    assert verdict.evidence["primitive_residual"] < 1e-6


def test_exactness_verdict_negative_on_oscillator(ho_system, osc_system):
    for system in (ho_system, osc_system):
        assert O.exactness_verdict(system).negative


def test_exactness_verdict_inconclusive_without_primitive(t4_system):
    verdict = O.exactness_verdict(t4_system)
    assert verdict.verdict == "inconclusive"


def test_exactness_verdict_rejects_wrong_primitive(r4_system):
    bad = P.HamiltonianSystem(r4_system.manifold, r4_system.omega, r4_system.h,
                              r4_system.grad_h, lam=F.coordinate_form(4, 0))
    with pytest.raises(ValueError, match="primitive does not differentiate to omega"):
        O.exactness_verdict(bad)


def test_exactness_verdict_refuses_a_nan_residual(r4_system):
    def coeffs(x):
        return np.asarray(r4_system.lam.coeffs(x)) + np.zeros(np.shape(x)) / 0.0

    bad = P.HamiltonianSystem(r4_system.manifold, r4_system.omega, r4_system.h,
                              r4_system.grad_h, lam=F.KForm(1, 4, coeffs))
    with pytest.raises(ValueError, match="nan"):
        O.exactness_verdict(bad)


# -- Betti condition -------------------------------------------------------------------


def test_betti_s3_fails_at_degree_one():
    result = O.betti_necessary_condition(catalog.BETTI_PROFILES["s3"])
    assert not result.passed
    assert result.failing_degree == 1


def test_betti_t3_passes():
    result = O.betti_necessary_condition(catalog.BETTI_PROFILES["t3"])
    assert result.passed and result.failing_degree is None


def test_betti_s2xs1_passes_necessary_only():
    result = O.betti_necessary_condition(catalog.BETTI_PROFILES["s2xs1"])
    assert result.passed
    assert "necessary" in result.statement


def test_betti_profile_validation():
    with pytest.raises(ValueError):
        O.BettiProfile("bad", ())
    with pytest.raises(ValueError):
        O.BettiProfile("bad", (0, 1))
    with pytest.raises(ValueError):
        O.BettiProfile("bad", (1, -1, 1, 1))


def test_betti_even_dimensional_profile_rejected():
    # odd-length vector describes an even-dimensional manifold: out of scope
    profile = O.BettiProfile("s2", (1, 0, 1))
    with pytest.raises(ValueError, match="odd-dimensional"):
        O.betti_necessary_condition(profile)


def test_catalog_profiles_satisfy_poincare_duality():
    for profile in catalog.BETTI_PROFILES.values():
        assert profile.betti == profile.betti[::-1]


def test_catalog_cosymplectic_manifolds_pass_betti():
    # consistency with the existence construction: every seed chart passes
    for name in ("t3", "t5", "s2xs1"):
        assert O.betti_necessary_condition(catalog.BETTI_PROFILES[name]).passed


# -- ambient flags ----------------------------------------------------------------------


def test_simply_connected_verdicts():
    for name, expected in (("s2xs2_split", "negative"), ("t4", "inconclusive"),
                           ("r4", "inconclusive")):
        compact, simply = catalog.AMBIENT_TOPOLOGY[name]
        assert O.simply_connected_verdict(compact, simply, name=name).verdict == expected


# -- cross-module consistency -------------------------------------------------------------


def test_verdicts_consistent_with_section_module(t4_system, osc_system):
    # systems with verified-global sections carry no global primitive, and
    # systems with a verified primitive only admit sections with boundary:
    # the natural angle section fails globality once the boundary orbit
    # (zero amplitude of the second pair) enters the sample set
    assert t4_system.lam is None
    assert not O.exactness_verdict(t4_system).negative

    assert O.exactness_verdict(osc_system).negative
    sec = S.angle_section()
    rng = np.random.default_rng(0)
    samples = catalog.sample_oscillator_surface(osc_system, 1.0, rng, 4)
    boundary_orbit = np.array([math.sqrt(2.0), 0.0, 0.0, 0.0])  # all energy in pair one
    samples = np.vstack([samples, boundary_orbit])
    report = S.verify_global(osc_system, sec, samples, t_max=20.0)
    assert not report.passed
    assert any(f[0] == len(samples) - 1 for f in report.failures)
