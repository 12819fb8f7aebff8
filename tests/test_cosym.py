import math

import numpy as np
import pytest

from cosymlab import catalog, cosym as C, forms as F, phase as P, section as S

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def t3_seed():
    return catalog.seed_t3()


@pytest.fixture(scope="module")
def samples3():
    return catalog.torus(3).sample(np.random.default_rng(0), 64)


def neg_dtheta(x):
    return np.broadcast_to(np.array([0.0, 0.0, 0.0, -1.0]), np.shape(x))


# -- verification ---------------------------------------------------------------


def test_verify_standard_t3(t3_seed, samples3):
    rep = C.verify_cosymplectic(t3_seed, samples3)
    assert rep.passed
    assert rep.volume_margin == pytest.approx(1.0)
    assert rep.d_alpha_max == 0.0 and rep.d_beta_max == 0.0


def test_verify_rank_deficient_t5_fails():
    t5 = catalog.torus(5)
    cs = C.CosymplecticStructure(t5, F.coordinate_form(5, 4),
                                 F.wedge(F.coordinate_form(5, 0), F.coordinate_form(5, 1)))
    rep = C.verify_cosymplectic(cs, t5.sample(np.random.default_rng(1), 16))
    assert not rep.passed
    assert rep.volume_margin == pytest.approx(0.0, abs=1e-15)


def test_verify_tilted_alpha_still_passes(samples3):
    # alpha = dz + 0.1 dx stays closed, and the dx part dies against dx ^ dy
    t3 = catalog.torus(3)
    cs = C.CosymplecticStructure(t3, F.coordinate_form(3, 2) + 0.1 * F.coordinate_form(3, 0),
                                 F.wedge(F.coordinate_form(3, 0), F.coordinate_form(3, 1)))
    rep = C.verify_cosymplectic(cs, samples3)
    assert rep.passed
    assert rep.volume_margin == pytest.approx(1.0)


def test_even_dimension_rejected():
    with pytest.raises(ValueError):
        C.CosymplecticStructure(catalog.torus(4), F.coordinate_form(4, 0),
                                F.wedge(F.coordinate_form(4, 0), F.coordinate_form(4, 1)))


def test_verify_needs_samples(t3_seed):
    with pytest.raises(ValueError):
        C.verify_cosymplectic(t3_seed, np.zeros((0, 3)))


# -- induced pair from a transverse field -----------------------------------------


def test_field_to_cosym_standard(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    cs = C.field_to_cosym(Z, neg_dtheta, samples3)
    assert np.allclose(F.covector_values(cs.alpha, samples3), [0, 0, 1])
    assert np.allclose(cs.beta.coeffs(samples3)[..., 0], 1.0)
    assert np.allclose(cs.beta.coeffs(samples3)[..., 1:], 0.0)


def test_field_to_cosym_scales_linearly(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    doubled = lambda x: 2.0 * neg_dtheta(x)
    cs = C.field_to_cosym(Z, doubled, samples3)
    assert np.allclose(F.covector_values(cs.alpha, samples3), [0, 0, 2])
    assert C.verify_cosymplectic(cs, samples3).passed


def test_field_to_cosym_rejects_tangent_field(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    with pytest.raises(C.TransversalityError):
        C.field_to_cosym(Z, t4_system.field, samples3)


def test_transversality_checks_read_the_tangency_margin(t4_system, samples3):
    # |dH(X)| = c on the zero level: the pair is built at TANGENCY_MARGIN and
    # refused under it, and a field report passes on the same terms
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    m = S.TANGENCY_MARGIN
    C.field_to_cosym(Z, lambda x: m * neg_dtheta(x), samples3)
    with pytest.raises(C.TransversalityError):
        C.field_to_cosym(Z, lambda x: 0.5 * m * neg_dtheta(x), samples3)
    values = np.zeros((1, 4))
    assert C.TransverseFieldReport(values, 0.0, m, neg_dtheta).passed
    assert not C.TransverseFieldReport(values, 0.0, 0.5 * m, neg_dtheta).passed


def test_field_to_cosym_rejects_non_symplectic_field(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)

    def warped(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 3] = -(1.0 + 0.5 * np.sin(x[..., 0]))
        return out

    with pytest.raises(ValueError, match="not symplectic"):
        C.field_to_cosym(Z, warped, samples3)


def test_field_to_cosym_refuses_a_nan_residual(t4_system, samples3):
    # transverse at the samples, NaN at the difference stencils around them
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    ambient = Z.inclusion().value(samples3)

    def nan_off_samples(x):
        x = np.asarray(x, dtype=float)
        on = (x[..., None, :] == ambient).all(axis=-1).any(axis=-1)
        return np.where(on[..., None], neg_dtheta(x), np.nan)

    with pytest.raises(ValueError, match="not symplectic: .* = nan"):
        C.field_to_cosym(Z, nan_off_samples, samples3)


# -- field from a pair --------------------------------------------------------------


def test_cosym_to_field_recovers_transverse_field(t4_system, t3_seed, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    rep = C.cosym_to_field(Z, t3_seed, samples3)
    assert rep.passed
    assert np.max(np.abs(rep.field_values - np.array([0, 0, 0, -1.0]))) < 1e-10
    assert rep.min_transversality == pytest.approx(1.0)
    assert rep.symplectic_residual < 1e-6


def test_round_trip_both_ways(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    cs = C.field_to_cosym(Z, neg_dtheta, samples3)
    rep = C.cosym_to_field(Z, cs, samples3)
    ambient = Z.inclusion().value(samples3)
    assert np.max(np.abs(rep.field_values - neg_dtheta(ambient))) < 1e-8
    cs2 = C.field_to_cosym(Z, rep.field, samples3)
    assert np.max(np.abs(F.covector_values(cs2.alpha, samples3)
                         - F.covector_values(cs.alpha, samples3))) < 1e-8
    assert np.max(np.abs(cs2.beta.coeffs(samples3) - cs.beta.coeffs(samples3))) < 1e-8


def test_cosym_to_field_rejects_zero_form(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    cs = C.CosymplecticStructure(catalog.torus(3), F.constant_form(3, 1, np.zeros(3)),
                                 F.wedge(F.coordinate_form(3, 0), F.coordinate_form(3, 1)))
    with pytest.raises(ValueError, match="vanishes"):
        C.cosym_to_field(Z, cs, samples3)


def test_cosym_to_field_rejects_a_nan_form(t4_system, samples3):
    Z = catalog.SYSTEMS["t4_product"].level(t4_system)
    cs = C.CosymplecticStructure(catalog.torus(3), F.constant_form(3, 1, np.full(3, np.nan)),
                                 F.wedge(F.coordinate_form(3, 0), F.coordinate_form(3, 1)))
    with pytest.raises(ValueError, match="degenerate one-form"):
        C.cosym_to_field(Z, cs, samples3)


def test_cosym_to_field_raises_where_omega_is_singular():
    # omega = x0 dx0^dx1 + dx2^dx3 is singular on {x0 = 0}: the recovered field's
    # pairing solve raises SingularOmegaError there, as the Hamiltonian field does
    def omega_coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (6,))
        out[..., 0], out[..., 5] = x[..., 0], 1.0   # basis dx0^dx1, ..., dx2^dx3
        return out

    def grad_h(x):
        return np.broadcast_to([0.0, 0.0, 0.0, 1.0], np.shape(x))

    system = P.HamiltonianSystem(F.ChartManifold(4), F.KForm(2, 4, omega_coeffs),
                                 lambda x: np.asarray(x)[..., 3], grad_h)
    Z = P.EnergySurface(system, 0.0, slice_coord=3, slice_value=0.0)
    cs = C.CosymplecticStructure(Z.section_chart, F.coordinate_form(3, 2),
                                 F.wedge(F.coordinate_form(3, 0), F.coordinate_form(3, 1)))
    samples = np.array([[0.0, 0.5, 0.3]])
    with pytest.raises(P.SingularOmegaError):
        system.field(Z.inclusion().value(samples))
    with pytest.raises(P.SingularOmegaError):
        C.cosym_to_field(Z, cs, samples)


def test_slice_off_its_level_is_refused(t3_seed, samples3):
    # H = sin(angle) is 0 on the angle-zero slice, not 0.5: neither direction
    # of the correspondence may build or check a pair on it
    Z = P.EnergySurface(catalog.product_system("t3"), 0.5, 3, 0.0)
    message = r"not the level set H = 0\.5: max \|H - level\| = 5\.000e-01"
    with pytest.raises(ValueError, match=message):
        C.field_to_cosym(Z, neg_dtheta, samples3)
    with pytest.raises(ValueError, match="not the level set"):
        C.cosym_to_field(Z, t3_seed, samples3)
    # within the bound, relative to max(1, |level|), the slice is accepted
    near = P.EnergySurface(Z.system, 5e-9, 3, 0.0)
    assert C.verify_cosymplectic(C.field_to_cosym(near, neg_dtheta, samples3),
                                 samples3).passed
    assert C.cosym_to_field(near, t3_seed, samples3).passed


# -- product construction -------------------------------------------------------------


def test_product_system_matches_construction(t3_seed, t4_system, rng):
    # the lifted form must be the seed area form plus (seed angle form) ^ dtheta,
    # the energy the sine of the circle angle
    xs = t4_system.manifold.sample(np.random.default_rng(5), 32)
    # pair basis on dim 4: {01, 02, 03, 12, 13, 23}
    expected = np.zeros((32, 6))
    expected[:, 0] = 1.0   # dx ^ dy
    expected[:, 5] = 1.0   # dz ^ dtheta
    assert np.allclose(t4_system.omega.coeffs(xs), expected)
    assert np.allclose(t4_system.energy(xs), np.sin(xs[..., 3]))
    assert t4_system.manifold.periods[3] == pytest.approx(TWO_PI)


def test_product_field_components(t4_system):
    # the flow is cos(theta) times the seed angle direction; all other
    # components vanish to solver accuracy
    rng = np.random.default_rng(6)
    xs = t4_system.manifold.sample(rng, 16)
    X = t4_system.field(xs)
    expected = np.zeros_like(X)
    expected[:, 2] = np.cos(xs[:, 3])
    assert np.max(np.abs(X - expected)) < 1e-10


def test_product_rejects_degenerate_seed():
    # a circle cannot carry the pair at all: the two-form degree exceeds the
    # dimension, so the degenerate case is unrepresentable by construction
    s1 = catalog.torus(1)
    with pytest.raises(ValueError):
        C.CosymplecticStructure(s1, F.coordinate_form(1, 0), F.KForm(2, 1, lambda x: x))


def test_product_t5_passes_structure_checks(t6_system):
    rng = np.random.default_rng(7)
    report = t6_system.validate(t6_system.manifold.sample(rng, 32))
    assert report["omega_rcond_min"] > 0.5
    # zero level passes globality on its leaf
    sec = S.coordinate_section(t6_system.manifold, t6_system.dim - 2)
    samples = catalog.PRODUCT.starts(t6_system, rng, 50, 0.0)
    assert S.verify_global(t6_system, sec, samples, t_max=50.0).passed


def test_product_rejects_unverified_seed():
    t3 = catalog.torus(3)
    cs = C.CosymplecticStructure(t3, F.coordinate_form(3, 2), F.constant_form(3, 2, np.zeros(3)))
    with pytest.raises(ValueError, match="fails verification"):
        C.build_product_system(cs)


# -- collar ---------------------------------------------------------------------------


def test_collar_standard_form(t3_seed):
    form = C.collar_form(t3_seed)
    xs = np.zeros((1, 4))
    expected = np.zeros(6)
    expected[0] = 1.0   # dx ^ dy
    expected[5] = 1.0   # dz ^ dt
    assert np.allclose(form.coeffs(xs), expected)


def test_collar_pairs_normal_direction_with_alpha(t3_seed):
    # inserting the collar direction returns the angle form, up to the sign
    # of the wedge ordering (alpha ^ dt evaluated on (e_t, v) is -alpha(v))
    e_t = lambda x: np.broadcast_to(np.eye(4)[3], np.shape(x))
    paired = F.interior(e_t, C.collar_form(t3_seed))
    assert np.allclose(F.covector_values(paired, np.zeros(4)), [0, 0, -1, 0])


def test_collar_volume_and_restriction(t3_seed, samples3):
    form = C.collar_form(t3_seed)
    assert F.evaluate_frame(F.power(form, 2), np.zeros(4), np.eye(4)) == pytest.approx(2.0)
    # restriction to the zero slice agrees with beta on coordinate frames
    incl = F.ChartMap.coordinate_inclusion(4, [0, 1, 2], {3: 0.0})
    restricted = F.pullback(incl, form)
    assert np.allclose(restricted.coeffs(samples3), t3_seed.beta.coeffs(samples3))


def test_collar_closed_and_nondegenerate_inside(t3_seed):
    # sampled on the collar Z x (-eps, eps), eps a tenth of the seed's period
    form = C.collar_form(t3_seed)
    eps = 0.1 * TWO_PI
    rng = np.random.default_rng(13)
    collar_pts = np.concatenate(
        [t3_seed.manifold.sample(rng, 32), rng.uniform(-eps, eps, (32, 1))], axis=-1)
    d_form = F.exterior_derivative(form)
    assert np.max(np.abs(d_form.coeffs(collar_pts))) < 1e-6
    M = F.two_form_matrix(form, collar_pts)
    svals = np.linalg.svd(M, compute_uv=False)
    assert float(np.min(svals[..., -1] / svals[..., 0])) > 1e-10
