import math

import numpy as np
import pytest

from cosymlab import catalog, forms as F

SQRT2 = math.sqrt(2.0)


# reference evaluations: the stacked expressions the catalog functions replace
def _osc_grad_h(x):
    return np.stack([x[..., 0], x[..., 1], SQRT2 * x[..., 2], SQRT2 * x[..., 3]], axis=-1)


def _osc_lam(x):
    z = np.zeros_like(x[..., 0])
    return np.stack([z, x[..., 0], z, x[..., 2]], axis=-1)


def _r4_grad_h(x):
    z = np.zeros_like(x[..., 0])
    return np.stack([z, z, x[..., 2], x[..., 3]], axis=-1)


def _r4_lam(x):
    z = np.zeros_like(x[..., 0])
    return np.stack([x[..., 2], x[..., 3], z, z], axis=-1)


def _ho_grad_h(x):
    return np.stack([x[..., 0], x[..., 1]], axis=-1)


def _ho_lam(x):
    return np.stack([np.zeros_like(x[..., 0]), x[..., 0]], axis=-1)


def _torus_jacobian(p, r1=1.0, r2=0.7):
    u, v = p[..., 0], p[..., 1]
    z = np.zeros_like(u)
    du = np.stack([-r1 * np.sin(u), r1 * np.cos(u), z, z], axis=-1)
    dv = np.stack([z, z, -r2 * np.sin(v), r2 * np.cos(v)], axis=-1)
    return np.stack([du, dv], axis=-1)


def _sphere_jacobian(p, radius=1.0, axes=(0, 1, 2)):
    a0, a1, a2 = axes
    u, v = p[..., 0], p[..., 1]
    du = np.zeros(p.shape[:-1] + (4,))
    dv = np.zeros(p.shape[:-1] + (4,))
    du[..., a0] = radius * np.cos(u) * np.cos(v)
    du[..., a1] = radius * np.cos(u) * np.sin(v)
    du[..., a2] = -radius * np.sin(u)
    dv[..., a0] = -radius * np.sin(u) * np.sin(v)
    dv[..., a1] = radius * np.sin(u) * np.cos(v)
    return np.stack([du, dv], axis=-1)


def _at_points(patch):
    """A surface patch of (u, v) as a function of points p of shape (..., 2)."""
    return lambda p: patch(p[..., 0], p[..., 1])


CASES = [
    ("oscillator grad_h", lambda: catalog.oscillator_2dof().grad_h, _osc_grad_h, 4),
    ("oscillator lambda", lambda: catalog.oscillator_2dof().lam.coeffs, _osc_lam, 4),
    ("canonical_r4 grad_h", lambda: catalog.canonical_r4().grad_h, _r4_grad_h, 4),
    ("canonical_r4 lambda", lambda: catalog.canonical_r4().lam.coeffs, _r4_lam, 4),
    ("harmonic grad_h", lambda: catalog.harmonic_oscillator().grad_h, _ho_grad_h, 2),
    ("harmonic lambda", lambda: catalog.harmonic_oscillator().lam.coeffs, _ho_lam, 2),
    ("torus_r4 jacobian", lambda: _at_points(catalog.embedded_torus_r4().jacobian),
     _torus_jacobian, 2),
    ("sphere_r4 jacobian", lambda: _at_points(catalog.embedded_sphere_r4().jacobian),
     _sphere_jacobian, 2),
    ("sphere_r4 jacobian, other axes",
     lambda: _at_points(catalog.embedded_sphere_r4(2.5, axes=(3, 0, 1)).jacobian),
     lambda p: _sphere_jacobian(p, 2.5, (3, 0, 1)), 2),
]


@pytest.mark.parametrize("name, build, reference, dim", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("shape", [(50,), (), (0,), (3, 5)], ids=["batch", "point", "empty", "grid"])
def test_catalog_evaluations_match_stacked_reference(name, build, reference, dim, shape):
    x = np.random.default_rng(4).normal(scale=3.0, size=shape + (dim,))
    got, want = build()(x), reference(x)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# the energies of the quadratic entries (`catalog.quadratic_system`) in closed form
QUADRATIC_ENERGY = {
    "harmonic_oscillator": lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2),
    "oscillator_2dof_sqrt2": lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)
    + 0.5 * SQRT2 * (x[..., 2] ** 2 + x[..., 3] ** 2),
    "canonical_r4": lambda x: 0.5 * (x[..., 2] ** 2 + x[..., 3] ** 2),
}


@pytest.mark.parametrize("name", sorted(QUADRATIC_ENERGY))
@pytest.mark.parametrize("shape", [(50,), (), (0,), (3, 5)], ids=["batch", "point", "empty", "grid"])
def test_quadratic_energy_is_its_closed_form(name, shape):
    # the builder sums w_i x_i^2 in one pass, so it may round unlike the closed
    # form, within 1e-15 relative (4.4e-16 seen on the oscillator)
    system = catalog.get_system(name)
    x = np.random.default_rng(4).normal(scale=3.0, size=shape + (system.dim,))
    got, want = system.energy(x), QUADRATIC_ENERGY[name](x)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("name", sorted(n for n, e in catalog.SYSTEMS.items() if e.level))
def test_declared_level_samples_lie_on_the_level(name):
    # a level's samples are chart samples with the slice coordinate pinned, and
    # its check accepts them and refuses the slice moved off the level
    system = catalog.get_system(name)
    Z = catalog.SYSTEMS[name].level(system)
    pts = Z.sample(F.Rng(3), 64)
    chart = system.manifold.sample(F.Rng(3), 64)
    chart[:, Z.slice_coord] = Z.slice_value
    assert np.array_equal(pts, chart)
    Z.check(pts)
    pts[:, Z.slice_coord] += 0.5
    with pytest.raises(ValueError, match="not the level set"):
        Z.check(pts)
