"""Catalog of charts, systems, cosymplectic seeds, Betti profiles and meshed
surfaces used by the verification pipelines and the CLI, and the defaults of
the CLI's rationalization and quadrature sizes.

Topology metadata (compactness and simple connectivity of ambient manifolds,
Betti numbers) is declared per entry; nothing topological is inferred
numerically.

Importing the catalog loads only `forms` and `phase`: a builder imports the
`cosym` or `obstruct` types it builds when it is called.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .forms import (ChartManifold, KForm, Rng, basis_rank, constant_form,
                    coordinate_form, wedge)
from .phase import EnergySurface, FlowSystem, HamiltonianSystem

if TYPE_CHECKING:
    from .cosym import CosymplecticStructure
    from .obstruct import MeshedSurface

TWO_PI = 2.0 * math.pi
DEFAULT_D_CAP = 10_000      # largest denominator `tischler.rationalize` tries
DEFAULT_QUAD_NODES = 256    # n of the n x n midpoint rule of `obstruct.surface_integral`
FREQ2 = math.sqrt(2.0)   # frequency of the second oscillator pair, incommensurate with the first
ROTATION = 1.0 / 3.0   # rotation number of the suspended circle rotation


def torus(n: int) -> ChartManifold:
    return ChartManifold(n, (True,) * n)


def euclidean(n: int, cotangent: bool = False) -> ChartManifold:
    return ChartManifold(n, (False,) * n, cotangent_model=cotangent)


# -- cosymplectic seeds ---------------------------------------------------------


def seed_t3() -> CosymplecticStructure:
    """T^3 with the angle form of the last coordinate and the area form of the
    first two: the smallest standard cosymplectic chart."""
    from .cosym import CosymplecticStructure
    t3 = torus(3)
    return CosymplecticStructure(t3, coordinate_form(3, 2),
                                 wedge(coordinate_form(3, 0), coordinate_form(3, 1)))


def seed_t5() -> CosymplecticStructure:
    """T^5 with two area blocks and the angle form of the last coordinate."""
    from .cosym import CosymplecticStructure
    t5 = torus(5)
    beta = (wedge(coordinate_form(5, 0), coordinate_form(5, 1))
            + wedge(coordinate_form(5, 2), coordinate_form(5, 3)))
    return CosymplecticStructure(t5, coordinate_form(5, 4), beta)


SEEDS: dict[str, Callable[[], CosymplecticStructure]] = {
    "t3": seed_t3,
    "t5": seed_t5,
}


# -- systems --------------------------------------------------------------------


def quadratic_system(chart: ChartManifold, weights: Sequence[float],
                     primitive: Sequence[tuple[int, int]]) -> HamiltonianSystem:
    """H = 1/2 sum_i w_i x_i^2 on the chart, with the linear primitive
    lambda = sum x_j dx_i over the (i, j) pairs of ``primitive`` and
    omega = d lambda = sum dx_j ^ dx_i, a constant form.

    The gradient is x * w, one multiply; where a weight is zero its entry is
    left at +0.0, since x * 0 would give -0.0 for x < 0.
    """
    dim = chart.dim
    w = np.asarray(weights, dtype=float)
    rank = basis_rank(dim, 2)
    omega = np.zeros(len(rank))
    for i, j in primitive:
        omega[rank[(min(i, j), max(i, j))]] = 1.0 if j < i else -1.0
    lam_cols, lam_rows = [i for i, _ in primitive], [j for _, j in primitive]

    def lam_coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., lam_cols] = x[..., lam_rows]
        return out

    def h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x * w, axis=-1)

    if w.all():
        def grad_h(x):
            return np.asarray(x, dtype=float) * w
    else:
        moving = np.flatnonzero(w)

        def grad_h(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            out[..., moving] = x[..., moving] * w[moving]
            return out

    return HamiltonianSystem(chart, constant_form(dim, 2, omega), h, grad_h,
                             lam=KForm(1, dim, lam_coeffs))


def harmonic_oscillator() -> HamiltonianSystem:
    """One-degree oscillator on (q, p); exact chart, so the exactness
    obstruction applies."""
    return quadratic_system(euclidean(2), (1.0, 1.0), [(1, 0)])


def oscillator_2dof() -> HamiltonianSystem:
    """Two uncoupled oscillators with frequency ratio FREQ2; coordinates
    (q1, p1, q2, p2)."""
    return quadratic_system(euclidean(4), (1.0, 1.0, FREQ2, FREQ2), [(1, 0), (3, 2)])


def canonical_r4() -> HamiltonianSystem:
    """Cotangent-model chart (q1, q2, p1, p2) with the canonical exact form
    dp1 ^ dq1 + dp2 ^ dq2, its tautological primitive p1 dq1 + p2 dq2 and the
    free-particle energy."""
    return quadratic_system(euclidean(4, cotangent=True), (0.0, 0.0, 1.0, 1.0),
                            [(0, 2), (1, 3)])


def product_system(seed: str = "t3") -> HamiltonianSystem:
    from .cosym import build_product_system
    if seed not in SEEDS:
        raise KeyError(f"unknown cosymplectic seed {seed!r}; available: {sorted(SEEDS)}")
    return build_product_system(SEEDS[seed]())


def suspension_rotation() -> FlowSystem:
    """Suspension of the circle rotation by ROTATION on unit-period T^2
    coordinates (x, t): unit speed in t, holonomy x -> x + ROTATION."""
    t2 = ChartManifold(2, (True, True), (1.0, 1.0))
    vel = np.array([ROTATION, 1.0])
    return FlowSystem(t2, lambda x: np.broadcast_to(vel, np.shape(x)).copy())


# -- samplers and the system registry --------------------------------------------


def sample_zero_slice(system, rng: Rng, n: int, coords: list[int]) -> np.ndarray:
    """Chart samples with the given coordinates set to zero."""
    pts = system.manifold.sample(rng, n)
    pts[:, coords] = 0.0
    return pts


def sample_oscillator_surface(system: HamiltonianSystem, level: float, rng: Rng,
                              n: int) -> np.ndarray:
    """Points of the oscillator level set on its default section, the phase
    angle 0 of the pair (2, 3), splitting the energy between the two pairs
    away from the degenerate axes; the level must be positive."""
    if not level > 0:
        raise ValueError(f"oscillator energy level must be positive, got {level!r}")
    f = rng.uniform(0.1, 0.9, size=n)
    e1 = f * level
    r1 = np.sqrt(2.0 * e1)
    r2 = np.sqrt(2.0 * (level - e1) / FREQ2)
    phi1 = rng.uniform(0.0, TWO_PI, size=n)
    return np.stack([r1 * np.cos(phi1), -r1 * np.sin(phi1), r2, np.zeros(n)], axis=-1)


class SystemEntry:
    """A catalog system: ``factory()`` builds it, ``section`` is its default
    section as a `return-map` 'section' config object, ``starts(system, rng,
    n, level)`` samples n start points on that section and ``level(system)``
    is its energy surface (`phase.EnergySurface`).  None means no default
    section, no start sampler, or no declared level (its samples are then
    `manifold.sample`).  An inline system gets the empty entry."""

    def __init__(self, factory: Optional[Callable[[], object]] = None,
                 section: Optional[dict] = None,
                 starts: Optional[Callable[..., np.ndarray]] = None,
                 level: Optional[Callable[[HamiltonianSystem], EnergySurface]] = None):
        self.factory, self.section, self.starts, self.level = factory, section, starts, level


#: the one declaration of a product system N x S^1 (`product_system`): the leaf
#: {z = 0} (coordinate dim - 2) on the zero level {angle = 0}, and its points
PRODUCT = SystemEntry(
    section={"kind": "coordinate"},
    starts=lambda system, rng, n, level: sample_zero_slice(system, rng, n, [-2, -1]),
    level=lambda system: EnergySurface(system, 0.0, system.dim - 1, 0.0))


def _product(seed: str) -> SystemEntry:
    """`PRODUCT` with the factory of the product over a cosymplectic seed."""
    return SystemEntry(lambda: product_system(seed), PRODUCT.section, PRODUCT.starts,
                       PRODUCT.level)


SYSTEMS: dict[str, SystemEntry] = {
    "harmonic_oscillator": SystemEntry(harmonic_oscillator, {"kind": "angle", "pair": [0, 1]}),
    "oscillator_2dof_sqrt2": SystemEntry(
        oscillator_2dof, {"kind": "angle", "pair": [2, 3]},
        lambda system, rng, n, level: sample_oscillator_surface(system, level, rng, n)),
    "canonical_r4": SystemEntry(canonical_r4),
    "t4_product": _product("t3"),
    "t6_product": _product("t5"),
    # the circle {t = 0}, crossed once per unit time
    "suspension_rotation": SystemEntry(
        suspension_rotation, {"kind": "coordinate", "index": 1},
        lambda system, rng, n, level: sample_zero_slice(system, rng, n, [1])),
}


def get_system(name: str):
    if name not in SYSTEMS:
        raise KeyError(f"unknown catalog system {name!r}; available: {sorted(SYSTEMS)}")
    return SYSTEMS[name].factory()


# -- Betti catalog and ambient topology flags -------------------------------------


class BettiProfile:
    """Catalog Betti numbers b_0 .. b_{dim} of a named manifold."""

    def __init__(self, name: str, betti: tuple[int, ...]):
        betti = tuple(betti)
        if not betti or any(type(b) is not int or b < 0 for b in betti):
            raise ValueError("malformed Betti profile: needs non-negative integers")
        if betti[0] < 1:
            raise ValueError("b_0 must be at least 1")
        self.name, self.betti = name, betti

    @property
    def dim(self) -> int:
        return len(self.betti) - 1


BETTI_PROFILES: dict[str, BettiProfile] = {
    "s3": BettiProfile("s3", (1, 0, 0, 1)),
    "t3": BettiProfile("t3", (1, 3, 3, 1)),
    "s2xs1": BettiProfile("s2xs1", (1, 1, 1, 1)),
    "t5": BettiProfile("t5", (1, 5, 10, 10, 5, 1)),
    "s5": BettiProfile("s5", (1, 0, 0, 0, 0, 1)),
}


#: declared (compact, simply_connected) flags of ambient manifolds
AMBIENT_TOPOLOGY: dict[str, tuple[bool, bool]] = {
    "s2xs2_split": (True, True),
    "cp2": (True, True),
    "t4": (True, False),
    "r4": (False, True),
}


# -- meshed surfaces --------------------------------------------------------------
# A surface's value(u, v) and jacobian(u, v) take parameter arrays that broadcast
# (`obstruct.MeshedSurface`); each term in one parameter is computed on that
# parameter's array and broadcast, so a quadrature block pays it once per value.


def _grid_shape(u, v) -> tuple[int, ...]:
    return np.broadcast_shapes(np.shape(u), np.shape(v))


def _patch_jacobian(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Zero Jacobians of shape S + (4, 2) over the grid of (u, v), and the
    same memory as a (4, 2) + S array, so that each entry is filled, and
    read by `forms.frame_minors`, as one contiguous array."""
    entries = np.zeros((4, 2) + _grid_shape(u, v))
    return np.moveaxis(entries, (0, 1), (-2, -1)), entries


def _sin_cos_of_v():
    """A function giving (sin v, cos v), computed again only when v differs
    from the last call's: the quadrature passes every block of u-rows the same
    row of v, so a surface takes its v terms once per integral."""
    last = [np.empty(0)] * 3

    def sin_cos(v):
        if not np.array_equal(v, last[0]):
            last[:] = np.array(v), np.sin(v), np.cos(v)
        return last[1], last[2]

    return sin_cos


def embedded_torus_r4() -> MeshedSurface:
    """Product of the circles of radius 1 and 0.7 about the origin in the
    (0,1) and (2,3) coordinate planes of a 4-dimensional chart."""
    from .obstruct import MeshedSurface
    sin_cos = _sin_cos_of_v()

    def value(u, v):
        sv, cv = sin_cos(v)
        out = np.empty(_grid_shape(u, v) + (4,))
        out[..., 0] = np.cos(u)
        out[..., 1] = np.sin(u)
        out[..., 2] = 0.7 * cv
        out[..., 3] = 0.7 * sv
        return out

    def jacobian(u, v):
        sv, cv = sin_cos(v)
        out, entries = _patch_jacobian(u, v)
        entries[0, 0] = -np.sin(u)
        entries[1, 0] = np.cos(u)
        entries[2, 1] = -0.7 * sv
        entries[3, 1] = 0.7 * cv
        return out

    return MeshedSurface(value, jacobian, (TWO_PI, TWO_PI))


def embedded_sphere_r4(radius: float = 1.0, center: Optional[np.ndarray] = None,
                       axes: tuple[int, int, int] = (0, 1, 2)) -> MeshedSurface:
    """Round 2-sphere inside a 3-coordinate slice of a 4-dimensional chart,
    parametrized by colatitude u and longitude v (poles degenerate, surface
    closed)."""
    from .obstruct import MeshedSurface
    c = np.zeros(4) if center is None else np.asarray(center, dtype=float)
    a0, a1, a2 = axes
    sin_cos = _sin_cos_of_v()

    def value(u, v):
        r_su = radius * np.sin(u)
        sv, cv = sin_cos(v)
        out = np.broadcast_to(c, _grid_shape(u, v) + (4,)).copy()
        out[..., a0] += r_su * cv
        out[..., a1] += r_su * sv
        out[..., a2] += radius * np.cos(u)
        return out

    def jacobian(u, v):
        r_su, r_cu = radius * np.sin(u), radius * np.cos(u)
        sv, cv = sin_cos(v)
        out, entries = _patch_jacobian(u, v)
        entries[a0, 0] = r_cu * cv
        entries[a1, 0] = r_cu * sv
        entries[a2, 0] = -r_su
        entries[a0, 1] = -r_su * sv
        entries[a1, 1] = r_su * cv
        return out

    return MeshedSurface(value, jacobian, (math.pi, TWO_PI))


def coordinate_torus_t4() -> MeshedSurface:
    """Coordinate 2-torus {z = 0, theta = 0} in the standard T^4 chart,
    parametrized by its first two coordinates."""
    from .obstruct import MeshedSurface
    jac = np.zeros((4, 2))
    jac[0, 0] = jac[1, 1] = 1.0

    def value(u, v):
        out = np.empty(_grid_shape(u, v) + (4,))
        out[..., 0], out[..., 1], out[..., 2], out[..., 3] = u, v, 0.0, 0.0
        return out

    def jacobian(u, v):
        return np.broadcast_to(jac, _grid_shape(u, v) + jac.shape)

    return MeshedSurface(value, jacobian, (TWO_PI, TWO_PI))
