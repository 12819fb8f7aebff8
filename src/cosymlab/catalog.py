"""Catalog of charts, systems, cosymplectic seeds, Betti profiles and meshed
surfaces used by the verification pipelines and the CLI, and the defaults of
the CLI's rationalization and quadrature sizes.

Topology metadata (compactness and simple connectivity of ambient manifolds,
Betti numbers) is declared per entry; nothing topological is inferred
numerically.

Importing the catalog loads only `forms` and `phase`: an entry imports the
`cosym`, `section` or `obstruct` types it builds when it is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .forms import (ChartManifold, ChartMap, KForm, Rng, constant_form, coordinate_form,
                    wedge)
from .phase import EnergySurface, FlowSystem, HamiltonianSystem

if TYPE_CHECKING:
    from .cosym import CosymplecticStructure
    from .obstruct import MeshedSurface
    from .section import SectionSpec

TWO_PI = 2.0 * math.pi
DEFAULT_D_CAP = 10_000      # largest denominator `tischler.rationalize` tries
DEFAULT_QUAD_NODES = 256    # n of the n x n midpoint rule of `obstruct.surface_integral`
FREQ2 = math.sqrt(2.0)   # frequency of the second oscillator pair, incommensurate with the first
ROTATION = 1.0 / 3.0   # rotation number of the suspended circle rotation


def torus(n: int, period: float = TWO_PI, name: str = "") -> ChartManifold:
    return ChartManifold(n, (True,) * n, (period,) * n, name=name or f"T{n}")


def euclidean(n: int, name: str = "", cotangent: bool = False) -> ChartManifold:
    return ChartManifold(n, (False,) * n, name=name or f"R{n}", cotangent_model=cotangent)


# -- cosymplectic seeds ---------------------------------------------------------


def seed_t3() -> CosymplecticStructure:
    """T^3 with the angle form of the last coordinate and the area form of the
    first two: the smallest standard cosymplectic chart."""
    from .cosym import CosymplecticStructure
    t3 = torus(3)
    return CosymplecticStructure(t3, coordinate_form(3, 2),
                                 wedge(coordinate_form(3, 0), coordinate_form(3, 1)),
                                 name="t3")


def seed_t5() -> CosymplecticStructure:
    """T^5 with two area blocks and the angle form of the last coordinate."""
    from .cosym import CosymplecticStructure
    t5 = torus(5)
    beta = (wedge(coordinate_form(5, 0), coordinate_form(5, 1))
            + wedge(coordinate_form(5, 2), coordinate_form(5, 3)))
    return CosymplecticStructure(t5, coordinate_form(5, 4), beta, name="t5")


SEEDS: dict[str, Callable[[], CosymplecticStructure]] = {
    "t3": seed_t3,
    "t5": seed_t5,
}


# -- systems --------------------------------------------------------------------


def harmonic_oscillator() -> HamiltonianSystem:
    """One-degree oscillator; exact chart, so the exactness obstruction applies."""
    c2 = euclidean(2, "R2(q,p)")
    omega = wedge(coordinate_form(2, 0), coordinate_form(2, 1))

    def lam_coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 1] = x[..., 0]
        return out

    def h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)

    return HamiltonianSystem(c2, omega, h, lambda x: np.asarray(x, dtype=float).copy(),
                             lam=KForm(1, 2, lam_coeffs), name="harmonic_oscillator")


def oscillator_2dof() -> HamiltonianSystem:
    """Two uncoupled oscillators with frequency ratio FREQ2; coordinates
    (q1, p1, q2, p2)."""
    c4 = euclidean(4, "R4(q1,p1,q2,p2)")
    omega = (wedge(coordinate_form(4, 0), coordinate_form(4, 1))
             + wedge(coordinate_form(4, 2), coordinate_form(4, 3)))

    def lam_coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 1::2] = x[..., 0::2]
        return out

    def h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2) \
            + 0.5 * FREQ2 * (x[..., 2] ** 2 + x[..., 3] ** 2)

    weights = np.array([1.0, 1.0, FREQ2, FREQ2])

    def grad_h(x):
        return np.asarray(x, dtype=float) * weights

    return HamiltonianSystem(c4, omega, h, grad_h, lam=KForm(1, 4, lam_coeffs),
                             name=f"oscillator_2dof({FREQ2:g})")


def canonical_r4() -> HamiltonianSystem:
    """Cotangent-model chart (q1, q2, p1, p2) with the canonical exact form and
    its tautological primitive."""
    c4 = euclidean(4, "T*R2", cotangent=True)
    # omega = dp1 ^ dq1 + dp2 ^ dq2; basis order {01, 02, 03, 12, 13, 23}
    omega = constant_form(4, 2, [0.0, -1.0, 0.0, 0.0, -1.0, 0.0])

    def lam_coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., :2] = x[..., 2:]
        return out

    def h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 2] ** 2 + x[..., 3] ** 2)

    def grad_h(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 2:] = x[..., 2:]
        return out

    return HamiltonianSystem(c4, omega, h, grad_h, lam=KForm(1, 4, lam_coeffs),
                             name="canonical_r4")


def product_system(seed: str = "t3") -> HamiltonianSystem:
    from .cosym import build_product_system
    if seed not in SEEDS:
        raise KeyError(f"unknown cosymplectic seed {seed!r}; available: {sorted(SEEDS)}")
    return build_product_system(SEEDS[seed]())


def suspension_rotation() -> FlowSystem:
    """Suspension of the circle rotation by ROTATION on unit-period T^2
    coordinates (x, t): unit speed in t, holonomy x -> x + ROTATION."""
    t2 = ChartManifold(2, (True, True), (1.0, 1.0), name="T2(x,t)")
    vel = np.array([ROTATION, 1.0])
    return FlowSystem(t2, lambda x: np.broadcast_to(vel, np.shape(x)).copy(),
                      name=f"suspension_rotation({ROTATION:g})")


# -- sections, samplers and the system registry ---------------------------------


def product_leaf_section(system: HamiltonianSystem) -> SectionSpec:
    """Leaf {z = 0} of the foliation on the zero level of a product system
    (z is the seed angle coordinate, second to last)."""
    from .section import coordinate_section
    return coordinate_section(system.manifold, system.dim - 2, 0.0, 1, "product_leaf")


def product_energy_surface(system: HamiltonianSystem) -> EnergySurface:
    """Zero level of a product system as the angle-zero coordinate slice."""
    return EnergySurface(system, 0.0, slice_coord=system.dim - 1, slice_value=0.0)


def sample_zero_slice(system, rng: Rng, n: int, coords: list[int]) -> np.ndarray:
    """Chart samples with the given coordinates set to zero."""
    pts = system.manifold.sample(rng, n)
    pts[:, coords] = 0.0
    return pts


def sample_product_leaf(system: HamiltonianSystem, rng: Rng, n: int) -> np.ndarray:
    """Points of the {z = 0, angle = 0} leaf of a product system."""
    return sample_zero_slice(system, rng, n, [-2, -1])


def sample_product_surface(system: HamiltonianSystem, rng: Rng, n: int) -> np.ndarray:
    """Points of the zero level {angle = 0} of a product system."""
    return sample_zero_slice(system, rng, n, [-1])


def oscillator_angle_section(index_pair: tuple[int, int] = (2, 3)) -> SectionSpec:
    """Phase-angle section of one oscillator pair, counted where the angle
    increases along the flow; singular at zero amplitude of that pair."""
    from .section import SectionSpec
    i, j = index_pair

    def theta(x):
        x = np.asarray(x, dtype=float)
        return np.arctan2(-x[..., j], x[..., i]) % TWO_PI

    def dtheta(x, X):
        xi, xj = x[..., i], x[..., j]
        r2 = xi * xi + xj * xj
        if np.count_nonzero(r2) == r2.size:   # the quiet block costs more than the rate
            return xj / r2 * X[..., i] - xi / r2 * X[..., j]
        # NaN on the zero-amplitude orbit is deliberate: the section is
        # singular there and the crossing scan reports it as a failure
        with np.errstate(invalid="ignore", divide="ignore"):
            return xj / r2 * X[..., i] - xi / r2 * X[..., j]

    return SectionSpec(theta, dtheta, 0.0, 1, f"angle({i},{j})")


def suspension_section(system: FlowSystem) -> SectionSpec:
    """The circle {t = 0} of the suspension, crossed once per unit time."""
    from .section import coordinate_section
    return coordinate_section(system.manifold, 1)


def sample_oscillator_surface(system: HamiltonianSystem, level: float, rng: Rng, n: int,
                              on_section: bool = False) -> np.ndarray:
    """Points of the oscillator level set, splitting the energy between the
    two pairs away from the degenerate axes; the level must be positive."""
    if not level > 0:
        raise ValueError(f"oscillator energy level must be positive, got {level!r}")
    f = rng.uniform(0.1, 0.9, size=n)
    e1 = f * level
    r1 = np.sqrt(2.0 * e1)
    r2 = np.sqrt(2.0 * (level - e1) / FREQ2)
    phi1 = rng.uniform(0.0, TWO_PI, size=n)
    phi2 = np.zeros(n) if on_section else rng.uniform(0.0, TWO_PI, size=n)
    return np.stack([r1 * np.cos(phi1), -r1 * np.sin(phi1),
                     r2 * np.cos(phi2), -r2 * np.sin(phi2)], axis=-1)


@dataclass(frozen=True)
class SystemEntry:
    """A catalog system: ``factory()`` builds it, ``section(system)`` is its
    default section, ``starts(system, rng, n, level)`` samples n start points
    on that section and ``surface(system, rng, n)`` its energy surface.  None
    means no default section, no start sampler, or `manifold.sample` for the
    surface.  An inline system gets the empty entry."""

    factory: Optional[Callable[[], object]] = None
    section: Optional[Callable[[object], SectionSpec]] = None
    starts: Optional[Callable[..., np.ndarray]] = None
    surface: Optional[Callable[..., np.ndarray]] = None


_PRODUCT = dict(section=product_leaf_section, surface=sample_product_surface,
                starts=lambda system, rng, n, level: sample_product_leaf(system, rng, n))

SYSTEMS: dict[str, SystemEntry] = {
    "harmonic_oscillator": SystemEntry(harmonic_oscillator),
    "oscillator_2dof_sqrt2": SystemEntry(
        oscillator_2dof, lambda system: oscillator_angle_section(),
        lambda system, rng, n, level: sample_oscillator_surface(system, level, rng, n,
                                                                on_section=True)),
    "canonical_r4": SystemEntry(canonical_r4),
    "t4_product": SystemEntry(lambda: product_system("t3"), **_PRODUCT),
    "t6_product": SystemEntry(lambda: product_system("t5"), **_PRODUCT),
    "suspension_rotation": SystemEntry(
        suspension_rotation, suspension_section,
        lambda system, rng, n, level: sample_zero_slice(system, rng, n, [1])),
}


def get_system(name: str):
    if name not in SYSTEMS:
        raise KeyError(f"unknown catalog system {name!r}; available: {sorted(SYSTEMS)}")
    return SYSTEMS[name].factory()


# -- Betti catalog and ambient topology flags -------------------------------------


@dataclass(frozen=True, eq=False)
class BettiProfile:
    """Catalog Betti numbers b_0 .. b_{dim} of a named manifold."""

    name: str
    betti: tuple[int, ...]

    def __post_init__(self):
        betti = tuple(self.betti)
        if not betti or any(type(b) is not int or b < 0 for b in betti):
            raise ValueError("malformed Betti profile: needs non-negative integers")
        if betti[0] < 1:
            raise ValueError("b_0 must be at least 1")
        object.__setattr__(self, "betti", betti)

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


def embedded_torus_r4(r1: float = 1.0, r2: float = 0.7,
                      center: Optional[np.ndarray] = None) -> MeshedSurface:
    """Product of circles in the (0,1) and (2,3) coordinate planes of a
    4-dimensional chart."""
    from .obstruct import MeshedSurface
    c = np.zeros(4) if center is None else np.asarray(center, dtype=float)

    def value(p):
        p = np.asarray(p, dtype=float)
        u, v = p[..., 0], p[..., 1]
        return np.stack([c[0] + r1 * np.cos(u), c[1] + r1 * np.sin(u),
                         c[2] + r2 * np.cos(v), c[3] + r2 * np.sin(v)], axis=-1)

    def jacobian(p):
        p = np.asarray(p, dtype=float)
        u, v = p[..., 0], p[..., 1]
        out = np.zeros(p.shape[:-1] + (4, 2))
        out[..., 0, 0] = -r1 * np.sin(u)
        out[..., 1, 0] = r1 * np.cos(u)
        out[..., 2, 1] = -r2 * np.sin(v)
        out[..., 3, 1] = r2 * np.cos(v)
        return out

    return MeshedSurface(ChartMap(2, 4, value, jacobian), (TWO_PI, TWO_PI),
                         name="torus_r4")


def embedded_sphere_r4(radius: float = 1.0, center: Optional[np.ndarray] = None,
                       axes: tuple[int, int, int] = (0, 1, 2)) -> MeshedSurface:
    """Round 2-sphere inside a 3-coordinate slice of a 4-dimensional chart,
    parametrized by colatitude and longitude (poles degenerate, surface closed)."""
    from .obstruct import MeshedSurface
    c = np.zeros(4) if center is None else np.asarray(center, dtype=float)
    a0, a1, a2 = axes

    def value(p):
        p = np.asarray(p, dtype=float)
        su, v = np.sin(p[..., 0]), p[..., 1]
        out = np.broadcast_to(c, p.shape[:-1] + (4,)).copy()
        out[..., a0] += radius * su * np.cos(v)
        out[..., a1] += radius * su * np.sin(v)
        out[..., a2] += radius * np.cos(p[..., 0])
        return out

    def jacobian(p):
        p = np.asarray(p, dtype=float)
        su, cu = np.sin(p[..., 0]), np.cos(p[..., 0])
        sv, cv = np.sin(p[..., 1]), np.cos(p[..., 1])
        out = np.zeros(p.shape[:-1] + (4, 2))
        out[..., a0, 0] = radius * cu * cv
        out[..., a1, 0] = radius * cu * sv
        out[..., a2, 0] = -radius * su
        out[..., a0, 1] = -radius * su * sv
        out[..., a1, 1] = radius * su * cv
        return out

    return MeshedSurface(ChartMap(2, 4, value, jacobian), (math.pi, TWO_PI),
                         name="sphere_r4")


def coordinate_torus_t4(z0: float = 0.0, theta0: float = 0.0) -> MeshedSurface:
    """Coordinate 2-torus {z = z0, theta = theta0} in the standard T^4 chart."""
    from .obstruct import MeshedSurface
    incl = ChartMap.coordinate_inclusion(4, [0, 1], {2: z0, 3: theta0})
    return MeshedSurface(incl, (TWO_PI, TWO_PI), name="coordinate_torus_t4")
