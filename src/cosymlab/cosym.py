"""Cosymplectic pairs on odd-dimensional charts and their correspondence with
transverse symplectic vector fields.

A cosymplectic structure is a closed one-form alpha and a closed two-form
beta on a (2n-1)-dimensional chart such that alpha ^ beta^(n-1) is a volume
form.  A hypersurface carries such a pair exactly when it admits a transverse
vector field X that is symplectic (d(iota_X omega) = 0); the two directions
of that correspondence are implemented as ``field_to_cosym`` and
``cosym_to_field``.

Circle coordinates use period 2*pi throughout, the product construction takes
its energy to be the sine of the suspension angle, and leaves are taken at
angle 0 where the transversality margin |cos| is maximal.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .forms import (CLOSED_TOL, ChartManifold, ChartMap, KForm, certification_samples,
                    closed_residual, coordinate_form, covector_values,
                    max_coeff_magnitude, power, pullback, wedge)
from .phase import TANGENCY_MARGIN, EnergySurface, HamiltonianSystem, solve_pairing

VOLUME_MARGIN = 1e-9
ALPHA_MIN = 1e-14   # a defining one-form sampled below it everywhere is degenerate


class TransversalityError(RuntimeError):
    """The candidate field is tangent to the level set at a sample."""


class CosymplecticStructure:
    """(alpha, beta) pair on an odd-dimensional chart."""

    def __init__(self, manifold: ChartManifold, alpha: KForm, beta: KForm):
        if manifold.dim % 2 == 0:
            raise ValueError("cosymplectic structures live on odd-dimensional charts")
        if alpha.degree != 1 or alpha.dim != manifold.dim:
            raise ValueError("alpha must be a one-form on the chart")
        if beta.degree != 2 or beta.dim != manifold.dim:
            raise ValueError("beta must be a two-form on the chart")
        self.manifold, self.alpha, self.beta = manifold, alpha, beta

    @property
    def n(self) -> int:
        return (self.manifold.dim + 1) // 2

    def volume_form(self) -> KForm:
        return wedge(self.alpha, power(self.beta, self.n - 1))


class CosymReport:
    def __init__(self, passed: bool, d_alpha_max: float, d_beta_max: float,
                 volume_margin: float, worst_sample: np.ndarray):
        self.passed, self.d_alpha_max, self.d_beta_max = passed, d_alpha_max, d_beta_max
        self.volume_margin, self.worst_sample = volume_margin, worst_sample

    def as_dict(self) -> dict:
        return {"d_alpha_max": self.d_alpha_max, "d_beta_max": self.d_beta_max,
                "volume_margin": self.volume_margin,
                "worst_sample": list(map(float, np.atleast_1d(self.worst_sample)))}


class TransverseFieldReport:
    def __init__(self, field_values: np.ndarray, symplectic_residual: float,
                 min_transversality: float, field: Callable[[np.ndarray], np.ndarray]):
        self.field_values, self.symplectic_residual = field_values, symplectic_residual
        self.min_transversality, self.field = min_transversality, field

    @property
    def passed(self) -> bool:
        return (self.symplectic_residual < CLOSED_TOL
                and self.min_transversality >= TANGENCY_MARGIN)

    def as_dict(self) -> dict:
        return {"symplectic_residual": self.symplectic_residual,
                "min_transversality": self.min_transversality}


def verify_cosymplectic(cs: CosymplecticStructure, samples: np.ndarray) -> CosymReport:
    """Sampled verification: alpha and beta closed, alpha ^ beta^(n-1)
    nonvanishing on the coordinate frame."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("verification needs a nonempty sample set")
    d_alpha, d_beta = closed_residual(cs.alpha, samples), closed_residual(cs.beta, samples)
    # a NaN volume fails the bound below; a constant wedge is computed when
    # the volume form is built
    with np.errstate(all="ignore"):
        vol = cs.volume_form().coeffs(samples)[..., 0]
    worst = samples[int(np.argmin(np.abs(vol)))]
    margin = float(np.min(np.abs(vol)))
    passed = d_alpha < CLOSED_TOL and d_beta < CLOSED_TOL and margin > VOLUME_MARGIN
    return CosymReport(passed, d_alpha, d_beta, margin, worst)


def field_to_cosym(Z: EnergySurface, alpha: KForm, samples: np.ndarray) -> CosymplecticStructure:
    """Induced pair on a slice level set of ``Z.system`` from a transverse
    symplectic field X, given by alpha = iota_X omega on the ambient chart:
    alpha and omega restricted to the slice chart of Z.

    X is symplectic when alpha is closed, and transverse where |alpha(X_H)|
    = |dH(X)| > 0, X_H the Hamiltonian field.  Raises on a slice off its
    level (`EnergySurface.check`), on tangency, or when alpha is not closed
    at the samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    system = Z.system
    incl = Z.inclusion()
    ambient = incl.value(samples)
    Z.check(ambient)
    pairing = np.einsum("...i,...i->...", covector_values(alpha, ambient), system.field(ambient))
    trans = float(np.min(np.abs(pairing)))
    if not trans >= TANGENCY_MARGIN:
        raise TransversalityError(
            f"field tangent to the level set at a sample: min |dH(X)| = {trans:.3e}")
    closed_residual(alpha, ambient, "field is not symplectic: sampled |d(iota_X omega)|")
    cs = CosymplecticStructure(Z.section_chart, pullback(incl, alpha),
                               pullback(incl, system.omega))
    report = verify_cosymplectic(cs, samples)
    if not report.passed:
        raise ValueError(f"induced pair fails verification: {report.as_dict()}")
    return cs


def cosym_to_field(Z: EnergySurface, cs: CosymplecticStructure,
                   samples: np.ndarray) -> TransverseFieldReport:
    """Transverse symplectic field of ``Z.system`` recovering a verified pair on Z.

    The defining one-form is extended constantly in the collar coordinate and
    the pairing equation iota_X omega = alpha is solved pointwise
    (`phase.solve_pairing`, which raises SingularOmegaError where omega is
    singular or the solve misses its residual bound).  Reports the field's
    transversality margin and, as its symplectic residual, the sampled
    |d alpha| of the extended alpha, which the solve ties to iota_X omega.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    proj = Z.projection()
    alpha_ext = pullback(proj, cs.alpha)
    ambient = Z.inclusion().value(samples)
    Z.check(ambient)
    if not max_coeff_magnitude(alpha_ext, ambient) >= ALPHA_MIN:  # NaN is degenerate too
        raise ValueError("degenerate one-form: alpha vanishes at the samples")

    omega = Z.system.omega

    def field(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return solve_pairing(omega, x, covector_values(alpha_ext, x))

    values = field(ambient)
    dh = np.asarray(Z.system.grad_h(ambient), dtype=float)
    trans = float(np.min(np.abs(np.einsum("...i,...i->...", dh, values))))
    return TransverseFieldReport(values, closed_residual(alpha_ext, ambient), trans, field)


def collar_form(cs: CosymplecticStructure) -> KForm:
    """The collar form beta + alpha ^ dt on the chart of cs times one more
    coordinate t, with alpha and beta lifted along the projection that
    forgets t; it restricts to beta on every slice t = const."""
    dim = cs.manifold.dim + 1
    proj = ChartMap.coordinate_projection(dim, range(dim - 1))
    return pullback(proj, cs.beta) + wedge(pullback(proj, cs.alpha), coordinate_form(dim, dim - 1))


def build_product_system(cs: CosymplecticStructure) -> HamiltonianSystem:
    """Product of a verified cosymplectic chart with a circle.

    The symplectic form is the lifted beta plus the wedge of the lifted alpha
    with the circle generator; the energy is the sine of the circle angle, so
    the zero level contains the angle-zero copy of the seed chart and the
    flow there is transverse to every leaf of the foliation.  The seed pair
    is verified at its chart's `certification_samples` and the product
    certified once, through its `structure`.
    """
    n_chart = cs.manifold
    if n_chart.dim < 3:
        raise ValueError("product construction needs a seed of dimension >= 3 "
                         "(beta powers degenerate below that)")
    report = verify_cosymplectic(cs, certification_samples(n_chart))
    if not report.passed:
        raise ValueError(f"seed pair fails verification: {report.as_dict()}")
    dim = n_chart.dim + 1
    chart = ChartManifold(dim, n_chart.periodic + (True,), n_chart.periods + (2.0 * math.pi,))
    omega = collar_form(cs)

    def h(x: np.ndarray) -> np.ndarray:
        return np.sin(np.asarray(x, dtype=float)[..., dim - 1])

    def grad_h(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape)
        g[..., dim - 1] = np.cos(x[..., dim - 1])
        return g

    system = HamiltonianSystem(chart, omega, h, grad_h)
    system.structure   # raises ValueError unless the product passes; cached for its readers
    return system

