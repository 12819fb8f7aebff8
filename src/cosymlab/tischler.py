"""Rationalization of a closed one-form on a torus chart.

The foliation of a generic closed one-form has non-compact leaves.  Replacing
the form by a nearby one whose periods are rational (a common-denominator
combination of circle-generator pullbacks) turns the foliation into a
fibration with compact leaves, each usable as a Poincaré section.  The steps:
compute the loop periods (Gauss-Legendre quadrature on rules built by Newton's
method on the Legendre recurrence), approximate them simultaneously by fractions
n_i / d, and rebuild the form with the rationalized constant part (the exact
part is kept unchanged).  The integers n_i give the leaf as a section
(`section.leaf_section`).

Periods are normalized by 2*pi, so an integer entry means the form winds that
many times around the corresponding coordinate circle.  The coefficient norm
controlling closeness is the sup over samples of the coefficient-vector
infinity norm, which bounds the transversality margin loss pointwise.
"""
from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .catalog import DEFAULT_D_CAP
from .forms import (ChartManifold, KForm, certification_samples, check_periodic,
                    closed_residual, constant_form, covector_values)
from .phase import TANGENCY_MARGIN

TWO_PI = 2.0 * math.pi

PERIOD_QUAD_NODES = 128     # Gauss-Legendre nodes of the first rule; refinement doubles them
PERIOD_QUAD_MAX_NODES = 16 * PERIOD_QUAD_NODES   # nodes of the last rule refinement tries
PERIOD_QUAD_ERR = 1e-10


class PeriodVector:
    """Normalized loop periods of a closed one-form over the generator cycles;
    computed ones carry their quadrature's per-cycle ``estimate`` (|difference|
    of the loop integrals of its last two rules) and the finer rule's ``nodes``."""

    def __init__(self, values: np.ndarray, cycles: tuple[str, ...], manifold: ChartManifold,
                 estimate: Optional[np.ndarray] = None, nodes: Optional[int] = None):
        self.values = np.asarray(values, dtype=float)
        self.cycles, self.manifold = cycles, manifold
        self.estimate, self.nodes = estimate, nodes

    @property
    def converged(self) -> bool:
        """Declared, or every estimate within PERIOD_QUAD_ERR (a NaN is not)."""
        return self.estimate is None or bool(np.all(self.estimate <= PERIOD_QUAD_ERR))

    def as_dict(self) -> dict:
        quadrature = ({} if self.estimate is None
                      else {"estimate": self.estimate, "nodes": self.nodes})
        return {"values": self.values, "cycles": list(self.cycles), **quadrature}


class RationalApproximation:
    """Simultaneous approximation values[i] ~ n[i] / d with common denominator d."""

    def __init__(self, d: int, n: np.ndarray, epsilon_achieved: float):
        if d < 1:
            raise ValueError("denominator must be a positive integer")
        self.d, self.n, self.epsilon_achieved = d, np.asarray(n, dtype=int), epsilon_achieved

    @property
    def fractions(self) -> np.ndarray:
        return self.n / float(self.d)


#: Newton steps `_leggauss` takes at most; from Tricomi's guesses it needs 3 or 4
LEGGAUSS_MAX_STEPS = 10
#: largest node step of a converged Newton iteration: a few ulp of |x| <= 1
LEGGAUSS_STEP_TOL = 1e-15


def _legendre(nodes: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), n = nodes, by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, written as
    P_{j+1} = x P_j + j / (j + 1) (x P_j - P_{j-1})."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, nodes):
        t = x * p1
        p0, p1 = p1, t + (j / (j + 1)) * (t - p0)
    return p1, nodes * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    Newton's method on P_n through its three-term recurrence (N. Hale and
    A. Townsend, SIAM J. Sci. Comput. 35 (2013) A652), every node at once from
    Tricomi's initial guesses, so the rule takes O(n) memory and O(n^2) time,
    where numpy's `leggauss` solves a dense n x n eigenproblem.  The weights
    are 2 / ((1 - x^2) P_n'(x)^2); as in numpy, nodes and weights are
    symmetrised and the weights scaled to sum to 2.  Raises ArithmeticError
    when no Newton step within LEGGAUSS_MAX_STEPS moves every node by at most
    LEGGAUSS_STEP_TOL.
    """
    theta = (4 * np.arange(nodes, 0, -1) - 1) * (math.pi / (4 * nodes + 2))
    x = (1.0 - (nodes - 1) / (8 * nodes ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384 * nodes ** 4)) * np.cos(theta)
    for _ in range(LEGGAUSS_MAX_STEPS):
        p, dp = _legendre(nodes, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= LEGGAUSS_STEP_TOL:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration on {nodes} nodes did not "
                              f"converge in {LEGGAUSS_MAX_STEPS} steps")
    _, dp = _legendre(nodes, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    w *= 2.0 / w.sum()
    return x, w


def _loop_integrals(alpha: KForm, periods: np.ndarray, nodes: int) -> np.ndarray:
    """Integrals of alpha along the coordinate circles through the origin, by
    the Gauss-Legendre rule with the given number of nodes."""
    s, w = _leggauss(nodes)
    dim = len(periods)
    axis = np.arange(dim)
    paths = np.zeros((dim, nodes, dim))
    paths[axis, :, axis] = 0.5 * (s + 1.0) * periods[:, None]
    a = covector_values(alpha, paths)[axis, :, axis]
    return 0.5 * periods * (a @ w)


def periods(alpha: KForm, manifold: ChartManifold) -> PeriodVector:
    """Loop integrals of a closed one-form over the coordinate circles,
    normalized by 2*pi: alpha is certified, then integrated (`loop_periods`).

    Refuses, at the chart's `certification_samples`, non-closed input, whose
    "periods" would be path dependent (`forms.closed_residual`), and input
    that is not a form on the chart (`forms.check_periodic`).
    """
    if alpha.degree != 1 or alpha.dim != manifold.dim:
        raise ValueError(f"periods need a one-form on the chart, got a {alpha.degree}-form in "
                         f"dimension {alpha.dim} on a chart of dimension {manifold.dim}")
    if not manifold.is_torus:
        raise ValueError("period computation needs a torus chart (all coordinates periodic)")
    samples = certification_samples(manifold)
    closed_residual(alpha, samples, "one-form not closed, so its loop integrals would be "
                    "path dependent: sampled |d alpha|")
    check_periodic(alpha, manifold, samples, "alpha")
    return loop_periods(alpha, manifold)


def loop_periods(alpha: KForm, manifold: ChartManifold) -> PeriodVector:
    """The quadrature of `periods`, without its certificate: for a one-form
    that differs from a certified one by a constant form, such as a rebuilt
    `build_approximation`.

    Gauss-Legendre quadrature (`_leggauss`) on PERIOD_QUAD_NODES nodes,
    doubled while two successive rules differ by more than PERIOD_QUAD_ERR on
    a cycle, up to PERIOD_QUAD_MAX_NODES nodes.  Returns the finer rule's
    values with the last two rules' difference as the estimate; one still
    not `converged` at the cap is the caller's verdict, not an exception.
    """
    lengths = np.asarray(manifold.periods, dtype=float)
    cycles = tuple(f"loop along coordinate {i}, period {period:g}"
                   for i, period in enumerate(manifold.periods))
    nodes = PERIOD_QUAD_NODES
    fine = _loop_integrals(alpha, lengths, nodes)
    while True:
        nodes, coarse = 2 * nodes, fine
        fine = _loop_integrals(alpha, lengths, nodes)
        pv = PeriodVector(fine / TWO_PI, cycles, manifold, np.abs(fine - coarse), nodes)
        if pv.converged or nodes >= PERIOD_QUAD_MAX_NODES:
            return pv


def rationalize(pv: PeriodVector, eps: float, d_cap: int = DEFAULT_D_CAP) -> RationalApproximation:
    """Simultaneous rational approximation with denominator up to d_cap.

    Scans every denominator.  Among those meeting the pointwise error bound
    eps, returns the one with the smallest scaled lattice error
    max_i |d * v_i - n_i| (ties to the smaller d): the classical
    best-approximation ranking, which favors the simplest rational data and
    hence the lowest-winding leaf for a given tolerance.  When none meets eps,
    returns the one of least pointwise error (``epsilon_achieved`` > eps).
    Exhaustive rather than lattice-based: dimensions are tiny and the
    guarantee is exact.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if d_cap < 1:
        raise ValueError("denominator cap must be >= 1")
    v = pv.values
    ds = np.arange(1, d_cap + 1, dtype=float)
    n = np.rint(ds[:, None] * v[None, :])
    lattice_errs = np.max(np.abs(ds[:, None] * v[None, :] - n), axis=1)
    errs = lattice_errs / ds
    candidates = np.flatnonzero(errs <= eps)
    best = (int(candidates[np.argmin(lattice_errs[candidates])]) if candidates.size
            else int(np.argmin(errs)))
    return RationalApproximation(best + 1, n[best].astype(int), float(errs[best]))


def build_approximation(alpha: KForm, pv: PeriodVector, ra: RationalApproximation) -> KForm:
    """Closed one-form with the rationalized periods.

    Replaces the constant (harmonic) part of alpha by the fractions n_i / d in
    normalized angular units and keeps the exact part unchanged, so re-running
    the period computation reproduces n_i / d.
    """
    return alpha + constant_form(pv.manifold.dim, 1, _correction(pv, ra))


def coefficient_distance(pv: PeriodVector, ra: RationalApproximation) -> float:
    """Sup-norm coefficient distance between a form and its rationalization."""
    return float(np.max(np.abs(_correction(pv, ra))))


def _correction(pv: PeriodVector, ra: RationalApproximation) -> np.ndarray:
    """Constant coefficients that move the periods from their values to n_i / d."""
    return (ra.fractions - pv.values) * TWO_PI / np.asarray(pv.manifold.periods)


class TransversalityReport:
    """Least |alpha'(X)|, least and greatest signed alpha'(X) of the rebuilt
    form over the samples, and the least |alpha(X)| of the original."""

    def __init__(self, min_margin: float, signed_min: float, signed_max: float,
                 min_margin_original: float, passed: bool):
        self.min_margin, self.signed_min, self.signed_max = min_margin, signed_min, signed_max
        self.min_margin_original, self.passed = min_margin_original, passed

    def as_dict(self) -> dict:
        return {"min_margin": self.min_margin, "signed_min": self.signed_min,
                "signed_max": self.signed_max, "min_margin_original": self.min_margin_original}


def check_transversality_preserved(system, alpha_prime: KForm, samples: np.ndarray,
                                   alpha: KForm) -> TransversalityReport:
    """Margin of the rationalized form alpha' against the flow over the
    samples, beside the margin of the original alpha.

    The report passes only when alpha'(X) keeps one sign over the samples and
    |alpha'(X)| >= TANGENCY_MARGIN at every one: a form whose pairing changes
    sign is tangent to the flow somewhere between the samples.
    Transversality is an open condition, so a small enough approximation
    error keeps the margin; a failed report calls for a smaller eps, not an
    exception.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    field = system.field(samples)

    def pairing(form: KForm) -> np.ndarray:
        return np.einsum("...i,...i->...", covector_values(form, samples), field)

    values = pairing(alpha_prime)
    m_prime, lo, hi = float(np.min(np.abs(values))), float(np.min(values)), float(np.max(values))
    m_orig = float(np.min(np.abs(pairing(alpha))))
    return TransversalityReport(m_prime, lo, hi, m_orig,
                                m_prime >= TANGENCY_MARGIN and (lo > 0) == (hi > 0))

