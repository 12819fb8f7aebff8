"""Non-existence verdicts for global transverse Poincaré sections.

Two families of obstructions:

* exactness: when the symplectic form has a verified global primitive, no
  compact submanifold can be symplectic (its area integral would have to be
  both positive and zero by Stokes), so no compact level set of any energy
  function admits a global transverse section.  The Stokes test makes this
  computable: the integral of the restricted form over any meshed closed
  surface must vanish.  The composite midpoint rule evaluates its n x n
  nodes one block of u-rows at a time within the ``BLOCK_VALUES`` budget,
  so its memory does not grow with n.
* cohomology: an energy hypersurface carrying such a section carries a
  cosymplectic pair, whose powers represent nonzero classes in every degree,
  so all Betti numbers must be positive.  Betti numbers come from a curated
  catalog of standard manifolds, not from computed homology; likewise the
  compactness/simple-connectivity flags of ambient manifolds are declared
  metadata.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import (CLOSED_TOL, ChartMap, KForm, Rng, evaluate_frame, exterior_derivative,
                    max_coeff_magnitude)
from .phase import HamiltonianSystem

DEFAULT_QUAD_NODES = 256
#: values held by one block of the quadrature's nodes: their patch Jacobians
BLOCK_VALUES = 2 ** 17


class PrimitiveError(ValueError):
    """Declared primitive data is inconsistent with the symplectic form."""


@dataclass(frozen=True, eq=False)
class MeshedSurface:
    """Closed parametrized 2-submanifold over a rectangular parameter patch.

    ``patch`` maps parameters (u, v) in [0, extents[0]) x [0, extents[1]) into
    the ambient chart.  Closedness is encoded by the parametrization (periodic
    parameters, or degenerate edges such as sphere poles) and declared by the
    builder.
    """

    patch: ChartMap
    extents: tuple[float, float]
    closed: bool = True
    name: str = ""

    def __post_init__(self):
        if self.patch.source_dim != 2:
            raise ValueError("meshed surface needs a 2-parameter patch")
        if any(e <= 0 for e in self.extents):
            raise ValueError("parameter extents must be positive")

    def nodes(self, n: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Tensor-product midpoint nodes of the u-rows start..stop-1 (every
        row by default) of the n x n rule, row by row: shape
        ((stop - start) * n, 2)."""
        u = (np.arange(start, n if stop is None else stop) + 0.5) * self.extents[0] / n
        v = (np.arange(n) + 0.5) * self.extents[1] / n
        U, V = np.meshgrid(u, v, indexing="ij")
        return np.stack([U.ravel(), V.ravel()], axis=-1)


def surface_integral(form: KForm, surf: MeshedSurface, n: int = DEFAULT_QUAD_NODES) -> float:
    """Integral of a two-form over the surface by composite midpoint quadrature.

    The n x n nodes are evaluated one block of u-rows at a time, and a
    block's patch Jacobians hold at most ``BLOCK_VALUES`` values, so
    memory does not grow with n (time grows as n^2).  Each u-row is summed
    on its own and the row sums last, so the result does not depend on the
    block size.
    """
    if form.degree != 2:
        raise ValueError("surface integral needs a two-form")
    rows = max(1, BLOCK_VALUES // (n * form.dim * 2))
    row_sums = np.empty(n)
    for a in range(0, n, rows):
        params = surf.nodes(n, a, min(a + rows, n))
        # a constant form never reads the points, so the patch is not evaluated there
        pts = None if form.constant_value is not None else surf.patch.value(params)
        vals = evaluate_frame(form, pts, surf.patch.jacobian(params))
        np.sum(vals.reshape(-1, n), axis=1, out=row_sums[a:a + rows])
    cell = (surf.extents[0] / n) * (surf.extents[1] / n)
    return float(np.sum(row_sums) * cell)


def stokes_exactness_check(sys: HamiltonianSystem, surf: MeshedSurface,
                           n: int = DEFAULT_QUAD_NODES) -> float:
    """Integral of the restricted symplectic form over a closed surface.

    Requires a verified primitive; the result must vanish within quadrature
    tolerance, certifying that no closed surface carries the strictly
    positive symplectic area a symplectic submanifold would need.
    """
    if sys.lam is None:
        raise PrimitiveError("no global primitive declared for the symplectic form")
    if not surf.closed:
        raise ValueError("the Stokes test needs a closed surface")
    check_primitive(sys)
    return surface_integral(sys.omega, surf, n)


def check_primitive(sys: HamiltonianSystem) -> float:
    """Residual of d(lambda) - omega at 32 seeded chart samples; raises
    PrimitiveError unless it is below CLOSED_TOL."""
    if sys.lam is None:
        raise PrimitiveError("no global primitive declared")
    samples = sys.manifold.sample(Rng(11), 32)
    residual = max_coeff_magnitude(exterior_derivative(sys.lam) - sys.omega, samples)
    if residual >= CLOSED_TOL:
        raise PrimitiveError(f"declared primitive fails d(lambda) = omega: "
                             f"sampled residual {residual:.3e}")
    return float(residual)


@dataclass(frozen=True, eq=False)
class Verdict:
    verdict: str            # "negative" or "inconclusive"
    statement: str
    evidence: dict

    @property
    def negative(self) -> bool:
        return self.verdict == "negative"

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "statement": self.statement,
                "evidence": self.evidence}


def exactness_verdict(sys: HamiltonianSystem) -> Verdict:
    """Global-section verdict from exactness of the symplectic form."""
    if sys.lam is None:
        return Verdict("inconclusive",
                       "no global primitive declared; exactness obstruction does not apply",
                       {"primitive": None})
    residual = check_primitive(sys)
    statement = ("exact symplectic form: no compact level set of any Hamiltonian "
                 "on this manifold admits a global transverse Poincaré section")
    evidence = {"primitive_residual": residual}
    if sys.manifold.cotangent_model:
        statement += (" (canonical cotangent-bundle form; the obstruction covers "
                      "every level energy surface)")
        evidence["cotangent_model"] = True
    return Verdict("negative", statement, evidence)


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


@dataclass(frozen=True, eq=False)
class BettiResult:
    passed: bool
    failing_degree: Optional[int]
    statement: str

    def as_dict(self) -> dict:
        return {"passed": self.passed, "failing_degree": self.failing_degree,
                "statement": self.statement}


def betti_necessary_condition(bp: BettiProfile) -> BettiResult:
    """Necessary condition for a hypersurface to carry a global transverse
    section: every Betti number positive.

    Applies to odd-dimensional manifolds (even-length profile).  A failure
    names the vanishing degree and rules the section out; a pass is necessary
    only, never sufficient.
    """
    if len(bp.betti) % 2:
        raise ValueError(f"profile of even-dimensional manifold {bp.name!r}: "
                         "the obstruction applies to odd-dimensional level sets")
    for degree, b in enumerate(bp.betti):
        if b < 1:
            return BettiResult(False, degree,
                               f"{bp.name}: H^{degree} is trivial, so no cosymplectic pair "
                               "and no global transverse Poincaré section can exist")
    return BettiResult(True, None,
                       f"{bp.name}: all Betti numbers positive (necessary condition only)")


def simply_connected_verdict(compact: bool, simply_connected: bool,
                             name: str = "") -> Verdict:
    """Global-section verdict for connected level sets in a compact simply
    connected ambient manifold.

    A transverse symplectic field would push one side of a separating
    hypersurface into a proper subset of itself with the same volume, which
    is impossible; hence the negative verdict whenever both flags hold.
    """
    label = f" on {name}" if name else ""
    if compact and simply_connected:
        return Verdict(
            "negative",
            f"compact simply connected ambient manifold{label}: every separating "
            "hypersurface bounds, so no transverse symplectic field and no level "
            "set with a global transverse Poincaré section exists",
            {"compact": True, "simply_connected": True})
    reason = []
    if not compact:
        reason.append("not compact")
    if not simply_connected:
        reason.append("not simply connected")
    return Verdict("inconclusive",
                   f"ambient manifold{label} is {' and '.join(reason)}; "
                   "the volume argument does not apply",
                   {"compact": compact, "simply_connected": simply_connected})
