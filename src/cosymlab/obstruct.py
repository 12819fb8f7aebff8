"""Non-existence verdicts for global transverse Poincaré sections.

Two families of obstructions:

* exactness: when the symplectic form has a verified global primitive, no
  compact submanifold can be symplectic (its area integral would have to be
  both positive and zero by Stokes), so no compact level set of any energy
  function admits a global transverse section.  The Stokes test makes this
  computable: the integral of the restricted form over any meshed closed
  surface must vanish.  The composite midpoint rule evaluates its n x n
  nodes one block of u-rows at a time within the ``BLOCK_VALUES`` budget,
  so its memory does not grow with n; a surface's patch is evaluated on
  the block's column of u against the row of v, so a parametrization built
  from per-axis terms computes them once per block, not at every node.
* cohomology: an energy hypersurface carrying such a section carries a
  cosymplectic pair, whose powers represent nonzero classes in every degree,
  so all Betti numbers must be positive.  Betti numbers come from a curated
  catalog of standard manifolds, not from computed homology; likewise the
  compactness/simple-connectivity flags of ambient manifolds are declared
  metadata.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# the Betti profiles and the quadrature default live beside the catalog data that
# the CLI reads without loading this module; they are re-exported here
from .catalog import DEFAULT_QUAD_NODES, BettiProfile  # noqa: F401
from .forms import KForm, evaluate_frame
from .phase import HamiltonianSystem

#: values held by one block of the quadrature's nodes: their patch Jacobians
BLOCK_VALUES = 2 ** 17


class MeshedSurface:
    """Closed parametrized 2-submanifold over a rectangular parameter patch.

    ``value(u, v)`` maps parameters in [0, extents[0]) x [0, extents[1]) into
    the ambient chart and ``jacobian(u, v)`` gives the patch's partials, with
    u and v arrays that broadcast against each other: for a broadcast shape
    S they return shapes S + (dim,) and S + (dim, 2).  The quadrature passes
    u as a column and v as a row, so a term in one parameter is computed on
    that parameter's values alone.  Closedness is encoded by the parametrization
    (periodic parameters, or degenerate edges such as sphere poles).
    """

    def __init__(self, value: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 extents: tuple[float, float]):
        if any(e <= 0 for e in extents):
            raise ValueError("parameter extents must be positive")
        self.value, self.jacobian, self.extents = value, jacobian, extents


def surface_integral(form: KForm, surf: MeshedSurface, n: int = DEFAULT_QUAD_NODES) -> float:
    """Integral of a two-form over the surface by composite midpoint quadrature.

    The n x n nodes are evaluated one block of u-rows at a time: the patch
    sees the block's u values as a column and the n values of v as a row.
    A block's patch Jacobians hold at most ``BLOCK_VALUES`` values, so
    memory does not grow with n (time grows as n^2).  Each u-row is summed
    on its own and the row sums last, so the result does not depend on the
    block size.
    """
    if form.degree != 2:
        raise ValueError("surface integral needs a two-form")
    rows = max(1, BLOCK_VALUES // (n * form.dim * 2))
    u = ((np.arange(n) + 0.5) * surf.extents[0] / n)[:, None]
    v = (np.arange(n) + 0.5) * surf.extents[1] / n
    row_sums = np.empty(n)
    for a in range(0, n, rows):
        block = u[a:a + rows]
        # a constant form never reads the points, so the patch is not evaluated there
        pts = None if form.constant_value is not None else surf.value(block, v)
        vals = evaluate_frame(form, pts, surf.jacobian(block, v))
        np.sum(vals, axis=1, out=row_sums[a:a + rows])
    cell = (surf.extents[0] / n) * (surf.extents[1] / n)
    return float(np.sum(row_sums) * cell)


class Verdict:
    def __init__(self, verdict: str, statement: str, evidence: dict):
        # verdict is "negative" or "inconclusive"
        self.verdict, self.statement, self.evidence = verdict, statement, evidence

    @property
    def negative(self) -> bool:
        return self.verdict == "negative"

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "statement": self.statement,
                "evidence": self.evidence}


def exactness_verdict(sys: HamiltonianSystem) -> Verdict:
    """Global-section verdict from exactness of the symplectic form.

    The primitive's residual |d(lambda) - omega| is read off the system's
    `structure` certificate, which raises ValueError when one of its checks
    fails, this one included."""
    if sys.lam is None:
        return Verdict("inconclusive",
                       "no global primitive declared; exactness obstruction does not apply",
                       {"primitive": None})
    residual = sys.structure["d_lambda_minus_omega_max"]
    statement = ("exact symplectic form: no compact level set of any Hamiltonian "
                 "on this manifold admits a global transverse Poincaré section")
    evidence = {"primitive_residual": residual}
    if sys.manifold.cotangent_model:
        statement += (" (canonical cotangent-bundle form; the obstruction covers "
                      "every level energy surface)")
        evidence["cotangent_model"] = True
    return Verdict("negative", statement, evidence)


def betti_necessary_condition(bp: BettiProfile) -> Verdict:
    """Necessary condition for a hypersurface to carry a global transverse
    section: every Betti number positive.

    Applies to odd-dimensional manifolds (even-length profile).  A vanishing
    Betti number rules the section out: a negative verdict whose evidence
    names the degree.  Otherwise the verdict is inconclusive, since the
    condition is necessary only, never sufficient.
    """
    if len(bp.betti) % 2:
        raise ValueError(f"profile of even-dimensional manifold {bp.name!r}: "
                         "the obstruction applies to odd-dimensional level sets")
    degree = next((d for d, b in enumerate(bp.betti) if b < 1), None)
    if degree is None:
        return Verdict("inconclusive", f"{bp.name}: all Betti numbers positive "
                       "(necessary condition only)", {"failing_degree": None})
    return Verdict("negative", f"{bp.name}: H^{degree} is trivial, so no cosymplectic pair "
                   "and no global transverse Poincaré section can exist",
                   {"failing_degree": degree})


def simply_connected_verdict(compact: bool, simply_connected: bool, name: str) -> Verdict:
    """Global-section verdict for connected level sets in a compact simply
    connected ambient manifold.

    A transverse symplectic field would push one side of a separating
    hypersurface into a proper subset of itself with the same volume, which
    is impossible; hence the negative verdict whenever both flags hold.
    """
    if compact and simply_connected:
        return Verdict(
            "negative",
            f"compact simply connected ambient manifold on {name}: every separating "
            "hypersurface bounds, so no transverse symplectic field and no level "
            "set with a global transverse Poincaré section exists",
            {"compact": True, "simply_connected": True})
    reason = []
    if not compact:
        reason.append("not compact")
    if not simply_connected:
        reason.append("not simply connected")
    return Verdict("inconclusive",
                   f"ambient manifold on {name} is {' and '.join(reason)}; "
                   "the volume argument does not apply",
                   {"compact": compact, "simply_connected": simply_connected})
