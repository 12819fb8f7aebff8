"""Hamiltonian systems on flat charts and their flows.

The Hamiltonian vector field is obtained pointwise by solving the linear
system pairing the symplectic form with the differential of the energy
("insert X into omega, read off dH"): in closed form in dimension 2, by
LAPACK above, with the residual checked on every call; for a constant omega
the inverse of that system is computed and checked once per system.
Sign convention, fixed throughout:

    iota_{X_H} omega = dH

Classical references differ by a sign; every derived quantity here (flows,
return maps, transversality margins) uses this convention.

Flows integrate forward in time through one entry point, `integrate_batch`,
with the package's own batched DOP853 stepper (`dop853`: the explicit
Runge-Kutta pair of order 8 with SciPy's step-size control, in NumPy only)
at a caller-given tolerance, rtol = tol and atol = tol / 100; each orbit of
a batch takes its own steps, and the integration returns the states they
end in.  Orbits that
must share one step sequence are stacked by their caller into one row.  A
caller that needs states along an orbit integrates to each time it needs, or
watches the steps through a step hook.
"""
from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from .forms import (ChartManifold, ChartMap, KForm, certification_samples, check_periodic,
                    closed_residual, two_form_matrix)

RCOND_MIN = 1e-10
FIELD_RESIDUAL_MAX = 1e-10
DEFAULT_FLOW_TOL = 1e-10
TANGENCY_MARGIN = 1e-8   # least |rate| of a transverse crossing, field or form
LEVEL_TOL = 1e-8   # largest |H - level| on a slice, relative to max(1, |level|)


class SingularOmegaError(RuntimeError):
    """The symplectic coefficient matrix is numerically degenerate."""

    def __init__(self, rcond: float, coords: Optional[np.ndarray] = None):
        where = ("(constant form)" if coords is None
                 else f"at {np.array2string(np.asarray(coords), precision=4)}")
        super().__init__(f"symplectic matrix near-singular (rcond estimate {rcond:.3e}) {where}")
        self.rcond = rcond


_FLIP = np.array([1.0, -1.0])


def solve_pairing(omega: KForm, coords: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The vectors X with iota_X omega = a (M^T X = a, M the coefficient matrix
    of omega) at each point of coords (..., dim), for covector values a
    (..., dim).

    In dim 2 X = (a_1, -a_0) / m_01, bit for bit what LAPACK returns; larger
    dimensions take one LAPACK solve per point.  Every call checks the
    residual: raises SingularOmegaError unless |M^T X - a| is within
    FIELD_RESIDUAL_MAX * max(1, |a|) over the batch, so a vanishing or
    overflowing m_01 raises too (without a RuntimeWarning).
    """
    with np.errstate(all="ignore"):   # a NaN or inf here fails the residual bound
        if omega.dim == 2:
            c = np.asarray(omega.coeffs(coords), dtype=float)
            # M^T X = (-m X_1, m X_0), so |M^T X - a| = |m X - b| with b = (a_1, -a_0)
            b = a[..., ::-1] * _FLIP
            X = b / c
            residual = c * X - b
        else:
            M = two_form_matrix(omega, coords)
            try:
                X = np.linalg.solve(np.swapaxes(M, -1, -2), a[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularOmegaError(0.0, coords) from exc
            residual = np.einsum("...ji,...j->...i", M, X) - a
    # an empty batch has nothing to check; max |a| is needed only past the bound at |a| <= 1
    worst = np.abs(residual).max() if X.size else 0.0
    if not (worst <= FIELD_RESIDUAL_MAX
            or worst <= FIELD_RESIDUAL_MAX * np.abs(a).max()):
        raise SingularOmegaError(_rcond(two_form_matrix(omega, coords)), coords)
    return X


def _rcond(M: np.ndarray) -> float:
    """Least ratio of the least to the greatest singular value over a batch of
    matrices (..., n, n): 0 for a vanishing matrix, NaN where the SVD fails
    (a NaN or inf entry)."""
    try:
        svals = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError:
        return float("nan")
    with np.errstate(invalid="ignore"):   # 0 / 0 of a vanishing matrix, replaced by 0
        ratios = svals[..., -1] / svals[..., 0]
    return float(np.min(np.where(svals[..., 0] == 0, 0.0, ratios)))


class HamiltonianSystem:
    """Symplectic chart, energy function and optional global primitive.

    ``h`` and ``grad_h`` are vectorised callables on coordinate arrays of
    shape (..., dim).  ``lam``, when present, is a one-form whose exterior
    derivative reproduces ``omega`` (the exact case).
    """

    def __init__(self, manifold: ChartManifold, omega: KForm,
                 h: Callable[[np.ndarray], np.ndarray],
                 grad_h: Callable[[np.ndarray], np.ndarray], lam: Optional[KForm] = None):
        if manifold.dim % 2:
            raise ValueError("Hamiltonian system needs an even-dimensional chart")
        if omega.degree != 2 or omega.dim != manifold.dim:
            raise ValueError("omega must be a two-form on the system chart")
        if lam is not None and (lam.degree != 1 or lam.dim != manifold.dim):
            raise ValueError("lambda must be a one-form on the system chart")
        self.manifold, self.omega, self.h, self.grad_h, self.lam = manifold, omega, h, grad_h, lam

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @functools.cached_property
    def poisson_matrix(self) -> Optional[np.ndarray]:
        """P = (M^T)^{-1} of a constant omega (None otherwise), so that the
        field is X = P dH.  Computed on first use and checked once: raises
        SingularOmegaError when rcond < RCOND_MIN or when the max-row-sum norm
        of M^T P - I exceeds FIELD_RESIDUAL_MAX, which bounds the residual
        |M^T X - dH| by FIELD_RESIDUAL_MAX * |dH| at every point."""
        if self.omega.constant_value is None:
            return None
        M = two_form_matrix(self.omega, np.zeros(self.dim))
        try:
            P = np.linalg.solve(M.T, np.eye(self.dim))
        except np.linalg.LinAlgError as exc:
            raise SingularOmegaError(0.0) from exc
        # 1 / (|M|_F |P|_F) bounds the rcond from below, so the SVD is only
        # needed when that bound is under RCOND_MIN
        rcond_bound = 1.0 / (np.linalg.norm(M) * np.linalg.norm(P))
        if not rcond_bound >= RCOND_MIN:
            rcond = _rcond(M)
            if not rcond >= RCOND_MIN:
                raise SingularOmegaError(rcond)
        if not np.max(np.sum(np.abs(M.T @ P - np.eye(self.dim)), axis=1)) <= FIELD_RESIDUAL_MAX:
            raise SingularOmegaError(float(rcond_bound))
        P.flags.writeable = False
        return P

    @functools.cached_property
    def structure(self) -> dict:
        """The system's one structure certificate: `validate` at the chart's
        `certification_samples`, run on first use and read by every command
        instead of validating again; raises ValueError as `validate` does."""
        return self.validate(certification_samples(self.manifold))

    def field(self, coords: np.ndarray) -> np.ndarray:
        """Hamiltonian vector field components, vectorised over (..., dim).

        A constant omega uses its cached `poisson_matrix`; otherwise
        `solve_pairing` solves omega(X, .) = dH(.) at each point.
        """
        coords = np.asarray(coords, dtype=float)
        g = np.asarray(self.grad_h(coords), dtype=float)
        P = self.poisson_matrix
        if P is not None:
            return g.dot(P.T)
        return solve_pairing(self.omega, coords, g)

    def energy(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.h(np.asarray(coords, dtype=float)), dtype=float)

    def validate(self, samples: np.ndarray) -> dict:
        """Sampled structural checks: omega, lambda and dH are forms on the
        chart (`check_periodic`; H itself need not be periodic), omega is
        closed and nondegenerate, and d(lambda) = omega when a primitive is
        declared.  Returns margins."""
        samples = np.asarray(samples, dtype=float)
        for name, form in (("omega", self.omega), ("lambda", self.lam),
                           ("dH", KForm(1, self.dim, self.grad_h))):
            if form is not None:
                check_periodic(form, self.manifold, samples, name)
        report = {"d_omega_max": closed_residual(
            self.omega, samples, "omega is not closed: sampled |d omega|")}
        # a constant omega has one matrix at every sample, so one decomposition
        M = two_form_matrix(self.omega, samples if self.omega.constant_value is None
                            else np.zeros(self.dim))
        report["omega_rcond_min"] = rcond = _rcond(M)
        if not rcond >= RCOND_MIN:
            raise ValueError(f"omega degenerate at a sample (rcond {rcond:.3e})")
        if self.lam is not None:
            report["d_lambda_minus_omega_max"] = closed_residual(
                self.lam, samples, "declared primitive does not differentiate to omega: "
                "sampled |d lambda - omega|", minus=self.omega)
        return report


class FlowSystem:
    """A plain first-order flow on a chart (no symplectic structure).

    Shares the flow/section machinery with Hamiltonian systems; suspension
    examples use it directly.
    """

    def __init__(self, manifold: ChartManifold, field_fn: Callable[[np.ndarray], np.ndarray]):
        self.manifold, self.field_fn = manifold, field_fn

    @property
    def dim(self) -> int:
        return self.manifold.dim

    def field(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.field_fn(np.asarray(coords, dtype=float)), dtype=float)


class EnergySurface:
    """Level set Z = H^{-1}(level) of a chart model where it is the coordinate
    slice {x[slice_coord] = slice_value}; the slice copy restricts forms."""

    def __init__(self, system: HamiltonianSystem, level: float, slice_coord: int,
                 slice_value: float):
        self.system, self.level = system, level
        self.slice_coord, self.slice_value = slice_coord, slice_value

    def sample(self, rng, n: int) -> np.ndarray:
        """n ambient points of Z: chart samples with the slice coordinate pinned."""
        pts = self.system.manifold.sample(rng, n)
        pts[:, self.slice_coord] = self.slice_value
        return pts

    def check(self, ambient: np.ndarray) -> None:
        """Raise ValueError unless H equals the level at the ambient points,
        within LEVEL_TOL relative to max(1, |level|)."""
        off = float(np.max(np.abs(self.system.energy(ambient) - self.level), initial=0.0))
        if not off <= LEVEL_TOL * max(1.0, abs(self.level)):
            raise ValueError(f"the slice is not the level set H = {self.level:g}: "
                             f"max |H - level| = {off:.3e} at the samples")

    @property
    def _kept(self) -> list[int]:
        return [i for i in range(self.system.dim) if i != self.slice_coord]

    @property
    def section_chart(self) -> ChartManifold:
        """Chart of the slice copy of Z."""
        m = self.system.manifold
        return ChartManifold(m.dim - 1,
                             tuple(m.periodic[i] for i in self._kept),
                             tuple(m.periods[i] for i in self._kept))

    def inclusion(self) -> ChartMap:
        """ChartMap embedding the slice copy of Z into the ambient chart."""
        return ChartMap.coordinate_inclusion(self.system.dim, self._kept,
                                             {self.slice_coord: float(self.slice_value)})

    def projection(self) -> ChartMap:
        """ChartMap collapsing the ambient chart onto the slice coordinates.

        Used to extend forms defined on Z constantly in the collar direction.
        """
        return ChartMap.coordinate_projection(self.system.dim, self._kept)


def integrate_batch(field: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, t1: float,
                    tol: float = DEFAULT_FLOW_TOL, step: Optional[Callable] = None,
                    first_step: Optional[float] = None) -> np.ndarray:
    """Integrate a batch of initial conditions x0 (n, dim) along ``field``, a
    function of state rows (n, dim), forward from t = 0 to t1 > 0, and return
    the end states (n, dim).
    Each row is one orbit on its own steps; a single orbit is a batch of
    one.  Coordinates are NOT reduced: orbits live in the periodic cover so
    section functions can be lifted continuously.  ``step`` and
    ``first_step`` are those of `dop853.solve`, which raises its
    StepSizeUnderflow when an orbit's step stalls."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    from .dop853 import solve   # loaded by the first integration, not by every command
    return solve(field, t1, x0, tol, tol * 1e-2, step, first_step)
