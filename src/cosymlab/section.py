"""Poincaré sections: the section kinds, crossing detection, first-return maps,
globality checks and the mapping-torus chart of a verified section.

The section function is circle valued, and a section supplies its rate along
a field in closed form.  Along an orbit its angle is lifted to a continuous
real value, and crossings of the level set are located where the lift passes a
lattice value ``level + 2*pi*z`` (z an integer).  Only crossings whose
oriented time derivative is positive are counted; a two-sided count would
double-cover the mapping-torus fiber.

Every crossing comes from one batched engine, `first_crossings`, which
follows each orbit through its first k crossings in three steps:

- bracket: each orbit takes its own DOP853 steps, one orbit per integrator
  row, and a step hook (`_Scan`) follows its lifted angle from step end to
  step end.  A step sweeps at most pi/2 of angle and ends at a turning point
  of the lift near a lattice value, so a short excursion through the section
  is seen.  Each step that passes a lattice value upward holds a crossing,
  and the orbit is stepped no further than its k-th;
- refine: a batched Hénon step (M. Hénon, Physica D 5 (1982) 412) per
  crossing integrates over the lifted angle from that step's left end, an
  accepted integrator state, exactly onto the lattice value.  Its first
  step is one step over the whole angle gap, which the bracketing step has
  already carried under the same error control, so it almost always stands;
- polish and check: vectorised Newton steps with fourth-order flow
  micro-steps.  A crossing is accepted only if its time lies inside its step
  and within t_max of the crossing before, its angular residual is below
  1e-12 and its rate is at least TANGENCY_MARGIN; anything else, and an
  integration that stalls, ends the orbit's record with a failure.

Return-map iteration (`iterate_returns`: k returns of a batch are one engine
call, a first return is k = 1) and globality checks return the engine's one
record, `Crossings`, so the same bounds hold on every path.  The record
carries the starts it was scanned from and the tol it was certified at, and
a failure is data in it: (certified count, reason) per orbit, never an
exception.  Return-map Jacobians (the flow over the certified return time,
the field projected out) and the mapping torus read a record whole, or a row
selection of it, and refuse a start with no certified first crossing or
off the section with one error, `SectionRefusal`.
"""
from __future__ import annotations

import csv
import math
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .dop853 import StepSizeUnderflow
from .forms import ChartManifold, two_form_matrix
from . import phase
from .phase import LEVEL_TOL, TANGENCY_MARGIN

TWO_PI = 2.0 * math.pi

ANGLE_RESIDUAL = 1e-12
ON_SECTION_TOL = 1e-8
NEAR_LATTICE = 1e-3     # lattice units (turns of the section angle)
DEFAULT_T_MAX = 1e3
GLUING_FACTOR = 10.0   # largest gluing residual of a mapping-torus table, in units of tol
DET_ERROR_MAX = 1e-6   # largest |det J - 1| of a return-map Jacobian that passes
ELIMINATION_DET_MIN = 1e-12   # smallest |det| of a section chart's elimination block
FD_STEP = 1e-6   # relative central-difference step of a return-map Jacobian
TORUS_TIMES = 9   # fiber times t of a mapping-torus table, evenly spaced over [0, 1]


class SectionRefusal(ValueError):
    """A point refused by a record stage (a start with no certified first
    crossing, or off the section) or with no section chart; ``reason`` is
    what a failed check reports, the start's failure or else the message."""

    def __init__(self, message: str, reason: Optional[str] = None):
        super().__init__(message)
        self.reason = reason or message


class SectionSpec:
    """Circle-valued section function with level and crossing orientation.

    ``theta`` maps coordinates (..., dim) to an angle, and ``dtheta`` maps
    states x and vectors X (both (..., dim)) to d theta_x(X) in closed form:
    the rate of theta along the flow when X is the field at x, and the
    gradient of theta when X runs through the coordinate vectors.
    Orientation +1 counts crossings where theta increases along the flow.
    """

    def __init__(self, theta: Callable[[np.ndarray], np.ndarray],
                 dtheta: Callable[[np.ndarray, np.ndarray], np.ndarray], level: float = 0.0,
                 orientation: int = 1):
        self.theta, self.dtheta, self.level, self.orientation = theta, dtheta, level, orientation

    def offset(self, coords: np.ndarray) -> np.ndarray:
        """Signed angular distance to the level, wrapped to (-pi, pi]."""
        v = np.asarray(self.theta(np.asarray(coords, dtype=float))) - self.level
        return -((-v + math.pi) % TWO_PI - math.pi)

    def refusals(self, coords: np.ndarray) -> list:
        """Per point of coords (n, dim), None when it lies within ON_SECTION_TOL
        of the level, else why it is refused: "not on the section: |theta -
        level| = ... > ON_SECTION_TOL" (a NaN distance is refused too)."""
        off = np.abs(np.asarray(self.offset(coords), dtype=float))
        return [None if o <= ON_SECTION_TOL else
                f"not on the section: |theta - level| = {o:.3e} > {ON_SECTION_TOL}"
                for o in off.tolist()]


def coordinate_section(chart: ChartManifold, index: int, level: float = 0.0,
                       orientation: int = 1) -> SectionSpec:
    """Section {x_index = level}: the leaf of the unit winding vector
    e_index at the angle level * 2 pi / period (`leaf_section`).  Raises
    ValueError for a coordinate that is not periodic."""
    n = np.zeros(chart.dim, dtype=int)
    n[index] = 1
    return leaf_section(chart, n, level * (TWO_PI / chart.periods[index]), orientation)


#: libm's atan2 elementwise, as an object array (a Python float for one point):
#: NumPy's arctan2 rounds differently at each SIMD level a CPU dispatches
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def angle_section(pair: tuple[int, int] = (2, 3)) -> SectionSpec:
    """Phase-angle section of one oscillator pair, counted where the angle
    increases along the flow; singular at zero amplitude of that pair."""
    i, j = pair

    def theta(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(_ATAN2(-x[..., j], x[..., i]), dtype=float) % TWO_PI

    def dtheta(x, X):
        xi, xj = x[..., i], x[..., j]
        r2 = xi * xi + xj * xj
        if np.count_nonzero(r2) == r2.size:   # the quiet block costs more than the rate
            return xj / r2 * X[..., i] - xi / r2 * X[..., j]
        # NaN on the zero-amplitude orbit is deliberate: the section is
        # singular there and the crossing scan reports it as a failure
        with np.errstate(invalid="ignore", divide="ignore"):
            return xj / r2 * X[..., i] - xi / r2 * X[..., j]

    return SectionSpec(theta, dtheta)


def leaf_section(chart: ChartManifold, n: Sequence[int], level: float = 0.0,
                 orientation: int = 1) -> SectionSpec:
    """Compact leaf of the fibration of a closed one-form with integer periods
    n (`tischler.rationalize`) on the chart, as a section; every linear
    section is one (`coordinate_section`).

    The circle-valued map theta = (2 pi / g) sum_i n_i x_i / L_i mod 2 pi,
    with L_i the periods and g the gcd of the integers, winds n_i / g times
    around coordinate i, and dividing by g makes its fibers connected.  Its
    level set at the angle ``level`` is a compact leaf.  Raises ValueError
    when every n_i vanishes, and for an n_i != 0 on a coordinate that is not
    periodic: there x_i mod L_i would count the crossings of every lattice
    value x_i = c + k L_i as returns.
    """
    n = np.asarray(n, dtype=int)
    if not np.any(n):
        raise ValueError("all integers vanish: the rationalized form defines no fibration")
    for i in np.flatnonzero((n != 0) & ~np.asarray(chart.periodic)).tolist():
        raise ValueError(f"coordinate {i} is not periodic, so no circle-valued section "
                         f"winds around it (n_{i} = {n[i]})")
    g = int(np.gcd.reduce(np.abs(n[n != 0])))
    grad = n * (TWO_PI / g) / np.asarray(chart.periods)   # the constant gradient of theta
    return SectionSpec(theta=lambda x: np.dot(x, grad) % TWO_PI,
                       dtheta=lambda x, X: np.dot(X, grad), level=level % TWO_PI,
                       orientation=orientation)


_ROWS = ("starts", "times", "states", "margins", "residuals", "crossings_seen")


class Crossings:
    """The first k oriented crossings of a batch of orbits: row i, column j
    is crossing j of orbit i.

    ``starts`` holds the state each row was scanned from and ``tol`` the
    integrator tolerance the crossings were certified at.  ``times`` are
    signed crossing times since the start (negative when scanning backward)
    and ``states`` the crossing states, reduced to the chart.  ``margins`` is
    the least |d theta/dt| at the crossing before it (the start, for the
    first) and at the step ends between, and ``residuals`` the final
    |theta - level|.
    ``crossings_seen`` counts the lattice passages since the crossing before,
    up to and including this one, through the first uncertified crossing,
    and is 0 after it.  ``failures`` holds per orbit None, or (certified
    count, why the next crossing failed or is missing).  An orbit's certified
    crossings are its leading ones that pass every bound; only they hold
    values, the other entries are NaN.
    """

    def __init__(self, starts: np.ndarray, times: np.ndarray, states: np.ndarray,
                 margins: np.ndarray, residuals: np.ndarray, crossings_seen: np.ndarray,
                 failures: list, tol: float):
        self.starts, self.times, self.states = starts, times, states
        self.margins, self.residuals, self.crossings_seen = margins, residuals, crossings_seen
        self.failures, self.tol = failures, tol

    @property
    def ok(self) -> np.ndarray:
        """The certified entries."""
        return ~np.isnan(self.times)

    def select(self, rows) -> Crossings:
        """The record of the given rows (indices, a mask or a slice), in their
        order.  Orbits are scanned on their own steps, so it is the record a
        scan of those starts alone gives, up to the rounding of the stage
        sums over a batch."""
        rows = np.arange(len(self.starts))[rows]
        return Crossings(*(getattr(self, name)[rows] for name in _ROWS),
                         [self.failures[i] for i in rows.tolist()], self.tol)


def _blank(starts: np.ndarray, k: int, tol: float, failures: list) -> Crossings:
    """The record of starts (n, dim) with no crossing certified yet: NaN
    values and no passages."""
    n, dim = starts.shape
    nan = [np.full((n, k) + shape, np.nan) for shape in ((), (dim,), (), ())]
    return Crossings(starts, *nan, np.zeros((n, k), dtype=int), failures, tol)


class GlobalityReport:
    """Outcome of `verify_global`; ``forward`` is the forward scan's record
    (None for an empty sample set), kept out of `as_dict`."""

    def __init__(self, n_samples: int, failures: list, min_margin: float,
                 max_return_time: float, vacuous: bool = False,
                 forward: Optional[Crossings] = None):
        self.n_samples, self.failures, self.min_margin = n_samples, failures, min_margin
        self.max_return_time, self.vacuous, self.forward = max_return_time, vacuous, forward

    @property
    def n_pass(self) -> int:
        return self.n_samples - len({f[0] for f in self.failures})

    @property
    def passed(self) -> bool:
        """No sample failed, and there was at least one sample."""
        return not self.failures and not self.vacuous

    def as_dict(self) -> dict:
        return {"n_samples": self.n_samples, "n_pass": self.n_pass,
                "failures": [list(f) for f in self.failures],
                "min_margin": self.min_margin,
                "max_return_time": self.max_return_time,
                "vacuous": self.vacuous}


def _clamp(rate: np.ndarray, oriented: int) -> np.ndarray:
    """Rate pushed to at least TANGENCY_MARGIN in the crossing direction."""
    return oriented * np.maximum(oriented * rate, TANGENCY_MARGIN)


def _polish(field, sec: SectionSpec, x: np.ndarray, oriented: int):
    """At most 8 Newton steps on the section angle for every row of x,
    advancing by single classical fourth-order flow steps (the corrections
    are tiny, so they keep full precision).  A row stops where it and its Newton iterate are within
    ANGLE_RESIDUAL and the iterate is on the section or no closer: as close
    as Newton gets, and noise that brings the angle under the bound once does
    not pass.  Returns states, time corrections, the larger residual of each
    row's last state and iterate, and its least |rate| within the bound (a
    near-tangent orbit stays within it long)."""
    x = np.array(x, dtype=float)
    f = np.asarray(sec.offset(x), dtype=float)
    residual, t_corr, slowest = np.abs(f), np.zeros(len(x)), np.full(len(x), np.inf)
    todo = np.arange(len(x))
    for _ in range(8):
        if not todo.size:
            break
        X = field(x[todo])
        rate = sec.dtheta(x[todo], X)
        near = np.abs(f[todo]) < ANGLE_RESIDUAL
        slowest[todo[near]] = np.minimum(slowest[todo[near]], np.abs(rate[near]))
        dt = -f[todo] / _clamp(rate, oriented)
        h = dt[:, None]
        k2 = field(x[todo] + 0.5 * h * X)
        k3 = field(x[todo] + 0.5 * h * k2)
        k4 = field(x[todo] + h * k3)
        step = x[todo] + (h / 6.0) * (X + 2 * k2 + 2 * k3 + k4)
        f_step = np.asarray(sec.offset(step), dtype=float)
        residual[todo] = np.maximum(np.abs(f[todo]), np.abs(f_step))
        under = residual[todo] < ANGLE_RESIDUAL
        move = ~under | (np.abs(f_step) < np.abs(f[todo]))
        x[todo[move]], f[todo[move]] = step[move], f_step[move]
        t_corr[todo[move]] += dt[move]
        todo = todo[move & ~(under & (f_step == 0))]
    return x, t_corr, residual, slowest


class _Scan:
    """Step hook of a crossing scan (`dop853.solve`) over n orbits, an orbit
    per integrator row.  It lifts each orbit's angle from step end to step
    end, keeps its least |rate| there, and applies three rules to each
    attempted step:

    - angles: the step sweeps at most pi/2 of angle, by either end's rate
      times its length and by its wrapped angle change;
    - turning: where the rate changes sign and the linearly interpolated peak
      of the lift comes within NEAR_LATTICE of a lattice value neither end
      has passed, the step ends at the turning time (exempting it and the next);
    - passage: a step whose end has passed a lattice value upward holds a
      crossing; its orbit, index, bracket, and the passages and least |rate|
      since the one before go into the log.  An orbit stops at its k-th, or at
      a step end t_max past its last (or the start)."""

    def __init__(self, sec: SectionSpec, field, starts: np.ndarray, oriented: int,
                 k: int, t_max: float):
        n = len(starts)
        self.sec, self.oriented, self.k, self.t_max = sec, oriented, k, t_max
        self.theta = np.array(sec.theta(starts), dtype=float)
        self.rate = np.asarray(sec.dtheta(starts, field(starts)), dtype=float)
        self.lift, self.margins = self.theta.copy(), np.abs(self.rate)
        w = self._turns(self.lift)
        own = np.round(w)
        self.cell = np.where(np.abs(w - own) * TWO_PI <= ON_SECTION_TOL, own, np.floor(w + 1e-12))
        self.seen, self.count = np.zeros(n), np.zeros(n, dtype=int)   # passages, crossings
        self.deadline = np.full(n, float(t_max))   # -inf once an orbit has all k
        self.turning = np.zeros(n, dtype=int)   # accepted steps left exempt from the turning rule
        # per step with crossings, the arrays of its crossings, after an empty entry
        self.log = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), starts[:0],
                     *np.zeros((6, 0)))]

    def _turns(self, v: np.ndarray) -> np.ndarray:
        """Oriented turns of lifted angles past the level."""
        return (v - self.sec.level if self.oriented > 0 else self.sec.level - v) / TWO_PI

    def __call__(self, rows, t, y, t_new, y_new, f, f_new):
        # every row in order while none has finished: slices, not gathers
        sel = slice(None) if len(rows) == len(self.turning) else rows
        r0, lift0 = self.rate[sel], self.lift[sel]
        r1 = self.sec.dtheta(y_new, f_new)
        theta, abs1 = self.sec.theta(y_new), np.abs(r1)
        lift1, h = lift0 - ((self.theta[sel] - theta + math.pi) % TWO_PI - math.pi), t_new - t
        speed = np.fmax(np.fmax(np.abs(r0), abs1), np.abs(lift1 - lift0) / h)
        allowed = (0.5 * math.pi / speed if np.count_nonzero(speed > 0) == len(rows) else
                   np.divide(0.5 * math.pi, speed, out=np.full(len(rows), np.inf),
                             where=speed > 0))
        ok, cap = h <= allowed, 0.9 * allowed   # a cap under the bound: steady rates pass it
        flips = r0 * r1 < 0
        if np.count_nonzero(flips):
            i = np.flatnonzero(flips & (self.turning[sel] == 0))
            frac = r0[i] / (r0[i] - r1[i])
            w0 = self._turns(lift0[i])
            cell = np.floor(w0 + 1e-12)
            peak = w0 + self.oriented * 0.5 * r0[i] * frac * h[i] / TWO_PI
            near = np.floor(self._turns(lift1[i]) + 1e-12) == cell
            near &= (peak + NEAR_LATTICE >= cell + 1) | (peak - NEAR_LATTICE < cell)
            cut = np.full(len(rows), np.inf)
            cut[i[near]] = frac[near] * h[i[near]]
            turn = cut < h
            self.turning[rows[turn & (cut <= cap)]] = 2
            ok &= ~turn
            cap = np.where(turn, np.minimum(cap, cut), cap)
        a = slice(None) if np.count_nonzero(ok) == len(rows) else np.flatnonzero(ok)
        ra = sel if isinstance(a, slice) else rows[a]
        if np.count_nonzero(self.turning):
            self.turning[ra] = np.maximum(self.turning[ra] - 1, 0)
        c1 = np.floor(self._turns(lift1[a]) + 1e-12)   # lattice cells at the step ends
        steps = c1 - self.cell[ra]
        if np.count_nonzero(steps):   # lattice values passed
            steps[~np.isfinite(steps)] = 0.0
            self.seen[ra] += np.abs(np.minimum(steps, 1))   # an upward one counts once
            up = steps > 0
            if np.count_nonzero(up):
                q = np.flatnonzero(up) if isinstance(a, slice) else a[up]
                rk = rows[q]
                c = self.count[rk]
                self.count[rk] = c + 1
                self.log.append((rk, c, y[q], lift0[q], self.cell[rk], t[q], t_new[q],
                                 self.seen[rk], self.margins[rk]))
                # the counts restart, and the crossing step's end rate is not in them
                self.seen[rk], self.margins[rk], abs1[q] = 0, np.inf, np.inf
                self.deadline[rk] = np.where(c + 1 < self.k, t_new[q] + self.t_max, -np.inf)
            self.cell[ra] = c1
        self.margins[ra] = np.minimum(self.margins[ra], abs1[a])
        self.theta[ra], self.lift[ra], self.rate[ra] = theta[a], lift1[a], r1[a]
        return ok, cap, ok & (t_new >= self.deadline[sel])


def first_crossings(system, sec: SectionSpec, starts: np.ndarray,
                    t_max: float = DEFAULT_T_MAX, tol: float = phase.DEFAULT_FLOW_TOL,
                    direction: int = 1, k: int = 1) -> Crossings:
    """The first k oriented crossings of the section along each start's orbit.

    ``starts`` is (n, dim), n orbits each on its own integrator steps; row i
    of the (n, k) record holds orbit i's crossings, in order.  ``direction``
    +1 scans forward time, -1 backward.  A start within ON_SECTION_TOL of a
    lattice value owns it: leaving it is not a crossing.  One integration steps each orbit
    through its crossings (`_Scan`), each within t_max of the one before (or
    the start); one Hénon batch and one polish certify them all.  The Hénon
    batch starts each crossing with one step over its whole angle gap, at
    most the pi/2 its bracketing step swept; a step the error control
    rejects shrinks as any other.  Failures, a stalled integration among
    them, are record entries, not exceptions.  The record keeps the starts
    and tol.
    """
    starts = np.array(starts, dtype=float)
    n, dim = starts.shape
    # a backward scan integrates the reversed field forward
    field = system.field if direction > 0 else lambda x: -system.field(x)
    oriented = sec.orientation * direction
    scan = _Scan(sec, field, starts, oriented, k, t_max)
    failures = ["no crossing"] * n
    out = _blank(starts, k, tol, failures)
    try:
        phase.integrate_batch(field, starts, k * t_max, tol, step=scan)
    except StepSizeUnderflow as exc:
        # a crossing of the row before the stall gets its own verdict below
        for row, t in zip(exc.rows, exc.times):
            failures[row] = f"unconverged: integration stalled at t={t:.6g}"
    # per crossing its passages and margin; an orbit's entry after its last
    # crossing holds what it counted since
    seen, margins = out.crossings_seen, out.margins
    last = np.flatnonzero(scan.count < k)
    seen[last, scan.count[last]], margins[last, scan.count[last]] = (scan.seen[last],
                                                                     scan.margins[last])
    rk, c, left, lift0, cell, t0, t1, seen_c, margins_c = map(np.concatenate, zip(*scan.log))
    seen[rk, c], margins[rk, c] = seen_c, margins_c
    # one Hénon row per logged crossing, (row, column) of the record in its row-major
    # order: the step's start (state, time 0, angle gap) and the step times
    order = np.lexsort((c, rk))
    rows, cols = rk[order], c[order]
    gap = sec.level - lift0 + oriented * TWO_PI * (cell + 1)
    bracket = np.column_stack([left, np.zeros(len(rk)), gap, t0, t1])[order]

    def henon(y):
        """Rows (x, t, dv) over the lifted angle s in [0, 1]: dx/ds = dv X / r and
        dt/ds = dv / r, with dv the row's angle gap and r the clamped rate."""
        x, dv = y[:, :-2], y[:, -1]
        X = field(x)
        dt = dv / _clamp(sec.dtheta(x, X), oriented)
        return np.concatenate([X * dt[:, None], dt[:, None], np.zeros((len(y), 1))], axis=1)

    y = phase.integrate_batch(henon, bracket[:, :dim + 2], 1.0, tol, first_step=1.0)
    x, t_corr, residual, slowest = _polish(field, sec, y[:, :dim], oriented)
    t_left, t_right = bracket[:, dim + 2:].T
    t_local = t_left + y[:, dim] + t_corr
    out.times[rows, cols], out.states[rows, cols] = direction * t_local, x
    rates = np.full((n, k), np.nan)   # d theta/dt along the true flow
    rates[rows, cols], out.residuals[rows, cols] = sec.dtheta(x, system.field(x)), residual
    # a return starts at the crossing before it, at that crossing's rate
    margins[:, 1:] = np.fmin(margins[:, 1:], np.abs(rates[:, :-1]))
    rate = np.minimum(np.abs(rates[rows, cols]), slowest)
    slack = 1e-3 * (t_right - t_left)
    late = t_local - np.where(cols > 0, direction * out.times[rows, cols - 1], 0.0) > t_max
    tangent = ~(rate >= TANGENCY_MARGIN)
    loose = ~(residual < ANGLE_RESIDUAL)
    outside = ~((t_left - slack <= t_local) & (t_local <= t_right + slack))
    bad = late | tangent | loose | outside
    good = np.zeros((n, k), dtype=bool)
    good[rows, cols] = ~bad
    # an orbit's record ends at its first crossing that is missing or fails
    completed = np.cumprod(good, axis=1).sum(axis=1)
    for e in np.flatnonzero(bad & (cols == completed[rows])).tolist():
        t = out.times[rows[e], cols[e]]
        failures[rows[e]] = "no crossing" if late[e] else (
            f"tangency: grazing crossing at t={t:.6g}: |d theta/dt| = {rate[e]:.3e}"
            f" < {TANGENCY_MARGIN}" if tangent[e] else
            f"unconverged: angular residual {residual[e]:.3e} >= {ANGLE_RESIDUAL}" if loose[e]
            else f"outside bracket: crossing at t={t:.6g} outside the bracketing step of its orbit")
    out.failures = [None if c == k else (c, f) for c, f in zip(completed.tolist(), failures)]
    # only certified entries keep values, and passages count through the first failure
    ok = np.arange(k) < completed[:, None]
    for values in (out.times, out.states, out.margins, out.residuals):
        values[~ok] = np.nan
    out.states[ok] = system.manifold.reduce(out.states[ok])
    seen[np.arange(k) > completed[:, None]] = 0
    return out


def iterate_returns(system, sec: SectionSpec, starts: np.ndarray, k: int,
                    t_max: float = DEFAULT_T_MAX,
                    tol: float = phase.DEFAULT_FLOW_TOL) -> Crossings:
    """The first k positively-oriented crossings of every start, from one
    `first_crossings` call: crossing j is the image of return j, which runs
    from crossing j - 1 (the start, for j = 0).

    A start must lie on the section and be transverse to the flow; one that
    does not gets an empty row and the failure (0, reason).  An orbit whose
    crossing fails its bounds stops there; its earlier returns stand.
    """
    x = system.manifold.reduce(np.atleast_2d(np.asarray(starts, dtype=float)))
    rate = np.abs(np.asarray(sec.dtheta(x, system.field(x)), dtype=float))
    reasons = [f"start point is {refusal}" if refusal else
               f"tangency: flow tangent to section at start: |d theta/dt| = {r:.3e}"
               if not r >= TANGENCY_MARGIN else None for refusal, r in zip(sec.refusals(x), rate)]
    ready = np.flatnonzero([r is None for r in reasons])
    c = first_crossings(system, sec, x[ready], t_max, tol, k=k)
    # a refused start keeps a blank row
    failures = iter(c.failures)
    out = _blank(x, k, tol, [next(failures) if r is None else (0, r) for r in reasons])
    for name in _ROWS[1:]:
        getattr(out, name)[ready] = getattr(c, name)
    return out


def verify_global(system, sec: SectionSpec, samples: np.ndarray,
                  t_max: float = DEFAULT_T_MAX,
                  tol: float = phase.DEFAULT_FLOW_TOL) -> GlobalityReport:
    """Check that every sampled orbit crosses the section in forward and in
    backward time within t_max.

    Failures (no crossing, tangency, unconverged refinement) are report
    entries, not exceptions.  The report carries the minimal transversality
    margin and the maximal forward crossing time over the accepted
    crossings.  Globality is certified over the sample set only.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        return GlobalityReport(0, [], math.inf, 0.0, vacuous=True)
    forward, backward = (first_crossings(system, sec, samples, t_max, tol, direction)
                         for direction in (1, -1))
    failures = [(i, label, f[1]) for c, label in ((forward, "forward"), (backward, "backward"))
                for i, f in enumerate(c.failures) if f is not None]
    margins = np.concatenate([forward.margins[forward.ok], backward.margins[backward.ok]])
    return GlobalityReport(len(samples), failures, float(np.min(margins, initial=math.inf)),
                           float(np.max(np.abs(forward.times[forward.ok]), initial=0.0)),
                           forward=forward)


# -- return-map Jacobian ------------------------------------------------------


def section_frame(system, sec: SectionSpec, x: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The section's local graph chart through the point x (reduced to the
    chart first): its free coordinates and its tangent frame E there.

    Eliminates the coordinates best aligned with (d theta, dH) (only the
    theta constraint for plain flows) and treats the section as a graph over
    the remaining ones.  For Hamiltonian systems a full conjugate coordinate
    pair (2i, 2i+1) is eliminated whenever one carries the constraints: with
    a pairwise-block symplectic form the remaining coordinates then inherit a
    constant restricted form, which is what makes the return-map determinant
    equal to one.  E (dim, len(free)) has one column per free coordinate, the
    implicit-function derivative of the graph: E[free] = I and
    E[elim] = -G_elim^-1 G_free, with G the constraint gradients.  Raises
    SectionRefusal where a constraint gradient is not finite or no
    elimination block is invertible.
    """
    x = system.manifold.reduce(x)
    dim = x.size
    G = _constraint_grads(system, sec, x)
    if not np.isfinite(G).all():   # a singular section, such as an angle at zero amplitude
        raise SectionRefusal("non-finite constraint gradients: the section is singular here")
    n_con = G.shape[0]
    pairs = [[(2 * i, 2 * i + 1) for i in range(dim // 2)]] if n_con == 2 and dim % 2 == 0 else []
    candidates = pairs + [list(combinations(range(dim), n_con))]
    elim, best = None, -1.0
    for group in candidates:
        for cols in group:
            d = abs(np.linalg.det(G[:, cols]))
            if d > best:
                best, elim = d, cols
        if best > 1e-8:
            break
    if best < ELIMINATION_DET_MIN:
        raise SectionRefusal("degenerate constraints: no invertible elimination block")
    free = tuple(i for i in range(dim) if i not in elim)
    E = np.zeros((dim, len(free)))
    E[free, np.arange(len(free))] = 1.0
    E[list(elim), :] = -np.linalg.solve(G[:, list(elim)], G[:, free])
    return free, E


def _constraint_grads(system, sec: SectionSpec, x: np.ndarray) -> np.ndarray:
    """Gradients of the section's constraints at x: d theta, read off the
    rate along each coordinate vector, and dH for a Hamiltonian system."""
    dim = len(x)
    g = [np.asarray(sec.dtheta(np.broadcast_to(x, (dim, dim)), np.eye(dim)), dtype=float)]
    if hasattr(system, "grad_h"):
        g.append(np.asarray(system.grad_h(x), dtype=float))
    return np.stack(g)


def restricted_form_matrix(system, sec: SectionSpec, x: np.ndarray) -> np.ndarray:
    """Matrix of the ambient two-form on the section's tangent frame E at the
    point x (reduced to the chart first), one column per section coordinate
    (`section_frame`)."""
    E = section_frame(system, sec, x)[1]
    return E.T @ two_form_matrix(system.omega, system.manifold.reduce(x)) @ E


def _flow(system, x: np.ndarray, times: np.ndarray, tol: float) -> np.ndarray:
    """End states (g, m, dim) of the flow from each state of x (g, m, dim)
    over its time, times (g, m), in one batched integration: the state
    (x, tau) follows dx/ds = tau X(x), dtau/ds = 0 over s in [0, 1].  The m
    states of a group are stacked into one integrator row, so they share one
    step sequence (and so one smooth integration error)."""
    g, m, dim = x.shape

    def stacked(y):
        z = y.reshape(-1, dim + 1)
        return np.concatenate([system.field(z[:, :-1]) * z[:, -1:],
                               np.zeros((len(z), 1))], 1).reshape(y.shape)

    rows = np.concatenate([x, times[..., None]], -1).reshape(g, m * (dim + 1))
    return phase.integrate_batch(stacked, rows, 1.0, tol).reshape(g, m, dim + 1)[..., :-1]


def _certified_returns(system, sec: SectionSpec, record: Crossings):
    """Starts (n, dim), reduced to the chart, and the times (n, 1) and
    states (n, dim) of their first crossings, read off column 0 of the
    record.  Raises SectionRefusal for the first start with no certified
    first crossing, its reason the record's, else for the first start off
    the section."""
    for i, f in enumerate(record.failures):
        if f and f[0] == 0:
            raise SectionRefusal(f"point {i} has no certified first crossing: {f[1]}", f[1])
    x = system.manifold.reduce(record.starts)
    for i, refusal in enumerate(sec.refusals(x)):
        if refusal:
            raise SectionRefusal(f"point {i} is {refusal}")
    return x, record.times[:, :1], record.states[:, 0]


def return_map_jacobians(system, sec: SectionSpec, record: Crossings) -> np.ndarray:
    """Jacobians of the return map, one (k, k) block per start of the
    certified crossing record (reduced to the chart first), in its section
    coordinates (`section_frame`).  Raises SectionRefusal, before any
    integration, for a start with no certified first crossing, then for one
    off the section, then for one with no section chart.

    The record is `iterate_returns` of the points, or `verify_global`'s
    forward record, or a row selection of either (`Crossings.select`).  Its
    column 0 gives each start's return time T and image y, and the flow is
    integrated at the record's tol.  The flow over the fixed time T
    is differentiated along the frame: D_a is the central difference of Phi_T
    over the stencil x +- h_a E_a, with the relative step
    h_a = FD_STEP * max(1, |x_a|) of free coordinate a, so the stencil does
    not round back onto its centre at large amplitudes.  A stencil need not
    lie on the section or the energy level: Phi_T is smooth, and the offset,
    quadratic in h_a, cancels in D_a.  A point's 2k stencils flow as one group
    on one step sequence, so the smooth integration error cancels too; their
    end states are unreduced, continuous in the start, so raw differences
    need no period wrapping.  Column a is the free coordinates of
    D_a - X(y) d theta_y(D_a) / d theta_y(X(y)): the Poincaré-map derivative
    (I - X (x) d theta / d theta(X)) DPhi_T (T. S. Parker and L. O. Chua,
    *Practical Numerical Algorithms for Chaotic Systems*, Springer 1989,
    ch. 3).  For two-dimensional sections the determinant is 1 up to
    integration error (the return map preserves the restricted symplectic
    form).
    """
    chart = system.manifold
    x, T, y = _certified_returns(system, sec, record)
    frames = [section_frame(system, sec, p) for p in x]
    n, k = len(frames), len(frames[0][0]) if frames else 0
    if not k:  # no points, or a zero-dimensional section: nothing to differentiate
        return np.zeros((n, 0, 0))
    free = np.array([f for f, _ in frames])                          # (n, k)
    h = FD_STEP * np.maximum(1.0, np.abs(np.take_along_axis(x, free, 1)))
    offsets = np.stack([E.T for _, E in frames]) * h[..., None]      # (n, k, dim)
    stencils = x[:, None, None] + np.array([1.0, -1.0])[:, None] * offsets[:, :, None]
    ends = _flow(system, stencils.reshape(n, 2 * k, chart.dim), np.repeat(T, 2 * k, axis=1),
                 record.tol).reshape(n, k, 2, chart.dim)
    D = (ends[:, :, 0] - ends[:, :, 1]) / (2.0 * h[..., None])
    X = system.field(y)
    lead = sec.dtheta(y[:, None], D) / sec.dtheta(y, X)[:, None]   # (n, k): -dT along E_a
    DP = D - X[:, None] * lead[..., None]
    return np.take_along_axis(DP, free[:, None], 2).transpose(0, 2, 1)


# -- mapping torus ------------------------------------------------------------


class MappingTorusChart:
    """Tabulated suspension chart Psi(p, t) = flow_{t*T(p)}(p) over a fiber
    grid, at the fiber times t = linspace(0, 1, TORUS_TIMES), integrated at
    tolerance ``tol``; ``table`` is (n_grid, TORUS_TIMES, dim), in reduced
    coordinates.  ``drifts`` (n_grid,) is each row's largest |H - H(p)| off
    its start's level ``levels`` H(p) (both 0 for a plain flow)."""

    def __init__(self, table: np.ndarray, gluing_residual: float, drifts: np.ndarray,
                 levels: np.ndarray, tol: float):
        self.table, self.gluing_residual = table, gluing_residual
        self.drifts, self.levels, self.tol = drifts, levels, tol
        self.energy_residual = float(np.max(drifts))   # the largest drift of an entry

    @property
    def passed(self) -> bool:
        """The gluing residual is within GLUING_FACTOR * tol, and each row
        keeps to its level within LEVEL_TOL * max(1, |H(p)|), the bound of a
        slice's `phase.EnergySurface.check`."""
        return (self.gluing_residual <= GLUING_FACTOR * self.tol
                and bool(np.all(self.drifts <= LEVEL_TOL * np.maximum(1.0, np.abs(self.levels)))))


def mapping_torus_chart(system, sec: SectionSpec, record: Crossings) -> MappingTorusChart:
    """Tabulate the suspension chart over the starts of a certified crossing
    record, reduced to the chart first, at TORUS_TIMES fiber times.

    Column 0 of the record gives the return time T(p) and the holonomy image
    of each start p, and the table is integrated at the record's tol.  Every
    entry after t = 0 comes from one batched integration (`_flow`) over the
    time t * T(p), each on its own steps.  The t = 1 rows are integrated
    apart from the crossing engine, so the gluing residual |Psi(p, 1) -
    holonomy(p)| compares two independent computations.  For Hamiltonian
    systems each row's drift off its start's energy level is kept (0
    otherwise); `MappingTorusChart.passed` holds both to their bounds.
    """
    chart = system.manifold
    starts, T, holonomy = _certified_returns(system, sec, record)
    n, dim = starts.shape
    taus = T * np.linspace(0.0, 1.0, TORUS_TIMES)[1:]   # (n, TORUS_TIMES - 1)
    ends = _flow(system, np.repeat(starts, TORUS_TIMES - 1, axis=0)[:, None],
                 taus.reshape(-1, 1), record.tol)
    states = np.concatenate([starts[:, None], ends.reshape(n, TORUS_TIMES - 1, dim)], 1)
    table = chart.reduce(states)
    gluing = float(np.max(np.abs(chart.wrapped_delta(table[:, -1], holonomy))))
    levels = drifts = np.zeros(n)
    if hasattr(system, "energy"):
        levels = system.energy(starts)
        drifts = np.max(np.abs(system.energy(states) - levels[:, None]), axis=1)
    return MappingTorusChart(table, gluing, drifts, levels, record.tol)


def write_crossings_csv(path, record: Crossings) -> None:
    """The certified crossings of a record, orbit by orbit, one row each.

    Columns: orbit_id, t, coord_0 .. coord_{dim-1}, margin.
    """
    ok = record.ok
    dim = record.states.shape[-1]
    values = np.column_stack([record.times[ok], record.states[ok], record.margins[ok]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["orbit_id", "t"] + [f"coord_{i}" for i in range(dim)] + ["margin"])
        writer.writerows([orbit, *map(repr, row)]
                         for orbit, row in zip(np.nonzero(ok)[0].tolist(), values.tolist()))
