"""Poincaré sections: crossing detection, first-return maps, globality checks
and the mapping-torus chart of a verified section.

The section function is circle valued, and a section supplies its rate along
a field in closed form.  Along an orbit its angle is lifted to a continuous
real value, and crossings of the level set are located where the lift passes a
lattice value ``level + 2*pi*z`` (z an integer).  Only crossings whose
oriented time derivative is positive are counted; a two-sided count would
double-cover the mapping-torus fiber.

Every crossing comes from one batched engine, `first_crossings`, which
follows each orbit through its first k crossings in three steps:

- bracket: each orbit, or group of orbits sharing one step sequence, takes
  its own DOP853 steps, and a step hook (`_Scan`) follows its lifted angle
  from step end to step end.  A step sweeps at most pi/2 of angle and ends at
  a turning point of the lift near a lattice value, so a short excursion
  through the section is seen.  Each step that passes a lattice value upward
  holds a crossing, and the orbit is stepped no further than its k-th;
- refine: a batched Hénon step (M. Hénon, Physica D 5 (1982) 412) per
  crossing integrates over the lifted angle from that step's left end, an
  accepted integrator state, exactly onto the lattice value;
- polish and check: vectorised Newton steps with fourth-order flow
  micro-steps.  A crossing is accepted only if its time lies inside its step
  and within t_max of the crossing before, its angular residual is below
  1e-12 and its rate is at least TANGENCY_MARGIN; anything else, and an
  integration that stalls, ends the orbit's record with a failure.

Return-map iteration (`iterate_returns`: k returns of a batch are one engine
call, a first return is k = 1), globality checks and return-map Jacobians
all go through the engine, so the same bounds hold on every path.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .forms import ChartManifold, two_form_matrix
from . import phase

TWO_PI = 2.0 * math.pi

TANGENCY_MARGIN = 1e-8
ANGLE_RESIDUAL = 1e-12
ON_SECTION_TOL = 1e-8
NEAR_LATTICE = 1e-3     # lattice units (turns of the section angle)
DEFAULT_T_MAX = 1e3
ENERGY_RESIDUAL_MAX = 1e-8   # largest |H - H(p)| over a mapping-torus table
GLUING_FACTOR = 10.0   # largest gluing residual of a mapping-torus table, in units of tol
DET_ERROR_MAX = 1e-6   # largest |det J - 1| of a return-map Jacobian that passes
ELIMINATION_DET_MIN = 1e-12   # smallest |det| of a section chart's elimination block
EMBED_TOL = 1e-13   # section-chart Newton stop; the energy row's is times max(1, |level|)
FD_STEP = 1e-6   # relative central-difference step of a return-map Jacobian
TORUS_TIMES = 9   # fiber times t of a mapping-torus table, evenly spaced over [0, 1]


class TangencyError(RuntimeError):
    """Grazing crossing: the section derivative fell below the margin."""


class NoCrossingError(RuntimeError):
    """No oriented crossing found before t_max."""


class RefinementError(RuntimeError):
    """A bracketed crossing missed its angular residual or left its bracket."""


class GluingError(RuntimeError):
    """Mapping-torus gluing or energy residual beyond tolerance."""


class SectionChartError(ValueError):
    """The section has no local graph chart at a point: its constraints have no
    invertible elimination block there, or the embedding Newton iteration does not
    converge."""


# a crossing, or a section chart, that cannot be found or certified fails its check
CROSSING_ERRORS = (NoCrossingError, TangencyError, RefinementError, SectionChartError)


@dataclass(frozen=True, eq=False)
class SectionSpec:
    """Circle-valued section function with level and crossing orientation.

    ``theta`` maps coordinates (..., dim) to an angle, and ``dtheta`` maps
    states x and vectors X (both (..., dim)) to d theta_x(X) in closed form:
    the rate of theta along the flow when X is the field at x, and the
    gradient of theta when X runs through the coordinate vectors.
    Orientation +1 counts crossings where theta increases along the flow.
    """

    theta: Callable[[np.ndarray], np.ndarray]
    dtheta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    level: float = 0.0
    orientation: int = 1
    name: str = ""

    def offset(self, coords: np.ndarray) -> np.ndarray:
        """Signed angular distance to the level, wrapped to (-pi, pi]."""
        v = np.asarray(self.theta(np.asarray(coords, dtype=float))) - self.level
        return -((-v + math.pi) % TWO_PI - math.pi)


def coordinate_section(chart: ChartManifold, index: int, level: float = 0.0,
                       orientation: int = 1, name: str = "") -> SectionSpec:
    """Section {x_index = level} for a periodic coordinate."""
    scale = TWO_PI / chart.periods[index]
    return SectionSpec(
        theta=lambda x: (np.asarray(x, dtype=float)[..., index] * scale) % TWO_PI,
        dtheta=lambda x, X: scale * X[..., index],
        level=(level * scale) % TWO_PI,
        orientation=orientation,
        name=name or f"coord{index}={level}")


_FAILURE_ERRORS = {"no crossing": NoCrossingError, "tangency": TangencyError,
                   "start point is not on the section": ValueError}


def _raise_first(reasons) -> None:
    """Raise the error of the first reason that is not None, if there is one."""
    for reason in reasons:
        if reason is not None:
            raise _FAILURE_ERRORS.get(reason.split(":")[0], RefinementError)(reason)


@dataclass(eq=False)
class Crossings:
    """The first k oriented crossings of a batch of orbits: entry i * k + j
    is crossing j of orbit i.

    ``times`` are signed (negative when scanning backward) and ``states`` are
    unreduced coordinates.  ``rates`` is d theta/dt along the true flow at a
    crossing, ``margins`` the least |d theta/dt| at the crossing before it
    (the start, for the first) and at the step ends between, ``residuals``
    the final |theta - level| and ``crossings_seen`` the lattice passages
    counted since the crossing before, up to and including this one.  ``ok``
    marks each orbit's certified crossings, the leading ones that pass every
    bound.  ``failures`` holds per orbit None, or why its first uncertified
    crossing failed or is missing.  Entries without a bracket keep NaN.
    """

    times: np.ndarray
    states: np.ndarray
    rates: np.ndarray
    margins: np.ndarray
    residuals: np.ndarray
    crossings_seen: np.ndarray
    failures: list
    ok: np.ndarray

    def raise_failure(self) -> None:
        """Raise the error of the first failed orbit, if there is one."""
        _raise_first(self.failures)


@dataclass(eq=False)
class Returns:
    """k successive first returns of a batch of orbits: row i, column j is
    the j-th return of orbit i.

    The entries come from one `first_crossings` record: ``times`` are the
    differences of consecutive crossing times, ``images`` the reduced
    crossing states, and ``margins``, ``residuals`` and ``crossings_seen``
    those of the crossings.  ``failures`` holds None per orbit, or (iterate,
    reason) for an orbit that stopped; its times, images, margins and
    residuals from that iterate on stay NaN.
    """

    times: np.ndarray
    images: np.ndarray
    margins: np.ndarray
    residuals: np.ndarray
    crossings_seen: np.ndarray
    failures: list

    def completed(self, orbit: int) -> int:
        """Number of certified iterates of an orbit."""
        failure = self.failures[orbit]
        return self.times.shape[1] if failure is None else failure[0]

    def raise_failure(self) -> None:
        """Raise the error of the first failed orbit, if there is one."""
        _raise_first(f and f[1] for f in self.failures)


@dataclass(eq=False)
class GlobalityReport:
    """Outcome of `verify_global`; ``forward`` is the forward scan's record
    (None for an empty sample set), kept out of `as_dict`."""

    n_samples: int
    failures: list
    min_margin: float
    max_return_time: float
    vacuous: bool = False
    forward: Optional[Crossings] = None

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
                "vacuous": self.vacuous, "passed": self.passed}


def _clamp(rate: np.ndarray, oriented: int) -> np.ndarray:
    """Rate pushed to at least TANGENCY_MARGIN in the crossing direction."""
    return oriented * np.maximum(oriented * rate, TANGENCY_MARGIN)


def _polish(field, sec: SectionSpec, x: np.ndarray, oriented: int, max_iter: int = 8):
    """Newton on the section angle for every row of x, advancing by single
    classical fourth-order flow steps (the corrections are tiny, so they keep
    full precision).  A row stops where it and its Newton iterate are within
    ANGLE_RESIDUAL and the iterate is on the section or no closer: as close
    as Newton gets, and noise that brings the angle under the bound once does
    not pass.  Returns states, time corrections, the larger residual of each
    row's last state and iterate, and its least |rate| within the bound (a
    near-tangent orbit stays within it long)."""
    x = np.array(x, dtype=float)
    f = np.asarray(sec.offset(x), dtype=float)
    residual, t_corr, slowest = np.abs(f), np.zeros(len(x)), np.full(len(x), np.inf)
    todo = np.arange(len(x))
    for _ in range(max_iter):
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
    """Step hook of a crossing scan (`dop853.solve`) over g groups of m
    orbits, a group per integrator row.  It lifts each orbit's angle from step
    end to step end, keeps its least |rate| there, and applies three rules to
    each attempted step over the orbits of the group still going:

    - angles: the step sweeps at most pi/2 of angle, by either end's rate
      times its length and by its wrapped angle change;
    - turning: where the rate changes sign and the linearly interpolated peak
      of the lift comes within NEAR_LATTICE of a lattice value neither end
      has passed, the step ends at the turning time (exempting it and the next);
    - passage: a step whose end has passed a lattice value upward holds a
      crossing; its orbit, index, bracket, and the passages and least |rate|
      since the one before go into the log.  An orbit stops at its k-th, or at
      a step end t_max past its last (or the start); a group once all have."""

    def __init__(self, sec: SectionSpec, field, starts: np.ndarray, oriented: int,
                 k: int, t_max: float):
        g, m, dim = starts.shape
        self.sec, self.oriented, self.shape, self.k, self.t_max = sec, oriented, (m, dim), k, t_max
        self.theta = np.array(sec.theta(starts), dtype=float)
        self.rate = np.asarray(sec.dtheta(starts, field(starts)), dtype=float)
        self.lift, self.margins = self.theta.copy(), np.abs(self.rate)
        w = self._turns(self.lift)
        own = np.round(w)
        self.cell = np.where(np.abs(w - own) * TWO_PI <= ON_SECTION_TOL, own, np.floor(w + 1e-12))
        self.seen, self.count = np.zeros((g, m)), np.zeros((g, m), dtype=int)   # passages, crossings
        self.deadline = np.full((g, m), float(t_max))   # -inf once an orbit has all k
        self.turning = np.zeros(g, dtype=int)   # accepted steps left exempt from the turning rule
        self.log = []   # per step with crossings, the arrays of its crossings

    def _turns(self, v: np.ndarray) -> np.ndarray:
        """Oriented turns of lifted angles past the level."""
        return (v - self.sec.level if self.oriented > 0 else self.sec.level - v) / TWO_PI

    def __call__(self, rows, t, y, t_new, y_new, f, f_new):
        # every row in order while none has finished: slices, not gathers
        sel = slice(None) if len(rows) == len(self.turning) else rows
        x1, r0, lift0 = y_new.reshape(-1, self.shape[1]), self.rate[sel], self.lift[sel]
        r1 = self.sec.dtheta(x1, f_new.reshape(x1.shape)).reshape(len(rows), -1)
        theta, abs1 = self.sec.theta(x1).reshape(len(rows), -1), np.abs(r1)
        lift1, h = lift0 - ((self.theta[sel] - theta + math.pi) % TWO_PI - math.pi), t_new - t
        # an orbit alone in its row goes on until the row is done
        going = True if self.shape[0] == 1 else t[:, None] < self.deadline[sel]
        all_going = going is True or np.count_nonzero(going) == going.size
        speed = np.fmax(np.fmax(np.abs(r0), abs1), np.abs(lift1 - lift0) / h[:, None])
        # pi/2 over the fastest going orbit's speed is the least of their bounds
        fastest = (speed[:, 0] if going is True else
                   np.fmax.reduce(speed if all_going else np.where(going, speed, 0.0), axis=1))
        allowed = (0.5 * math.pi / fastest if np.count_nonzero(fastest > 0) == len(rows) else
                   np.divide(0.5 * math.pi, fastest, out=np.full(len(rows), np.inf),
                             where=fastest > 0))
        ok, cap = h <= allowed, 0.9 * allowed   # a cap under the bound: steady rates pass it
        flips = r0 * r1 < 0
        if np.count_nonzero(flips):
            i, j = np.nonzero(going & flips & (self.turning[sel] == 0)[:, None])
            frac = r0[i, j] / (r0[i, j] - r1[i, j])
            w0 = self._turns(lift0[i, j])
            cell = np.floor(w0 + 1e-12)
            peak = w0 + self.oriented * 0.5 * r0[i, j] * frac * h[i] / TWO_PI
            near = np.floor(self._turns(lift1[i, j]) + 1e-12) == cell
            near &= (peak + NEAR_LATTICE >= cell + 1) | (peak - NEAR_LATTICE < cell)
            cut = np.full(len(rows), np.inf)
            np.minimum.at(cut, i[near], frac[near] * h[i[near]])
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
        if not all_going or np.count_nonzero(steps):   # lattice values passed
            steps[~np.isfinite(steps) if all_going else ~(np.isfinite(steps) & going[a])] = 0.0
            self.seen[ra] += np.abs(np.minimum(steps, 1))   # an upward one counts once
            up = steps > 0
            if np.count_nonzero(up):
                i, j = np.nonzero(up)
                q = i if isinstance(a, slice) else a[i]
                rk = rows[q]
                c = self.count[rk, j]
                self.count[rk, j] = c + 1
                self.log.append((rk, j, c, y.reshape(len(rows), *self.shape)[q, j], lift0[q, j],
                                 self.cell[rk, j], t[q], t_new[q], self.seen[rk, j],
                                 self.margins[rk, j]))
                # the counts restart, and the crossing step's end rate is not in them
                self.seen[rk, j], self.margins[rk, j], abs1[q, j] = 0, np.inf, np.inf
                self.deadline[rk, j] = np.where(c + 1 < self.k, t_new[q] + self.t_max, -np.inf)
            self.cell[ra] = c1
        self.margins[ra] = np.minimum(self.margins[ra], abs1[a] if all_going else
                                      np.where(going[a], abs1[a], np.inf))
        self.theta[ra], self.lift[ra], self.rate[ra] = theta[a], lift1[a], r1[a]
        latest = self.deadline[sel, 0] if going is True else self.deadline[sel].max(axis=1)
        return ok, cap, ok & (t_new >= latest)   # a group is done at its latest deadline


def first_crossings(system, sec: SectionSpec, starts: np.ndarray,
                    t_max: float = DEFAULT_T_MAX, tol: float = phase.DEFAULT_FLOW_TOL,
                    direction: int = 1, k: int = 1) -> Crossings:
    """The first k oriented crossings of the section along each start's orbit.

    ``starts`` is (n, dim), n orbits each on its own integrator steps, or
    (g, m, dim), g groups of m orbits on one shared step sequence each; the
    record has k entries per orbit, in order.  ``direction`` +1 scans forward
    time, -1 backward.  A start within ON_SECTION_TOL of a lattice value owns
    it: leaving it is not a crossing.  One integration steps each orbit
    through its crossings (`_Scan`), each within t_max of the one before (or
    the start); one Hénon batch and one polish certify them all.  Failures,
    a stalled integration among them, are entries, not exceptions.
    """
    starts = np.asarray(starts, dtype=float)
    groups = starts if starts.ndim == 3 else starts.reshape(-1, 1, starts.shape[-1])
    g, m, dim = groups.shape
    n = g * m
    # a backward scan integrates the reversed field forward
    field = system.field if direction > 0 else lambda x: -system.field(x)
    oriented = sec.orientation * direction
    scan = _Scan(sec, field, groups, oriented, k, t_max)
    failures = ["no crossing"] * n
    try:
        phase.integrate_batch(field, groups, 0.0, k * t_max, tol, step=scan)
    except phase.StepSizeUnderflow as exc:
        # a crossing of the row before the stall gets its own verdict below
        for row, t in zip(exc.rows, exc.times):
            failures[row * m:(row + 1) * m] = [f"unconverged: integration stalled at t={t:.6g}"] * m
    # the (g, m, k) record: per crossing the Hénon step's start (state, time 0, angle
    # gap; one not reached rides along with a zero gap), the step times, passages and
    # margin; an orbit's entry after its last crossing holds what it counted since
    bracket = np.concatenate([np.repeat(groups[:, :, None], k, 2), np.zeros((g, m, k, 2)),
                              np.full((g, m, k, 2), np.nan)], -1)
    seen, margins = np.zeros((g, m, k), dtype=int), np.full((g, m, k), np.nan)
    last = np.nonzero(scan.count < k)
    seen[last + (scan.count[last],)], margins[last + (scan.count[last],)] = (scan.seen[last],
                                                                             scan.margins[last])
    if scan.log:
        rk, j, c, left, lift0, cell, t0, t1, seen_c, margins_c = map(np.concatenate, zip(*scan.log))
        seen[rk, j, c], margins[rk, j, c] = seen_c, margins_c
        gap = sec.level - lift0 + oriented * TWO_PI * (cell + 1)
        bracket[rk, j, c] = np.column_stack([left, np.zeros(len(rk)), gap, t0, t1])
    out = Crossings(np.full(n * k, np.nan), np.full((n * k, dim), np.nan), np.full(n * k, np.nan),
                    margins.ravel(), np.full(n * k, np.nan), seen.ravel(), failures,
                    np.zeros(n * k, dtype=bool))
    # one Hénon row per group and crossing index
    hit = (np.arange(k) < scan.count[..., None]).transpose(0, 2, 1).reshape(g * k, m)
    bracket = bracket.transpose(0, 2, 1, 3).reshape(g * k, m, dim + 4)
    rows = np.flatnonzero(hit.any(axis=1))
    hit, bracket = hit[rows], bracket[rows]

    def henon(y):
        """Rows (x, t, dv) over the lifted angle s in [0, 1]: dx/ds = dv X / r and
        dt/ds = dv / r, with dv the row's angle gap and r the clamped rate."""
        x, dv = y[:, :-2], y[:, -1]
        X = field(x)
        dt = dv / _clamp(sec.dtheta(x, X), oriented)
        return np.concatenate([X * dt[:, None], dt[:, None], np.zeros((len(y), 1))], axis=1)

    y = phase.integrate_batch(henon, bracket[..., :dim + 2], 0.0, 1.0, tol)
    x, t_corr, residual, slowest = _polish(field, sec, y[..., :dim][hit], oriented)
    entries = (((rows // k * m)[:, None] + np.arange(m)) * k + (rows % k)[:, None])[hit]
    t_left, t_right = bracket[hit][:, dim + 2:].T
    t_local = t_left + y[..., dim][hit] + t_corr
    out.times[entries], out.states[entries] = direction * t_local, x
    out.rates[entries], out.residuals[entries] = sec.dtheta(x, system.field(x)), residual
    # a return starts at the crossing before it, at that crossing's rate
    margins = out.margins.reshape(n, k)
    margins[:, 1:] = np.fmin(margins[:, 1:], np.abs(out.rates.reshape(n, k)[:, :-1]))
    rate = np.minimum(np.abs(out.rates[entries]), slowest)
    slack = 1e-3 * (t_right - t_left)
    late = t_local - np.where(entries % k > 0, direction * out.times[entries - 1], 0.0) > t_max
    tangent = ~(rate >= TANGENCY_MARGIN)
    loose = ~(residual < ANGLE_RESIDUAL)
    outside = ~((t_left - slack <= t_local) & (t_local <= t_right + slack))
    bad = late | tangent | loose | outside
    out.ok[entries] = ~bad
    # an orbit's record ends at its first crossing that is missing or fails
    completed = np.cumprod(out.ok.reshape(n, k), axis=1).sum(axis=1)
    out.ok = (np.arange(k) < completed[:, None]).ravel()
    for e in np.flatnonzero(bad & (entries % k == completed[entries // k])).tolist():
        t = out.times[entries[e]]
        failures[entries[e] // k] = "no crossing" if late[e] else (
            f"tangency: grazing crossing at t={t:.6g}: |d theta/dt| = {rate[e]:.3e}"
            f" < {TANGENCY_MARGIN}" if tangent[e] else
            f"unconverged: angular residual {residual[e]:.3e} >= {ANGLE_RESIDUAL}" if loose[e]
            else f"outside bracket: crossing at t={t:.6g} outside the bracketing step of its orbit")
    out.failures = [None if c == k else f for c, f in zip(completed.tolist(), failures)]
    return out


def iterate_returns(system, sec: SectionSpec, starts: np.ndarray, k: int,
                    t_max: float = DEFAULT_T_MAX,
                    tol: float = phase.DEFAULT_FLOW_TOL) -> Returns:
    """k successive positively-oriented first returns of every start, all
    from one `first_crossings` call.

    Return j runs from certified crossing j - 1 (the start, for j = 0) to
    crossing j, and its image is crossing j's reduced state.  An orbit whose
    start is off the section or tangent to the flow, or whose crossing fails
    its bounds, stops there with a failure; its earlier returns stand.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    x = system.manifold.reduce(starts)
    # a start must lie on the section and be transverse to the flow
    off = np.abs(np.asarray(sec.offset(x), dtype=float))
    rate = np.abs(np.asarray(sec.dtheta(x, system.field(x)), dtype=float))
    reasons = [f"start point is not on the section: |theta - level| = {o:.3e}"
               if not o <= ON_SECTION_TOL else
               f"tangency: flow tangent to section at start: |d theta/dt| = {r:.3e}"
               if not r >= TANGENCY_MARGIN else None for o, r in zip(off, rate)]
    ready = np.flatnonzero([r is None for r in reasons])
    c = first_crossings(system, sec, x[ready], t_max, tol, k=k)
    for row, reason in zip(ready, c.failures):
        reasons[row] = reason
    ok = np.zeros((n, k), dtype=bool)
    ok[ready] = c.ok.reshape(-1, k)
    completed = ok.sum(axis=1)
    out = Returns(np.full((n, k), np.nan), np.full((n, k, dim), np.nan), np.full((n, k), np.nan),
                  np.full((n, k), np.nan), np.zeros((n, k), dtype=int),
                  [None if r is None else (int(completed[i]), r) for i, r in enumerate(reasons)])
    # ok holds the certified entries of c in c's order
    out.times[ok] = np.diff(c.times.reshape(-1, k), axis=1, prepend=0.0).ravel()[c.ok]
    out.images[ok] = system.manifold.reduce(c.states[c.ok])
    out.margins[ok], out.residuals[ok] = c.margins[c.ok], c.residuals[c.ok]
    out.crossings_seen[ready] = np.where(np.arange(k) <= completed[ready, None],
                                         c.crossings_seen.reshape(-1, k), 0)
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
    failures = [(i, label, reason) for c, label in ((forward, "forward"), (backward, "backward"))
                for i, reason in enumerate(c.failures) if reason is not None]
    margins = np.concatenate([forward.margins[forward.ok], backward.margins[backward.ok]])
    return GlobalityReport(len(samples), failures, float(np.min(margins, initial=math.inf)),
                           float(np.max(np.abs(forward.times[forward.ok]), initial=0.0)),
                           forward=forward)


# -- return-map Jacobian ------------------------------------------------------


def section_coordinates(system, sec: SectionSpec, x: np.ndarray):
    """Local graph coordinates on the section through the point x (reduced
    to the chart first).

    Eliminates the coordinates best aligned with (d theta, dH) (only the
    theta constraint for plain flows) and treats the section as a graph over
    the remaining ones.  For Hamiltonian systems a full conjugate coordinate
    pair (2i, 2i+1) is eliminated whenever one carries the constraints: with
    a pairwise-block symplectic form the remaining coordinates then inherit a
    constant restricted form, which is what makes the return-map determinant
    equal to one.  Returns (free_indices, embed, project) where embed solves
    the constraints by Newton iteration.
    """
    x0 = system.manifold.reduce(x)
    dim = x0.size
    has_energy = hasattr(system, "grad_h")
    level_h = float(system.energy(x0)) if has_energy else None

    def constraints(x):
        energy = [float(system.energy(x)) - level_h] if has_energy else []
        return np.array([float(sec.offset(x))] + energy)

    G = _constraint_grads(system, sec, x0)
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
        raise SectionChartError("degenerate constraints: no invertible elimination block")
    free = tuple(i for i in range(dim) if i not in elim)
    # the energy row's rounding error grows with the level, so its bound does too
    bounds = EMBED_TOL * np.array([1.0, max(1.0, abs(level_h))] if has_energy else [1.0])

    def embed(s: np.ndarray) -> np.ndarray:
        x = x0.copy()
        x[list(free)] = s
        for _ in range(60):
            c = constraints(x)
            if np.all(np.abs(c) < bounds):
                return x
            A = _constraint_grads(system, sec, x)[:, list(elim)]
            x[list(elim)] -= np.linalg.solve(A, c)
        raise SectionChartError("section embedding did not converge")

    def project(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., list(free)]

    return free, embed, project


def _constraint_grads(system, sec: SectionSpec, x: np.ndarray) -> np.ndarray:
    """Gradients of the section's constraints at x: d theta, read off the
    rate along each coordinate vector, and dH for a Hamiltonian system."""
    dim = len(x)
    g = [np.asarray(sec.dtheta(np.broadcast_to(x, (dim, dim)), np.eye(dim)), dtype=float)]
    if hasattr(system, "grad_h"):
        g.append(np.asarray(system.grad_h(x), dtype=float))
    return np.stack(g)


def restricted_form_matrix(system, sec: SectionSpec, x: np.ndarray) -> np.ndarray:
    """Matrix of the ambient two-form on the section's tangent frame at the
    point x (reduced to the chart first), one column per section coordinate
    (the implicit-function derivative of the embedding)."""
    free = list(section_coordinates(system, sec, x)[0])
    x = system.manifold.reduce(x)
    elim = [i for i in range(len(x)) if i not in free]
    G = _constraint_grads(system, sec, x)
    E = np.zeros((len(x), len(free)))
    E[free, np.arange(len(free))] = 1.0
    E[elim, :] = -np.linalg.solve(G[:, elim], G[:, free])
    return E.T @ two_form_matrix(system.omega, x) @ E


def return_map_jacobians(system, sec: SectionSpec, points: Sequence[np.ndarray],
                         t_max: float = DEFAULT_T_MAX,
                         tol: float = phase.DEFAULT_FLOW_TOL) -> np.ndarray:
    """Central-difference Jacobians of the return map in section coordinates,
    one (k, k) block per section point.

    Section coordinate a of a point s is perturbed by the relative step
    FD_STEP * max(1, |s_a|), so the stencil does not round back onto its
    centre at large amplitudes.  Every finite-difference stencil orbit goes
    through one `first_crossings` call, and the 2k stencil orbits of a point
    form one group on one step sequence, so the smooth integration error is
    shared across a stencil and cancels in the central differences.
    Unreduced end states are continuous in the initial condition, so raw
    differences need no period wrapping.  For two-dimensional sections the
    determinant is 1 up to integration error (the return map preserves the
    restricted symplectic form).
    """
    chart = system.manifold
    stencils, projections, steps = [], [], []
    for x in points:
        free, embed, project = section_coordinates(system, sec, x)
        s0 = project(chart.reduce(x))
        h = FD_STEP * np.maximum(1.0, np.abs(s0))
        for a in range(len(free)):
            for sign in (1.0, -1.0):
                s = s0.copy()
                s[a] += sign * h[a]
                stencils.append(embed(s))
        projections.append(project)
        steps.append(h)
    n = len(projections)
    k = len(stencils) // (2 * n) if n else 0
    if not k:  # no points, or a zero-dimensional section: nothing to differentiate
        return np.zeros((n, 0, 0))
    crossings = first_crossings(system, sec, np.reshape(stencils, (n, 2 * k, chart.dim)),
                                t_max, tol)
    crossings.raise_failure()
    ends = crossings.states.reshape(n, k, 2, chart.dim)
    return np.stack([project(e[:, 0] - e[:, 1]).T / (2.0 * h)
                     for project, e, h in zip(projections, ends, steps)])


# -- mapping torus ------------------------------------------------------------


@dataclass(eq=False)
class MappingTorusChart:
    """Tabulated suspension chart Psi(p, t) = flow_{t*T(p)}(p) over a fiber
    grid, at the fiber times t = linspace(0, 1, TORUS_TIMES)."""

    table: np.ndarray            # (n_grid, TORUS_TIMES, dim), reduced coordinates
    gluing_residual: float
    energy_residual: float


def mapping_torus_chart(system, sec: SectionSpec, grid: np.ndarray,
                        t_max: float = DEFAULT_T_MAX,
                        tol: float = phase.DEFAULT_FLOW_TOL) -> MappingTorusChart:
    """Tabulate the suspension chart over a section grid (n, dim), reduced to
    the chart first, at TORUS_TIMES fiber times.

    Every entry after t = 0 comes from one batched integration: the row
    (x, tau) with tau = t * T(p) follows dx/ds = tau X(x), dtau/ds = 0 over
    s in [0, 1], on its own steps.  The t = 1 rows are integrated apart from
    the crossing engine, so the gluing check Psi(p, 1) = holonomy(p) within
    GLUING_FACTOR * tol compares two independent computations.  For
    Hamiltonian systems every table entry must also stay on the energy level
    within ENERGY_RESIDUAL_MAX; GluingError is raised otherwise.
    """
    chart = system.manifold
    starts = chart.reduce(grid)
    returns = iterate_returns(system, sec, starts, 1, t_max, tol)
    returns.raise_failure()
    n, dim = starts.shape
    taus = returns.times[:, :1] * np.linspace(0.0, 1.0, TORUS_TIMES)[1:]   # (n, TORUS_TIMES - 1)
    rows = np.concatenate([np.repeat(starts, TORUS_TIMES - 1, axis=0), taus.reshape(-1, 1)], 1)

    def scaled(y):
        return np.concatenate([system.field(y[:, :-1]) * y[:, -1:], np.zeros((len(y), 1))], 1)

    ends = phase.integrate_batch(scaled, rows, 0.0, 1.0, tol)
    states = np.concatenate([starts[:, None], ends[:, :dim].reshape(n, TORUS_TIMES - 1, dim)], 1)
    table = chart.reduce(states)
    gluing = float(np.max(np.abs(chart.wrapped_delta(table[:, -1], returns.images[:, 0]))))
    energy_res = 0.0
    if hasattr(system, "energy"):
        energy_res = float(np.max(np.abs(system.energy(states) - system.energy(starts)[:, None])))
    gluing_tol = GLUING_FACTOR * tol
    if gluing > gluing_tol:
        raise GluingError(f"gluing residual {gluing:.3e} exceeds {gluing_tol:.3e}; "
                          "section is inconsistent over the grid")
    if energy_res > ENERGY_RESIDUAL_MAX:
        raise GluingError(f"energy residual {energy_res:.3e} exceeds {ENERGY_RESIDUAL_MAX:.0e}; "
                          "the chart leaves the energy level")
    return MappingTorusChart(table, gluing, energy_res)


def write_crossings_csv(path, rows: Sequence[Sequence[float]], dim: int) -> None:
    """Crossing point cloud: one row per crossing.

    Columns: orbit_id, t, coord_0 .. coord_{dim-1}, margin.
    """
    header = ["orbit_id", "t"] + [f"coord_{i}" for i in range(dim)] + ["margin"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else int(v)
                             for v in row])
