"""Poincaré sections: crossing detection, first-return maps, globality checks
and the mapping-torus chart of a verified section.

The section function is circle valued.  Along an orbit its angle is lifted to
a continuous real value, and crossings of the level set are located where the
lift passes a lattice value ``level + 2*pi*z`` (z an integer).  Only crossings
whose oriented time derivative is positive are counted; a two-sided count
would double-cover the mapping-torus fiber.

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
from typing import Callable, Sequence

import numpy as np

from .forms import ChartManifold, Point, two_form_matrix
from . import phase

TWO_PI = 2.0 * math.pi

TANGENCY_MARGIN = 1e-8
ANGLE_RESIDUAL = 1e-12
ON_SECTION_TOL = 1e-8
NEAR_LATTICE = 1e-3     # lattice units (turns of the section angle)
DEFAULT_T_MAX = 1e3
ENERGY_RESIDUAL_MAX = 1e-8   # largest |H - H(p)| over a mapping-torus table


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


@dataclass(frozen=True, eq=False)
class SectionSpec:
    """Circle-valued section function with level and crossing orientation.

    ``theta`` maps coordinates (..., dim) to an angle; ``grad_theta`` is its
    gradient.  Orientation +1 counts crossings where theta increases along
    the flow.
    """

    theta: Callable[[np.ndarray], np.ndarray]
    grad_theta: Callable[[np.ndarray], np.ndarray]
    level: float = 0.0
    orientation: int = 1
    name: str = ""

    def offset(self, coords: np.ndarray) -> np.ndarray:
        """Signed angular distance to the level, wrapped to (-pi, pi]."""
        v = np.asarray(self.theta(np.asarray(coords, dtype=float))) - self.level
        return -((-v + math.pi) % TWO_PI - math.pi)

    def rate(self, system, coords: np.ndarray) -> np.ndarray:
        """Time derivative of theta along the system flow."""
        coords = np.asarray(coords, dtype=float)
        return _rates(self, coords, system.field(coords))


def _rates(sec: SectionSpec, x: np.ndarray, field: np.ndarray) -> np.ndarray:
    """d theta/dt at states x (..., dim) whose field values are known."""
    return np.einsum("...i,...i->...", np.asarray(sec.grad_theta(x), dtype=float), field)


def coordinate_section(chart: ChartManifold, index: int, level: float = 0.0,
                       orientation: int = 1, name: str = "") -> SectionSpec:
    """Section {x_index = level} for a periodic coordinate."""
    scale = TWO_PI / chart.periods[index]
    grad = np.zeros(chart.dim)
    grad[index] = scale

    return SectionSpec(
        theta=lambda x: (np.asarray(x, dtype=float)[..., index] * scale) % TWO_PI,
        grad_theta=lambda x: np.broadcast_to(grad, np.shape(x)),
        level=(level * scale) % TWO_PI,
        orientation=orientation,
        name=name or f"coord{index}={level}")


@dataclass(frozen=True, eq=False)
class ReturnRecord:
    start: Point
    return_time: float
    image: Point
    transversality_margin: float
    crossings_seen: int


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

    def first(self, orbit: int, start: Point) -> ReturnRecord:
        """The first return of a certified orbit as a record."""
        return ReturnRecord(start=start, return_time=float(self.times[orbit, 0]),
                            image=start.chart.point(self.images[orbit, 0]),
                            transversality_margin=float(self.margins[orbit, 0]),
                            crossings_seen=int(self.crossings_seen[orbit, 0]))

    def raise_failure(self) -> None:
        """Raise the error of the first failed orbit, if there is one."""
        _raise_first(f and f[1] for f in self.failures)


@dataclass(eq=False)
class GlobalityReport:
    n_samples: int
    failures: list
    min_margin: float
    max_return_time: float
    vacuous: bool = False

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


class _Directed:
    """Time-reversal wrapper: integrating it forward traces the orbit backward."""

    def __init__(self, system, sign: int):
        self._system, self.sign = system, sign

    def field(self, coords: np.ndarray) -> np.ndarray:   # forward: no multiply by 1
        return self._system.field(coords) if self.sign > 0 else -self._system.field(coords)


def _clamp(rate: np.ndarray, oriented: int) -> np.ndarray:
    """Rate pushed to at least TANGENCY_MARGIN in the crossing direction."""
    return oriented * np.maximum(oriented * rate, TANGENCY_MARGIN)


class _HenonFlow:
    """Rows (x, t, dv) with the lifted angle as independent variable s in
    [0, 1]: dx/ds = dv X / r and dt/ds = dv / r, where dv is the row's
    constant angle gap to its lattice value and r the clamped rate."""

    def __init__(self, directed, sec: SectionSpec, oriented: int):
        self.directed, self.sec, self.oriented = directed, sec, oriented

    def field(self, y: np.ndarray) -> np.ndarray:
        x, dv = y[:, :-2], y[:, -1]
        X = self.directed.field(x)
        dt = dv / _clamp(_rates(self.sec, x, X), self.oriented)
        return np.concatenate([X * dt[:, None], dt[:, None], np.zeros((len(y), 1))], axis=1)


def _polish(directed, sec: SectionSpec, x: np.ndarray, oriented: int, max_iter: int = 8):
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
        X = directed.field(x[todo])
        rate = _rates(sec, x[todo], X)
        near = np.abs(f[todo]) < ANGLE_RESIDUAL
        slowest[todo[near]] = np.minimum(slowest[todo[near]], np.abs(rate[near]))
        dt = -f[todo] / _clamp(rate, oriented)
        h = dt[:, None]
        k2 = directed.field(x[todo] + 0.5 * h * X)
        k3 = directed.field(x[todo] + 0.5 * h * k2)
        k4 = directed.field(x[todo] + h * k3)
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
      crossing; its bracket and the passages and least |rate| since the one
      before go into the (g, m, k) record.  An orbit stops at its k-th, or at
      a step end t_max past its last (or the start); a group once all have."""

    def __init__(self, sec: SectionSpec, directed, starts: np.ndarray, oriented: int,
                 k: int, t_max: float):
        g, m, dim = starts.shape
        self.sec, self.oriented, self.shape, self.k, self.t_max = sec, oriented, (m, dim), k, t_max
        self.theta = np.array(sec.theta(starts), dtype=float)
        self.rate = np.asarray(sec.rate(directed, starts), dtype=float)
        self.lift, self.margins = self.theta.copy(), np.abs(self.rate)
        w = self._turns(self.lift)
        own = np.round(w)
        self.cell = np.where(np.abs(w - own) * TWO_PI <= ON_SECTION_TOL, own, np.floor(w + 1e-12))
        self.seen, self.count = np.zeros((g, m), dtype=int), np.zeros((g, m), dtype=int)
        self.deadline = np.full((g, m), float(t_max))   # -inf once an orbit has all k
        # per crossing the Hénon step's start (state, time 0, angle gap; one not
        # reached rides along with a zero gap), the step times, passages and margin
        self.bracket = np.concatenate([np.repeat(starts[:, :, None], k, 2), np.zeros((g, m, k, 2)),
                                       np.full((g, m, k, 2), np.nan)], -1)
        self.seen_k, self.margins_k = np.zeros((g, m, k), dtype=int), np.full((g, m, k), np.nan)
        self.turning = np.zeros(g, dtype=int)   # accepted steps left exempt from the turning rule

    def _turns(self, v: np.ndarray) -> np.ndarray:
        """Oriented turns of lifted angles past the level."""
        return self.oriented * (v - self.sec.level) / TWO_PI

    def __call__(self, rows, t, y, t_new, y_new, f, f_new):
        # every row in order while none has finished: slices, not gathers
        sel = slice(None) if len(rows) == len(self.turning) else rows
        x1 = y_new.reshape(len(rows), *self.shape)
        r0, r1 = self.rate[sel], _rates(self.sec, x1, f_new.reshape(x1.shape))
        theta = np.asarray(self.sec.theta(x1), dtype=float)
        lift0 = self.lift[sel]
        lift1 = lift0 - ((self.theta[sel] - theta + math.pi) % TWO_PI - math.pi)
        h = t_new - t
        going = t[:, None] < self.deadline[sel]
        speed = np.fmax(np.fmax(np.abs(r0), np.abs(r1)), np.abs(lift1 - lift0) / h[:, None])
        allowed = np.divide(0.5 * math.pi, speed, out=np.full(speed.shape, np.inf),
                            where=going & (speed > 0)).min(axis=1)
        ok = h <= allowed
        cap = 0.9 * allowed   # a tenth under the bound: steady rates then pass it
        i, j = np.nonzero(going & (r0 * r1 < 0) & (self.turning[sel] == 0)[:, None])
        if i.size:
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
        done = np.zeros(len(rows), dtype=bool)
        a = slice(None) if np.count_nonzero(ok) == len(rows) else np.flatnonzero(ok)
        ra = sel if isinstance(a, slice) else rows[a]
        self.turning[ra] = np.maximum(self.turning[ra] - 1, 0)
        c1 = np.floor(self._turns(lift1[a]) + 1e-12)   # lattice cells at the step ends
        steps = c1 - self.cell[ra]
        steps[~np.isfinite(steps)] = 0.0
        up = going[a] & (steps > 0)
        moved = going[a] & ~up
        self.seen[ra] += np.where(moved, np.abs(steps), up).astype(int)
        self.margins[ra] = np.minimum(self.margins[ra], np.where(moved, np.abs(r1[a]), np.inf))
        if np.count_nonzero(up):
            i, j = np.nonzero(up)
            q = np.arange(len(rows))[a][i]
            rk = rows[q]
            c = self.count[rk, j]
            gap = self.sec.level - lift0[q, j] + self.oriented * TWO_PI * (self.cell[rk, j] + 1)
            left = y[q].reshape(-1, *self.shape)[np.arange(len(i)), j]
            self.bracket[rk, j, c] = np.column_stack([left, np.zeros(len(q)), gap, t[q], t_new[q]])
            self.seen_k[rk, j, c], self.margins_k[rk, j, c] = self.seen[rk, j], self.margins[rk, j]
            self.seen[rk, j], self.margins[rk, j] = 0, np.inf
            self.count[rk, j] = c + 1
            self.deadline[rk, j] = np.where(c + 1 < self.k, t_new[q] + self.t_max, -np.inf)
        done[a] = ~(t_new[a, None] < self.deadline[ra]).any(axis=1)
        self.theta[ra], self.lift[ra], self.rate[ra], self.cell[ra] = theta[a], lift1[a], r1[a], c1
        return ok, cap, done


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
    directed = _Directed(system, direction)
    oriented = sec.orientation * direction
    scan = _Scan(sec, directed, groups, oriented, k, t_max)
    failures = ["no crossing"] * n
    try:
        phase.integrate_batch(directed, groups, 0.0, k * t_max, tol, step=scan)
    except phase.StepSizeUnderflow as exc:
        # a crossing of the row before the stall gets its own verdict below
        for row, t in zip(exc.rows, exc.times):
            failures[row * m:(row + 1) * m] = [f"unconverged: integration stalled at t={t:.6g}"] * m
    # an orbit's entry after its last crossing holds what its scan counted since
    last = np.nonzero(scan.count < k)
    scan.seen_k[last + (scan.count[last],)] = scan.seen[last]
    scan.margins_k[last + (scan.count[last],)] = scan.margins[last]
    out = Crossings(np.full(n * k, np.nan), np.full((n * k, dim), np.nan), np.full(n * k, np.nan),
                    scan.margins_k.ravel(), np.full(n * k, np.nan), scan.seen_k.ravel(),
                    failures, np.zeros(n * k, dtype=bool))
    # one Hénon row per group and crossing index
    hit = (np.arange(k) < scan.count[..., None]).transpose(0, 2, 1).reshape(g * k, m)
    bracket = scan.bracket.transpose(0, 2, 1, 3).reshape(g * k, m, dim + 4)
    rows = np.flatnonzero(hit.any(axis=1))
    hit, bracket = hit[rows], bracket[rows]
    y = phase.integrate_batch(_HenonFlow(directed, sec, oriented), bracket[..., :dim + 2],
                              0.0, 1.0, tol).y_end
    x, t_corr, residual, slowest = _polish(directed, sec, y[..., :dim][hit], oriented)
    entries = (((rows // k * m)[:, None] + np.arange(m)) * k + (rows % k)[:, None])[hit]
    t_left, t_right = bracket[hit][:, dim + 2:].T
    t_local = t_left + y[..., dim][hit] + t_corr
    out.times[entries], out.states[entries] = direction * t_local, x
    out.rates[entries], out.residuals[entries] = sec.rate(system, x), residual
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
    rate = np.abs(np.asarray(sec.rate(system, x), dtype=float))
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


def first_return(system, sec: SectionSpec, p: Point, t_max: float = DEFAULT_T_MAX,
                 tol: float = phase.DEFAULT_FLOW_TOL) -> ReturnRecord:
    """First positively-oriented return of a section point: `iterate_returns`
    on a batch of one with k = 1.

    The start must lie on the section (else ValueError) and be transverse
    to the flow.  Raises NoCrossingError, TangencyError or RefinementError.
    """
    returns = iterate_returns(system, sec, p.coords, 1, t_max, tol)
    returns.raise_failure()
    return returns.first(0, p)


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
    failures, min_margin, max_time = [], math.inf, 0.0
    for direction, label in ((1, "forward"), (-1, "backward")):
        c = first_crossings(system, sec, samples, t_max, tol, direction)
        failures += [(i, label, reason) for i, reason in enumerate(c.failures)
                     if reason is not None]
        if c.ok.any():
            min_margin = min(min_margin, float(np.min(c.margins[c.ok])))
            if direction == 1:
                max_time = float(np.max(np.abs(c.times[c.ok])))
    return GlobalityReport(len(samples), failures, min_margin, max_time)


# -- return-map Jacobian ------------------------------------------------------


def section_coordinates(system, sec: SectionSpec, p: Point):
    """Local graph coordinates on the section through p.

    Eliminates the coordinates best aligned with (d theta, dH) (only the
    theta constraint for plain flows) and treats the section as a graph over
    the remaining ones.  For Hamiltonian systems a full conjugate coordinate
    pair (2i, 2i+1) is eliminated whenever one carries the constraints: with
    a pairwise-block symplectic form the remaining coordinates then inherit a
    constant restricted form, which is what makes the return-map determinant
    equal to one.  Returns (free_indices, embed, project) where embed solves
    the constraints by Newton iteration.
    """
    x0 = np.asarray(p.coords, dtype=float)
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
    if best < 1e-12:
        raise SectionChartError("degenerate constraints: no invertible elimination block")
    free = tuple(i for i in range(dim) if i not in elim)
    # the energy row's rounding error grows with the level, so its bound does too
    bounds = 1e-13 * np.array([1.0, max(1.0, abs(level_h))] if has_energy else [1.0])

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
    """Gradients of the section's constraints at x: d theta, and dH for a
    Hamiltonian system."""
    g = [np.asarray(sec.grad_theta(x), dtype=float)]
    if hasattr(system, "grad_h"):
        g.append(np.asarray(system.grad_h(x), dtype=float))
    return np.stack(g)


def restricted_form_matrix(system, sec: SectionSpec, p: Point) -> np.ndarray:
    """Matrix of the ambient two-form on the section's tangent frame at p,
    one column per section coordinate (the implicit-function derivative of
    the embedding)."""
    x = np.asarray(p.coords, dtype=float)
    free = list(section_coordinates(system, sec, p)[0])
    elim = [i for i in range(len(x)) if i not in free]
    G = _constraint_grads(system, sec, x)
    E = np.zeros((len(x), len(free)))
    E[free, np.arange(len(free))] = 1.0
    E[elim, :] = -np.linalg.solve(G[:, elim], G[:, free])
    return E.T @ two_form_matrix(system.omega, x) @ E


def return_map_jacobians(system, sec: SectionSpec, points: Sequence[np.ndarray],
                         fd_step: float = 1e-6, t_max: float = DEFAULT_T_MAX,
                         tol: float = phase.DEFAULT_FLOW_TOL) -> np.ndarray:
    """Central-difference Jacobians of the return map in section coordinates,
    one (k, k) block per section point.

    Section coordinate a of a point s is perturbed by the relative step
    fd_step * max(1, |s_a|), so the stencil does not round back onto its
    centre at large amplitudes.  Every finite-difference stencil orbit goes
    through one `first_crossings` call, and the 2k stencil orbits of a point
    form one group on one step sequence, so the smooth integration error is
    shared across a stencil and cancels in the central differences.
    Unreduced end states are continuous in the initial condition, so raw
    differences need no period wrapping.  For two-dimensional sections the
    determinant is 1 up to integration error (the return map preserves the
    restricted symplectic form).
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    chart = system.manifold
    stencils, projections, steps = [], [], []
    for x in points:
        p = chart.point(np.asarray(x, dtype=float))
        free, embed, project = section_coordinates(system, sec, p)
        s0 = project(p.coords)
        h = fd_step * np.maximum(1.0, np.abs(s0))
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
    """Tabulated suspension chart Psi(p, t) = flow_{t*T(p)}(p) over a fiber grid."""

    fiber_grid: list
    records: list
    t_samples: np.ndarray
    table: np.ndarray            # (n_grid, n_t, dim), reduced coordinates
    gluing_residual: float
    energy_residual: float

    @property
    def holonomy(self) -> list:
        return [r.image for r in self.records]


def mapping_torus_chart(system, sec: SectionSpec, grid: Sequence[Point],
                        n_time: int = 9, t_max: float = DEFAULT_T_MAX,
                        tol: float = phase.DEFAULT_FLOW_TOL) -> MappingTorusChart:
    """Tabulate the suspension chart over a section grid.

    Checks the gluing Psi(p, 1) = holonomy(p) within 10*tol and, for
    Hamiltonian systems, that every table entry stays on the energy level
    within ENERGY_RESIDUAL_MAX; raises GluingError otherwise.
    """
    chart = system.manifold
    t_samples = np.linspace(0.0, 1.0, n_time)
    rows, gluing, energy_res = [], 0.0, 0.0
    has_energy = hasattr(system, "energy")
    returns = iterate_returns(system, sec, np.array([p.coords for p in grid]), 1, t_max, tol)
    returns.raise_failure()
    records = [returns.first(i, p) for i, p in enumerate(grid)]
    for p, rec in zip(grid, records):
        sol = phase.integrate_batch(system, p.coords[None], 0.0, rec.return_time, tol, dense=True)
        states = sol.sol(t_samples * rec.return_time).T
        states[0] = p.coords
        rows.append(np.stack([chart.reduce(s) for s in states]))
        gap = np.max(np.abs(chart.wrapped_delta(chart.reduce(states[-1]),
                                                rec.image.coords)))
        gluing = max(gluing, float(gap))
        if has_energy:
            h0 = float(system.energy(p.coords))
            energy_res = max(energy_res, float(np.max(np.abs(system.energy(states) - h0))))
    gluing_tol = 10.0 * tol
    if gluing > gluing_tol:
        raise GluingError(f"gluing residual {gluing:.3e} exceeds {gluing_tol:.3e}; "
                          "section is inconsistent over the grid")
    if energy_res > ENERGY_RESIDUAL_MAX:
        raise GluingError(f"energy residual {energy_res:.3e} exceeds {ENERGY_RESIDUAL_MAX:.0e}; "
                          "the chart leaves the energy level")
    return MappingTorusChart(list(grid), records, t_samples, np.stack(rows), gluing, energy_res)


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
