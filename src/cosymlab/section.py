"""Poincaré sections: crossing detection, first-return maps, globality checks
and the mapping-torus chart of a verified section.

The section function is circle valued.  Along an orbit its angle is lifted to
a continuous real value (tracked through branch cuts), and crossings of the
level set are located where the lift passes a lattice value
``level + 2*pi*k``.  Only crossings whose oriented time derivative is
positive are counted; a two-sided count would double-cover the
mapping-torus fiber.

Every crossing comes from one batched engine, `first_crossings`, in three
steps:

- bracket: the orbits are integrated as one stacked system, and the scan
  ends at the first accepted step after which every orbit's lifted angle,
  followed from step end to step end, has passed a lattice value upward.
  The scan is sampled on a seed grid, the union of a rate-sized uniform grid
  and the integrator's accepted steps.  The seed grid is evaluated block by
  block while the same follower reads the lifts down its rows, and only up
  to the row that ends the last orbit's first upward passage (every row when
  some orbit makes none); the rows after it are neither evaluated nor kept.
  The kept rows are refined until, up to each orbit's bracket, adjacent
  angles differ by less than pi/2 and the rate times the spacing is at most
  pi/2 (an orbit that turns nearly a whole number of times between samples
  would otherwise be read a lap late), and every turning point of a lift
  near a lattice value is sampled (so short excursions through the section
  are seen).  An orbit still too coarsely sampled when the rounds run out
  fails as unconverged.  The dense output is evaluated in blocks of at most
  forms.BLOCK_VALUES state values and only the angles and rates are kept, so
  no (times, orbits, dim) array is built; the bracket states are evaluated
  again at their own rows.  The first upward lattice passage of every orbit
  is read off floor differences of the lift.  A row step spanning more than
  pi of angle can fool the follower; the refined grid then finds no bracket
  in the kept rows and the orbit goes on into the next chunk from the last
  kept row;
- refine: one batched Hénon step (M. Hénon, Physica D 5 (1982) 412) takes the
  lifted angle as the independent variable and integrates from the bracket's
  left end exactly onto the lattice value; the rate in its denominator is
  clamped at TANGENCY_MARGIN, so a grazing orbit cannot stall the batch;
- polish and check: vectorised Newton steps with fourth-order flow
  micro-steps.  A crossing is accepted only if its time lies inside its
  bracket, its angular residual is below 1e-12 and its rate is at least
  TANGENCY_MARGIN; anything else is a per-orbit failure.

Return-map iteration (`iterate_returns`, of which a first return is a batch
of one), globality checks and return-map Jacobians all go through the
engine, so the same bounds hold on every path.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .forms import ChartManifold, Point, two_form_matrix
from . import forms, phase

TWO_PI = 2.0 * math.pi

TANGENCY_MARGIN = 1e-8
ANGLE_RESIDUAL = 1e-12
ON_SECTION_TOL = 1e-8
NEAR_LATTICE = 1e-3     # lattice units (turns of the section angle)
DEFAULT_T_MAX = 1e3
GRID_ROUNDS = 8                 # refinement rounds of a crossing scan's sample grid


class TangencyError(RuntimeError):
    """Grazing crossing: the section derivative fell below the margin."""


class NoCrossingError(RuntimeError):
    """No oriented crossing found before t_max."""


class RefinementError(RuntimeError):
    """A bracketed crossing missed its angular residual or left its bracket."""


class GluingError(RuntimeError):
    """Mapping-torus gluing residual beyond tolerance."""


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
        g = np.asarray(self.grad_theta(coords), dtype=float)
        return np.einsum("...i,...i->...", g, system.field(coords))


def coordinate_section(chart: ChartManifold, index: int, level: float = 0.0,
                       orientation: int = 1, name: str = "") -> SectionSpec:
    """Section {x_index = level} for a periodic coordinate."""
    period = chart.periods[index]
    scale = TWO_PI / period
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


def _raise_for(reason: str) -> None:
    raise _FAILURE_ERRORS.get(reason.split(":")[0], RefinementError)(reason)


@dataclass(eq=False)
class Crossings:
    """First oriented crossings of a batch of orbits, one entry per orbit.

    ``times`` are signed (negative when scanning backward) and ``states`` are
    unreduced coordinates.  ``rates`` is d theta/dt along the true flow at
    the crossing, ``margins`` the least |d theta/dt| at the start and on the
    kept grid rows of the scanned orbit (each chunk's rows up to the last
    orbit's first passage in it), ``residuals`` the final |theta - level|
    and ``crossings_seen`` the lattice passages counted up to and including
    the crossing.  ``failures`` holds None for an accepted crossing and the
    reason otherwise; an orbit without a bracket keeps NaN entries.
    """

    times: np.ndarray
    states: np.ndarray
    rates: np.ndarray
    margins: np.ndarray
    residuals: np.ndarray
    crossings_seen: np.ndarray
    failures: list

    @property
    def ok(self) -> np.ndarray:
        return np.array([f is None for f in self.failures], dtype=bool)

    def raise_failure(self) -> None:
        """Raise the error of the first failed orbit, if there is one."""
        for reason in self.failures:
            if reason is not None:
                _raise_for(reason)


@dataclass(eq=False)
class Returns:
    """k successive first returns of a batch of orbits: row i, column j is
    the j-th return of orbit i.

    ``times`` are the return times of the single iterates, ``images`` the
    reduced images, ``margins`` the least |d theta/dt| seen along each
    return (at its start and on the kept grid rows, see `Crossings`),
    ``residuals`` the final |theta - level| of each image and
    ``crossings_seen`` the lattice passages counted up to each return.
    ``failures`` holds None per orbit, or (iterate, reason) for an orbit
    that stopped; its times, images, margins and residuals from that
    iterate on stay NaN.
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
        for failure in self.failures:
            if failure is not None:
                _raise_for(failure[1])


@dataclass(eq=False)
class GlobalityReport:
    n_samples: int
    failures: list
    min_margin: float
    max_return_time: float
    vacuous: bool = False

    @property
    def n_pass(self) -> int:
        failed_samples = {f[0] for f in self.failures}
        return self.n_samples - len(failed_samples)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"n_samples": self.n_samples, "n_pass": self.n_pass,
                "failures": [list(f) for f in self.failures],
                "min_margin": self.min_margin,
                "max_return_time": self.max_return_time,
                "vacuous": self.vacuous, "passed": self.passed}


class _Directed:
    """Time-reversal wrapper: integrating it forward traces the orbit backward."""

    def __init__(self, system, sign: int):
        self._system = system
        self.sign = sign

    def field(self, coords: np.ndarray) -> np.ndarray:
        return self.sign * self._system.field(coords)


def _clamp(rate: np.ndarray, oriented: int) -> np.ndarray:
    """Rate pushed to at least TANGENCY_MARGIN in the crossing direction."""
    return oriented * np.maximum(oriented * rate, TANGENCY_MARGIN)


class _HenonFlow:
    """Rows (x, t) with the lifted angle as independent variable s in [0, 1]:
    dx/ds = dv X / r and dt/ds = dv / r, where dv is each row's angle gap to
    its lattice value and r the clamped rate."""

    def __init__(self, directed, sec: SectionSpec, dv: np.ndarray, oriented: int):
        self.directed = directed
        self.sec = sec
        self.dv = dv
        self.oriented = oriented

    def field(self, y: np.ndarray) -> np.ndarray:
        x = y[:, :-1]
        X = self.directed.field(x)
        r = np.einsum("ij,ij->i", np.asarray(self.sec.grad_theta(x), dtype=float), X)
        dt = self.dv / _clamp(r, self.oriented)
        return np.concatenate([X * dt[:, None], dt[:, None]], axis=1)


def _henon_step(directed, sec: SectionSpec, x: np.ndarray, dv: np.ndarray,
                oriented: int, tol: float):
    """States on the section and the times taken to reach them from x."""
    y0 = np.concatenate([x, np.zeros((len(x), 1))], axis=1)
    flow = _HenonFlow(directed, sec, dv, oriented)
    y1 = phase.integrate_batch(flow, y0, 0.0, 1.0, tol).y[:, -1].reshape(y0.shape)
    return y1[:, :-1], y1[:, -1]


def _polish(directed, sec: SectionSpec, x: np.ndarray, oriented: int, max_iter: int = 8):
    """Newton on the section angle for every row of x, advancing by single
    fourth-order flow steps (the corrections are tiny, so they keep full
    precision).  Returns states, time corrections and final residuals."""
    x = np.array(x, dtype=float)
    t_corr = np.zeros(len(x))
    for _ in range(max_iter):
        f = sec.offset(x)
        todo = np.flatnonzero(np.abs(f) >= ANGLE_RESIDUAL)
        if not todo.size:
            break
        dt = -f[todo] / _clamp(sec.rate(directed, x[todo]), oriented)
        x[todo] = _rk4_step(directed, x[todo], dt[:, None])
        t_corr[todo] += dt
    return x, t_corr, np.abs(sec.offset(x))


def _rk4_step(system, x: np.ndarray, dt) -> np.ndarray:
    k1 = system.field(x)
    k2 = system.field(x + 0.5 * dt * k1)
    k3 = system.field(x + 0.5 * dt * k2)
    k4 = system.field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _unconverged(residual: float) -> str:
    return f"unconverged: angular residual {residual:.3e} >= {ANGLE_RESIDUAL}"


class _BlockedDense:
    """Dense output of a stacked batch of n orbits in dim coordinates,
    evaluated in row blocks of at most forms.BLOCK_VALUES state values (one
    time row at least), so no (times, orbits, dim) array is built."""

    def __init__(self, sol, n: int, dim: int):
        self.sol = sol
        self.n, self.dim = n, dim
        self.rows = max(1, forms.BLOCK_VALUES // (n * dim))

    def blocks(self, ts: np.ndarray):
        """(start row, states (rows, n, dim)) for each block of the times ts."""
        for a in range(0, len(ts), self.rows):
            t = ts[a:a + self.rows]
            yield a, self.sol(t).T.reshape(len(t), self.n, self.dim)

    def angles_and_rates(self, sec: SectionSpec, directed, ts: np.ndarray):
        """Section angles and rates (times, orbits) along the directed flow."""
        vals = np.empty((len(ts), self.n))
        rates = np.empty_like(vals)
        for a, states in self.blocks(ts):
            vals[a:a + len(states)] = sec.theta(states)
            rates[a:a + len(states)] = sec.rate(directed, states)
        return vals, rates

    def gather(self, ts: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """State of orbit cols[k] at time ts[rows[k]] for every k; each
        distinct row is evaluated once."""
        uniq, inv = np.unique(rows, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(0, len(uniq) + self.rows, self.rows))
        out = np.empty((len(cols), self.dim))
        for (a, states), lo, hi in zip(self.blocks(ts[uniq]), bounds[:-1], bounds[1:]):
            k = order[lo:hi]
            out[k] = states[inv[k] - a, cols[k]]
        return out


def _seed_rows(sec: SectionSpec, directed, dense: _BlockedDense, ts: np.ndarray,
               anchors, oriented: int):
    """Times, section angles and rates of a scan's seed grid ts up to and
    including the row that ends the last orbit's first upward lattice passage
    (every row when some orbit makes none).  The rows are evaluated one block
    at a time while a `_PassageWatch` follows the lifts, and evaluation stops
    after the first block in which every orbit has passed; the cut is a row,
    not a block, so it does not depend on forms.BLOCK_VALUES."""
    vals, rates, watch, end = [], [], None, len(ts)
    for a in range(0, len(ts), dense.rows):
        block_vals, block_rates = dense.angles_and_rates(sec, directed, ts[a:a + dense.rows])
        vals.append(block_vals)
        rates.append(block_rates)
        if watch is None:
            watch = _PassageWatch(sec, block_vals[0], anchors, oriented)
            block_vals = block_vals[1:]
        if watch.follow(block_vals):
            end = watch.first.max() + 1
            break
    return ts[:end], np.concatenate(vals)[:end], np.concatenate(rates)[:end]


def _sample_grid(sec: SectionSpec, directed, dense: _BlockedDense, ts: np.ndarray,
                 vals: np.ndarray, rates: np.ndarray, anchors, oriented: int):
    """Section angles and rates along the directed flow on a shared grid
    (rows are times, columns orbits), from the seed rows ts with their
    angles ``vals`` and ``rates`` (`_seed_rows`), refined until

    - adjacent angles of an orbit differ by less than pi/2, and its rate
      times the spacing is at most pi/2, so the lift cannot slip a branch.
      The rate rule catches an orbit that turns close to a whole number of
      times between two samples and so shows a small angle difference.  Both
      rules apply to an orbit up to its first upward lattice passage (the
      one it is bracketed on), or to the whole grid when it has none;
    - no turning point of a lift between two samples comes within
      NEAR_LATTICE of a lattice value that neither sample has passed: a short
      excursion through the section would go unseen.  The turning time,
      where the linearly interpolated rate vanishes, is sampled instead.

    Each round samples the midpoint of every interval too wide for some
    orbit and every such turning time.  The states are evaluated in blocks
    (`_BlockedDense`) and not kept; only the angles and rates are.  Returns
    the times, the lifted angles (``np.unwrap`` of the angles down the rows,
    before ``anchors`` are applied), the rates, and per orbit whether an
    interval is still too wide for it when the rounds run out.
    """
    for k in range(GRID_ROUNDS + 1):
        lift = np.unwrap(vals, axis=0)
        dts = np.diff(ts)
        dv = np.diff(vals, axis=0)
        np.subtract(math.pi, dv, out=dv)
        np.remainder(dv, TWO_PI, out=dv)
        dv -= math.pi
        np.abs(dv, out=dv)
        r0, r1 = rates[:-1], rates[1:]
        swept = np.maximum(np.abs(r0), np.abs(r1))
        swept *= dts[:, None]
        coarse = (dv > 0.5 * math.pi) | (swept > 0.5 * math.pi)
        loose = np.flatnonzero(coarse.any(axis=0))
        if loose.size:
            v = lift[:, loose]
            if anchors is not None:
                v += anchors[loose] - v[0]
            _, _, hit, idx = _first_passages(sec, v, oriented, anchors is None)
            coarse[:, loose] &= np.arange(len(dts))[:, None] <= np.where(hit, idx, len(dts))
        wide = coarse.any(axis=1)
        # the turning-point rule; dv, swept and w are reused in place
        w = lift - sec.level
        w /= TWO_PI
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.divide(r0, np.subtract(r0, r1, out=dv), out=dv)
        peak = np.multiply(r0, 0.5, out=swept)
        peak *= frac
        peak *= dts[:, None]
        peak /= TWO_PI
        peak += w[:-1]
        w += 1e-12
        cells = np.floor(w, out=w)
        turns = r0 * r1 < 0
        turns &= cells[:-1] == cells[1:]
        off = peak + NEAR_LATTICE
        near = np.floor(off, out=off) != cells[:-1]
        np.subtract(peak, NEAR_LATTICE, out=off)
        near |= np.floor(off, out=off) != cells[:-1]
        turns &= near
        rows, cols = np.nonzero(turns)
        new = np.setdiff1d(np.concatenate([
            0.5 * (ts[:-1] + ts[1:])[wide],
            ts[rows] + frac[rows, cols] * (ts[rows + 1] - ts[rows])]), ts)
        if not new.size or k == GRID_ROUNDS:
            break
        added_vals, added_rates = dense.angles_and_rates(sec, directed, new)
        order = np.argsort(np.concatenate([ts, new]))
        ts = np.concatenate([ts, new])[order]
        vals = np.concatenate([vals, added_vals])[order]
        rates = np.concatenate([rates, added_rates])[order]
    return ts, lift, rates, coarse.any(axis=0)


def _lattice_cells(sec: SectionSpec, v: np.ndarray, oriented: int, owned: bool) -> np.ndarray:
    """Lattice cell of each lifted angle in v (rows are times, columns
    orbits): the floor of its oriented turns past the level.  With ``owned``
    the first row holds starts, and a start within ON_SECTION_TOL of a
    lattice value owns it, so leaving it is not a crossing."""
    w = oriented * (v - sec.level) / TWO_PI
    cells = np.floor(w + 1e-12)
    if owned:
        own = np.round(w[0])
        cells[0] = np.where(np.abs(w[0] - own) * TWO_PI <= ON_SECTION_TOL, own, cells[0])
    return cells


def _first_passages(sec: SectionSpec, v: np.ndarray, oriented: int, owned: bool):
    """Lattice cells of the lifted angles v (rows are times, columns orbits,
    see `_lattice_cells`), their steps from row to row, and per orbit whether
    it passes a lattice value upward and the first interval where it does."""
    floors = _lattice_cells(sec, v, oriented, owned)
    steps = np.diff(floors, axis=0)
    steps[~np.isfinite(steps)] = 0.0
    up = steps > 0
    return floors, steps, up.any(axis=0), up.argmax(axis=0)


class _PassageWatch:
    """Follows the lifted section angle of every orbit down rows of angles
    (step ends, or seed grid rows) from the first row ``vals``, with the
    anchors, orientation and start ownership of `_lattice_cells`, and records
    per orbit the row that ends its first upward lattice passage (-1 while it
    has none).  Called on batch states it is the stop predicate of a crossing
    scan.  Being fooled by a row step spanning more than pi of angle only ends
    the scan late, or early with an orbit left for the next chunk, since the
    brackets come from the refined grid."""

    def __init__(self, sec: SectionSpec, vals: np.ndarray, anchors, oriented: int):
        self.sec = sec
        self.oriented = oriented
        self.vals = np.asarray(vals, dtype=float)
        self.lift = self.vals if anchors is None else anchors
        self.cells = _lattice_cells(sec, self.lift[None], oriented, anchors is None)[0]
        self.first = np.full(len(self.vals), -1)
        self.rows = 1

    def follow(self, vals: np.ndarray) -> bool:
        """Follow the next rows of angles (rows, orbits); true once every
        orbit has passed."""
        if len(vals):
            # lift_k = lift_{k-1} - wrapped step back from row k to row k-1,
            # summed in row order
            rows = np.concatenate([self.vals[None], vals])
            lift = rows[:-1] - rows[1:]
            lift += math.pi
            lift %= TWO_PI
            np.subtract(math.pi, lift, out=lift)
            lift[0] += self.lift
            np.cumsum(lift, axis=0, out=lift)
            cells = _lattice_cells(self.sec, lift, self.oriented, False)
            up = cells > np.concatenate([self.cells[None], cells[:-1]])
            new = up.any(axis=0) & (self.first < 0)
            if new.any():
                self.first[new] = self.rows + up[:, new].argmax(axis=0)
            self.rows += len(vals)
            self.vals, self.lift, self.cells = vals[-1], lift[-1], cells[-1]
        return bool((self.first >= 0).all())

    def __call__(self, states: np.ndarray) -> bool:
        return self.follow(np.asarray(self.sec.theta(states), dtype=float)[None])


def _typical_rate(rates: np.ndarray) -> float:
    """Median |rate| of the finite entries, floored at 1e-6: the rate a
    scan's seed grid is sized for."""
    rates = np.abs(rates[np.isfinite(rates)])
    return max(float(np.median(rates)) if rates.size else 0.0, 1e-6)


def first_crossings(system, sec: SectionSpec, starts: np.ndarray,
                    t_max: float = DEFAULT_T_MAX, tol: float = phase.DEFAULT_FLOW_TOL,
                    direction: int = 1) -> Crossings:
    """First oriented crossing of the section along the orbit of every start.

    ``direction`` +1 scans forward time, -1 backward.  A start within
    ON_SECTION_TOL of a lattice value owns that value: leaving it is not a
    crossing.  Orbits are integrated in chunks of doubling length until each
    has a bracket or t_max is reached; failures are entries, not exceptions.
    A chunk ends early, at the first accepted step after which every orbit
    has passed a lattice value.  Its seed grid is evaluated only up to the
    row that ends the last orbit's first passage (`_seed_rows`), margins
    cover the kept rows, and an orbit the refined grid finds no bracket for
    in them goes on into the next chunk from the last kept row.  Each
    chunk's seed grid is sized for the median rate of the orbits it carries.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    directed = _Directed(system, direction)
    oriented = sec.orientation * direction
    out = Crossings(times=np.full(n, np.nan), states=np.full((n, dim), np.nan),
                    rates=np.full(n, np.nan), residuals=np.full(n, np.nan),
                    margins=np.abs(np.asarray(sec.rate(system, starts), dtype=float)),
                    crossings_seen=np.zeros(n, dtype=int), failures=["no crossing"] * n)
    typical = _typical_rate(out.margins)
    chunk = min(t_max, max(2.5 * TWO_PI / typical, 1e-3))
    active = np.arange(n)
    states = starts
    anchors = None
    t_accum = 0.0
    while active.size and t_accum < t_max - 1e-15:
        watch = _PassageWatch(sec, sec.theta(states), anchors, oriented)
        sol = phase.integrate_batch(directed, states, 0.0, min(chunk, t_max - t_accum), tol,
                                    dense=True, stop=watch)
        t_end = float(sol.t[-1])
        dense = _BlockedDense(sol.sol, len(active), dim)
        m = max(65, min(2049, int(16 * t_end * max(typical, 1.0 / t_end))))
        ts = np.union1d(np.linspace(0.0, t_end, m), sol.t)
        seed = _seed_rows(sec, directed, dense, ts, anchors, oriented)
        ts, v, rates, coarse = _sample_grid(sec, directed, dense, *seed, anchors, oriented)
        out.margins[active] = np.minimum(out.margins[active], np.abs(rates).min(axis=0))
        for orbit in active[coarse]:
            out.failures[orbit] = (f"unconverged: grid refinement left an interval over pi/2 "
                                   f"of angle after {GRID_ROUNDS} rounds")

        # bracket: first upward lattice passage of each lifted angle
        if anchors is not None:
            v += anchors - v[0]
        floors, steps, hit, idx = _first_passages(sec, v, oriented, anchors is None)
        hit &= ~coarse
        counted = np.where(coarse, 0, np.where(hit, idx, len(steps)))
        before = np.arange(len(steps))[:, None] < counted
        out.crossings_seen[active] += (np.abs(steps) * before).sum(axis=0).astype(int) + hit

        cols = np.flatnonzero(hit)
        if cols.size:
            i = idx[cols]
            target = sec.level + oriented * TWO_PI * (floors[i, cols] + 1.0)
            x, dt = _henon_step(directed, sec, dense.gather(ts, i, cols), target - v[i, cols],
                                oriented, tol)
            x, t_corr, residual = _polish(directed, sec, x, oriented)
            t_local = ts[i] + dt + t_corr
            orbits = active[cols]
            out.times[orbits] = direction * (t_accum + t_local)
            out.states[orbits] = x
            out.rates[orbits] = sec.rate(system, x)
            out.residuals[orbits] = residual
            slack = 1e-3 * (ts[i + 1] - ts[i])
            for k, orbit in enumerate(orbits):
                rate, t = abs(out.rates[orbit]), out.times[orbit]
                if not rate >= TANGENCY_MARGIN:
                    out.failures[orbit] = (f"tangency: grazing crossing at t={t:.6g}: |d theta/dt|"
                                           f" = {rate:.3e} < {TANGENCY_MARGIN}")
                elif not residual[k] < ANGLE_RESIDUAL:
                    out.failures[orbit] = _unconverged(residual[k])
                elif not ts[i[k]] - slack[k] <= t_local[k] <= ts[i[k] + 1] + slack[k]:
                    out.failures[orbit] = (f"outside bracket: crossing at t={t:.6g} outside the "
                                           f"bracketing step of its orbit")
                else:
                    out.failures[orbit] = None

        keep = ~hit & ~coarse
        # the next chunk's grid is sized for the orbits still going
        typical = _typical_rate(rates[-1, keep])
        active = active[keep]
        states = dense.gather(ts, np.full(keep.sum(), len(ts) - 1), np.flatnonzero(keep))
        anchors = v[-1, keep]
        t_accum += float(ts[-1])
        chunk = min(2.0 * chunk, t_max)
    return out


class _Rescaled:
    """Row i flows for time T_i as s runs over [0, 1]: dx/ds = T_i X(x)."""

    def __init__(self, system, times: np.ndarray):
        self._system = system
        self.times = times

    def field(self, x: np.ndarray) -> np.ndarray:
        return self.times[:, None] * self._system.field(x)


def _start_failures(system, sec: SectionSpec, x: np.ndarray) -> list:
    """Reason per row why it cannot start a first return, or None: a start
    must lie on the section and be transverse to the flow."""
    off = np.abs(np.asarray(sec.offset(x), dtype=float))
    rate = np.abs(np.asarray(sec.rate(system, x), dtype=float))
    return [f"start point is not on the section: |theta - level| = {o:.3e}"
            if not o <= ON_SECTION_TOL else
            f"tangency: flow tangent to section at start: |d theta/dt| = {r:.3e}"
            if not r >= TANGENCY_MARGIN else None
            for o, r in zip(off, rate)]


def iterate_returns(system, sec: SectionSpec, starts: np.ndarray, k: int,
                    t_max: float = DEFAULT_T_MAX,
                    tol: float = phase.DEFAULT_FLOW_TOL) -> Returns:
    """k successive positively-oriented first returns of every start.

    Each round makes one `first_crossings` call over the live orbits, then a
    batched verification pass: the true flow is re-integrated from the
    round's starts to each orbit's own crossing time (time rescaled per
    row) and polished again, so no image inherits interpolant error.  The
    next round starts from the reduced images.  An orbit whose start is off
    the section or tangent to the flow, or whose crossing or verified image
    fails its bounds, stops with a failure entry; the others go on.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, dim = starts.shape
    out = Returns(times=np.full((n, k), np.nan), images=np.full((n, k, dim), np.nan),
                  margins=np.full((n, k), np.nan), residuals=np.full((n, k), np.nan),
                  crossings_seen=np.zeros((n, k), dtype=int), failures=[None] * n)
    forward = _Directed(system, 1)
    live = np.arange(n)
    x = system.manifold.reduce(starts)
    for j in range(k):
        reasons = _start_failures(system, sec, x)
        ready = np.flatnonzero([r is None for r in reasons])
        c = first_crossings(system, sec, x[ready], t_max, tol)
        for row, reason in zip(ready, c.failures):
            reasons[row] = reason
        out.crossings_seen[live[ready], j] = c.crossings_seen
        crossed = ready[c.ok]
        if crossed.size:
            times = c.times[c.ok]
            y = phase.integrate_batch(_Rescaled(system, times), x[crossed], 0.0, 1.0, tol)
            y, t_corr, residual = _polish(forward, sec, y.y[:, -1].reshape(-1, dim),
                                          sec.orientation)
            good = residual < ANGLE_RESIDUAL
            for row, r in zip(crossed[~good], residual[~good]):
                reasons[row] = _unconverged(r)
            orbits = live[crossed[good]]
            out.times[orbits, j] = times[good] + t_corr[good]
            out.images[orbits, j] = system.manifold.reduce(y[good])
            out.margins[orbits, j] = c.margins[c.ok][good]
            out.residuals[orbits, j] = residual[good]
        for row, reason in enumerate(reasons):
            if reason is not None:
                out.failures[live[row]] = (j, reason)
        live = live[[r is None for r in reasons]]
        if not live.size:
            break
        x = out.images[live, j]
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
    failures = []
    min_margin = math.inf
    max_time = 0.0
    for direction, label in ((1, "forward"), (-1, "backward")):
        c = first_crossings(system, sec, samples, t_max, tol, direction)
        failures += [(i, label, reason) for i, reason in enumerate(c.failures)
                     if reason is not None]
        ok = c.ok
        if ok.any():
            min_margin = min(min_margin, float(np.min(c.margins[ok])))
            if direction == 1:
                max_time = float(np.max(np.abs(c.times[ok])))
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
        c = [float(sec.offset(x))]
        if has_energy:
            c.append(float(system.energy(x)) - level_h)
        return np.array(c)

    def constraint_grads(x):
        g = [np.asarray(sec.grad_theta(x), dtype=float)]
        if has_energy:
            g.append(np.asarray(system.grad_h(x), dtype=float))
        return np.stack(g)

    G = constraint_grads(x0)
    n_con = G.shape[0]
    from itertools import combinations as _comb
    candidates = []
    if n_con == 2 and dim % 2 == 0:
        candidates.append([(2 * i, 2 * i + 1) for i in range(dim // 2)])
    candidates.append(list(_comb(range(dim), n_con)))
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
            A = constraint_grads(x)[:, list(elim)]
            x[list(elim)] -= np.linalg.solve(A, c)
        raise SectionChartError("section embedding did not converge")

    def project(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., list(free)]

    return free, embed, project


def section_frame(system, sec: SectionSpec, p: Point) -> np.ndarray:
    """Tangent frame of the section at p in ambient coordinates, one column
    per section coordinate (implicit-function derivative of the embedding)."""
    free, embed, _ = section_coordinates(system, sec, p)
    x0 = np.asarray(p.coords, dtype=float)
    dim = x0.size
    elim = [i for i in range(dim) if i not in free]
    g = [np.asarray(sec.grad_theta(x0), dtype=float)]
    if hasattr(system, "grad_h"):
        g.append(np.asarray(system.grad_h(x0), dtype=float))
    G = np.stack(g)
    A = G[:, elim]
    B = G[:, list(free)]
    E = np.zeros((dim, len(free)))
    E[list(free), np.arange(len(free))] = 1.0
    E[elim, :] = -np.linalg.solve(A, B)
    return E


def restricted_form_matrix(system, sec: SectionSpec, p: Point) -> np.ndarray:
    """Matrix of the ambient two-form on the section frame at p."""
    E = section_frame(system, sec, p)
    M = two_form_matrix(system.omega, np.asarray(p.coords, dtype=float))
    return E.T @ M @ E


def return_map_jacobians(system, sec: SectionSpec, points: Sequence[np.ndarray],
                         fd_step: float = 1e-6, t_max: float = DEFAULT_T_MAX,
                         tol: float = phase.DEFAULT_FLOW_TOL) -> np.ndarray:
    """Central-difference Jacobians of the return map in section coordinates,
    one (k, k) block per section point.

    Section coordinate a of a point s is perturbed by the relative step
    fd_step * max(1, |s_a|), so the stencil does not round back onto its
    centre at large amplitudes.  Every finite-difference stencil orbit goes
    through one `first_crossings` call; the smooth integration error is
    shared across a stencil and cancels in the central differences.  Unreduced end states are continuous in the
    initial condition, so raw differences need no period wrapping.  For
    two-dimensional sections the determinant is 1 up to integration error
    (the return map preserves the restricted symplectic form).
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
    crossings = first_crossings(system, sec, np.stack(stencils), t_max, tol)
    crossings.raise_failure()
    ends = crossings.states.reshape(n, k, 2, chart.dim)
    return np.stack([project(e[:, 0] - e[:, 1]).T / (2.0 * h)
                     for project, e, h in zip(projections, ends, steps)])


def return_map_jacobian(system, sec: SectionSpec, p: Point, fd_step: float = 1e-6,
                        t_max: float = DEFAULT_T_MAX,
                        tol: float = phase.DEFAULT_FLOW_TOL) -> np.ndarray:
    """Return-map Jacobian at one section point (see `return_map_jacobians`)."""
    return return_map_jacobians(system, sec, [p.coords], fd_step, t_max, tol)[0]


def return_map_determinants(system, sec: SectionSpec, points: Sequence[np.ndarray],
                            fd_step: float = 1e-6, t_max: float = DEFAULT_T_MAX,
                            tol: float = phase.DEFAULT_FLOW_TOL) -> np.ndarray:
    """Determinants of the return-map Jacobians (see `return_map_jacobians`)."""
    return np.linalg.det(return_map_jacobians(system, sec, points, fd_step, t_max, tol))


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
    within 1e-8.
    """
    chart = system.manifold
    t_samples = np.linspace(0.0, 1.0, n_time)
    records, rows = [], []
    gluing = 0.0
    energy_res = 0.0
    has_energy = hasattr(system, "energy")
    returns = iterate_returns(system, sec, np.array([p.coords for p in grid]), 1, t_max, tol)
    returns.raise_failure()
    for i, p in enumerate(grid):
        rec = returns.first(i, p)
        records.append(rec)
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
    return MappingTorusChart(list(grid), records, t_samples, np.stack(rows),
                             gluing, energy_res)


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
