"""Helpers shared by test modules: the README's example configs, a step hook
that records an integration's steps, the first return of one section point,
return-map Jacobians and mapping-torus charts on certified first returns, and
the energy drift and divergence of a system's flow."""
import json
import re
from pathlib import Path

import numpy as np

from cosymlab import cli, phase, section

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_configs():
    """(command, config) of every JSON block in README.md; the command is the last
    one named in backticks before the block."""
    out = []
    for m in re.finditer(r"```json\n(.*?)```", README, re.S):
        before = README[:m.start()]
        command = max(cli.COMMANDS, key=lambda c: before.rfind(f"`{c}`"))
        out.append((command, json.loads(m.group(1))))
    return out


def step_recorder(log: list):
    """A step hook for `dop853.solve` that appends (t_new, y_new) of the rows
    of every step it sees to log and lets each stand, with no cap and no end:
    it changes no step, and the log holds every accepted step."""

    def hook(rows, t, y, t_new, y_new, f, f_new):
        log.append((t_new.copy(), y_new.copy()))
        return np.ones(len(rows), dtype=bool), np.inf, np.zeros(len(rows), dtype=bool)

    return hook


def first_return(system, sec, x, **kwargs) -> section.Crossings:
    """`section.iterate_returns` of the one start x with k = 1, which must
    certify it: entry [0, 0] of times, states, margins and crossings_seen is
    the first return."""
    returns = section.iterate_returns(system, sec, x, 1, **kwargs)
    assert returns.failures == [None], returns.failures
    return returns


def jacobians(system, sec, points, t_max: float = section.DEFAULT_T_MAX,
              tol: float = phase.DEFAULT_FLOW_TOL):
    """`section.return_map_jacobians` on the record `section.iterate_returns`
    certifies for the points."""
    return section.return_map_jacobians(
        system, sec, section.iterate_returns(system, sec, points, 1, t_max, tol))


def torus_chart(system, sec, grid, t_max: float = section.DEFAULT_T_MAX,
                tol: float = phase.DEFAULT_FLOW_TOL):
    """`section.mapping_torus_chart` on the record `section.iterate_returns`
    certifies for the grid."""
    return section.mapping_torus_chart(
        system, sec, section.iterate_returns(system, sec, grid, 1, t_max, tol))


def energy_drift(system, x0, t_max: float, tol: float = phase.DEFAULT_FLOW_TOL) -> float:
    """Maximum |H(flow_t(x0)) - H(x0)| over the integrator's step ends in
    [0, t_max]."""
    x0 = np.asarray(x0, dtype=float)
    log = []
    phase.integrate_batch(system.field, x0[None], t_max, tol, step=step_recorder(log))
    states = np.concatenate([x0[None]] + [y_new for _, y_new in log])
    return float(np.max(np.abs(system.energy(states) - system.energy(x0))))


def divergence(system, x, h: float = 1e-5) -> float:
    """Central-difference divergence of the system field at x.  Hamiltonian
    fields preserve volume, so the value is a numerical zero up to the
    finite-difference floor."""
    steps = h * np.eye(len(x))
    return float(np.trace(system.field(x + steps) - system.field(x - steps)) / (2.0 * h))
