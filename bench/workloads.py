"""Seeded benchmark workloads: CLI command sequences and their output checks.

Every workload is a list of operations.  An operation is one CLI invocation
(`cosymlab <command> --config <file> --out <dir> --seed <seed>`) together
with the exit code it must return and the checks its outputs must pass.  The
checks recompute what they can from the written artifacts (`crossings.csv`,
`report.json`) against analytic references, independently of the verdicts
the program reports about itself.

Only the standard library is used here, so the timed benchmark process
imports neither NumPy nor the package under test.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

ANGLE_RESIDUAL_MAX = 1e-12      # certified crossing residual
RETURN_TIME_ERROR_MAX = 1e-6    # |consecutive crossing-time difference - analytic period|
ENERGY_DRIFT_MAX = 1e-8         # |H(crossing) - level|
DET_ERROR_MAX = 1e-6            # |det J - 1| of the return-map Jacobian
STOKES_MAX = 1e-8               # |integral of omega over a closed surface|, exact case

# the inline one-form of the tischler operation and its analytic periods
# (loop integrals over the coordinate circles, normalized by 2*pi)
TISCHLER_ALPHA = [[0, "1.0 + 0.3*cos(x0)"], [1, SQRT2],
                  [2, "0.5*sin(x2) + 1.7320508075688772"], [3, 0.1]]
TISCHLER_PERIODS = (1.0, SQRT2, SQRT3, 0.1)

# accuracy figures reported by the traced run; each is the worst value seen
ACCURACY_MAX = ("max_angle_residual", "max_return_time_error", "max_det_error",
                "max_energy_drift", "max_gluing_residual")
ACCURACY_MIN = ("min_transversality_margin",)


@dataclass
class Outcome:
    """Named check failures and worst accuracy figures of one or more ops."""

    failures: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def fail(self, name: str, detail: str = "") -> None:
        self.failures.append(f"{name}: {detail}" if detail else name)

    def require(self, ok: bool, name: str, detail: str = "") -> None:
        if not ok:
            self.fail(name, detail)

    def worst(self, key: str, value: float) -> None:
        pick = min if key in ACCURACY_MIN else max
        self.accuracy[key] = pick(self.accuracy.get(key, value), value)

    def merge(self, other: "Outcome") -> None:
        self.failures.extend(other.failures)
        for key, value in other.accuracy.items():
            self.worst(key, value)


@dataclass
class Op:
    command: str
    config: dict
    expected_exit: int
    check: Callable[[Path, Outcome], None]

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(seed)]


# -- artifact readers ----------------------------------------------------------


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def report_payload_bytes(out: Path) -> bytes:
    """The deterministic part of report.json (everything but "meta")."""
    return json.dumps(read_report(out)["report"], sort_keys=True).encode()


def checks_by_name(report: dict) -> dict:
    return {c["name"]: c for c in report["report"]["checks"]}


def read_crossings(out: Path) -> list:
    with open(out / "crossings.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def coords_of(row: dict) -> list:
    dim = sum(1 for k in row if k.startswith("coord_"))
    return [float(row[f"coord_{i}"]) for i in range(dim)]


# -- shared checks -------------------------------------------------------------


def check_crossings(out: Path, res: Outcome, n_rows: int, period: float,
                    residual: Callable[[list], float],
                    energy: Optional[Callable[[list, int], float]] = None) -> None:
    """Every crossing row: angle residual, return time, energy, margin.

    ``residual(x)`` is the distance of the section function from its level;
    ``energy(x, orbit)`` the distance of H(x) from the orbit's energy level.
    Return times are the differences of consecutive ``t`` values of an orbit
    (the first measured from t = 0).
    """
    rows = read_crossings(out)
    res.require(len(rows) == n_rows, "crossings.row_count", f"{len(rows)} != {n_rows}")
    last_t: dict = {}
    bad = {"angle": 0, "time": 0, "energy": 0}
    for row in rows:
        orbit = int(row["orbit_id"])
        t = float(row["t"])
        x = coords_of(row)
        r = residual(x)
        res.worst("max_angle_residual", r)
        bad["angle"] += not r < ANGLE_RESIDUAL_MAX
        dt_err = abs(t - last_t.get(orbit, 0.0) - period)
        last_t[orbit] = t
        res.worst("max_return_time_error", dt_err)
        bad["time"] += not dt_err <= RETURN_TIME_ERROR_MAX
        if energy is not None:
            e = energy(x, orbit)
            res.worst("max_energy_drift", e)
            bad["energy"] += not e <= ENERGY_DRIFT_MAX
        res.worst("min_transversality_margin", float(row["margin"]))
    res.require(not bad["angle"], "crossings.angle_residual", f"{bad['angle']} rows")
    res.require(not bad["time"], "crossings.return_time", f"{bad['time']} rows")
    res.require(not bad["energy"], "crossings.energy", f"{bad['energy']} rows")


def check_det_error(out: Path, res: Outcome, check_name: str) -> None:
    c = checks_by_name(read_report(out)).get(check_name)
    if c is None:
        res.fail("report.det_error", f"no check {check_name!r}")
        return
    err = float(c["max_det_error"])
    res.worst("max_det_error", err)
    res.require(err < DET_ERROR_MAX, "report.det_error", f"{err:.3e}")


def angle_residual(i: int, j: int) -> Callable[[list], float]:
    """Residual of the phase-angle section of the (i, j) pair at level 0."""
    return lambda x: abs(math.atan2(-x[j], x[i]))


# -- return-map-osc ------------------------------------------------------------

OSC_SAMPLES = 4
OSC_ITERATIONS = 10
OSC_RETURN_POINTS = 2
OSC_LEVEL = 1.0


def oscillator_energy(x: list) -> float:
    return 0.5 * (x[0] ** 2 + x[1] ** 2) + 0.5 * SQRT2 * (x[2] ** 2 + x[3] ** 2)


def return_map_osc(seed: int) -> list:
    cfg = {"system": "oscillator_2dof_sqrt2",
           "section": {"kind": "angle", "pair": [2, 3]},
           "level": OSC_LEVEL, "samples": OSC_SAMPLES, "iterations": OSC_ITERATIONS,
           "n_return_points": OSC_RETURN_POINTS, "tol": 1e-10, "t_max": 100.0}

    def check(out: Path, res: Outcome) -> None:
        check_crossings(out, res, OSC_SAMPLES * OSC_ITERATIONS, TWO_PI / SQRT2,
                        angle_residual(2, 3),
                        lambda x, _orbit: abs(oscillator_energy(x) - OSC_LEVEL))
        check_det_error(out, res, "symplectic_determinant")

    return [Op("return-map", cfg, 0, check)]


# -- globality-product ---------------------------------------------------------

PRODUCT_SAMPLES = 1500
PRODUCT_CROSSING_ROWS = 50      # demo-product writes the first 50 samples' crossings


def globality_product(seed: int) -> list:
    tol = 1e-10
    cfg = {"seed": "t5", "samples": PRODUCT_SAMPLES, "n_return_points": 5, "grid": 9,
           "tol": tol, "t_max": 100.0}

    def check(out: Path, res: Outcome) -> None:
        # T^6 = T^5 x S^1: the leaf section is coord_4 = 0 and H = sin(coord_5)
        # vanishes on the leaf; every leaf point returns after exactly 2*pi
        check_crossings(out, res, min(PRODUCT_SAMPLES, PRODUCT_CROSSING_ROWS), TWO_PI,
                        lambda x: abs(math.remainder(x[4], TWO_PI)),
                        lambda x, _orbit: abs(math.sin(x[5])))
        check_det_error(out, res, "return_map_symplectic")
        checks = checks_by_name(read_report(out))
        gluing = float(checks["mapping_torus_gluing"]["gluing_residual"])
        res.worst("max_gluing_residual", gluing)
        res.require(gluing < 10 * tol, "report.gluing_residual", f"{gluing:.3e}")
        vg = checks["verify_global"]
        res.require(vg["passed"] and not vg["failures"] and not vg["vacuous"]
                    and vg["n_samples"] == PRODUCT_SAMPLES == vg["n_pass"],
                    "report.verify_global",
                    f"{vg['n_pass']}/{vg['n_samples']} samples pass")

    return [Op("demo-product", cfg, 0, check)]


# -- structure-inline ----------------------------------------------------------

COSYM_SAMPLES = 20000
TISCHLER_EPS = 1e-3
TISCHLER_D_CAP = 10000
INLINE_ITERATIONS = 2
INLINE_RETURN_POINTS = 1


def structure_inline(seed: int) -> list:
    rng = random.Random(seed)
    radii = [round(rng.uniform(0.5, 1.5), 12) for _ in range(2)]

    def check_cosym(out: Path, res: Outcome) -> None:
        c = checks_by_name(read_report(out))["cosymplectic"]
        res.require(c["passed"], "report.cosymplectic", json.dumps(c, sort_keys=True))

    def check_tischler(out: Path, res: Outcome) -> None:
        ra = checks_by_name(read_report(out))["rationalize"]
        d, n = int(ra["d"]), [int(v) for v in ra["n"]]
        res.require(1 <= d <= TISCHLER_D_CAP, "report.tischler_denominator", f"d = {d}")
        err = max(abs(k / d - p) for k, p in zip(n, TISCHLER_PERIODS))
        res.require(len(n) == len(TISCHLER_PERIODS) and err <= TISCHLER_EPS,
                    "report.tischler_fractions", f"max |n/d - period| = {err:.3e}")

    def check_obstruct(out: Path, res: Outcome) -> None:
        c = checks_by_name(read_report(out))["exactness_verdict"]
        integrals = c["surface_integrals"]
        res.require(set(integrals) == {"torus", "sphere"}
                    and all(abs(v) < STOKES_MAX for v in integrals.values()),
                    "report.stokes_integrals", json.dumps(integrals, sort_keys=True))
        res.require(c["verdict"] == "negative", "report.exactness_verdict", c["verdict"])

    def check_inline(out: Path, res: Outcome) -> None:
        # omega = (1 + sin(q)/2) dq^dp, H = (q^2 + p^2)/2: orbits are circles
        # q^2 + p^2 = r^2 traversed with period int_0^{2pi} (1 + sin(r cos s)/2) ds
        # = 2*pi (the sine term integrates to zero)
        check_crossings(out, res, len(radii) * INLINE_ITERATIONS, TWO_PI,
                        angle_residual(0, 1),
                        lambda x, orbit: abs(0.5 * (x[0] ** 2 + x[1] ** 2)
                                             - 0.5 * radii[orbit] ** 2))
        check_det_error(out, res, "symplectic_determinant")

    inline = {"system": {"dim": 2, "coordinates": ["q", "p"],
                         "omega": [[0, 1, "1 + 0.5*sin(q)"]],
                         "hamiltonian": "0.5*(q^2 + p^2)"},
              "section": {"kind": "angle", "pair": [0, 1]},
              "points": [[r, 0.0] for r in radii],
              "iterations": INLINE_ITERATIONS, "n_return_points": INLINE_RETURN_POINTS}
    return [
        Op("verify-cosym", {"seed": "t5", "samples": COSYM_SAMPLES}, 0, check_cosym),
        Op("tischler", {"tischler": {"dim": 4, "alpha": TISCHLER_ALPHA, "eps": TISCHLER_EPS,
                                     "d_cap": TISCHLER_D_CAP},
                        "system": "t4_product", "samples": 4096}, 0, check_tischler),
        # the exactness obstruction fires on canonical_r4, so exit 1 is success
        Op("obstruct", {"betti": "t5", "system": "canonical_r4", "ambient": "t4",
                        "quad_nodes": 512}, 1, check_obstruct),
        Op("return-map", inline, 0, check_inline),
    ]


WORKLOADS = {
    "return-map-osc": return_map_osc,
    "globality-product": globality_product,
    "structure-inline": structure_inline,
}
