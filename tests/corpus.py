"""The payload corpus: each regression config, run once and recorded in
tests/corpus.json, so that a change which moves an output shows as a diff.

An entry records a command, its config and seed, and what the run gave: the exit
code, the `error:` line of an exit 2, the `report` payload of report.json and the
sha256 of crossings.csv and plot.svg (null where the run writes none).  Its config is
read where it is declared: the JSON blocks of README.md and the ops of
bench/workloads.py at seeds 1 and 1000, and the regression configs of `REGRESSION`
below at the default seed, each with the exit code and the conditions its outputs
must meet.  A replay compares every recorded field exactly, each float to the bit,
and checks those conditions on the fresh outputs.

    python tests/corpus.py write     # rerun every declared entry in process, name the
                                     # entries that moved, and rewrite the file
    python tests/corpus.py replay    # replay the file through the installed `cosymlab` script

tests/test_corpus.py replays it in process.  Every run treats a RuntimeWarning as an
error.  A change that rewrites the corpus lists in CHANGES.md the entries that moved,
and why.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("corpus.json")
SEEDS = (1, 1000)
RESULT = ("exit", "error", "report", "crossings_sha256", "plot_sha256")
ARTIFACTS = {"crossings_sha256": "crossings.csv", "plot_sha256": "plot.svg"}


# -- the regression configs and their conditions --------------------------------------


def named(result: dict, check: str) -> dict:
    """The report's check of that name."""
    return next(c for c in result["report"]["checks"] if c["name"] == check)


def crossings(out: Path) -> list:
    """(orbit id, time) of every row of crossings.csv, in its order."""
    with open(out / "crossings.csv", newline="") as fh:
        return [(r["orbit_id"], float(r["t"])) for r in csv.DictReader(fh)]


def returns_within(out: Path, n: int, period: float) -> bool:
    """crossings.csv holds n returns, each within 1e-9 of period: a return time is the
    difference of an orbit's consecutive crossing times, its first measured from 0."""
    rows = crossings(out)
    gaps = [t - (s if o == p else 0.0) for (p, s), (o, t) in zip([(None, 0.0)] + rows, rows)]
    return len(gaps) == n and max(abs(g - period) for g in gaps) < 1e-9


def error_names(text: str):
    return f"the error line names {text!r}", lambda r, out: text in r["error"]


def svg_title(out: Path):
    """The text of plot.svg's first <text> element, the title; None where the file
    does not parse as XML."""
    try:
        root = ElementTree.parse(out / "plot.svg").getroot()
    except ElementTree.ParseError:
        return None
    return root.find("{http://www.w3.org/2000/svg}text").text


LAMBDA_T4 = {"dim": 4, "coordinates": ["x", "y", "z", "t"], "periodic": [True] * 4,
             "omega": [[0, 1, 1.0], [2, 3, 1.0]], "hamiltonian": "sin(t)",
             "lambda": [[1, "x"], [3, "z"]]}
OSCILLATOR = {"system": "oscillator_2dof_sqrt2", "section": {"kind": "angle", "pair": [2, 3]},
              "level": 1.0, "samples": 20, "iterations": 50, "n_return_points": 10}


# the first upward passages through 2 pi of the wiggle lifts of return-map-wiggle's
# starts, by bisection of v(t) = 0.3 t + sin(x0 + t) - sin(x0)
WIGGLE_PASSAGES = (0.2940468814425602, 0.05262042761021178, 15.244977768842668)


def inline_return_map(hamiltonian: str, coordinates=("q", "p"), **fields) -> dict:
    """A one-start return-map config on the inline dim-2 system of that energy, with
    any further system fields."""
    return {"system": {"dim": 2, "coordinates": list(coordinates), "omega": [[0, 1, 1.0]],
                       "hamiltonian": hamiltonian, **fields},
            "section": {"kind": "angle", "pair": [0, 1]}, "points": [[1.0, 0.0]]}


def closed_wave(k: int) -> dict:
    """tischler on alpha = d(x0 + sqrt 2 x1 + 0.01 sin(k x0) sin(x1)) on T^2, k written
    out: exactly closed, with periods (1, sqrt 2) and a derivative of size 0.01 k^2."""
    return {"tischler": {"dim": 2, "alpha": [
        [0, f"1 + 0.01*{k}*cos({k}*x0)*sin(x1)"],
        [1, f"1.4142135623730951 + 0.01*sin({k}*x0)*cos(x1)"]], "eps": 0.01, "d_cap": 100}}


def periods_near(r: dict, values: tuple) -> bool:
    """The periods check passes with values within 1e-10 of the given ones."""
    periods = named(r, "periods")
    return periods["passed"] and max(abs(v - w) for v, w in zip(periods["values"], values)) < 1e-10


# name: (command, config, exit code, [(condition, test of (result, out dir))]).  A config
# "readme" or "bench" is the first config of the command in README.md or in the bench.
REGRESSION = {
    "tischler": ("tischler", "readme", 0, []),
    # the rebuilt form's pairing with the flow keeps one sign, positive here
    "tischler-system": ("tischler", "bench", 0, [
        ("transversality passes with signed_min > 0",
         lambda r, out: named(r, "transversality")["passed"]
         and named(r, "transversality")["signed_min"] > 0)]),
    # a constant pair: its exterior derivatives are the constant zero form
    "verify-cosym": ("verify-cosym", "readme", 0, [
        ("cosymplectic passes with d_alpha_max = d_beta_max = 0.0",
         lambda r, out: named(r, "cosymplectic")["passed"]
         and named(r, "cosymplectic")["d_alpha_max"] == named(r, "cosymplectic")[
             "d_beta_max"] == 0.0)]),
    # every oscillator return sees one lattice passage: one scan per orbit neither
    # drops nor double-counts a passage across returns
    "return-map": ("return-map", "readme", 0, [
        ("iterates has n_rows = crossings_seen_total = 1000",
         lambda r, out: named(r, "iterates")["n_rows"]
         == named(r, "iterates")["crossings_seen_total"] == 1000),
        ("symplectic_determinant passes with max_det_error < 1e-8",
         lambda r, out: named(r, "symplectic_determinant")["passed"]
         and named(r, "symplectic_determinant")["max_det_error"] < 1e-8),
        ("1000 returns within 1e-9 of 2 pi / sqrt 2",
         lambda r, out: returns_within(out, 1000, 2 * math.pi / math.sqrt(2)))]),
    # the Jacobian step is section.FD_STEP, no config field
    "return-map-fd-step": ("return-map", {**OSCILLATOR, "fd_step": 1e-6}, 2,
                           [error_names("fd_step")]),
    # the closed-form section rate on a field solved point by point
    "return-map-inline": ("return-map", {
        "system": {"dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, "1 + 0.5*sin(q)"]],
                   "hamiltonian": "0.5*(q^2 + p^2)"},
        "section": {"kind": "angle", "pair": [0, 1]}, "points": [[0.8, 0.0], [1.2, 0.0]],
        "iterations": 2, "n_return_points": 1}, 0, [
        ("iterates has n_rows = 4", lambda r, out: named(r, "iterates")["n_rows"] == 4)]),
    # omega = (1 + 0.5 sin q1) dq1^dp1 + dq2^dp2, H = |x|^2 / 2: the (q2, p2) plane
    # turns once per 2 pi whatever (q1, p1) do
    "return-map-inline4": ("return-map", {
        "system": {"dim": 4, "coordinates": ["q1", "p1", "q2", "p2"],
                   "omega": [[0, 1, "1 + 0.5*sin(q1)"], [2, 3, 1.0]],
                   "hamiltonian": "0.5*(q1^2 + p1^2 + q2^2 + p2^2)"},
        "section": {"kind": "angle", "pair": [2, 3]},
        "points": [[0.8, 0.0, 1.0, 0.0], [0.3, -0.5, 0.7, 0.0], [1.2, 0.4, 0.5, 0.0]],
        "iterations": 5, "n_return_points": 2}, 0, [
        ("15 returns within 1e-9 of 2 pi", lambda r, out: returns_within(out, 15, 2 * math.pi))]),
    # the leaf {z = 0} of n = (0, 0, 1, 0) on T^4: every orbit returns after 2 pi
    "return-map-leaf": ("return-map", {
        "system": "t4_product", "section": {"kind": "leaf", "n": [0, 0, 1, 0]}, "samples": 3,
        "iterations": 2, "n_return_points": 2, "t_max": 30.0}, 0, [
        ("iterates passes with n_rows = 6",
         lambda r, out: named(r, "iterates")["passed"] and named(r, "iterates")["n_rows"] == 6),
        ("6 returns within 1e-9 of 2 pi", lambda r, out: returns_within(out, 6, 2 * math.pi))]),
    # a leaf that winds around a line coordinate is no circle-valued section
    "return-map-leaf-line": ("return-map", {
        "system": "canonical_r4", "section": {"kind": "leaf", "n": [1, 0, 0, 0]},
        "points": [[0, 0, -1, 0.5]]}, 2, [error_names("coordinate 0")]),
    # lambda = x dy + z dt differentiates to omega but jumps across x and z on T^4
    "obstruct-lambda": ("obstruct", {"system": LAMBDA_T4}, 2, [error_names("lambda")]),
    # a start at zero amplitude has a NaN rate: a verdict, not a crash, and a plot
    # that keeps its axes and draws no point
    "return-map-zero": ("return-map", {
        "system": {"dim": 2, "omega": [[0, 1, 1.0]], "hamiltonian": "0.5*(x0^2 + x1^2)"},
        "section": {"kind": "angle", "pair": [0, 1]}, "points": [[0, 0]]}, 1, [
        ("plot.svg draws no point", lambda r, out: "<circle" not in (out / "plot.svg").read_text())]),
    # every leaf point of the T^6 product returns to itself
    "demo-product": ("demo-product", "bench", 0, [
        ("return_map_symplectic passes with max_identity_deviation < 1e-8",
         lambda r, out: named(r, "return_map_symplectic")["passed"]
         and named(r, "return_map_symplectic")["max_identity_deviation"] < 1e-8),
        ("mapping_torus_gluing passes with gluing_residual < 1e-9",
         lambda r, out: named(r, "mapping_torus_gluing")["passed"]
         and named(r, "mapping_torus_gluing")["gluing_residual"] < 1e-9)]),
    # the schema's largest quad_nodes, in bounded node blocks; the obstruction fires
    "obstruct-5120": ("obstruct", {"betti": "t5", "system": "canonical_r4", "ambient": "t4",
                                   "quad_nodes": 5120}, 1, []),
    # a NaN residual fails each structure check, so these inline forms exit 2
    "obstruct-nan-lambda": ("obstruct", {"system": {
        "dim": 4, "omega": [[0, 1, 1.0], [2, 3, 1.0]],
        "hamiltonian": "0.5*(x0^2 + x1^2 + x2^2 + x3^2)",
        "lambda": [[1, "x0 + 0/0"], [3, "x2"]]}}, 2, [error_names("primitive")]),
    "obstruct-nan-lambda-torus": ("obstruct", {"system": {
        "dim": 2, "periodic": [True, True], "omega": [[0, 1, 1.0]], "hamiltonian": "sin(x1)",
        "lambda": [[1, "x0 + 0/0"]]}}, 2, [error_names("lambda is not finite at a sample")]),
    "tischler-nan-alpha": ("tischler", {"tischler": {
        "dim": 2, "alpha": [[0, "1 + 0/0"], [1, 1.4142135623730951]]}}, 2,
        [error_names("not closed")]),
    "verify-cosym-nan-alpha": ("verify-cosym", {"cosym": {
        "dim": 3, "alpha": [[2, "1 + 0/0*x0"]], "beta": [[0, 1, 1.0]]}}, 2,
        [error_names("alpha is not finite at a sample")]),
    # a closed periodic form that the first two period rules do not resolve: the rules
    # double until two agree, at 512 and 1024 nodes
    "tischler-quadrature": ("tischler", {"tischler": {
        "dim": 2, "alpha": [[0, "1 + 0.5*cos(300*x0)"], [1, 1.4142135623730951]]}}, 0, [
        ("periods passes with values within 1e-10 of (1, sqrt 2)",
         lambda r, out: periods_near(r, (1.0, math.sqrt(2))))]),
    # a closed form whose wave the 2048-node rule does not resolve: the periods check
    # fails and carries its estimate per cycle, and the command stops there
    "tischler-quadrature-unconverged": ("tischler", {"tischler": {
        "dim": 2, "alpha": [[0, "cos(1000*x0)"], [1, 1.4142135623730951]]}}, 1, [
        ("periods fails with an estimate per cycle at 2048 nodes",
         lambda r, out: not named(r, "periods")["passed"]
         and len(named(r, "periods")["estimate"]) == 2 and named(r, "periods")["nodes"] == 2048),
        ("no rationalize check follows",
         lambda r, out: [c["name"] for c in r["report"]["checks"]] == ["periods"])]),
    # beta ^ beta overflows: a NaN volume fails the check, with no RuntimeWarning
    "verify-cosym-overflow": ("verify-cosym", {"cosym": {
        "dim": 5, "alpha": [[4, 1.0]], "beta": [[0, 1, 1e200], [2, 3, 1e200]]}}, 1, [
        ("cosymplectic fails", lambda r, out: not named(r, "cosymplectic")["passed"])]),
    # a coordinate section around a line coordinate is no circle-valued section
    "return-map-coordinate-line": ("return-map", {
        "system": "canonical_r4", "section": {"kind": "coordinate", "index": 0},
        "points": [[0, 0, -1, 0.5]]}, 2, [error_names("coordinate 0 is not periodic")]),
    # alpha = (1 + x0) dx0 is closed but no form on T^3
    "verify-cosym-aperiodic-alpha": ("verify-cosym", {"cosym": {
        "dim": 3, "alpha": [[0, "1 + x0"]], "beta": [[1, 2, 1.0]]}}, 2,
        [error_names("alpha is not periodic")]),
    "return-map-lambda": ("return-map", {"system": LAMBDA_T4, "section": {"kind": "coordinate"}},
                          2, [error_names("lambda is not periodic")]),
    # expressions too deep for the parser or for the derivative, and an exponent
    # that overflows int: config errors, not crashes
    "return-map-nested-parentheses": ("return-map", inline_return_map(
        "(" * 1000 + "q" + ")" * 1000), 2, [error_names("too many nested parentheses")]),
    "return-map-product-600": ("return-map", inline_return_map("*".join(["q"] * 600)), 2,
                               [error_names("nested too deeply")]),
    "return-map-exponent-1e999": ("return-map", inline_return_map("q^1e999"), 2,
                                  [error_names("exponents must be integer literals")]),
    # a coordinate name that is repeated or that an expression cannot reference
    "return-map-duplicate-coordinate": ("return-map", inline_return_map("0.5*q^2", ("q", "q")),
                                        2, [error_names("coordinate name 'q' is given twice")]),
    "return-map-pi-coordinate": ("return-map", inline_return_map("0.5*q^2", ("q", "pi")), 2,
                                 [error_names("coordinate name 'pi' is reserved")]),
    # the same rule when no coefficient is an expression
    "verify-cosym-duplicate-coordinate": ("verify-cosym", {"cosym": {
        "dim": 3, "coordinates": ["q", "q", "pi"], "alpha": [[2, 1.0]],
        "beta": [[0, 1, 1.0]]}}, 2, [error_names("coordinate name 'q' is given twice")]),
    # config errors, each named on the error line: a start point off the section, a
    # malformed tischler field, a leaf normal of zeros, a flow that is not Hamiltonian
    # for the exactness obstruction, and a coordinates list of the wrong length
    "return-map-off-section": ("return-map", {**OSCILLATOR, "points": [[0.6, 0, 0.8, 0.3]]}, 2,
                               [error_names("not on the section")]),
    "tischler-periods-string": ("tischler", {"tischler": {"periods": "x"}}, 2,
                                [error_names("'periods'")]),
    "return-map-leaf-zero-normal": ("return-map", {
        "system": "t4_product", "section": {"kind": "leaf", "n": [0, 0, 0, 0]}}, 2,
        [error_names("'n'")]),
    "obstruct-suspension": ("obstruct", {"system": "suspension_rotation"}, 2,
                            [error_names("not a Hamiltonian system")]),
    "verify-cosym-short-coordinates": ("verify-cosym", {"cosym": {
        "dim": 3, "coordinates": ["q"], "alpha": [[2, 1.0]], "beta": [[0, 1, 1.0]]}}, 2,
        [error_names("coordinates list length")]),
    # an energy level of 1e300: the orbits, their returns and the Jacobians stay finite
    # and raise no RuntimeWarning
    "return-map-level-1e300": ("return-map", {
        **OSCILLATOR, "level": 1e300, "samples": 3, "iterations": 3, "n_return_points": 2}, 0, [
        ("iterates has n_rows = 9", lambda r, out: named(r, "iterates")["n_rows"] == 9),
        ("symplectic_determinant passes with max_det_error < 1e-6",
         lambda r, out: named(r, "symplectic_determinant")["passed"]
         and named(r, "symplectic_determinant")["max_det_error"] < 1e-6)]),
    # a start point where an inline omega vanishes is refused before any integration
    "return-map-degenerate-start": ("return-map", {"system": {
        "dim": 2, "coordinates": ["q", "p"], "periodic": [True, True],
        "omega": [[0, 1, "sin(q)"]], "hamiltonian": "sin(p)"},
        "section": {"kind": "coordinate", "index": 0, "level": 0.0}, "points": [[0.0, 0.3]],
        "iterations": 1, "n_return_points": 1}, 2, [error_names("degenerate")]),
    # a system name with XML metacharacters is escaped in the plot's title
    "return-map-escaped-title": ("return-map", inline_return_map(
        "0.5*(q^2 + p^2)", name="a<b & c"), 0, [
        ("plot.svg parses as XML", lambda r, out: svg_title(out) is not None),
        ("its title reads 'return-map iterates (a<b & c)'",
         lambda r, out: svg_title(out) == "return-map iterates (a<b & c)")]),
    # H = y - 0.3 x - sin x on T^2 moves as x' = 1, y' = 0.3 + cos x, whose y rate
    # changes sign: each start's y angle dips and turns back near the lattice (the
    # scan's turning rule), and its return is the first upward passage of
    # v(t) = 0.3 t + sin(x0 + t) - sin(x0) through 2 pi, bisected in WIGGLE_PASSAGES
    "return-map-wiggle": ("return-map", {
        "system": {"dim": 2, "coordinates": ["x", "y"], "periodic": [True, True],
                   "omega": [[0, 1, 1.0]], "hamiltonian": "y - 0.3*x - sin(x)"},
        "section": {"kind": "coordinate", "index": 1},
        "points": [[4.25953683813, 0.0], [4.381349826855, 0.0], [4.445325753588, 0.0]],
        "iterations": 1, "t_max": 200.0}, 0, [
        ("each return within 1e-8 of its bisected passage",
         lambda r, out: len(crossings(out)) == 3 and all(
             o == str(i) and abs(t - WIGGLE_PASSAGES[i]) < 1e-8
             for i, (o, t) in enumerate(crossings(out))))]),
    # a closed alpha with a non-constant term: alpha ^ beta takes the non-constant wedge
    "verify-cosym-exact-alpha": ("verify-cosym", {"cosym": {
        "dim": 3, "alpha": [[2, 1.0], [0, "0.1*cos(x0)"]], "beta": [[0, 1, 1.0]]},
        "samples": 16}, 0, [
        ("cosymplectic has d_alpha_max = d_beta_max = 0.0 and volume_margin = 1.0",
         lambda r, out: named(r, "cosymplectic")["d_alpha_max"]
         == named(r, "cosymplectic")["d_beta_max"] == 0.0
         and named(r, "cosymplectic")["volume_margin"] == 1.0)]),
    # a non-constant exact omega on R^4: its pullbacks to the meshed sphere and torus
    # evaluate the patches and the form's frame point by point, and both vanish
    "obstruct-inline-exact-r4": ("obstruct", {"system": {
        "dim": 4, "omega": [[0, 1, 1.0], [1, 2, "-0.1*cos(x2)"], [2, 3, 1.0]],
        "lambda": [[1, "x0 + 0.1*sin(x2)"], [3, "x2"]],
        "hamiltonian": "0.5*(x0^2 + x1^2 + x2^2 + x3^2)"}, "quad_nodes": 64}, 1, [
        ("the verdict is negative with both surface integrals below 1e-8",
         lambda r, out: named(r, "exactness_verdict")["verdict"] == "negative"
         and all(abs(v) < 1e-8
                 for v in named(r, "exactness_verdict")["surface_integrals"].values()))]),
    # exactly closed forms whose derivatives are large: their exact d is closed to
    # rounding, where central differences read their truncation error as d alpha
    **{f"tischler-closed-wave-{k}": ("tischler", closed_wave(k), 0, [
        ("periods passes with values within 1e-10 of (1, sqrt 2)",
         lambda r, out: periods_near(r, (1.0, math.sqrt(2))))]) for k in (200, 300, 1000)},
    # alpha = d(0.01 sin(200 x0) sin(x1)) + dx2 and beta = dx0 ^ dx1 on T^3: passes at
    # every seed (tests/test_corpus.py runs seeds 0 to 7)
    "verify-cosym-closed-wave": ("verify-cosym", {"cosym": {"dim": 3, "alpha": [
        [0, "0.01*200*cos(200*x0)*sin(x1)"], [1, "0.01*sin(200*x0)*cos(x1)"], [2, 1.0]],
        "beta": [[0, 1, 1.0]]}, "samples": 8}, 0, [
        ("cosymplectic passes with d_alpha_max < 1e-12",
         lambda r, out: named(r, "cosymplectic")["passed"]
         and named(r, "cosymplectic")["d_alpha_max"] < 1e-12)]),
    # alpha = dx2 + 1e-7 sin(x1) dx0 is not closed: |d alpha| = 1e-7 |cos(x1)|, far above
    # rounding at the alpha's size of 1, though below the absolute 1e-6 it once passed under
    "verify-cosym-not-closed": ("verify-cosym", {"cosym": {
        "dim": 3, "alpha": [[2, 1.0], [0, "1e-7*sin(x1)"]], "beta": [[0, 1, 1.0]]},
        "samples": 8}, 1, [
        ("cosymplectic fails with d_alpha_max 9.97e-08",
         lambda r, out: not named(r, "cosymplectic")["passed"]
         and abs(named(r, "cosymplectic")["d_alpha_max"] - 9.97e-8) < 5e-11)]),
    # the same defect in tischler: the loop integrals of a form that is not closed
    # depend on the path, so it is refused before its periods are taken
    "tischler-not-closed": ("tischler", {"tischler": {"dim": 2, "alpha": [
        [0, "1 + 1e-7*sin(x1)"], [1, 1.4142135623730951]], "eps": 0.01, "d_cap": 100}}, 2, [
        error_names("not closed")]),
    # the catalog's one-degree oscillator returns to its axis every 2 pi
    "return-map-harmonic": ("return-map", {"system": "harmonic_oscillator",
                                           "points": [[1.0, 0.0]], "iterations": 2}, 0, [
        ("2 returns within 1e-9 of 2 pi", lambda r, out: returns_within(out, 2, 2 * math.pi))]),
}


# -- declared entries -----------------------------------------------------------------


def bench_workloads():
    """bench/workloads.py, loaded from its file (bench is no package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def declared() -> list:
    """name, command, config and seed of every entry, in corpus order."""
    from helpers import readme_configs
    workloads = bench_workloads()

    def bench_ops(seed):
        return [(f"bench-{name}-{i}-{op.command}", op.command, op.config)
                for name, build in workloads.WORKLOADS.items()
                for i, op in enumerate(build(seed))]

    readme = readme_configs()
    sources = {"readme": readme, "bench": [(c, cfg) for _, c, cfg in bench_ops(0)]}
    entries = [{"name": name, "command": command, "seed": 0,
                "config": next(cfg for c, cfg in sources[config] if c == command)
                if isinstance(config, str) else config}
               for name, (command, config, _, _) in REGRESSION.items()]
    for seed in SEEDS:
        entries += [{"name": f"readme-{i}-{command}@{seed}", "command": command,
                     "config": config, "seed": seed}
                    for i, (command, config) in enumerate(readme)]
        entries += [{"name": f"{name}@{seed}", "command": command, "config": config, "seed": seed}
                    for name, command, config in bench_ops(seed)]
    return entries


def failed_conditions(entry: dict, result: dict, out: Path) -> list:
    """The regression conditions of an entry (none for other entries) that its result
    and fresh outputs fail, the exit code first."""
    if entry["name"] not in REGRESSION:
        return []
    _, _, exit_code, conditions = REGRESSION[entry["name"]]
    if result["exit"] != exit_code:
        return [f"exit {result['exit']}, not {exit_code}"]
    return [text for text, holds in conditions if not holds(result, out)]


# -- running and comparing ------------------------------------------------------------


def in_process(argv: list) -> tuple:
    """(exit code, stderr) of `cli.main(argv)` in this process."""
    from cosymlab import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def console_script(argv: list) -> tuple:
    """(exit code, stderr) of the installed `cosymlab` script."""
    proc = subprocess.run(["cosymlab", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
    return proc.returncode, proc.stderr


def run(entry: dict, out: Path, invoke: Callable) -> dict:
    """The recorded fields of one run of the entry, its outputs written to out."""
    out.parent.mkdir(parents=True, exist_ok=True)
    config = out.with_name(out.name + ".json")
    config.write_text(json.dumps(entry["config"]))
    code, stderr = invoke([entry["command"], "--config", str(config), "--out", str(out),
                           "--seed", str(entry["seed"])])
    report = out / "report.json"
    return {
        "exit": code,
        "error": next((line for line in stderr.splitlines() if line.startswith("error: ")), None),
        "report": json.loads(report.read_text())["report"] if report.exists() else None,
        **{key: hashlib.sha256((out / name).read_bytes()).hexdigest()
           if (out / name).exists() else None for key, name in ARTIFACTS.items()},
    }


def mismatches(expected, actual, path: str = "") -> list:
    """Where actual differs from expected: types, keys, lengths and values exactly,
    each float by its bits (so -0.0 differs from 0.0, and NaN equals NaN)."""
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r:.80} != {actual!r:.80}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    same = expected.hex() == actual.hex() if isinstance(expected, float) else expected == actual
    return [] if same else [f"{path}: {expected!r:.80} != {actual!r:.80}"]


def floats_blanked(value):
    """value with every float replaced by 0.0: equal to another such value where the
    two differ in float values alone."""
    if isinstance(value, dict):
        return {k: floats_blanked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [floats_blanked(v) for v in value]
    return 0.0 if isinstance(value, float) else value


def report_moves(old: list, fresh: list) -> None:
    """Print each fresh entry whose recorded fields differ from the old entry of its
    name, with its first mismatching paths, then the count of moved entries and of
    those among them where more than float values and artifact digests moved."""
    before = {e["name"]: {key: e[key] for key in RESULT} for e in old}
    moved = other = 0
    for entry in fresh:
        after = {key: entry[key] for key in RESULT}
        was = before.get(entry["name"])
        problems = ["new entry"] if was is None else mismatches(was, after)
        if not problems:
            continue
        moved += 1
        other += was is None or bool(mismatches(
            *(floats_blanked({k: v for k, v in r.items() if k not in ARTIFACTS})
              for r in (was, after))))
        print(f"moved {entry['name']}: " + "; ".join(problems[:3]))
    print(f"{moved} entries moved, {other} of them in more than float values and "
          "artifact digests")


def load() -> list:
    return json.loads(CORPUS.read_text())["entries"]


def replay(entry: dict, out: Path, invoke: Callable) -> list:
    """Every mismatch between an entry's record and a fresh run, and every regression
    condition that run fails."""
    result = run(entry, out, invoke)
    expected = {key: entry[key] for key in RESULT}
    return mismatches(expected, result) + failed_conditions(entry, result, out)


def main(argv: list) -> int:
    warnings.simplefilter("error", RuntimeWarning)
    if argv not in (["write"], ["replay"]):
        print(__doc__, file=sys.stderr)
        return 2
    if argv == ["replay"] and shutil.which("cosymlab") is None:
        print("error: the `cosymlab` console script is not on PATH: install it with "
              "`pip install -e .`, or replay in process with `pytest tests/test_corpus.py`",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["write"]:
            entries = [{**e, **run(e, Path(tmp) / str(i), in_process)}
                       for i, e in enumerate(declared())]
            report_moves(load() if CORPUS.exists() else [], entries)
            CORPUS.write_text(json.dumps({"entries": entries}, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(entries)} entries to {CORPUS}")
            return 0
        entries, failed = load(), 0
        for i, entry in enumerate(entries):
            problems = replay(entry, Path(tmp) / str(i), console_script)
            failed += bool(problems)
            print(f"{entry['name']}: " + ("; ".join(problems[:5]) if problems else "ok"))
        print(f"{failed} of {len(entries)} entries differ")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
