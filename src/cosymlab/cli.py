"""Command-line front end.

    cosymlab <command> --config <path> [--out <dir>] [--seed <u64>]

Commands: demo-product, verify-cosym, tischler, obstruct, return-map.
Each command reads a single JSON config document, runs the requested
constructions and verifications, and writes report.json (plus crossings.csv
and plot.svg where applicable) into the output directory.

Exit codes: 0 all checks passed, 1 a verification failed or an obstruction
fired, 2 usage or config error, 3 internal error (an unexpected exception;
its traceback goes to stderr).

Reports are deterministic for a fixed (config, seed): volatile data
(timestamp, wall-clock timings) is segregated under the "meta" key; the
"report" payload is byte-stable.

Importing this module loads the config schema, the catalog, `forms` and
`phase`.  A command imports the other layers it runs (`section`, `cosym`,
`tischler`, `obstruct`, `expr`, and the `dop853` stepper on its first
integration) when it runs, and only those its config needs.

A process ends through `run()`: `main()`, then `sys.exit` with its code,
skipping the collector's passes over the module graph at interpreter
shutdown.  `main()` itself leaves the collector alone, so it can be called
in process.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from . import catalog
from .forms import (ChartManifold, KForm, Rng, basis_rank, certification_samples,
                    check_periodic, constant_form)
from .phase import HamiltonianSystem, SingularOmegaError

if TYPE_CHECKING:
    from .section import SectionSpec


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# -- config schema ------------------------------------------------------------------
# One table per command maps each field to (check, default, doc); an object field has
# its own table.  `validate` rejects unknown fields, checks type and range (all bounds
# are finite, so NaN, inf and an over-bound count fail before any allocation) and fills
# in the defaults.  Checks that need the built system stay where it is built.

REQUIRED = object()
FLOAT_MAX = sys.float_info.max


class Check:
    def __init__(self, text: str, ok: Callable[[object], object],
                 table: Optional[Callable] = None):
        self.text = text      # the accepted type and range
        self.ok = ok          # truthy for an accepted value
        self.table = table    # the field table of an object value, given it


def num(lo: float, hi: float = FLOAT_MAX) -> Check:
    text = f"a number in ({lo:g}, {hi:g}]" if hi < FLOAT_MAX else f"a finite number > {lo:g}"
    return Check(text, lambda v: type(v) in (int, float) and lo < v <= hi)


def count(lo: int, hi: int) -> Check:
    return Check(f"an integer in [{lo}, {hi}]", lambda v: type(v) is int and lo <= v <= hi)


def name_in(names, alternative: str = "", table: Optional[Callable] = None) -> Check:
    return Check("one of " + ", ".join(f"'{n}'" for n in sorted(names)) + alternative,
                 lambda v: isinstance(v, str) and v in names, table)


def list_of(item: Callable, text: str, ok: Callable = lambda v: True) -> Check:
    """A list of items that `item` accepts, which `ok` accepts as a whole."""
    return Check(text, lambda v: type(v) is list and all(map(item, v)) and ok(v))


def form(degree: int) -> Check:
    def entry(e) -> bool:  # indices are checked before they are hashed
        return (type(e) is list and len(e) == degree + 1 and all(map(INDEX.ok, e[:-1]))
                and len(set(e[:-1])) == degree and (STRING.ok(e[-1]) or FINITE.ok(e[-1])))
    return list_of(entry, f"a list of [{', '.join('ij'[:degree])}, coefficient] entries: "
                   "distinct indices >= 0, a number or an expression")


def _fields(table: dict, value: dict, where: str) -> dict:
    unknown = [name for name in value if name not in table]
    if unknown:
        raise ConfigError(f"unknown {where} field {unknown[0]!r}; known: {', '.join(table)}")
    settings = {}
    for name, (check, default, _) in table.items():
        v = value.get(name, default)
        if v is REQUIRED:
            raise ConfigError(f"{where} field {name!r} is required")
        if name in value and check.table and type(v) is dict:
            v = _fields(check.table(v), v, name)
        elif name in value and not check.ok(v):
            raise ConfigError(f"{where} field {name!r} must be {check.text}, got {v!r:.80}")
        settings[name] = v
    return settings


FINITE = Check("a finite number", num(-FLOAT_MAX).ok)
STRING = Check("a string", lambda v: isinstance(v, str))
INDEX = Check("an integer >= 0", lambda v: type(v) is int and v >= 0)
OBJECT = Check("an object", lambda v: False)
# a cosymplectic check in dimension 12 builds wedge powers of binomial(12, 6) components
DIM = (count(1, 12), REQUIRED, "chart dimension")
INLINE_SYSTEM = {
    "dim": DIM, "name": (STRING, "inline", "title of return-map's plot.svg"),
    "coordinates": (list_of(STRING.ok, "a list of names"), (), "default x0, x1, ..."),
    "periodic": (list_of(lambda v: type(v) is bool, "a list of booleans"), (), "default none"),
    "periods": (list_of(num(0).ok, "a list of positive numbers"), (), "default 2π each"),
    "omega": (form(2), REQUIRED, "symplectic form ω"),
    "hamiltonian": (Check("a number or an expression", lambda v: STRING.ok(v) or FINITE.ok(v)),
                    REQUIRED, "energy H; the flow X solves ι_X ω = dH"),
    "lambda": (form(1), None, "primitive λ of ω, checked: dλ = ω; default none"),
}
INLINE_COSYM = {**{k: INLINE_SYSTEM[k] for k in ("dim", "coordinates")},
                "alpha": (form(1), REQUIRED, "closed one-form α"),
                "beta": (form(2), REQUIRED, "closed two-form β")}
KIND = (name_in(("coordinate", "angle", "leaf")), "coordinate", "section family")
ORIENTATION = (Check("1 or -1", lambda v: type(v) is int and v in (1, -1)), 1,
               "+1 counts crossings where the section angle increases along the flow")
SECTION_KINDS = {
    "coordinate": {"kind": KIND, "orientation": ORIENTATION,
                   "index": (INDEX, None, "periodic coordinate i of the section x_i = level; "
                             "default dim - 2"),
                   "level": (FINITE, 0.0, "level of the section x_i = level")},
    "angle": {"kind": KIND, "pair": (list_of(INDEX.ok, "two distinct integers >= 0", lambda v: (
        len(v) == 2 and v[0] != v[1])), (2, 3), "(i, j): the section atan2(-x_j, x_i) = 0")},
    "leaf": {"kind": KIND, "orientation": ORIENTATION,
             "n": (list_of(count(-100_000, 100_000).ok, "a list of integers in [-100000, "
                           "100000], not all 0", any), REQUIRED,
                   "winding per coordinate, 0 on each coordinate that is not periodic")},
}


def section_table(sec: dict) -> dict:
    """The field table of a 'section' object, by its kind (an unknown kind fails the
    'kind' field)."""
    return SECTION_KINDS.get(str(sec.get("kind", "coordinate")), SECTION_KINDS["coordinate"])


TISCHLER = {
    "periods": (list_of(FINITE.ok, "a list of 1 to 12 numbers", lambda v: 1 <= len(v) <= 12),
                None, "the periods, one per circle of the torus"),
    "alpha": (form(1), None, "else: the periods of this closed one-form on T^dim, or on "
              "the 'system' chart; not with 'periods'"),
    "dim": (DIM[0], None, "torus dimension; required with 'alpha'"),
    "eps": (num(0, 1), 1e-2, "largest error allowed between n_i / d and period_i"),
    "d_cap": (count(1, 100_000), catalog.DEFAULT_D_CAP, "largest denominator d tried"),
}
SYSTEM = name_in(catalog.SYSTEMS, ", or an inline system object", lambda v: INLINE_SYSTEM)
SEED = (name_in(catalog.SEEDS), "t3", "catalog cosymplectic seed")
SAMPLES, JACOBIAN_POINTS = count(1, 200_000), count(1, 1000)
TOL = (num(0, 1e-2), 1e-10, "integrator tolerance: relative, and tol/100 absolute")
T_MAX = (num(0, 1e4), 100.0, "longest flow time searched for a crossing")
RNG_SEED = (count(0, 2**64 - 1), 0, "seed of the standard library's Mersenne Twister, drawn "
            "through forms.Rng, so samples are the same on every platform for a fixed "
            "config and seed; --seed overrides it")
BETTI = name_in(catalog.BETTI_PROFILES, ", or an even-length list of integers >= 0, the "
                "first > 0")
COMMAND_FIELDS = {
    "demo-product": {
        "seed": SEED, "samples": (SAMPLES, 200, "leaf samples checked for a return"),
        "n_return_points": (JACOBIAN_POINTS, 5, "leaf samples whose Jacobian is checked"),
        "grid": (count(1, 1000), 9, "fiber points of the mapping-torus chart"),
        "tol": TOL, "t_max": T_MAX, "rng_seed": RNG_SEED},
    "verify-cosym": {
        "seed": SEED, "samples": (SAMPLES, 128, "chart points checked"), "rng_seed": RNG_SEED,
        "cosym": (name_in(catalog.SEEDS, ", or an inline cosym object", lambda v: INLINE_COSYM),
                  None, "the pair to verify; default the 'seed' field")},
    "tischler": {
        "tischler": (Check(OBJECT.text, OBJECT.ok, lambda v: TISCHLER), REQUIRED, "the periods"),
        "system": (SYSTEM, None, "system whose transversality the rebuilt form must keep; "
                   "needs 'alpha'"),
        "samples": (SAMPLES, 64, "energy-surface points checked"), "rng_seed": RNG_SEED},
    "obstruct": {
        "betti": (Check(BETTI.text, lambda v: BETTI.ok(v) or list_of(INDEX.ok, "", lambda b: (
            b and len(b) % 2 == 0 and b[0] > 0)).ok(v)), None, "Betti profile to check"),
        "system": (SYSTEM, None, "Hamiltonian system of the exactness obstruction"),
        "ambient": (name_in(catalog.AMBIENT_TOPOLOGY), None, "ambient manifold to judge"),
        "quad_nodes": (count(1, 5120), catalog.DEFAULT_QUAD_NODES, "n of the n × n midpoint "
                       "rule on each Stokes surface")},
    "return-map": {
        "system": (SYSTEM, REQUIRED, "catalog or inline system"),
        "section": (Check(OBJECT.text, OBJECT.ok, section_table), None,
                    "default: the catalog entry's own, else kind coordinate"),
        "points": (list_of(list_of(FINITE.ok, "").ok, "a non-empty list of lists of numbers",
                           len), None, "start points on the section; default sampled"),
        "level": (num(0), 1.0, "energy level of the oscillator start sampler"),
        "samples": (SAMPLES, 20, "sampled start points"),
        "iterations": (count(1, 1000), 50, "returns followed per orbit"),
        "n_return_points": (JACOBIAN_POINTS, 10, "start points whose Jacobian is checked"),
        "tol": TOL, "t_max": T_MAX, "rng_seed": RNG_SEED},
}


def validate(command: str, cfg) -> dict:
    """The checked settings of `command`, defaults filled in; else ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return _fields(COMMAND_FIELDS[command], cfg, "config")


def load_config(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # nested too deeply: RecursionError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


# -- builders -----------------------------------------------------------------------


def _form_from_entries(dim: int, names: Sequence[str], entries, degree: int) -> KForm:
    """Form from validated entries [i, j, coeff] (degree 2) or [i, coeff] (degree 1);
    coefficients are numbers or expressions over the coordinate names."""
    rank = basis_rank(dim, degree)
    terms = []
    for *idx, coeff in entries:
        if max(idx) >= dim:
            raise ConfigError(f"form indices {idx} must be below dimension {dim}")
        value = coeff
        if isinstance(coeff, str):
            from . import expr
            try:
                value = expr.parse(coeff, names)
            except expr.ExprError as exc:
                raise ConfigError(f"form coefficient {coeff!r}: {exc}") from exc
        terms.append((rank[tuple(sorted(idx))], 1.0 if idx == sorted(idx) else -1.0, value))

    if not any(isinstance(coeff, str) for *_, coeff in entries):
        vec = np.zeros(len(rank))
        for r, sign, value in terms:
            vec[r] += sign * value
        return constant_form(dim, degree, vec)
    # one generated function: column r is the sum of rank r's signed terms
    from . import expr
    columns: list = [None] * len(rank)
    for r, sign, value in terms:
        if isinstance(value, expr.Expression):
            term = value.root if sign > 0 else expr.Neg(value.root)
        else:
            term = expr.Num(sign * value)
        columns[r] = term if columns[r] is None else expr.BinOp("+", columns[r], term)
    try:
        coeffs = expr.compile_nodes([expr.Num(0.0) if c is None else c for c in columns])
    except expr.ExprError as exc:
        raise ConfigError(f"form coefficients: {exc}") from exc
    return KForm(degree, dim, coeffs)


def _coordinate_names(spec: dict) -> list:
    """The inline spec's coordinate names (default x0, x1, ...), one per dimension;
    ValueError unless they are distinct names that an expression can refer to."""
    from . import expr
    names = list(spec["coordinates"]) or [f"x{i}" for i in range(spec["dim"])]
    if len(names) != spec["dim"]:
        raise ValueError(f"coordinates list length {len(names)} must equal dim {spec['dim']}")
    expr.coordinate_index(names)
    return names


def build_inline_system(spec: dict) -> HamiltonianSystem:
    """The system of a validated inline spec (table INLINE_SYSTEM)."""
    from . import expr
    dim = spec["dim"]
    try:
        names = _coordinate_names(spec)
        chart = ChartManifold(dim, tuple(spec["periodic"]), tuple(spec["periods"]))
        h_expr = expr.parse(str(spec["hamiltonian"]), names)
        lam = None if spec["lambda"] is None else _form_from_entries(dim, names,
                                                                      spec["lambda"], 1)
        system = HamiltonianSystem(chart, _form_from_entries(dim, names, spec["omega"], 2),
                                   h_expr, h_expr.gradient(), lam=lam)
    except ValueError as exc:
        raise ConfigError(f"bad inline system spec: {exc}") from exc
    try:
        system.structure
    except ValueError as exc:
        raise ConfigError(f"inline system fails its structure checks: {exc}") from exc
    return system


def resolve_system(spec):
    """(name, catalog entry, system) of a validated 'system' setting."""
    if isinstance(spec, dict):
        return spec["name"], catalog.SystemEntry(), build_inline_system(spec)
    return spec, catalog.SYSTEMS[spec], catalog.get_system(spec)


def build_section(sec: Optional[dict], entry: catalog.SystemEntry, system) -> SectionSpec:
    """The validated 'section' setting on the system; without one, the entry's
    default section object, else the coordinate kind's defaults, through the
    same table."""
    from . import section
    if sec is None:
        default = entry.section or {}
        sec = _fields(section_table(default), default, "section")
    dim = system.dim
    if sec["kind"] == "angle":
        if max(sec["pair"]) >= dim:
            raise ConfigError(f"section field 'pair' {sec['pair']} must be below dim {dim}")
        return section.angle_section(tuple(sec["pair"]))
    if sec["kind"] == "leaf":
        if len(sec["n"]) != dim:
            raise ConfigError(f"section field 'n' must list {dim} integers, got {sec['n']!r}")
        build = partial(section.leaf_section, system.manifold, sec["n"])
    else:
        index = dim - 2 if sec["index"] is None else sec["index"]
        if not 0 <= index < dim:
            raise ConfigError(f"section field 'index' must be below dimension {dim}, got {index}")
        build = partial(section.coordinate_section, system.manifold, index, sec["level"])
    try:
        return build(orientation=sec["orientation"])
    except ValueError as exc:
        raise ConfigError(f"{sec['kind']} section: {exc}; configure a 'section' that winds "
                          "only around periodic coordinates, or of kind 'angle'") from exc


def section_start_points(entry: catalog.SystemEntry, system, sec: SectionSpec, cfg: dict,
                         rng: Rng) -> np.ndarray:
    """Explicit 'points', or the entry's start samples, on the section and with omega
    nondegenerate at each (a field call on the batch)."""
    if cfg["points"] is not None:
        if any(len(p) != system.dim for p in cfg["points"]):
            raise ConfigError(f"config field 'points' must hold {system.dim} coordinates each")
        pts = np.asarray(cfg["points"], dtype=float)
    elif entry.starts is None:
        raise ConfigError("no start sampler for this system; supply explicit 'points'")
    else:
        pts = entry.starts(system, rng, cfg["samples"], cfg["level"])
    for i, refusal in enumerate(sec.refusals(pts)):
        if refusal:
            raise ConfigError(f"start point {i} is {refusal}; supply explicit 'points' on it")
    try:
        system.field(pts)
    except SingularOmegaError as exc:
        raise ConfigError(f"omega is degenerate at the start points: {exc}") from exc
    return pts


# -- SVG scatter --------------------------------------------------------------------


def svg_scatter(path: Path, points: np.ndarray, title: str, labels: tuple[str, str]) -> None:
    """Scatter plot of 2D points in a fixed 800x800 viewport, its text XML-escaped."""
    size, margin = 800, 70
    xml_text = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})   # html.escape, no quotes
    title, *labels = (t.translate(xml_text) for t in (title, *labels))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    box = pts if pts.size else np.zeros((1, 2))   # no points: the axes around the origin
    lo, hi = box.min(axis=0), box.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-9)
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    def sx(v):
        return margin + (v - lo[0]) / span[0] * (size - 2 * margin)

    def sy(v):
        return size - margin - (v - lo[1]) / span[1] * (size - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{size - 2 * margin}" '
        f'height="{size - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{size / 2:.0f}" y="30" text-anchor="middle" font-size="18">{title}</text>',
        f'<text x="{size / 2:.0f}" y="{size - 15}" text-anchor="middle" '
        f'font-size="14">{labels[0]}</text>',
        f'<text x="20" y="{size / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {size / 2:.0f})">{labels[1]}</text>',
        f'<text x="{margin}" y="{size - margin + 20}" font-size="11">{lo[0]:.4g}</text>',
        f'<text x="{size - margin}" y="{size - margin + 20}" text-anchor="end" '
        f'font-size="11">{hi[0]:.4g}</text>',
        f'<text x="{margin - 5}" y="{size - margin}" text-anchor="end" '
        f'font-size="11">{lo[1]:.4g}</text>',
        f'<text x="{margin - 5}" y="{margin + 5}" text-anchor="end" '
        f'font-size="11">{hi[1]:.4g}</text>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                     'fill="steelblue" fill-opacity="0.7"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


# -- report assembly ----------------------------------------------------------------


class Runner:
    """Collects named checks with timings and writes the report."""

    def __init__(self, command: str, cfg: dict, out_dir: Path, seed: int):
        self.command = command
        self.cfg = cfg
        self.out = out_dir
        self.seed = seed
        self.checks: list[dict] = []
        self.timings: dict[str, float] = {}
        self.artifacts: list[str] = []

    def check(self, name: str, passed: bool, **fields) -> bool:
        if any(c["name"] == name for c in self.checks):
            raise RuntimeError(f"duplicate check name {name!r}")
        self.checks.append({"name": name, "passed": bool(passed), **_jsonable(fields)})
        return passed

    @contextlib.contextmanager
    def timed(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = time.perf_counter() - t0

    def add_artifact(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write_report(self) -> Path:
        report = {
            "command": self.command,
            "config": _jsonable(self.cfg),
            "seed": self.seed,
            "checks": self.checks,
            "passed": self.passed,
            "artifacts": sorted(self.artifacts),
        }
        payload = {
            "meta": {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            },
            "report": report,
        }
        path = self.out / "report.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        self.artifacts.append(path.name)
        return path


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


# -- commands -----------------------------------------------------------------------


def check_jacobians(runner: Runner, name: str, system, sec, record,
                    identity: bool = False) -> None:
    """Check |det J - 1| < DET_ERROR_MAX over the return-map Jacobians of the
    starts of a crossing record; ``identity`` also reports the largest
    |J - I|.  A start with no certified first crossing or no section chart
    fails the check."""
    from .section import DET_ERROR_MAX, SectionChartError, return_map_jacobians
    n_points, missing = len(record.starts), record.first_missing()
    error = missing and missing[1]
    try:
        jacs = None if error else return_map_jacobians(system, sec, record)
    except SectionChartError as exc:
        error = str(exc)
    if error:
        runner.check(name, False, error=error, n_points=n_points)
        return
    max_det_err = float(np.max(np.abs(np.linalg.det(jacs) - 1.0)))
    deviation = ({"max_identity_deviation": float(np.max(np.abs(jacs - np.eye(jacs.shape[-1]))))}
                 if identity else {})
    runner.check(name, max_det_err < DET_ERROR_MAX, n_points=n_points,
                 max_det_error=max_det_err, **deviation)


def cmd_demo_product(cfg: dict, runner: Runner, seed: int) -> None:
    """Build and verify the full section pipeline of a seeded product system.

    Constructs the product of the chosen cosymplectic seed with a circle,
    then runs globality, return-map, and mapping-torus checks on its leaf.
    """
    from .section import mapping_torus_chart, verify_global, write_crossings_csv
    rng = Rng(seed)
    tol, t_max = cfg["tol"], cfg["t_max"]

    with runner.timed("build"):
        system = catalog.product_system(cfg["seed"])
    runner.check("structure", True, **system.structure)

    sec = build_section(None, catalog.PRODUCT, system)
    leaf_samples = catalog.PRODUCT.starts(system, rng, cfg["samples"], 0.0)
    with runner.timed("verify_global"):
        rep = verify_global(system, sec, leaf_samples, t_max, tol)
    runner.check("verify_global", rep.passed, **rep.as_dict())

    # the checks read the leading rows of the forward record, at most as many as
    # there are samples, and say how many
    with runner.timed("return_map"):
        # every leaf point returns to itself, so the Jacobians are the identity
        check_jacobians(runner, "return_map_symplectic", system, sec,
                        rep.forward.select(slice(cfg["n_return_points"])), identity=True)

    with runner.timed("mapping_torus"):
        grid = rep.forward.select(slice(cfg["grid"]))
        missing = grid.first_missing()
        if missing:
            runner.check("mapping_torus_gluing", False, error=missing[1], n_points=len(grid.starts))
        else:
            mt = mapping_torus_chart(system, sec, grid)
            runner.check("mapping_torus_gluing", mt.passed, n_points=len(grid.starts),
                         gluing_residual=mt.gluing_residual, energy_residual=mt.energy_residual)

    # the first 50 samples' crossings, read off verify_global's forward scan
    with runner.timed("crossings"):
        first = rep.forward.select(slice(50))
        ok = first.ok
        write_crossings_csv(runner.add_artifact("crossings.csv"), first)
        svg_scatter(runner.add_artifact("plot.svg"), first.states[ok][:, :2],
                    f"return-map iterates ({cfg['seed']} seed)", ("coord 0", "coord 1"))
    runner.check("crossings_emitted", bool(ok.all()), n_rows=int(ok.sum()))


def cmd_verify_cosym(cfg: dict, runner: Runner, seed: int) -> None:
    """Verify a cosymplectic pair (catalog seed or inline forms)."""
    from . import cosym
    rng = Rng(seed)
    spec = cfg["cosym"] or cfg["seed"]
    if isinstance(spec, str):
        cs = catalog.SEEDS[spec]()
    else:
        dim = spec["dim"]
        try:
            names = _coordinate_names(spec)
            cs = cosym.CosymplecticStructure(
                ChartManifold(dim, (True,) * dim),
                _form_from_entries(dim, names, spec["alpha"], 1),
                _form_from_entries(dim, names, spec["beta"], 2))
            # whether a form lives on the chart does not depend on the seed
            samples = certification_samples(cs.manifold)
            for form_name, form in (("alpha", cs.alpha), ("beta", cs.beta)):
                check_periodic(form, cs.manifold, samples, form_name)
        except ValueError as exc:
            raise ConfigError(f"bad cosym spec: {exc}") from exc
    with runner.timed("verify"):
        report = cosym.verify_cosymplectic(cs, cs.manifold.sample(rng, cfg["samples"]))
    runner.check("cosymplectic", report.passed, **report.as_dict())


def cmd_tischler(cfg: dict, runner: Runner, seed: int) -> None:
    """Rationalize periods (given directly or computed from an inline form)."""
    from . import tischler
    tcfg = cfg["tischler"]
    if tcfg["periods"] is not None and tcfg["alpha"] is not None:
        raise ConfigError("tischler config takes 'periods' or 'alpha', not both")
    if cfg["system"] is not None and tcfg["alpha"] is None:
        raise ConfigError("config field 'system' needs the 'tischler' field 'alpha': "
                          "only a rebuilt one-form has a transversality to check")
    # the periods of alpha are taken on the system's chart
    _, entry, system = (None,) * 3 if cfg["system"] is None else resolve_system(cfg["system"])
    with runner.timed("periods"):
        alpha, values = None, tcfg["periods"]
        if values is not None:
            cycles = tuple(f"declared cycle {i}" for i in range(len(values)))
            pv = tischler.PeriodVector(values, cycles, catalog.torus(len(values)))
        elif tcfg["alpha"] is None or tcfg["dim"] is None:
            raise ConfigError("tischler config needs 'periods', or 'alpha' with its 'dim'")
        else:
            dim = tcfg["dim"]
            alpha = _form_from_entries(dim, [f"x{i}" for i in range(dim)], tcfg["alpha"], 1)
            try:
                pv = tischler.periods(alpha, catalog.torus(dim) if system is None
                                      else system.manifold)
            except ValueError as exc:
                raise ConfigError(f"bad 'tischler' spec: {exc}") from exc
    if not runner.check("periods", pv.converged, **pv.as_dict()):
        return

    with runner.timed("rationalize"):
        ra = tischler.rationalize(pv, tcfg["eps"], tcfg["d_cap"])
    if not runner.check("rationalize", ra.epsilon_achieved <= tcfg["eps"],
                        d=ra.d, n=ra.n, epsilon_achieved=ra.epsilon_achieved, eps=tcfg["eps"]):
        return

    if alpha is not None:
        with runner.timed("rebuild"):
            alpha_prime = tischler.build_approximation(alpha, pv, ra)
            # alpha' - alpha is constant, so alpha's certificate covers alpha'
            pv_check = tischler.loop_periods(alpha_prime, pv.manifold)
            residual = float(np.max(np.abs(pv_check.values - ra.fractions)))
            runner.check("rebuilt_periods",
                         pv_check.converged and residual < tischler.PERIOD_QUAD_ERR,
                         residual=residual, estimate=pv_check.estimate, nodes=pv_check.nodes,
                         coefficient_distance=tischler.coefficient_distance(pv, ra))

    if system is not None:
        sample = entry.level(system).sample if entry.level else system.manifold.sample
        samples = sample(Rng(seed), cfg["samples"])
        with runner.timed("transversality"):
            trans = tischler.check_transversality_preserved(system, alpha_prime, samples, alpha)
        runner.check("transversality", trans.passed, **trans.as_dict())


def cmd_obstruct(cfg: dict, runner: Runner, seed: int) -> None:
    """Run the requested non-existence obstructions.

    Exit 1 when an obstruction fires (a necessary condition fails or a
    negative verdict applies): the section is ruled out.
    """
    from . import obstruct
    if cfg["betti"] is None and cfg["system"] is None and cfg["ambient"] is None:
        raise ConfigError("obstruct config needs at least one of 'betti', 'system', 'ambient'")

    if cfg["betti"] is not None:
        spec = cfg["betti"]
        profile = catalog.BETTI_PROFILES[spec] if isinstance(spec, str) \
            else obstruct.BettiProfile("inline", tuple(spec))
        verdict = obstruct.betti_necessary_condition(profile)
        runner.check("betti_necessary_condition", not verdict.negative, **verdict.as_dict())

    if cfg["system"] is not None:
        name, _, system = resolve_system(cfg["system"])
        if not isinstance(system, HamiltonianSystem):
            raise ConfigError(f"config field 'system': {name!r} is not a Hamiltonian system, "
                              "so the exactness obstruction does not apply")
        with runner.timed("exactness"):
            # the verdict reads the system's certified primitive, so the Stokes
            # integrals of a negative one need no second check
            verdict = obstruct.exactness_verdict(system)
            integrals = {}
            if verdict.negative and system.dim == 4 and not any(system.manifold.periodic):
                for surface, build in (("torus", catalog.embedded_torus_r4),
                                       ("sphere", catalog.embedded_sphere_r4)):
                    integrals[surface] = obstruct.surface_integral(system.omega, build(),
                                                                   cfg["quad_nodes"])
        runner.check("exactness_verdict", not verdict.negative,
                     **verdict.as_dict(), surface_integrals=integrals)

    if cfg["ambient"] is not None:
        compact, simply = catalog.AMBIENT_TOPOLOGY[cfg["ambient"]]
        verdict = obstruct.simply_connected_verdict(compact, simply, name=cfg["ambient"])
        runner.check("simply_connected_verdict", not verdict.negative, **verdict.as_dict())


def cmd_return_map(cfg: dict, runner: Runner, seed: int) -> None:
    """Return times, map iterates and symplecticity of a configured section."""
    from .section import SectionChartError, iterate_returns, section_frame, write_crossings_csv
    rng = Rng(seed)
    name, entry, system = resolve_system(cfg["system"])
    sec = build_section(cfg["section"], entry, system)
    tol, t_max = cfg["tol"], cfg["t_max"]

    starts = section_start_points(entry, system, sec, cfg, rng)
    try:
        free = list(section_frame(system, sec, starts[0])[0])
    except SectionChartError:  # no section chart there: plot against return time
        free = []
    with runner.timed("iterate"):
        returns = iterate_returns(system, sec, starts, cfg["iterations"], t_max, tol)
    done = returns.ok

    def over_done(reduce, values):
        return reduce(values[done]) if done.any() else None

    runner.check("iterates", all(f is None for f in returns.failures), n_rows=int(done.sum()),
                 max_return_time=over_done(np.max, np.diff(returns.times, prepend=0.0)),
                 min_margin=over_done(np.min, returns.margins),
                 max_angle_residual=over_done(np.max, returns.residuals),
                 crossings_seen_total=int(returns.crossings_seen.sum()),
                 failures=[(i, *f) for i, f in enumerate(returns.failures) if f is not None])

    with runner.timed("jacobians"):
        # at most as many points as there are starts, on their certified first returns
        check_jacobians(runner, "symplectic_determinant", system, sec,
                        returns.select(slice(cfg["n_return_points"])))

    write_crossings_csv(runner.add_artifact("crossings.csv"), returns)
    # the first two section coordinates of each iterate, or its return time and 0
    # where there is no section chart
    points = np.zeros((int(done.sum()), 2))
    coords = returns.states[done][:, free[:2]] if free else returns.times[done][:, None]
    points[:, :coords.shape[1]] = coords
    svg_scatter(runner.add_artifact("plot.svg"), points,
                f"return-map iterates ({name})", ("section coord 0", "section coord 1"))


COMMANDS = {
    "demo-product": cmd_demo_product,
    "verify-cosym": cmd_verify_cosym,
    "tischler": cmd_tischler,
    "obstruct": cmd_obstruct,
    "return-map": cmd_return_map,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosymlab",
        description="Global transverse Poincaré sections: constructions, "
                    "verifications and obstructions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__.splitlines()[0] if fn.__doc__ else None)
        sp.add_argument("--config", required=True, type=Path, help="JSON run configuration")
        sp.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current)")
        sp.add_argument("--seed", type=int, default=None,
                        help="random seed (overrides config; default 0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse's exit: 2 after its usage line, 0 after --help
        return exc.code
    try:
        raw = load_config(args.config)
        cfg = validate(args.command, raw)
        if args.seed is not None and not RNG_SEED[0].ok(args.seed):
            raise ConfigError(f"--seed must be {RNG_SEED[0].text}, got {args.seed}")
        seed = cfg.get("rng_seed", 0) if args.seed is None else args.seed
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigError(f"--out {args.out} is not a directory: {exc}") from exc
        runner = Runner(args.command, raw, args.out, seed)
        COMMANDS[args.command](cfg, runner, seed)
        runner.write_report()
        return 0 if runner.passed else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: cosymlab {args.command} --config <path> [--out <dir>] [--seed <u64>]",
              file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        print(f"internal error in cosymlab {args.command}: this is not a verification "
              "result (exit 3)", file=sys.stderr)
        return 3


def run() -> None:
    """The process entry point, of `python -m cosymlab.cli` and of the `cosymlab`
    script: exit with the code of `main()`."""
    code = main()
    # Every artifact is written and closed by now.  The collections of interpreter
    # shutdown would free NumPy's and cosymlab's module graphs (about 22k tracked
    # objects) one at a time, about 15 ms, just before the OS reclaims the memory;
    # frozen objects are never collected.  Exit handlers and stream flushes still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
