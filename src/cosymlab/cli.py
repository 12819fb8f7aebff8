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
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
import traceback
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import catalog, cosym, expr, obstruct, tischler
from .forms import ChartManifold, KForm, basis_indices, constant_form
from .phase import HamiltonianSystem
from .section import (ON_SECTION_TOL, GluingError, NoCrossingError, RefinementError,
                      SectionSpec, TangencyError, coordinate_section, first_crossings,
                      iterate_returns, mapping_torus_chart, return_map_jacobians,
                      section_coordinates, verify_global, write_crossings_csv)

TWO_PI = 2.0 * math.pi

# a crossing that cannot be found or certified fails its check, with the reason
CROSSING_ERRORS = (NoCrossingError, TangencyError, RefinementError)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# -- config helpers ---------------------------------------------------------------


def load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("tol", "t_max", "eps", "fd_step"):
        if key in cfg and not (_is_number(cfg[key]) and cfg[key] > 0):
            raise ConfigError(f"config field {key!r} must be a positive number")
    for key in ("samples", "iterations", "n_return_points", "grid", "quad_nodes"):
        if key in cfg and not (_is_int(cfg[key]) and cfg[key] >= 1):
            raise ConfigError(f"config field {key!r} must be an integer >= 1")
    if "level" in cfg and not _is_number(cfg["level"]):
        raise ConfigError("config field 'level' must be a number")
    return cfg


def lookup(table: dict, name, what: str):
    """Catalog entry `name` of `table`; ConfigError listing the names otherwise."""
    if not (isinstance(name, str) and name in table):
        raise ConfigError(f"unknown {what} {name!r}; available: {sorted(table)}")
    return table[name]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _form_from_entries(dim: int, names: Sequence[str], entries, degree: int) -> KForm:
    """Form from config entries [i, j, coeff] (degree 2) or [i, coeff] (degree 1);
    coefficients are numbers or expressions over the coordinate names."""
    rank = {idx: r for r, idx in enumerate(basis_indices(dim, degree))}
    parsed = []
    all_const = True
    for entry in entries:
        *idx, coeff = entry
        idx = tuple(int(i) for i in idx)
        if len(idx) != degree:
            raise ConfigError(f"form entry {entry!r} needs {degree} indices")
        if len(set(idx)) != degree or any(not 0 <= i < dim for i in idx):
            raise ConfigError(f"bad form indices {idx} for dimension {dim}")
        sign = 1.0
        if degree == 2 and idx[0] > idx[1]:
            idx, sign = (idx[1], idx[0]), -1.0
        if isinstance(coeff, (int, float)):
            parsed.append((rank[idx], sign, float(coeff)))
        else:
            all_const = False
            parsed.append((rank[idx], sign, expr.parse(str(coeff), names)))
    nc = len(rank)
    if all_const:
        vec = np.zeros(nc)
        for r, sign, value in parsed:
            vec[r] += sign * value
        return constant_form(dim, degree, vec)

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (nc,))
        for r, sign, value in parsed:
            out[..., r] += sign * (value if isinstance(value, float) else value(x))
        return out

    return KForm(degree, dim, coeffs)


def _coordinate_names(spec: dict, dim: int) -> list:
    """The inline spec's coordinate names (default x0, x1, ...), one per dimension."""
    names = list(spec.get("coordinates") or [f"x{i}" for i in range(dim)])
    if len(names) != dim:
        raise ConfigError(f"coordinates list length {len(names)} must equal dim {dim}")
    return names


def build_inline_system(spec: dict) -> HamiltonianSystem:
    try:
        dim = int(spec["dim"])
        names = _coordinate_names(spec, dim)
        chart = ChartManifold(
            dim,
            tuple(bool(b) for b in spec.get("periodic") or (False,) * dim),
            tuple(float(p) for p in spec.get("periods") or (TWO_PI,) * dim),
            name=str(spec.get("name", "inline")))
        omega = _form_from_entries(dim, names, spec["omega"], 2)
        h_expr = expr.parse(str(spec["hamiltonian"]), names)
        lam = None
        if "lambda" in spec:
            lam = _form_from_entries(dim, names, spec["lambda"], 1)
        system = HamiltonianSystem(chart, omega, h_expr, h_expr.gradient(), lam=lam,
                                   name=str(spec.get("name", "inline")))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, expr.ExprError) as exc:
        raise ConfigError(f"bad inline system spec: {exc}") from exc
    samples = chart.sample(np.random.default_rng(0), 32)
    try:
        system.validate(samples)
    except ValueError as exc:
        raise ConfigError(f"inline system fails its structure checks: {exc}") from exc
    return system


def resolve_system(cfg: dict):
    spec = cfg.get("system")
    if spec is None:
        raise ConfigError("config needs a 'system' (catalog name or inline spec)")
    if isinstance(spec, dict):
        return spec.get("name", "inline"), catalog.SystemEntry(), build_inline_system(spec)
    return spec, lookup(catalog.SYSTEMS, spec, "catalog system"), catalog.get_system(spec)


def build_section(cfg: dict, entry: catalog.SystemEntry, system) -> SectionSpec:
    sec_cfg = cfg.get("section") or {}
    if not sec_cfg and entry.section is not None:
        return entry.section(system)
    if not isinstance(sec_cfg, dict):
        raise ConfigError("'section' must be an object")
    kind = sec_cfg.get("kind", "coordinate")
    orientation = sec_cfg.get("orientation", 1)
    if not (_is_int(orientation) and orientation in (1, -1)):
        raise ConfigError("section field 'orientation' must be 1 or -1")

    def in_range(i) -> bool:
        return _is_int(i) and 0 <= i < system.dim

    if kind == "coordinate":
        index = sec_cfg.get("index", system.dim - 2)
        level = sec_cfg.get("level", 0.0)
        if not in_range(index):
            raise ConfigError(f"section field 'index' must be an integer in "
                              f"[0, {system.dim}), got {index!r}")
        if not _is_number(level):
            raise ConfigError("section field 'level' must be a number")
        return coordinate_section(system.manifold, index, float(level), orientation)
    if kind == "angle":
        pair = sec_cfg.get("pair", [2, 3])
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(in_range, pair))
                and pair[0] != pair[1]):
            raise ConfigError(f"section field 'pair' must be two distinct coordinate "
                              f"indices in [0, {system.dim}), got {pair!r}")
        return catalog.oscillator_angle_section(tuple(pair))
    if kind == "leaf":
        d, n = sec_cfg.get("d"), sec_cfg.get("n")
        if not (_is_int(d) and d >= 1):
            raise ConfigError(f"section field 'd' must be an integer >= 1, got {d!r}")
        if not (isinstance(n, list) and len(n) == system.dim and all(map(_is_int, n))
                and any(n)):
            raise ConfigError(f"section field 'n' must be a list of {system.dim} integers, "
                              f"not all zero, got {n!r}")
        ra = tischler.RationalApproximation(d, np.asarray(n, dtype=int), 0.0)
        return tischler.extract_leaf(ra, system.manifold, orientation=orientation)
    raise ConfigError(f"unknown section kind {kind!r}")


def section_start_points(entry: catalog.SystemEntry, system, sec: SectionSpec, cfg: dict,
                         rng: np.random.Generator, n: int) -> np.ndarray:
    """Explicit 'points', or the entry's start samples; both must lie on the section."""
    if "points" in cfg:
        try:
            pts = np.asarray(cfg["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'points' must be a list of coordinate tuples: {exc}") from exc
        if pts.ndim != 2 or pts.shape[1] != system.dim or not np.isfinite(pts).all():
            raise ConfigError("'points' must be a list of finite coordinate tuples")
    elif entry.starts is None:
        raise ConfigError("no start sampler for this system; supply explicit 'points'")
    else:
        pts = entry.starts(system, rng, n, float(cfg.get("level", 1.0)))
    off = np.abs(np.asarray(sec.offset(pts), dtype=float))
    off_section = np.flatnonzero(~(off <= ON_SECTION_TOL))
    if off_section.size:
        i = off_section[0]
        raise ConfigError(f"start point {i} is not on the section: |theta - level| = "
                          f"{off[i]:.3e} > {ON_SECTION_TOL}; supply explicit 'points' on it")
    return pts


# -- SVG scatter --------------------------------------------------------------------


def svg_scatter(path: Path, points: np.ndarray, title: str,
                labels: tuple[str, str] = ("s0", "s1")) -> None:
    """Scatter plot of 2D points in a fixed 800x800 viewport."""
    size, margin = 800, 70
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        pts = np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * span
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

    def check(self, name: str, passed: bool, details: Optional[dict] = None, **kw) -> bool:
        if any(c["name"] == name for c in self.checks):
            raise RuntimeError(f"duplicate check name {name!r}")
        merged = dict(details or {})
        merged.update(kw)
        merged.pop("passed", None)
        entry = {"name": name, "passed": bool(passed)}
        entry.update(_jsonable(merged))
        self.checks.append(entry)
        return passed

    def timed(self, name: str):
        runner = self

        class _Timer:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                runner.timings[name] = time.perf_counter() - self.t0
                return False

        return _Timer()

    def add_artifact(self, path: Path) -> Path:
        self.artifacts.append(path.name)
        return path

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
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# -- commands -----------------------------------------------------------------------


def cmd_demo_product(cfg: dict, out: Path, seed: int) -> int:
    """Build and verify the full section pipeline of a seeded product system.

    Constructs the product of the chosen cosymplectic seed with a circle,
    then runs globality, return-map, and mapping-torus checks on its leaf.
    """
    runner = Runner("demo-product", cfg, out, seed)
    rng = np.random.default_rng(seed)
    seed_name = cfg.get("seed", "t3")
    make_seed = lookup(catalog.SEEDS, seed_name, "cosymplectic seed")
    tol = float(cfg.get("tol", 1e-10))
    t_max = float(cfg.get("t_max", 100.0))
    n_samples = int(cfg.get("samples", 200))

    with runner.timed("build"):
        cs = make_seed()
        system = cosym.build_product_system(cs, rng=rng)
        structure = system.validate(system.manifold.sample(rng, 64))
    runner.check("structure", True, **structure)

    sec = catalog.product_leaf_section(system)
    leaf_samples = catalog.sample_product_leaf(system, rng, n_samples)
    with runner.timed("verify_global"):
        rep = verify_global(system, sec, leaf_samples, t_max, tol)
    runner.check("verify_global", rep.passed, rep.as_dict())

    n_jac = int(cfg.get("n_return_points", 5))
    with runner.timed("return_map"):
        try:
            jacs = return_map_jacobians(system, sec, leaf_samples[:n_jac], t_max=t_max, tol=tol)
        except CROSSING_ERRORS as exc:
            runner.check("return_map_symplectic", False, error=str(exc))
        else:
            max_det_err = float(np.max(np.abs(np.linalg.det(jacs) - 1.0)))
            max_dev = float(np.max(np.abs(jacs - np.eye(jacs.shape[-1]))))
            runner.check("return_map_symplectic", max_det_err < 1e-6,
                         max_det_error=max_det_err, max_identity_deviation=max_dev)

    with runner.timed("mapping_torus"):
        grid = [system.point(pt) for pt in leaf_samples[:int(cfg.get("grid", 9))]]
        try:
            mt = mapping_torus_chart(system, sec, grid, t_max=t_max, tol=tol)
        except CROSSING_ERRORS + (GluingError,) as exc:
            runner.check("mapping_torus_gluing", False, error=str(exc))
        else:
            runner.check("mapping_torus_gluing", mt.gluing_residual < 10 * tol,
                         gluing_residual=mt.gluing_residual,
                         energy_residual=mt.energy_residual)

    with runner.timed("crossings"):
        crossings = first_crossings(system, sec, leaf_samples[:50], t_max, tol)
        rows = [(i, crossings.times[i], *system.manifold.reduce(crossings.states[i]),
                 crossings.margins[i]) for i in np.flatnonzero(crossings.ok)]
        csv_path = runner.add_artifact(out / "crossings.csv")
        write_crossings_csv(csv_path, rows, system.dim)
        pts2 = np.array([[r[2], r[3]] for r in rows]) if rows else np.zeros((0, 2))
        svg_path = runner.add_artifact(out / "plot.svg")
        svg_scatter(svg_path, pts2, f"return-map iterates ({seed_name} seed)",
                    ("coord 0", "coord 1"))
    runner.check("crossings_emitted", bool(crossings.ok.all()), n_rows=len(rows))

    runner.write_report()
    return 0 if runner.passed else 1


def cmd_verify_cosym(cfg: dict, out: Path, seed: int) -> int:
    """Verify a cosymplectic pair (catalog seed or inline forms)."""
    runner = Runner("verify-cosym", cfg, out, seed)
    rng = np.random.default_rng(seed)
    n_samples = int(cfg.get("samples", 128))
    spec = cfg.get("cosym", cfg.get("seed", "t3"))
    if isinstance(spec, str):
        cs = lookup(catalog.SEEDS, spec, "cosymplectic seed")()
    else:
        try:
            dim = int(spec["dim"])
            names = _coordinate_names(spec, dim)
            chart = ChartManifold(dim, (True,) * dim, name=str(spec.get("name", "inline")))
            cs = cosym.CosymplecticStructure(
                chart,
                _form_from_entries(dim, names, spec["alpha"], 1),
                _form_from_entries(dim, names, spec["beta"], 2),
                name=str(spec.get("name", "inline")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad cosym spec: {exc}") from exc
    with runner.timed("verify"):
        report = cosym.verify_cosymplectic(cs, cs.manifold.sample(rng, n_samples))
    runner.check("cosymplectic", report.passed, report.as_dict())
    runner.write_report()
    return 0 if runner.passed else 1


def cmd_tischler(cfg: dict, out: Path, seed: int) -> int:
    """Rationalize periods (given directly or computed from an inline form)."""
    runner = Runner("tischler", cfg, out, seed)
    tcfg = cfg.get("tischler")
    if not isinstance(tcfg, dict):
        raise ConfigError("config needs a 'tischler' object")
    eps = tcfg.get("eps", 1e-2)
    if not (_is_number(eps) and eps > 0):
        raise ConfigError("tischler field 'eps' must be a positive number")
    d_cap = tcfg.get("d_cap", tischler.DEFAULT_D_CAP)
    if not (_is_int(d_cap) and d_cap >= 1):
        raise ConfigError("tischler field 'd_cap' must be an integer >= 1")

    with runner.timed("periods"):
        try:
            if "periods" in tcfg:
                values = tcfg["periods"]
                if not (isinstance(values, list) and values and all(map(_is_number, values))):
                    raise ValueError("'periods' must be a non-empty list of numbers")
                manifold = catalog.torus(len(values))
                pv = tischler.PeriodVector(values, tuple(f"declared cycle {i}"
                                                         for i in range(len(values))), manifold)
                alpha = None
            elif "alpha" in tcfg:
                dim = tcfg["dim"]
                if not (_is_int(dim) and dim >= 1):
                    raise ValueError(f"'dim' must be an integer >= 1, got {dim!r}")
                manifold = catalog.torus(dim)
                names = [f"x{i}" for i in range(dim)]
                alpha = _form_from_entries(dim, names, tcfg["alpha"], 1)
                pv = tischler.periods(alpha, manifold)
            else:
                raise ValueError("it needs 'periods' or 'alpha'")
        except (KeyError, TypeError, ValueError, expr.ExprError) as exc:
            raise ConfigError(f"bad 'tischler' spec: {exc}") from exc
    runner.check("periods", True, values=pv.values, cycles=list(pv.cycles))

    with runner.timed("rationalize"):
        try:
            ra = tischler.rationalize(pv, eps, d_cap)
        except tischler.RationalizationError as exc:
            runner.check("rationalize", False, error=str(exc))
            runner.write_report()
            return 1
    runner.check("rationalize", ra.epsilon_achieved <= eps,
                 d=ra.d, n=ra.n, epsilon_achieved=ra.epsilon_achieved, eps=eps)

    alpha_prime = None
    if alpha is not None:
        with runner.timed("rebuild"):
            alpha_prime = tischler.build_approximation(alpha, pv, ra)
            pv_check = tischler.periods(alpha_prime, pv.manifold)
            residual = float(np.max(np.abs(pv_check.values - ra.fractions)))
        runner.check("rebuilt_periods", residual < 1e-10, residual=residual,
                     coefficient_distance=tischler.coefficient_distance(pv, ra))

    if "system" in cfg and alpha_prime is not None:
        _, entry, system = resolve_system(cfg)
        if system.dim != alpha_prime.dim:
            raise ConfigError(f"system dimension {system.dim} does not match the "
                              f"one-form dimension {alpha_prime.dim}")
        sample = entry.surface or (lambda s, r, k: s.manifold.sample(r, k))
        samples = sample(system, np.random.default_rng(seed), int(cfg.get("samples", 64)))
        with runner.timed("transversality"):
            trans = tischler.check_transversality_preserved(system, alpha_prime,
                                                            samples, alpha=alpha)
        runner.check("transversality", trans.passed, trans.as_dict())

    runner.write_report()
    return 0 if runner.passed else 1


def cmd_obstruct(cfg: dict, out: Path, seed: int) -> int:
    """Run the requested non-existence obstructions.

    Exit 1 when an obstruction fires (a necessary condition fails or a
    negative verdict applies): the section is ruled out.
    """
    runner = Runner("obstruct", cfg, out, seed)
    rng = np.random.default_rng(seed)
    ran_any = False

    if "betti" in cfg:
        ran_any = True
        spec = cfg["betti"]
        if isinstance(spec, str):
            profile = lookup(catalog.BETTI_PROFILES, spec, "Betti profile")
        else:
            try:
                profile = obstruct.BettiProfile("inline", tuple(spec))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad 'betti' spec {spec!r}: {exc}") from exc
        result = obstruct.betti_necessary_condition(profile)
        runner.check("betti_necessary_condition", result.passed, result.as_dict())

    if "system" in cfg:
        ran_any = True
        name, _, system = resolve_system(cfg)
        if not isinstance(system, HamiltonianSystem):
            raise ConfigError(f"config field 'system': {name!r} is not a Hamiltonian system, "
                              "so the exactness obstruction does not apply")
        with runner.timed("exactness"):
            verdict = obstruct.exactness_verdict(system)
            integrals = {}
            if system.lam is not None and system.dim == 4 and not any(system.manifold.periodic):
                n_nodes = int(cfg.get("quad_nodes", 256))
                integrals["torus"] = obstruct.stokes_exactness_check(
                    system, catalog.embedded_torus_r4(), n_nodes)
                integrals["sphere"] = obstruct.stokes_exactness_check(
                    system, catalog.embedded_sphere_r4(), n_nodes)
        runner.check("exactness_verdict", not verdict.negative,
                     verdict.as_dict(), surface_integrals=integrals)

    if "ambient" in cfg:
        ran_any = True
        name = str(cfg["ambient"])
        compact, simply = lookup(catalog.AMBIENT_TOPOLOGY, name, "ambient manifold")
        verdict = obstruct.simply_connected_verdict(compact, simply, name=name)
        runner.check("simply_connected_verdict", not verdict.negative, verdict.as_dict())

    if not ran_any:
        raise ConfigError("obstruct config needs at least one of 'betti', 'system', 'ambient'")
    runner.write_report()
    return 0 if runner.passed else 1


def cmd_return_map(cfg: dict, out: Path, seed: int) -> int:
    """Return times, map iterates and symplecticity of a configured section."""
    runner = Runner("return-map", cfg, out, seed)
    rng = np.random.default_rng(seed)
    name, entry, system = resolve_system(cfg)
    sec = build_section(cfg, entry, system)
    tol = float(cfg.get("tol", 1e-10))
    t_max = float(cfg.get("t_max", 100.0))
    n_pts = int(cfg.get("samples", 20))
    n_iter = int(cfg.get("iterations", 50))

    starts = section_start_points(entry, system, sec, cfg, rng, n_pts)
    _, _, project = section_coordinates(system, sec, system.point(starts[0]))
    with runner.timed("iterate"):
        returns = iterate_returns(system, sec, starts, n_iter, t_max, tol)
        rows = []
        iterates = []
        for i in range(len(starts)):
            t_accum = 0.0
            for j in range(returns.completed(i)):
                t_accum += float(returns.times[i, j])
                image = returns.images[i, j]
                rows.append((i, t_accum, *image, returns.margins[i, j]))
                s = project(image)
                iterates.append((s[0] if len(s) > 0 else t_accum,
                                 s[1] if len(s) > 1 else 0.0))
    done = np.isfinite(returns.times)

    def over_done(reduce, values):
        return reduce(values[done]) if done.any() else None

    runner.check("iterates", all(f is None for f in returns.failures), n_rows=len(rows),
                 max_return_time=over_done(np.max, returns.times),
                 min_margin=over_done(np.min, returns.margins),
                 max_angle_residual=over_done(np.max, returns.residuals),
                 crossings_seen_total=int(returns.crossings_seen.sum()),
                 failures=[(i, *f) for i, f in enumerate(returns.failures) if f is not None])

    n_jac = int(cfg.get("n_return_points", 10))
    with runner.timed("jacobians"):
        try:
            jacs = return_map_jacobians(system, sec, starts[:n_jac],
                                        fd_step=float(cfg.get("fd_step", 1e-6)),
                                        t_max=t_max, tol=tol)
        except CROSSING_ERRORS as exc:
            runner.check("symplectic_determinant", False, error=str(exc))
        else:
            max_det_err = float(np.max(np.abs(np.linalg.det(jacs) - 1.0)))
            runner.check("symplectic_determinant", max_det_err < 1e-6,
                         max_det_error=max_det_err)

    csv_path = runner.add_artifact(out / "crossings.csv")
    write_crossings_csv(csv_path, rows, system.dim)
    svg_path = runner.add_artifact(out / "plot.svg")
    svg_scatter(svg_path, np.array(iterates) if iterates else np.zeros((0, 2)),
                f"return-map iterates ({name})", ("section coord 0", "section coord 1"))
    runner.write_report()
    return 0 if runner.passed else 1


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
        sp.add_argument("--config", required=True, type=Path,
                        help="JSON run configuration")
        sp.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current)")
        sp.add_argument("--seed", type=int, default=None,
                        help="random seed (overrides config; default 0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("rng_seed", 0))
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: cosymlab {args.command} --config <path> [--out <dir>] [--seed <u64>]",
              file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print(f"internal error in cosymlab {args.command}: this is not a verification "
              "result (exit 3)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
