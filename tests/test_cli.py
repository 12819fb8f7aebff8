import csv
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import readme_configs

from cosymlab import catalog, cli, forms, section


def run(tmp_path, command, config, out="out", seed=None):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    return cli.main(args), tmp_path / out


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_demo_product_pipeline(tmp_path):
    code, out = run(tmp_path, "demo-product",
                    {"seed": "t3", "samples": 40, "t_max": 30.0, "n_return_points": 2})
    assert code == 0
    payload = read_report(out)
    report = payload["report"]
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["structure", "verify_global", "return_map_symplectic",
                     "mapping_torus_gluing", "crossings_emitted"]
    assert len(names) == len(set(names))
    assert "timestamp" in payload["meta"]
    assert (out / "crossings.csv").exists()
    svg = (out / "plot.svg").read_text()
    assert 'width="800" height="800"' in svg

    with open(out / "crossings.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["orbit_id", "t", "coord_0", "coord_1", "coord_2", "coord_3", "margin"]
    assert float(rows[1][1]) == pytest.approx(2 * math.pi, abs=1e-9)


def test_demo_product_deterministic_reports(tmp_path):
    cfg = {"seed": "t3", "samples": 20, "t_max": 20.0, "n_return_points": 1}
    code1, out1 = run(tmp_path, "demo-product", cfg, out="a", seed=7)
    code2, out2 = run(tmp_path, "demo-product", cfg, out="b", seed=7)
    assert code1 == code2 == 0
    a, b = read_report(out1), read_report(out2)
    assert json.dumps(a["report"], sort_keys=True) == json.dumps(b["report"], sort_keys=True)
    assert (out1 / "crossings.csv").read_bytes() == (out2 / "crossings.csv").read_bytes()
    assert (out1 / "plot.svg").read_bytes() == (out2 / "plot.svg").read_bytes()


def test_demo_product_seed_changes_samples(tmp_path):
    cfg = {"seed": "t3", "samples": 10, "t_max": 20.0, "n_return_points": 1}
    _, out1 = run(tmp_path, "demo-product", cfg, out="a", seed=1)
    _, out2 = run(tmp_path, "demo-product", cfg, out="b", seed=2)
    assert (out1 / "crossings.csv").read_text() != (out2 / "crossings.csv").read_text()


def test_demo_product_t5_seed_dimension_six(tmp_path):
    code, out = run(tmp_path, "demo-product",
                    {"seed": "t5", "samples": 20, "t_max": 20.0,
                     "n_return_points": 1, "grid": 3})
    assert code == 0
    report = read_report(out)["report"]
    assert report["passed"]
    with open(out / "crossings.csv") as fh:
        header = next(csv.reader(fh))
    assert header[2:-1] == [f"coord_{i}" for i in range(6)]


def test_malformed_seed_name_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "demo-product", {"seed": "nope"})
    assert code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "nope" in err


@pytest.mark.parametrize("argv", [["verify-cosym"], ["nope", "--config", "c.json"]],
                         ids=["missing-config", "unknown-command"])
def test_usage_error_returns_2_after_the_usage_line(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: cosymlab")
    assert "error:" in captured.err.splitlines()[-1]


def test_help_returns_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cosymlab")


def test_missing_config_file_exits_2(tmp_path):
    code = cli.main(["demo-product", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli.main(["demo-product", "--config", str(cfg)]) == 2


def test_bad_tolerance_exits_2(tmp_path):
    code, _ = run(tmp_path, "demo-product", {"seed": "t3", "tol": -1.0})
    assert code == 2


# the README's inline system, without its primitive
INLINE_OSCILLATOR = {"dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, 1.0]],
                     "hamiltonian": "0.5*(q^2 + p^2)"}
RETURN_MAP_OSC = {"system": "oscillator_2dof_sqrt2",
                  "section": {"kind": "angle", "pair": [2, 3]},
                  "level": 1.0, "samples": 2, "iterations": 2, "n_return_points": 1,
                  "t_max": 30.0}


@pytest.mark.parametrize("command, base, field", [
    ("return-map", RETURN_MAP_OSC, "iterations"),
    ("return-map", RETURN_MAP_OSC, "n_return_points"),
    ("return-map", RETURN_MAP_OSC, "samples"),
    ("demo-product", {"seed": "t3", "samples": 4, "t_max": 20.0}, "grid"),
])
def test_empty_check_counts_exit_2(tmp_path, capsys, command, base, field):
    # a check over zero items must not pass, and must not crash either
    code, _ = run(tmp_path, command, {**base, field: 0})
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command, config, field", [
    # the Jacobian step is section.FD_STEP, so even its value is an unknown field
    ("return-map", {**RETURN_MAP_OSC, "fd_step": 1e-6}, "fd_step"),
    ("return-map", {**RETURN_MAP_OSC, "fd_step": "x"}, "fd_step"),
    ("obstruct", {"system": "canonical_r4", "quad_nodes": 0}, "quad_nodes"),
    ("obstruct", {"system": "canonical_r4", "quad_nodes": -3}, "quad_nodes"),
    ("return-map", {**RETURN_MAP_OSC, "section": {"kind": "angle", "pair": [2, 9]}}, "pair"),
    ("return-map", {**RETURN_MAP_OSC, "section": {"kind": "angle", "pair": [2, 2]}}, "pair"),
    ("return-map", {**RETURN_MAP_OSC, "section": {"kind": "coordinate", "index": 4}},
     "index"),
    ("return-map", {**RETURN_MAP_OSC, "section": {"kind": "coordinate", "index": -1}},
     "index"),
    ("tischler", {"tischler": {"alpha": [[0, 1.0]]}}, "dim"),
    ("tischler", {"tischler": {"dim": 0, "alpha": []}}, "dim"),
    ("tischler", {"tischler": {"periods": ["a"]}}, "periods"),
    ("tischler", {"tischler": {"periods": []}}, "periods"),
    ("tischler", {"tischler": {"periods": [0.5], "eps": "x"}}, "eps"),
    ("tischler", {"tischler": {"periods": [0.5], "eps": True}}, "eps"),
    ("tischler", {"tischler": {"periods": [0.5], "d_cap": "x"}}, "d_cap"),
    ("tischler", {"tischler": {"periods": [0.5], "d_cap": 0}}, "d_cap"),
    ("obstruct", {"betti": [1, "x"]}, "betti"),
    ("obstruct", {"betti": 7}, "betti"),
    ("obstruct", {"betti": []}, "betti"),
    ("obstruct", {"betti": [1, 1.5, 1, 1]}, "betti"),
    ("obstruct", {"system": "suspension_rotation"}, "system"),
    ("verify-cosym", {"cosym": {"dim": 3, "coordinates": ["a"], "alpha": [[2, 1.0]],
                                "beta": [[0, 1, 1.0]]}}, "coordinates"),
    ("obstruct", {"betti": [1, 1, 1]}, "betti"),
    ("obstruct", {"ambient": "t4", "rng_seed": "x"}, "rng_seed"),
    ("obstruct", {"ambient": "t4", "rng_seed": 1.5}, "rng_seed"),
    ("return-map", {**RETURN_MAP_OSC, "iteration": 1}, "iteration"),
    ("obstruct", {"system": {**INLINE_OSCILLATOR, "lamda": [[1, "q"]]}}, "lamda"),
    ("return-map", {**RETURN_MAP_OSC, "section": {"kind": "angle", "pair": [2, 3],
                                                  "orientation": 1}}, "orientation"),
    ("return-map", {**RETURN_MAP_OSC, "samples": 2**63}, "samples"),
    ("obstruct", {"system": {**INLINE_OSCILLATOR, "omega": []}}, "omega"),
    # declared periods rebuild no one-form, so a system has no transversality to check
    ("tischler", {"tischler": {"periods": [0.5, 0.25, 0.125, 1.0]}, "system": "t4_product"},
     "system"),
    ("tischler", {"tischler": {"periods": [0.5], "dim": 1, "alpha": [[0, 1.0]]}}, "periods"),
])
def test_malformed_numeric_fields_exit_2(tmp_path, capsys, command, config, field):
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("out, seed, flag", [
    ("taken", None, "--out"),             # an existing file
    ("taken/sub", None, "--out"),         # a path under one
    ("out", 2**64, "--seed"),             # one past the u64 range of rng_seed
    ("out", -1, "--seed"),
])
def test_malformed_arguments_exit_2(tmp_path, capsys, out, seed, flag):
    (tmp_path / "taken").write_text("kept")
    code, _ = run(tmp_path, "verify-cosym", {"seed": "t3", "samples": 8}, out, seed)
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and "usage" in err and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "kept"
    assert not list(tmp_path.rglob("report.json"))


def test_obstruct_inline_primitive_decides_the_verdict(tmp_path):
    # spelled right, the README's primitive makes the exactness obstruction fire
    code, out = run(tmp_path, "obstruct", {"system": {**INLINE_OSCILLATOR,
                                                      "lambda": [[1, "q"]]}})
    assert code == 1
    assert read_report(out)["report"]["checks"][0]["verdict"] == "negative"


@pytest.mark.parametrize("level", [0.0, -1.0])
def test_oscillator_level_must_be_positive(tmp_path, capsys, level):
    cfg = {"system": "oscillator_2dof_sqrt2", "level": level, "samples": 1, "iterations": 1,
           "n_return_points": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "return-map", cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert "'level'" in err and "Traceback" not in err
    assert not (out / "report.json").exists()
    with pytest.raises(ValueError, match="positive"):
        catalog.sample_oscillator_surface(catalog.oscillator_2dof(), level,
                                          np.random.default_rng(0), 1)


def test_degenerate_section_at_explicit_points_fails_its_checks(tmp_path):
    # H = x0 on the circle section x0 = 0: the flow is tangent to the section and
    # the section and energy constraints share one gradient, so no section chart
    # exists; the Jacobian check fails on the start's missing first return
    cfg = {"system": {"dim": 2, "periodic": [True, False], "omega": [[0, 1, 1.0]],
                      "hamiltonian": "x0"},
           "points": [[0, 0]]}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 1
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert not checks["iterates"]["passed"]
    assert not checks["symplectic_determinant"]["passed"]
    assert checks["symplectic_determinant"]["error"] == \
        "tangency: flow tangent to section at start: |d theta/dt| = 0.000e+00"
    system = cli.build_inline_system(cli.validate("return-map", cfg)["system"])
    with pytest.raises(section.SectionChartError, match="degenerate constraints"):
        section.section_frame(system, section.coordinate_section(system.manifold, 0), [0.0, 0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("level", [1000.0, 1e6, 1e12, 1e300])
def test_return_map_determinant_at_large_energies(tmp_path, level):
    # the Jacobian stencil step is relative to the section coordinates, so it
    # does not round away at large amplitudes; no step of the run overflows
    # (a RuntimeWarning is an error here, which the CLI reports as exit 3)
    code, out = run(tmp_path, "return-map", {**RETURN_MAP_OSC, "level": level})
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["symplectic_determinant"]["passed"]
    assert checks["symplectic_determinant"]["max_det_error"] < 1e-8


def test_constant_energy_fails_its_checks(tmp_path):
    # H = 0 with a non-constant omega: every start is tangent to the section,
    # so the crossing search gets an empty batch
    cfg = {"system": {**INLINE_OSCILLATOR, "omega": [[0, 1, "1 + 0.5*sin(q)"]],
                      "hamiltonian": 0},
           "section": {"kind": "angle", "pair": [0, 1]}, "points": [[0.8, 0.0]]}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 1
    failures = read_report(out)["report"]["checks"][0]["failures"]
    assert failures and failures[0][2].startswith("tangency")


def test_tischler_non_closed_alpha_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, "tischler", {"tischler": {"dim": 2, "alpha": [[0, "sin(x1)"]]}})
    assert code == 2
    assert "not closed" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name", sorted(catalog.SYSTEMS))
def test_catalog_system_alone_runs_on_its_default_section(tmp_path, capsys, name):
    # an entry's start sampler lands on the entry's default section; an entry
    # without one needs explicit 'points', and an entry without a default
    # section a periodic coordinate for the default coordinate section
    code, out = run(tmp_path, "return-map", {"system": name, "samples": 2, "iterations": 2,
                                             "n_return_points": 1, "t_max": 30.0})
    err = capsys.readouterr().err
    entry = catalog.SYSTEMS[name]
    if entry.starts is None:
        assert code == 2
        message = ("supply explicit 'points'" if entry.section is not None else
                   "coordinate 2 is not periodic")
        assert message in err and "Traceback" not in err
        assert not (out / "report.json").exists()
    else:
        assert code == 0, err


@pytest.mark.parametrize("name", sorted(n for n, e in catalog.SYSTEMS.items() if e.section))
def test_catalog_default_section_is_a_section_config(name):
    # an entry's default section is the config object a user writes
    sec = catalog.SYSTEMS[name].section
    assert cli._fields(cli.SECTION_KINDS[sec["kind"]], sec, "section")["kind"] == sec["kind"]


def test_inline_system_name_selects_no_sampler(tmp_path, capsys):
    cfg = {"system": {"dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, 1.0]],
                      "hamiltonian": "0.5*(q^2 + p^2)", "name": "oscillator"},
           "section": {"kind": "angle", "pair": [0, 1]}}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 2
    assert "supply explicit 'points'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


HARMONIC_OFF_AXIS = {"system": "harmonic_oscillator", "points": [[0.0, 10.0], [0.0, 1.0]],
                     "iterations": 3, "n_return_points": 2}


def test_coordinate_section_on_a_non_periodic_coordinate_exits_2(tmp_path, capsys):
    # on the line q, the angle q mod 2 pi counted the crossings of q = +-2 pi of
    # these orbits as returns (orbit 0 "returned" at t = 0.6794 with q = 2 pi);
    # the catalog section of harmonic_oscillator is the phase angle, which
    # these starts are not on, and a coordinate section there is refused.  A
    # leaf that winds around a line is the same section and refused alike: on
    # canonical_r4 the leaf of n = (1, 0, 0, 0) certified "returns" at t = 2 pi,
    # 4 pi and 6 pi, where x0 passed the lattice values 2 pi k of its line
    leaf = {"system": "canonical_r4", "section": {"kind": "leaf", "n": [1, 0, 0, 0]},
            "points": [[0, 0, -1, 0.5]]}
    for cfg, message in ((HARMONIC_OFF_AXIS, "start point 0 is not on the section"),
                         ({**HARMONIC_OFF_AXIS, "section": {"kind": "coordinate", "index": 0}},
                          "coordinate 0 is not periodic"),
                         (leaf, "coordinate 0 is not periodic")):
        code, out = run(tmp_path, "return-map", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert "'leaf'" not in err
        assert not (out / "report.json").exists()
    with pytest.raises(ValueError, match="coordinate 0 is not periodic"):
        section.coordinate_section(catalog.harmonic_oscillator().manifold, 0)
    with pytest.raises(ValueError, match="coordinate 2 is not periodic"):
        section.leaf_section(catalog.canonical_r4().manifold, [0, 0, 3, 0])
    # a leaf that winds only around the periodic coordinates of a mixed chart builds
    mixed = forms.ChartManifold(4, (True, False, True, False), (2.0, 1.0, 3.0, 1.0))
    sec = section.leaf_section(mixed, [2, 0, -3, 0])
    assert sec.theta(np.array([[0.25, 7.0, 0.0, -4.0]])) == pytest.approx([math.pi / 2])


def test_harmonic_oscillator_returns_on_its_phase_angle_section(tmp_path):
    code, out = run(tmp_path, "return-map", {"system": "harmonic_oscillator",
                                             "points": [[10, 0], [1, 0]], "iterations": 3,
                                             "n_return_points": 2})
    assert code == 0
    with open(out / "crossings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["orbit_id"]) for r in rows] == [0, 0, 0, 1, 1, 1]
    # return k comes at 2 pi k, each lap within 5e-11 (4.6e-11 seen)
    for j, r in enumerate(rows):
        k = j % 3 + 1
        assert abs(float(r["t"]) - 2 * math.pi * k) <= 5e-11 * k


def test_sampled_starts_off_configured_section_exit_2(tmp_path, capsys):
    cfg = {"system": "t4_product", "section": {"kind": "coordinate", "index": 2, "level": 1.0},
           "samples": 2, "iterations": 1}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 2
    assert "supply explicit 'points'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_return_map_failures_are_report_entries(tmp_path):
    # no return fits in t_max: a failed verification with a report, not a crash
    code, out = run(tmp_path, "return-map", {**RETURN_MAP_OSC, "t_max": 0.5})
    assert code == 1
    report = read_report(out)["report"]
    checks = {c["name"]: c for c in report["checks"]}
    assert not report["passed"]
    assert not checks["iterates"]["passed"]
    assert checks["iterates"]["failures"] == [[0, 0, "no crossing"], [1, 0, "no crossing"]]
    assert checks["iterates"]["n_rows"] == 0
    assert not checks["symplectic_determinant"]["passed"]
    with open(out / "crossings.csv") as fh:
        assert len(list(csv.reader(fh))) == 1


def test_return_map_counters_are_deterministic(tmp_path):
    reports = [read_report(run(tmp_path, "return-map", RETURN_MAP_OSC, out=o, seed=3)[1])
               for o in ("a", "b")]
    assert json.dumps(reports[0]["report"], sort_keys=True) == \
        json.dumps(reports[1]["report"], sort_keys=True)
    iterates = reports[0]["report"]["checks"][0]
    assert iterates["crossings_seen_total"] == 4   # 2 orbits x 2 iterations, one lap each
    assert 0.0 <= iterates["max_angle_residual"] < 1e-12
    assert iterates["failures"] == []


def test_verify_cosym_catalog_seed(tmp_path):
    code, out = run(tmp_path, "verify-cosym", {"seed": "t5", "samples": 32})
    assert code == 0
    assert read_report(out)["report"]["passed"]


def test_verify_cosym_inline_failure(tmp_path):
    cfg = {"cosym": {"dim": 5, "alpha": [[4, 1.0]], "beta": [[0, 1, 1.0]]}}
    code, out = run(tmp_path, "verify-cosym", cfg)
    assert code == 1
    assert not read_report(out)["report"]["passed"]


def test_verify_cosym_derivative_too_deep_to_build_exits_2(tmp_path, capsys):
    # the coefficient parses and compiles; its partial along x0, taken when the
    # pair is verified, nests too deeply: a config error, as a deep coefficient is
    deep = "*".join(["sin(x0)"] * 600)
    cfg = {"cosym": {"dim": 3, "alpha": [[1, deep], [2, 1.0]], "beta": [[0, 1, 1.0]]}}
    assert run(tmp_path, "verify-cosym", cfg)[0] == 2
    assert capsys.readouterr().err.startswith("error: bad cosym spec: expression nested too deeply")


def test_tischler_rational_periods_exit_zero(tmp_path):
    cfg = {"tischler": {"periods": [1.0 / 3.0, 2.0 / 3.0], "eps": 1e-6, "d_cap": 100}}
    code, out = run(tmp_path, "tischler", cfg)
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["rationalize"]["d"] == 3
    assert checks["rationalize"]["epsilon_achieved"] == 0.0


def test_tischler_inline_alpha_rebuild(tmp_path):
    cfg = {"tischler": {"dim": 2, "alpha": [[0, 1.0], [1, math.sqrt(2.0)]],
                        "eps": 1e-2, "d_cap": 100}}
    code, out = run(tmp_path, "tischler", cfg)
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["rationalize"]["d"] == 70
    assert checks["rebuilt_periods"]["passed"]


def test_tischler_rebuilt_period_quadrature_failure_is_a_failed_check(tmp_path, monkeypatch):
    # the first quadrature takes the periods of alpha, the second those of the rebuilt form
    from cosymlab import tischler
    loop_periods, calls = tischler.loop_periods, []

    def second_fails(alpha, manifold):
        calls.append(alpha)
        pv = loop_periods(alpha, manifold)
        if len(calls) == 2:
            return tischler.PeriodVector(pv.values, pv.cycles, manifold, np.array([0.0, 0.25]),
                                         2048)
        return pv

    monkeypatch.setattr(tischler, "loop_periods", second_fails)
    cfg = {"tischler": {"dim": 2, "alpha": [[0, 1.0], [1, math.sqrt(2.0)]]}}
    code, out = run(tmp_path, "tischler", cfg)
    assert code == 1
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["periods"]["passed"] and checks["rationalize"]["passed"]
    assert checks["periods"]["nodes"] == 256
    rebuilt = checks["rebuilt_periods"]
    # the rebuilt periods themselves are right; their quadrature did not converge
    assert not rebuilt["passed"] and rebuilt["residual"] < tischler.PERIOD_QUAD_ERR
    assert (rebuilt["estimate"], rebuilt["nodes"]) == ([0.0, 0.25], 2048)


def test_tischler_cap_exhausted_exit_one(tmp_path):
    cfg = {"tischler": {"periods": [math.pi / 10.0], "eps": 1e-12, "d_cap": 10}}
    code, out = run(tmp_path, "tischler", cfg)
    assert code == 1
    # the failed check reports the least-error denominator, 3 / 10, against eps,
    # and the command stops there
    checks = read_report(out)["report"]["checks"]
    assert [c["name"] for c in checks] == ["periods", "rationalize"]
    assert checks[1] == {"name": "rationalize", "passed": False, "d": 10, "n": [3],
                         "epsilon_achieved": abs(math.pi - 3.0) / 10.0, "eps": 1e-12}


def test_tischler_transversality_against_system(tmp_path):
    cfg = {"tischler": {"dim": 4, "alpha": [[2, 1.0]], "eps": 1e-3, "d_cap": 10},
           "system": "t4_product", "samples": 32}
    code, out = run(tmp_path, "tischler", cfg)
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["transversality"]["passed"]
    assert checks["transversality"]["min_margin"] == pytest.approx(1.0, abs=1e-9)


def test_tischler_takes_periods_on_the_system_chart(tmp_path, capsys):
    # suspension_rotation's chart has period 1: a constant alpha has periods
    # L_i a_i / (2 pi) there, and 5 sin(x0) dx0 is no form on it, so exit 2
    base = {"eps": 1e-2, "d_cap": 100}
    cfg = {"tischler": {**base, "dim": 2, "alpha": [[0, 1.0], [1, 0.5]]},
           "system": "suspension_rotation"}
    code, out = run(tmp_path, "tischler", cfg, out="constant")
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["periods"]["values"] == pytest.approx([1.0 / (2 * math.pi),
                                                         0.5 / (2 * math.pi)], abs=1e-12)
    cfg = {"tischler": {**base, "dim": 2, "alpha": [[0, "5*sin(x0)"], [1, 0.5]]},
           "system": "suspension_rotation"}
    code, out = run(tmp_path, "tischler", cfg, out="wavy")
    assert code == 2
    assert "not periodic" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_tischler_transversality_fails_on_a_sign_change(tmp_path):
    # alpha = dq against H = sin(p) on T^2: alpha(X) = cos(p) runs from -0.999
    # to 0.995 over the samples, never below 0.0496 in magnitude, so only its
    # sign change shows that the rebuilt form is tangent to the flow somewhere
    cfg = {"tischler": {"dim": 2, "alpha": [[0, 1.0]]},
           "system": {"dim": 2, "coordinates": ["q", "p"], "periodic": [True, True],
                      "omega": [[0, 1, 1.0]], "hamiltonian": "sin(p)"}}
    code, out = run(tmp_path, "tischler", cfg)
    assert code == 1
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    trans = checks["transversality"]
    assert not trans["passed"]
    assert trans["signed_min"] < -0.99 and trans["signed_max"] > 0.99
    assert trans["min_margin"] > 0.04
    assert [c["name"] for c in checks.values() if not c["passed"]] == ["transversality"]


def test_obstruct_betti_failure(tmp_path):
    code, out = run(tmp_path, "obstruct", {"betti": "s3"})
    assert code == 1
    check = read_report(out)["report"]["checks"][0]
    assert check["verdict"] == "negative" and check["evidence"] == {"failing_degree": 1}


def test_obstruct_betti_pass(tmp_path):
    assert run(tmp_path, "obstruct", {"betti": "t3"})[0] == 0
    assert run(tmp_path, "obstruct", {"betti": [1, 1, 1, 1]}, out="v")[0] == 0


def test_obstruct_exactness_and_ambient(tmp_path):
    code, out = run(tmp_path, "obstruct",
                    {"system": "canonical_r4", "ambient": "t4", "quad_nodes": 64})
    assert code == 1
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert not checks["exactness_verdict"]["passed"]
    assert abs(checks["exactness_verdict"]["surface_integrals"]["torus"]) < 1e-8
    assert checks["simply_connected_verdict"]["passed"]


def test_obstruct_needs_a_mode(tmp_path):
    assert run(tmp_path, "obstruct", {})[0] == 2


def test_return_map_oscillator(tmp_path):
    cfg = {"system": "oscillator_2dof_sqrt2",
           "section": {"kind": "angle", "pair": [2, 3]},
           "level": 1.0, "samples": 2, "iterations": 5,
           "n_return_points": 1, "t_max": 30.0}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["iterates"]["max_return_time"] == pytest.approx(2 * math.pi / math.sqrt(2),
                                                                  abs=1e-8)
    assert checks["symplectic_determinant"]["max_det_error"] < 1e-6
    with open(out / "crossings.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 5
    # iterates of one orbit stay on an invariant circle of the first pair
    by_orbit = {}
    for row in rows[1:]:
        by_orbit.setdefault(row[0], []).append(
            math.hypot(float(row[2]), float(row[3])))
    for radii in by_orbit.values():
        assert max(radii) - min(radii) < 1e-6


def test_return_map_inline_system(tmp_path):
    cfg = {"system": {"dim": 2, "coordinates": ["q", "p"],
                      "omega": [[0, 1, 1.0]],
                      "hamiltonian": "0.5*(q^2 + p^2)",
                      "lambda": [[1, "q"]],
                      "name": "inline_oscillator"},
           "section": {"kind": "angle", "pair": [0, 1]},
           "points": [[1.0, 0.0]],
           "samples": 1, "iterations": 3, "n_return_points": 1, "t_max": 30.0}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["iterates"]["max_return_time"] == pytest.approx(2 * math.pi, abs=1e-8)


def test_checks_report_how_many_points_they_used(tmp_path):
    # grid 9 over 4 leaf samples tabulates 4 fiber points
    code, out = run(tmp_path, "demo-product", {"seed": "t3", "samples": 4, "grid": 9,
                                               "n_return_points": 2, "t_max": 30.0}, out="demo")
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["mapping_torus_gluing"]["n_points"] == 4
    assert checks["return_map_symplectic"]["n_points"] == 2
    # the README's inline return-map config has one start point, so its
    # default n_return_points 10 checks one Jacobian
    config = next(c for command, c in readme_configs()
                  if command == "return-map" and "points" in c)
    code, out = run(tmp_path, "return-map", config, out="inline")
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    assert checks["symplectic_determinant"]["n_points"] == 1


def test_inline_system_bad_expression_exits_2(tmp_path):
    cfg = {"system": {"dim": 2, "omega": [[0, 1, 1.0]], "hamiltonian": "q +"},
           "points": [[1.0, 0.0]], "section": {"kind": "angle", "pair": [0, 1]}}
    assert run(tmp_path, "return-map", cfg)[0] == 2


def test_demo_product_forwards_t_max(tmp_path):
    # every leaf return takes 2*pi > t_max: the Jacobian and mapping-torus
    # stages must fail on the configured t_max too, with a report
    code, out = run(tmp_path, "demo-product", {"seed": "t3", "samples": 10, "t_max": 0.5,
                                               "n_return_points": 1, "grid": 2})
    assert code == 1
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    for name, n_points in (("return_map_symplectic", 1), ("mapping_torus_gluing", 2)):
        assert not checks[name]["passed"] and checks[name]["n_points"] == n_points
        assert "no crossing" in checks[name]["error"]


@pytest.mark.parametrize("command, config", [
    (c, cfg) for c, cfg in readme_configs() if c in ("return-map", "demo-product")])
def test_each_run_scans_its_crossings_once(tmp_path, monkeypatch, command, config):
    # return-map's Jacobians read its iterate record, and demo-product's
    # Jacobians and mapping torus read verify_global's forward record: one
    # crossing scan, or one forward and one backward
    from cosymlab import section
    calls = []
    scan = section.first_crossings
    monkeypatch.setattr(section, "first_crossings",
                        lambda *a, **kw: calls.append(1) or scan(*a, **kw))
    assert run(tmp_path, command, config)[0] == 0
    assert len(calls) == {"return-map": 1, "demo-product": 2}[command]


def test_return_map_points_off_section_exit_2(tmp_path, capsys):
    code, out = run(tmp_path, "return-map", {**RETURN_MAP_OSC, "points": [[0.5, 0.0, 0.8, 0.3]]})
    assert code == 2
    assert "not on the section" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("points", [[["a", 0.0, 0.8, 0.0]], [[0.6, 0.0, float("nan"), 0.0]],
                                    [[0.6, 0.0, 0.8]]])
def test_return_map_malformed_points_exit_2(tmp_path, capsys, points):
    code, _ = run(tmp_path, "return-map", {**RETURN_MAP_OSC, "points": points})
    assert code == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["x", True, None])
def test_malformed_level_exits_2(tmp_path, capsys, level):
    code, out = run(tmp_path, "return-map", {**RETURN_MAP_OSC, "level": level})
    assert code == 2
    assert "level" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("section", [{"kind": "leaf", "d": 0, "n": [0, 0, 1, 0]},
                                     {"kind": "leaf", "n": [0, 1]},
                                     {"kind": "leaf", "n": [0, 0, 0, 0]}])
def test_malformed_leaf_section_exits_2(tmp_path, capsys, section):
    cfg = {"system": "t4_product", "section": section, "samples": 2, "iterations": 1}
    code, _ = run(tmp_path, "return-map", cfg)
    assert code == 2
    err = capsys.readouterr().err
    # the leaf is the integer data n alone: a 'd' field is unknown
    assert "section field" in err
    assert ("unknown section field 'd'" in err) == ("d" in section)


def test_leaf_section_returns_as_the_default_coordinate_section(tmp_path):
    # the leaf of n = (0, 0, 1, 0) on T^4 is {z = 0}, t4_product's default section,
    # built by the same code: the same checks and the same crossings, byte for byte
    cfg = {"system": "t4_product", "samples": 3, "iterations": 2, "n_return_points": 2,
           "t_max": 30.0}
    leaf_code, leaf = run(tmp_path, "return-map",
                          {**cfg, "section": {"kind": "leaf", "n": [0, 0, 1, 0]}}, out="leaf")
    code, default = run(tmp_path, "return-map", cfg, out="default")
    assert leaf_code == code == 0
    checks = read_report(leaf)["report"]["checks"]
    assert checks == read_report(default)["report"]["checks"]
    assert next(c for c in checks if c["name"] == "iterates")["n_rows"] == 6
    assert (leaf / "crossings.csv").read_bytes() == (default / "crossings.csv").read_bytes()


def test_inline_system_failing_structure_checks_exits_2(tmp_path, capsys):
    cfg = {"system": {"dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, 1.0]],
                      "hamiltonian": "q", "lambda": [[0, "p"]]},
           "points": [[1.0, 0.0]], "section": {"kind": "angle", "pair": [0, 1]}}
    assert run(tmp_path, "return-map", cfg)[0] == 2
    assert "primitive" in capsys.readouterr().err


# omega = dx^dy + dz^dt and H = sin(t) on T^4 with lambda = x dy + z dt: d lambda =
# omega, but lambda jumps by 2 pi dy across x and by 2 pi dt across z, so it is no
# form on the torus.  obstruct read it as a primitive and gave a negative
# exactness verdict (exit 1), while return-map certified returns to {z = 0} on the
# same system (exit 0).  On the circle x0 times a line, the omega (2 + x0 / 10)
# dx0^dx1 and the dH = x0 dx0 of H = x0^2 / 2 jump across x0 (H = x0 itself may:
# dH = dx0 is a form there).  verify-cosym passed the alpha (1 + x0) dx0, and the
# closed beta (1 + x0) dx0^dx1 + dx1^dx2 against alpha = dx0 (exit 0)
T4_NON_PERIODIC_LAMBDA = {"dim": 4, "coordinates": ["x", "y", "z", "t"], "periodic": [True] * 4,
                          "omega": [[0, 1, 1.0], [2, 3, 1.0]], "hamiltonian": "sin(t)",
                          "lambda": [[1, "x"], [3, "z"]]}
CYLINDER = {"dim": 2, "periodic": [True, False], "omega": [[0, 1, 1.0]]}
NON_PERIODIC_FORMS = {
    "obstruct lambda": ("obstruct", {"system": T4_NON_PERIODIC_LAMBDA}, "lambda"),
    "return-map lambda": ("return-map", {"system": T4_NON_PERIODIC_LAMBDA,
                                         "points": [[0.1, 0.2, 0.0, 0.0]]}, "lambda"),
    "return-map omega": ("return-map", {"system": {**CYLINDER, "omega": [[0, 1, "2 + 0.1*x0"]],
                                                   "hamiltonian": "sin(x0)"},
                                        "points": [[0.0, 0.5]]}, "omega"),
    "return-map dH": ("return-map", {"system": {**CYLINDER, "hamiltonian": "0.5*x0^2"},
                                     "points": [[0.0, 0.5]]}, "dH"),
    "verify-cosym alpha": ("verify-cosym", {"cosym": {"dim": 3, "alpha": [[0, "1 + x0"]],
                                                      "beta": [[1, 2, 1.0]]}}, "alpha"),
    "verify-cosym beta": ("verify-cosym", {"cosym": {"dim": 3, "alpha": [[0, 1.0]],
                                                     "beta": [[0, 1, "1 + x0"], [1, 2, 1.0]]}},
                          "beta"),
}


@pytest.mark.parametrize("command, config, form", NON_PERIODIC_FORMS.values(),
                         ids=list(NON_PERIODIC_FORMS))
def test_form_not_periodic_on_its_chart_exits_2(tmp_path, capsys, command, config, form):
    code, out = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{form} is not periodic on the chart" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_amplitude_start_on_an_angle_section_fails_its_checks(tmp_path):
    # the phase angle is singular at the origin, where its rate is NaN: the start
    # check reports a tangency and the section chart is refused.  The chart took
    # np.linalg.det of the NaN gradients, whose RuntimeWarning made the run exit 3
    cfg = {"system": {"dim": 2, "omega": [[0, 1, 1.0]], "hamiltonian": "0.5*(x0^2 + x1^2)"},
           "section": {"kind": "angle", "pair": [0, 1]}, "points": [[0, 0]]}
    code, out = run(tmp_path, "return-map", cfg)
    assert code == 1
    checks = {c["name"]: c for c in read_report(out)["report"]["checks"]}
    tangency = "tangency: flow tangent to section at start: |d theta/dt| = nan"
    assert checks["iterates"] == {
        "name": "iterates", "passed": False, "n_rows": 0, "crossings_seen_total": 0,
        "failures": [[0, 0, tangency]], "max_angle_residual": None, "max_return_time": None,
        "min_margin": None}
    assert checks["symplectic_determinant"] == {
        "name": "symplectic_determinant", "passed": False, "error": tangency, "n_points": 1}
    system = cli.build_inline_system(cli.validate("return-map", cfg)["system"])
    with pytest.raises(section.SectionChartError, match="non-finite constraint gradients"):
        section.section_frame(system, section.angle_section((0, 1)), [0.0, 0.0])


def test_crash_exits_3_with_traceback(tmp_path, capsys, monkeypatch):
    def broken(cfg, out, seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.COMMANDS, "verify-cosym", broken)
    code, _ = run(tmp_path, "verify-cosym", {"seed": "t3"})
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ZeroDivisionError: boom" in err


def checkout_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with these arguments and the checkout's src on
    PYTHONPATH, every RuntimeWarning an error."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join([str(src)] + [
               p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


def fresh_python(script: str):
    """Run a script in a fresh interpreter (`checkout_python`); the JSON value of its
    last output line."""
    proc = checkout_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_processes_do_not_import_scipy(tmp_path):
    configs = {
        "demo-product": {"seed": "t3", "samples": 4, "t_max": 20.0, "n_return_points": 1,
                         "grid": 2},
        "verify-cosym": {"seed": "t3", "samples": 8},
        "tischler": {"tischler": {"dim": 2, "alpha": [[0, "1 + 0.3*cos(x0)"],
                                                      [1, math.sqrt(2.0)]],
                                  "eps": 1e-2, "d_cap": 100}},
        "obstruct": {"betti": "t3", "system": "canonical_r4", "quad_nodes": 16},
        "return-map": RETURN_MAP_OSC,
    }
    assert set(configs) == set(cli.COMMANDS)
    script = "\n".join([
        "import json, sys",
        "import cosymlab.cli as cli",
        f"configs = json.loads({json.dumps(json.dumps(configs))})",
        f"root = {str(tmp_path)!r}",
        "codes = {}",
        "for command, cfg in configs.items():",
        "    path = f'{root}/{command}.json'",
        "    open(path, 'w').write(json.dumps(cfg))",
        "    codes[command] = cli.main([command, '--config', path, '--out', f'{root}/{command}'])",
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(json.dumps({'codes': codes, 'scipy': scipy}))",
    ])
    result = fresh_python(script)
    assert result["scipy"] == []
    assert result["codes"] == {"demo-product": 0, "verify-cosym": 0, "tischler": 0,
                               "obstruct": 1, "return-map": 0}


# numpy.random adds about 6 MB to every process's peak RSS; samples come from
# forms.Rng.  No command loads numpy.polynomial: tischler builds its Gauss-Legendre
# rules itself.
@pytest.mark.parametrize("command, config", readme_configs(),
                         ids=[f"{i}-{c}" for i, (c, _) in enumerate(readme_configs())])
def test_readme_config_processes_do_not_import_numpy_random(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    result = fresh_python("\n".join([
        "import json, sys",
        "import cosymlab.cli as cli",
        f"code = cli.main({argv!r})",
        "print(json.dumps({'code': code, 'random': 'numpy.random' in sys.modules,",
        "                  'polynomial': 'numpy.polynomial' in sys.modules}))",
    ]))
    assert result["code"] == (1 if command == "obstruct" else 0)
    assert not result["random"]
    assert not result["polynomial"]


def test_cli_import_loads_neither_numpy_random_nor_numpy_polynomial():
    assert fresh_python("import json, sys\nimport cosymlab.cli\nprint(json.dumps("
                        "[m in sys.modules for m in ('numpy.random', 'numpy.polynomial')]))"
                        ) == [False, False]


# Importing cosymlab generates no code: its records are plain classes, since
# `dataclasses` and `typing.NamedTuple` compile the source of their methods for
# every class.  NumPy and the other modules cosymlab imports (read from its
# sources) are imported before the audit hook, so every compile event it sees is
# cosymlab's: a module's source, under its path, where no __pycache__ holds it,
# and last the probe that shows the hook sees generated code.
def test_cli_import_generates_no_code():
    import ast
    package = Path(cli.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    imported = set()
    for m in modules:
        for node in ast.walk(ast.parse(m.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    result = fresh_python("\n".join([
        "import json, sys",
        *(f"import {name}" for name in sorted(imported)),
        "compiled = []",
        "sys.addaudithook(lambda event, args: compiled.append(str(args[1]))",
        "                 if event == 'compile' else None)",
        *(f"import cosymlab.{m.stem}" for m in modules if m.stem != "__init__"),
        "compile('0', '<probe>', 'eval')",
        "print(json.dumps(compiled))",
    ]))
    assert "numpy" in imported
    assert [name for name in result if not name.endswith(".py")] == ["<probe>"]


# `import cosymlab.cli` loads the schema, the catalog, forms and phase; each command
# adds only the layers it runs, the dop853 stepper only where it integrates,
# traceback only where it crashes, and dataclasses nowhere, unless NumPy does.  The
# bench configs, their sizes shrunk.
CLI_IMPORT = ["cosymlab", "cosymlab.catalog", "cosymlab.cli", "cosymlab.forms",
              "cosymlab.phase"]
BENCH_INLINE_RETURN_MAP = {
    "system": {"dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, "1 + 0.5*sin(q)"]],
               "hamiltonian": "0.5*(q^2 + p^2)"},
    "section": {"kind": "angle", "pair": [0, 1]}, "points": [[0.8, 0.0], [1.2, 0.0]],
    "iterations": 2, "n_return_points": 1}


@pytest.mark.parametrize("command, config, adds", [
    ("obstruct", {"betti": "t5", "system": "canonical_r4", "ambient": "t4", "quad_nodes": 16},
     ["obstruct"]),
    ("return-map", {**RETURN_MAP_OSC, "tol": 1e-10}, ["dop853", "section"]),
    ("return-map", BENCH_INLINE_RETURN_MAP, ["dop853", "expr", "section"]),
    ("verify-cosym", {"seed": "t5", "samples": 64}, ["cosym"]),
    ("demo-product", {"seed": "t5", "samples": 4, "n_return_points": 1, "grid": 2,
                      "t_max": 20.0}, ["cosym", "dop853", "section"]),
    ("tischler", {"tischler": {"dim": 4, "alpha": [[0, "1.0 + 0.3*cos(x0)"], [1, math.sqrt(2.0)],
                                                   [2, "0.5*sin(x2) + 1.7320508075688772"],
                                                   [3, 0.1]],
                               "eps": 1e-3, "d_cap": 10000},
                  "system": "t4_product", "samples": 64},
     ["cosym", "expr", "tischler"]),
], ids=["obstruct", "return-map-osc", "return-map-inline", "verify-cosym", "demo-product",
        "tischler"])
def test_cli_process_loads_only_the_layers_its_command_runs(tmp_path, command, config, adds):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    result = fresh_python("\n".join([
        "import json, sys",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'cosymlab')",
        "import numpy",
        "numpy_dataclasses = 'dataclasses' in sys.modules",
        "import cosymlab.cli as cli",
        "before = loaded()",
        f"code = cli.main({argv!r})",
        "print(json.dumps({'code': code, 'before': before, 'after': loaded(),",
        "                  'polynomial': 'numpy.polynomial' in sys.modules,",
        "                  'traceback': 'traceback' in sys.modules,",
        "                  'dataclasses': 'dataclasses' in sys.modules,",
        "                  'numpy_dataclasses': numpy_dataclasses}))",
    ]))
    assert result["code"] == (1 if command == "obstruct" else 0)
    assert result["before"] == CLI_IMPORT
    assert sorted(set(result["after"]) - set(CLI_IMPORT)) == [f"cosymlab.{m}" for m in adds]
    assert not result["polynomial"]
    assert not result["traceback"]
    assert result["numpy_dataclasses"] or not result["dataclasses"]


# `python -m cosymlab.cli` ends through cli.run: one process per exit code, with its
# stderr, and for exits 0 and 1 the report payload of cli.main in process.  For exit 3
# a directory takes the report's path, so writing the report fails: an internal error
CLI_PROCESS_EXITS = [
    ("verify-cosym", {"seed": "t3", "samples": 8}, 0),
    ("obstruct", {"system": "canonical_r4", "quad_nodes": 16}, 1),
    ("verify-cosym", {"cosym": {"dim": 3, "coordinates": ["q", "q", "pi"], "alpha": [[2, 1.0]],
                                "beta": [[0, 1, 1.0]]}}, 2),
    ("verify-cosym", {"seed": "t3", "samples": 8}, 3),
]


@pytest.mark.parametrize("command, config, code", CLI_PROCESS_EXITS,
                         ids=["exit-0", "exit-1", "exit-2", "exit-3"])
def test_cli_process_exits_with_the_code_of_main(tmp_path, command, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if code == 3:
        (tmp_path / "process" / "report.json").mkdir(parents=True)
    proc = checkout_python("-m", "cosymlab.cli", command, "--config", str(path),
                           "--out", str(tmp_path / "process"))
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    if code < 2:
        assert lines == []
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "main")]) == code
        payloads = [json.dumps(read_report(tmp_path / out)["report"], sort_keys=True)
                    for out in ("process", "main")]
        assert payloads[0] == payloads[1]
    elif code == 2:
        assert lines == ["error: bad cosym spec: coordinate name 'q' is given twice",
                         f"usage: cosymlab {command} --config <path> [--out <dir>] "
                         "[--seed <u64>]"]
    else:
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-1] == (f"internal error in cosymlab {command}: this is not a "
                             "verification result (exit 3)")
        assert "IsADirectoryError" in lines[-2]


def test_cli_process_entry_freezes_the_collector_and_main_does_not(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"betti": "t3"}))
    argv = ["obstruct", "--config", str(path), "--out", str(tmp_path / "out")]
    assert gc.get_freeze_count() == 0
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == 0
    exits = []
    monkeypatch.setattr(sys, "argv", ["cosymlab", *argv])
    monkeypatch.setattr(sys, "exit", exits.append)
    try:
        cli.run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert exits == [0]


def test_bench_traced_methods_exist():
    # the bench tracer wraps these methods by name, and a missing one makes every
    # traced run fail; read from bench/tracing.py without importing it
    import ast
    import importlib
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text())
    methods = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "METHODS")
    assert methods
    for module, cls, method, _ in methods:
        assert callable(getattr(getattr(importlib.import_module(f"cosymlab.{module}"), cls),
                                method))


# each command through cli.main, and how many objects it certifies: systems
# (`validate`), cosymplectic pairs (`verify_cosymplectic`), forms (`check_periodic`)
# and tischler's dalpha (`closed_residual` in `tischler`)
TISCHLER_ALPHA = {"dim": 4, "alpha": [[0, "1.0 + 0.3*cos(x0)"], [1, math.sqrt(2.0)],
                                      [2, 1.7320508075688772], [3, 0.1]],
                  "eps": 1e-2, "d_cap": 100}
CERTIFYING_RUNS = [
    ("demo-product", {"seed": "t3", "samples": 4, "n_return_points": 1, "grid": 1,
                      "t_max": 20.0}, (1, 1, 2, 0)),
    ("verify-cosym", {"seed": "t3", "samples": 8}, (0, 1, 0, 0)),
    ("verify-cosym", {"cosym": {"dim": 3, "alpha": [[2, "1 + 0.1*sin(x2)"]],
                                "beta": [[0, 1, 1.0]]}, "samples": 8}, (0, 1, 2, 0)),
    ("tischler", {"tischler": TISCHLER_ALPHA}, (0, 0, 1, 1)),
    ("tischler", {"tischler": TISCHLER_ALPHA, "system": "t4_product", "samples": 8},
     (1, 1, 3, 1)),
    ("obstruct", {"system": "canonical_r4", "quad_nodes": 16}, (1, 0, 3, 0)),
    ("obstruct", {"system": {**INLINE_OSCILLATOR, "lambda": [[1, "q"]]}}, (1, 0, 3, 0)),
    ("return-map", {**RETURN_MAP_OSC, "samples": 1, "iterations": 1}, (0, 0, 0, 0)),
    ("return-map", BENCH_INLINE_RETURN_MAP, (1, 0, 2, 0)),
]


@pytest.mark.parametrize("command, config, certified", CERTIFYING_RUNS,
                         ids=["demo-product", "verify-cosym-catalog", "verify-cosym-inline",
                              "tischler", "tischler-system", "obstruct-catalog",
                              "obstruct-inline", "return-map-catalog", "return-map-inline"])
def test_each_identity_is_certified_once(tmp_path, monkeypatch, command, config, certified):
    from cosymlab import cosym, obstruct, phase, tischler
    seen = {"validate": [], "verify_cosymplectic": [], "check_periodic": [], "d_alpha": []}

    def counted(name, fn):
        def wrapper(certified_object, *args):
            seen[name].append(certified_object)   # kept alive, so ids stay distinct
            return fn(certified_object, *args)
        return wrapper

    monkeypatch.setattr(phase.HamiltonianSystem, "validate",
                        counted("validate", phase.HamiltonianSystem.validate))
    monkeypatch.setattr(cosym, "verify_cosymplectic",
                        counted("verify_cosymplectic", cosym.verify_cosymplectic))
    for module in (cli, cosym, obstruct, phase, section, tischler):
        if getattr(module, "check_periodic", None) is forms.check_periodic:
            monkeypatch.setattr(module, "check_periodic",
                                counted("check_periodic", forms.check_periodic))
    monkeypatch.setattr(tischler, "closed_residual",
                        counted("d_alpha", forms.closed_residual))
    code, _ = run(tmp_path, command, config)
    assert code == (1 if command == "obstruct" else 0)
    # each object certified exactly once, and as many objects as the run has
    for name, objects in seen.items():
        assert len({id(o) for o in objects}) == len(objects), name
    assert tuple(len(objects) for objects in seen.values()) == certified
