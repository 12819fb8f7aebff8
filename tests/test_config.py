"""The config schema: README examples and field tables against `cli.COMMAND_FIELDS`,
and mutated configs run in-process through `cli.main`."""
import contextlib
import copy
import importlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from helpers import README, readme_configs
from hypothesis import given, settings, strategies as st

from cosymlab import cli


def field_rows(table: dict) -> str:
    """The README markdown table of a field table."""
    rows = ["| field | accepts | default | meaning |", "|---|---|---|---|"]
    for name, (check, default, doc) in table.items():
        shown = ("required" if default is cli.REQUIRED else "none" if default is None
                 else f"`{json.dumps(default)}`")
        rows.append(f"| `{name}` | {check.text} | {shown} | {doc} |")
    return "\n".join(rows)


SCHEMA_TABLES = {**{f"`{c}`": t for c, t in cli.COMMAND_FIELDS.items()},
                 **{f"section kind `{k}`": t for k, t in cli.SECTION_KINDS.items()},
                 "`tischler` object": cli.TISCHLER,
                 "inline `system` object": cli.INLINE_SYSTEM,
                 "inline `cosym` object": cli.INLINE_COSYM}


def test_readme_config_blocks_validate():
    configs = readme_configs()
    assert {c for c, _ in configs} == set(cli.COMMANDS)
    for command, cfg in configs:
        cli.validate(command, cfg)


def test_readme_library_example_runs():
    # the README's python block, run as written: one first return on the T^4 leaf
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["T"] - 2.0 * math.pi) < 1e-12


@pytest.mark.parametrize("title", sorted(SCHEMA_TABLES))
def test_readme_lists_each_field_table(title):
    assert f"Fields of {title}:\n\n{field_rows(SCHEMA_TABLES[title])}\n" in README


BOUNDS = ("ANGLE_RESIDUAL", "TANGENCY_MARGIN", "ON_SECTION_TOL", "FIELD_RESIDUAL_MAX",
          "RCOND_MIN", "CLOSED_TOL", "VOLUME_MARGIN", "LEVEL_TOL", "ALPHA_MIN",
          "ENERGY_RESIDUAL_MAX", "GLUING_FACTOR", "DET_ERROR_MAX", "ELIMINATION_DET_MIN",
          "PERIOD_QUAD_ERR")
SRC = Path(cli.__file__).parent


def test_readme_bounds_table_matches_the_constants():
    # one row per certified bound, naming the one module that defines it and its value;
    # every margin a module defines is a certified bound, so a duplicate shows up here
    table = README.split("### Certified bounds\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|", table, re.M)
    assert tuple(name for name, _, _ in rows) == BOUNDS
    margins = {m for p in SRC.glob("*.py")
               for m in re.findall(r"^(\w+_MARGIN) = ", p.read_text(), re.M)}
    assert margins <= set(BOUNDS), margins - set(BOUNDS)
    for name, module, value in rows:
        assert value == repr(getattr(importlib.import_module(f"cosymlab.{module}"), name)), name
        defined = [p.stem for p in sorted(SRC.glob("*.py"))
                   if re.search(rf"^{name} = ", p.read_text(), re.M)]
        assert defined == [module], (name, defined)


# -- mutated configs ---------------------------------------------------------------

# the README and bench configs with their size fields shrunk
BENCH_INLINE = {"dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, "1 + 0.5*sin(q)"]],
                "hamiltonian": "0.5*(q^2 + p^2)"}
SHRUNK = {"samples": 4, "iterations": 2, "n_return_points": 1, "grid": 2, "quad_nodes": 16}
BASES = {command: [] for command in cli.COMMANDS}
for _command, _cfg in readme_configs() + [
        ("return-map", {"system": "oscillator_2dof_sqrt2",
                        "section": {"kind": "angle", "pair": [2, 3]}, "level": 1.0,
                        "samples": 4, "iterations": 10, "n_return_points": 2, "tol": 1e-10,
                        "t_max": 100.0}),
        ("demo-product", {"seed": "t5", "samples": 1500, "n_return_points": 5, "grid": 9,
                          "tol": 1e-10, "t_max": 100.0}),
        ("verify-cosym", {"seed": "t5", "samples": 20000}),
        ("tischler", {"tischler": {"dim": 4, "alpha": [[0, "1.0 + 0.3*cos(x0)"],
                                                       [1, math.sqrt(2.0)],
                                                       [2, "0.5*sin(x2) + 1.7320508075688772"],
                                                       [3, 0.1]],
                                   "eps": 1e-3, "d_cap": 10000},
                      "system": "t4_product", "samples": 4096}),
        ("obstruct", {"betti": "t5", "system": "canonical_r4", "ambient": "t4",
                      "quad_nodes": 512}),
        ("return-map", {"system": BENCH_INLINE, "section": {"kind": "angle", "pair": [0, 1]},
                        "points": [[0.8, 0.0], [1.2, 0.0]], "iterations": 2,
                        "n_return_points": 1})]:
    BASES[_command].append({k: min(v, SHRUNK[k]) if k in SHRUNK else v for k, v in _cfg.items()})

DELETE = object()
MUTATIONS = [DELETE, "x", True, math.nan, 0, -1, 1.5, [], {}, None, 2**63]


def field_paths(cfg: dict, prefix=()):
    """Key paths of every field, nested objects included."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


def mutated(cfg: dict, path: tuple, value) -> dict:
    cfg = copy.deepcopy(cfg)
    *parents, key = path
    target = cfg
    for p in parents:
        target = target[p]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return cfg


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_mutated_config_exits_cleanly(command):
    # a wrong value either runs (exit 0 or 1, with a report) or is a config error
    # (exit 2: no traceback, no report); it never crashes (exit 3)
    codes = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        base = data.draw(st.sampled_from(BASES[command]))
        path = data.draw(st.sampled_from(list(field_paths(base))))
        cfg = mutated(base, path, data.draw(st.sampled_from(MUTATIONS)))
        seed = data.draw(st.integers(0, 2**16))
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            cfg_path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(cfg_path), "--out", str(out),
                                 "--seed", str(seed)])
            codes.append(code)
            assert code in (0, 1, 2), (cfg, err.getvalue())
            assert (out / "report.json").exists() == (code != 2), cfg
            if code == 2:
                assert "Traceback" not in err.getvalue() and "usage" in err.getvalue()

    check()
    assert len(codes) >= 200


def test_deeply_nested_json_is_a_config_error(tmp_path):
    # json.loads raises RecursionError on nesting this deep; no corpus entry can hold
    # it, since corpus.json would then fail to load the same way
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["verify-cosym", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "error: config is not valid JSON" in err.getvalue()
    assert "Traceback" not in err.getvalue()
