"""Self-test of the benchmark.

    python3 -m pytest bench -q        # from the root of a checkout, ~3 minutes

Each traced run already fails (`correct: false`) when a layer assigned to its
workload recorded no span, when a traced report payload differs from the
untraced one, or when a work count differs between its traced passes.  These
tests also compare work counts across two separate traced runs, check the
metric names against BENCHMARK.json, and check where the time goes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import COUNTS  # noqa: E402

# (layer with the most self time, span with the most self time) per workload
HOT = {"return-map-osc": ("phase", "phase.field"),
       "globality-product": ("section", "section.verify_global")}


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                         cwd=cwd, capture_output=True, text=True, timeout=900)
    return out.returncode, [json.loads(line) for line in out.stdout.splitlines()], out.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_are_complete_and_repeat(workload):
    runs = []
    for _ in range(2):
        code, lines, err = bench(workload, 1)
        assert code == 0, err
        info = next(line["trace"] for line in lines if "trace" in line)
        res = lines[-1]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, err
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        runs.append((info, res["metrics"]))
    for key in COUNTS:
        assert runs[0][1][key]["value"] == runs[1][1][key]["value"], key
    if workload in HOT:
        layer, span = HOT[workload]
        info = runs[0][0]
        assert next(iter(info["layer_self_s"])) == layer, info["layer_self_s"]
        assert next(iter(info["top_self_s"])) == span, info["top_self_s"]


def test_untraced_run_reports_end_to_end_metrics():
    code, lines, err = bench("structure-inline", 0)
    assert code == 0, err
    res = lines[-1]
    assert res["correct"] and res["failed"] == 0, err
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _err = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0 and not lines
