"""The payload corpus (tests/corpus.json, see tests/corpus.py): every entry replays
bit for bit in process, and every regression condition holds on the fresh outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus

ENTRIES = corpus.load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_corpus_entry_replays(tmp_path, entry):
    assert corpus.replay(entry, tmp_path / "out", corpus.in_process) == []


def test_corpus_replays_at_numpy_baseline_simd_level():
    # a child process with every SIMD feature that NumPy dispatches above its baseline
    # disabled: a certified number that depends on the CPU's vector loops moves here
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not dispatched:
        pytest.skip("NumPy dispatches no SIMD feature above its baseline on this CPU")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_corpus_entry_replays"],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)})
    assert proc.returncode == 0, f"disabled {dispatched}:\n{proc.stdout[-4000:]}{proc.stderr}"


def test_exactly_closed_pair_passes_at_every_seed(tmp_path):
    # its exact d alpha is rounding at the samples of any seed, not difference noise
    _, config, _, _ = corpus.REGRESSION["verify-cosym-closed-wave"]
    for seed in range(8):
        entry = {"command": "verify-cosym", "config": config, "seed": seed}
        result = corpus.run(entry, tmp_path / f"out{seed}", corpus.in_process)
        assert result["exit"] == 0, seed
        assert corpus.named(result, "cosymplectic")["d_alpha_max"] < 1e-12, seed


def test_corpus_holds_every_declared_config_and_no_crash():
    def key(e):
        return e["name"], e["command"], json.dumps(e["config"], sort_keys=True), e["seed"]

    assert [key(e) for e in ENTRIES] == [key(e) for e in corpus.declared()]
    assert {e["exit"] for e in ENTRIES} <= {0, 1, 2}


def test_corpus_comparison_fails_on_one_ulp_and_one_exit_code():
    recorded = {key: next(e for e in ENTRIES if e["name"] == "tischler")[key]
                for key in corpus.RESULT}
    assert corpus.mismatches(recorded, json.loads(json.dumps(recorded))) == []

    perturbed = json.loads(json.dumps(recorded))
    periods = perturbed["report"]["checks"][0]["values"]
    periods[0] = float(np.nextafter(periods[0], np.inf))
    assert corpus.mismatches(recorded, perturbed) == [
        f".report.checks[0].values[0]: {recorded['report']['checks'][0]['values'][0]!r} != "
        f"{periods[0]!r}"]

    assert corpus.mismatches(recorded, {**recorded, "exit": recorded["exit"] + 1}) == [
        f".exit: {recorded['exit']} != {recorded['exit'] + 1}"]


def test_write_names_the_moved_entries_and_counts_the_structural_moves(capsys):
    old = [e for e in ENTRIES if e["name"] in ("tischler", "return-map", "demo-product")]
    fresh = json.loads(json.dumps(old))
    fresh[0]["report"]["checks"][0]["values"][0] += 1.0     # a float value
    fresh[1]["crossings_sha256"] = "0" * 64                 # an artifact digest
    fresh[2]["exit"] = 1                                    # the exit code
    corpus.report_moves(old, fresh + [{**old[0], "name": "added"}])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "moved tischler", "moved return-map", "moved demo-product", "moved added"]
    assert lines[2] == "moved demo-product: .exit: 0 != 1"
    assert lines[-1] == "4 entries moved, 2 of them in more than float values and artifact digests"
    corpus.report_moves(old, old)
    assert capsys.readouterr().out == (
        "0 entries moved, 0 of them in more than float values and artifact digests\n")


def test_replay_without_the_console_script_says_so(tmp_path):
    # PATH names an empty directory, so no `cosymlab` script is found
    proc = subprocess.run([sys.executable, str(Path(corpus.__file__)), "replay"],
                          capture_output=True, text=True,
                          env={**os.environ, "PATH": str(tmp_path)})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: the `cosymlab` console script is not on PATH: install it with "
        "`pip install -e .`, or replay in process with `pytest tests/test_corpus.py`"]
