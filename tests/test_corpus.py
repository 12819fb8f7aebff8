"""The payload corpus (tests/corpus.json, see tests/corpus.py): every entry replays
bit for bit in process, and every regression condition holds on the fresh outputs."""
import json

import numpy as np
import pytest

import corpus

ENTRIES = corpus.load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_corpus_entry_replays(tmp_path, entry):
    assert corpus.replay(entry, tmp_path / "out", corpus.in_process) == []


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
