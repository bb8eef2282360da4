"""CLI calls of the corpus's ``pinned`` group, each replayed on its own.

Factored tables, lifted evaluations on the factored state, the witness
report and the state checks on factored states are built from closed forms
and exact sums, so their bytes are fixed across machines and across rewrites
of the arithmetic behind them.  Each call runs in a fresh directory that
holds the group's documents and must print and write the bytes
``corpus.json`` records for it; a lift on the factored state does so without
building a dense product vector.  A depth-0 table holds the empty key.
"""

import json

import pytest

import corpus
from qmeas.cli import main
from qmeas.measurement import MeasurementSystem


def replays_as_recorded(argvs, tmp_path) -> bool:
    return corpus.replay("pinned", argvs, tmp_path) == [corpus.entry("pinned", argv) for argv in argvs]


@pytest.mark.parametrize("name", sorted(corpus.PINNED_CALLS))
def test_stdout_bytes_are_pinned(name, tmp_path):
    assert replays_as_recorded([corpus.PINNED_CALLS[name]], tmp_path)


def test_lift_on_the_factored_state_builds_no_product_vector(tmp_path, monkeypatch):
    def refuse(self, bits, offset=0):
        raise AssertionError("a dense product vector was built")

    monkeypatch.setattr(MeasurementSystem, "product_vector", refuse)
    assert replays_as_recorded([corpus.PINNED_CALLS["lift"]], tmp_path)


def sample(basis, prefix):
    return ["sample", "--bits", "100000", "--basis", basis, "--out-prefix", prefix]


@pytest.mark.parametrize("basis", ["hadamard", "rot.json", "standard"])
def test_sample_files_are_pinned(basis, tmp_path):
    assert replays_as_recorded([sample(basis, "s")], tmp_path)


def test_depth_zero_table_has_the_empty_key(capsys):
    assert main(["measure", "--tau-depth", "0"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["table"] == {"": 1.0}


def test_battery_over_the_pinned_samples_is_pinned(tmp_path):
    samples = [sample("hadamard", "h"), sample("standard", "s"), sample("rot.json", "r")]
    assert replays_as_recorded(samples + [["battery", "h.bits", "s.bits", "r.bits", "--aggregate"]], tmp_path)
