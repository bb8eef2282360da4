"""End-to-end checks of the command-line driver: exit codes, payload shape,
byte determinism, and the plumbing between subcommands."""

import argparse
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmeas import cli
from qmeas.cli import build_parser, main
from qmeas.errors import MeasureZeroPrefix
from qmeas.jsonio import canonical_dumps
from qmeas.matrixcore import is_density_matrix
from qmeas.measurement import MeasurementSystem, sample_bits
from qmeas.qmlt import build_witness_mlt, failure_report
from qmeas.randlab import aggregate, run_battery
from qmeas.states import (
    DenseStateChain,
    DensityBlock,
    FactoredState,
    check_coherence,
    check_density,
    parse_state_spec,
)
from qmeas.verify import (
    DEFAULT_TRIALS,
    verify_corner_block_bound,
    verify_kron_pairing,
    verify_quadratic_bounds,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "config_hash", "seed", "report"}
    return doc


# ---------------------------------------------------------------------------
# exit codes and error documents


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "state" in out and "battery" in out


def test_unknown_subcommand_is_bad_input(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, command, message",
    [
        (["sample", "--bits", "x"], "sample", "argument --bits: invalid int value: 'x'"),
        (["sample"], "sample", "the following arguments are required: --bits"),
        (["verify"], "verify", "the following arguments are required: subcommand"),
        (["verify", "family", "--zz"], "verify.family", "unrecognized arguments: --zz"),
        (["qmlt", "witness", "--m", "1", "--zz"], "qmlt.witness", "unrecognized arguments: --zz"),
        (["frobnicate", "--bits", "x"], "qmeas", "argument command: invalid choice: 'frobnicate'"),
        (["--zz"], "qmeas", "the following arguments are required: command"),
    ],
)
def test_argument_errors_name_the_command_path(capsys, argv, command, message):
    """An argparse rejection is one document naming the command path recognised so far."""
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    doc = json.loads(err)
    assert doc["command"] == command and doc["error"]["code"] == "bad_query"
    assert doc["error"]["message"].startswith(message)


# every command path of the CLI, the top level first
COMMAND_PATHS = [
    [], ["state"], ["measure"], ["sample"], ["battery"],
    ["qmlt"], ["qmlt", "witness"], ["qmlt", "lift"], ["qmlt", "eval"],
    ["verify"], ["verify", "kron-pairing"], ["verify", "quadratic-bounds"],
    ["verify", "corner-block"], ["verify", "family"],
]


def _subparser(parser, path):
    for name in path:
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[name]
    return parser


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=lambda p: ".".join(p) or "qmeas")
def test_help_of_each_command_path_is_that_of_the_full_parser(capsys, monkeypatch, path):
    """The parser built for one command path prints the help and usage of the full tree,
    and ``--help`` prints that help on stdout and exits 0."""
    monkeypatch.setenv("COLUMNS", "100")
    full = _subparser(build_parser(), path)
    lazy = _subparser(build_parser(path), path)
    assert lazy.format_help() == full.format_help()
    assert lazy.format_usage() == full.format_usage()
    assert run_cli(capsys, path + ["--help"]) == (0, full.format_help(), "")


def test_missing_file_is_bad_input(capsys):
    code, out, err = run_cli(capsys, ["battery", "/no/such/file.bits"])
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "io"


def test_short_battery_stream_is_bad_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0101\n"))
    code, _, err = run_cli(capsys, ["battery"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "insufficient_data"


def test_bad_seed_range_is_bad_input(capsys):
    code, _, err = run_cli(capsys, ["sample", "--bits", "8", "--seeds", "5..2"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "bad_query"


def test_general_family_violation_names_offender(capsys, tmp_path):
    h_path = tmp_path / "h.json"
    g_path = tmp_path / "g.json"
    h_path.write_text(json.dumps({"h": {"5": 2, "6": 4}}))
    g_path.write_text(json.dumps({"g": {"5": 0.5, "6": 0.01}}))
    code, _, err = run_cli(capsys, ["state", "--general", str(h_path), str(g_path)])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["code"] == "bad_family_params"
    assert "n=5" in doc["error"]["message"]


def test_general_family_reads_list_tables(capsys, tmp_path):
    paths = [tmp_path / "h.json", tmp_path / "g.json"]
    paths[0].write_text("[6, 10]")
    paths[1].write_text("[0.015, 0.0078125]")
    code, out, _ = run_cli(capsys, ["state", "--general", *map(str, paths), "--check-depth", "6"])
    assert code == 0
    blocks = payload_of(out)["report"]["state"]["blocks"]
    assert [(b["n"], b["corner_count"]) for b in blocks] == [(5, 6), (6, 10)]


def test_dense_cap_maps_to_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("QMEAS_DENSE_CAP", "4")
    code, out, err = run_cli(
        capsys, ["measure", "--path", "dense", "--tau-depth", "6"]
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["code"] == "cap_exceeded"


def test_witness_budget_exceeded_reports_requirement(capsys):
    code, _, err = run_cli(capsys, ["qmlt", "witness", "--m", "2", "--budget", "10"])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["code"] == "budget_exceeded"
    assert doc["error"]["required"] == 18


def test_flagged_aggregate_exits_one(capsys, monkeypatch):
    zeros = "0" * 2000
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([zeros] * 6) + "\n"))
    code, out, _ = run_cli(capsys, ["battery", "--aggregate"])
    assert code == 1
    doc = payload_of(out)
    assert "monobit" in doc["report"]["aggregate"]["flagged"]


def test_battery_without_aggregate_reports_only(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0" * 2000 + "\n"))
    code, out, _ = run_cli(capsys, ["battery"])
    assert code == 0
    doc = payload_of(out)
    assert doc["report"]["reports"][0]["failures"]


# ---------------------------------------------------------------------------
# payload structure and determinism


def test_measure_payload_shape_and_determinism(capsys):
    argv = ["measure", "--tau-depth", "3", "--basis", "hadamard"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = payload_of(out1)
    assert doc["command"] == "measure"
    assert doc["seed"] is None
    assert doc["config"]["basis"] == "hadamard"
    assert len(doc["config_hash"]) == 64
    assert len(doc["report"]["table"]) == 8


def test_config_hash_tracks_config(capsys):
    _, out_std, _ = run_cli(capsys, ["measure", "--tau-depth", "2"])
    _, out_had, _ = run_cli(capsys, ["measure", "--tau-depth", "2", "--basis", "hadamard"])
    assert payload_of(out_std)["config_hash"] != payload_of(out_had)["config_hash"]


def test_measure_standard_table_is_uniform(capsys):
    code, out, _ = run_cli(capsys, ["measure", "--tau-depth", "5", "--additivity"])
    assert code == 0
    report = payload_of(out)["report"]
    assert len(report["table"]) == 32
    assert all(v == pytest.approx(2.0**-5, rel=1e-12) for v in report["table"].values())
    assert report["sum"] == pytest.approx(1.0, rel=1e-12)
    assert report["additivity_max"] < 1e-12


def test_measure_single_tau_values(capsys):
    code, out, _ = run_cli(capsys, ["measure", "--tau", "000", "--tau", "01"])
    assert code == 0
    values = payload_of(out)["report"]["values"]
    assert values["000"] == pytest.approx(0.125, rel=1e-12)
    assert values["01"] == pytest.approx(0.25, rel=1e-12)


def test_measure_oracle_compare(capsys):
    code, out, _ = run_cli(
        capsys,
        ["measure", "--basis", "hadamard", "--oracle-compare", "--depth", "7"],
    )
    assert code == 0
    report = payload_of(out)["report"]
    assert report["depth"] == 7
    assert report["oracle_max_deviation"] < 1e-12


@pytest.mark.parametrize(
    "request_args",
    [["--oracle-compare", "--depth", "3"], ["--path", "factored", "--tau-depth", "3"]],
)
def test_measure_factored_path_on_a_dense_state_is_bad_query(capsys, tmp_path, request_args):
    """The factored path never falls back to the dense prefix it would be compared with."""
    path = write_dense_state(tmp_path)
    code, out, err = run_cli(capsys, ["measure", "--state", str(path)] + request_args)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "bad_query"


def test_measure_without_request_is_bad_input(capsys):
    code, _, err = run_cli(capsys, ["measure"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "bad_query"


# ---------------------------------------------------------------------------
# state


def test_state_checks_pass_for_default(capsys):
    code, out, _ = run_cli(capsys, ["state", "--check-depth", "6", "--eigen", "5"])
    assert code == 0
    report = payload_of(out)["report"]
    assert report["coherence"]["ok"] and report["density"]["ok"]
    eigen = report["eigen"]
    assert eigen["block_size"] == 5
    assert eigen["zero_multiplicity"] == 6
    kinds = {g["kind"] for g in eigen["groups"]}
    assert kinds == {"pair_plus", "pair_minus", "middle"}


def test_state_checks_reach_past_the_dense_cap(capsys):
    code, out, _ = run_cli(capsys, ["state", "--paper-rho", "--check-depth", "30"])
    assert code == 0
    report = payload_of(out)["report"]
    assert report["coherence"] == {"ok": True, "max_deviation": 0, "failed_at": None, "tol": 1e-10}
    assert report["density"] == {
        "ok": True,
        "hermitian_deviation": 0,
        "trace_deviation": 0,
        "min_eigenvalue": 0,
        "qubits": 30,
    }


def test_state_checks_on_a_factored_state_ignore_the_cap(capsys, monkeypatch):
    argv = ["state", "--paper-rho", "--check-depth", "12"]
    code, uncapped, _ = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.setenv("QMEAS_DENSE_CAP", "6")
    code, capped, _ = run_cli(capsys, argv)
    assert code == 0  # block 7 is never materialized
    assert payload_of(capped)["report"] == payload_of(uncapped)["report"]
    # a dense query under the same cap still fails loudly
    code, _, err = run_cli(capsys, ["measure", "--path", "dense", "--tau-depth", "7"])
    assert code == 3
    assert json.loads(err)["error"]["code"] == "cap_exceeded"


def write_dense_state(tmp_path):
    """A three-qubit ``dense_prefix`` state document; returns its path."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    chain = DenseStateChain.from_top(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    mats = [
        [[[z.real, z.imag] for z in row] for row in chain.prefix(k).rho.tolist()]
        for k in range(1, 4)
    ]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"kind": "dense_prefix", "matrices": mats}))
    return path


def test_state_checks_a_dense_prefix_densely(capsys, tmp_path):
    path = write_dense_state(tmp_path)
    loaded = parse_state_spec(json.loads(path.read_text()))
    for k in range(1, 4):
        code, out, _ = run_cli(capsys, ["state", "--state", str(path), "--check-depth", str(k)])
        assert code == 0
        density = payload_of(out)["report"]["density"]
        assert density == dataclasses.asdict(is_density_matrix(loaded.prefix(k).rho))


def test_state_mixed_has_no_zero_eigenvalues(capsys):
    """The mixed state's first block is I/2^5: one middle group of 32, nothing zero."""
    code, out, _ = run_cli(capsys, ["state", "--mixed", "--eigen", "5"])
    assert code == 0
    eigen = payload_of(out)["report"]["eigen"]
    assert (eigen["block_index"], eigen["zero_multiplicity"]) == (0, 0)
    assert eigen["groups"] == [{"kind": "middle", "multiplicity": 32, "value": 2.0**-5}]


def test_state_eigen_counts_exact_zeros_past_size_49(capsys):
    """The size-50 block's nonzero eigenvalues are 2^-50, about 8.9e-16: only exact zeros
    count.  At size 1,100 every eigenvalue underflows to 0.0, and still only the r exact
    zeros of the pair_minus group count."""
    for n in (50, 1100):
        code, out, _ = run_cli(capsys, ["state", "--paper-rho", "--eigen", str(n)])
        assert code == 0
        assert payload_of(out)["report"]["eigen"]["zero_multiplicity"] == (1 << n) // n


def test_state_eigen_finds_blocks_past_index_256(capsys):
    code, out, _ = run_cli(capsys, ["state", "--paper-rho", "--eigen", "300"])
    assert code == 0
    eigen = payload_of(out)["report"]["eigen"]
    assert (eigen["block_size"], eigen["block_index"]) == (300, 295)
    minus = {g["kind"]: g for g in eigen["groups"]}["pair_minus"]
    assert (minus["value"], minus["multiplicity"]) == (0, (1 << 300) // 300)


def test_state_eigen_block_size_mismatch_is_bad_query(capsys):
    for state, size in (("--mixed", "1"), ("--paper-rho", "4"), ("--mixed", "-3")):
        code, _, err = run_cli(capsys, ["state", state, "--eigen", size])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "bad_query"


# ---------------------------------------------------------------------------
# sampling and battery plumbing


def test_sample_stdout_is_bits_only(capsys):
    code, out, _ = run_cli(capsys, ["sample", "--bits", "16", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert len(lines[0]) == 16 and set(lines[0]) <= {"0", "1"}
    direct = sample_bits(
        FactoredState.witness_state(), MeasurementSystem.standard(), 16, 7
    )
    assert lines[0] == direct.bit_string()


def test_sample_seed_range_emits_one_line_each(capsys):
    code, out, _ = run_cli(capsys, ["sample", "--bits", "8", "--seeds", "3..6"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] != lines[1]  # different seeds, almost surely different bits


def test_sample_writes_deterministic_files(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    argv = ["sample", "--bits", "200", "--seed", "11", "--out-prefix", prefix]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = payload_of(out)
    entry = doc["report"]["streams"][0]
    assert entry["paths"] == [prefix + ".bits", prefix + ".json"]
    bits_text = (tmp_path / "run.bits").read_text()
    assert all(len(line) <= 64 for line in bits_text.splitlines())
    assert sum(len(line) for line in bits_text.splitlines()) == 200
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["seed"] == 11 and sidecar["n_bits"] == 200
    assert np.prod(sidecar["conditional_probs"]) == pytest.approx(
        entry["conditional_product"], rel=1e-12
    )
    first = bits_text
    run_cli(capsys, argv)
    assert (tmp_path / "run.bits").read_text() == first


def test_seed_is_null_when_a_range_chose_the_seeds(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, ["sample", "--bits", "10", "--seeds", "3..3", "--seed", "5", "--out-prefix", "o"]
    )
    doc = payload_of(out)
    assert code == 0 and doc["seed"] is None
    assert [entry["seed"] for entry in doc["report"]["streams"]] == [3]
    code, out, _ = run_cli(capsys, ["sample", "--bits", "10", "--seed", "5", "--out-prefix", "o"])
    assert payload_of(out)["seed"] == 5


def test_a_seed_range_past_2_to_the_63_is_read_lazily(capsys, tmp_path, monkeypatch):
    """``--seeds 0..10**20`` draws seed after seed, one file pair each, until the first error."""

    def two_seeds(state, system, bits, seed):
        if seed == 2:
            raise MeasureZeroPrefix("stop at seed 2")
        return sample_bits(state, system, bits, seed)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "sample_bits", two_seeds)
    code, out, err = run_cli(capsys, ["sample", "--bits", "3", "--seeds", f"0..{10**20}", "--out-prefix", "o"])
    assert (code, out, json.loads(err)["error"]["message"]) == (2, "", "stop at seed 2")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o_s0.bits", "o_s0.json", "o_s1.bits", "o_s1.json"]


def test_a_warning_is_one_stderr_line_naming_no_file(capsys, tmp_path):
    """From a cold start, the subnormal block's warning is one line without the path of ``cli.py``;
    ``main`` restores the warning format when it returns, so library calls keep Python's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["sample", "--bits", "579000", "--out-prefix", "deep"]
    out = subprocess.run(
        [sys.executable, "-m", "qmeas.cli", *argv], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert out.returncode == 0
    (line,) = out.stderr.splitlines()
    assert line.startswith("NumericHealthWarning: block 1018 (n=1023, offset 522743) has subnormal measure")
    library_format = warnings.formatwarning
    assert run_cli(capsys, ["sample", "--bits", "8"])[0] == 0
    assert warnings.formatwarning is library_format


def test_sample_pipes_into_battery(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["sample", "--bits", "1200", "--seeds", "0..2", "--basis", "hadamard"]
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, ["battery", "--aggregate"])
    doc = payload_of(out)
    assert doc["report"]["aggregate"]["n_streams"] == 3
    assert [r["n_bits"] for r in doc["report"]["reports"]] == [1200, 1200, 1200]


def test_battery_reads_files_with_whitespace(capsys, tmp_path):
    rng = np.random.default_rng(4)
    bits = "".join("1" if b else "0" for b in rng.random(1536) < 0.5)
    chunked = "\n".join(bits[i : i + 64] for i in range(0, len(bits), 64))
    path = tmp_path / "stream.bits"
    path.write_text(chunked + "\n")
    code, out, _ = run_cli(capsys, ["battery", str(path)])
    assert code == 0
    report = payload_of(out)["report"]["reports"][0]
    assert report["n_bits"] == 1536
    assert report["stream_id"] == str(path)


# ---------------------------------------------------------------------------
# qmlt subcommands


def test_qmlt_witness_level_one(capsys):
    code, out, _ = run_cli(capsys, ["qmlt", "witness", "--m", "1"])
    assert code == 0
    report = payload_of(out)["report"]
    assert report["n_blocks"] == 9
    assert report["depth"] == 35
    assert report["rank"] == 15775119360
    assert report["tau"] == pytest.approx(0.4591163992881775, rel=1e-12)
    assert report["tau"] < 0.5
    assert report["evaluation"] == pytest.approx(1.0, abs=1e-12)
    assert report["failure"]["fails_at_order"]


def test_qmlt_witness_delta_below_evaluation_still_fails(capsys):
    code, out, _ = run_cli(capsys, ["qmlt", "witness", "--m", "1", "--delta", "0.9"])
    assert code == 0
    failure = payload_of(out)["report"]["failure"]
    assert failure["fails_at_order"]
    assert failure["min_value"] > 0.9


def test_qmlt_eval_mixed_state_passes_at_half(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qmlt", "eval", "--witness", "2", "--state", "mixed", "--delta", "0.5"],
    )
    assert code == 0
    failure = payload_of(out)["report"]["failure"]
    assert not failure["fails_at_order"]
    values = {e["level"]: e["value"] for e in failure["entries"]}
    assert values[2] < 0.5 < values[1] + 0.05  # level-1 tau is just under 1/2


def test_qmlt_eval_mixed_state_mass_is_tau_bit_for_bit(capsys):
    """I/2^n meets every span in its rank density, the very float tau prints."""
    code, out, _ = run_cli(
        capsys, ["qmlt", "eval", "--witness", "5", "--state", "mixed", "--budget", "2000"]
    )
    assert code == 0
    entries = payload_of(out)["report"]["failure"]["entries"]
    assert [e["level"] for e in entries] == [1, 2, 3, 4, 5]
    assert all(e["value"] == e["tau"] for e in entries)


def test_qmlt_lift_document(capsys, tmp_path):
    doc = {"levels": {"1": {"2": ["00", "01"]}}}
    path = tmp_path / "mlt.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, ["qmlt", "lift", "--mlt", str(path), "--state", "paper-rho"]
    )
    assert code == 0
    stage = payload_of(out)["report"]["levels"]["1"]["2"]
    assert stage["rank"] == 2
    assert stage["tau"] == 0.5
    assert stage["classical_measure"] == 0.5
    assert stage["evaluation"] == pytest.approx(0.5, rel=1e-12)


def test_qmlt_lift_empty_level_is_all_zero(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"levels": {"1": {}}}))
    code, out, _ = run_cli(
        capsys, ["qmlt", "lift", "--mlt", str(path), "--state", "paper-rho"]
    )
    assert code == 0
    report = payload_of(out)["report"]
    stage = report["levels"]["1"]["1"]
    assert stage["rank"] == 0
    assert stage["tau"] == 0.0
    assert stage["classical_measure"] == 0.0
    assert stage["evaluation"] == 0.0
    assert not report["failure"]["fails_at_order"]


def test_qmlt_lift_rejects_oversized_level(capsys, tmp_path):
    path = tmp_path / "fat.json"
    path.write_text(json.dumps({"levels": {"1": {"1": ["0", "1"]}}}))
    code, _, err = run_cli(capsys, ["qmlt", "lift", "--mlt", str(path)])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "bad_spec"


def test_qmlt_eval_accepts_lifted_alias(capsys, tmp_path):
    path = tmp_path / "mlt.json"
    path.write_text(json.dumps({"levels": {"2": {"3": ["000", "100"]}}}))
    code, out, _ = run_cli(
        capsys, ["qmlt", "eval", "--lifted", str(path), "--state", "mixed"]
    )
    assert code == 0
    entry = payload_of(out)["report"]["failure"]["entries"][0]
    assert entry["tau"] == 0.25
    assert entry["value"] == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("subcommand", ["lift", "eval"])
@pytest.mark.parametrize(
    "levels",
    [
        {"x": {"2": ["00"]}},
        {"1.5": {"2": ["00"]}},
        {"1": {"2": [0, 1]}},
        {"1": {"2": ["00", "01"]}, "01": {"2": ["11"]}},
        {"1": {"2": ["00", "01"], "02": ["11"]}},
    ],
    ids=["word-level", "fractional-level", "integer-prefixes", "duplicate-level", "duplicate-depth"],
)
def test_qmlt_malformed_mlt_document_is_bad_spec(capsys, tmp_path, subcommand, levels):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"levels": levels}))
    code, out, err = run_cli(
        capsys, ["qmlt", subcommand, "--mlt", str(path), "--state", "mixed"]
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "bad_spec"


# ---------------------------------------------------------------------------
# verify subcommands


def test_verify_kron_pairing_cli(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "kron-pairing", "--n", "6", "--trials", "50"]
    )
    assert code == 0
    report = payload_of(out)["report"]
    assert report["passed"]
    assert report["lemma_id"] == "kron_pairing"


def test_verify_quadratic_bounds_cli(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "quadratic-bounds", "--n", "6", "--trials", "500"]
    )
    assert code == 0
    assert payload_of(out)["report"]["passed"]


def test_verify_corner_block_cli(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "corner-block", "--n", "6", "--trials", "200"]
    )
    assert code == 0
    assert payload_of(out)["report"]["passed"]


@pytest.mark.parametrize(
    "check, library",
    [
        ("kron-pairing", verify_kron_pairing),
        ("quadratic-bounds", verify_quadratic_bounds),
        ("corner-block", verify_corner_block_bound),
    ],
)
def test_lemma_checks_share_one_default_trial_count(capsys, check, library):
    code, out, _ = run_cli(capsys, ["verify", check, "--n", "6"])
    assert code == 0
    assert payload_of(out)["report"]["trials"] == DEFAULT_TRIALS == 1000
    assert inspect.signature(library).parameters["trials"].default == DEFAULT_TRIALS


@pytest.mark.parametrize("check", ["kron-pairing", "quadratic-bounds", "corner-block"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_without_trials_is_bad_input(capsys, check, trials):
    code, out, err = run_cli(capsys, ["verify", check, "--n", "6", "--trials", trials])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "bad_query",
        "message": f"need at least one trial, got {trials}",
    }


def test_verify_family_canonical_cli(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a dense block was built")

    monkeypatch.setattr(DensityBlock, "to_dense", refuse)
    code, out, _ = run_cli(capsys, ["verify", "family", "--canonical", "12"])
    assert code == 0
    report = payload_of(out)["report"]
    assert report["passed"]
    assert report["parameters"]["kept_mass_product"] == 1.0


def test_verify_family_from_document(capsys, tmp_path):
    spec = {
        "h": {"5": 2, "6": 4},
        "g": {"5": 2.0**-5, "6": 2.0**-6},
        "n_max": 6,
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, ["verify", "family", "--spec", str(path)])
    assert code == 0
    assert payload_of(out)["report"]["passed"]


def test_verify_family_canonical_runs_past_float_corner_counts(capsys):
    # r = floor(2^n / n) passes the float range at n = 1,035
    code, out, _ = run_cli(capsys, ["verify", "family", "--canonical", "1100"])
    assert code == 0
    report = payload_of(out)["report"]
    assert report["passed"]
    assert report["parameters"]["n_max"] == 1100


FAMILY = '{"h": {"5": 2}, "g": {"5": 0.01}'
ROTATION_OF = '{{"kind": "rotation", "theta": [{}]}}'.format
EXPLICIT_OF = '{{"kind": "explicit", "pairs": [[[[{}, 0], [0, 0]], [[0, 0], [1, 0]]]]}}'.format
GENERAL_OF = '{{"kind": "general", "h": {{"5": {}}}, "g": {{"5": {}}}}}'.format
BITS = "01" * 600 + "\n"
DENSE_TABLE = ["measure", "--tau-depth", "3", "--path", "dense"]


BAD_INPUTS = [
    (["verify", "family", "--canonical", "4"], None, 2, "bad_query"),
    (["verify", "family", "--spec"], FAMILY + ', "target_delta": "x"}', 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_delta": [1]}', 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_F": "x"}', 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_F": [1]}', 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_delta": NaN}', 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_F": NaN}', 2, "bad_spec"),
    (["measure", "--tau-depth", "40"], None, 3, "cap_exceeded"),
    (["measure", "--tau", "0", "--basis"], ROTATION_OF('"a"'), 2, "bad_spec"),
    (["measure", "--tau", "0", "--basis"], ROTATION_OF("Infinity"), 2, "bad_spec"),
    (["measure", "--tau", "0", "--basis"], ROTATION_OF("1e400"), 2, "bad_spec"),
    (["measure", "--tau", "0", "--basis"], ROTATION_OF("NaN"), 2, "bad_spec"),
    (["measure", "--tau", "00000", "--basis"], EXPLICIT_OF("NaN"), 2, "bad_spec"),
    (["measure", "--tau", "00000", "--basis"], EXPLICIT_OF("1" + "0" * 400), 2, "bad_spec"),
    (["battery"], "0101\u00e90101\n", 2, "insufficient_data"),
    (["battery", "-"], "0101\u00e90101\n", 2, "insufficient_data"),
    (["battery", "-"], b"0101\xff0101\n", 2, "insufficient_data"),
    (["battery", "--alpha", "inf", "--aggregate"], BITS, 2, "bad_query"),
    (["battery", "--alpha", "nan", "--aggregate"], BITS, 2, "bad_query"),
    (["battery", "--alpha", "-1"], BITS, 2, "bad_query"),
    (["battery", "--alpha", "2"], BITS, 2, "bad_query"),
    (["battery", "--alpha", "2", "-"], "", 2, "bad_query"),
    (["battery", "--alpha", "nan", "--aggregate", "-"], "", 2, "bad_query"),
    (["battery", "--alpha", "inf", "-"], "", 2, "bad_query"),
    (["measure", "--tau", "0", "--basis"], ROTATION_OF("1" * 5000), 2, "bad_spec"),
    (["measure", "--tau", "0", "--basis"], b"\xff", 2, "bad_spec"),
    (["measure", "--tau", "0", "--basis"], ROTATION_OF('"0.3"'), 2, "bad_spec"),
    (["measure", "--tau", "00000", "--basis"], EXPLICIT_OF("true"), 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_delta": true}', 2, "bad_spec"),
    (["verify", "family", "--spec"], FAMILY + ', "target_F": "0.25"}', 2, "bad_spec"),
    (["state", "--check-depth", "5", "--state"], GENERAL_OF(6.9, 0.03125), 2, "bad_spec"),
    (["state", "--check-depth", "5", "--state"], GENERAL_OF(6, '"0.01"'), 2, "bad_spec"),
    (DENSE_TABLE, {"QMEAS_DENSE_CAP": "x"}, 2, "bad_spec"),
    (DENSE_TABLE, {"QMEAS_DENSE_CAP": "0"}, 2, "bad_spec"),
    (["sample", "--seed", "-1", "--bits", "10"], None, 2, "bad_query"),
    (["sample", "--seeds=-2..-1", "--bits", "10"], None, 2, "bad_query"),
    (["verify", "kron-pairing", "--seed", "-1"], None, 2, "bad_query"),
    (["verify", "quadratic-bounds", "--seed", "-1"], None, 2, "bad_query"),
    (["verify", "corner-block", "--seed", "-1"], None, 2, "bad_query"),
    (["verify", "quadratic-bounds", "--n", "1100", "--trials", "1"], None, 2, "bad_query"),
    (["verify", "corner-block", "--n", "1023", "--trials", "1"], None, 2, "bad_query"),
    (["sample", "--bits", "x"], None, 2, "bad_query"),
    (["sample"], None, 2, "bad_query"),
    (["frobnicate"], None, 2, "bad_query"),
    (["verify"], None, 2, "bad_query"),
    (["measure", "--path", "zzz"], None, 2, "bad_query"),
]
BAD_INPUT_IDS = [
    "canonical-4",
    "target-delta-text",
    "target-delta-list",
    "target-F-text",
    "target-F-list",
    "target-delta-nan",
    "target-F-nan",
    "tau-depth-40",
    "rotation-text",
    "rotation-infinity",
    "rotation-1e400",
    "rotation-nan",
    "explicit-nan",
    "explicit-int-past-float",
    "battery-file-non-ascii",
    "battery-stdin-non-ascii",
    "battery-stdin-not-utf8",
    "alpha-inf",
    "alpha-nan",
    "alpha-negative",
    "alpha-above-one",
    "alpha-above-one-no-stream",
    "alpha-nan-no-stream-aggregate",
    "alpha-inf-no-stream",
    "int-past-digit-limit",
    "document-not-utf8",
    "rotation-numeric-text",
    "explicit-boolean",
    "target-delta-boolean",
    "target-F-numeric-text",
    "general-h-fractional",
    "general-g-numeric-text",
    "dense-cap-text",
    "dense-cap-zero",
    "sample-seed-negative",
    "sample-seeds-negative",
    "kron-pairing-seed-negative",
    "quadratic-bounds-seed-negative",
    "corner-block-seed-negative",
    "quadratic-bounds-n-1100",
    "corner-block-n-1023",
    "argparse-bits-not-int",
    "argparse-bits-missing",
    "argparse-unknown-command",
    "argparse-verify-no-subcommand",
    "argparse-path-invalid-choice",
]


@pytest.mark.parametrize("argv, document, exit_code, error_code", BAD_INPUTS, ids=BAD_INPUT_IDS)
def test_bad_input_ends_in_one_error_document(
    capsys, monkeypatch, tmp_path, argv, document, exit_code, error_code
):
    """``document`` is an input file's text or bytes, stdin after "-", or environment variables."""
    if isinstance(document, dict):
        for name, value in document.items():
            monkeypatch.setenv(name, value)
    elif argv[-1] == "-":  # decoded strictly, as stdin is in a UTF-8 locale
        raw = document if isinstance(document, bytes) else document.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    elif document is not None:
        path = tmp_path / "input.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(document, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (exit_code, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == error_code


# the JSON keys each plain report writes: its dataclass fields
REPORT_KEYS = {
    "CoherenceReport": {"ok", "max_deviation", "failed_at", "tol"},
    "DensityCheck": {"ok", "hermitian_deviation", "trace_deviation", "min_eigenvalue", "qubits"},
    "DensityBlock": {"n", "corner_count", "corner_ratio"},
    "TestResult": {"name", "statistic", "p_value", "passed", "detail"},
    "BatteryReport": {"stream_id", "n_bits", "alpha", "results", "compression_ratio", "failures"},
    "LevelEvaluation": {"level", "depth", "rank", "tau", "value"},
    "FailureReport": {"delta", "entries", "min_value", "fails_at_order", "note"},
    "LemmaReport": {"lemma_id", "trials", "worst_margin", "slack", "passed", "parameters"},
    "AggregateSummary": {"n_streams", "alpha", "per_test", "envelope", "flagged"},
}


def test_plain_reports_serialize_as_their_fields():
    state = FactoredState.witness_state()
    failure = failure_report(build_witness_mlt([1, 2]), state, delta=0.0)
    system = MeasurementSystem.standard()
    batteries = [run_battery(sample_bits(state, system, 2000, seed).bits) for seed in range(3)]
    reports = [
        check_coherence(state, 8),
        check_density(state, 8),
        state.block(0),
        batteries[0],
        *batteries[0].results,
        is_density_matrix(state.prefix(5).rho),
        failure,
        *failure.entries,
        verify_kron_pairing(n=4, trials=50, seed=9),
        aggregate(batteries),
    ]
    assert {type(r).__name__ for r in reports} == set(REPORT_KEYS)
    for report in reports:
        doc = json.loads(canonical_dumps(report))
        assert set(doc) == REPORT_KEYS[type(report).__name__]
        assert doc == json.loads(canonical_dumps(dataclasses.asdict(report)))
    entries = json.loads(canonical_dumps(failure))["entries"]
    assert [set(e) for e in entries] == [REPORT_KEYS["LevelEvaluation"]] * 2
    results = json.loads(canonical_dumps(batteries[0]))["results"]
    assert [set(r) for r in results] == [REPORT_KEYS["TestResult"]] * len(results)
    assert results[0]["name"] == "monobit" and results[0]["detail"] == {}
