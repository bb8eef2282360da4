"""Pinned bytes of CLI invocations whose payloads involve no BLAS call.

Factored tables, lifted evaluations on the factored state, the witness
report and the state checks on factored states are built from closed forms
and exact sums, so their bytes are fixed across machines and across rewrites
of the arithmetic behind them.  Each digest is the SHA-256 of the full
stdout, payload config and hash included.
The sampler's output files are pinned the same way.  Input files are
written into a temporary working directory and named by relative path, so
the recorded config (and its hash) does not depend on where the test runs.
"""

import hashlib
import json
import random

import pytest

from qmeas.cli import main
from qmeas.measurement import MeasurementSystem

ROTATION = {"kind": "rotation", "theta": [0.41, 0.93, 1.17, 0.62, 0.85]}


def _lift_mlt() -> dict:
    rng = random.Random(20240817)
    prefixes = sorted({format(x, "010b") for x in rng.sample(range(1 << 10), 512)})
    return {"levels": {"1": {"10": prefixes}}}


INPUTS = {
    "rot.json": ROTATION,
    "gen.json": _lift_mlt(),
    "empty_stage.json": {"levels": {"1": {"2": []}}},
    "empty_level.json": {"levels": {"1": {}}},
}

PINNED = {
    "factored14": (
        ["measure", "--basis", "hadamard", "--tau-depth", "14", "--path", "factored"],
        "e72704fe548453053f02c743b9f6ec516e324463228164c76fd095a8dd4291b5",
    ),
    "rotation10": (
        ["measure", "--basis", "rot.json", "--tau-depth", "10", "--additivity"],
        "222e5c1c383e621d5e9425a4a09455b6fc0adc87e592912bba3b899487e8829f",
    ),
    "lift": (
        ["qmlt", "lift", "--mlt", "gen.json", "--basis", "hadamard", "--state", "paper-rho"],
        "86426f52da1d36d5401e5f58dfc7c7891925fc9d58185ca9cf36d02aa2788f48",
    ),
    "lift_mixed": (
        ["qmlt", "lift", "--mlt", "gen.json", "--basis", "hadamard", "--state", "mixed"],
        "5936c7b841fd08d758b4d63f18cc11e042288df06af3716b2cad57e03750b87e",
    ),
    "lift_empty_stage": (
        ["qmlt", "lift", "--mlt", "empty_stage.json", "--state", "paper-rho"],
        "b32f462ee3b2d2c3a85e67737bc62e97b62bec74e68cec79a8bd78ab22f64126",
    ),
    "lift_empty_level": (
        ["qmlt", "lift", "--mlt", "empty_level.json", "--state", "paper-rho"],
        "cd646d390614db1fd38a72ab9b074ba7a26b1dbea59c3222bc7e025344d24313",
    ),
    "eval_mixed": (
        ["qmlt", "eval", "--mlt", "gen.json", "--basis", "hadamard", "--state", "mixed"],
        "4012cdc0fddeae7c083ac31fd6baba9e4a22491afcd40590dd5be571fda292d4",
    ),
    "state11": (
        ["state", "--paper-rho", "--check-depth", "11", "--eigen", "5"],
        "b103c63f19f9f858aed2f3ae7b9a6f4e3b8d1b3e27dad698ba692d7bebd01b92",
    ),
    "state8": (
        ["state", "--paper-rho", "--check-depth", "8", "--eigen", "5"],
        "4aa52bcb8c762780852ae83db81e3ad3f11c61dc7104847daee14f1dd9c1a867",
    ),
    "state11_mixed": (
        ["state", "--mixed", "--check-depth", "11"],
        "a03a848a435a25e406c550d4e28b00b440bc72a8566e4469fec7c6510c8cb89e",
    ),
    "witness3": (["qmlt", "witness", "--m", "3"], "feb62b209f6b9fa7a4b01f4c238cf420455862edf60f8acbf78e1abe9a137d88"),
    "witness3_mixed": (
        ["qmlt", "eval", "--witness", "3", "--state", "mixed"],
        "f3af315bb34b529648af2a70e1e7b695e5d8cec1b8e6a218f2f6ff6be3144531",
    ),
    "family30": (
        ["verify", "family", "--canonical", "30"],
        "6292b86e57422c4582650e8c471419bedc7817bf5dba48fad582fad6d07d7880",
    ),
}


def stdout_digest(argv, capsys, tmp_path, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)
    for filename, doc in INPUTS.items():
        (tmp_path / filename).write_text(json.dumps(doc), encoding="ascii")
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stdout_bytes_are_pinned(name, capsys, tmp_path, monkeypatch):
    argv, digest = PINNED[name]
    assert stdout_digest(argv, capsys, tmp_path, monkeypatch) == digest


def test_lift_on_the_factored_state_builds_no_product_vector(capsys, tmp_path, monkeypatch):
    def refuse(self, bits, offset=0):
        raise AssertionError("a dense product vector was built")

    monkeypatch.setattr(MeasurementSystem, "product_vector", refuse)
    argv, digest = PINNED["lift"]
    assert stdout_digest(argv, capsys, tmp_path, monkeypatch) == digest


# SHA-256 of the .bits and .json files of ``sample --bits 100000 --out-prefix s``
SAMPLE_FILES = {
    "hadamard": (
        "8c3b85c72d49d489c0af6e3ac05e86cb2a39f5d61797101b87bb854f5352ba43",
        "abb292c8c94d5a5bd27dbf232c43c157072a29ea793deb7df121d8ca692a7795",
    ),
    "standard": (
        "48d4e883894a8171221f72b6a21f672548df62d8f7947a9168084993bcbdfb86",
        "075e172865959b48051afd5db88f9c1a3b24664d115174a0bac810bc974e2a40",
    ),
    "rot.json": (
        "54b007c415d54c514e752566e104678a4b9144f742ac1341022c7c8f0c83ad5b",
        "494dda1efe7c2ab77ede0878e2e71f465229517a1509334fe007628fb28b5d2b",
    ),
}


@pytest.mark.parametrize("basis", sorted(SAMPLE_FILES))
def test_sample_files_are_pinned(basis, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rot.json").write_text(json.dumps(ROTATION), encoding="ascii")
    assert main(["sample", "--bits", "100000", "--basis", basis, "--out-prefix", "s"]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("s.bits", "s.json")
    )
    assert digests == SAMPLE_FILES[basis]


def test_depth_zero_table_has_the_empty_key(capsys):
    assert main(["measure", "--tau-depth", "0"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["table"] == {"": 1.0}


# SHA-256 of the stdout of ``battery`` over the three pinned sample files above
BATTERY_DIGEST = "a3941e530fc69de8480af15fe5cf04dde19879b7ee0ed31c2f7de69c2f6d1c01"


def test_battery_over_the_pinned_samples_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rot.json").write_text(json.dumps(ROTATION), encoding="ascii")
    prefixes = {"hadamard": "h", "standard": "s", "rot.json": "r"}
    for basis, prefix in prefixes.items():
        assert main(["sample", "--bits", "100000", "--basis", basis, "--out-prefix", prefix]) == 0
    capsys.readouterr()
    files = [f"{prefix}.bits" for prefix in prefixes.values()]
    assert stdout_digest(["battery", *files, "--aggregate"], capsys, tmp_path, monkeypatch) == BATTERY_DIGEST
