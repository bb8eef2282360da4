"""The CLI byte corpus, the tests' one record of the bytes CLI calls print and
write: every README cookbook call, every bad-input row of ``test_cli.py``,
every call of the reach probe's matrix and the groups named below.

``corpus.json`` holds the fingerprint of the machine that wrote it (Python,
numpy and ``platform.machine()``) and one list of entries per group.  A
group's calls run in order in one fresh directory that holds the group's
documents, so a call may read what an earlier one wrote.  An entry holds the
call's argv, the documents only it reads (a file, stdin or environment
variables) and SHA-256 digests of its stdout, of its stderr, of its exit code
and of every file it writes or changes.  Stderr has the directory's path
replaced by ``<dir>``, and the warnings the call raised follow it, one line
each, as the CLI prints them.  The ``cut_block`` group holds calls whose
strings, tables and checks end inside a block, the ``tables`` group whole
premeasure tables up to depth 16 and the dense lemma cross-checks, the
``help`` group the help of the top level and of a command group, at 100
columns, the ``pinned`` group the calls whose stdout and files the tests
once pinned by hand, the ``sampler`` group the witness state's samples on a
grid of lengths up to the first of measure zero, in each real basis, and at
every length through block 17, and the ``options`` group one call for each
option that no other group passes.

An entry whose bytes pass through BLAS or LAPACK, or through numpy's complex
multiply, which may fuse its multiplies and adds, names why in
``machine_dependent``: a replay compares it only on a machine with the
corpus's fingerprint.

Regenerate the corpus, after a change meant to move bytes, with

    PYTHONPATH=src python tests/corpus.py

It prints the group and id of each entry whose digests moved, and of each
entry added or removed; name each, with its reason, in the change's notes.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import platform
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from qmeas.cli import main
from qmeas.config import DENSE_CAP_ENV
from qmeas.measurement import MeasurementSystem

import test_cli
import test_reach
import test_sampler
from test_readme import cookbook_documents, run_cookbook

CORPUS = Path(__file__).resolve().parent / "corpus.json"
LEMMAS = ("kron-pairing", "quadratic-bounds", "corner-block")


def fingerprint() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="ascii"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _portable(document):
    """A document as JSON holds it: text, or bytes that are not UTF-8 as hex.

    Past 4 KiB (a cookbook pipe's stdin, the stdout of the call before) only its digest.
    """
    if isinstance(document, (bytes, str)) and len(document) > 4096:
        return {"sha256": _sha256(document if isinstance(document, bytes) else document.encode("utf-8"))}
    if isinstance(document, bytes):
        try:
            return document.decode("utf-8")
        except UnicodeDecodeError:
            return {"hex": document.hex()}
    return document


def _stats() -> dict[str, tuple[int, int]]:
    """(mtime, size) of every file under the working directory, by relative path."""
    return {str(p): (p.stat().st_mtime_ns, p.stat().st_size) for p in Path().rglob("*") if p.is_file()}


def _named(argv, option, documents) -> dict:
    """The parsed group document an option of argv names, or {}."""
    if option not in argv[:-1]:
        return {}
    text = documents.get(argv[argv.index(option) + 1])
    return json.loads(text) if isinstance(text, str) else {}


def machine_dependence(argv, documents, code) -> str | None:
    """Why a call's bytes may differ between machines, or None; an error document's never do."""
    if code not in (0, 1):
        return None
    basis, state = _named(argv, "--basis", documents), _named(argv, "--state", documents)
    if basis.get("kind") == "explicit" and np.any(np.array(basis["pairs"], dtype=float)[..., 1]):
        return "a complex basis: numpy's complex multiply"
    if "--help" in argv:
        return "argparse's help text: the Python version"
    if argv[0] == "verify" and argv[1] in LEMMAS:
        return "a lemma check: random complex product vectors through numpy's complex multiply"
    if state.get("kind") == "dense_prefix" and argv[0] == "state" and "--check-depth" in argv:
        return "a dense_prefix state check: eigvalsh (LAPACK)"
    return None


@contextlib.contextmanager
def _inputs(stdin: bytes, env: dict):
    """sys.stdin reads ``stdin`` strictly as UTF-8, and the environment holds ``env`` and no dense cap."""
    names = {DENSE_CAP_ENV, *env}
    saved = sys.stdin, {name: os.environ.get(name) for name in names}
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    for name in names:
        os.environ.pop(name, None)
    os.environ.update(env)
    try:
        yield
    finally:
        sys.stdin = saved[0]
        for name, value in saved[1].items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def record_call(argv, group_documents, stdin=b"", env=None, documents=None) -> tuple[dict, int, str]:
    """Run ``main(argv)`` in the working directory; return its entry, exit code and stdout.

    ``documents`` are files only this call reads, written first; the entry
    lists them, and ``stdin`` and ``env`` when given.
    """
    env = env or {}
    for name, document in (documents or {}).items():
        Path(name).write_bytes(document if isinstance(document, bytes) else document.encode("utf-8"))
    before = _stats()
    out, err = io.StringIO(), io.StringIO()
    with _inputs(stdin, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    stderr = err.getvalue().replace(os.getcwd(), "<dir>")
    stderr += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    after = _stats()
    written = sorted(name for name, stat in after.items() if before.get(name) != stat)
    entry = {"id": shlex.join(argv), "argv": argv}
    for key, value in (("documents", documents), ("stdin", stdin), ("env", env)):
        if value:
            entry[key] = {k: _portable(v) for k, v in value.items()} if isinstance(value, dict) else _portable(value)
    reason = machine_dependence(argv, {**group_documents, **(documents or {})}, code)
    if reason:
        entry["machine_dependent"] = reason
    entry["digests"] = {
        "stdout": _sha256(out.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.encode("utf-8")),
        "exit": _sha256(str(code).encode("ascii")),
        "files": {name: _sha256(Path(name).read_bytes()) for name in written},
    }
    return entry, code, out.getvalue()


def _cookbook() -> tuple[dict, list[dict]]:
    documents, entries = cookbook_documents(), []

    def call(argv, stdin):
        entry, code, out = record_call(argv, documents, b"" if stdin is None else stdin.encode("utf-8"))
        entries.append(entry)
        return code, out

    run_cookbook(call)
    return documents, entries


def _bad_inputs() -> tuple[dict, list[dict]]:
    entries = []
    for (argv, document, _, _), name in zip(test_cli.BAD_INPUTS, test_cli.BAD_INPUT_IDS):
        if isinstance(document, dict):
            entry = record_call(argv, {}, env=document)[0]
        elif argv[-1] == "-":
            entry = record_call(argv, {}, document if isinstance(document, bytes) else document.encode("utf-8"))[0]
        elif document is not None:
            entry = record_call(argv + ["input.json"], {}, documents={"input.json": document})[0]
        else:
            entry = record_call(argv, {})[0]
        entry["id"] = name
        entries.append(entry)
    return {}, entries


def _matrix() -> tuple[dict, list[dict]]:
    documents = {name: json.dumps(doc) for name, doc in test_reach.DOCUMENTS.items()}
    for name, text in documents.items():
        Path(name).write_text(text, encoding="ascii")
    Path("out").mkdir()
    return documents, [record_call(argv, documents)[0] for argv in test_reach.invocations()]


def cut_block_invocations() -> list[list[str]]:
    """Calls that end inside a block: a string, a table, an oracle comparison and a state check.

    The mixed state's product underflows at block 40 (n=45, offset 980):
    1,024 zeros cut it after 44 qubits, and 1,030 complete it.  On paper-rho,
    depth 12 is blocks 5 and 6 and one qubit of block 7, and 2,000 bits cut
    block 63 after 57 qubits.
    """
    bits = "".join(map(str, np.random.default_rng(3).integers(0, 2, size=2000).tolist()))
    runs = [["measure", "--state", "mixed", "--tau", "0" * length] for length in (1024, 1030)]
    runs += [
        ["measure", "--basis", "hadamard", "--tau-depth", "12"],
        ["measure", "--basis", "hadamard", "--oracle-compare", "--depth", "12"],
        ["state", "--paper-rho", "--check-depth", "12"],
    ]
    runs += [["measure", "--basis", basis, "--tau", bits] for basis in ("hadamard", "complex.json")]
    return runs


def _cut_blocks() -> tuple[dict, list[dict]]:
    documents = {"complex.json": json.dumps(test_reach.DOCUMENTS["complex.json"])}
    Path("complex.json").write_text(documents["complex.json"], encoding="ascii")
    return documents, [record_call(argv, documents)[0] for argv in cut_block_invocations()]


def table_invocations() -> list[list[str]]:
    """Whole tables, factored, rotated, corner-free and dense, and the lemma checks' dense oracles.

    ``dense.json`` here is the depth-8 Kronecker chain of the reach probe's qubit.
    """
    runs = [["measure", "--basis", "hadamard", "--tau-depth", str(depth), "--path", "factored"] for depth in (0, 1, 14, 16)]
    runs += [
        ["measure", "--basis", "rot.json", "--tau-depth", "10", "--additivity"],
        ["measure", "--state", "mixed", "--tau-depth", "8"],
        ["measure", "--state", "dense.json", "--path", "dense", "--tau-depth", "8"],
    ]
    runs += [["verify", "quadratic-bounds", "--n", str(n), "--seed", "7"] for n in (5, 8, 10)]
    runs += [["verify", "kron-pairing", "--n", str(n), "--seed", "7"] for n in (10, 12)]
    return runs


def _tables() -> tuple[dict, list[dict]]:
    documents = {"rot.json": json.dumps(test_reach.DOCUMENTS["rot.json"])}
    Path("rot.json").write_text(documents["rot.json"], encoding="ascii")
    dense = {"dense.json": json.dumps(test_reach._dense_chain(8))}
    return documents, [
        record_call(argv, documents, documents=dense if "dense.json" in argv else None)[0]
        for argv in table_invocations()
    ]


def _help() -> tuple[dict, list[dict]]:
    return {}, [record_call(argv, {}, env={"COLUMNS": "100"})[0] for argv in (["--help"], ["verify", "--help"])]


ROTATION = {"kind": "rotation", "theta": [0.41, 0.93, 1.17, 0.62, 0.85]}


def _lift_mlt() -> dict:
    rng = random.Random(20240817)
    prefixes = sorted({format(x, "010b") for x in rng.sample(range(1 << 10), 512)})
    return {"levels": {"1": {"10": prefixes}}}


# stdout calls of lifts, evaluations, witness reports, state checks and tables, by name
PINNED_CALLS = {
    "factored14": ["measure", "--basis", "hadamard", "--tau-depth", "14", "--path", "factored"],
    "rotation10": ["measure", "--basis", "rot.json", "--tau-depth", "10", "--additivity"],
    "lift": ["qmlt", "lift", "--mlt", "gen.json", "--basis", "hadamard", "--state", "paper-rho"],
    "lift_mixed": ["qmlt", "lift", "--mlt", "gen.json", "--basis", "hadamard", "--state", "mixed"],
    "lift_empty_stage": ["qmlt", "lift", "--mlt", "empty_stage.json", "--state", "paper-rho"],
    "lift_empty_level": ["qmlt", "lift", "--mlt", "empty_level.json", "--state", "paper-rho"],
    "eval_mixed": ["qmlt", "eval", "--mlt", "gen.json", "--basis", "hadamard", "--state", "mixed"],
    "state11": ["state", "--paper-rho", "--check-depth", "11", "--eigen", "5"],
    "state8": ["state", "--paper-rho", "--check-depth", "8", "--eigen", "5"],
    "state11_mixed": ["state", "--mixed", "--check-depth", "11"],
    "witness3": ["qmlt", "witness", "--m", "3"],
    "witness3_mixed": ["qmlt", "eval", "--witness", "3", "--state", "mixed"],
    "family30": ["verify", "family", "--canonical", "30"],
}

# the dense tables of rho_11, contracted from its entries
DENSE_TABLE_RUNS = {
    "oracle-compare": ["measure", "--state", "paper-rho", "--basis", "hadamard", "--oracle-compare", "--depth", "11"],
    "path-dense": [
        "measure", "--state", "paper-rho", "--basis", "hadamard", "--path", "dense", "--tau-depth", "11", "--additivity",
    ],
}


def pinned_invocations() -> list[list[str]]:
    """``PINNED_CALLS``; 100,000-bit samples in three bases, each written to s.*, then to h.*
    and r.* as well, and the battery over h, s and r; then ``DENSE_TABLE_RUNS``."""
    sample = ["sample", "--bits", "100000", "--basis"]
    runs = list(PINNED_CALLS.values())
    runs += [sample + [basis, "--out-prefix", "s"] for basis in ("hadamard", "rot.json", "standard")]
    runs += [sample + ["hadamard", "--out-prefix", "h"], sample + ["rot.json", "--out-prefix", "r"]]
    runs.append(["battery", "h.bits", "s.bits", "r.bits", "--aggregate"])
    return runs + list(DENSE_TABLE_RUNS.values())


def _pinned(argvs=None) -> tuple[dict, list[dict]]:
    """``argvs`` (default ``pinned_invocations()``) run in order."""
    documents = {
        "rot.json": json.dumps(ROTATION),
        "gen.json": json.dumps(_lift_mlt()),
        "empty_stage.json": json.dumps({"levels": {"1": {"2": []}}}),
        "empty_level.json": json.dumps({"levels": {"1": {}}}),
    }
    for name, text in documents.items():
        Path(name).write_text(text, encoding="ascii")
    return documents, [record_call(argv, documents)[0] for argv in argvs or pinned_invocations()]


# (length, seed): 9 ends inside block n=6, block 1018 (n=1023, offset 522,743) has the
# first subnormal measure, and LONGEST + 1 is the first length of measure zero
SAMPLER_GRID = [
    (n, seed)
    for n in [0, 1, 5, 6, 9, 1000, 100_000, 522_742, 522_743, test_sampler.BLOCK_1023_END]
    + [test_sampler.LONGEST, test_sampler.LONGEST + 1]
    for seed in ((0, 1, 7) if n <= 100_000 else (0, 5))
]

# test_sampler.systems()'s real bases by the --basis each is read from
SAMPLER_BASES = {
    "hadamard": "hadamard", "real-explicit": "real-explicit.json", "rotation": "rot.json", "standard": "standard",
}


def sampler_invocations() -> list[list[str]]:
    """The witness state's samples, written to s.*, for each real basis and ``SAMPLER_GRID`` case;
    then its Hadamard samples on stdout at seed 0 of every length from 0 to 130 (blocks of sizes
    5 to 16 complete, block 17 cut) and of 578,340 bits, the end of block 1,070, the last block
    before the first of measure zero."""
    runs = [
        ["sample", "--bits", str(length), "--seed", str(seed), "--basis", SAMPLER_BASES[kind], "--out-prefix", "s"]
        for kind in test_sampler.REAL_BASES
        for length, seed in SAMPLER_GRID
    ]
    return runs + [
        ["sample", "--bits", str(length), "--seed", "0", "--basis", "hadamard"]
        for length in [*range(131), test_sampler.SUBNORMAL_EDGE]
    ]


def _sampler(argvs=None) -> tuple[dict, list[dict]]:
    """``argvs`` (default ``sampler_invocations()``) run in order.

    Each call's files are removed after it, so the next call's are new, whatever their size and time.

    The basis documents are ``test_sampler.systems()``'s, whose floats JSON
    writes as reprs that read back exactly: the same basis tables, bit for bit.
    """
    pairs = test_sampler.real_pairs(np.random.default_rng(11), 3)
    documents = {
        "rot.json": ROTATION,
        "real-explicit.json": {"kind": "explicit", "pairs": [[[[x, 0.0] for x in b] for b in pair] for pair in pairs]},
    }
    systems = test_sampler.systems()
    for kind, token in SAMPLER_BASES.items():
        if token in documents:
            read = MeasurementSystem.from_spec(json.loads(json.dumps(documents[token])))
            assert read.label == systems[kind].label
            assert all(read.basis_at(q).tobytes() == systems[kind].basis_at(q).tobytes() for q in range(1, 6)), kind
    documents = {name: json.dumps(doc) for name, doc in documents.items()}
    for name, text in documents.items():
        Path(name).write_text(text, encoding="ascii")
    entries = []
    for argv in argvs or sampler_invocations():
        entries.append(record_call(argv, documents)[0])
        for name in entries[-1]["digests"]["files"]:
            Path(name).unlink()
    return documents, entries


# an option that no other group passes, once each
OPTION_CALLS = [
    ["qmlt", "witness", "--m", "3", "--budget", "35"],
    ["qmlt", "witness", "--m", "2", "--delta", "0.25"],
    ["qmlt", "lift", "--mlt", "test.json", "--basis", "hadamard", "--state", "paper-rho", "--delta", "0.25"],
    ["qmlt", "eval", "--lifted", "test.json", "--basis", "hadamard", "--state", "mixed"],
    ["qmlt", "eval", "--witness", "3", "--budget", "35", "--state", "mixed"],
]


def _options() -> tuple[dict, list[dict]]:
    documents = {"test.json": json.dumps(test_reach.DOCUMENTS["test.json"])}
    Path("test.json").write_text(documents["test.json"], encoding="ascii")
    return documents, [record_call(argv, documents)[0] for argv in OPTION_CALLS]


GROUPS = {
    "cookbook": _cookbook,
    "bad_input": _bad_inputs,
    "matrix": _matrix,
    "cut_block": _cut_blocks,
    "tables": _tables,
    "help": _help,
    "pinned": _pinned,
    "sampler": _sampler,
    "options": _options,
}


def entry(group: str, argv) -> dict:
    """The recorded entry of ``argv`` in ``group``."""
    (found,) = [e for e in load()["groups"][group]["entries"] if e["id"] == shlex.join(argv)]
    return found


def stdout_digest(group: str, argv) -> str:
    """The recorded stdout digest of ``argv`` in ``group``."""
    return entry(group, argv)["digests"]["stdout"]


@contextlib.contextmanager
def _working(directory: Path):
    home = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(home)


def replay(group: str, argvs, directory: Path) -> list[dict]:
    """The entries of ``argvs``, calls of the ``pinned`` or ``sampler`` group, run in order
    in the fresh ``directory`` as the group runs them, with the group's documents."""
    with _working(directory):
        return GROUPS[group](argvs)[1]


def record(directory: Path, names=tuple(GROUPS)) -> dict:
    """Run each named group in its own fresh subdirectory of ``directory``; return the corpus."""
    groups = {}
    for name in names:
        (directory / name).mkdir()
        with _working(directory / name):
            documents, entries = GROUPS[name]()
        ids = [e["id"] for e in entries]
        assert len(set(ids)) == len(ids), f"{name}: two calls share an id"
        groups[name] = {"documents": documents, "entries": entries}
    return {"fingerprint": fingerprint(), "groups": groups}


def changes(old: dict, new: dict) -> list[str]:
    """One line per entry of ``new`` whose digests differ from ``old``'s, or that only one of them holds."""
    lines = []
    for name in {**old["groups"], **new["groups"]}:
        before, after = ({e["id"]: e["digests"] for e in c["groups"].get(name, {"entries": []})["entries"]} for c in (old, new))
        for key, digests in after.items():
            if key not in before:
                lines.append(f"added {name}: {key}")
            elif digests != before[key]:
                lines.append(f"moved {name}: {key}")
        lines += [f"removed {name}: {key}" for key in before if key not in after]
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        corpus = record(Path(scratch))
    old = load() if CORPUS.exists() else {"groups": {}}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="ascii")
    for line in changes(old, corpus):
        print(line)
    print(f"{CORPUS.name}: {sum(len(g['entries']) for g in corpus['groups'].values())} entries")
