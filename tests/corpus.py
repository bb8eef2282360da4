"""The CLI byte corpus: what every README cookbook call, every bad-input row of
``test_cli.py`` and every call of the reach probe's matrix prints and writes.

``corpus.json`` holds the fingerprint of the machine that wrote it (Python,
numpy and ``platform.machine()``) and one list of entries per group.  A
group's calls run in order in one fresh directory that holds the group's
documents, so a call may read what an earlier one wrote.  An entry holds the
call's argv, the documents only it reads (a file, stdin or environment
variables) and SHA-256 digests of its stdout, of its stderr, of its exit code
and of every file it writes or changes.  Stderr has the directory's path
replaced by ``<dir>``, and the warnings the call raised follow it, one line
each, as the CLI prints them.  The ``cut_block`` group holds calls whose
strings, tables and checks end inside a block.

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
import platform
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from qmeas.cli import main
from qmeas.config import DENSE_CAP_ENV

import test_cli
import test_reach
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


GROUPS = {"cookbook": _cookbook, "bad_input": _bad_inputs, "matrix": _matrix, "cut_block": _cut_blocks}


def record(directory: Path) -> dict:
    """Run every group in its own fresh subdirectory of ``directory``; return the corpus."""
    groups, home = {}, os.getcwd()
    for name, run in GROUPS.items():
        (directory / name).mkdir()
        os.chdir(directory / name)
        try:
            documents, entries = run()
        finally:
            os.chdir(home)
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
