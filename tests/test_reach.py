"""Every function in ``src/qmeas`` is reached by an invocation, or kept for a named reason.

The probe runs the README's library sketch, every cookbook line, and a
matrix of ``sample``, ``measure``, ``state`` and ``qmlt`` invocations over
five bases and four states, under ``sys.setprofile``.  It lists the
package's functions with ``ast``.  A function that no invocation calls must
be in ``UNREACHED`` with its reason; any other unreached function is library
surface that nothing needs.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np

import qmeas
from qmeas.cli import main

from test_readme import main_call, run_cookbook, sketch_values

PACKAGE = Path(qmeas.__file__).resolve().parent

# one complex qubit state, its entries [re, im] pairs; they are dyadic, so the
# Kronecker powers of dense.json are exact and its bytes are the same on any machine
_QUBIT = [[[0.75, 0.0], [0.125, 0.25]], [[0.125, -0.25], [0.25, 0.0]]]
_GENERAL_SIZES = range(5, 19)  # the blocks of witness level 2

DOCUMENTS = {
    "rot.json": {"kind": "rotation", "theta": [0.41, 0.93, 1.17]},
    "real.json": {"kind": "explicit", "pairs": [[[[0.6, 0], [0.8, 0]], [[-0.8, 0], [0.6, 0]]]]},
    "complex.json": {
        "kind": "explicit",
        "pairs": [[[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]],
    },
    "general.json": {
        "kind": "general",
        "h": {str(n): (1 << n) // n for n in _GENERAL_SIZES},
        "g": {str(n): 0.5 * 2.0**-n for n in _GENERAL_SIZES},
    },
    "test.json": {
        "levels": {"1": {"2": ["00", "01"], "3": ["000", "001", "010", "011"]}, "2": {"3": ["110"]}}
    },
    "empty_stage.json": {"levels": {"1": {"2": []}}},
    "empty_level.json": {"levels": {"1": {}}},
}


def _dense_chain(depth: int) -> dict:
    """A coherent dense_prefix document: rho_k is the k-fold Kronecker power of ``_QUBIT``."""
    qubit = np.array([[complex(*z) for z in row] for row in _QUBIT])
    matrices, rho = [], np.eye(1)
    for _ in range(depth):
        rho = np.kron(qubit, rho)
        matrices.append([[[z.real, z.imag] for z in row] for row in rho.tolist()])
    return {"kind": "dense_prefix", "matrices": matrices}


DOCUMENTS["dense.json"] = _dense_chain(4)

BASES = ["standard", "hadamard", "rot.json", "real.json", "complex.json"]
STATES = ["paper-rho", "mixed", "general.json", "dense.json"]


def invocations() -> list[list[str]]:
    """The probe's CLI matrix; each argv runs in a directory holding ``DOCUMENTS`` and ``out/``."""
    runs = []
    for i, (basis, state) in enumerate((b, s) for b in BASES for s in STATES):
        on = ["--state", state, "--basis", basis]
        runs += [
            ["sample", *on, "--bits", "20", "--seed", "3"],
            ["sample", *on, "--bits", "20", "--seeds", "0..1", "--out-prefix", f"out/s{i}"],
            ["measure", *on, "--oracle-compare", "--depth", "3"],
            ["qmlt", "lift", "--mlt", "test.json", *on],
            ["qmlt", "eval", "--mlt", "test.json", *on, "--delta", "0.25"],
        ]
        for path in ("auto", "dense", "factored"):
            runs += [
                ["measure", *on, "--path", path, "--tau", "011", "--tau", "1", "--additivity"],
                ["measure", *on, "--path", path, "--tau-depth", "3", "--additivity"],
            ]
    for state in STATES:
        runs += [
            ["state", "--state", state, "--check-depth", "4"],
            ["state", "--state", state, "--eigen", "5"],
            ["qmlt", "witness", "--m", "1", "--state", state],
            ["qmlt", "eval", "--witness", "2", "--state", state],
        ]
    for empty in ("empty_stage.json", "empty_level.json"):
        runs.append(["qmlt", "lift", "--mlt", empty, "--state", "paper-rho"])
    # an argument error, an exceeded block budget, and a corner count past the 4,300-digit limit
    runs += [["sample", "--bits", "x"], ["qmlt", "witness", "--m", "4"], ["state", "--eigen", "15000"]]
    return runs


def run_invocations(directory: Path) -> list[int]:
    """Write the documents into ``directory`` (the working directory) and run the matrix."""
    for name, doc in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(doc), encoding="ascii")
    (directory / "out").mkdir()
    return [main(argv) for argv in invocations()]


BENCH_TRACED = "bench/tracing.py wraps it by name; the traced bench run fails without it"

# unreached functions, each with the reason it stays
UNREACHED = {
    "cli._lemma_args": "run at import, to build the verify commands' table",
    "cli._warning_line": (
        "the warning path: it prints a CLI warning, which pytest records instead; "
        "tests/test_cli.py checks the line in a child process"
    ),
    "cli.entrypoint": "the `qmeas` console script of pyproject.toml; the probe calls `main` itself",
    "matrixcore.kron": BENCH_TRACED,
    "measurement.block_measure": "named in the README, and " + BENCH_TRACED,
    "measurement.MeasurementSystem.chosen_factors": BENCH_TRACED,
    "measurement.MeasurementSystem.product_vector": BENCH_TRACED,
    "measurement.premeasure_factored": BENCH_TRACED,
    "randlab.serial_tests": BENCH_TRACED,
    "randlab.approximate_entropy_test": BENCH_TRACED,
    "states.DenseStatePrefix.prefix": "named in the README: a dense prefix answers state.prefix(k)",
    "states.DensityBlock.to_dense": "named in the README: a block's dense matrix, its entries() scattered",
}


def package_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function defined in the package.

    A decorated function's code starts at its first decorator.
    """
    functions = {}

    def visit(node, path, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[str(path), first] = ".".join(names + [child.name])
                visit(child, path, names + [child.name])
            elif isinstance(child, ast.ClassDef):
                visit(child, path, names + [child.name])

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [path.stem])
    return functions


def reached(run) -> set[tuple[str, int]]:
    """(file, first line) of every Python function called while ``run()`` runs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


def clear_caches():
    """Empty the package's function caches, so a cached call runs its body again."""
    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "qmeas"]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_every_unreached_function_has_a_reason(capsys, monkeypatch, tmp_path):
    def run():
        sketch_values()
        monkeypatch.chdir(tmp_path)
        run_cookbook(main_call(capsys, monkeypatch))
        matrix = tmp_path / "matrix"
        matrix.mkdir()
        monkeypatch.chdir(matrix)
        run_invocations(matrix)

    clear_caches()
    functions = package_functions()
    seen = reached(run)
    capsys.readouterr()
    unreached = sorted(name for key, name in functions.items() if key not in seen)
    assert unreached == sorted(UNREACHED)
