"""One state seam: every presentation answers ``prefix(k)``, and modules use public names."""

import ast
import importlib.util
from pathlib import Path

import pytest

from qmeas.errors import BadQuery
from qmeas.measurement import MeasurementSystem, premeasure, premeasure_table
from qmeas.qmlt import ClassicalMLT, evaluate_state, lift_classical_mlt
from qmeas.states import (
    DenseStateChain,
    DenseStatePrefix,
    DensityBlock,
    FactoredState,
    check_coherence,
    prefix_density,
)

from exact import segments

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmeas"
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
DEPTH = 6


def test_no_private_imports_between_package_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or "qmeas" in (node.module or "")):
                offenders += [
                    f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
                ]
    assert offenders == []


def _presentations():
    top = prefix_density(FactoredState.witness_state(), DEPTH)
    return {
        "factored": FactoredState.witness_state(),
        "dense_chain": DenseStateChain.from_top(top.rho),
        "dense_prefix": top,
    }


@pytest.fixture(scope="module")
def reference():
    state = FactoredState.witness_state()
    system = MeasurementSystem.hadamard()
    prefixes = [format(i, f"0{DEPTH}b") for i in (0, 5, 9, 22, 37, 63)]
    test = ClassicalMLT.from_doc({"levels": {"3": {str(DEPTH): prefixes[:4]}}})
    cls = lift_classical_mlt(test, system).levels[3]
    return {
        "system": system,
        "taus": prefixes,
        "cls": cls,
        "premeasures": [premeasure(state, system, t) for t in prefixes],
        "evaluation": evaluate_state(cls, state, DEPTH),
        "coherence": check_coherence(state, DEPTH),
    }


@pytest.mark.parametrize("kind", ["factored", "dense_chain", "dense_prefix"])
def test_presentations_agree(kind, reference):
    state = _presentations()[kind]
    system = reference["system"]
    for tau, expected in zip(reference["taus"], reference["premeasures"]):
        assert premeasure(state, system, tau) == pytest.approx(expected, abs=1e-12)
        assert premeasure(state, system, tau, path="dense") == pytest.approx(expected, abs=1e-12)
    value = evaluate_state(reference["cls"], state, DEPTH)
    assert value == pytest.approx(reference["evaluation"], abs=1e-12)
    if isinstance(state, DenseStatePrefix):
        with pytest.raises(BadQuery):
            check_coherence(state, DEPTH)
    else:
        report = check_coherence(state, DEPTH)
        assert (report.ok, report.failed_at) == (True, reference["coherence"].failed_at)
        assert report.max_deviation == pytest.approx(reference["coherence"].max_deviation, abs=1e-12)


@pytest.mark.parametrize("kind", ["factored", "dense_chain", "dense_prefix"])
def test_one_path_rule_for_premeasures_and_tables(kind, reference):
    """Only a factored state takes the factored path; an unknown path never runs."""
    state = _presentations()[kind]
    system = reference["system"]
    tau = reference["taus"][1]
    for path in ("auto", "dense", "factored", "fast"):
        if path == "fast" or (path == "factored" and kind != "factored"):
            with pytest.raises(BadQuery):
                premeasure(state, system, tau, path=path)
            with pytest.raises(BadQuery):
                premeasure_table(state, system, DEPTH, path)
        else:
            table = premeasure_table(state, system, DEPTH, path)
            expected = premeasure(state, system, tau, path=path)
            assert table[int(tau[::-1], 2)] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", [0, DEPTH - 1, DEPTH + 1])
def test_dense_prefix_answers_only_its_depth(k):
    top = prefix_density(FactoredState.witness_state(), DEPTH)
    assert top.prefix(DEPTH) is top
    with pytest.raises(BadQuery):
        top.prefix(k)


def test_segments_walk_blocks_in_order():
    """Both built-in states lay out block i on i + 5 qubits; the mixed state's carry no corners.

    ``prefix_columns`` reads a cut block as the corner-free block of the qubits
    it keeps, and leaves the true blocks as they are.
    """
    for state in (FactoredState.witness_state(), FactoredState.maximally_mixed()):
        assert [(b.n, offset, take) for b, offset, take in segments(state, 14)] == [
            (5, 0, 5),
            (6, 5, 6),
            (7, 11, 3),
        ]
        assert segments(state, 0) == []
        view = state.prefix_columns(14)
        assert [view.block(i) for i in range(len(view))] == [state.block(0), state.block(1), DensityBlock(3, 0, 0.0)]
        assert view.offset.tolist() == [0, 5, 11]
        assert state.columns(14).n.tolist() == [5, 6, 7] and state.block(2).n == 7
        assert state.prefix_columns(11).n.tolist() == [5, 6]
        assert len(state.prefix_columns(0)) == 0
    mixed = FactoredState.maximally_mixed()
    assert {(b.corner_count, b.corner_ratio) for b, _, _ in segments(mixed, 10_000)} == {(0, 0.0)}
    assert len(mixed.blocks) == 137  # sizes 5..141 hold 10,001 qubits


def test_every_traced_name_resolves():
    """The bench tracer wraps these names by lookup, so a rename must fail here first."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"qmeas.{module_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            home = getattr(module, owner, None) if owner else module
            # methods are wrapped from the class's own __dict__, not an inherited one
            if home is None or not callable(vars(home).get(attr)):
                missing.append(f"{module_name}.{name}")
    assert missing == []
