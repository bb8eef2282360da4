"""Structured blocks, the product state, coherence, and spec parsing."""

import hashlib
import json

import numpy as np
import pytest

from qmeas.errors import BadBlock, BadFamilyParams, BadQuery, BadSpec, CapExceeded
from qmeas.matrixcore import is_density_matrix, kron, partial_trace_last_qubit
from qmeas import matrixcore, states
from qmeas.cli import main
from qmeas.states import (
    CoherenceReport,
    DenseStateChain,
    DensityBlock,
    FactoredState,
    build_corner_block,
    build_corner_block_general,
    check_coherence,
    check_density,
    eigenvalue_groups,
    parse_state_spec,
    prefix_density,
    prefix_entries,
)

from exact import analytic_eigensystem, dense_block, kron_chain_prefix


def golden_d3():
    """The displayed 8x8 block: diagonal 1/8 with two corner pairs of 1/8."""
    m = np.zeros((8, 8))
    np.fill_diagonal(m, 0.125)
    for i in (1, 2):  # corner pairs (1,8) and (2,7), one-based
        m[i - 1, 8 - i] = 0.125
        m[8 - i, i - 1] = 0.125
    return m


def test_golden_d3_exact():
    d3 = build_corner_block(3)
    assert d3.corner_count == 2
    assert np.array_equal(d3.to_dense().real, golden_d3())
    assert np.array_equal(d3.to_dense().imag, np.zeros((8, 8)))


@pytest.mark.parametrize("n,r", [(3, 2), (4, 4), (5, 6), (6, 10), (7, 18), (8, 32), (9, 56)])
def test_corner_counts(n, r):
    assert build_corner_block(n).corner_count == r


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_block_entry_formula(n):
    block = build_corner_block(n)
    dense = block.to_dense()
    dim = block.dim
    expected = np.zeros((dim, dim))
    np.fill_diagonal(expected, 2.0**-n)
    for i in range(1, block.corner_count + 1):
        expected[i - 1, dim - i] = 2.0**-n
        expected[dim - i, i - 1] = 2.0**-n
    assert np.array_equal(dense.real, expected)
    assert is_density_matrix(dense).ok


def test_corner_positions_are_bit_complements():
    block = build_corner_block(6)
    dense = block.to_dense()
    rows, cols = np.nonzero(np.triu(dense.real, k=1))
    for r, c in zip(rows, cols):
        assert c == ~r & (block.dim - 1)


def test_block_parameter_validation():
    with pytest.raises(BadBlock):
        build_corner_block(2)
    with pytest.raises(BadBlock):
        DensityBlock(4, 2, 1.12)  # corner 0.07 = 1.12 * 2^-4 above the diagonal
    with pytest.raises(BadBlock):
        DensityBlock(4, 9, 0.16)  # more pairs than the half-dimension


def test_general_block_reports_offending_size():
    with pytest.raises(BadFamilyParams, match="n=5"):
        build_corner_block_general(5, 6, 0.04)


def test_eigenvectors_solve_the_block():
    block = build_corner_block(5)
    dense = block.to_dense()
    for pair in analytic_eigensystem(block):
        v = pair.vector()
        assert np.allclose(dense @ v, pair.value * v, atol=1e-14)


def test_eigenvalue_groups_structure():
    block = build_corner_block(6)
    groups = {g.kind: g for g in eigenvalue_groups(block)}
    assert groups["pair_plus"].multiplicity == 10
    assert groups["pair_plus"].value == pytest.approx(2.0**-5)
    assert groups["pair_minus"].value == 0.0
    assert groups["middle"].multiplicity == 64 - 20


def test_prefix_density_small_depths():
    state = FactoredState.witness_state()
    d5 = build_corner_block(5).to_dense()
    d6 = build_corner_block(6).to_dense()
    assert np.allclose(state.prefix(5).rho, d5, atol=0)
    assert np.allclose(state.prefix(11).rho, kron(d5, d6), atol=0)


def test_prefix_density_straddles_a_block():
    """Depth 7 cuts into the second block; oracle is iterated partial trace."""
    state = FactoredState.witness_state()
    joint = kron(build_corner_block(5).to_dense(), build_corner_block(6).to_dense())
    for _ in range(4):
        joint = partial_trace_last_qubit(joint)
    assert np.allclose(state.prefix(7).rho, joint, atol=1e-14)


def test_prefix_cut_into_a_block_past_the_cap_is_uniform():
    """A cut block traces down to I / 2**take; the block itself is never built."""
    state = FactoredState([build_corner_block(20)])
    assert np.array_equal(state.prefix(3).rho, np.eye(8) / 8)


def test_prefix_density_depth_zero_and_cap(monkeypatch):
    state = FactoredState.witness_state()
    assert state.prefix(0).rho.shape == (1, 1)
    monkeypatch.setenv("QMEAS_DENSE_CAP", "6")
    with pytest.raises(CapExceeded):
        prefix_density(state, 7)


def entry_blocks():
    """Blocks of 1 to 12 qubits at the ends of their corner range, and a general family's blocks."""
    blocks = []
    for n in range(1, 13):
        counts = sorted(r for r in {0, 1, (1 << n) // n, 1 << (n - 1)} if r <= 1 << (n - 1))
        blocks += [DensityBlock(n, r, 1.0) for r in counts] + [DensityBlock(n, counts[-1], 0.3)]
    # corner values of zero (whose corners are no entries) and subnormal, beside ordinary ones
    family = FactoredState.general_family({5: 3, 6: 10, 7: 17, 8: 32}, {5: 0.02, 6: 0.0, 7: 1e-310, 8: 2.0**-8})
    return blocks + family.blocks


def test_block_entries_are_the_nonzeros_of_the_dense_block():
    for block in entry_blocks():
        dense = dense_block(block)
        rows, cols = np.nonzero(dense)
        entries = block.entries()
        assert entries.qubits == block.n
        assert np.array_equal(entries.rows, rows) and np.array_equal(entries.cols, cols), block
        assert np.array_equal(entries.values, dense[rows, cols]), block
        assert np.array_equal(block.to_dense().view(np.uint64), dense.view(np.uint64)), block


def test_block_offsets():
    state = FactoredState.witness_state()
    assert state.columns(35).offset.tolist() == [0, 5, 11, 18, 26]
    assert sum(range(5, 10)) == 35


def test_witness_coherence():
    report = check_coherence(FactoredState.witness_state(), 12)
    assert report.ok
    assert report.max_deviation <= 1e-12


def test_dense_chain_roundtrip_and_corruption():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    chain = DenseStateChain.from_top(rho)
    assert chain.depth == 4
    assert check_coherence(chain, 4).ok
    # corrupt one intermediate prefix
    mats = [chain.prefix(k).rho.copy() for k in range(1, 5)]
    mats[1][0, 0] += 0.05
    mats[1][1, 1] -= 0.05
    bad = DenseStateChain.from_matrices(mats)
    report = check_coherence(bad, 4)
    assert not report.ok
    assert report.failed_at in (2, 3)
    assert report == dense_coherence([bad.prefix(k).rho for k in range(5)], 4)


def test_maximally_mixed_prefixes():
    mixed = FactoredState.maximally_mixed()
    for k in (1, 3, 6):
        assert np.allclose(mixed.prefix(k).rho, np.eye(2**k) / 2**k, atol=0)


def test_from_blocks_is_not_extendable():
    """A state built from a list of blocks has no factory: it covers those blocks only."""
    state = FactoredState([build_corner_block(5)])
    assert not state.extendable
    state.ensure_covers(5)
    with pytest.raises(BadQuery):
        state.ensure_covers(6)


def test_general_family_requires_contiguous_sizes():
    with pytest.raises(BadSpec):
        FactoredState.general_family({5: 6, 7: 18}, {5: 2.0**-5, 7: 2.0**-7})


def test_parse_state_spec_kinds():
    assert parse_state_spec({"kind": "paper_rho"}).label == "paper_rho"
    assert parse_state_spec({"kind": "max_mixed"}).label == "max_mixed"
    general = parse_state_spec(
        {"kind": "general", "h": {"5": 6, "6": 10}, "g": {"5": 0.03125, "6": 0.015625}}
    )
    assert general.blocks[0] == build_corner_block(5)
    with pytest.raises(BadSpec):
        parse_state_spec({"kind": "unknown"})
    with pytest.raises(BadSpec):
        parse_state_spec(["not", "a", "dict"])


def test_parse_dense_prefix_spec_checks_coherence():
    rho2 = np.eye(2) / 2
    rho4 = np.eye(4) / 4
    doc = {
        "kind": "dense_prefix",
        "matrices": [
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        ],
    }
    chain = parse_state_spec(doc)
    assert np.allclose(chain.prefix(1).rho, rho2)
    # depth-2 prefix (I/4) whose partial trace is I/2, not the stored |0><0|
    zero = [0.0, 0.0]
    quarter = [0.25, 0.0]
    bad = {
        "kind": "dense_prefix",
        "matrices": [
            [[[1.0, 0.0], zero], [zero, zero]],
            [
                [quarter, zero, zero, zero],
                [zero, quarter, zero, zero],
                [zero, zero, quarter, zero],
                [zero, zero, zero, quarter],
            ],
        ],
    }
    with pytest.raises(BadSpec):
        parse_state_spec(bad)


def test_lazy_extension_materializes_growing_blocks():
    """``block(i)`` past the materialized blocks asks the factory and keeps nothing;
    ``ensure_covers`` and ``segments`` materialize."""
    for state, corners in ((FactoredState.witness_state(), 32), (FactoredState.maximally_mixed(), 0)):
        assert (state.block(3).n, state.block(3).corner_count) == (8, corners)
        assert state.blocks == []
        state.ensure_covers(12)
        assert [b.n for b in state.blocks] == [5, 6, 7]
        assert state.block(1) is state.blocks[1]
        list(state.segments(30))
        assert [b.n for b in state.blocks] == [5, 6, 7, 8, 9]


# ---------------------------------------------------------------------------
# closed-form checks against the dense prefixes


def general_state():
    """A family state whose corners (0.7 of the diagonal) leave no zero eigenvalue."""
    sizes = range(5, 9)
    return FactoredState.general_family(
        {n: (1 << n) // n for n in sizes}, {n: 0.7 * 2.0**-n for n in sizes}
    )


CHECKED_STATES = {
    "witness": FactoredState.witness_state,
    "mixed": FactoredState.maximally_mixed,
    "general": general_state,
}


@pytest.mark.parametrize("name", sorted(CHECKED_STATES))
def test_check_density_is_the_dense_check(name):
    state = CHECKED_STATES[name]()
    for k in range(0, 12):
        fast = check_density(state, k)
        dense = is_density_matrix(state.prefix(k).rho)
        assert (fast.ok, fast.hermitian_deviation, fast.trace_deviation, fast.qubits) == (
            dense.ok,
            dense.hermitian_deviation,
            dense.trace_deviation,
            dense.qubits,
        )
        assert fast.qubits == k
        assert abs(fast.min_eigenvalue - dense.min_eigenvalue) <= 1e-15


def test_check_density_min_eigenvalue_is_the_block_product():
    assert check_density(FactoredState.witness_state(), 11).min_eigenvalue == 0.0
    assert check_density(FactoredState.maximally_mixed(), 11).min_eigenvalue == 2.0**-11
    # complete blocks 5 and 6 contribute (1 - 0.7) 2^-n each, block 7 cut at one qubit 1/2
    expected = (2.0**-5 - 0.7 * 2.0**-5) * (2.0**-6 - 0.7 * 2.0**-6) * 0.5
    assert check_density(general_state(), 12).min_eigenvalue == expected


def dense_coherence(prefixes, depth, tol=1e-10) -> CoherenceReport:
    """The depth-by-depth dense loop that check_coherence ran on every state."""
    worst = 0.0
    failed_at = None
    for j in range(1, depth + 1):
        upper = prefixes[j]
        lower = prefixes[j - 1]
        dev = float(np.max(np.abs(partial_trace_last_qubit(upper) - lower)))
        if dev > worst:
            worst = dev
        if failed_at is None and dev > tol:
            failed_at = j
    return CoherenceReport(failed_at is None, worst, failed_at, tol)


@pytest.mark.parametrize("name", sorted(CHECKED_STATES))
def test_check_coherence_is_the_dense_loop(name):
    """A worst deviation of exactly 0.0 up to each depth k pins every deviation up to k at 0.0."""
    state = CHECKED_STATES[name]()
    prefixes = [state.prefix(j).rho for j in range(13)]
    for k in range(1, 13):
        report = check_coherence(state, k)
        assert report == dense_coherence(prefixes, k)
        assert (report.ok, report.max_deviation, report.failed_at) == (True, 0.0, None)


def test_scattered_prefix_is_the_kron_chain_bit_for_bit():
    # blocks 5, 6, 7: depths 1-4, 6-10 and 12 cut a block
    for name, make in CHECKED_STATES.items():
        state = make()
        for k in range(13):
            chain = kron_chain_prefix(state, k)
            rho = prefix_density(state, k).rho
            assert rho.dtype == chain.dtype and np.array_equal(rho.view(np.uint64), chain.view(np.uint64)), (name, k)
            rows, cols = np.nonzero(chain)
            entries = prefix_entries(state, k)
            assert np.array_equal(entries.rows, rows) and np.array_equal(entries.cols, cols), (name, k)
            assert np.array_equal(entries.values, chain[rows, cols]), (name, k)


def test_state_checks_build_no_dense_prefix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense prefix or a dense eigensolver was used")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(states, "prefix_density", refuse)
    assert main(["state", "--paper-rho", "--check-depth", "11", "--eigen", "5"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["coherence"]["ok"] and report["density"]["ok"]


# each command's stdout as it was when the dense table built rho_11 and contracted it by einsum
DENSE_TABLE_RUNS = {
    "oracle-compare": (
        ["measure", "--state", "paper-rho", "--basis", "hadamard", "--oracle-compare", "--depth", "11"],
        "a76a445362864af7996f1e8a4c99bc85ccb40db87d4ff1eac8c9a5e644575b7d",
    ),
    "path-dense": (
        ["measure", "--state", "paper-rho", "--basis", "hadamard", "--path", "dense", "--tau-depth", "11", "--additivity"],
        "4ed4808a064bcec793986b05e24613dfae6956fad4b5ec3dc1a8f9482abfa286",
    ),
}


@pytest.mark.parametrize("name", sorted(DENSE_TABLE_RUNS))
def test_dense_tables_build_no_dense_prefix(monkeypatch, capsys, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense prefix, a Kronecker product or an einsum was used")

    monkeypatch.setattr(states, "prefix_density", refuse)
    monkeypatch.setattr(matrixcore, "kron", refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    argv, digest = DENSE_TABLE_RUNS[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_coherence_of_a_factored_state_builds_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a block was materialized or traced")

    monkeypatch.setattr(DensityBlock, "to_dense", refuse)
    monkeypatch.setattr(states, "partial_trace_last_qubit", refuse)
    for make in CHECKED_STATES.values():
        report = check_coherence(make(), 26)
        assert (report.ok, report.max_deviation, report.failed_at) == (True, 0.0, None)
    # the diagonal 2^-1100 of the second block underflows a float, but its trace is
    # 2^1100 * 2^-1100 = 1 by construction: every deviation is 0
    state = FactoredState([build_corner_block(5), DensityBlock(1100, 0, 0.0)])
    report = check_coherence(state, 9)
    assert report == CoherenceReport(True, 0.0, None, 1e-10)
    assert check_density(state, 1105).trace_deviation == 0.0
    # a depth past a finite state's blocks is refused, not reported coherent
    with pytest.raises(BadQuery):
        check_coherence(state, 1106)
