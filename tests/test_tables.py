"""Closed-form tables and BLAS dense oracles against the formulations they replaced.

The factored table must reproduce the per-string premeasure loop bit for
bit; the dense table's contraction over the prefix's entries must agree
with the full-matrix basis rotation, and bit for bit with the complex
einsum over the whole matrix that it replaced; a single premeasure must be its
string's table entry on every path; the lifted evaluation on a factored state must land on the exact
Fraction sum of its prefixes' measures; and the BLAS forms of the dense
quadratic oracles must agree with the einsums they stand in for.
"""

import math
import random
import warnings

import numpy as np
import pytest

from qmeas import measurement, verify
from qmeas.errors import BadQuery, NumericHealthWarning
from qmeas.measurement import (
    MeasurementSystem,
    paired_coordinate_sum,
    premeasure,
    premeasure_table,
    premeasure_table_dense,
    premeasure_table_factored,
)
from qmeas.qmlt import ClassicalMLT, StagedSigmaClass, evaluate_state, lift_classical_mlt
from qmeas.states import DenseStateChain, DensityBlock, FactoredState, build_corner_block, prefix_entries
from qmeas.verify import (
    ORACLE_TOL,
    product_vectors_dense,
    random_product_factors,
    verify_quadratic_bounds,
)

from conftest import random_basis, random_density
from exact import complex_einsum_table, fraction_premeasure, kron_chain_prefix, kron_vector


def per_tau_table(state, system, depth):
    """The table as one ``premeasure`` call per string (qubit 1 least significant)."""
    return np.array(
        [
            premeasure(state, system, tuple((idx >> q) & 1 for q in range(depth)))
            for idx in range(1 << depth)
        ]
    )


def rotation_table(prefix, system, offset=0):
    """Diagonal of the prefix rotated qubit by qubit into the basis (full matrix)."""
    k = prefix.depth
    if k == 0:
        return np.ones(1)
    T = np.asarray(prefix.rho, dtype=complex).reshape((2,) * (2 * k))
    for q in range(1, k + 1):
        B = np.stack(system.basis_at(offset + q), axis=1)
        ra = k - q
        ca = 2 * k - q
        T = np.moveaxis(np.tensordot(T, np.conj(B), axes=([ra], [0])), -1, ra)
        T = np.moveaxis(np.tensordot(T, B, axes=([ca], [0])), -1, ca)
    return np.clip(np.real(np.diagonal(T.reshape(1 << k, 1 << k))), 0.0, 1.0)


def shifted(system, offset, depth):
    """``system``'s schedule from qubit offset + 1 on, as explicit pairs: the same 2-vectors at qubits 1..depth."""
    return MeasurementSystem.explicit([system.basis_at(offset + q) for q in range(1, max(depth, 1) + 1)])


def systems(rng):
    return {
        "standard": MeasurementSystem.standard(),
        "hadamard": MeasurementSystem.hadamard(),
        "rotation": MeasurementSystem.rotation([0.3, 1.1, 0.7]),
        "explicit": random_basis(rng, periods=4),
    }


# ---------------------------------------------------------------------------
# factored tables


@pytest.mark.parametrize("kind", ["standard", "hadamard", "rotation", "explicit"])
def test_factored_table_is_the_per_tau_loop_bit_for_bit(rng, kind):
    system = systems(rng)[kind]
    state = FactoredState.witness_state()
    # blocks 5, 6, 7: depths 1-4, 6-10 and 12 cut a block, 0, 5 and 11 do not
    for depth in range(13):
        table = premeasure_table_factored(state, system, depth)
        assert np.array_equal(table, per_tau_table(state, system, depth)), depth


def test_factored_table_on_family_and_mixed_states(rng):
    system = random_basis(rng, periods=5)
    family = FactoredState.general_family({5: 3, 6: 10}, {5: 0.02, 6: 0.01})
    for depth in (4, 5, 9, 11):
        table = premeasure_table_factored(family, system, depth)
        assert np.array_equal(table, per_tau_table(family, system, depth))
    mixed = premeasure_table_factored(FactoredState.maximally_mixed(), system, 7)
    assert np.array_equal(mixed, np.full(128, 2.0**-7))


def test_factored_table_rejects_negative_depth():
    with pytest.raises(BadQuery):
        premeasure_table_factored(FactoredState.witness_state(), MeasurementSystem.standard(), -1)


def test_factored_table_clamps_with_a_health_warning():
    # the corner ratio at its bound 1 makes the "-" outcomes exactly zero; tilt it
    # past the bound without validation to force a negative block measure
    block = DensityBlock(5, 16, 1.0)
    object.__setattr__(block, "corner_ratio", 1.5)
    state = FactoredState([block])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = premeasure_table_factored(state, MeasurementSystem.hadamard(), 5)
    assert table.min() == 0.0
    assert any(issubclass(w.category, NumericHealthWarning) for w in caught)


def test_hadamard_depth14_table_matches_fraction_block_product():
    table = premeasure_table_factored(
        FactoredState.witness_state(), MeasurementSystem.hadamard(), 14
    )
    # blocks 5 and 6 are complete; block 7 is cut after 3 qubits
    exact = [fraction_premeasure("hadamard", format(i, "014b")[::-1]) for i in range(1 << 14)]
    assert sum(exact) == 1
    want = np.array([float(x) for x in exact])
    # 1/sqrt(2) rounds up, so (1/sqrt(2))^2 = 0.5000000000000001 and each
    # block measure sits a few ulps off its dyadic value
    assert np.all(np.abs(table - want) <= 16 * np.spacing(want))
    assert math.fsum(table) == 1.0


# ---------------------------------------------------------------------------
# dense tables


def test_dense_table_matches_rotation_on_witness_prefixes(rng):
    state = FactoredState.witness_state()
    for system in systems(rng).values():
        for depth in (0, 1, 5, 8, 10):
            prefix = state.prefix(depth)
            got = premeasure_table_dense(prefix, system)
            assert np.max(np.abs(got - rotation_table(prefix, system))) <= 1e-15
            assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)


def test_dense_table_matches_rotation_on_random_states(rng):
    for depth in (1, 2, 4, 6):
        prefix = DenseStateChain.from_top(random_density(rng, 1 << depth)).prefix(depth)
        for offset in (0, 2):
            system = random_basis(rng, periods=3)
            got = premeasure_table_dense(prefix, shifted(system, offset, depth))
            assert np.max(np.abs(got - rotation_table(prefix, system, offset))) <= 1e-15


def dense_prefixes():
    """(label, prefix, its matrix): factored states' prefix entries and dense chains' prefixes.

    A factored prefix's matrix is the Kronecker chain of its blocks.  All
    are real-valued but for the "complex" chain, and some of their tables
    hold exact zeros.
    """
    witness, mixed = FactoredState.witness_state(), FactoredState.maximally_mixed()
    family = FactoredState.general_family({5: 3, 6: 10}, {5: 0.02, 6: 0.01})
    half = FactoredState.general_family({n: (1 << n) // n for n in (5, 6)}, {n: 0.5 * 2.0**-n for n in (5, 6)})
    factored = [(f"paper_rho{k}", witness, k) for k in [*range(11), 12]]
    factored += [("mixed", mixed, 6), ("general", family, 9), ("general_half", half, 10)]
    out = [(label, prefix_entries(state, k), kron_chain_prefix(state, k)) for label, state, k in factored]
    gen = np.random.default_rng(5)
    a = gen.normal(size=(32, 32))
    basis_state = np.zeros(32)
    basis_state[5] = 1.0
    ghz = np.zeros(32)
    ghz[[0, 31]] = math.sqrt(0.5)
    for label, top in (
        ("wishart", a @ a.T / np.trace(a @ a.T)),
        ("basis_state", np.outer(basis_state, basis_state)),
        ("ghz", np.outer(ghz, ghz).astype(complex)),  # complex dtype, zero imaginary parts
        ("complex", random_density(gen, 32)),
    ):
        chain = DenseStateChain.from_top(top)
        out += [(f"{label}{k}", chain.prefix(k), chain.prefix(k).rho) for k in (1, 3, 5)]
    return out


def contraction_steps(monkeypatch, prefix, system):
    """The table, and whether each qubit's contraction step ran in complex arithmetic."""
    steps = []
    contract = measurement._contract_qubit

    def spy(key, values, basis, width):
        steps.append(np.iscomplexobj(basis))
        return contract(key, values, basis, width)

    with monkeypatch.context() as patch:
        patch.setattr(measurement, "_contract_qubit", spy)
        table = premeasure_table_dense(prefix, system)
    return table, steps


def einsum_systems():
    """The bases of the bit-for-bit comparison, keyed by kind."""
    s = math.sqrt(0.5)
    return {
        "standard": MeasurementSystem.standard(),
        "hadamard": MeasurementSystem.hadamard(),
        "rotation": MeasurementSystem.rotation([0.3, 0.0, 1.1]),
        "real_explicit": MeasurementSystem.explicit(
            [([0.6, 0.8], [-0.8, 0.6]), ([0.0, 1.0], [1.0, 0.0]), ([0.0, -1.0], [1.0, 0.0])]
        ),
        "complex_explicit": MeasurementSystem.explicit(
            [([s, 1j * s], [s, -1j * s]), ([0.6, 0.8j], [0.8j, 0.6])]
        ),
        # entries with nonzero real and imaginary parts, where a fused multiply-add
        # rounds differently from einsum's separate products
        "random": random_basis(np.random.default_rng(29), periods=3),
    }


@pytest.mark.parametrize(
    "kind", ["standard", "hadamard", "rotation", "real_explicit", "complex_explicit", "random"]
)
@pytest.mark.parametrize("offset", [0, 1])
def test_dense_table_is_the_complex_einsum_bit_for_bit(monkeypatch, kind, offset):
    system = einsum_systems()[kind]
    zeros = 0
    for label, prefix, rho in dense_prefixes():
        k = rho.shape[0].bit_length() - 1
        # the schedule from qubit offset + 1 on gives each qubit the 2-vectors it has at that offset
        got, steps = contraction_steps(monkeypatch, prefix, shifted(system, offset, k))
        want = complex_einsum_table(rho, system, offset)
        # bit patterns, so +0.0 and -0.0 count as different
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label
        # one step per qubit: real inputs contract in float64, a complex prefix or basis in complex
        complex_input = kind in ("complex_explicit", "random") or label.startswith("complex")
        assert steps == [complex_input] * k, label
        zeros += int(np.sum(want == 0.0))
    # the basis-state and GHZ tables hold exact zeros in every real basis here
    assert zeros > 0 or kind in ("complex_explicit", "random")


# ---------------------------------------------------------------------------
# single premeasures


def premeasure_states():
    """Paper-rho, the mixed state, a general family, and a fully dense complex depth-8 chain."""
    return {
        "paper_rho": FactoredState.witness_state(),
        "mixed": FactoredState.maximally_mixed(),
        "general": FactoredState.general_family({5: 3, 6: 10}, {5: 0.02, 6: 0.01}),
        "dense": DenseStateChain.from_top(random_density(np.random.default_rng(8), 256)),
    }


@pytest.mark.parametrize("state_kind", ["paper_rho", "mixed", "general", "dense"])
@pytest.mark.parametrize("kind", ["standard", "hadamard", "rotation", "real_explicit", "complex_explicit"])
def test_premeasure_is_its_table_entry_bit_for_bit(state_kind, kind):
    """On every path, a premeasure is its string's entry of the table at its depth, qubit 1 least significant."""
    state, system = premeasure_states()[state_kind], einsum_systems()[kind]
    gen = random.Random(31)
    paths = ["auto", "dense", "factored"] if isinstance(state, FactoredState) else ["auto", "dense"]
    for depth in range(9):
        indices = list(range(1 << depth)) if depth <= 3 else gen.sample(range(1 << depth), 5)
        for path in paths:
            table = premeasure_table(state, system, depth, path)
            singles = [premeasure(state, system, [(i >> q) & 1 for q in range(depth)], path) for i in indices]
            # bit patterns, so +0.0 and -0.0 count as different
            assert np.array_equal(np.array(singles).view(np.uint64), table[indices].view(np.uint64)), (depth, path)


# ---------------------------------------------------------------------------
# lifted evaluation


def lifted_class(system, prefixes):
    depth = len(prefixes[0])
    test = lift_classical_mlt(ClassicalMLT({1: StagedSigmaClass({depth: prefixes})}), system)
    return test.levels[1], depth


@pytest.mark.parametrize("kind", ["standard", "hadamard"])
def test_lifted_evaluation_is_the_exact_fraction_sum(kind):
    gen = random.Random(11)
    prefixes = sorted({format(x, "010b") for x in gen.sample(range(1 << 10), 400)})
    system = MeasurementSystem.standard() if kind == "standard" else MeasurementSystem.hadamard()
    cls, depth = lifted_class(system, prefixes)
    state = FactoredState.witness_state()
    value = evaluate_state(cls, state, depth)
    assert value == float(sum(fraction_premeasure(kind, p) for p in prefixes))
    # the dense chain of the same prefix sums entries of the dense contraction
    chain = DenseStateChain.from_top(state.prefix(depth).rho)
    assert evaluate_state(cls, chain, depth) == pytest.approx(value, abs=1e-12)


def test_product_vector_bytes_match_kron(rng):
    for system in systems(rng).values():
        for bits in ((0,), (1, 0, 1), (0, 1, 1, 0, 1, 0, 0, 1, 1)):
            factors = [system.basis_at(i + 1)[b] for i, b in enumerate(bits)]
            assert np.array_equal(system.product_vector(bits), kron_vector(factors))


@pytest.mark.parametrize("n", [5, 7, 10])
def test_quadratic_oracle_deviation_matches_einsum(n):
    trials, seed = 200, 3
    report = verify_quadratic_bounds(n=n, trials=trials, seed=seed)
    factors = random_product_factors(np.random.default_rng(seed), trials, n)
    block = build_corner_block(n)
    values = block.diag_value + block.corner_value * 2.0 * np.real(
        paired_coordinate_sum(factors, block.corner_count)
    )
    dense = product_vectors_dense(factors)
    old = np.real(np.einsum("ti,ij,tj->t", dense.conj(), block.to_dense(), dense))
    old_dev = float(np.max(np.abs(old - values)))
    assert report.parameters["oracle_max_deviation"] == pytest.approx(old_dev, abs=1e-17)


def test_quadratic_oracle_catches_a_scaled_closed_form(monkeypatch):
    paired = verify.paired_coordinate_sum
    monkeypatch.setattr(
        verify, "paired_coordinate_sum", lambda f, c: paired(f, c) * (1.0 + 1e-6)
    )
    report = verify_quadratic_bounds(n=7, trials=200, seed=3)
    assert not report.passed
    assert report.parameters["oracle_max_deviation"] > ORACLE_TOL
