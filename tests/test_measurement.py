"""Premeasure closed forms against dense oracles, plus the sampler."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.errors import BadQuery, NotOrthonormal
from qmeas.matrixcore import kron
from qmeas.measurement import (
    MeasurementSystem,
    additivity_check,
    as_bits,
    block_measure,
    paired_coordinate_sum,
    partial_block_factor,
    premeasure,
    premeasure_dense,
    premeasure_factored,
    premeasure_table_dense,
    premeasure_table_factored,
    sample_bits,
)
from qmeas.states import (
    DensityBlock,
    FactoredState,
    build_corner_block,
    build_corner_block_general,
)

from conftest import random_basis, random_unit_pair


def dense_vector(factors):
    v = np.ones(1, dtype=complex)
    for f in factors:
        v = np.kron(np.asarray(f, dtype=complex), v)
    return v


def pair_sum_brute(factors, count):
    v = dense_vector(factors)
    dim = v.shape[0]
    return sum(np.conj(v[k - 1]) * v[dim - k] for k in range(1, count + 1))


# ---------------------------------------------------------------------------
# paired coordinate sum


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_paired_sum_against_brute_force(n, rng):
    for _ in range(25):
        # arbitrary per-qubit 2-vectors, not necessarily unit
        factors = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        count = int(rng.integers(0, 2**n + 1))
        fast = paired_coordinate_sum(factors, count)
        slow = pair_sum_brute(factors, count)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)


def test_paired_sum_edges(rng):
    factors = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    assert paired_coordinate_sum(factors, 0) == 0.0
    full = paired_coordinate_sum(factors, 8)
    assert full == pytest.approx(pair_sum_brute(factors, 8), rel=1e-12)


def test_paired_sum_batch_matches_loop(rng):
    batch = rng.normal(size=(6, 5, 2)) + 1j * rng.normal(size=(6, 5, 2))
    together = paired_coordinate_sum(batch, 11)
    each = np.array([paired_coordinate_sum(batch[t], 11) for t in range(6)])
    assert np.allclose(together, each, rtol=1e-13, atol=0)


def test_paired_sum_rejects_bad_count(rng):
    factors = rng.normal(size=(3, 2))
    with pytest.raises(BadQuery):
        paired_coordinate_sum(factors, 9)
    with pytest.raises(BadQuery):
        paired_coordinate_sum(factors, -1)


@pytest.mark.parametrize("count", [0, 1, 5])
def test_paired_sum_refuses_a_product_that_overflows(count):
    """2-vectors longer than unit overflow prod(2 f0) past about a thousand qubits."""
    with pytest.raises(BadQuery, match="not finite"):
        paired_coordinate_sum(np.ones((1100, 2)), count)


# ---------------------------------------------------------------------------
# block measure


def test_hadamard_block_golden_value():
    block = build_corner_block(5)
    system = MeasurementSystem.hadamard()
    value = block_measure(block, system, 0, "00000")
    assert value == pytest.approx(float(Fraction(11, 256)), rel=1e-14)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_hadamard_block_parity_formula(n):
    """All-Hadamard outcomes depend only on the outcome parity."""
    block = build_corner_block(n)
    system = MeasurementSystem.hadamard()
    r = block.corner_count
    for trial_bits in ([0] * n, [1] + [0] * (n - 1), [1, 1] + [0] * (n - 2)):
        sign = (-1) ** (sum(trial_bits) % 2)
        expected = float(
            Fraction(1, 2**n) * (1 + Fraction(2 * r * sign, 2**n))
        )
        value = block_measure(block, system, 0, trial_bits)
        assert value == pytest.approx(expected, rel=1e-13)


def test_standard_basis_block_measure_is_exactly_uniform(rng):
    system = MeasurementSystem.standard()
    for n in (5, 6, 7):
        block = build_corner_block(n)
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        assert block_measure(block, system, 0, bits) == 2.0**-n


@pytest.mark.parametrize("n", [5, 6])
def test_block_measure_against_dense_quadratic_form(n, rng):
    block = build_corner_block(n)
    dense = block.to_dense()
    for _ in range(10):
        system = random_basis(rng, periods=n)
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        v = system.product_vector(bits)
        oracle = float(np.real(np.vdot(v, dense @ v)))
        assert block_measure(block, system, 0, bits) == pytest.approx(oracle, abs=1e-13)


def test_block_measure_respects_offset(rng):
    """The basis schedule is global, so the block offset shifts which bases apply."""
    block = build_corner_block(5)
    system = random_basis(rng, periods=3)
    bits = [0, 1, 1, 0, 1]
    v = np.ones(1, dtype=complex)
    for i, b in enumerate(bits):
        v = np.kron(system.basis_at(7 + i + 1)[b], v)
    oracle = float(np.real(np.vdot(v, block.to_dense() @ v)))
    assert block_measure(block, system, 7, bits) == pytest.approx(oracle, abs=1e-13)


def test_general_block_measure_can_vanish():
    """Extremal corner families give exactly-zero outcomes at odd parity."""
    block = build_corner_block_general(5, 16, 2.0**-5)
    system = MeasurementSystem.hadamard()
    assert block_measure(block, system, 0, "10000") == pytest.approx(0.0, abs=1e-15)
    assert block_measure(block, system, 0, "00000") == pytest.approx(2.0**-4, rel=1e-13)


# ---------------------------------------------------------------------------
# partial blocks


@pytest.mark.parametrize("j", [0, 1, 3, 4, 5])
def test_partial_block_factor_dense_oracle(j, rng):
    block = build_corner_block(5)
    system = random_basis(rng, periods=2)
    prefix = [int(b) for b in rng.integers(0, 2, size=j)]
    value = partial_block_factor(block, system, 0, prefix)
    if j == 0:
        assert value == 1.0
        return
    proj = np.zeros((2**j, 2**j), dtype=complex)
    v = system.product_vector(prefix)
    proj = np.outer(v, v.conj())
    full = kron(proj, np.eye(2 ** (5 - j), dtype=complex)) if j < 5 else proj
    oracle = float(np.real(np.trace(block.to_dense() @ full)))
    assert value == pytest.approx(oracle, abs=1e-13)
    if j < 5:
        # the corner contribution cancels exactly in partial factors
        assert value == block.diag_value * 2 ** (5 - j)


def test_partial_block_factor_rejects_long_prefix():
    block = build_corner_block(5)
    with pytest.raises(BadQuery):
        partial_block_factor(block, MeasurementSystem.standard(), 0, [0] * 6)


# 2^(n - take) overflows a float and 2^-n underflows to 0, but a cut block's factor is 2^-take
HUGE_BLOCK = DensityBlock(1100, 0, 0.0)


@pytest.mark.parametrize(
    "query, expected",
    [
        (lambda system: partial_block_factor(HUGE_BLOCK, system, 0, "000"), 0.125),
        (
            lambda system: premeasure_table_factored(
                FactoredState([HUGE_BLOCK]), system, 3
            ).tolist(),
            [0.125] * 8,
        ),
        (
            lambda system: premeasure(FactoredState([HUGE_BLOCK]), system, "0" * 1000),
            2.0**-1000,
        ),
    ],
    ids=["partial_block_factor", "table", "premeasure"],
)
def test_cut_factor_of_a_huge_block_is_exact(query, expected):
    assert query(MeasurementSystem.standard()) == expected


# ---------------------------------------------------------------------------
# premeasure paths


def test_factored_agrees_with_dense_to_depth_eight(rng):
    state = FactoredState.witness_state()
    for _ in range(3):
        system = random_basis(rng, periods=4)
        for depth in (1, 4, 5, 7, 8):
            prefix = state.prefix(depth)
            for _ in range(10):
                tau = [int(b) for b in rng.integers(0, 2, size=depth)]
                a = premeasure_factored(state, system, tau)
                b = premeasure_dense(prefix, system, tau)
                assert a == pytest.approx(b, abs=1e-12)


def test_premeasure_dense_depth_must_match(rng):
    state = FactoredState.witness_state()
    with pytest.raises(BadQuery):
        premeasure_dense(state.prefix(5), MeasurementSystem.standard(), "0011")


def test_premeasure_table_matches_per_tau(rng):
    state = FactoredState.witness_state()
    prefix = state.prefix(6)
    system = random_basis(rng, periods=3)
    table = premeasure_table_dense(prefix, system)
    assert table.shape == (64,)
    for idx in (0, 1, 17, 63):
        tau = tuple((idx >> q) & 1 for q in range(6))
        assert table[idx] == pytest.approx(premeasure_dense(prefix, system, tau), abs=1e-13)
    assert float(table.sum()) == pytest.approx(1.0, abs=1e-12)


def test_standard_basis_uniformity_long_prefixes(rng):
    state = FactoredState.witness_state()
    system = MeasurementSystem.standard()
    for length in (1, 13, 26, 40):
        tau = [int(b) for b in rng.integers(0, 2, size=length)]
        assert premeasure_factored(state, system, tau) == pytest.approx(
            2.0**-length, rel=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 7))
def test_additivity_property(seed, depth):
    rng = np.random.default_rng(seed)
    state = FactoredState.witness_state()
    system = random_basis(rng, periods=2)
    tau = [int(b) for b in rng.integers(0, 2, size=depth)]
    assert additivity_check(state, system, tau) <= 1e-12


def test_as_bits_and_round_trip():
    assert as_bits("0101") == (0, 1, 0, 1)
    assert as_bits([1, 0]) == (1, 0)
    with pytest.raises(BadQuery):
        as_bits("01x1")
    with pytest.raises(BadQuery):
        as_bits([0, 2])


def per_character_bits(tau: str) -> tuple[int, ...]:
    """The per-character reading of a bit string that ``as_bits`` vectorizes."""
    if any(c not in "01" for c in tau):
        raise BadQuery(f"bit strings may only contain 0 and 1, got {tau!r}")
    return tuple(int(c) for c in tau)


def test_as_bits_reads_a_string_like_the_per_character_loop(rng):
    strings = ["", "0", "1"] + ["".join(rng.choice(["0", "1"], size=n)) for n in (2, 17, 1000)]
    for tau in strings:
        bits = as_bits(tau)
        assert bits == per_character_bits(tau)
        assert all(type(b) is int for b in bits)
    for bad in ("2", " ", "١", "01١", "0 1", "\x00", "1" * 50 + "2", "/", ":", "\udcff"):
        with pytest.raises(BadQuery) as got:
            as_bits(bad)
        with pytest.raises(BadQuery) as expected:
            per_character_bits(bad)
        assert str(got.value) == str(expected.value)


def per_element_bits(tau) -> tuple[int, ...]:
    """The per-element reading of a bit sequence that ``as_bits`` vectorizes."""
    out = []
    for b in tau:
        if b not in (0, 1):
            raise BadQuery(f"bit strings may only contain 0 and 1, got {b!r}")
        out.append(int(b))
    return tuple(out)


def test_as_bits_reads_a_sequence_like_the_per_element_loop(rng):
    sequences = [[], (), np.array([], dtype=np.uint8), [True, 1.0, 0, np.uint8(1)], [-0.0, 1]]
    for n in (1, 17, 1000):
        bits = rng.integers(0, 2, size=n)
        sequences += [
            bits.astype(np.uint8), bits.astype(bool), bits.astype(float), bits.astype(np.int8),
            bits.tolist(), tuple(bits.tolist()), [float(b) for b in bits],
        ]
    for tau in sequences:
        got = as_bits(tau)
        assert got == per_element_bits(tau)
        assert all(type(b) is int for b in got)
    for bad in (2, -1, 0.5, "1", float("nan"), None):
        for where in (0, 5, 98):
            listed = rng.integers(0, 2, size=100).tolist()
            listed[where], listed[99] = bad, 7  # the message names the first bad element
            taus = [listed, tuple(listed)]
            if isinstance(bad, (int, float)):
                taus.append(np.array(listed))
            if bad == 2:
                taus.append(np.array(listed, dtype=np.uint8))
            for tau in taus:
                with pytest.raises(BadQuery) as got:
                    as_bits(tau)
                with pytest.raises(BadQuery) as expected:
                    per_element_bits(tau)
                assert str(got.value) == str(expected.value)


def test_explicit_basis_requires_orthonormal_pairs():
    with pytest.raises(NotOrthonormal):
        MeasurementSystem.explicit([([1.0, 0.0], [0.5, 0.5])])


def test_basis_spec_round_trip(rng):
    pairs = [random_unit_pair(rng) for _ in range(2)]
    doc = {
        "kind": "explicit",
        "pairs": [[[[z.real, z.imag] for z in vector] for vector in pair] for pair in pairs],
    }
    system, direct = MeasurementSystem.from_spec(doc), MeasurementSystem.explicit(pairs)
    for q in (1, 2, 3):
        assert np.array_equal(system.basis_at(q), direct.basis_at(q))


def test_rotation_schedule_is_periodic():
    system = MeasurementSystem.rotation([0.3, 1.1])
    assert np.allclose(system.basis_at(1)[0], system.basis_at(3)[0])
    assert np.allclose(system.basis_at(2)[1], system.basis_at(4)[1])


# ---------------------------------------------------------------------------
# sampling


def test_sampler_is_deterministic_per_seed():
    state = FactoredState.witness_state()
    system = MeasurementSystem.hadamard()
    a = sample_bits(state, system, 200, seed=42)
    b = sample_bits(state, system, 200, seed=42)
    c = sample_bits(state, system, 200, seed=43)
    assert a.bit_string() == b.bit_string()
    assert a.bit_string() != c.bit_string()
    assert a.generator == "numpy-pcg64"


def test_sampler_conditionals_telescope_to_premeasure():
    state = FactoredState.witness_state()
    system = MeasurementSystem.hadamard()
    sample = sample_bits(state, system, 64, seed=7)
    prod = sample.conditional_product()
    direct = premeasure_factored(state, system, sample.bits)
    assert prod == pytest.approx(direct, rel=1e-12)


def test_sampler_standard_basis_is_a_fair_coin():
    state = FactoredState.witness_state()
    sample = sample_bits(state, MeasurementSystem.standard(), 4000, seed=3)
    assert np.all(np.asarray(sample.conditional_probs) == 0.5)
    balance = abs(np.mean(sample.bits) - 0.5)
    assert balance < 5 * 0.5 / np.sqrt(4000)


def test_sampler_block_frequencies_track_block_measure():
    state = FactoredState.witness_state()
    system = MeasurementSystem.hadamard()
    stream = sample_bits(state, system, 10_000, seed=11)
    bits = np.asarray(stream.bits)
    # all size-5 block outcomes across many streams of the periodic layout:
    # collect the first block of many independent streams instead
    outcomes = []
    for seed in range(300):
        outcomes.append(tuple(sample_bits(state, system, 5, seed=seed).bits))
    block = build_corner_block(5)
    p0 = block_measure(block, system, 0, (0,) * 5)
    freq = np.mean([o == (0,) * 5 for o in outcomes])
    se = np.sqrt(p0 * (1 - p0) / 300)
    assert abs(freq - p0) < 4 * se
    assert bits.size == 10_000


def test_sample_zero_bits():
    state = FactoredState.witness_state()
    sample = sample_bits(state, MeasurementSystem.standard(), 0, seed=0)
    assert len(sample) == 0
    assert sample.conditional_product() == 1.0


def test_sample_write_and_sidecar(tmp_path):
    state = FactoredState.witness_state()
    sample = sample_bits(state, MeasurementSystem.hadamard(), 130, seed=5)
    bits_path, meta_path = sample.write(str(tmp_path / "stream"))
    text = open(bits_path).read()
    assert "".join(text.split()) == sample.bit_string()
    assert max(len(line) for line in text.splitlines()) <= 64
    import json

    meta = json.loads(open(meta_path).read())
    assert meta["seed"] == 5
    assert meta["n_bits"] == 130
