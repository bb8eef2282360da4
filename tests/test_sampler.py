"""The block-wise sampler and the batched digit walk against the per-bit code they replaced.

The per-bit sampler, the per-position paired-sum loop, the per-qubit factor
loop, the per-block premeasure product and the per-value JSON writer live on
here as oracles.  The rewrite must reproduce them byte for byte: the same
bits, the same conditionals, the same paired sums, batched or not, the same
premeasures, and the same error at the first prefix of measure zero.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmeas.errors import BadQuery, MeasureZeroPrefix, NumericHealthWarning
from qmeas.jsonio import canonical_dumps
from qmeas import measurement
from qmeas.measurement import (
    BitSample,
    MeasurementSystem,
    block_measure,
    clamp01,
    paired_coordinate_sum,
    premeasure,
    sample_bits,
)
from qmeas.states import DensityBlock, FactoredState, build_corner_block

from conftest import random_basis

# The witness state's block n=1076 starts at bit 578,340; its step 1075
# would need a 1,076th halving of 1.0, past the smallest subnormal.
LONGEST = 579_415
SUBNORMAL_EDGE = 578_340  # the end of block n=1075
BLOCK_1022 = 521_721  # offset of block n=1022, whose diagonal is the smallest normal float
BLOCK_1023_END = 523_766


def looped_paired_sum(factors, count):
    """The digit walk as one Python iteration per qubit position."""
    factors = np.asarray(factors, dtype=complex)
    n = factors.shape[-2]
    batch = factors.shape[:-2]
    f0 = np.conj(factors[..., 0]) * factors[..., 1]
    f1 = np.conj(f0)
    pair_sum = f0 + f1
    if count == 1 << n:
        out = np.prod(pair_sum, axis=-1)
        return out if batch else complex(out)
    ones = np.ones(batch + (1,), dtype=complex)
    low = np.concatenate([ones, np.cumprod(pair_sum, axis=-1)[..., :-1]], axis=-1)
    total = np.zeros(batch, dtype=complex)
    locked = np.ones(batch, dtype=complex)
    for p in range(n - 1, -1, -1):
        if (count >> p) & 1:
            total = total + locked * f0[..., p] * low[..., p]
            locked = locked * f1[..., p]
        else:
            locked = locked * f0[..., p]
    return total if batch else complex(total)


def looped_factors(system, bits, offset=0):
    out = np.empty((len(bits), 2), dtype=complex)
    for i, b in enumerate(bits):
        out[i] = system.basis_at(offset + i + 1)[b]
    return out


def looped_block_measure(block, system, offset, bits):
    s = looped_paired_sum(looped_factors(system, bits, offset), block.corner_count)
    return clamp01(float(block.diag_value + block.corner_value * 2.0 * np.real(s)), "block measure")


def per_bit_sample(state, system, length, seed):
    """The sampler as one uniform draw and one Python iteration per bit."""
    rng = np.random.default_rng(seed)
    bits = np.zeros(length, dtype=np.uint8)
    conds = np.ones(length, dtype=float)
    for index, (block, offset, take) in enumerate(state.segments(length)):
        prev = 1.0
        seg = []
        for step in range(take):
            pos = offset + step
            if prev <= 0.0:
                raise MeasureZeroPrefix(
                    f"prefix of measure zero inside block {index} (offset {offset})"
                )
            if step == block.n - 1:
                f0 = looped_block_measure(block, system, offset, seg + [0])
                p0 = min(max(f0 / prev, 0.0), 1.0)
                bit = 0 if rng.random() < p0 else 1
                chosen = f0 if bit == 0 else looped_block_measure(block, system, offset, seg + [1])
            else:
                f0 = prev * 0.5
                bit = 0 if rng.random() < 0.5 else 1
                chosen = f0
            conds[pos] = chosen / prev
            bits[pos] = bit
            prev = chosen
            seg.append(bit)
    return bits, conds


def per_value_dumps(obj):
    """Canonical JSON with one recursive call per value."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{per_value_dumps(obj[k])}" for k in sorted(obj)) + "}"
    return "[" + ",".join(per_value_dumps(x) for x in obj) + "]"


def systems():
    return {
        "standard": MeasurementSystem.standard(),
        "hadamard": MeasurementSystem.hadamard(),
        "rotation": MeasurementSystem.rotation([0.41, 0.93, 1.17, 0.62, 0.85]),
        "explicit": random_basis(np.random.default_rng(20240817), periods=4),
    }


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def real_factors(rng, kind, shape):
    """Real per-qubit 2-vectors of shape ``shape + (2,)``, the inputs of the whole-array walk."""
    if kind == "hadamard":
        return rng.choice([-1.0, 1.0], size=shape + (2,)) / math.sqrt(2.0) + 0j
    if kind == "rotation":
        theta = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1) + 0j
    # standard: 0/1 components with zeros of both signs
    return rng.choice([0.0, -0.0, 1.0, -1.0], size=shape + (2,)) + 0j


REAL_KINDS = ["hadamard", "rotation", "standard"]


# ---------------------------------------------------------------------------
# the digit walk


@pytest.mark.parametrize("n", [1, 5, 10, 64, 70, 1100])
def test_paired_sum_is_the_loop_bit_for_bit(n, rng):
    counts = {0, 1, (1 << n) // n, (1 << (n - 1)) - 1, 1 << (n - 1), (1 << n) - 1}
    counts |= {int(rng.integers(0, 1 << min(n, 62))) for _ in range(3)}
    if n > 63:
        counts |= {(1 << 63) + 12345, (1 << n) - (1 << 63) - 1}
    for count in sorted(counts):
        batched = rng.normal(size=(7, n, 2)) + 1j * rng.normal(size=(7, n, 2))
        batched /= np.linalg.norm(batched, axis=-1, keepdims=True)
        assert same_bytes(paired_coordinate_sum(batched, count), looped_paired_sum(batched, count))
        for row in batched[:3]:
            assert same_bytes(paired_coordinate_sum(row, count), looped_paired_sum(row, count))
    # real factors take the whole-array walk; the full count 2^n joins them
    for kind in REAL_KINDS:
        real = real_factors(rng, kind, (7, n))
        for count in sorted(counts | {1 << n}):
            assert same_bytes(paired_coordinate_sum(real, count), looped_paired_sum(real, count))
            for row in real[:3]:
                assert same_bytes(paired_coordinate_sum(row, count), looped_paired_sum(row, count))
        # one count per row, as the padded walks pass them
        cycle = sorted(counts | {1 << n}, reverse=True)
        per_row = np.array([cycle[i % len(cycle)] for i in range(7)], dtype=object)
        sums = paired_coordinate_sum(real, per_row)
        for row, count, value in zip(real, per_row, sums):
            assert same_bytes(value, looped_paired_sum(row, count)), (kind, count)


def test_paired_sum_matches_on_signed_zeros_and_one_row(rng):
    # integer-valued factors put exact zeros of both signs into the walk
    factors = np.round(rng.normal(size=(1, 9, 2)) + 1j * rng.normal(size=(1, 9, 2)))
    for count in range(0, 1 << 9, 7):
        assert same_bytes(paired_coordinate_sum(factors, count), looped_paired_sum(factors, count))
        one = factors[0]
        assert same_bytes(paired_coordinate_sum(one, count), looped_paired_sum(one, count))
    # the same on the real walk: rounded reals and 0/1 factors with signed zeros
    for real in (np.round(rng.normal(size=(1, 9, 2))) + 0j, real_factors(rng, "standard", (1, 9))):
        for count in list(range(0, 1 << 9, 7)) + [(1 << 9) - 1, 1 << 9]:
            assert same_bytes(paired_coordinate_sum(real, count), looped_paired_sum(real, count))
            one = real[0]
            assert same_bytes(paired_coordinate_sum(one, count), looped_paired_sum(one, count))


def test_chosen_factors_index_the_periodic_table(rng):
    system = random_basis(rng, periods=3)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=11))
    for offset in (0, 1, 5):
        assert same_bytes(system.chosen_factors(bits, offset), looped_factors(system, bits, offset))
    assert system.chosen_factors("", 2).shape == (0, 2)
    with pytest.raises(BadQuery):
        system.chosen_factors("0120")
    with pytest.raises(BadQuery):
        block_measure(build_corner_block(5), system, 0, (0, 1, 2, 0, 1))


# ---------------------------------------------------------------------------
# the sampler


@pytest.mark.parametrize("kind", ["standard", "hadamard", "rotation", "explicit"])
def test_sampler_is_the_per_bit_loop(kind):
    system = systems()[kind]
    for seed in (0, 1, 7):
        for length in (0, 1, 4, 5, 130, 10_000):
            sample = sample_bits(FactoredState.witness_state(), system, length, seed)
            bits, conds = per_bit_sample(FactoredState.witness_state(), system, length, seed)
            assert same_bytes(sample.bits, bits), (seed, length)
            assert same_bytes(sample.conditional_probs, conds), (seed, length)


@pytest.mark.parametrize("kind", ["hadamard", "explicit"])
def test_sampler_pads_blocks_of_unequal_sizes(kind):
    # blocks of very different sizes share one walk, padded below their first qubit
    sizes = [9, 1, 2, 40, 3, 17, 1, 64, 5, 70, 2, 33]
    blocks = [
        DensityBlock(n, (1 << (n - 1)) * (i % 3) // 2, 2.0**-n * (i % 4) / 3)
        for i, n in enumerate(sizes)
    ]
    state = FactoredState.from_blocks(blocks)
    system = systems()[kind]
    for seed in (0, 1, 7):
        sample = sample_bits(state, system, sum(sizes), seed)
        bits, conds = per_bit_sample(state, system, sum(sizes), seed)
        assert same_bytes(sample.bits, bits)
        assert same_bytes(sample.conditional_probs, conds)


@pytest.fixture(scope="module")
def deep_oracle():
    """The per-bit sampler at the longest length that succeeds, and its first failure."""
    system = MeasurementSystem.hadamard()
    bits, conds = per_bit_sample(FactoredState.witness_state(), system, LONGEST, 0)
    with pytest.raises(MeasureZeroPrefix) as failure:
        per_bit_sample(FactoredState.witness_state(), system, LONGEST + 1, 0)
    return bits, conds, str(failure.value)


@pytest.mark.parametrize("length", [SUBNORMAL_EDGE, LONGEST])
def test_sampler_matches_in_the_subnormal_range(deep_oracle, length):
    bits, conds, _ = deep_oracle
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericHealthWarning)
        sample = sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), length, 0)
    assert same_bytes(sample.bits, bits[:length])
    assert same_bytes(sample.conditional_probs, conds[:length])
    # block n=1075's measures underflow to 0, and block n=1076's step 1074
    # halves the smallest subnormal to 0: both record a conditional of 0
    assert sample.conditional_probs[-1] == 0.0


@pytest.mark.parametrize("length", [LONGEST + 1, 600_000])
def test_sampler_fails_at_the_same_block(deep_oracle, length):
    _, _, message = deep_oracle
    assert message == "prefix of measure zero inside block 1071 (offset 578340)"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericHealthWarning)
        with pytest.raises(MeasureZeroPrefix) as failure:
            sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), length, 0)
    assert str(failure.value) == message


def test_doomed_length_fails_before_drawing_or_walking(deep_oracle, monkeypatch):
    _, _, message = deep_oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("a doomed length must not draw or walk")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(measurement, "_block_measures", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericHealthWarning)  # no block is walked, so none warns
        with pytest.raises(MeasureZeroPrefix) as failure:
            sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), LONGEST + 1, 0)
    assert str(failure.value) == message


def test_underflow_warns_once_past_block_1022():
    system = MeasurementSystem.hadamard()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample_bits(FactoredState.witness_state(), system, BLOCK_1022, 0)
    assert not [w for w in caught if issubclass(w.category, NumericHealthWarning)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample_bits(FactoredState.witness_state(), system, BLOCK_1023_END, 0)
    health = [w for w in caught if issubclass(w.category, NumericHealthWarning)]
    assert len(health) == 1
    assert str(health[0].message).startswith("block 1018 (n=1023, offset 522743) has subnormal")


def test_underflow_warning_leaves_the_output_alone(deep_oracle):
    bits, conds, _ = deep_oracle
    with pytest.warns(NumericHealthWarning):
        sample = sample_bits(
            FactoredState.witness_state(), MeasurementSystem.hadamard(), BLOCK_1023_END, 0
        )
    assert same_bytes(sample.bits, bits[:BLOCK_1023_END])
    assert same_bytes(sample.conditional_probs, conds[:BLOCK_1023_END])


# ---------------------------------------------------------------------------
# premeasure


def per_block_premeasure(state, system, bits):
    """The premeasure as one looped block measure per complete block, then 2^-take."""
    measures, cut = [], 1.0
    for block, offset, take in state.segments(len(bits)):
        if take == block.n:
            measures.append(looped_block_measure(block, system, offset, bits[offset : offset + take]))
        else:
            cut = math.ldexp(1.0, -take)
    return clamp01(math.prod(measures) * cut)


def general_state():
    sizes = range(5, 81)  # 3,230 qubits
    return FactoredState.general_family(
        {n: (1 << n) // n // 2 for n in sizes}, {n: 0.7 * 2.0**-n for n in sizes}
    )


PREMEASURE_STATES = {
    "witness": FactoredState.witness_state,
    "mixed": FactoredState.maximally_mixed,
    "general": general_state,
}


@pytest.mark.parametrize("state_name", sorted(PREMEASURE_STATES))
@pytest.mark.parametrize("kind", ["standard", "hadamard", "rotation", "explicit"])
def test_premeasure_is_the_per_block_product(kind, state_name, rng):
    state, system = PREMEASURE_STATES[state_name](), systems()[kind]
    for length in list(range(60)) + [100, 500, 700, 1000, 3000]:
        bits = [int(b) for b in rng.integers(0, 2, size=length)]
        expected = per_block_premeasure(state, system, bits)
        assert same_bytes(premeasure(state, system, bits), expected), length


def test_premeasure_walks_all_complete_blocks_at_once(monkeypatch):
    calls = []

    def counted(factors, count):
        calls.append(np.shape(factors))
        return paired_coordinate_sum(factors, count)

    monkeypatch.setattr(measurement, "paired_coordinate_sum", counted)
    bits = [int(b) for b in np.random.default_rng(3).integers(0, 2, size=2000)]
    value = premeasure(FactoredState.witness_state(), MeasurementSystem.hadamard(), bits)
    # blocks 5..62 are complete, 58 rows padded to 62 qubits; block 63 is cut after 57 qubits
    assert calls == [(58, 1, 62, 2)]
    assert value == per_block_premeasure(
        FactoredState.witness_state(), MeasurementSystem.hadamard(), bits
    )


def test_premeasure_underflow_warns_once():
    state, system = FactoredState.maximally_mixed(), MeasurementSystem.standard()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert premeasure(state, system, "0" * 40) == 2.0**-40
    assert not [w for w in caught if issubclass(w.category, NumericHealthWarning)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = premeasure(state, system, "0" * 1100)
    health = [w for w in caught if issubclass(w.category, NumericHealthWarning)]
    assert value == per_block_premeasure(state, system, [0] * 1100) == 0.0
    assert len(health) == 1
    # one-qubit blocks: the factor of block 1022 takes the product to 2**-1023
    assert str(health[0].message).startswith(
        "premeasure underflows at block 1022 (n=1, offset 1022)"
    )


# ---------------------------------------------------------------------------
# output files


def test_written_files_are_the_per_line_and_per_value_output(tmp_path):
    sample = sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), 1000, 3)
    bits_path, sidecar_path = sample.write(str(tmp_path / "s"))
    text = "".join("1" if b else "0" for b in sample.bits)
    lines = "".join(text[i : i + 64] + "\n" for i in range(0, len(text), 64))
    assert Path(bits_path).read_text(encoding="ascii") == lines
    sidecar = dict(sample.sidecar(), conditional_probs=[float(c) for c in sample.conditional_probs])
    assert Path(sidecar_path).read_text(encoding="ascii") == per_value_dumps(sidecar) + "\n"
    assert sample.bit_string() == text
    empty = BitSample(np.zeros(0, dtype=np.uint8), 0, "b", "s", np.ones(0))
    assert empty.bit_string() == ""


def test_flat_float_payloads_match_the_per_value_writer(rng):
    values = np.concatenate(
        [rng.normal(size=50), [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1]]
    ).tolist()
    table = {format(i, "06b")[::-1]: v for i, v in enumerate(values)}
    for doc in (values, table, {"t": table, "v": values, "n": [1, 2.5], "e": [], "o": {}}):
        assert canonical_dumps(doc) == per_value_dumps(doc)
    # the writer formats each distinct bit pattern once and indexes the results back
    hadamard14 = measurement.premeasure_table_factored(
        FactoredState.witness_state(), MeasurementSystem.hadamard(), 14
    ).tolist()
    assert len(set(hadamard14)) == 4
    docs = [
        [0.0, -0.0, 0.0, -0.0],
        [5e-324, -5e-324, 0.5, 5e-324],
        [0.5] * 100_000,
        rng.normal(size=1000).tolist(),
        [],
        {format(i, "014b")[::-1]: v for i, v in enumerate(hadamard14)},
    ]
    for doc in docs:
        assert canonical_dumps(doc) == per_value_dumps(doc)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            canonical_dumps([0.5, bad, 0.5])
        with pytest.raises(ValueError):
            canonical_dumps({"a": 0.5, "b": bad})
    with pytest.raises(ValueError):
        canonical_dumps([0.5, math.inf])
    with pytest.raises(ValueError):
        canonical_dumps({"a": math.nan})
    with pytest.raises(TypeError):
        canonical_dumps({1: 0.5})
