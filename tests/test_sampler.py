"""The block-wise sampler and the batched corner sums against the per-bit code they replaced.

The per-bit sampler, the per-position paired-sum loops, the per-qubit factor
loop, the per-block premeasure product and the per-value JSON writer live on
here as oracles.  The rewrite must reproduce them byte for byte: the same
bits, the same conditionals, the same paired sums, batched or not, the same
premeasures, and the same error at the first prefix of measure zero.  On
real bases the sampler's output over a grid of lengths and seeds, warnings
included, is pinned by digests of the padded walk it replaced.  Real pair
factors take the closed form r * prod(f0), which is also held to its exact
``Fraction`` value.
"""

import hashlib
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qmeas.cli import main
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

from conftest import random_basis, random_unit_pair
from exact import exact_real_measure, exact_real_sum, segments

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


def looped_closed_form(factors, count):
    """(count / 2^n) * prod(2 Re f0), one Python product per qubit position.

    The sum itself for real pair factors f0, and for any factors at the full
    count 2^n, where it is the product of all pair sums f0 + conj(f0).
    """
    factors = np.asarray(factors, dtype=complex)
    n = factors.shape[-2]
    f0 = (np.conj(factors[..., 0]) * factors[..., 1]).real
    out = np.empty(f0.shape[:-1], dtype=complex)
    for index in np.ndindex(out.shape):
        product = 1.0
        for x in f0[index].tolist():
            product *= 2.0 * x
        out[index] = int(count) / (1 << n) * product + 0.0
    return out if out.ndim else complex(out[()])


def looped_sum(factors, count):
    """The oracle of the branch one row takes: the walk on complex pair factors below the full count."""
    factors = np.asarray(factors, dtype=complex)
    if count < 1 << factors.shape[-2] and np.any((np.conj(factors[..., 0]) * factors[..., 1]).imag):
        return looped_paired_sum(factors, count)
    return looped_closed_form(factors, count)


def assert_near_exact(value, exact, n):
    """A real sum against its exact value: |value - exact| <= n u |exact| with u = 2^-53.

    Zero is exact; the bound is checked where ``exact`` rounds into the
    normal range (the largest seen is 0.54 n u, on Hadamard factors).
    """
    if exact == 0:
        assert value == 0.0
    elif abs(float(exact)) >= sys.float_info.min:
        assert abs(Fraction(value) - exact) <= n * Fraction(1, 1 << 53) * abs(exact), (value, n)


def looped_factors(system, bits, offset=0):
    out = np.empty((len(bits), 2), dtype=complex)
    for i, b in enumerate(bits):
        out[i] = system.basis_at(offset + i + 1)[b]
    return out


def looped_block_measure(block, system, offset, bits):
    """One block measure, its corner sum from the loop of the branch it takes (``looped_sum``)."""
    s = looped_sum(looped_factors(system, bits, offset), block.corner_count)
    return clamp01(float(block.diag_value + block.corner_value * 2.0 * np.real(s)), "block measure")


def per_bit_sample(state, system, length, seed):
    """The sampler as one uniform draw and one Python iteration per bit."""
    rng = np.random.default_rng(seed)
    bits = np.zeros(length, dtype=np.uint8)
    conds = np.ones(length, dtype=float)
    for index, (block, offset, take) in enumerate(segments(state, length)):
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
        "real-explicit": MeasurementSystem.explicit(real_pairs(np.random.default_rng(11), 3)),
    }


REAL_BASES = ["hadamard", "real-explicit", "rotation", "standard"]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def real_factors(rng, kind, shape):
    """Real per-qubit 2-vectors of shape ``shape + (2,)``, the inputs of the closed form."""
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
    # real factors take the closed form, full count 2^n included: its loop
    # pins the bytes, and each sum stays near its exact value
    for kind in REAL_KINDS:
        real = real_factors(rng, kind, (7, n))
        products = [exact_real_sum(row, 1) for row in real]
        for count in sorted(counts | {1 << n}):
            sums = paired_coordinate_sum(real, count)
            assert same_bytes(sums, looped_closed_form(real, count))
            assert np.all(np.isfinite(sums))
            for product, value in zip(products, sums):
                assert_near_exact(value.real, count * product, n)
            for row in real[:3]:
                assert same_bytes(paired_coordinate_sum(row, count), looped_closed_form(row, count))
        # one count per row, as the padded walks pass them
        cycle = sorted(counts | {1 << n}, reverse=True)
        per_row = np.array([cycle[i % len(cycle)] for i in range(7)], dtype=object)
        sums = paired_coordinate_sum(real, per_row)
        for row, count, value in zip(real, per_row, sums):
            assert same_bytes(value, looped_closed_form(row, count)), (kind, count)


def test_paired_sum_matches_on_signed_zeros_and_one_row(rng):
    # integer-valued factors put exact zeros of both signs into the walk
    factors = np.round(rng.normal(size=(1, 9, 2)) + 1j * rng.normal(size=(1, 9, 2)))
    for count in range(0, 1 << 9, 7):
        assert same_bytes(paired_coordinate_sum(factors, count), looped_paired_sum(factors, count))
        one = factors[0]
        assert same_bytes(paired_coordinate_sum(one, count), looped_paired_sum(one, count))
    # the closed form on integer-valued real factors, signed zeros included, is
    # exact; its zero sums are +0.0 (the walk's product of pair sums can give -0.0)
    for real in (np.round(rng.normal(size=(1, 9, 2))) + 0j, real_factors(rng, "standard", (1, 9))):
        for count in list(range(0, 1 << 9, 7)) + [(1 << 9) - 1, 1 << 9]:
            value = paired_coordinate_sum(real, count)
            assert same_bytes(value, looped_closed_form(real, count))
            assert value[0] == exact_real_sum(real[0], count)
            one = paired_coordinate_sum(real[0], count)
            assert same_bytes(one, looped_closed_form(real[0], count))
            if one == 0:
                assert math.copysign(1.0, one.real) == math.copysign(1.0, one.imag) == 1.0


def real_pairs(rng, count):
    """``count`` random real orthonormal basis pairs, explicit-basis input."""
    pairs = []
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=count):
        c, s = math.cos(theta), math.sin(theta)
        pairs.append(((c, s), (s, -c)))
    return pairs


def test_real_rows_keep_their_bytes_beside_complex_rows(rng):
    # a period of 40 real pairs and one complex pair: rows inside the real
    # run take the closed form, rows that meet the complex pair walk
    system = MeasurementSystem.explicit(real_pairs(rng, 40) + [random_unit_pair(rng)])
    bits = [int(b) for b in rng.integers(0, 2, size=400)]
    batch = np.stack([system.chosen_factors(bits[q : q + 9], q) for q in range(60)])
    f0 = np.conj(batch[..., 0]) * batch[..., 1]
    assert 0 < np.count_nonzero(np.any(f0.imag, axis=-1)) < 60
    for count in (0, 1, 56, 255, 511, 512):
        sums = paired_coordinate_sum(batch, count)
        for row, value in zip(batch, sums):
            assert same_bytes(value, paired_coordinate_sum(row, count))
            assert same_bytes(value, looped_sum(row, count))
    # premeasure batches every complete block into one call; the sampler
    # batches the last-bit measures of its blocks
    state = FactoredState.witness_state()
    for length in (100, 400):
        expected = per_block_premeasure(state, system, bits[:length])
        assert same_bytes(premeasure(state, system, bits[:length]), expected)
    sample = sample_bits(state, system, 400, 5)
    for block, offset, take in segments(state, 400):
        if take == block.n:
            chosen = sample.bits[offset : offset + take].tolist()
            measure = block_measure(block, system, offset, chosen)
            assert sample.conditional_probs[offset + take - 1] == measure / 2.0 ** (1 - block.n)


@pytest.mark.parametrize("kind", ["hadamard", "rotation", "real-explicit"])
def test_real_block_measures_are_within_one_ulp_of_exact(kind, rng):
    system = {
        "hadamard": MeasurementSystem.hadamard(),
        "rotation": MeasurementSystem.rotation(rng.uniform(0.0, 2.0 * math.pi, size=7)),
        "real-explicit": MeasurementSystem.explicit(real_pairs(rng, 5)),
    }[kind]
    for n in list(range(5, 41)) + list(range(41, 1021, 47)) + [1020]:
        block = build_corner_block(n)
        for _ in range(3):
            bits = [int(b) for b in rng.integers(0, 2, size=n)]
            offset = int(rng.integers(0, 10))
            nearest = float(exact_real_measure(block, system.chosen_factors(bits, offset)))  # correctly rounded
            # Hadamard measures are sometimes one float off, the rest were all correctly rounded
            steps = (math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, 1.0))
            assert block_measure(block, system, offset, bits) in steps, (n, bits)


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


def sandwich_state():
    """A corner-free block between corner blocks, then corner blocks of growing size."""
    head = [build_corner_block(5), DensityBlock(12, 0, 0.0), build_corner_block(7)]
    return FactoredState(head + [build_corner_block(n) for n in range(8, 150)])


@pytest.mark.parametrize("kind", ["standard", "hadamard", "rotation", "explicit"])
def test_sampler_is_the_per_bit_loop(kind):
    system = systems()[kind]
    for make_state in (FactoredState.witness_state, sandwich_state):
        for seed in (0, 1, 7):
            for length in (0, 1, 4, 5, 17, 130, 10_000):
                sample = sample_bits(make_state(), system, length, seed)
                bits, conds = per_bit_sample(make_state(), system, length, seed)
                assert same_bytes(sample.bits, bits), (seed, length)
                assert same_bytes(sample.conditional_probs, conds), (seed, length)


@pytest.mark.parametrize("length", [0, 1, 130, 100_000, 600_000, 1_000_000])
def test_mixed_sampling_is_the_fair_coin(length):
    """Every conditional of the maximally mixed state is 1/2 and every bit u >= 0.5, at any
    length: its corner-free blocks have no float limit.  10^6 qubits need 1,410 blocks."""
    state = FactoredState.maximally_mixed()
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericHealthWarning)
        sample = sample_bits(state, MeasurementSystem.hadamard(), length, 5)
    fair = np.random.default_rng(5).random(length) >= 0.5
    assert same_bytes(sample.bits, fair.view(np.uint8))
    assert same_bytes(sample.conditional_probs, np.full(length, 0.5))
    if length == 1_000_000:
        assert len(state.blocks) == 1410


@pytest.mark.parametrize("kind", sorted(systems()))
def test_sampler_pads_blocks_of_unequal_sizes(kind):
    # blocks of very different sizes share one walk, padded below their first qubit
    sizes = [9, 1, 2, 40, 3, 17, 1, 64, 5, 70, 2, 33]
    state = FactoredState([DensityBlock(n, (1 << (n - 1)) * (i % 3) // 2, (i % 4) / 3) for i, n in enumerate(sizes)])
    system = systems()[kind]
    for seed in (0, 1, 7):
        got = recorded(sample_bits, state, system, sum(sizes), seed)
        assert got == recorded(per_bit_sample, state, system, sum(sizes), seed), seed
    # blocks of sizes 1 and 2 with corners, corner-free blocks and uneven sizes in
    # one string, cut at every length: the same bits, conditionals and warnings
    for length in range(sum(block.n for block in uneven_state().blocks) + 1):
        got = recorded(sample_bits, uneven_state(), system, length, length)
        assert got == recorded(per_bit_sample, uneven_state(), system, length, length), length


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
    monkeypatch.setattr(measurement, "_string_measures", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericHealthWarning)  # no block is walked, so none warns
        with pytest.raises(MeasureZeroPrefix) as failure:
            sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), LONGEST + 1, 0)
    assert str(failure.value) == message


def test_doomed_cli_sample_fails_before_drawing(capsys, tmp_path, monkeypatch):
    """``sample --bits 600000`` ends in one error document, with no draw and no file written."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a doomed length must not draw")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    assert main(["sample", "--bits", "600000", "--out-prefix", "deep"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "measure_zero_prefix",
        "message": "prefix of measure zero inside block 1071 (offset 578340)",
    }
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("state", [FactoredState.witness_state, FactoredState.maximally_mixed])
def test_sampling_builds_no_density_block(state, monkeypatch):
    """The sampler reads the state's block columns; growing a built-in state appends fields only."""
    built = []
    check = DensityBlock.__post_init__

    def counted(block):
        built.append(block.n)
        check(block)

    monkeypatch.setattr(DensityBlock, "__post_init__", counted)
    for system in systems().values():
        sample = sample_bits(state(), system, 100_000, 3)
        assert len(sample) == 100_000
    assert built == []


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
# the segmented product on real bases


def recorded(call, *args):
    """``call(*args)`` as comparable values: its result or ``MeasureZeroPrefix`` message, and its
    warnings.  A sample's bits are compared as bytes and its conditionals as uint64 bit patterns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call(*args)
        except MeasureZeroPrefix as exc:
            out = str(exc)
    if isinstance(out, BitSample):
        out = (out.bits, out.conditional_probs)
    if isinstance(out, tuple):
        out = (np.asarray(out[0], dtype=np.uint8).tobytes(), out[1].view(np.uint64).tolist())
    return out, [(w.category, str(w.message)) for w in caught]


def uneven_state():
    """Blocks with corners of sizes 1 to 70 out of order, and two corner-free blocks."""
    sizes = [9, 1, 2, 40, 3, 17, 1, 64, 5, 70, 2, 33, 1, 1]
    blocks = [
        DensityBlock(n, max(1, (1 << (n - 1)) * (i % 3) // 2), (i % 4 + 1) / 4)
        for i, n in enumerate(sizes)
    ]
    return FactoredState(blocks[:5] + [DensityBlock(4, 0, 0.0)] + blocks[5:] + [DensityBlock(1, 0, 0.0)])


# 9 ends inside block n=6; block 1018 (n=1023, offset 522,743) has the first
# subnormal measure, and LONGEST + 1 is the first length of measure zero
SEGMENTED_LENGTHS = [0, 1, 5, 6, 9, 1000, 100_000, 522_742, 522_743, BLOCK_1023_END, LONGEST, LONGEST + 1]
SAMPLER_GRID = [(n, seed) for n in SEGMENTED_LENGTHS for seed in ((0, 1, 7) if n <= 100_000 else (0, 5))]

# sample_digest of each SAMPLER_GRID case in order, as written by the padded walk
# that read every basis's blocks as padded groups of rows (recorded at commit 2dd40d8)
PADDED_WALK_DIGESTS = {
    "hadamard": """374708ff 374708ff 374708ff ae14dad5 ae14dad5 ae14dad5 aff9d387 4271cd46 0e81102d 62850b5d
        7ab59ab7 aef28795 3e2af36a 1022e9fa 2d115cc3 7d0ec246 94e77a06 074a9c20 363c5d80 7ef79859 a774b2b6
        e1e24e95 cd1c675b 380d97d9 2220322d 70422441 3acb6cc2 54ce8c74 c9366a64 f1e87793 f1e87793""".split(),
    "real-explicit": """374708ff 374708ff 374708ff ae14dad5 ae14dad5 ae14dad5 8eb48a81 4e14495b dd8d52f0 947fda99
        75f09acd fcf5b9ae a9c8f0db 5ef7ea29 7c91503f 85f63204 96d62195 0ded9887 8903b22e 2c8ea9e1 eb8f8144
        37a82e7a 83c627d7 426975a4 fc22e770 8feb97ab 4e9ef589 f4979c65 6af96749 f1e87793 f1e87793""".split(),
    "rotation": """374708ff 374708ff 374708ff ae14dad5 ae14dad5 ae14dad5 f569273a 429083e3 0d135c32 55824145
        45a8b9e5 ed792f8c a6c99323 ffe1b399 608869fb 891a420a 1f1e9bb9 11b0519b beef41a0 8fadf350 52a51adc
        38669efe 059dc144 25821202 4ed79c71 64a910f6 6cb4006c 7613c1db b7cfaa1e f1e87793 f1e87793""".split(),
    "standard": """374708ff 374708ff 374708ff ae14dad5 ae14dad5 ae14dad5 e5ccf685 0b614a74 731e2215 a91d515b
        34340eb8 640b1c28 8de39817 4bbb370e 5d10adb0 f7f3b4c4 a995da9b 3f912442 54bee0b6 93671b01 b52ee7c9
        8a73ee57 9fad4c5d 2fb5b590 0e4c0480 2f0797cb 5b93c812 3a6baa5c 0a6f05dd f1e87793 f1e87793""".split(),
}


def sample_digest(system, length, seed):
    """8 hex digits of the sha256 of a witness-state sample, or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sample = sample_bits(FactoredState.witness_state(), system, length, seed)
            parts = [sample.bits.tobytes(), sample.conditional_probs.tobytes()]
        except MeasureZeroPrefix as exc:
            parts = [str(exc).encode()]
    parts += [f"{w.category.__name__}: {w.message}".encode() for w in caught]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()[:8]


@pytest.mark.parametrize("kind", REAL_BASES)
def test_real_sampling_is_the_padded_walk(kind):
    system = systems()[kind]
    got = [sample_digest(system, length, seed) for length, seed in SAMPLER_GRID]
    assert dict(zip(SAMPLER_GRID, got)) == dict(zip(SAMPLER_GRID, PADDED_WALK_DIGESTS[kind]))


def test_only_complex_bases_walk(monkeypatch):
    walked = []
    walk = measurement._walk_groups

    def counted(blocks, k):
        walked.append(k)
        return walk(blocks, k)

    def forbidden(*args, **kwargs):
        raise AssertionError("a real basis must not walk")

    monkeypatch.setattr(measurement, "_walk_groups", counted)
    state = FactoredState.witness_state
    bits = [int(b) for b in np.random.default_rng(4).integers(0, 2, size=1000)]
    for kind in ["explicit"] + REAL_BASES:
        system = systems()[kind]
        if kind != "explicit":
            monkeypatch.setattr(measurement, "_walk_groups", forbidden)
            monkeypatch.setattr(measurement, "_read_outcomes", forbidden)
        sample = sample_bits(state(), system, 1000, 0)
        value = premeasure(state(), system, bits)
        want_bits, want_conds = per_bit_sample(state(), system, 1000, 0)
        assert same_bytes(sample.bits, want_bits) and same_bytes(sample.conditional_probs, want_conds)
        assert value == per_block_premeasure(state(), system, bits)
    assert walked == [2, 1]  # the sampler's walk, then the premeasure's


def complete_rows(state, length, corners_only=False):
    """Columns of the complete blocks of a string of ``length`` bits, in string order."""
    columns = state.columns(length)
    keep = columns.offset + columns.n <= length
    if corners_only:
        keep &= columns.count.astype(bool)
    return columns[keep]


@pytest.mark.parametrize("kind", sorted(systems()))
def test_string_measures_are_one_array_on_every_basis(kind):
    system = systems()[kind]
    cases = [(FactoredState.witness_state(), length) for length in (0, 4, 5, 9, 10_000)]
    cases += [(FactoredState.maximally_mixed(), 1000), (uneven_state(), 250)]
    for state, length in cases:
        string = np.random.default_rng(length).integers(0, 2, size=length)
        for k in (1, 2):
            # the sampler reads only blocks with corners: none on the mixed state
            for rows in (complete_rows(state, length), complete_rows(state, length, k == 2)):
                measures = measurement._string_measures(system, rows, string, k)
                assert isinstance(measures, np.ndarray) and measures.dtype == float
                assert measures.shape == (len(rows), k), (length, k)


def test_clipping_warns_once_per_call_on_a_complex_walk(monkeypatch):
    """A string's measures are clipped as one array, however many walk groups fill it."""
    state, system, length = FactoredState.witness_state, systems()["explicit"], 10_000
    for k, corners_only in ((1, False), (2, True)):
        sizes = complete_rows(state(), length, corners_only).n.tolist()
        assert len(list(measurement._walk_groups(sizes, k))) >= 2
    walk = measurement._block_measures
    # 2 in every group, so every group's clip moves by 1, far past the rounding scale
    monkeypatch.setattr(measurement, "_block_measures", lambda *args: np.full_like(walk(*args), 2.0))
    bits = [int(b) for b in np.random.default_rng(5).integers(0, 2, size=length)]
    for call, args in ((sample_bits, (state(), system, length, 0)), (premeasure, (state(), system, bits))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(*args)
        assert [(w.category, str(w.message)) for w in caught] == [
            (NumericHealthWarning, "block measure clamped by 1.000e+00, beyond the rounding scale")
        ], call


# ---------------------------------------------------------------------------
# premeasure


def per_block_premeasure(state, system, bits):
    """The premeasure as one looped block measure per complete block, then 2^-take.

    Each block's corner sum comes from the loop of its branch (``looped_sum``).
    """
    measures, cut = [], 1.0
    for block, offset, take in segments(state, len(bits)):
        if take == block.n:
            part = bits[offset : offset + take]
            measures.append(looped_block_measure(block, system, offset, part))
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
    "uneven": uneven_state,
}
# the witness, general and mixed states' blocks of sizes 5..45 end at bit 1,025, where the
# product of their factors leaves the normal range
UNDERFLOW = "premeasure underflows at block 40 (n=45, offset 980): the product of positive block factors is 0.0"


@pytest.mark.parametrize("state_name", sorted(PREMEASURE_STATES))
@pytest.mark.parametrize("kind", sorted(systems()))
def test_premeasure_is_the_per_block_product(kind, state_name, rng):
    """The same premeasure, and one warning where the product leaves the normal range."""
    state, system = PREMEASURE_STATES[state_name](), systems()[kind]
    lengths = list(range(60)) + [100, 500, 700, 1000, 3000]
    if state_name == "witness":
        lengths.append(100_000)
    elif state_name == "uneven":
        lengths = range(sum(block.n for block in state.blocks) + 1)  # every cut
    for length in lengths:
        bits = [int(b) for b in rng.integers(0, 2, size=length)]
        value, caught = recorded(premeasure, state, system, bits)
        assert same_bytes(value, per_block_premeasure(state, system, bits)), length
        assert caught == ([(NumericHealthWarning, UNDERFLOW)] if length > 1025 else []), length


def test_premeasure_walks_all_complete_blocks_at_once(monkeypatch):
    calls = []

    def counted(factors, count):
        calls.append(np.shape(factors))
        return paired_coordinate_sum(factors, count)

    monkeypatch.setattr(measurement, "paired_coordinate_sum", counted)
    bits = [int(b) for b in np.random.default_rng(3).integers(0, 2, size=2000)]
    state = FactoredState.witness_state
    # a complex basis walks: blocks 5..62 are complete, and block 63, cut
    # after 57 qubits, joins them as a corner-free row; 59 rows padded to 62 qubits
    complex_system = systems()["explicit"]
    value = premeasure(state(), complex_system, bits)
    assert calls == [(59, 1, 62, 2)]
    assert value == per_block_premeasure(state(), complex_system, bits)
    # a real basis takes one segmented product and no paired sum
    calls.clear()
    value = premeasure(state(), MeasurementSystem.hadamard(), bits)
    assert calls == []
    assert value == per_block_premeasure(state(), MeasurementSystem.hadamard(), bits)


@pytest.mark.parametrize("length", [10_000, 100_000])
def test_complex_premeasure_over_several_walk_groups(length):
    """Two and eight walk groups: each block factor is its looped block measure."""
    state, system = FactoredState.witness_state(), systems()["explicit"]
    bits = [int(b) for b in np.random.default_rng(length).integers(0, 2, size=length)]
    rows = complete_rows(state, length)
    assert len(list(measurement._walk_groups(rows.n.tolist(), 1))) >= 2
    measures = measurement._string_measures(system, rows, np.array(bits), 1)[:, 0]
    complete = [(block, offset) for block, offset, take in segments(state, length) if take == block.n]
    looped = [looped_block_measure(block, system, offset, bits[offset : offset + block.n]) for block, offset in complete]
    assert same_bytes(clamp01(measures, "block measure"), np.array(looped))


def test_premeasure_underflow_warns_once():
    state, system = FactoredState.maximally_mixed(), MeasurementSystem.standard()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert premeasure(state, system, "0" * 40) == 2.0**-40
    assert not [w for w in caught if issubclass(w.category, NumericHealthWarning)]
    # blocks of sizes 5, 6, ...: block n=45 takes the product below the normal range,
    # whole or cut after 44 qubits, and the warning names its own size
    for length in (1024, 1100):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = premeasure(state, system, "0" * length)
        health = [w for w in caught if issubclass(w.category, NumericHealthWarning)]
        assert value == per_block_premeasure(state, system, [0] * length) == 2.0**-length
        assert len(health) == 1
        assert str(health[0].message).startswith("premeasure underflows at block 40 (n=45, offset 980)")


# ---------------------------------------------------------------------------
# output files


def test_written_files_are_the_per_line_and_per_value_output(tmp_path):
    # full rows of 64 digits, and a short last line or none
    for length in (0, 1, 63, 64, 65, 128, 1000):
        sample = sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), length, 3)
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
    # a 1-D float64 array goes to the same formatter whole; 2-D arrays and other
    # dtypes are written as today, row by row or value by value
    for doc in docs[:5] + [values]:
        assert canonical_dumps(np.array(doc, dtype=np.float64)) == per_value_dumps(doc)
    # the writer joins runs of equal bit patterns: runs of 0.0 next to -0.0, a run
    # at each end, single and alternating values, each as a list, a 1-D array and
    # a table
    runs = [
        [0.0] * 5 + [-0.0] * 3 + [0.0] * 2 + [-0.0],
        [0.5] * 7 + [0.25, 0.75] + [0.5] * 9,
        [0.1] * 4 + [0.2] + [0.3] * 2,
        [0.5],
        [0.5, 0.25] * 50,
        [0.5, -0.0, 0.5, 0.0, 5e-324],
        [1e300] * 3 + [-1e300] * 3 + [1e300],
    ]
    for doc in runs:
        assert canonical_dumps(doc) == per_value_dumps(doc)
        assert canonical_dumps(np.array(doc)) == per_value_dumps(doc)
        table = {format(i, "04d"): v for i, v in enumerate(doc)}
        assert canonical_dumps(table) == per_value_dumps(table)
    # the longest Hadamard stream on the witness state: its last conditional, at
    # the block's zero step, is 0.0, and 1,057 distinct values run through it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericHealthWarning)
        deep = sample_bits(FactoredState.witness_state(), MeasurementSystem.hadamard(), 579_415, 0)
    conditionals = deep.sidecar()["conditional_probs"]
    assert conditionals[-1] == 0.0 and len(np.unique(conditionals)) > 1000
    assert canonical_dumps(conditionals) == per_value_dumps(conditionals.tolist())
    for array in (np.array([[0.0, -0.0], [5e-324, -5e-324]]), np.array([0.1, -0.0], np.float32)):
        assert canonical_dumps(array) == per_value_dumps(array.tolist())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            canonical_dumps([0.5, bad, 0.5])
        with pytest.raises(ValueError):
            canonical_dumps({"a": 0.5, "b": bad})
        with pytest.raises(ValueError):
            canonical_dumps({"p": np.array([0.5, bad, 0.5])})
    with pytest.raises(ValueError):
        canonical_dumps([0.5, math.inf])
    with pytest.raises(ValueError):
        canonical_dumps({"a": math.nan})
    with pytest.raises(TypeError):
        canonical_dumps({1: 0.5})
