"""Measurement-induced premeasures and conditional bit sampling.

For a qubit-wise basis schedule B and a bit string tau, the premeasure is
p(tau) = <v|rho|v> with v the tensor product of the chosen basis vectors
(first qubit fastest).  On factored states the premeasure splits into one
factor per block; within a block of size n with corner pairs the factor has
the closed form

    diag + corner * 2*Re( sum_{k=1}^{r} conj(w_k) * w_{2^n-k+1} )

where w is the product vector of the block's chosen basis vectors.  Paired
coordinates sit at bitwise-complementary indices, so the sum collapses to a
product structure evaluated in O(n) by a binary prefix walk, independent of
how many corner pairs there are.  On real bases (standard, Hadamard,
rotation, real explicit pairs) the walk is whole-array float64 cumulative
products and sums, byte-identical to the positional walk that complex
bases keep (see ``paired_coordinate_sum``).  A block cut after ``take``
qubits contributes exactly 2**-take.  Blocks of different sizes share one
padded walk and one basis-table gather (``_block_measures``) in
``premeasure`` and the sampler; single blocks (``block_measure``) and
batches of one block (tables, the quadratic-bounds check) call
``product_quadratic_form`` directly.  Every measure and table is clipped to
[0, 1] by one ``clamp01``, which takes a float or a whole array: the sampler
and ``premeasure`` clip each walk group's measures at once.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .config import require_dense_qubits
from .errors import (
    BadQuery,
    BadSpec,
    MeasureZeroPrefix,
    NotOrthonormal,
    NumericHealthWarning,
)
from .matrixcore import require_unit_vector
from .states import DenseStatePrefix, DensityBlock, FactoredState

_CLAMP_WARN = 1e-9
# 2**-s halves exactly down to the smallest subnormal 2**-1074; one more
# halving rounds to zero.
_HALVINGS = sys.float_info.mant_dig - sys.float_info.min_exp
# entries (outcomes x qubits) per array of one walk over several blocks: float64
# on real bases, complex on the positional walk of complex ones
_WALK_ENTRIES = 1 << 14


def as_bits(tau) -> tuple[int, ...]:
    """Normalize a bit string ('0101', iterable of 0/1) to a tuple of ints."""
    if isinstance(tau, str):
        if any(c not in "01" for c in tau):
            raise BadQuery(f"bit strings may only contain 0 and 1, got {tau!r}")
        return tuple(int(c) for c in tau)
    out = []
    for b in tau:
        if b not in (0, 1):
            raise BadQuery(f"bit strings may only contain 0 and 1, got {b!r}")
        out.append(int(b))
    return tuple(out)


def clamp01(values, context: str = "premeasure"):
    """Clip a float, or an array elementwise, to [0, 1]; a float comes back a float.

    Values already in [0, 1] come back unchanged, -0.0 included.  One
    ``NumericHealthWarning`` per call names the largest move when it
    exceeds the rounding scale.
    """
    values = np.asarray(values, dtype=float)
    low, high = float(values.min(initial=0.0)), float(values.max(initial=1.0))
    if not (low >= 0.0 and high <= 1.0):  # NaN clips too, and stays NaN
        worst = max(-low, high - 1.0)
        if worst > _CLAMP_WARN:
            warnings.warn(
                f"{context} clamped by {worst:.3e}, beyond the rounding scale",
                NumericHealthWarning,
                stacklevel=3,
            )
        values = np.clip(values, 0.0, 1.0)
    return values if values.ndim else float(values)


class MeasurementSystem:
    """Qubit-wise orthonormal basis schedule, queried by 1-based position.

    The schedule is one [pair][bit] table of 2-vectors, extended periodically.
    """

    def __init__(self, pairs, label: str):
        self._table = np.array(pairs, dtype=complex)  # [pair][bit] -> 2-vector
        self.label = label
        for b0, b1 in self._table:
            require_unit_vector(b0, what="basis vector")
            require_unit_vector(b1, what="basis vector")
            overlap = abs(np.vdot(b0, b1))
            if overlap > 1e-9:
                raise NotOrthonormal(f"basis pair has overlap {overlap:.3e}")

    @classmethod
    def standard(cls) -> "MeasurementSystem":
        pair = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
        return cls([pair], "standard")

    @classmethod
    def hadamard(cls) -> "MeasurementSystem":
        s = 1.0 / math.sqrt(2.0)
        pair = (np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex))
        return cls([pair], "hadamard")

    @classmethod
    def rotation(cls, thetas) -> "MeasurementSystem":
        """Real rotations by a periodic angle schedule."""
        thetas = [float(t) for t in thetas]
        if not thetas:
            raise BadSpec("rotation schedule must not be empty")
        pairs = []
        for t in thetas:
            c, s = math.cos(t), math.sin(t)
            pairs.append(
                (np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex))
            )
        return cls(pairs, f"rotation[{len(thetas)}]")

    @classmethod
    def explicit(cls, pairs) -> "MeasurementSystem":
        """Explicit list of basis pairs, extended periodically."""
        norm = []
        for b0, b1 in pairs:
            norm.append(
                (
                    np.asarray(b0, dtype=complex).reshape(2),
                    np.asarray(b1, dtype=complex).reshape(2),
                )
            )
        if not norm:
            raise BadSpec("explicit basis list must not be empty")
        return cls(norm, f"explicit[{len(norm)}]")

    @classmethod
    def from_spec(cls, doc: dict) -> "MeasurementSystem":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise BadSpec("basis spec must be an object with a 'kind' field")
        kind = doc["kind"]
        if kind == "standard":
            return cls.standard()
        if kind == "hadamard":
            return cls.hadamard()
        if kind == "rotation":
            thetas = doc.get("theta")
            if not isinstance(thetas, list) or not thetas:
                raise BadSpec("rotation spec needs a non-empty 'theta' list")
            return cls.rotation(thetas)
        if kind == "explicit":
            raw = doc.get("pairs")
            if not isinstance(raw, list) or not raw:
                raise BadSpec("explicit spec needs a non-empty 'pairs' list")
            pairs = []
            for item in raw:
                if not isinstance(item, list) or len(item) != 2:
                    raise BadSpec("each explicit pair must be [b0, b1]")
                b0 = [jsonio.complex_from_json(z) for z in item[0]]
                b1 = [jsonio.complex_from_json(z) for z in item[1]]
                if len(b0) != 2 or len(b1) != 2:
                    raise BadSpec("basis vectors must have two components")
                pairs.append((b0, b1))
            return cls.explicit(pairs)
        raise BadSpec(f"unknown basis kind {kind!r}")

    def basis_at(self, q: int) -> np.ndarray:
        """Basis pair (b0, b1), the rows of a 2x2 array, measured at 1-based qubit position q."""
        if q < 1:
            raise BadQuery(f"qubit positions are 1-based, got {q}")
        return self._table[(q - 1) % len(self._table)]

    def chosen_factors(self, bits, offset: int = 0) -> np.ndarray:
        """Stacked 2-vectors chosen by ``bits`` at positions offset+1, offset+2, ..."""
        return self._chosen(np.array(as_bits(bits), dtype=np.intp), offset)

    def _chosen(self, bits: np.ndarray, offset) -> np.ndarray:
        """``chosen_factors`` of validated bits, shape (..., n) -> (..., n, 2).

        ``offset`` may be an int array that broadcasts against the batch shape
        with a trailing axis of one: each row then starts at its own offset.
        """
        positions = (offset + np.arange(bits.shape[-1])) % len(self._table)
        # rows of the flattened [pair][bit] table: one take beats two index arrays
        return np.take(self._table.reshape(-1, 2), 2 * positions + bits, axis=0)

    def product_vector(self, bits, offset: int = 0) -> np.ndarray:
        """Dense tensor product of the chosen basis vectors (first fastest)."""
        bits = as_bits(bits)
        require_dense_qubits(len(bits), "product vector")
        v = np.ones(1, dtype=complex)
        for i, b in enumerate(bits):
            # later qubits vary slower, so they multiply in on the left
            v = (self.basis_at(offset + i + 1)[b][:, None] * v[None, :]).reshape(-1)
        return v

    def outcome_factors(self, n: int, offset: int = 0) -> np.ndarray:
        """Chosen 2-vectors of all 2**n outcomes at positions offset+1..offset+n.

        Shape (2**n, n, 2); row i is the outcome whose qubit offset+q+1 reads
        bit (i >> q) & 1, so qubit offset+1 is the least-significant bit.
        """
        return self._chosen((np.arange(1 << n)[:, None] >> np.arange(n)) & 1, offset)


def paired_coordinate_sum(factors: np.ndarray, count):
    """sum_{k=1}^{count} conj(w_k) * w_{2^n-k+1} for a product vector w.

    ``factors`` holds the per-qubit 2-vectors, shape (..., n, 2), qubit 1
    first.  ``count`` is ints of any size whose array shape broadcasts
    against the batch shape; one int, the 0-d case, serves every row.
    Paired coordinates have bitwise-complementary indices, so the sum over
    the first ``count`` coordinates factorizes along the binary digits of
    ``count``: walking its bits from the top, a set bit at position p adds
    locked(p) * f0[p] * low(p), with f0 = conj(a) * b.  locked(p)
    multiplies, top first, f0 at the unset and conj(f0) at the set digits
    above p; low(p) is the product of the pair sums f0 + conj(f0) below p.
    The contributions are added top first in one cumulative sum.

    When no f0 has a nonzero imaginary part (the standard, Hadamard and
    rotation bases, real explicit bases, and the (1, 1/2) padding) the walk
    runs on float64 arrays with no loop over positions (``_real_walk``).
    It is byte-identical to the complex walk: with zero imaginary parts the
    real part of a complex product is the rounded real product fl(x * y),
    whether or not numpy fuses multiply and add, so cumulative and
    elementwise products agree, and only the signs of zeros can differ,
    which the cumulative sum's leading +0 absorbs.  Factors with a nonzero
    imaginary part take the positional walk (``_complex_walk``).
    """
    factors = np.asarray(factors, dtype=complex)
    if factors.ndim < 2 or factors.shape[-1] != 2:
        raise BadQuery("factors must have shape (..., n, 2)")
    n = factors.shape[-2]
    counts = np.asarray(count, dtype=object)
    if not all(0 <= c <= 1 << n for c in counts.flat):
        raise BadQuery(f"count {count} out of range [0, 2^{n}]")
    f0 = np.conj(factors[..., 0]) * factors[..., 1]  # conj(a_q) * b_q
    full = counts == 1 << n  # the whole sum: every position is free
    batch = np.broadcast_shapes(f0.shape[:-1], counts.shape)
    # a full count walks as 0 and is swapped for the product of pair sums below
    digits = np.array(
        [_count_digits(0 if c == 1 << n else c, n) for c in counts.flat]
    ).reshape(counts.shape + (n,))
    if np.any(f0.imag):
        total = _complex_walk(f0, digits, batch)
    else:
        total = _real_walk(f0.real, digits, batch).astype(complex)
    if np.any(full):
        total = np.where(full, np.prod(f0 + np.conj(f0), axis=-1), total)
    return total if batch else complex(total)


def _real_walk(f0: np.ndarray, digits: np.ndarray, batch: tuple) -> np.ndarray:
    """The digit walk of real pair factors f0 (conj(f0) = f0) in whole-array steps.

    locked(p) * f0[p] is f0 multiplied over positions n-1 down to p, one
    inclusive cumulative product from the top; low(p) is the cumulative
    product of the pair sums 2 f0 below p.  Unset digits contribute 0.
    """
    locked = np.cumprod(f0[..., ::-1], axis=-1)[..., ::-1]
    low = np.ones_like(f0)
    np.cumprod(2.0 * f0[..., :-1], axis=-1, out=low[..., 1:])
    terms = np.zeros(batch + (f0.shape[-1] + 1,))  # a leading +0, then top first
    np.copyto(terms[..., 1:], (locked * low)[..., ::-1], where=digits[..., ::-1])
    np.cumsum(terms, axis=-1, out=terms)
    return terms[..., -1]


def _complex_walk(f0: np.ndarray, digits: np.ndarray, batch: tuple) -> np.ndarray:
    """The digit walk of complex pair factors, one vectorized step per position.

    The lows are one cumulative product.  The locked chain is multiplied in
    position by position, vectorized over the batch: numpy's cumulative
    product rounds complex products differently from its elementwise
    multiply (which may fuse multiply and add), and the walk is pinned to
    the latter.
    """
    n = f0.shape[-1]
    tops = np.flatnonzero(np.any(digits, axis=tuple(range(digits.ndim - 1))))[::-1]
    terms = np.zeros(batch + (tops.size + 1,), dtype=complex)
    if tops.size:
        high, lo = int(tops[0]), int(tops[-1])
        low = np.ones(f0.shape[:-1] + (high + 1,), dtype=complex)
        # the pair sums f0 + conj(f0) are exactly 2 Re(f0) + 0j
        np.multiply(f0.real[..., :high], 2.0, out=low.real[..., 1:])
        np.cumprod(low[..., 1:], axis=-1, out=low[..., 1:])
        chain = np.empty(batch + (n - lo,), dtype=complex)
        chain[...] = f0[..., lo:]
        chain.imag *= np.where(digits[..., lo:], -1.0, 1.0)  # conj(f0) at the set digits
        locked = np.ones(batch, dtype=complex)
        column = {int(p): c for c, p in enumerate(tops, start=1)}
        for p in range(n - 1, lo - 1, -1):
            if p in column:
                # never in place: numpy rounds a one-element in-place product
                # like the cumulative one
                np.multiply(locked * f0[..., p], low[..., p], out=terms[..., column[p]])
            locked = locked * chain[..., p - lo]
        # a row records only at its own set digits
        np.copyto(terms[..., 1:], 0.0, where=~digits[..., tops])
        np.cumsum(terms, axis=-1, out=terms)
    return terms[..., -1]


def _count_digits(count: int, n: int) -> np.ndarray:
    """The n low bits of ``count``, position 0 (qubit 1) first, as booleans.

    Read from the binary string: ``count >> np.arange(n)`` overflows past 63 bits.
    """
    text = format(count, f"0{n}b")[::-1][:n]  # format pads 0 to one digit even when n = 0
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")


def product_quadratic_form(block: DensityBlock, factors: np.ndarray):
    """<W| d |W> for product vectors W of unit per-qubit factors, in O(n)."""
    factors = np.asarray(factors, dtype=complex)
    if factors.shape[-2] != block.n:
        raise BadQuery(f"need {block.n} qubit factors, got {factors.shape[-2]}")
    s = paired_coordinate_sum(factors, block.corner_count)
    return block.diag_value + block.corner_value * 2.0 * np.real(s)


def block_measure(
    block: DensityBlock, system: MeasurementSystem, block_offset: int, sigma
) -> float:
    """Measure of a complete block outcome sigma under the basis schedule."""
    bits = as_bits(sigma)
    if len(bits) != block.n:
        raise BadQuery(f"block of size {block.n} needs {block.n} bits, got {len(bits)}")
    factors = system.chosen_factors(bits, block_offset)
    return clamp01(float(product_quadratic_form(block, factors)), "block measure")


def partial_block_factor(
    block: DensityBlock, system: MeasurementSystem, block_offset: int, prefix
) -> float:
    """Measure factor of a block measured only on its first ``len(prefix)`` qubits.

    The projector on the measured qubits tensors with identity on the rest.
    Corner entries pair an index with its bitwise complement, so as long as
    at least one qubit stays unmeasured the corner terms carry a Kronecker
    delta between a slow index and its complement and vanish; only the
    constant diagonal survives, and 2**-n summed over the 2**(n - j)
    unmeasured indices is exactly 2**-j, whatever the bits.
    """
    bits = as_bits(prefix)
    if len(bits) > block.n:
        raise BadQuery(f"prefix of length {len(bits)} exceeds block size {block.n}")
    if len(bits) < block.n:
        return math.ldexp(1.0, -len(bits))
    return block_measure(block, system, block_offset, bits)


def premeasure_factored(state: FactoredState, system: MeasurementSystem, tau) -> float:
    """Premeasure of tau on a factored state, one factor per touched block."""
    return _premeasure_factored(state, system, as_bits(tau))


def _premeasure_factored(state: FactoredState, system: MeasurementSystem, bits) -> float:
    """Product of the block factors in block order, the cut block last.

    The order shows in the subnormal range.  When every complete block's
    measure is positive (a cut block's factor 2**-take always is) and the
    product still falls below the normal range, one ``NumericHealthWarning``
    names the first block at which it did.
    """
    segments = list(state.segments(len(bits)))
    complete = [(block, offset) for block, offset, take in segments if take == block.n]
    string = np.array(bits, dtype=np.intp)
    factors = []
    for group in _walk_groups([block for block, _ in complete], 1):
        measures = _block_measures(system, string, complete[group], 1)
        factors += clamp01(measures[:, 0], "block measure").tolist()
    positive = all(f > 0.0 for f in factors)
    if len(complete) < len(segments):
        factors.append(math.ldexp(1.0, -segments[-1][2]))
    value, tiny_at = 1.0, None
    for index, factor in enumerate(factors):
        value *= factor
        if tiny_at is None and value < sys.float_info.min:
            tiny_at = index
    if positive and tiny_at is not None:
        block, offset, _ = segments[tiny_at]
        warnings.warn(
            f"premeasure underflows at block {tiny_at} (n={block.n}, offset {offset}): "
            f"the product of positive block factors is {value!r}",
            NumericHealthWarning,
            stacklevel=3,
        )
    return clamp01(value)


def premeasure_dense(prefix: DenseStatePrefix, system: MeasurementSystem, tau) -> float:
    """Premeasure of tau evaluated against a dense prefix of matching depth."""
    bits = as_bits(tau)
    if len(bits) != prefix.depth:
        raise BadQuery(
            f"tau has {len(bits)} bits but the prefix depth is {prefix.depth}"
        )
    if not bits:
        return 1.0
    v = system.product_vector(bits)
    value = float(np.real(np.vdot(v, prefix.rho @ v)))
    return clamp01(value)


def premeasure_table_factored(
    state: FactoredState, system: MeasurementSystem, depth: int
) -> np.ndarray:
    """All 2**depth premeasure values of a factored state at once.

    Indexed like ``premeasure_table_dense`` (qubit 1 least significant).  The
    premeasure factors block by block, so the table is the Kronecker product
    of per-block outcome tables, first block fastest: a complete block
    contributes its 2**n closed-form block measures from one batched
    ``paired_coordinate_sum``, a straddled block the constant partial factor.
    Each entry equals ``premeasure_factored`` of its string bit for bit; no
    dense matrix is built, so the dense cap does not apply.
    """
    if depth < 0:
        raise BadQuery(f"table depth must be non-negative, got {depth}")
    table = np.ones(1)
    for block, offset, take in state.segments(depth):
        if take == block.n:
            factors = system.outcome_factors(block.n, offset)
            part = clamp01(product_quadratic_form(block, factors), "block measure table")
        else:
            part = np.full(1 << take, math.ldexp(1.0, -take))
        # products of values in [0, 1] stay in [0, 1], so no second clamp
        table = np.multiply.outer(part, table).reshape(-1)
    return table


def premeasure_table_dense(
    prefix: DenseStatePrefix, system: MeasurementSystem, offset: int = 0
) -> np.ndarray:
    """All 2**k premeasure values of a depth-k dense prefix at once.

    The returned array is indexed by the integer encoding of tau with qubit 1
    as the least-significant bit.  Only the diagonal of the rotated prefix is
    needed, so each qubit's row and column indices are contracted together
    into one outcome index, slowest qubit first: O(4**k) in total, and no
    rotated copy of the full matrix is ever formed.
    """
    k = prefix.depth
    # rows (qubit k .. 1), columns (qubit k .. 1); outcome axes collect at the end
    T = np.asarray(prefix.rho)
    for q in range(k, 0, -1):
        B = np.stack(system.basis_at(offset + q), axis=1)  # columns are b0, b1
        half = 1 << (q - 1)
        T = np.einsum("rt,rasb,st->abt", np.conj(B), T.reshape(2, half, 2, -1), B)
    return clamp01(np.real(T.reshape(-1)), "premeasure table")


def _takes_factored_path(state, path: str) -> bool:
    """The one path rule: closed form on a factored state unless ``path`` is "dense".

    "factored" on any other state, and an unknown path, raise ``BadQuery``.
    """
    factored = isinstance(state, FactoredState)
    if path not in ("auto", "dense", "factored") or (path == "factored" and not factored):
        raise BadQuery(f"no {path!r} premeasure path on a {type(state).__name__}")
    return factored and path != "dense"


def premeasure(state, system: MeasurementSystem, tau, path: str = "auto") -> float:
    """Premeasure of tau on any state presentation.

    The closed-form block factors on the factored path, the state's dense
    prefix at depth |tau| otherwise (``_takes_factored_path``).
    """
    bits = as_bits(tau)
    if _takes_factored_path(state, path):
        return _premeasure_factored(state, system, bits)
    return premeasure_dense(state.prefix(len(bits)), system, bits)


def premeasure_table(state, system: MeasurementSystem, depth: int, path: str = "auto"):
    """All 2**depth premeasures on ``premeasure``'s path, indexed qubit 1 least significant."""
    if _takes_factored_path(state, path):
        return premeasure_table_factored(state, system, depth)
    return premeasure_table_dense(state.prefix(depth), system)


def additivity_check(state, system: MeasurementSystem, tau, path: str = "auto") -> float:
    """|p(tau) - p(tau0) - p(tau1)|, the one-step additivity defect."""
    bits = as_bits(tau)
    p = premeasure(state, system, bits, path)
    p0 = premeasure(state, system, bits + (0,), path)
    p1 = premeasure(state, system, bits + (1,), path)
    return abs(p - p0 - p1)


@dataclass
class BitSample:
    """Sampled bits plus the provenance needed to reproduce and audit them."""

    bits: np.ndarray
    seed: int
    basis_label: str
    state_label: str
    conditional_probs: np.ndarray
    generator: str = "numpy-pcg64"

    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def bit_string(self) -> str:
        return (np.not_equal(self.bits, 0).astype(np.uint8) + ord("0")).tobytes().decode("ascii")

    def conditional_product(self) -> float:
        return float(np.prod(self.conditional_probs)) if len(self) else 1.0

    def sidecar(self) -> dict:
        return {
            "seed": self.seed,
            "generator": self.generator,
            "basis": self.basis_label,
            "state": self.state_label,
            "n_bits": len(self),
            "conditional_probs": np.asarray(self.conditional_probs, dtype=float).tolist(),
        }

    def write(self, path_prefix: str) -> tuple[str, str]:
        """Write ASCII bits (64 per line) and a JSON sidecar; returns the paths."""
        bits_path = f"{path_prefix}.bits"
        sidecar_path = f"{path_prefix}.json"
        text = self.bit_string()
        with open(bits_path, "w", encoding="ascii") as fh:
            fh.write("".join(text[i : i + 64] + "\n" for i in range(0, len(text), 64)))
        with open(sidecar_path, "w", encoding="ascii") as fh:
            fh.write(jsonio.canonical_dumps(self.sidecar()))
            fh.write("\n")
        return bits_path, sidecar_path


def sample_bits(
    state: FactoredState, system: MeasurementSystem, length: int, seed: int
) -> BitSample:
    """Draw ``length`` bits by conditional sampling of the factored premeasure.

    One uniform variate is consumed per bit; bit b is emitted when the
    conditional probability of 0 given the sampled prefix exceeds the
    variate.  The recorded conditionals telescope, so their product equals
    the premeasure of the emitted string.

    Inside a block the partial factor after s measured qubits is 2**-s
    whatever the bits (``partial_block_factor``), so every bit but a block's
    last is a fair coin with conditional exactly 1/2.  Only a complete
    block's last bit depends on the block's other bits; its two outcomes are
    divided by 2**-(n-1).  The first block whose chosen measure is subnormal
    emits one ``NumericHealthWarning``: from there on the conditionals lose
    precision.  A length whose prefix reaches measure zero raises
    ``MeasureZeroPrefix`` before any draw or walk.
    """
    if length < 0:
        raise BadQuery(f"length must be non-negative, got {length}")
    if not isinstance(state, FactoredState):
        raise BadQuery("sampling is defined for factored states")
    complete, zero_step = [], None
    for index, (block, offset, take) in enumerate(state.segments(length)):
        if take > _HALVINGS + 1:
            # the partial factor before step _HALVINGS + 1 is 2**-1075, which is zero
            raise MeasureZeroPrefix(
                f"prefix of measure zero inside block {index} (offset {offset})"
            )
        if take == block.n:
            complete.append((index, block, offset))
        elif take > _HALVINGS:
            # a cut block: halving 2**-1074 rounds to zero, so that step's conditional is 0
            zero_step = offset + _HALVINGS
    conds = np.random.default_rng(seed).random(length)  # the draws, until overwritten
    bits = (conds >= 0.5).view(np.uint8)
    draws = conds[[offset + block.n - 1 for _, block, offset in complete]].tolist()
    conds.fill(0.5)
    if zero_step is not None:
        conds[zero_step] = 0.0
    warned = False
    for group in _walk_groups([block for _, block, _ in complete], 2):
        rows = [(block, offset) for _, block, offset in complete[group]]
        measures = clamp01(_block_measures(system, bits, rows, 2), "block measure")
        for (index, block, offset), draw, (f0, f1) in zip(
            complete[group], draws[group], measures.tolist()
        ):
            last = offset + block.n - 1
            prev = math.ldexp(1.0, 1 - block.n)
            p0 = min(max(f0 / prev, 0.0), 1.0)
            bit = 0 if draw < p0 else 1
            chosen = f0 if bit == 0 else f1
            conds[last] = chosen / prev
            bits[last] = bit
            if chosen < sys.float_info.min and not warned:
                warned = True
                warnings.warn(
                    f"block {index} (n={block.n}, offset {offset}) has subnormal measure "
                    f"{chosen!r}; conditionals from here on lose precision",
                    NumericHealthWarning,
                    stacklevel=2,
                )
    return BitSample(bits, int(seed), system.label, state.label, conds)


def _walk_groups(blocks, k: int):
    """Slices of consecutive blocks whose padded walk of k outcomes fits in ``_WALK_ENTRIES``."""
    start, width = 0, 0
    for stop, block in enumerate(blocks):
        width = max(width, block.n)
        if stop > start and k * (stop - start + 1) * width > _WALK_ENTRIES:
            yield slice(start, stop)
            start, width = stop, block.n
    if start < len(blocks):
        yield slice(start, len(blocks))


def _block_measures(system: MeasurementSystem, bits: np.ndarray, rows, k: int) -> np.ndarray:
    """Unclamped block measures of k outcomes per row, shape (len(rows), k).

    ``rows`` lists (block, offset) of complete blocks whose qubits are
    ``bits[offset : offset + block.n]``.  With k = 1 the outcome is those
    bits; with k = 2 the two outcomes set the block's last bit to 0 and to 1.
    All rows share one gather from the basis table and one
    ``paired_coordinate_sum``.  A row narrower than the widest block is
    padded below its first qubit with the factor (1, 1/2) and its count
    shifted past the padding: the walk records nothing there, and the pad's
    pair sum 1/2 + 1/2 is exactly 1, so the products over the row's own
    positions are unchanged.
    """
    width = max(block.n for block, _ in rows)
    pads = np.array([[width - block.n] for block, _ in rows])
    starts = np.array([[offset] for _, offset in rows]) - pads  # qubit of column 0, pad included
    columns = np.arange(width)
    # pad columns read some valid bit; their factors are overwritten below
    outcomes = np.repeat(bits[np.maximum(starts + columns, 0)][:, None], k, axis=1)
    if k == 2:
        outcomes[..., -1] = (0, 1)
    factors = system._chosen(outcomes, starts[:, None])
    np.copyto(factors, (1.0, 0.5), where=(columns < pads)[:, None, :, None])
    counts = np.empty((len(rows), 1), dtype=object)
    counts[:, 0] = [block.corner_count << (width - block.n) for block, _ in rows]
    sums = paired_coordinate_sum(factors, counts)
    diag = np.array([[block.diag_value] for block, _ in rows])
    corner = np.array([[block.corner_value] for block, _ in rows])
    return diag + corner * 2.0 * np.real(sums)


__all__ = [
    "BitSample",
    "MeasurementSystem",
    "additivity_check",
    "as_bits",
    "block_measure",
    "clamp01",
    "paired_coordinate_sum",
    "partial_block_factor",
    "premeasure",
    "premeasure_dense",
    "premeasure_factored",
    "premeasure_table",
    "premeasure_table_dense",
    "premeasure_table_factored",
    "product_quadratic_form",
    "sample_bits",
]
