"""Measurement-induced premeasures and conditional bit sampling.

For a qubit-wise basis schedule B and a bit string tau, the premeasure is
p(tau) = <v|rho|v> with v the tensor product of the chosen basis vectors
(first qubit fastest).  On factored states the premeasure splits into one
factor per block; within a block of size n with corner pairs the factor has
the closed form

    diag + corner * 2*Re( sum_{k=1}^{r} conj(w_k) * w_{2^n-k+1} )

where w is the product vector of the block's chosen basis vectors.  Paired
coordinates sit at bitwise-complementary indices, so the sum collapses to a
product structure evaluated in O(n), independent of how many corner pairs
there are.  On real bases (standard, Hadamard, rotation, real explicit
pairs) every paired product is the same, and the sum is the closed form
(count / 2^n) * prod(2 f0) of ``_closed_form``; complex bases walk the
binary digits of the count (see ``paired_coordinate_sum``).  A block cut
after ``take`` qubits contributes exactly 2**-take.

Block measures come from two batched kernels over a state's block columns
(``BlockColumns``: each block's n, first qubit, exact corner count r, r /
2**n and kappa), read with whole-array steps.  ``_block_measures`` takes
each block's outcome bits, padded to the widest block: one block and one
outcome for ``block_measure``, one block and all 2**n outcomes for the
factored tables.  ``premeasure`` (one outcome per complete
block) and the sampler (the two outcomes of each block's last bit) get a
string's complete blocks from ``_string_measures`` as one (blocks, outcomes)
array: one segmented product, O(string length), on a real basis, bounded
groups of padded rows of ``_block_measures`` on a complex one.  Every
measure and table is clipped to [0, 1] by one ``clamp01`` per call, which
warns at most once, so a string's clipping warns at most once on any basis.
"""

from __future__ import annotations

import dataclasses
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
    CapExceeded,
    MeasureZeroPrefix,
    NotOrthonormal,
    NumericHealthWarning,
)
from .matrixcore import require_unit_vector
from .states import BlockColumns, DenseStatePrefix, DensityBlock, FactoredState, MatrixEntries, prefix_entries

_CLAMP_WARN = 1e-9
# 2**-s halves exactly down to the smallest subnormal 2**-1074; one more
# halving rounds to zero.
_HALVINGS = sys.float_info.mant_dig - sys.float_info.min_exp
# deepest factored table: a depth-20 Hadamard table takes about 4 s and 0.4 GB,
# and each level more doubles both
MAX_TABLE_DEPTH = 20
# entries (outcomes x qubits) per array of one padded digit walk over several
# blocks of a string on a complex basis; real bases need no walk and no bound
_WALK_ENTRIES = 1 << 14


def as_bits(tau) -> tuple[int, ...]:
    """Normalize a bit string ('0101', iterable of 0/1) to a tuple of ints."""
    if isinstance(tau, str):
        # every character outside "01" encodes to bytes that wrap below '0' or land
        # above '1': non-ASCII ones, and lone surrogates from undecodable argv bytes
        bits = np.frombuffer(tau.encode("utf-8", "surrogatepass"), np.uint8) - ord("0")
        if bits.size and bits.max() > 1:
            raise BadQuery(f"bit strings may only contain 0 and 1, got {tau!r}")
        return tuple(bits.tolist())
    seq = tau if isinstance(tau, np.ndarray) else list(tau)
    try:
        values = np.asarray(seq)
    except (ValueError, OverflowError):  # ragged nesting, ints past any dtype
        values = None
    if values is not None and values.ndim == 1 and values.dtype.kind in "biuf":
        # a flat bool, int or float sequence is checked in one pass; the message
        # names the first bad element as the sequence holds it
        bad = np.flatnonzero((values != 0) & (values != 1))
        if bad.size:
            raise BadQuery(f"bit strings may only contain 0 and 1, got {seq[bad[0]]!r}")
        return tuple(values.astype(np.intp).tolist())
    out = []
    for b in seq:
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
        if not np.all(np.isfinite(self._table)):  # a NaN passes both checks above
            raise BadSpec(f"{label} basis entries must be finite numbers")
        # 2 f0 = 2 Re(conj(a) b) by flat [pair][bit] row when every f0 is real, else
        # None; its real part is rounded as in paired_coordinate_sum, fused or not
        f0 = (np.conj(self._table[..., 0]) * self._table[..., 1]).reshape(-1)
        self._real_pair_factors = None if np.any(f0.imag) else 2.0 * f0.real

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
        """Real rotations by a periodic schedule of finite angles."""
        thetas = [jsonio.number_from_json(t, "rotation angles") for t in thetas]
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
        return product_vectors_dense(self.chosen_factors(bits, offset)[None])[0]


def product_vectors_dense(factors: np.ndarray) -> np.ndarray:
    """Assemble dense product vectors, first factor varying fastest.

    factors has shape (trials, n, 2); the result has shape (trials, 2**n).
    """
    factors = np.asarray(factors, dtype=complex)
    trials = factors.shape[0]
    out = np.ones((trials, 1), dtype=complex)
    for q in range(factors.shape[1]):
        # later qubits vary slower, so they multiply in on the left
        out = (factors[:, q, :, None] * out[:, None, :]).reshape(trials, -1)
    return out


def paired_coordinate_sum(factors: np.ndarray, count):
    """sum_{k=1}^{count} conj(w_k) * w_{2^n-k+1} for a product vector w.

    ``factors`` holds the per-qubit 2-vectors, shape (..., n, 2), qubit 1
    first.  ``count`` is ints of any size whose array shape broadcasts
    against the batch shape; one int, the 0-d case, serves every row.
    With f0 = conj(a) * b, every paired product is the same number when no
    f0 has a nonzero imaginary part (the standard, Hadamard and rotation
    bases, real explicit bases, and the (1, 1/2) padding), so such a row's
    sum is the closed form (``_closed_form``) of its product of 2 f0, taken
    left to right.  Factors that are not unit 2-vectors can overflow the
    product past about a thousand qubits (all-ones 2-vectors give
    2^-n * 2^n = inf * 0); any sum that is not finite raises ``BadQuery``.

    A row with a complex f0 walks the binary digits of ``count`` from the
    top (``_complex_walk``): a set bit at position p adds locked(p) * f0[p]
    * low(p), where locked(p) multiplies, top first, f0 at the unset and
    conj(f0) at the set digits above p, and low(p) is the product of the
    pair sums f0 + conj(f0) below p.  At the full count 2^n its sum is the
    product of all pair sums, prod(2 Re f0), the closed form again.  Each
    row takes its own branch, so a row's value does not depend on the rows
    batched with it.
    """
    factors = np.asarray(factors, dtype=complex)
    if factors.ndim < 2 or factors.shape[-1] != 2:
        raise BadQuery("factors must have shape (..., n, 2)")
    n = factors.shape[-2]
    counts = np.asarray(count, dtype=object)
    if not all(0 <= c <= 1 << n for c in counts.flat):
        raise BadQuery(f"count {count} out of range [0, 2^{n}]")
    f0 = np.conj(factors[..., 0]) * factors[..., 1]  # conj(a_q) * b_q
    walked = np.any(f0.imag, axis=-1) & (counts != 1 << n)
    total = np.zeros(walked.shape, dtype=complex)
    closed = ~walked  # the closed form only where it is kept
    ratios = np.array([int(c) / (1 << n) for c in counts.flat]).reshape(counts.shape)
    pairs = 2.0 * np.broadcast_to(f0.real, walked.shape + (n,))[closed]
    total[closed] = _closed_form(np.broadcast_to(ratios, walked.shape)[closed], np.prod(pairs, axis=-1))
    if np.any(walked):
        digits = np.array([_count_digits(c, n) for c in counts.flat])
        walk = _complex_walk(f0, digits.reshape(counts.shape + (n,)), total.shape)
        total[walked] = walk[walked]
    if not np.all(np.isfinite(total)):
        raise BadQuery(f"paired coordinate sum over {n} qubits is not finite")
    return total if total.ndim else complex(total)


def _closed_form(ratios, products):
    """The corner sum (count / 2^n) * prod(2 f0) of rows whose pair factors f0 are real.

    ``ratios`` holds count / 2^n, an int true division that is correctly
    rounded at any n, and ``products`` each row's product of 2 f0, of
    magnitude at most 1 when the 2-vectors are unit.  Both kernels multiply
    that product left to right, qubit 1 first, so a block's sum has the same
    bits from either.  The zero sums are +0.0.
    """
    return ratios * products + 0.0


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


def block_measure(
    block: DensityBlock, system: MeasurementSystem, block_offset: int, sigma
) -> float:
    """Measure of a complete block outcome sigma under the basis schedule."""
    bits = as_bits(sigma)
    if len(bits) != block.n:
        raise BadQuery(f"block of size {block.n} needs {block.n} bits, got {len(bits)}")
    columns = BlockColumns.of([dataclasses.astuple(block)], block_offset)
    measure = _block_measures(system, columns, np.array(bits)[None, None])
    return clamp01(float(measure[0, 0]), "block measure")


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
    columns = state.columns(len(bits))
    take = len(bits) - int(columns.offset[-1]) if len(columns) else 0
    cut = bool(len(columns) and take < columns.n[-1])  # only the last block can be cut
    measures = _string_measures(system, columns[:-1] if cut else columns, np.array(bits, dtype=np.intp), 1)
    factors = clamp01(measures[:, 0], "block measure")
    # running products in block order, one rounded multiply each; the leading 1 puts block i at i + 1
    products = np.multiply.accumulate(np.concatenate([[1.0], factors, [math.ldexp(1.0, -take)] if cut else []]))
    value, tiny = float(products[-1]), np.flatnonzero(products < sys.float_info.min)
    if tiny.size and np.all(factors > 0.0):
        index = int(tiny[0]) - 1
        warnings.warn(
            f"premeasure underflows at block {index} (n={columns.n[index]}, offset {columns.offset[index]}): "
            f"the product of positive block factors is {value!r}",
            NumericHealthWarning,
            stacklevel=3,
        )
    return clamp01(value)


def premeasure_dense(prefix: DenseStatePrefix | MatrixEntries, system: MeasurementSystem, tau) -> float:
    """Premeasure of tau on a dense prefix of matching depth: tau's entry of ``premeasure_table_dense``.

    ``prefix`` is either form the table takes, and the entry is bit for bit
    the table's, read at tau's integer encoding, qubit 1 least significant.
    """
    bits = as_bits(tau)
    depth = prefix.depth if isinstance(prefix, DenseStatePrefix) else prefix.qubits
    if len(bits) != depth:
        raise BadQuery(f"tau has {len(bits)} bits but the prefix depth is {depth}")
    return float(premeasure_table_dense(prefix, system)[sum(b << q for q, b in enumerate(bits))])


def premeasure_table_factored(
    state: FactoredState, system: MeasurementSystem, depth: int
) -> np.ndarray:
    """All 2**depth premeasure values of a factored state at once.

    Indexed like ``premeasure_table_dense`` (qubit 1 least significant).  The
    premeasure factors block by block, so the table is the Kronecker product
    of per-block outcome tables, first block fastest: a complete block
    contributes its 2**n closed-form block measures, one row of
    ``_block_measures``, a straddled block the constant partial factor.
    Each entry equals ``premeasure_factored`` of its string bit for bit; no
    dense matrix is built, so the dense cap does not apply; a depth past
    ``MAX_TABLE_DEPTH`` raises ``CapExceeded`` before any work.
    """
    if depth < 0:
        raise BadQuery(f"table depth must be non-negative, got {depth}")
    if depth > MAX_TABLE_DEPTH:
        raise CapExceeded(f"factored table of depth {depth} is past the bound {MAX_TABLE_DEPTH}")
    table = np.ones(1)
    columns = state.columns(depth)
    for index, (n, offset) in enumerate(zip(columns.n.tolist(), columns.offset.tolist())):
        take = min(n, depth - offset)
        if take == n:
            # outcome i reads bit (i >> q) & 1 at qubit offset+q+1
            outcomes = (np.arange(1 << take)[:, None] >> np.arange(take)) & 1
            part = _block_measures(system, columns[index : index + 1], outcomes[None])[0]
            part = clamp01(part, "block measure table")
        else:
            part = np.full(1 << take, math.ldexp(1.0, -take))
        # products of values in [0, 1] stay in [0, 1], so no second clamp
        table = np.multiply.outer(part, table).reshape(-1)
    return table


def premeasure_table_dense(
    prefix: DenseStatePrefix | MatrixEntries, system: MeasurementSystem, offset: int = 0
) -> np.ndarray:
    """All 2**k premeasure values of a depth-k prefix at once, contracted over its nonzero entries.

    ``prefix`` is a ``DenseStatePrefix``, read through its ``entries()``,
    or a prefix's ``MatrixEntries`` (``prefix_entries`` of a factored
    state, which builds no matrix).  The table is indexed by the integer
    encoding of tau, qubit 1 least significant.  Each qubit's row and
    column indices contract into one outcome index, slowest qubit first
    (``_contract_qubit``), so memory and time follow the nonzero entries
    and the 2**k outcomes, not the 4**k entries of rho_k (3,696 of
    4,194,304 for the witness state at k = 11).  Each value is, bit for
    bit, the einsum "rt,rasb,st->abt" over the whole matrix; a step whose
    entries and basis pair have no nonzero imaginary part (a real prefix in
    the standard, Hadamard, rotation or a real explicit basis) runs in
    float64, bit for bit the real part of the complex step.  This is the
    one dense evaluator: ``premeasure_dense`` returns one of its entries, and
    a lifted stage (``qmlt.SpanProjection``) sums entries of one table; no
    query reads rho_k as a matrix.
    """
    entries = prefix.entries() if isinstance(prefix, DenseStatePrefix) else prefix
    k = entries.qubits
    # a key interleaves an entry's row and column bits, qubit k's pair on top; each
    # step drops its qubit's pair and appends the outcome bit at the bottom
    key = np.zeros(entries.rows.shape, dtype=np.int64)
    for j in range(k):
        key |= (entries.rows >> j & 1) << 2 * j + 1 | (entries.cols >> j & 1) << 2 * j
    order = np.argsort(key)
    key, values = key[order], entries.values[order]
    for q in range(k, 0, -1):
        B = np.stack(system.basis_at(offset + q), axis=1)  # columns are b0, b1
        if not (np.any(B.imag) or np.iscomplexobj(values) and np.any(values.imag)):
            values, B = values.real, B.real
        key, values = _contract_qubit(key, values, B, q + k - 2)
    table = np.zeros(1 << k)
    table[key] = np.real(values)
    return clamp01(table, "premeasure table")


def _contract_qubit(key: np.ndarray, values: np.ndarray, basis: np.ndarray, width: int):
    """Contract one qubit's row bit r and column bit s into an outcome bit t.

    Bits width + 1 and width of each ``key``, sorted, are the qubit's r and
    s, so the four (r, s) classes are consecutive runs, and the bits below
    them name the group an entry adds to.  For t = 0, 1 a group sums
    conj(basis[r, t]) v basis[s, t] over its entries v, from +0, one (r, s)
    class at a time in row-major order, as the einsum adds each output; no
    group occurs twice in a class.  Complex products are real multiplies
    and adds, as in einsum's complex loop: numpy's complex multiply may fuse
    them.  Returns the groups' keys with t as their lowest bit, and values.
    """
    bounds = [0, *np.searchsorted(key, np.arange(1, 4) << width), key.size]
    groups, slots = np.unique(key & ((1 << width) - 1), return_inverse=True)
    out = np.zeros((groups.size, 2), dtype=basis.dtype)
    for rs in range(4):
        x, y = np.conj(basis[rs >> 1]), basis[rs & 1]
        at, v = slots[bounds[rs] : bounds[rs + 1]], values[bounds[rs] : bounds[rs + 1], None]
        if np.iscomplexobj(basis):
            re = x.real * v.real - x.imag * v.imag
            im = x.real * v.imag + x.imag * v.real
            out.real[at] += re * y.real - im * y.imag
            out.imag[at] += re * y.imag + im * y.real
        else:
            out[at] += v * x * y
    return (groups[:, None] << 1 | np.arange(2)).reshape(-1), out.reshape(-1)


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

    The closed-form block factors on the factored path, the entry of the
    dense table of the state's ``_dense_prefix`` at depth |tau| otherwise
    (``_takes_factored_path``).
    """
    bits = as_bits(tau)
    if _takes_factored_path(state, path):
        return _premeasure_factored(state, system, bits)
    return premeasure_dense(_dense_prefix(state, len(bits)), system, bits)


def premeasure_table(state, system: MeasurementSystem, depth: int, path: str = "auto"):
    """All 2**depth premeasures on ``premeasure``'s path, indexed qubit 1 least significant."""
    if _takes_factored_path(state, path):
        return premeasure_table_factored(state, system, depth)
    return premeasure_table_dense(_dense_prefix(state, depth), system)


def _dense_prefix(state, depth: int):
    """The prefix a dense query contracts: a factored state's ``prefix_entries``, any other state's ``prefix``."""
    return prefix_entries(state, depth) if isinstance(state, FactoredState) else state.prefix(depth)


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

    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def _digits(self) -> np.ndarray:
        """The ASCII codes of the bits, one ``uint8`` per bit."""
        return np.not_equal(self.bits, 0).astype(np.uint8) + ord("0")

    def bit_string(self) -> str:
        return self._digits().tobytes().decode("ascii")

    def conditional_product(self) -> float:
        return float(np.prod(self.conditional_probs)) if len(self) else 1.0

    def sidecar(self) -> dict:
        return {
            "seed": self.seed,
            "generator": "numpy-pcg64",
            "basis": self.basis_label,
            "state": self.state_label,
            "n_bits": len(self),
            "conditional_probs": np.asarray(self.conditional_probs, dtype=float),
        }

    def write(self, path_prefix: str) -> tuple[str, str]:
        """Write ASCII bits (64 per line) and a JSON sidecar; returns the paths."""
        bits_path = f"{path_prefix}.bits"
        sidecar_path = f"{path_prefix}.json"
        # rows of 64 digits and a newline, then the short last line, in one buffer
        digits = self._digits()
        rows, tail = divmod(digits.size, 64)
        text = np.full(digits.size + rows + (tail > 0), ord("\n"), dtype=np.uint8)
        text[: rows * 65].reshape(rows, 65)[:, :64] = digits[: rows * 64].reshape(rows, 64)
        text[rows * 65 : rows * 65 + tail] = digits[rows * 64 :]
        with open(bits_path, "w", encoding="ascii") as fh:
            fh.write(text.tobytes().decode("ascii"))
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

    Inside a block the partial factor after s < n measured qubits is 2**-s
    whatever the bits: a corner entry pairs an index with its bitwise
    complement, so it drops out while a qubit stays unmeasured.  Every bit
    but a block's last is a fair coin with conditional exactly 1/2.  Only a
    complete block's last bit depends on the block's other bits; its two
    outcomes are divided by 2**-(n-1).  A corner-free block's last bit is a
    fair coin too, so such blocks are skipped whole and have no float limit:
    the maximally mixed state samples at any length.  The first block whose
    chosen measure is subnormal emits one ``NumericHealthWarning``: from
    there on the conditionals lose precision.  A length whose prefix reaches
    measure zero in a block with corners raises ``MeasureZeroPrefix`` before
    any draw or walk.
    """
    if length < 0:
        raise BadQuery(f"length must be non-negative, got {length}")
    if seed < 0:
        raise BadQuery(f"seeds must be non-negative, got {seed}")
    if not isinstance(state, FactoredState):
        raise BadQuery("sampling is defined for factored states")
    columns = state.columns(length)
    take = np.minimum(columns.n, length - columns.offset)
    # a corner-free block's conditionals are all 1/2, its bits u >= 0.5: the buffer's own values
    corners = columns.count.astype(bool)
    # the partial factor before step _HALVINGS + 1 is 2**-1075, which is zero
    doomed = np.flatnonzero(corners & (take > _HALVINGS + 1))
    if doomed.size:
        index = int(doomed[0])
        raise MeasureZeroPrefix(
            f"prefix of measure zero inside block {index} (offset {columns.offset[index]})"
        )
    complete = np.flatnonzero(corners & (take == columns.n))
    # a cut block: halving 2**-1074 rounds to zero, so that step's conditional is 0
    zero_steps = columns.offset[corners & (take < columns.n) & (take > _HALVINGS)] + _HALVINGS
    conds = np.random.default_rng(seed).random(length)  # the draws, until overwritten
    bits = (conds >= 0.5).view(np.uint8)
    rows = columns[complete]
    lasts = rows.offset + rows.n - 1
    draws = conds[lasts]
    conds.fill(0.5)
    conds[zero_steps] = 0.0
    measures = clamp01(_string_measures(system, rows, bits, 2), "block measure")
    prev = np.ldexp(1.0, 1 - rows.n)
    # measures lie in [0, 1] and draws in [0, 1), so p0 needs no clip to
    # [0, 1]: the bit is 1 unless draw < p0, NaN included
    bit = ~(draws < measures[:, 0] / prev)
    chosen = np.where(bit, measures[:, 1], measures[:, 0])
    conds[lasts] = chosen / prev
    bits[lasts] = bit
    subnormal = np.flatnonzero(chosen < sys.float_info.min)
    if subnormal.size:
        first = subnormal[0]
        warnings.warn(
            f"block {complete[first]} (n={rows.n[first]}, offset {rows.offset[first]}) has subnormal measure "
            f"{float(chosen[first])!r}; conditionals from here on lose precision",
            NumericHealthWarning,
            stacklevel=2,
        )
    return BitSample(bits, int(seed), system.label, state.label, conds)


def _string_measures(system: MeasurementSystem, rows: BlockColumns, string: np.ndarray, k: int) -> np.ndarray:
    """Unclamped block measures of complete blocks read from ``string``, shape (len(rows), k).

    ``rows`` holds the columns of complete blocks in string order, and each
    block's outcomes are its bits read from ``string``; with k = 2 its last
    bit is set to 0 and to 1.  A real basis measures every block in one
    segmented product (``_segmented_measures``); a complex one fills the
    array from ``_walk_groups`` of padded rows.  No blocks give an empty
    array.
    """
    if not len(rows):
        return np.empty((0, k))
    if system._real_pair_factors is not None:
        return _segmented_measures(system, rows, string, k)
    groups = _walk_groups(rows.n.tolist(), k)
    return np.concatenate([_block_measures(system, rows[g], _read_outcomes(string, rows[g], k)) for g in groups])


def _segmented_measures(system: MeasurementSystem, rows: BlockColumns, string: np.ndarray, k: int) -> np.ndarray:
    """``_string_measures`` of every block on a real basis, in O(string length).

    2 f0 is gathered per position from the basis table, and one
    ``np.multiply.reduceat`` over the blocks' first and last qubits
    multiplies each block's first n - 1 factors, left to right; each
    outcome's last-qubit factor multiplies in last.  That is the order in
    which ``paired_coordinate_sum`` multiplies a padded row of
    ``_block_measures``, whose pad factors are exactly 1, so both kernels
    give the same bits.
    """
    pair_factors = system._real_pair_factors
    period = len(system._table)
    starts = rows.offset
    lasts = starts + rows.n - 1
    base, end = int(starts[0]), int(lasts[-1]) + 1
    # each qubit's flat [pair][bit] row: 2 (q % period) + bit, the pair rows tiled, not divided
    first, count = base % period, end - base
    index = np.tile(np.arange(0, 2 * period, 2), (first + count) // period + 1)[first : first + count]
    index += string[base:end]
    # segment i covers qubits starts[i] .. lasts[i] - 1; the segments from each last
    # qubit to the next start are dropped
    heads = np.multiply.reduceat(pair_factors[index], np.stack([starts, lasts], 1).reshape(-1) - base)[::2]
    heads[starts == lasts] = 1.0  # a one-qubit block: reduceat gives its factor, the product is empty
    last_bits = np.array([0, 1]) if k == 2 else string[lasts, None]
    tails = pair_factors[2 * (lasts % period)[:, None] + last_bits]
    return _measures(rows, _closed_form(rows.ratio[:, None], heads[:, None] * tails))


def _walk_groups(sizes, k: int):
    """Slices of consecutive blocks, by size, whose padded walk of k outcomes fits in ``_WALK_ENTRIES``."""
    start, width = 0, 0
    for stop, n in enumerate(sizes):
        width = max(width, n)
        if stop > start and k * (stop - start + 1) * width > _WALK_ENTRIES:
            yield slice(start, stop)
            start, width = stop, n
    if start < len(sizes):
        yield slice(start, len(sizes))


def _read_outcomes(string: np.ndarray, rows: BlockColumns, k: int) -> np.ndarray:
    """Outcome bits of k outcomes per complete block, read from ``string``.

    Shape (len(rows), k, width) for the widest block; each block's bits fill
    its last n columns, and the columns before them read some valid bit,
    which ``_block_measures`` pads over.  With k = 2 the two outcomes set
    the block's last bit to 0 and to 1.
    """
    width = int(rows.n.max())
    starts = (rows.offset + rows.n - width)[:, None]
    outcomes = np.repeat(string[np.maximum(starts + np.arange(width), 0)][:, None], k, axis=1)
    if k == 2:
        outcomes[..., -1] = (0, 1)
    return outcomes


def _block_measures(system: MeasurementSystem, rows: BlockColumns, outcomes: np.ndarray) -> np.ndarray:
    """Unclamped block measures, shape (len(rows), k), of outcomes shaped (len(rows), k, width).

    ``rows`` holds the columns of complete blocks; each block's k outcomes
    hold its bits, for qubits offset+1..offset+n, in their last n columns.
    All blocks share one gather from the basis table and one
    ``paired_coordinate_sum``.  The columns before a block's own take the
    factor (1, 1/2) and its count is shifted past them, which keeps
    count / 2^n: the pad's 2 f0, its pair sum 1/2 + 1/2, is exactly 1, and
    the walk records nothing there, so the products over the block's own
    positions are unchanged.
    """
    width = outcomes.shape[-1]
    pads = width - rows.n
    starts = rows.offset - pads  # qubit of column 0, pad included
    factors = system._chosen(outcomes, starts[:, None, None])
    np.copyto(factors, (1.0, 0.5), where=(np.arange(width) < pads[:, None])[:, None, :, None])
    # exact shifts of Python ints, however large
    counts = (rows.count << pads.astype(object))[:, None]
    return _measures(rows, paired_coordinate_sum(factors, counts))


def _measures(rows: BlockColumns, sums: np.ndarray) -> np.ndarray:
    """diag + corner * 2 Re(s): block measures from paired coordinate sums shaped (len(rows), k).

    diag is 2^-n and corner kappa 2^-n, both 0 past n = 1074.
    """
    diag = np.ldexp(1.0, -rows.n)[:, None]
    corner = np.ldexp(rows.kappa, -rows.n)[:, None]
    return diag + corner * 2.0 * np.real(sums)


__all__ = [
    "BitSample",
    "MeasurementSystem",
    "additivity_check",
    "as_bits",
    "block_measure",
    "clamp01",
    "paired_coordinate_sum",
    "premeasure",
    "premeasure_dense",
    "premeasure_factored",
    "premeasure_table",
    "premeasure_table_dense",
    "premeasure_table_factored",
    "product_vectors_dense",
    "sample_bits",
]
