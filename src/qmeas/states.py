"""Corner-paired block states and their dense prefixes.

A block on n qubits has constant diagonal 2**-n and ``corner_count`` pairs of
equal off-diagonal entries placed symmetrically on the anti-diagonal: entry
(i, 2**n - i + 1) holds kappa * 2**-n for 1-based i <= corner_count, plus
the mirror image.  A block is stored scale-free, as (n, r, kappa) with kappa
in [0, 1], and prints as exactly those fields; the canonical block has
r = floor(2**n / n) and kappa = 1.  A full state is an infinite tensor
product of such blocks, realized lazily.  A ``FactoredState`` keeps its
realized blocks as columns (``BlockColumns``): sizes n and first qubits as
int arrays, the exact corner counts r with their correctly rounded ratios
r / 2**n, and kappa.  The kernels read those columns whole; a
``DensityBlock`` is built only when a caller asks for one.  Both built-in
states have block i of i + 5 qubits: the witness state's blocks are
canonical, and the maximally mixed state's are corner-free, I / 2**(i+5);
extending either appends fields and builds no block.  Checks on a factored
state answer from its blocks, so their reports are sized by the blocks, not
by the depth checked.  A block's and a factored prefix's nonzero entries
(``MatrixEntries``) are listed from the fields, and their dense matrices
are those entries scattered.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import jsonio
from .config import TOL_DENSITY, require_dense_qubits
from .errors import BadBlock, BadFamilyParams, BadQuery, BadShape, BadSpec
from .matrixcore import (
    DensityCheck,
    is_density_matrix,
    num_qubits_of,
    partial_trace_last_qubit,
)


class MatrixEntries(NamedTuple):
    """A 2**qubits square matrix as its entries, row-major: m[rows, cols] = values, zero elsewhere."""

    qubits: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def to_dense(self) -> np.ndarray:
        """Scatter the entries into a matrix of zeros."""
        m = np.zeros((1 << self.qubits, 1 << self.qubits), dtype=self.values.dtype)
        m[self.rows, self.cols] = self.values
        return m


@dataclass(frozen=True)
class DensityBlock:
    """Structured density block: diagonal 2**-n plus anti-diagonal corners kappa * 2**-n.

    A block prints as its fields (n, corner_count, corner_ratio), exact at
    every n.  The derived floats ``diag_value`` and ``corner_value`` underflow
    to 0 past n = 1074.
    """

    n: int
    corner_count: int
    corner_ratio: float

    def __post_init__(self):
        if self.n < 1:
            raise BadBlock(f"block size must be at least one qubit, got {self.n}")
        if not 0 <= self.corner_count <= 1 << (self.n - 1):
            raise BadBlock(
                f"corner count {self.corner_count} out of range [0, {1 << (self.n - 1)}]"
            )
        if not 0.0 <= self.corner_ratio <= 1.0:
            raise BadBlock(f"corner ratio {self.corner_ratio} out of range [0, 1]")

    @property
    def diag_value(self) -> float:
        return 2.0 ** -self.n

    @property
    def corner_value(self) -> float:
        return math.ldexp(self.corner_ratio, -self.n)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def entries(self) -> MatrixEntries:
        """The nonzero entries in row-major order, as ``np.nonzero`` lists them.

        They are the diagonal and, unless the corner value is zero, the
        corners (i, 2**n - 1 - i) and (2**n - 1 - i, i) for i < r, 0-based.
        """
        dim, c = self.dim, np.arange(self.corner_count if self.corner_value else 0)
        flat = np.concatenate([np.arange(dim) * (dim + 1), c * dim + dim - 1 - c, (dim - 1 - c) * dim + c])
        rows, cols = np.divmod(np.sort(flat), dim)
        return MatrixEntries(self.n, rows, cols, np.where(rows == cols, self.diag_value, self.corner_value))

    def to_dense(self) -> np.ndarray:
        """Materialize the block, its entries scattered; fails loudly beyond the dense cap."""
        require_dense_qubits(self.n, f"block of {self.n} qubits")
        return self.entries().to_dense()


def build_corner_block(n: int) -> DensityBlock:
    """Canonical block: floor(2**n / n) corner pairs of value 2**-n (kappa = 1)."""
    if n < 3:
        raise BadBlock(f"canonical blocks need n >= 3, got {n}")
    return DensityBlock(*_canonical_fields(n))


def _canonical_fields(n: int) -> tuple[int, int, float]:
    """The canonical block's exact fields (n, floor(2**n / n), 1.0)."""
    return n, (1 << n) // n, 1.0


def build_corner_block_general(n: int, corner_count: int, corner_value: float) -> DensityBlock:
    """Family block with chosen corner count and value (value capped at 2**-n)."""
    try:
        return DensityBlock(n, int(corner_count), math.ldexp(float(corner_value), n))
    except BadBlock as exc:
        raise BadFamilyParams(f"{exc} at n={n}") from None
    except OverflowError:  # kappa past the float range, far above its cap 1
        raise BadFamilyParams(f"corner value {corner_value} out of range at n={n}") from None


class EigenGroup(NamedTuple):
    """One eigenvalue of a block, its multiplicity and whether it is positive, decided exactly."""

    kind: str
    value: float
    multiplicity: int
    positive: bool


def eigenvalue_groups(block: DensityBlock) -> list[EigenGroup]:
    """The block's spectrum without materializing it, groups of zero multiplicity left out.

    Corner pairs contribute (e_i +- e_{2^n-i+1})/sqrt(2) with eigenvalues
    diag +- corner ("pair_plus", "pair_minus"); the untouched middle indices
    keep eigenvalue diag ("middle").  Relative to diag these are 1 + kappa,
    1 - kappa and 1, so ``positive`` is exact: true but for pair_minus when kappa = 1.
    """
    r, diag, corner = block.corner_count, block.diag_value, block.corner_value
    groups = []
    if r:
        groups.append(EigenGroup("pair_plus", diag + corner, r, True))
        groups.append(EigenGroup("pair_minus", diag - corner, r, block.corner_ratio < 1.0))
    middle = block.dim - 2 * r
    if middle:
        groups.append(EigenGroup("middle", diag, middle, True))
    return groups


@dataclass(frozen=True)
class DenseStatePrefix:
    """Dense density matrix on the first ``depth`` qubits."""

    depth: int
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise BadShape(f"prefix matrix must be square, got {rho.shape}")
        if num_qubits_of(rho.shape[0]) != self.depth:
            raise BadShape(
                f"depth {self.depth} does not match matrix dimension {rho.shape[0]}"
            )
        object.__setattr__(self, "rho", rho)

    def prefix(self, k: int) -> "DenseStatePrefix":
        if k != self.depth:
            raise BadQuery(f"a dense prefix answers only its own depth {self.depth}, not {k}")
        return self

    def entries(self) -> MatrixEntries:
        """The matrix's nonzero entries, as ``np.nonzero`` lists them."""
        rows, cols = np.nonzero(self.rho)
        return MatrixEntries(self.depth, rows, cols, self.rho[rows, cols])


class DenseStateChain:
    """Explicit coherent chain of dense prefixes rho_0, rho_1, ..., rho_D."""

    label = "dense_prefix"

    def __init__(self, prefixes: list[np.ndarray]):
        mats = [np.asarray(p) for p in prefixes]
        if not mats or mats[0].shape != (1, 1):
            raise BadSpec("a dense chain starts with the scalar prefix [[1.0]]")
        for depth, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != 1 << depth:
                raise BadSpec(f"prefix at depth {depth} must be {1 << depth}x{1 << depth}")
        self._prefixes = mats

    @classmethod
    def from_top(cls, rho: np.ndarray) -> "DenseStateChain":
        """Build the chain under a top matrix by repeated partial traces."""
        rho = np.asarray(rho)
        depth = num_qubits_of(rho.shape[0])
        mats = [rho]
        for _ in range(depth):
            mats.append(partial_trace_last_qubit(mats[-1]))
        return cls(mats[::-1])

    @classmethod
    def from_matrices(cls, matrices: list[np.ndarray]) -> "DenseStateChain":
        """Chain from explicit rho_1..rho_D (the scalar prefix is implied)."""
        return cls([np.eye(1)] + [np.asarray(m) for m in matrices])

    @property
    def depth(self) -> int:
        return len(self._prefixes) - 1

    def prefix(self, k: int) -> DenseStatePrefix:
        if not 0 <= k <= self.depth:
            raise BadQuery(f"chain holds depths 0..{self.depth}, asked for {k}")
        return DenseStatePrefix(k, self._prefixes[k])


@dataclass(frozen=True, eq=False)
class BlockColumns:
    """Consecutive blocks as columns, one entry per block.

    ``n`` and ``offset`` (the block's first qubit, 0-based) are int arrays,
    ``count`` holds the exact corner counts r as Python ints, ``ratio``
    their correctly rounded r / 2**n, and ``kappa`` the corner ratios.
    Indexing by a slice, mask or index array selects blocks.
    """

    n: np.ndarray
    offset: np.ndarray
    count: np.ndarray
    ratio: np.ndarray
    kappa: np.ndarray

    @classmethod
    def of(cls, fields, start: int = 0) -> "BlockColumns":
        """Columns of consecutive blocks given as exact (n, r, kappa), the first at qubit ``start``.

        r / 2**n is one int true division per block, correctly rounded at any n.
        """
        sizes, counts, kappas = zip(*fields) if fields else ((), (), ())
        n = np.array(sizes, dtype=np.intp)
        ratio = np.array([r / (1 << k) for k, r in zip(sizes, counts)], dtype=float)
        return cls(n, start + np.cumsum(n) - n, np.array(counts, dtype=object), ratio, np.array(kappas, dtype=float))

    def __len__(self) -> int:
        return self.n.size

    def __getitem__(self, index) -> "BlockColumns":
        return BlockColumns(*(column[index] for column in self._columns()))

    def _columns(self) -> tuple:
        return self.n, self.offset, self.count, self.ratio, self.kappa

    @property
    def end(self) -> int:
        """The qubit after the last block (0 with no block)."""
        return int(self.offset[-1] + self.n[-1]) if len(self) else 0

    def block(self, i: int) -> DensityBlock:
        """Block i as a ``DensityBlock``, built from its fields."""
        return DensityBlock(int(self.n[i]), self.count[i], float(self.kappa[i]))

    def extended(self, fields) -> "BlockColumns":
        """These blocks followed by blocks given as exact (n, r, kappa)."""
        more = BlockColumns.of(fields, self.end)
        return BlockColumns(*map(np.concatenate, zip(self._columns(), more._columns())))


class FactoredState:
    """Tensor product of structured blocks, extendable on demand.

    The realized blocks are ``BlockColumns``.  ``factory`` maps a block
    index to that block's exact fields (n, r, kappa); extending the state
    appends them to the columns.  ``block(i)`` builds a realized block's
    ``DensityBlock`` on first request and keeps it.  ``prefix_columns(k)``
    is the one reading of the depth-k prefix: the blocks inside the first k
    qubits, and the block they cut as the corner-free block of the qubits
    it keeps.
    """

    def __init__(
        self,
        blocks: list[DensityBlock],
        factory: Callable[[int], tuple[int, int, float]] | None = None,
        label: str = "factored",
    ):
        blocks = list(blocks)
        self._columns = BlockColumns.of([dataclasses.astuple(b) for b in blocks])
        self._built = dict(enumerate(blocks))
        self._factory = factory
        self.label = label

    @classmethod
    def witness_state(cls) -> "FactoredState":
        """The built-in product of canonical corner blocks of sizes 5, 6, 7, ..."""
        return cls([], factory=lambda i: _canonical_fields(i + 5), label="paper_rho")

    @classmethod
    def general_family(cls, corner_counts, corner_values) -> "FactoredState":
        """Family state from per-size corner tables (see ``family_tables``)."""
        counts, values = family_tables(corner_counts, corner_values)
        blocks = [build_corner_block_general(n, counts[n], values[n]) for n in counts]
        return cls(blocks, label="general")

    @classmethod
    def maximally_mixed(cls) -> "FactoredState":
        """Product of corner-free blocks of sizes 5, 6, 7, ...: I / 2**k at depth k."""
        return cls([], factory=lambda i: (i + 5, 0, 0.0), label="max_mixed")

    def ensure_covers(self, qubits: int) -> None:
        """Realize enough blocks to cover the first ``qubits`` positions, as fields."""
        total, index, fields = self._columns.end, len(self._columns), []
        while total < qubits:
            if self._factory is None:
                raise BadQuery(
                    f"state {self.label!r} covers only {total} qubits, needs {qubits}"
                )
            fields.append(self._factory(index))
            total += fields[-1][0]
            index += 1
        if fields:
            self._columns = self._columns.extended(fields)

    def columns(self, qubits: int) -> BlockColumns:
        """The columns of the blocks covering the first ``qubits`` positions; only the last can be cut."""
        self.ensure_covers(qubits)
        return self._columns[: int(np.searchsorted(self._columns.offset, qubits))]

    @property
    def blocks(self) -> list[DensityBlock]:
        return [self.block(i) for i in range(len(self._columns))]

    def block(self, i: int) -> DensityBlock:
        """Block i, built once from the columns; past them, the factory's block, realizing nothing."""
        if i not in self._built:
            c = self._columns
            if i >= len(c) and self._factory is not None:
                return DensityBlock(*self._factory(i))
            if not 0 <= i < len(c):
                raise BadQuery(f"state has {len(c)} blocks, asked for index {i}")
            self._built[i] = c.block(i)
        return self._built[i]

    def prefix_columns(self, k: int) -> BlockColumns:
        """The blocks of rho_k: ``columns(k)``, a last block cut after ``take`` qubits read as (take, 0, 0.0).

        A block traced down to its first ``take`` qubits is I / 2**take: its
        corner entries pair indices that differ in every qubit, so the trace
        drops them and leaves 2**-take whatever the bits.  The true blocks
        stay in ``columns`` and ``block``.
        """
        columns = self.columns(k)
        if columns.end > k:
            # the slices are views of the state's own columns: copy those whose last row changes
            n, count, ratio, kappa = columns.n.copy(), columns.count.copy(), columns.ratio.copy(), columns.kappa.copy()
            n[-1], count[-1], ratio[-1], kappa[-1] = k - columns.offset[-1], 0, 0.0, 0.0
            columns = BlockColumns(n, columns.offset, count, ratio, kappa)
        return columns

    @property
    def extendable(self) -> bool:
        return self._factory is not None

    def prefix(self, k: int) -> DenseStatePrefix:
        return prefix_density(self, k)

    def describe(self) -> dict:
        return {
            "label": self.label,
            "extendable": self.extendable,
            "blocks": self.blocks,
        }


def prefix_entries(state: FactoredState, k: int) -> MatrixEntries:
    """The entries of a factored state's depth-k prefix, row-major, read from its ``prefix_columns``.

    The prefix is the Kronecker product of those blocks' ``entries()``,
    first block fastest; a cut block is read as I / 2**take.  Each value is
    the block values' product, multiplied in block order, the later block's
    value times the product so far.  The prefix has Π(2**n + 2r) entries,
    and no matrix is built.
    """
    if k < 0:
        raise BadQuery(f"prefix depth must be non-negative, got {k}")
    require_dense_qubits(k, f"prefix of depth {k}")
    rows = cols = np.zeros(1, dtype=np.intp)
    values = np.ones(1)
    columns = state.prefix_columns(k)
    for i, offset in enumerate(columns.offset.tolist()):
        _, part_rows, part_cols, part_values = columns.block(i).entries()
        rows = (part_rows[:, None] << offset | rows).reshape(-1)
        cols = (part_cols[:, None] << offset | cols).reshape(-1)
        values = (part_values[:, None] * values).reshape(-1)
    order = np.argsort(rows << k | cols)
    return MatrixEntries(k, rows[order], cols[order], values[order])


def prefix_density(state: FactoredState, k: int) -> DenseStatePrefix:
    """Dense density matrix on the first k qubits of a factored state: its ``prefix_entries``, scattered."""
    return DenseStatePrefix(k, prefix_entries(state, k).to_dense())


@dataclass(frozen=True)
class CoherenceReport:
    """Worst deviation of a partial trace from the next-lower prefix, and the first depth past ``tol``."""

    ok: bool
    max_deviation: float
    failed_at: int | None
    tol: float


def check_coherence(state, depth: int, tol: float = 1e-10) -> CoherenceReport:
    """Verify that tracing the last qubit of each prefix yields the one below.

    The deviation at depth j is max|tr_last(rho_j) - rho_(j-1)|.  On a
    ``FactoredState`` every deviation is a structural zero: if qubit j is
    the t-th qubit of its block and P_t is that block traced down to its
    first t qubits, rho_j = A (x) P_t with A the complete blocks before it.
    For t >= 2, P_(t-1) is tr_last(P_t) by definition; at t = 1 the
    deviation is max|A| * |tr(block) - 1|, and a block's trace is
    2^n * 2^-n = 1 by construction, since its diagonal is not stored.  So
    the report is (ok, 0.0, no failing depth) once the blocks cover
    ``depth``; no matrix is built and no dense cap applies.  Any other state
    compares its dense prefixes depth by depth and keeps the worst deviation
    and the first depth past ``tol``.
    """
    if depth < 1:
        raise BadQuery("coherence needs depth >= 1")
    if isinstance(state, FactoredState):
        state.ensure_covers(depth)
        return CoherenceReport(True, 0.0, None, tol)
    worst, failed_at = 0.0, None
    for j in range(1, depth + 1):
        traced = partial_trace_last_qubit(state.prefix(j).rho)
        dev = float(np.max(np.abs(traced - state.prefix(j - 1).rho)))
        worst = max(worst, dev)
        if failed_at is None and dev > tol:
            failed_at = j
    return CoherenceReport(failed_at is None, worst, failed_at, tol)


def check_density(state, depth: int) -> DensityCheck:
    """Check that the depth-k prefix is Hermitian, of unit trace and PSD to ``TOL_DENSITY``.

    On a ``FactoredState`` the answer is closed form: the prefix is the
    Kronecker product of its ``prefix_columns`` blocks, so its least
    eigenvalue is the product of the blocks' least eigen-group values
    (2^-take for a cut block, read as I/2^take), and its trace is 1, the
    product of block traces 2^n * 2^-n = 1 by construction.  Blocks are
    real symmetric, so the Hermitian deviation is 0.  No dense matrix is
    built and no dense cap applies.  Any other state is checked densely with
    ``is_density_matrix`` of its prefix.  Either way the check names the
    prefix by its qubit count k, not by its dimension 2^k, an integer of
    thousands of digits at deep k.
    """
    if not isinstance(state, FactoredState):
        return is_density_matrix(state.prefix(depth).rho)
    if depth < 0:
        raise BadQuery(f"prefix depth must be non-negative, got {depth}")
    min_eig, columns = 1.0, state.prefix_columns(depth)
    for i in range(len(columns)):
        min_eig *= min(g.value for g in eigenvalue_groups(columns.block(i)))
    return DensityCheck(min_eig >= -TOL_DENSITY, 0.0, 0.0, min_eig, depth)


def parse_state_spec(doc: dict):
    """Build a state presentation from its JSON document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise BadSpec("state spec must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "paper_rho":
        return FactoredState.witness_state()
    if kind == "max_mixed":
        return FactoredState.maximally_mixed()
    if kind == "general":
        return FactoredState.general_family(doc.get("h"), doc.get("g"))
    if kind == "dense_prefix":
        mats = doc.get("matrices")
        if not isinstance(mats, list) or not mats:
            raise BadSpec("dense_prefix spec needs a non-empty 'matrices' list")
        chain = DenseStateChain.from_matrices([jsonio.matrix_from_json(m) for m in mats])
        for j in range(1, chain.depth + 1):
            check = is_density_matrix(chain.prefix(j).rho)
            if not check:
                raise BadSpec(f"matrix at depth {j} is not a density matrix")
        report = check_coherence(chain, chain.depth, tol=1e-9)
        if not report.ok:
            raise BadSpec(f"dense prefixes are not coherent at depth {report.failed_at}")
        return chain
    raise BadSpec(f"unknown state kind {kind!r}")


def family_tables(h_raw, g_raw) -> tuple[dict[int, int], dict[int, float]]:
    """Parse corner-count (h) and corner-value (g) tables keyed by block size.

    Each table is a mapping n -> value or a list starting at n = 5.  Both
    must cover the same sizes, contiguously from 5; the returned dicts are
    in ascending size order.  An h entry must be integral (6.0 reads as 6,
    6.9 is ``BadSpec``) and a g entry a finite number.
    """
    tables = []
    for name, raw, integral in (("h", h_raw, True), ("g", g_raw, False)):
        if isinstance(raw, dict):
            items = raw.items()
        elif isinstance(raw, list) and raw:
            items = enumerate(raw, start=5)
        else:
            raise BadSpec(f"family table {name!r} must be a mapping n->value or a list from n=5")
        what = f"family table {name!r} entries"
        try:
            table = {int(k): jsonio.number_from_json(v, what, integral) for k, v in items}
        except (TypeError, ValueError):  # a key that is not a block size
            raise BadSpec(f"family table {name!r} has malformed entries") from None
        tables.append(dict(sorted(table.items())))
    h, g = tables
    sizes = list(h)
    if list(g) != sizes:
        raise BadSpec("h and g tables must cover the same block sizes")
    if not sizes:
        raise BadSpec("family tables must not be empty")
    if sizes != list(range(5, 5 + len(sizes))):
        raise BadSpec(f"family tables must cover contiguous sizes 5..N, got {sizes}")
    return h, g


__all__ = [
    "BlockColumns",
    "CoherenceReport",
    "DenseStateChain",
    "DenseStatePrefix",
    "DensityBlock",
    "EigenGroup",
    "FactoredState",
    "MatrixEntries",
    "build_corner_block",
    "build_corner_block_general",
    "check_coherence",
    "check_density",
    "eigenvalue_groups",
    "family_tables",
    "parse_state_spec",
    "prefix_density",
    "prefix_entries",
]
