"""Corner-paired block states and their dense prefixes.

A block on n qubits has constant diagonal 2**-n and ``corner_count`` pairs of
equal off-diagonal entries placed symmetrically on the anti-diagonal: entry
(i, 2**n - i + 1) holds ``corner_value`` for 1-based i <= corner_count, plus
the mirror image.  The canonical block uses corner_count = floor(2**n / n)
and corner_value = 2**-n.  A full state is an infinite tensor product of such
blocks (sizes 5, 6, 7, ... for the built-in witness state), realized lazily.
"""

from __future__ import annotations

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
    kron,
    num_qubits_of,
    partial_trace_last_qubit,
)


@dataclass(frozen=True)
class DensityBlock:
    """Structured density block: diagonal 2**-n plus anti-diagonal corners."""

    n: int
    corner_count: int
    corner_value: float

    def __post_init__(self):
        if self.n < 1:
            raise BadBlock(f"block size must be at least one qubit, got {self.n}")
        if not 0 <= self.corner_count <= 1 << (self.n - 1):
            raise BadBlock(
                f"corner count {self.corner_count} out of range [0, {1 << (self.n - 1)}]"
            )
        if not 0.0 <= self.corner_value <= self.diag_value:
            raise BadBlock(f"corner value {self.corner_value} out of range [0, 2^-{self.n}]")

    @property
    def diag_value(self) -> float:
        return 2.0 ** -self.n

    @property
    def dim(self) -> int:
        return 1 << self.n

    def to_dense(self) -> np.ndarray:
        """Materialize the block; fails loudly beyond the dense cap."""
        require_dense_qubits(self.n, f"block of {self.n} qubits")
        m = np.eye(self.dim) * self.diag_value
        for i in range(1, self.corner_count + 1):
            m[i - 1, self.dim - i] = self.corner_value
            m[self.dim - i, i - 1] = self.corner_value
        return m

    def describe(self) -> dict:
        return {
            "n": self.n,
            "corner_count": self.corner_count,
            "diag_value": self.diag_value,
            "corner_value": self.corner_value,
            "representation": "structured_sparse",
        }


def build_corner_block(n: int) -> DensityBlock:
    """Canonical block: floor(2**n / n) corner pairs of value 2**-n."""
    if n < 3:
        raise BadBlock(f"canonical blocks need n >= 3, got {n}")
    return DensityBlock(n, (1 << n) // n, 2.0 ** -n)


def build_corner_block_general(n: int, corner_count: int, corner_value: float) -> DensityBlock:
    """Family block with chosen corner count and value (value capped at 2**-n)."""
    try:
        return DensityBlock(n, int(corner_count), float(corner_value))
    except BadBlock as exc:
        raise BadFamilyParams(f"{exc} at n={n}") from None


@dataclass(frozen=True)
class EigenPair:
    """Analytic eigenpair of a structured block.

    kind "pair_plus"/"pair_minus" are (e_i +- e_{2^n-i+1})/sqrt(2) for a
    1-based corner index i; kind "middle" is the basis vector e_i.
    """

    value: float
    kind: str
    index: int
    n: int

    def vector(self) -> np.ndarray:
        dim = 1 << self.n
        v = np.zeros(dim)
        if self.kind == "middle":
            v[self.index - 1] = 1.0
        elif self.kind in ("pair_plus", "pair_minus"):
            s = 1.0 if self.kind == "pair_plus" else -1.0
            v[self.index - 1] = 1.0 / math.sqrt(2.0)
            v[dim - self.index] = s / math.sqrt(2.0)
        else:
            raise BadQuery(f"unknown eigenvector kind {self.kind!r}")
        return v


class EigenGroup(NamedTuple):
    """One eigenvalue of a block and its multiplicity; cheap to build for every span."""

    kind: str
    value: float
    multiplicity: int


def eigenvalue_groups(block: DensityBlock) -> list[EigenGroup]:
    """The block's spectrum without materializing it, groups of zero multiplicity left out.

    Corner pairs contribute (e_i +- e_{2^n-i+1})/sqrt(2) with eigenvalues
    diag +- corner ("pair_plus", "pair_minus"); the untouched middle indices
    keep eigenvalue diag ("middle").
    """
    r, diag, corner = block.corner_count, block.diag_value, block.corner_value
    groups = []
    if r:
        groups.append(EigenGroup("pair_plus", diag + corner, r))
        groups.append(EigenGroup("pair_minus", diag - corner, r))
    middle = block.dim - 2 * r
    if middle:
        groups.append(EigenGroup("middle", diag, middle))
    return groups


def analytic_eigensystem(block: DensityBlock) -> list[EigenPair]:
    """``eigenvalue_groups`` expanded into eigenpairs, group by group.

    Pair groups run over the corner indices 1..r, the middle group over
    r+1..2^n-r.
    """
    pairs = []
    for g in eigenvalue_groups(block):
        first = block.corner_count + 1 if g.kind == "middle" else 1
        for i in range(first, first + g.multiplicity):
            pairs.append(EigenPair(g.value, g.kind, i, block.n))
    return pairs


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


class DenseStateChain:
    """Explicit coherent chain of dense prefixes rho_0, rho_1, ..., rho_D."""

    def __init__(self, prefixes: list[np.ndarray], label: str = "dense_prefix"):
        mats = [np.asarray(p) for p in prefixes]
        if not mats or mats[0].shape != (1, 1):
            raise BadSpec("a dense chain starts with the scalar prefix [[1.0]]")
        for depth, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != 1 << depth:
                raise BadSpec(f"prefix at depth {depth} must be {1 << depth}x{1 << depth}")
        self._prefixes = mats
        self.label = label

    @classmethod
    def from_top(cls, rho: np.ndarray, label: str = "dense_prefix") -> "DenseStateChain":
        """Build the chain under a top matrix by repeated partial traces."""
        rho = np.asarray(rho)
        depth = num_qubits_of(rho.shape[0])
        mats = [rho]
        for _ in range(depth):
            mats.append(partial_trace_last_qubit(mats[-1]))
        return cls(mats[::-1], label=label)

    @classmethod
    def from_matrices(cls, matrices: list[np.ndarray], label: str = "dense_prefix") -> "DenseStateChain":
        """Chain from explicit rho_1..rho_D (the scalar prefix is implied)."""
        return cls([np.eye(1)] + [np.asarray(m) for m in matrices], label=label)

    @property
    def depth(self) -> int:
        return len(self._prefixes) - 1

    def prefix(self, k: int) -> DenseStatePrefix:
        if not 0 <= k <= self.depth:
            raise BadQuery(f"chain holds depths 0..{self.depth}, asked for {k}")
        return DenseStatePrefix(k, self._prefixes[k])


class FactoredState:
    """Tensor product of structured blocks, extendable on demand."""

    def __init__(
        self,
        blocks: list[DensityBlock],
        factory: Callable[[int], DensityBlock] | None = None,
        label: str = "factored",
    ):
        self._blocks = list(blocks)
        self._factory = factory
        self.label = label

    @classmethod
    def witness_state(cls) -> "FactoredState":
        """The built-in product of canonical corner blocks of sizes 5, 6, 7, ..."""
        return cls([], factory=lambda i: build_corner_block(i + 5), label="paper_rho")

    @classmethod
    def general_family(cls, corner_counts, corner_values, label: str = "general") -> "FactoredState":
        """Family state from per-size corner tables (see ``family_tables``)."""
        counts, values = family_tables(corner_counts, corner_values)
        blocks = [build_corner_block_general(n, counts[n], values[n]) for n in counts]
        return cls(blocks, label=label)

    @classmethod
    def maximally_mixed(cls) -> "FactoredState":
        """Product of single-qubit maximally mixed blocks: I / 2**k at depth k."""
        qubit = build_corner_block_general(1, 0, 0.0)  # frozen, so one block serves every qubit
        return cls([], factory=lambda i: qubit, label="max_mixed")

    @classmethod
    def from_blocks(cls, blocks: list[DensityBlock], label: str = "factored") -> "FactoredState":
        return cls(list(blocks), label=label)

    def ensure_covers(self, qubits: int) -> None:
        """Materialize enough blocks to cover the first ``qubits`` positions."""
        total = sum(b.n for b in self._blocks)
        while total < qubits:
            if self._factory is None:
                raise BadQuery(
                    f"state {self.label!r} covers only {total} qubits, needs {qubits}"
                )
            block = self._factory(len(self._blocks))
            self._blocks.append(block)
            total += block.n

    @property
    def blocks(self) -> list[DensityBlock]:
        return list(self._blocks)

    def block(self, i: int) -> DensityBlock:
        if i >= len(self._blocks) and self._factory is not None:
            while len(self._blocks) <= i:
                self._blocks.append(self._factory(len(self._blocks)))
        if not 0 <= i < len(self._blocks):
            raise BadQuery(f"state has {len(self._blocks)} blocks, asked for index {i}")
        return self._blocks[i]

    def block_offsets(self) -> list[int]:
        """Qubit offset of each materialized block (first block at offset 0)."""
        offsets = []
        total = 0
        for b in self._blocks:
            offsets.append(total)
            total += b.n
        return offsets

    def segments(self, qubits: int):
        """Yield (block, offset, take) for the blocks covering the first ``qubits`` positions.

        ``offset`` is the block's first qubit position (0-based) and ``take``
        how many of its qubits fall inside; only the last block can be cut.
        """
        self.ensure_covers(qubits)
        offset = 0
        for block in self._blocks:
            if offset >= qubits:
                return
            yield block, offset, min(block.n, qubits - offset)
            offset += block.n

    @property
    def extendable(self) -> bool:
        return self._factory is not None

    def prefix(self, k: int) -> DenseStatePrefix:
        return prefix_density(self, k)

    def describe(self) -> dict:
        return {
            "label": self.label,
            "extendable": self.extendable,
            "blocks": [b.describe() for b in self._blocks],
        }


def prefix_density(state: FactoredState, k: int) -> DenseStatePrefix:
    """Dense density matrix on the first k qubits of a factored state.

    Complete blocks multiply in as Kronecker factors; a straddling block is
    materialized and partial-traced down to its first covered qubits.
    """
    if k < 0:
        raise BadQuery(f"prefix depth must be non-negative, got {k}")
    require_dense_qubits(k, f"prefix of depth {k}")
    rho = np.eye(1)
    for block, _, take in state.segments(k):
        part = block.to_dense()
        for _ in range(block.n - take):
            part = partial_trace_last_qubit(part)
        rho = kron(rho, part)
    return DenseStatePrefix(k, rho)


@dataclass(frozen=True)
class CoherenceReport:
    """Per-depth deviations of partial traces from the next-lower prefix."""

    ok: bool
    max_deviation: float
    deviations: tuple
    failed_at: int | None
    tol: float

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "max_deviation": self.max_deviation,
            "deviations": [{"depth": d, "deviation": v} for d, v in self.deviations],
            "failed_at": self.failed_at,
            "tol": self.tol,
        }


def check_coherence(state, depth: int, tol: float = 1e-10) -> CoherenceReport:
    """Verify that tracing the last qubit of each prefix yields the one below.

    The deviation at depth j is max|tr_last(rho_j) - rho_(j-1)|.  On a
    ``FactoredState`` it is closed form: if qubit j is the t-th qubit of its
    block and P_t is that block traced down to its first t qubits, rho_j =
    A (x) P_t with A the complete blocks before it, so the deviation is
    max|A| * max|tr_last(P_t) - P_(t-1)|, and max|A| is the product of their
    diagonal values (corners never exceed the diagonal), a power of two.
    For t >= 2, P_(t-1) is tr_last(P_t) by definition and the deviation is
    0; at t = 1 it is |tr(block) - 1|, with tr(block) = diag_value * 2^n.
    No matrix is built and no dense cap applies.  Any other state compares
    its dense prefixes depth by depth.
    """
    if depth < 1:
        raise BadQuery("coherence needs depth >= 1")
    if isinstance(state, FactoredState):
        deviations = _factored_deviations(state, depth)
    else:
        deviations = [
            (j, _trace_deviation(state.prefix(j).rho, state.prefix(j - 1).rho))
            for j in range(1, depth + 1)
        ]
    worst = 0.0
    failed_at = None
    for j, dev in deviations:
        if dev > worst:
            worst = dev
        if failed_at is None and dev > tol:
            failed_at = j
    return CoherenceReport(failed_at is None, worst, tuple(deviations), failed_at, tol)


def _trace_deviation(upper: np.ndarray, lower: np.ndarray) -> float:
    return float(np.max(np.abs(partial_trace_last_qubit(upper) - lower)))


def _factored_deviations(state: FactoredState, depth: int) -> list[tuple[int, float]]:
    deviations = []
    scale = 1.0
    for block, offset, take in state.segments(depth):
        # 2^n overflows a float past n = 1023, so scale the diagonal instead
        deviations.append((offset + 1, scale * abs(math.ldexp(block.diag_value, block.n) - 1.0)))
        deviations += [(offset + t, 0.0) for t in range(2, take + 1)]
        scale *= block.diag_value
    return deviations


def check_density(state, depth: int) -> DensityCheck:
    """Check that the depth-k prefix is Hermitian, of unit trace and PSD to ``TOL_DENSITY``.

    On a ``FactoredState`` the answer is closed form: the prefix is the
    Kronecker product of its complete blocks and I/2^take for a straddled
    block, so its least eigenvalue is the product of the blocks' least
    eigen-group values (2^-take for the straddled one) and its trace the
    product of the blocks' traces diag_value * 2^n.  Blocks are real
    symmetric, so the Hermitian deviation is 0.  No dense matrix is built
    and no dense cap applies.  Any other state is checked densely with
    ``is_density_matrix`` of its prefix.
    """
    if not isinstance(state, FactoredState):
        return is_density_matrix(state.prefix(depth).rho)
    if depth < 0:
        raise BadQuery(f"prefix depth must be non-negative, got {depth}")
    min_eig = 1.0
    trace = 1.0
    for block, _, take in state.segments(depth):
        if take == block.n:
            min_eig *= min(g.value for g in eigenvalue_groups(block))
            trace *= math.ldexp(block.diag_value, block.n)  # 2^n overflows a float past n = 1023
        else:
            min_eig *= 2.0 ** -take
    trace_dev = abs(trace - 1.0)
    ok = trace_dev <= TOL_DENSITY and min_eig >= -TOL_DENSITY
    return DensityCheck(ok, 0.0, trace_dev, min_eig, 1 << depth)


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
    in ascending size order.
    """
    tables = []
    for name, raw, cast in (("h", h_raw, int), ("g", g_raw, float)):
        if isinstance(raw, dict):
            items = raw.items()
        elif isinstance(raw, list) and raw:
            items = enumerate(raw, start=5)
        else:
            raise BadSpec(f"family table {name!r} must be a mapping n->value or a list from n=5")
        try:
            table = {int(k): cast(v) for k, v in items}
        except (TypeError, ValueError):
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
    "CoherenceReport",
    "DenseStateChain",
    "DenseStatePrefix",
    "DensityBlock",
    "EigenGroup",
    "EigenPair",
    "FactoredState",
    "analytic_eigensystem",
    "build_corner_block",
    "build_corner_block_general",
    "check_coherence",
    "check_density",
    "eigenvalue_groups",
    "family_tables",
    "parse_state_spec",
    "prefix_density",
]
