"""Finite-stage effective null covers and their quantum counterparts.

A classical staged class stores prefix sets A_i at selected depths; a
Martin-Löf test is a family of such classes with uniform measure bound
2**-m at level m.  The quantum counterpart replaces each A_i by a projection
p_i; its rank density tau = rank / 2**i plays the role of the uniform
measure and tr(rho_i p_i) the role of membership mass.  Lifting a classical
test under a product basis sends each prefix to its basis product vector.

Every stage answers one protocol: ``qubits``, ``rank``, ``density()``,
``matrix()`` and ``mass(state)`` = tr(rho_qubits p).  ``mass`` takes the
stage's closed form where one exists (product of per-block traces for an
aligned eigen-span stage, a sum of factored premeasures for a lifted stage)
and the dense expectation against ``state.prefix(qubits)`` otherwise.  A
class padded above its top stage returns that stage at deeper depths:
identity padding multiplies the rank by 2 per qubit, keeps the density, and
traces out of the mass.  A lifted stage stores its prefixes and basis and
builds its product-vector columns only for a dense presentation.

The witness test certifies non-randomness of the built-in block-product
state: level m keeps, for every block of the first N(m) sizes, the span of
the block's nonzero-eigenvalue eigenvectors, where N(m) is the first N with
prod_{n=5}^{N} (1 - 1/n + 2**-n) < 2**-m.  The state evaluates to 1 on every
level while the rank density drops below 2**-m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .config import dense_cap_exponent, require_dense_qubits
from .errors import (
    BadQuery,
    BadSpec,
    BudgetExceeded,
    CapExceeded,
    MissingStage,
)
from .matrixcore import kron_all
from .measurement import MeasurementSystem, clamp01, premeasure_table_factored
from .states import DensityBlock, FactoredState, analytic_eigensystem, build_corner_block

# ---------------------------------------------------------------------------
# classical side


@dataclass
class StagedSigmaClass:
    """Prefix sets stored per depth; the union of their cylinders is the class."""

    stages: dict[int, tuple[str, ...]]

    def __post_init__(self):
        norm: dict[int, tuple[str, ...]] = {}
        for key, prefixes in self.stages.items():
            try:
                depth = int(key)
            except (TypeError, ValueError):
                raise BadSpec(f"stage depth {key!r} is not an integer") from None
            if depth in norm:
                raise BadSpec(f"stage depth {depth} is given twice")
            if depth < 1:
                raise BadSpec(f"stage depths must be positive, got {depth}")
            seen = []
            for p in prefixes:
                try:
                    s = p if isinstance(p, str) else "".join(str(b) for b in p)
                except TypeError:
                    raise BadSpec(f"prefix {p!r} is not a {depth}-bit string") from None
                if len(s) != depth or any(c not in "01" for c in s):
                    raise BadSpec(f"prefix {p!r} is not a {depth}-bit string")
                seen.append(s)
            if len(set(seen)) != len(seen):
                raise BadSpec(f"duplicate prefixes at depth {depth}")
            norm[depth] = tuple(sorted(seen))
        self.stages = norm

    def depths(self) -> list[int]:
        return sorted(self.stages)

    def prefixes_at(self, depth: int) -> tuple[str, ...]:
        if depth not in self.stages:
            raise MissingStage(f"no stage stored at depth {depth}")
        return self.stages[depth]

    def uniform_measure_at(self, depth: int) -> float:
        return len(self.prefixes_at(depth)) * 2.0 ** -depth

    def validate_monotone(self) -> None:
        """Each stored stage's cylinders must be covered by the next one."""
        depths = self.depths()
        for lo, hi in zip(depths, depths[1:]):
            upper = set(self.stages[hi])
            for p in self.stages[lo]:
                for ext in range(1 << (hi - lo)):
                    suffix = format(ext, f"0{hi - lo}b")[::-1]
                    if p + suffix not in upper:
                        raise BadSpec(
                            f"stage {hi} does not cover {p!r} from stage {lo}"
                        )


@dataclass
class ClassicalMLT:
    """Level-indexed staged classes with uniform measure bound 2**-m."""

    levels: dict[int, StagedSigmaClass]

    def __post_init__(self):
        levels: dict[int, StagedSigmaClass] = {}
        for key, sc in self.levels.items():
            try:
                m = int(key)
            except (TypeError, ValueError):
                raise BadSpec(f"level {key!r} is not an integer") from None
            if m in levels:
                raise BadSpec(f"level {m} is given twice")
            if m < 1:
                raise BadSpec(f"levels are indexed from 1, got {m}")
            levels[m] = sc
        self.levels = levels

    def validate(self) -> None:
        for m, sc in sorted(self.levels.items()):
            sc.validate_monotone()
            for depth in sc.depths():
                measure = sc.uniform_measure_at(depth)
                if measure > 2.0 ** -m + 1e-15:
                    raise BadSpec(
                        f"level {m} stage {depth} has measure {measure} > 2^-{m}"
                    )

    @classmethod
    def from_doc(cls, doc: dict) -> "ClassicalMLT":
        if not isinstance(doc, dict) or "levels" not in doc or not isinstance(doc["levels"], dict):
            raise BadSpec("classical test document needs a 'levels' object")
        levels = {}
        for m, stages in doc["levels"].items():
            if not isinstance(stages, dict):
                raise BadSpec(f"level {m} must map depths to prefix lists")
            try:
                parsed = {d: tuple(ps) for d, ps in stages.items()}
            except TypeError:
                raise BadSpec(f"level {m!r} has a malformed prefix list") from None
            levels[m] = StagedSigmaClass(parsed)
        test = cls(levels)
        test.validate()
        return test

    def to_doc(self) -> dict:
        return {
            "levels": {
                str(m): {str(d): list(ps) for d, ps in sc.stages.items()}
                for m, sc in self.levels.items()
            }
        }


# ---------------------------------------------------------------------------
# projections


class ZeroProjection:
    """The zero map on 2**qubits dimensions."""

    def __init__(self, qubits: int):
        self.qubits = qubits

    @property
    def rank(self) -> int:
        return 0

    def density(self) -> float:
        return 0.0

    def matrix(self) -> np.ndarray:
        require_dense_qubits(self.qubits, "projection matrix")
        return np.zeros((1 << self.qubits, 1 << self.qubits), dtype=complex)

    def mass(self, state) -> float:
        return 0.0


class SpanProjection:
    """Projection onto the span of explicit orthonormal columns."""

    def __init__(self, qubits: int, columns: np.ndarray):
        columns = np.asarray(columns, dtype=complex)
        if columns.ndim != 2 or columns.shape[0] != 1 << qubits:
            raise BadQuery(f"columns must be ({1 << qubits}, k), got {columns.shape}")
        gram = columns.conj().T @ columns
        dev = float(np.max(np.abs(gram - np.eye(columns.shape[1])))) if columns.shape[1] else 0.0
        if dev > 1e-9:
            raise BadQuery(f"projection columns are not orthonormal (deviation {dev:.3e})")
        self.qubits = qubits
        self.columns = columns

    @property
    def rank(self) -> int:
        return int(self.columns.shape[1])

    def density(self) -> float:
        return self.rank * 2.0 ** -self.qubits

    def matrix(self) -> np.ndarray:
        require_dense_qubits(self.qubits, "projection matrix")
        return self.columns @ self.columns.conj().T

    def expectation(self, rho: np.ndarray) -> float:
        """tr(rho p) against a dense density matrix on ``qubits`` qubits."""
        if not self.rank:
            return 0.0
        return float(np.real(np.vdot(self.columns, rho @ self.columns)))

    def mass(self, state) -> float:
        return self.expectation(state.prefix(self.qubits).rho)


class LiftedProjection(SpanProjection):
    """Span of the basis product vectors of one stage's prefixes.

    ``MeasurementSystem`` admits only orthonormal basis pairs, so distinct
    prefixes give orthonormal product vectors and the columns need no Gram
    check.  They are built only when a dense presentation asks for them:
    on a factored state the mass is a sum of closed-form premeasures.
    """

    def __init__(self, qubits: int, prefixes: tuple[str, ...], system: MeasurementSystem):
        self.qubits = qubits
        self.prefixes = prefixes
        self.system = system

    @property
    def rank(self) -> int:
        return len(self.prefixes)

    @cached_property
    def columns(self) -> np.ndarray:
        return np.stack([self.system.product_vector(p) for p in self.prefixes], axis=1)

    def mass(self, state) -> float:
        if isinstance(state, FactoredState):
            # one table, its entries summed and rounded once by fsum
            table = premeasure_table_factored(state, self.system, self.qubits)
            return math.fsum(table[int(p[::-1], 2)] for p in self.prefixes)
        return super().mass(state)


@dataclass(frozen=True)
class BlockEigenSpan:
    """Selected analytic eigenspaces of one structured block."""

    block: DensityBlock
    plus: bool
    minus: bool
    middle: bool

    @classmethod
    def nonzero(cls, block: DensityBlock) -> "BlockEigenSpan":
        """Span of all eigenvectors with strictly positive eigenvalue."""
        return cls(
            block,
            plus=block.diag_value + block.corner_value > 0.0,
            minus=block.diag_value - block.corner_value > 0.0,
            middle=block.dim - 2 * block.corner_count > 0,
        )

    @property
    def rank(self) -> int:
        r = self.block.corner_count
        total = 0
        if self.plus:
            total += r
        if self.minus:
            total += r
        if self.middle:
            total += self.block.dim - 2 * r
        return total

    def density(self) -> float:
        return self.rank * 2.0 ** -self.block.n

    def trace_against(self, other: DensityBlock) -> float:
        """tr(other * P) for the span projector P, via the pair structure.

        A paired eigenvector (e_i +- e_ibar)/sqrt(2) meets ``other`` in
        diag' +- corner' when i is one of other's corner indices and diag'
        otherwise; middle vectors contribute diag' each.
        """
        if other.n != self.block.n:
            raise BadQuery(f"block sizes differ: {other.n} vs {self.block.n}")
        r = self.block.corner_count
        shared = min(r, other.corner_count)
        total = 0.0
        if self.plus:
            total += r * other.diag_value + shared * other.corner_value
        if self.minus:
            total += r * other.diag_value - shared * other.corner_value
        if self.middle:
            total += float(self.block.dim - 2 * r) * other.diag_value
        return total

    def columns(self) -> np.ndarray:
        """Dense orthonormal columns (small blocks only)."""
        require_dense_qubits(self.block.n, "eigen span columns")
        keep = {"pair_plus": self.plus, "pair_minus": self.minus, "middle": self.middle}
        cols = [p.vector() for p in analytic_eigensystem(self.block) if keep[p.kind]]
        if not cols:
            return np.zeros((self.block.dim, 0), dtype=complex)
        return np.stack(cols, axis=1).astype(complex)


class FactoredEigenProjection:
    """Kronecker product of per-block eigen spans, stored symbolically."""

    def __init__(self, spans: tuple[BlockEigenSpan, ...]):
        if not spans:
            raise BadQuery("a factored projection needs at least one block span")
        self.spans = tuple(spans)
        self.qubits = sum(s.block.n for s in spans)

    @property
    def rank(self) -> int:
        rank = 1
        for s in self.spans:
            rank *= s.rank
        return rank

    def density(self) -> float:
        out = 1.0
        for s in self.spans:
            out *= s.density()
        return out

    def matrix(self) -> np.ndarray:
        require_dense_qubits(self.qubits, "projection matrix")
        factors = []
        for s in self.spans:
            cols = s.columns()
            factors.append(cols @ cols.conj().T)
        return kron_all(factors)

    def mass(self, state) -> float:
        if isinstance(state, FactoredState):
            head = [block for block, _, _ in state.segments(self.qubits)]
            aligned = _regroup_blocks(head, [s.block.n for s in self.spans])
            if aligned is not None:
                value = 1.0
                for span, block in zip(self.spans, aligned):
                    value *= span.trace_against(block)
                return value
        return float(np.real(np.trace(state.prefix(self.qubits).rho @ self.matrix())))


# ---------------------------------------------------------------------------
# quantum side


class QuantumSigmaClass:
    """Depth-indexed nested projections, with optional zero/identity extension."""

    def __init__(
        self,
        stages: dict[int, object],
        zero_below: bool = False,
        pad_above: bool = False,
        label: str = "",
    ):
        if not stages:
            raise BadSpec("a staged projection class needs at least one stage")
        self.stages = {int(d): p for d, p in stages.items()}
        for depth, proj in self.stages.items():
            if proj.qubits != depth:
                raise BadQuery(f"stage at depth {depth} acts on {proj.qubits} qubits")
        self.zero_below = zero_below
        self.pad_above = pad_above
        self.label = label

    def depths(self) -> list[int]:
        return sorted(self.stages)

    def max_depth(self) -> int:
        return max(self.stages)

    def stage_at(self, depth: int):
        """The stage that defines p_depth.

        Below the lowest stored stage of a ``zero_below`` class this is a
        zero stage on ``depth`` qubits.  Above the top stage of a
        ``pad_above`` class it is the top stage itself: p_depth is that
        stage tensored with identity on the extra qubits, so its qubits are
        fewer than ``depth``.
        """
        if depth in self.stages:
            return self.stages[depth]
        lo, hi = min(self.stages), max(self.stages)
        if depth < lo:
            if self.zero_below and depth >= 0:
                return ZeroProjection(depth)
            raise MissingStage(f"no stage at depth {depth} (stored: {self.depths()})")
        if depth > hi:
            if self.pad_above:
                return self.stages[hi]
            raise MissingStage(f"no stage at depth {depth} (stored: {self.depths()})")
        raise MissingStage(f"no stage at depth {depth} (stored: {self.depths()})")

    def rank_at(self, depth: int) -> int:
        stage = self.stage_at(depth)
        return stage.rank << (depth - stage.qubits)

    def tau_at(self, depth: int) -> float:
        return self.stage_at(depth).density()

    def check_nesting(self, tol: float = 1e-9) -> float:
        """Max deviation of p_{i+1} (p_i x I) from (p_i x I) over stored stages.

        Dense-only diagnostic; stages beyond the cap cannot be checked here.
        """
        worst = 0.0
        depths = self.depths()
        for lo, hi in zip(depths, depths[1:]):
            low = self.stages[lo].matrix()
            for _ in range(hi - lo):
                low = np.kron(np.eye(2, dtype=complex), low)
            high = self.stages[hi].matrix()
            dev = float(np.max(np.abs(high @ low - low)))
            worst = max(worst, dev)
        if worst > tol:
            raise BadSpec(f"stages are not nested (deviation {worst:.3e})")
        return worst


def tau(cls: QuantumSigmaClass, depth: int) -> float:
    """Rank density rank(p_depth) / 2**depth."""
    return cls.tau_at(depth)


def _regroup_blocks(blocks: list[DensityBlock], sizes: list[int]) -> list[DensityBlock] | None:
    """Regroup a block list to the target sizes, merging diagonal-only runs.

    A run of corner-free blocks tensors to a larger corner-free block; a
    single block already matching the target passes through.  Returns None
    when no such regrouping exists (a corner block straddling a boundary).
    """
    out: list[DensityBlock] = []
    pos = 0
    for target in sizes:
        run: list[DensityBlock] = []
        width = 0
        while width < target:
            if pos >= len(blocks):
                return None
            run.append(blocks[pos])
            width += blocks[pos].n
            pos += 1
        if width != target:
            return None
        if len(run) == 1:
            out.append(run[0])
        elif all(b.corner_count == 0 for b in run):
            out.append(DensityBlock(target, 0, 0.0))
        else:
            return None
    return out


def evaluate_state(cls: QuantumSigmaClass, state, depth: int) -> float:
    """tr(rho_depth p_depth) for any supported state presentation."""
    return clamp01(cls.stage_at(depth).mass(state))


@dataclass
class QuantumMLT:
    """Level-indexed quantum staged classes with rank-density bound 2**-m."""

    levels: dict[int, QuantumSigmaClass]

    def __post_init__(self):
        self.levels = {int(m): g for m, g in self.levels.items()}

    def validate_tau_bounds(self, tol: float = 1e-12) -> None:
        for m, g in sorted(self.levels.items()):
            for depth in g.depths():
                density = g.tau_at(depth)
                if density > 2.0 ** -m + tol:
                    raise BadSpec(
                        f"level {m} has rank density {density} > 2^-{m} at depth {depth}"
                    )


def lift_classical_mlt(test: ClassicalMLT, system: MeasurementSystem) -> QuantumMLT:
    """Send each stored prefix to its basis product vector, stage by stage.

    Distinct prefixes map to orthonormal product vectors, so each stage
    becomes a projection of rank |A_i|.
    """
    test.validate()
    cap = dense_cap_exponent()
    levels: dict[int, QuantumSigmaClass] = {}
    for m, sc in sorted(test.levels.items()):
        stages: dict[int, object] = {}
        for depth in sc.depths():
            if depth > cap:
                raise CapExceeded(
                    f"lifting a stage of depth {depth} exceeds the dense cap 2^{cap}"
                )
            prefixes = sc.prefixes_at(depth)
            if not prefixes:
                stages[depth] = ZeroProjection(depth)
            else:
                stages[depth] = LiftedProjection(depth, prefixes, system)
        if not stages:
            # a level with no stages covers nothing: the all-zero class
            levels[m] = QuantumSigmaClass(
                {1: ZeroProjection(1)},
                zero_below=True,
                pad_above=True,
                label=f"lifted[{m}]",
            )
        else:
            levels[m] = QuantumSigmaClass(stages, label=f"lifted[{m}]")
    return QuantumMLT(levels)


# ---------------------------------------------------------------------------
# witness test

_WITNESS_SEARCH_LIMIT = 1_000_000


def witness_block_bound_factor(n: int) -> float:
    """Per-block rank-density bound 1 - 1/n + 2**-n."""
    return 1.0 - 1.0 / n + 2.0 ** -n


def required_witness_blocks(m: int) -> int:
    """Smallest N with prod_{n=5}^{N} (1 - 1/n + 2**-n) < 2**-m."""
    if m < 1:
        raise BadQuery(f"witness levels are indexed from 1, got {m}")
    target = 2.0 ** -m
    product = 1.0
    n = 4
    while True:
        n += 1
        if n > _WITNESS_SEARCH_LIMIT:
            raise BudgetExceeded(
                f"witness search for level {m} passed {_WITNESS_SEARCH_LIMIT} blocks"
            )
        product *= witness_block_bound_factor(n)
        if product < target:
            return n


def witness_depth(last_block: int) -> int:
    """Total qubits of blocks 5..last_block."""
    return sum(range(5, last_block + 1))


def build_witness_test(m: int, block_budget: int = 64) -> tuple[QuantumSigmaClass, int]:
    """Level-m witness stage: nonzero eigen spans of the first N(m) blocks.

    Returns the staged class together with N(m).  Below the defining depth
    the projection is zero; beyond it the stored stage is padded with
    identity qubits.
    """
    last = required_witness_blocks(m)
    if last > block_budget:
        raise BudgetExceeded(
            f"witness level {m} needs blocks up to size {last}, budget is {block_budget}",
            required=last,
        )
    spans = tuple(BlockEigenSpan.nonzero(build_corner_block(n)) for n in range(5, last + 1))
    depth = witness_depth(last)
    cls = QuantumSigmaClass(
        {depth: FactoredEigenProjection(spans)},
        zero_below=True,
        pad_above=True,
        label=f"witness[{m}]",
    )
    return cls, last


def build_witness_mlt(levels, block_budget: int = 64) -> QuantumMLT:
    built = {}
    for m in levels:
        cls, _ = build_witness_test(int(m), block_budget=block_budget)
        built[int(m)] = cls
    return QuantumMLT(built)


# ---------------------------------------------------------------------------
# failure reports


@dataclass(frozen=True)
class LevelEvaluation:
    level: int
    depth: int
    rank: int
    tau: float
    value: float

    def payload(self) -> dict:
        return {
            "level": self.level,
            "depth": self.depth,
            "rank": self.rank,
            "tau": self.tau,
            "value": self.value,
        }


@dataclass(frozen=True)
class FailureReport:
    """Finite-depth certificate that a state's mass stays above delta."""

    delta: float
    entries: tuple[LevelEvaluation, ...]
    min_value: float | None
    fails_at_order: bool
    note: str

    def payload(self) -> dict:
        return {
            "delta": self.delta,
            "entries": [e.payload() for e in self.entries],
            "min_value": self.min_value,
            "fails_at_order": self.fails_at_order,
            "note": self.note,
        }


def failure_report(
    test: QuantumMLT,
    state,
    delta: float,
    depth_schedule: Mapping[int, int] | None = None,
) -> FailureReport:
    """Evaluate the state on every level and compare the minimum against delta.

    Evaluations are non-decreasing in depth, so each entry is a lower bound
    on the state's limiting mass in its level; the test fails at order delta
    when every level's evaluation exceeds delta.
    """
    if not 0.0 <= delta < 1.0:
        raise BadQuery(f"delta must lie in [0, 1), got {delta}")
    entries = []
    for m in sorted(test.levels):
        cls = test.levels[m]
        depth = cls.max_depth() if depth_schedule is None else int(depth_schedule[m])
        entries.append(
            LevelEvaluation(
                level=m,
                depth=depth,
                rank=cls.rank_at(depth),
                tau=cls.tau_at(depth),
                value=evaluate_state(cls, state, depth),
            )
        )
    if not entries:
        return FailureReport(delta, (), None, False, "no levels: vacuous report")
    min_value = min(e.value for e in entries)
    fails = min_value > delta
    note = (
        "finite-depth lower bounds: each value can only grow with depth"
        if fails
        else "no failure certified at this depth schedule"
    )
    return FailureReport(delta, tuple(entries), min_value, fails, note)


__all__ = [
    "BlockEigenSpan",
    "ClassicalMLT",
    "FactoredEigenProjection",
    "FailureReport",
    "LevelEvaluation",
    "LiftedProjection",
    "QuantumMLT",
    "QuantumSigmaClass",
    "SpanProjection",
    "StagedSigmaClass",
    "ZeroProjection",
    "build_witness_mlt",
    "build_witness_test",
    "evaluate_state",
    "failure_report",
    "lift_classical_mlt",
    "required_witness_blocks",
    "tau",
    "witness_block_bound_factor",
    "witness_depth",
]
