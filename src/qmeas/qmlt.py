"""Finite-stage effective null covers and their quantum counterparts.

A classical staged class stores prefix sets A_i at selected depths; a
Martin-Löf test is a family of such classes with uniform measure bound
2**-m at level m.  The quantum counterpart replaces each A_i by a projection
p_i; its rank density tau = rank / 2**i plays the role of the uniform
measure and tr(rho_i p_i) the role of membership mass.  Lifting a classical
test under a product basis sends each prefix to its basis product vector.

Every stage answers one protocol: ``qubits``, ``rank``, ``density()`` and
``mass(state)`` = tr(rho_qubits p); no stage builds its matrix.  A witness
stage (``FactoredEigenProjection``) answers ``mass`` in closed form only.  A
lifted stage (``SpanProjection``) stores its prefixes and basis, and on
every state its mass sums the prefixes' entries of one ``premeasure_table``:
the closed form on a factored state, the dense contraction of
``state.prefix(qubits)`` on any other.  An empty stage is a
``ZeroProjection``.  A padded class is zero below its lowest stage and
returns its top stage at deeper depths: identity padding multiplies the
rank by 2 per qubit, keeps the density, and traces out of the mass.

The witness test certifies non-randomness of the built-in block-product
state: level m keeps, for every block of the first N(m) sizes, the span of
the block's eigen groups with positive eigenvalue, where N(m) is the first
N with prod_{n=5}^{N} (1 - 1/n + 2**-n) < 2**-m.  A span stores the groups
it selects (``states.eigenvalue_groups``, the one home of a block's
spectrum), and its rank and trace ratio read them.  Tau, a trace
and a mass are each an exact dyadic ratio of ints rounded once by int true
division.  The state evaluates to 1 on every level while the rank density
drops below 2**-m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import dense_cap_exponent
from .errors import (
    BadQuery,
    BadSpec,
    BudgetExceeded,
    CapExceeded,
    MissingStage,
)
from .measurement import MeasurementSystem, clamp01, premeasure_table
from .states import (
    DensityBlock,
    EigenGroup,
    FactoredState,
    build_corner_block,
    eigenvalue_groups,
)

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

    def mass(self, state) -> float:
        return 0.0


class SpanProjection:
    """Span of the basis product vectors of one stage's prefixes.

    ``MeasurementSystem`` admits only orthonormal basis pairs, so distinct
    prefixes give orthonormal product vectors, and tr(rho p) is the sum of
    the prefixes' premeasures.  No vector is built: the mass reads one
    ``premeasure_table`` on any state.
    """

    def __init__(self, qubits: int, prefixes: tuple[str, ...], system: MeasurementSystem):
        self.qubits = qubits
        self.prefixes = prefixes
        self.system = system

    @property
    def rank(self) -> int:
        return len(self.prefixes)

    def density(self) -> float:
        return self.rank / (1 << self.qubits)

    def expectation(self, table: np.ndarray) -> float:
        """tr(rho p) from the premeasure table on ``qubits`` qubits: its prefixes' entries, rounded once by fsum."""
        return math.fsum(table[int(p[::-1], 2)] for p in self.prefixes)

    def mass(self, state) -> float:
        return self.expectation(premeasure_table(state, self.system, self.qubits))


@dataclass(frozen=True)
class BlockEigenSpan:
    """Span of selected eigen groups (``eigenvalue_groups``) of one structured block."""

    block: DensityBlock
    groups: tuple[EigenGroup, ...]
    rank: int = field(init=False)  # summed once: rank_at and every density() read it

    def __post_init__(self):
        object.__setattr__(self, "rank", sum([g.multiplicity for g in self.groups]))

    @classmethod
    def nonzero(cls, block: DensityBlock) -> "BlockEigenSpan":
        """Span of all eigenvectors with strictly positive eigenvalue."""
        return cls(block, tuple([g for g in eigenvalue_groups(block) if g.positive]))

    def trace_ratio(self, other: DensityBlock) -> tuple[int, int]:
        """tr(other * P) for the span projector P exactly, as (k, e) with trace k / 2**e.

        In units of other's diagonal, a paired eigenvector (e_i +- e_ibar)/sqrt(2)
        meets ``other`` in 1 +- kappa' if i <= r' and in 1 otherwise; a middle
        vector in 1.  With the float kappa' = p / q, the trace is
        (rank * q + (#plus - #minus groups) * min(r, r') * p) / (q * 2^n).
        """
        if other.n != self.block.n:
            raise BadQuery(f"block sizes differ: {other.n} vs {self.block.n}")
        p, q = other.corner_ratio.as_integer_ratio()
        kinds = [g.kind for g in self.groups]
        sign = kinds.count("pair_plus") - kinds.count("pair_minus")
        corners = min(self.block.corner_count, other.corner_count)
        return self.rank * q + sign * corners * p, q.bit_length() - 1 + other.n


class FactoredEigenProjection:
    """Kronecker product of per-block eigen spans, stored symbolically."""

    def __init__(self, spans: tuple[BlockEigenSpan, ...]):
        if not spans:
            raise BadQuery("a factored projection needs at least one block span")
        self.spans = tuple(spans)
        self.qubits = sum(s.block.n for s in spans)

    @cached_property
    def rank(self) -> int:
        return math.prod(s.rank for s in self.spans)

    def density(self) -> float:
        return self.rank / (1 << self.qubits)

    def mass(self, state) -> float:
        """tr(rho_qubits p) in closed form: the product of per-span ratios, rounded once.

        Each span meets one block of its own size and multiplies in
        ``trace_ratio`` against it.  The built-in states have block i of
        i + 5 qubits, like the witness spans.  A corner-free block's ratio is
        (rank, n), the span's density, so the maximally mixed state's mass is
        tau bit for bit.  Any other state, or a block whose size differs from
        its span's, raises ``BadQuery``; while sizes match, the blocks left
        cover the spans left, so the walk never runs out of blocks early.
        """
        if not isinstance(state, FactoredState):
            raise BadQuery(f"a witness stage needs a factored state, got {type(state).__name__}")
        numerator, exponent = 1, 0
        for span, (block, _, _) in zip(self.spans, state.segments(self.qubits)):
            k, e = span.trace_ratio(block)  # BadQuery unless the sizes match
            numerator *= k
            exponent += e
        return numerator / (1 << exponent)


# ---------------------------------------------------------------------------
# quantum side


class QuantumSigmaClass:
    """Depth-indexed nested projections; a padded class also answers every other depth."""

    def __init__(self, stages: dict[int, object], pad_above: bool = False):
        if not stages:
            raise BadSpec("a staged projection class needs at least one stage")
        self.stages = {int(d): p for d, p in stages.items()}
        for depth, proj in self.stages.items():
            if proj.qubits != depth:
                raise BadQuery(f"stage at depth {depth} acts on {proj.qubits} qubits")
        self.pad_above = pad_above

    def depths(self) -> list[int]:
        return sorted(self.stages)

    def max_depth(self) -> int:
        return max(self.stages)

    def stage_at(self, depth: int):
        """The stage that defines p_depth.

        A ``pad_above`` class answers depths its stored stages do not.
        Below its lowest stage this is a zero stage on ``depth`` qubits.
        Above its top stage it is the top stage itself: p_depth is that
        stage tensored with identity on the extra qubits, so its qubits are
        fewer than ``depth``.
        """
        if depth in self.stages:
            return self.stages[depth]
        if self.pad_above and 0 <= depth < min(self.stages):
            return ZeroProjection(depth)
        if self.pad_above and depth > max(self.stages):
            return self.stages[max(self.stages)]
        raise MissingStage(f"no stage at depth {depth} (stored: {self.depths()})")

    def rank_at(self, depth: int) -> int:
        stage = self.stage_at(depth)
        return stage.rank << (depth - stage.qubits)

    def tau_at(self, depth: int) -> float:
        return self.stage_at(depth).density()


def evaluate_state(cls: QuantumSigmaClass, state, depth: int) -> float:
    """tr(rho_depth p_depth) for any supported state presentation."""
    return clamp01(cls.stage_at(depth).mass(state))


@dataclass
class QuantumMLT:
    """Level-indexed quantum staged classes with rank-density bound 2**-m."""

    levels: dict[int, QuantumSigmaClass]

    def __post_init__(self):
        self.levels = {int(m): g for m, g in self.levels.items()}

    def validate_tau_bounds(self) -> None:
        for m, g in sorted(self.levels.items()):
            for depth in g.depths():
                density = g.tau_at(depth)
                if density > 2.0 ** -m + 1e-12:
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
            stages[depth] = SpanProjection(depth, prefixes, system) if prefixes else ZeroProjection(depth)
        # a level with no stages covers nothing: the all-zero class
        levels[m] = QuantumSigmaClass(stages or {1: ZeroProjection(1)}, pad_above=not stages)
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
    spans = tuple(_canonical_span(n) for n in range(5, last + 1))
    depth = witness_depth(last)
    return QuantumSigmaClass({depth: FactoredEigenProjection(spans)}, pad_above=True), last


@functools.cache
def _canonical_span(n: int) -> BlockEigenSpan:
    """The nonzero eigen span of the canonical size-n block, built once per size."""
    return BlockEigenSpan.nonzero(build_corner_block(n))


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


@dataclass(frozen=True)
class FailureReport:
    """Finite-depth certificate that a state's mass stays above delta."""

    delta: float
    entries: tuple[LevelEvaluation, ...]
    min_value: float | None
    fails_at_order: bool
    note: str


def failure_report(test: QuantumMLT, state, delta: float) -> FailureReport:
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
        depth = cls.max_depth()
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
    "witness_block_bound_factor",
    "witness_depth",
]
