"""Staged classes, lifting, and the witness test."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qmeas.errors import BadQuery, BadSpec, BudgetExceeded, CapExceeded, MissingStage
from qmeas.matrixcore import kron
from qmeas.measurement import MeasurementSystem, premeasure_dense
from qmeas.qmlt import (
    BlockEigenSpan,
    ClassicalMLT,
    FactoredEigenProjection,
    QuantumMLT,
    QuantumSigmaClass,
    SpanProjection,
    StagedSigmaClass,
    ZeroProjection,
    build_witness_mlt,
    build_witness_test,
    evaluate_state,
    failure_report,
    lift_classical_mlt,
    required_witness_blocks,
    witness_block_bound_factor,
    witness_depth,
)
from qmeas.states import (
    DenseStateChain,
    FactoredState,
    build_corner_block,
    build_corner_block_general,
    check_coherence,
    check_density,
    eigenvalue_groups,
)

from conftest import random_basis, random_density
from exact import exact_trace, family_tau, kron_vector, span_columns


# ---------------------------------------------------------------------------
# classical side


def test_staged_class_monotone_validation():
    good = StagedSigmaClass({2: ("00", "01"), 3: ("000", "001", "010", "011")})
    good.validate_monotone()
    assert good.uniform_measure_at(2) == 0.5
    bad = StagedSigmaClass({2: ("00",), 3: ("000",)})
    with pytest.raises(BadSpec):
        bad.validate_monotone()


def test_staged_class_rejects_malformed_prefixes():
    with pytest.raises(BadSpec):
        StagedSigmaClass({2: ("0",)})
    with pytest.raises(BadSpec):
        StagedSigmaClass({2: ("0x",)})
    with pytest.raises(BadSpec):
        StagedSigmaClass({2: ("00", "00")})


def test_classical_mlt_measure_bound():
    ok = ClassicalMLT({1: StagedSigmaClass({2: ("00", "01")})})
    ok.validate()
    too_big = ClassicalMLT({2: StagedSigmaClass({2: ("00", "01")})})
    with pytest.raises(BadSpec):
        too_big.validate()


def test_classical_mlt_doc_round_trip():
    doc = {"levels": {"1": {"2": ["00", "01"], "3": ["000", "001", "010", "011"]}}}
    test = ClassicalMLT.from_doc(doc)
    assert test.levels[1].stages == {2: ("00", "01"), 3: ("000", "001", "010", "011")}
    with pytest.raises(BadSpec):
        ClassicalMLT.from_doc({"levels": {"1": ["no", "stage", "map"]}})


# ---------------------------------------------------------------------------
# lifting


def projector(stage) -> np.ndarray:
    """The dense projection onto a lifted stage's prefixes' basis vectors, Kronecker products of its basis."""
    vectors = [kron_vector([stage.system.basis_at(q)[int(b)] for q, b in enumerate(p, 1)]) for p in stage.prefixes]
    columns = np.stack(vectors, axis=1)
    return columns @ columns.conj().T


def test_lift_standard_basis_golden_projector():
    """A_2 = {00, 01} under the standard basis projects onto indices 0 and 2."""
    test = ClassicalMLT({1: StagedSigmaClass({2: ("00", "01")})})
    lifted = lift_classical_mlt(test, MeasurementSystem.standard())
    assert np.allclose(projector(lifted.levels[1].stage_at(2)), np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-14)


def test_lift_preserves_measure_exactly(rng):
    for _ in range(10):
        depth = int(rng.integers(1, 7))
        population = [format(x, f"0{depth}b")[::-1] for x in range(1 << depth)]
        max_count = max(1, (1 << depth) // 2)
        chosen = rng.choice(population, size=int(rng.integers(1, max_count + 1)), replace=False)
        test = ClassicalMLT({1: StagedSigmaClass({depth: tuple(chosen)})})
        lifted = lift_classical_mlt(test, random_basis(rng))
        assert lifted.levels[1].rank_at(depth) == len(chosen)
        assert lifted.levels[1].tau_at(depth) == len(chosen) * 2.0**-depth


def test_lift_trace_identity_against_premeasure(rng):
    """tr(rho p), from the dense projector, equals the stage's mass and the summed premeasure of its prefixes."""
    for _ in range(20):
        depth = int(rng.integers(1, 6))
        population = [format(x, f"0{depth}b") for x in range(1 << depth)]
        count = int(rng.integers(1, (1 << depth) // 2 + 1))
        chosen = tuple(rng.choice(population, size=count, replace=False))
        test = ClassicalMLT({1: StagedSigmaClass({depth: chosen})})
        system = random_basis(rng)
        lifted = lift_classical_mlt(test, system)
        rho = random_density(rng, 1 << depth)
        chain = DenseStateChain.from_top(rho)
        oracle = float(np.real(np.trace(rho @ projector(lifted.levels[1].stage_at(depth)))))
        direct = evaluate_state(lifted.levels[1], chain, depth)
        summed = sum(premeasure_dense(chain.prefix(depth), system, t) for t in chosen)
        assert direct == pytest.approx(oracle, abs=1e-10)
        assert summed == pytest.approx(oracle, abs=1e-10)


def test_lift_nesting_of_stages(rng):
    """p_3 (p_2 x I) = p_2 x I, with the identity on qubit 3."""
    test = ClassicalMLT(
        {1: StagedSigmaClass({2: ("00", "10"), 3: ("000", "100", "001", "101")})}
    )
    cls = lift_classical_mlt(test, random_basis(rng)).levels[1]
    low = kron(projector(cls.stage_at(2)), np.eye(2))
    assert np.max(np.abs(projector(cls.stage_at(3)) @ low - low)) <= 1e-12


def test_lift_beyond_cap_raises(monkeypatch):
    monkeypatch.setenv("QMEAS_DENSE_CAP", "4")
    test = ClassicalMLT({1: StagedSigmaClass({5: ("00000",)})})
    with pytest.raises(CapExceeded):
        lift_classical_mlt(test, MeasurementSystem.standard())


def test_empty_stage_lifts_to_zero_projection():
    test = ClassicalMLT({1: StagedSigmaClass({2: ()})})
    lifted = lift_classical_mlt(test, MeasurementSystem.standard())
    stage = lifted.levels[1].stage_at(2)
    assert isinstance(stage, ZeroProjection)
    assert evaluate_state(lifted.levels[1], FactoredState.maximally_mixed(), 2) == 0.0


# ---------------------------------------------------------------------------
# projections


def test_padded_projection_small_golden(rng):
    """|0><0|, the prefix 0 lifted in the standard basis, padded by one identity qubit is diag(1, 0, 1, 0)."""
    base = SpanProjection(1, ("0",), MeasurementSystem.standard())
    cls = QuantumSigmaClass({1: base}, pad_above=True)
    assert cls.rank_at(2) == 2
    assert cls.tau_at(2) == base.density() == 0.5
    chain = DenseStateChain.from_top(random_density(rng, 4))
    padded = np.diag([1.0, 0.0, 1.0, 0.0])
    oracle = float(np.real(np.trace(chain.prefix(2).rho @ padded)))
    assert evaluate_state(cls, chain, 2) == pytest.approx(oracle, abs=1e-14)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_padding_is_depth_arithmetic(k, rng):
    """Above the top stage: rank << k, the same density, the same value bit for bit."""
    test = ClassicalMLT({1: StagedSigmaClass({3: ("000", "011", "101")})})
    lifted = lift_classical_mlt(test, MeasurementSystem.hadamard()).levels[1]
    padded_lift = QuantumSigmaClass({3: lifted.stage_at(3)}, pad_above=True)
    witness, last = build_witness_test(1)
    chain = DenseStateChain.from_top(random_density(rng, 8))
    cases = [
        (padded_lift, 3, FactoredState.witness_state()),
        (padded_lift, 3, FactoredState.maximally_mixed()),
        (padded_lift, 3, chain),
        (witness, witness_depth(last), FactoredState.witness_state()),
        (witness, witness_depth(last), FactoredState.maximally_mixed()),
    ]
    for cls, d, state in cases:
        assert cls.rank_at(d + k) == cls.rank_at(d) << k
        assert cls.tau_at(d + k) == cls.tau_at(d)
        assert evaluate_state(cls, state, d + k) == evaluate_state(cls, state, d)


def test_lifted_stage_dense_presentation_is_its_product_vector_span(rng):
    """The product vectors are orthonormal with no Gram check in the stage, and the dense
    mass is the trace against their projection."""
    system = random_basis(rng, periods=3)
    prefixes = ("0000", "0101", "0110", "1011", "1111")
    test = ClassicalMLT({1: StagedSigmaClass({4: prefixes})})
    stage = lift_classical_mlt(test, system).levels[1].stage_at(4)
    cols = np.stack([system.product_vector(p) for p in prefixes], axis=1)
    rho = random_density(rng, 16)
    assert stage.rank == 5 and stage.density() == 5 / 16
    assert np.allclose(cols.conj().T @ cols, np.eye(5), atol=1e-12)
    oracle = float(np.real(np.trace(rho @ projector(stage))))
    assert stage.mass(DenseStateChain.from_top(rho)) == pytest.approx(oracle, abs=1e-12)


def test_block_eigen_span_rank_and_density():
    block = build_corner_block(5)
    span = BlockEigenSpan.nonzero(block)
    assert [g.kind for g in span.groups] == ["pair_plus", "middle"]
    assert span.rank == 32 - 6
    assert FactoredEigenProjection((span,)).density() == (32 - 6) / 32


def rounded(ratio) -> float:
    """A ``trace_ratio`` (k, e), k / 2**e rounded once."""
    k, e = ratio
    return k / (1 << e)


def test_block_eigen_span_trace_closed_form_oracle(rng):
    base = build_corner_block(5)
    span = BlockEigenSpan.nonzero(base)
    cols = span_columns(span)
    proj = cols @ cols.conj().T
    for h, g in [(6, 2.0**-5), (4, 0.01), (0, 0.0), (16, 0.02)]:
        other = build_corner_block_general(5, h, g)
        oracle = float(np.real(np.trace(other.to_dense() @ proj)))
        assert rounded(span.trace_ratio(other)) == pytest.approx(oracle, abs=1e-13)


def test_block_eigen_span_full_rank_when_no_zero_eigenvalue():
    block = build_corner_block_general(5, 6, 0.01)
    span = BlockEigenSpan.nonzero(block)
    assert span.rank == 32


@pytest.mark.parametrize("n", [20, 1100])
def test_block_trace_and_spectrum_are_exact_at_any_size(n):
    """Past n = 1074 the block's floats underflow to 0.0; its trace, signs and span do not."""
    block = build_corner_block(n)
    assert (block.diag_value == block.corner_value == 0.0) == (n > 1074)
    r = block.corner_count
    groups = [(g.kind, g.multiplicity, g.positive) for g in eigenvalue_groups(block)]
    assert groups == [("pair_plus", r, True), ("pair_minus", r, False), ("middle", block.dim - 2 * r, True)]
    state = FactoredState([block])
    assert check_density(state, n).trace_deviation == 0.0 and check_coherence(state, n).ok
    span = BlockEigenSpan.nonzero(block)
    assert span.rank == block.dim - r and rounded(span.trace_ratio(block)) == 1.0
    assert FactoredEigenProjection((span,)).density() == float(Fraction(block.dim - r, block.dim))


@pytest.mark.parametrize("n", [5, 9, 64, 1000])
def test_trace_against_is_the_exact_trace_rounded_once(n):
    draw = random.Random(n)
    kappas = [0.0, 1.0] + [draw.random() for _ in range(6)]
    blocks = [
        build_corner_block_general(n, draw.randrange(1 << (n - 1)), math.ldexp(kappa, -n))
        for kappa in kappas
    ]
    for block in blocks:
        groups = eigenvalue_groups(block)
        spans = [BlockEigenSpan.nonzero(block)] + [BlockEigenSpan(block, (g,)) for g in groups]
        for span, other in itertools.product(spans, blocks):
            assert rounded(span.trace_ratio(other)) == float(exact_trace(span, other))


def test_factored_projection_rank_golden():
    spans = tuple(BlockEigenSpan.nonzero(build_corner_block(n)) for n in (5, 6))
    proj = FactoredEigenProjection(spans)
    assert proj.rank == (32 - 6) * (64 - 10) == 1404
    aligned = FactoredState([build_corner_block(5), build_corner_block(6)])
    assert proj.mass(aligned) == pytest.approx(1.0, abs=1e-15)


def test_factored_projection_mass_is_closed_form_only(rng):
    """A dense state, or blocks whose sizes differ from the spans', has no closed form:
    BadQuery, no fallback.  Corner-free blocks too must match the spans one for one."""
    spans = tuple(BlockEigenSpan.nonzero(build_corner_block(n)) for n in (5, 6))
    proj = FactoredEigenProjection(spans)
    assert not hasattr(proj, "matrix")
    chain = DenseStateChain.from_top(random_density(rng, 8))
    qubit = build_corner_block_general(1, 0, 0.0)
    pair = build_corner_block_general(2, 0, 0.0)
    misaligned = [
        [build_corner_block(6), build_corner_block(5)],  # a corner block straddles qubit 5
        [build_corner_block(3), pair, build_corner_block(6)],  # a run with corners
        [qubit] * 4 + [pair] + [qubit] * 5,  # a corner-free block straddles qubit 5
        [qubit] * 3 + [pair] + [build_corner_block_general(6, 0, 0.0)],  # a corner-free run
    ]
    with pytest.raises(BadQuery):
        proj.mass(chain)
    for blocks in misaligned:
        with pytest.raises(BadQuery):
            proj.mass(FactoredState(blocks))
    aligned = FactoredState([build_corner_block_general(n, 0, 0.0) for n in (5, 6)])
    assert proj.mass(aligned) == proj.density()


def test_witness_levels_share_their_spans():
    test = build_witness_mlt([1, 3])
    (low,), (high,) = (test.levels[m].stages.values() for m in (1, 3))
    assert all(a is b for a, b in zip(low.spans, high.spans))


# ---------------------------------------------------------------------------
# witness test


def test_required_witness_blocks_partial_products():
    partials = []
    product = 1.0
    for n in range(5, 10):
        product *= witness_block_bound_factor(n)
        partials.append(product)
    expected = [0.83125, 0.70570, 0.61042, 0.53650, 0.47794]
    assert np.allclose(partials, expected, atol=5e-5)
    assert required_witness_blocks(1) == 9
    assert required_witness_blocks(2) == 18


def test_witness_depth_sums_block_sizes():
    assert witness_depth(9) == 35
    assert witness_depth(5) == 5


def test_witness_tau_fraction_oracle():
    cls, last = build_witness_test(1)
    assert last == 9
    value = cls.tau_at(witness_depth(9))
    assert value == pytest.approx(float(family_tau(9)), rel=1e-12)
    assert value < 0.5


@pytest.fixture(scope="module")
def witness_levels():
    return build_witness_mlt(range(1, 9), block_budget=100_000)


@pytest.mark.parametrize("m", range(1, 9))
def test_witness_evaluation_is_one(m, witness_levels):
    """tau is rank / 2^depth rounded once, paper-rho evaluates to exactly 1, and the
    maximally mixed state's mass is tau bit for bit, past the float range of 2^-n too."""
    cls = witness_levels.levels[m]
    depth = cls.max_depth()
    value = cls.tau_at(depth)
    assert value == float(Fraction(cls.rank_at(depth), 1 << depth))
    assert value < 2.0**-m
    assert evaluate_state(cls, FactoredState.witness_state(), depth) == 1.0
    assert evaluate_state(cls, FactoredState.maximally_mixed(), depth) == value


def test_witness_stage_extension_rules():
    cls, last = build_witness_test(1)
    depth = witness_depth(last)
    state = FactoredState.witness_state()
    assert cls.tau_at(depth - 1) == 0.0
    assert evaluate_state(cls, state, depth - 1) == 0.0
    assert cls.tau_at(depth + 3) == cls.tau_at(depth)
    assert cls.rank_at(depth + 3) == cls.rank_at(depth) << 3
    assert evaluate_state(cls, state, depth + 3) == pytest.approx(1.0, abs=1e-9)


def test_witness_mixed_state_evaluates_to_tau():
    cls, last = build_witness_test(1)
    depth = witness_depth(last)
    mixed = FactoredState.maximally_mixed()
    assert evaluate_state(cls, mixed, depth) == pytest.approx(cls.tau_at(depth), rel=1e-12)


def test_witness_budget_exceeded_reports_requirement():
    with pytest.raises(BudgetExceeded) as exc:
        build_witness_test(2, block_budget=10)
    assert exc.value.required == 18


def test_witness_rank_product():
    cls, last = build_witness_test(1)
    depth = witness_depth(last)
    assert cls.rank_at(depth) == family_tau(last) * 2**depth


# ---------------------------------------------------------------------------
# staged classes and evaluation


def test_missing_stage_signals():
    cls = QuantumSigmaClass({2: ZeroProjection(2)})
    with pytest.raises(MissingStage):
        cls.stage_at(1)
    with pytest.raises(MissingStage):
        cls.stage_at(3)


def test_stage_depth_mismatch_rejected():
    with pytest.raises(BadQuery):
        QuantumSigmaClass({3: ZeroProjection(2)})


def test_evaluate_monotone_in_depth(rng):
    test = ClassicalMLT(
        {1: StagedSigmaClass({2: ("00", "10"), 4: tuple(p + q for p in ("00", "10") for q in ("00", "01", "10", "11"))})}
    )
    system = random_basis(rng)
    lifted = lift_classical_mlt(test, system)
    rho = random_density(rng, 16)
    chain = DenseStateChain.from_top(rho)
    v2 = evaluate_state(lifted.levels[1], chain, 2)
    v4 = evaluate_state(lifted.levels[1], chain, 4)
    assert v2 <= v4 + 1e-10


# ---------------------------------------------------------------------------
# failure reports


def test_failure_report_witness_levels():
    test = build_witness_mlt([1, 2])
    state = FactoredState.witness_state()
    report = failure_report(test, state, delta=0.9)
    assert report.fails_at_order
    assert report.min_value == pytest.approx(1.0, abs=1e-9)
    assert [e.level for e in report.entries] == [1, 2]
    assert all(e.tau < 2.0**-e.level for e in report.entries)


def test_failure_report_mixed_state_never_fails_at_half():
    test = ClassicalMLT({1: StagedSigmaClass({3: ("000", "001", "010", "011")})})
    lifted = lift_classical_mlt(test, MeasurementSystem.standard())
    mixed = FactoredState.maximally_mixed()
    report = failure_report(lifted, mixed, delta=0.5)
    assert not report.fails_at_order
    assert report.entries[0].value == pytest.approx(0.5, abs=1e-12)


def test_failure_report_empty_test_is_vacuous():
    report = failure_report(QuantumMLT({}), FactoredState.witness_state(), delta=0.5)
    assert not report.fails_at_order
    assert report.min_value is None
    assert "vacuous" in report.note


def test_failure_report_rejects_bad_delta():
    with pytest.raises(BadQuery):
        failure_report(QuantumMLT({}), FactoredState.witness_state(), delta=1.5)


def test_quantum_mlt_tau_bound_validation():
    base = SpanProjection(1, ("0", "1"), MeasurementSystem.standard())  # rank density 1
    test = QuantumMLT({1: QuantumSigmaClass({1: base})})
    with pytest.raises(BadSpec):
        test.validate_tau_bounds()
