"""Staged classes, lifting, and the witness test."""

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
    tau,
    witness_block_bound_factor,
    witness_depth,
)
from qmeas.states import (
    DenseStateChain,
    FactoredState,
    build_corner_block,
    build_corner_block_general,
)

from conftest import random_basis, random_density


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


def test_lift_standard_basis_golden_projector():
    """A_2 = {00, 01} under the standard basis projects onto indices 0 and 2."""
    test = ClassicalMLT({1: StagedSigmaClass({2: ("00", "01")})})
    lifted = lift_classical_mlt(test, MeasurementSystem.standard())
    p = lifted.levels[1].stage_at(2).matrix()
    assert np.allclose(p, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-14)


def test_lift_preserves_measure_exactly(rng):
    for _ in range(10):
        depth = int(rng.integers(1, 7))
        population = [format(x, f"0{depth}b")[::-1] for x in range(1 << depth)]
        max_count = max(1, (1 << depth) // 2)
        chosen = rng.choice(population, size=int(rng.integers(1, max_count + 1)), replace=False)
        test = ClassicalMLT({1: StagedSigmaClass({depth: tuple(chosen)})})
        lifted = lift_classical_mlt(test, random_basis(rng))
        assert lifted.levels[1].rank_at(depth) == len(chosen)
        assert tau(lifted.levels[1], depth) == len(chosen) * 2.0**-depth


def test_lift_trace_identity_against_premeasure(rng):
    """tr(rho p) equals the summed premeasure of the lifted prefixes."""
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
        direct = evaluate_state(lifted.levels[1], chain, depth)
        summed = sum(premeasure_dense(chain.prefix(depth), system, t) for t in chosen)
        assert direct == pytest.approx(summed, abs=1e-10)


def test_lift_nesting_of_stages(rng):
    test = ClassicalMLT(
        {1: StagedSigmaClass({2: ("00", "10"), 3: ("000", "100", "001", "101")})}
    )
    lifted = lift_classical_mlt(test, random_basis(rng))
    assert lifted.levels[1].check_nesting() <= 1e-12


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


def test_span_projection_requires_orthonormal_columns():
    cols = np.array([[1.0, 0.8], [0.0, 0.6]], dtype=complex)
    with pytest.raises(BadQuery):
        SpanProjection(1, cols)


def test_padded_projection_small_golden(rng):
    """|0><0| padded by one identity qubit is diag(1, 0, 1, 0)."""
    base = SpanProjection(1, np.array([[1.0], [0.0]], dtype=complex))
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
    """matrix() and the dense mass equal a SpanProjection of the stacked product vectors."""
    system = random_basis(rng, periods=3)
    prefixes = ("0000", "0101", "0110", "1011", "1111")
    test = ClassicalMLT({1: StagedSigmaClass({4: prefixes})})
    stage = lift_classical_mlt(test, system).levels[1].stage_at(4)
    explicit = SpanProjection(4, np.stack([system.product_vector(p) for p in prefixes], axis=1))
    chain = DenseStateChain.from_top(random_density(rng, 16))
    assert stage.rank == explicit.rank == 5
    assert stage.density() == explicit.density()
    assert np.array_equal(stage.matrix(), explicit.matrix())
    assert stage.mass(chain) == explicit.mass(chain)


def test_block_eigen_span_rank_and_density():
    block = build_corner_block(5)
    span = BlockEigenSpan.nonzero(block)
    assert [g.kind for g in span.groups] == ["pair_plus", "middle"]
    assert span.rank == 32 - 6
    assert span.density() == (32 - 6) / 32


def test_block_eigen_span_trace_closed_form_oracle(rng):
    base = build_corner_block(5)
    span = BlockEigenSpan.nonzero(base)
    cols = span.columns()
    proj = cols @ cols.conj().T
    for h, g in [(6, 2.0**-5), (4, 0.01), (0, 0.0), (16, 0.02)]:
        other = build_corner_block_general(5, h, g)
        oracle = float(np.real(np.trace(other.to_dense() @ proj)))
        assert span.trace_against(other) == pytest.approx(oracle, abs=1e-13)


def test_block_eigen_span_full_rank_when_no_zero_eigenvalue():
    block = build_corner_block_general(5, 6, 0.01)
    span = BlockEigenSpan.nonzero(block)
    assert span.rank == 32


def test_factored_projection_rank_golden():
    spans = tuple(BlockEigenSpan.nonzero(build_corner_block(n)) for n in (5, 6))
    proj = FactoredEigenProjection(spans)
    assert proj.rank == (32 - 6) * (64 - 10) == 1404
    aligned = FactoredState([build_corner_block(5), build_corner_block(6)])
    assert proj.mass(aligned) == pytest.approx(1.0, abs=1e-15)


def test_factored_projection_mass_is_closed_form_only(rng):
    """A dense state, or blocks straddling a span, has no closed form: BadQuery, no fallback."""
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
    ]
    with pytest.raises(BadQuery):
        proj.mass(chain)
    for blocks in misaligned:
        with pytest.raises(BadQuery):
            proj.mass(FactoredState(blocks))
    aligned_runs = FactoredState([qubit] * 3 + [pair] + [build_corner_block_general(6, 0, 0.0)])
    assert proj.mass(aligned_runs) == proj.density()


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
    oracle = Fraction(1)
    for n in range(5, 10):
        oracle *= 1 - Fraction((1 << n) // n, 1 << n)
    value = tau(cls, witness_depth(9))
    assert value == pytest.approx(float(oracle), rel=1e-12)
    assert value < 0.5


@pytest.mark.parametrize("m", [1, 2])
def test_witness_evaluation_is_one(m):
    cls, last = build_witness_test(m)
    state = FactoredState.witness_state()
    value = evaluate_state(cls, state, witness_depth(last))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert tau(cls, witness_depth(last)) < 2.0**-m


def test_witness_stage_extension_rules():
    cls, last = build_witness_test(1)
    depth = witness_depth(last)
    state = FactoredState.witness_state()
    assert tau(cls, depth - 1) == 0.0
    assert evaluate_state(cls, state, depth - 1) == 0.0
    assert tau(cls, depth + 3) == tau(cls, depth)
    assert cls.rank_at(depth + 3) == cls.rank_at(depth) << 3
    assert evaluate_state(cls, state, depth + 3) == pytest.approx(1.0, abs=1e-9)


def test_witness_mixed_state_evaluates_to_tau():
    cls, last = build_witness_test(1)
    depth = witness_depth(last)
    mixed = FactoredState.maximally_mixed()
    assert evaluate_state(cls, mixed, depth) == pytest.approx(tau(cls, depth), rel=1e-12)


def test_witness_budget_exceeded_reports_requirement():
    with pytest.raises(BudgetExceeded) as exc:
        build_witness_test(2, block_budget=10)
    assert exc.value.required == 18


def test_witness_rank_product():
    cls, last = build_witness_test(1)
    expected = 1
    for n in range(5, 10):
        expected *= (1 << n) - (1 << n) // n
    assert cls.rank_at(witness_depth(last)) == expected


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


def test_check_nesting_catches_non_nested_stages():
    p1 = SpanProjection(1, np.array([[1.0], [0.0]], dtype=complex))
    v = np.zeros((4, 1), dtype=complex)
    v[3, 0] = 1.0  # |11>, orthogonal to |0> x anything
    p2 = SpanProjection(2, v)
    cls = QuantumSigmaClass({1: p1, 2: p2})
    with pytest.raises(BadSpec):
        cls.check_nesting()


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


def test_rank_one_projection_recovers_top_eigenvalue(rng):
    rho = random_density(rng, 8)
    values, vectors = np.linalg.eigh(rho)
    top = SpanProjection(3, vectors[:, -1:])
    cls = QuantumSigmaClass({3: top})
    chain = DenseStateChain.from_top(rho)
    assert evaluate_state(cls, chain, 3) == pytest.approx(values[-1], abs=1e-12)


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
    base = SpanProjection(1, np.eye(2, dtype=complex))  # rank density 1
    test = QuantumMLT({1: QuantumSigmaClass({1: base})})
    with pytest.raises(BadSpec):
        test.validate_tau_bounds()
