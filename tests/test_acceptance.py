"""Acceptance suite: twelve numbered criteria, one test (and one pytest -v
line) each.  Every expected value is either exact, derived from an
independent oracle computed inside the test, or a published reference
number; tolerances are stated inline next to each assertion.
"""

import numpy as np
import pytest
from scipy import stats

from qmeas import qmlt
from qmeas.errors import BadFamilyParams
from qmeas.measurement import (
    MeasurementSystem,
    block_measure,
    premeasure_factored,
    premeasure_table_dense,
    sample_bits,
)
from qmeas.randlab import aggregate, run_battery
from qmeas.states import (
    DenseStateChain,
    FactoredState,
    build_corner_block,
    build_corner_block_general,
    prefix_density,
)
from qmeas.verify import (
    verify_corner_block_bound,
    verify_family,
    verify_kron_pairing,
    verify_quadratic_bounds,
)

from conftest import random_basis, random_density
from exact import analytic_eigensystem, family_tau, projector


def test_criterion_01_premeasure_additivity():
    """p(tau) = p(tau0) + p(tau1) across random dense states and bases."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        chain = DenseStateChain.from_top(random_density(rng, 1 << k))
        system = random_basis(rng)
        tables = [
            premeasure_table_dense(chain.prefix(j), system) for j in range(k + 1)
        ]
        for j in range(k):
            split = tables[j + 1].reshape(2, 1 << j)
            worst = max(worst, float(np.max(np.abs(tables[j] - split[0] - split[1]))))
    assert worst <= 1e-10
    print(f"[PASS] criterion 1: additivity over 100 dense states, worst {worst:.3e} <= 1e-10")


def test_criterion_02_golden_block_three():
    """The 8x8 three-qubit block matches its displayed form entry for entry."""
    eighth = 2.0**-3
    expected = np.zeros((8, 8))
    np.fill_diagonal(expected, eighth)
    for i in (1, 2):  # two corner pairs: (1, 8) and (2, 7) in 1-based indexing
        expected[i - 1, 8 - i] = eighth
        expected[8 - i, i - 1] = eighth
    built = build_corner_block(3).to_dense()
    assert np.array_equal(built, expected)
    print("[PASS] criterion 2: golden 8x8 block reproduced exactly")


def test_criterion_03_eigenstructure():
    """Zero-eigenvalue multiplicity floor(2^n/n), analytic vs numeric 1e-9."""
    for n in range(3, 11):
        block = build_corner_block(n)
        pairs = analytic_eigensystem(block)
        analytic = np.sort([p.value for p in pairs])
        numeric = np.sort(np.linalg.eigvalsh(block.to_dense()))
        assert np.max(np.abs(analytic - numeric)) <= 1e-9
        want_zero = (1 << n) // n
        assert sum(1 for p in pairs if abs(p.value) < 1e-15) == want_zero
        assert int(np.sum(np.abs(numeric) < 1e-12)) == want_zero
    print("[PASS] criterion 3: zero multiplicity floor(2^n/n) for n=3..10, analytic==numeric @1e-9")


def test_criterion_04_coordinate_pairing_identity():
    """Pairing identity within 1e-12 relative error, 10^3 trials each n."""
    for n in (4, 6, 8):
        report = verify_kron_pairing(n=n, trials=1000, seed=n)
        assert report.trials == 1000
        assert report.passed
        assert report.worst_margin >= -1e-12
    print("[PASS] criterion 4: pairing identity @1e-12 rel, 10^3 trials each of n=4,6,8")


def test_criterion_05_quadratic_form_bounds():
    """10^5 product vectors per n=5..14 inside 2^-n(1 -/+ 2/n); corner bound too."""
    for n in range(5, 15):
        quad = verify_quadratic_bounds(n=n, trials=100_000, seed=n)
        assert quad.trials == 100_000
        assert quad.passed
        corner = verify_corner_block_bound(n=n, trials=100_000, seed=n + 50)
        assert corner.trials == 100_000
        assert corner.passed
    print("[PASS] criterion 5: quadratic-form and corner bounds hold for 10^5 vectors, n=5..14")


def test_criterion_06_lifting_identity():
    """A lifted stage's mass is tr(rho p), p built from Kronecker product vectors; tau exact."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        i = int(rng.integers(1, 9))
        n_prefixes = int(rng.integers(0, (1 << (i - 1)) + 1))
        chosen = rng.choice(1 << i, size=n_prefixes, replace=False)
        prefixes = tuple(
            "".join(str((int(v) >> q) & 1) for q in range(i)) for v in chosen
        )
        system = random_basis(rng)
        rho = random_density(rng, 1 << i)
        classical = qmlt.ClassicalMLT({1: qmlt.StagedSigmaClass({i: prefixes})})
        stage = qmlt.lift_classical_mlt(classical, system).levels[1].stage_at(i)
        lhs = stage.mass(DenseStateChain.from_top(rho))
        rhs = float(np.real(np.trace(rho @ projector(stage)))) if prefixes else 0.0
        worst = max(worst, abs(lhs - rhs))
        assert stage.rank == n_prefixes
        assert stage.density() == n_prefixes * 2.0**-i  # exact float equality
    assert worst <= 1e-10
    print(f"[PASS] criterion 6: lifting identity over 100 triples, worst {worst:.3e} <= 1e-10; tau exact")


def test_criterion_07_witness_test():
    """N(1)=9; rank density ~0.4591 < 1/2 vs exact oracle; evaluations are 1."""
    assert qmlt.required_witness_blocks(1) == 9
    test1, last1 = qmlt.build_witness_test(1)
    assert last1 == 9
    depth1 = qmlt.witness_depth(last1)
    tau = test1.tau_at(depth1)
    assert tau == pytest.approx(float(family_tau(last1)), rel=1e-12)
    assert tau < 0.5
    state = FactoredState.witness_state()
    for m, (cls, last) in ((1, (test1, last1)), (2, qmlt.build_witness_test(2))):
        value = qmlt.evaluate_state(cls, state, qmlt.witness_depth(last))
        assert value == pytest.approx(1.0, abs=1e-9), f"level {m}"
    print(f"[PASS] criterion 7: N(1)=9, tau={tau:.10f} < 1/2 (oracle @1e-12), T1/T2 evaluations = 1 @1e-9")


def test_criterion_08_factored_dense_equivalence():
    """All 2^11 premeasure queries agree between paths for 10 random bases."""
    state = FactoredState.witness_state()
    dense_prefix = prefix_density(state, 11)
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        system = random_basis(rng, periods=11)
        dense_table = premeasure_table_dense(dense_prefix, system)
        for idx in range(1 << 11):
            tau = tuple((idx >> q) & 1 for q in range(11))
            diff = abs(premeasure_factored(state, system, tau) - dense_table[idx])
            worst = max(worst, diff)
    assert worst <= 1e-10
    print(f"[PASS] criterion 8: factored vs dense at depth 11, 10 bases, worst {worst:.3e} <= 1e-10")


def test_criterion_09_standard_basis_uniformity():
    """Standard-basis premeasure is exactly uniform for 10^3 random strings."""
    state = FactoredState.witness_state()
    system = MeasurementSystem.standard()
    rng = np.random.default_rng(909)
    for _ in range(1000):
        length = int(rng.integers(1, 41))
        tau = tuple(int(b) for b in rng.integers(0, 2, size=length))
        value = premeasure_factored(state, system, tau)
        assert value == pytest.approx(2.0**-length, rel=1e-12)
    print("[PASS] criterion 9: standard-basis premeasure = 2^-|tau| @1e-12 rel, 10^3 strings up to 40 bits")


def test_criterion_10_sampling_consistency():
    """Hadamard-basis samples: block frequencies within 3 SE; conditionals
    telescope to the block measures."""
    state = FactoredState.witness_state()
    system = MeasurementSystem.hadamard()
    n_seeds, n_bits = 100, 10_000
    samples = [sample_bits(state, system, n_bits, seed) for seed in range(n_seeds)]
    bits = np.stack([s.bits for s in samples])
    conds = np.stack([s.conditional_probs for s in samples])

    # frequency cells: the first three complete blocks (sizes 5, 6, 7)
    offsets = state.columns(18).offset
    cells = ok_cells = 0
    for b in range(3):
        block = state.block(b)
        o, n = offsets[b], block.n
        observed = bits[:, o : o + n].astype(np.int64) @ (1 << np.arange(n))
        counts = np.bincount(observed, minlength=1 << n)
        for v in range(1 << n):
            sigma = tuple((v >> q) & 1 for q in range(n))
            p = block_measure(block, system, o, sigma)
            se = np.sqrt(p * (1.0 - p) / n_seeds)
            cells += 1
            ok_cells += abs(counts[v] / n_seeds - p) <= 3.0 * se
    assert cells == 2**5 + 2**6 + 2**7
    assert ok_cells / cells >= 0.95

    # each stream's conditionals multiply back to the premeasure, checked
    # block by block (the full 10^4-bit product underflows doubles)
    worst = 0.0
    for b, o in enumerate(state.columns(n_bits).offset.tolist()):
        block = state.block(b)
        if o + block.n > n_bits:
            break
        prod = np.prod(conds[:, o : o + block.n], axis=1)
        for s in range(n_seeds):
            sigma = tuple(int(x) for x in bits[s, o : o + block.n])
            p = block_measure(block, system, o, sigma)
            worst = max(worst, abs(prod[s] - p) / p)
    assert worst <= 1e-9
    # and literally over the first 64 bits, where the product is representable
    head = np.prod(conds[:, :64], axis=1)
    for s in range(n_seeds):
        p = premeasure_factored(state, system, tuple(int(x) for x in bits[s, :64]))
        assert head[s] == pytest.approx(p, rel=1e-9)
    print(f"[PASS] criterion 10: {ok_cells}/{cells} cells within 3 SE (>=95%); conditional products match @1e-9 rel")


def test_criterion_11_battery_calibration():
    """Standard-basis output passes the aggregate; degenerate streams fail."""
    state = FactoredState.witness_state()
    system = MeasurementSystem.standard()
    reports = [
        run_battery(sample_bits(state, system, 10_000, seed), alpha=0.01)
        for seed in range(100)
    ]
    summary = aggregate(reports)
    assert summary.n_streams == 100
    assert summary.envelope == int(stats.binom.ppf(0.99, 100, 0.01))
    assert not summary.flagged

    zeros = run_battery(np.zeros(10_000, dtype=np.uint8))
    assert "monobit" in zeros.failures
    alternating = run_battery(np.tile([0, 1], 5_000).astype(np.uint8))
    assert "runs" in alternating.failures
    print(f"[PASS] criterion 11: aggregate unflagged (envelope {summary.envelope}); zeros fail monobit, alternating fails runs")


def test_criterion_12_family_checks():
    """Canonical tables reduce to the built-in blocks; bounds enforced;
    partial products monotone out to block size 30."""
    sizes = range(5, 31)
    blocks = [build_corner_block(n) for n in sizes]
    canonical = FactoredState.general_family(
        {n: (1 << n) // n for n in sizes}, {n: 2.0**-n for n in sizes}
    )
    assert canonical.blocks == blocks
    for n in range(5, 10):
        assert np.array_equal(canonical.block(n - 5).to_dense(), build_corner_block(n).to_dense())
    with pytest.raises(BadFamilyParams):
        build_corner_block_general(6, 4, 2.0**-6 * (1.0 + 1e-6))
    with pytest.raises(BadFamilyParams, match="n=5|g\\(5\\)"):
        FactoredState.general_family({5: 2}, {5: 2.0**-5 * 1.01})
    report = verify_family(blocks)
    assert report.passed
    params = report.parameters
    for partials in (params["rho_partials"], params["kept_mass_partials"]):
        assert all(b <= a for a, b in zip(partials, partials[1:]))
    assert params["kept_mass_product"] == 1.0
    assert all(p is not None for p in params["rho_partials"])
    print("[PASS] criterion 12: canonical family == built-in blocks, g <= 2^-n enforced, partials monotone to 30")
