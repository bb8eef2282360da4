"""Monte-Carlo lemma checks and family constraint validation."""

import dataclasses
import json
import random
import tracemalloc

import numpy as np
import pytest

from qmeas import verify as verify_mod
from qmeas.cli import main
from qmeas.errors import BadFamilyParams, BadQuery
from qmeas.jsonio import canonical_dumps
from qmeas.matrixcore import is_density_matrix
from qmeas.measurement import MeasurementSystem, paired_coordinate_sum
from qmeas.states import FactoredState, build_corner_block, build_corner_block_general
from qmeas.verify import (
    _CHUNK_ENTRIES,
    BOUND_SLACK,
    IDENTITY_SLACK,
    ORACLE_TOL,
    ORACLE_TRIALS,
    LemmaReport,
    _factor_chunks,
    random_product_factors,
    product_vectors_dense,
    verify_corner_block_bound,
    verify_family,
    verify_kron_pairing,
    verify_quadratic_bounds,
)


def test_random_factors_are_unit(rng):
    factors = random_product_factors(rng, 50, 6)
    norms = np.sum(np.abs(factors) ** 2, axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_product_vectors_dense_convention(rng):
    factors = random_product_factors(rng, 1, 2)
    v = product_vectors_dense(factors)[0]
    a, b = factors[0]
    expected = np.array([a[0] * b[0], a[1] * b[0], a[0] * b[1], a[1] * b[1]])
    assert np.allclose(v, expected, atol=1e-15)


def test_kron_pairing_passes():
    report = verify_kron_pairing(n=8, trials=300, seed=1)
    assert report.passed
    assert report.parameters["max_relative_deviation"] <= 1e-12
    assert report.lemma_id == "kron_pairing"


def test_kron_pairing_rejects_large_n():
    with pytest.raises(BadQuery):
        verify_kron_pairing(n=13)


def test_quadratic_bounds_pass_with_dense_oracle():
    report = verify_quadratic_bounds(n=6, trials=2000, seed=2)
    assert report.passed
    assert report.worst_margin >= 0.0
    assert report.parameters["oracle_max_deviation"] <= 1e-10
    lo, hi = report.parameters["interval"]
    assert lo == pytest.approx(2.0**-6 * (1 - 2 / 6))
    assert hi == pytest.approx(2.0**-6 * (1 + 2 / 6))


def test_quadratic_bounds_requires_block_size():
    with pytest.raises(BadQuery):
        verify_quadratic_bounds(n=4)


def test_quadratic_hadamard_value_sits_inside_interval():
    block = build_corner_block(5)
    system = MeasurementSystem.hadamard()
    factors = np.stack([system.basis_at(q)[0] for q in range(1, 6)])
    s = paired_coordinate_sum(factors, block.corner_count)
    value = block.diag_value + block.corner_value * 2.0 * float(np.real(s))
    assert value == pytest.approx(11 / 256, rel=1e-13)
    assert value <= 2.0**-5 * 1.4 + 1e-15


def test_corner_block_bound_passes_and_hadamard_value():
    report = verify_corner_block_bound(n=8, trials=3000, seed=3)
    assert report.passed
    block = build_corner_block(5)
    system = MeasurementSystem.hadamard()
    factors = np.stack([system.basis_at(q)[0] for q in range(1, 5)])
    value = block.corner_value * abs(paired_coordinate_sum(factors, block.corner_count))
    assert value == pytest.approx(6 / 512, rel=1e-13)
    assert value <= 2.0**-4 / 5


def canonical_blocks(n_max):
    return [build_corner_block(n) for n in range(5, n_max + 1)]


def test_family_canonical_products():
    report = verify_family(canonical_blocks(30))
    assert report.passed
    params = report.parameters
    assert params["kept_mass_product"] == pytest.approx(1.0, abs=1e-15)
    oracle = 1.0
    for n in range(5, 31):
        oracle *= 1.0 - ((1 << n) // n) * 2.0**-n
    assert params["rho_product"] == pytest.approx(oracle, rel=1e-13)


def test_family_zero_corners_gives_unit_products():
    blocks = FactoredState.general_family(
        {n: 0 for n in range(5, 11)}, {n: 2.0**-n for n in range(5, 11)}
    ).blocks
    report = verify_family(blocks)
    assert report.passed
    assert report.parameters["rho_product"] == 1.0
    assert report.parameters["ratio_product"] == 1.0


def test_family_constraint_violation_names_the_size():
    with pytest.raises(BadFamilyParams, match="6"):
        FactoredState.general_family({5: 6, 6: 10}, {5: 2.0**-5, 6: 0.2})


def run_family_doc(capsys, tmp_path, doc):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "family", "--spec", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_from_doc_and_targets(capsys, tmp_path):
    doc = {
        "h": {"5": 6, "6": 10},
        "g": {"5": 0.015, "6": 0.0078125},
        "target_delta": 0.8,
        "target_F": 0.9,
    }
    code, out, _ = run_family_doc(capsys, tmp_path, doc)
    assert code == 0
    params = json.loads(out)["report"]["parameters"]
    assert params["n_max"] == 6
    assert params["delta_gap"] == abs(params["kept_mass_product"] - 0.8)
    assert params["f_gap"] == abs(params["ratio_product"] - 0.9)


def test_family_doc_requires_contiguous_tables(capsys, tmp_path):
    for doc in (
        {"h": {"5": 6, "7": 18}, "g": {"5": 0.01, "7": 0.001}},
        {"h": {"5": 6}, "g": {"6": 0.01}},
        {"h": {}},
    ):
        code, out, err = run_family_doc(capsys, tmp_path, doc)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "bad_spec"


def test_family_needs_a_block():
    for blocks in ([], iter(())):
        with pytest.raises(BadQuery):
            verify_family(blocks)


# ---------------------------------------------------------------------------
# the block path against the float h/g computation it replaced


def _partials(factors):
    out, acc = [], 1.0
    for f in factors:
        if f is None or acc is None:
            out.append(None)
            acc = None
        else:
            acc *= f
            out.append(acc)
    return out


DENSE_CHECK_MAX = 9  # largest family block also checked densely


def reference_family(h, g, target_delta=None, target_f=None):
    """The family report from h/g tables in float arithmetic on h = r and g = kappa 2^-n.

    Valid while every h converts to a float, that is for n <= 1,034 on
    canonical tables.  Blocks up to ``DENSE_CHECK_MAX`` qubits are also
    checked densely, and ``passed``, the closed-form margin, must agree.
    """
    sizes = list(h)
    rho_factors, kept_factors, ratio_factors, notes = [], [], [], []
    dense_ok = True
    for n in sizes:
        rho_factors.append(1.0 - h[n] * 2.0**-n)
        kept_factors.append(1.0 - h[n] * (2.0**-n - g[n]))
        gh2 = 2.0 * g[n] * h[n]
        if abs(1.0 - gh2) < 1e-300:
            ratio_factors.append(None)
            notes.append(f"third product undefined at n={n}: 1 - 2gh vanishes")
        else:
            ratio_factors.append(1.0 - (gh2 * gh2) / (1.0 - gh2) ** 2)
        if n <= DENSE_CHECK_MAX:
            dense_ok &= is_density_matrix(build_corner_block_general(n, h[n], g[n]).to_dense()).ok
    rho, kept, ratio = _partials(rho_factors), _partials(kept_factors), _partials(ratio_factors)
    worst = min(2.0**-n - g[n] for n in sizes)
    assert (worst >= 0.0) == dense_ok
    params = {
        "n_max": sizes[-1],
        "rho_product": rho[-1],
        "kept_mass_product": kept[-1],
        "ratio_product": ratio[-1],
        "rho_partials": rho,
        "kept_mass_partials": kept,
        "ratio_partials": ratio,
        "notes": notes,
    }
    if target_delta is not None:
        params["delta_gap"] = abs(kept[-1] - target_delta)
    if target_f is not None and ratio[-1] is not None:
        params["f_gap"] = abs(ratio[-1] - target_f)
    return LemmaReport(
        lemma_id="corner_family",
        trials=len(sizes),
        worst_margin=worst,
        slack=0.0,
        passed=worst >= 0.0,
        parameters=params,
    )


def assert_same_report(got, expected):
    assert got == expected
    assert canonical_dumps(got) == canonical_dumps(expected)  # bit patterns, signed zeros


@pytest.mark.parametrize("n_max", [5, 6, 9, 10, 30, 200, 1034])
def test_canonical_family_is_the_float_computation_bit_for_bit(n_max):
    sizes = range(5, n_max + 1)
    h = {n: (1 << n) // n for n in sizes}
    g = {n: 2.0**-n for n in sizes}
    assert_same_report(verify_family(canonical_blocks(n_max)), reference_family(h, g))


def random_family(seed):
    """Tables with kappa < 1, kappa = 1 and r = 0 entries, some out to subnormal g near n = 1,030."""
    rng = random.Random(seed)
    n_max = rng.choice([5, 6, 9, 12, 40, 300, 1030, 1034])
    h, g = {}, {}
    for n in range(5, n_max + 1):
        top = min(1 << (n - 1), 1 << 1023)  # the reference converts h to a float
        h[n] = rng.choice([0, (1 << n) // n, rng.randrange(top + 1)])
        g[n] = rng.choice([0.0, 2.0**-n, rng.random() * 2.0**-n])
    if seed == 0:
        h[5], g[5] = 16, 2.0**-5  # 1 - 2gh = 0: the third product is undefined
    targets = [rng.random() if rng.random() < 0.5 else None for _ in range(2)]
    return h, g, targets


@pytest.mark.parametrize("seed", range(50))
def test_general_family_is_the_float_computation_bit_for_bit(seed):
    h, g, targets = random_family(seed)
    blocks = FactoredState.general_family(h, g).blocks
    assert_same_report(verify_family(blocks, *targets), reference_family(h, g, *targets))
    if seed == 0:
        assert verify_family(blocks).parameters["ratio_product"] is None


def test_canonical_family_runs_past_float_h():
    report = verify_family(build_corner_block(n) for n in range(5, 1101))  # read once
    assert report.passed
    assert report.trials == 1096
    assert all(p is not None for p in report.parameters["rho_partials"])


def test_reports_serialize():
    report = verify_kron_pairing(n=4, trials=50, seed=9)
    payload = dataclasses.asdict(report)
    assert set(payload) == {"lemma_id", "trials", "worst_margin", "slack", "passed", "parameters"}


# ---------------------------------------------------------------------------
# chunked checks against the whole-array checks


def whole_kron_pairing(n, trials, seed):
    """The pairing check over every trial at once, as one whole draw."""
    factors = random_product_factors(np.random.default_rng(seed), trials, n)
    vectors = product_vectors_dense(factors)
    half = 1 << (n - 1)
    moduli = np.abs(vectors)
    lhs = moduli[:, :half] * moduli[:, ::-1][:, :half]
    rhs = np.prod(np.abs(factors[:, :, 0] * factors[:, :, 1]), axis=1)
    denom = np.maximum(rhs, 1e-300)
    worst = float(np.max(np.abs(lhs - rhs[:, None]) / denom[:, None]))
    return LemmaReport(
        lemma_id="kron_pairing",
        trials=trials,
        worst_margin=-worst,
        slack=IDENTITY_SLACK,
        passed=worst <= IDENTITY_SLACK,
        parameters={"n": n, "seed": seed, "max_relative_deviation": worst},
    )


def whole_quadratic_bounds(n, trials, seed):
    """The quadratic-bounds check over every trial at once, as one whole draw."""
    block = build_corner_block(n)
    factors = random_product_factors(np.random.default_rng(seed), trials, n)
    values = block.diag_value + block.corner_value * 2.0 * np.real(
        paired_coordinate_sum(factors, block.corner_count)
    )
    lo = block.diag_value * (1.0 - 2.0 / n)
    hi = block.diag_value * (1.0 + 2.0 / n)
    margin = float(min(np.min(values - lo), np.min(hi - values)))
    params = {
        "n": n,
        "seed": seed,
        "interval": [lo, hi],
        "min_value": float(np.min(values)),
        "max_value": float(np.max(values)),
    }
    oracle_ok = True
    if n <= 10:
        m = min(trials, ORACLE_TRIALS)
        dense = product_vectors_dense(factors[:m])
        d = block.to_dense()
        rows, cols = np.nonzero(d)
        direct = np.real(np.sum(dense[:, rows].conj() * d[rows, cols] * dense[:, cols], axis=1))
        oracle_dev = float(np.max(np.abs(direct - values[:m])))
        params["oracle_trials"] = m
        params["oracle_max_deviation"] = oracle_dev
        oracle_ok = oracle_dev <= ORACLE_TOL
    return LemmaReport(
        lemma_id="quadratic_bounds",
        trials=trials,
        worst_margin=margin,
        slack=BOUND_SLACK * 2.0**-n,
        passed=margin >= -BOUND_SLACK * 2.0**-n and oracle_ok,
        parameters=params,
    )


def whole_corner_block_bound(n, trials, seed):
    """The corner-block check over every trial at once, as one whole draw."""
    block = build_corner_block(n)
    factors = random_product_factors(np.random.default_rng(seed), trials, n - 1)
    values = block.corner_value * np.abs(paired_coordinate_sum(factors, block.corner_count))
    bound = 2.0 ** (1 - n) / n
    margin = float(np.min(bound - values))
    return LemmaReport(
        lemma_id="corner_block_bound",
        trials=trials,
        worst_margin=margin,
        slack=BOUND_SLACK * 2.0**-n,
        passed=margin >= -BOUND_SLACK * 2.0**-n,
        parameters={"n": n, "seed": seed, "bound": bound, "max_value": float(np.max(values))},
    )


def straddling(*widths):
    """1, and trial counts around the chunk of each entry width: rows +- 1 and 2 rows + 3."""
    counts = {1}
    for width in widths:
        rows = max(1, _CHUNK_ENTRIES // width)
        counts |= {rows - 1, rows, rows + 1, 2 * rows + 3}
    return sorted(counts)


CHUNKED_CASES = {
    # the quadratic check's oracle stops after ORACLE_TRIALS trials, in chunks 2^n wide
    "quadratic": (
        verify_quadratic_bounds,
        whole_quadratic_bounds,
        lambda n: straddling(n, 1 << n) + [ORACLE_TRIALS - 1, ORACLE_TRIALS + 1],
    ),
    "corner": (
        verify_corner_block_bound,
        whole_corner_block_bound,
        lambda n: straddling(n - 1) + [ORACLE_TRIALS - 1, ORACLE_TRIALS + 1],
    ),
    "pairing": (verify_kron_pairing, whole_kron_pairing, lambda n: straddling(1 << n)),
}


@pytest.mark.parametrize("n", [5, 6, 9, 10, 12])
@pytest.mark.parametrize("check", sorted(CHUNKED_CASES))
def test_chunked_checks_are_the_whole_array_checks(check, n):
    chunked, whole, trial_counts = CHUNKED_CASES[check]
    for trials in trial_counts(n):
        for seed in (0, 3, 11):
            assert chunked(n=n, trials=trials, seed=seed) == whole(n, trials, seed), (trials, seed)


@pytest.mark.parametrize("n", [10, 40, 50, 200, 1022])
def test_a_wrong_kernel_fails_the_bound_checks_at_every_n(monkeypatch, n):
    """100 s + 10 for the paired sum s misses the window and the bound, both about 2^-n wide.

    The slack is ``BOUND_SLACK`` * 2^-n, at the block's scale, so the kernel
    fails at every n; an absolute slack would pass it from n of about 45 on.
    """
    right = verify_mod.paired_coordinate_sum
    monkeypatch.setattr(verify_mod, "paired_coordinate_sum", lambda f, c: 100 * right(f, c) + 10)
    for check in (verify_quadratic_bounds, verify_corner_block_bound):
        assert not check(n=n, trials=20, seed=0).passed, check


@pytest.mark.parametrize("check", [verify_quadratic_bounds, verify_corner_block_bound])
def test_bound_checks_take_blocks_while_2_to_the_minus_n_is_normal(check):
    report = check(n=1022, trials=200, seed=0)
    assert report.passed and report.worst_margin > 1e-3 * 2.0**-1022
    assert report.slack == BOUND_SLACK * 2.0**-1022 > 0.0  # subnormal, and printed as used
    for n in (4, 1023, 1100):
        with pytest.raises(BadQuery):
            check(n=n, trials=1, seed=0)


@pytest.mark.parametrize("n, width", [(1, 1), (6, 6), (5, 1 << 5), (10, 1 << 10), (12, 1 << 12)])
def test_chunked_draws_are_one_whole_draw(n, width):
    rows = max(1, _CHUNK_ENTRIES // width)
    for trials in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        for seed in (0, 7, 2**40 + 1):
            rng = np.random.default_rng(seed)
            cos_theta = rng.uniform(-1.0, 1.0, size=(trials, n))
            phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, n))
            whole = np.empty((trials, n, 2), dtype=complex)
            whole[:, :, 0] = np.sqrt((1.0 + cos_theta) / 2.0)
            whole[:, :, 1] = np.sqrt((1.0 - cos_theta) / 2.0) * np.exp(1j * phase)
            chunks = list(_factor_chunks(seed, trials, n, width))
            assert [start for start, _ in chunks] == list(range(0, trials, rows))
            assert np.concatenate([f for _, f in chunks]).tobytes() == whole.tobytes()


def test_quadratic_bounds_memory_does_not_grow_with_trials():
    def traced_peak(trials):
        tracemalloc.start()
        try:
            verify_quadratic_bounds(n=10, trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(20_000), traced_peak(200_000)
    assert large <= 1.25 * small, (small, large)


@pytest.mark.parametrize("check", [verify_kron_pairing, verify_quadratic_bounds, verify_corner_block_bound])
@pytest.mark.parametrize("trials", [0, -5])
def test_checks_need_a_trial(check, trials):
    with pytest.raises(BadQuery, match="at least one trial"):
        check(n=6, trials=trials)
