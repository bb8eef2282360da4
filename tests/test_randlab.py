"""Battery behavior on degenerate, crafted, and calibrated streams."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qmeas.errors import InsufficientData
from qmeas.randlab import (
    BatteryReport,
    _binomial_quantile,
    _pattern_psi_squared,
    aggregate,
    approximate_entropy_test,
    block_frequency_test,
    compression_ratio,
    cumulative_sums_test,
    monobit_test,
    run_battery,
    runs_test,
    serial_tests,
)


def uniform_bits(seed, n):
    return (np.random.default_rng(seed).random(n) < 0.5).astype(np.uint8)


def test_battery_needs_enough_bits():
    with pytest.raises(InsufficientData):
        run_battery(np.zeros(999, dtype=np.uint8))


def test_all_zeros_fails_monobit():
    report = run_battery(np.zeros(10_000, dtype=np.uint8))
    assert not report.result("monobit").passed
    assert report.result("monobit").p_value < 1e-10
    assert "monobit" in report.failures


def test_alternating_fails_runs_but_passes_monobit():
    bits = np.tile([0, 1], 5000).astype(np.uint8)
    report = run_battery(bits)
    assert report.result("monobit").passed
    assert not report.result("runs").passed


def test_uniform_stream_passes_everything():
    report = run_battery(uniform_bits(2024, 100_000), alpha=0.01)
    assert report.failures == []
    assert 0.9 < report.compression_ratio


def test_battery_is_deterministic():
    bits = uniform_bits(7, 5000)
    a = run_battery(bits).payload()
    b = run_battery(bits).payload()
    assert a == b


def test_battery_accepts_strings():
    report = run_battery("01" * 2000)
    assert report.n_bits == 4000


# ---------------------------------------------------------------------------
# single tests against NIST worked examples (SP 800-22 section 2 examples)


def test_monobit_known_answer():
    bits = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
    result = monobit_test(bits, alpha=0.01)
    assert result.p_value == pytest.approx(0.527089, abs=1e-6)


def test_block_frequency_known_answer():
    bits = np.array([0, 1, 1, 0, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
    result = block_frequency_test(bits, alpha=0.01, m=3)
    assert result.p_value == pytest.approx(0.801252, abs=1e-6)


def test_runs_known_answer():
    bits = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
    result = runs_test(bits, alpha=0.01)
    assert result.p_value == pytest.approx(0.147232, abs=1e-6)


def test_cumulative_sums_known_answer():
    bits = np.array([1, 0, 1, 1, 0, 1, 0, 1, 1, 1], dtype=np.uint8)
    result = cumulative_sums_test(bits, alpha=0.01)
    assert result.statistic == 4.0
    assert result.p_value == pytest.approx(0.4116588, abs=1e-6)


def test_psi_squared_against_dict_counting(rng):
    bits = (rng.random(1000) < 0.5).astype(np.uint8)
    for m in (1, 2, 3):
        extended = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
        counts = {}
        for i in range(bits.size):
            pattern = tuple(extended[i : i + m])
            counts[pattern] = counts.get(pattern, 0) + 1
        expected = (2**m / bits.size) * sum(c * c for c in counts.values()) - bits.size
        assert _pattern_psi_squared(bits, m) == pytest.approx(expected, rel=1e-12)


def test_serial_and_apen_on_uniform_bits():
    bits = uniform_bits(123, 20_000)
    first, second = serial_tests(bits, alpha=0.01)
    assert first.name == "serial" and second.name == "serial_second"
    assert first.passed and second.passed
    apen = approximate_entropy_test(bits, alpha=0.01)
    assert apen.passed


def test_approximate_entropy_degenerate():
    result = approximate_entropy_test(np.zeros(5000, dtype=np.uint8), alpha=0.01)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value < 1e-10


def test_compression_ratio_reported_not_thresholded():
    zeros = np.zeros(10_000, dtype=np.uint8)
    random_bits = uniform_bits(5, 10_000)
    assert compression_ratio(zeros) < 0.05
    assert compression_ratio(random_bits) > 0.9
    report = run_battery(zeros)
    assert all(r.name != "compression" for r in report.results)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_uniform_streams_within_envelope():
    reports = [run_battery(uniform_bits(seed, 2000), alpha=0.01) for seed in range(100)]
    summary = aggregate(reports)
    assert summary.envelope == 4
    assert summary.flagged == ()
    assert summary.per_test["monobit"]["failures"] <= 4


def test_aggregate_flags_systematic_failure():
    reports = [run_battery(np.zeros(2000, dtype=np.uint8)) for _ in range(20)]
    summary = aggregate(reports)
    assert "monobit" in summary.flagged
    assert summary.per_test["monobit"]["failure_rate"] == 1.0


def test_aggregate_single_report_passthrough():
    report = run_battery(uniform_bits(1, 2000))
    summary = aggregate([report])
    assert summary.n_streams == 1
    assert set(summary.per_test) == {r.name for r in report.results}


def test_aggregate_requires_common_alpha():
    a = run_battery(uniform_bits(1, 2000), alpha=0.01)
    b = run_battery(uniform_bits(2, 2000), alpha=0.05)
    with pytest.raises(InsufficientData):
        aggregate([a, b])
    with pytest.raises(InsufficientData):
        aggregate([])


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2])
def test_binomial_envelope_matches_scipy(alpha):
    n = np.arange(1, 400)
    expected = stats.binom.ppf(0.99, n, alpha).astype(int)
    assert [_binomial_quantile(0.99, int(k), alpha) for k in n] == list(expected)


def test_import_does_not_load_scipy_stats():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, qmeas; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
