"""Battery behavior on degenerate, crafted, and calibrated streams.

scipy is a test-only oracle here: the package computes its p-values with
``math.erfc`` and its own ``_gammaincc``, and these tests hold both, and
every ``passed`` flag they decide, to scipy's special functions.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from qmeas.errors import InsufficientData
from qmeas.jsonio import canonical_dumps
from qmeas import randlab
from qmeas.measurement import MeasurementSystem, sample_bits
from qmeas.randlab import (
    APEN_M,
    MIN_BITS,
    SERIAL_M,
    BatteryReport,
    _binomial_quantile,
    _gammaincc,
    _ndtr,
    _pattern_counts,
    _pattern_tables,
    _psi_squared,
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
from qmeas.states import FactoredState


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
    a = canonical_dumps(run_battery(bits))
    b = canonical_dumps(run_battery(bits))
    assert a == b


def test_battery_accepts_strings():
    report = run_battery("01" * 2000)
    assert report.n_bits == 4000


# ---------------------------------------------------------------------------
# pattern counts from one pass, folded


def per_m_serial_and_apen(bits, alpha):
    """The serial and approximate-entropy results with one pattern-count pass per length."""
    n, m = bits.size, SERIAL_M

    def psi(mm):
        return 0.0 if mm == 0 else float((1 << mm) / n * np.sum(_pattern_counts(bits, mm) ** 2) - n)

    psi2, psi1, psi0 = psi(m), psi(m - 1), psi(m - 2)
    d1 = max(psi2 - psi1, 0.0)
    d2 = max(psi2 - 2.0 * psi1 + psi0, 0.0)
    p1 = _gammaincc(2.0 ** (m - 2), d1 / 2.0)
    p2 = _gammaincc(2.0 ** (m - 3), d2 / 2.0)
    serial = [
        randlab.TestResult("serial", d1, p1, p1 >= alpha, {"m": m}),
        randlab.TestResult("serial_second", d2, p2, p2 >= alpha, {"m": m}),
    ]

    def phi(mm):
        if mm == 0:
            return 0.0
        counts = _pattern_counts(bits, mm)
        probs = counts[counts > 0] / n
        return float(np.sum(probs * np.log(probs)))

    m = APEN_M
    apen = phi(m) - phi(m + 1)
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    p = _gammaincc(2.0 ** (m - 1), chi2 / 2.0)
    return serial, randlab.TestResult("approximate_entropy", apen, p, p >= alpha, {"m": m})


def per_m_battery(bits, alpha=0.01):
    bits = np.asarray(bits, dtype=np.uint8)
    serial, apen = per_m_serial_and_apen(bits, alpha)
    results = (
        monobit_test(bits, alpha),
        block_frequency_test(bits, alpha),
        runs_test(bits, alpha),
        *serial,
        cumulative_sums_test(bits, alpha),
        apen,
    )
    return BatteryReport("", int(bits.size), alpha, results, compression_ratio(bits))


FOLDED_STREAMS = {
    "random": uniform_bits(31, 100_000),
    "all-zero": np.zeros(10_000, dtype=np.uint8),
    "alternating": np.tile([0, 1], 5_000).astype(np.uint8),
    "min-bits": uniform_bits(32, MIN_BITS),
    "min-bits-ones": np.ones(MIN_BITS, dtype=np.uint8),
}


@pytest.mark.parametrize("name", sorted(FOLDED_STREAMS))
def test_folded_counts_are_the_per_m_counts(name):
    bits = FOLDED_STREAMS[name]
    tables = _pattern_tables(bits, 5)
    assert [t.size for t in tables] == [1, 2, 4, 8, 16, 32]
    assert tables[0].tolist() == [bits.size]
    for m in range(1, 6):
        assert tables[m].dtype == np.float64
        assert tables[m].tobytes() == _pattern_counts(bits, m).tobytes(), m
    for alpha in (0.01, 0.3):
        assert run_battery(bits, alpha) == per_m_battery(bits, alpha)
        serial, apen = per_m_serial_and_apen(bits, alpha)
        assert serial_tests(bits, alpha) == serial
        assert approximate_entropy_test(bits, alpha) == apen


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


@pytest.mark.parametrize("name", ["random", "all-zero", "alternating"])
def test_pattern_counts_against_dict_counting(name):
    """Counts at m = 1..9, across the one-byte to two-byte index boundary at m = 9."""
    bits = {
        "random": uniform_bits(41, 3001),
        "all-zero": np.zeros(3001, dtype=np.uint8),
        "alternating": np.tile([0, 1], 1500).astype(np.uint8),
    }[name]
    text = "".join(map(str, bits.tolist()))
    for m in range(1, 10):
        wrapped = text + text[: m - 1]
        counts = {}
        for i in range(bits.size):
            pattern = int(wrapped[i : i + m], 2)
            counts[pattern] = counts.get(pattern, 0) + 1
        got = _pattern_counts(bits, m)
        assert got.dtype == np.float64 and got.size == 1 << m
        assert got.tolist() == [float(counts.get(p, 0)) for p in range(1 << m)], m


def test_psi_squared_against_dict_counting(rng):
    bits = (rng.random(1000) < 0.5).astype(np.uint8)
    for m in (1, 2, 3):
        extended = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
        counts = {}
        for i in range(bits.size):
            pattern = tuple(extended[i : i + m])
            counts[pattern] = counts.get(pattern, 0) + 1
        expected = (2**m / bits.size) * sum(c * c for c in counts.values()) - bits.size
        assert _psi_squared(_pattern_counts(bits, m), bits.size) == pytest.approx(expected, rel=1e-12)
        # the battery's counts, folded down from one pass at m = 3, are the same
        assert _psi_squared(_pattern_tables(bits, 3)[m], bits.size) == pytest.approx(expected, rel=1e-12)


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


# ---------------------------------------------------------------------------
# special functions, with scipy as the reference


@pytest.mark.parametrize("a", [0.5, 1, 2, 4, 32, 64, 390.5, 4096])
def test_gammaincc_matches_scipy(a):
    # the prefactor's exponent a ln x - x cancels, so the error grows with a
    rel = 1e-12 if a <= 400 else 1e-11
    for x in np.geomspace(1e-3 * a, 50 * a, 1000).tolist():
        expected = float(special.gammaincc(a, x))
        # scipy flushes the subnormal tail to zero
        assert math.isclose(_gammaincc(a, x), expected, rel_tol=rel, abs_tol=sys.float_info.min), x


def test_gammaincc_edges():
    assert _gammaincc(2.0, 0.0) == 1.0
    assert _gammaincc(0.5, -1.0) == 1.0
    # the prefactor underflows far in the tail, as for an all-zeros stream
    assert _gammaincc(39.0, 5_000.0) == 0.0
    with pytest.raises(ArithmeticError):
        _gammaincc(2.0, math.nan)


def test_erfc_and_ndtr_match_scipy():
    for x in np.linspace(-26.0, 26.0, 10_001).tolist():
        assert math.isclose(math.erfc(x), float(special.erfc(x)), rel_tol=1e-13), x
    for x in np.linspace(-37.0, 37.0, 10_001).tolist():
        assert math.isclose(_ndtr(x), float(special.ndtr(x)), rel_tol=1e-12), x


def scipy_p_values(bits: np.ndarray, report: BatteryReport) -> dict[str, float]:
    """Each test's p-value from its reported statistic through scipy's special functions."""
    n = bits.size
    stat = {r.name: r.statistic for r in report.results}
    s = 2.0 * np.sum(bits, dtype=np.int64) - n
    p = {"monobit": special.erfc(abs(s) / math.sqrt(2.0 * n))}
    p["block_frequency"] = special.gammaincc(n // 128 / 2.0, stat["block_frequency"] / 2.0)
    pi = float(np.mean(bits))
    if report.result("runs").detail:
        p["runs"] = 0.0
    else:
        denom = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
        p["runs"] = special.erfc(abs(stat["runs"] - 2.0 * n * pi * (1.0 - pi)) / denom)
    p["serial"] = special.gammaincc(1.0, stat["serial"] / 2.0)
    p["serial_second"] = special.gammaincc(0.5, stat["serial_second"] / 2.0)
    z, sn = stat["cumulative_sums"], math.sqrt(n)
    cusum = 0.0
    if z:
        cusum = 1.0
        for k in range(int((-n / z + 1) / 4), int((n / z - 1) / 4) + 1):
            cusum -= special.ndtr((4 * k + 1) * z / sn) - special.ndtr((4 * k - 1) * z / sn)
        for k in range(int((-n / z - 3) / 4), int((n / z - 1) / 4) + 1):
            cusum += special.ndtr((4 * k + 3) * z / sn) - special.ndtr((4 * k + 1) * z / sn)
    p["cumulative_sums"] = min(max(cusum, 0.0), 1.0)
    chi2 = max(2.0 * n * (math.log(2.0) - stat["approximate_entropy"]), 0.0)
    p["approximate_entropy"] = special.gammaincc(2.0, chi2 / 2.0)
    return {name: float(value) for name, value in p.items()}


def assert_flags_match_scipy(bits: np.ndarray) -> None:
    report = run_battery(bits, alpha=0.01)
    expected = scipy_p_values(bits, report)
    assert set(expected) == {r.name for r in report.results}
    for r in report.results:
        assert r.passed == (expected[r.name] >= report.alpha), r.name
        assert math.isclose(r.p_value, expected[r.name], rel_tol=1e-9, abs_tol=1e-300), r.name


def bench_stream_inputs(seed: int) -> list[tuple[MeasurementSystem, int]]:
    """The three sampled streams of the benchmark's ``stream`` workload for one seed.

    The derivation mirrors ``bench/workloads.py:stream_ops``: seven rotation
    angles, then one sampler seed per basis, from one seeded generator.
    """
    rng = random.Random(f"qmeas-bench:stream:{seed}")
    thetas = [round(rng.uniform(0.35, 1.22), 6) for _ in range(7)]
    systems = [
        MeasurementSystem.hadamard(),
        MeasurementSystem.standard(),
        MeasurementSystem.from_spec({"kind": "rotation", "theta": thetas}),
    ]
    return [(system, rng.randrange(1 << 31)) for system in systems]


def test_flags_match_scipy_on_the_calibration_streams():
    state, system = FactoredState.witness_state(), MeasurementSystem.standard()
    for seed in range(100):
        assert_flags_match_scipy(sample_bits(state, system, 10_000, seed).bits)


def test_flags_match_scipy_on_the_bench_streams():
    state = FactoredState.witness_state()
    for bench_seed in range(16):
        for system, seed in bench_stream_inputs(bench_seed):
            assert_flags_match_scipy(sample_bits(state, system, 100_000, seed).bits)


def test_flags_match_scipy_on_degenerate_streams():
    assert_flags_match_scipy(np.zeros(10_000, dtype=np.uint8))
    assert_flags_match_scipy(np.tile([0, 1], 5_000).astype(np.uint8))
    assert_flags_match_scipy(uniform_bits(11, 100_000))


# ---------------------------------------------------------------------------
# the runtime needs no scipy


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_no_scipy():
    code = (
        "import sys, qmeas, qmeas.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_sample_and_battery_run_with_scipy_blocked(tmp_path):
    code = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from qmeas.cli import main
sample = main(["sample", "--bits", "2000", "--seed", "1", "--out-prefix", "s"])
battery = main(["battery", "s.bits", "--aggregate"])
print(sample, battery)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), cwd=tmp_path, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    *payloads, codes = out.stdout.splitlines()
    sample_code, battery_code = (int(c) for c in codes.split())
    assert sample_code == 0 and battery_code in (0, 1)
    sample, battery = (json.loads(line) for line in payloads)
    assert sample["report"]["streams"][0]["n_bits"] == 2000
    (stream,) = battery["report"]["reports"]
    assert stream["n_bits"] == 2000 and len(stream["results"]) == 7
    assert battery["report"]["aggregate"]["n_streams"] == 1
