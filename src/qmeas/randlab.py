"""Empirical randomness battery for sampled bit streams.

A pragmatic stand-in for algorithmic-randomness claims, which are not
decidable: the battery can only gather evidence.  Tests follow the classic
NIST SP 800-22 recipes (monobit, block frequency, runs, serial, cumulative
sums, approximate entropy) plus a compression-ratio figure that is reported
but never thresholded, since the choice of compressor is arbitrary.
"""

from __future__ import annotations

import math
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import BadQuery, InsufficientData
from .measurement import BitSample

MIN_BITS = 1000
BLOCK_FREQUENCY_M = 128
SERIAL_M = 2
APEN_M = 2
_EPS = sys.float_info.epsilon
_LENTZ_FLOOR = sys.float_info.min / _EPS
_MAX_TERMS = 100_000  # the battery's shape parameters need a few hundred


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatteryReport:
    stream_id: str
    n_bits: int
    alpha: float
    results: tuple[TestResult, ...]
    compression_ratio: float
    failures: list[str] = field(init=False)  # names of the failed tests, in battery order

    def __post_init__(self):
        object.__setattr__(self, "failures", [r.name for r in self.results if not r.passed])

    def result(self, name: str) -> TestResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) for a > 0.

    Below x = a + 1 the power series of P(a, x) converges fast and Q is
    1 - P; above it the continued fraction of Q, evaluated by the modified
    Lentz method, does.  Both share the prefactor x**a e**-x / Gamma(a),
    taken in logs; far in the tail (a degenerate stream) it underflows and Q
    is 0.0.  Either loop stops within a few hundred terms for the shape
    parameters the battery uses (integers and half-integers up to a few
    thousand); a continued fraction still open after ``_MAX_TERMS`` terms
    raises ``ArithmeticError``.  The relative error against a reference
    implementation is below 1e-12 for a <= 400 and grows with a, from the
    cancellation in a ln x - x.
    """
    if x <= 0.0:
        return 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - prefactor * total
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_FLOOR
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_FLOOR:
            d = _LENTZ_FLOOR
        c = b + an / c
        if abs(c) < _LENTZ_FLOOR:
            c = _LENTZ_FLOOR
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return prefactor * h
    raise ArithmeticError(f"gammaincc({a!r}, {x!r}): continued fraction did not converge")


def _as_bit_array(bits) -> tuple[np.ndarray, str]:
    if isinstance(bits, BitSample):
        label = f"seed={bits.seed},basis={bits.basis_label},state={bits.state_label}"
        return np.asarray(bits.bits, dtype=np.uint8), label
    if isinstance(bits, str):
        # one byte per character; any non-ASCII one becomes "?", which is no bit
        arr = np.frombuffer(bits.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
        if arr.size and arr.max() > 1:
            raise InsufficientData("bit strings may contain only '0' and '1'")
        return arr.astype(np.uint8), ""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or (arr.size and arr.max() > 1):
        raise InsufficientData("expected a flat array of 0/1 bits")
    return arr, ""


def monobit_test(bits: np.ndarray, alpha: float) -> TestResult:
    n = bits.size
    s = float(2.0 * np.sum(bits, dtype=np.int64) - n)
    p = math.erfc(abs(s) / math.sqrt(2.0 * n))
    return TestResult("monobit", s / math.sqrt(n), p, p >= alpha)


def block_frequency_test(bits: np.ndarray, alpha: float, m: int = BLOCK_FREQUENCY_M) -> TestResult:
    n_blocks = bits.size // m
    if n_blocks < 1:
        raise InsufficientData(f"block frequency needs at least {m} bits")
    pi = bits[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    p = _gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return TestResult("block_frequency", chi2, p, p >= alpha, {"block_size": m})


def runs_test(bits: np.ndarray, alpha: float) -> TestResult:
    n = bits.size
    pi = float(np.mean(bits))
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult("runs", 0.0, 0.0, False, {"note": "frequency precondition failed"})
    v = 1.0 + float(np.count_nonzero(bits[1:] != bits[:-1]))
    denom = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi)) / denom)
    return TestResult("runs", v, p, p >= alpha)


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2**m overlapping m-bit patterns, wrapping around the end (m >= 1).

    Each position's pattern index is built in place in the narrowest
    unsigned type that holds m bits, one byte at m <= 8.
    """
    n = bits.size
    extended = np.concatenate([bits, bits[: m - 1]]).astype(np.uint8, copy=False)
    idx = np.zeros(n, dtype=np.min_scalar_type((1 << m) - 1))
    for j in range(m):
        idx <<= 1
        idx |= extended[j : j + n]
    return np.bincount(idx, minlength=1 << m).astype(np.float64)


def _pattern_tables(bits: np.ndarray, m: int) -> list[np.ndarray]:
    """Wraparound pattern counts of every length 0..m, indexed by length, from one pass at m.

    A pattern's first bit is its most significant, so the (j-1)-bit counts
    fold out the last bit of the j-bit ones: counts[p] = counts_j[2p] +
    counts_j[2p+1], integers and so exact.
    """
    tables = [_pattern_counts(bits, m)]
    for _ in range(m):
        tables.append(tables[-1][0::2] + tables[-1][1::2])
    return tables[::-1]


def _psi_squared(counts: np.ndarray, n: int) -> float:
    """NIST serial-test psi^2 statistic of one length's wraparound pattern counts."""
    if counts.size == 1:  # the empty pattern
        return 0.0
    return float(counts.size / n * np.sum(counts**2) - n)


def serial_tests(bits: np.ndarray, alpha: float, m: int = SERIAL_M) -> list[TestResult]:
    return _serial_results(_pattern_tables(bits, m), bits.size, alpha, m)


def _serial_results(tables: list[np.ndarray], n: int, alpha: float, m: int) -> list[TestResult]:
    psi2, psi1, psi0 = (_psi_squared(tables[j], n) for j in (m, m - 1, m - 2))
    # both differences are non-negative up to rounding
    d1 = max(psi2 - psi1, 0.0)
    d2 = max(psi2 - 2.0 * psi1 + psi0, 0.0)
    p1 = _gammaincc(2.0 ** (m - 2), d1 / 2.0)
    p2 = _gammaincc(2.0 ** (m - 3), d2 / 2.0)
    return [
        TestResult("serial", d1, p1, p1 >= alpha, {"m": m}),
        TestResult("serial_second", d2, p2, p2 >= alpha, {"m": m}),
    ]


def cumulative_sums_test(bits: np.ndarray, alpha: float) -> TestResult:
    n = bits.size
    walk = bits.astype(np.int64)  # the +-1 steps, then their partial sums, in one buffer
    walk *= 2
    walk -= 1
    np.cumsum(walk, out=walk)
    z = float(max(walk.max(), -walk.min()))
    if z == 0.0:
        return TestResult("cumulative_sums", 0.0, 0.0, False, {"note": "degenerate"})
    sn = math.sqrt(n)
    # loop bounds truncate toward zero, matching the reference implementation
    # (the skipped edge terms are Phi values at ~sqrt(n) sigma, negligible for
    # any stream long enough to be tested)
    first = math.fsum(
        _ndtr((4 * k + 1) * z / sn) - _ndtr((4 * k - 1) * z / sn)
        for k in range(int((-n / z + 1) / 4), int((n / z - 1) / 4) + 1)
    )
    second = math.fsum(
        _ndtr((4 * k + 3) * z / sn) - _ndtr((4 * k + 1) * z / sn)
        for k in range(int((-n / z - 3) / 4), int((n / z - 1) / 4) + 1)
    )
    p = min(max(1.0 - first + second, 0.0), 1.0)
    return TestResult("cumulative_sums", z, p, p >= alpha)


def approximate_entropy_test(bits: np.ndarray, alpha: float, m: int = APEN_M) -> TestResult:
    return _apen_result(_pattern_tables(bits, m + 1), bits.size, alpha, m)


def _apen_result(tables: list[np.ndarray], n: int, alpha: float, m: int) -> TestResult:
    def phi(counts: np.ndarray) -> float:
        if counts.size == 1:  # the empty pattern
            return 0.0
        probs = counts[counts > 0] / n
        return float(np.sum(probs * np.log(probs)))

    apen = phi(tables[m]) - phi(tables[m + 1])
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    p = _gammaincc(2.0 ** (m - 1), chi2 / 2.0)
    return TestResult("approximate_entropy", apen, p, p >= alpha, {"m": m})


def compression_ratio(bits: np.ndarray) -> float:
    """Compressed size in bits over stream length; a complexity proxy only."""
    packed = np.packbits(bits)
    compressed = zlib.compress(packed.tobytes(), level=9)
    return 8.0 * len(compressed) / bits.size


def require_alpha(alpha: float) -> None:
    """Raise ``BadQuery`` unless the significance level lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:  # NaN too
        raise BadQuery(f"alpha must lie in (0, 1), got {alpha!r}")


def run_battery(bits, alpha: float = 0.01, stream_id: str | None = None) -> BatteryReport:
    """Run every test on one stream at level ``alpha`` in (0, 1); deterministic in the bits.

    The serial and approximate-entropy tests share one pass of pattern
    counts, at the longest length either reads.
    """
    require_alpha(alpha)
    arr, derived_id = _as_bit_array(bits)
    if arr.size < MIN_BITS:
        raise InsufficientData(
            f"battery needs at least {MIN_BITS} bits, got {arr.size}"
        )
    tables = _pattern_tables(arr, max(SERIAL_M, APEN_M + 1))
    results = [
        monobit_test(arr, alpha),
        block_frequency_test(arr, alpha),
        runs_test(arr, alpha),
        *_serial_results(tables, arr.size, alpha, SERIAL_M),
        cumulative_sums_test(arr, alpha),
        _apen_result(tables, arr.size, alpha, APEN_M),
    ]
    return BatteryReport(
        stream_id=stream_id if stream_id is not None else derived_id,
        n_bits=int(arr.size),
        alpha=alpha,
        results=tuple(results),
        compression_ratio=compression_ratio(arr),
    )


@dataclass(frozen=True)
class AggregateSummary:
    n_streams: int
    alpha: float
    per_test: dict
    envelope: int
    flagged: tuple[str, ...]


def _binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P[Binomial(n, p) <= k] >= q.

    The CDF is summed exactly: with p = a / d, every term times d**n is an
    integer, so no large n or small p can overflow or underflow it.
    """
    a, d = p.as_integer_ratio()
    qa, qd = q.as_integer_ratio()
    target = qa * d**n
    total = 0
    for k in range(n + 1):
        total += math.comb(n, k) * a**k * (d - a) ** (n - k)
        if total * qd >= target:
            return k
    return n


def aggregate(reports: list[BatteryReport]) -> AggregateSummary:
    """Summarize failure counts per test across streams.

    A test is flagged when its failures exceed the 99% binomial envelope
    for the common significance level.
    """
    if not reports:
        raise InsufficientData("aggregate needs at least one report")
    alpha = reports[0].alpha
    if any(r.alpha != alpha for r in reports):
        raise InsufficientData("aggregated reports must share one alpha")
    names = [r.name for r in reports[0].results]
    envelope = _binomial_quantile(0.99, len(reports), alpha)
    per_test = {}
    flagged = []
    for name in names:
        failures = sum(0 if r.result(name).passed else 1 for r in reports)
        per_test[name] = {
            "failures": failures,
            "failure_rate": failures / len(reports),
        }
        if failures > envelope:
            flagged.append(name)
    return AggregateSummary(
        n_streams=len(reports),
        alpha=alpha,
        per_test=per_test,
        envelope=envelope,
        flagged=tuple(flagged),
    )


__all__ = [
    "AggregateSummary",
    "BatteryReport",
    "TestResult",
    "aggregate",
    "approximate_entropy_test",
    "block_frequency_test",
    "compression_ratio",
    "cumulative_sums_test",
    "monobit_test",
    "require_alpha",
    "run_battery",
    "runs_test",
    "serial_tests",
]
