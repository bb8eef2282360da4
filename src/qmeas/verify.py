"""Monte-Carlo verification of the closed-form bounds behind the witness state.

Each check draws random product vectors from a seeded generator, evaluates
the quantity in question through the structured closed forms, and reports
the worst margin against the claimed bound.  Margins are signed: positive
means strictly inside the bound, and a check passes when the worst margin
stays above ``-slack``; a bound check's slack is relative to its block's
scale 2^-n (``_bound_block``).  Trials are drawn and evaluated in row
chunks of a fixed number of entries, keeping only running extremes, so a
check's memory does not grow with its trial count; the chunked draws are
bit for bit one whole draw from the same seed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

import numpy as np

from .errors import BadQuery
from .measurement import paired_coordinate_sum, product_vectors_dense
from .states import DensityBlock, build_corner_block

IDENTITY_SLACK = 1e-12
BOUND_SLACK = 1e-12
ORACLE_TOL = 1e-10
ORACLE_TRIALS = 1000  # dense cross-checks per quadratic-bounds run
# entries (trials x width) per chunk of a Monte-Carlo check
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verification run."""

    lemma_id: str
    trials: int
    worst_margin: float
    slack: float
    passed: bool
    parameters: dict = field(default_factory=dict)


def random_product_factors(
    rng: np.random.Generator, trials: int, n: int, phase_rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw (trials, n, 2) single-qubit unit vectors uniformly on the Bloch sphere.

    cos(theta) is uniform on [-1, 1] and the relative phase uniform on
    [0, 2pi); the global phase is irrelevant to every quantity checked here.
    The cos(theta) block comes from ``rng`` and the phase block from
    ``phase_rng``, by default ``rng`` itself after the cos(theta) block.
    """
    cos_theta = rng.uniform(-1.0, 1.0, size=(trials, n))
    phase = (rng if phase_rng is None else phase_rng).uniform(0.0, 2.0 * np.pi, size=(trials, n))
    out = np.empty((trials, n, 2), dtype=complex)
    out[:, :, 0] = np.sqrt((1.0 + cos_theta) / 2.0)
    out[:, :, 1] = np.sqrt((1.0 - cos_theta) / 2.0) * np.exp(1j * phase)
    return out


def _rows(width: int) -> int:
    """Trials per chunk ``width`` entries wide (n for draws and closed forms, 2^n dense)."""
    return max(1, _CHUNK_ENTRIES // width)


def _factor_chunks(seed, trials: int, n: int, width: int):
    """``random_product_factors(default_rng(seed), trials, n)`` bit for bit, in row chunks.

    Returns an iterator of (first trial, factors), ``_rows(width)`` trials
    at a time.  Each uniform is one 64-bit step of the stream, so the phase
    block starts trials * n steps in: a copy of the generator advanced that
    far draws it chunk by chunk alongside the cos(theta) block.
    """
    if trials < 1:
        raise BadQuery(f"need at least one trial, got {trials}")
    if seed < 0:
        raise BadQuery(f"seeds must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    phase_rng = copy.deepcopy(rng)
    phase_rng.bit_generator.advance(trials * n)
    rows = _rows(width)
    return (
        (start, random_product_factors(rng, min(rows, trials - start), n, phase_rng))
        for start in range(0, trials, rows)
    )


def _bound_block(n: int, check: str) -> tuple[DensityBlock, float]:
    """A bound check's canonical block and slack ``BOUND_SLACK`` * 2^-n, the block's scale."""
    if n < 5:
        raise BadQuery(f"{check} check applies to blocks n >= 5, got {n}")
    if n > 1022:  # from n = 1,023 on, 2^-n is subnormal or 0
        raise BadQuery(f"{check} check needs 2^-n in the normal float range, n <= 1022, got {n}")
    return build_corner_block(n), math.ldexp(BOUND_SLACK, -n)


def verify_kron_pairing(n: int = 8, trials: int = 1000, seed: int = 0) -> LemmaReport:
    """Coordinate moduli of a product vector pair up into a constant product.

    For V = v_n (x) ... (x) v_1 the products |V_k||V_{2^n-k+1}| coincide for
    every k <= 2^(n-1), all equal to prod_i |a_i||b_i|.  The 2^n-wide vectors
    are built a chunk of trials at a time, so memory does not grow with
    ``trials``; ``trials`` must be at least 1.
    """
    if not 1 <= n <= 12:
        raise BadQuery(f"pairing check is dense; need 1 <= n <= 12, got {n}")
    half = 1 << (n - 1)
    worst = 0.0
    for _, factors in _factor_chunks(seed, trials, n, 1 << n):
        moduli = np.abs(product_vectors_dense(factors))
        lhs = moduli[:, :half] * moduli[:, ::-1][:, :half]
        rhs = np.prod(np.abs(factors[:, :, 0] * factors[:, :, 1]), axis=1)
        denom = np.maximum(rhs, 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs[:, None]) / denom[:, None])))
    return LemmaReport(
        lemma_id="kron_pairing",
        trials=trials,
        worst_margin=-worst,
        slack=IDENTITY_SLACK,
        passed=worst <= IDENTITY_SLACK,
        parameters={"n": n, "seed": seed, "max_relative_deviation": worst},
    )


def verify_quadratic_bounds(
    n: int = 8, trials: int = 100_000, seed: int = 0
) -> LemmaReport:
    """Product-vector expectations of a block stay inside the stated window.

    <W| d_n |W> lies in [2^-n (1 - 2/n), 2^-n (1 + 2/n)] for every product
    vector W.  Evaluated through the corner closed form; for n <= 10 the
    form W^H d W on dense product vectors, summed over the block's nonzero
    entries as listed from its fields, cross-checks the first
    ``ORACLE_TRIALS`` trials.  Trials are drawn and evaluated a chunk at a
    time, keeping only the running extremes, so memory does not grow with
    ``trials``; ``trials`` must be at least 1.
    """
    block, slack = _bound_block(n, "quadratic-bound")
    lo = block.diag_value * (1.0 - 2.0 / n)
    hi = block.diag_value * (1.0 + 2.0 / n)
    checked = min(trials, ORACLE_TRIALS) if n <= 10 else 0
    oracle_rows = _rows(1 << n)
    if checked:  # the diagonal and the corners, in row-major order as np.nonzero lists them
        dim, c = block.dim, np.arange(block.corner_count)
        corners = np.concatenate([c * dim + dim - 1 - c, (dim - 1 - c) * dim + c])
        rows, cols = np.divmod(np.union1d(np.arange(dim) * (dim + 1), corners), dim)
        entries = np.where(rows == cols, block.diag_value, block.corner_value)
    margin, min_value, max_value, oracle_dev = math.inf, math.inf, -math.inf, 0.0
    for start, factors in _factor_chunks(seed, trials, n, n):
        values = block.diag_value + block.corner_value * 2.0 * np.real(
            paired_coordinate_sum(factors, block.corner_count)
        )
        margin = min(margin, float(np.min(values - lo)), float(np.min(hi - values)))
        min_value = min(min_value, float(np.min(values)))
        max_value = max(max_value, float(np.max(values)))
        stop = min(checked - start, len(values))
        for s in range(0, stop, oracle_rows):
            e = min(s + oracle_rows, stop)
            dense = product_vectors_dense(factors[s:e])
            direct = np.real(np.sum(dense[:, rows].conj() * entries * dense[:, cols], axis=1))
            oracle_dev = max(oracle_dev, float(np.max(np.abs(direct - values[s:e]))))
    params: dict = {
        "n": n,
        "seed": seed,
        "interval": [lo, hi],
        "min_value": min_value,
        "max_value": max_value,
    }
    if checked:
        params["oracle_trials"] = checked
        params["oracle_max_deviation"] = oracle_dev
    return LemmaReport(
        lemma_id="quadratic_bounds",
        trials=trials,
        worst_margin=margin,
        slack=slack,
        passed=margin >= -slack and oracle_dev <= ORACLE_TOL,
        parameters=params,
    )


def verify_corner_block_bound(n: int = 8, trials: int = 10_000, seed: int = 0) -> LemmaReport:
    """The off-diagonal corner quarter of a block is uniformly small.

    For product vectors V on n-1 qubits, |V^H B V| <= 2^(1-n)/n where B is
    the corner quarter of the n-qubit block; the sum runs over the block's
    corner pairs, so the closed form reuses the paired coordinate sum.
    Trials are drawn and evaluated a chunk at a time, so memory does not
    grow with ``trials``; ``trials`` must be at least 1.
    """
    block, slack = _bound_block(n, "corner-block")
    bound = 2.0 ** (1 - n) / n
    margin, max_value = math.inf, -math.inf
    for _, factors in _factor_chunks(seed, trials, n - 1, n - 1):
        values = block.corner_value * np.abs(paired_coordinate_sum(factors, block.corner_count))
        margin = min(margin, float(np.min(bound - values)))
        max_value = max(max_value, float(np.max(values)))
    return LemmaReport(
        lemma_id="corner_block_bound",
        trials=trials,
        worst_margin=margin,
        slack=slack,
        passed=margin >= -slack,
        parameters={
            "n": n,
            "seed": seed,
            "bound": bound,
            "max_value": max_value,
        },
    )


# ---------------------------------------------------------------------------
# corner families


def _times(acc: float | None, factor: float | None) -> float | None:
    """One step of a running product; from the first None factor on, the product is None."""
    return None if acc is None or factor is None else acc * factor


def verify_family(
    blocks: Iterable[DensityBlock], target_delta: float | None = None, target_f: float | None = None
) -> LemmaReport:
    """Check a corner family's blocks, in size order, and report its partial products.

    Each block is read as its exact (n, r, kappa) through q = r / 2^n, an
    int true division, so no n is too large.  Three running products are
    reported at the last block: the rank-density product prod(1 - q), the
    kept-mass product prod(1 - (1 - kappa) q), and prod(1 - x^2 / (1 - x)^2)
    with x = 2 kappa q, which is 2gh for h = r corner pairs of value
    g = kappa 2^-n.  A block's margin 2^-n - g is the least eigenvalue of
    its corner pairs (``eigenvalue_groups``); the check passes when no margin
    is negative, as holds for every block that can be built.  ``blocks`` is
    read once, so a generator keeps one block's r in memory at a time: the
    canonical r up to n = 10^5 hold about 0.6 GB together.
    """
    rho_factors: list[float | None] = []
    kept_factors: list[float | None] = []
    ratio_factors: list[float | None] = []
    margins: list[float] = []
    notes: list[str] = []
    for block in blocks:
        n, kappa, q = block.n, block.corner_ratio, block.corner_count / block.dim
        margins.append(block.diag_value - block.corner_value)
        rho_factors.append(1.0 - q)
        kept_factors.append(1.0 - (1.0 - kappa) * q)
        gh2 = 2.0 * kappa * q
        if abs(1.0 - gh2) < 1e-300:
            ratio_factors.append(None)
            notes.append(f"third product undefined at n={n}: 1 - 2gh vanishes")
        else:
            ratio_factors.append(1.0 - (gh2 * gh2) / (1.0 - gh2) ** 2)
    if not margins:
        raise BadQuery("a corner family needs at least one block")
    rho_partials = list(accumulate(rho_factors, _times))
    kept_partials = list(accumulate(kept_factors, _times))
    ratio_partials = list(accumulate(ratio_factors, _times))
    params = {
        "n_max": n,
        "rho_product": rho_partials[-1],
        "kept_mass_product": kept_partials[-1],
        "ratio_product": ratio_partials[-1],
        "rho_partials": rho_partials,
        "kept_mass_partials": kept_partials,
        "ratio_partials": ratio_partials,
        "notes": notes,
    }
    if target_delta is not None:  # kept-mass factors are never None
        params["delta_gap"] = abs(kept_partials[-1] - target_delta)
    if target_f is not None and ratio_partials[-1] is not None:
        params["f_gap"] = abs(ratio_partials[-1] - target_f)
    return LemmaReport(
        lemma_id="corner_family",
        trials=len(margins),
        worst_margin=min(margins),
        slack=0.0,
        passed=min(margins) >= 0.0,
        parameters=params,
    )


__all__ = [
    "LemmaReport",
    "product_vectors_dense",
    "random_product_factors",
    "verify_corner_block_bound",
    "verify_family",
    "verify_kron_pairing",
    "verify_quadratic_bounds",
]
