"""Monte-Carlo verification of the closed-form bounds behind the witness state.

Each check draws random product vectors from a seeded generator, evaluates
the quantity in question through the structured closed forms, and reports
the worst margin against the claimed bound.  Margins are signed: positive
means strictly inside the bound, and a check passes when the worst margin
stays above ``-slack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadQuery, BadSpec
from .matrixcore import is_density_matrix
from .measurement import paired_coordinate_sum, product_quadratic_form
from .states import build_corner_block, build_corner_block_general, family_tables

IDENTITY_SLACK = 1e-12
BOUND_SLACK = 1e-12
ORACLE_TOL = 1e-10
ORACLE_TRIALS = 1000  # dense cross-checks per quadratic-bounds run
DENSE_CHECK_MAX = 9  # largest family block also checked densely


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verification run."""

    lemma_id: str
    trials: int
    worst_margin: float
    slack: float
    passed: bool
    parameters: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "trials": self.trials,
            "worst_margin": self.worst_margin,
            "slack": self.slack,
            "passed": self.passed,
            "parameters": self.parameters,
        }


def random_product_factors(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    """Draw (trials, n, 2) single-qubit unit vectors uniformly on the Bloch sphere.

    cos(theta) is uniform on [-1, 1] and the relative phase uniform on
    [0, 2pi); the global phase is irrelevant to every quantity checked here.
    """
    cos_theta = rng.uniform(-1.0, 1.0, size=(trials, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(trials, n))
    out = np.empty((trials, n, 2), dtype=complex)
    out[:, :, 0] = np.sqrt((1.0 + cos_theta) / 2.0)
    out[:, :, 1] = np.sqrt((1.0 - cos_theta) / 2.0) * np.exp(1j * phase)
    return out


def product_vectors_dense(factors: np.ndarray) -> np.ndarray:
    """Assemble dense product vectors, first factor varying fastest.

    factors has shape (trials, n, 2); the result has shape (trials, 2**n).
    """
    factors = np.asarray(factors, dtype=complex)
    trials = factors.shape[0]
    out = np.ones((trials, 1), dtype=complex)
    for q in range(factors.shape[1]):
        out = (factors[:, q, :, None] * out[:, None, :]).reshape(trials, -1)
    return out


def verify_kron_pairing(n: int = 8, trials: int = 1000, seed: int = 0) -> LemmaReport:
    """Coordinate moduli of a product vector pair up into a constant product.

    For V = v_n (x) ... (x) v_1 the products |V_k||V_{2^n-k+1}| coincide for
    every k <= 2^(n-1), all equal to prod_i |a_i||b_i|.
    """
    if not 1 <= n <= 12:
        raise BadQuery(f"pairing check is dense; need 1 <= n <= 12, got {n}")
    rng = np.random.default_rng(seed)
    factors = random_product_factors(rng, trials, n)
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


def verify_quadratic_bounds(
    n: int = 8, trials: int = 100_000, seed: int = 0
) -> LemmaReport:
    """Product-vector expectations of a block stay inside the stated window.

    <W| d_n |W> lies in [2^-n (1 - 2/n), 2^-n (1 + 2/n)] for every product
    vector W.  Evaluated through the corner closed form; for n <= 10 a dense
    quadratic form cross-checks a subsample.
    """
    if n < 5:
        raise BadQuery(f"quadratic-bound check applies to blocks n >= 5, got {n}")
    block = build_corner_block(n)
    rng = np.random.default_rng(seed)
    factors = random_product_factors(rng, trials, n)
    values = product_quadratic_form(block, factors)
    lo = block.diag_value * (1.0 - 2.0 / n)
    hi = block.diag_value * (1.0 + 2.0 / n)
    margin = float(min(np.min(values - lo), np.min(hi - values)))
    params: dict = {
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
        direct = np.real(np.sum((dense.conj() @ d) * dense, axis=1))
        oracle_dev = float(np.max(np.abs(direct - values[:m])))
        params["oracle_trials"] = m
        params["oracle_max_deviation"] = oracle_dev
        oracle_ok = oracle_dev <= ORACLE_TOL
    return LemmaReport(
        lemma_id="quadratic_bounds",
        trials=trials,
        worst_margin=margin,
        slack=BOUND_SLACK,
        passed=margin >= -BOUND_SLACK and oracle_ok,
        parameters=params,
    )


def verify_corner_block_bound(n: int = 8, trials: int = 10_000, seed: int = 0) -> LemmaReport:
    """The off-diagonal corner quarter of a block is uniformly small.

    For product vectors V on n-1 qubits, |V^H B V| <= 2^(1-n)/n where B is
    the corner quarter of the n-qubit block; the sum runs over the block's
    corner pairs, so the closed form reuses the paired coordinate sum.
    """
    if n < 5:
        raise BadQuery(f"corner-block check applies to blocks n >= 5, got {n}")
    block = build_corner_block(n)
    rng = np.random.default_rng(seed)
    factors = random_product_factors(rng, trials, n - 1)
    values = block.corner_value * np.abs(paired_coordinate_sum(factors, block.corner_count))
    bound = 2.0 ** (1 - n) / n
    margin = float(np.min(bound - values))
    return LemmaReport(
        lemma_id="corner_block_bound",
        trials=trials,
        worst_margin=margin,
        slack=BOUND_SLACK,
        passed=margin >= -BOUND_SLACK,
        parameters={
            "n": n,
            "seed": seed,
            "bound": bound,
            "max_value": float(np.max(values)),
        },
    )


# ---------------------------------------------------------------------------
# corner families


@dataclass(frozen=True)
class FamilySpec:
    """Tables (h, g) defining a corner family over block sizes 5..n_max."""

    h: dict[int, int]
    g: dict[int, float]
    n_max: int
    target_delta: float | None = None
    target_f: float | None = None

    N_MIN = 5

    @classmethod
    def from_doc(cls, doc: dict) -> "FamilySpec":
        if not isinstance(doc, dict) or "h" not in doc or "g" not in doc:
            raise BadSpec("family spec needs 'h' and 'g' tables")
        h, g = family_tables(doc["h"], doc["g"])
        delta = doc.get("target_delta")
        target_f = doc.get("target_F", doc.get("target_f"))
        return cls(
            h=h,
            g=g,
            n_max=max(h),
            target_delta=None if delta is None else float(delta),
            target_f=None if target_f is None else float(target_f),
        )

    @classmethod
    def canonical(cls, n_max: int = 30) -> "FamilySpec":
        """The built-in block family itself: h = floor(2^n / n), g = 2^-n."""
        sizes = range(cls.N_MIN, n_max + 1)
        return cls(
            h={n: (1 << n) // n for n in sizes},
            g={n: 2.0 ** -n for n in sizes},
            n_max=n_max,
        )

    def sizes(self) -> range:
        return range(self.N_MIN, self.n_max + 1)

    def validate(self) -> None:
        for n in self.sizes():
            build_corner_block_general(n, self.h[n], self.g[n])


def _partials(factors: list[float | None]) -> list[float | None]:
    out: list[float | None] = []
    acc = 1.0
    for f in factors:
        if f is None or acc is None:
            out.append(None)
            acc = None
        else:
            acc *= f
            out.append(acc)
    return out


def _monotone_nonincreasing(partials: list[float | None]) -> bool:
    vals = [p for p in partials if p is not None]
    return all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def verify_family(spec: FamilySpec) -> LemmaReport:
    """Check a corner family's constraints and report its partial products.

    Three running products are reported at n_max: the rank-density product
    prod(1 - h 2^-n), the kept-mass product prod(1 - h [2^-n - g]), and
    prod(1 - 4 g^2 h^2 / (1 - 2gh)^2).  Each block is also validated as a
    density matrix — analytically for all sizes, numerically up to
    ``DENSE_CHECK_MAX`` qubits.
    """
    spec.validate()
    rho_factors: list[float | None] = []
    kept_factors: list[float | None] = []
    ratio_factors: list[float | None] = []
    notes: list[str] = []
    psd_ok = True
    dense_checked = 0
    for n in spec.sizes():
        h, g = spec.h[n], spec.g[n]
        rho_factors.append(1.0 - h * 2.0 ** -n)
        kept_factors.append(1.0 - h * (2.0 ** -n - g))
        gh2 = 2.0 * g * h
        if abs(1.0 - gh2) < 1e-300:
            ratio_factors.append(None)
            notes.append(f"third product undefined at n={n}: 1 - 2gh vanishes")
        else:
            ratio_factors.append(1.0 - (gh2 * gh2) / (1.0 - gh2) ** 2)
        if n <= DENSE_CHECK_MAX:
            check = is_density_matrix(build_corner_block_general(n, h, g).to_dense())
            dense_checked = n
            if not check.ok:
                psd_ok = False
                notes.append(f"dense density check failed at n={n}: {check.payload()}")
    rho_partials = _partials(rho_factors)
    kept_partials = _partials(kept_factors)
    ratio_partials = _partials(ratio_factors)
    params = {
        "n_max": spec.n_max,
        "rho_product": rho_partials[-1],
        "kept_mass_product": kept_partials[-1],
        "ratio_product": ratio_partials[-1],
        "rho_partials": rho_partials,
        "kept_mass_partials": kept_partials,
        "ratio_partials": ratio_partials,
        "rho_monotone_decreasing": _monotone_nonincreasing(rho_partials),
        "kept_mass_monotone_decreasing": _monotone_nonincreasing(kept_partials),
        "dense_checked_up_to": dense_checked,
        "notes": notes,
    }
    if spec.target_delta is not None and kept_partials[-1] is not None:
        params["delta_gap"] = abs(kept_partials[-1] - spec.target_delta)
    if spec.target_f is not None and ratio_partials[-1] is not None:
        params["f_gap"] = abs(ratio_partials[-1] - spec.target_f)
    margin = min(2.0 ** -n - spec.g[n] for n in spec.sizes())
    return LemmaReport(
        lemma_id="corner_family",
        trials=spec.n_max - spec.N_MIN + 1,
        worst_margin=float(margin),
        slack=0.0,
        passed=psd_ok,
        parameters=params,
    )


__all__ = [
    "FamilySpec",
    "LemmaReport",
    "product_vectors_dense",
    "random_product_factors",
    "verify_corner_block_bound",
    "verify_family",
    "verify_kron_pairing",
    "verify_quadratic_bounds",
]
