"""The tests' exact and dense references, each quantity defined once.

Test files import this module as they import ``conftest``; pytest does not
collect it.  Standard and Hadamard block measures, premeasures, the witness
test's tau, a span's trace and the bound checks' certificates are exact
``Fraction``s; a real basis's block measure is exact given its float
factors.  The dense references build blocks corner by corner, prefixes as
Kronecker chains and tables by einsum.  A table's JSON is a dict of its
bit-string keys through the generic writer, and the lemma checks' sampled
figures come from fresh arrays at every step.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qmeas.jsonio import canonical_dumps
from qmeas.measurement import block_measure, clamp01, paired_coordinate_sum
from qmeas.states import build_corner_block, eigenvalue_groups
from qmeas.verify import random_product_factors


@functools.cache  # a table's 2^depth premeasures share a few block values
def dyadic_block_measure(basis, n, r, kappa, parity):
    """A block's measure in the ``"standard"`` or ``"hadamard"`` basis.

    It depends on (n, r, kappa) and the outcome's parity only.  A standard
    outcome's product vector is one basis vector, paired with no complement:
    2^-n.  A Hadamard coordinate is (-1)^popcount(sigma & k) 2^(-n/2), so each
    of the r paired products is (-1)^parity 2^-n and the measure is
    2^-n (1 + 2 r kappa (-1)^parity 2^-n).
    """
    unit = Fraction(1, 1 << n)
    if basis == "standard":
        return unit
    return unit * (1 + 2 * r * Fraction(kappa) * (-1) ** parity * unit)


class BoundCertificate(NamedTuple):
    """The bound checks' exact figures for one block: the spread is the corner form's maximum."""

    margin: Fraction
    low: Fraction
    high: Fraction
    spread: Fraction


def bound_certificate(n, r, kappa):
    """The quadratic-bounds and corner-block checks' exact margin and extremes for block (n, r, kappa).

    The quadratic form of a product vector strays from 2^-n, and the corner
    form from 0, by at most the spread 2 kappa r 2^-2n (a Hadamard product
    vector's paired sum is r (-1)^parity times the unit); each check's bound
    is 2^(1-n)/n off centre, and its margin that bound less the spread.
    """
    unit = Fraction(1, 1 << n)
    spread = 2 * Fraction(kappa) * r * unit * unit
    return BoundCertificate(2 * unit / n - spread, unit - spread, unit + spread, spread)


def fraction_premeasure(basis, tau):
    """The premeasure of the bit string ``tau`` on the witness state; a cut block gives 2^-take."""
    value, offset, n = Fraction(1), 0, 5
    while offset < len(tau):
        part = tau[offset : offset + n]
        if len(part) < n:
            value *= Fraction(1, 1 << len(part))
        else:
            value *= dyadic_block_measure(basis, n, (1 << n) // n, 1.0, part.count("1") % 2)
        offset += n
        n += 1
    return value


def exact_real_sum(factors, count):
    """count * prod(a_q b_q) of one row of real float factors: their paired sum, exactly."""
    ratios = [x.as_integer_ratio() for x in np.asarray(factors, dtype=complex).real.ravel().tolist()]
    return Fraction(int(count) * math.prod(p for p, _ in ratios), math.prod(q for _, q in ratios))


def exact_real_measure(block, factors):
    """diag + 2 corner * (the paired sum) of a block under real float factors, exactly."""
    corner = exact_real_sum(factors, block.corner_count)
    return Fraction(block.diag_value) + 2 * Fraction(block.corner_value) * corner


def family_tau(last):
    """The witness test's rank density over blocks 5..last: prod (1 - floor(2^n / n) / 2^n)."""
    sizes = range(5, last + 1)
    return Fraction(math.prod((1 << n) - (1 << n) // n for n in sizes), 1 << sum(sizes))


def exact_trace(span, other):
    """tr(other P) for a block eigen span P, summed group by group."""
    unit, corner = Fraction(1, other.dim), Fraction(other.corner_value)
    paired = min(span.block.corner_count, other.corner_count)
    sign = {"pair_plus": 1, "pair_minus": -1, "middle": 0}
    return sum(g.multiplicity * unit + sign[g.kind] * paired * corner for g in span.groups)


def partial_block_factor(block, system, block_offset, prefix):
    """Measure factor of a block measured on its first j = ``len(prefix)`` qubits only.

    Corner entries pair an index with its bitwise complement, so while a qubit
    stays unmeasured they trace out: 2^-j whatever the bits.
    """
    if len(prefix) < block.n:
        return math.ldexp(1.0, -len(prefix))
    return block_measure(block, system, block_offset, prefix)


def dense_block(block):
    """A block's dense matrix, corner by corner: diagonal 2^-n, corners (i, 2^n - i + 1) for 1-based i <= r."""
    m = np.eye(block.dim) * block.diag_value
    for i in range(1, block.corner_count + 1):
        m[i - 1, block.dim - i] = block.corner_value
        m[block.dim - i, i - 1] = block.corner_value
    return m


def segments(state, qubits):
    """(block, offset, take) for each true block covering a factored state's first ``qubits`` positions.

    ``offset`` is the block's first qubit (0-based) and ``take`` how many of
    its qubits fall inside; only the last block can be cut.
    """
    columns = state.columns(qubits)
    return [
        (state.block(i), offset, min(n, qubits - offset))
        for i, (n, offset) in enumerate(zip(columns.n.tolist(), columns.offset.tolist()))
    ]


def kron_chain_prefix(state, k):
    """A factored state's depth-k prefix as a Kronecker chain of dense blocks, first block fastest.

    A block cut after ``take`` qubits is I / 2^take.
    """
    rho = np.eye(1)
    for block, _, take in segments(state, k):
        part = dense_block(block) if take == block.n else np.eye(1 << take) / (1 << take)
        rho = np.kron(part, rho)
    return rho


def complex_einsum_table(rho, system, offset=0):
    """The dense table of a depth-k prefix matrix, contracted one qubit at a time by complex einsums.

    Basis pairs are complex arrays, so every einsum runs its complex loop,
    a real ``rho`` included.
    """
    T = np.asarray(rho)
    for q in range(T.shape[0].bit_length() - 1, 0, -1):
        B = np.stack(system.basis_at(offset + q), axis=1)
        half = 1 << (q - 1)
        T = np.einsum("rt,rasb,st->abt", np.conj(B), T.reshape(2, half, 2, -1), B)
    return clamp01(np.real(T.reshape(-1)), "premeasure table")


def kron_vector(factors):
    """The product vector of per-qubit 2-vectors, qubit 1 least significant."""
    v = np.ones(1, dtype=complex)
    for f in factors:
        v = np.kron(np.asarray(f, dtype=complex), v)
    return v


def projector(stage):
    """The dense projection onto a lifted stage's prefixes' basis vectors, Kronecker products of its basis."""
    vectors = [kron_vector([stage.system.basis_at(q)[int(b)] for q, b in enumerate(p, 1)]) for p in stage.prefixes]
    columns = np.stack(vectors, axis=1)
    return columns @ columns.conj().T


def pair_sum_brute(factors, count):
    """sum_{k=1}^{count} conj(w_k) w_{2^n-k+1} over the product vector w (1-based)."""
    v = kron_vector(factors)
    return sum(np.conj(v[k - 1]) * v[v.shape[0] - k] for k in range(1, count + 1))


class EigenPair(NamedTuple):
    """An eigenpair of a structured block: kind "pair_plus"/"pair_minus" is
    (e_i +- e_{2^n-i+1})/sqrt(2) for a 1-based corner index i, "middle" is e_i."""

    value: float
    kind: str
    index: int
    n: int

    def vector(self) -> np.ndarray:
        v = np.zeros(1 << self.n)
        v[self.index - 1] = 1.0 if self.kind == "middle" else 1.0 / math.sqrt(2.0)
        if self.kind != "middle":
            v[-self.index] = (1.0 if self.kind == "pair_plus" else -1.0) / math.sqrt(2.0)
        return v


def analytic_eigensystem(block):
    """``eigenvalue_groups`` expanded: pairs over corner indices 1..r, the middle over r+1..2^n-r."""
    pairs = []
    for g in eigenvalue_groups(block):
        first = block.corner_count + 1 if g.kind == "middle" else 1
        pairs += [EigenPair(g.value, g.kind, i, block.n) for i in range(first, first + g.multiplicity)]
    return pairs


def span_columns(span):
    """A block eigen span's orthonormal eigenvectors as dense complex columns."""
    kinds = {g.kind for g in span.groups}
    cols = [p.vector() for p in analytic_eigensystem(span.block) if p.kind in kinds]
    return np.stack(cols, axis=1).astype(complex)


def table_keys(depth):
    """Bit strings of all table indices, qubit 1 (the least significant bit) first."""
    return ["".join("1" if i >> q & 1 else "0" for q in range(depth)) for i in range(1 << depth)]


def dict_table_json(values):
    """A table's canonical JSON as a dict {bit string: value} through the generic writer."""
    values = np.asarray(values)
    return canonical_dumps(dict(zip(table_keys(values.size.bit_length() - 1), values.tolist())))


def outer_product_vectors(factors):
    """Dense product vectors by one outer product per qubit, each a fresh array; qubit 1 fastest."""
    out = np.ones((len(factors), 1), dtype=complex)
    for q in range(factors.shape[1]):
        out = (factors[:, q, :, None] * out[:, None, :]).reshape(len(factors), -1)
    return out


def fresh_kron_pairing_deviation(n, trials, seed):
    """The pairing check's worst relative deviation over one whole draw, from fresh arrays."""
    factors = random_product_factors(np.random.default_rng(seed), trials, n)
    moduli = np.abs(outer_product_vectors(factors))
    half = 1 << (n - 1)
    lhs = moduli[:, :half] * moduli[:, ::-1][:, :half]
    rhs = np.prod(np.abs(factors[:, :, 0] * factors[:, :, 1]), axis=1)
    return float(np.max(np.abs(lhs - rhs[:, None]) / np.maximum(rhs, 1e-300)[:, None]))


def fresh_quadratic_figures(n, trials, seed, batch, oracle_trials):
    """The quadratic check's sampled figures over one whole draw, from fresh arrays.

    The dense oracle runs over the first ``oracle_trials`` trials, ``batch``
    at a time, as W^H d W summed over the block's entries, gathered trial by
    entry, so the sum adds each trial's terms in entry order.  Returns the
    worst margin, the extremes and the oracle's worst deviation.
    """
    block = build_corner_block(n)
    factors = random_product_factors(np.random.default_rng(seed), trials, n)
    values = block.diag_value + block.corner_value * 2.0 * np.real(paired_coordinate_sum(factors, block.corner_count))
    lo, hi = block.diag_value * (1.0 - 2.0 / n), block.diag_value * (1.0 + 2.0 / n)
    _, rows, cols, entries = block.entries()
    deviation = 0.0
    for s in range(0, oracle_trials, batch):
        dense = outer_product_vectors(factors[s : s + batch])
        direct = np.real(np.sum(dense[:, rows].conj() * entries * dense[:, cols], axis=1))
        deviation = max(deviation, float(np.max(np.abs(direct - values[s : s + batch]))))
    margin = min(float(np.min(values - lo)), float(np.min(hi - values)))
    return margin, float(np.min(values)), float(np.max(values)), deviation
