"""The tests' exact and dense references, each quantity defined once.

Test files import this module as they import ``conftest``; pytest does not
collect it.  Standard and Hadamard block measures, premeasures, the witness
test's tau, a span's trace and the bound checks' certificates are exact
``Fraction``s; a real basis's block measure is exact given its float
factors.  The dense references build blocks corner by corner, prefixes as
Kronecker chains and tables by einsum.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qmeas.measurement import block_measure, clamp01
from qmeas.states import eigenvalue_groups


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
