"""Independent closed-form oracles for the benchmark's correctness checks.

Nothing here imports ``qmeas``: every expected value is derived from the
paper's block structure directly, so a bug in the package cannot make its
own check pass.

The built-in state is the product of canonical corner blocks of sizes
5, 6, 7, ...  A block of size n has diagonal 2^-n and r = floor(2^n / n)
corner pairs of value 2^-n.  For a real product vector w of per-qubit
factors (a_q, b_q), every paired coordinate product w_x * w_(~x) equals
prod_q a_q b_q, so the block measure of an outcome sigma is

    p(sigma) = 2^-n * (1 + 2 r * prod_q a_q b_q).

In the Hadamard basis a_q b_q = +-1/2 (the sign is the outcome bit), in
the standard basis the product vector is a unit coordinate vector and the
corner term vanishes, and a rotation by theta gives a_q b_q =
+-sin(2 theta)/2.  Hadamard and standard measures are dyadic rationals and
are computed exactly with ``Fraction``.  A block measured on only j < n of
its qubits contributes 2^-j, because the corner terms vanish under the
partial trace.
"""

from __future__ import annotations

import math
from fractions import Fraction

FIRST_BLOCK = 5


def corner_count(n: int) -> int:
    return (1 << n) // n


def _parity_sign(sigma: str) -> int:
    return -1 if sigma.count("1") % 2 else 1


class StandardOracle:
    exact = True

    def block_measure(self, sigma: str, offset: int) -> Fraction:
        return Fraction(1, 1 << len(sigma))


class HadamardOracle:
    exact = True

    def block_measure(self, sigma: str, offset: int) -> Fraction:
        n = len(sigma)
        return Fraction(1, 1 << n) * (1 + Fraction(_parity_sign(sigma) * 2 * corner_count(n), 1 << n))


class RotationOracle:
    """Real rotations by a periodic angle schedule; floats, not rationals."""

    exact = False

    def __init__(self, thetas: list[float]):
        self.thetas = list(thetas)

    def block_measure(self, sigma: str, offset: int) -> float:
        n = len(sigma)
        prod = 1.0
        for i, bit in enumerate(sigma):
            s2 = math.sin(2.0 * self.thetas[(offset + i) % len(self.thetas)])
            prod *= -s2 if bit == "1" else s2
        ratio = float(Fraction(corner_count(n), 1 << n))  # r / 2^n, no overflow
        return math.ldexp(1.0 + 2.0 * ratio * prod, -n)


def oracle_for(basis: dict):
    kind = basis["kind"]
    if kind == "standard":
        return StandardOracle()
    if kind == "hadamard":
        return HadamardOracle()
    if kind == "rotation":
        return RotationOracle(basis["theta"])
    raise ValueError(f"no oracle for basis kind {kind!r}")


def premeasure_table(oracle, depth: int) -> dict[str, float]:
    """Every depth-``depth`` prefix with its oracle premeasure, as floats.

    Products are taken per block, so the table costs one oracle call per
    block outcome rather than per prefix.
    """
    table = {"": Fraction(1) if oracle.exact else 1.0}
    pos, n = 0, FIRST_BLOCK
    while pos < depth:
        take = min(n, depth - pos)
        outcomes = [format(x, f"0{take}b") for x in range(1 << take)]
        if take == n:
            factor = {s: oracle.block_measure(s, pos) for s in outcomes}
        else:
            uniform = Fraction(1, 1 << take) if oracle.exact else math.ldexp(1.0, -take)
            factor = dict.fromkeys(outcomes, uniform)
        table = {t + s: v * factor[s] for t, v in table.items() for s in outcomes}
        pos += take
        n += 1
    return {t: float(v) for t, v in table.items()}


def stream_conditional_errors(oracle, bits: str, conds: list[float], rel_tol: float = 1e-9):
    """Yield (position, got, want) for every conditional that breaks the oracle.

    Within a block the first n-1 conditionals halve the partial factor, so
    they are exactly 1/2.  The block-final conditional is p(sigma) / 2^(1-n).
    """
    pos, n = 0, FIRST_BLOCK
    while pos < len(bits):
        take = min(n, len(bits) - pos)
        for i in range(take - 1 if take == n else take):
            if conds[pos + i] != 0.5:
                yield pos + i, conds[pos + i], 0.5
        if take == n:
            got = conds[pos + n - 1]
            want = float(oracle.block_measure(bits[pos : pos + n], pos) * (1 << (n - 1)))
            if not abs(got - want) <= rel_tol * abs(want):
                yield pos + n - 1, got, want
        pos += take
        n += 1


def eigen_groups(n: int) -> list[dict]:
    """Closed-form eigenvalue groups of the canonical size-n block."""
    r, d = corner_count(n), 2.0 ** -n
    return [
        {"kind": "pair_plus", "value": d + d, "multiplicity": r},
        {"kind": "pair_minus", "value": 0.0, "multiplicity": r},
        {"kind": "middle", "value": d, "multiplicity": (1 << n) - 2 * r},
    ]
