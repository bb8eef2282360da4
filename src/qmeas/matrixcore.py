"""Complex linear-algebra kernel with a fixed tensor-index convention.

Every tensor product in this package orders joint indices so that the FIRST
factor varies fastest: for column vectors ``kron([a1, b1], [a2, b2]) ==
[a1*a2, b1*a2, a1*b2, b1*b2]``.  Qubit 1 therefore owns the least-significant
bit of a joint index and the last qubit the most significant one, and
``partial_trace_last_qubit`` contracts the most-significant-bit subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL_DENSITY, TOL_NORM, dense_cap_exponent
from .errors import BadShape, CapExceeded, NotOrthonormal


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def num_qubits_of(dim: int) -> int:
    """Qubit count for a 2**n dimension; signals bad_shape otherwise."""
    if not isinstance(dim, (int, np.integer)) or not is_power_of_two(int(dim)):
        raise BadShape(f"dimension {dim} is not a power of two")
    return int(dim).bit_length() - 1


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor's index varying fastest.

    Note this is the mirror image of ``numpy.kron``, whose LAST factor varies
    fastest; the two conventions are swapped operands of one another.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise BadShape("kron expects two vectors or two matrices")
    rows = a.shape[0] * b.shape[0]
    cap = 1 << dense_cap_exponent()
    if rows > cap:
        raise CapExceeded(f"kron result dimension {rows} exceeds the dense cap {cap}")
    return np.kron(b, a)


def partial_trace_last_qubit(rho: np.ndarray) -> np.ndarray:
    """Trace out the last (slowest-index) qubit of a square matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise BadShape(f"expected a square matrix, got shape {rho.shape}")
    n = num_qubits_of(rho.shape[0])
    if n < 1:
        raise BadShape("cannot trace a qubit out of a 1x1 matrix")
    half = rho.shape[0] // 2
    return np.einsum("aiaj->ij", rho.reshape(2, half, 2, half))


def hermitian_deviation(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_unit_vector(v: np.ndarray, tol: float = TOL_NORM, what: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise BadShape(f"{what} must be one-dimensional")
    if abs(np.vdot(v, v).real - 1.0) > tol:
        raise NotOrthonormal(f"{what} is not unit norm (|v|^2 = {np.vdot(v, v).real})")
    return v


@dataclass(frozen=True)
class DensityCheck:
    """Diagnostic result of a density-matrix validation on ``qubits`` qubits."""

    ok: bool
    hermitian_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    qubits: int

    def __bool__(self) -> bool:
        return self.ok


def is_density_matrix(m: np.ndarray) -> DensityCheck:
    """Check Hermiticity, unit trace and positive semidefiniteness to ``TOL_DENSITY``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadShape(f"expected a square matrix, got shape {m.shape}")
    qubits = num_qubits_of(m.shape[0])
    herm = hermitian_deviation(m)
    trace = float(abs(np.trace(m) - 1.0))
    min_eig = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
    ok = herm <= TOL_DENSITY and trace <= TOL_DENSITY and min_eig >= -TOL_DENSITY
    return DensityCheck(ok, herm, trace, min_eig, qubits)


__all__ = [
    "DensityCheck",
    "hermitian_deviation",
    "is_density_matrix",
    "is_power_of_two",
    "kron",
    "num_qubits_of",
    "partial_trace_last_qubit",
    "require_unit_vector",
]
