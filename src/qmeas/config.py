"""Shared tolerances and the dense-dimension cap.

Dense matrices are limited to 2**dense_cap_exponent() rows.  The default of
2**12 keeps worst-case dense objects around 256 MB; the environment variable
``QMEAS_DENSE_CAP`` overrides the exponent.
"""

from __future__ import annotations

import os

from .errors import CapExceeded

DENSE_CAP_ENV = "QMEAS_DENSE_CAP"
DEFAULT_DENSE_CAP_EXP = 12

TOL_NORM = 1e-9
TOL_DENSITY = 1e-9


def dense_cap_exponent() -> int:
    """Current cap exponent, honouring the environment override."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP_EXP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{DENSE_CAP_ENV} must be positive, got {value}")
    return value


def require_dense_qubits(qubits: int, what: str = "dense operation") -> None:
    """Fail loudly when a dense object of 2**qubits rows would exceed the cap."""
    cap = dense_cap_exponent()
    if qubits > cap:
        raise CapExceeded(
            f"{what} needs dimension 2^{qubits}, cap is 2^{cap} "
            f"(raise it via {DENSE_CAP_ENV})"
        )
