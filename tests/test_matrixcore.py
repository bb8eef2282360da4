"""Index-convention and linear-algebra primitives, checked against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.errors import BadShape, CapExceeded
from qmeas.matrixcore import (
    is_density_matrix,
    kron,
    num_qubits_of,
    partial_trace_last_qubit,
)

from conftest import random_density


def test_kron_first_factor_fastest():
    # [a1, b1] (x) [a2, b2] = [a1 a2, b1 a2, a1 b2, b1 b2]
    v = kron(np.array([1.0, 2.0]), np.array([10.0, 100.0]))
    assert np.array_equal(v, np.array([10.0, 20.0, 100.0, 200.0]))


def test_kron_matrix_index_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    k = kron(a, b)
    assert k.shape == (8, 8)
    for rb in range(4):
        for cb in range(4):
            for ra in range(2):
                for ca in range(2):
                    # the first factor occupies the fast (low) index bits
                    assert k[rb * 2 + ra, cb * 2 + ca] == pytest.approx(b[rb, cb] * a[ra, ca])


def test_kron_shape_and_cap_errors(monkeypatch):
    with pytest.raises(BadShape):
        kron(np.ones((2, 2)), np.ones(2))
    monkeypatch.setenv("QMEAS_DENSE_CAP", "3")
    with pytest.raises(CapExceeded):
        kron(np.eye(4), np.eye(4))


def test_num_qubits_of():
    assert num_qubits_of(1) == 0
    assert num_qubits_of(32) == 5
    with pytest.raises(BadShape):
        num_qubits_of(12)


def test_partial_trace_index_summation_oracle():
    rng = np.random.default_rng(3)
    dim = 16
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    reduced = partial_trace_last_qubit(rho)
    half = dim // 2
    expected = np.zeros((half, half), dtype=complex)
    for i in range(half):
        for j in range(half):
            # the traced qubit is the slowest index bit
            expected[i, j] = rho[i, j] + rho[half + i, half + j]
    assert np.allclose(reduced, expected, atol=1e-15)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(5)
    rho_fast = random_density(rng, 8)
    rho_last = random_density(rng, 2)
    joint = kron(rho_fast, rho_last)
    assert np.allclose(partial_trace_last_qubit(joint), rho_fast, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 32)
    assert np.trace(partial_trace_last_qubit(rho)) == pytest.approx(1.0)


def test_is_density_matrix_accepts_and_rejects():
    rng = np.random.default_rng(19)
    good = is_density_matrix(random_density(rng, 8))
    assert good.ok and bool(good)
    bad_trace = is_density_matrix(2.0 * random_density(rng, 4))
    assert not bad_trace.ok and abs(bad_trace.trace_deviation) > 0.5
    not_psd = is_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    assert not not_psd.ok and not_psd.min_eigenvalue < -0.4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_kron_trace_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(2, 2)) for _ in range(2))
    c, d = (rng.normal(size=(4, 4)) for _ in range(2))
    left = kron(a, c) @ kron(b, d)
    right = kron(a @ b, c @ d)
    assert np.allclose(left, right, atol=1e-12)
