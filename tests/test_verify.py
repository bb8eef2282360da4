"""Monte-Carlo lemma checks and family constraint validation."""

import dataclasses

import numpy as np
import pytest

from qmeas.errors import BadFamilyParams, BadQuery, BadSpec
from qmeas.measurement import MeasurementSystem, paired_coordinate_sum
from qmeas.states import build_corner_block
from qmeas.verify import (
    FamilySpec,
    random_product_factors,
    product_vectors_dense,
    verify_corner_block_bound,
    verify_family,
    verify_kron_pairing,
    verify_quadratic_bounds,
)


def test_random_factors_are_unit(rng):
    factors = random_product_factors(rng, 50, 6)
    norms = np.sum(np.abs(factors) ** 2, axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_product_vectors_dense_convention(rng):
    factors = random_product_factors(rng, 1, 2)
    v = product_vectors_dense(factors)[0]
    a, b = factors[0]
    expected = np.array([a[0] * b[0], a[1] * b[0], a[0] * b[1], a[1] * b[1]])
    assert np.allclose(v, expected, atol=1e-15)


def test_kron_pairing_passes():
    report = verify_kron_pairing(n=8, trials=300, seed=1)
    assert report.passed
    assert report.parameters["max_relative_deviation"] <= 1e-12
    assert report.lemma_id == "kron_pairing"


def test_kron_pairing_rejects_large_n():
    with pytest.raises(BadQuery):
        verify_kron_pairing(n=13)


def test_quadratic_bounds_pass_with_dense_oracle():
    report = verify_quadratic_bounds(n=6, trials=2000, seed=2)
    assert report.passed
    assert report.worst_margin >= 0.0
    assert report.parameters["oracle_max_deviation"] <= 1e-10
    lo, hi = report.parameters["interval"]
    assert lo == pytest.approx(2.0**-6 * (1 - 2 / 6))
    assert hi == pytest.approx(2.0**-6 * (1 + 2 / 6))


def test_quadratic_bounds_requires_block_size():
    with pytest.raises(BadQuery):
        verify_quadratic_bounds(n=4)


def test_quadratic_hadamard_value_sits_inside_interval():
    block = build_corner_block(5)
    system = MeasurementSystem.hadamard()
    factors = np.stack([system.basis_at(q)[0] for q in range(1, 6)])
    s = paired_coordinate_sum(factors, block.corner_count)
    value = block.diag_value + block.corner_value * 2.0 * float(np.real(s))
    assert value == pytest.approx(11 / 256, rel=1e-13)
    assert value <= 2.0**-5 * 1.4 + 1e-15


def test_corner_block_bound_passes_and_hadamard_value():
    report = verify_corner_block_bound(n=8, trials=3000, seed=3)
    assert report.passed
    block = build_corner_block(5)
    system = MeasurementSystem.hadamard()
    factors = np.stack([system.basis_at(q)[0] for q in range(1, 5)])
    value = block.corner_value * abs(paired_coordinate_sum(factors, block.corner_count))
    assert value == pytest.approx(6 / 512, rel=1e-13)
    assert value <= 2.0**-4 / 5


def test_family_canonical_products():
    report = verify_family(FamilySpec.canonical(30))
    assert report.passed
    params = report.parameters
    assert params["kept_mass_product"] == pytest.approx(1.0, abs=1e-15)
    assert params["rho_monotone_decreasing"]
    assert params["dense_checked_up_to"] == 9
    oracle = 1.0
    for n in range(5, 31):
        oracle *= 1.0 - ((1 << n) // n) * 2.0**-n
    assert params["rho_product"] == pytest.approx(oracle, rel=1e-13)


def test_family_zero_corners_gives_unit_products():
    spec = FamilySpec(
        h={n: 0 for n in range(5, 11)},
        g={n: 2.0**-n for n in range(5, 11)},
        n_max=10,
    )
    report = verify_family(spec)
    assert report.passed
    assert report.parameters["rho_product"] == 1.0
    assert report.parameters["ratio_product"] == 1.0


def test_family_constraint_violation_names_the_size():
    spec = FamilySpec(
        h={5: 6, 6: 10},
        g={5: 2.0**-5, 6: 0.2},
        n_max=6,
    )
    with pytest.raises(BadFamilyParams, match="6"):
        verify_family(spec)


def test_family_from_doc_and_targets():
    doc = {
        "h": {"5": 6, "6": 10},
        "g": {"5": 0.015, "6": 0.0078125},
        "target_delta": 0.8,
        "target_F": 0.9,
    }
    spec = FamilySpec.from_doc(doc)
    assert spec.n_max == 6
    report = verify_family(spec)
    assert "delta_gap" in report.parameters
    assert "f_gap" in report.parameters


def test_family_doc_requires_contiguous_tables():
    with pytest.raises(BadSpec):
        FamilySpec.from_doc({"h": {"5": 6, "7": 18}, "g": {"5": 0.01, "7": 0.001}})
    with pytest.raises(BadSpec):
        FamilySpec.from_doc({"h": {"5": 6}, "g": {"6": 0.01}})
    with pytest.raises(BadSpec):
        FamilySpec.from_doc({"h": {}})


def test_reports_serialize():
    report = verify_kron_pairing(n=4, trials=50, seed=9)
    payload = dataclasses.asdict(report)
    assert set(payload) == {"lemma_id", "trials", "worst_margin", "slack", "passed", "parameters"}
