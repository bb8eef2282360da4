"""Measurement-induced measures on bit sequences from structured qubit states.

The package builds an infinite product state out of sparse structured
blocks, measures it qubit by qubit in computable bases, and studies the
induced measure on infinite bit strings: exact premeasure queries, seeded
sampling, staged effective null covers (classical and quantum, with a
built-in witness test), Monte-Carlo lemma checks, and an empirical
randomness battery.
"""

from .config import dense_cap_exponent
from .errors import (
    BadBlock,
    BadFamilyParams,
    BadQuery,
    BadShape,
    BadSpec,
    BudgetExceeded,
    CapExceeded,
    InsufficientData,
    MeasureZeroPrefix,
    MissingStage,
    NotOrthonormal,
    NumericHealthWarning,
    QmeasError,
)
from .matrixcore import (
    is_density_matrix,
    kron,
    partial_trace_last_qubit,
)
from .measurement import (
    BitSample,
    MeasurementSystem,
    additivity_check,
    block_measure,
    paired_coordinate_sum,
    premeasure,
    premeasure_dense,
    premeasure_factored,
    premeasure_table_dense,
    premeasure_table_factored,
    sample_bits,
)
from .qmlt import (
    ClassicalMLT,
    QuantumMLT,
    QuantumSigmaClass,
    StagedSigmaClass,
    build_witness_test,
    evaluate_state,
    failure_report,
    lift_classical_mlt,
    required_witness_blocks,
    witness_depth,
)
from .randlab import BatteryReport, aggregate, run_battery
from .states import (
    DenseStateChain,
    DenseStatePrefix,
    DensityBlock,
    FactoredState,
    analytic_eigensystem,
    build_corner_block,
    build_corner_block_general,
    check_coherence,
    check_density,
    eigenvalue_groups,
    parse_state_spec,
    prefix_density,
)
from .verify import (
    LemmaReport,
    verify_corner_block_bound,
    verify_family,
    verify_kron_pairing,
    verify_quadratic_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BadBlock",
    "BadFamilyParams",
    "BadQuery",
    "BadShape",
    "BadSpec",
    "BatteryReport",
    "BitSample",
    "BudgetExceeded",
    "CapExceeded",
    "ClassicalMLT",
    "DenseStateChain",
    "DenseStatePrefix",
    "DensityBlock",
    "FactoredState",
    "InsufficientData",
    "LemmaReport",
    "MeasureZeroPrefix",
    "MeasurementSystem",
    "MissingStage",
    "NotOrthonormal",
    "NumericHealthWarning",
    "QmeasError",
    "QuantumMLT",
    "QuantumSigmaClass",
    "StagedSigmaClass",
    "additivity_check",
    "aggregate",
    "analytic_eigensystem",
    "block_measure",
    "build_corner_block",
    "build_corner_block_general",
    "build_witness_test",
    "check_coherence",
    "check_density",
    "dense_cap_exponent",
    "eigenvalue_groups",
    "evaluate_state",
    "failure_report",
    "is_density_matrix",
    "kron",
    "lift_classical_mlt",
    "paired_coordinate_sum",
    "parse_state_spec",
    "partial_trace_last_qubit",
    "prefix_density",
    "premeasure",
    "premeasure_dense",
    "premeasure_factored",
    "premeasure_table_dense",
    "premeasure_table_factored",
    "required_witness_blocks",
    "run_battery",
    "sample_bits",
    "verify_corner_block_bound",
    "verify_family",
    "verify_kron_pairing",
    "witness_depth",
    "verify_quadratic_bounds",
]
