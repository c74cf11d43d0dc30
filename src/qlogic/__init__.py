"""Exact probability on finite quantum logics.

The package models experiments whose events form an orthocomplemented
lattice rather than a Boolean algebra: states assign them probabilities,
conditional states and s-maps extend conditioning and joint distributions
to pairs of events that admit no common refinement, and discrete
observables turn the result into means, covariances, and correlations.
All arithmetic is exact rational; correlation coefficients are the single
floating-point surface.
"""

from .errors import (
    AxiomViolation,
    LatticeError,
    ModelFileError,
    ParseError,
    QLogicError,
    SizeOutOfRange,
    UnknownElementError,
    UnsupportedLattice,
    ValidationError,
)
from .generators import (
    brute_force_compatible,
    distributivity_scan,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    independence_law_scan,
    infer_blocks,
    oracle_scan,
    product_equivalence_scan,
    random_smap,
    random_state,
    roundtrip_suite,
    smap_law_scan,
    statistics_law_scan,
    SuiteReport,
)
from .lattice import ONE, ZERO, QuantumLogic, build_logic
from .modelfile import (
    ModelFile,
    ParsedModel,
    emit_model,
    load_model,
    parse_model,
    parse_model_text,
    realize_model,
)
from .observables import (
    CovarianceMatrix,
    DiscreteObservable,
    JointDistribution,
    StatsReport,
    build_observable,
    classical_representation,
    compute_stats,
    correlation,
    covariance,
    covariance_matrix,
    expectation,
    first_joint_moment,
    joint_distribution,
    variance,
)
from .repro import REPRO_IDS, ReproReport, run_repro
from .smaps import (
    SMap,
    classical_smap,
    conditional_from_smap,
    smap_from_conditional,
    validate_smap,
)
from .states import (
    ConditionalState,
    ConditionalSystem,
    State,
    classical_conditional,
    conditional_state_from_partition,
    conditional_system_generated,
    validate_conditional_state,
    validate_conditional_system,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "LatticeError", "ModelFileError", "ParseError",
    "QLogicError", "SizeOutOfRange", "UnknownElementError",
    "UnsupportedLattice", "ValidationError",
    "brute_force_compatible", "distributivity_scan", "gen_boolean", "gen_mo",
    "horizontal_sum", "independence_law_scan", "infer_blocks", "oracle_scan",
    "product_equivalence_scan", "random_smap", "random_state",
    "roundtrip_suite", "smap_law_scan", "statistics_law_scan", "SuiteReport",
    "ONE", "ZERO", "QuantumLogic", "build_logic",
    "ModelFile", "ParsedModel", "emit_model", "load_model", "parse_model",
    "parse_model_text", "realize_model",
    "CovarianceMatrix", "DiscreteObservable", "JointDistribution",
    "StatsReport", "build_observable", "classical_representation",
    "compute_stats", "correlation", "covariance", "covariance_matrix",
    "expectation", "first_joint_moment", "joint_distribution", "variance",
    "REPRO_IDS", "ReproReport", "run_repro",
    "SMap", "classical_smap", "conditional_from_smap",
    "smap_from_conditional", "validate_smap",
    "ConditionalState", "ConditionalSystem", "State", "classical_conditional",
    "conditional_state_from_partition", "conditional_system_generated",
    "validate_conditional_state", "validate_conditional_system",
    "validate_state",
]
