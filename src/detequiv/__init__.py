"""Exact decision procedures for kernels sharing all principal minors.

Two kernels on the same finite labelled set are compared minor-by-minor in
exact arithmetic (rationals or GF(p)); when they agree and both are
nondegenerate, the diagonal change of variables (and optional flip) relating
them is recovered constructively and re-verified.  Seeded generators,
brute-force oracles and a counterexample search round out the toolkit.
"""

from .classd import ClassDReport, check_class_d
from .classify import (
    CaseLabel,
    CaseTable,
    CycleClassification,
    GlobalCase,
    classify_3cycle,
    global_case,
)
from .equivalence import (
    EquivalenceReport,
    check_equivalence,
    quick_consequences,
)
from .errors import (
    BranchUnavailable,
    ClassDViolation,
    DetEquivError,
    FieldMismatch,
    GenerationBudgetExceeded,
    LabelMismatch,
    MixedCases,
    NotEquivalent,
    NotRecoverable,
    VerificationFailed,
)
from .fields import PrimeField, Rationals, determinant, field_from_doc, is_prime
from .kernels import (
    Cycle,
    Gauge,
    Kernel,
    cycle_product,
    require_same_points,
)
from .lab import (
    GroundTruth,
    InstanceSpec,
    OracleResult,
    brute_force_diagonal_similar,
    gen_instance,
    perturb,
    search_counterexample,
)
from .recovery import (
    RecoveryResult,
    build_cocycle_case1,
    recover,
    verify_cocycle,
)

__version__ = "0.1.0"

__all__ = [
    "BranchUnavailable",
    "CaseLabel",
    "CaseTable",
    "ClassDReport",
    "ClassDViolation",
    "CycleClassification",
    "Cycle",
    "DetEquivError",
    "EquivalenceReport",
    "FieldMismatch",
    "Gauge",
    "GenerationBudgetExceeded",
    "GlobalCase",
    "GroundTruth",
    "InstanceSpec",
    "Kernel",
    "LabelMismatch",
    "MixedCases",
    "NotEquivalent",
    "NotRecoverable",
    "OracleResult",
    "PrimeField",
    "Rationals",
    "RecoveryResult",
    "VerificationFailed",
    "brute_force_diagonal_similar",
    "build_cocycle_case1",
    "check_class_d",
    "check_equivalence",
    "classify_3cycle",
    "cycle_product",
    "determinant",
    "field_from_doc",
    "gen_instance",
    "global_case",
    "is_prime",
    "perturb",
    "quick_consequences",
    "recover",
    "require_same_points",
    "search_counterexample",
    "verify_cocycle",
]
