"""The package's public surface: every name in ``__all__`` is importable,
and the list of names changes only together with this test."""

import detequiv


def test_all_names_are_unique_and_bound():
    names = detequiv.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(detequiv, name)]
    assert missing == []
    namespace = {}
    exec("from detequiv import *", namespace)
    assert [name for name in names if name not in namespace] == []


def test_public_names_are_pinned():
    assert sorted(detequiv.__all__) == [
        "BranchUnavailable", "CaseLabel", "CaseTable", "ClassDReport",
        "ClassDViolation", "Cycle", "CycleClassification", "DetEquivError",
        "EquivalenceReport", "FieldMismatch", "Gauge",
        "GenerationBudgetExceeded", "GlobalCase", "GroundTruth",
        "InstanceSpec", "Kernel", "LabelMismatch", "MixedCases",
        "NotEquivalent", "NotRecoverable", "OracleResult", "PrecheckReport",
        "PrimeField", "Rationals", "RecoveryResult", "VerificationFailed",
        "brute_force_diagonal_similar", "build_cocycle_case1",
        "check_class_d", "check_equivalence", "classify_3cycle",
        "cycle_product", "determinant", "field_from_doc", "gen_instance",
        "global_case", "is_prime", "perturb", "quick_consequences",
        "recover", "require_same_points", "search_counterexample",
        "verify_cocycle",
    ]
