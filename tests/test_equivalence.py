"""Minor-by-minor comparison, cheap prechecks, and the 3-cycle trace audit.

Witness minimality is verified against an explicit re-scan of all subsets,
written independently of the library's own loop.
"""

import itertools
import random
from fractions import Fraction

import pytest

from detequiv.equivalence import (
    check_equivalence,
    quick_consequences,
    trace_identity_audit,
)
from detequiv.errors import LabelMismatch
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel

Q = Rationals()
F7 = PrimeField(7)


def _random_kernel(rng, field, n):
    if field.kind == "prime":
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def _random_gauge(rng, field, labels):
    if field.kind == "prime":
        vals = [rng.randrange(1, field.p) for _ in labels]
    else:
        vals = [Fraction(rng.choice([x for x in range(-9, 10) if x != 0]),
                         rng.randint(1, 9)) for _ in labels]
    return Gauge(field, labels, vals)


def _assert_minimal_witness(k, q, report):
    # independent re-scan: the witness fails, every smaller subset agrees,
    # and every same-size subset before it in lex order agrees too
    assert not report.equivalent
    s = report.witness_subset
    assert k.principal_minor(s) != q.principal_minor(s)
    assert report.witness_minor_k == k.principal_minor(s)
    assert report.witness_minor_q == q.principal_minor(s)
    for order in range(1, len(s)):
        for subset in itertools.combinations(range(k.n), order):
            assert k.principal_minor(subset) == q.principal_minor(subset)
    for subset in itertools.combinations(range(k.n), len(s)):
        if subset >= s:
            break
        assert k.principal_minor(subset) == q.principal_minor(subset)


# ------------------------------------------------------------ positive side


def test_conjugates_are_equivalent():
    rng = random.Random(401)
    for field in (Q, F7):
        for trial in range(30):
            n = rng.randint(1, 5)
            k = _random_kernel(rng, field, n)
            g = _random_gauge(rng, field, k.labels)
            base = k.transpose() if trial % 2 else k
            rep = check_equivalence(k, base.conjugate(g))
            assert rep.equivalent
            assert rep.checked_order_max == n
            assert rep.witness_subset is None


def test_equivalent_pair_passes_prechecks_and_trace_audit():
    rng = random.Random(402)
    for field in (Q, F7):
        for trial in range(30):
            n = rng.randint(3, 5)
            k = _random_kernel(rng, field, n)
            g = _random_gauge(rng, field, k.labels)
            base = k.transpose() if trial % 2 else k
            q = base.conjugate(g)
            assert quick_consequences(k, q).ok
            assert trace_identity_audit(k, q) == ()


# ------------------------------------------------------------ negative side


def test_frozen_order3_witness():
    # diagonals and pair products match by construction, so the first
    # disagreement is the full 3x3 determinant
    k = Kernel(Q, ["a", "b", "c"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    q = Kernel(Q, ["a", "b", "c"],
               [[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])
    rep = check_equivalence(k, q)
    assert rep.witness_subset == (0, 1, 2)
    assert rep.witness_minor_k == Fraction(0)
    assert rep.witness_minor_q == Fraction(1, 2)
    _assert_minimal_witness(k, q, rep)


def test_random_perturbations_give_minimal_witnesses():
    rng = random.Random(403)
    for field in (Q, F7):
        for _ in range(40):
            n = rng.randint(2, 5)
            k = _random_kernel(rng, field, n)
            q = k.conjugate(_random_gauge(rng, field, k.labels))
            i = rng.randrange(n)
            j = rng.randrange(n)
            bump = 1 if field.kind == "prime" else Fraction(1, 3)
            rows = [list(r) for r in q.rows]
            rows[i][j] = field.add(rows[i][j], bump)
            q2 = Kernel(field, q.labels, rows)
            rep = check_equivalence(k, q2)
            if rep.equivalent:
                # the bump can cancel inside every principal minor only when
                # it never meets a failing subset; re-scan confirms
                for order in range(1, n + 1):
                    for s in itertools.combinations(range(n), order):
                        assert k.principal_minor(s) == q2.principal_minor(s)
            else:
                _assert_minimal_witness(k, q2, rep)


def test_order_one_witness_reported():
    k = Kernel(F7, ["1", "2"], [[1, 2], [3, 4]])
    q = Kernel(F7, ["1", "2"], [[5, 2], [3, 4]])
    rep = check_equivalence(k, q)
    assert rep.witness_subset == (0,)
    assert rep.witness_minor_k == 1
    assert rep.witness_minor_q == 5


# ------------------------------------------------------------ order capping


def test_max_order_cap_hides_deep_witness():
    k = Kernel(Q, ["a", "b", "c"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    q = Kernel(Q, ["a", "b", "c"],
               [[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])
    capped = check_equivalence(k, q, max_order=2)
    assert capped.equivalent
    assert capped.checked_order_max == 2
    assert not check_equivalence(k, q, max_order=3).equivalent


def test_max_order_validation():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    for bad in (0, -1, 3):
        with pytest.raises(ValueError):
            check_equivalence(k, k, max_order=bad)
    assert check_equivalence(k, k, max_order=1).equivalent


def test_scan_guard_rejects_oversized_full_scan():
    rng = random.Random(421)
    k = _random_kernel(rng, PrimeField(101), 21)
    with pytest.raises(ValueError, match="2097151 subsets"):
        check_equivalence(k, k)
    capped = check_equivalence(k, k, max_order=3)
    assert capped.equivalent
    assert capped.checked_order_max == 3


def test_mismatched_points_rejected():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    q = Kernel(Q, ["a", "c"], [[1, 2], [3, 4]])
    with pytest.raises(LabelMismatch):
        check_equivalence(k, q)


# -------------------------------------------------------------- prechecks


def test_precheck_reports_diagonal_failure():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    q = Kernel(Q, ["a", "b"], [[1, 2], [3, 5]])
    rep = quick_consequences(k, q)
    assert not rep.ok
    assert len(rep.failures) == 1
    fail = rep.failures[0]
    assert fail.kind == "diagonal"
    assert fail.points == (1,)
    assert (fail.k_value, fail.q_value) == (4, 5)


def test_precheck_reports_pair_failure():
    k = Kernel(F7, ["1", "2", "3"], [[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    q = Kernel(F7, ["1", "2", "3"], [[1, 3, 3], [4, 5, 6], [1, 2, 3]])
    rep = quick_consequences(k, q)
    kinds = {(f.kind, f.points) for f in rep.failures}
    assert ("pair", (0, 1)) in kinds
    fail = [f for f in rep.failures if f.points == (0, 1)][0]
    assert fail.k_value == (2 * 4) % 7
    assert fail.q_value == (3 * 4) % 7


def test_precheck_failure_implies_small_witness():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = _random_kernel(rng, F7, n)
        q = _random_kernel(rng, F7, n)
        pre = quick_consequences(k, q)
        rep = check_equivalence(k, q)
        if not pre.ok:
            assert not rep.equivalent
            assert len(rep.witness_subset) <= 2


# -------------------------------------------------------------- trace audit


def test_trace_audit_empty_below_three_points():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    q = Kernel(Q, ["a", "b"], [[5, 6], [7, 8]])
    assert trace_identity_audit(k, q) == ()


def test_trace_audit_catches_cycle_sum_drift():
    # same diagonals and pair products, different 3-cycle sums
    k = Kernel(Q, ["a", "b", "c"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    q = Kernel(Q, ["a", "b", "c"],
               [[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])
    violations = trace_identity_audit(k, q)
    assert len(violations) == 2
    v = violations[0]
    assert v.cycle.vertices == (0, 1, 2)
    assert v.k_sum == Fraction(2)
    assert v.q_sum == Fraction(5, 2)
