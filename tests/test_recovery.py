"""Ratio tables, cocycle laws, gauge extraction, and the recover pipeline.

Every recovered certificate is re-verified here by conjugating from scratch,
independently of the pipeline's own final check.
"""

import random
from fractions import Fraction

import pytest

from detequiv.classd import class_d_ok
from detequiv.classify import CaseLabel, CaseTable, GlobalCase
from detequiv.errors import (
    BranchUnavailable,
    ClassDViolation,
    NotEquivalent,
    NotRecoverable,
)
from detequiv.kernels import Gauge, Kernel
from detequiv.fields import PrimeField, Rationals
from detequiv.recovery import build_cocycle_case1, recover, verify_cocycle
from reference_audits import Inconsistent, consistency_audit, extract_gauge

Q = Rationals()
F7 = PrimeField(7)
F101 = PrimeField(101)


def _labels(n):
    return [str(i + 1) for i in range(n)]


def _nondegenerate_kernel(rng, field, n, zero_pairs=(), symmetric_zeros=False):
    # rejection sample a dense kernel, stamp in the requested zero edges,
    # keep only draws with every cross minor nonzero
    while True:
        if field.kind == "prime":
            rows = [[rng.randrange(1, field.p) for _ in range(n)]
                    for _ in range(n)]
        else:
            rows = [[Fraction(rng.choice([x for x in range(-9, 10) if x != 0]),
                              rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
        for i, j in zero_pairs:
            rows[i][j] = 0
            if symmetric_zeros:
                rows[j][i] = 0
        if class_d_ok(field, rows):
            return Kernel(field, _labels(n), rows)


def _random_gauge(rng, field, labels):
    if field.kind == "prime":
        vals = [rng.randrange(1, field.p) for _ in labels]
    else:
        vals = [Fraction(rng.choice([x for x in range(-9, 10) if x != 0]),
                         rng.randint(1, 4)) for _ in labels]
    return Gauge(field, labels, vals)


def _gauge_table(g):
    # the ratio table g(x) / g(y): the all-ones kernel conjugated by g
    n = len(g.labels)
    return Kernel(g.field, g.labels, [[g.field.one] * n] * n).conjugate(g)


def _gauges_match(field, got, truth, base):
    # extraction pins g(base) = 1, so the truth reappears divided by its
    # own base value
    scale = truth.values[base]
    return all(got.values[i] == field.div(truth.values[i], scale)
               for i in range(len(got.values)))


# ------------------------------------------------------------ ratio tables


def test_cocycle_case1_reproduces_gauge_table():
    rng = random.Random(441)
    for field in (F101, Q):
        for zeros in ((), ((0, 1),)):
            k = _nondegenerate_kernel(rng, field, 5, zeros)
            g = _random_gauge(rng, field, k.labels)
            c = build_cocycle_case1(k, k.conjugate(g))
            assert c.rows == _gauge_table(g).rows


def test_cocycle_case1_handles_doubly_zero_pairs():
    rng = random.Random(442)
    k = _nondegenerate_kernel(rng, F101, 5, ((0, 1),), symmetric_zeros=True)
    g = _random_gauge(rng, F101, k.labels)
    c = build_cocycle_case1(k, k.conjugate(g))
    assert c.rows == _gauge_table(g).rows


def test_cocycle_case2_reproduces_gauge_table():
    rng = random.Random(443)
    for field in (F101, Q):
        for zeros, sym in (((), False), (((2, 0),), False), (((0, 1),), True)):
            k = _nondegenerate_kernel(rng, field, 5, zeros, sym)
            g = _random_gauge(rng, field, k.labels)
            c = build_cocycle_case1(k.transpose(), k.transpose().conjugate(g))
            assert c.rows == _gauge_table(g).rows


def test_cocycle_branch3_value_ignores_pivot_choice():
    rng = random.Random(444)
    k = _nondegenerate_kernel(rng, F101, 6, ((0, 1),), symmetric_zeros=True)
    g = _random_gauge(rng, F101, k.labels)
    q = k.conjugate(g)
    f = k.field
    expected = f.div(g.values[0], g.values[1])
    for z in range(2, 6):
        got = f.div(f.mul(q.rows[0][z], q.rows[z][1]),
                    f.mul(k.rows[0][z], k.rows[z][1]))
        assert got == expected


def test_cocycle_raises_on_corrupted_zero_layout():
    rng = random.Random(445)
    k = _nondegenerate_kernel(rng, F101, 4, ((0, 1),))
    q_rows = [list(r) for r in k.conjugate(
        _random_gauge(rng, F101, k.labels)).rows]
    q_rows[1][0] = 0
    with pytest.raises(BranchUnavailable) as info:
        build_cocycle_case1(k, Kernel(F101, k.labels, q_rows))
    assert info.value.pair == (0, 1)


def test_cocycle_raises_when_pivot_entry_is_zero():
    rows = [[1, 0, 0, 2], [0, 1, 3, 4], [5, 6, 1, 7], [8, 9, 2, 1]]
    k = Kernel(Q, _labels(4), rows)
    with pytest.raises(BranchUnavailable):
        build_cocycle_case1(k, k)


# ------------------------------------------------------------ cocycle laws


def test_gauge_tables_satisfy_the_laws():
    rng = random.Random(446)
    for field in (F7, Q):
        for _ in range(20):
            n = rng.randint(1, 6)
            g = _random_gauge(rng, field, _labels(n))
            assert verify_cocycle(_gauge_table(g)).ok


def test_verify_reports_unit_diagonal_violation():
    c = Kernel(Q, _labels(3), [[1, 2, 3], [Fraction(1, 2), 2, 5],
                                [Fraction(1, 3), Fraction(1, 5), 1]])
    chk = verify_cocycle(c)
    assert not chk.ok
    assert chk.violation.law == "unit_diagonal"
    assert chk.violation.points == (1,)
    assert chk.violation.value == Fraction(2)


def test_verify_reports_reciprocal_pair_violation():
    g = Gauge(Q, _labels(3), [2, 3, 5])
    rows = [list(r) for r in _gauge_table(g).rows]
    rows[0][1] = Fraction(7)
    chk = verify_cocycle(Kernel(Q, _labels(3), rows))
    assert not chk.ok
    assert chk.violation.law == "reciprocal_pair"
    assert chk.violation.points == (0, 1)


def test_verify_reports_triangle_violation():
    # scale a reciprocal pair consistently so only the triangle law breaks
    g = Gauge(Q, _labels(3), [2, 3, 5])
    rows = [list(r) for r in _gauge_table(g).rows]
    rows[0][1] = Q.mul(rows[0][1], Fraction(4))
    rows[1][0] = Q.div(rows[1][0], Fraction(4))
    chk = verify_cocycle(Kernel(Q, _labels(3), rows))
    assert not chk.ok
    assert chk.violation.law == "triangle"
    assert chk.violation.points == (0, 1, 2)
    assert chk.violation.value == Fraction(4)


def test_extract_gauge_reads_base_column():
    rng = random.Random(447)
    g = _random_gauge(rng, F101, _labels(5))
    c = _gauge_table(g)
    for base in range(5):
        got = extract_gauge(c, base)
        assert _gauges_match(F101, got, g, base)
    with pytest.raises(IndexError):
        extract_gauge(c, 5)
    with pytest.raises(IndexError):
        extract_gauge(c, -1)


# ------------------------------------------------------- consistency audit


def test_consistency_audit_returns_gauge_ratio():
    rng = random.Random(448)
    k = _nondegenerate_kernel(rng, F101, 5, ((0, 1),), symmetric_zeros=True)
    g = _random_gauge(rng, F101, k.labels)
    q = k.conjugate(g)
    value = consistency_audit(k, q, 0, 1, GlobalCase.CASE1)
    assert value == F101.div(g.values[0], g.values[1])


def test_consistency_audit_flipped_framework():
    rng = random.Random(449)
    k = _nondegenerate_kernel(rng, F101, 5, ((1, 0),))
    g = _random_gauge(rng, F101, k.labels)
    q = k.transpose().conjugate(g)
    value = consistency_audit(k, q, 0, 1, GlobalCase.CASE2)
    assert value == F101.div(g.values[0], g.values[1])


def test_consistency_audit_detects_pivot_dependence():
    rng = random.Random(450)
    k = _nondegenerate_kernel(rng, F101, 5, ((0, 1),), symmetric_zeros=True)
    q_rows = [list(r) for r in
              k.conjugate(_random_gauge(rng, F101, k.labels)).rows]
    q_rows[0][2] = (q_rows[0][2] + 1) % 101 or 1
    q = Kernel(F101, k.labels, q_rows)
    with pytest.raises(Inconsistent) as info:
        consistency_audit(k, q, 0, 1, GlobalCase.CASE1)
    assert info.value.pair == (0, 1)
    assert len(info.value.values) >= 2


def test_consistency_audit_validates_inputs():
    rng = random.Random(451)
    k = _nondegenerate_kernel(rng, F101, 5, ((0, 1),))
    q = k.conjugate(_random_gauge(rng, F101, k.labels))
    with pytest.raises(ValueError):
        consistency_audit(k, q, 0, 2, GlobalCase.CASE1)  # entry not zero
    with pytest.raises(ValueError):
        consistency_audit(k, q, 1, 1, GlobalCase.CASE1)
    small = Kernel(Q, _labels(3), [[1, 0, 2], [3, 1, 4], [5, 6, 1]])
    with pytest.raises(ValueError):
        consistency_audit(small, small, 0, 1, GlobalCase.CASE1)


def test_consistency_audit_rejects_forbidden_pivot_zeros():
    rows = [[1, 0, 0, 2], [3, 1, 4, 5], [6, 7, 1, 8], [9, 2, 3, 1]]
    k = Kernel(Q, _labels(4), rows)
    with pytest.raises(BranchUnavailable):
        consistency_audit(k, k, 0, 1, GlobalCase.CASE1)


# ------------------------------------------------------------ the pipeline


def test_recover_round_trips_dense_instances():
    rng = random.Random(452)
    for field in (F101, Q):
        for flip in (False, True):
            for _ in range(6):
                n = rng.randint(4, 6)
                k = _nondegenerate_kernel(rng, field, n)
                g = _random_gauge(rng, field, k.labels)
                base = k.transpose() if flip else k
                q = base.conjugate(g)
                res = recover(k, q)
                assert res.transposed == flip
                target = k.transpose() if res.transposed else k
                assert target.conjugate(res.gauge).rows == q.rows
                assert _gauges_match(field, res.gauge, g, 0)
                assert res.base_label == "1"
                assert res.entries_checked == n * n


def test_recover_handles_zero_edges_and_audit():
    rng = random.Random(453)
    for flip in (False, True):
        k = _nondegenerate_kernel(rng, F101, 5, ((0, 1),), symmetric_zeros=True)
        g = _random_gauge(rng, F101, k.labels)
        q = (k.transpose() if flip else k).conjugate(g)
        res = recover(k, q)
        assert res.transposed == flip
        target = k.transpose() if res.transposed else k
        assert target.conjugate(res.gauge).rows == q.rows


def test_recover_one_sided_zero_over_rationals():
    rng = random.Random(454)
    k = _nondegenerate_kernel(rng, Q, 5, ((2, 4),))
    g = _random_gauge(rng, Q, k.labels)
    q = k.conjugate(g)
    res = recover(k, q)
    assert not res.transposed
    assert k.conjugate(res.gauge).rows == q.rows


def test_recover_base_is_smallest_label():
    rng = random.Random(455)
    rows = [[rng.randrange(1, 101) for _ in range(4)] for _ in range(4)]
    while not class_d_ok(F101, rows):
        rows = [[rng.randrange(1, 101) for _ in range(4)] for _ in range(4)]
    k = Kernel(F101, ["d", "b", "a", "c"], rows)
    g = Gauge(F101, k.labels, [2, 3, 4, 5])
    res = recover(k, k.conjugate(g))
    assert res.base_label == "a"
    # g(a) = 1 in the certificate
    assert res.gauge.values[2] == 1


def test_recover_refuses_unequal_minors():
    rng = random.Random(456)
    k = _nondegenerate_kernel(rng, F101, 4)
    q_rows = [list(r) for r in
              k.conjugate(_random_gauge(rng, F101, k.labels)).rows]
    q_rows[1][1] = (q_rows[1][1] + 3) % 101
    with pytest.raises(NotEquivalent) as info:
        recover(k, Kernel(F101, k.labels, q_rows))
    assert info.value.subset == (1,)


def test_recover_refuses_degenerate_inputs():
    ones = Kernel(Q, _labels(4), [[1] * 4 for _ in range(4)])
    with pytest.raises(ClassDViolation) as info:
        recover(ones, ones)
    assert info.value.kernel_role == "first"
    assert info.value.witness == (0, 1, 2, 3)


def test_recover_reports_neither_cycles_as_refutation():
    # agree up to order 2 and break a 3-cycle: the order-3 minor refutes
    rng = random.Random(457)
    while True:
        k = _nondegenerate_kernel(rng, F101, 4)
        q_rows = [list(r) for r in k.rows]
        q_rows[0][1] = F101.mul(k.rows[0][1], 2)
        q_rows[1][0] = F101.div(k.rows[1][0], 2)
        q = Kernel(F101, k.labels, q_rows)
        if class_d_ok(F101, q.rows) and CaseTable.build(k, q).neither_rows():
            break
    with pytest.raises(NotEquivalent) as info:
        recover(k, q)
    assert info.value.subset == (0, 1, 2)


def test_recover_mixed_frameworks():
    # symmetric base except two asymmetric pairs; flipping exactly one of
    # them in q preserves all minors up to order 3 but splits the cycles
    # between the two frameworks, so the order-4 minor refutes
    rng = random.Random(458)
    while True:
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            rows[i][i] = rng.randrange(1, 101)
            for j in range(i + 1, 4):
                rows[i][j] = rows[j][i] = rng.randrange(1, 101)
        rows[0][1] = rng.randrange(1, 101)
        rows[2][3] = rng.randrange(1, 101)
        if rows[0][1] == rows[1][0] or rows[2][3] == rows[3][2]:
            continue
        q_rows = [list(r) for r in rows]
        q_rows[2][3], q_rows[3][2] = rows[3][2], rows[2][3]
        if class_d_ok(F101, rows) and class_d_ok(F101, q_rows):
            break
    k = Kernel(F101, _labels(4), rows)
    q = Kernel(F101, _labels(4), q_rows)
    with pytest.raises(NotEquivalent) as info:
        recover(k, q)
    assert info.value.subset == (0, 1, 2, 3)


def test_recover_small_sizes_direct_solve():
    rng = random.Random(459)
    for field in (F7, Q):
        for n in (1, 2, 3):
            for flip in (False, True):
                rows = [[rng.randrange(1, 7) if field.kind == "prime"
                         else Fraction(rng.randint(1, 9))
                         for _ in range(n)] for _ in range(n)]
                k = Kernel(field, _labels(n), rows)
                g = _random_gauge(rng, field, k.labels)
                q = (k.transpose() if flip else k).conjugate(g)
                res = recover(k, q)
                target = k.transpose() if res.transposed else k
                assert target.conjugate(res.gauge).rows == q.rows


def test_recover_small_with_zero_entries():
    k = Kernel(Q, _labels(3), [[1, 0, 2], [3, 1, 0], [0, 5, 1]])
    g = Gauge(Q, k.labels, [2, 3, 5])
    for flip in (False, True):
        q = (k.transpose() if flip else k).conjugate(g)
        res = recover(k, q)
        assert res.transposed == flip
        target = k.transpose() if res.transposed else k
        assert target.conjugate(res.gauge).rows == q.rows


def test_recover_small_not_recoverable():
    # equal principal minors, but the zero layouts rule out both flips
    k = Kernel(Q, _labels(2), [[2, 0], [7, 3]])
    q = Kernel(Q, _labels(2), [[2, 0], [0, 3]])
    assert k.principal_minor((0, 1)) == q.principal_minor((0, 1))
    with pytest.raises(NotRecoverable):
        recover(k, q)


def test_all_both_table_retries_the_flipped_framework():
    # double-sided zero edges at the pairs (1,2) and (3,4) put a zero into
    # every triangle, so all cycle products vanish on both sides and the
    # table is all BOTH; the flip cannot be read off the cycles and only
    # the flipped framework reconstructs this pair
    k = Kernel(F7, _labels(4), [[1, 0, 5, 3],
                                [0, 5, 5, 2],
                                [3, 1, 5, 0],
                                [6, 3, 0, 4]])
    assert class_d_ok(F7, k.rows)
    g = Gauge(F7, k.labels, [1, 2, 3, 4])
    q = k.transpose().conjugate(g)
    table = CaseTable.build(k, q)
    assert all(r.label is CaseLabel.BOTH for r in table.rows)

    res = recover(k, q)
    assert res.transposed
    assert res.gauge.values == (1, 2, 3, 4)
    assert k.transpose().conjugate(res.gauge) == q

    plain = k.conjugate(g)
    res = recover(k, plain)
    assert not res.transposed
    assert k.conjugate(res.gauge) == plain
