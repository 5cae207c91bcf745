"""Per-cycle case labels, the global framework decision, and its audits."""

import random
from fractions import Fraction

import pytest

from detequiv.classify import (
    CaseLabel,
    CaseTable,
    CycleClassification,
    GlobalCase,
    classify_3cycle,
    global_case,
)
from detequiv.errors import MixedCases
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Cycle, Gauge, Kernel, cycle_product
from reference_audits import four_point_audit

Q = Rationals()
F7 = PrimeField(7)
F101 = PrimeField(101)


def _random_kernel(rng, field, n, nowhere_zero=False):
    lo = 1 if nowhere_zero else 0
    rows = [[rng.randrange(lo, field.p) for _ in range(n)] for _ in range(n)]
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def _random_gauge(rng, field, labels):
    return Gauge(field, labels, [rng.randrange(1, field.p) for _ in labels])


# ------------------------------------------------------------ cycle labels


def test_conjugate_pairs_label_direct():
    rng = random.Random(421)
    for _ in range(25):
        n = rng.randint(3, 6)
        k = _random_kernel(rng, F101, n)
        q = k.conjugate(_random_gauge(rng, F101, k.labels))
        for row in CaseTable.build(k, q).rows:
            assert row.label in (CaseLabel.CASE1_ONLY, CaseLabel.BOTH)
            assert row.k_forward == row.q_forward
            assert row.k_reversed == row.q_reversed


def test_flip_conjugate_pairs_label_flipped():
    rng = random.Random(422)
    saw_exclusive = False
    for _ in range(25):
        n = rng.randint(3, 6)
        k = _random_kernel(rng, F101, n)
        q = k.transpose().conjugate(_random_gauge(rng, F101, k.labels))
        for row in CaseTable.build(k, q).rows:
            assert row.label in (CaseLabel.CASE2_ONLY, CaseLabel.BOTH)
            assert row.k_forward == row.q_reversed
            assert row.k_reversed == row.q_forward
            saw_exclusive = saw_exclusive or row.label is CaseLabel.CASE2_ONLY
    assert saw_exclusive


def test_label_is_orientation_invariant():
    rng = random.Random(423)
    for _ in range(40):
        k = _random_kernel(rng, F7, 4)
        q = _random_kernel(rng, F7, 4)
        cyc = Cycle((0, 1, 3))
        a = classify_3cycle(k, q, cyc)
        b = classify_3cycle(k, q, cyc.reverse())
        assert a.label == b.label
        # reversing swaps the two products on each side
        assert a.k_forward == b.k_reversed
        assert a.q_forward == b.q_reversed


def test_symmetric_cycle_products_label_both():
    # symmetric kernels have equal forward and reversed products everywhere
    rows = [[1, 2, 3], [2, 1, 4], [3, 4, 1]]
    k = Kernel(Q, ["a", "b", "c"], rows)
    row = CaseTable.build(k, k).rows[0]
    assert row.label is CaseLabel.BOTH


def test_neither_label_on_unmatched_products():
    k = Kernel(Q, ["a", "b", "c"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    q = Kernel(Q, ["a", "b", "c"],
               [[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])
    row = classify_3cycle(k, q, Cycle((0, 1, 2)))
    assert row.label is CaseLabel.NEITHER
    assert CaseTable.build(k, q).neither_rows() == (row,)


def test_classify_rejects_wrong_length():
    k = _random_kernel(random.Random(424), F7, 4)
    with pytest.raises(ValueError):
        classify_3cycle(k, k, Cycle((0, 1)))


# -------------------------------------------------------------- zero edges


def test_zero_edges_follow_forward_sense_for_direct():
    rows = [[1, 0, 2], [3, 1, 4], [5, 6, 1]]
    k = Kernel(Q, ["a", "b", "c"], rows)
    row = classify_3cycle(k, k, Cycle((0, 1, 2)))
    assert row.label is CaseLabel.CASE1_ONLY
    assert row.zero_edges == ((0, 1),)


def test_zero_edges_follow_reversed_sense_for_flipped():
    k = Kernel(F7, ["a", "b", "c"], [[1, 0, 2], [3, 1, 4], [5, 6, 1]])
    q = k.transpose().conjugate(Gauge(F7, k.labels, [2, 3, 4]))
    row = classify_3cycle(k, q, Cycle((0, 1, 2)))
    assert row.label is CaseLabel.CASE2_ONLY
    # the zero K(0,1) reads as edge (1,0) under the flipped sense, and (1,0)
    # belongs to the other orientation of the triple
    assert row.zero_edges == ()
    rev = classify_3cycle(k, q, Cycle((0, 2, 1)))
    assert rev.label is CaseLabel.CASE2_ONLY
    assert rev.zero_edges == ((1, 0),)


# ------------------------------------------------------------- case tables


def test_case_table_lists_lex_triples_once():
    rng = random.Random(426)
    k = _random_kernel(rng, F7, 5)
    table = CaseTable.build(k, k)
    triples = [row.cycle.vertices for row in table.rows]
    assert triples == sorted(triples)
    assert len(triples) == 10
    assert triples[0] == (0, 1, 2)
    counts = table.counts()
    assert sum(counts.values()) == 10


def test_case_table_needs_three_points():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        CaseTable.build(k, k)


# ------------------------------------------------------------- global case


def test_global_case_direct():
    rng = random.Random(427)
    k = _random_kernel(rng, F101, 5)
    q = k.conjugate(_random_gauge(rng, F101, k.labels))
    assert global_case(CaseTable.build(k, q)) is GlobalCase.CASE1


def test_global_case_flipped():
    rng = random.Random(428)
    k = _random_kernel(rng, F101, 5)
    q = k.transpose().conjugate(_random_gauge(rng, F101, k.labels))
    assert global_case(CaseTable.build(k, q)) is GlobalCase.CASE2


def test_global_case_all_both_lands_on_direct():
    rows = [[1, 2, 3], [2, 1, 4], [3, 4, 1]]
    k = Kernel(Q, ["a", "b", "c"], rows)
    table = CaseTable.build(k, k)
    assert all(r.label is CaseLabel.BOTH for r in table.rows)
    assert global_case(table) is GlobalCase.CASE1


def test_global_case_rejects_neither_rows():
    k = Kernel(Q, ["a", "b", "c"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    q = Kernel(Q, ["a", "b", "c"],
               [[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])
    with pytest.raises(ValueError):
        global_case(CaseTable.build(k, q))


def test_mixed_frameworks_raise():
    # two dense 3x3 blocks, zero in between: the first block is copied, the
    # second transposed, and every cross-block cycle has zero products on
    # both sides, so cross triples land on BOTH and never on NEITHER
    rng = random.Random(429)
    while True:
        k_rows = [[0] * 6 for _ in range(6)]
        q_rows = [[0] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                k_rows[i][j] = q_rows[i][j] = rng.randrange(1, 101)
                k_rows[3 + i][3 + j] = rng.randrange(1, 101)
        for i in range(3):
            for j in range(3):
                q_rows[3 + i][3 + j] = k_rows[3 + j][3 + i]
        labels = [str(i + 1) for i in range(6)]
        k = Kernel(F101, labels, k_rows)
        q = Kernel(F101, labels, q_rows)
        table = CaseTable.build(k, q)
        by_triple = {row.cycle.vertices: row.label for row in table.rows}
        if by_triple[(0, 1, 2)] is CaseLabel.CASE1_ONLY \
                and by_triple[(3, 4, 5)] is CaseLabel.CASE2_ONLY:
            break
    assert not table.neither_rows()
    with pytest.raises(MixedCases) as info:
        global_case(table)
    assert info.value.direct_cycle.vertices == (0, 1, 2)
    assert info.value.flipped_cycle.vertices == (3, 4, 5)


# -------------------------------------------------------------- four-point


def test_four_point_audit_clean_on_conjugates():
    rng = random.Random(430)
    for flip in (False, True):
        k = _random_kernel(rng, F101, 5)
        base = k.transpose() if flip else k
        q = base.conjugate(_random_gauge(rng, F101, k.labels))
        assert four_point_audit(k, q) == ()


def test_four_point_audit_flags_mixed_quads():
    rng = random.Random(431)
    while True:
        k = _random_kernel(rng, F101, 4, nowhere_zero=True)
        q_rows = [list(r) for r in k.rows]
        q_rows[2][3], q_rows[3][2] = k.rows[3][2], k.rows[2][3]
        q = Kernel(F101, k.labels, q_rows)
        table = CaseTable.build(k, q)
        labels = {row.label for row in table.rows}
        if CaseLabel.NEITHER in labels or (CaseLabel.CASE1_ONLY in labels
                                           and CaseLabel.CASE2_ONLY in labels):
            break
    violations = four_point_audit(k, q)
    assert violations
    assert violations[0][0] == (0, 1, 2, 3)


def test_four_point_audit_needs_four_points():
    k = Kernel(Q, ["a", "b", "c"], [[1, 2, 3], [4, 1, 5], [6, 7, 1]])
    with pytest.raises(ValueError):
        four_point_audit(k, k)
