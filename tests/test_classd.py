"""Nondegeneracy scan, zero-pattern rules, and edge-pattern classification.

The scan verdict and its witness are checked against a brute-force sweep over
every ordered quadruple of pairwise-distinct points.
"""

import itertools
import random
from fractions import Fraction

import pytest

from detequiv.classd import (
    ALIGNED_ZERO_BACKWARD,
    ALIGNED_ZERO_FORWARD,
    ALL_NONZERO,
    ALL_ZERO,
    SWAPPED_ZERO_BACKWARD,
    SWAPPED_ZERO_FORWARD,
    check_class_d,
    class_d_ok,
    edge_pattern,
    zero_pattern_validate,
)
from detequiv.errors import ProblematicPair
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel

Q = Rationals()
F7 = PrimeField(7)


def _vanishing_quadruples(k):
    # brute force: every ordered quadruple, no clever pruning
    f = k.field
    out = []
    for quad in itertools.permutations(range(k.n), 4):
        x, y, z, w = quad
        lhs = f.mul(k.rows[x][y], k.rows[w][z])
        rhs = f.mul(k.rows[x][z], k.rows[w][y])
        if lhs == rhs:
            out.append(quad)
    return out


def _random_kernel(rng, field, n):
    if field.kind == "prime":
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def _cauchy(a, b):
    rows = [[Fraction(1, ai + bj) for bj in b] for ai in a]
    return Kernel(Q, [str(i + 1) for i in range(len(a))], rows)


# ------------------------------------------------------------------ verdicts


def test_cauchy_kernel_is_nondegenerate():
    k = _cauchy((0, 1, 2, 3), (1, 2, 3, 5))
    rep = check_class_d(k)
    assert rep.holds
    assert rep.witness is None
    assert _vanishing_quadruples(k) == []
    assert class_d_ok(Q, k.rows)


def test_all_ones_fails_at_first_quadruple():
    k = Kernel(Q, ["1", "2", "3", "4"], [[1] * 4 for _ in range(4)])
    rep = check_class_d(k)
    assert not rep.holds
    assert rep.witness == (0, 1, 2, 3)
    assert rep.witness_labels == ("1", "2", "3", "4")
    assert not class_d_ok(Q, k.rows)


def test_identity_kernel_fails_at_first_quadruple():
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rep = check_class_d(Kernel(F7, ["1", "2", "3", "4"], rows))
    assert not rep.holds
    assert rep.witness == (0, 1, 2, 3)


def test_small_kernels_hold_vacuously():
    rng = random.Random(411)
    for n in (1, 2, 3):
        k = _random_kernel(rng, F7, n)
        assert check_class_d(k).holds
        assert class_d_ok(F7, k.rows)


def test_scan_matches_brute_force():
    rng = random.Random(412)
    for field in (Q, F7):
        for _ in range(60):
            n = rng.randint(4, 6)
            k = _random_kernel(rng, field, n)
            vanishing = _vanishing_quadruples(k)
            rep = check_class_d(k)
            assert rep.holds == (not vanishing)
            assert class_d_ok(field, k.rows) == rep.holds
            if vanishing:
                assert rep.witness == min(vanishing)


def test_scan_matches_permutation_reference():
    # the reference knows nothing of the scan's loop order: it takes the
    # least of all vanishing ordered quadruples
    rng = random.Random(415)
    for field in (PrimeField(2), PrimeField(3), F7, Q):
        for _ in range(500):
            k = _random_kernel(rng, field, rng.randint(1, 6))
            ref = min(_vanishing_quadruples(k), default=None)
            assert check_class_d(k).witness == ref
            assert class_d_ok(field, k.rows) == (ref is None)


def test_verdict_invariant_under_conjugation_and_flip():
    rng = random.Random(413)
    for _ in range(40):
        n = rng.randint(4, 5)
        k = _random_kernel(rng, F7, n)
        g = Gauge(F7, k.labels,
                  [rng.randrange(1, 7) for _ in range(n)])
        rep = check_class_d(k)
        conj = check_class_d(k.conjugate(g))
        assert conj.holds == rep.holds
        # conjugation scales each cross minor by a nonzero unit, so even the
        # witness survives
        assert conj.witness == rep.witness
        assert check_class_d(k.transpose()).holds == rep.holds


# -------------------------------------------------------------- zero pattern


def test_zero_pattern_accepts_isolated_zeros():
    rows = [[1, 0, 2, 3], [4, 5, 6, 7], [8, 9, 1, 2], [3, 4, 5, 6]]
    assert zero_pattern_validate(Kernel(Q, list("abcd"), rows)) == ()


def test_zero_pattern_ignores_diagonal_zeros():
    rows = [[0, 1, 2, 3], [4, 0, 6, 7], [8, 9, 0, 2], [3, 4, 5, 0]]
    assert zero_pattern_validate(Kernel(Q, list("abcd"), rows)) == ()


def test_zero_pattern_rejects_shared_row():
    rows = [[1, 0, 0, 3], [4, 5, 6, 7], [8, 9, 1, 2], [3, 4, 5, 6]]
    violations = zero_pattern_validate(Kernel(Q, list("abcd"), rows))
    assert {(v.zero_at, v.conflict) for v in violations} == \
        {((0, 1), (0, 2)), ((0, 2), (0, 1))}


def test_zero_pattern_rejects_shared_column():
    rows = [[1, 2, 0, 3], [4, 5, 6, 7], [8, 9, 1, 2], [3, 4, 0, 6]]
    violations = zero_pattern_validate(Kernel(Q, list("abcd"), rows))
    assert ((0, 2), (3, 2)) in {(v.zero_at, v.conflict) for v in violations}


def test_zero_pattern_violation_forces_degeneracy():
    rng = random.Random(414)
    for _ in range(30):
        n = rng.randint(4, 6)
        k = _random_kernel(rng, F7, n)
        if zero_pattern_validate(k):
            assert not check_class_d(k).holds


# -------------------------------------------------------------- edge pattern


def _pair_kernels(k_xy, k_yx, q_xy, q_yx):
    # embed the four test entries at pair (0, 1) of otherwise dense kernels
    base = [[1, 1, 2, 3], [1, 1, 1, 2], [2, 3, 1, 1], [5, 1, 2, 1]]
    k_rows = [list(r) for r in base]
    q_rows = [list(r) for r in base]
    k_rows[0][1], k_rows[1][0] = k_xy, k_yx
    q_rows[0][1], q_rows[1][0] = q_xy, q_yx
    labels = list("wxyz")
    return Kernel(Q, labels, k_rows), Kernel(Q, labels, q_rows)


def test_edge_pattern_recognizes_all_six_layouts():
    cases = [
        ((5, 7, 5, 7), ALL_NONZERO),
        ((0, 0, 0, 0), ALL_ZERO),
        ((0, 7, 0, 9), ALIGNED_ZERO_FORWARD),
        ((5, 0, 9, 0), ALIGNED_ZERO_BACKWARD),
        ((0, 7, 9, 0), SWAPPED_ZERO_FORWARD),
        ((5, 0, 0, 9), SWAPPED_ZERO_BACKWARD),
    ]
    for entries, expected in cases:
        k, q = _pair_kernels(*entries)
        assert edge_pattern(k, q, 0, 1) == expected


def test_edge_pattern_rejects_stray_zero():
    for entries in [(0, 7, 5, 7), (5, 7, 0, 7), (0, 0, 0, 7), (0, 0, 5, 0),
                    (5, 0, 0, 0), (0, 7, 0, 0)]:
        k, q = _pair_kernels(*entries)
        with pytest.raises(ProblematicPair) as info:
            edge_pattern(k, q, 0, 1)
        assert info.value.edge == (0, 1)


def test_edge_pattern_needs_distinct_points():
    k, q = _pair_kernels(5, 7, 5, 7)
    with pytest.raises(ValueError):
        edge_pattern(k, q, 2, 2)
