"""Nondegeneracy scan and zero-pattern rules.

The scan verdict and its witness are checked against a brute-force sweep over
every ordered quadruple of pairwise-distinct points, against the quartic
loop the row-pair scan replaced, and against the row-pair scan as it was
when it keyed GF(p) columns by modular inverses.
"""

import itertools
import math
import random
from fractions import Fraction

import detequiv.classd as classd
from detequiv.classd import (
    _W,
    _X,
    _least_pair,
    _vanishing_quad,
    check_class_d,
    class_d_ok,
)
from detequiv.fields import PrimeField, Rationals, integer_rows
from detequiv.kernels import Gauge, Kernel
from reference_audits import zero_pattern_validate

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
    assert class_d_ok(Q, k.integer_rows()[0])


def test_all_ones_fails_at_first_quadruple():
    k = Kernel(Q, ["1", "2", "3", "4"], [[1] * 4 for _ in range(4)])
    rep = check_class_d(k)
    assert not rep.holds
    assert rep.witness == (0, 1, 2, 3)
    assert rep.witness_labels == ("1", "2", "3", "4")
    assert not class_d_ok(Q, k.integer_rows()[0])


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
            assert class_d_ok(field, k.integer_rows()[0]) == rep.holds
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
            assert class_d_ok(field, k.integer_rows()[0]) == (ref is None)


def test_scan_matches_fraction_loop_on_wide_denominators():
    # the scan runs on rows scaled to integers; the reference multiplies
    # the Fractions themselves
    rng = random.Random(416)
    held = 0
    for _ in range(300):
        n = rng.randint(4, 7)
        rows = [[Fraction(0) if rng.random() < 0.1 else
                 Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.7:
            # make one cross minor vanish: h(w,z) = h(x,z) h(w,y) / h(x,y)
            x, y, z, w = rng.sample(range(n), 4)
            if rows[x][y]:
                rows[w][z] = rows[x][z] * rows[w][y] / rows[x][y]
        k = Kernel(Q, [str(i + 1) for i in range(n)], rows)
        ref = min(_vanishing_quadruples(k), default=None)
        rep = check_class_d(k)
        assert (rep.holds, rep.witness) == (ref is None, ref)
        held += rep.holds
    assert 0 < held < 300


def _quartic_reference(field, rows):
    """The scan as it was before the row-pair scan: the first (x, y, z, w)
    with x < w and y < z, in lexicographic order, whose cross minor
    vanishes on the integer rows."""
    (rows,), _ = integer_rows(field, rows)
    p = field.p if field.kind == "prime" else 0
    n = len(rows)
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            for z in range(y + 1, n):
                if z == x:
                    continue
                for w in range(x + 1, n):
                    if w != y and w != z:
                        d = rows[x][y] * rows[w][z] - rows[x][z] * rows[w][y]
                        if (d % p if p else d) == 0:
                            return (x, y, z, w)
    return None


def _assert_scan_matches_quartic(k):
    ref = _quartic_reference(k.field, k.rows)
    rep = check_class_d(k)
    assert (rep.holds, rep.witness) == (ref is None, ref), (k.field, k.rows)
    assert class_d_ok(k.field, k.integer_rows()[0]) is (ref is None)
    if k.field.kind == "rational" and all(v.denominator == 1
                                          for row in k.rows for v in row):
        # gen hands class_d_ok raw ints over Q
        ints = [[int(v) for v in row] for row in k.rows]
        assert class_d_ok(k.field, ints) is (ref is None)
    return ref


def _cauchy_with_matching_zeros(rng, field, n, zeros, stray):
    """u_i v_j / (a_i - b_j) off the diagonal, with distinct a's and b's,
    and zero edges on `zeros` disjoint pairs of points (one way or both),
    which keeps property D; with stray set, two zeros in one row break
    it."""
    points = rng.sample(range(1, 50), 2 * n)   # a_i - b_j < 101

    def unit():
        if field.kind == "prime":
            return rng.randrange(1, field.p)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                        rng.randint(1, 99))
    a, b = points[:n], [-x for x in points[n:]]
    u = [unit() for _ in range(n)]
    v = [unit() for _ in range(n)]
    rows = [[(unit() if rng.random() < 0.5 else field.zero) if i == j
             else field.div(field.mul(u[i], v[j]), field.coerce(a[i] - b[j]))
             for j in range(n)] for i in range(n)]
    chosen = rng.sample(range(n), 2 * zeros)
    for t in range(zeros):
        x, y = chosen[2 * t], chosen[2 * t + 1]
        rows[x][y] = field.zero
        if rng.random() < 0.5:
            rows[y][x] = field.zero
    if stray:
        x, y, z = rng.sample(range(n), 3)
        rows[x][y] = rows[x][z] = field.zero
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def test_scan_matches_quartic_loop_on_cauchy_kernels():
    # Cauchy kernels have every square submatrix nonsingular, so they have
    # property D whatever zeros a matching adds; two zeros in a row break it
    rng = random.Random(417)
    seen = set()
    for field in (PrimeField(101), PrimeField(1000003), Q):
        for n in range(4, 13):
            for zeros in range(n // 2 + 1):
                for stray in (False, True):
                    k = _cauchy_with_matching_zeros(rng, field, n, zeros,
                                                    stray)
                    ref = _assert_scan_matches_quartic(k)
                    assert (ref is None) is not stray
                    seen.add((field, stray))
    assert len(seen) == 6


def test_scan_matches_quartic_loop_on_zero_heavy_kernels():
    # GF(131) is past the fields whose ratios the scan tabulates
    rng = random.Random(418)
    verdicts = set()
    fields = (PrimeField(2), PrimeField(3), F7, PrimeField(131), Q)
    for field in fields:
        for n in range(1, 10):
            for _ in range(30):
                share = rng.choice((0.3, 0.5, 0.7, 0.9))
                if field.kind == "prime":
                    rows = [[0 if rng.random() < share
                             else rng.randrange(1, field.p)
                             for _ in range(n)] for _ in range(n)]
                else:
                    # integer kernels half the time, as gen draws them
                    den = rng.choice((1, 3))
                    rows = [[0 if rng.random() < share else
                             Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                                      rng.randint(1, den))
                             for _ in range(n)] for _ in range(n)]
                k = Kernel(field, [str(i + 1) for i in range(n)], rows)
                verdicts.add((field, n >= 4,
                              _assert_scan_matches_quartic(k) is None))
    # below four points every kernel holds; from four on both verdicts
    # occur, but for GF(2), whose only unit makes such draws degenerate
    assert verdicts == {(field, big, held)
                        for field in fields
                        for big, held in ((False, True), (True, False),
                                          (True, True))
                        if (field, big, held) != (PrimeField(2), True, True)}


def test_scan_finds_a_planted_quadruple_at_twenty_four_points():
    rng = random.Random(419)
    for field in (PrimeField(1000003), Q):
        for _ in range(3):
            n = 24
            if field.kind == "prime":
                rows = [[rng.randrange(1, field.p) for _ in range(n)]
                        for _ in range(n)]
            else:
                rows = [[Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                         for _ in range(n)] for _ in range(n)]
            k = Kernel(field, [str(i + 1) for i in range(n)], rows)
            held = _assert_scan_matches_quartic(k)
            x, w = sorted(rng.sample(range(n), 2))
            y, z = sorted(rng.sample([c for c in range(n)
                                      if c not in (x, w)], 2))
            rows = [list(r) for r in k.rows]
            rows[w][z] = field.div(field.mul(rows[x][z], rows[w][y]),
                                   rows[x][y])
            planted = Kernel(field, k.labels, rows)
            witness = _assert_scan_matches_quartic(planted)
            assert witness is not None and witness <= (x, y, z, w)
            assert held is None or held <= witness


def _zero_heavy_rows(rng, field, n, share):
    return [[0 if rng.random() < share else rng.randrange(1, field.p)
             for _ in range(n)] for _ in range(n)]


def _inverse_keyed_quad(field, rows, first=False):
    """``classd._vanishing_quad`` as it was when it divided each GF(p) key
    by rows[x][c] through a per-call cache of modular inverses; the body is
    kept verbatim, and it shares ``_least_pair`` and the key sentinels."""
    n = len(rows)
    if n < 4:
        return None
    p = field.p if field.kind == "prime" else None
    if not p and type(rows[0][0]) is not int:
        (rows,), _ = integer_rows(field, rows)
    differ = field.nonzero
    cache = {0: 0}   # inverses over GF(p), by value
    best = None
    for x, row_x in enumerate(rows):
        if p:
            inv_x = [cache[v] if v in cache
                     else cache.setdefault(v, pow(v, -1, p)) for v in row_x]
        else:
            lcm = math.lcm(*row_x) or math.lcm(*filter(None, row_x))
            inv_x = [lcm // a if a else 0 for a in row_x]
        zeros_x = [c for c, a in enumerate(row_x)
                   if not a and c != x] if 0 in row_x else ()
        for w in range(x + 1, n):
            row_w = rows[w]
            if p:
                keys = [b * i % p for b, i in zip(row_w, inv_x)]
            else:
                keys = [b * i for b, i in zip(row_w, inv_x)]
            wild = []
            for c in zeros_x:
                if row_w[c]:
                    keys[c] = math.inf
                elif c != w:
                    wild.append(c)
            keys[x], keys[w] = _X, _W
            if wild or len(set(keys)) < n:
                if first:
                    return x, w
                quad = (x, *_least_pair(row_x, row_w, x, w, differ), w)
                if best is None or quad < best:
                    best = quad
        if best is not None:
            return best
    return None


def test_scan_matches_inverse_keyed_loop():
    # co-product keys are the inverse-keyed ones times P, the product of
    # row x's nonzero entries: the same keys collide, so the verdict, the
    # witness and the first row pair are the same
    rng = random.Random(421)
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 11, 101, 1000003)]
    seen = set()
    drawn = 0
    for field in fields:
        for n in range(1, 13):
            for _ in range(120):
                share = rng.choice((0, 0.1, 0.2, 0.4, 0.7))
                rows = _zero_heavy_rows(rng, field, n, share)
                if n >= 4 and rng.random() < 0.3:
                    # a vanishing cross minor deep in the scan, if it can be
                    # planted: h(w,z) = h(x,z) h(w,y) / h(x,y)
                    x, w = sorted(rng.sample(range(n), 2))
                    y, z = rng.sample([c for c in range(n)
                                       if c not in (x, w)], 2)
                    if rows[x][y]:
                        rows[w][z] = field.div(
                            field.mul(rows[x][z], rows[w][y]), rows[x][y])
                for first in (False, True):
                    got = _vanishing_quad(field, rows, first)
                    assert got == _inverse_keyed_quad(field, rows, first), \
                        (field, rows, first)
                seen.add((field.p, n >= 4, got is None))
                drawn += 1
    assert drawn >= 10000
    # from four points on both verdicts occur over every field but GF(2)
    # and GF(3), whose few units leave dense draws degenerate
    assert {(p, held) for p, big, held in seen if big} >= \
        {(p, held) for p in (5, 7, 11, 101, 1000003) for held in (False, True)}


def test_scan_computes_no_modular_power(monkeypatch):
    # the GF(p) scan keys by co-products: a pow anywhere in the module
    # would raise here
    rng = random.Random(422)
    cases = [(PrimeField(2), [[1, 0, 1, 1], [1, 1, 0, 1],
                              [1, 1, 1, 0], [0, 1, 1, 1]])]
    for field in (PrimeField(2), F7, PrimeField(1000003)):
        for n in (4, 5, 6, 8):
            for _ in range(30):
                rows = _zero_heavy_rows(rng, field, n, 0.15)
                if any(not rows[i][j] for i in range(n) for j in range(n)
                       if i != j):
                    cases.append((field, rows))
    expected = [_quartic_reference(field, rows) for field, rows in cases]

    def no_pow(*args):
        raise AssertionError("classd called pow")
    monkeypatch.setattr(classd, "pow", no_pow, raising=False)
    seen = set()
    for (field, rows), ref in zip(cases, expected):
        k = Kernel(field, [str(i + 1) for i in range(len(rows))], rows)
        assert check_class_d(k).witness == ref
        assert class_d_ok(field, rows) is (ref is None)
        seen.add((field.p, ref is None))
    assert seen == {(p, held) for p in (2, 7, 1000003)
                    for held in (False, True)}


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

