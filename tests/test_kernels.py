"""Kernels, cycles, gauges, cocycles, and the exact cycle-product identities.

Cycle products are always cross-checked against explicit entry products
written out by hand, and the two 4-cycle reduction identity families plus the
5-point star decomposition are verified on randomized exact data.
"""

import itertools
import random
from fractions import Fraction

import pytest

from detequiv import equivalence
from detequiv.errors import FieldMismatch, LabelMismatch
from detequiv.fields import PrimeField, Rationals, _det_int_bareiss, integer_rows
from detequiv.kernels import (
    Cycle,
    Gauge,
    Kernel,
    cycle_product,
    require_same_points,
)
from reference_audits import reversed_cycle_product

Q = Rationals()
F7 = PrimeField(7)


def _random_kernel(rng, field, n, nowhere_zero=False):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if field.kind == "prime":
                v = rng.randrange(1, field.p) if nowhere_zero else rng.randrange(field.p)
            else:
                v = rng.choice([x for x in range(-9, 10) if x != 0]) if nowhere_zero \
                    else rng.randint(-9, 9)
            row.append(v)
        rows.append(row)
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def _random_gauge(rng, field, labels):
    if field.kind == "prime":
        vals = [rng.randrange(1, field.p) for _ in labels]
    else:
        vals = [Fraction(rng.choice([x for x in range(-9, 10) if x != 0]),
                         rng.randint(1, 9)) for _ in labels]
    return Gauge(field, labels, vals)


# ---------------------------------------------------------------- cycles


def test_cycle_normalization_and_reversal():
    assert Cycle((2, 0, 1)).vertices == (0, 1, 2)
    assert Cycle((0, 1, 2)) == Cycle((1, 2, 0))
    assert Cycle((0, 1, 2)) != Cycle((0, 2, 1))
    assert Cycle((0, 1, 2)).reverse() == Cycle((0, 2, 1))
    assert Cycle((3, 0, 4)).vertices == (0, 4, 3)
    assert Cycle((5,)).vertices == (5,)
    assert Cycle((4, 1)).vertices == (1, 4)


def test_cycle_edges():
    assert Cycle((0, 1, 2)).edges() == ((0, 1), (1, 2), (2, 0))
    assert Cycle((7,)).edges() == ((7, 7),)
    assert Cycle((2, 5)).edges() == ((2, 5), (5, 2))


def test_cycle_validation():
    with pytest.raises(ValueError):
        Cycle(())
    with pytest.raises(ValueError):
        Cycle((1, 2, 1))
    with pytest.raises(ValueError):
        Cycle((0, -1))
    with pytest.raises(ValueError):
        Cycle((0, "1"))


# ---------------------------------------------------------------- kernels


def test_kernel_construction_and_lookup():
    k = Kernel(F7, ["a", "b"], [[1, 2], [3, 4]])
    assert k.n == 2
    assert k.rows[0][1] == 2
    # coercion reduces mod p
    assert Kernel(F7, ["a"], [[9]]).rows[0][0] == 2
    assert repr(k) == "Kernel(n=2, field=PrimeField(7))"


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(F7, [], [])
    with pytest.raises(ValueError):
        Kernel(F7, ["a", "a"], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Kernel(F7, ["a", ""], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Kernel(F7, ["a", "b"], [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        Kernel(Q, ["a"], [[0.5]])


def test_kernel_doc_round_trip():
    rng = random.Random(7)
    for field in (Q, F7, PrimeField(11)):
        k = _random_kernel(rng, field, 4)
        doc = k.to_doc()
        assert Kernel.from_doc(doc) == k
        assert doc["labels"] == ["1", "2", "3", "4"]
        assert all(isinstance(cell, str) for row in doc["entries"] for cell in row)
    with pytest.raises(ValueError):
        Kernel.from_doc({"labels": ["a"], "entries": [["1"]]})


def test_from_doc_converts_each_cell_once(monkeypatch):
    # parse already yields field values, so from_doc coerces none of them
    # again; its errors come in the same order as before: a bad cell first,
    # then the labels, then the shape
    rng = random.Random(8)
    kernels = [_random_kernel(rng, field, 4)
               for field in (Q, F7, PrimeField(1000003))]
    docs = [k.to_doc() for k in kernels]
    calls = []
    for cls in (Rationals, PrimeField):
        coerce = cls.coerce
        monkeypatch.setattr(cls, "coerce", lambda self, v, coerce=coerce: (
            calls.append(v), coerce(self, v))[1])
    assert [Kernel.from_doc(doc) for doc in docs] == kernels
    assert calls == []
    errors = []
    for labels, entries in ((["a", "a"], [["1", "x"], ["1", "1"]]),
                            (["a", "a"], [["1", "1"], ["1", "1"]]),
                            (["a", "b"], [["1", "1"], ["1"]]),
                            (["a", "b"], [["1", "1/0"], ["1"]])):
        with pytest.raises(ValueError) as info:
            Kernel.from_doc({"field": {"kind": "rational"}, "labels": labels,
                             "entries": entries})
        errors.append(str(info.value))
    assert errors == ["bad rational literal: 'x'", "duplicate labels",
                      "entries must form an 2 x 2 matrix",
                      "zero denominator: '1/0'"]


_DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "۰۱۲۳۴۵۶۷۸۹")


def _spelled(rng, number):
    """A literal for an int: leading zeros, a "+" or not, and the digits of
    some script."""
    text = "0" * rng.choice((0, 0, 0, 2)) + str(abs(number))
    text = text.translate(str.maketrans("0123456789", rng.choice(_DIGITS)))
    if number < 0:
        return "-" + text
    return rng.choice(("", "", "+")) + text


def _draw(rng):
    return rng.choice((0, rng.randint(-9, 9), rng.randint(-10**6, 10**6),
                       rng.randint(-10**40, 10**40)))


def _literal(rng, field, value):
    """A literal of the field value that is seldom its canonical form:
    over Q a/b times a factor, or a bare integer; over GF(p) value + m p."""
    if field.kind == "prime":
        return _spelled(rng, value + field.p * rng.choice(
            (0, 1, -1, rng.randint(-10**30, 10**30))))
    if value.denominator == 1 and rng.random() < 0.3:
        return _spelled(rng, value.numerator)
    m = rng.choice((1, 1, 2, 3, 12, rng.randint(1, 10**40)))
    return (_spelled(rng, value.numerator * m) + "/"
            + _spelled(rng, value.denominator * m).lstrip("+"))


def _value(rng, field):
    if field.kind == "prime":
        return _draw(rng) % field.p
    return Fraction(_draw(rng), rng.choice((1, rng.randint(1, 9),
                                            abs(_draw(rng)) or 1)))


def _doc_and_values(rng, field, values):
    n = len(values)
    doc = {"field": field.to_doc(), "labels": [str(i) for i in range(n)],
           "entries": [[_literal(rng, field, v) for v in row]
                       for row in values]}
    return doc, Kernel(field, doc["labels"], values)


def _minor_differs(field, a, b):
    return bool(field.nonzero(_det_int_bareiss([list(r) for r in a])
                              - _det_int_bareiss([list(r) for r in b])))


def test_from_doc_matches_the_parsed_values():
    # unnormalised literals ("6/4", "-0/5", "+007/010"), 40-digit values,
    # Unicode digits, values >= p and negatives: from_doc must give the
    # kernel of the values the literals spell, and integer rows whose minors and cross
    # minors differ exactly where those of fields.integer_rows do
    rng = random.Random(26)
    fixed = {"field": {"kind": "rational"}, "labels": ["a", "b"],
             "entries": [["6/4", "-0/5"], ["+007/010", "٣/٤"]]}
    assert Kernel.from_doc(fixed).rows == ((Fraction(3, 2), 0),
                                           (Fraction(7, 10), Fraction(3, 4)))
    for field in (Q, PrimeField(2), F7, PrimeField(1000003)):
        for n in [*range(1, 8)] * 3:
            values = [[_value(rng, field) for _ in range(n)] for _ in range(n)]
            g = [_value(rng, field) or field.one for _ in range(n)]
            other = [[field.div(field.mul(g[i], values[i][j]), g[j])
                      for j in range(n)] for i in range(n)]
            for _ in range(rng.randrange(3)):
                i, j = rng.randrange(n), rng.randrange(n)
                other[i][j] = rng.choice((0, _value(rng, field)))
            (kdoc, kref), (qdoc, qref) = (_doc_and_values(rng, field, m)
                                          for m in (values, other))
            for doc, ref in ((kdoc, kref), (qdoc, qref)):
                for probe in ("rows", "==", "hash", "to_doc"):
                    got = Kernel.from_doc(doc)
                    assert {"rows": lambda: got.rows == ref.rows,
                            "==": lambda: got == ref and ref == got,
                            "hash": lambda: hash(got) == hash(ref),
                            "to_doc": lambda: got.to_doc() == ref.to_doc(),
                            }[probe](), (field, probe, doc)
            k, q = Kernel.from_doc(kdoc), Kernel.from_doc(qdoc)
            (kr, qr), _ = equivalence._shared_rows(k, q)
            (ka, qa), _ = integer_rows(field, kref.rows, qref.rows)
            for r in range(1, min(n, 4) + 1):
                for s in itertools.combinations(range(n), r):
                    pick = [[[m[i][j] for j in s] for i in s]
                            for m in (kr, qr, ka, qa)]
                    assert (_minor_differs(field, *pick[:2])
                            == _minor_differs(field, *pick[2:])), (field, s)
            own, _ = k.integer_rows()
            for x, w in itertools.combinations(range(n), 2):
                cols = [c for c in range(n) if c not in (x, w)]
                for y, z in itertools.combinations(cols, 2):
                    pick = [[[m[i][j] for j in (y, z)] for i in (x, w)]
                            for m in (kr, qr, ka, qa, own)]
                    assert (_minor_differs(field, *pick[:2])
                            == _minor_differs(field, *pick[2:4]))
                    assert (_minor_differs(field, pick[4], [[0, 0], [0, 0]])
                            == _minor_differs(field, pick[2], [[0, 0], [0, 0]]))
            assert k.rows == kref.rows and q.rows == qref.rows


def test_principal_minor_against_direct_determinant():
    k = Kernel(Q, ["1", "2", "3"],
               [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert k.principal_minor(()) == 1
    assert k.principal_minor((1,)) == 5
    assert k.principal_minor((0, 2)) == 1 * 10 - 3 * 7
    assert k.principal_minor((0, 1, 2)) == -3  # full det, computed by hand
    assert k.principal_minor((2, 0)) == k.principal_minor((0, 2))
    with pytest.raises(ValueError):
        k.principal_minor((0, 0))
    with pytest.raises(IndexError):
        k.principal_minor((0, 3))


def test_transpose():
    rng = random.Random(8)
    k = _random_kernel(rng, Q, 4)
    t = k.transpose()
    for i in range(4):
        for j in range(4):
            assert t.rows[i][j] == k.rows[j][i]
    assert t.transpose() == k
    # transposition preserves every principal minor
    for r in range(5):
        for idx in itertools.combinations(range(4), r):
            assert t.principal_minor(idx) == k.principal_minor(idx)


def test_conjugate_entrywise_and_minor_invariance():
    rng = random.Random(9)
    for field in (Q, F7):
        k = _random_kernel(rng, field, 4)
        g = _random_gauge(rng, field, k.labels)
        c = k.conjugate(g)
        for i in range(4):
            for j in range(4):
                expect = field.div(field.mul(g.values[i], k.rows[i][j]), g.values[j])
                assert c.rows[i][j] == expect
        for r in range(5):
            for idx in itertools.combinations(range(4), r):
                assert c.principal_minor(idx) == k.principal_minor(idx)


def test_conjugate_composes():
    rng = random.Random(10)
    k = _random_kernel(rng, Q, 5)
    g = _random_gauge(rng, Q, k.labels)
    h = _random_gauge(rng, Q, k.labels)
    gh = Gauge(Q, k.labels, [a * b for a, b in zip(g.values, h.values)])
    assert k.conjugate(h).conjugate(g) == k.conjugate(gh)


def test_conjugate_validation():
    k = _random_kernel(random.Random(1), Q, 3)
    with pytest.raises(FieldMismatch):
        k.conjugate(Gauge(F7, k.labels, [1, 1, 1]))
    with pytest.raises(LabelMismatch):
        k.conjugate(Gauge(Q, ["x", "y", "z"], [1, 1, 1]))


def test_gauge_rejects_zero():
    with pytest.raises(ValueError):
        Gauge(Q, ["a", "b"], [1, 0])
    with pytest.raises(ValueError):
        Gauge(F7, ["a"], [7])  # 7 = 0 mod 7
    with pytest.raises(ValueError, match="one gauge value per label"):
        Gauge(F7, ["a", "b"], [1])
    assert repr(Gauge(Q, ["a", "b"], [1, 2])) == "Gauge(n=2, field=Rationals())"


def test_cocycle_from_gauge_table():
    rng = random.Random(12)
    for field in (Q, F7):
        k = _random_kernel(rng, field, 4)
        g = _random_gauge(rng, field, k.labels)
        # the all-ones kernel conjugated by g is the table g(x) / g(y)
        c = Kernel(field, g.labels, [[field.one] * 4] * 4).conjugate(g)
        for i in range(4):
            assert c.rows[i][i] == field.one
            for j in range(4):
                assert c.rows[i][j] == field.div(g.values[i], g.values[j])


def test_require_same_points():
    k = _random_kernel(random.Random(2), Q, 3)
    require_same_points(k, k.transpose())
    with pytest.raises(FieldMismatch):
        require_same_points(k, _random_kernel(random.Random(2), F7, 3))
    other = Kernel(Q, ["x", "y", "z"], [[0] * 3] * 3)
    with pytest.raises(LabelMismatch):
        require_same_points(k, other)


# ---------------------------------------------------------- cycle products


def test_cycle_product_small_frozen():
    k = Kernel(Q, ["1", "2", "3"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert cycle_product(k, Cycle((0,))) == 1
    assert cycle_product(k, Cycle((1,))) == 5
    assert cycle_product(k, Cycle((0, 1))) == 2 * 4
    assert cycle_product(k, Cycle((0, 1, 2))) == 2 * 6 * 7
    assert cycle_product(k, Cycle((0, 2, 1))) == 3 * 8 * 4
    assert reversed_cycle_product(k, Cycle((0, 1, 2))) == 4 * 8 * 3
    with pytest.raises(IndexError):
        cycle_product(k, Cycle((0, 3)))


def test_cycle_product_matches_entry_products():
    rng = random.Random(21)
    for field in (Q, F7):
        k = _random_kernel(rng, field, 6)
        for _ in range(50):
            length = rng.randint(1, 6)
            verts = tuple(rng.sample(range(6), length))
            cyc = Cycle(verts)
            by_hand = field.one
            for t in range(length):
                by_hand = field.mul(by_hand, k.rows[verts[t]][verts[(t + 1) % length]])
            assert cycle_product(k, cyc) == by_hand
            rev_by_hand = field.one
            for t in range(length):
                rev_by_hand = field.mul(
                    rev_by_hand, k.rows[verts[(t + 1) % length]][verts[t]])
            assert reversed_cycle_product(k, cyc) == rev_by_hand


def test_reversed_product_is_transpose_product():
    rng = random.Random(22)
    k = _random_kernel(rng, Q, 5)
    t = k.transpose()
    for a, b, c in itertools.combinations(range(5), 3):
        for cyc in (Cycle((a, b, c)), Cycle((a, c, b))):
            assert reversed_cycle_product(k, cyc) == cycle_product(t, cyc)
            assert cycle_product(k, cyc.reverse()) == reversed_cycle_product(k, cyc)


def test_cycle_product_invariance_under_rotation():
    rng = random.Random(23)
    k = _random_kernel(rng, Q, 5)
    assert cycle_product(k, Cycle((1, 3, 4))) == cycle_product(k, Cycle((3, 4, 1)))
    assert cycle_product(k, Cycle((2, 0, 4, 1))) == cycle_product(k, Cycle((4, 1, 2, 0)))


def test_conjugation_fixes_cycle_products():
    # diagonal change of variables cancels around any closed walk
    rng = random.Random(24)
    for field in (Q, F7):
        k = _random_kernel(rng, field, 5)
        g = _random_gauge(rng, field, k.labels)
        c = k.conjugate(g)
        for _ in range(30):
            length = rng.randint(1, 5)
            cyc = Cycle(tuple(rng.sample(range(5), length)))
            assert cycle_product(c, cyc) == cycle_product(k, cyc)
            assert reversed_cycle_product(c, cyc) == reversed_cycle_product(k, cyc)


# ------------------------------------------- 4-cycle reduction identities
#
# On points {0,1,2,3} with every off-diagonal entry nonzero except the one
# forced zero, the square product reduces to triangle products.  Writing
# f[c] for the forward product along c and r[c] for the reversed one:
#
#   zero at (0,2): f[0,1,2,3] = h23*h32 * h30*h03 * f[0,1,2] / f[0,3,2]
#   zero at (2,0): r[0,1,2,3] = h23*h32 * h30*h03 * r[0,1,2] / r[0,3,2]
#   zero at (1,3): f[0,1,2,3] = h30*h03 * h01*h10 * f[1,2,3] / r[0,1,3]
#   zero at (3,1): r[0,1,2,3] = h30*h03 * h01*h10 * r[1,2,3] / f[0,1,3]


def _kernel_with_zero(rng, field, zero_at):
    k = _random_kernel(rng, field, 4, nowhere_zero=True)
    rows = [list(r) for r in k.rows]
    rows[zero_at[0]][zero_at[1]] = 0
    return Kernel(field, k.labels, rows)


def _run_square_reduction(field, rng, trials):
    square = Cycle((0, 1, 2, 3))
    for _ in range(trials):
        h = _kernel_with_zero(rng, field, (0, 2))
        rhs = field.mul(field.mul(h.rows[2][3], h.rows[3][2]),
                        field.mul(h.rows[3][0], h.rows[0][3]))
        rhs = field.mul(rhs, field.div(cycle_product(h, Cycle((0, 1, 2))),
                                       cycle_product(h, Cycle((0, 3, 2)))))
        assert cycle_product(h, square) == rhs

        h = _kernel_with_zero(rng, field, (2, 0))
        rhs = field.mul(field.mul(h.rows[2][3], h.rows[3][2]),
                        field.mul(h.rows[3][0], h.rows[0][3]))
        rhs = field.mul(rhs, field.div(reversed_cycle_product(h, Cycle((0, 1, 2))),
                                       reversed_cycle_product(h, Cycle((0, 3, 2)))))
        assert reversed_cycle_product(h, square) == rhs

        h = _kernel_with_zero(rng, field, (1, 3))
        rhs = field.mul(field.mul(h.rows[3][0], h.rows[0][3]),
                        field.mul(h.rows[0][1], h.rows[1][0]))
        rhs = field.mul(rhs, field.div(cycle_product(h, Cycle((1, 2, 3))),
                                       reversed_cycle_product(h, Cycle((0, 1, 3)))))
        assert cycle_product(h, square) == rhs

        h = _kernel_with_zero(rng, field, (3, 1))
        rhs = field.mul(field.mul(h.rows[3][0], h.rows[0][3]),
                        field.mul(h.rows[0][1], h.rows[1][0]))
        rhs = field.mul(rhs, field.div(reversed_cycle_product(h, Cycle((1, 2, 3))),
                                       cycle_product(h, Cycle((0, 1, 3)))))
        assert reversed_cycle_product(h, square) == rhs


def test_square_reduction_identities_rational():
    _run_square_reduction(Q, random.Random(31), 200)


def test_square_reduction_identities_prime():
    _run_square_reduction(F7, random.Random(32), 200)
    _run_square_reduction(PrimeField(101), random.Random(33), 200)


def test_star_decomposition_identity():
    # five points; the square through 0,1,2,3 decomposes into the four
    # triangles through the hub 4 divided by the hub's pair products
    for field, seed in ((Q, 41), (F7, 42), (PrimeField(11), 43)):
        rng = random.Random(seed)
        for _ in range(200):
            k = _random_kernel(rng, field, 5, nowhere_zero=True)
            num = field.one
            for tri in (Cycle((0, 1, 4)), Cycle((1, 2, 4)),
                        Cycle((2, 3, 4)), Cycle((3, 0, 4))):
                num = field.mul(num, cycle_product(k, tri))
            den = field.one
            for i in range(4):
                den = field.mul(den, field.mul(k.rows[i][4], k.rows[4][i]))
            assert cycle_product(k, Cycle((0, 1, 2, 3))) == field.div(num, den)
