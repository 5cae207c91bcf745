"""Orders 3-4 scanned only on the subsets that hold a failing entry of
every failed gauge, against the plain scan of every subset.

A gauge, or a flip and a gauge, preserves every principal minor, so a gauge
that re-checks on the entries inside a subset S proves every minor on S
equal.  When both solves fail, check_equivalence records each framework's
failing entries as a graph and compares at orders 3 and 4 only the subsets
that hold an edge of every graph.  The tests below compare its reports and
the subsets it compares with the plain scan, kept here as it was before.
"""

import itertools
import random
from fractions import Fraction

import pytest

from detequiv import equivalence
from detequiv.equivalence import EquivalenceReport, check_equivalence
from detequiv.errors import NotEquivalent
from detequiv.fields import PrimeField, Rationals, integer_rows
from detequiv.kernels import Gauge, Kernel
from detequiv.recovery import recover

from test_equivalence import _block_flip_pair, _cauchy_doc, _wide_value

Q = Rationals()
_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(101),
           PrimeField(1000003), Q)

# the closed-form terms as the module defines them, before any test hooks
# them; the plain scan below reads these
_CYCLE_TERMS = equivalence._CYCLE_TERMS


def _plain_drift(field, kr, qr, orders):
    """Yield each subset of the given orders (1-4) of the integer rows, in
    scan order, whose closed-form term differs."""
    differ = field.nonzero
    for order in orders:
        term = _CYCLE_TERMS[order]
        for s in itertools.combinations(range(len(kr)), order):
            if differ(term(kr, s) - term(qr, s)):
                yield s


def _plain_witness(k, q):
    """The smallest, lex-least subset whose minor differs, or None: orders
    1-4 by the plain closed-form scan, then the walk."""
    (kr, qr), _ = integer_rows(k.field, k.rows, q.rows)
    witness = next(_plain_drift(k.field, kr, qr, range(1, min(k.n, 4) + 1)),
                   None)
    if witness is None and k.n >= 5:
        witness = equivalence._walk(k.field, kr, qr, k.n)
    return witness


def _failure_edges(k, q):
    """Per framework with a propagated gauge, the pairs {i, j} at which the
    gauge conjugate of k, or of kᵀ, differs from q; None when a gauge
    carries k or kᵀ onto q."""
    field, n = k.field, k.n
    (kr, qr), scales = integer_rows(field, k.rows, q.rows)
    graphs = []
    for transposed in (False, True):
        t_rows = list(zip(*kr)) if transposed else kr
        start = scales if transposed else [1] * n
        h = equivalence._propagate_gauge(field, t_rows, qr, 0, start)
        if h is None:
            continue
        gauge = Gauge(field, k.labels,
                      [field.div(x, d) for x, d in zip(h, start)])
        target = k.transpose() if transposed else k
        rows = target.conjugate(gauge).rows
        entries = [(i, j) for i, j in itertools.product(range(n), repeat=2)
                   if rows[i][j] != q.rows[i][j]]
        if not entries:
            return None
        graphs.append(set(map(frozenset, entries)))
    return graphs


def _expected_visits(n, cap, witness, graphs):
    """The subsets check_equivalence compares at orders 3 to min(cap, 4),
    each once per kernel, up to the witness: only those that hold an edge
    of every graph."""
    orders = range(3, min(cap, 4) + 1)
    visits = []
    for r in orders:
        for s in itertools.combinations(range(n), r):
            pairs = {frozenset(e) for e in itertools.combinations(s, 2)}
            if not all(pairs & edges for edges in graphs):
                continue
            visits += [s, s]
            if s == witness:
                return visits
    return visits


# ------------------------------------------------------------- the pairs


def _labels(n):
    return [str(i + 1) for i in range(n)]


def _other_value(rng, field, value):
    while True:
        v = _wide_value(rng, field)
        if v != value:
            return v


def _partner(rng, field, rows):
    """The kernel on rows, flipped at random, conjugated by a random
    gauge."""
    q = Kernel(field, _labels(len(rows)), rows)
    if rng.random() < 0.5:
        q = q.transpose()
    return q.conjugate(Gauge(field, q.labels, [
        _wide_value(rng, field, unit=True) for _ in range(q.n)]))


def _near_symmetric_pair(rng, field, n, points, zero=()):
    """k symmetric but for the pairs (a, b) and (c, d), and possibly a zero
    at one more entry, one way; q is k with k(a, b) and k(b, a) swapped,
    flipped at random and conjugated by a gauge.  Without the zero, orders
    1-3 agree and only {a, b, c, d} can differ."""
    a, b, c, d = points
    rows = [[_wide_value(rng, field, unit=i != j) for j in range(n)]
            for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[j][i] = rows[i][j]
    rows[a][b] = _other_value(rng, field, rows[a][b])
    rows[c][d] = _other_value(rng, field, rows[c][d])
    for i, j in zero:
        rows[i][j] = 0
    swapped = [list(r) for r in rows]
    swapped[a][b], swapped[b][a] = rows[b][a], rows[a][b]
    return Kernel(field, _labels(n), rows), _partner(rng, field, swapped)


def _twisted(rng, q):
    """q with q(i, j) times x and q(j, i) over x at one pair of nonzero
    entries: every order-1 and order-2 minor stays, a 3-cycle sum moves."""
    field = q.field
    rows = [list(r) for r in q.rows]
    i, j = rng.sample(range(q.n), 2)
    if rows[i][j] and rows[j][i]:
        x = _wide_value(rng, field, unit=True)
        rows[i][j] = field.mul(rows[i][j], x)
        rows[j][i] = field.div(rows[j][i], x)
    return Kernel(field, q.labels, rows)


def _pairs(rng, field, n):
    """Block pairs, one block carried by a gauge and one by a flip, as they
    are and twisted; then, five times over, near-symmetric pairs as the
    bench builds them, on the last four points, as they are and twisted
    (first refuted at order 3, with two sparse graphs), the same with the
    base point in the swapped pair (a star of failing entries) or with a
    one-way zero (a framework with no gauge), and random gauge or flip
    partners, with the same zero, twisted."""
    k, q = _block_flip_pair(rng, field, n)
    yield k, q
    yield k, _twisted(rng, q)
    for _ in range(5):
        last = range(n - 4, n)
        k, q = _near_symmetric_pair(rng, field, n, rng.sample(last, 4))
        yield k, q
        yield k, _twisted(rng, q)
        yield _near_symmetric_pair(
            rng, field, n, (0, *rng.sample(range(1, n), 3)))
        zero = [rng.sample(range(n - 4), 2)] if n >= 6 else ()
        yield _near_symmetric_pair(rng, field, n, rng.sample(last, 4), zero)
        rows = [[_wide_value(rng, field, unit=i != j) for j in range(n)]
                for i in range(n)]
        for i, j in zero:
            rows[i][j] = 0
        yield Kernel(field, _labels(n), rows), _twisted(
            rng, _partner(rng, field, rows))


def test_pruned_scan_matches_the_plain_scan(monkeypatch):
    # every report at every cap from 3 to n equals the plain scan's, and
    # the subsets compared at orders 3-4 are exactly those that hold an
    # edge of every failure graph, rebuilt here from the conjugated kernels
    visits = []

    def counting(term):
        def count(rows, s):
            visits.append(s)
            return term(rows, s)
        return count

    monkeypatch.setattr(equivalence, "_CYCLE_TERMS",
                        (*_CYCLE_TERMS[:3], *map(counting, _CYCLE_TERMS[3:])))
    rng = random.Random(427)
    refuted = 0
    seen = set()
    for field in _FIELDS:
        for n in range(5, 10):
            for k, q in _pairs(rng, field, n):
                witness = _plain_witness(k, q)
                graphs = _failure_edges(k, q)
                for cap in range(3, n + 1):
                    visits.clear()
                    got = check_equivalence(k, q, max_order=cap)
                    if witness is None or len(witness) > cap:
                        assert got == EquivalenceReport(True, cap)
                    else:
                        assert got == EquivalenceReport(
                            False, cap, witness, k.principal_minor(witness),
                            q.principal_minor(witness)), (
                                field, cap, k.rows, q.rows)
                        refuted += len(witness) in (3, 4)
                    opened = graphs is not None and (
                        witness is None or len(witness) > 2)
                    assert visits == (_expected_visits(
                        n, cap, witness, graphs) if opened else []), (
                            field, cap, k.rows, q.rows)
                if graphs and witness and len(witness) in (3, 4):
                    seen.add((field, len(graphs), len(witness),
                              max(map(len, graphs)) >= n - 1))
    assert refuted >= 2000
    # each field but GF(2), whose only unit leaves no value to move, has
    # refutations at orders 3 and 4 pruned by one graph and by two
    for field in _FIELDS[1:]:
        assert {(field, g, w) for g in (1, 2) for w in (3, 4)} <= {
            s[:3] for s in seen}, field
    # a failure graph with a star of n - 1 entries, around the base point
    assert any(s[3] for s in seen)


def test_edged_subsets_match_a_filter():
    # on random graphs of every density, the subsets that hold an edge of
    # every graph, in lexicographic order
    rng = random.Random(428)
    for _ in range(2000):
        n = rng.randint(2, 9)
        graphs = []
        for _ in range(rng.randint(1, 3)):
            share = rng.choice((0.05, 0.2, 0.6))
            graph = [0] * n
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < share:
                    graph[i] |= 1 << j
                    graph[j] |= 1 << i
            graphs.append(graph)
        for order in range(2, min(n, 5) + 1):
            want = [s for s in itertools.combinations(range(n), order)
                    if all(any(g[i] >> j & 1
                               for i, j in itertools.combinations(s, 2))
                           for g in graphs)]
            assert list(equivalence._edged_subsets(n, order, graphs)) == want


@pytest.mark.parametrize("field", [PrimeField(1000003), Q])
def test_near_symmetric_refutation_computes_one_order_four_term(
        monkeypatch, field):
    # the bench's near-symmetric pair at n = 12: the direct gauge fails only
    # on {a, b} and the flipped one only on {c, d}, so no 3-subset and one
    # 4-subset hold an edge of both
    terms = {3: [], 4: []}

    def counting(order):
        term = equivalence._CYCLE_TERMS[order]

        def count(rows, s):
            terms[order].append(s)
            return term(rows, s)
        return count

    monkeypatch.setattr(equivalence, "_CYCLE_TERMS",
                        (*equivalence._CYCLE_TERMS[:3], counting(3),
                         counting(4)))
    rng = random.Random(429)
    n = 12
    last = tuple(range(n - 4, n))
    for flip in range(4):
        k, q = _near_symmetric_pair(rng, field, n, rng.sample(last, 4))
        rep = check_equivalence(k, q)
        assert rep.witness_subset == last
        with pytest.raises(NotEquivalent) as info:
            recover(k, q)
        assert info.value.subset == last
        assert terms == {3: [], 4: [last] * 4}
        terms[4].clear()


def test_rational_division_builds_one_fraction(monkeypatch):
    # Rationals.div builds Fraction(a, b) at once.  An order-2 refutation
    # makes two Fractions per witness minor, the determinant's and its
    # division by the row scales; a flipped certified positive makes one
    # per point for each framework's propagated gauge and one per point to
    # divide the flipped gauge by the row scales
    n = 10
    k = _cauchy_doc(n)
    g = [Fraction(i + 1, 2 * i + 3) for i in range(n)]
    flipped = _cauchy_doc(n, lambda i, j, r: g[i] * r[j][i] / g[j])
    order2 = _cauchy_doc(n, lambda i, j, r: r[i][j] * (2 if (i, j) == (1, 3)
                                                       else 1))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    pairs = [tuple(map(Kernel.from_doc, docs))
             for docs in ((k, flipped), (k, order2))]
    monkeypatch.setattr(Fraction, "__new__", counting)
    (k, flipped), (_, order2) = pairs
    assert check_equivalence(k, flipped).certificate[0] is True
    assert len(made) == 3 * n
    made.clear()
    assert recover(k, flipped).transposed is True
    assert len(made) == 3 * n
    made.clear()
    assert check_equivalence(k, order2).witness_subset == (1, 3)
    assert len(made) == 4
    made.clear()
    with pytest.raises(NotEquivalent):
        recover(k, order2)
    assert len(made) == 4
    assert Q.div(7, 2) == Fraction(7, 2)
    assert Q.div(Fraction(3, 4), Fraction(-9, 2)) == Fraction(-1, 6)
    with pytest.raises(ZeroDivisionError):
        Q.div(Fraction(1, 3), 0)
