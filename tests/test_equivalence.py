"""Minor-by-minor comparison, cheap prechecks, and the 3-cycle trace audit.

Witness minimality is verified against an explicit re-scan of all subsets,
written independently of the library's own loop.
"""

import itertools
import random
from fractions import Fraction

import pytest

from detequiv import equivalence
from detequiv.equivalence import (
    EquivalenceReport,
    PrecheckFailure,
    check_equivalence,
    quick_consequences,
)
from detequiv.errors import LabelMismatch, NotEquivalent
from detequiv.fields import (
    PrimeField,
    Rationals,
    _det_int_bareiss,
    determinant,
    integer_rows,
)
from detequiv.kernels import Cycle, Gauge, Kernel, cycle_product
from detequiv.lab import _place_zeros
from detequiv.recovery import recover
from reference_audits import TraceViolation, trace_identity_audit

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
            assert quick_consequences(k, q) == ()
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
            rows[i][j] = field.coerce(rows[i][j] + bump)
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


def test_max_order_rejects_non_integers():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="integer"):
            check_equivalence(k, k, max_order=bad)


def _five_cycle_pair(n):
    """Unit 5-cycles on points 0-4 and 5-9 over an identity diagonal, the
    second one reversed in q.  Every principal minor agrees, but neither q
    nor its flip has k's zero layout, so no certificate exists."""
    labels = [str(i) for i in range(n)]
    k_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    q_rows = [list(r) for r in k_rows]
    for i in range(5):
        k_rows[i][(i + 1) % 5] = q_rows[i][(i + 1) % 5] = 1
        k_rows[5 + i][5 + (i + 1) % 5] = q_rows[5 + (i + 1) % 5][5 + i] = 1
    return Kernel(Q, labels, k_rows), Kernel(Q, labels, q_rows)


def test_scan_guard_rejects_oversized_full_scan():
    k, q = _five_cycle_pair(21)
    with pytest.raises(ValueError, match="2097151 subsets"):
        check_equivalence(k, q)
    capped = check_equivalence(k, q, max_order=3)
    assert capped.equivalent
    assert capped.checked_order_max == 3
    # a pair that is its own certificate answers past the guard
    rng = random.Random(421)
    k = _random_kernel(rng, PrimeField(101), 21)
    assert check_equivalence(k, k) == EquivalenceReport(True, 21)


def test_mismatched_points_rejected():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    q = Kernel(Q, ["a", "c"], [[1, 2], [3, 4]])
    with pytest.raises(LabelMismatch):
        check_equivalence(k, q)


# ----------------------------------------------- closed form for orders 1-3


_DIFF_FIELDS = (PrimeField(2), PrimeField(3), F7, PrimeField(101), Q)


def _sparse_kernel(rng, field, n, zero_share):
    k = _random_kernel(rng, field, n)
    return Kernel(field, k.labels,
                  [[0 if rng.random() < zero_share else v for v in row]
                   for row in k.rows])


def _variant(rng, k, kind):
    """A partner for k that agrees with it, or first differs at a low order."""
    field, n = k.field, k.n
    rows = [list(r) for r in k.rows]
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    if kind == "diagonal":          # an order-1 minor
        rows[i][i] = field.coerce(rows[i][i] + field.one)
    elif kind == "entry" and n > 1:  # a pair product, unless k(j, i) = 0
        rows[i][j] = field.coerce(rows[i][j] + field.one)
    elif kind == "swap" and n > 1:   # same pair products, other 3-cycle sums
        rows[i][j], rows[j][i] = rows[j][i], rows[i][j]
    base = Kernel(field, k.labels, rows)
    if kind == "flip":              # swaps every forward and reversed product
        base = base.transpose()
    return base.conjugate(_random_gauge(rng, field, k.labels))


def _reference_reports(k, q):
    """check_equivalence by determinants, for every cap."""
    n = k.n
    scan = [(s, k.principal_minor(s), q.principal_minor(s))
            for order in range(1, n + 1)
            for s in itertools.combinations(range(n), order)]
    return {cap: next((EquivalenceReport(False, cap, s, mk, mq)
                       for s, mk, mq in scan if len(s) <= cap and mk != mq),
                      EquivalenceReport(True, cap))
            for cap in range(1, n + 1)}


def test_low_order_closed_form_matches_determinants():
    rng = random.Random(406)
    first_orders = set()
    flips_passed = 0
    for field in _DIFF_FIELDS:
        for n in range(1, 8):
            for zero_share in (0.0, 0.3, 0.6):
                k = _sparse_kernel(rng, field, n, zero_share)
                for kind in ("gauge", "flip", "diagonal", "entry", "swap"):
                    q = _variant(rng, k, kind)
                    for cap, want in _reference_reports(k, q).items():
                        got = check_equivalence(k, q, max_order=cap)
                        assert got == want, (field, n, kind, cap)
                        if cap < n:
                            continue
                        if not want.equivalent:
                            first_orders.add(len(want.witness_subset))
                        elif kind == "flip" and n >= 3:
                            flips_passed += 1
    # the pairs reach every closed-form order, and flips that only a
    # forward + reversed sum (not the forward product alone) lets through
    assert {1, 2, 3} <= first_orders
    assert flips_passed > 0


# ------------------------------------- integer rows, order 4 by closed form


_WIDE_FIELDS = _DIFF_FIELDS[:4] + (PrimeField(1000003), Q)


def _wide_value(rng, field, unit=False):
    """A random value; over Q with mixed signs and denominators up to 10^6."""
    while True:
        if field.kind == "prime":
            v = rng.randrange(field.p)
        else:
            v = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if v or not unit:
            return v


def _wide_kernel(rng, field, n, zero_share):
    return Kernel(field, [str(i + 1) for i in range(n)],
                  [[0 if rng.random() < zero_share
                    else _wide_value(rng, field) for _ in range(n)]
                   for _ in range(n)])


def _wide_partner(rng, k, kind):
    """A partner for k that agrees with it, or first differs at orders 1-5."""
    field, n = k.field, k.n
    rows = [list(r) for r in k.rows]
    if kind == "near_symmetric" and n >= 4:
        # symmetric but for two disjoint pairs; swapping one of them keeps
        # every minor up to order 3 and moves the 4-cycle sum on all four
        a, b, c, d = rng.sample(range(n), 4)
        for i, j in itertools.combinations(range(n), 2):
            rows[j][i] = rows[i][j]
        rows[b][a] = _wide_value(rng, field)
        rows[d][c] = _wide_value(rng, field)
        k = Kernel(field, k.labels, rows)   # copies rows
        rows[a][b], rows[b][a] = rows[b][a], rows[a][b]
    elif kind == "ring" and n >= 3:
        # off the diagonal the ring's points meet only a directed cycle
        # through them all, so a change to one ring edge first shows in the
        # minor on the whole ring, of order min(n, 5)
        ring = rng.sample(range(n), min(n, 5))
        for i in ring:
            for j in range(n):
                if j != i:
                    rows[i][j] = rows[j][i] = 0
        for i, j in zip(ring, ring[1:] + ring[:1]):
            rows[i][j] = _wide_value(rng, field, unit=True)
        k = Kernel(field, k.labels, rows)
        i, j = ring[0], ring[1]
        rows[i][j] = field.coerce(rows[i][j] + field.one)
    else:
        rows = [list(r) for r in _variant(rng, k, kind).rows]
    gauge = Gauge(field, k.labels,
                  [_wide_value(rng, field, unit=True) for _ in range(n)])
    return k, Kernel(field, k.labels, rows).conjugate(gauge)


def _field_prechecks(k, q):
    f = k.field
    out = [PrecheckFailure("diagonal", (i,), k.rows[i][i], q.rows[i][i])
           for i in range(k.n) if k.rows[i][i] != q.rows[i][i]]
    for i, j in itertools.combinations(range(k.n), 2):
        kp = f.mul(k.rows[i][j], k.rows[j][i])
        qp = f.mul(q.rows[i][j], q.rows[j][i])
        if kp != qp:
            out.append(PrecheckFailure("pair", (i, j), kp, qp))
    return tuple(out)


def _field_trace_audit(k, q):
    f = k.field
    out = []
    for a, b, c in itertools.combinations(range(k.n), 3):
        forward, reverse = Cycle((a, b, c)), Cycle((a, c, b))
        ks = f.coerce(cycle_product(k, forward) + cycle_product(k, reverse))
        qs = f.coerce(cycle_product(q, forward) + cycle_product(q, reverse))
        if ks != qs:
            out += [TraceViolation(forward, ks, qs),
                    TraceViolation(reverse, ks, qs)]
    return tuple(sorted(out, key=lambda v: v.cycle.vertices))


def test_integer_row_scan_matches_determinants():
    # whole reports against a principal_minor loop in field values; the Q
    # partners are conjugated by gauges with wide denominators, so their
    # rows scale by other factors than k's do
    rng = random.Random(407)
    first_orders = set()
    for field in _WIDE_FIELDS:
        for n in range(1, 8):
            for zero_share in (0.0, 0.3, 0.6):
                for kind in ("gauge", "flip", "diagonal", "entry", "swap",
                             "near_symmetric", "ring"):
                    k, q = _wide_partner(
                        rng, _wide_kernel(rng, field, n, zero_share), kind)
                    reports = _reference_reports(k, q)
                    for cap, want in reports.items():
                        got = check_equivalence(k, q, max_order=cap)
                        assert got == want, (field, n, kind, cap)
                    if not reports[n].equivalent:
                        first_orders.add(len(reports[n].witness_subset))
                    assert quick_consequences(k, q) == _field_prechecks(k, q)
                    assert trace_identity_audit(k, q) == _field_trace_audit(k, q)
    assert {1, 2, 3, 4, 5} <= first_orders


# -------------------------------- orders 5 and up by a walk of bordered minors


_WALK_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(101),
                PrimeField(1000003), Q)


def _repeated_row_kernel(rng, field, n):
    """A wide kernel whose row j copies row i, so every minor on a subset
    holding both is zero."""
    k = _wide_kernel(rng, field, n, 0.0)
    rows = [list(r) for r in k.rows]
    i, j = rng.sample(range(n), 2)
    rows[j] = list(rows[i])
    return Kernel(field, k.labels, rows)


def _ring_pair(rng, k, length, fan):
    """k's diagonal with a directed ring of `length` points on it, and a
    partner that changes the ring's last edge, conjugated by a wide gauge.
    Off the diagonal the ring's points meet only the ring, so the minors
    first differ on the ring.  With fan, a second ring closes the same
    path through another last point, with its last edge changed too, so
    two subsets of that order differ."""
    field, n = k.field, k.n
    rows = [[k.rows[i][j] if i == j else 0 for j in range(n)]
            for i in range(n)]
    ring = rng.sample(range(n), length + fan)
    last, ends = ring[length - 2], ring[length - 1:]
    for i, j in zip(ring, ring[1:length - 1]):
        rows[i][j] = _wide_value(rng, field, unit=True)
    for end in ends:
        rows[last][end] = _wide_value(rng, field, unit=True)
        rows[end][ring[0]] = _wide_value(rng, field, unit=True)
    base = Kernel(field, k.labels, rows)
    for end in ends:
        rows[last][end] = field.coerce(rows[last][end] + field.one)
    gauge = Gauge(field, k.labels,
                  [_wide_value(rng, field, unit=True) for _ in range(n)])
    return base, Kernel(field, k.labels, rows).conjugate(gauge)


def _walk_pairs(rng, field, n):
    """Kernels with and without zero pivots, each with two partners whose
    minors all agree and ring partners that first differ at orders 5..n."""
    kernels = [_wide_kernel(rng, field, n, share) for share in (0.0, 0.3, 0.6)]
    kernels.append(_repeated_row_kernel(rng, field, n))
    for k in kernels:
        for flip in (False, True):
            base = k.transpose() if flip else k
            yield k, base.conjugate(Gauge(
                field, k.labels,
                [_wide_value(rng, field, unit=True) for _ in range(n)]))
        for length in range(5, n + 1):
            yield _ring_pair(rng, k, length, length < n and rng.random() < 0.5)


def test_bordered_walk_matches_determinants(monkeypatch):
    # whole reports, for every cap, against a principal_minor loop; the
    # fallback below a zero pivot must run over both kinds of field.  The
    # certificate proves the gauge and flip partners before the walk, so
    # the walk is run on them directly too
    eliminated = set()
    walk = equivalence._walk
    walked = set()

    def counted_walk(field, *args):
        walked.add(field)
        return walk(field, *args)
    monkeypatch.setattr(equivalence, "_walk", counted_walk)

    det = equivalence._det_int_bareiss

    def counted_det(m):
        # the kind of field the loop below is walking
        eliminated.add(field.kind)
        return det(m)
    monkeypatch.setattr(equivalence, "_det_int_bareiss", counted_det)
    rng = random.Random(408)
    first_orders = set()
    twins = set()   # whether two first differences >= 5 share a parent
    for field in _WALK_FIELDS:
        for n in range(5, 9):
            for k, q in _walk_pairs(rng, field, n):
                reports = _reference_reports(k, q)
                for cap, want in reports.items():
                    got = check_equivalence(k, q, max_order=cap)
                    assert got == want, (field, n, cap, k.rows, q.rows)
                if reports[n].equivalent:
                    kr, qr = equivalence._shared_rows(k, q)[0]
                    assert walk(field, kr, qr, n) is None
                    continue
                order = len(reports[n].witness_subset)
                first_orders.add(order)
                hits = [s for s in itertools.combinations(range(n), order)
                        if k.principal_minor(s) != q.principal_minor(s)]
                if order >= 5 and len(hits) > 1:
                    twins.add(hits[0][:-1] == hits[1][:-1])
    assert {5, 6, 7, 8} <= first_orders
    assert twins == {False, True}
    assert eliminated == {"prime", "rational"}
    assert walked == set(_WALK_FIELDS)


def test_full_scan_at_sixteen_points():
    # a dense block on ten points and a directed 6-ring on the other six;
    # a flipped gauge conjugate is certified and passes the full walk, and
    # a change to one ring edge first shows on the ring
    field = PrimeField(1000003)
    rng = random.Random(409)
    n = 16
    ring = rng.sample(range(n), 6)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or (i not in ring and j not in ring):
                rows[i][j] = _wide_value(rng, field, unit=True)
    for i, j in zip(ring, ring[1:] + ring[:1]):
        rows[i][j] = _wide_value(rng, field, unit=True)
    labels = [str(i + 1) for i in range(n)]
    k = Kernel(field, labels, rows)
    gauge = Gauge(field, labels,
                  [_wide_value(rng, field, unit=True) for _ in range(n)])
    kt = k.transpose().conjugate(gauge)
    assert check_equivalence(k, kt).equivalent
    kr, qr = equivalence._shared_rows(k, kt)[0]
    assert equivalence._walk(field, kr, qr, n) is None
    rows[ring[0]][ring[1]] = field.coerce(rows[ring[0]][ring[1]] + field.one)
    q = Kernel(field, labels, rows).transpose().conjugate(gauge)
    rep = check_equivalence(k, q)
    assert rep.witness_subset == tuple(sorted(ring))
    assert rep.witness_minor_k == k.principal_minor(rep.witness_subset)
    assert rep.witness_minor_q == q.principal_minor(rep.witness_subset)
    assert rep.witness_minor_k != rep.witness_minor_q


def _reference_walk(field, kr, qr, cap):
    """The walk as it was with a second, modular update over GF(p), kept
    verbatim as the reference for the integer walk over both fields."""
    n = len(kr)
    path = []           # the subset S at the current node, increasing
    best = None
    limit = cap         # the highest order still worth comparing
    # update(b, u, d, full): from the bordered minors b and the minor d of a
    # node, those of its child that adds the point at index u of b, by
    # Sylvester's identity.  eliminator(d, e): a determinant of bordered
    # minors divided by d^e, the minor of their node to the e.
    if field.kind == "prime":
        p = field.p

        def update(b, u, d, full):
            inv = pow(d, -1, p)
            top = b[u]
            pivot = top[u] * inv % p
            if not full:
                return [(pivot * row[j] - row[u] * inv * top[j]) % p
                        for j, row in enumerate(b[u + 1:], u + 1)]
            tail = top[u + 1:]
            out = []
            for row in b[u + 1:]:
                head = row[u] * inv % p
                out.append([(pivot * x - head * y) % p
                            for x, y in zip(row[u + 1:], tail)])
            return out

        def eliminator(d, e):
            scale = pow(d, -e, p)
            return lambda m: _det_int_bareiss(m) * scale % p
    else:
        def update(b, u, d, full):
            top = b[u]
            pivot = top[u]
            if not full:
                return [(pivot * row[j] - row[u] * top[j]) // d
                        for j, row in enumerate(b[u + 1:], u + 1)]
            tail = top[u + 1:]
            return [[(pivot * x - row[u] * y) // d
                     for x, y in zip(row[u + 1:], tail)]
                    for row in b[u + 1:]]

        def eliminator(d, e):
            scale = d ** e
            return lambda m: _det_int_bareiss(m) // scale

    def step(anchor, d):
        # path has just gained its last element, and d is its minor.  The
        # anchor is the deepest node T before it on the path with a nonzero
        # minor, and b its bordered minors over base..n-1.  Returns the
        # minors of path + j for j > max path, and the anchor below path.
        # Only the diagonal is computed where no child of path is visited,
        # and where d = 0, which anchors nothing.
        size, ad, b, base = anchor
        full = d != 0 and path[-1] < n - 2 and len(path) + 2 <= limit
        if size == len(path) - 1:
            out = update(b, path[-1] - base, ad, full)
        else:
            out = _reference_border_dets(b, base, path[size:], full,
                                         eliminator(ad, len(path) - size))
        if not full:
            return out, anchor
        return ([row[j] for j, row in enumerate(out)],
                (len(path), d, out, path[-1] + 1))

    def visit(first, ck, ak, cq, aq):
        # S = path; ck, cq are the minors of S + j for j in first..n-1
        nonlocal best, limit
        size = len(path)
        if size >= 4:
            for u in range(n - first):
                if ck[u] != cq[u]:
                    best = (*path, first + u)
                    limit = size
                    return
        for u in range(n - first - 1):
            if size + 2 > limit:
                return
            path.append(first + u)
            visit(first + u + 1, *step(ak, ck[u]), *step(aq, cq[u]))
            path.pop()

    visit(0, [r[i] for i, r in enumerate(kr)], (0, 1, kr, 0),
          [r[i] for i, r in enumerate(qr)], (0, 1, qr, 0))
    return best


def _reference_border_dets(b, base, extra, full, det):
    """det(b[extra + i, extra + j]) for i, j > max extra, where b is
    indexed from base; only i = j unless full.

    When b holds the bordered minors of T, Sylvester's identity makes each
    of these det(T)^|extra| times a bordered minor of T + extra.
    """
    u = [x - base for x in extra]
    top = [[b[x][y] for y in u] for x in u]

    def minor(i, j):
        return det([*([*r, b[x][j]] for r, x in zip(top, u)),
                    [*(b[i][y] for y in u), b[i][j]]])

    rest = range(u[-1] + 1, len(b))
    if not full:
        return [minor(i, i) for i in rest]
    return [[minor(i, j) for j in rest] for i in rest]


_INTEGER_WALK_FIELDS = (PrimeField(2), PrimeField(3), F7, PrimeField(101),
                        PrimeField(1000003), PrimeField(2**31 - 1), Q)


def test_integer_walk_matches_the_modular_walk(monkeypatch):
    # the walk on integer minors for both fields, compared by residue over
    # GF(p), against the former walk that kept its GF(p) values reduced,
    # at every cap.  Over small fields the cases meet nodes whose integer
    # minor is a nonzero multiple of p: the integer walk updates through
    # them by Sylvester's identity, where the modular walk saw a zero
    # pivot and eliminated below it.  Those fields go to n = 10, the others
    # to n = 8, which keeps the test near two seconds
    sylvester = equivalence._sylvester
    multiples = set()

    def counted(b, u, d, full):
        if field.kind == "prime" and d % field.p == 0:
            multiples.add(field.p)
        return sylvester(b, u, d, full)
    monkeypatch.setattr(equivalence, "_sylvester", counted)
    rng = random.Random(425)
    outcomes = set()
    for field in _INTEGER_WALK_FIELDS:
        top = 10 if field.kind == "prime" and field.p <= 7 else 8
        for n in range(5, top + 1):
            # zero-heavy kernels at odd n, repeated rows at even n
            k = (_wide_kernel(rng, field, n, 0.6) if n % 2
                 else _repeated_row_kernel(rng, field, n))
            gauge = Gauge(field, k.labels,
                          [_wide_value(rng, field, unit=True) for _ in range(n)])
            pairs = ((k, k.conjugate(gauge)),
                     (k, k.transpose().conjugate(gauge)),
                     _ring_pair(rng, k, rng.randint(5, n), False))
            for a, b in pairs:
                kr, qr = equivalence._shared_rows(a, b)[0]
                for cap in range(5, n + 1):
                    want = _reference_walk(field, kr, qr, cap)
                    got = equivalence._walk(field, kr, qr, cap)
                    assert got == want, (field, n, cap, a.rows, b.rows)
                    outcomes.add((field, want is None))
    assert multiples >= {2, 3, 7}
    assert outcomes == {(field, found) for field in _INTEGER_WALK_FIELDS
                        for found in (False, True)}


# ------------------------------- the certificate before the walk, against it


def _plain_report(k, q, cap):
    """check_equivalence with no certificate: orders 1-4 by closed form,
    then the walk, up to the cap."""
    kr, qr = equivalence._shared_rows(k, q)[0]
    witness = next(equivalence._drift(k.field, kr, qr,
                                      range(1, min(cap, 4) + 1)), None)
    if witness is None and cap >= 5:
        witness = equivalence._walk(k.field, kr, qr, cap)
    if witness is None:
        return EquivalenceReport(True, cap)
    return EquivalenceReport(False, cap, witness, k.principal_minor(witness),
                             q.principal_minor(witness))


def _zero_edged_kernel(rng, field, n, zeros):
    """Unit entries off the diagonal, but for `zeros` edges on fresh pairs
    of points, each zero one way or both."""
    rows = [[_wide_value(rng, field, unit=i != j) for j in range(n)]
            for i in range(n)]
    _place_zeros(rng, rows, n, zeros)
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def _block_flip_pair(rng, field, n):
    """k with two diagonal blocks, and q with the second block transposed,
    conjugated by a gauge and flipped at random.  Every minor is a product
    of one minor of each block, so every minor agrees, but in general
    neither q nor its flip is a gauge conjugate of k."""
    size = rng.randint(3, n - 3) if n >= 6 else 2
    rows = [[0] * n for _ in range(n)]
    k = _wide_kernel(rng, field, n, 0.3)
    for i, j in itertools.product(range(n), repeat=2):
        if (i < size) == (j < size):
            rows[i][j] = k.rows[i][j]
    k = Kernel(field, k.labels, rows)
    for i, j in itertools.product(range(size, n), repeat=2):
        rows[i][j] = k.rows[j][i]
    q = Kernel(field, k.labels, rows)
    if rng.random() < 0.5:
        q = q.transpose()
    return k, q.conjugate(Gauge(
        field, k.labels, [_wide_value(rng, field, unit=True) for _ in range(n)]))


def _certificate_pairs(rng, field, n):
    """Gauge and flip partners with 0-2 zero edges, partners that first
    differ at every order from 1 to n, and equivalent pairs that lack a
    certificate."""
    for zeros in range(3):
        k = _zero_edged_kernel(rng, field, n, zeros)
        gauge = Gauge(field, k.labels,
                      [_wide_value(rng, field, unit=True) for _ in range(n)])
        yield k, k.conjugate(gauge)
        yield k, k.transpose().conjugate(gauge)
        for kind in ("diagonal", "entry", "swap", "near_symmetric", "ring"):
            yield _wide_partner(rng, k, kind)
        for length in range(5, n + 1):
            yield _ring_pair(rng, k, length, length < n and rng.random() < 0.5)
        yield _block_flip_pair(rng, field, n)


def test_certificate_never_proves_a_negative():
    # certificate-first reports against the plain scan, for every cap; a
    # pair with a certificate must agree on every minor, and an equivalent
    # report carries _certify's certificate, which re-conjugates k or kᵀ
    # onto q
    rng = random.Random(410)
    seen = set()
    for field in (PrimeField(2), PrimeField(3), PrimeField(101), Q):
        for n in range(5, 9):
            for k, q in _certificate_pairs(rng, field, n):
                proof = equivalence._certify(
                    k, q, equivalence._shared_rows(k, q))[0]
                if proof is not None:
                    transposed, gauge, _ = proof
                    target = k.transpose() if transposed else k
                    assert target.conjugate(gauge) == q
                for cap in range(1, n + 1):
                    want = _plain_report(k, q, cap)
                    got = check_equivalence(k, q, max_order=cap)
                    assert got == want, (field, n, cap, k.rows, q.rows)
                    assert got.certificate == (proof if want.equivalent
                                               else None)
                    assert proof is None or want.equivalent
                want = _plain_report(k, q, n)
                if proof is not None:
                    outcome = "certified"
                elif want.equivalent:
                    outcome = "walked"
                else:
                    outcome = len(want.witness_subset) >= 5
                seen.add((field, outcome))
    assert seen == {(field, outcome)
                    for field in (PrimeField(2), PrimeField(3),
                                  PrimeField(101), Q)
                    for outcome in ("certified", "walked", False, True)}


def test_certified_positive_computes_no_order_four_term(monkeypatch):
    # the certificate comes right after order 2; only a pair without one
    # pays for the C(n, 3) three-cycle and C(n, 4) four-cycle sums.  The
    # flipped solve reads k's columns, with no transposed Kernel built
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
    rng = random.Random(412)
    pairs = []
    for field in (PrimeField(101), Q):
        k = _zero_edged_kernel(rng, field, 8, 1)
        gauge = Gauge(field, k.labels,
                      [_wide_value(rng, field, unit=True) for _ in range(8)])
        for transposed in (False, True):
            pairs.append((k, (k.transpose() if transposed else k)
                          .conjugate(gauge), transposed))
    transposes = []
    transpose = Kernel.transpose

    def counting_transpose(self):
        transposes.append(self)
        return transpose(self)

    monkeypatch.setattr(Kernel, "transpose", counting_transpose)
    for k, q, transposed in pairs:
        rep = check_equivalence(k, q)
        assert rep.equivalent
        assert rep.certificate[0] is transposed
    assert terms == {3: [], 4: []}
    assert transposes == []
    assert check_equivalence(*_five_cycle_pair(10)).equivalent
    # both kernels on every 3-subset and every 4-subset
    assert (len(terms[3]), len(terms[4])) == (2 * 120, 2 * 210)
    assert transposes == []


def _cauchy_doc(n, entry=None):
    """A scaled Cauchy kernel over Q, nondegenerate, as a document; entry
    maps (i, j, value) to the value to write."""
    rows = [[Fraction(i + 2, 2 * i + 3) * Fraction(j + 5, 3 * j + 1)
             / (i - n - j) for j in range(n)] for i in range(n)]
    if entry:
        rows = [[entry(i, j, rows) for j in range(n)] for i in range(n)]
    return Kernel(Q, [str(i + 1) for i in range(n)], rows).to_doc()


def test_rational_verdicts_build_no_fraction_per_entry(monkeypatch):
    # over Q from_doc keeps integer rows, and every verdict reads them: a
    # verdict makes Fractions for the gauge values it tries and for its two
    # witness minors alone, and none builds the kernels' rows
    n = 10
    k = _cauchy_doc(n)
    g = [Fraction(i + 1, 2 * i + 3) for i in range(n)]
    flipped = _cauchy_doc(n, lambda i, j, r: g[i] * r[j][i] / g[j])
    direct = _cauchy_doc(n, lambda i, j, r: g[i] * r[i][j] / g[j])
    order2 = _cauchy_doc(n, lambda i, j, r: r[i][j] * (2 if (i, j) == (1, 3)
                                                       else 1))
    # near-symmetric: swapping k(a,b) and k(b,a) moves the 4-cycle sums on
    # {a,b,c,d} by (k_ab - k_ba)(k_cd - k_dc)(k_bc k_da - k_bd k_ca) alone
    a, b, c, d = range(n - 4, n)
    asym = {(a, b): 3, (c, d): 2}

    def near(swap):
        def entry(i, j, r):
            i, j = ((j, i) if swap and {i, j} == {a, b} else (i, j))
            x, y = min(i, j), max(i, j)
            return Fraction(1, 2 * x + y + 1) * asym.get((i, j), 1)
        return entry

    refutations = []
    for docs, witness in (((k, order2), (1, 3)),
                          ((_cauchy_doc(n, near(False)),
                            _cauchy_doc(n, near(True))), (a, b, c, d))):
        minors = [determinant(Q, [[kern.rows[i][j] for j in witness]
                                  for i in witness])
                  for kern in map(Kernel.from_doc, docs)]
        refutations.append((docs, witness, minors))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def no_rows(self, row, scale):
        raise AssertionError("Fraction rows built")

    monkeypatch.setattr(Rationals, "values", no_rows)
    monkeypatch.setattr(Fraction, "__new__", counting)
    for q, transposed in ((flipped, True), (direct, False)):
        for decide in (recover, check_equivalence):
            made.clear()
            out = decide(Kernel.from_doc(k), Kernel.from_doc(q))
            assert (out if decide is recover else out.certificate)[0] \
                is transposed
            # a few per gauge value tried, none per entry (n^2 a kernel)
            assert len(made) <= 4 * n, len(made)
    for docs, witness, minors in refutations:
        made.clear()
        rep = check_equivalence(*map(Kernel.from_doc, docs))
        assert rep.witness_subset == witness
        assert [rep.witness_minor_k, rep.witness_minor_q] == minors
        assert len(made) <= 4 * n, len(made)
        made.clear()
        with pytest.raises(NotEquivalent) as info:
            recover(*map(Kernel.from_doc, docs))
        assert [info.value.minor_k, info.value.minor_q] == minors
        assert len(made) <= 4 * n, len(made)


# ---------------- the certificate's re-check, against the conjugated kernel


def _direct_solve(target, q, base):
    """The propagated gauge carrying target onto q, solved directly on
    their own integer rows, or None where the zero layouts differ."""
    (tr, qr), _ = integer_rows(target.field, target.rows, q.rows)
    h = equivalence._propagate_gauge(target.field, tr, qr, base,
                                     [1] * target.n)
    return None if h is None else Gauge(target.field, target.labels, h)


def _plain_certify(k, q):
    """_certify with the plain re-check: conjugate the whole kernel, k or
    an explicit kᵀ, and compare it with q."""
    base = min(range(k.n), key=lambda i: k.labels[i])
    for transposed in (False, True):
        target = k.transpose() if transposed else k
        gauge = _direct_solve(target, q, base)
        if gauge is not None and target.conjugate(gauge).rows == q.rows:
            return transposed, gauge, k.labels[base]
    return None


def _row_scaled_kernel(rng, field, n, zeros):
    """Unit entries off the diagonal, but for `zeros` zero edges; over Q
    the denominators of row i are multiples of 10^(2i), so the row scales
    of the integer rows differ widely from row to row."""
    if field.kind == "prime":
        rows = [[_wide_value(rng, field, unit=i != j) for j in range(n)]
                for i in range(n)]
    else:
        rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(i != j, 999),
                          rng.randint(1, 999) * 10 ** (2 * i))
                 for j in range(n)] for i in range(n)]
    _place_zeros(rng, rows, n, zeros)
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def _recheck_pairs(rng, field, n, zeros):
    """k, a gauge, and (q, transposed) for the gauge or flip partner q of
    k, then for each copy of q with one entry changed, at every position."""
    k = _row_scaled_kernel(rng, field, n, zeros)
    gauge = Gauge(field, k.labels,
                  [_wide_value(rng, field, unit=True) for _ in range(n)])
    pairs = []
    for transposed in (False, True):
        q = (k.transpose() if transposed else k).conjugate(gauge)
        pairs.append((q, transposed))
        for i, j in itertools.product(range(n), repeat=2):
            rows = [list(r) for r in q.rows]
            rows[i][j] = field.coerce(rows[i][j]
                                      + _wide_value(rng, field, unit=True))
            pairs.append((Kernel(field, k.labels, rows), transposed))
    return k, gauge, pairs


def test_integer_recheck_matches_conjugation():
    # the solve on k's integer rows, with h = D g in the flipped framework,
    # finds the gauge that the direct solve finds on an explicit kᵀ; every
    # verdict of the re-check on integer rows equals the plain one
    # (conjugate t by the gauge and compare it with q), for the propagated
    # gauge of each framework and for the gauge q was built with; _certify
    # returns the first framework whose propagated gauge passes
    rng = random.Random(413)
    verdicts = set()
    for field in _WALK_FIELDS:
        for n in range(1, 10):
            for zeros in range(min(3, n // 2 + 1)):
                k, built, pairs = _recheck_pairs(rng, field, n, zeros)
                targets = ((False, k), (True, k.transpose()))
                for q, flip in pairs:
                    (kr, qr), scales = integer_rows(field, k.rows, q.rows)
                    want_proof = None
                    for transposed, target in targets:
                        solved = _direct_solve(target, q, 0)
                        t_rows = list(zip(*kr)) if transposed else kr
                        start = scales if transposed else [1] * n
                        h = equivalence._propagate_gauge(field, t_rows, qr,
                                                         0, start)
                        assert (h is None) is (solved is None)
                        if h is not None:
                            assert [field.div(x, d) for x, d
                                    in zip(h, start)] == list(solved.values)
                        gauges = [solved] + [built] * (transposed is flip)
                        for gauge in gauges:
                            if gauge is None:
                                continue
                            want = target.conjugate(gauge).rows == q.rows
                            failing = equivalence._failing_entries(
                                field, [field.mul(g, d) for g, d
                                        in zip(gauge.values, start)],
                                t_rows, qr)
                            got = next(failing, None) is None
                            assert got is want, (field, n, transposed,
                                                 k.rows, q.rows)
                            verdicts.add((field, want))
                            if want and gauge is solved and not want_proof:
                                want_proof = transposed, solved, k.labels[0]
                    assert equivalence._certify(
                        k, q, equivalence._shared_rows(k, q))[0] == want_proof
    assert verdicts == {(field, want) for field in _WALK_FIELDS
                        for want in (False, True)}


# -------------------------------------------------------------- prechecks


def test_precheck_reports_diagonal_failure():
    k = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]])
    q = Kernel(Q, ["a", "b"], [[1, 2], [3, 5]])
    failures = quick_consequences(k, q)
    assert len(failures) == 1
    fail = failures[0]
    assert fail.kind == "diagonal"
    assert fail.points == (1,)
    assert (fail.k_value, fail.q_value) == (4, 5)


def test_precheck_reports_pair_failure():
    k = Kernel(F7, ["1", "2", "3"], [[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    q = Kernel(F7, ["1", "2", "3"], [[1, 3, 3], [4, 5, 6], [1, 2, 3]])
    failures = quick_consequences(k, q)
    kinds = {(f.kind, f.points) for f in failures}
    assert ("pair", (0, 1)) in kinds
    fail = [f for f in failures if f.points == (0, 1)][0]
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
        if pre:
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
