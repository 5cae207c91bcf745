"""Order-by-order comparison of principal minors between two kernels.

A determinant is a sum over permutations, and each permutation is a set of
cycles covering the points, so orders 1-4 are compared by closed form.  With
equal diagonals, det{i,j} = k_ii k_jj - k_ij k_ji differs exactly when the
pair products k_ij k_ji differ.  With every order-1 and order-2 minor on
{a,b,c} equal, det{a,b,c} differs exactly when the forward + reversed
3-cycle sum differs.  With every minor of order 1-3 on {a,b,c,d} equal, each
term of det{a,b,c,d} that is not a 4-cycle (the diagonal, a 2-cycle with two
fixed points, a 3-cycle with one, two 2-cycles) is fixed by those minors,
so det{a,b,c,d} differs exactly when the sum of its six oriented 4-cycle
products differs.

From order 5 on, one depth-first walk over subsets yields the minors of
both kernels.  A node S carries det(S) and its bordered minors
B_S[i][j] = det(A[S+i, S+j]) for i, j > max S, so the minor of the child
S+j is B_S[j][j].  The child S+s gets its own from Sylvester's identity,

    B_{S+s}[i][j] = (B_S[s][s] B_S[i][j] - B_S[i][s] B_S[s][j]) / det(S),

a division that is exact on integers, as in Bareiss elimination.  The
identity needs det(S) != 0.
Below a zero pivot the walk goes back to T, the deepest node above with a
nonzero minor, and uses the identity in its general form: with U the
points added since T, det(B_T[U+i, U+j]) = det(T)^|U| B_{S+s}[i][j], one
small determinant, eliminated outright, per entry.  A node with a zero
minor, or with no child to visit, needs only the diagonal of its bordered
minors.

The walk visits children in increasing order of their new element, so it
meets the subsets of each order in lexicographic order (a preorder of the
subset tree, restricted to one order, is lexicographic), and the first
differing subset of an order is the least of that order.  After a hit the
walk compares only smaller orders, and stops descending there, so every
later hit is at a smaller order and every subset of that order before it
has been compared: the last hit is the witness.  The walk keeps one path
of bordered minors, O(n^3) values, and the witness alone.

The scan runs on integer rows: over GF(p) the values as they are, and
over Q each kernel's own rows (``Kernel.integer_rows``), row i times D_i,
brought to one shared D_i = lcm(D_i^k, D_i^q) where the two differ
(``_shared_rows``).  Every term takes one entry from each row, so each
term, and each minor, on a subset S is scaled by the same product of D_i
over S on both sides, and a difference survives the scaling exactly when
it was there before.  Each comparison tests the integer difference once
with ``field.nonzero``, by its residue mod p over GF(p).  The walk is exact on
integers for both fields: its minors are the integer minors of these rows,
never reduced, so over GF(p) a zero pivot is an integer minor of 0, not a
multiple of p, and the walk compares minors by their residues.  The
witness minors come from each kernel's integer rows too, one integer
determinant divided by the product of D_i over the subset
(``Kernel.principal_minor``), so over Q neither a certified positive nor
a refutation builds a Fraction per entry.

Once orders 1-2 agree, at every cap, the pair is offered a certificate: the
gauge that carries k, or kᵀ, onto q entry by entry.  Gauge conjugation and
the flip preserve every principal minor, so a certificate that re-checks
proves that all minors agree; it cannot pass on a pair that differs
anywhere, so trying it before order 3 hides no witness.  ``_certify`` solves
by propagation along nonzero entries; with matching zero layouts a gauge is
fixed up to one constant per connected component of the nonzero pattern,
so the solve misses no certificate.  Both frameworks are one problem on
the integer rows the scan already holds, kr = D k and qr = D q: q = g k g⁻¹
is qr = g kr g⁻¹, and since krᵀ = kᵀ D, q = g kᵀ g⁻¹ is qr = h krᵀ h⁻¹
with h = D g.  So the solve and the re-check of qr(i,j) h(j) = h(i) t(i,j)
take t = kr or its columns and no row scale, and the re-check
(``_failing_entries``) stops at the first entry that fails; no transposed
or conjugated kernel is built.
Only a pair without a certificate pays for the 3-cycle and 4-cycle sums
and the walk, and only such a pair meets the guard on the walk's size.

The failed solves still narrow orders 3 and 4.  Invariance holds subset by
subset: if a gauge h re-checks on every entry inside a subset S, then
qr[S] = h t[S] h⁻¹, so every minor and every cycle sum on S agrees with
t's, which are kr's (a transpose keeps each minor and each forward +
reversed sum).  So once both re-checks have failed, each framework
that has a gauge records its failing entries (i, j) as the edges of a
graph (``_failure_graph``), its re-check going on from the entry where it
stopped, and orders 3 and 4 compare only the subsets that hold an edge of
every graph, still in lexicographic order (``_edged_subsets``).  Every
skipped subset agrees, so the verdict and the witness are those of the
full scan.  A framework whose zero layout differs from q's has no gauge
and no graph, and narrows nothing.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .fields import _det_int_bareiss
from .kernels import Gauge, require_same_points

_SCAN_GUARD = 2**20  # subsets; admits the full scan up to n = 20


class PrecheckFailure(NamedTuple):
    kind: str        # "diagonal" or "pair"
    points: tuple    # (i,) or (i, j) with i < j
    k_value: object  # entry for "diagonal", two-entry product for "pair"
    q_value: object


class PrecheckReport(NamedTuple):
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def quick_consequences(k, q):
    """Cheap necessary conditions: equal diagonals, equal opposite-pair products.

    These are exactly what agreement of order-1 and order-2 principal minors
    forces, so any failure here refutes equivalence with a witness of size
    at most two.  Failures come in the minor scan's order: diagonals, then
    pairs lexicographically.
    """
    require_same_points(k, q)
    kind = (None, "diagonal", "pair")
    return PrecheckReport(tuple(
        PrecheckFailure(kind[len(s)], s, _field_term(k, s), _field_term(q, s))
        for s in _drift(k.field, *_shared_rows(k, q)[0], (1, 2))))


class EquivalenceReport(NamedTuple):
    """A verdict with its witness, or with the certificate of ``_certify``
    on a certified positive; equality and hash ignore the certificate."""

    equivalent: bool
    checked_order_max: int
    witness_subset: tuple = None   # smallest failing index set, lex-least
    witness_minor_k: object = None
    witness_minor_q: object = None
    certificate: tuple = None

    def __eq__(self, other):
        if not isinstance(other, EquivalenceReport):
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:5])


def check_equivalence(k, q, max_order=None):
    """Compare principal minors on every subset of size 1..max_order.

    max_order defaults to n (the full check); a cap that is not an integer
    in [1, n] raises ValueError.  A negative verdict carries the smallest
    failing subset and, among those, the lexicographically least.  Orders
    1-4 are compared by closed form, in order of cardinality and then
    lexicographically, which is exact because the scan reaches an order
    only after every smaller subset has agreed.  At every cap, a pair that
    agrees up to order 2 is then offered the certificate (``_certify``); one
    that re-checks proves every minor equal and is the report's
    ``certificate``.  Otherwise orders 3 and 4 follow, on the subsets that
    hold an entry where each solved gauge fails its re-check (a subset with
    none carries that gauge's certificate, so its minors agree).  Orders 5
    and up come from one walk of bordered minors, updated by Sylvester's
    identity and eliminated afresh below a zero pivot; its preorder meets
    each order's subsets lexicographically (module docstring).  The walk is
    refused with ValueError when it would cover more than _SCAN_GUARD
    subsets, so only a pair without a certificate and without a difference
    up to order 4 meets that bound.  Witness minors are in field values.
    """
    require_same_points(k, q)
    n = k.n
    cap = n if max_order is None else max_order
    if type(cap) is not int or not 1 <= cap <= n:
        raise ValueError(f"max_order must be an integer in [1, {n}], "
                         f"got {max_order!r}")
    rows = _shared_rows(k, q)
    (kr, qr), _ = rows
    orders = range(1, min(cap, 4) + 1)
    witness = next(_drift(k.field, kr, qr, orders[:2]), None)
    if witness is None:
        found, failures = _certify(k, q, rows)
        if found is not None:
            return EquivalenceReport(True, cap, certificate=found)
        graphs = [_failure_graph(n, entries) for entries in failures]
        witness = next(_drift(k.field, kr, qr, orders[2:], graphs), None)
    if witness is None and cap >= 5:
        subsets = sum(math.comb(n, r) for r in range(1, cap + 1))
        if subsets > _SCAN_GUARD:
            raise ValueError(f"minor scan needs {subsets} subsets, over the "
                             f"{_SCAN_GUARD} guard")
        witness = _walk(k.field, kr, qr, cap)
    if witness is None:
        return EquivalenceReport(True, cap)
    return EquivalenceReport(False, cap, witness, k.principal_minor(witness),
                             q.principal_minor(witness))


def _certify(k, q, rows):
    """The transform carrying k onto q, re-checked entry by entry, from
    rows = ((kr, qr), scales) as ``_shared_rows`` returns them: kr = D k
    and qr = D q, the integer rows of k and q, row i scaled by D_i.

    Returns (certificate, ()), or (None, failures) where failures holds,
    for each framework whose gauge was solved but failed the re-check, the
    rest of its ``_failing_entries``, from the first failing entry on.  The
    certificate is (transposed, gauge, base_label) with q = g t g^(-1),
    where t is k, or kᵀ when transposed; the direct framework is tried
    first, and the gauge is 1 at base_label, the smallest label.
    q = g k g^(-1) exactly when qr = g kr g^(-1), and, as krᵀ = kᵀ D,
    q = g kᵀ g^(-1) exactly when qr = h krᵀ h^(-1) with h = D g.  So each
    framework solves qr = h t h^(-1), t = kr or krᵀ (kr's columns), by
    propagation (``_propagate_gauge``), with h = 1 at each root directly
    and D_root flipped, and re-checks qr(i,j) h(j) = h(i) t(i,j) at every
    (i, j), the diagonal included, giving up at the first entry that fails
    (``_failing_entries``).  A flipped h that passes is returned as
    g = h / D.  No conjugated kernel is built.  Such a certificate
    preserves every principal minor, so it proves equivalence whether or
    not either kernel has property D.  ``check_equivalence`` returns it as
    the report's ``certificate``.
    """
    field = k.field
    base = min(range(k.n), key=lambda i: k.labels[i])
    (kr, qr), scales = rows
    failures = []
    for transposed in (False, True):
        t_rows = list(zip(*kr)) if transposed else kr
        start = scales if transposed else [1] * k.n
        h = _propagate_gauge(field, t_rows, qr, base, start)
        if h is None:
            continue
        entries = _failing_entries(field, h, t_rows, qr)
        first = next(entries, None)
        if first is None:
            if transposed:
                h = [x if d == 1 else field.div(x, d)
                     for x, d in zip(h, scales)]
            return (transposed, Gauge(field, k.labels, h),
                    k.labels[base]), ()
        failures.append(itertools.chain((first,), entries))
    return None, failures


def _failing_entries(field, h, t_rows, qr):
    """Yield each entry (i, j), row by row, where qr(i,j) h(j) differs
    from h(i) t(i,j).  h is first scaled to integers by the lcm of its
    denominators (an int's is 1), and each difference is tested by
    ``field.nonzero``: over GF(p) reduced mod p, with no inverse."""
    lcm = math.lcm(*(v.denominator for v in h))
    h = [v.numerator * (lcm // v.denominator) for v in h]
    differ = field.nonzero
    points = range(len(h))
    for i, q_row, t_row, hi in zip(points, qr, t_rows, h):
        for j, qx, tx, hj in zip(points, q_row, t_row, h):
            if differ(qx * hj - hi * tx):
                yield i, j


def _failure_graph(n, entries):
    """The failing entries (i, j) as an undirected graph on n points: one
    bitmask per point, with bit j of point i and bit i of point j set."""
    graph = [0] * n
    for i, j in entries:
        graph[i] |= 1 << j
        graph[j] |= 1 << i
    return graph


def _propagate_gauge(field, t_rows, qr, base, start):
    """Solve qr = h t h^(-1) on integer rows by pushing h along nonzero
    entries: h(j) = h(i) t(i,j) / qr(i,j), or h(i) qr(j,i) / t(j,i).

    Returns None unless the zero layouts of t and qr match; otherwise sets
    h = start[root] at the base point and at each later root the base
    cannot reach, and pushes h across every nonzero entry (in either
    direction).  A cycle that disagrees is left for the re-check to catch.
    """
    n = len(t_rows)
    if any((not t) != (not u)
           for t_row, q_row in zip(t_rows, qr) for t, u in zip(t_row, q_row)):
        return None
    if field.kind == "prime":
        p = field.p

        def push(hi, num, den):
            return hi * num * pow(den, -1, p) % p
    else:
        def push(hi, num, den):
            return Fraction(hi.numerator * num, hi.denominator * den)
    h = [None] * n
    order = [base] + [i for i in range(n) if i != base]
    for root in order:
        if h[root] is not None:
            continue
        h[root] = field.coerce(start[root])
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if h[j] is not None or i == j:
                    continue
                if t_rows[i][j]:
                    h[j] = push(h[i], t_rows[i][j], qr[i][j])
                    stack.append(j)
                elif t_rows[j][i]:
                    h[j] = push(h[i], qr[j][i], t_rows[j][i])
                    stack.append(j)
    return h


def _shared_rows(k, q):
    """((kr, qr), scales): both kernels' integer rows on shared scales.

    Row i of each kernel's own integer rows (``Kernel.integer_rows``) is
    rescaled to D_i = lcm(D_i^k, D_i^q) where its own scale differs, so
    every minor and every cross minor on rows S of either is its field
    value times the same product of D_i over S, as ``fields.integer_rows``
    gives them.  No field value is read.
    """
    (kr, ks), (qr, qs) = k.integer_rows(), q.integer_rows()
    if ks == qs:
        return (kr, qr), ks
    scales = list(map(math.lcm, ks, qs))
    return (_rescale(kr, ks, scales), _rescale(qr, qs, scales)), scales


def _rescale(rows, own, scales):
    """Integer rows at scales own, taken to the multiples scales."""
    return [row if a == d else [x * (d // a) for x in row]
            for row, a, d in zip(rows, own, scales)]


def _drift(field, kr, qr, orders, graphs=()):
    """Yield each subset of the given orders (1-4) of the integer rows, in
    scan order, whose closed-form term differs.

    With graphs, the failure graphs of the gauges that did not re-check
    (``_failure_graph``), only the subsets that hold an edge of every graph
    are compared (``_edged_subsets``); the rest carry a gauge that re-checks
    on them, so their terms agree."""
    differ = field.nonzero
    n = len(kr)
    for order in orders:
        term = _CYCLE_TERMS[order]
        subsets = (_edged_subsets(n, order, graphs) if graphs
                   else itertools.combinations(range(n), order))
        for s in subsets:
            if differ(term(kr, s) - term(qr, s)):
                yield s


def _edged_subsets(n, order, graphs):
    """The subsets of `order` >= 2 points out of n that hold an edge of
    every graph, in lexicographic order.  For each head, the subset but its
    last point, the last point is drawn from the points above the head and,
    for each graph in which the head holds no edge, from the head's
    neighbours in it."""
    top = (1 << n) - 1
    for head in itertools.combinations(range(n - 1), order - 1):
        allowed = top >> head[-1] + 1 << head[-1] + 1
        points = 0
        for x in head:
            points |= 1 << x
        for graph in graphs:
            near = 0
            for x in head:
                near |= graph[x]
            if not near & points:
                allowed &= near
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            yield (*head, bit.bit_length() - 1)


def _walk(field, kr, qr, cap):
    """The smallest, lex-least subset of order 5..cap whose minor differs.

    kr and qr are integer rows whose minors up to order 4 agree.  Returns
    None when every minor up to the cap agrees.  The minors are integers
    over both kinds of field, and ``field.nonzero`` compares them.
    """
    n = len(kr)
    path = []           # the subset S at the current node, increasing
    best = None
    limit = cap         # the highest order still worth comparing
    differ = field.nonzero

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
            out = _sylvester(b, path[-1] - base, ad, full)
        else:
            out = _border_dets(b, base, path[size:], full,
                               ad ** (len(path) - size))
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
                if differ(ck[u] - cq[u]):
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


def _sylvester(b, u, d, full):
    """From the bordered minors b of a node and its nonzero minor d, those
    of its child that adds the point at index u of b, by Sylvester's
    identity; only the diagonal unless full."""
    top = b[u]
    pivot = top[u]
    if not full:
        return [(pivot * row[j] - row[u] * top[j]) // d
                for j, row in enumerate(b[u + 1:], u + 1)]
    tail = top[u + 1:]
    return [[(pivot * x - row[u] * y) // d for x, y in zip(row[u + 1:], tail)]
            for row in b[u + 1:]]


def _border_dets(b, base, extra, full, scale):
    """det(b[extra + i, extra + j]) // scale for i, j > max extra, where b
    is indexed from base; only i = j unless full.

    When b holds the bordered minors of T and scale is det(T)^|extra|,
    Sylvester's identity makes each of these a bordered minor of T + extra,
    and the division exact.
    """
    u = [x - base for x in extra]
    top = [[b[x][y] for y in u] for x in u]

    def minor(i, j):
        return _det_int_bareiss([*([*r, b[x][j]] for r, x in zip(top, u)),
                                 [*(b[i][y] for y in u), b[i][j]]]) // scale

    rest = range(u[-1] + 1, len(b))
    if not full:
        return [minor(i, i) for i in rest]
    return [[minor(i, j) for j in rest] for i in rest]


def _diagonal(rows, s):
    (i,) = s
    return rows[i][i]


def _pair_product(rows, s):
    i, j = s
    return rows[i][j] * rows[j][i]


def _three_cycle_sum(rows, s):
    """Forward + reversed product around a, b, c."""
    a, b, c = s
    ra, rb, rc = rows[a], rows[b], rows[c]
    return ra[b] * rb[c] * rc[a] + ra[c] * rc[b] * rb[a]


def _four_cycle_sum(rows, s):
    """The six oriented 4-cycles through a, b, c, d, in reversed pairs."""
    a, b, c, d = s
    ra, rb, rc, rd = rows[a], rows[b], rows[c], rows[d]
    return (ra[b] * rb[c] * rc[d] * rd[a] + ra[d] * rd[c] * rc[b] * rb[a]
            + ra[b] * rb[d] * rd[c] * rc[a] + ra[c] * rc[d] * rd[b] * rb[a]
            + ra[c] * rc[b] * rb[d] * rd[a] + ra[d] * rd[b] * rb[c] * rc[a])


# the closed-form term of order r sits at index r
_CYCLE_TERMS = (None, _diagonal, _pair_product, _three_cycle_sum,
                _four_cycle_sum)


def _field_term(kern, s):
    """The closed-form term of kern on s, in field values: the term of
    its integer rows, divided by their scales over s."""
    rows, scales = kern.integer_rows()
    return kern.field.div(_CYCLE_TERMS[len(s)](rows, s),
                          math.prod(scales[i] for i in s))
