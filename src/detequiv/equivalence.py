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
products differs.  From order 5 on, the scan compares determinants.

The scan runs on integer rows (``fields.integer_rows``): over GF(p) the
values as they are, with each comparison reduced once mod p; over Q each
row i of both kernels scaled by one shared D_i.  Every term takes one entry
from each row, so each term, and each minor, on a subset S is scaled by the
same product of D_i over S on both sides, and a difference survives the
scaling exactly when it was there before.  The witness minors are computed
in field values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .fields import _det_int_bareiss, _det_prime, integer_rows
from .kernels import Cycle, require_same_points

_SCAN_GUARD = 2**20  # subsets; admits the full scan up to n = 20


@dataclass(frozen=True)
class PrecheckFailure:
    kind: str        # "diagonal" or "pair"
    points: tuple    # (i,) or (i, j) with i < j
    k_value: object  # entry for "diagonal", two-entry product for "pair"
    q_value: object


@dataclass(frozen=True)
class PrecheckReport:
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
        for s in _drift(k, q, (1, 2))))


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    checked_order_max: int
    witness_subset: tuple = None   # smallest failing index set, lex-least
    witness_minor_k: object = None
    witness_minor_q: object = None


def _scan_cap(n, max_order):
    """The highest order a minor scan reaches, after validating max_order.

    max_order defaults to n.  Raises ValueError for a cap outside [1, n]
    and, up front, for a scan over more than _SCAN_GUARD subsets.
    """
    cap = n if max_order is None else max_order
    if not 1 <= cap <= n:
        raise ValueError(f"max_order must lie in [1, {n}], got {max_order}")
    subsets = sum(math.comb(n, r) for r in range(1, cap + 1))
    if subsets > _SCAN_GUARD:
        raise ValueError(f"minor scan needs {subsets} subsets, over the "
                         f"{_SCAN_GUARD} guard; lower max_order")
    return cap


def check_equivalence(k, q, max_order=None):
    """Compare principal minors on every subset of size 1..max_order.

    max_order defaults to n (the full check).  Subsets are scanned by
    cardinality and then lexicographically, so a negative verdict carries the
    smallest failing subset and, among those, the lexicographically least.
    Orders 1-4 are compared by closed form (module docstring), which is exact
    because the scan reaches an order only after every smaller subset has
    agreed; a determinant is computed at the witness and from order 5 on.
    """
    require_same_points(k, q)
    cap = _scan_cap(k.n, max_order)
    witness = next(_drift(k, q, range(1, cap + 1)), None)
    if witness is None:
        return EquivalenceReport(True, cap)
    return EquivalenceReport(False, cap, witness, k.principal_minor(witness),
                             q.principal_minor(witness))


def _drift(k, q, orders):
    """Yield each subset of the given orders, in scan order, whose term differs.

    The term is the closed form of _CYCLE_TERMS up to order 4 and the
    determinant from order 5 on; both kernels go to integer rows once.
    """
    field = k.field
    (kr, qr), _ = integer_rows(field, k.rows, q.rows)
    if field.kind == "prime":
        p = field.p
        differ = p.__rmod__             # d -> d % p
        det = functools.partial(_det_prime, p=p)
    else:
        differ, det = bool, _det_int_bareiss

    def minor(rows, s):
        return det([[rows[i][j] for j in s] for i in s])

    for order in orders:
        term = _CYCLE_TERMS[order] if order < len(_CYCLE_TERMS) else minor
        for s in itertools.combinations(range(k.n), order):
            if differ(term(kr, s) - term(qr, s)):
                yield s


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
    """The closed-form term of kern on s, in field values."""
    return kern.field.coerce(_CYCLE_TERMS[len(s)](kern.rows, s))


@dataclass(frozen=True)
class TraceViolation:
    cycle: object
    k_sum: object
    q_sum: object


def trace_identity_audit(k, q):
    """Check forward+reversed product agreement on every 3-cycle.

    For determinantally equivalent kernels the sum of the forward and the
    reversed product around any 3-cycle must agree between the two (it is
    what is left of the order-3 minor once orders 1 and 2 are matched).
    Returns the violating cycles, both orientations of each, sorted by
    vertices; empty means the audit passed.
    """
    require_same_points(k, q)
    violations = []
    for a, b, c in _drift(k, q, (3,)):
        ks, qs = _field_term(k, (a, b, c)), _field_term(q, (a, b, c))
        violations.append(TraceViolation(Cycle((a, b, c)), ks, qs))
        violations.append(TraceViolation(Cycle((a, c, b)), ks, qs))
    violations.sort(key=lambda v: v.cycle.vertices)
    return tuple(violations)
