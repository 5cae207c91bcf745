"""Order-by-order comparison of principal minors between two kernels.

Orders 1-3 are compared by closed form, since a determinant is a sum over
cycle covers.  With equal diagonals, det{i,j} = k_ii k_jj - k_ij k_ji differs
exactly when the pair products k_ij k_ji differ; with every order-1 and
order-2 minor on {a,b,c} equal, det{a,b,c} differs exactly when the forward +
reversed 3-cycle sum differs.  A determinant is computed only at the witness
and from order 4 on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    return PrecheckReport(tuple(_precheck_failures(k, q)))


def _precheck_failures(k, q):
    """Yield quick_consequences' failures lazily, in scan order."""
    mul = k.field.mul
    kr, qr = k.rows, q.rows
    n = k.n
    for i in range(n):
        if kr[i][i] != qr[i][i]:
            yield PrecheckFailure("diagonal", (i,), kr[i][i], qr[i][i])
    for i in range(n):
        for j in range(i + 1, n):
            kp = mul(kr[i][j], kr[j][i])
            qp = mul(qr[i][j], qr[j][i])
            if kp != qp:
                yield PrecheckFailure("pair", (i, j), kp, qp)


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
    Orders 1-3 are compared by closed form (module docstring), which is exact
    because the scan reaches an order only after every smaller subset has
    agreed; a determinant is computed at the witness and from order 4 on.
    """
    require_same_points(k, q)
    n = k.n
    cap = _scan_cap(n, max_order)
    subset = _closed_form_witness(k, q, min(cap, 3))
    if subset is not None:
        return EquivalenceReport(False, cap, subset, k.principal_minor(subset),
                                 q.principal_minor(subset))
    for order in range(4, cap + 1):
        for subset in itertools.combinations(range(n), order):
            mk = k.principal_minor(subset)
            mq = q.principal_minor(subset)
            if mk != mq:
                return EquivalenceReport(False, cap, subset, mk, mq)
    return EquivalenceReport(True, cap)


def _closed_form_witness(k, q, top):
    """The first subset of size at most top, in scan order, whose minor differs."""
    witness = next((fail.points for fail in _precheck_failures(k, q)
                    if len(fail.points) <= top), None)
    if witness is None and top >= 3:
        witness = next((subset for subset, _, _ in _cycle_sum_drift(k, q)), None)
    return witness


def _cycle_sum_drift(k, q):
    """Yield (subset, k_sum, q_sum) for each 3-subset, in lex order, whose
    forward + reversed 3-cycle sums differ between k and q."""
    mul, add = k.field.mul, k.field.add
    kr, qr = k.rows, q.rows
    for a, b, c in itertools.combinations(range(k.n), 3):
        ks = add(mul(mul(kr[a][b], kr[b][c]), kr[c][a]),
                 mul(mul(kr[a][c], kr[c][b]), kr[b][a]))
        qs = add(mul(mul(qr[a][b], qr[b][c]), qr[c][a]),
                 mul(mul(qr[a][c], qr[c][b]), qr[b][a]))
        if ks != qs:
            yield (a, b, c), ks, qs


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
    for (a, b, c), ks, qs in _cycle_sum_drift(k, q):
        violations.append(TraceViolation(Cycle((a, b, c)), ks, qs))
        violations.append(TraceViolation(Cycle((a, c, b)), ks, qs))
    violations.sort(key=lambda v: v.cycle.vertices)
    return tuple(violations)
