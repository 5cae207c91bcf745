"""Order-by-order comparison of principal minors between two kernels."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .kernels import cycle_product, enumerate_3cycles, require_same_points, reversed_cycle_product

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
    at most two.
    """
    require_same_points(k, q)
    f = k.field
    n = k.n
    failures = []
    for i in range(n):
        if k.rows[i][i] != q.rows[i][i]:
            failures.append(PrecheckFailure("diagonal", (i,),
                                            k.rows[i][i], q.rows[i][i]))
    for i in range(n):
        for j in range(i + 1, n):
            kp = f.mul(k.rows[i][j], k.rows[j][i])
            qp = f.mul(q.rows[i][j], q.rows[j][i])
            if kp != qp:
                failures.append(PrecheckFailure("pair", (i, j), kp, qp))
    return PrecheckReport(tuple(failures))


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    checked_order_max: int
    witness_subset: tuple = None   # smallest failing index set, lex-least
    witness_minor_k: object = None
    witness_minor_q: object = None


def check_equivalence(k, q, max_order=None):
    """Compare principal minors on every subset of size 1..max_order.

    max_order defaults to n (the full check).  Subsets are scanned by
    cardinality and then lexicographically, so a negative verdict carries the
    smallest failing subset and, among those, the lexicographically least.
    A scan over more than _SCAN_GUARD subsets raises ValueError up front.
    """
    require_same_points(k, q)
    n = k.n
    cap = n if max_order is None else max_order
    if not 1 <= cap <= n:
        raise ValueError(f"max_order must lie in [1, {n}], got {max_order}")
    subsets = sum(math.comb(n, r) for r in range(1, cap + 1))
    if subsets > _SCAN_GUARD:
        raise ValueError(f"minor scan needs {subsets} subsets, over the "
                         f"{_SCAN_GUARD} guard; lower max_order")
    for order in range(1, cap + 1):
        for subset in itertools.combinations(range(n), order):
            mk = k.principal_minor(subset)
            mq = q.principal_minor(subset)
            if mk != mq:
                return EquivalenceReport(False, cap, subset, mk, mq)
    return EquivalenceReport(True, cap)


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
    Returns the violating cycles; empty means the audit passed.
    """
    require_same_points(k, q)
    f = k.field
    violations = []
    if k.n < 3:
        return tuple(violations)
    for cyc in enumerate_3cycles(k.n):
        ks = f.add(cycle_product(k, cyc), reversed_cycle_product(k, cyc))
        qs = f.add(cycle_product(q, cyc), reversed_cycle_product(q, cyc))
        if ks != qs:
            violations.append(TraceViolation(cyc, ks, qs))
    return tuple(violations)
