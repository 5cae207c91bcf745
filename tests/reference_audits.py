"""Reference audits the tests check the library against.

None of these is on a decision path: each restates a consequence of the
paper's theorems (the zero layout a nondegenerate kernel forces, the
3-cycle trace identity, one framework per 4-subset, reversed cycle
products) so that acceptance and unit tests can assert it on generated
instances.
"""

import itertools
from typing import NamedTuple

from detequiv.classify import CaseLabel, CaseTable
from detequiv.equivalence import _drift, _field_term, _integer_pair
from detequiv.kernels import Cycle, cycle_product, require_same_points


class ZeroPatternViolation(NamedTuple):
    zero_at: tuple   # (x, y) with h(x, y) = 0
    conflict: tuple  # second zero in the same row or column


def zero_pattern_validate(k):
    """Check the zero layout a nondegenerate kernel forces.

    Whenever h(x, y) = 0 with x != y, every h(x, z) and every h(z, y) for
    z outside {x, y} must be nonzero: two zeros sharing a row or a column
    would make a cross minor vanish outright.  Returns all violations.
    """
    rows = k.rows
    n = k.n
    zero = k.field.is_zero
    out = []
    for x in range(n):
        for y in range(n):
            if x == y or not zero(rows[x][y]):
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                if zero(rows[x][z]):
                    out.append(ZeroPatternViolation((x, y), (x, z)))
                if zero(rows[z][y]):
                    out.append(ZeroPatternViolation((x, y), (z, y)))
    return tuple(out)


class TraceViolation(NamedTuple):
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
    for a, b, c in _drift(k.field, *_integer_pair(k, q), (3,)):
        ks, qs = _field_term(k, (a, b, c)), _field_term(q, (a, b, c))
        violations.append(TraceViolation(Cycle((a, b, c)), ks, qs))
        violations.append(TraceViolation(Cycle((a, c, b)), ks, qs))
    violations.sort(key=lambda v: v.cycle.vertices)
    return tuple(violations)


def four_point_audit(k, q):
    """Check that the four 3-cycles inside every 4-subset share a framework.

    Returns the violating 4-subsets together with the four labels; empty
    means the audit passed.  For equivalent nondegenerate kernels this is a
    theorem, so a nonempty result flags broken preconditions.
    """
    require_same_points(k, q)
    if k.n < 4:
        raise ValueError(f"four-point audit needs n >= 4, got n={k.n}")
    label_of = {row.cycle.vertices: row.label
                for row in CaseTable.build(k, q).rows}
    violations = []
    for quad in itertools.combinations(range(k.n), 4):
        labels = tuple(label_of[t] for t in itertools.combinations(quad, 3))
        if CaseLabel.CASE1_ONLY in labels and CaseLabel.CASE2_ONLY in labels:
            violations.append((quad, labels))
        elif CaseLabel.NEITHER in labels:
            violations.append((quad, labels))
    return tuple(violations)


def reversed_cycle_product(k, cycle):
    """Same as cycle_product with every edge traversed backwards."""
    return cycle_product(k, cycle.reverse())
