"""Reference audits the tests check the library against.

None of these is on a decision path: each restates a consequence of the
paper's theorems (the zero layout a nondegenerate kernel forces, the
3-cycle trace identity, one framework per 4-subset, reversed cycle
products, the gauge read off a verified cocycle table, a pivot-independent
doubly-indirect ratio) so that acceptance and unit tests can assert it on
generated instances.
"""

import itertools
from typing import NamedTuple

from detequiv.classify import CaseLabel, CaseTable, GlobalCase
from detequiv.equivalence import _drift, _field_term, _shared_rows
from detequiv.errors import BranchUnavailable, DetEquivError
from detequiv.kernels import Cycle, Gauge, cycle_product, require_same_points


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
    out = []
    for x in range(n):
        for y in range(n):
            if x == y or rows[x][y]:
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                if not rows[x][z]:
                    out.append(ZeroPatternViolation((x, y), (x, z)))
                if not rows[z][y]:
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
    for a, b, c in _drift(k.field, *_shared_rows(k, q)[0], (3,)):
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


class Inconsistent(DetEquivError):
    """The pivot-independence audit found two pivots giving different values."""

    def __init__(self, message, *, pair, values):
        super().__init__(message)
        self.pair = tuple(pair)
        self.values = tuple(values)


def extract_gauge(c, base):
    """Read the gauge g(x) = c(x, base) off a verified cocycle table.

    For such a table c(x, y) = g(x)/g(y) with g(base) = 1: the triangle law
    through the base point gives c(x, y) = c(x, base) c(base, y) and the
    pair law turns c(base, y) into 1/c(y, base).
    """
    if not 0 <= base < c.n:
        raise IndexError(f"base index {base} out of range for n={c.n}")
    return Gauge(c.field, c.labels, [c.rows[x][base] for x in range(c.n)])


def consistency_audit(k, q, x, y, case=GlobalCase.CASE1):
    """Check that the doubly-indirect ratio does not depend on the pivot.

    Preconditions: n >= 4 and K(x, y) = 0.  Evaluates the pivot expression
    of the third cocycle branch at every admissible z; all values must
    agree, and when K(y, x) is nonzero they must also equal the second
    branch's value.  Returns the common value, raises Inconsistent
    otherwise.  The flipped framework (CASE2) is the direct one on kᵀ, so
    there the precondition reads K(y, x) = 0.
    """
    if case is GlobalCase.CASE2:
        k = k.transpose()
    require_same_points(k, q)
    f = k.field
    n = k.n
    if n < 4:
        raise ValueError(f"consistency audit needs n >= 4, got n={n}")
    if x == y:
        raise ValueError("need two distinct points")
    if k.rows[x][y]:
        raise ValueError("the framework's entry at (x, y) is not zero")
    values = []
    for z in range(n):
        if z == x or z == y:
            continue
        ka = k.rows[x][z]
        kb = k.rows[z][y]
        if not ka or not kb:
            raise BranchUnavailable(
                f"pivot {k.labels[z]!r} hits a zero entry, which the one-zero "
                "layout rule forbids", pair=(x, y))
        values.append(f.div(f.mul(q.rows[x][z], q.rows[z][y]), f.mul(ka, kb)))
    if any(v != values[0] for v in values[1:]):
        raise Inconsistent(
            f"pivot expression at pair ({k.labels[x]!r}, {k.labels[y]!r}) "
            "depends on the pivot", pair=(x, y), values=values)
    if k.rows[y][x]:
        direct = f.div(k.rows[y][x], q.rows[y][x])
        if direct != values[0]:
            raise Inconsistent(
                f"pivot expression disagrees with the direct ratio at "
                f"({k.labels[x]!r}, {k.labels[y]!r})",
                pair=(x, y), values=(values[0], direct))
    return values[0]
