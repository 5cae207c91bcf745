"""Nondegeneracy scan: every 2x2 minor that avoids the diagonal is nonzero.

For pairwise-distinct points x, y, z, w the quantity

    h(x,y) h(w,z) - h(x,z) h(w,y)

is the determinant of the submatrix on rows {x,w} and columns {y,z}; none of
its entries touches the diagonal.  A kernel all of whose such minors are
nonzero is rigid enough that agreement of principal minors pins down the
kernel up to a diagonal change of variables and an optional flip, which is
why the recovery pipeline insists on this property for both inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ProblematicPair
from .kernels import require_same_points


@dataclass(frozen=True)
class ClassDReport:
    holds: bool
    witness: tuple = None         # lex-least ordered quadruple (x, y, z, w)
    witness_labels: tuple = None


def _vanishing_quad(field, rows):
    """The lex-least ordered quadruple whose cross minor vanishes, or None.

    Looping over (x, y, z, w) with x < w and y < z, in lexicographic order,
    meets each row-pair/column-pair once; the other orderings of a vanishing
    quadruple permute the same four entries, and the least of them comes
    first in this order.  The field branch sits outside the loop nest because
    rejection sampling calls this in a tight loop.
    """
    n = len(rows)
    if field.kind == "prime":
        p = field.p
        for x in range(n):
            row_x = rows[x]
            for y in range(n):
                if y == x:
                    continue
                a = row_x[y]
                for z in range(y + 1, n):
                    if z == x:
                        continue
                    b = row_x[z]
                    for w in range(x + 1, n):
                        if w != y and w != z:
                            row_w = rows[w]
                            if (a * row_w[z] - b * row_w[y]) % p == 0:
                                return (x, y, z, w)
        return None
    for x in range(n):
        row_x = rows[x]
        for y in range(n):
            if y == x:
                continue
            a = row_x[y]
            for z in range(y + 1, n):
                if z == x:
                    continue
                b = row_x[z]
                for w in range(x + 1, n):
                    if w != y and w != z:
                        row_w = rows[w]
                        if a * row_w[z] == b * row_w[y]:
                            return (x, y, z, w)
    return None


def check_class_d(k):
    """Scan all off-diagonal cross minors, reporting the least vanishing one."""
    quad = _vanishing_quad(k.field, k.rows)
    if quad is None:
        return ClassDReport(True)
    return ClassDReport(False, quad, tuple(k.labels[i] for i in quad))


def class_d_ok(field, rows):
    """The scan's verdict alone, on a raw entry matrix."""
    return _vanishing_quad(field, rows) is None


@dataclass(frozen=True)
class ZeroPatternViolation:
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


# The six admissible zero layouts of the quadruple
# (K(x,y), K(y,x), Q(x,y), Q(y,x)) for an ordered pair of distinct points.
ALL_NONZERO = "all_nonzero"
ALL_ZERO = "all_zero"
ALIGNED_ZERO_FORWARD = "aligned_zero_forward"     # K(x,y) = Q(x,y) = 0
ALIGNED_ZERO_BACKWARD = "aligned_zero_backward"   # K(y,x) = Q(y,x) = 0
SWAPPED_ZERO_FORWARD = "swapped_zero_forward"     # K(x,y) = Q(y,x) = 0
SWAPPED_ZERO_BACKWARD = "swapped_zero_backward"   # K(y,x) = Q(x,y) = 0

_EDGE_PATTERNS = {
    (False, False, False, False): ALL_NONZERO,
    (True, True, True, True): ALL_ZERO,
    (True, False, True, False): ALIGNED_ZERO_FORWARD,
    (False, True, False, True): ALIGNED_ZERO_BACKWARD,
    (True, False, False, True): SWAPPED_ZERO_FORWARD,
    (False, True, True, False): SWAPPED_ZERO_BACKWARD,
}


def edge_pattern(k, q, x, y):
    """Classify the zero layout of one ordered pair across both kernels.

    Only six layouts can occur when the kernels are determinantally
    equivalent and nondegenerate: zeros aligned in the same slot of both, in
    swapped slots, everywhere, or nowhere.  Every other layout (e.g. a zero
    in one kernel with all other slots nonzero) raises ProblematicPair.
    """
    require_same_points(k, q)
    if x == y:
        raise ValueError("edge_pattern needs two distinct points")
    zero = k.field.is_zero
    entries = (k.rows[x][y], k.rows[y][x], q.rows[x][y], q.rows[y][x])
    signature = tuple(zero(v) for v in entries)
    pattern = _EDGE_PATTERNS.get(signature)
    if pattern is None:
        fmt = k.field.format
        raise ProblematicPair(
            f"zero layout at pair ({k.labels[x]!r}, {k.labels[y]!r}) fits no "
            f"admissible pattern: " + ", ".join(fmt(v) for v in entries),
            edge=(x, y), entries=entries)
    return pattern
