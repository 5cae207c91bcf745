"""Nondegeneracy scan: every 2x2 minor that avoids the diagonal is nonzero.

For pairwise-distinct points x, y, z, w the quantity

    h(x,y) h(w,z) - h(x,z) h(w,y)

is the determinant of the submatrix on rows {x,w} and columns {y,z}; none of
its entries touches the diagonal.  A kernel all of whose such minors are
nonzero is rigid enough that agreement of principal minors pins down the
kernel up to a diagonal change of variables and an optional flip, which is
why the recovery pipeline insists on this property for both inputs.

``check_class_d`` takes one pair of rows {x, w} at a time.  Its cross
minor on columns {y, z} vanishes exactly when the columns
(h(x,c), h(w,c)) at c = y and c = z are dependent: they have the same
ratio h(w,c) / h(x,c), with inf where only h(x,c) is zero, or one of them
is zero on both rows.  So each row pair takes one pass over the columns
that keys each column by its ratio, and a collision of keys is a
vanishing minor: O(n^3) in all, against O(n^4) quadruples.  The witness's
columns then come from the cross minors themselves, on the two rows.

No ratio is divided out: each row pair's keys are the ratios times a
nonzero constant, which leaves the same keys colliding.  Over GF(p) the
constant is P, the product of row x's nonzero entries, so column c's key
is h(w,c) times the product of row x's other nonzero entries, and the
scan computes no modular inverse.  Over Q it is L, the lcm of row x's
integer entries, and the key is h(w,c) (L // h(x,c)).

Over Q each row x is scaled to integers by D_x, the lcm of its
denominators.  The cross minor on rows {x,w} takes one entry from each of
them in both of its terms, so scaling multiplies it by D_x D_w, which is
nonzero: the same cross minors vanish and the witness is the same, found
without a Fraction operation.
"""

import math
from typing import NamedTuple

from .fields import integer_rows


class ClassDReport(NamedTuple):
    holds: bool
    witness: tuple = None         # lex-least ordered quadruple (x, y, z, w)
    witness_labels: tuple = None


_X, _W = object(), object()   # keys of the row pair's own columns


def _vanishing_quad(field, rows, first=False):
    """The lex-least ordered quadruple whose cross minor vanishes, or None;
    with first set, the first row pair (x, w) found to hold one.

    keys[c] is the ratio rows[w][c] / rows[x][c] times a constant of the
    row pair (inf where only rows[x][c] is zero), and a column zero on
    both rows is wild: columns y, z outside {x, w} make the cross minor
    vanish exactly when their keys collide or one is wild (module
    docstring), and ``_least_pair`` finds the least such pair.  The witness
    takes the least x with any, then the least (y, z, w) over its row
    pairs: the least (x, y, z, w) with x < w and y < z, which is the least
    ordering of any vanishing quadruple, as the others swap the rows or the
    columns of the same minor.

    Row x's cofactors cof_x, 0 at its zeros, serve all its row pairs:
    keys[c] = rows[w][c] cof_x[c].  Over GF(p), entries in [0, p),
    cof_x[c] is the product of the row's other nonzero entries, built from
    prefix and suffix products in 3n multiplications mod p.  Over Q, rows
    of Fractions are scaled to integers first (module docstring), and rows
    of ints, a kernel's integer rows or the draws of ``lab.gen_instance``,
    are scanned as they are; one entry's type tells the two apart.  An
    integer row's cofactors are L // a, L the lcm of its nonzero entries.
    """
    n = len(rows)
    if n < 4:
        return None
    p = field.p if field.kind == "prime" else None
    if not p and type(rows[0][0]) is not int:
        (rows,), _ = integer_rows(field, rows)
    differ = field.nonzero
    best = None
    for x, row_x in enumerate(rows):
        if p:
            cof_x, prefix, run = [0] * n, [], 1
            for a in row_x:
                prefix.append(run)
                if a:
                    run = run * a % p
            run = 1
            for c in range(n - 1, -1, -1):
                a = row_x[c]
                if a:
                    cof_x[c] = prefix[c] * run % p
                    run = run * a % p
        else:
            lcm = math.lcm(*row_x) or math.lcm(*filter(None, row_x))
            cof_x = [lcm // a if a else 0 for a in row_x]
        zeros_x = [c for c, a in enumerate(row_x)
                   if not a and c != x] if 0 in row_x else ()
        for w in range(x + 1, n):
            row_w = rows[w]
            if p:
                keys = [b * i % p for b, i in zip(row_w, cof_x)]
            else:
                keys = [b * i for b, i in zip(row_w, cof_x)]
            wild = []
            for c in zeros_x:
                if row_w[c]:
                    keys[c] = math.inf
                elif c != w:
                    wild.append(c)
            keys[x], keys[w] = _X, _W
            if wild or len(set(keys)) < n:
                if first:
                    return x, w
                quad = (x, *_least_pair(row_x, row_w, x, w, differ), w)
                if best is None or quad < best:
                    best = quad
        if best is not None:
            return best
    return None


def _least_pair(row_x, row_w, x, w, differ):
    """The least columns y < z outside {x, w} whose cross minor
    row_x[y] row_w[z] - row_x[z] row_w[y] vanishes, as ``differ`` tells on
    the integer difference; the row pair must have such a pair."""
    cols = [c for c in range(len(row_x)) if c != x and c != w]
    return next((y, z) for i, y in enumerate(cols) for z in cols[i + 1:]
                if not differ(row_x[y] * row_w[z] - row_x[z] * row_w[y]))


def check_class_d(k):
    """Scan all off-diagonal cross minors, reporting the least vanishing
    one; the scan reads the kernel's integer rows."""
    quad = _vanishing_quad(k.field, k.integer_rows()[0])
    if quad is None:
        return ClassDReport(True)
    return ClassDReport(False, quad, tuple(k.labels[i] for i in quad))


def class_d_ok(field, rows):
    """The scan's verdict alone, on a matrix of field values, or over Q of
    ints alone; it stops at the first row pair with dependent columns."""
    return _vanishing_quad(field, rows, first=True) is None
