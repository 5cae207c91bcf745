"""Exact arithmetic of the benchmark's own, written apart from detequiv.

The benchmark builds its inputs and checks the program's answers with this
module only, so a change to detequiv's arithmetic cannot change what the
benchmark feeds it or how the answers are judged.

A field is named by its modulus: ``None`` for the rationals, a prime ``p``
for GF(p).  Values are Fractions over Q and ints in [0, p) over GF(p).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def field_doc(p):
    return {"kind": "rational"} if p is None else {"kind": "prime", "p": p}


def field_of_doc(doc):
    return None if doc["kind"] == "rational" else doc["p"]


def parse(p, text):
    return Fraction(text) if p is None else int(text) % p


def norm(p, value):
    return Fraction(value) if p is None else value % p


def mul(p, a, b):
    return a * b if p is None else a * b % p


def div(p, a, b):
    if p is None:
        return Fraction(a) / b
    return a * pow(b, p - 2, p) % p


def kernel_doc(p, rows):
    n = len(rows)
    return {"field": field_doc(p), "labels": labels(n),
            "entries": [[str(v) for v in row] for row in rows]}


def rows_of_doc(doc):
    p = field_of_doc(doc["field"])
    return p, [[parse(p, cell) for cell in row] for row in doc["entries"]]


def labels(n):
    return [f"p{i + 1}" for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def conjugate(p, rows, gauge):
    """(x, y) -> g(x) K(x, y) / g(y)."""
    n = len(rows)
    return [[div(p, mul(p, gauge[i], rows[i][j]), gauge[j]) for j in range(n)]
            for i in range(n)]


def carries(p, t, q, gauge):
    """Whether conjugating t by gauge gives q, compared without division."""
    n = len(t)
    return all(mul(p, gauge[i], t[i][j]) == mul(p, q[i][j], gauge[j])
               for i in range(n) for j in range(n))


def det(p, rows):
    """Determinant by plain Gaussian elimination over Q or GF(p)."""
    m = [[norm(p, v) for v in row] for row in rows]
    n = len(m)
    out = norm(p, 1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return norm(p, 0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = norm(p, -out)
        out = mul(p, out, m[c][c])
        for r in range(c + 1, n):
            factor = div(p, m[r][c], m[c][c])
            if factor != 0:
                m[r] = [norm(p, a - factor * b) for a, b in zip(m[r], m[c])]
    return out


def minor(p, rows, subset):
    return det(p, [[rows[i][j] for j in subset] for i in subset])


def first_differing_subset(p, k, q, orders):
    """Smallest, then lexicographically least, subset whose minors differ."""
    n = len(k)
    for order in orders:
        for subset in itertools.combinations(range(n), order):
            if minor(p, k, subset) != minor(p, q, subset):
                return subset
    return None


def vanishing_quads(p, rows):
    """Yield every ordered quadruple (x, y, z, w) with x < w, y < z, y and z
    outside {x, w}, whose cross minor K(x,y) K(w,z) - K(x,z) K(w,y) is 0.

    The other orderings of a quadruple give the same equation, and of the
    four the one with x < w and y < z is the lexicographically least.
    """
    n = len(rows)
    if p is None:
        # a/b * c/d == e/f * g/h, cross-multiplied into integers
        num = [[v.numerator for v in row] for row in rows]
        den = [[v.denominator for v in row] for row in rows]
    else:
        num = rows
        den = [[1] * n for _ in range(n)]
    for x, w in itertools.combinations(range(n), 2):
        nx, nw, dx, dw = num[x], num[w], den[x], den[w]
        rest = [i for i in range(n) if i != x and i != w]
        for y, z in itertools.combinations(rest, 2):
            diff = nx[y] * nw[z] * dx[z] * dw[y] - nx[z] * nw[y] * dx[y] * dw[z]
            if (diff % p if p else diff) == 0:
                yield (x, y, z, w)


def is_nondegenerate(p, rows):
    return next(vanishing_quads(p, rows), None) is None


def least_vanishing_quad(p, rows):
    """The quadruple a degenerate kernel must be refused with, or None."""
    return min(vanishing_quads(p, rows), default=None)
