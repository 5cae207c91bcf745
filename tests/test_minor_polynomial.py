"""The principal-minor polynomial as an oracle independent of the minor scan.

For Y = diag(y), det(I + YK) = sum over subsets S of det K[S] times the
product of y_i over S.  So k and q share every principal minor exactly
when F(y) = det(I + YK) - det(I + YQ) is the zero polynomial.  F is
multilinear of degree at most n, so a nonzero F vanishes at a uniform
point mod a prime P with probability at most n/P (Schwartz-Zippel).  The
check is one-sided: F(y) != 0 at one point proves that some minor
differs, while F = 0 at a few points is only evidence.  Its elimination
mod P is written here, apart from ``detequiv.fields``.
"""

import random

from detequiv.equivalence import check_equivalence
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel
from detequiv.lab import perturb

from test_equivalence import _cauchy_doc
from test_symmetry import _defect_pair

Q = Rationals()
RATIONAL_P = 2**61 - 1  # a Mersenne prime


def _det_mod(rows, p):
    """Determinant mod the prime p of rows already reduced mod p."""
    m = [list(row) for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        head = m[c]
        det = det * head[c] % p
        inv = pow(head[c], -1, p)
        for r in range(c + 1, n):
            factor = m[r][c] * inv % p
            if factor:
                m[r][c:] = [(a - factor * b) % p
                            for a, b in zip(m[r][c:], head[c:])]
    return det % p


def _residues(kern, p):
    """kern's entries mod p; over Q every denominator must be a unit."""
    if kern.field.kind == "prime":
        return kern.rows
    for row in kern.rows:
        assert all(x.denominator % p for x in row), "denominator divisible by P"
    return [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
            for row in kern.rows]


def minor_polynomial_differs(k, q, points, seed):
    """Whether det(I + YK) != det(I + YQ) at one of ``points`` seeded
    random diagonal Y mod P, which proves that some principal minor
    differs.  P is p over GF(p) and 2^61 - 1 over Q.  None over GF(p) with
    p <= 4n, where a nonzero F may vanish at a point with chance n/p."""
    n = k.n
    p = k.field.p if k.field.kind == "prime" else RATIONAL_P
    if p <= 4 * n:
        return None
    kr, qr = _residues(k, p), _residues(q, p)
    rng = random.Random(seed)
    for _ in range(points):
        y = [rng.randrange(p) for _ in range(n)]
        dets = [_det_mod([[(y[i] * x + (i == j)) % p for j, x in enumerate(row)]
                          for i, row in enumerate(rows)], p)
                for rows in (kr, qr)]
        if dets[0] != dets[1]:
            return True
    return False


def test_det_mod_matches_small_determinants():
    assert _det_mod([], 7) == 1
    assert _det_mod([[0, 1], [1, 0]], 7) == 6
    assert _det_mod([[2, 3], [4, 6]], 7) == 0
    assert _det_mod([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 101) == 101 - 3


def test_agrees_with_the_verdict_on_defect_pairs():
    # every defect pair keeps orders 1-2, so a refutation is found at
    # order 3 or later, many by the walk
    rng = random.Random(3501)
    agreed = walked = 0
    for field in (PrimeField(101), PrimeField(1000003), Q):
        for t in range(100):
            k, q = _defect_pair(rng, field, rng.randint(6, 12))
            rep = check_equivalence(k, q)
            assert minor_polynomial_differs(k, q, 8, t) == (
                not rep.equivalent), (field, k.rows, q.rows)
            agreed += 1
            walked += rep.certificate is None and (
                rep.equivalent or len(rep.witness_subset) >= 5)
    assert agreed == 300
    assert walked >= 15
    # GF(3) at n = 6 is too small a field for a point to be evidence
    k, q = _defect_pair(rng, PrimeField(3), 6)
    assert minor_polynomial_differs(k, q, 8, 0) is None


def _cauchy(field, n):
    """The scaled Cauchy kernel of ``_cauchy_doc`` over field."""
    rows = Kernel.from_doc(_cauchy_doc(n)).rows
    return Kernel(field, [str(i + 1) for i in range(n)],
                  [[field.div(x.numerator, x.denominator) for x in row]
                   for row in rows])


def _certified_pair(rng, field, n, flip):
    """k and g k g^(-1), or g k^T g^(-1), each certified by check_equivalence."""
    k = _cauchy(field, n)
    g = Gauge(field, k.labels, [field.div(rng.randint(1, 9), rng.randint(1, 9))
                                for _ in range(n)])
    q = (k.transpose() if flip else k).conjugate(g)
    rep = check_equivalence(k, q)
    assert rep.equivalent and rep.certificate is not None, (field, n, flip)
    return k, q


def test_certified_cauchy_pairs_and_their_refutations():
    rng = random.Random(3502)
    sizes = [(PrimeField(1000003), n) for n in (24, 32, 48, 64)] + [
        (Q, 24), (Q, 32)]
    for field, n in sizes:
        for flip in (False, True):
            k, q = _certified_pair(rng, field, n, flip)
            assert minor_polynomial_differs(k, q, 3, n) is False
            bad = perturb(k, q, seed=n)
            assert minor_polynomial_differs(k, bad, 3, n) is True


def test_catches_a_doctored_positive():
    # a certified q at n = 64 with one entry changed
    field = PrimeField(1000003)
    k, q = _certified_pair(random.Random(3503), field, 64, True)
    rows = [list(row) for row in q.rows]
    rows[5][40] = field.mul(rows[5][40], 2)
    doctored = Kernel(field, k.labels, rows)
    assert not check_equivalence(k, doctored).equivalent
    assert minor_polynomial_differs(k, doctored, 3, 0)
