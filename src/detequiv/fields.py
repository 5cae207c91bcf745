"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Field objects hold the conversions of values and the few operations the
package calls on them; the values themselves stay plain Python objects in a
canonical form (Fraction in lowest terms, int in [0, p)), so equality of
values is plain ``==``, a value prints with ``str`` and is zero exactly
when it is falsy.  Determinants are computed one way for both: on
integer rows, eliminated fraction-free (``determinant``).

A kernel document is read a row at a time (``parse_row``) to integers and
a scale D: over Q each literal's value times D, the lcm of the row's
denominators, with no Fraction built; over GF(p) the values, with D = 1.
"""

import math
from fractions import Fraction

MAX_PRIME = 2**31


def _is_integer(text):
    """Whether text is decimal digits after at most one sign, as
    ``[+-]?\\d+\\Z`` matches: ``\\d`` and ``str.isdecimal`` admit the same
    code points, and ``int`` reads every one of them."""
    return text.isdecimal() or (text[:1] in ("+", "-")
                                and text[1:].isdecimal())


def is_prime(p):
    """Deterministic Miller-Rabin; bases 2,3,5,7 are exact below 3.2e9."""
    if p < 2:
        return False
    for small in (2, 3, 5, 7):
        if p % small == 0:
            return p == small
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; values are Fractions in lowest terms."""

    kind = "rational"
    one = Fraction(1)
    nonzero = bool   # see PrimeField.nonzero

    def coerce(self, value):
        """Admit Fractions and ints; anything else is a type error."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise TypeError(f"not a rational value: {value!r}")

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return Fraction(a, b)

    def inv(self, a):
        return Fraction(1) / a

    def parse_row(self, cells):
        """A row of literals "a" or "a/b", decimal digits with a sign on a
        alone, as (integers, D): D is the lcm of the literals'
        denominators, and each integer is its value times D.  No Fraction
        is built, and no literal is reduced to lowest terms."""
        nums, dens = [], []
        for text in cells:
            if isinstance(text, str):
                num, slash, den = text.partition("/")
                if _is_integer(num) and (not slash or den.isdecimal()):
                    den = int(den) if slash else 1
                    if den == 0:
                        raise ValueError(f"zero denominator: {text!r}")
                    nums.append(int(num))
                    dens.append(den)
                    continue
            raise ValueError(f"bad rational literal: {text!r}")
        d = math.lcm(*dens)
        return tuple([a * (d // b) for a, b in zip(nums, dens)]), d

    def values(self, row, scale):
        """The field values of an integer row with scale D: each entry / D."""
        return tuple([Fraction(a, scale) for a in row])

    def to_doc(self):
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """GF(p) for a prime p < 2**31; values are ints reduced into [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"prime modulus must be an int, got {p!r}")
        if not 2 <= p < MAX_PRIME:
            raise ValueError(f"modulus out of range [2, 2**31): {p}")
        if not is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.p = p
        self.one = 1
        # nonzero(x) is truthy exactly when the integer x is a nonzero field
        # value: x mod p here, x itself over Q.  Both are builtins, so a
        # test in a scan's inner loop runs no Python frame.
        self.nonzero = p.__rmod__

    def coerce(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise TypeError(f"not a GF({self.p}) value: {value!r}")

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def parse(self, text):
        """Decimal integers, optionally signed, reduced mod p."""
        if not isinstance(text, str) or not _is_integer(text):
            raise ValueError(f"bad GF({self.p}) literal: {text!r}")
        return int(text) % self.p

    def parse_row(self, cells):
        """A row of literals as (integers, 1): here the integers are the
        field values themselves."""
        return tuple(map(self.parse, cells)), 1

    def to_doc(self):
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_doc(doc):
    """Build a field from its JSON form: {"kind": "rational"} or {"kind": "prime", "p": 7}."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"bad field document: {doc!r}")
    if doc["kind"] == "rational":
        return Rationals()
    if doc["kind"] == "prime":
        p = doc.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"prime field needs an integer 'p', got {p!r}")
        return PrimeField(p)
    raise ValueError(f"unknown field kind: {doc['kind']!r}")


def determinant(field, rows):
    """Exact determinant of a square matrix of field values.

    The empty matrix has determinant one.  Over both kinds of field the rows
    are taken to integers (``integer_rows``) and eliminated fraction-free
    (Bareiss), and the result is divided by the row scales in the field,
    which over GF(p) reduces it mod p.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 0:
        return field.one
    (scaled,), scales = integer_rows(field, rows)
    det = _det_int_bareiss([list(row) for row in scaled])
    return field.div(det, math.prod(scales))


def integer_rows(field, *matrices):
    """The matrices as integer rows whose minors compare exactly, and the scales.

    Over GF(p) the values already are ints and stay as they are; a product
    of them is reduced once, when it is compared.  Over Q row i of every
    matrix is multiplied by one shared D_i, the lcm of the denominators in
    row i of all of them.  Each term of a determinant takes exactly one
    entry from each row, so every minor, and every cross minor, on rows S
    of each matrix is scaled by the same product of D_i over S, and the
    scaled values compare as the unscaled ones do.  Returns the scaled
    matrices and the list of D_i (all ones over GF(p)).
    """
    n = len(matrices[0])
    if field.kind == "prime":
        return matrices, [1] * n
    scales = [math.lcm(*(e.denominator for m in matrices for e in m[i]))
              for i in range(n)]
    scaled = tuple([[e.numerator * (d // e.denominator) for e in m[i]]
                    for i, d in enumerate(scales)] for m in matrices)
    return scaled, scales


def _det_int_bareiss(m):
    """Fraction-free elimination; every division below is exact."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]
