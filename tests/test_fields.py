"""Field arithmetic, literal parsing, and the exact determinant.

The determinant is checked against an independent cofactor-expansion oracle
written here, never against itself.
"""

import random
import re
from fractions import Fraction

import pytest

from detequiv.fields import (
    MAX_PRIME,
    PrimeField,
    Rationals,
    determinant,
    field_from_doc,
    is_prime,
)

Q = Rationals()
F7 = PrimeField(7)


def _det_cofactor(field, rows):
    # oracle: expansion along the first row, O(n!) but independent
    n = len(rows)
    if n == 0:
        return field.one
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [[rows[i][jj] for jj in range(n) if jj != j]
                 for i in range(1, n)]
        term = field.mul(rows[0][j], _det_cofactor(field, minor))
        total = field.coerce(total + term if j % 2 == 0 else total - term)
    return total


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_rational_ops_frozen_values():
    assert Q.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert Q.div(Fraction(7), Fraction(2)) == Fraction(7, 2)
    assert Q.inv(Fraction(-3, 5)) == Fraction(-5, 3)
    assert not Q.mul(Fraction(0), Fraction(1, 9)) and Q.inv(Fraction(1, 9))


def test_rational_ops_on_ints_stay_exact():
    # coerce admits ints as rational values, so every operation must treat
    # them as such: the Fraction result, never a float (div(1, 2) != 0.5)
    binary = {Q.mul: Fraction.__mul__, Q.div: Fraction.__truediv__}
    unary = {Q.inv: lambda a: 1 / a}
    values = [-7, -2, -1, 0, 1, 2, 3, 12]
    for a in values:
        for b in values:
            for x, y in ((a, b), (Fraction(a), b), (a, Fraction(b))):
                for op, exact in binary.items():
                    if op == Q.div and b == 0:
                        with pytest.raises(ZeroDivisionError):
                            op(x, y)
                        continue
                    got = op(x, y)
                    assert not isinstance(got, float), (op, x, y)
                    assert got == exact(Fraction(a), Fraction(b)), (op, x, y)
        for op, exact in unary.items():
            if op == Q.inv and a == 0:
                with pytest.raises(ZeroDivisionError):
                    op(a)
                continue
            got = op(a)
            assert not isinstance(got, float), (op, a)
            assert got == exact(Fraction(a)), (op, a)
    assert Q.div(1, 2) == Fraction(1, 2) and isinstance(Q.div(1, 2), Fraction)
    assert not Q.coerce(0) and Q.coerce(5)


def test_prime_ops_frozen_values():
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.div(1, 3) == 5
    assert F7.one == 1 and not F7.coerce(7)


def test_nonzero_tests_unreduced_integers():
    # the scans' zero test on integer minors and products, never reduced
    # first: by residue over GF(p), as they are over Q
    for p in (2, 7, 2**31 - 1):
        f = PrimeField(p)
        for x in (0, 1, -1, p, -p, 3 * p + 2, p * p, -(p ** 5) - 1):
            assert bool(f.nonzero(x)) is (x % p != 0), (p, x)
    assert not Q.nonzero(0) and Q.nonzero(-4) and Q.nonzero(7**40)


def test_prime_ops_randomized_axioms():
    rng = random.Random(11)
    fields = [PrimeField(2), PrimeField(3), F7, PrimeField(101)]
    for f in fields:
        for _ in range(200):
            a = rng.randrange(f.p)
            b = rng.randrange(f.p)
            c = rng.randrange(f.p)
            assert f.coerce(a + f.coerce(-a)) == 0
            assert f.mul(a, f.coerce(b + c)) == f.coerce(f.mul(a, b) + f.mul(a, c))
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
                assert f.div(f.mul(a, b), a) == b


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Q.div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F7.div(3, 0)



def test_prime_inverse_matches_fermat():
    # inv is pow(a, -1, p); Fermat's a^(p-2) is the independent value
    small = [p for p in range(2, 102) if is_prime(p)]
    for p in small:
        f = PrimeField(p)
        for a in range(1, p):
            assert f.inv(a) == pow(a, p - 2, p), (p, a)
    rng = random.Random(12)
    for p in (1000003, 2**31 - 1):
        f = PrimeField(p)
        for _ in range(1000):
            a = rng.randrange(1, p)
            assert f.inv(a) == pow(a, p - 2, p), (p, a)
        # unreduced arguments, as integer rows hand them over
        for a in (-1, p + 1, -(3 * p) - 2, p * p + 5):
            assert f.inv(a) == pow(a % p, p - 2, p), (p, a)


def test_prime_inverse_of_a_multiple_of_p_raises():
    for p in (2, 7, 101, 1000003, 2**31 - 1):
        f = PrimeField(p)
        for a in (0, p, -p, 5 * p, p * p):
            with pytest.raises(ZeroDivisionError,
                               match=re.escape(f"inverse of 0 in GF({p})")):
                f.inv(a)

def test_prime_modulus_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(-7)
    with pytest.raises(ValueError):
        PrimeField(MAX_PRIME)  # 2**31 is out of range before primality matters
    with pytest.raises(TypeError):
        PrimeField("7")
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # largest admissible prime


def test_is_prime_spot_checks():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    assert not is_prime(46337 * 46337)  # just below 2**31
    assert not any(is_prime(p) for p in range(-3, 2))


def test_rational_parse_and_format():
    assert Q.parse_row(["3/4", "-3/4", "+5", "0"]) == ((3, -3, 20, 0), 4)
    # values canonicalize; str emits lowest terms, denominator 1 dropped
    assert [str(v) for v in Q.values(*Q.parse_row(["6/4", "-8/2"]))] == [
        "3/2", "-4"]
    for text in ("3/2", "-3/2", "17", "0", "-4"):
        assert str(Q.values(*Q.parse_row([text]))[0]) == text


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/0", "3/-2", "1/2/3", "1 /2", "0x3"])
def test_rational_parse_rejects(bad):
    with pytest.raises(ValueError):
        Q.parse_row([bad])


def test_prime_parse_and_format():
    assert F7.parse_row(["12", "-1", "+3"]) == ((5, 6, 3), 1)
    ((zero,), _) = F7.parse_row(["700"])
    assert str(zero) == "0"
    with pytest.raises(ValueError, match="bad GF"):
        F7.parse_row(["1", "1/2"])
    with pytest.raises(ValueError, match="bad GF"):
        F7.parse_row(["seven"])


_INTEGER_RE = re.compile(r"[+-]?\d+\Z")
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


def _regex_parse(field, text):
    """The literal parsers as regular expressions wrote them: the value,
    or the error text."""
    if field.kind == "prime":
        if not isinstance(text, str) or not _INTEGER_RE.match(text):
            return f"bad GF({field.p}) literal: {text!r}"
        return int(text) % field.p
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        return f"bad rational literal: {text!r}"
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        return f"zero denominator: {text!r}"
    return Fraction(int(num), int(den))


def _outcome(field, text):
    """A one-literal row as parse_row reads it: the value, or the error text."""
    try:
        (num,), den = field.parse_row((text,))
    except ValueError as exc:
        return str(exc)
    return Fraction(num, den)


def test_cell_validation_matches_the_regex():
    # \d and str.isdecimal admit the same code points, every one of which
    # int() reads, so isdecimal after one optional sign accepts what the
    # regular expression did, with the same values and error texts
    every = "".join(map(chr, range(0x110000)))
    digits = re.findall(r"\d", every)
    assert digits == [c for c in every if c.isdecimal()]
    assert all(0 <= int(c) <= 9 for c in digits)
    rng = random.Random(23)
    points = rng.sample(range(0x110000), 1500) + [ord(rng.choice(digits))
                                                  for _ in range(500)]
    texts = ["+", "-", "", "1\n", " 1", "1_0", "٣٤", "１２", "1/", "/1",
             "1/-2", "1/+2", "+-1", "--1", "1/0", "-0/5", "٣/٠", "+007/010",
             "1/2/3", "１２/٣٤", "²", "1/²", "½", "Ⅻ", 7, None, 1.5, ["1"]]
    for point in points:
        c = chr(point)
        texts += [c, "+" + c, "-" + c, c + c, "1" + c, c + "/1", "1/" + c,
                  "-" + c + "/" + c]
    for field in (Q, F7, PrimeField(1000003)):
        for text in texts:
            assert _outcome(field, text) == _regex_parse(field, text), \
                (field, text)


def test_coerce_canonicalizes_and_rejects():
    assert Q.coerce(3) == Fraction(3)
    assert F7.coerce(-1) == 6
    assert F7.coerce(12) == 5
    with pytest.raises(TypeError):
        Q.coerce(0.5)
    with pytest.raises(TypeError):
        F7.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        Q.coerce(True)


def test_field_equality_and_docs():
    assert Rationals() == Rationals()
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert Rationals() != PrimeField(7)
    assert field_from_doc({"kind": "rational"}) == Q
    assert field_from_doc({"kind": "prime", "p": 11}) == PrimeField(11)
    assert field_from_doc(Q.to_doc()) == Q
    assert field_from_doc(F7.to_doc()) == F7
    with pytest.raises(ValueError):
        field_from_doc({"kind": "real"})
    with pytest.raises(ValueError):
        field_from_doc({"kind": "prime"})


def test_field_public_names_are_pinned():
    # a value is zero exactly when falsy and prints with str, so neither
    # field carries a method both would implement alike
    def public(field):
        return sorted(name for name in dir(field) if not name.startswith("_"))
    assert public(Rationals()) == ["coerce", "div", "inv", "kind", "mul",
                                   "nonzero", "one", "parse_row", "to_doc",
                                   "values"]
    assert public(PrimeField(7)) == ["coerce", "div", "inv", "kind", "mul",
                                     "nonzero", "one", "p", "parse_row",
                                     "to_doc"]


def test_determinant_frozen_values():
    assert determinant(Q, []) == Fraction(1)
    assert determinant(F7, []) == 1
    assert determinant(F7, [[2, 3], [4, 5]]) == 5  # 10 - 12 = -2 = 5 mod 7
    assert determinant(Q, [[Fraction(1, 2)]]) == Fraction(1, 2)
    assert determinant(
        Q, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    ) == Fraction(1, 60)  # 1/10 - 1/12


def test_determinant_matches_cofactor_oracle_rational():
    rng = random.Random(101)
    for n in range(6):
        for _ in range(40):
            rows = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
            assert determinant(Q, rows) == _det_cofactor(Q, rows)


def test_determinant_matches_cofactor_oracle_prime():
    rng = random.Random(102)
    for f in (PrimeField(2), PrimeField(3), F7, PrimeField(101),
              PrimeField(1000003), PrimeField(2147483647)):
        for n in range(6):
            for _ in range(40):
                rows = [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)]
                assert determinant(f, rows) == _det_cofactor(f, rows)


def test_determinant_singular_structured():
    rng = random.Random(103)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
        rows[n - 1] = list(rows[0])  # repeated row
        assert determinant(Q, rows) == 0
    zero3 = [[Fraction(0)] * 3 for _ in range(3)]
    assert determinant(Q, zero3) == 0


def test_determinant_transpose_and_product_properties():
    rng = random.Random(104)
    for f in (Q, F7):
        for _ in range(30):
            n = rng.randint(1, 4)
            if f is Q:
                a = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
                b = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
            else:
                a = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
                b = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
            at = [[a[j][i] for j in range(n)] for i in range(n)]
            assert determinant(f, at) == determinant(f, a)
            ab = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    s = 0
                    for t in range(n):
                        s = f.coerce(s + f.mul(a[i][t], b[t][j]))
                    ab[i][j] = s
            assert determinant(f, ab) == f.mul(determinant(f, a), determinant(f, b))


def test_determinant_rejects_ragged():
    with pytest.raises(ValueError):
        determinant(Q, [[Fraction(1), Fraction(2)], [Fraction(3)]])
