"""Instance generation, perturbation, the brute-force oracle, and the search.

The oracle is itself cross-checked against a full enumeration written in the
test (no shared code, no fixed base point), and against its own former loop,
kept here as the reference for its exact answers.  The seeded draws of gen,
perturb and search are likewise checked against their former randrange
loops, and the sampler under gen and perturb against randrange and
randint.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from detequiv import lab
from detequiv.classd import check_class_d, class_d_ok
from detequiv.equivalence import _certify, _shared_rows, check_equivalence
from detequiv.errors import (
    ClassDViolation,
    GenerationBudgetExceeded,
    MixedCases,
    NotEquivalent,
    NotRecoverable,
)
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel
from detequiv.lab import (
    InstanceSpec,
    OracleResult,
    _draws,
    brute_force_diagonal_similar,
    gen_instance,
    perturb,
    search_counterexample,
)
from detequiv.recovery import recover

Q = Rationals()
F3 = PrimeField(3)
F7 = PrimeField(7)


# ------------------------------------------------------------- generation


def test_gen_instance_is_deterministic():
    spec = InstanceSpec(field=F7, n=4, transpose=True, zero_edges=1, seed=12)
    a = gen_instance(spec)
    b = gen_instance(spec)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2].gauge == b[2].gauge and a[2].transposed == b[2].transposed
    c = gen_instance(InstanceSpec(field=F7, n=4, transpose=True,
                                  zero_edges=1, seed=13))
    assert c[0] != a[0]


def test_gen_instance_truth_is_exact():
    for field in (F7, Q):
        for flip in (False, True):
            for zeros in (0, 1, 2):
                spec = InstanceSpec(field=field, n=5, transpose=flip,
                                    zero_edges=zeros, seed=31 + zeros)
                k, q, truth = gen_instance(spec)
                assert truth.transposed == flip
                source = k.transpose() if flip else k
                assert source.conjugate(truth.gauge) == q
                assert check_class_d(k).holds
                assert check_equivalence(k, q).equivalent


def test_gen_instance_places_requested_zeros():
    spec = InstanceSpec(field=F7, n=6, zero_edges=2, seed=77)
    k, _, _ = gen_instance(spec)
    off_diag_zeros = sum(1 for i in range(6) for j in range(6)
                         if i != j and k.rows[i][j] == 0)
    assert 2 <= off_diag_zeros <= 4


def test_gen_instance_validation():
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(field=F7, n=0))
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(field=F7, n=4, zero_edges=-1))
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(field=F7, n=4, zero_edges=3))


@pytest.mark.parametrize("attempts", [0, -4])
def test_gen_instance_rejects_a_budget_below_one(attempts):
    # with nothing tried, "no kernel found in 0 attempts" would blame the field
    with pytest.raises(ValueError, match="max_attempts >= 1"):
        gen_instance(InstanceSpec(field=F7, n=4, max_attempts=attempts))


def test_gen_instance_budget_exceeded_over_tiny_field():
    # off-diagonal entries over GF(2) are all 1, so every cross minor is
    # 1 - 1 = 0 and no draw can ever be accepted; gen refuses before a draw
    spec = InstanceSpec(field=PrimeField(2), n=4, seed=1, max_attempts=50)
    with pytest.raises(GenerationBudgetExceeded) as info:
        gen_instance(spec)
    assert info.value.attempts == 0


def test_gen_instance_refuses_at_once_where_no_draw_can_pass(monkeypatch):
    # from n = p + 2 on, two rows are units on more columns than GF(p) has
    # unit ratios, so some cross minor vanishes in every draw
    scans = []
    monkeypatch.setattr(lab, "class_d_ok",
                        lambda *a: scans.append(a) or class_d_ok(*a))
    for p, n in ((2, 4), (3, 5), (5, 7)):
        for zeros in range(3):
            spec = InstanceSpec(field=PrimeField(p), n=n, zero_edges=zeros,
                                seed=1)
            with pytest.raises(GenerationBudgetExceeded,
                               match="cross minor vanishes") as info:
                gen_instance(spec)
            assert info.value.attempts == 0
    assert scans == []
    k, q, _ = gen_instance(InstanceSpec(field=PrimeField(3), n=4, seed=1))
    assert scans and k.n == 4 and check_class_d(k).holds


# ---------------------------------------------- draws against randrange

_WIDTHS = [1, 2, 6, 7, 18, 19, 2**16 - 1, 2**16, 2**16 + 1, 2**32 + 1,
           3**16, 5**16]  # 2**16 is also p**16 for p = 2


def _slot(lo, width):
    return range(lo, lo + width), width, width.bit_length()


@pytest.mark.parametrize("width", _WIDTHS)
def test_draws_match_randrange_and_randint(width):
    # same values, and the generators end in the same state
    for seed in range(60):
        for lo in (0, 1, -9):
            mine, theirs = random.Random(seed), random.Random(seed)
            got = list(_draws(mine, [_slot(lo, width)] * 20))
            if seed % 2:
                want = [theirs.randint(lo, lo + width - 1) for _ in range(20)]
            else:
                want = [theirs.randrange(lo, lo + width) for _ in range(20)]
            assert got == want, (width, seed, lo)
            assert mine.random() == theirs.random()


def test_draws_match_randrange_over_mixed_slots():
    for seed in range(200):
        mine, theirs = random.Random(seed), random.Random(seed)
        widths = [_WIDTHS[(seed * 7 + t * 5) % len(_WIDTHS)] for t in range(30)]
        got = list(_draws(mine, [_slot(0, w) for w in widths]))
        assert got == [theirs.randrange(w) for w in widths]
        assert mine.random() == theirs.random()


def _former_value(rng, f):
    return rng.randrange(f.p) if f.kind == "prime" else rng.randint(-9, 9)


def _former_unit(rng, f):
    if f.kind == "prime":
        return rng.randrange(1, f.p)
    v = rng.randint(1, 18)
    return v - 10 if v <= 9 else v - 9  # uniform on -9..-1, 1..9


def _gen_reference(spec):
    # gen_instance's former loop: each entry a randrange/randint call, zero
    # edges placed as before; None when the budget runs out
    f, n = spec.field, spec.n
    rng = random.Random(spec.seed)
    for _ in range(spec.max_attempts):
        rows = [[_former_value(rng, f) if i == j else _former_unit(rng, f)
                 for j in range(n)] for i in range(n)]
        if spec.zero_edges:
            chosen = rng.sample(range(n), 2 * spec.zero_edges)
            for t in range(spec.zero_edges):
                u, v = chosen[2 * t], chosen[2 * t + 1]
                rows[u][v] = 0
                if rng.random() < 0.5:
                    rows[v][u] = 0
        if class_d_ok(f, rows):
            break
    else:
        return None
    labels = [str(i + 1) for i in range(n)]
    k = Kernel(f, labels, rows)
    gauge = Gauge(f, labels, [_former_unit(rng, f) for _ in range(n)])
    return k, (k.transpose() if spec.transpose else k).conjugate(gauge), gauge


def _perturb_reference(k, q, seed):
    # perturb's former loop
    f, n = k.field, k.n
    rng = random.Random(seed)
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        value = f.coerce(_former_value(rng, f))
        if value == q.rows[i][j]:
            continue
        rows = [list(row) for row in q.rows]
        rows[i][j] = value
        candidate = Kernel(f, k.labels, rows)
        if not check_equivalence(q, candidate, max_order=min(3, n)).equivalent:
            return candidate


_GEN_FIELDS = [PrimeField(2), F3, F7, PrimeField(101), PrimeField(1000003), Q]


@pytest.mark.parametrize("field", _GEN_FIELDS, ids=repr)
def test_gen_and_perturb_match_their_randrange_loops(field):
    made = 0
    for n in (1, 2, 3, 4, 5, 6):
        for flip in (False, True):
            for zeros in range(min(2, n // 2) + 1):
                for seed in range(10 if n < 4 else 4):
                    spec = InstanceSpec(field=field, n=n, transpose=flip,
                                        zero_edges=zeros, seed=seed,
                                        max_attempts=100)
                    want = _gen_reference(spec)
                    if want is None:
                        with pytest.raises(GenerationBudgetExceeded):
                            gen_instance(spec)
                        continue
                    k, q, truth = gen_instance(spec)
                    assert (k, q, truth.gauge) == want, (spec, k.rows)
                    assert perturb(k, q, seed) == _perturb_reference(k, q, seed)
                    made += 1
    assert made >= 100, made


def _search_reference(field, n, budget, seed):
    # search_counterexample's former draw, randrange(p^(n*n)) twice a sample,
    # with no screen before the full comparison; the (k, q) of every hit
    p = field.p
    rng = random.Random(seed)
    labels = [str(i + 1) for i in range(n)]
    pairs = []
    for _ in range(budget):
        k, q = (Kernel(field, labels, [[x // p ** (i * n + j) % p
                                        for j in range(n)] for i in range(n)])
                for x in (rng.randrange(p ** (n * n)), rng.randrange(p ** (n * n))))
        if (check_equivalence(k, q).equivalent
                and not brute_force_diagonal_similar(k, q).found):
            pairs.append(json.dumps([k.to_doc(), q.to_doc()]))
    return sorted(pairs)


@pytest.mark.parametrize("p, n, budget", [
    (2, 2, 300), (2, 3, 1500), (2, 4, 1500), (3, 3, 1500), (3, 4, 1000),
    (7, 3, 500), (101, 2, 300)])
def test_search_matches_its_randrange_loop(p, n, budget):
    for seed in range(3):
        hits = search_counterexample(PrimeField(p), n, budget, seed)
        got = sorted(json.dumps([h["k"], h["q"]]) for h in hits)
        assert got == _search_reference(PrimeField(p), n, budget, seed)


def _screen_reference(p, n, budget, seed):
    # search_counterexample's former screen on its randrange draws: equal
    # diagonals by a big-int division per diagonal slot, then equal pair
    # products on rows decoded one entry at a time; the (k, q) rows of
    # every pair that passes both
    rng = random.Random(seed)
    space = p ** (n * n)
    powers = [p ** t for t in range(n * n)]
    diag_slots = [powers[i * n + i] for i in range(n)]
    survivors = []
    for _ in range(budget):
        a, b = rng.randrange(space), rng.randrange(space)
        if any(a // s % p != b // s % p for s in diag_slots):
            continue
        arows, brows = ([[x // powers[i * n + j] % p for j in range(n)]
                         for i in range(n)] for x in (a, b))
        if any((arows[i][j] * arows[j][i] - brows[i][j] * brows[j][i]) % p
               for i in range(n) for j in range(i + 1, n)):
            continue
        survivors.append((arows, brows))
    return survivors


def _record_survivors(monkeypatch):
    # the (k, q) rows of every pair search_counterexample hands to the full
    # comparison, through lab's own binding of check_equivalence
    seen = []

    def recording(k, q, *args, **kwargs):
        seen.append(tuple([list(row) for row in m.rows] for m in (k, q)))
        return check_equivalence(k, q, *args, **kwargs)

    monkeypatch.setattr(lab, "check_equivalence", recording)
    return seen


@pytest.mark.parametrize("p, budget", [(2, 3000), (3, 3000), (7, 2000),
                                       (101, 1000)])
def test_search_screen_matches_the_division_screen(monkeypatch, p, budget):
    # pins lab.search.survivor_ratio: the digit screen lets through exactly
    # the pairs the former screen did, in the same order
    seen = _record_survivors(monkeypatch)
    total = 0
    for n in range(1, 6):
        for seed in range(4):
            seen.clear()
            search_counterexample(PrimeField(p), n, budget, seed)
            want = _screen_reference(p, n, budget, seed)
            assert len(seen) == len(want), (p, n, seed)
            assert seen == want, (p, n, seed)
            total += len(want)
    assert total, p


def _sample(p, rows):
    return sum(x * p ** t for t, x in enumerate(itertools.chain(*rows)))


def _plant(monkeypatch, values):
    # lab's random.Random becomes a stub whose getrandbits hands out values
    # in order; returns the list of widths it is asked for
    widths = []
    feed = iter(values)

    class Planted:
        def __init__(self, seed):
            pass

        def getrandbits(self, k):
            widths.append(k)
            return next(feed)

    monkeypatch.setattr(lab.random, "Random", Planted)
    return widths


@pytest.mark.parametrize("p", [2, 3])
def test_search_screens_planted_samples(monkeypatch, p):
    base = [[1, 1, 1],
            [0, 1, 1],
            [1, 1, 0]]

    def changed(i, j, value):
        rows = [list(row) for row in base]
        rows[i][j] = value
        return rows

    planted = {
        "equal": (base, base),
        # entry (2, 2) is the highest digit of the draw
        "top diagonal": (base, changed(2, 2, 1)),
        # entry (0, 1) sits just above diagonal digit 0; its partner (1, 0)
        # is zero, so both pair products stay zero
        "above a diagonal digit": (base, changed(0, 1, 0)),
        # entry (1, 2) moves the pair product k(1,2) k(2,1) from 1 to 0
        "pair product": (base, changed(1, 2, 0)),
    }
    pairs = list(planted.values())
    values = [_sample(p, rows) for pair in pairs for rows in pair]
    _plant(monkeypatch, values)
    seen = _record_survivors(monkeypatch)
    search_counterexample(PrimeField(p), 3, len(pairs), seed=0)
    reached = [name for name, pair in planted.items() if pair in seen]
    assert reached == ["equal", "above a diagonal digit"]
    assert len(seen) == 2

    # n = 1 has one digit, the diagonal, and no pairs to screen
    _plant(monkeypatch, [1, 1, 0, 1, 1, 0, p - 1, p - 1])
    seen.clear()
    search_counterexample(PrimeField(p), 1, 4, seed=0)
    assert seen == [([[1]], [[1]]), ([[p - 1]], [[p - 1]])]


@pytest.mark.parametrize("p", [2, 5])
def test_search_redraws_out_of_range_values(monkeypatch, p):
    # at n = 4 a draw is 17 bits wide over GF(2), one Mersenne Twister
    # word, and 38 bits over GF(5), two words
    n = 4
    space = p ** (n * n)
    bits = space.bit_length()
    top = space - 1  # every digit p - 1
    # each out-of-range value differs in entry (0, 0) from the value drawn
    # in its place, so a pair that used it would fail the diagonal screen
    values = [space, top, space + 2, top,
              space + 1, 2 ** bits - 1, 0, space + 1, 0]
    widths = _plant(monkeypatch, values)
    seen = _record_survivors(monkeypatch)
    search_counterexample(PrimeField(p), n, 2, seed=0)
    assert seen == [([[p - 1] * n] * n, [[p - 1] * n] * n),
                    ([[0] * n] * n, [[0] * n] * n)]
    assert widths == [bits] * len(values)


# ------------------------------------------------------------ perturbation


def test_perturb_moves_exactly_one_entry():
    rng = random.Random(61)
    for field in (F7, Q):
        for trial in range(15):
            k, q, _ = gen_instance(InstanceSpec(field=field, n=4,
                                                seed=100 + trial))
            bad = perturb(k, q, seed=trial)
            diffs = [(i, j) for i in range(4) for j in range(4)
                     if bad.rows[i][j] != q.rows[i][j]]
            assert len(diffs) == 1
            rep = check_equivalence(q, bad)
            assert not rep.equivalent
            assert len(rep.witness_subset) <= 3


def test_perturb_is_deterministic_and_breaks_the_pair():
    k, q, _ = gen_instance(InstanceSpec(field=Q, n=5, seed=8))
    assert perturb(k, q, seed=3) == perturb(k, q, seed=3)
    bad = perturb(k, q, seed=3)
    rep = check_equivalence(k, bad)
    assert not rep.equivalent
    assert len(rep.witness_subset) <= 3


# ------------------------------------------------------------- the oracle


def _full_enumeration(k, q):
    # all gauges, no base normalization, both flips; GF(3) keeps this tiny
    p = k.field.p
    n = k.n
    for transposed in (False, True):
        t = k.transpose() if transposed else k
        for values in itertools.product(range(1, p), repeat=n):
            g = Gauge(k.field, k.labels, list(values))
            if t.conjugate(g) == q:
                return True, transposed
    return False, None


def test_oracle_agrees_with_full_enumeration():
    rng = random.Random(62)
    agree = disagree = 0
    for _ in range(150):
        n = rng.randint(2, 3)
        labels = [str(i + 1) for i in range(n)]
        k = Kernel(F3, labels, [[rng.randrange(3) for _ in range(n)]
                                for _ in range(n)])
        if rng.random() < 0.5:
            g = Gauge(F3, labels, [rng.randrange(1, 3) for _ in range(n)])
            base = k.transpose() if rng.random() < 0.5 else k
            q = base.conjugate(g)
        else:
            q = Kernel(F3, labels, [[rng.randrange(3) for _ in range(n)]
                                    for _ in range(n)])
        res = brute_force_diagonal_similar(k, q)
        found, _ = _full_enumeration(k, q)
        assert res.found == found
        if found:
            target = k.transpose() if res.transposed else k
            assert target.conjugate(res.gauge) == q
            agree += 1
        else:
            disagree += 1
    assert agree > 20 and disagree > 20


def test_oracle_recovers_generated_instances():
    for flip in (False, True):
        k, q, _ = gen_instance(InstanceSpec(field=F3, n=4, transpose=flip,
                                            seed=40 + int(flip),
                                            max_attempts=2000))
        res = brute_force_diagonal_similar(k, q)
        assert res.found
        target = k.transpose() if res.transposed else k
        assert target.conjugate(res.gauge) == q


def _sparse_pair(p, n):
    # the identity against itself with one more entry, at the last point:
    # every prefix binds nothing until its last value, which always fails
    f = PrimeField(p)
    labels = [str(i + 1) for i in range(n)]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in rows]
    q[n - 2][n - 1] = 1
    return Kernel(f, labels, rows), Kernel(f, labels, q)


def test_oracle_enumeration_guard(monkeypatch):
    # the guard counts the closing entries the search checks, not
    # n (p-1)^(n-1), so a dense GF(101) pair at n = 5 answers, with
    # recover's flip and gauge
    k, q, _ = gen_instance(InstanceSpec(field=PrimeField(101), n=5, seed=2))
    res = brute_force_diagonal_similar(k, q)
    rec = recover(k, q)
    assert res.found
    assert (res.transposed, res.gauge) == (rec.transposed, rec.gauge)
    # the sparse pair tries every value at every depth, for both flips,
    # and a value at depth m is charged its m closing entries:
    # 2 (10·1 + 100·2 + 1000·3) entries at GF(11), n = 4
    k, q = _sparse_pair(11, 4)
    monkeypatch.setattr(lab, "_ENUMERATION_GUARD", 6420)
    assert brute_force_diagonal_similar(k, q) == OracleResult(False)
    monkeypatch.setattr(lab, "_ENUMERATION_GUARD", 6419)
    with pytest.raises(ValueError):
        brute_force_diagonal_similar(k, q)


def _enumerate_reference(k, q):
    # the oracle's former loop: every gauge with 1 at the first point, tails
    # in lexicographic order, the direct framework before the flipped one,
    # each candidate checked on all n^2 entries from scratch
    f = k.field
    p = f.p
    n = k.n
    targets = [(False, k.rows), (True, k.transpose().rows)]
    for tail in itertools.product(range(1, p), repeat=n - 1):
        g = (1,) + tail
        inv = [pow(v, p - 2, p) for v in g]
        for transposed, t_rows in targets:
            if all(g[i] * t_rows[i][j] * inv[j] % p == q.rows[i][j]
                   for i in range(n) for j in range(n)):
                return OracleResult(True, transposed,
                                    Gauge(f, k.labels, list(g)))
    return OracleResult(False)


def _random_rows(rng, p, n, zero_share, symmetric=False):
    rows = [[0 if rng.random() < zero_share else rng.randrange(1, p)
             for _ in range(n)] for _ in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
    return rows


def _disconnected_rows(rng, p, n):
    # two blocks with no entry between them, so the second block's gauge is
    # free up to a scale and p - 1 gauges fit every conjugate
    cut = rng.randint(1, n - 1)
    return [[rng.randrange(1, p) if (i < cut) == (j < cut) else 0
             for j in range(n)] for i in range(n)]


def _oracle_cases(rng, p, n):
    """(kind, k, q) pairs over GF(p) on n points, one or more of each kind."""
    f = PrimeField(p)
    labels = [str(i + 1) for i in range(n)]

    def conjugate(rows, flip):
        k = Kernel(f, labels, rows)
        g = Gauge(f, labels, [rng.randrange(1, p) for _ in range(n)])
        return k, (k.transpose() if flip else k).conjugate(g)

    cases = []
    for share in (0.5, 0.7, 0.9):
        for flip in (False, True):
            cases.append(("zero-heavy", *conjugate(
                _random_rows(rng, p, n, share), flip)))
    if n >= 2:
        for flip in (False, True):
            cases.append(("disconnected", *conjugate(
                _disconnected_rows(rng, p, n), flip)))
    for share in (0.0, 0.4):
        cases.append(("symmetric", *conjugate(
            _random_rows(rng, p, n, share, symmetric=True), rng.random() < 0.5)))
    k, q = conjugate(_random_rows(rng, p, n, 0.0), rng.random() < 0.5)
    rows = [list(r) for r in q.rows]
    i = rng.randrange(n)
    rows[i][i] = (rows[i][i] + rng.randrange(1, p)) % p
    cases.append(("diagonal", k, Kernel(f, labels, rows)))
    for share in (0.0, 0.5) if n >= 2 else ():
        k, q = conjugate(_random_rows(rng, p, n, share), rng.random() < 0.5)
        i, j = rng.sample(range(n), 2)
        rows = [list(r) for r in q.rows]
        rows[i][j] = (rows[i][j] + rng.randrange(1, p)) % p
        cases.append(("one-entry", k, Kernel(f, labels, rows)))
    return cases


def test_oracle_matches_reference_enumeration():
    rng = random.Random(64)
    seen = {}
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            for kind, k, q in _oracle_cases(rng, p, n):
                res = brute_force_diagonal_similar(k, q)
                assert res == _enumerate_reference(k, q), (kind, p, k.rows, q.rows)
                if res.found:
                    target = k.transpose() if res.transposed else k
                    assert target.conjugate(res.gauge) == q
                tally = seen.setdefault(kind, {"found": 0, "missed": 0})
                tally["found" if res.found else "missed"] += 1
                if kind == "symmetric":
                    # k = kᵀ, so both frameworks fit with the same gauges
                    assert res.found and res.transposed is False
                if kind == "diagonal":
                    assert not res.found
    assert seen["zero-heavy"]["found"] == 2 * 3 * 4 * 6
    assert seen["disconnected"]["found"] == 2 * 4 * 5
    assert seen["one-entry"]["missed"] >= 30


@pytest.mark.parametrize("p, n", [(101, 4), (31, 5), (11, 7)])
def test_oracle_reaches_the_guard_edge(p, n):
    # n (p-1)^(n-1), the unpruned count, is 4.0e6, 4.05e6 and 7e6; dense
    # pairs prune almost every prefix and charge at most 900 of the guard's
    # 10^6 closing entries, so they answer. The sparse pair binds nothing
    # before its last point and runs into the guard at each size.
    k, q = _sparse_pair(p, n)
    with pytest.raises(ValueError, match="the guard"):
        brute_force_diagonal_similar(k, q)
    f = PrimeField(p)
    labels = [str(i + 1) for i in range(n)]
    rng = random.Random(p * 100 + n)
    for trial in range(3):
        k = Kernel(f, labels, [[rng.randrange(1, p) for _ in range(n)]
                               for _ in range(n)])
        g = Gauge(f, labels, [rng.randrange(1, p) for _ in range(n)])
        direct = k.conjugate(g)
        flipped = k.transpose().conjugate(g)
        rows = [list(r) for r in flipped.rows]
        i, j = rng.sample(range(n), 2)
        rows[i][j] = (rows[i][j] + rng.randrange(1, p)) % p
        for q in (direct, flipped, Kernel(f, labels, rows)):
            res = brute_force_diagonal_similar(k, q)
            assert res.found == (_certify(k, q, _shared_rows(k, q))[0] is not None)
            if res.found:
                target = k.transpose() if res.transposed else k
                assert target.conjugate(res.gauge) == q


def test_oracle_rational_connected_cases_are_definite():
    for flip in (False, True):
        k, q, _ = gen_instance(InstanceSpec(field=Q, n=5, transpose=flip,
                                            seed=50 + int(flip)))
        res = brute_force_diagonal_similar(k, q)
        assert res.found
        target = k.transpose() if res.transposed else k
        assert target.conjugate(res.gauge) == q
    k, q, _ = gen_instance(InstanceSpec(field=Q, n=5, seed=52))
    bad = perturb(k, q, seed=1)
    res = brute_force_diagonal_similar(k, bad)
    assert not res.found


def test_oracle_rational_zero_mismatch_is_definite():
    block = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]
    dense = [[1, 2, 1, 1], [3, 4, 1, 1], [1, 1, 5, 6], [1, 1, 7, 8]]
    labels = list("abcd")
    res = brute_force_diagonal_similar(Kernel(Q, labels, block),
                                       Kernel(Q, labels, dense))
    assert not res.found


def test_oracle_rational_disconnected_miss_is_definite():
    block = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]
    other = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 12], [0, 0, 7, 8]]
    labels = list("abcd")
    k = Kernel(Q, labels, block)
    res = brute_force_diagonal_similar(k, Kernel(Q, labels, other))
    assert not res.found
    # the hit side of a disconnected pattern still counts
    g = Gauge(Q, labels, [2, 3, 5, 7])
    res = brute_force_diagonal_similar(k, k.conjugate(g))
    assert res.found
    target = k.transpose() if res.transposed else k
    assert target.conjugate(res.gauge) == k.conjugate(g)


def test_oracle_verdict_matches_recover_over_gf3():
    # mixed bag: conjugates, flipped conjugates, perturbations
    rng = random.Random(63)
    checked = 0
    for trial in range(40):
        flip = trial % 2 == 1
        k, q, _ = gen_instance(InstanceSpec(field=F3, n=4, transpose=flip,
                                            seed=900 + trial,
                                            max_attempts=5000))
        if trial % 3 == 2:
            q = perturb(k, q, seed=trial)
        res = brute_force_diagonal_similar(k, q)
        try:
            rec = recover(k, q)
            recovered = True
        except (NotEquivalent, ClassDViolation, MixedCases, NotRecoverable):
            recovered = False
        assert res.found == recovered
        if recovered:
            target = k.transpose() if rec.transposed else k
            assert target.conjugate(rec.gauge) == q
        checked += 1
    assert checked == 40


# ------------------------------------------------------------- the search


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_counterexample(Q, 4, 10, 0)
    with pytest.raises(ValueError):
        search_counterexample(F3, 0, 10, 0)
    with pytest.raises(ValueError):
        search_counterexample(F3, 4, -1, 0)


def test_search_is_deterministic_and_sorted():
    a = search_counterexample(PrimeField(2), 4, 30000, seed=9)
    b = search_counterexample(PrimeField(2), 4, 30000, seed=9)
    assert a == b
    assert a == sorted(a, key=lambda h: json.dumps(h, sort_keys=True))
    assert a  # GF(2) packs plenty of degenerate equivalent pairs


def test_search_hits_are_genuine_counterexamples():
    hits = search_counterexample(PrimeField(2), 4, 30000, seed=9)
    for hit in hits[:10]:
        k = Kernel.from_doc(hit["k"])
        q = Kernel.from_doc(hit["q"])
        assert check_equivalence(k, q).equivalent
        assert not brute_force_diagonal_similar(k, q).found
        holds_k = check_class_d(k).holds
        holds_q = check_class_d(q).holds
        assert hit["verdicts"]["cross_minors_nonzero_k"] == holds_k
        assert hit["verdicts"]["cross_minors_nonzero_q"] == holds_q
        assert not (holds_k and holds_q)


def _rank_mod(rows, p):
    """Rank over GF(p) by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c] * inv
                rows[r] = [(a - f * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _loewy_condition(kern):
    """Loewy's hypothesis (LAA 78, 1986): k is irreducible, and every split
    alpha|beta with |alpha|, |beta| >= 2 has rank >= 2 on k[alpha, beta] or
    on k[beta, alpha]."""
    n, p, rows = kern.n, kern.field.p, kern.rows
    for size in range(1, n):
        for alpha in itertools.combinations(range(n), size):
            beta = [j for j in range(n) if j not in alpha]
            # k[alpha, beta] = 0 makes k reducible
            if not any(rows[i][j] for i in alpha for j in beta):
                return False
            if size < 2 or len(beta) < 2 or 0 not in alpha:
                continue
            ranks = [_rank_mod([[rows[i][j] for j in c] for i in r], p)
                     for r, c in ((alpha, beta), (beta, alpha))]
            if max(ranks) <= 1:
                return False
    return True


def test_loewy_condition_helpers():
    assert _rank_mod([[1, 2], [2, 4]], 7) == 1
    assert _rank_mod([[1, 2], [2, 4]], 2) == 1
    assert _rank_mod([[1, 0], [0, 1]], 2) == 2
    assert _rank_mod([[0, 0], [0, 0]], 3) == 0
    # a block upper-triangular kernel is reducible
    assert not _loewy_condition(Kernel(F3, "abcd", [
        [1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]]))
    # a rank-one cut on both sides of {a, b} | {c, d}
    assert not _loewy_condition(Kernel(F3, "abcd", [
        [1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 1, 1], [2, 2, 1, 1]]))
    # every off-diagonal 2x2 cross minor nonzero: property D implies it
    k = Kernel(F7, "abcd", [[0, 1, 1, 1], [1, 0, 2, 3], [1, 4, 0, 2],
                           [1, 2, 5, 0]])
    assert check_class_d(k).holds and _loewy_condition(k)


def test_search_hits_fail_loewy_condition():
    # Loewy's rigidity theorem: two kernels with equal principal minors, one
    # of them satisfying the condition, are gauge conjugates, flipped or not
    # (n >= 4, proved over the reals); every search hit must fail it on
    # both sides, a sharper tripwire than property D.  The n = 5 hits go
    # through the walk of bordered minors
    for seed in (2, 3, 5):
        for p, n, budget in ((2, 4, 200000), (2, 5, 200000), (3, 4, 400000)):
            hits = search_counterexample(PrimeField(p), n, budget, seed=seed)
            assert hits, (p, n, seed)
            for hit in hits:
                for side in ("k", "q"):
                    assert not _loewy_condition(Kernel.from_doc(hit[side])), (
                        p, n, seed, hit)


def test_search_empty_result_is_normal():
    assert search_counterexample(F7, 4, 50, seed=0) == []


def test_search_below_four_points_returns_hits():
    # the rigidity theorem needs n >= 4; below that the cross-minor scan
    # holds vacuously, so an unexplained equivalent pair is a plain hit
    hits = search_counterexample(PrimeField(2), 3, 3000, 1)
    assert hits
    for hit in hits[:10]:
        k = Kernel.from_doc(hit["k"])
        q = Kernel.from_doc(hit["q"])
        assert check_equivalence(k, q).equivalent
        assert not brute_force_diagonal_similar(k, q).found
