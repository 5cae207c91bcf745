"""recover solves by gauge propagation alone; the ratio table is the reference.

The paper's constructive route builds the ratio table, checks its cocycle
laws and reads the gauge off it.  recover instead pushes the gauge along
nonzero entries and re-checks it.  The differential tests below pin the two
together, and pin that a verified certificate lets recover scan property D
on k alone.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from detequiv.classd import check_class_d
from detequiv.equivalence import _propagate_gauge
from detequiv.errors import BranchUnavailable
from detequiv.fields import PrimeField, Rationals, integer_rows
from detequiv.kernels import Gauge, Kernel
from detequiv.lab import InstanceSpec, _place_zeros, gen_instance, perturb
from detequiv.recovery import build_cocycle_case1, recover, verify_cocycle
from reference_audits import extract_gauge

from test_recover_flip import _value

F101 = PrimeField(101)
BIG = PrimeField(1000003)
Q = Rationals()


def _labels(n):
    return [str(i + 1) for i in range(n)]


def _refits(target, q, gauge):
    return gauge is not None and target.conjugate(gauge) == q


def _solve(k, q, base, transposed):
    """The propagated gauge carrying k, or kᵀ, onto q, or None.

    It solves qr = h t h^(-1) on k's integer rows, with t = kr or its
    columns, and h = D g in the flipped framework, D the row scales.
    """
    (kr, qr), scales = integer_rows(k.field, k.rows, q.rows)
    t_rows = list(zip(*kr)) if transposed else kr
    start = scales if transposed else [1] * k.n
    h = _propagate_gauge(k.field, t_rows, qr, base, start)
    if h is None:
        return None
    return Gauge(k.field, k.labels,
                 [k.field.div(x, d) for x, d in zip(h, start)])


def _assert_solves_agree(k, q, base, transposed):
    """Propagation finds the table's gauge, and nothing where the table fails.

    The table is built on the target, k or an explicit kᵀ; propagation
    runs on k's integer rows in the matching framework.  The table fails
    to build only where a branch meets a zero.  Either the zero layouts
    differ, and propagation finds nothing, or a doubly-zero pair shares a
    row or a column with another zero, which makes a cross minor vanish:
    then propagation may still fit a gauge, but the target lacks property
    D, and recover refuses it either way.  Returns which of these held:
    "table", "degenerate" or "neither".
    """
    target = k.transpose() if transposed else k
    gauge = _solve(k, q, base, transposed)
    try:
        cocycle = build_cocycle_case1(target, q)
    except BranchUnavailable:
        if _refits(target, q, gauge):
            assert target.n >= 4 and not check_class_d(target).holds
            return "degenerate"
        return "neither"
    if verify_cocycle(cocycle).ok:
        reference = extract_gauge(cocycle, base)
        if target.conjugate(reference) == q:
            assert gauge == reference
            return "table"
    assert not _refits(target, q, gauge)
    return "neither"


def _wide_rational_pair(rng, n, flip, zeros):
    # gen_instance over Q rejects nearly every draw past n = 8, where its
    # small entries make some cross minor vanish; wide entries rarely do
    rows = [[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
             if i == j else Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
             for j in range(n)] for i in range(n)]
    _place_zeros(rng, rows, n, zeros)
    k = Kernel(Q, _labels(n), rows)
    gauge = Gauge(Q, k.labels, [_value(rng, Q, True) for _ in range(n)])
    return k, (k.transpose() if flip else k).conjugate(gauge)


def test_propagation_matches_the_cocycle_on_generated_positives():
    # gen_instance reaches n = 9 over GF(101) and n = 8 over Q in test time
    pairs = []
    for field, sizes in ((F101, range(4, 10)), (BIG, range(4, 13)),
                         (Q, range(4, 9))):
        for n, flip, zeros in itertools.product(sizes, (False, True), range(3)):
            pairs.append(gen_instance(InstanceSpec(
                field=field, n=n, transpose=flip, zero_edges=zeros,
                seed=100 * n + 10 * zeros + flip))[:2])
    rng = random.Random(20261018)
    for n, flip, zeros in itertools.product(range(9, 13), (False, True),
                                            range(3)):
        pairs.append(_wide_rational_pair(rng, n, flip, zeros))
    for k, q in pairs:
        base = min(range(k.n), key=lambda i: k.labels[i])
        fits = [_assert_solves_agree(k, q, base, transposed)
                for transposed in (False, True)]
        assert "table" in fits


def test_propagation_matches_the_cocycle_on_random_kernels():
    rng = random.Random(77)
    fields = (PrimeField(2), PrimeField(3), PrimeField(7), Q)
    kinds = Counter()
    outcomes = Counter()
    for case in range(1200):
        field = rng.choice(fields)
        n = rng.randint(4, 8)
        share = rng.choice((0.0, 0.2, 0.4, 0.6))
        k = Kernel(field, _labels(n), [
            [0 if i != j and rng.random() < share else _value(rng, field)
             for j in range(n)] for i in range(n)])
        gauge = Gauge(field, k.labels,
                      [_value(rng, field, True) for _ in range(n)])
        kind = rng.choice(("gauge", "flip", "perturb"))
        q = (k.transpose() if kind == "flip" else k).conjugate(gauge)
        if kind == "perturb":
            q = perturb(k, q, seed=case)
        kinds[kind] += 1
        base = rng.randrange(n)
        for transposed in (False, True):
            outcomes[_assert_solves_agree(k, q, base, transposed)] += 1
    assert min(kinds.values()) > 300
    assert min(outcomes.values()) > 100, outcomes


def _counting_class_d(monkeypatch):
    scanned = []

    def counting(kern):
        scanned.append(kern)
        return check_class_d(kern)

    monkeypatch.setattr("detequiv.recovery.check_class_d", counting)
    return scanned


def test_positive_recover_scans_property_d_on_k_only(monkeypatch):
    scanned = _counting_class_d(monkeypatch)
    for field, n, flip, zeros in itertools.product(
            (F101, BIG, Q), (4, 6, 8), (False, True), range(3)):
        k, q, _ = gen_instance(InstanceSpec(
            field=field, n=n, transpose=flip, zero_edges=zeros,
            seed=100 * n + 10 * zeros + flip))
        scanned.clear()
        assert recover(k, q).transposed is flip
        assert len(scanned) == 1 and scanned[0] is k


def _degenerate_kernel(rng, n):
    # as test_degenerate_positive_refused_without_a_high_minor: the cross
    # minor on rows {x, w} and columns {y, z} vanishes
    rows = [[rng.randrange(1, BIG.p) for _ in range(n)] for _ in range(n)]
    x, w = sorted(rng.sample(range(n), 2))
    y, z = sorted(rng.sample([i for i in range(n) if i not in (x, w)], 2))
    rows[w][z] = BIG.div(BIG.mul(rows[x][z], rows[w][y]), rows[x][y])
    return Kernel(BIG, _labels(n), rows)


@pytest.mark.parametrize("n, flip", itertools.product((6, 7), (False, True)))
def test_gauge_partners_of_a_degenerate_kernel_are_degenerate(n, flip):
    rng = random.Random(10 * n + flip)
    for _ in range(20):
        k = _degenerate_kernel(rng, n)
        assert not check_class_d(k).holds
        gauge = Gauge(BIG, k.labels, [rng.randrange(1, BIG.p) for _ in range(n)])
        q = (k.transpose() if flip else k).conjugate(gauge)
        assert not check_class_d(q).holds


def test_gauge_partners_share_the_property_d_verdict():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(400):
        field = rng.choice((PrimeField(3), PrimeField(7), F101, Q))
        n = rng.randint(4, 7)
        share = rng.choice((0.0, 0.1, 0.3))
        k = Kernel(field, _labels(n), [
            [0 if i != j and rng.random() < share else _value(rng, field, True)
             for j in range(n)] for i in range(n)])
        gauge = Gauge(field, k.labels,
                      [_value(rng, field, True) for _ in range(n)])
        holds = check_class_d(k).holds
        for source in (k, k.transpose()):
            assert check_class_d(source.conjugate(gauge)).holds is holds
        verdicts.add(holds)
    assert verdicts == {False, True}
