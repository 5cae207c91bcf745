"""recover proves positives by the certificate; high orders only refute.

Conjugating by a gauge and transposing both preserve every principal minor,
so a certificate that passes the entrywise re-check proves equivalence.
recover compares the minors up to order two, solves, and scans the higher
orders only after both solves fail; the tests below pin that, and that the
verdicts still match the order in which the full scan came first.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from detequiv import equivalence
from detequiv.classd import check_class_d
from detequiv.equivalence import check_equivalence
from detequiv.errors import ClassDViolation, NotEquivalent, NotRecoverable
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel
from detequiv.lab import InstanceSpec, gen_instance, perturb
from detequiv.recovery import recover

from test_equivalence import _five_cycle_pair, _plain_certify, _plain_report
from test_recover_flip import _outcome, _table_first_recover, _value

F101 = PrimeField(101)
BIG = PrimeField(1000003)
Q = Rationals()


@pytest.fixture
def minor_orders(monkeypatch):
    """Record the order of every principal minor computed."""
    orders = []
    minor = Kernel.principal_minor

    def recording(self, indices):
        idx = tuple(indices)
        orders.append(len(idx))
        return minor(self, idx)

    monkeypatch.setattr(Kernel, "principal_minor", recording)
    return orders


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Count recover's calls of check_equivalence and of the gauge solve."""
    calls = {"scan": 0, "solve": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("detequiv.recovery.check_equivalence",
                        counting("scan", check_equivalence))
    monkeypatch.setattr("detequiv.equivalence._propagate_gauge",
                        counting("solve", equivalence._propagate_gauge))
    return calls


def _labels(n):
    return [str(i + 1) for i in range(n)]


def _units(rng, field, n):
    return [rng.randrange(1, field.p) for _ in range(n)]


def test_positive_recover_computes_no_minor_above_order_three(minor_orders):
    # rejection sampling over Q needs about 20 s for six draws at n = 9
    sizes = ((F101, range(5, 10)), (BIG, range(5, 10)), (Q, range(5, 9)))
    pairs = []
    for field, ns in sizes:
        for n, transpose, zeros in itertools.product(ns, (False, True),
                                                     range(3)):
            k, q, _ = gen_instance(InstanceSpec(
                field=field, n=n, transpose=transpose, zero_edges=zeros,
                seed=100 * n + 10 * zeros + transpose))
            pairs.append((k, q))
    for k, q in pairs:
        res = recover(k, q)
        target = k.transpose() if res.transposed else k
        assert target.conjugate(res.gauge) == q
    assert minor_orders == []


@pytest.mark.parametrize("n, flip", itertools.product((6, 7), (False, True)))
def test_degenerate_positive_refused_without_a_high_minor(minor_orders, n, flip):
    # as the benchmark's neg_degenerate pair: K(w, z) = K(x, z) K(w, y) / K(x, y)
    # makes the cross minor on rows {x, w} and columns {y, z} vanish
    rng = random.Random(10 * n + flip)
    rows = [_units(rng, BIG, n) for _ in range(n)]
    x, w = sorted(rng.sample(range(n), 2))
    y, z = sorted(rng.sample([i for i in range(n) if i not in (x, w)], 2))
    rows[w][z] = BIG.div(BIG.mul(rows[x][z], rows[w][y]), rows[x][y])
    k = Kernel(BIG, _labels(n), rows)
    q = (k.transpose() if flip else k).conjugate(
        Gauge(BIG, k.labels, _units(rng, BIG, n)))
    crep = check_class_d(k)
    assert not crep.holds
    with pytest.raises(ClassDViolation) as info:
        recover(k, q)
    assert info.value.args == ("the first kernel has a vanishing cross minor "
                               f"at {crep.witness_labels!r}",)
    assert info.value.kernel_role == "first"
    assert info.value.witness == crep.witness
    assert minor_orders == []


def _swapped_pair(seed, degenerate, n=6):
    """A near-symmetric kernel and a conjugate of it with one pair swapped.

    k is symmetric but for the pairs (4, 5) and (2, 3).  Swapping k(4, 5)
    with k(5, 4) keeps every minor up to order three, since every point
    meets 4 and 5 symmetrically, and moves a minor of order four.  With
    degenerate set, the cross minor on rows {0, 1} and columns {2, 3} is
    forced to vanish in both kernels; that keeps 4 and 5 out of it, so
    orders up to three still match.
    """
    rng = random.Random(seed)
    rows = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        rows[i][j] = rows[j][i] = rng.randrange(1, BIG.p)
    rows[4][5] = rng.randrange(1, BIG.p)
    rows[2][3] = rng.randrange(1, BIG.p)
    if degenerate:
        rows[1][3] = BIG.div(BIG.mul(rows[0][3], rows[1][2]), rows[0][2])
    k = Kernel(BIG, _labels(n), rows)
    rows[4][5], rows[5][4] = rows[5][4], rows[4][5]
    q = Kernel(BIG, k.labels, rows).conjugate(Gauge(BIG, k.labels,
                                                    _units(rng, BIG, n)))
    return k, q


@pytest.mark.parametrize("degenerate", [False, True])
def test_minor_witness_still_wins(degenerate):
    k, q = _swapped_pair(20261018, degenerate)
    assert check_equivalence(k, q, max_order=3).equivalent
    # q is a conjugate of k away from points 4 and 5, so it shares the quad
    assert check_class_d(k).holds is check_class_d(q).holds is not degenerate
    rep = check_equivalence(k, q)
    assert len(rep.witness_subset) == 4
    with pytest.raises(NotEquivalent) as info:
        recover(k, q)
    assert info.value.args == (
        f"kernels disagree on the principal minor at {rep.witness_subset!r}",)
    assert info.value.subset == rep.witness_subset
    assert (info.value.minor_k, info.value.minor_q) == (rep.witness_minor_k,
                                                        rep.witness_minor_q)


def test_recover_answers_past_the_scan_guard():
    # at n = 24 a full minor scan would walk over 2^20 subsets; a positive
    # needs no scan above order 3, and this negative is refuted at order 4
    k, q, _ = gen_instance(InstanceSpec(field=BIG, n=24, transpose=True,
                                        zero_edges=1, seed=1))
    res = recover(k, q)
    assert res.transposed
    assert k.transpose().conjugate(res.gauge) == q

    k, q = _swapped_pair(20261018, False, n=24)
    with pytest.raises(NotEquivalent) as info:
        recover(k, q)
    assert info.value.subset == (2, 3, 4, 5)


def test_recover_tail_keeps_the_scan_verdicts(pipeline_calls):
    # the unit 5-cycle pair fails both solves; the tail's verdicts stay
    # those of the full scan and then of property D, with no second solve
    k, q = _five_cycle_pair(10)
    assert equivalence._certify(k, q, equivalence._shared_rows(k, q))[0] is None
    pipeline_calls.update(scan=0, solve=0)
    with pytest.raises(ClassDViolation) as info:
        recover(k, q)
    assert (info.value.kernel_role, info.value.witness) == ("first",
                                                           (0, 1, 2, 3))
    assert pipeline_calls == {"scan": 1, "solve": 2}
    rows = [list(r) for r in q.rows]
    rows[0][1] = 2
    pipeline_calls.update(scan=0, solve=0)
    with pytest.raises(NotEquivalent) as info:
        recover(k, Kernel(Q, q.labels, rows))
    assert info.value.subset == (0, 1, 2, 3, 4)
    assert pipeline_calls == {"scan": 1, "solve": 2}


def _pipeline_cases():
    """(name, k, q, outcome, solves): outcome is "ok", the order of the
    NotEquivalent witness, or the error raised."""
    for transposed in (False, True):
        k, q, _ = gen_instance(InstanceSpec(field=F101, n=7,
                                            transpose=transposed,
                                            zero_edges=1, seed=12))
        yield "flipped" if transposed else "direct", k, q, "ok", 1 + transposed
    # double one entry of a pair whose products are nonzero in the flipped q
    rows = [list(r) for r in q.rows]
    i, j = next((i, j) for i, j in itertools.combinations(range(7), 2)
                if rows[i][j] and rows[j][i])
    rows[i][j] = F101.mul(rows[i][j], 2)
    yield "order-2", k, Kernel(F101, k.labels, rows), 2, 0
    # swap a pair of nonzero entries: diagonals and pair products stay, the
    # zero layouts match, and a 3-cycle sum through the pair moves
    rows = [list(r) for r in q.rows]
    i, j = next((i, j) for i, j in itertools.combinations(range(7), 2)
                if rows[i][j] and rows[j][i] and rows[i][j] != rows[j][i])
    rows[i][j], rows[j][i] = rows[j][i], rows[i][j]
    yield "order-3", k, Kernel(F101, k.labels, rows), 3, 2
    yield "order-4", *_swapped_pair(20261018, False), 4, 2
    k = _swapped_pair(20261018, True)[0]
    q = k.conjugate(Gauge(BIG, k.labels, range(1, 7)))
    yield "degenerate", k, q, ClassDViolation, 1
    yield ("n-below-4", Kernel(Q, _labels(2), [[2, 0], [7, 3]]),
           Kernel(Q, _labels(2), [[2, 0], [0, 3]]), NotRecoverable, 2)
    yield "five-cycles", *_five_cycle_pair(10), ClassDViolation, 2


@pytest.mark.parametrize("case", list(_pipeline_cases()),
                         ids=lambda case: case[0])
def test_recover_runs_one_pipeline(pipeline_calls, case):
    # one check_equivalence call decides every outcome, with at most two
    # gauge solves, and none before orders 1-2 agree; a refutation keeps
    # the witness of the plain scan
    _, k, q, outcome, solves = case
    if outcome == "ok":
        assert recover(k, q).transposed is (solves == 2)
    elif isinstance(outcome, int):
        with pytest.raises(NotEquivalent) as info:
            recover(k, q)
        assert len(info.value.subset) == outcome
        assert info.value.subset == _plain_report(k, q, k.n).witness_subset
    else:
        with pytest.raises(outcome):
            recover(k, q)
    assert pipeline_calls == {"scan": 1, "solve": solves}


def _cauchy_kernel(rng, field, n):
    """u_i v_j / (a_i - b_j) off the diagonal, with distinct a's and b's:
    every cross minor is a nonzero Cauchy minor times units, so the kernel
    has property D."""
    points = rng.sample(range(50), 2 * n)
    a, b = points[:n], points[n:]
    u = [_value(rng, field, True) for _ in range(n)]
    v = [_value(rng, field, True) for _ in range(n)]
    rows = [[_value(rng, field) if i == j else field.div(
        field.mul(u[i], v[j]), field.coerce(a[i] - b[j]))
        for j in range(n)] for i in range(n)]
    return Kernel(field, _labels(n), rows)


def test_certificate_recheck_builds_no_kernel(monkeypatch):
    # the re-check runs on the scan's integer rows; the reports are those
    # of the plain re-check, which conjugates the whole kernel
    rng = random.Random(414)
    cases = []
    for field in (F101, Q):
        k = _cauchy_kernel(rng, field, 8)
        gauge = Gauge(field, k.labels, [_value(rng, field, True)
                                        for _ in range(8)])
        for transposed in (False, True):
            q = (k.transpose() if transposed else k).conjugate(gauge)
            proof = _plain_certify(k, q)
            assert proof[0] is transposed
            cases.append((k, q, proof, None))
    k, q = _swapped_pair(20261018, False)
    cases.append((k, q, None, (NotEquivalent, "subset", (2, 3, 4, 5))))
    cases.append((*_five_cycle_pair(10), None,
                  (ClassDViolation, "witness", (0, 1, 2, 3))))

    def refuse(*args):
        raise AssertionError("Kernel.conjugate called")

    monkeypatch.setattr(Kernel, "conjugate", refuse)
    for k, q, proof, refusal in cases:
        rep = check_equivalence(k, q)
        assert rep == _plain_report(k, q, k.n)
        assert rep.certificate == proof
        got = _outcome(recover, k, q)
        if refusal is None:
            assert got == proof
        else:
            error, name, witness = refusal
            assert got[0] is error and got[2][name] == witness


# ------------------------------------- against the order with the scan first

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), Q)


def _kernel(rng, field, n, zero_share, near_symmetric=False):
    rows = [[0 if i != j and rng.random() < zero_share else _value(rng, field)
             for j in range(n)] for i in range(n)]
    if near_symmetric and n >= 4:
        # symmetric but for the pairs (0, 1) and (2, 3), so swapping one of
        # them keeps every minor up to order 3
        for i, j in itertools.combinations(range(n), 2):
            rows[j][i] = rows[i][j]
        rows[1][0] = _value(rng, field)
        rows[3][2] = _value(rng, field)
    return Kernel(field, _labels(n), rows)


@st.composite
def recover_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 7))
    zero_share = draw(st.sampled_from((0.0, 0.2, 0.4, 0.6, 0.8)))
    kind = draw(st.sampled_from(("conjugated", "flipped", "swapped", "perturbed",
                                 "random")))
    rng = draw(st.randoms(use_true_random=False))
    k = _kernel(rng, field, n, zero_share, near_symmetric=kind == "swapped")
    if kind == "random":
        q = _kernel(rng, field, n, zero_share)
    else:
        source = k.transpose() if kind == "flipped" else k
        if kind == "swapped" and n >= 2:
            rows = [list(r) for r in k.rows]
            rows[0][1], rows[1][0] = rows[1][0], rows[0][1]
            source = Kernel(field, k.labels, rows)
        q = source.conjugate(Gauge(field, k.labels,
                                   [_value(rng, field, True) for _ in range(n)]))
        if kind == "perturbed":
            q = perturb(k, q, rng.randrange(10**6))
    return k, q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=recover_cases())
def test_recover_matches_the_scan_first_order(case):
    # the solves now meet degenerate kernels before the property-D check;
    # anything they raise beyond a verdict would escape _outcome here
    k, q = case
    want = _outcome(_table_first_recover, k, q)
    assert _outcome(recover, k, q) == want
