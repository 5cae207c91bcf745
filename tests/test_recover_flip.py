"""How recover picks the flip: the first certificate that passes its re-check.

recover solves on k and then on kᵀ and returns the first certificate that
re-conjugates onto q; it never builds the 3-cycle case table.  The
differential test below pins that to the earlier order, in which the case
table chose the framework before any solve.
"""

import itertools
import random
from fractions import Fraction

from detequiv.classd import check_class_d
from detequiv.classify import CaseLabel, CaseTable, GlobalCase, global_case
from detequiv.equivalence import check_equivalence
from detequiv.errors import (
    BranchUnavailable,
    ClassDViolation,
    DetEquivError,
    GenerationBudgetExceeded,
    NotEquivalent,
    NotRecoverable,
    VerificationFailed,
)
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel
from detequiv.lab import InstanceSpec, _push_gauge, gen_instance, perturb
from detequiv.recovery import (
    RecoveryResult,
    build_cocycle_case1,
    recover,
    verify_cocycle,
)
from reference_audits import extract_gauge

Q = Rationals()
F7 = PrimeField(7)
F101 = PrimeField(101)
FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), F7, F101, Q)


def _all_both_kernel():
    # double-sided zero edges at (1,2) and (3,4) put a zero into every
    # triangle, so every 3-cycle is labelled BOTH
    return Kernel(F7, ["1", "2", "3", "4"], [[1, 0, 5, 3],
                                             [0, 5, 5, 2],
                                             [3, 1, 5, 0],
                                             [6, 3, 0, 4]])


def test_positive_recover_never_builds_the_case_table(monkeypatch):
    pairs = []
    for field, sizes in ((F7, (4, 5)), (F101, (4, 5, 6)), (Q, (4, 5, 6))):
        for n, transpose, zeros in itertools.product(sizes, (False, True),
                                                     range(3)):
            k, q, _ = gen_instance(InstanceSpec(
                field=field, n=n, transpose=transpose, zero_edges=zeros,
                seed=100 * n + 10 * zeros + transpose))
            pairs.append((k, q))
    k = _all_both_kernel()
    g = Gauge(F7, k.labels, [1, 2, 3, 4])
    pairs += [(k, k.conjugate(g)), (k, k.transpose().conjugate(g))]

    def refuse(*args, **kwargs):
        raise AssertionError("a positive recover built the case table")

    monkeypatch.setattr("detequiv.classify.CaseTable.build", refuse)
    flips = set()
    for k, q in pairs:
        res = recover(k, q)
        target = k.transpose() if res.transposed else k
        assert target.conjugate(res.gauge) == q
        flips.add(res.transposed)
    assert flips == {False, True}


# ------------------------------------------------- the table-first reference


def _table_first_recover(k, q):
    """recover as it ran when the case table chose the framework up front.

    Labels must sort in index order, so that the base point is index 0 and
    the oracle's gauge propagation pins the same roots below four points.
    """
    n = k.n
    f = k.field
    rep = check_equivalence(k, q)
    if not rep.equivalent:
        raise NotEquivalent(
            f"kernels disagree on the principal minor at {rep.witness_subset!r}",
            subset=rep.witness_subset, minor_k=rep.witness_minor_k,
            minor_q=rep.witness_minor_q)
    if n <= 3:
        for transposed in (False, True):
            target = k.transpose() if transposed else k
            values, _ = _push_gauge(f, target.rows, q.rows)
            if values is not None:
                return RecoveryResult(transposed, Gauge(f, k.labels, values),
                                      k.labels[0])
        raise NotRecoverable(
            "kernels agree on all principal minors but no diagonal change of "
            "variables relates them, flipped or not")
    for role, kern in (("first", k), ("second", q)):
        crep = check_class_d(kern)
        if not crep.holds:
            raise ClassDViolation(
                f"the {role} kernel has a vanishing cross minor at "
                f"{crep.witness_labels!r}", kernel_role=role,
                witness=crep.witness)
    table = CaseTable.build(k, q)
    bad = table.neither_rows()
    if bad:
        row = bad[0]
        raise NotEquivalent(
            f"cycle products around {row.cycle!r} match neither directly nor "
            "flipped, which no equivalent pair allows",
            subset=tuple(sorted(row.cycle.vertices)))
    transposed = global_case(table) is GlobalCase.CASE2
    try:
        return _framework(k, q, transposed)
    except (VerificationFailed, BranchUnavailable):
        # an all-BOTH table lands on the direct framework; retry flipped
        if transposed or any(r.label is not CaseLabel.BOTH for r in table.rows):
            raise
        return _framework(k, q, True)


def _framework(k, q, transposed):
    target = k.transpose() if transposed else k
    cocycle = build_cocycle_case1(target, q)
    chk = verify_cocycle(cocycle)
    if not chk.ok:
        raise VerificationFailed(
            f"ratio table violates the {chk.violation.law} law at "
            f"{chk.violation.points!r}")
    gauge = extract_gauge(cocycle, 0)
    recon = target.conjugate(gauge)
    for i, j in itertools.product(range(k.n), repeat=2):
        if recon.rows[i][j] != q.rows[i][j]:
            raise VerificationFailed(
                f"certificate fails at entry ({k.labels[i]!r}, {k.labels[j]!r})")
    return RecoveryResult(transposed, gauge, k.labels[0])


def _value(rng, field, unit=False):
    if field.kind == "prime":
        return rng.randrange(1 if unit else 0, field.p)
    while True:
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if v or not unit:
            return v


def _base_kernel(rng, field, n):
    """A random kernel, a near-symmetric one, or a nondegenerate draw."""
    labels = [str(i + 1) for i in range(n)]
    kind = rng.choice(("random", "near_symmetric", "generated"))
    if kind == "generated" and n >= 4:
        try:
            return gen_instance(InstanceSpec(
                field=field, n=n, zero_edges=rng.randint(0, 2),
                seed=rng.randrange(10**6), max_attempts=300))[0]
        except GenerationBudgetExceeded:
            pass
    zero_share = rng.choice((0.0, 0.2, 0.5))
    rows = [[0 if i != j and rng.random() < zero_share else _value(rng, field)
             for j in range(n)] for i in range(n)]
    if kind == "near_symmetric" and n >= 4:
        # symmetric but for the pairs (0,1) and (2,3): swapping one of them
        # keeps every minor up to order 3 and mixes the frameworks
        rows = [[_value(rng, field, True) if i <= j else None
                 for j in range(n)] for i in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[j][i] = rows[i][j]
        rows[1][0] = _value(rng, field, True)
        rows[3][2] = _value(rng, field, True)
    return Kernel(field, labels, rows)


def _case(rng):
    field = rng.choice(FIELDS)
    n = rng.randint(1, 6)
    k = _base_kernel(rng, field, n)
    gauge = Gauge(field, k.labels, [_value(rng, field, True) for _ in range(n)])
    kind = rng.choice(("conjugated", "flipped", "perturbed", "swapped_pair",
                       "random"))
    source = k.transpose() if kind == "flipped" else k
    if kind == "swapped_pair" and n >= 2:
        rows = [list(r) for r in k.rows]
        rows[0][1], rows[1][0] = rows[1][0], rows[0][1]
        source = Kernel(field, k.labels, rows)
    q = source.conjugate(gauge)
    if kind == "perturbed":
        q = perturb(k, q, rng.randrange(10**6))
    elif kind == "random":
        q = _base_kernel(rng, field, n)
    return k, q


def _outcome(fn, k, q):
    try:
        res = fn(k, q)
    except DetEquivError as exc:
        return type(exc), exc.args, vars(exc)
    return res.transposed, res.gauge, res.base_label



def test_flipped_prime_certificate_takes_no_inverse(monkeypatch):
    # over GF(p) every row scale is 1, so the flipped gauge is not divided
    pairs = []
    for field, sizes in ((F7, (4, 5)), (F101, (4, 5, 8)),
                         (PrimeField(1000003), (4, 8))):
        for n, zeros in itertools.product(sizes, range(3)):
            k, q, _ = gen_instance(InstanceSpec(
                field=field, n=n, transpose=True, zero_edges=zeros,
                seed=10 * n + zeros))
            pairs.append((k, q))
    results = []
    with monkeypatch.context() as m:
        def refuse(self, a):
            raise AssertionError("a GF(p) certificate took an inverse")
        m.setattr(PrimeField, "inv", refuse)
        for k, q in pairs:
            results.append(check_equivalence(k, q).certificate)
    for (k, q), (transposed, gauge, _) in zip(pairs, results):
        assert transposed
        assert k.transpose().conjugate(gauge) == q

def test_recover_matches_the_table_first_order():
    rng = random.Random(20261018)
    cases = [_case(rng) for _ in range(600)]
    k = _all_both_kernel()
    g = Gauge(F7, k.labels, [1, 2, 3, 4])
    cases.append((k, k.transpose().conjugate(g)))
    # two disjoint doubly-zero pairs leave every cycle BOTH and a free
    # 4-cycle: both solves fail and the scan refutes at order 4
    labels = ["1", "2", "3", "4"]
    cases.append((Kernel(F101, labels, [[25, 61, 0, 26], [8, 66, 13, 0],
                                        [0, 79, 25, 18], [1, 0, 68, 31]]),
                  Kernel(F101, labels, [[25, 70, 0, 2], [82, 66, 66, 0],
                                        [0, 63, 25, 10], [13, 0, 82, 31]])))
    kinds = set()
    for k, q in cases:
        got = _outcome(recover, k, q)
        want = _outcome(_table_first_recover, k, q)
        assert got == want, (k.rows, q.rows)
        if isinstance(got[0], bool):
            kinds.add("flipped" if got[0] else "direct")
        else:
            kinds.add(got[0])
    # the mix reaches every verdict the reordering could move
    assert {"direct", "flipped", NotEquivalent, ClassDViolation,
            NotRecoverable} <= kinds
