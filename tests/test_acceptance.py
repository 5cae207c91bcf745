"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every criterion re-verifies the library's answers independently inside the
test (re-conjugation, subset re-scans, full enumeration) rather than
trusting the pipeline's own checks.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from detequiv.classd import check_class_d
from detequiv.classify import CaseLabel, CaseTable, GlobalCase
from detequiv.equivalence import check_equivalence
from detequiv.errors import (
    ClassDViolation,
    MixedCases,
    NotEquivalent,
    NotRecoverable,
)
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import (
    Cycle,
    Gauge,
    Kernel,
    cycle_product,
)
from detequiv.lab import (
    InstanceSpec,
    brute_force_diagonal_similar,
    gen_instance,
    perturb,
    search_counterexample,
)
from detequiv.recovery import recover, verify_cocycle
from reference_audits import (
    consistency_audit,
    four_point_audit,
    reversed_cycle_product,
    trace_identity_audit,
    zero_pattern_validate,
)

Q = Rationals()
F3 = PrimeField(3)
F7 = PrimeField(7)
F11 = PrimeField(11)
F101 = PrimeField(101)

# 500 rational + 500 prime-field instances; small fields only get the sizes
# where nondegenerate draws are actually reachable by rejection sampling
# (measured accept rates: GF(7) n=5 ~0.3%, GF(11) n=5 ~3%, GF(101) n=8 ~1.5%,
# rationals n=8 ~0.1%; GF(11) n=6 is ~0.008% and excluded)
_RATIONAL_PLAN = ((4, 150), (5, 125), (6, 100), (7, 75), (8, 50))
_PRIME_PLAN = ((7, 4, 70), (7, 5, 50),
               (11, 4, 80), (11, 5, 70),
               (101, 4, 50), (101, 5, 50), (101, 6, 50),
               (101, 7, 45), (101, 8, 35))


def _verdict(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


@functools.lru_cache(maxsize=1)
def _mixed_instances():
    out = []
    counter = 0
    for n, count in _RATIONAL_PLAN:
        for _ in range(count):
            spec = InstanceSpec(field=Q, n=n, transpose=counter % 2 == 1,
                                zero_edges=counter % 3, seed=counter)
            out.append((spec,) + gen_instance(spec))
            counter += 1
    for p, n, count in _PRIME_PLAN:
        for _ in range(count):
            spec = InstanceSpec(field=PrimeField(p), n=n,
                                transpose=counter % 2 == 1,
                                zero_edges=counter % 3, seed=counter)
            out.append((spec,) + gen_instance(spec))
            counter += 1
    return tuple(out)


def _gauges_agree(field, got, truth, base):
    scale = truth.values[base]
    return all(got.values[i] == field.div(truth.values[i], scale)
               for i in range(len(got.values)))


def test_criterion_1_round_trip_recovery():
    ok = False
    try:
        start = time.monotonic()
        instances = _mixed_instances()
        assert len(instances) == 1000
        flips_agree = 0
        for spec, k, q, truth in instances:
            res = recover(k, q)
            target = k.transpose() if res.transposed else k
            assert target.conjugate(res.gauge) == q
            base = min(range(k.n), key=lambda i: k.labels[i])
            assert res.gauge.values[base] == k.field.one
            if res.transposed == truth.transposed:
                assert _gauges_agree(k.field, res.gauge, truth.gauge, base)
                flips_agree += 1
        elapsed = time.monotonic() - start
        assert flips_agree >= 990  # symmetric flukes may pick the other flip
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(1, "round-trip recovery on 1000 mixed instances", ok)


def test_criterion_2_transposition_fidelity():
    ok = False
    try:
        attributed = 0
        total = 0
        for trial in range(150):
            field = (F7, F11, F101, Q)[trial % 4]
            spec = InstanceSpec(field=field, n=4 + trial % 2,
                                transpose=trial % 2 == 1, seed=5000 + trial)
            k, q, truth = gen_instance(spec)
            counts = CaseTable.build(k, q).counts()
            total += 1
            if not counts[CaseLabel.CASE1_ONLY] and not counts[CaseLabel.CASE2_ONLY]:
                continue  # every cycle symmetric: flip not attributable
            res = recover(k, q)
            assert res.transposed == truth.transposed
            attributed += 1
        assert total == 150
        assert attributed >= 140
        ok = True
    finally:
        _verdict(2, "transposition flag fidelity on case-exclusive instances", ok)


def test_criterion_3_perturbation_refutation():
    ok = False
    try:
        combos = ((F7, 4), (F11, 4), (F101, 4), (Q, 4), (F7, 5),
                  (F11, 5), (F101, 5), (Q, 5), (F101, 6), (Q, 6))
        for trial in range(200):
            field, n = combos[trial % 10]
            spec = InstanceSpec(field=field, n=n,
                                transpose=trial % 2 == 1,
                                zero_edges=trial % 2, seed=7000 + trial)
            k, q, _ = gen_instance(spec)
            bad = perturb(k, q, seed=trial)
            try:
                recover(k, bad)
                raise AssertionError("perturbed pair accepted")
            except NotEquivalent as exc:
                s = exc.subset
            assert 1 <= len(s) <= 3
            assert k.principal_minor(s) != bad.principal_minor(s)
            for order in range(1, len(s)):
                for sub in itertools.combinations(range(k.n), order):
                    assert k.principal_minor(sub) == bad.principal_minor(sub)
            for sub in itertools.combinations(range(k.n), len(s)):
                if sub >= s:
                    break
                assert k.principal_minor(sub) == bad.principal_minor(sub)
        ok = True
    finally:
        _verdict(3, "perturbed pairs refuted with minimal witness of order <= 3", ok)


def _dense_kernel(rng, field, n, zero_at=None):
    if field.kind == "prime":
        rows = [[rng.randrange(1, field.p) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rng.choice([v for v in range(-9, 10) if v]) for _ in range(n)]
                for _ in range(n)]
    if zero_at is not None:
        rows[zero_at[0]][zero_at[1]] = 0
    return Kernel(field, [str(i + 1) for i in range(n)], rows)


def test_criterion_4_cycle_identities():
    ok = False
    try:
        fields = (Q, F7, F101)
        square = Cycle((0, 1, 2, 3))
        rng = random.Random(8100)
        for trial in range(1000):
            f = fields[trial % 3]
            h = _dense_kernel(rng, f, 4, zero_at=(0, 2))
            hub = f.mul(f.mul(h.rows[2][3], h.rows[3][2]),
                        f.mul(h.rows[3][0], h.rows[0][3]))
            assert cycle_product(h, square) == f.mul(
                hub, f.div(cycle_product(h, Cycle((0, 1, 2))),
                           cycle_product(h, Cycle((0, 3, 2)))))
        rng = random.Random(8200)
        for trial in range(1000):
            f = fields[trial % 3]
            h = _dense_kernel(rng, f, 4, zero_at=(2, 0))
            hub = f.mul(f.mul(h.rows[2][3], h.rows[3][2]),
                        f.mul(h.rows[3][0], h.rows[0][3]))
            assert reversed_cycle_product(h, square) == f.mul(
                hub, f.div(reversed_cycle_product(h, Cycle((0, 1, 2))),
                           reversed_cycle_product(h, Cycle((0, 3, 2)))))
        rng = random.Random(8300)
        for trial in range(1000):
            f = fields[trial % 3]
            h = _dense_kernel(rng, f, 4, zero_at=(1, 3))
            hub = f.mul(f.mul(h.rows[3][0], h.rows[0][3]),
                        f.mul(h.rows[0][1], h.rows[1][0]))
            assert cycle_product(h, square) == f.mul(
                hub, f.div(cycle_product(h, Cycle((1, 2, 3))),
                           reversed_cycle_product(h, Cycle((0, 1, 3)))))
        rng = random.Random(8400)
        for trial in range(1000):
            f = fields[trial % 3]
            h = _dense_kernel(rng, f, 4, zero_at=(3, 1))
            hub = f.mul(f.mul(h.rows[3][0], h.rows[0][3]),
                        f.mul(h.rows[0][1], h.rows[1][0]))
            assert reversed_cycle_product(h, square) == f.mul(
                hub, f.div(reversed_cycle_product(h, Cycle((1, 2, 3))),
                           cycle_product(h, Cycle((0, 1, 3)))))
        rng = random.Random(8500)
        for trial in range(1000):
            f = fields[trial % 3]
            k = _dense_kernel(rng, f, 5)
            num = f.one
            for tri in (Cycle((0, 1, 4)), Cycle((1, 2, 4)),
                        Cycle((2, 3, 4)), Cycle((3, 0, 4))):
                num = f.mul(num, cycle_product(k, tri))
            den = f.one
            for i in range(4):
                den = f.mul(den, f.mul(k.rows[i][4], k.rows[4][i]))
            assert cycle_product(k, Cycle((0, 1, 2, 3))) == f.div(num, den)
        rng = random.Random(8600)
        for trial in range(1000):
            f = fields[trial % 3]
            spec = InstanceSpec(field=f if f.kind == "rational" else F7,
                                n=4, transpose=trial % 2 == 1,
                                seed=8600 + trial)
            k, q, _ = gen_instance(spec)
            assert trace_identity_audit(k, q) == ()
        ok = True
    finally:
        _verdict(4, "4-cycle reductions, star decomposition, trace identity "
                    "(1000 exact trials each)", ok)


def test_criterion_5_small_field_cross_validation():
    ok = False
    try:
        matched = 0
        for trial in range(200):
            flavor = trial % 4
            spec = InstanceSpec(field=F3, n=4, transpose=trial % 2 == 1,
                                seed=9000 + trial, max_attempts=20000)
            k, q, _ = gen_instance(spec)
            if flavor == 2:
                q = perturb(k, q, seed=trial)
            elif flavor == 3:
                rows = [list(r) for r in q.rows]
                rows[0][1] = (rows[0][1] * 2) % 3
                rows[1][0] = (rows[1][0] * 2) % 3
                q = Kernel(F3, q.labels, rows)
            oracle = brute_force_diagonal_similar(k, q)
            assert oracle.complete
            try:
                res = recover(k, q)
                recovered = True
            except (NotEquivalent, ClassDViolation, MixedCases, NotRecoverable):
                recovered = False
            assert recovered == oracle.found
            if recovered:
                target = k.transpose() if res.transposed else k
                assert target.conjugate(res.gauge) == q
            matched += 1
        assert matched == 200
        ok = True
    finally:
        _verdict(5, "recovery verdict equals exhaustive GF(3) oracle on 200 "
                    "mixed pairs", ok)


def test_criterion_6_cocycle_laws():
    ok = False
    try:
        rng = random.Random(10000)
        long_cycles = 0
        for trial in range(1000):
            field = (Q, F7, F101)[trial % 3]
            n = rng.randint(3, 8)
            labels = [str(i + 1) for i in range(n)]
            if field.kind == "prime":
                vals = [rng.randrange(1, field.p) for _ in range(n)]
            else:
                vals = [Fraction(rng.choice([v for v in range(-9, 10) if v]),
                                 rng.randint(1, 9)) for _ in range(n)]
            c = Kernel(field, labels, [[field.one] * n] * n).conjugate(
                Gauge(field, labels, vals))
            assert verify_cocycle(c).ok
            length = rng.randint(3, n)
            walk = rng.sample(range(n), length)
            prod = field.one
            for a, b in zip(walk, walk[1:] + walk[:1]):
                prod = field.mul(prod, c.rows[a][b])
            assert prod == field.one
            long_cycles += 1
        assert long_cycles == 1000
        for trial in range(200):
            field = (Q, F7, F101)[trial % 3]
            n = rng.randint(3, 6)
            labels = [str(i + 1) for i in range(n)]
            if field.kind == "prime":
                vals = [rng.randrange(1, field.p) for _ in range(n)]
            else:
                vals = [Fraction(rng.choice([v for v in range(1, 10)]))
                        for _ in range(n)]
            rows = [list(r) for r in Kernel(
                field, labels, [[field.one] * n] * n).conjugate(
                Gauge(field, labels, vals)).rows]
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            rows[i][j] = field.mul(rows[i][j], field.coerce(2))
            chk = verify_cocycle(Kernel(field, labels, rows))
            assert not chk.ok
            assert chk.violation.law == "reciprocal_pair"
            assert chk.violation.points == (min(i, j), max(i, j))
        ok = True
    finally:
        _verdict(6, "1000 gauge cocycles verified, long cycle products unital, "
                    "corruptions caught", ok)


def test_criterion_7_nondegeneracy_scan():
    ok = False
    try:
        a = (0, 1, 2, 3, 4)
        b = (1, 2, 3, 5, 7)
        cauchy = Kernel(Q, [str(i + 1) for i in range(5)],
                        [[Fraction(1, ai + bj) for bj in b] for ai in a])
        rep = check_class_d(cauchy)
        assert rep.holds
        f = cauchy.field
        for x, y, z, w in itertools.permutations(range(5), 4):
            lhs = f.mul(cauchy.rows[x][y], cauchy.rows[w][z])
            assert lhs != f.mul(cauchy.rows[x][z], cauchy.rows[w][y])

        ones = Kernel(Q, ["1", "2", "3", "4"], [[1] * 4 for _ in range(4)])
        rep = check_class_d(ones)
        assert not rep.holds and rep.witness == (0, 1, 2, 3)
        ident = Kernel(F7, ["1", "2", "3", "4"],
                       [[1 if i == j else 0 for j in range(4)]
                        for i in range(4)])
        rep = check_class_d(ident)
        assert not rep.holds and rep.witness == (0, 1, 2, 3)

        rng = random.Random(11000)
        for trial in range(100):
            kernel = (cauchy, ones)[trial % 2]
            expected = trial % 2 == 0
            g = Gauge(Q, kernel.labels,
                      [Fraction(rng.choice([v for v in range(-9, 10) if v]),
                                rng.randint(1, 9))
                       for _ in kernel.labels])
            moved = kernel.conjugate(g)
            if trial % 3 == 0:
                moved = moved.transpose()
            assert check_class_d(moved).holds == expected
        ok = True
    finally:
        _verdict(7, "cross-minor scan: Cauchy accepted, flat kernels refused, "
                    "verdict transform-invariant", ok)


def test_criterion_8_structural_filters():
    ok = False
    try:
        audited_pairs = 0
        for spec, k, q, truth in _mixed_instances()[::10]:
            assert zero_pattern_validate(k) == ()
            assert zero_pattern_validate(q) == ()
            assert trace_identity_audit(k, q) == ()
            assert four_point_audit(k, q) == ()
            case = GlobalCase.CASE2 if truth.transposed else GlobalCase.CASE1
            zero = k.field.is_zero
            for x in range(k.n):
                for y in range(k.n):
                    if x == y:
                        continue
                    entry = (k.rows[y][x] if case is GlobalCase.CASE2
                             else k.rows[x][y])
                    if zero(entry):
                        expected = k.field.div(truth.gauge.values[x],
                                               truth.gauge.values[y])
                        assert consistency_audit(k, q, x, y, case) == expected
                        audited_pairs += 1
        assert audited_pairs > 50
        ok = True
    finally:
        _verdict(8, "structural audits clean across sampled instances", ok)


def test_criterion_9_counterexample_search():
    ok = False
    try:
        budget = 10**6
        total_hits = 0
        for p, seed in ((2, 17), (3, 18)):
            field = PrimeField(p)
            hits = search_counterexample(field, 4, budget, seed)
            for hit in hits:
                k = Kernel.from_doc(hit["k"])
                q = Kernel.from_doc(hit["q"])
                assert check_equivalence(k, q).equivalent
                oracle = brute_force_diagonal_similar(k, q)
                assert oracle.complete and not oracle.found
                holds_k = check_class_d(k).holds
                holds_q = check_class_d(q).holds
                assert not (holds_k and holds_q)
                assert hit["verdicts"]["cross_minors_nonzero_k"] == holds_k
                assert hit["verdicts"]["cross_minors_nonzero_q"] == holds_q
            if p == 2:
                assert hits
            total_hits += len(hits)
        assert total_hits > 0
        ok = True
    finally:
        _verdict(9, "million-sample search yields only degenerate "
                    "counterexamples, all re-verified", ok)
