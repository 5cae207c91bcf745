"""Symmetry relations of the verdicts, checked on seeded pairs.

Transposing a kernel, conjugating it by a diagonal gauge h q h⁻¹, and
relabelling its points leave its principal minors as they are, up to the
renaming of subsets by the relabelling; and the least subset on which two
kernels' minors differ does not depend on which kernel comes first.  The
same maps carry cross minors to cross minors times a unit.  So on every
pair:

- swapping k and q keeps the verdict and the witness subset, and swaps
  the two witness minors;
- k -> kᵀ and q -> h q h⁻¹ give an equal ``EquivalenceReport``;
- relabelling both kernels by one permutation keeps the verdict and the
  witness order, and the witness minors are k's and q's on the points the
  witness names;
- ``check_class_d``'s verdict on either kernel survives all three maps.
"""

import random
from fractions import Fraction

from detequiv.classd import check_class_d
from detequiv.equivalence import check_equivalence
from detequiv.fields import PrimeField, Rationals
from detequiv.kernels import Gauge, Kernel
from detequiv.lab import InstanceSpec, gen_instance, perturb

Q = Rationals()


def _units(rng, field, n):
    if field.kind == "prime":
        return [rng.randrange(1, field.p) for _ in range(n)]
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(n)]


def _relabel(kern, perm):
    """kern on its points perm[0], perm[1], ..., each keeping its label."""
    return Kernel(kern.field, [kern.labels[i] for i in perm],
                  [[kern.rows[i][j] for j in perm] for i in perm])


def _assert_relations(rng, k, q):
    """Check every relation of the module docstring on (k, q), with a
    random gauge and permutation; return the pair's report."""
    rep = check_equivalence(k, q)
    assert check_equivalence(q, k) == rep._replace(
        witness_minor_k=rep.witness_minor_q, witness_minor_q=rep.witness_minor_k)
    assert check_equivalence(k.transpose(), q) == rep
    gauge = Gauge(k.field, k.labels, _units(rng, k.field, k.n))
    assert check_equivalence(k, q.conjugate(gauge)) == rep
    perm = rng.sample(range(k.n), k.n)
    moved = check_equivalence(_relabel(k, perm), _relabel(q, perm))
    assert moved.equivalent == rep.equivalent
    if not rep.equivalent:
        assert len(moved.witness_subset) == len(rep.witness_subset)
        back = sorted(perm[i] for i in moved.witness_subset)
        assert (moved.witness_minor_k, moved.witness_minor_q) == (
            k.principal_minor(back), q.principal_minor(back))
    for kern in (k, q):
        holds = check_class_d(kern).holds
        assert check_class_d(kern.transpose()).holds == holds
        assert check_class_d(kern.conjugate(gauge)).holds == holds
        assert check_class_d(_relabel(kern, perm)).holds == holds
    return rep


def test_relations_on_generated_pairs_and_their_refutations():
    # GF(3) pairs stop at four points: a row pair of a dense kernel on five
    # has three other columns and two unit ratios to give them, and
    # gen_instance's draws there are all degenerate
    rng = random.Random(3201)
    sizes = [(PrimeField(3), 4)] + [(field, n) for field in (PrimeField(101), Q)
                                    for n in range(4, 9)]
    orders = set()
    pairs = 0
    for field, n in sizes:
        for seed in range(20):
            spec = InstanceSpec(field, n, transpose=seed % 2 == 1,
                                zero_edges=seed % 3 % 2, seed=seed)
            k, q, _ = gen_instance(spec)
            assert _assert_relations(rng, k, q).equivalent
            rep = _assert_relations(rng, k, perturb(k, q, seed))
            assert not rep.equivalent
            orders.add(len(rep.witness_subset))
            pairs += 2
    assert pairs == 440
    assert orders == {1, 2, 3}


def _near_symmetric(field, n):
    """k = 1/(i+j+1) but for k(a,b) * 3 and k(c,d) * 2 on the last four
    points, and q = k with k(a,b) and k(b,a) swapped: their pair products
    and 3-cycle sums agree, so they first differ at order 4, on {a,b,c,d}."""
    a, b, c, d = range(n - 4, n)
    k = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    k[a][b] *= 3
    k[c][d] *= 2
    q = [row[:] for row in k]
    q[a][b], q[b][a] = k[b][a], k[a][b]
    labels = [str(i + 1) for i in range(n)]
    return [Kernel(field, labels, [[field.div(x.numerator, x.denominator)
                                    for x in row] for row in m])
            for m in (k, q)]


def test_relations_on_near_symmetric_pairs():
    rng = random.Random(3202)
    for field in (PrimeField(1000003), Q):
        for n in range(4, 10):
            k, q = _near_symmetric(field, n)
            gauge = Gauge(field, k.labels, _units(rng, field, n))
            for other in (q, q.transpose().conjugate(gauge)):
                rep = _assert_relations(rng, k, other)
                assert rep.witness_subset == tuple(range(n - 4, n))


def test_relations_on_a_signed_ring():
    # a 6-cycle with loops, and the same with one edge's sign flipped both
    # ways: only the minor on the whole ring differs, so the walk finds it
    n = 6
    k = [[1 if (i - j) % n in (0, 1, n - 1) else 0 for j in range(n)]
         for i in range(n)]
    q = [row[:] for row in k]
    q[1][2] = q[2][1] = -1
    rng = random.Random(3203)
    for field in (PrimeField(3), PrimeField(101), Q):
        labels = [str(i + 1) for i in range(n)]
        rep = _assert_relations(rng, Kernel(field, labels, k),
                                Kernel(field, labels, q))
        assert rep.witness_subset == tuple(range(n))
