"""The benchmark's own generator: fixed digests and the verdict each kind
of pair must get from the benchmark's own arithmetic."""

import itertools
import os
import subprocess
import sys

import pytest

import exact
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Any change to these is a change of the benchmark's inputs: runs made
# before and after it cannot be compared.
PINNED = {
    ("gf-large", 1): "5017d0168ebd52c2c554d926aa3f00f6e086c7f4fd31b19fa6f9aa32468cab13",
    ("rational-mid", 1): "2135b6bde248791bfeeffa7d04a13cc4bba68a56cc9adb57850b03679252ab37",
    ("small-mixed", 1): "ec37518101298e3c540dbd9dd049f1fa233349ca72f54303c18a76f9cb510771",
    ("lab", 1): "164c84ba16323e6801c9d265fccfebcc35e0aae862df0a718aa404958b877ea4",
}


@pytest.mark.parametrize("workload, seed", sorted(PINNED))
def test_fixed_seed_gives_fixed_digest(workload, seed):
    assert workloads.digest(workloads.schedule(workload, seed)) == PINNED[workload, seed]


def test_seed_changes_entries_not_the_mix():
    a, b = (workloads.schedule("small-mixed", s) for s in (1, 2))
    assert workloads.digest(a) != workloads.digest(b)
    assert [(c.args[0], c.kind, c.n, c.p) for c in a] == \
        [(c.args[0], c.kind, c.n, c.p) for c in b]


def test_generator_does_not_import_detequiv():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads, checks; "
            "[workloads.schedule(w, 3) for w in workloads.WORKLOADS]; "
            "print(sorted(m for m in sys.modules if m.startswith('detequiv')))")
    out = subprocess.run([sys.executable, "-c", code, BENCH], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


FIELDS_SIZES = [(7, 4), (11, 5), (101, 6), (workloads.GF_LARGE, 6), (None, 5), (None, 6)]


def _all_orders(n):
    return range(1, n + 1)


@pytest.mark.parametrize("p, n", FIELDS_SIZES)
@pytest.mark.parametrize("seed", range(3))
def test_positive_kinds_are_equivalent_and_nondegenerate(p, n, seed):
    rng = workloads.random.Random(seed)
    for kind, flip, zeros in (("pos", False, 0), ("pos", True, 1), ("sym", False, 1)):
        k, q, _ = workloads.pair(rng, p, n, kind, flip, zeros)
        assert exact.is_nondegenerate(p, k)
        assert exact.first_differing_subset(p, k, q, _all_orders(n)) is None
        if kind == "sym":
            assert k == exact.transpose(k)


@pytest.mark.parametrize("p, n", FIELDS_SIZES)
@pytest.mark.parametrize("seed", range(3))
def test_negative_kinds_get_their_witness(p, n, seed):
    rng = workloads.random.Random(seed)
    for kind, size in (("neg_entry", 2), ("neg_flip", 4)):
        k, q, expect = workloads.pair(rng, p, n, kind, flip=seed % 2 == 1)
        witness = exact.first_differing_subset(p, k, q, _all_orders(n))
        assert list(witness) == expect["witness"]
        assert len(witness) == size


@pytest.mark.parametrize("p, n", FIELDS_SIZES)
@pytest.mark.parametrize("seed", range(3))
def test_degenerate_kind_is_equivalent_with_a_vanishing_quad(p, n, seed):
    rng = workloads.random.Random(seed)
    k, q, expect = workloads.pair(rng, p, n, "neg_degenerate", flip=True)
    assert exact.first_differing_subset(p, k, q, _all_orders(n)) is None
    x, y, z, w = expect["quad"]
    assert exact.mul(p, k[x][y], k[w][z]) == exact.mul(p, k[x][z], k[w][y])
    # the expected quadruple is the lexicographically least vanishing one
    # among all orderings, not only the canonical ones
    least = min(quad for quad in itertools.permutations(range(n), 4)
                if exact.mul(p, k[quad[0]][quad[1]], k[quad[3]][quad[2]])
                == exact.mul(p, k[quad[0]][quad[2]], k[quad[3]][quad[1]]))
    assert list(least) == expect["quad"]


def test_own_determinant_matches_cofactor_expansion():
    rng = workloads.random.Random(5)
    for p in (None, 7, workloads.GF_LARGE):
        for n in range(1, 5):
            rows = [[exact.norm(p, rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            assert exact.det(p, rows) == _cofactor(p, rows)


def _cofactor(p, rows):
    if not rows:
        return exact.norm(p, 1)
    total = exact.norm(p, 0)
    for j, head in enumerate(rows[0]):
        rest = [row[:j] + row[j + 1:] for row in rows[1:]]
        total = exact.norm(p, total + (-1) ** j * head * _cofactor(p, rest))
    return total
