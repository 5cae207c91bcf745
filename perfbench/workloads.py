"""Seeded inputs of the four workloads, built without detequiv.

Every workload is a fixed schedule of CLI calls.  The mix of commands,
fields, sizes and verdict kinds is fixed per workload; the seed only draws
the entries.  So two seeds cost about the same, and a median lands on the
same kind of call whatever the seed.

Kinds of kernel pair (all built and checked with ``exact``):

- ``pos``: q is k, or its transpose, conjugated by a random gauge; k is
  nondegenerate, with 0 to 2 zero edges on disjoint point pairs.
- ``sym``: as ``pos`` with a symmetric k, so every 3-cycle is labelled BOTH.
- ``neg_entry``: a ``pos`` pair with one off-diagonal entry of q changed;
  exactly one order-2 minor moves, so the witness is that pair.
- ``neg_flip``: k symmetric except on two disjoint pairs {a, b}, {c, d};
  q swaps K(a,b) and K(b,a).  Orders 1 to 3 still agree and the only
  4-subset that differs is {a, b, c, d}.  These are the last four points,
  so a scan in subset order meets the witness only after every other
  subset of order at most 4, the same work for every seed.
- ``neg_degenerate``: an equivalent pair whose k has a forced vanishing
  cross minor, so ``recover`` refuses it only after the full minor scan.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import exact

GF_LARGE = 1000003
WORKLOADS = ("gf-large", "rational-mid", "small-mixed", "lab")

# The tail percentile reported for each workload: the highest that a
# 25-second run leaves at least 10 samples beyond, even on a machine a
# third slower.  A fixed percentile keeps runs with different call counts
# comparable.
TAIL_PERCENTILE = {"gf-large": 75.0, "rational-mid": 75.0, "small-mixed": 95.0,
                   "lab": 95.0}

# Attempts allowed to draw one nondegenerate kernel by rejection; the
# field/size pairs used below accept at least 1 in 700 draws.
_MAX_DRAWS = 200000
_SEARCH_BUDGET = 10000


@dataclass
class Call:
    """One CLI call of the schedule and what its answer must be."""

    args: list            # argv after the command; file names are bare
    kind: str
    n: int
    p: object             # modulus, or None for Q
    expect_exit: int
    docs: dict = field(default_factory=dict)     # file name -> JSON doc
    expect: dict = field(default_factory=dict)   # kind-specific facts

    @property
    def command(self):
        return self.args[0]

    def view(self):
        return {"args": self.args, "kind": self.kind, "n": self.n, "p": self.p,
                "expect_exit": self.expect_exit, "docs": self.docs,
                "expect": self.expect}


def digest(calls):
    """sha256 of the whole schedule: every argument, file and expectation."""
    text = json.dumps([c.view() for c in calls], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ drawing values


def _unit(rng, p):
    if p is None:
        return exact.Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                              rng.randint(1, 9))
    return rng.randrange(1, p)


def _other_unit(rng, p, value):
    while True:
        v = _unit(rng, p)
        if v != value:
            return v


def _gauge(rng, p, n):
    return [_unit(rng, p) for _ in range(n)]


def _random_units(rng, p, n, symmetric):
    rows = [[rng.randrange(p) if i == j else rng.randrange(1, p)
             for j in range(n)] for i in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return rows


def _cauchy(rng, n, symmetric):
    """u_i v_j / (a_i - b_j): every cross minor is a nonzero Cauchy minor."""
    if symmetric:
        a = rng.sample(range(1, 80), n)
        b = [-x for x in a]
        u = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
        v = u
    else:
        ab = rng.sample(range(-60, 61), 2 * n)
        a, b = ab[:n], ab[n:]
        u = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
        v = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
    return [[exact.Fraction(u[i] * v[j], a[i] - b[j]) for j in range(n)]
            for i in range(n)]


def _kernel(rng, p, n, zeros=0, symmetric=False):
    """A nondegenerate kernel, with zero edges on disjoint point pairs.

    Over GF(p) the entries are random units, redrawn until the cross-minor
    check passes; over Q they form a scaled Cauchy kernel, which passes by
    construction.  Zeros on disjoint pairs keep every cross minor nonzero,
    since the two products of a cross minor cannot both meet a zero unless
    two zeros share a row or a column.  Either way the check runs.
    """
    for _ in range(_MAX_DRAWS):
        rows = (_cauchy(rng, n, symmetric) if p is None
                else _random_units(rng, p, n, symmetric))
        points = rng.sample(range(n), 2 * zeros)
        for t in range(zeros):
            u, v = points[2 * t], points[2 * t + 1]
            rows[u][v] = exact.norm(p, 0)
            if symmetric or rng.random() < 0.5:
                rows[v][u] = exact.norm(p, 0)
        if exact.is_nondegenerate(p, rows):
            return rows
    raise RuntimeError(f"no nondegenerate kernel over {p} at n={n}")


def _conjugate_pair(rng, p, k, flip):
    gauge = _gauge(rng, p, len(k))
    source = exact.transpose(k) if flip else k
    return exact.conjugate(p, source, gauge)


# ------------------------------------------------------------ pair kinds


def pair(rng, p, n, kind, flip=False, zeros=0):
    """Build (k, q, expect) for one kind; see the module docstring."""
    if kind in ("pos", "sym"):
        k = _kernel(rng, p, n, zeros, symmetric=kind == "sym")
        return k, _conjugate_pair(rng, p, k, flip), {"flip": flip}
    if kind == "neg_entry":
        k = _kernel(rng, p, n)
        q = _conjugate_pair(rng, p, k, flip)
        i, j = rng.sample(range(n), 2)
        q[i][j] = _other_unit(rng, p, q[i][j])
        return k, q, {"witness": sorted((i, j))}
    if kind == "neg_flip":
        return _near_symmetric_pair(rng, p, n, flip)
    if kind == "neg_degenerate":
        k = _kernel(rng, p, n)
        x, w = sorted(rng.sample(range(n), 2))
        y, z = sorted(rng.sample([i for i in range(n) if i not in (x, w)], 2))
        k[w][z] = exact.div(p, exact.mul(p, k[x][z], k[w][y]), k[x][y])
        quad = exact.least_vanishing_quad(p, k)
        return k, _conjugate_pair(rng, p, k, flip), {"quad": list(quad)}
    raise ValueError(f"unknown pair kind {kind!r}")


def _near_symmetric_pair(rng, p, n, flip):
    for _ in range(_MAX_DRAWS):
        k = _kernel(rng, p, n, symmetric=True)
        a, b, c, d = rng.sample(range(n - 4, n), 4)
        k[a][b] = _other_unit(rng, p, k[a][b])
        k[c][d] = _other_unit(rng, p, k[c][d])
        if not exact.is_nondegenerate(p, k):
            continue
        swapped = [row[:] for row in k]
        swapped[a][b], swapped[b][a] = k[b][a], k[a][b]
        witness = sorted((a, b, c, d))
        if exact.minor(p, k, witness) != exact.minor(p, swapped, witness):
            return k, _conjugate_pair(rng, p, swapped, flip), {"witness": witness}
    raise RuntimeError(f"no near-symmetric pair over {p} at n={n}")


# ------------------------------------------------------------ schedules


def _pair_call(rng, index, command, p, n, kind, flip=False, zeros=0):
    k, q, expect = pair(rng, p, n, kind, flip, zeros)
    kname, qname = f"k{index:03d}.json", f"q{index:03d}.json"
    positive = kind in ("pos", "sym") or (command == "check-equiv"
                                         and kind == "neg_degenerate")
    return Call(args=[command, "--k", kname, "--q", qname], kind=kind, n=n,
                p=p, expect_exit=0 if positive else 1,
                docs={kname: exact.kernel_doc(p, k),
                      qname: exact.kernel_doc(p, q)},
                expect=expect)


# Pair schedules list (command, p, n, kind, flip, zero edges).  The counts
# per size are chosen so that each median and tail percentile falls inside a
# run of calls of one size, not on the step between two sizes: per-call cost
# doubles with every point, and a quantile on a step would swing with noise.


def _gf_large_rows():
    # sorted by cost: 6 fast negatives, 2 at n = 10, 7 at n = 11 (the
    # median), 5 at n = 12 (the 75th percentile), one each at n = 13, 14
    p = GF_LARGE
    rows = [("recover", p, n, "neg_entry", False, 0) for n in (10, 12, 14)]
    rows += [("recover", p, 12, "neg_flip", flip, 0) for flip in (False, True, False)]
    rows += [("recover", p, 10, "pos", flip, z) for flip, z in _FLIPS_ZEROS[:2]]
    rows += [("recover", p, 11, "pos", flip, z) for flip, z in _FLIPS_ZEROS]
    rows += [("recover", p, 12, "pos", flip, z) for flip, z in _FLIPS_ZEROS[3:]]
    rows += [("recover", p, 11, "neg_degenerate", True, 0),
             ("recover", p, 12, "neg_degenerate", False, 0),
             ("recover", p, 12, "neg_degenerate", True, 0),
             ("recover", p, 13, "pos", True, 1),
             ("recover", p, 14, "pos", False, 2)]
    return rows


def _rational_mid_rows():
    # sorted by cost: 8 fast negatives, 4 at n = 8, 14 at n = 9 (the median
    # of all calls and of the positives), 10 at n = 10 (the 75th
    # percentile), 4 at n = 11; the 5 flipped pairs that recover refutes at
    # n = 9 hold the median of the negatives
    rows = [("recover", None, 9, "neg_entry", False, 0),
            ("check-equiv", None, 10, "neg_entry", True, 0),
            ("check-equiv", None, 9, "neg_flip", False, 0)]
    rows += [("recover", None, 9, "neg_flip", flip, 0) for flip, _ in _FLIPS_ZEROS[:5]]
    for command in ("recover", "check-equiv"):
        rows += [(command, None, 8, "pos", flip, z) for flip, z in _FLIPS_ZEROS[:2]]
        rows += [(command, None, 9, "pos", flip, z) for flip, z in _FLIPS_ZEROS]
        rows += [(command, None, 10, "pos", flip, z) for flip, z in _FLIPS_ZEROS[2:]]
        rows += [(command, None, 11, "pos", flip, z) for flip, z in _FLIPS_ZEROS[1:3]]
        rows += [(command, None, 9, "neg_degenerate", True, 0),
                 (command, None, 10, "neg_degenerate", False, 0)]
    return rows


# flip and zero-edge count of successive positives
_FLIPS_ZEROS = ((False, 0), (True, 1), (False, 2), (True, 0), (False, 1), (True, 2))


_SMALL_FIELDS = ((7, (4, 5)), (11, (4, 5)), (101, (4, 5, 6)), (None, (4, 5, 6)))


def _small_mixed_rows():
    # GF(7) and GF(11) stop at n = 5: random units there are nondegenerate
    # in 0 of 3000 draws at n = 6.  The costliest calls are the positives
    # over Q at n = 6; a fourth one makes them the top 4 of 61, around the
    # 95th percentile.
    rows = []
    for p, sizes in _SMALL_FIELDS:
        for n in sizes:
            rows.append(("recover", p, n, "pos", False, 0))
            rows.append(("recover", p, n, "pos", True, 1))
            rows.append(("recover", p, n, "sym", False, n // 5))
            rows.append(("recover", p, n, "neg_entry", n % 2 == 0, 0))
            rows.append(("recover", p, n, "neg_flip", False, 0))
            rows.append(("recover", p, n, "neg_degenerate", True, 0))
    rows.append(("recover", None, 6, "pos", True, 0))
    return rows


# ------------------------------------------------------------ lab


def _halfway_gauge(rng, p, n):
    """A random multiple of the gauge halfway through the oracle's search.

    The oracle tries the gauges with 1 at the first point in lexicographic
    order, so a pair built with this one costs it half the full search
    whatever the seed; a gauge drawn at random would cost anything from
    nothing to all of it.
    """
    rank = (p - 1) ** (n - 1) // 2
    tail = []
    for _ in range(n - 1):
        rank, digit = divmod(rank, p - 1)
        tail.append(digit + 1)
    scale = rng.randrange(1, p)
    return [scale] + [scale * t % p for t in reversed(tail)]


def _lab_schedule(rng):
    # The oracle's exhaustive misses, its halfway hits and search's fixed
    # budget cost about the same whatever the seed.  gen's rejection
    # sampling does not: its draws are geometric in its own --seed.  So gen
    # runs at the fixed seeds 1 to 6, and every workload seed pays for the
    # same draws.
    calls = []
    for p in (2, 3):
        for _ in range(2):
            calls.append(Call(args=["search", "--field", f"prime:{p}", "--n", "4",
                                    "--budget", str(_SEARCH_BUDGET),
                                    "--seed", str(rng.randrange(10**6))],
                              kind="search", n=4, p=p, expect_exit=0))
    index = 0
    # A miss costs about 4 ms at (5, 5), 7 ms at (5, 6) and 33 ms at (7, 6);
    # a hit about 4 ms at n = 5 and at (5, 6), and 18 ms at (7, 6).  The
    # counts put the median of the misses among those at (5, 6), and the
    # medians of all calls and of the hits among the hits at (7, 6), each
    # in a group of calls that cost the same.
    for p, n, hits, misses in ((5, 5, 4, 2), (5, 6, 4, 3), (7, 5, 4, 0), (7, 6, 24, 2)):
        for kind in ("found",) * hits + ("miss",) * misses:
            k = _random_units(rng, p, n, symmetric=False)
            source = exact.transpose(k) if index % 2 == 1 else k
            q = exact.conjugate(p, source, _halfway_gauge(rng, p, n))
            expect = {}
            if kind == "miss":
                i, j = rng.sample(range(n), 2)
                q[i][j] = _other_unit(rng, p, q[i][j])
                expect = {"witness": sorted((i, j))}
            kname, qname = f"k{index:03d}.json", f"q{index:03d}.json"
            index += 1
            calls.append(Call(args=["oracle", "--k", kname, "--q", qname],
                              kind=kind, n=n, p=p,
                              expect_exit=0 if kind == "found" else 1,
                              docs={kname: exact.kernel_doc(p, k),
                                    qname: exact.kernel_doc(p, q)},
                              expect=expect))
    for p, field_arg, n in ((7, "prime:7", 5), (None, "rational", 8)):
        for t in range(6):
            flip, zeros = t % 2 == 1, t % 3 // 2
            args = ["gen", "--field", field_arg, "--n", str(n),
                    "--zeros", str(zeros), "--seed", str(t + 1)]
            if flip:
                args.append("--transpose")
            calls.append(Call(args=args, kind="gen", n=n, p=p, expect_exit=0,
                              expect={"flip": flip, "zeros": zeros}))
    return calls


_PAIR_ROWS = {"gf-large": _gf_large_rows, "rational-mid": _rational_mid_rows,
              "small-mixed": _small_mixed_rows}


def schedule(workload, seed):
    """The workload's calls for this seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lab":
        return _lab_schedule(rng)
    return [_pair_call(rng, i, *row) for i, row in enumerate(_PAIR_ROWS[workload]())]
