"""Instance generation, brute-force oracles, and counterexample search.

Everything here is seeded and deterministic: the same spec and seed always
produce the same instance, and the oracles are written independently of the
recovery pipeline so the two can act as checks on each other.
"""

import json
import random
from typing import NamedTuple

from .classd import check_class_d, class_d_ok
from .equivalence import check_equivalence
from .errors import GenerationBudgetExceeded
from .fields import PrimeField
from .kernels import Gauge, Kernel, require_same_points

_ENUMERATION_GUARD = 10**6  # closing entries the GF(p) oracle checks, both flips
_SPAN = 9  # rational entries and gauges are integers in [-_SPAN, _SPAN]


class InstanceSpec(NamedTuple):
    field: object
    n: int
    transpose: bool = False
    zero_edges: int = 0
    seed: int = 0
    max_attempts: int = 100000


class GroundTruth(NamedTuple):
    gauge: Gauge
    transposed: bool


def _slots(f):
    """The draw slots (values, width, bits) of a free entry and of a unit of f."""
    free, unit = ((range(f.p), range(1, f.p)) if f.kind == "prime" else
                  (range(-_SPAN, _SPAN + 1), [*range(-_SPAN, 0), *range(1, _SPAN + 1)]))
    return [(v, len(v), len(v).bit_length()) for v in (free, unit)]


def _draws(rng, slots):
    """Yield values[rng.randrange(width)] for each slot (values, width, bits).

    r = getrandbits(bits), redrawn while r >= width, is how randrange draws
    on CPython 3.10-3.13; tests/test_lab.py pins the match.  Lazy, so a long
    run of slots holds no list."""
    getrandbits = rng.getrandbits
    for values, width, bits in slots:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        yield values[r]


def _place_zeros(rng, rows, n, count):
    # each requested zero edge takes a fresh pair of points; a coin decides
    # whether both directions vanish or only one
    chosen = rng.sample(range(n), 2 * count)
    for t in range(count):
        u, v = chosen[2 * t], chosen[2 * t + 1]
        rows[u][v] = 0
        if rng.random() < 0.5:
            rows[v][u] = 0


def gen_instance(spec):
    """Draw a nondegenerate kernel and a transformed copy with known truth.

    Rejection sampling: off-diagonal entries are uniform nonzero (diagonals
    unrestricted), the requested zero edges are imposed, and the draw is
    repeated until the cross-minor scan accepts.  The companion kernel is
    the conjugate of k (or of its transpose) by a random unit gauge, so the
    pair is equivalent by construction and the returned GroundTruth is the
    exact transform.  Raises GenerationBudgetExceeded when max_attempts
    rejections pass without an accept, and at once over GF(p) when
    n >= p + 2, where no draw can pass.  Values come from getrandbits
    exactly as randrange makes them, which a test pins.
    """
    f = spec.field
    n = spec.n
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if spec.zero_edges < 0 or 2 * spec.zero_edges > n:
        raise ValueError(f"cannot place {spec.zero_edges} zero edges on {n} points")
    if spec.max_attempts < 1:
        raise ValueError(f"need max_attempts >= 1, got {spec.max_attempts}")
    if isinstance(f, PrimeField) and n >= f.p + 2:
        raise GenerationBudgetExceeded(
            f"no draw over {f!r} with n={n} can pass: two rows are units on "
            f"{n - 2} columns, more than the {f.p - 1} unit ratios, so two "
            f"columns share a ratio and a cross minor vanishes", attempts=0)
    free, unit = _slots(f)
    slots = [free if i == j else unit for i in range(n) for j in range(n)]
    rng = random.Random(spec.seed)
    rows = None
    for _ in range(spec.max_attempts):
        values = list(_draws(rng, slots))
        candidate = [values[i * n:i * n + n] for i in range(n)]
        if spec.zero_edges:
            _place_zeros(rng, candidate, n, spec.zero_edges)
        if class_d_ok(f, candidate):
            rows = candidate
            break
    if rows is None:
        raise GenerationBudgetExceeded(
            f"no nondegenerate kernel over {f!r} with n={n} found in "
            f"{spec.max_attempts} attempts", attempts=spec.max_attempts)
    labels = [str(i + 1) for i in range(n)]
    k = Kernel(f, labels, rows)
    gauge = Gauge(f, labels, _draws(rng, [unit] * n))
    source = k.transpose() if spec.transpose else k
    q = source.conjugate(gauge)
    return k, q, GroundTruth(gauge=gauge, transposed=spec.transpose)


def perturb(k, q, seed):
    """Copy q with exactly one entry changed so a minor of order <= 3 moves.

    Draws an entry and a fresh value until some principal minor of order at
    most three provably changes, which guarantees the result is not
    equivalent to anything q was equivalent to, with a witness of size <= 3.
    """
    require_same_points(k, q)
    f = k.field
    n = k.n
    slots = [(range(n), n, n.bit_length())] * 2 + _slots(f)[:1]
    rng = random.Random(seed)
    for _ in range(10000):
        i, j, value = _draws(rng, slots)
        value = f.coerce(value)
        if value == q.rows[i][j]:
            continue
        rows = [list(row) for row in q.rows]
        rows[i][j] = value
        candidate = Kernel(f, k.labels, rows)
        if not check_equivalence(q, candidate, max_order=min(3, n)).equivalent:
            return candidate
    raise RuntimeError("could not find a perturbation; this should not happen")


class OracleResult(NamedTuple):
    found: bool
    complete: bool
    transposed: bool = None
    gauge: Gauge = None


def brute_force_diagonal_similar(k, q):
    """Ground-truth search for a diagonal transform, independent of recovery.

    Over GF(p): an exhaustive but pruned search of all gauges with g = 1 at
    the first point (a global scale never matters), for both flips.  Each
    framework is searched depth first in lexicographic order, and a prefix
    is cut at the first entry it already fixes and gets wrong; the answer
    is the lexicographically least gauge, the direct framework winning a
    tie, exactly the first hit of a plain enumeration.  The two searches
    share a guard of 10^6 closing entries, m for each value tried at depth
    m, and past it the oracle raises ValueError instead of answering; a
    dense pattern prunes almost every prefix, and a sparse one that binds
    only at the last point tries about (p-1)^(n-1) values a flip.  Every
    answer it gives is complete.  Over the rationals: gauge propagation
    along nonzero entries plus a full re-check; complete when the nonzero
    pattern is connected, otherwise a miss is reported with complete=False
    rather than guessed.
    """
    require_same_points(k, q)
    if isinstance(k.field, PrimeField):
        return _enumerate_prime(k, q)
    return _propagate_rational(k, q)


def _enumerate_prime(k, q):
    f = k.field
    p = f.p
    n = k.n
    # a gauge fixes no diagonal entry, and k and its transpose share them
    if any(k.rows[i][i] != q.rows[i][i] for i in range(n)):
        return OracleResult(False, True)
    direct, budget = _least_gauge(k.rows, q.rows, p, _ENUMERATION_GUARD)
    flipped, _ = _least_gauge(list(zip(*k.rows)), q.rows, p, budget)
    if direct is None and flipped is None:
        return OracleResult(False, True)
    transposed = direct is None or (flipped is not None and flipped < direct)
    g = flipped if transposed else direct
    return OracleResult(True, True, transposed, Gauge(f, k.labels, g))


def _least_gauge(t, q, p, budget):
    """The lexicographically least g with g[0] = 1 and q = g t g^(-1), or
    None, and what is left of budget, the closing entries the search may
    check.

    Depth-first over g[1], g[2], ..., each taking the values 1..p-1 in
    increasing order.  A value v at depth m is kept when the entries that
    m closes against the fixed points i < m hold, in the inverse-free form
    q(i,m) v = g[i] t(i,m) and v t(m,i) = q(m,i) g[i]; when no value is
    left the search backs up a point.  Every off-diagonal entry is checked
    once the later of its two points is fixed, so a returned gauge holds on
    all of them; the caller checks the diagonal.  Each value tried at depth
    m is charged m, the entries it may check, so the budget bounds the
    time at every n; raises ValueError once it is overdrawn.
    """
    n = len(t)
    g = [1] * n
    closes = [None] * n  # closes[m]: (c, a, d, b) with c v = a and d v = b
    m, v = 1, 0  # v: the value last tried at depth m
    while 0 < m < n:
        if v == 0:
            closes[m] = [(q[i][m], g[i] * t[i][m] % p, t[m][i], q[m][i] * g[i] % p)
                         for i in range(m)]
        start = v
        for v in range(v + 1, p):
            for c, a, d, b in closes[m]:
                if (c * v - a) % p or (d * v - b) % p:
                    break
            else:
                kept = True
                break
        else:
            kept = False
        budget -= (v - start) * m  # an exhausted depth ends on v = p - 1
        if budget < 0:
            raise ValueError(f"gauge search checked over {_ENUMERATION_GUARD} "
                             "closing entries, the guard")
        if kept:
            g[m] = v
            m, v = m + 1, 0
        else:
            m -= 1
            v = g[m]
    return (g if m == n else None), budget


def _propagate_rational(k, q):
    all_definite = True
    for transposed in (False, True):
        t = k.transpose() if transposed else k
        values, definite = _push_gauge(k.field, t.rows, q.rows)
        if values is not None:
            return OracleResult(True, True, transposed,
                                Gauge(k.field, k.labels, values))
        all_definite = all_definite and definite
    # the miss is a definite verdict only if it was definite for both flips
    return OracleResult(False, all_definite)


def _push_gauge(field, t_rows, q_rows):
    """Independent re-implementation of gauge propagation for the oracle.

    Returns (values, definite); values is None on a miss, and the miss is
    flagged indefinite when the nonzero pattern was disconnected (the
    conservative stance: propagation roots beyond the first are pinned
    to 1, and no claim is made that no other choice could have worked).
    """
    n = len(t_rows)
    for i in range(n):
        for j in range(n):
            if (not t_rows[i][j]) != (not q_rows[i][j]):
                return None, True  # definite: no gauge can fix a zero mismatch
    g = [None] * n
    roots = 0
    for root in range(n):
        if g[root] is not None:
            continue
        roots += 1
        g[root] = field.one
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                if g[j] is not None or i == j:
                    continue
                if t_rows[i][j]:
                    g[j] = field.div(field.mul(g[i], t_rows[i][j]), q_rows[i][j])
                elif t_rows[j][i]:
                    g[j] = field.div(field.mul(q_rows[j][i], g[i]), t_rows[j][i])
                else:
                    continue
                queue.append(j)
    connected = roots == 1
    for i in range(n):
        for j in range(n):
            if q_rows[i][j] != field.div(field.mul(g[i], t_rows[i][j]), g[j]):
                return None, connected
    return g, connected


def search_counterexample(field, n, budget, seed):
    """Hunt for equivalent pairs that no diagonal transform (flipped or not)
    explains.

    Samples `budget` kernel pairs over a small prime field, each kernel one
    draw below p^(n*n) whose base-p digit i*n + j is entry (i, j).  Two
    screens run on the draws before anything heavier: the diagonals (the
    order-1 minors) must agree, the first diagonal digit tested by
    (a - b) % p and the other n - 1 compared from the lowest up to the
    first mismatch; then the pair products k(i,j) k(j,i), which fix the
    order-2 minors, on digits read as a // p^t % p, up to the first
    mismatch.  Only survivors are decoded into kernels; each goes through
    the full minor comparison and the exhaustive oracle.  From n = 4 on,
    emitted pairs are re-verified and must be degenerate (fail the
    cross-minor scan) on at least one side; an equivalent nondegenerate
    pair with no transform would contradict the rigidity theorem, so it
    raises instead of being returned.  Below n = 4 the theorem says
    nothing and the scan holds vacuously, so hits there need not be
    degenerate.  Results are sorted by their serialized form; an empty
    list is a normal outcome.  Both kernels come from getrandbits exactly
    as randrange(p^(n*n)) makes them, which a test pins.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("counterexample search runs over prime fields")
    if n < 1 or budget < 0:
        raise ValueError("need n >= 1 and budget >= 0")
    p = field.p
    getrandbits = random.Random(seed).getrandbits
    cells = n * n
    space = p ** cells
    bits = space.bit_length()
    step = p ** (n + 1)  # from diagonal digit i*n + i to the next
    pairs = [(p ** (i * n + j), p ** (j * n + i))  # digits of k(i,j), k(j,i)
             for i in range(n) for j in range(i + 1, n)]
    labels = [str(i + 1) for i in range(n)]
    hits = []
    for _ in range(budget):
        a = getrandbits(bits)
        while a >= space:
            a = getrandbits(bits)
        b = getrandbits(bits)
        while b >= space:
            b = getrandbits(bits)
        if (a - b) % p:
            continue
        x, y, m = a // step, b // step, n - 1  # m: diagonal digits left
        while m and x % p == y % p:
            x //= step
            y //= step
            m -= 1
        if m:
            continue
        if any((a // u % p * (a // v % p) - b // u % p * (b // v % p)) % p
               for u, v in pairs):
            continue
        adigits, bdigits = [], []
        for x, digits in ((a, adigits), (b, bdigits)):
            for _ in range(cells):
                x, d = divmod(x, p)
                digits.append(d)
        arows = [adigits[t:t + n] for t in range(0, cells, n)]
        brows = [bdigits[t:t + n] for t in range(0, cells, n)]
        k = Kernel(field, labels, arows)
        q = Kernel(field, labels, brows)
        if not check_equivalence(k, q).equivalent:
            continue
        oracle = brute_force_diagonal_similar(k, q)
        if oracle.found:
            continue
        holds_k = check_class_d(k).holds
        holds_q = check_class_d(q).holds
        if n >= 4 and holds_k and holds_q:
            raise RuntimeError(
                "equivalent nondegenerate pair with no diagonal transform; "
                "this contradicts the rigidity theorem and signals a bug")
        hits.append({
            "k": k.to_doc(),
            "q": q.to_doc(),
            "verdicts": {
                "equivalent": True,
                "diagonally_similar": False,
                "flipped_similar": False,
                "cross_minors_nonzero_k": holds_k,
                "cross_minors_nonzero_q": holds_q,
            },
        })
    hits.sort(key=lambda h: json.dumps(h, sort_keys=True))
    return hits
