"""Constructive recovery of the diagonal change of variables.

Given two kernels that agree on all principal minors and are both
nondegenerate, the entrywise ratio table built here is a multiplicative
cocycle, every cocycle is of the form c(x, y) = g(x)/g(y), and conjugating
by the gauge g (after an optional flip) carries one kernel onto the other.
The flip needs no code of its own: Q = g Kᵀ g⁻¹ is the direct framework
with K replaced by Kᵀ, so every step below is written for the direct case
and the flipped case runs it on the transpose.
``recover`` runs that argument as a pipeline with every step re-checked, so
a returned certificate is self-verifying and a failure is a precise verdict:
not equivalent, degenerate, mixed frameworks, or (for n <= 3, where the
rigidity argument has no room to work) possibly just not recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classd import check_class_d
from .classify import CaseLabel, CaseTable, GlobalCase, global_case
from .equivalence import check_equivalence
from .errors import (
    BranchUnavailable,
    ClassDViolation,
    Inconsistent,
    NotEquivalent,
    NotRecoverable,
    VerificationFailed,
)
from .kernels import Cocycle, Gauge, require_same_points


def build_cocycle_case1(k, q):
    """The ratio table S with Q(x, y) = S(x, y) K(x, y) entrywise.

    Branches for x != y (diagonal entries are one):

      K(x,y) != 0              ->  Q(x,y) / K(x,y)
      K(x,y) = 0, K(y,x) != 0  ->  K(y,x) / Q(y,x)
      K(x,y) = K(y,x) = 0      ->  Q(x,z) Q(z,y) / (K(x,z) K(z,y)),
                                   z the smallest index outside {x, y}

    Under validated preconditions every branch divides by a nonzero value
    and the third branch's value does not depend on z; a zero where the
    branch needs a unit means the preconditions were corrupted and raises
    BranchUnavailable.
    """
    require_same_points(k, q)
    f = k.field
    n = k.n
    zero = f.is_zero
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == y:
                row.append(f.one)
            elif not zero(k.rows[x][y]):
                row.append(f.div(q.rows[x][y], k.rows[x][y]))
            elif not zero(k.rows[y][x]):
                if zero(q.rows[y][x]):
                    raise BranchUnavailable(
                        f"entry ({k.labels[y]!r}, {k.labels[x]!r}) is zero in the "
                        "second kernel but not the first", pair=(x, y))
                row.append(f.div(k.rows[y][x], q.rows[y][x]))
            else:
                z = next((z for z in range(n) if z != x and z != y), None)
                if z is None or zero(k.rows[x][z]) or zero(k.rows[z][y]):
                    raise BranchUnavailable(
                        f"no usable pivot for the doubly-zero pair "
                        f"({k.labels[x]!r}, {k.labels[y]!r})", pair=(x, y))
                row.append(f.div(f.mul(q.rows[x][z], q.rows[z][y]),
                                 f.mul(k.rows[x][z], k.rows[z][y])))
        rows.append(row)
    return Cocycle(f, k.labels, rows)


@dataclass(frozen=True)
class CocycleViolation:
    law: str        # "unit_diagonal", "reciprocal_pair" or "triangle"
    points: tuple
    value: object


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    violation: CocycleViolation = None


def verify_cocycle(c):
    """Check the three cocycle laws, reporting the first violation.

    c(x,x) = 1, c(x,y)c(y,x) = 1, and c(x,y)c(y,z)c(z,x) = 1 over one
    orientation per 3-subset; given the pair law, the reversed orientation's
    product is the reciprocal of the forward one, so scanning one
    orientation is enough.  Products over longer cycles telescope from
    these, which is what makes a verified table a gauge table.  Scan order:
    diagonals, then pairs, then triples, each lexicographic.
    """
    f = c.field
    n = c.n
    one = f.one
    for i in range(n):
        if c.rows[i][i] != one:
            return CocycleCheck(False, CocycleViolation(
                "unit_diagonal", (i,), c.rows[i][i]))
    for i in range(n):
        for j in range(i + 1, n):
            v = f.mul(c.rows[i][j], c.rows[j][i])
            if v != one:
                return CocycleCheck(False, CocycleViolation(
                    "reciprocal_pair", (i, j), v))
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(j + 1, n):
                v = f.mul(f.mul(c.rows[i][j], c.rows[j][t]), c.rows[t][i])
                if v != one:
                    return CocycleCheck(False, CocycleViolation(
                        "triangle", (i, j, t), v))
    return CocycleCheck(True)


def extract_gauge(c, base):
    """Read the gauge g(x) = c(x, base) off a verified cocycle table.

    For such a table c(x, y) = g(x)/g(y) with g(base) = 1: the triangle law
    through the base point gives c(x, y) = c(x, base) c(base, y) and the
    pair law turns c(base, y) into 1/c(y, base).
    """
    if not 0 <= base < c.n:
        raise IndexError(f"base index {base} out of range for n={c.n}")
    return Gauge(c.field, c.labels, [c.rows[x][base] for x in range(c.n)])


def consistency_audit(k, q, x, y, case=GlobalCase.CASE1):
    """Check that the doubly-indirect ratio does not depend on the pivot.

    Preconditions: n >= 4 and K(x, y) = 0.  Evaluates the pivot expression
    of the third cocycle branch at every admissible z; all values must
    agree, and when K(y, x) is nonzero they must also equal the second
    branch's value.  Returns the common value, raises Inconsistent
    otherwise.  The flipped framework (CASE2) is the direct one on kᵀ, so
    there the precondition reads K(y, x) = 0.
    """
    if case is GlobalCase.CASE2:
        k = k.transpose()
    require_same_points(k, q)
    f = k.field
    n = k.n
    if n < 4:
        raise ValueError(f"consistency audit needs n >= 4, got n={n}")
    if x == y:
        raise ValueError("need two distinct points")
    zero = f.is_zero
    if not zero(k.rows[x][y]):
        raise ValueError("the framework's entry at (x, y) is not zero")
    values = []
    for z in range(n):
        if z == x or z == y:
            continue
        ka = k.rows[x][z]
        kb = k.rows[z][y]
        if zero(ka) or zero(kb):
            raise BranchUnavailable(
                f"pivot {k.labels[z]!r} hits a zero entry, which the one-zero "
                "layout rule forbids", pair=(x, y))
        values.append(f.div(f.mul(q.rows[x][z], q.rows[z][y]), f.mul(ka, kb)))
    if any(v != values[0] for v in values[1:]):
        raise Inconsistent(
            f"pivot expression at pair ({k.labels[x]!r}, {k.labels[y]!r}) "
            "depends on the pivot", pair=(x, y), values=values)
    if not zero(k.rows[y][x]):
        direct = f.div(k.rows[y][x], q.rows[y][x])
        if direct != values[0]:
            raise Inconsistent(
                f"pivot expression disagrees with the direct ratio at "
                f"({k.labels[x]!r}, {k.labels[y]!r})",
                pair=(x, y), values=(values[0], direct))
    return values[0]


@dataclass(frozen=True)
class RecoveryResult:
    transposed: bool
    gauge: Gauge
    base_label: str

    @property
    def global_case(self):
        return GlobalCase.CASE2 if self.transposed else GlobalCase.CASE1

    @property
    def entries_checked(self):
        return len(self.gauge.values) ** 2

    def certificate(self):
        return {
            "transposed": self.transposed,
            "base": self.base_label,
            "gauge": self.gauge.to_doc(),
            "global_case": self.global_case.value,
            "verified": True,
        }


def recover(k, q, max_order=None):
    """Decide equivalence and produce the transform carrying k onto q.

    Pipeline: minor comparison (full by default, and never capped below
    order two), nondegeneracy of both kernels, per-cycle classification,
    framework selection, ratio table, cocycle laws, gauge extraction at the
    smallest label, and an entrywise re-check of the certificate; the
    flipped framework runs these last steps on kᵀ.  When every cycle is
    classified BOTH the framework is ambiguous and a failed reconstruction
    is retried with the flip before any error escapes.  Kernels with n <= 3
    skip the middle (the rigidity argument needs four points) and are
    solved directly, trying both flips.

    Raises NotEquivalent, ClassDViolation, MixedCases or NotRecoverable for
    negative verdicts, VerificationFailed if the certificate fails its own
    re-check (internal bug or an unsound max_order cap).
    """
    require_same_points(k, q)
    n = k.n

    # a cap still covers order 2, where diagonals and pair products live
    if max_order == 1:
        max_order = min(2, n)
    rep = check_equivalence(k, q, max_order=max_order)
    if not rep.equivalent:
        raise NotEquivalent(
            f"kernels disagree on the principal minor at {rep.witness_subset!r}",
            subset=rep.witness_subset, minor_k=rep.witness_minor_k,
            minor_q=rep.witness_minor_q)

    base = min(range(n), key=lambda i: k.labels[i])
    if n <= 3:
        return _recover_small(k, q, base)

    for role, kern in (("first", k), ("second", q)):
        crep = check_class_d(kern)
        if not crep.holds:
            raise ClassDViolation(
                f"the {role} kernel has a vanishing cross minor at "
                f"{crep.witness_labels!r}", kernel_role=role, witness=crep.witness)

    table = CaseTable.build(k, q)
    bad = table.neither_rows()
    if bad:
        row = bad[0]
        f = k.field
        raise NotEquivalent(
            f"cycle products around {row.cycle!r} match neither directly nor "
            "flipped, which no equivalent pair allows",
            subset=tuple(sorted(row.cycle.vertices)),
            detail={
                "cycle": row.cycle.vertices,
                "k_forward": f.format(row.k_forward),
                "k_reversed": f.format(row.k_reversed),
                "q_forward": f.format(row.q_forward),
                "q_reversed": f.format(row.q_reversed),
            })

    case = global_case(table)

    # an all-BOTH table cannot distinguish the flip (every 3-cycle product
    # is orientation-symmetric, typically through shared zeros); it lands on
    # CASE1, so a failed reconstruction there is retried with the flip
    ambiguous = all(r.label is CaseLabel.BOTH for r in table.rows)
    try:
        return _apply_framework(k, q, case, base)
    except (VerificationFailed, BranchUnavailable):
        if not ambiguous:
            raise
        return _apply_framework(k, q, GlobalCase.CASE2, base)


def _apply_framework(k, q, case, base):
    # the flipped framework is the direct one on the transpose
    n = k.n
    transposed = case is GlobalCase.CASE2
    target = k.transpose() if transposed else k
    cocycle = build_cocycle_case1(target, q)
    chk = verify_cocycle(cocycle)
    if not chk.ok:
        raise VerificationFailed(
            f"ratio table violates the {chk.violation.law} law at "
            f"{chk.violation.points!r}", detail=chk.violation)

    gauge = extract_gauge(cocycle, base)

    recon = target.conjugate(gauge)
    if recon.rows != q.rows:
        for i in range(n):
            for j in range(n):
                if recon.rows[i][j] != q.rows[i][j]:
                    raise VerificationFailed(
                        f"certificate fails at entry "
                        f"({k.labels[i]!r}, {k.labels[j]!r})",
                        detail={"entry": (i, j)})

    return RecoveryResult(transposed=transposed, gauge=gauge,
                          base_label=k.labels[base])


def _recover_small(k, q, base):
    """Direct solve for n <= 3: propagate a gauge along nonzero entries.

    With so few points the nondegeneracy machinery has nothing to grip, but
    equivalence has already been established and the search space is tiny:
    for each flip, fix g = 1 at the base point (and at the root of any
    component the base cannot reach), push g along nonzero entries, and
    re-check every entry.  Equivalent-but-unrecoverable pairs exist at these
    sizes, so failure of both flips is reported as NotRecoverable rather
    than as an internal error.
    """
    for transposed in (False, True):
        target = k.transpose() if transposed else k
        values = _propagate_gauge(k.field, target.rows, q.rows, base)
        if values is not None:
            return RecoveryResult(
                transposed=transposed,
                gauge=Gauge(k.field, k.labels, values),
                base_label=k.labels[base])
    raise NotRecoverable(
        "kernels agree on all principal minors but no diagonal change of "
        "variables relates them, flipped or not")


def _propagate_gauge(field, t_rows, q_rows, base):
    """Solve q = g t g^(-1) for a diagonal g with g(base) = 1, or None.

    Requires matching zero layouts, then pushes g across every nonzero
    entry (in either direction) from the base and from each later root; a
    final full re-check catches inconsistent cycles, so a non-None answer
    is always a verified solution.
    """
    n = len(t_rows)
    zero = field.is_zero
    for i in range(n):
        for j in range(n):
            if zero(t_rows[i][j]) != zero(q_rows[i][j]):
                return None
    g = [None] * n
    order = [base] + [i for i in range(n) if i != base]
    for root in order:
        if g[root] is not None:
            continue
        g[root] = field.one
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if g[j] is not None or i == j:
                    continue
                if not zero(t_rows[i][j]):
                    # q(i,j) = g(i) t(i,j) / g(j)
                    g[j] = field.div(field.mul(g[i], t_rows[i][j]), q_rows[i][j])
                    stack.append(j)
                elif not zero(t_rows[j][i]):
                    # q(j,i) = g(j) t(j,i) / g(i)
                    g[j] = field.div(field.mul(q_rows[j][i], g[i]), t_rows[j][i])
                    stack.append(j)
    for i in range(n):
        for j in range(n):
            if q_rows[i][j] != field.div(field.mul(g[i], t_rows[i][j]), g[j]):
                return None
    return g
