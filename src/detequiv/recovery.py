"""Constructive recovery of the diagonal change of variables.

Two kernels are related by the paper's canonical transformations when
Q = g K g⁻¹ for a nowhere-zero gauge g, directly or after the flip K -> Kᵀ;
the flipped case is the direct one run on the transpose.  ``recover``
makes one ``equivalence.check_equivalence`` call, which compares minors up
to order two and then tries ``equivalence._certify``: g solved by
propagation along nonzero entries of the scan's integer rows, then
re-checked entry by entry on them up to the first entry that fails, with
no transposed or conjugated kernel built.  The solve is complete: with
matching zero layouts a gauge is fixed up to one constant per connected
component of the nonzero pattern.  Gauge and flip preserve every principal
minor, so a certificate that re-checks proves equivalence, and the same
call compares higher minors only to refute.  A positive thus costs O(n^2)
for the minors and the certificate, plus the O(n^3) row-pair scan of k for
property D (``classd.check_class_d``).

The paper's constructive route, the ratio table with its cocycle laws, is
kept as the reference the tests compare against; the gauge read off it
and the pivot audit are in ``tests/reference_audits.py``.  The table S,
with Q = S K entrywise, is a ``Kernel`` on the same points, g(x) / g(y)
when a gauge g relates the two.  Whenever the table passes its laws, every
pair is joined by a nonzero entry or a 2-path, so propagation returns the
identical gauge.

A failure is a precise verdict: not equivalent, degenerate, or (for
n <= 3, where the rigidity argument has no room to work) possibly just not
recoverable.  From n = 4 on there is no fourth verdict: two kernels that
both have property D, zeros allowed, and agree on every principal minor
are gauge conjugates, directly or after a flip (the rigidity theorem; in
the finite case a version of Loewy, LAA 78, 1986).  So once the full minor
scan and the nondegeneracy scan both pass, two failed solves are an
internal fault.
"""

from typing import NamedTuple

from .classd import check_class_d
from .classify import GlobalCase
from .equivalence import check_equivalence
from .errors import (
    BranchUnavailable,
    ClassDViolation,
    NotEquivalent,
    NotRecoverable,
    VerificationFailed,
)
from .kernels import Gauge, Kernel, require_same_points


def build_cocycle_case1(k, q):
    """The ratio table S with Q(x, y) = S(x, y) K(x, y) entrywise, as a
    ``Kernel`` on k's points.

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
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == y:
                row.append(f.one)
            elif k.rows[x][y]:
                row.append(f.div(q.rows[x][y], k.rows[x][y]))
            elif k.rows[y][x]:
                if not q.rows[y][x]:
                    raise BranchUnavailable(
                        f"entry ({k.labels[y]!r}, {k.labels[x]!r}) is zero in the "
                        "second kernel but not the first", pair=(x, y))
                row.append(f.div(k.rows[y][x], q.rows[y][x]))
            else:
                z = next((z for z in range(n) if z != x and z != y), None)
                if z is None or not k.rows[x][z] or not k.rows[z][y]:
                    raise BranchUnavailable(
                        f"no usable pivot for the doubly-zero pair "
                        f"({k.labels[x]!r}, {k.labels[y]!r})", pair=(x, y))
                row.append(f.div(f.mul(q.rows[x][z], q.rows[z][y]),
                                 f.mul(k.rows[x][z], k.rows[z][y])))
        rows.append(row)
    return Kernel(f, k.labels, rows)


class CocycleViolation(NamedTuple):
    law: str        # "unit_diagonal", "reciprocal_pair" or "triangle"
    points: tuple
    value: object


class CocycleCheck(NamedTuple):
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


class RecoveryResult(NamedTuple):
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


def recover(k, q):
    """Decide equivalence and produce the transform carrying k onto q.

    Pipeline: one ``check_equivalence`` call, which tries the certificate
    (the propagated gauge, re-checked entry by entry, on k and then on kᵀ)
    once the minors agree up to order two.  A certificate is returned
    once k passes the nondegeneracy scan (from n = 4 on); q's verdict is
    k's, since a gauge scales each cross minor by a unit and the flip maps
    cross minors to cross minors.  Without one, the same call's witness
    comes first, with no second solve, then the nondegeneracy scan of both
    kernels.  From n = 4 on a pair that passes both scans would contradict
    the rigidity theorem (module docstring).

    Raises NotEquivalent, ClassDViolation or NotRecoverable for negative
    verdicts, VerificationFailed for such a contradiction, an internal
    fault.
    """
    rep = check_equivalence(k, q)
    if not rep.equivalent:
        raise NotEquivalent(
            f"kernels disagree on the principal minor at {rep.witness_subset!r}",
            subset=rep.witness_subset, minor_k=rep.witness_minor_k,
            minor_q=rep.witness_minor_q)
    if rep.certificate is not None:
        _require_class_d(k)
        return RecoveryResult(*rep.certificate)
    if k.n <= 3:
        # equivalent pairs with no transform exist below four points
        raise NotRecoverable(
            "kernels agree on all principal minors but no diagonal change of "
            "variables relates them, flipped or not")
    _require_class_d(k, q)
    raise VerificationFailed(
        "both kernels have property D and agree on every principal minor, "
        "but neither certificate re-checks; this contradicts the rigidity "
        "theorem and signals a bug")


def _require_class_d(*kernels):
    if kernels[0].n < 4:
        return
    for role, kern in zip(("first", "second"), kernels):
        crep = check_class_d(kern)
        if not crep.holds:
            raise ClassDViolation(
                f"the {role} kernel has a vanishing cross minor at "
                f"{crep.witness_labels!r}", kernel_role=role,
                witness=crep.witness)
