"""Per-3-cycle comparison of forward and reversed products for a kernel pair.

Each 3-cycle gets a label saying how the two kernels' products around it
match up: directly (conjugation-compatible), after reversing one side
(flip-compatible), both ways, or neither.  Reversing the cycle swaps forward
and reversed products on both sides simultaneously, so the label does not
depend on orientation and one orientation per triple is stored.
"""

import itertools
from enum import Enum
from typing import NamedTuple

from .errors import MixedCases
from .kernels import Cycle, cycle_product, require_same_points


class CaseLabel(Enum):
    CASE1_ONLY = "case1_only"   # products match directly, not after a flip
    CASE2_ONLY = "case2_only"   # products match only after a flip
    BOTH = "both"
    NEITHER = "neither"


class GlobalCase(Enum):
    CASE1 = "case1"
    CASE2 = "case2"


class CycleClassification(NamedTuple):
    cycle: Cycle
    label: CaseLabel
    k_forward: object
    k_reversed: object
    q_forward: object
    q_reversed: object
    zero_edges: tuple   # edges of the cycle whose relevant entry of k is zero


def classify_3cycle(k, q, cycle):
    """Label one 3-cycle and record its zero edges.

    Zero edges follow the cycle's own label: for a directly-matching cycle an
    edge (a, b) counts as zero when K(a, b) = 0; for a flip-only cycle when
    K(b, a) = 0.  (When both matchings hold the two senses coincide on any
    pair that is admissible at all.)
    """
    require_same_points(k, q)
    if len(cycle) != 3:
        raise ValueError(f"need a 3-cycle, got length {len(cycle)}")
    reverse = cycle.reverse()
    kf = cycle_product(k, cycle)
    kr = cycle_product(k, reverse)
    qf = cycle_product(q, cycle)
    qr = cycle_product(q, reverse)
    direct = kf == qf and kr == qr
    flipped = kf == qr and kr == qf
    if direct and flipped:
        label = CaseLabel.BOTH
    elif direct:
        label = CaseLabel.CASE1_ONLY
    elif flipped:
        label = CaseLabel.CASE2_ONLY
    else:
        label = CaseLabel.NEITHER
    if label is CaseLabel.CASE2_ONLY:
        zero_edges = tuple((a, b) for a, b in cycle.edges() if not k.rows[b][a])
    else:
        zero_edges = tuple((a, b) for a, b in cycle.edges() if not k.rows[a][b])
    return CycleClassification(cycle, label, kf, kr, qf, qr, zero_edges)


class CaseTable(NamedTuple):
    """Classification of one orientation per 3-subset, triples in lex order."""

    rows: tuple

    @classmethod
    def build(cls, k, q):
        require_same_points(k, q)
        if k.n < 3:
            raise ValueError(f"classification needs n >= 3, got n={k.n}")
        rows = [classify_3cycle(k, q, Cycle(triple))
                for triple in itertools.combinations(range(k.n), 3)]
        return cls(tuple(rows))

    def neither_rows(self):
        return tuple(r for r in self.rows if r.label is CaseLabel.NEITHER)

    def counts(self):
        out = {label: 0 for label in CaseLabel}
        for r in self.rows:
            out[r.label] += 1
        return out


def global_case(table):
    """Collapse a case table to a single framework.

    Every cycle labelled CASE1_ONLY or BOTH gives CASE1; every cycle
    CASE2_ONLY or BOTH gives CASE2; an all-BOTH table deliberately lands on
    CASE1 (no flip needed).  A table mixing exclusive labels raises
    MixedCases and a table with any NEITHER is rejected outright, since the
    caller should have turned that into a refutation already.
    """
    bad = table.neither_rows()
    if bad:
        raise ValueError(
            f"case table contains unmatched cycles, e.g. {bad[0].cycle!r}")
    first_direct = None
    first_flipped = None
    for r in table.rows:
        if r.label is CaseLabel.CASE1_ONLY and first_direct is None:
            first_direct = r.cycle
        elif r.label is CaseLabel.CASE2_ONLY and first_flipped is None:
            first_flipped = r.cycle
    if first_direct is not None and first_flipped is not None:
        raise MixedCases(
            f"cycle {first_direct!r} matches only directly but "
            f"{first_flipped!r} matches only flipped",
            direct_cycle=first_direct, flipped_cycle=first_flipped)
    if first_flipped is not None:
        return GlobalCase.CASE2
    return GlobalCase.CASE1
