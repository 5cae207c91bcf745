"""Numeric tour of the cycle-product identities behind the recovery pipeline.

Three exhibits: a 4-cycle product collapsing to triangles when one entry
vanishes, a 4-cycle over five points decomposing into a star of triangles,
and a corrupted gauge ratio table getting caught by the cocycle laws.
"""

import random

from detequiv.fields import PrimeField
from detequiv.kernels import Cycle, Gauge, Kernel, cycle_product
from detequiv.recovery import verify_cocycle

F = PrimeField(101)


def _dense(rng, n, zero_at=None):
    rows = [[rng.randrange(1, 101) for _ in range(n)] for _ in range(n)]
    if zero_at:
        rows[zero_at[0]][zero_at[1]] = 0
    return Kernel(F, [str(i + 1) for i in range(n)], rows)


def main():
    rng = random.Random(7)

    h = _dense(rng, 4, zero_at=(0, 2))
    square = cycle_product(h, Cycle((0, 1, 2, 3)))
    hub = F.mul(F.mul(h.rows[2][3], h.rows[3][2]),
                F.mul(h.rows[3][0], h.rows[0][3]))
    reduced = F.mul(hub, F.div(cycle_product(h, Cycle((0, 1, 2))),
                               cycle_product(h, Cycle((0, 3, 2)))))
    print("4-cycle reduction with a zero at (1,3):")
    print(f"   product around (1,2,3,4) = {F.format(square)}")
    print(f"   triangles through point 4 rebuild it: {F.format(reduced)}")
    assert square == reduced

    k = _dense(rng, 5)
    num = F.one
    for tri in (Cycle((0, 1, 4)), Cycle((1, 2, 4)),
                Cycle((2, 3, 4)), Cycle((3, 0, 4))):
        num = F.mul(num, cycle_product(k, tri))
    den = F.one
    for i in range(4):
        den = F.mul(den, F.mul(k.rows[i][4], k.rows[4][i]))
    star = F.div(num, den)
    direct = cycle_product(k, Cycle((0, 1, 2, 3)))
    print("\nstar decomposition over five points:")
    print(f"   direct 4-cycle product  = {F.format(direct)}")
    print(f"   four triangles / spokes = {F.format(star)}")
    assert direct == star

    g = Gauge(F, [str(i + 1) for i in range(5)],
              [rng.randrange(1, 101) for _ in range(5)])
    table = Kernel(F, g.labels, [[F.one] * 5] * 5).conjugate(g)
    print("\ncocycle laws on a genuine gauge ratio table:",
          "ok" if verify_cocycle(table).ok else "BROKEN")
    rows = [list(r) for r in table.rows]
    rows[1][3] = F.mul(rows[1][3], 2)
    chk = verify_cocycle(Kernel(F, table.labels, rows))
    print(f"after doubling one entry: ok={chk.ok}, "
          f"violated {chk.violation.law} at points {chk.violation.points}")
    assert not chk.ok


if __name__ == "__main__":
    main()
