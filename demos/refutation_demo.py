"""Break an equivalent pair by one entry and watch the minimal witness appear.

A single changed entry always moves some principal minor of order at most
three, so the refutation comes with a small certificate anyone can re-check
by computing two determinants.
"""

import argparse
from itertools import combinations

from detequiv.errors import NotEquivalent
from detequiv.fields import PrimeField
from detequiv.lab import InstanceSpec, gen_instance, perturb
from detequiv.recovery import recover


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=11)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    field = PrimeField(args.p)
    spec = InstanceSpec(field=field, n=args.n, seed=args.seed)
    k, q, _ = gen_instance(spec)
    print(f"equivalent pair over GF({args.p}), n={args.n}; "
          "now changing one entry of the second kernel")
    bad = perturb(k, q, seed=args.seed)
    diff = [(i, j) for i in range(args.n) for j in range(args.n)
            if q.rows[i][j] != bad.rows[i][j]]
    print("changed entry:", diff[0], f"{q.rows[diff[0][0]][diff[0][1]]}"
          f" -> {bad.rows[diff[0][0]][diff[0][1]]}")

    try:
        recover(k, bad)
        raise SystemExit("still equivalent?! the perturbation is broken")
    except NotEquivalent as exc:
        s = exc.subset
        print(f"\nrefuted: minors differ on the subset {s}")
        print(f"   first kernel:  {k.principal_minor(s)}")
        print(f"   second kernel: {bad.principal_minor(s)}")

    # independent minimality re-check: everything smaller still agrees
    for order in range(1, len(s)):
        for sub in combinations(range(args.n), order):
            assert k.principal_minor(sub) == bad.principal_minor(sub)
    print(f"re-checked: every principal minor of order < {len(s)} still agrees, "
          "so the witness is as small as possible")


if __name__ == "__main__":
    main()
