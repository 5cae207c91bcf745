"""Generate a kernel pair with a known transform, then recover it blind.

The generator hands back the gauge it used, recovery never sees it, and the
two are compared at the end (after renormalizing at the base point, since a
global scale never changes a conjugation).
"""

import argparse

from detequiv.fields import PrimeField, Rationals
from detequiv.lab import InstanceSpec, gen_instance
from detequiv.recovery import recover


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="prime:101",
                    help="'rational' or 'prime:P' (default prime:101)")
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--transpose", action="store_true")
    ap.add_argument("--zeros", type=int, default=1)
    args = ap.parse_args()

    if args.field == "rational":
        field = Rationals()
    else:
        field = PrimeField(int(args.field.split(":", 1)[1]))

    spec = InstanceSpec(field=field, n=args.n, transpose=args.transpose,
                        zero_edges=args.zeros, seed=args.seed)
    k, q, truth = gen_instance(spec)
    print(f"drew a nondegenerate {args.n} x {args.n} kernel over {field!r}")
    for row in k.rows:
        print("   ", [str(v) for v in row])
    print(f"companion = conjugate of {'the transpose' if truth.transposed else 'it'}"
          f" by the (hidden) gauge {[str(v) for v in truth.gauge.values]}")

    res = recover(k, q)
    print(f"\nrecovered: transposed={res.transposed}, "
          f"gauge normalized at point {res.base_label!r}:")
    print("   ", [str(v) for v in res.gauge.values])

    target = k.transpose() if res.transposed else k
    assert target.conjugate(res.gauge) == q, "certificate failed its re-check"
    print("re-checked: the recovered transform carries the first kernel "
          "onto the second, entry by entry")

    base = k.labels.index(res.base_label)
    scale = truth.gauge.values[base]
    renorm = [field.div(v, scale) for v in truth.gauge.values]
    print("ground truth renormalized at the same point:")
    print("   ", [str(v) for v in renorm])
    if res.transposed == truth.transposed:
        match = list(res.gauge.values) == renorm
        print("matches the recovered gauge:", match)


if __name__ == "__main__":
    main()
