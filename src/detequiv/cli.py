"""Command-line front end.

Exit codes: 0 positive verdict, 1 negative verdict (with witness in the
report), 2 bad input or unsatisfiable precondition, 3 internal verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classd import check_class_d
from .classify import CaseTable, global_case
from .equivalence import check_equivalence, quick_consequences
from .errors import (
    BranchUnavailable,
    ClassDViolation,
    FieldMismatch,
    GenerationBudgetExceeded,
    Inconsistent,
    LabelMismatch,
    MixedCases,
    NotEquivalent,
    NotRecoverable,
    VerificationFailed,
)
from .fields import PrimeField, Rationals
from .kernels import Kernel
from .lab import (
    InstanceSpec,
    brute_force_diagonal_similar,
    gen_instance,
    perturb,
    search_counterexample,
)
from .recovery import recover

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2
INTERNAL = 3


def _load_kernel(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return Kernel.from_doc(doc)


def _load_pair(args):
    return _load_kernel(args.k), _load_kernel(args.q)


def _emit(args, doc):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_field(text):
    if text == "rational":
        return Rationals()
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad field spec {text!r}") from None
        return PrimeField(p)
    raise ValueError(f"bad field spec {text!r}; use 'rational' or 'prime:P'")


def _labels(kernel, indices):
    return [kernel.labels[i] for i in indices]


def _fmt(field, value):
    return None if value is None else field.format(value)


def _cmd_check_equiv(args):
    k, q = _load_pair(args)
    pre = quick_consequences(k, q)
    rep = check_equivalence(k, q, max_order=args.max_order)
    f = k.field
    witness = None
    if not rep.equivalent:
        witness = {
            "subset": _labels(k, rep.witness_subset),
            "minor_k": _fmt(f, rep.witness_minor_k),
            "minor_q": _fmt(f, rep.witness_minor_q),
        }
    doc = {
        "verdict": "equivalent" if rep.equivalent else "not_equivalent",
        "checked_order_max": rep.checked_order_max,
        "witness": witness,
        "prechecks": {
            "ok": pre.ok,
            "failures": [
                {"kind": fail.kind, "points": _labels(k, fail.points),
                 "k_value": _fmt(f, fail.k_value), "q_value": _fmt(f, fail.q_value)}
                for fail in pre.failures
            ],
        },
    }
    _emit(args, doc)
    if rep.equivalent:
        print(f"equivalent up to order {rep.checked_order_max} "
              f"(n={k.n}, all checked minors agree)")
        return OK
    print(f"not equivalent: minors differ on subset {witness['subset']} "
          f"({witness['minor_k']} vs {witness['minor_q']})")
    return NEGATIVE


def _cmd_check_classd(args):
    k = _load_kernel(args.k)
    rep = check_class_d(k)
    doc = {"holds": rep.holds,
           "witness": list(rep.witness_labels) if rep.witness_labels else None}
    _emit(args, doc)
    if rep.holds:
        print(f"every off-diagonal cross minor is nonzero (n={k.n})")
        return OK
    print(f"cross minor vanishes at ordered quadruple {list(rep.witness_labels)}")
    return NEGATIVE


def _cmd_classify(args):
    k, q = _load_pair(args)
    table = CaseTable.build(k, q)
    f = k.field
    doc = [
        {
            "cycle": _labels(k, row.cycle.vertices),
            "label": row.label.value,
            "products": {
                "k": f.format(row.k_forward),
                "k_rev": f.format(row.k_reversed),
                "q": f.format(row.q_forward),
                "q_rev": f.format(row.q_reversed),
            },
            "zero_edges": [[k.labels[a], k.labels[b]] for a, b in row.zero_edges],
        }
        for row in table.rows
    ]
    _emit(args, doc)
    counts = table.counts()
    summary = ", ".join(f"{label.value}={count}"
                        for label, count in counts.items() if count)
    if table.neither_rows():
        bad = table.neither_rows()[0]
        print(f"unmatched cycle {_labels(k, bad.cycle.vertices)}; "
              f"the kernels are not equivalent ({summary})")
        return NEGATIVE
    try:
        case = global_case(table)
    except MixedCases as exc:
        print(f"frameworks mixed: {exc} ({summary})")
        return NEGATIVE
    print(f"all cycles fit {case.value} ({summary})")
    return OK


def _cmd_recover(args):
    k, q = _load_pair(args)
    f = k.field
    try:
        result = recover(k, q, max_order=args.max_order)
    except NotEquivalent as exc:
        doc = {"error": "not_equivalent",
               "witness": {"subset": _labels(k, exc.subset),
                           "minor_k": _fmt(f, exc.minor_k),
                           "minor_q": _fmt(f, exc.minor_q)},
               "detail": exc.detail}
        _emit(args, doc)
        print(f"not equivalent: witness subset {_labels(k, exc.subset)}")
        return NEGATIVE
    except ClassDViolation as exc:
        doc = {"error": "degenerate_kernel", "kernel": exc.kernel_role,
               "witness": _labels(k, exc.witness)}
        _emit(args, doc)
        print(f"the {exc.kernel_role} kernel is degenerate at "
              f"{_labels(k, exc.witness)}; recovery not attempted")
        return NEGATIVE
    except MixedCases as exc:
        doc = {"error": "mixed_frameworks",
               "direct_cycle": _labels(k, exc.direct_cycle.vertices),
               "flipped_cycle": _labels(k, exc.flipped_cycle.vertices)}
        _emit(args, doc)
        print(f"frameworks mixed: {exc}")
        return NEGATIVE
    except NotRecoverable as exc:
        doc = {"error": "not_recoverable"}
        _emit(args, doc)
        print(str(exc))
        return NEGATIVE
    except VerificationFailed as exc:
        doc = {"error": "verification_failed", "message": str(exc)}
        _emit(args, doc)
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return INTERNAL
    doc = result.certificate()
    _emit(args, doc)
    flip = "flip + " if result.transposed else ""
    print(f"recovered: {flip}diagonal change of variables, base point "
          f"{result.base_label!r}, re-checked on {result.entries_checked} entries")
    return OK


def _cmd_gen(args):
    spec = InstanceSpec(field=_parse_field(args.field), n=args.n,
                        transpose=args.transpose, zero_edges=args.zeros,
                        seed=args.seed, max_attempts=args.max_attempts)
    k, q, truth = gen_instance(spec)
    doc = {
        "k": k.to_doc(),
        "q": q.to_doc(),
        "truth": {"gauge": truth.gauge.to_doc(), "transposed": truth.transposed},
        "seed": args.seed,
    }
    _emit(args, doc)
    print(f"generated n={args.n} instance over {args.field} "
          f"(transposed={truth.transposed}, zero edges={args.zeros}, seed={args.seed})")
    return OK


def _cmd_perturb(args):
    k, q = _load_pair(args)
    changed = perturb(k, q, args.seed)
    _emit(args, changed.to_doc())
    spots = [(i, j) for i in range(q.n) for j in range(q.n)
             if changed.rows[i][j] != q.rows[i][j]]
    i, j = spots[0]
    print(f"changed entry ({q.labels[i]!r}, {q.labels[j]!r}); "
          "some minor of order <= 3 moved")
    return OK


def _cmd_oracle(args):
    k, q = _load_pair(args)
    res = brute_force_diagonal_similar(k, q)
    doc = {
        "found": res.found,
        "complete": res.complete,
        "transposed": res.transposed,
        "gauge": res.gauge.to_doc() if res.gauge else None,
    }
    _emit(args, doc)
    if res.found:
        flip = "flip + " if res.transposed else ""
        print(f"transform found by brute force: {flip}diagonal")
        return OK
    print("no diagonal transform found"
          + ("" if res.complete else " (search incomplete: disconnected pattern)"))
    return NEGATIVE


def _cmd_search(args):
    field = _parse_field(args.field)
    hits = search_counterexample(field, args.n, args.budget, args.seed)
    _emit(args, hits)
    print(f"searched {args.budget} sampled pairs over {args.field}, n={args.n}: "
          f"{len(hits)} counterexample(s)")
    return OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="detequiv",
        description="Exact principal-minor comparison of finite kernels and "
                    "constructive recovery of the diagonal transform between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, pair=False, single=False, out=True):
        p = sub.add_parser(name, help=help_text)
        if pair or single:
            p.add_argument("--k", required=True, help="first kernel JSON file")
        if pair:
            p.add_argument("--q", required=True, help="second kernel JSON file")
        if out:
            p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(handler=handler)
        return p

    p = add("check-equiv", _cmd_check_equiv,
            "compare principal minors order by order", pair=True)
    p.add_argument("--max-order", type=int, default=None,
                   help="cap the comparison order (default: full)")

    add("check-classd", _cmd_check_classd,
        "scan all off-diagonal cross minors of one kernel", single=True)

    add("classify", _cmd_classify,
        "label every 3-cycle by how the two kernels' products match", pair=True)

    p = add("recover", _cmd_recover,
            "recover and verify the diagonal transform", pair=True)
    p.add_argument("--max-order", type=int, default=None,
                   help="cap the equivalence check order (default: full)")

    p = add("gen", _cmd_gen, "generate a seeded instance with known truth")
    p.add_argument("--field", required=True, help="'rational' or 'prime:P'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--transpose", action="store_true",
                   help="hide a flip in the generated pair")
    p.add_argument("--zeros", type=int, default=0,
                   help="number of zero edges to place")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=100000)

    p = add("perturb", _cmd_perturb,
            "change one entry of q so a small minor moves", pair=True)
    p.add_argument("--seed", type=int, default=0)

    add("oracle", _cmd_oracle,
        "brute-force search for the transform, independent of recovery",
        pair=True)

    p = add("search", _cmd_search,
            "sample kernel pairs hunting for unrecoverable equivalent pairs")
    p.add_argument("--field", required=True, help="'prime:P' with small P")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, required=True,
                   help="number of sampled pairs")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (VerificationFailed, BranchUnavailable, Inconsistent,
            RuntimeError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return INTERNAL
    except (FieldMismatch, LabelMismatch, GenerationBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
