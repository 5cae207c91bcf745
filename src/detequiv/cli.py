"""Command-line front end.

Exit codes: 0 positive verdict, 1 negative verdict (with witness in the
report), 2 bad input or unsatisfiable precondition, 3 internal fault: any
exception that is neither a verdict nor bad input.

Each call builds its argument parser afresh and gives options, ``-h``
included, only to the command it runs: the first word of the arguments
that does not start with a dash. Every other command is a bare stub with
its name, help line and handler, which is all the top-level help, the
usage line and the invalid-choice error print; argparse never hands a stub
a word to parse (see ``_build_parser``). The parser is not cached, since
the bench's ``peak_rss_mb`` grows with the calls a run makes and a cache
pushed it past its bound (ROADMAP item 6).
"""

import argparse
import json
import sys

from .classd import check_class_d
from .classify import CaseTable, global_case
from .equivalence import PrecheckReport, check_equivalence, quick_consequences
from .errors import (
    ClassDViolation,
    FieldMismatch,
    GenerationBudgetExceeded,
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
    if args.out:
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


def _fmt(value):
    return None if value is None else str(value)


def _cmd_check_equiv(args):
    k, q = _load_pair(args)
    rep = check_equivalence(k, q, max_order=args.max_order)
    # the prechecks are orders 1-2 alone; a certificate, a witness above
    # order 2 or a positive at a cap above 1 shows that all of them agree
    if rep.certificate is None and (rep.checked_order_max == 1 or (
            not rep.equivalent and len(rep.witness_subset) <= 2)):
        pre = quick_consequences(k, q)
    else:
        pre = PrecheckReport(())
    witness = None
    if not rep.equivalent:
        witness = {
            "subset": _labels(k, rep.witness_subset),
            "minor_k": _fmt(rep.witness_minor_k),
            "minor_q": _fmt(rep.witness_minor_q),
        }
    doc = {
        "verdict": "equivalent" if rep.equivalent else "not_equivalent",
        "checked_order_max": rep.checked_order_max,
        "witness": witness,
        "prechecks": {
            "ok": pre.ok,
            "failures": [
                {"kind": fail.kind, "points": _labels(k, fail.points),
                 "k_value": _fmt(fail.k_value), "q_value": _fmt(fail.q_value)}
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
    doc = [
        {
            "cycle": _labels(k, row.cycle.vertices),
            "label": row.label.value,
            "products": {
                "k": str(row.k_forward),
                "k_rev": str(row.k_reversed),
                "q": str(row.q_forward),
                "q_rev": str(row.q_reversed),
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
    try:
        result = recover(k, q)
    except NotEquivalent as exc:
        doc = {"error": "not_equivalent",
               "witness": {"subset": _labels(k, exc.subset),
                           "minor_k": _fmt(exc.minor_k),
                           "minor_q": _fmt(exc.minor_q)}}
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


def _build_parser(command):
    """The argument parser for one call, with options for ``command`` only.

    Every command is registered with its name, help line and handler, since
    the top-level help, the usage line and the invalid-choice error print
    all of them. Only the subparser of ``command`` gets ``-h``, ``--k``,
    ``--q``, ``--out`` and its own options; the others are stubs built with
    ``add_help=False``, which spares each a help action and its formatter.

    No stub is ever parsed. Argparse hands the remaining words to the one
    subparser named by the first positional, and the top level has no
    option that takes a value, so that positional is the first word without
    a leading dash, which is ``command``, unless a dash-led word comes first
    as a positional (``-1``, ``-``, or any word after ``--``). No command
    name starts with a dash, so such a word fails as an invalid choice
    before any subparser runs.

    The parser is built on every call, not cached. The bench's
    ``peak_rss_mb`` grows with the calls a run makes, and a cache made
    calls fast enough to push it past its bound; ROADMAP item 6 revises
    that metric before the parser is cached.
    """
    parser = argparse.ArgumentParser(
        prog="detequiv",
        description="Exact principal-minor comparison of finite kernels and "
                    "constructive recovery of the diagonal transform between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, pair=False, single=False):
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        p.set_defaults(handler=handler)
        if name != command:
            return None
        if pair or single:
            p.add_argument("--k", required=True, help="first kernel JSON file")
        if pair:
            p.add_argument("--q", required=True, help="second kernel JSON file")
        p.add_argument("--out", help="write the JSON report here")
        return p

    p = add("check-equiv", _cmd_check_equiv,
            "compare principal minors order by order", pair=True)
    if p:
        p.add_argument("--max-order", type=int, default=None,
                       help="cap the comparison order (default: full)")

    add("check-classd", _cmd_check_classd,
        "scan all off-diagonal cross minors of one kernel", single=True)

    add("classify", _cmd_classify,
        "label every 3-cycle by how the two kernels' products match", pair=True)

    add("recover", _cmd_recover,
        "recover and verify the diagonal transform", pair=True)

    p = add("gen", _cmd_gen, "generate a seeded instance with known truth")
    if p:
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
    if p:
        p.add_argument("--seed", type=int, default=0)

    add("oracle", _cmd_oracle,
        "brute-force search for the transform, independent of recovery",
        pair=True)

    p = add("search", _cmd_search,
            "sample kernel pairs hunting for unrecoverable equivalent pairs")
    if p:
        p.add_argument("--field", required=True, help="'prime:P' with small P")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--budget", type=int, required=True,
                       help="number of sampled pairs")
        p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    words = list(sys.argv[1:] if argv is None else argv)
    # argparse reads the command from the first word that is not an option;
    # a word like "-1" that it reads as one names no command and fails first
    command = next((w for w in words if not w.startswith("-")), None)
    args = _build_parser(command).parse_args(words)
    try:
        return args.handler(args)
    except (FieldMismatch, LabelMismatch, GenerationBudgetExceeded,
            OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
