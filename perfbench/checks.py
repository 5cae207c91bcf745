"""Checks of every CLI answer against how its inputs were built.

Each check returns a list of problems; an empty list means the call gave the
right exit code and a right report.  Positives are re-conjugated and
negatives' witnesses recomputed with ``exact``, never with detequiv.
"""

from __future__ import annotations

import itertools
import json

import exact


def check(call, code, report):
    """Problems with one call's exit code and parsed ``--out`` report."""
    if code != call.expect_exit:
        return [f"exit code {code}, expected {call.expect_exit}"]
    if report is None:
        return ["no JSON report written"]
    try:
        return _CHECKS[call.command](call, report)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _pair(call):
    kdoc, qdoc = (call.docs[name] for name in (call.args[2], call.args[4]))
    p, k = exact.rows_of_doc(kdoc)
    _, q = exact.rows_of_doc(qdoc)
    return p, kdoc["labels"], k, q


def _gauge_problems(p, labels, k, q, gauge_doc, transposed):
    if not isinstance(transposed, bool):
        return [f"flip flag {transposed!r} is not a boolean"]
    if sorted(gauge_doc) != sorted(labels):
        return ["gauge does not name every point once"]
    gauge = [exact.parse(p, gauge_doc[lab]) for lab in labels]
    if any(g == 0 for g in gauge):
        return ["gauge has a zero value"]
    source = exact.transpose(k) if transposed else k
    if not exact.carries(p, source, q, gauge):
        return ["gauge does not carry the first kernel onto the second"]
    return []


def _witness_problems(call, p, labels, k, q, witness):
    """The reported subset must be the construction's, of its size, and the
    reported minors must be the true, differing minors on it."""
    subset = [labels.index(lab) for lab in witness["subset"]]
    expected = call.expect["witness"]
    size = {"neg_entry": 2, "neg_flip": 4}[call.kind]
    problems = []
    if len(subset) != size:
        problems.append(f"witness has {len(subset)} points, construction "
                        f"implies {size}")
    if subset != expected:
        problems.append(f"witness {subset}, expected {expected}")
    mk, mq = exact.minor(p, k, subset), exact.minor(p, q, subset)
    if mk == mq:
        problems.append(f"minors on witness {subset} do not differ")
    if (exact.parse(p, witness["minor_k"]), exact.parse(p, witness["minor_q"])) != (mk, mq):
        problems.append("reported witness minors are not the true minors")
    return problems


def _check_recover(call, report):
    p, labels, k, q = _pair(call)
    if call.kind in ("pos", "sym"):
        if report.get("verified") is not True:
            return ["certificate not marked verified"]
        base = min(labels)
        if report["base"] != base:
            return [f"base {report['base']!r}, expected {base!r}"]
        if exact.parse(p, report["gauge"][base]) != 1:
            return ["gauge is not 1 at the base point"]
        case = "case2" if report["transposed"] is True else "case1"
        if report["global_case"] != case:
            return [f"global case {report['global_case']!r} disagrees with the flip"]
        return _gauge_problems(p, labels, k, q, report["gauge"],
                               report["transposed"])
    if call.kind == "neg_degenerate":
        if report["error"] != "degenerate_kernel" or report["kernel"] != "first":
            return [f"refusal {report.get('error')!r} of {report.get('kernel')!r}, "
                    "expected degenerate_kernel of 'first'"]
        quad = [labels.index(lab) for lab in report["witness"]]
        x, y, z, w = quad
        problems = []
        if exact.mul(p, k[x][y], k[w][z]) != exact.mul(p, k[x][z], k[w][y]):
            problems.append(f"cross minor at {quad} does not vanish")
        if quad != call.expect["quad"]:
            problems.append(f"quadruple {quad}, expected {call.expect['quad']}")
        return problems
    if report["error"] != "not_equivalent":
        return [f"refusal {report.get('error')!r}, expected not_equivalent"]
    return _witness_problems(call, p, labels, k, q, report["witness"])


def _check_equiv(call, report):
    p, labels, k, q = _pair(call)
    if report["checked_order_max"] != len(labels):
        return [f"checked up to order {report['checked_order_max']}"]
    if call.expect_exit == 0:
        if report["verdict"] != "equivalent" or report["witness"] is not None:
            return ["equivalent pair not reported equivalent"]
        return []
    problems = []
    if report["verdict"] != "not_equivalent":
        problems.append(f"verdict {report['verdict']!r}")
    if report["prechecks"]["ok"] is (call.kind == "neg_entry"):
        problems.append("prechecks disagree with the order of the witness")
    return problems + _witness_problems(call, p, labels, k, q, report["witness"])


def _check_oracle(call, report):
    p, labels, k, q = _pair(call)
    if report["complete"] is not True:
        return ["search over GF(p) reported incomplete"]
    if call.kind == "miss":
        # a minor that differs proves that no transform exists
        pair = call.expect["witness"]
        if exact.minor(p, k, pair) == exact.minor(p, q, pair):
            return [f"minors on {pair} agree, so the miss is not proven"]
        if report["found"] is not False or report["gauge"] is not None:
            return ["a transform reported where none exists"]
        return []
    if report["found"] is not True:
        return ["no transform reported where one exists"]
    return _gauge_problems(p, labels, k, q, report["gauge"], report["transposed"])


def _check_gen(call, report):
    p, k = exact.rows_of_doc(report["k"])
    _, q = exact.rows_of_doc(report["q"])
    labels = report["k"]["labels"]
    truth = report["truth"]
    problems = []
    if p != call.p or len(k) != call.n or report["q"]["labels"] != labels:
        problems.append("generated pair has the wrong field, size or labels")
    if truth["transposed"] is not call.expect["flip"]:
        problems.append("generated flip differs from the one asked for")
    if not exact.is_nondegenerate(p, k):
        problems.append("generated kernel is degenerate")
    zeros = sum(1 for i, row in enumerate(k) for j, v in enumerate(row)
                if i != j and v == 0)
    if not call.expect["zeros"] <= zeros <= 2 * call.expect["zeros"]:
        problems.append(f"{zeros} zero entries for {call.expect['zeros']} zero edges")
    return problems + _gauge_problems(p, labels, k, q, truth["gauge"],
                                      truth["transposed"])


def _has_transform(p, k, q):
    n = len(k)
    for source in (k, exact.transpose(k)):
        for tail in itertools.product(range(1, p), repeat=n - 1):
            if exact.carries(p, source, q, (1,) + tail):
                return True
    return False


def _check_search(call, report):
    """Every hit must be an equivalent pair with no transform, degenerate
    on at least one side, and the hits must come sorted."""
    problems = []
    keys = [json.dumps(hit, sort_keys=True) for hit in report]
    if keys != sorted(keys):
        problems.append("hits are not sorted")
    for hit in report:
        p, k = exact.rows_of_doc(hit["k"])
        _, q = exact.rows_of_doc(hit["q"])
        n = len(k)
        if p != call.p or n != call.n:
            problems.append("hit has the wrong field or size")
            continue
        subsets = (s for r in range(1, n + 1)
                   for s in itertools.combinations(range(n), r))
        if any(exact.minor(p, k, s) != exact.minor(p, q, s) for s in subsets):
            problems.append("hit is not an equivalent pair")
        if _has_transform(p, k, q):
            problems.append("hit has a diagonal transform")
        flags = hit["verdicts"]
        nondeg = (exact.is_nondegenerate(p, k), exact.is_nondegenerate(p, q))
        if nondeg != (flags["cross_minors_nonzero_k"], flags["cross_minors_nonzero_q"]):
            problems.append("hit's nondegeneracy flags are wrong")
        if all(nondeg):
            problems.append("hit is nondegenerate on both sides")
    return problems


_CHECKS = {
    "recover": _check_recover,
    "check-equiv": _check_equiv,
    "oracle": _check_oracle,
    "gen": _check_gen,
    "search": _check_search,
}
