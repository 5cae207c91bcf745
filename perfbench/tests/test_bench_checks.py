"""The benchmark's output checks: right answers pass, corrupted ones fail."""

import copy
import json

import pytest

import checks
import exact
import workloads
from detequiv.cli import main


def _run(call, tmp_path):
    for name, doc in call.docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    argv = [str(tmp_path / a) if a in call.docs else a for a in call.args]
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def _first(schedule, command, kind):
    return next(c for c in schedule if c.command == command and c.kind == kind)


SMALL = workloads.schedule("small-mixed", 4)
LAB = workloads.schedule("lab", 4)
RATIONAL = workloads.schedule("rational-mid", 4)


@pytest.mark.parametrize("call", SMALL + [c for c in RATIONAL if c.n <= 9] + LAB,
                         ids=lambda c: f"{c.command}-{c.kind}-n{c.n}-p{c.p}")
def test_right_answers_pass(call, tmp_path):
    code, report = _run(call, tmp_path)
    assert checks.check(call, code, report) == []


def _fails(call, code, report):
    return checks.check(call, code, report) != []


def test_wrong_exit_code_fails(tmp_path):
    call = _first(SMALL, "recover", "pos")
    code, report = _run(call, tmp_path)
    assert _fails(call, 1, report)
    assert _fails(call, code, None)


@pytest.mark.parametrize("field", ["gauge", "transposed", "base", "global_case"])
def test_corrupted_certificate_fails(field, tmp_path):
    call = _first(SMALL, "recover", "pos")
    code, report = _run(call, tmp_path)
    bad = copy.deepcopy(report)
    if field == "gauge":
        label = sorted(bad["gauge"])[1]
        bad["gauge"][label] = str(exact.parse(call.p, bad["gauge"][label]) + 1)
    elif field == "transposed":
        bad["transposed"] = not bad["transposed"]
    elif field == "base":
        bad["base"] = sorted(bad["gauge"])[1]
    else:
        bad["global_case"] = "case2" if bad["global_case"] == "case1" else "case1"
    assert _fails(call, code, bad)


@pytest.mark.parametrize("command", ["recover", "check-equiv"])
@pytest.mark.parametrize("kind", ["neg_entry", "neg_flip"])
def test_corrupted_witness_fails(command, kind, tmp_path):
    call = _first(RATIONAL, command, kind)
    code, report = _run(call, tmp_path)
    labels = call.docs[call.args[2]]["labels"]
    other = [lab for lab in labels if lab not in report["witness"]["subset"]]
    moved = copy.deepcopy(report)
    moved["witness"]["subset"][-1] = other[-1]
    shrunk = copy.deepcopy(report)
    shrunk["witness"]["subset"] = shrunk["witness"]["subset"][:-1]
    wrong_minor = copy.deepcopy(report)
    wrong_minor["witness"]["minor_k"] = str(exact.parse(call.p, report["witness"]["minor_k"]) + 1)
    for bad in (moved, shrunk, wrong_minor):
        assert _fails(call, code, bad)


def test_corrupted_degenerate_quad_fails(tmp_path):
    call = _first(SMALL, "recover", "neg_degenerate")
    code, report = _run(call, tmp_path)
    bad = copy.deepcopy(report)
    bad["witness"] = bad["witness"][1:] + bad["witness"][:1]
    assert _fails(call, code, bad)
    assert _fails(call, code, dict(report, kernel="second"))


def test_corrupted_lab_answers_fail(tmp_path):
    found = _first(LAB, "oracle", "found")
    code, report = _run(found, tmp_path)
    label = sorted(report["gauge"])[-1]
    report["gauge"][label] = str(int(report["gauge"][label]) % (found.p - 1) + 1)
    assert _fails(found, code, report)

    gen = _first(LAB, "gen", "gen")
    code, report = _run(gen, tmp_path)
    assert _fails(gen, code, dict(report, truth=dict(report["truth"],
                                                     transposed=not report["truth"]["transposed"])))


def test_search_hit_with_a_transform_fails():
    call = _first(LAB, "search", "search")
    k = [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]]
    doc = exact.kernel_doc(call.p, k)
    hit = {"k": doc, "q": doc, "verdicts": {
        "equivalent": True, "diagonally_similar": False, "flipped_similar": False,
        "cross_minors_nonzero_k": False, "cross_minors_nonzero_q": False}}
    assert _fails(call, 0, [hit])
