"""End-to-end command-line flows: exit codes, JSON reports, byte stability."""

import argparse
import collections
import contextlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from detequiv import cli
from detequiv.cli import (
    _cmd_check_classd,
    _cmd_check_equiv,
    _cmd_classify,
    _cmd_gen,
    _cmd_oracle,
    _cmd_perturb,
    _cmd_recover,
    _cmd_search,
    main,
)
from detequiv.errors import BranchUnavailable, VerificationFailed
from detequiv.kernels import Gauge, Kernel
from detequiv.fields import PrimeField, Rationals
from detequiv.lab import InstanceSpec, gen_instance
from detequiv.recovery import recover

from test_equivalence import _five_cycle_pair
from test_lab import _sparse_pair

Q = Rationals()
F7 = PrimeField(7)


def _write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _gen_pair_files(tmp_path, field=F7, n=4, transpose=False, zeros=0, seed=5):
    k, q, truth = gen_instance(InstanceSpec(field=field, n=n,
                                            transpose=transpose,
                                            zero_edges=zeros, seed=seed))
    kp = _write_doc(tmp_path / "k.json", k.to_doc())
    qp = _write_doc(tmp_path / "q.json", q.to_doc())
    return kp, qp, k, q, truth


# ---------------------------------------------------------------- verdicts


def test_check_equiv_positive(tmp_path, capsys):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path)
    out = tmp_path / "report.json"
    assert main(["check-equiv", "--k", kp, "--q", qp, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "equivalent"
    assert doc["witness"] is None
    assert doc["prechecks"]["ok"] is True
    assert "equivalent" in capsys.readouterr().out


def test_check_equiv_negative_reports_witness_labels(tmp_path):
    kp, _, k, q, _ = _gen_pair_files(tmp_path, seed=6)
    rows = [list(r) for r in q.rows]
    rows[2][2] = (rows[2][2] + 1) % 7
    bp = _write_doc(tmp_path / "bad.json", Kernel(F7, q.labels, rows).to_doc())
    out = tmp_path / "report.json"
    assert main(["check-equiv", "--k", kp, "--q", bp, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "not_equivalent"
    assert doc["witness"]["subset"] == ["3"]
    assert doc["prechecks"]["ok"] is False


def test_check_classd_both_verdicts(tmp_path):
    kp, _, _, _, _ = _gen_pair_files(tmp_path)
    assert main(["check-classd", "--k", kp]) == 0
    ones = Kernel(Q, ["1", "2", "3", "4"], [[1] * 4 for _ in range(4)])
    op = _write_doc(tmp_path / "ones.json", ones.to_doc())
    out = tmp_path / "report.json"
    assert main(["check-classd", "--k", op, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc == {"holds": False, "witness": ["1", "2", "3", "4"]}


def test_classify_verdicts(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path, transpose=True, seed=7)
    out = tmp_path / "table.json"
    assert main(["classify", "--k", kp, "--q", qp, "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    assert len(table) == 4
    assert all(row["label"] in ("case2_only", "both") for row in table)
    # doctor one directed cycle so products match neither way
    _, _, k, q, _ = _gen_pair_files(tmp_path, seed=8)
    rows = [list(r) for r in q.rows]
    rows[0][1] = (rows[0][1] * 2) % 7
    rows[1][0] = (rows[1][0] * 4) % 7  # 2*4 = 1 mod 7 keeps the pair product
    bp = _write_doc(tmp_path / "bad.json", Kernel(F7, q.labels, rows).to_doc())
    kp = _write_doc(tmp_path / "k8.json", k.to_doc())
    assert main(["classify", "--k", kp, "--q", bp]) == 1


def test_recover_round_trip(tmp_path, capsys):
    for transpose in (False, True):
        kp, qp, k, q, truth = _gen_pair_files(
            tmp_path, field=F7, n=5, transpose=transpose, zeros=1,
            seed=20 + int(transpose))
        out = tmp_path / "cert.json"
        code = main(["recover", "--k", kp, "--q", qp, "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert set(cert) == {"transposed", "base", "gauge",
                             "global_case", "verified"}
        assert cert["verified"] is True
        assert cert["base"] == "1"
        gauge_vals = [int(cert["gauge"][lab]) for lab in k.labels]
        target = k.transpose() if cert["transposed"] else k
        assert target.conjugate(Gauge(F7, k.labels, gauge_vals)) == q
    assert "recovered" in capsys.readouterr().out


def test_recover_negative_verdicts(tmp_path):
    ones = Kernel(Q, ["1", "2", "3", "4"], [[1] * 4 for _ in range(4)])
    op = _write_doc(tmp_path / "ones.json", ones.to_doc())
    out = tmp_path / "err.json"
    assert main(["recover", "--k", op, "--q", op, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["error"] == "degenerate_kernel"
    assert doc["witness"] == ["1", "2", "3", "4"]

    kp, _, k, q, _ = _gen_pair_files(tmp_path, seed=9)
    rows = [list(r) for r in q.rows]
    rows[1][1] = (rows[1][1] + 3) % 7
    bp = _write_doc(tmp_path / "bad.json", Kernel(F7, q.labels, rows).to_doc())
    assert main(["recover", "--k", kp, "--q", bp, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert set(doc) == {"error", "witness"}
    assert doc["error"] == "not_equivalent"
    assert doc["witness"]["subset"] == ["2"]


def test_recover_not_recoverable_exit(tmp_path):
    k = Kernel(Q, ["1", "2"], [[2, 0], [7, 3]])
    q = Kernel(Q, ["1", "2"], [[2, 0], [0, 3]])
    kp = _write_doc(tmp_path / "k.json", k.to_doc())
    qp = _write_doc(tmp_path / "q.json", q.to_doc())
    assert main(["recover", "--k", kp, "--q", qp]) == 1


# ------------------------------------------------------------- gen/perturb


def test_gen_bundle_shape_and_reuse(tmp_path):
    out = tmp_path / "bundle.json"
    code = main(["gen", "--field", "rational", "--n", "4", "--zeros", "1",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    bundle = json.loads(out.read_text())
    assert set(bundle) == {"k", "q", "truth", "seed"}
    assert set(bundle["truth"]) == {"gauge", "transposed"}
    assert bundle["seed"] == 3
    kp = _write_doc(tmp_path / "k.json", bundle["k"])
    qp = _write_doc(tmp_path / "q.json", bundle["q"])
    assert main(["recover", "--k", kp, "--q", qp]) == 0


def test_gen_transpose_flag_lands_in_truth(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(["gen", "--field", "prime:11", "--n", "4", "--transpose",
                 "--seed", "4", "--out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    assert bundle["truth"]["transposed"] is True


@pytest.mark.parametrize("attempts", ["0", "-4"])
def test_gen_rejects_a_budget_below_one(attempts, capsys):
    assert main(["gen", "--field", "prime:7", "--n", "4",
                 "--max-attempts", attempts]) == 2
    err = capsys.readouterr().err
    assert "max_attempts >= 1" in err and "found in" not in err


def test_perturb_then_refute(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path, field=Q, seed=10)
    bad = tmp_path / "bad.json"
    assert main(["perturb", "--k", kp, "--q", qp, "--seed", "2",
                 "--out", str(bad)]) == 0
    assert main(["check-equiv", "--k", kp, "--q", str(bad)]) == 1


# ---------------------------------------------------------- oracle/search


def test_oracle_command(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path, field=F7, n=4, seed=11)
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--k", kp, "--q", qp, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["found"] is True and doc["complete"] is True
    bad = tmp_path / "bad.json"
    main(["perturb", "--k", kp, "--q", qp, "--seed", "1", "--out", str(bad)])
    assert main(["oracle", "--k", kp, "--q", str(bad)]) == 1


def test_oracle_refuses_past_its_guard(tmp_path, capsys):
    # at GF(11), n = 7, the sparse pair would try 2 (10 + ... + 10^6) values,
    # past the 10^6 of the guard
    k, q = _sparse_pair(11, 7)
    kp = _write_doc(tmp_path / "k.json", k.to_doc())
    qp = _write_doc(tmp_path / "q.json", q.to_doc())
    assert main(["oracle", "--k", kp, "--q", qp]) == 2
    assert "guard" in capsys.readouterr().err


def test_search_command(tmp_path):
    out = tmp_path / "hits.json"
    assert main(["search", "--field", "prime:2", "--n", "4",
                 "--budget", "20000", "--seed", "1", "--out", str(out)]) == 0
    hits = json.loads(out.read_text())
    assert isinstance(hits, list) and hits
    assert set(hits[0]) == {"k", "q", "verdicts"}


# -------------------------------------------------------------- bad inputs


def test_input_errors_exit_two(tmp_path):
    missing = str(tmp_path / "nope.json")
    kp, qp, _, _, _ = _gen_pair_files(tmp_path)
    assert main(["check-equiv", "--k", missing, "--q", qp]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["check-equiv", "--k", str(garbled), "--q", qp]) == 2
    other = _write_doc(tmp_path / "other.json",
                       Kernel(Q, ["x", "y"], [[1, 2], [3, 4]]).to_doc())
    assert main(["recover", "--k", kp, "--q", other]) == 2
    assert main(["gen", "--field", "prime:9", "--n", "4"]) == 2
    assert main(["gen", "--field", "prime:2", "--n", "4",
                 "--max-attempts", "40"]) == 2
    assert main(["search", "--field", "rational", "--n", "4",
                 "--budget", "10"]) == 2
    assert main(["check-equiv", "--k", kp, "--q", qp,
                 "--max-order", "9"]) == 2


@pytest.mark.parametrize("change", [
    {"field": {"kind": "prime", "p": "7"}},
    {"labels": 5},
    {"labels": "ab"},
    {"entries": ["12", "34"]},
])
def test_malformed_documents_exit_two(tmp_path, change):
    good = Kernel(Q, ["a", "b"], [[1, 2], [3, 4]]).to_doc()
    kp = _write_doc(tmp_path / "k.json", good)
    bp = _write_doc(tmp_path / "bad.json", {**good, **change})
    assert main(["check-equiv", "--k", kp, "--q", bp]) == 2
    assert main(["check-equiv", "--k", bp, "--q", kp]) == 2


def test_internal_faults_exit_three(tmp_path, monkeypatch):
    def fault(*args, **kwargs):
        raise RuntimeError("this signals a bug")

    monkeypatch.setattr("detequiv.cli.search_counterexample", fault)
    monkeypatch.setattr("detequiv.cli.perturb", fault)
    assert main(["search", "--field", "prime:2", "--n", "4",
                 "--budget", "10"]) == 3
    kp, qp, _, _, _ = _gen_pair_files(tmp_path)
    assert main(["perturb", "--k", kp, "--q", qp]) == 3


def test_unexpected_exceptions_exit_three(tmp_path, monkeypatch, capsys):
    # exit 1 means "not equivalent", so no stray exception may reach it
    kp, qp, _, _, _ = _gen_pair_files(tmp_path)
    for exc in (ZeroDivisionError("planted"), TypeError("planted"),
                AttributeError("planted"),
                BranchUnavailable("planted", pair=(0, 1))):
        def fault(*args, **kwargs):
            raise exc

        monkeypatch.setattr("detequiv.cli.recover", fault)
        monkeypatch.setattr("detequiv.cli.search_counterexample", fault)
        assert main(["recover", "--k", kp, "--q", qp]) == 3
        assert "internal verification failure" in capsys.readouterr().err
        assert main(["search", "--field", "prime:2", "--n", "4",
                     "--budget", "10"]) == 3
        assert "internal verification failure" in capsys.readouterr().err

    script = (
        "import sys\n"
        "import detequiv.cli as cli\n"
        "def fault(*args, **kwargs):\n"
        "    raise ZeroDivisionError('planted')\n"
        "cli.search_counterexample = fault\n"
        "sys.exit(cli.main(['search', '--field', 'prime:2', '--n', '4',"
        " '--budget', '10']))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "internal verification failure" in proc.stderr


def test_rigidity_contradiction_exits_three(tmp_path, monkeypatch, capsys):
    # both kernels have property D and agree on every minor, so only a
    # faulty solver can leave both certificates failing
    kp, qp, k, q, _ = _gen_pair_files(tmp_path)

    monkeypatch.setattr("detequiv.equivalence._propagate_gauge",
                        lambda *args: None)
    with pytest.raises(VerificationFailed, match="rigidity theorem"):
        recover(k, q)
    out = tmp_path / "report.json"
    assert main(["recover", "--k", kp, "--q", qp, "--out", str(out)]) == 3
    assert json.loads(out.read_text())["error"] == "verification_failed"
    assert "rigidity theorem" in capsys.readouterr().err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["check-equiv", "--k", str(deep), "--q", str(deep)]) == 2
    assert str(deep) in capsys.readouterr().err


def test_oversized_minor_scan_exits_two(tmp_path, capsys):
    # only the walk could prove the unit 5-cycle pair, and at n = 21 the
    # guard refuses it
    k, q = _five_cycle_pair(21)
    cp = _write_doc(tmp_path / "cycles_k.json", k.to_doc())
    cq = _write_doc(tmp_path / "cycles_q.json", q.to_doc())
    assert main(["check-equiv", "--k", cp, "--q", cq]) == 2
    assert "2097151 subsets" in capsys.readouterr().err
    assert main(["check-equiv", "--k", cp, "--q", cq, "--max-order", "3"]) == 0
    # the identity is its own certificate, so it needs no walk
    n = 21
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    kp = _write_doc(tmp_path / "k.json",
                    Kernel(Q, [str(i) for i in range(n)], rows).to_doc())
    out = tmp_path / "report.json"
    assert main(["check-equiv", "--k", kp, "--q", kp, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["verdict"], doc["checked_order_max"]) == ("equivalent", 21)
    # the all-ones gauge fits, and the identity is degenerate
    assert main(["recover", "--k", kp, "--q", kp]) == 1
    assert "degenerate" in capsys.readouterr().out


def test_recover_past_the_scan_guard_exits_two_without_naming_an_option(
        tmp_path, capsys):
    # unit 5-cycles on points 0-4 and 5-9 over an identity diagonal, the
    # second one reversed in q: every principal minor agrees, but neither
    # q nor its flip has k's zero layout, so only the full scan could refute
    n = 21
    labels = [str(i) for i in range(n)]
    k_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    q_rows = [list(r) for r in k_rows]
    for i in range(5):
        k_rows[i][(i + 1) % 5] = q_rows[i][(i + 1) % 5] = 1
        k_rows[5 + i][5 + (i + 1) % 5] = q_rows[5 + (i + 1) % 5][5 + i] = 1
    kp = _write_doc(tmp_path / "k.json", Kernel(Q, labels, k_rows).to_doc())
    qp = _write_doc(tmp_path / "q.json", Kernel(Q, labels, q_rows).to_doc())
    assert main(["recover", "--k", kp, "--q", qp]) == 2
    err = capsys.readouterr().err
    assert "2097151 subsets" in err
    assert "max_order" not in err


def test_check_equiv_refutes_at_low_order_past_the_scan_guard(tmp_path):
    # a full scan at n = 21 is over the guard, but a pair that differs at
    # order 2 is refuted before the walk that the guard bounds
    n = 21
    labels = [str(i) for i in range(n)]
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][1] = rows[1][0] = 1
    kp = _write_doc(tmp_path / "k.json", Kernel(Q, labels, rows).to_doc())
    rows[0][1] = 2
    qp = _write_doc(tmp_path / "q.json", Kernel(Q, labels, rows).to_doc())
    out = tmp_path / "report.json"
    assert main(["check-equiv", "--k", kp, "--q", qp, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["witness"] == {
        "subset": ["0", "1"], "minor_k": "0", "minor_q": "-1"}


def test_recover_max_order_flag_is_gone(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["recover", "--k", kp, "--q", qp, "--max-order", "3"])
    assert info.value.code == 2


def test_audit_consistency_flag_is_gone(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["recover", "--k", kp, "--q", qp, "--audit-consistency"])
    assert info.value.code == 2


def test_max_order_flag(tmp_path):
    k = Kernel(Q, ["a", "b", "c"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    q = Kernel(Q, ["a", "b", "c"],
               [[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])
    kp = _write_doc(tmp_path / "k.json", k.to_doc())
    qp = _write_doc(tmp_path / "q.json", q.to_doc())
    assert main(["check-equiv", "--k", kp, "--q", qp, "--max-order", "2"]) == 0
    assert main(["check-equiv", "--k", kp, "--q", qp]) == 1


def _former_check_equiv(args):
    # the check-equiv handler as it was: the prechecks on every call
    k, q = cli._load_pair(args)
    pre = cli.quick_consequences(k, q)
    rep = cli.check_equivalence(k, q, max_order=args.max_order)
    f = k.field
    witness = None
    if not rep.equivalent:
        witness = {
            "subset": cli._labels(k, rep.witness_subset),
            "minor_k": cli._fmt(f, rep.witness_minor_k),
            "minor_q": cli._fmt(f, rep.witness_minor_q),
        }
    doc = {
        "verdict": "equivalent" if rep.equivalent else "not_equivalent",
        "checked_order_max": rep.checked_order_max,
        "witness": witness,
        "prechecks": {
            "ok": pre.ok,
            "failures": [
                {"kind": fail.kind, "points": cli._labels(k, fail.points),
                 "k_value": cli._fmt(f, fail.k_value), "q_value": cli._fmt(f, fail.q_value)}
                for fail in pre.failures
            ],
        },
    }
    cli._emit(args, doc)
    if rep.equivalent:
        print(f"equivalent up to order {rep.checked_order_max} "
              f"(n={k.n}, all checked minors agree)")
        return cli.OK
    print(f"not equivalent: minors differ on subset {witness['subset']} "
          f"({witness['minor_k']} vs {witness['minor_q']})")
    return cli.NEGATIVE


def _signed_ring(field, n, r):
    # points 0..r-1 on a ring of ones, the rest isolated; q negates one
    # edge pair, which moves the ring's minor alone, at order r
    k = [[int(i == j or (i < r and j < r and (i - j) % r in (1, r - 1)))
          for j in range(n)] for i in range(n)]
    q = [row[:] for row in k]
    q[0][1] = q[1][0] = field.coerce(-field.one)
    return k, q


def test_check_equiv_runs_the_prechecks_only_when_they_can_fail(
        tmp_path, monkeypatch, capsys):
    # the prechecks now follow check_equivalence and run only when its
    # report leaves orders 1-2 open; at every cap the reports, the output
    # and the exit codes are those of the former handler
    rng = random.Random(26)
    calls = []
    quick = cli.quick_consequences
    monkeypatch.setattr(cli, "quick_consequences",
                        lambda k, q: (calls.append(1), quick(k, q))[1])
    seen = set()
    for field in (Q, PrimeField(101)):
        n = 6
        labels = [f"p{i}" for i in range(n)]
        units = [[rng.randrange(1, 101) for _ in range(n)] for _ in range(n)]
        g = Gauge(field, labels, [rng.randrange(1, 50) for _ in range(n)])
        base = Kernel(field, labels, units)
        pairs = {"direct": (base, base.conjugate(g)),
                 "flipped": (base, base.transpose().conjugate(g))}
        for order, (i, j) in ((1, (2, 2)), (2, (1, 4))):
            rows = [list(row) for row in pairs["flipped"][1].rows]
            rows[i][j] = field.coerce(rows[i][j] + field.one)
            if order == 1:
                rows[3][0] = field.coerce(rows[3][0] + field.one)
            pairs[order] = base, Kernel(field, labels, rows)
        for r in (3, 4):
            k, q = _signed_ring(field, n, r)
            pairs[r] = (Kernel(field, labels, k),
                        Kernel(field, labels, q).conjugate(g))
        for name, (k, q) in pairs.items():
            kp = _write_doc(tmp_path / "k.json", k.to_doc())
            qp = _write_doc(tmp_path / "q.json", q.to_doc())
            for cap in range(1, n + 1):
                outcomes = []
                for handler in (_cmd_check_equiv, _former_check_equiv):
                    monkeypatch.setattr(cli, "_cmd_check_equiv", handler)
                    out = tmp_path / "report.json"
                    calls.clear()
                    code = main(["check-equiv", "--k", kp, "--q", qp,
                                 "--max-order", str(cap), "--out", str(out)])
                    outcomes.append((code, capsys.readouterr(),
                                     out.read_bytes(), len(calls)))
                assert outcomes[0][:3] == outcomes[1][:3], (field, name, cap)
                doc = json.loads(outcomes[0][2])
                witness = doc["witness"]
                seen.add((name, doc["verdict"], bool(outcomes[0][3]),
                          len(witness["subset"]) if witness else None))
    # certified pairs never run the prechecks; refutations do at order <= 2,
    # and at cap 1 every pair without a certificate does
    assert seen == {
        ("direct", "equivalent", False, None),
        ("flipped", "equivalent", False, None),
        (1, "not_equivalent", True, 1),
        (2, "equivalent", True, None), (2, "not_equivalent", True, 2),
        (3, "equivalent", True, None), (3, "equivalent", False, None),
        (3, "not_equivalent", False, 3),
        (4, "equivalent", True, None), (4, "equivalent", False, None),
        (4, "not_equivalent", False, 4)}


# ----------------------------------------------------------- JSON hygiene


def test_reports_are_byte_stable(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path, seed=12)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for args, path in ((["check-equiv"], a), (["check-equiv"], b)):
        assert main(args + ["--k", kp, "--q", qp, "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_module_entry_point(tmp_path):
    kp, qp, _, _, _ = _gen_pair_files(tmp_path, seed=13)
    proc = subprocess.run(
        [sys.executable, "-m", "detequiv", "check-equiv",
         "--k", kp, "--q", qp],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "equivalent" in proc.stdout


# --------------------------------------------------------- argument parsing


def _reference_parser():
    # the former _build_parser, verbatim: every option on every subparser
    parser = argparse.ArgumentParser(
        prog="detequiv",
        description="Exact principal-minor comparison of finite kernels and "
                    "constructive recovery of the diagonal transform between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, pair=False, single=False):
        p = sub.add_parser(name, help=help_text)
        if pair or single:
            p.add_argument("--k", required=True, help="first kernel JSON file")
        if pair:
            p.add_argument("--q", required=True, help="second kernel JSON file")
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

    add("recover", _cmd_recover,
        "recover and verify the diagonal transform", pair=True)

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


_COMMANDS = ("check-equiv", "check-classd", "classify", "recover", "gen",
             "perturb", "oracle", "search")

_HELP_AND_ERROR_ARGVS = [
    ["-h"], ["--help"], [], ["nosuch"], ["-h", "recover"], ["--", "recover"],
    ["-x", "recover"], ["recover", "--k", "k.json", "--q", "q.json",
                        "--bogus", "1"],
    # words that argparse reads as positionals although they start with a
    # dash; main's command skips them
    ["-1"], ["-"], ["-1", "recover"], ["--", "-h"],
    ["recover", "--", "--k", "x"],
    ["rec"],   # command names take no abbreviation
] + [argv for name in _COMMANDS
     for argv in ([name], [name, "-h"], [name, "--out"],
                  [name, "--k", "x", "-h"])]

_PARSED_ARGVS = [
    ["check-equiv", "--k", "k.json", "--q", "q.json", "--max-order", "3",
     "--out", "r.json"],
    ["check-classd", "--k", "k.json"],
    ["classify", "--q", "q.json", "--k", "k.json"],
    ["recover", "--k=k.json", "--q", "q.json", "--ou", "r.json"],
    ["gen", "--field", "prime:7", "--n", "4", "--transpose", "--zeros", "1",
     "--seed", "2", "--max-attempts", "9"],
    ["perturb", "--k", "k.json", "--q", "q.json", "--seed", "3"],
    ["oracle", "--k", "k.json", "--q", "q.json"],
    ["search", "--field", "prime:2", "--n", "4", "--budget", "10"],
]


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _match_the_full_reference(argv, monkeypatch):
    # main gives options to the invoked command alone; argparse must print
    # the same help, usage and errors, and parse the same namespace
    monkeypatch.setenv("COLUMNS", "80")
    handled = []
    for command in _COMMANDS:
        name = "_cmd_" + command.replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args, name=name:
                            handled.append((name, vars(args))) or 0)
    parsed = []

    def reference(argv):
        parsed.append(vars(_reference_parser().parse_args(argv)))
        return 0

    outcome = _outcome(main, argv)
    assert outcome == _outcome(reference, argv)
    assert len(handled) == len(parsed)
    for (name, got), want in zip(handled, parsed):
        assert want.pop("handler").__name__ == name
        got.pop("handler")
        assert got == want
    return "parsed" if parsed else outcome[0]


@pytest.mark.parametrize("argv", _HELP_AND_ERROR_ARGVS + _PARSED_ARGVS)
def test_parser_matches_the_full_reference(argv, monkeypatch):
    kind = _match_the_full_reference(argv, monkeypatch)
    assert (kind == "parsed") == (argv in _PARSED_ARGVS)


_OPTIONS = ("-h", "--help", "--k", "--q", "--out", "--max-order", "--field",
            "--n", "--transpose", "--zeros", "--seed", "--max-attempts",
            "--budget")
_VALUES = ("x", "3", "prime:7")
_WORD = st.sampled_from(_COMMANDS + _OPTIONS + ("--", "-", "-1") + _VALUES)
_CHUNK = st.one_of(st.tuples(_WORD),
                   st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)))
_ARGVS = st.one_of(
    st.lists(_WORD, max_size=8),
    # a call that parses, as it is or with one word or option and value put
    # in, so that many draws parse
    st.builds(lambda argv, at, chunk: [*argv[:at], *chunk, *argv[at:]],
              st.sampled_from(_PARSED_ARGVS), st.integers(0, 13),
              st.one_of(st.just(()), _CHUNK)))


def test_drawn_argv_match_the_full_reference():
    kinds = collections.Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_ARGVS)
    def check(argv):
        with pytest.MonkeyPatch.context() as monkeypatch:
            kinds[_match_the_full_reference(argv, monkeypatch)] += 1

    check()
    # parsed calls, help and usage errors all occur among the draws
    assert {"parsed", 0, 2} <= set(kinds), kinds


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["detequiv", "check-equiv", "-h"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0
    assert "--max-order" in capsys.readouterr().out
