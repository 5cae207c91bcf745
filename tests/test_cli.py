"""End-to-end command-line flows: exit codes, JSON reports, byte stability."""

import json
import subprocess
import sys

import pytest

from fractions import Fraction

from detequiv.cli import main
from detequiv.kernels import Gauge, Kernel
from detequiv.fields import PrimeField, Rationals
from detequiv.lab import InstanceSpec, gen_instance

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


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["check-equiv", "--k", str(deep), "--q", str(deep)]) == 2
    assert str(deep) in capsys.readouterr().err


def test_oversized_minor_scan_exits_two(tmp_path, capsys):
    n = 21
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    kp = _write_doc(tmp_path / "k.json",
                    Kernel(Q, [str(i) for i in range(n)], rows).to_doc())
    assert main(["check-equiv", "--k", kp, "--q", kp]) == 2
    assert main(["recover", "--k", kp, "--q", kp]) == 2
    assert "2097151 subsets" in capsys.readouterr().err
    assert main(["check-equiv", "--k", kp, "--q", kp, "--max-order", "3"]) == 0


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
