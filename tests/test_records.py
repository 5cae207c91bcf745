"""The contract of the result records: fields, repr, immutability, equality.

Each record is pinned through ``inspect.signature`` and its behaviour alone,
so the contract holds whatever class machinery builds the record.
"""

import inspect

import pytest

from detequiv.classd import ClassDReport
from detequiv.classify import CaseLabel, CaseTable, CycleClassification, GlobalCase
from detequiv.equivalence import EquivalenceReport, PrecheckFailure, PrecheckReport
from detequiv.fields import PrimeField
from detequiv.kernels import Cycle, Gauge
from detequiv.lab import GroundTruth, InstanceSpec, OracleResult
from detequiv.recovery import CocycleCheck, CocycleViolation, RecoveryResult

EMPTY = inspect.Parameter.empty
F7 = PrimeField(7)

# (record, [(field, default)], sample arguments, repr of the sample)
RECORDS = [
    (ClassDReport,
     [("holds", EMPTY), ("witness", None), ("witness_labels", None)],
     (False, (0, 1, 2, 3), ("a", "b", "c", "d")),
     "ClassDReport(holds=False, witness=(0, 1, 2, 3), "
     "witness_labels=('a', 'b', 'c', 'd'))"),
    (CycleClassification,
     [("cycle", EMPTY), ("label", EMPTY), ("k_forward", EMPTY),
      ("k_reversed", EMPTY), ("q_forward", EMPTY), ("q_reversed", EMPTY),
      ("zero_edges", EMPTY)],
     (Cycle((0, 1, 2)), CaseLabel.BOTH, 2, 3, 2, 3, ((0, 1),)),
     "CycleClassification(cycle=Cycle((0, 1, 2)), "
     "label=<CaseLabel.BOTH: 'both'>, k_forward=2, k_reversed=3, "
     "q_forward=2, q_reversed=3, zero_edges=((0, 1),))"),
    (CaseTable,
     [("rows", EMPTY)],
     ((),),
     "CaseTable(rows=())"),
    (PrecheckFailure,
     [("kind", EMPTY), ("points", EMPTY), ("k_value", EMPTY),
      ("q_value", EMPTY)],
     ("pair", (0, 1), 6, 5),
     "PrecheckFailure(kind='pair', points=(0, 1), k_value=6, q_value=5)"),
    (PrecheckReport,
     [("failures", EMPTY)],
     ((),),
     "PrecheckReport(failures=())"),
    (EquivalenceReport,
     [("equivalent", EMPTY), ("checked_order_max", EMPTY),
      ("witness_subset", None), ("witness_minor_k", None),
      ("witness_minor_q", None), ("certificate", None)],
     (False, 3, (0, 1, 2), 4, 5),
     "EquivalenceReport(equivalent=False, checked_order_max=3, "
     "witness_subset=(0, 1, 2), witness_minor_k=4, witness_minor_q=5, "
     "certificate=None)"),
    (InstanceSpec,
     [("field", EMPTY), ("n", EMPTY), ("transpose", False), ("zero_edges", 0),
      ("seed", 0), ("max_attempts", 100000)],
     (F7, 4),
     "InstanceSpec(field=PrimeField(7), n=4, transpose=False, zero_edges=0, "
     "seed=0, max_attempts=100000)"),
    (GroundTruth,
     [("gauge", EMPTY), ("transposed", EMPTY)],
     ("g", True),
     "GroundTruth(gauge='g', transposed=True)"),
    (OracleResult,
     [("found", EMPTY), ("complete", EMPTY), ("transposed", None),
      ("gauge", None)],
     (True, True),
     "OracleResult(found=True, complete=True, transposed=None, gauge=None)"),
    (CocycleViolation,
     [("law", EMPTY), ("points", EMPTY), ("value", EMPTY)],
     ("triangle", (0, 1, 2), 3),
     "CocycleViolation(law='triangle', points=(0, 1, 2), value=3)"),
    (CocycleCheck,
     [("ok", EMPTY), ("violation", None)],
     (True,),
     "CocycleCheck(ok=True, violation=None)"),
    (RecoveryResult,
     [("transposed", EMPTY), ("gauge", EMPTY), ("base_label", EMPTY)],
     (True, "g", "a"),
     "RecoveryResult(transposed=True, gauge='g', base_label='a')"),
]
IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, fields, args, text", RECORDS, ids=IDS)
def test_fields_order_and_defaults(record, fields, args, text):
    params = inspect.signature(record).parameters.values()
    assert [(p.name, p.default) for p in params] == fields


@pytest.mark.parametrize("record, fields, args, text", RECORDS, ids=IDS)
def test_repr(record, fields, args, text):
    assert repr(record(*args)) == text


@pytest.mark.parametrize("record, fields, args, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, fields, args, text):
    value = record(*args)
    for name, _ in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert tuple(getattr(value, name) for name, _ in fields)[:len(args)] == args


@pytest.mark.parametrize("record, fields, args, text", RECORDS, ids=IDS)
def test_equality_and_hash(record, fields, args, text):
    a, b = record(*args), record(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    other = record("other", *args[1:])
    assert a != other and not a == other


def test_equivalence_report_ignores_its_certificate():
    bare = EquivalenceReport(True, 5)
    proved = EquivalenceReport(True, 5, certificate=(False, "g", "a"))
    assert proved.certificate == (False, "g", "a")
    assert bare == proved and proved == bare
    assert not bare != proved and not proved != bare
    assert hash(bare) == hash(proved)
    assert {bare, proved} == {bare}
    assert bare != EquivalenceReport(True, 4)
    assert (EquivalenceReport(False, 3, (0, 1, 2), 4, 5, None)
            != EquivalenceReport(False, 3, (0, 1, 2), 4, 6, None))


def test_methods_and_properties():
    assert PrecheckReport(()).ok
    assert not PrecheckReport((PrecheckFailure("diagonal", (0,), 1, 2),)).ok
    row = CycleClassification(Cycle((0, 1, 2)), CaseLabel.NEITHER, 1, 2, 3, 4, ())
    table = CaseTable((row,))
    assert table.neither_rows() == (row,)
    assert table.counts()[CaseLabel.NEITHER] == 1
    gauge = Gauge(F7, ["a", "b"], [1, 3])
    result = RecoveryResult(True, gauge, "a")
    assert result.global_case is GlobalCase.CASE2
    assert RecoveryResult(False, gauge, "a").global_case is GlobalCase.CASE1
    assert result.entries_checked == 4
    assert result.certificate() == {
        "transposed": True, "base": "a", "gauge": gauge.to_doc(),
        "global_case": "case2", "verified": True}
