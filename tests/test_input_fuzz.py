"""Fuzz of the input boundary: every malformed kernel document exits 2.

A well-formed document is drawn first, then broken in exactly one way.
Each command that reads kernel files must answer 2 (bad input): never 0
or 1, which are verdicts, never 3, which flags an internal fault, and
never an escaped exception.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from detequiv.cli import main
from detequiv.fields import MAX_PRIME, is_prime

GOOD = {"field": {"kind": "rational"}, "labels": ["a", "b"],
        "entries": [["1", "2"], ["3", "4"]]}

BAD_FIELDS = [
    {"kind": "prime", "p": 4},
    {"kind": "prime", "p": 1},
    {"kind": "prime", "p": 2**31 + 11},
    {"kind": "prime"},
    {"kind": "prime", "p": "7"},
    {"kind": "prime", "p": True},
    {"kind": "prime", "p": 7.0},
    {"kind": "complex"},
    {"kind": None},
    {"p": 7},
    "rational",
    ["rational"],
    None,
    7,
]
BAD_LITERALS = ["", "x", "1.5", "1/0", "1/", "/2", " 1", "1 ", "--1", "1e3",
                "0x7", "½", 1, 1.5, None, True, [], {}]
NOT_LISTS = [None, 3, 1.5, True, "ab", {"a": 1}]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _not_a_modulus(p):
    return not (type(p) is int and p < MAX_PRIME and is_prime(p))


@st.composite
def valid_docs(draw):
    n = draw(st.integers(1, 3))
    prime = draw(st.booleans())
    literal = (st.integers(-20, 20).map(str) if prime
               else st.sampled_from(["0", "1", "-2", "3/4", "-5/7"]))
    return {
        "field": {"kind": "prime", "p": 7} if prime else {"kind": "rational"},
        "labels": draw(st.lists(st.text("abcxyz", min_size=1, max_size=2),
                                min_size=n, max_size=n, unique=True)),
        "entries": [[draw(literal) for _ in range(n)] for _ in range(n)],
    }


@st.composite
def malformed_docs(draw):
    doc = draw(valid_docs())
    n = len(doc["labels"])
    how = draw(st.sampled_from([
        "missing_key", "not_an_object", "labels_type", "label_type",
        "entries_type", "row_type", "ragged", "empty", "bad_literal",
        "bad_field", "duplicate_labels"]))
    if how == "missing_key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "not_an_object":
        doc = draw(st.sampled_from([[], [doc], "doc", 3, None, True]))
    elif how == "labels_type":
        doc["labels"] = draw(st.sampled_from(NOT_LISTS))
    elif how == "label_type":
        doc["labels"][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(["", 1, None, True, ["a"], {"a": "b"}]))
    elif how == "entries_type":
        doc["entries"] = draw(st.sampled_from(NOT_LISTS))
    elif how == "row_type":
        doc["entries"][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(NOT_LISTS))
    elif how == "ragged":
        row = doc["entries"][draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    elif how == "empty":
        doc["entries"] = draw(st.sampled_from([[], [[]], [[]] * n]))
        if draw(st.booleans()):
            doc["labels"] = []
    elif how == "bad_literal":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        doc["entries"][i][j] = draw(
            st.sampled_from(BAD_LITERALS)
            | JSON_VALUES.filter(lambda v: not isinstance(v, str)))
    elif how == "bad_field":
        doc["field"] = draw(
            st.sampled_from(BAD_FIELDS)
            | st.fixed_dictionaries({"kind": st.just("prime"),
                                     "p": JSON_VALUES.filter(_not_a_modulus)})
            | JSON_VALUES.filter(
                lambda v: not isinstance(v, dict) or "kind" not in v))
    else:
        doc["labels"] = [doc["labels"][0]] * max(n, 2)
        doc["entries"] = [["1"] * len(doc["labels"])] * len(doc["labels"])
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=malformed_docs(), bad_first=st.booleans())
def test_malformed_documents_exit_two_on_every_command(tmp_path_factory, doc,
                                                       bad_first):
    folder = tmp_path_factory.getbasetemp()
    bad = folder / "fuzz_bad.json"
    good = folder / "fuzz_good.json"
    bad.write_text(json.dumps(doc))
    good.write_text(json.dumps(GOOD))
    k, q = (bad, good) if bad_first else (good, bad)
    calls = [["check-classd", "--k", str(bad)]] + [
        [command, "--k", str(k), "--q", str(q)]
        for command in ("check-equiv", "recover", "classify", "oracle")]
    sink = io.StringIO()
    for argv in calls:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        assert code == 2, (argv, doc, sink.getvalue())
