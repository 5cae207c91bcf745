"""The demos run in-process with their default arguments and print exactly
the text they always have: each one's standard output is pinned by sha256."""

import hashlib
import pathlib
import runpy
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "cycle_identities_demo.py":
        "f3ce7110e2edbb2a26e5841a1d5a6b0a794e69da1794815e02722d1331c7b1ce",
    "refutation_demo.py":
        "b8605fc1b63a31ab3ec6653212e6589a81854c928282d7ab06df542706d0e5ec",
    "roundtrip_demo.py":
        "f3765e43a579933905db589fd53f9a994ef2a6eef3f16b33a0527a2b3bbe14fc",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs(name, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name == "roundtrip_demo.py":
        assert "matches the recovered gauge: True" in out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name]
