"""The demos run in-process with their default arguments and finish cleanly."""

import pathlib
import runpy
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["cycle_identities_demo.py",
                                  "refutation_demo.py", "roundtrip_demo.py"])
def test_demo_runs(name, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name == "roundtrip_demo.py":
        assert "matches the recovered gauge: True" in out
