"""Start-up cost: the CLI imports no heavy module it does not need.

Every check runs as one process, so modules pulled in at import time are
paid on every call; ``dataclasses`` and ``inspect`` alone cost about 10 ms.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import sys
before = set(sys.modules)
import detequiv.cli
print(" ".join(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
