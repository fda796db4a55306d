"""What importing heckext loads: its own modules and the standard library
modules they name, not `dataclasses` and the modules it brings in, so a
fresh `heckext` process spends its start on heckext; and a command that
runs no suite and no relator does not load verify.py or presentation.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import sys
before = set(sys.modules)
import heckext, heckext.verify, heckext.presentation, heckext.grammar, heckext.cli
print(" ".join(sorted({"dataclasses", "inspect", "ast", "dis"} & (set(sys.modules) - before))))
"""


def fresh(code: str, *args: str) -> str:
    """The stdout of code run by a fresh interpreter that finds heckext."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60).stdout


def test_a_fresh_import_loads_no_dataclasses():
    assert fresh(_PROBE).split() == []


# the command line, run as `python -m heckext` runs it, then the heckext
# modules it loaded, after its own stdout
_COMMAND = """
import runpy, sys
sys.argv[0] = "heckext"
try:
    runpy.run_module("heckext", run_name="__main__")
except SystemExit as exit:
    assert exit.code == 0, exit.code
print(" ".join(sorted(name for name in sys.modules if name.startswith("heckext."))))
"""


@pytest.mark.parametrize("command", [
    ["mul", "b0(w(0; s1))", "2*tau(w(1; s0)) - e(1)", "--p", "1009", "--format", "json"],
    ["table", "2", "--p", "5", "--max-length", "2"],
])
def test_mul_and_table_load_neither_verify_nor_presentation(command):
    loaded = fresh(_COMMAND, *command).splitlines()[-1].split()
    assert "heckext.cli" in loaded and "heckext.suites" in loaded
    assert "heckext.verify" not in loaded and "heckext.presentation" not in loaded
