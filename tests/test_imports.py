"""What importing heckext loads: its own modules and the standard library
modules they name, not `dataclasses` and the modules it brings in, so a
fresh `heckext` process spends its start on heckext."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import sys
before = set(sys.modules)
import heckext, heckext.verify, heckext.presentation, heckext.grammar, heckext.cli
print(" ".join(sorted({"dataclasses", "inspect", "ast", "dis"} & (set(sys.modules) - before))))
"""


def test_a_fresh_import_loads_no_dataclasses():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []
