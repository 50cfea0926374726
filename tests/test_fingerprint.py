"""The committed trace fingerprint: statuses and iteration counts of the
578 solves in ``fingerprint.tsv`` hold (see ``fingerprint.py``)."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("fingerprint.py")


def test_statuses_and_iteration_counts_match_the_golden_file():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "status or iteration count moved: 0" in out.stdout
