"""The README's quick tour runs as written, against the source tree."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
