"""Byte-for-byte stdout of the CLI at its default config and of the README's
commands, against the copies committed in ``tests/golden/``.

A change that claims identical output proves it by passing this test.  A
change that means to alter the output regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and records the old and new values.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# golden file name -> argv; the seven subcommands at the default config,
# then the README's commands that add options
COMMANDS = {
    "examples": ["examples"],
    "distortion": ["distortion"],
    "optimal": ["optimal"],
    "merge": ["merge"],
    "pfunction": ["pfunction"],
    "sequential": ["sequential"],
    "ville": ["ville"],
    "readme_distortion": ["distortion", "--fixture", "valid_hacking",
                          "--strategy", "decreasing_alpha"],
    "readme_optimal_seed7": ["optimal", "--seed", "7"],
    "readme_sequential_n20000": ["sequential", "--n", "20000"],
}


def _stdout(argv) -> str:
    from posthoc.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"posthoc {' '.join(argv)} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    want = (GOLDEN / f"{name}.stdout").read_text()
    assert _stdout(COMMANDS[name]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.stdout").write_text(_stdout(argv))
        sys.stderr.write(f"wrote {name}.stdout\n")
