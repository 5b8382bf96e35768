"""Byte-for-byte stdout of the CLI at its default config and of the README's
commands, against the copies committed in ``tests/golden/``: from ``main``
in process, and from a fresh ``python -m posthoc.cli`` process that writes
no bytecode, as the benchmark starts each command, so the options are read
from ``sys.argv`` too.

A change that claims identical output proves it by passing this test.  A
change that means to alter the output regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and records the old and new values.  The same comparison runs without
pytest, on the standard library alone, with

    PYTHONPATH=src python tests/test_golden.py --check

which names each differing file and exits 1 if any differs.
"""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

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


def _process_stdout(argv) -> bytes:
    import posthoc

    src = str(Path(posthoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "posthoc.cli", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == 0, f"posthoc {' '.join(argv)} exited {proc.returncode}"
    return proc.stdout


def pytest_generate_tests(metafunc):
    # parametrized by hook, so the module imports without pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(COMMANDS))


def test_stdout_matches_golden(name):
    want = (GOLDEN / f"{name}.stdout").read_text()
    assert _stdout(COMMANDS[name]) == want


def test_process_stdout_matches_golden(name):
    assert _process_stdout(COMMANDS[name]) == (GOLDEN / f"{name}.stdout").read_bytes()


def check() -> int:
    """0 when every stdout, in process and from a process, matches its
    golden file, else 1."""
    differing = []
    for name in sorted(COMMANDS):
        want = (GOLDEN / f"{name}.stdout").read_bytes()
        if _stdout(COMMANDS[name]).encode() != want:
            differing.append(f"{name}.stdout in process")
        if _process_stdout(COMMANDS[name]) != want:
            differing.append(f"{name}.stdout from python -m posthoc.cli")
    for entry in differing:
        sys.stderr.write(f"differs: {entry}\n")
    runs = 2 * len(COMMANDS)
    sys.stderr.write(f"{runs - len(differing)} of {runs} runs match their golden "
                     f"files ({len(COMMANDS)} in process, {len(COMMANDS)} as processes)\n")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.stdout").write_text(_stdout(argv))
        sys.stderr.write(f"wrote {name}.stdout\n")
