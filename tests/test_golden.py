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

which names each differing file, and each command that exits non-zero,
and exits 1 if any differs.
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


def _run(argv) -> tuple:
    """The exit code and stdout of ``main(argv)`` in process."""
    from posthoc.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _run_process(argv) -> tuple:
    """The exit code and stdout bytes of a ``python -m posthoc.cli``
    process."""
    import posthoc

    src = str(Path(posthoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "posthoc.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def pytest_generate_tests(metafunc):
    # parametrized by hook, so the module imports without pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(COMMANDS))


def test_stdout_matches_golden(name):
    assert _run(COMMANDS[name]) == (0, (GOLDEN / f"{name}.stdout").read_text())


def test_process_stdout_matches_golden(name):
    assert _run_process(COMMANDS[name]) == (0, (GOLDEN / f"{name}.stdout").read_bytes())


def check() -> int:
    """0 when every command exits 0 and its stdout, in process and from a
    process, matches its golden file, else 1.  A command that exits
    non-zero is named among the differing runs, and the rest still run."""
    differing = []
    for name in sorted(COMMANDS):
        argv = COMMANDS[name]
        want = (GOLDEN / f"{name}.stdout").read_bytes()
        code, out = _run(argv)
        results = [("in process", code, out.encode()),
                   ("from python -m posthoc.cli", *_run_process(argv))]
        for where, code, out in results:
            if code != 0:
                differing.append(f"{name}.stdout {where}: posthoc {' '.join(argv)} "
                                 f"exited {code}")
            elif out != want:
                differing.append(f"{name}.stdout {where}")
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
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"posthoc {' '.join(argv)} exited {code}")
        (GOLDEN / f"{name}.stdout").write_text(out)
        sys.stderr.write(f"wrote {name}.stdout\n")
