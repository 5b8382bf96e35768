"""``import posthoc`` loads no submodule; each exported name loads its
submodule on first use, and no module generates code at import.

The module-loading checks run in fresh interpreters, as pytest itself has
already imported ``dataclasses`` and ``inspect``.
"""
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import posthoc

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("_numbers", "_philox", "_record", "core", "distortion", "calibration",
           "pfunctions", "merging", "design", "sequential", "cli")


def loaded_after(code, *argv):
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``
    (which sees ``argv`` as ``sys.argv[1:]``)."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(posthoc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, check=True,
                         env=env).stdout
    return set(json.loads(out.splitlines()[-1]))


def posthoc_modules(modules):
    return {m for m in modules if m.split(".")[0] == "posthoc"}


def test_import_loads_no_submodule():
    modules = loaded_after("import posthoc")
    assert posthoc_modules(modules) == {"posthoc"}
    assert "numpy" not in modules
    assert "dataclasses" not in modules


def test_no_module_loads_dataclasses_or_inspect():
    modules = loaded_after("\n".join(f"import posthoc.{m}" for m in MODULES))
    assert posthoc_modules(modules) == {"posthoc"} | {f"posthoc.{m}" for m in MODULES}
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def test_core_loads_no_random_stream():
    # core is exact algebra: the Philox words and numpy are distortion's
    modules = loaded_after("import posthoc.core")
    assert posthoc_modules(modules) == {
        "posthoc", "posthoc._numbers", "posthoc._record", "posthoc.core"}
    assert "numpy" not in modules


def test_first_use_loads_only_the_defining_submodules():
    modules = loaded_after("import posthoc\nposthoc.h_mean")
    assert posthoc_modules(modules) == {
        "posthoc", "posthoc._numbers", "posthoc._record", "posthoc.core",
        "posthoc.calibration"}


def test_config_usage_error_loads_no_library_module(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 7,\n')
    code = ("import contextlib, io, sys\n"
            "from posthoc.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert main(['merge', '--config', sys.argv[1]]) == 2\n")
    assert posthoc_modules(loaded_after(code, str(bad))) == {"posthoc", "posthoc.cli"}


def readme_commands():
    """The argv of each command in the README's Command line block."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```",
                      (ROOT / "README.md").read_text(), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_load_no_openssl(argv, tmp_path):
    # the envelope's fixture_hash takes the interpreter's built-in SHA-256
    code = ("import contextlib, io, os, sys\n"
            "from posthoc.cli import main\n"
            "os.chdir(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[2:]) == 0\n")
    modules = loaded_after(code, str(tmp_path), *argv)
    assert not {"_hashlib", "ssl"} & modules


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_load_only_what_they_use(argv, tmp_path):
    # the options are read without argparse; the Philox words load with a
    # Monte Carlo draw, csv with a table to write, statistics with a normal
    # quantile
    code = ("import contextlib, io, os, sys\n"
            "from posthoc.cli import main\n"
            "os.chdir(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[2:]) == 0\n")
    modules = loaded_after(code, str(tmp_path), *argv)
    assert not {"argparse", "gettext", "locale"} & modules
    assert ("posthoc._philox" in modules) is (argv[0] == "distortion")
    assert ("csv" in modules) is ("--out" in argv or "csv" in argv)
    if argv[0] == "merge":
        assert "statistics" not in modules


def test_fixture_hash_falls_back_to_hashlib(tmp_path):
    out = tmp_path / "merge.stdout"
    code = ("import contextlib, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from posthoc.cli import main\n"
            "with open(sys.argv[1], 'w') as f, contextlib.redirect_stdout(f):\n"
            "    assert main(['merge']) == 0\n")
    assert "hashlib" in loaded_after(code, str(out))
    assert out.read_text() == (ROOT / "tests" / "golden" / "merge.stdout").read_text()


@pytest.mark.parametrize("command", ["ville", "sequential"])
def test_sequential_runs_load_no_merging_or_pfunctions(command):
    code = ("import contextlib, io, sys\n"
            "from posthoc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n")
    modules = loaded_after(code, command, "--n", "10")
    assert "posthoc.sequential" in modules
    assert not {"posthoc.merging", "posthoc.pfunctions"} & modules


def test_every_exported_name_is_its_submodules_object():
    assert len(set(posthoc.__all__)) == len(posthoc.__all__)
    for name in posthoc.__all__:
        module = importlib.import_module(f"posthoc.{posthoc._SUBMODULE[name]}")
        assert getattr(posthoc, name) is getattr(module, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from posthoc import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(posthoc.__all__)
    assert all(namespace[name] is getattr(posthoc, name)
               for name in posthoc.__all__)


def test_dir_lists_every_exported_name():
    assert set(posthoc.__all__) <= set(dir(posthoc))
    assert "__version__" in dir(posthoc)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        posthoc.no_such_name
    assert not hasattr(posthoc, "no_such_name")


def test_submodules_import_by_name():
    from posthoc import core, sequential

    assert core.PValueLaw is posthoc.PValueLaw
    assert sequential.ville_tail is posthoc.ville_tail
