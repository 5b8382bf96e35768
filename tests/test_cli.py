import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import posthoc
from posthoc import fmt_number
from posthoc.cli import main, reproduce_examples


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_usage_error(capsys, *argv):
    """Exit 2, nothing on stdout, one JSON error line on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


class TestExamples:
    def test_golden_table_passes(self, capsys):
        code, out = run(capsys, "examples")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["ok"] and report["failures"] == []

    def test_reproduce_examples_rows(self):
        report, tables = reproduce_examples()
        assert all(row["ok"] for row in report["rows"])
        assert tables["examples"].startswith("example,got,want,ok\n")
        ids = [row["example"] for row in report["rows"]]
        assert "decreasing_alpha/expected" in ids
        assert "minimal_h/classical_sup" in ids
        assert "gaussian/classical_critical" in ids
        assert "gaussian/posthoc_power" in ids


class TestDeterminism:
    def test_identical_seed_identical_output(self, capsys):
        _, a = run(capsys, "distortion", "--seed", "77", "--n", "2000")
        _, b = run(capsys, "distortion", "--seed", "77", "--n", "2000")
        assert a == b

    def test_seed_changes_mc_estimate(self, capsys):
        _, a = run(capsys, "distortion", "--seed", "77", "--n", "2000")
        _, b = run(capsys, "distortion", "--seed", "78", "--n", "2000")
        assert json.loads(a)["report"]["mc_estimate"] != \
            json.loads(b)["report"]["mc_estimate"]


class TestOptionResolution:
    def test_flag_beats_env(self, capsys, monkeypatch):
        # the CLI reads no environment variable: an old seed variable, even
        # one that is no integer, changes nothing
        code, want = run(capsys, "merge", "--seed", "9")
        monkeypatch.setenv("EVALID_SEED", "abc")
        assert run(capsys, "merge", "--seed", "9") == (code, want)
        assert code == 0 and json.loads(want)["seed"] == 9

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 314, "n": 600,
                                   "fixture": "valid_hacking"}))
        _, out = run(capsys, "distortion", "--config", str(cfg))
        env = json.loads(out)
        assert env["seed"] == 314
        assert env["report"]["fixture"] == "valid_hacking"

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _ = run(capsys, "distortion", "--config",
                      str(tmp_path / "nope.json"))
        assert code == 2

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, _ = run(capsys, "distortion", "--fixture", "nope")
        assert code == 2


class TestOutputs:
    def test_out_dir_gets_report_and_tables(self, capsys, tmp_path):
        code, _ = run(capsys, "examples", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "examples.json").exists()
        assert (tmp_path / "examples.csv").exists()
        csv_text = (tmp_path / "examples.csv").read_text()
        assert "\r" not in csv_text  # LF line endings only

    def test_csv_format_streams_table(self, capsys):
        _, out = run(capsys, "distortion", "--n", "500", "--format", "csv")
        assert out.startswith("level,mass,size,distortion")

    @pytest.mark.parametrize("command", ["distortion", "examples"])
    def test_float_backend_reaches_csv_tables(self, capsys, command):
        """--backend float writes floats in the CSV table as in the JSON
        report; the default backend writes the exact fractions."""
        _, exact = run(capsys, command, "--n", "500", "--format", "csv")
        _, floats = run(capsys, command, "--n", "500", "--format", "csv",
                        "--backend", "float")
        _, report = run(capsys, command, "--n", "500", "--backend", "float")
        assert "/" in exact  # e.g. the level 1/100
        rows = list(csv.DictReader(io.StringIO(floats)))
        columns = (["level", "mass", "size", "distortion"] if command == "distortion"
                   else ["got", "want"])
        cells = [row[c] for row in rows for c in columns]
        assert cells and not any("/" in cell for cell in cells)
        assert all(cell in ("True", "False") or isinstance(float(cell), float)
                   for cell in cells)
        report_rows = json.loads(report)["report"]
        report_rows = report_rows["per_level"] if command == "distortion" \
            else report_rows["rows"]
        assert [{c: r[c] for c in columns} for r in report_rows] == \
            [{c: r[c] for c in columns} for r in rows]

    def test_power2_lambda_is_the_closed_form(self, capsys):
        """Bernoulli(1/2) vs Bernoulli(3/4) at gamma = 2: lambda =
        ((1/sqrt 2 + sqrt(3/2))/2)^2 = (2 + sqrt 3)/4."""
        _, out = run(capsys, "optimal")
        lam = json.loads(out)["report"]["bernoulli_power2_lambda"]
        want = (2 + math.sqrt(3)) / 4
        assert abs(lam - want) <= math.ulp(want)

    def test_schema_version_present(self, capsys):
        _, out = run(capsys, "sequential", "--n", "500")
        env = json.loads(out)
        assert env["schema_version"] == 1
        assert "fixture_hash" in env

    def test_fixture_hash_follows_the_fixture_content(self, capsys, monkeypatch):
        from posthoc import cli

        hashes = {}
        for fixture in ("uniform", "valid_hacking"):
            for strategy in ("decreasing_alpha", "conservative"):
                _, out = run(capsys, "distortion", "--n", "10",
                             "--fixture", fixture, "--strategy", strategy)
                hashes[fixture, strategy] = json.loads(out)["fixture_hash"]
        assert len(set(hashes.values())) == 4
        # the content is hashed, not the name
        monkeypatch.setitem(cli.P_LAWS, "uniform", posthoc.valid_hacking_law)
        _, out = run(capsys, "distortion", "--n", "10")
        assert json.loads(out)["fixture_hash"] == \
            hashes["valid_hacking", "decreasing_alpha"]
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        _, out = run(capsys, "distortion", "--n", "10")
        assert json.loads(out)["fixture_hash"] != \
            hashes["valid_hacking", "decreasing_alpha"]

    def test_all_subcommands_run(self, capsys):
        for cmd in ("distortion", "optimal", "merge", "pfunction",
                    "sequential"):
            code, _ = run(capsys, cmd, "--n", "500")
            assert code == 0, cmd

    def test_ville_small(self, capsys):
        code, out = run(capsys, "ville", "--n", "4000")
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "PASS"

    def test_ville_is_exact(self, capsys):
        _, out = run(capsys, "ville")
        report = json.loads(out)["report"]
        for key in ("martingale", "supermartingale"):
            row = report[key]
            assert (row["method"], row["n"], row["se"]) == ("exact", None, 0.0)
            assert row["mean_exact"] == "1"
        invalid = report["invalid_process"]
        assert invalid["sup_all_stopping_times"]["null"] == fmt_number(
            Fraction(11, 10) ** 50)


class TestExitCodes:
    def test_passing_verdict_exits_0(self, capsys):
        code, out = run(capsys, "merge")
        report = json.loads(out)["report"]
        assert code == 0
        assert report["ok"] is report["product_independent_valid"] is True

    def test_failing_verdict_exits_1(self, capsys):
        # two draws cannot land within 3 SE of 9/5: the MC check fails
        code, out = run(capsys, "distortion", "--n", "2")
        report = json.loads(out)["report"]
        assert report["ok"] is report["mc_within_3se"] is False
        assert code == 1

    def test_wrong_log_optimal_fails_optimal(self, capsys, monkeypatch):
        """The optimal verdict is E_P[1/p*] = 1 for the Bernoulli p*, so a
        p* off at one outcome makes it fail."""
        import posthoc.design
        from posthoc import EvidenceVariable

        monkeypatch.setattr(
            posthoc.design, "log_optimal",
            lambda pair: EvidenceVariable({0: 1, 1: Fraction(2, 3)}, "p"))
        code, out = run(capsys, "optimal")
        report = json.loads(out)["report"]
        assert report["bernoulli_log_optimal_recip_mean"] == "5/4"
        assert report["ok"] is False
        assert code == 1

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"],
                             ids=["invalid-json", "json-list"])
    def test_malformed_config_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert_usage_error(capsys, "merge", "--config", str(cfg))

    @pytest.mark.parametrize("config", [{"n": "5"}, {"seed": -1}],
                             ids=["string-n", "negative-seed"])
    def test_malformed_config_value_exits_2(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert_usage_error(capsys, "merge", "--config", str(cfg))

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        # an ignored key would be an option that does nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2, "seed": 1, "beta": 0}))
        assert_usage_error(capsys, "optimal", "--config", str(cfg))
        main(["optimal", "--config", str(cfg)])
        assert "unknown config keys ['alpha', 'beta']" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, capsys):
        assert_usage_error(capsys, "merge", "--seed", "-1")

    @pytest.mark.parametrize("argv", [
        ["merge", "--backend", "foo"],
        ["merge", "--format", "xml"],
        ["merge", "--seed", "abc"],
        ["merge", "--n", "1.5"],
        ["merge", "--no-such-flag"],
        ["frobnicate"],
        [],
    ], ids=["backend", "format", "seed-type", "n-type", "unknown-flag",
            "unknown-subcommand", "no-subcommand"])
    def test_parser_errors_exit_2_with_one_json_line(self, capsys, argv):
        assert_usage_error(capsys, *argv)

    def test_flag_and_config_values_meet_one_rule(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "foo"}))
        main(["merge", "--config", str(cfg)])
        from_config = capsys.readouterr().err
        main(["merge", "--backend", "foo"])
        assert capsys.readouterr().err == from_config != ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--help"])
        assert exc.value.code == 0
        assert "--backend" in capsys.readouterr().out

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, under):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "results" if under else taken
        assert_usage_error(capsys, "merge", "--out", str(out))
        assert taken.read_text() == "kept"

    def test_every_report_carries_ok(self, capsys):
        for cmd in ("distortion", "optimal", "merge", "pfunction",
                    "sequential", "ville"):
            code, out = run(capsys, cmd, "--n", "500")
            report = json.loads(out)["report"]
            assert isinstance(report["ok"], bool), cmd
            assert code == (0 if report["ok"] else 1), cmd


def test_import_does_not_load_scipy():
    code = ("import sys, posthoc; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(posthoc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def numpy_modules(argv, code=0):
    """The numpy modules loaded by ``import posthoc`` and, with ``argv``, by
    one CLI run in a fresh interpreter, which must exit with ``code``."""
    script = ("import io, sys, contextlib, posthoc, posthoc.cli\n"
              "if sys.argv[2:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert posthoc.cli.main(sys.argv[2:]) == int(sys.argv[1])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(posthoc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script, str(code), *argv],
                          capture_output=True, text=True, check=True,
                          env=env).stdout.strip()


@pytest.mark.parametrize("argv", [[], ["ville"], ["sequential"], ["examples"],
                                  ["optimal"], ["merge"], ["pfunction"]],
                         ids=["import", "ville", "sequential", "examples",
                              "optimal", "merge", "pfunction"])
def test_exact_commands_do_not_load_numpy(argv):
    assert numpy_modules(argv) == "[]"


@pytest.mark.parametrize("argv, code", [
    (["distortion", "--fixture", "valid_hacking", "--strategy", "decreasing_alpha"], 0),
    (["distortion", "--n", "2"], 1),
    (["distortion", "--n", "65536"], 0),
], ids=["readme", "n2", "cutoff"])
def test_small_monte_carlo_draws_do_not_load_numpy(argv, code):
    # up to distortion.STDLIB_DRAWS = 2^16 draws come from the stdlib Philox
    # kernel
    assert numpy_modules(argv, code) == "[]"


# numpy is the runtime dependency of large draws; the CI job that checks
# the CLI on the standard library alone does not install it
@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="numpy is not installed")
def test_large_monte_carlo_draws_load_numpy():
    assert "'numpy'" in numpy_modules(["distortion", "--n", "100000"])


def test_large_monte_carlo_draws_run_without_numpy(capsys, monkeypatch):
    # a None entry blocks the import, as where numpy is not installed: the
    # draws take the stdlib words, which are numpy's, so stdout is the same
    argv = ("distortion", "--n", "100000")
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", None)
        code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["report"]["ok"] is True
    if importlib.util.find_spec("numpy") is not None:
        assert run(capsys, *argv) == (0, out)
