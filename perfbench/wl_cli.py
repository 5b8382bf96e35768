"""cli-readme: the README's *Command line* section, verbatim, as fresh
``python -m posthoc.cli`` processes started one at a time, in rounds.

Import (scipy) takes most of each process.  Three more invocations fail
every time because of CLI faults and count as failed operations until the
CLI is mended.  A traced run calls ``posthoc.cli.main(argv)`` in process
instead, with stdout and stderr captured, so the spans reach the library.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import traceback
from dataclasses import dataclass

from ops import Op
from wl_gauss import GaussianReference

README_COMMANDS = (
    ("examples", ["examples"]),
    ("distortion", ["distortion", "--fixture", "valid_hacking",
                    "--strategy", "decreasing_alpha"]),
    ("optimal", ["optimal", "--seed", "7"]),
    ("merge", ["merge"]),
    ("pfunction", ["pfunction"]),
    ("sequential", ["sequential", "--n", "20000"]),
    ("ville", ["ville", "--n", "100000", "--out", "{tmp}/results/"]),
)
# faults of the CLI today: a malformed --config should exit 2 with a JSON
# error on stderr, and a report whose verdict is false should exit 1
KNOWN_FAULTS = (
    ("config-invalid-json", ["merge", "--config", "{tmp}/invalid.json"]),
    ("config-json-list", ["merge", "--config", "{tmp}/list.json"]),
    ("distortion-n2", ["distortion", "--n", "2"]),
)


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


def _report(res):
    return json.loads(res.stdout)["report"]


def _exit_matches(ck, name, res, verdict):
    """The README: exit 0 when every check in the report passed, else 1."""
    ck.equal(f"{name}.exit_code", res.rc, 0 if verdict is True else 1)


def _one_json_error(text):
    lines = text.splitlines()
    return len(lines) == 1 and "error" in json.loads(lines[0])


class CliReadme:
    name = "cli-readme"
    min_passes = 2           # stdout is compared across rounds
    reference = "python"
    cli_argv = None
    ops_are_processes = True

    def __init__(self, ctx):
        self.ctx = ctx
        (ctx.tmp / "invalid.json").write_text('{"seed": 7,\n')
        (ctx.tmp / "list.json").write_text("[1, 2]\n")
        self.gauss_2001 = GaussianReference(2001)
        self.first_stdout = {}
        self.peak_rss_kb = 0

    def ops(self, round_index):
        for name, argv in README_COMMANDS:
            yield Op(name, self._runner(name, argv), self._checker(name))
        for name, argv in KNOWN_FAULTS:
            yield Op(name, self._runner(name, argv), self._checker(name),
                     known_fault=True)

    def _runner(self, name, argv):
        argv = [a.replace("{tmp}", str(self.ctx.tmp)) for a in argv]
        if self.ctx.tracer is None:
            return lambda: self._run_process(name, argv)
        return lambda: self._run_in_process(name, argv)

    def _run_process(self, name, argv):
        out_path = self.ctx.tmp / f"{name}.stdout"
        err_path = self.ctx.tmp / f"{name}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([self.ctx.python, "-m", "posthoc.cli", *argv],
                                    stdout=out, stderr=err, env=self.ctx.env,
                                    cwd=self.ctx.root)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out_path.read_text(),
                         err_path.read_text())

    def _run_in_process(self, name, argv):
        import posthoc.cli

        out, err = io.StringIO(), io.StringIO()
        with self.ctx.tracer.span(f"cli.{name}"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = posthoc.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the process would print it and exit 1
                traceback.print_exc()
                rc = 1
        return CliResult(rc, out.getvalue(), err.getvalue())

    def _checker(self, name):
        check = getattr(self, "_check_" + name.replace("-", "_"))

        def run_checks(res, ck):
            if name in dict(README_COMMANDS):
                if name in self.first_stdout:
                    ck.equal(f"{name}.stdout_repeat", res.stdout,
                             self.first_stdout[name])
                else:
                    self.first_stdout[name] = res.stdout
            check(res, ck)

        return run_checks

    # -- the README's commands ----------------------------------------------

    def _check_examples(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "examples", res, rep["ok"])
        ck.true("examples.ok", rep["ok"])
        got = {row["example"]: row["got"] for row in rep["rows"]}
        hand = {"decreasing_alpha/expected": "9/5",
                "decreasing_alpha/max": "100",
                "conservative/expected": "1/2", "conservative/max": "50",
                "valid_hacking/expected": "9/10", "valid_hacking/max": "100",
                "bernoulli/log_optimal@1": "2/3", "bernoulli/log_optimal@0": "2"}
        ck.equal("examples.hand_values", {k: got.get(k) for k in hand}, hand)

    def _check_distortion(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "distortion", res, rep["mc_within_3se"])
        ck.true("distortion.mc_within_3se", rep["mc_within_3se"])
        # valid_hacking: Unif(0,1) w.p. 1/2, else 1; level 1% when p <= .01
        ck.equal("distortion.expected", rep["expected_distortion"], "9/10")
        ck.equal("distortion.max", rep["max_distortion"], "100")
        ck.equal("distortion.per_level", rep["per_level"], [
            {"level": "1/100", "mass": "1/200", "size": "1", "distortion": "100"},
            {"level": "1/20", "mass": "199/200", "size": "4/199",
             "distortion": "80/199"}])

    def _check_optimal(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "optimal", res, rep["bernoulli_double_posthoc"])
        self.gauss_2001.check_report(ck, "optimal.gaussian", rep["gaussian"],
                                     0.05)
        # Bern(1/2) against Bern(3/4): f_P/f_Q is 2 at 0 and 2/3 at 1
        ck.equal("optimal.bernoulli_log_optimal", rep["bernoulli_log_optimal"],
                 {"0": "2", "1": "2/3"})
        ck.equal("optimal.np_half", rep["np_half"], {"0": "inf", "1": "1/2"})

    def _check_merge(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "merge", res, rep["product_independent_valid"])
        ck.equal("merge.product_statistic", rep["product_statistic"], "1")
        # 1 / (w/p1 + w/p2) with p1 = (1/2, 2), p2 = (2, 2/3), w = 1/2
        ck.equal("merge.harmonic", rep["harmonic_merge"], {"0": "4/5", "1": "1"})
        ck.equal("merge.failure_witness",
                 rep["uniform_product_failure_witness_n"], 2)

    def _check_pfunction(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "pfunction", res, rep["valid"])
        # E[1/p] = 1/3 * 2 + 2/3 * 1/2 for p = (1/2, 2)
        ck.equal("pfunction.statistic", rep["statistic"], "1")
        ck.true("pfunction.round_trip_exact", rep["round_trip_exact"])

    def _check_sequential(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "sequential", res, rep["anytime"]["valid"])
        ck.true("sequential.anytime_valid", rep["anytime"]["valid"])
        # X = 1/2 or 3/2 with equal mass: E[X] = 1, and with c = 1 the
        # sandwich is P(X >= 1) = 1/2, E[X AND 1] = 3/4, E[X] = 1
        ck.equal("sequential.markov_equality", rep["markov_equality"], ["1", "1"])
        ck.equal("sequential.mrmw_sandwich", rep["mrmw_sandwich"],
                 ["1/2", "3/4", "1"])

    def _check_ville(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "ville", res, rep["verdict"] == "PASS")
        ck.equal("ville.verdict", rep["verdict"], "PASS")
        ck.true("ville.invalid_process_flagged", rep["invalid_process_flagged"])
        written = (self.ctx.tmp / "results" / "ville.json").read_text()
        ck.equal("ville.out_report", written, res.stdout)

    # -- the known faults -----------------------------------------------------

    def _check_config(self, name, res, ck):
        ck.equal(f"{name}.exit_code", res.rc, 2)
        ck(f"{name}.stderr_json", res.stderr, _one_json_error,
           lambda s: "Traceback\n" + s)

    def _check_config_invalid_json(self, res, ck):
        self._check_config("config-invalid-json", res, ck)

    def _check_config_json_list(self, res, ck):
        self._check_config("config-json-list", res, ck)

    def _check_distortion_n2(self, res, ck):
        rep = _report(res)
        _exit_matches(ck, "distortion-n2", res, rep["mc_within_3se"])
        ck.equal("distortion-n2.expected", rep["expected_distortion"], "9/5")
