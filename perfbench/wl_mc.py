"""mc-paths: the numpy-vectorised Monte Carlo paths of ``sequential`` and
``distortion``; the only workload whose peak memory is program data.

The Monte Carlo keys given to the program are fixed.  Each check below is a
3-standard-error test, which a correct program fails for 0.27% of keys; with
keys drawn from the benchmark seed, some seeds would fail by chance alone.
"""
from __future__ import annotations

import math

import posthoc.distortion as distortion
import posthoc.sequential as sequential

from ops import Op

N_PATHS = 400_000        # horizon 50: one path array is 163 MB
N_DRAWS = 5_000_000      # per law; 10^7 draws in all
KEYS = {"ville": 2026, "anytime": 2027, "invalid": 2028,
        "mc.uniform": 2029, "mc.valid_hacking": 2030}


def _away(mean, se, centre):
    """The mean moved 4 standard errors further from ``centre``."""
    return mean + math.copysign(4 * se, mean - centre)


def check_within_3se(ck, name, mean, se, centre):
    ck(name, mean, lambda m: abs(m - centre) <= 3 * se,
       lambda m: _away(m, se, centre))


class McPaths:
    name = "mc-paths"
    min_passes = 1
    reference = "numpy"     # its passes are memory-bound numpy work
    cli_argv = ["ville"]

    def __init__(self, ctx):
        pass

    def ops(self, round_index):
        martingale = sequential.martingale_fixture()
        hit = sequential.StoppingRule.hitting_time(2.0)
        fixed = sequential.StoppingRule.fixed_time
        yield Op("ville_equality_check",
                 lambda: sequential.ville_equality_check(
                     martingale, hit, N_PATHS, KEYS["ville"]),
                 self._check_ville)
        yield Op("anytime_validity_check",
                 lambda: sequential.anytime_validity_check(
                     martingale, [fixed(0), hit, fixed(50)], N_PATHS,
                     KEYS["anytime"]),
                 self._check_anytime)
        yield Op("anytime_invalid_eprocess",
                 lambda: sequential.anytime_validity_check(
                     sequential.invalid_eprocess_fixture(), [fixed(50)],
                     N_PATHS, KEYS["invalid"]),
                 self._check_invalid)
        laws = {"uniform": (distortion.uniform_p_law, 1.8),
                "valid_hacking": (distortion.valid_hacking_law, 0.9)}
        for law, (make_law, exact) in laws.items():
            yield Op(f"monte_carlo_distortion.{law}",
                     lambda law=law, make_law=make_law:
                     distortion.monte_carlo_distortion(
                         make_law(),
                         distortion.decreasing_alpha_strategy(), N_DRAWS,
                         KEYS[f"mc.{law}"]),
                     lambda res, ck, law=law, exact=exact: check_within_3se(
                         ck, f"mc_distortion.{law}", res[0], res[1], exact))

    @staticmethod
    def _check_ville(rep, ck):
        ck.true("ville.valid", rep.valid)
        check_within_3se(ck, "ville.mean", rep.mean, rep.se, 1.0)

    @staticmethod
    def _check_anytime(res, ck):
        ck.true("anytime.valid", res["valid"])
        tau0, *others = res["rows"]
        ck.equal("anytime.tau0", (tau0["mean"], tau0["se"]), (1.0, 0.0))
        for row in others:
            check_within_3se(ck, f"anytime.{row['rule']}", row["mean"],
                             row["se"], 1.0)

    @staticmethod
    def _check_invalid(res, ck):
        ck.equal("invalid_eprocess.flagged", res["valid"], False)
        row = res["rows"][0]
        ck(f"invalid_eprocess.mean_above", row["mean"],
           lambda m: m > 1 + 3 * row["se"], lambda m: 1.0)

    @staticmethod
    def check_cli(ck, report):
        ck.equal("cli.ville.verdict", report["verdict"], "PASS")
