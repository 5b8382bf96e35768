"""Configuration-driven experiment runner.

Every subcommand reproduces a worked example or runs one of the library's
engines on named fixtures, emitting a JSON report (and optional CSV tables)
that is byte-identical for identical (config, seed).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import __version__

# Each runner imports the library modules it uses, and a usage error loads
# none but _numbers, whose seed check the options share with the library.
# Every run also loads distortion and _philox: the envelope's fixture_hash
# builds the --fixture law and the --strategy pieces, whatever it runs.

SCHEMA_VERSION = 1
DEFAULT_SEED = 2026


def _distortion(name):
    """The zero-argument builder ``name`` of posthoc.distortion, looked up
    when called: naming a fixture or a strategy loads no library module."""
    def build():
        from . import distortion

        return getattr(distortion, name)()
    return build


P_LAWS = {
    "uniform": _distortion("uniform_p_law"),
    "valid_hacking": _distortion("valid_hacking_law"),
}
STRATEGIES = {
    "decreasing_alpha": _distortion("decreasing_alpha_strategy"),
    "conservative": _distortion("conservative_strategy"),
}


class CliError(Exception):
    pass


def _fmt(x, backend):
    """A number as report and table cells show it: exact as given, or as a
    float under ``--backend float`` (bools stay bools)."""
    from ._numbers import fmt_number

    if backend == "float" and not isinstance(x, bool):
        x = float(x)
    return fmt_number(x)


def _fixture_hash(law, strategy) -> str:
    """Content hash of what a run computes on: the serialized p-value law,
    the strategy's pieces and the package version.  Its SHA-256 is the
    interpreter's built-in one (``_sha2`` from 3.12, ``_sha256`` before),
    as ``random`` takes its sha512, so no run loads OpenSSL through
    ``hashlib``, which is the fallback for a build without either."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    from ._numbers import fmt_number

    blob = json.dumps({
        "law": law.to_dict(),
        "strategy": [[fmt_number(x) for x in piece] for piece in strategy.pieces],
        "version": __version__,
    }, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


def _table(header, rows) -> str:
    """CSV text: the header, then the rows, each a sequence or a dict keyed
    by the header."""
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([r[k] for k in header] if isinstance(r, dict) else r for r in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand implementations (each returns report dict + named CSV tables)


def run_distortion(opts):
    from .distortion import distortion_report, monte_carlo_distortion

    law = P_LAWS[opts["fixture"]]()
    strat = STRATEGIES[opts["strategy"]]()
    rep = distortion_report(law, strat)
    fmt = partial(_fmt, backend=opts["backend"])
    est, se = monte_carlo_distortion(law, strat, opts["n"], opts["seed"])
    within = abs(est - float(rep.expected_distortion)) <= 3 * se
    report = {
        "fixture": opts["fixture"],
        "strategy": opts["strategy"],
        "per_level": rep.to_rows(fmt),
        "expected_distortion": fmt(rep.expected_distortion),
        "max_distortion": fmt(rep.max_distortion),
        "mc_estimate": est,
        "mc_se": se,
        "mc_within_3se": within,
        "ok": within,
    }
    return report, {"distortion": _table(["level", "mass", "size", "distortion"],
                                         rep.to_rows(fmt))}


def run_optimal(opts):
    from ._numbers import frac
    from .core import Hypothesis, check_posthoc_validity
    from .design import (
        UtilitySpec,
        bernoulli_pair,
        double_posthoc_check,
        gaussian_log_optimal_report,
        log_optimal,
        np_optimal,
        utility_optimal,
    )

    gauss = gaussian_log_optimal_report(alpha=0.05)
    pair = bernoulli_pair()
    p_star = log_optimal(pair)
    # the log-optimal p-value exhausts its post-hoc budget: E_P[1/p*] = 1
    recip_mean = check_posthoc_validity(p_star, Hypothesis.simple(pair.P)).statistic
    e_star, lam = utility_optimal(pair, UtilitySpec.power(2))
    double = double_posthoc_check(pair)
    np_half = np_optimal(pair, frac(1, 2))
    report = {
        "gaussian": gauss,
        "bernoulli_log_optimal": {
            str(x): _fmt(p_star[x], opts["backend"]) for x in p_star.outcomes
        },
        "bernoulli_log_optimal_recip_mean": _fmt(recip_mean, opts["backend"]),
        "bernoulli_double_posthoc": double,
        "bernoulli_power2_lambda": lam,
        "np_half": {
            str(x): _fmt(np_half[x], opts["backend"]) for x in pair.P.outcomes
        },
        "ok": recip_mean == 1,
    }
    return report, {"optimal": _table(["quantity", "value"], gauss.items())}


def run_merge(opts):
    from ._numbers import frac
    from .core import EvidenceVariable, Hypothesis, check_posthoc_validity, dual
    from .design import bernoulli_pair, log_optimal
    from .merging import merge_harmonic, merge_product_independent
    from .pfunctions import PCurve, PFunction, product_merge_failure_witness

    pair = bernoulli_pair()
    e = dual(log_optimal(pair))
    merged, space = merge_product_independent([(e, pair.P), (e, pair.P)])
    hyp = Hypothesis.simple(space)
    prod_valid = check_posthoc_validity(merged, hyp)
    p1 = EvidenceVariable({0: frac(1, 2), 1: 2}, "p")
    p2 = EvidenceVariable({0: 2, 1: frac(2, 3)}, "p")
    harm = merge_harmonic([p1, p2], [frac(1, 2), frac(1, 2)])
    witness = product_merge_failure_witness(
        PFunction({"x": PCurve.power(1, 1)}))
    report = {
        "product_independent_valid": bool(prod_valid),
        "product_statistic": _fmt(prod_valid.statistic, opts["backend"]),
        "harmonic_merge": {
            str(x): _fmt(harm[x], opts["backend"]) for x in harm.outcomes},
        "uniform_product_failure_witness_n": witness,
        "ok": bool(prod_valid),
    }
    return report, {}


def run_pfunction(opts):
    from ._numbers import frac
    from .core import DiscreteSpace, EvidenceVariable, Hypothesis
    from .pfunctions import (
        check_pfunction_posthoc,
        pfunction_of,
        test_function_of,
        uniform_randomize,
    )

    p = EvidenceVariable({0: frac(1, 2), 1: 2}, "p")
    pf = uniform_randomize(p)
    # masses chosen so E[1/p] = 1 exactly: the boundary post-hoc p-value
    space_hyp = Hypothesis.simple(
        DiscreteSpace((0, 1), (frac(1, 3), frac(2, 3))))
    rep = check_pfunction_posthoc(pf, space_hyp)
    rt = pfunction_of(test_function_of(pf))
    round_trip_ok = all(
        pf[x].value(u) == rt[x].value(u)
        for x in pf.outcomes for u in pf[x].breakpoints()
    )
    report = {
        "statistic": _fmt(rep.statistic, opts["backend"]),
        "valid": rep.valid,
        "round_trip_exact": round_trip_ok,
        "ok": rep.valid,
    }
    return report, {"pfunction": _table(["outcome", "u", "p"], pf.to_rows())}


def run_sequential(opts):
    from ._numbers import frac
    from .core import DiscreteSpace, E_SCALE, EvidenceVariable, Hypothesis
    from .sequential import (
        StoppingRule,
        anytime_validity_check,
        markov_equality_check,
        martingale_fixture,
        mrmw_sandwich,
    )

    space = DiscreteSpace(("a", "b"), (frac(1, 2), frac(1, 2)))
    hyp = Hypothesis.simple(space)
    X = EvidenceVariable({"a": frac(1, 2), "b": frac(3, 2)}, E_SCALE)
    lhs, rhs = markov_equality_check(X, hyp)
    a, b, r = mrmw_sandwich(X, 1, hyp)
    rules = [StoppingRule.fixed_time(0), StoppingRule.hitting_time(2.0)]
    anytime = anytime_validity_check(
        martingale_fixture(), rules, opts["n"], opts["seed"])
    report = {
        "markov_equality": [_fmt(lhs, opts["backend"]),
                            _fmt(rhs, opts["backend"])],
        "mrmw_sandwich": [_fmt(a, opts["backend"]),
                          _fmt(b, opts["backend"]),
                          _fmt(r, opts["backend"])],
        "anytime": anytime,
        "ok": anytime["valid"],
    }
    return report, {}


def run_ville(opts):
    from .sequential import (
        StoppingRule,
        anytime_validity_check,
        invalid_eprocess_fixture,
        martingale_fixture,
        supermartingale_fixture,
        ville_equality_check,
    )

    rule = StoppingRule.hitting_time(2.0)
    mart = ville_equality_check(
        martingale_fixture(), rule, opts["n"], opts["seed"])
    superm = ville_equality_check(
        supermartingale_fixture(), StoppingRule.fixed_time(0),
        opts["n"], opts["seed"])
    invalid = anytime_validity_check(
        invalid_eprocess_fixture(), [StoppingRule.fixed_time(50)],
        opts["n"], opts["seed"])
    rows = [mart.to_dict(), superm.to_dict()]
    passed = mart.valid and superm.valid and not invalid["valid"]
    report = {
        "martingale": rows[0],
        "supermartingale": rows[1],
        "invalid_process": invalid,
        "invalid_process_flagged": not invalid["valid"],
        "verdict": "PASS" if passed else "FAIL",
        "ok": passed,
    }
    return report, {"ville": _table(list(rows[0]), rows)}


def reproduce_examples(opts=None):
    """Golden-number table for every worked example; raises on mismatch."""
    from fractions import Fraction
    from statistics import NormalDist

    from ._numbers import fmt_number, frac
    from .calibration import minimal_h_counterexample
    from .core import check_classical_validity
    from .design import (
        bernoulli_pair,
        double_posthoc_check,
        gaussian_log_optimal_report,
        log_optimal,
    )
    from .distortion import (
        conditional_size,
        conservative_strategy,
        decreasing_alpha_strategy,
        expected_size_distortion,
        fragility_strategy,
        max_size_distortion,
        uniform_p_law,
        valid_hacking_law,
    )

    opts = opts or {"backend": "exact"}
    rows, failures = [], []

    def check(example, got, want, tol=None):  # the float backend: 1e-10
        if tol is None and opts["backend"] == "float":
            tol = 1e-10
        ok = got == want if tol is None else abs(float(got) - float(want)) <= tol
        rows.append({"example": example, "got": _fmt(got, opts["backend"]),
                     "want": _fmt(want, opts["backend"]), "ok": ok})
        if not ok:
            failures.append(example)

    law = uniform_p_law()
    dec, cons = decreasing_alpha_strategy(), conservative_strategy()
    check("decreasing_alpha/cond@.01",
          conditional_size(law, dec, frac(1, 100)), 1)
    check("decreasing_alpha/cond@.05",
          conditional_size(law, dec, frac(5, 100)), frac(4, 99))
    check("decreasing_alpha/expected",
          expected_size_distortion(law, dec), frac(9, 5))
    check("decreasing_alpha/max", max_size_distortion(law, dec), 100)
    check("conservative/expected",
          expected_size_distortion(law, cons), frac(1, 2))
    check("conservative/max", max_size_distortion(law, cons), 50)
    hack = valid_hacking_law()
    check("valid_hacking/expected",
          expected_size_distortion(hack, dec), frac(9, 10))
    check("valid_hacking/max", max_size_distortion(hack, dec), 100)
    check("valid_hacking/classical_sup",
          check_classical_validity(hack).statistic, frac(1, 2))
    for c in (frac(1, 100), frac(2, 100), frac(3, 100),
              frac(4, 100), frac(49, 1000)):
        strat = fragility_strategy(c)
        check(f"fragility/expected@{fmt_number(c)}",
              expected_size_distortion(law, strat),
              1 + (frac(5, 100) - c) / frac(5, 100))
        check(f"fragility/max@{fmt_number(c)}",
              max_size_distortion(law, strat), 1 / c)
    cx = minimal_h_counterexample(Fraction(1, 2), Fraction(1, 4))
    check("minimal_h/rho", cx.rho_h, 1)
    check("minimal_h/classical_sup", cx.classical_sup, 4)
    pair = bernoulli_pair()
    p_star = log_optimal(pair)
    check("bernoulli/log_optimal@1", p_star[1], frac(2, 3))
    check("bernoulli/log_optimal@0", p_star[0], 2)
    check("bernoulli/double_posthoc", double_posthoc_check(pair), True)
    gauss = gaussian_log_optimal_report(alpha=0.05)
    check("gaussian/posthoc_threshold", gauss["posthoc_threshold"], 20.0)
    # the classical size floor(.05 n)/n is within a cell of .05, which moves
    # the critical value by under 1e-3; the post-hoc test has no such size
    normal = NormalDist()
    check("gaussian/classical_critical", gauss["classical_critical"],
          math.exp(normal.inv_cdf(0.95) - 0.5), tol=1e-3)
    check("gaussian/posthoc_power", gauss["posthoc_power"],
          1 - normal.cdf(math.log(20) - 0.5), tol=1e-12)
    report = {"rows": rows, "failures": failures, "ok": not failures}
    return report, {"examples": _table(["example", "got", "want", "ok"], rows)}


RUNNERS = {
    "distortion": run_distortion,
    "optimal": run_optimal,
    "merge": run_merge,
    "pfunction": run_pfunction,
    "sequential": run_sequential,
    "examples": reproduce_examples,
    "ville": run_ville,
}


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown subcommand or
    flag, a value of the wrong type) raise ``CliError``, as every other
    usage error does, instead of printing the usage text and exiting."""

    def error(self, message):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posthoc",
        description="post-hoc hypothesis testing experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        # --backend and --format are checked with the config's values, by
        # _resolve_options
        p.add_argument("--backend", default=None)
        p.add_argument("--format", default=None)
        p.add_argument("--fixture", default=None)
        p.add_argument("--strategy", default=None)
    return parser


def _resolve_options(args) -> dict:
    config = {}
    if args.config is not None:
        if not args.config.exists():
            raise CliError(f"config file not found: {args.config}")
        try:
            config = json.loads(args.config.read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise CliError(f"config {args.config} must be a JSON object, "
                           f"got {type(config).__name__}")
    opts = {
        "seed": DEFAULT_SEED,
        "n": 10_000,
        "backend": "exact",
        "format": "json",
        "fixture": "uniform",
        "strategy": "decreasing_alpha",
        "out": None,
    }
    unknown = sorted(k for k in config if k not in opts)
    if unknown:
        raise CliError(f"unknown config keys {unknown}; choose from {list(opts)}")
    opts.update(config)
    for key in ("seed", "n", "backend", "format", "fixture", "strategy", "out"):
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val  # flags win over config
    for key in ("seed", "n"):
        if not isinstance(opts[key], int) or isinstance(opts[key], bool):
            raise CliError(f"{key} must be an integer, got {opts[key]!r}")
    from ._numbers import check_seed

    try:
        check_seed(opts["seed"])  # the library's seed check: here the range
    except ValueError:
        raise CliError(f"seed must lie in [0, 2**128), got {opts['seed']}") from None
    if opts["n"] < 1:
        raise CliError("n must be at least 1")
    for key, allowed in (("backend", ("exact", "float")),
                         ("format", ("csv", "json")),
                         ("fixture", sorted(P_LAWS)),
                         ("strategy", sorted(STRATEGIES))):
        if not isinstance(opts[key], str) or opts[key] not in allowed:
            raise CliError(f"unknown {key} {opts[key]!r}; "
                           f"choose from {list(allowed)}")
    if opts["out"] is not None and not isinstance(opts["out"], (str, Path)):
        raise CliError(f"out must be a path, got {opts['out']!r}")
    return opts


def _emit(command, opts, report, tables) -> int:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": opts["seed"],
        "backend": opts["backend"],
        "fixture_hash": _fixture_hash(P_LAWS[opts["fixture"]](),
                                      STRATEGIES[opts["strategy"]]()),
        "report": report,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True, default=str) + "\n"
    out = opts.get("out")
    if out is not None:
        out = Path(out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{command}.json").write_text(text)
            for name, content in tables.items():
                (out / f"{name}.csv").write_text(content)
        except OSError as exc:
            raise CliError(f"cannot write to out directory {out}: {exc}") from None
    if opts["format"] == "csv" and tables:
        for content in tables.values():
            sys.stdout.write(content)
    else:
        sys.stdout.write(text)
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        opts = _resolve_options(args)
        report, tables = RUNNERS[args.command](opts)
        return _emit(args.command, opts, report, tables)
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
