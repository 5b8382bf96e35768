"""gauss-design: the unit-shift Gaussian pair at a small and a large size.

The O(n^2) paths of ``design`` and ``core`` do nearly all the work here.
Every check compares with values computed apart from the program: cell
centres from ``statistics.NormalDist``, the closed forms of the continuous
problem, and properties the optimal designs must have.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from statistics import NormalDist

import posthoc.design as design

from ops import Op

SIZES = {"small": 401, "large": 1201}
NP_ALPHA = Fraction(1, 20)
REPORT_ALPHAS = (0.01, 0.025, 0.05, 0.1)
GAMMAS = {"power2": 2, "power_half": Fraction(1, 2)}
NORMAL = NormalDist()


class GaussianReference:
    """The discretised pair and the continuous closed forms, computed with
    the standard library only."""

    def __init__(self, n_cells, clip=8.0):
        self.n = n_cells
        centers = [min(max(NORMAL.inv_cdf((i + 0.5) / n_cells), -clip), clip)
                   for i in range(n_cells)]
        lr = [math.exp(x - 0.5) for x in centers]
        total = sum(lr)
        self.q = [v / total for v in lr]
        # Q-mass of the most extreme cell: how far any tail probability of
        # the discretised pair may sit from its continuous value
        self.cell_bound = max(self.q)

    def report_closed_forms(self, alpha):
        z = NORMAL.inv_cdf(1 - alpha)
        return {
            "classical_power": 1 - NORMAL.cdf(z - 1),
            "posthoc_power": 1 - NORMAL.cdf(math.log(1 / alpha) - 0.5),
        }

    def check_report(self, ck, prefix, rep, alpha):
        closed = self.report_closed_forms(alpha)
        tol = self.cell_bound
        ck.equal(f"{prefix}.posthoc_threshold", rep["posthoc_threshold"],
                 1 / alpha)
        ck.equal(f"{prefix}.classical_size", rep["classical_size"],
                 math.floor(alpha * self.n) / self.n)
        ck.near(f"{prefix}.classical_power", rep["classical_power"],
                closed["classical_power"], tol)
        ck.near(f"{prefix}.posthoc_power", rep["posthoc_power"],
                closed["posthoc_power"], tol)
        # P-tail beyond the reported critical likelihood ratio e^(x - 1/2);
        # the plant lowers the critical value, which raises that tail
        ck(f"{prefix}.classical_critical", rep["classical_critical"],
           lambda c: abs(1 - NORMAL.cdf(math.log(c) + 0.5) - alpha) <= tol,
           lambda c: c / math.exp(4 * tol / NORMAL.pdf(NORMAL.inv_cdf(1 - alpha))))


def _max_rel_err(got, want):
    return max(abs(float(g) - w) / w for g, w in zip(got, want))


def _bump_first(values):
    """The plant of the list checks: the first value off by 1e-6."""
    return [values[0] * (1 + 1e-6)] + list(values[1:])


class GaussDesign:
    name = "gauss-design"
    min_passes = 1
    reference = "python"
    cli_argv = ["optimal"]

    def __init__(self, ctx):
        rng = random.Random(ctx.seed)
        self.alpha = rng.choice(REPORT_ALPHAS)
        self.ref = {size: GaussianReference(n) for size, n in SIZES.items()}
        self.order = {size: rng.sample(range(n), n) for size, n in SIZES.items()}
        self.pairs = {}

    def ops(self, round_index):
        for size in SIZES:
            yield from self._size_ops(size)

    def _size_ops(self, size):
        n, ref = SIZES[size], self.ref[size]
        labels = {"size": size}
        p_mass = Fraction(1, n)

        def make_pair():
            self.pairs[size] = design.gaussian_shift_pair(n)
            return self.pairs[size]

        def check_pair(pair, ck):
            ck.true(f"{size}.pair.p_equiprobable",
                    all(p == p_mass for p in pair.P.probs))
            ck(f"{size}.pair.q_mass", list(pair.Q.probs),
               lambda q: _max_rel_err(q, ref.q) <= 1e-12, _bump_first)

        yield Op(f"{size}.gaussian_shift_pair", make_pair, check_pair, labels)

        yield Op(f"{size}.gaussian_log_optimal_report",
                 lambda: design.gaussian_log_optimal_report(self.alpha,
                                                            n_cells=n),
                 lambda rep, ck: ref.check_report(ck, f"{size}.report", rep,
                                                  self.alpha),
                 labels)

        def check_log_optimal(p_star, ck):
            want = [float(p_mass) / q for q in ref.q]
            ck(f"{size}.log_optimal.ratio",
               [p_star[x] for x in range(n)],
               lambda got: _max_rel_err(got, want) <= 1e-9, _bump_first)

        yield Op(f"{size}.log_optimal",
                 lambda: design.log_optimal(self.pairs[size]),
                 check_log_optimal, labels)

        yield Op(f"{size}.double_posthoc_check",
                 lambda: design.double_posthoc_check(self.pairs[size]),
                 lambda ok, ck: ck.true(f"{size}.double_posthoc", ok), labels)

        for tag, gamma in GAMMAS.items():
            yield Op(f"{size}.utility_optimal.{tag}",
                     lambda gamma=gamma: design.utility_optimal(
                         self.pairs[size], design.UtilitySpec.power(gamma)),
                     lambda res, ck, tag=tag, gamma=gamma: self._check_utility(
                         ck, f"{size}.utility_optimal.{tag}", res[0], gamma,
                         ref, p_mass),
                     labels)

        def check_np(p_star, ck):
            recip_mean = sum(
                p_mass / p_star[x] for x in range(n)
                if not math.isinf(p_star[x]))
            ck.equal(f"{size}.np_optimal.recip_mean", recip_mean, 1)
            # the Q/P ratio grows with the cell index, so the best region
            # with P-mass at most alpha* is the top floor(alpha* n) cells
            top = int(NP_ALPHA * n)
            want = frozenset(range(n - top, n))
            ck(f"{size}.np_optimal.region",
               frozenset(x for x in range(n) if p_star[x] <= NP_ALPHA),
               lambda region: region == want,
               lambda region: frozenset(x - 1 for x in region))

        yield Op(f"{size}.np_optimal",
                 lambda: design.np_optimal(self.pairs[size], NP_ALPHA),
                 check_np, labels)

        order = self.order[size]

        def lookups():
            q = self.pairs[size].Q
            return [q.prob(x) for x in order]

        yield Op(f"{size}.prob_lookups", lookups,
                 lambda got, ck: ck(f"{size}.prob_lookups", got,
                                    lambda v: _max_rel_err(
                                        v, [ref.q[x] for x in order]) <= 1e-12,
                                    _bump_first),
                 labels)

    @staticmethod
    def _check_utility(ck, prefix, e_star, gamma, ref, p_mass):
        n = ref.n
        mean = sum(float(p_mass) * float(e_star[x]) for x in range(n))
        ck.near(f"{prefix}.mean", mean, 1.0, 1e-9)
        # first-order condition: U'(e*) = e*^-gamma is proportional to
        # f_P/f_Q, so e* (f_P/f_Q)^(1/gamma) is the same on every cell
        scaled = [float(e_star[x]) * (float(p_mass) / ref.q[x]) ** (1 / float(gamma))
                  for x in range(n)]
        ck(f"{prefix}.first_order", scaled,
           lambda v: (max(v) - min(v)) / min(v) <= 1e-9, _bump_first)

    @staticmethod
    def check_cli(ck, report):
        gauss = report["gaussian"]
        GaussianReference(2001).check_report(ck, "cli.optimal.gaussian", gauss,
                                             gauss["alpha"])
