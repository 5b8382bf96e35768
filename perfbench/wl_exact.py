"""exact-algebra: many small exact-rational objects, no numpy, no large space.

Cost here is per-object ``Fraction`` arithmetic and validation.  Inputs are
drawn from the seed; every check compares with a value worked out here by
hand or with a property the method must have.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction as F

import posthoc.calibration as calibration
import posthoc.core as core
import posthoc.distortion as distortion
import posthoc.merging as merging
import posthoc.pfunctions as pfunctions

from ops import Op

N_STEP_FUNCTIONS = 10_000
N_LAWS = 10_000
N_MEAN_DRAWS = 1_000
N_MERGES = 500
N_COPIES = 11            # product of 11 two-term curves: 2^11 terms today
HS = (-math.inf, -2, -1, 0, F(1, 2), 1, 2, math.inf)
FIVE = F(5, 100)


def _step_value(steps, u):
    """p(u) of a step p-function given as increasing (u_hi, level) pairs."""
    for u_hi, level in steps:
        if u <= u_hi:
            return level
    raise ValueError(u)


def _step_test(steps, alpha):
    """tf(alpha) = sup{u : p(u) <= alpha} of the same step function."""
    return max((u_hi for u_hi, level in steps if level <= alpha), default=0)


def _recip_mean(atoms, pieces):
    """E[1/p] of atoms (loc, mass) plus uniform pieces (a, b, mass]."""
    total = sum(m / loc for loc, m in atoms)
    for a, b, m in pieces:
        if m == 0:
            continue
        if a == 0:
            return math.inf
        total += float(m) * (math.log(b) - math.log(a)) / float(b - a)
    return total


def _power_mean(values, weights, h):
    if h == 1:
        return sum(w * v for v, w in zip(values, weights))
    if h == -1:
        return 1 / sum(w / v for v, w in zip(values, weights))
    return sum(float(w) * float(v) ** h for v, w in zip(values, weights)) ** (1 / h)


# hand-worked distortion tables: (law, strategy) -> expected, max, rows of
# (level, P(level), P(reject | level), distortion)
HAND_TABLES = {
    ("uniform", "decreasing_alpha"): (F(9, 5), 100, [
        (F(1, 100), F(1, 100), 1, 100),
        (FIVE, F(99, 100), F(4, 99), F(80, 99))]),
    ("valid_hacking", "decreasing_alpha"): (F(9, 10), 100, [
        (F(1, 100), F(1, 200), 1, 100),
        (FIVE, F(199, 200), F(4, 199), F(80, 199))]),
    ("uniform", "conservative"): (F(1, 2), 50, [
        (F(2, 100), F(1, 100), 1, 50),
        (F(1, 100), F(99, 100), 0, 0)]),
}
LAWS = {"uniform": distortion.uniform_p_law,
        "valid_hacking": distortion.valid_hacking_law}
STRATEGIES = {"decreasing_alpha": distortion.decreasing_alpha_strategy,
              "conservative": distortion.conservative_strategy}


class ExactAlgebra:
    name = "exact-algebra"
    min_passes = 1
    reference = "python"
    cli_argv = ["merge"]

    def __init__(self, ctx):
        rng = random.Random(ctx.seed)
        self.steps = [self._random_steps(rng) for _ in range(N_STEP_FUNCTIONS)]
        self.step_pfs = [pfunctions.PFunction({0: pfunctions.PCurve.steps(s)})
                         for s in self.steps]
        self.laws = [self._random_law(rng, force_valid=i % 2 == 0)
                     for i in range(N_LAWS)]
        self.mean_draws = []
        for _ in range(N_MEAN_DRAWS):
            k = rng.randrange(2, 5)
            self.mean_draws.append([F(rng.randrange(0, 40), 8) for _ in range(k)])
        self.merge_draws = []
        for _ in range(N_MERGES):
            es = []
            for _ in range(2):
                vals = [F(rng.randrange(1, 40), 8) for _ in range(3)]
                mean = sum(vals) / 3
                es.append([v / mean for v in vals])
            self.merge_draws.append((es, F(rng.randrange(1, 8), 8)))
        self.curve_terms = (F(rng.randrange(1, 9), 4), F(rng.randrange(1, 9), 4),
                            F(rng.randrange(1, 16), 16 * N_COPIES))
        self.pf_inputs = [
            [(F(rng.randrange(1, 9), 4), g) for _ in range(3)]
            for g in (F(1, 4), F(1, 2))]
        self.witness_powers = [F(rng.randrange(1, 25), 24) for _ in range(6)]
        self.fragility = sorted({F(rng.randrange(1, 100), 2000) for _ in range(8)})

    @staticmethod
    def _random_steps(rng):
        k = rng.randrange(1, 4)
        cuts = sorted(rng.sample(range(1, 16), k - 1)) + [16]
        level, steps = F(0), []
        for c in cuts:
            level += F(rng.randrange(1, 9), 16)
            steps.append((F(c, 16), level))
        return steps

    @staticmethod
    def _random_law(rng, force_valid):
        atoms = {}
        for _ in range(rng.randrange(1, 5)):
            loc = F(rng.randrange(1, 64), 16)
            atoms[loc] = atoms.get(loc, 0) + F(rng.randrange(1, 10))
        pieces = []
        if rng.random() < 0.4:
            a = F(rng.randrange(0, 8), 16)
            pieces.append((a, a + F(rng.randrange(1, 8), 16),
                           F(rng.randrange(1, 10))))
        total = sum(atoms.values()) + sum(m for _, _, m in pieces)
        atoms = [(loc, m / total) for loc, m in atoms.items()]
        pieces = [(a, b, m / total) for a, b, m in pieces]
        s = _recip_mean(atoms, pieces)
        if force_valid and not math.isinf(s) and s > 1:
            atoms = [(loc * s, m) for loc, m in atoms]
            pieces = [(a * s, b * s, m) for a, b, m in pieces]
        return atoms, pieces

    # -- operations ---------------------------------------------------------

    def ops(self, round_index):
        yield Op("galois_round_trip", self._galois, self._check_galois)
        curve = pfunctions.PCurve(
            [(1, ((self.curve_terms[0], 0),
                  (self.curve_terms[1], self.curve_terms[2])))])
        copies = [curve] * N_COPIES
        self._product = None

        def product():
            self._product = pfunctions.product_combine(copies)
            return self._product

        yield Op("product_combine", product, self._check_product)
        yield Op("product_statistic", lambda: self._product.statistic(),
                 self._check_statistic)
        yield Op("product_shape_condition",
                 lambda: pfunctions.product_shape_condition(copies),
                 self._check_shape)
        yield Op("merge_pfunctions_product", self._merge_pfunctions,
                 self._check_merge_pfunctions)
        yield Op("product_merge_failure_witness", self._witnesses,
                 self._check_witnesses)
        yield Op("distortion_tables", self._tables, self._check_tables)
        yield Op("fragility_sweep", self._fragility, self._check_fragility)
        yield Op("pvalue_law_validity", self._validity, self._check_validity)
        yield Op("h_mean", self._h_means, self._check_h_means)
        yield Op("merges", self._merges, self._check_merges)

    def _galois(self):
        out = []
        for pf in self.step_pfs:
            rtf = pfunctions.test_function_of(pf)
            out.append((rtf, pfunctions.pfunction_of(rtf)))
        return out

    def _check_galois(self, results, ck):
        def flip(field):
            # give the function with the lowest top level the transform of
            # the one with the highest: they differ at u = 1
            def perturb(res):
                tops = [steps[-1][1] for steps in self.steps]
                i, j = tops.index(min(tops)), tops.index(max(tops))
                res = list(res)
                pair = list(res[i])
                pair[field] = res[j][field]
                res[i] = tuple(pair)
                return res
            return perturb

        def test_ok(res):
            return all(rtf[0].value(level) == _step_test(steps, level)
                       for steps, (rtf, _) in zip(self.steps, res)
                       for _, level in steps)

        def round_trip_ok(res):
            return all(back[0].value(u) == _step_value(steps, u)
                       for steps, (_, back) in zip(self.steps, res)
                       for u, _ in steps)

        def adjunction_ok(res):
            return all((rtf[0].value(level) >= u) == (back[0].value(u) <= level)
                       for steps, (rtf, back) in zip(self.steps, res)
                       for u, _ in steps for _, level in steps)

        ck("galois.test_function", results, test_ok, flip(0))
        ck("galois.round_trip", results, round_trip_ok, flip(1))
        ck("galois.adjunction", results, adjunction_ok, flip(0))

    def _own_p(self, u):
        a1, a2, g = self.curve_terms
        return 1 / (float(a1) + float(a2) * u ** -float(g))

    def _check_product(self, prod, ck):
        for u in (1, 0.5, 1 / 7):
            ck.rel(f"product_combine.value@{u:.3g}", float(prod.value(u)),
                   self._own_p(u) ** N_COPIES, 1e-9)

    def _check_statistic(self, stat, ck):
        # every exponent 1 - k g is positive, so sup_u u / p(u)^n is at u = 1
        ck.rel("product.statistic", float(stat),
               float(sum(self.curve_terms[:2])) ** N_COPIES, 1e-10)

    def _check_shape(self, res, ck):
        ok, witness, worst = res
        ck.true("shape_condition.ok", ok)
        ck.near("shape_condition.worst", float(worst), 1.0, 1e-12)

    def _merge_pfunctions(self):
        pfs = [pfunctions.PFunction({x: pfunctions.PCurve.power(c, g)
                                     for x, (c, g) in enumerate(inputs)})
               for inputs in self.pf_inputs]
        return merging.merge_pfunctions_product(pfs)

    def _check_merge_pfunctions(self, merged, ck):
        (first, second) = self.pf_inputs
        want = [(c1 * c2, g1 + g2) for (c1, g1), (c2, g2) in zip(first, second)]
        got = [[float(merged[x].value(u)) for u in (1, F(1, 2), F(1, 10))]
               for x in range(len(want))]
        expect = [[float(c) * float(u) ** float(g) for u in (1, F(1, 2), F(1, 10))]
                  for c, g in want]
        ck("merge_pfunctions_product.values", got,
           lambda v: all(math.isclose(a, b, rel_tol=1e-12)
                         for row, erow in zip(v, expect) for a, b in zip(row, erow)),
           lambda v: [[v[0][0] * 2] + v[0][1:]] + v[1:])

    def _witnesses(self):
        return [merging.product_merge_failure_witness(
            pfunctions.PFunction({0: pfunctions.PCurve.power(1, g)}))
            for g in self.witness_powers]

    def _check_witnesses(self, got, ck):
        ck.equal("failure_witness.n", got,
                 [math.floor(1 / g) + 1 for g in self.witness_powers])

    def _tables(self):
        return {key: distortion.distortion_report(LAWS[key[0]](),
                                                  STRATEGIES[key[1]]())
                for key in HAND_TABLES}

    def _check_tables(self, reports, ck):
        for key, (expected, maximum, rows) in HAND_TABLES.items():
            rep, name = reports[key], "distortion." + "/".join(key)
            ck.equal(f"{name}.expected", rep.expected_distortion, expected)
            ck.equal(f"{name}.max", rep.max_distortion, maximum)
            ck.equal(f"{name}.rows", [tuple(r) for r in rep.per_level], rows)

    def _fragility(self):
        law = distortion.uniform_p_law()
        out = []
        for c in self.fragility:
            s = distortion.fragility_strategy(c)
            out.append((distortion.expected_size_distortion(law, s),
                        distortion.max_size_distortion(law, s)))
        return out

    def _check_fragility(self, got, ck):
        ck.equal("fragility.table", got,
                 [(1 + (FIVE - c) / FIVE, 1 / c) for c in self.fragility])

    def _validity(self):
        out = []
        for atoms, pieces in self.laws:
            law = core.PValueLaw(atoms=atoms, pieces=pieces)
            out.append((core.check_posthoc_validity(law),
                        core.check_classical_validity(law)))
        return out

    def _check_validity(self, got, ck):
        def implication(res):
            return all(c.valid for p, c in res if p.valid)

        def recip_mean(res):
            for (atoms, pieces), (p, _) in zip(self.laws, res):
                want = _recip_mean(atoms, pieces)
                stat = p.statistic
                if isinstance(want, F) or math.isinf(want):
                    if stat != want:
                        return False
                elif not math.isclose(float(stat), want, rel_tol=1e-12):
                    return False
            return True

        def flip_first_valid(res):
            res = list(res)
            i = next(i for i, (p, _) in enumerate(res) if p.valid)
            p, c = res[i]
            res[i] = (p, core.ValidityReport(False, c.statistic))
            return res

        def move_first(res):
            res = list(res)
            i = next(i for i, (p, _) in enumerate(res)
                     if not math.isinf(p.statistic))
            p, c = res[i]
            res[i] = (core.ValidityReport(p.valid, p.statistic * 2), c)
            return res

        ck("pvalue_law.posthoc_implies_classical", got, implication,
           flip_first_valid)
        ck("pvalue_law.recip_mean", got, recip_mean, move_first)
        ck.true("pvalue_law.some_valid", sum(p.valid for p, _ in got) > N_LAWS // 4)

    def _h_means(self):
        out = []
        for values in self.mean_draws:
            k = len(values)
            ev = core.EvidenceVariable(dict(enumerate(values)), "e")
            hyp = core.Hypothesis.simple(
                core.DiscreteSpace(tuple(range(k)), (F(1, k),) * k))
            out.append([calibration.h_mean(ev, h, hyp) for h in HS])
        return out

    def _check_h_means(self, rows, ck):
        def monotone(res):
            return all(float(a) <= float(b) + 1e-9
                       for row in res for a, b in zip(row, row[1:]))

        def reverse_first(res):
            i = next(i for i, row in enumerate(res) if row[0] != row[-1])
            return [list(reversed(res[i]))] + res[1:]

        ck("h_mean.monotone_in_h", rows, monotone, reverse_first)
        ck.equal("h_mean.known_points",
                 [(row[0], row[HS.index(1)], row[-1]) for row in rows],
                 [(min(v), sum(v) / len(v), max(v)) for v in self.mean_draws])

    def _merges(self):
        out = []
        for (e1, e2), w in self.merge_draws:
            evs = [core.EvidenceVariable(dict(enumerate(e)), "e") for e in (e1, e2)]
            ps = [core.dual(ev) for ev in evs]
            out.append((merging.merge_harmonic(ps, [w, 1 - w]),
                        merging.merge_geometric(evs),
                        merging.merge_h_mean(evs, [w, 1 - w], -1),
                        merging.merge_h_mean(evs, [w, 1 - w], 2)))
        return out

    def _check_merges(self, got, ck):
        harm, geo, hm_neg, hm_two = [], [], [], []
        want_harm, want_geo, want_neg, want_two = [], [], [], []
        valid = []
        for ((e1, e2), w), (h, g, n1, n2) in zip(self.merge_draws, got):
            for x in range(3):
                weights = (w, 1 - w)
                harm.append(h[x])
                want_harm.append(1 / (w * e1[x] + (1 - w) * e2[x]))
                geo.append(g[x])
                want_geo.append(e1[x] * e2[x])
                hm_neg.append(n1[x])
                want_neg.append(_power_mean((e1[x], e2[x]), weights, -1))
                hm_two.append(float(n2[x]))
                want_two.append(_power_mean((e1[x], e2[x]), weights, 2))
            # post-hoc validity of the harmonic merge on the uniform space
            valid.append(sum(1 / h[x] for x in range(3)) / 3)
        ck.equal("merge.harmonic", harm, want_harm)
        ck("merge.harmonic_posthoc", valid, lambda v: max(v) <= 1,
           lambda v: [1 + F(1, 10**6)] + v[1:])
        ck.equal("merge.geometric", geo, want_geo)
        ck.equal("merge.h_mean_neg1", hm_neg, want_neg)
        ck("merge.h_mean_2", hm_two,
           lambda v: all(math.isclose(a, b, rel_tol=1e-12)
                         for a, b in zip(v, want_two)),
           lambda v: [v[0] * (1 + 1e-9)] + v[1:])

    @staticmethod
    def check_cli(ck, report):
        ck.equal("cli.merge.harmonic", report["harmonic_merge"],
                 {"0": "4/5", "1": "1"})
        ck.equal("cli.merge.failure_witness",
                 report["uniform_product_failure_witness_n"], 2)
