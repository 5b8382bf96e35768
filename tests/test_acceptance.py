"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
"""
import itertools
import math
import random
import time
from fractions import Fraction as F
from statistics import NormalDist

import pytest

from posthoc import (
    INF,
    DiscreteSpace,
    EvidenceVariable,
    Hypothesis,
    PCurve,
    PFunction,
    PValueLaw,
    TestFamilyCollection,
    TestFunction,
    StoppingRule,
    UtilitySpec,
    anytime_validity_check,
    bernoulli_pair,
    best_region_exhaustive,
    brute_force_optimal,
    check_classical_validity,
    check_h_validity,
    check_posthoc_validity,
    conditional_size,
    double_posthoc_check,
    dual,
    expected_size_distortion,
    expected_utility,
    fragility_strategy,
    fwer_merge,
    gaussian_log_optimal_report,
    h_mean,
    invalid_eprocess_fixture,
    log_optimal,
    markov_equality_check,
    martingale_fixture,
    max_size_distortion,
    merge_geometric,
    merge_harmonic,
    merge_product_independent,
    minimal_h_counterexample,
    mrmw_sandwich,
    np_optimal,
    np_rejection_region,
    pfunction_of,
    product_merge_failure_witness,
    soft_test_function,
    supermartingale_fixture,
    test_function_of,
    uniform_p_law,
    uniform_randomize,
    utility_optimal,
    valid_hacking_law,
    ville_equality_check,
    decreasing_alpha_strategy,
    conservative_strategy,
)
from posthoc.design import SimplePair


def verdict(number, ok, text):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_decreasing_alpha_example():
    start = time.monotonic()
    law, s = uniform_p_law(), decreasing_alpha_strategy()
    ok = (
        conditional_size(law, s, F(1, 100)) == 1
        and conditional_size(law, s, F(5, 100)) == F(4, 99)
        and expected_size_distortion(law, s) == F(9, 5)
        and max_size_distortion(law, s) == 100
    )
    elapsed = time.monotonic() - start
    verdict(1, ok and elapsed < 1.0,
            f"decreasing-alpha example exact in {elapsed:.3f}s")


def test_criterion_02_conservative_and_valid_hacking():
    start = time.monotonic()
    law, dec = uniform_p_law(), decreasing_alpha_strategy()
    cons = conservative_strategy()
    hack = valid_hacking_law()
    ok = (
        expected_size_distortion(law, cons) == F(1, 2)
        and max_size_distortion(law, cons) == 50
        and expected_size_distortion(hack, dec) == F(9, 10)
        and max_size_distortion(hack, dec) == 100
    )
    elapsed = time.monotonic() - start
    verdict(2, ok and elapsed < 1.0,
            f"conservative and valid-hacking examples exact in {elapsed:.3f}s")


def test_criterion_03_fragility_sweep():
    law = uniform_p_law()
    five = F(5, 100)
    ok = True
    for c in (F(1, 100), F(2, 100), F(3, 100), F(4, 100), F(49, 1000)):
        s = fragility_strategy(c)
        ok = ok and expected_size_distortion(law, s) == 1 + (five - c) / five
        ok = ok and max_size_distortion(law, s) == 1 / c
    c = F(4999, 100000)
    s = fragility_strategy(c)
    ok = ok and abs(float(expected_size_distortion(law, s))
                    - float(1 + (five - c) / five)) <= 1e-10
    ok = ok and abs(float(max_size_distortion(law, s)) - float(1 / c)) <= 1e-10
    ok = ok and abs(float(1 + (five - c) / five) - 1) < 3e-4
    ok = ok and abs(float(1 / c) - 20) < 5e-3
    verdict(3, ok, "fragility sweep matches 1+(.05-c)/.05 and 1/c, "
                   "limits 1 and 20 as c -> .05")


def _random_law(rng, force_valid=False):
    k = rng.randrange(1, 5)
    atoms = {}
    for _ in range(k):
        loc = F(rng.randrange(1, 64), 16)
        atoms[loc] = atoms.get(loc, 0) + F(rng.randrange(1, 10))
    pieces = []
    if rng.random() < 0.4:
        a = F(rng.randrange(0, 8), 16)
        b = a + F(rng.randrange(1, 8), 16)
        pieces.append([a, b, F(rng.randrange(1, 10))])
    total = sum(atoms.values()) + sum(m for _, _, m in pieces)
    atoms = {loc: m / total for loc, m in atoms.items()}
    pieces = [(a, b, m / total) for a, b, m in pieces]
    law = PValueLaw(atoms=list(atoms.items()), pieces=pieces)
    if force_valid:
        s = law.expect_recip()
        if not math.isinf(float(s)) and s > 1:
            law = PValueLaw(
                atoms=[(loc * s, m) for loc, m in law.atoms],
                pieces=[(a * s, b * s, m) for a, b, m in law.pieces])
    return law


def test_criterion_04_posthoc_implies_classical():
    rng = random.Random(41)
    checked = 0
    for i in range(10_000):
        law = _random_law(rng, force_valid=(i % 2 == 0))
        if check_posthoc_validity(law).valid:
            checked += 1
            if not check_classical_validity(law).valid:
                verdict(4, False, f"counterexample law {law.to_dict()}")
    verdict(4, checked > 2000,
            f"post-hoc implies classical on 10^4 random laws "
            f"({checked} post-hoc-valid cases, zero counterexamples)")


def test_criterion_05_posthoc_equals_mean_reciprocal_oracle():
    rng = random.Random(5)
    for _ in range(10_000):
        k = rng.randrange(1, 5)
        masses = [F(rng.randrange(1, 9)) for _ in range(k)]
        total = sum(masses)
        locs = []
        while len(set(locs)) != k:
            locs = [F(rng.randrange(1, 64), 16) for _ in range(k)]
        law = PValueLaw(atoms=[(l, m / total) for l, m in zip(locs, masses)])
        oracle = sum((m / total) * (F(1) / l) for l, m in zip(locs, masses))
        assert check_posthoc_validity(law).statistic == oracle
        assert check_posthoc_validity(law).valid == (oracle <= 1)
    verdict(5, True, "verdicts agree exactly with the direct-summation "
                     "oracle on 10^4 random discrete laws")


def test_criterion_06_gaussian_log_optimal():
    start = time.monotonic()
    rep = gaussian_log_optimal_report(alpha=0.05)
    elapsed = time.monotonic() - start
    anchor = math.exp(1.6448536269514722 - 0.5)  # exp(z_.95 - 1/2) = 3.1420
    # the post-hoc test rejects iff exp(x - 1/2) >= 20: power 1 - Phi(ln 20 - 1/2)
    posthoc_power = 1 - NormalDist().cdf(math.log(20) - 0.5)
    ok = (
        abs(rep["classical_critical"] - anchor) <= 0.01
        and rep["posthoc_threshold"] == 20.0
        and 0 < rep["posthoc_power"] < rep["classical_power"]
        and abs(rep["posthoc_power"] - posthoc_power) <= 1e-12
        and elapsed < 5.0
    )
    verdict(6, ok, f"classical critical {rep['classical_critical']:.4f} "
                   f"vs post-hoc threshold 20, post-hoc power "
                   f"{rep['posthoc_power']:.6f} in {elapsed:.2f}s")


def _small_pairs():
    yield bernoulli_pair()
    yield SimplePair(
        P=DiscreteSpace((0, 1, 2), (F(1, 4), F(1, 4), F(1, 2))),
        Q=DiscreteSpace((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4))))
    yield SimplePair(
        P=DiscreteSpace((0, 1, 2, 3), (F(1, 8), F(2, 8), F(2, 8), F(3, 8))),
        Q=DiscreteSpace((0, 1, 2, 3), (F(3, 8), F(2, 8), F(2, 8), F(1, 8))))


def test_criterion_07_utility_optimal_vs_oracle():
    utilities = [UtilitySpec.log(), UtilitySpec.power(2),
                 UtilitySpec.power(F(1, 2)),
                 UtilitySpec.neyman_pearson(F(1, 10)),
                 UtilitySpec.neyman_pearson(F(1, 2))]
    resolutions = {2: 60, 3: 42, 4: 24}
    ok = True
    for pair in _small_pairs():
        res = resolutions[len(pair.P.outcomes)]
        for U in utilities:
            e_star, _ = utility_optimal(pair, U)
            mean = pair.P.expectation(lambda x: e_star[x])
            ok = ok and abs(float(mean) - 1) <= 1e-10
            oracle = brute_force_optimal(pair, U, resolution=res)
            got = float(expected_utility(e_star, pair.Q, U))
            best = float(expected_utility(oracle, pair.Q, U))
            ok = ok and got >= best - 1e-9
    verdict(7, ok, "utility-optimal beats the oracle grid and is exactly "
                   "normalized for LOG/POWER/NP on all <=4-outcome fixtures")


def test_criterion_08_np_recovery():
    rng = random.Random(8)
    ok = True
    for n in (4, 6, 8, 10, 12):
        weights = rng.sample(range(1, 40), n)
        total = sum(weights)
        pair = SimplePair(
            P=DiscreteSpace(tuple(range(n)), (F(1, n),) * n),
            Q=DiscreteSpace(tuple(range(n)),
                            tuple(F(w, total) for w in weights)))
        for alpha in (F(1, 10), F(3, 10), F(1, 2)):
            region = np_rejection_region(pair, alpha)
            ok = ok and region == best_region_exhaustive(pair, alpha)
            p_star = np_optimal(pair, alpha)
            finite = [v for v in p_star.values.values() if not (
                isinstance(v, float) and math.isinf(v))]
            ok = ok and all(v >= alpha for v in finite)  # k >= alpha*
    verdict(8, ok, "np_optimal recovers the exhaustive-search best region "
                   "on <=12-outcome fixtures; boundary k >= alpha* always")


def test_criterion_09_h_mean_suite():
    rng = random.Random(9)
    hs = [-INF, -2, -1, 0, F(1, 2), 1, 2, INF]
    for _ in range(10_000):
        k = rng.randrange(2, 5)
        values = [F(rng.randrange(0, 40), 8) for _ in range(k)]
        ev = EvidenceVariable(dict(enumerate(values)), "e")
        hyp = Hypothesis.simple(
            DiscreteSpace(tuple(range(k)), (F(1, k),) * k))
        h1, h2 = sorted(rng.sample(hs, 2), key=float)
        assert float(h_mean(ev, h1, hyp)) <= float(h_mean(ev, h2, hyp)) + 1e-9

    cx = minimal_h_counterexample(F(1, 2), F(1, 4))
    exact = cx.rho_h == 1 and cx.classical_sup == 4

    # closure: harmonic merge of post-hoc inputs
    sp = DiscreteSpace((0, 1, 2), (F(1, 3), F(1, 3), F(1, 3)))
    hyp = Hypothesis.simple(sp)
    closure = True
    for _ in range(200):
        evs = []
        for _ in range(2):
            vals = [F(rng.randrange(1, 40), 8) for _ in range(3)]
            mean = sum(v / 3 for v in vals)
            evs.append(EvidenceVariable(
                {i: v / mean for i, v in enumerate(vals)}, "e"))
        merged = merge_harmonic([dual(e) for e in evs], [F(1, 2), F(1, 2)])
        closure = closure and check_posthoc_validity(merged, hyp).valid

    # closure: dependent geometric product
    geo = EvidenceVariable({0: 4, 1: F(1, 4)}, "e")
    sp2 = DiscreteSpace((0, 1), (F(1, 2), F(1, 2)))
    dep = merge_geometric([geo, geo])
    geo_ok = (dep[0] == 16 and dep[1] == F(1, 16)
              and check_h_validity(dep, 0, Hypothesis.simple(sp2)))

    # closure: product of independent post-hoc inputs
    ev = EvidenceVariable({0: 2, 1: F(1, 2)}, "e")
    spb = DiscreteSpace((0, 1), (F(1, 3), F(2, 3)))
    prod, prod_sp = merge_product_independent([(ev, spb), (ev, spb)])
    prod_ok = check_posthoc_validity(prod, Hypothesis.simple(prod_sp)).valid

    verdict(9, exact and closure and geo_ok and prod_ok,
            "h-mean monotone on 10^4 draws; minimal-h fixture exactly (1, 4); "
            "harmonic/geometric/product closures hold")


def _random_step_pfunction(rng):
    k = rng.randrange(1, 4)
    cuts = sorted(rng.sample(range(1, 16), k - 1)) + [16]
    level = F(0)
    steps = []
    for c in cuts:
        level += F(rng.randrange(1, 9), 16)
        steps.append((F(c, 16), level))
    return PFunction({0: PCurve.steps(steps)})


def test_criterion_10_galois_suite():
    rng = random.Random(10)
    for _ in range(10_000):
        pf = _random_step_pfunction(rng)
        rtf = test_function_of(pf)
        back = pfunction_of(rtf)
        grid_u = pf[0].breakpoints()
        alphas = [a for a, _, _ in rtf[0].segments if a > 0]
        for u in grid_u:
            assert back[0].value(u) == pf[0].value(u)
            for a in alphas:
                assert (rtf[0].value(a) >= u) == (pf[0].value(u) <= a)

    sp = DiscreteSpace((0, 1), (F(1, 3), F(2, 3)))
    p_ev = EvidenceVariable({0: F(1, 2), 1: 2}, "p")
    pf = uniform_randomize(p_ev)
    stat = sp.expectation(lambda x: pf[x].statistic())
    randomize_ok = stat == sp.expectation(lambda x: F(1) / p_ev[x]) == 1

    e_ev = EvidenceVariable({0: 4, 1: F(1, 2)}, "e")
    rtf = soft_test_function(e_ev)
    soft_stat = sp.expectation(lambda x: rtf[x].statistic())
    soft_ok = soft_stat == sp.expectation(lambda x: e_ev[x])

    witness_ok = product_merge_failure_witness(
        PFunction({0: PCurve.power(1, 1)})) == 2

    verdict(10, randomize_ok and soft_ok and witness_ok,
            "Galois round-trip/adjunction clean on 10^4 step functions; "
            "statistics exact; product failure witness n = 2")


def test_criterion_11_markov_and_mrmw():
    fixtures = [
        ([F(3, 2), F(3, 2)], [F(1, 2), F(1, 2)]),
        ([0, 2], [F(1, 2), F(1, 2)]),
        ([F(1, 2), F(3, 2)], [F(1, 2), F(1, 2)]),
        ([10, 0], [F(1, 20), F(19, 20)]),
        ([F(1, 3), 1, F(5, 3)], [F(1, 3), F(1, 3), F(1, 3)]),
    ]
    for values, probs in fixtures:
        sp = DiscreteSpace(tuple(range(len(values))), tuple(probs))
        ev = EvidenceVariable(dict(enumerate(values)), "e")
        lhs, rhs = markov_equality_check(ev, Hypothesis.simple(sp))
        assert lhs == rhs  # exact rational equality

    rng = random.Random(11)
    for _ in range(10_000):
        k = rng.randrange(2, 4)
        values = [F(rng.randrange(0, 40), 8) for _ in range(k)]
        sp = DiscreteSpace(tuple(range(k)), (F(1, k),) * k)
        ev = EvidenceVariable(dict(enumerate(values)), "e")
        c = F(rng.randrange(1, 40), 8)
        a, b, r = mrmw_sandwich(ev, c, Hypothesis.simple(sp))
        assert a <= b <= r
    verdict(11, True, "Markov equality exact on all discrete fixtures; "
                      "MRMW sandwich holds on 10^4 random (X, c) pairs")


def test_criterion_12_ville():
    start = time.monotonic()
    rule = StoppingRule.hitting_time(2.0)
    mart = ville_equality_check(martingale_fixture(horizon=50), rule,
                                n=100_000, seed=2026)
    mart_ok = mart.valid and mart.mean_exact == "1"

    superm = ville_equality_check(supermartingale_fixture(horizon=50),
                                  StoppingRule.fixed_time(0),
                                  n=100_000, seed=2026)
    super_ok = superm.valid and superm.mean == 1.0 and superm.se == 0.0

    flagged = not anytime_validity_check(
        invalid_eprocess_fixture(horizon=50),
        [StoppingRule.fixed_time(5), rule], n=100_000, seed=2026)["valid"]
    elapsed = time.monotonic() - start
    verdict(12, mart_ok and super_ok and flagged and elapsed < 30.0,
            f"martingale mean exactly {mart.mean_exact}; "
            f"tau=0 exact; inflated process flagged; {elapsed:.1f}s")


def test_criterion_13_double_posthoc_and_fwer():
    pair = bernoulli_pair()
    e = dual(log_optimal(pair))
    both_one = (pair.P.expectation(lambda x: e[x]) == 1
                and pair.Q.expectation(lambda x: F(1) / e[x]) == 1)
    double_ok = double_posthoc_check(pair) and both_one

    outcomes = [(a, b) for a in (0, 2) for b in (0, 2)]
    sp = DiscreteSpace(tuple(outcomes), (F(1, 4),) * 4)
    tfs = [
        TestFunction(EvidenceVariable(
            {x: (INF if x[i] == 0 else F(1, 2)) for x in outcomes}, "p"))
        for i in (0, 1)
    ]
    merged = fwer_merge(TestFamilyCollection(tfs))
    rep = check_posthoc_validity(merged.p, Hypothesis.simple(sp))
    fwer_ok = (not rep.valid) and rep.statistic == F(3, 2)

    verdict(13, double_ok and fwer_ok,
            "likelihood ratio double post-hoc with both means exactly 1; "
            "E[max e] = 3/2 family correctly fails the post-hoc check")
