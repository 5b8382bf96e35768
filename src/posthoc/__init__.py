"""Post-hoc hypothesis testing: e-values, data-dependent significance
levels, size-distortion analysis, utility-optimal evidence, p-functions,
and anytime-valid sequential checks.

The package loads lazily (PEP 562): ``import posthoc`` loads no
submodule, and the first use of an exported name imports the submodule
that defines it.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "_numbers": ("INF", "TOL", "fmt_number", "frac", "parse_number"),
        "core": (
            "DiscreteSpace", "E_SCALE", "EvidenceLattice", "EvidenceVariable",
            "Hypothesis", "P_SCALE", "PValueLaw", "TestFunction",
            "ValidityReport", "check_classical_validity",
            "check_posthoc_validity", "dual", "family_of_evidence", "law_of",
            "p_value", "posthoc_evidence_of_family",
        ),
        "distortion": (
            "AlphaStrategy", "DistortionReport", "ImpossibilityVerdict",
            "conditional_size", "conservative_strategy",
            "decreasing_alpha_strategy", "distortion_report",
            "expected_size_distortion", "fragility_strategy",
            "impossibility_audit", "max_size_distortion",
            "monte_carlo_distortion", "reject_at_p_strategy", "uniform_p_law",
            "valid_hacking_law",
        ),
        "calibration": (
            "MinimalHCounterexample", "check_h_validity", "h_mean",
            "minimal_h_counterexample", "size_difference_validity",
        ),
        "pfunctions": (
            "PCurve", "PFunction", "RandomizedTestFunction", "TCurve",
            "check_pfunction_posthoc", "p_value_head", "pfunction_of",
            "soft_test_function", "test_function_of", "uniform_randomize",
        ),
        "merging": (
            "ShapeConditionError", "TestFamilyCollection", "fdr_average",
            "fwer_merge", "merge_geometric", "merge_h_mean", "merge_harmonic",
            "merge_pfunctions_harmonic", "merge_pfunctions_product",
            "merge_product_independent", "product_merge_failure_witness",
        ),
        "design": (
            "SimplePair", "UtilitySpec", "bernoulli_pair",
            "best_region_exhaustive", "brute_force_optimal",
            "double_posthoc_check", "expected_utility",
            "gaussian_log_optimal_report", "gaussian_shift_pair",
            "log_optimal", "np_optimal", "np_rejection_region",
            "utility_optimal",
        ),
        "sequential": (
            "EPROCESS", "MARTINGALE", "ProcessModel", "StoppingRule",
            "SUPERMARTINGALE", "VilleReport", "anytime_validity_check",
            "invalid_eprocess_fixture", "markov_equality_check",
            "martingale_fixture", "mrmw_sandwich", "stopped_law",
            "stopped_mean", "stopped_p_law", "sup_stopped_mean",
            "supermartingale_fixture", "ville_equality_check", "ville_tail",
        ),
    }.items()
    for name in names
}
__all__ = list(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
