"""Bounds for the always-observed average treatment effect under attrition.

The package estimates sharp lower/upper bounds for the mean effect on units
whose outcome would be observed under either arm, in randomized experiments
with block-stratified assignment and monotone selection. It provides the
pooled trimming estimator, its per-stratum (conditional) version, an
inverse-propensity-weighted version robust to heterogeneous treated shares,
design-consistent sandwich standard errors with an i.i.d. comparator and a
label variance, per-bound and identified-set confidence intervals,
and a seeded Monte Carlo harness.

Each public name, and each submodule, loads on first use (PEP 562), so
``import strata_bounds.cli`` runs only the modules a command needs: an
``estimate`` call never loads the Monte Carlo code in ``simulation``.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_SUBMODULE_NAMES = {
    "data_model": (
        "BlockDesign", "Dataset", "block_design", "dataset_from_arrays", "parse_csv",
    ),
    "errors": (
        "DegenerateTrimError", "DesignError", "EstimationError",
        "FeasibilityError", "InternalConsistencyError", "PairingError",
        "ParseError", "SingularJacobianError", "StrataBoundsError",
        "UndefinedTrimmingError", "ValidationError",
    ),
    "gmm_core": (
        "FitResult", "LeeIpwTheta", "LeeTheta", "MomentMatrix", "fit_theta",
        "jacobian", "moment_matrix", "silverman_bandwidth", "solve_sandwich",
    ),
    "ipw_estimator": (
        "always_observed_treat_prob", "ipw_trimming_share", "lee_ipw_bounds",
    ),
    "lee_estimator": (
        "BoundsEstimate", "TrimmedMeanResult", "TrimmingShare", "TrimSpec",
        "conditional_lee_bounds", "lee_bounds", "trimmed_mean",
        "trimming_share_pooled",
    ),
    "simulation": (
        "DGP_HEAVY_TAILS", "DGP_MATCHED_PAIRS", "EstimatorSummary", "McConfig",
        "MonteCarloSummary", "child_seed", "dgp1_truth", "monte_carlo",
        "philox_generator", "simulate_dgp1", "simulate_dgp2",
    ),
    "variance": (
        "IntervalReport", "Involution", "MeatReport", "VarianceReport",
        "confidence_intervals", "estimate_bounds", "meat_design", "meat_iid",
        "pair_blocks", "sandwich_report", "set_critical_value",
    ),
}
_SUBMODULES = (*_SUBMODULE_NAMES, "cli")
_EXPORTS = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first use, and
    keep the result in the package namespace."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
