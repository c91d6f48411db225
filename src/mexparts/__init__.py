"""mexparts: exact arithmetic for mex-related partition functions.

The library computes, with exact integer arithmetic throughout:

  * truncated q-series built from Pochhammer products and theta-type sums,
  * ordinary, restricted, and mex-conditioned partition counts (each by at
    least two independent routes: enumeration oracles, closed identities in
    p(n), and generating-function coefficients),
  * Andrews' singular overpartition counts,
  * the rank and crank identities of the small mex families,

and machine-verifies the congruence families and parity characterizations
these functions satisfy, reporting counterexamples when a claim fails.

The public API is each module's ``__all__``, re-exported here in order.  A
re-export resolves on first access (PEP 562), so ``import mexparts`` loads
no submodule; a name loads only the module that defines it, and a
submodule name (``mexparts.series``) only that submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's __all__, in the package's order; tests/test_package.py pins
# every list against its module
_EXPORTS = {
    "series": (
        "SERIES_ORDER_BOUND", "TruncatedSeries", "pochhammer_inf", "support_p_tt", "support_p_2tt",
        "theta_support",
    ),
    "partitions": (
        "partition_count", "enumerate_partitions", "restricted_count", "restricted_counts",
        "partition_generating_series", "partition_convolution", "partition_convolution_rows",
        "partition_residue_table", "partition_parity_convolution",
    ),
    "mex": (
        "MexParams", "mex_count_oracle", "mex_counts_oracle", "genfun_p_tt", "genfun_p_2tt",
        "identity_p_tt", "identity_p_2tt", "MEX_ORACLE_BOUND",
    ),
    "singular": ("SingularParams", "singular_overpartition_oracle", "genfun_singular", "SINGULAR_ORACLE_BOUND"),
    "stats": ("verify_section1_identities",),
    "reports": ("VerificationReport", "FAILURE_CAP"),
    "congruences": (
        "ARG_CAP", "FUNCTIONS", "jacobi_symbol", "delta", "is_prime", "smallest_prime_with_symbol",
        "is_k3km1", "is_3np1_square", "is_generalized_pentagonal", "is_triangular",
        "is_pent_plus_4pent", "is_2pent_plus_3tri", "ProgressionSpec", "check_progression",
        "family_catalog", "FAMILY_IDS", "check_parity_characterization", "check_conditional_parity",
        "check_parity_bridge", "eta_form_mod2_report", "check_singular_mod8",
    ),
    "suites": ("SUITE_NAMES", "run_suite", "run_all", "suite_bounds"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; the import binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
