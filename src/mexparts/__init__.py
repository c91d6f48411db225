"""mexparts: exact arithmetic for mex-related partition functions.

The library computes, with exact integer arithmetic throughout:

  * truncated q-series built from Pochhammer products and theta-type sums,
  * ordinary, restricted, and mex-conditioned partition counts (each by at
    least two independent routes: enumeration oracles, closed identities in
    p(n), and generating-function coefficients),
  * Andrews' singular overpartition counts,
  * rank and crank statistics,

and machine-verifies the congruence families and parity characterizations
these functions satisfy, reporting counterexamples when a claim fails.
"""

from .errors import (
    EmptyPartition,
    EvenModulus,
    InvalidFamilyParams,
    InvalidSingularParams,
    MexpartsError,
    NonIntegralOffset,
    NonUnitConstantTerm,
    NotCoprime,
    OracleBoundExceeded,
    TruncationTooSmall,
)
from .series import (
    TruncatedSeries,
    alternating_squares,
    alternating_triangular,
    neg_pochhammer_inf,
    pochhammer_inf,
    psi,
    theta_support,
)
from .partitions import (
    Partition,
    ResidueClassRule,
    enumerate_partitions,
    partition_convolution,
    partition_count,
    partition_generating_series,
    restricted_count,
)
from .mex import (
    MexParams,
    genfun_p_2tt,
    genfun_p_tt,
    identity_p_2tt,
    identity_p_tt,
    mex_count_oracle,
    mex_counts_oracle,
    mex_of,
)
from .singular import SingularParams, genfun_singular, singular_overpartition_oracle
from .stats import crank_of, rank_of, verify_section1_identities
from .reports import VerificationReport
from .congruences import (
    ProgressionSpec,
    check_conditional_parity,
    check_parity_bridge,
    check_parity_characterization,
    check_progression,
    check_singular_mod8,
    delta,
    eta_form_mod2_report,
    family_catalog,
    is_2pent_plus_3tri,
    is_3np1_square,
    is_generalized_pentagonal,
    is_k3km1,
    is_pent_plus_4pent,
    is_prime,
    is_triangular,
    jacobi_symbol,
    mod_inverse,
    smallest_prime_with_symbol,
)
from .suites import SUITE_NAMES, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "MexpartsError",
    "NonUnitConstantTerm",
    "TruncationTooSmall",
    "OracleBoundExceeded",
    "EmptyPartition",
    "InvalidSingularParams",
    "EvenModulus",
    "NotCoprime",
    "InvalidFamilyParams",
    "NonIntegralOffset",
    "TruncatedSeries",
    "pochhammer_inf",
    "neg_pochhammer_inf",
    "alternating_triangular",
    "alternating_squares",
    "psi",
    "theta_support",
    "Partition",
    "ResidueClassRule",
    "partition_count",
    "partition_generating_series",
    "partition_convolution",
    "enumerate_partitions",
    "restricted_count",
    "MexParams",
    "mex_of",
    "mex_count_oracle",
    "mex_counts_oracle",
    "genfun_p_tt",
    "genfun_p_2tt",
    "identity_p_tt",
    "identity_p_2tt",
    "SingularParams",
    "singular_overpartition_oracle",
    "genfun_singular",
    "rank_of",
    "crank_of",
    "verify_section1_identities",
    "VerificationReport",
    "ProgressionSpec",
    "check_progression",
    "family_catalog",
    "check_parity_characterization",
    "check_conditional_parity",
    "check_parity_bridge",
    "eta_form_mod2_report",
    "check_singular_mod8",
    "jacobi_symbol",
    "mod_inverse",
    "delta",
    "is_prime",
    "smallest_prime_with_symbol",
    "is_k3km1",
    "is_3np1_square",
    "is_generalized_pentagonal",
    "is_triangular",
    "is_pent_plus_4pent",
    "is_2pent_plus_3tri",
    "SUITE_NAMES",
    "run_suite",
    "run_all",
]
