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

The public API is each module's ``__all__``, re-exported here in order.
"""

from . import congruences, mex, partitions, reports, series, singular, stats, suites
from .series import *
from .partitions import *
from .mex import *
from .singular import *
from .stats import *
from .reports import *
from .congruences import *
from .suites import *

__version__ = "0.1.0"

_MODULES = (series, partitions, mex, singular, stats, reports, congruences, suites)
__all__ = [name for module in _MODULES for name in module.__all__]
