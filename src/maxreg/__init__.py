"""Exact regularity analysis of the discrete noncentered maximal function.

The library computes the discrete noncentered Hardy-Littlewood maximal
function of finitely supported rational-valued functions in exact arithmetic,
splits second differences into convex/concave chains, evaluates the
infinite l1 sums of second differences in closed form, and verifies the two
headline facts (see :mod:`maxreg.regularity`) on arbitrary finite sets,
together with a search harness probing how far they extend.
"""

from ._version import __version__
from .lattice import (
    IndexSet,
    LatticeFunction,
    forward_difference,
    lp_norm,
)
from .maximal import (
    MaximalProfile,
    maximal_at,
    maximal_profile,
    maximal_profile_fast,
    set_maxima,
    window_maxima,
)
from .regularity import (
    MINUS,
    PLUS,
    Analysis,
    RatioRecord,
    Violation,
    analyze,
    first_derivative_norms,
    lemma1_violations,
    theorem1_report,
)
from .reporting import (
    SetLiteralError,
    build_report,
    canonical_set_literal,
    parse_set_literal,
)
from .search import (
    GENERATOR_ID,
    GeneralRatioRecord,
    SearchSummary,
    TruncatedScan,
    exhaustive,
    higher_derivative_scan,
    random_functions,
    random_sets,
)

__all__ = [
    "__version__",
    "IndexSet",
    "LatticeFunction",
    "forward_difference",
    "lp_norm",
    "MaximalProfile",
    "maximal_at",
    "maximal_profile",
    "maximal_profile_fast",
    "set_maxima",
    "window_maxima",
    "PLUS",
    "MINUS",
    "Analysis",
    "RatioRecord",
    "Violation",
    "analyze",
    "lemma1_violations",
    "theorem1_report",
    "first_derivative_norms",
    "SetLiteralError",
    "build_report",
    "canonical_set_literal",
    "parse_set_literal",
    "GENERATOR_ID",
    "GeneralRatioRecord",
    "SearchSummary",
    "TruncatedScan",
    "exhaustive",
    "higher_derivative_scan",
    "random_functions",
    "random_sets",
]
