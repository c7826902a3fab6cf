"""Exact stable cost allocation for transferable-utility games.

Everything is computed over arbitrary-precision rationals so that core
membership, relaxation optima, and the identities linking them can be
asserted as exact equalities.
"""

from .coalition import Coalition
from .errors import (
    EnumerationLimitError,
    InstanceParseError,
    PreconditionError,
    UndefinedRatioError,
)
from .games import (
    ENUM_LIMIT,
    ExplicitGame,
    Game,
    satisfies_last_monotone,
    subset_sums,
)
from .lp import LpProblem, LpSolution, LpStatus, VerifyResult, solve, verify_point
from .mstgame import (
    ApproxTrace,
    GraphInstance,
    MstGame,
    almost_core_approx,
    granot_huberman,
)
from .relaxations import (
    RelaxationReport,
    SeparationResult,
    almost_core_optimum,
    brute_force_core_oracle,
    brute_force_nonneg_core_oracle,
    core_nonempty,
    core_optimum,
    cost_of_stability,
    extended_core_delta,
    full_report,
    gamma_approx,
    least_core_eps,
    separate_almost_core,
    separate_almost_core_nonneg,
    weak_core_eps,
)

__all__ = [
    "ApproxTrace",
    "Coalition",
    "ENUM_LIMIT",
    "EnumerationLimitError",
    "ExplicitGame",
    "Game",
    "GraphInstance",
    "InstanceParseError",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "MstGame",
    "PreconditionError",
    "RelaxationReport",
    "SeparationResult",
    "UndefinedRatioError",
    "VerifyResult",
    "almost_core_approx",
    "almost_core_optimum",
    "brute_force_core_oracle",
    "brute_force_nonneg_core_oracle",
    "core_nonempty",
    "core_optimum",
    "cost_of_stability",
    "extended_core_delta",
    "full_report",
    "gamma_approx",
    "granot_huberman",
    "least_core_eps",
    "satisfies_last_monotone",
    "separate_almost_core",
    "separate_almost_core_nonneg",
    "solve",
    "subset_sums",
    "verify_point",
    "weak_core_eps",
]
