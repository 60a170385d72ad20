"""Rate-distortion trade-offs for source coding with decoder side
information under an encoder-side reconstruction constraint.

Subpackages: discrete data model (``model``), discrete solver with
Wyner-Ziv / common-reconstruction baselines (``solver``), Gaussian closed
forms (``gaussian``), sphere-codebook Monte Carlo (``sphere``), convex
combination reductions (``caratheodory``), the K-constraint extension
(``extended``), and the command line (``cli``).
"""

from .caratheodory import ConvexCombination, boundary_reduce, caratheodory_reduce, reduce_aux_u
from .errors import (
    AssumptionError,
    InfeasibleError,
    InvalidInstanceError,
    RdsiError,
    ResourceCapError,
)
from .extended import (
    ExtRatePoint,
    check_zero_distortion_assumption_ext,
    ext_expected_distortion_k,
    ext_rate_objective,
    solve_rate_ext,
    verify_u_reduction,
)
from .gaussian import (
    GaussianProblem,
    NoCodingScheme,
    SchemeParams,
    classify_case,
    converse_gamma,
    r_cr_gaussian,
    r_gaussian,
    r_wz_gaussian,
    scheme_params,
    scheme_rate,
)
from .model import (
    DistortionSpec,
    ExtendedInstance,
    JointSource,
    TestChannel,
    absorb_encoder_observation,
    check_zero_distortion_assumption,
    conditional_entropy_x_given_y,
    induced_distribution,
    validate_source,
)
from .solver import (
    RatePoint,
    SolveConfig,
    brute_force_oracle,
    expected_distortions,
    r_cr,
    r_wz,
    rate_objective,
    solve_rate,
    tradeoff_sweep,
)
from .sphere import (
    SimConfig,
    SimResult,
    cap_exponent,
    cap_ratio,
    max_epsilon,
    max_feasible_blocklength,
    run_simulation,
)

__version__ = "0.1.0"
SPEC_VERSION = "1"
