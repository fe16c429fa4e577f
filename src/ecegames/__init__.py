"""Entropic-cost-equilibrium solvers and inverse cost learning for dynamic games."""

from . import dynamics
from .config import Scenario, load_scenario, parse_scenario
from .errors import (
    ConfigError,
    CovarianceError,
    EcegamesError,
    IngestError,
    InvalidWeightError,
    LinearizationError,
    LineSearchError,
    NonConvergenceError,
    QuadratizationError,
    SimulationDivergedError,
    StageSingularError,
)
from .features import (
    ControlEffort,
    FeatureBasis,
    GaussianProximity,
    ReferenceTracking,
    eval_features,
    make_cost_model,
    straight_line_reference,
)
from .game import (
    AffineGaussianPolicySet,
    CostModel,
    GameSpec,
    InitialState,
    NoiseModel,
    Trajectory,
    TrajectoryBatch,
    pin_other_agents,
    quadratic_cost,
)
from .ilq import EceSolution, IterationTrace, SolverConfig, linearize, quadratize, solve_ece
from .irl import (
    LearnConfig,
    LearnTrace,
    empirical_feature_mean,
    estimate_feature_expectation,
    run_mairl,
    update_weights,
)
from .lq import (
    LqSolution,
    LqStageGame,
    StageSolveReport,
    ValueRecursion,
    solve_lq_ece,
)
from .metrics import (
    goal_distance_stats,
    histogram_kl,
    kl_divergence_per_feature,
    trajectory_rmse,
)
from .simulate import evaluate_cost, rollout_batch, simulate_mean, simulate_stochastic

__version__ = "0.1.0"
