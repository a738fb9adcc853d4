"""Model-free trajectory optimization with decoupled LQR feedback.

Pipeline: sample-based ILQR finds an open-loop optimal trajectory for a
black-box system, a time-varying LQR law is wrapped around it, and a
Monte-Carlo harness measures how cost statistics scale with the process
noise level.
"""

from .costs import (
    NominalTrajectory,
    QuadraticCostModel,
    cost_partials,
    total_cost,
)
from .envs import (
    Environment,
    NoiseModel,
    make_cartpole_env,
    make_env,
    make_linear_env,
    make_pendulum_env,
    rollout,
    rollout_open_loop,
    step,
)
from .evaluation import (
    RolloutStats,
    ScalingFit,
    epsilon_sweep,
    monte_carlo_eval,
    variance_scaling_fit,
)
from .feedback import DecoupledPolicy, build_policy, riccati_gains
from .ilqr import (
    ConvergenceTrace,
    IterationGains,
    OptimizerConfig,
    backward_pass,
    forward_pass,
    optimize,
)
from .sysid import EstimatorConfig, LinearizedModel, estimate_fd, estimate_llscd, identify_ltv

__all__ = [
    "NominalTrajectory",
    "QuadraticCostModel",
    "cost_partials",
    "total_cost",
    "Environment",
    "NoiseModel",
    "make_cartpole_env",
    "make_env",
    "make_linear_env",
    "make_pendulum_env",
    "rollout",
    "rollout_open_loop",
    "step",
    "RolloutStats",
    "ScalingFit",
    "epsilon_sweep",
    "monte_carlo_eval",
    "variance_scaling_fit",
    "DecoupledPolicy",
    "build_policy",
    "riccati_gains",
    "ConvergenceTrace",
    "IterationGains",
    "OptimizerConfig",
    "backward_pass",
    "forward_pass",
    "optimize",
    "EstimatorConfig",
    "LinearizedModel",
    "estimate_fd",
    "estimate_llscd",
    "identify_ltv",
]

__version__ = "0.1.0"
