"""Finite-time optimization via scaled gradient-momentum flows.

Continuous-time dynamics coupling a decision variable and a momentum
variable, with a state-dependent scaling ||z||^alpha that turns
asymptotic convergence into finite-time convergence on gradient-dominated
objectives.  Includes an adaptive integrator robust to the scaling
singularity, a Lyapunov/certificate engine, and an experiment harness.
"""

from .flow import (
    FlowParams,
    FlowState,
    conservative_params,
    flow_field,
    heavy_ball_params,
    lyapunov,
    pi_params,
    stacked,
)
from .objectives import (
    DominanceEstimate,
    Objective,
    SmoothnessEstimate,
    estimate_dominance,
    estimate_smoothness,
    fd_gradient,
    hessian_definiteness,
    make_objective,
    p_power,
    quadratic,
    rosenbrock,
    shell_samples,
)
from .integrate import (
    IntegratorConfig,
    IntegrationError,
    Trajectory,
    integrate,
)
from .certificates import (
    AdmissibilityReport,
    CertificateError,
    CertificateFit,
    SchurReport,
    check_admissibility,
    fit_certificate,
    lower_upper_bounds,
    lyapunov_v,
    lyapunov_v_cross,
    lyapunov_vdot,
    select_epsilon_sigma,
    settling_envelope,
    verify_power_bound,
)
from .experiments import (
    ExperimentConfig,
    RunSummary,
    export_trajectory,
    load_config,
    preset,
    run,
    sweep,
)

__version__ = "0.1.0"
