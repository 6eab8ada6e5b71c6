"""Adaptive momenta observers for perturbed mechanical systems."""

from .model import (
    DisturbanceSchedule,
    FrictionSpec,
    GeneralizedState,
    MechanicalModel,
    ModelError,
    StageTerms,
    momenta_transform,
    plant_derivative,
    stage_terms,
    transformed_derivative,
)
from .geometry import (
    AssumptionReport,
    check_zrs,
    factor_brackets,
    grad_integral_map_residual,
    gyro_matrix,
    gyro_swapped,
    sample_positions,
)
from .adaptive import (
    AdaptiveObserver,
    Obs1Estimates,
    Obs1State,
    StructureError,
    error_energy,
    estimator_quadratics,
    regressor,
    regressor_matrices,
)
from .scaled import Obs2Estimates, Obs2State, ScaledObserver
from .systems import (
    ManipulatorParams,
    SpiderCraneParams,
    build_named_model,
    crane_constants,
    make_constant_inertia,
    make_planar_manipulator,
    make_spider_crane,
    make_spider_crane_cholesky,
)
from .harness import (
    InputChannel,
    Metrics,
    Scenario,
    TimeSeries,
    compute_metrics,
    integrate_scenario,
    rk4_step,
    share_plant,
)
from .config import ConfigError, RunConfig, build_scenario, dump_config, load_config, parse_config

__version__ = "0.1.0"
