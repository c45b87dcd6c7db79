"""Sampled-data conjugate-direction direct search.

A derivative-free minimizer for a measured scalar field, realized twice over
the same semantics: a discrete probing walker (`directseek.rsp`) and a
closed-loop sampled-data controller that steers a vehicle model between
measurements (`directseek.hybrid` + `directseek.plants`).  The two routes are
checked against each other probe-for-probe.  `directseek.noise` provides
benign and adversarial measurement-noise models; `directseek.cli` exposes
reproducible experiment runs.
"""
from .core import (
    AlgorithmConfig,
    ConfigError,
    DirectionSet,
    EvaluationError,
    ObjectiveFunction,
    StopRule,
    direction_determinant,
    get_objective,
    log_rho,
    phi_update,
    rho,
    rho_underflows,
    validate_config,
)
from .plants import (
    DubinsPlant,
    ExactPlant,
    IntegrationError,
    PlantState,
    PointMassPlant,
    SteeringError,
    get_plant,
)
from .rsp import EvalRecord, RspState, run
from .hybrid import (
    ArcSample,
    AutomatonError,
    ControllerState,
    EquivalenceReport,
    HybridArc,
    JumpCase,
    classify_jump,
    equivalence_check,
    jump,
    make_controller,
    run_closed_loop,
)
from .noise import (
    AdversarialDragNoise,
    AdversarialJamNoise,
    BoundedRandomNoise,
    JamDemoReport,
    NoiseModel,
    PhasedNoise,
    ZeroNoise,
    get_noise,
    jam_demo,
    robustness_bound,
    robustness_bound_underflows,
)
from .cli import ExperimentConfig, RunSummary, rho_table, run_experiment, scenario_config

__version__ = "0.1.0"
