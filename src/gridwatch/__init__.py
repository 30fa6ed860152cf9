"""Real-time detection of hybrid bias-injection and jamming attacks on a
linear dynamic grid model: dual-Kalman generalized-CUSUM detection with
closed-form attack estimates, stealthy-attack countermeasures, attacker-side
stealth design, benchmark detectors, and a Monte Carlo evaluation harness."""

from .grid_model import (
    GridModel,
    GridTopology,
    MeasurementBatch,
    SimState,
    TopologyError,
    build_model,
    initial_sim_state,
    load_topology,
    simulate_step,
)
from .attacks import (
    AttackRealization,
    AttackSpec,
    MagnitudeLaw,
    apply_attack,
    realize_attack,
    topology_fault,
)
from .kalman import (
    DualFilterBank,
    KalmanState,
    initial_bank,
    kf_predict,
    kf_update_post,
    kf_update_pre,
    sync_post_to_pre,
)
from .detector import (
    AttackEstimate,
    CusumState,
    DetectorConfig,
    HypothesisCosts,
    MeterClassification,
    ResidualBlock,
    algorithm1_step,
    classify_meters,
    cusum_step,
    gllr,
    hypothesis_costs,
    mle_attack_params,
    residual_block,
)
from .robust import (
    Chi2Config,
    Chi2State,
    ShewhartConfig,
    pearson_step,
)
from .stealth import (
    GaussianPdf,
    OnOffBudget,
    construct_stealthy_gaussian,
    kl_gaussian,
    onoff_budget,
    persistent_stealth_gap,
)
from .expconfig import ExperimentConfig, load_config
from . import harness

__version__ = "0.1.0"
