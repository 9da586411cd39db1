"""Dynamic watermarking of linear stochastic control loops.

Actuators superimpose a private excitation on the nominal input; windowed
statistical tests on the reported measurements then decide whether the
sensor stream is consistent with the physics plus that excitation, and
bound the distortion any consistent attacker can still add.

Layers: ``linsys`` (the five plant classes and their two canonical kernels,
lag polynomial and state space, and the one home of the generated loops:
both closed loops and the IIR filter), ``watermark`` (excitation and the
shaping filter), ``adversary`` (the sensor threat model: built-in attacks as
kernel data, a registry of custom attacks), ``residual`` (prediction-error
and Kalman-innovation filters run on recorded data), ``detect`` (window
statistics, calibration, thresholds), ``scenario``/``harness`` (config files,
one closed-loop simulator per kernel that applies the policy and the
built-in attacks inline, oracle metrics, trace export), ``cli`` (command-line
front end).
"""

from .adversary import BUILTIN_ATTACKS, SensorView, register_attack
from .detect import (
    STAT_KINDS,
    ResidualNull,
    Threshold,
    calibrate_threshold,
    simulate_null_stats,
    threshold_from_stats,
)
from .harness import (
    RunReport,
    Trace,
    WindowRecord,
    calibrate_detector,
    channel_specs,
    export_trace,
    import_trace,
    oracle_metrics,
    run_scenario,
    stat_series,
    trace_equal,
)
from .linsys import (
    ArmaxPlant,
    ArxPlant,
    LagForm,
    MimoPlant,
    PartialPlant,
    ScalarPlant,
    StateSpaceForm,
    check_min_phase,
)
from .residual import (
    KalmanDesign,
    innovations,
    kalman_design,
    prediction_errors,
)
from .scenario import (
    SCHEMA_VERSION,
    AttackConfig,
    DetectorConfig,
    PlantConfig,
    PolicyConfig,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from .watermark import (
    FAMILIES,
    WatermarkSpec,
    draw_iid,
    match_distribution,
    shape,
)

__version__ = "0.1.0"
