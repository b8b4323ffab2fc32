"""UWB + IMU navigation: a deterministic nonlinear observer toolkit.

The package estimates attitude, position, and velocity of a rigid body from
an inertial measurement unit and ultra-wideband time-difference-of-arrival
ranging, with explicit gyroscope/accelerometer bias compensation.  The state
lives on a matrix Lie group and is propagated with closed-form exponential
steps, so the estimate stays on the manifold for arbitrarily long runs.

Modules:

* ``liegroup`` — rotation/state containers, exponential maps
* ``tdoa``     — anchor geometry and least-squares position reconstruction
* ``sensors``  — IMU samples, reference vectors, vector-triad construction
* ``observer`` — the observer step, gains, error metrics, gain certificate
* ``sim``      — synthetic truth models, scenarios, closed-loop runs
* ``replay``   — dataset ingestion, benchmarks, observer replay, CSV export
* ``cli``      — the ``uwbnav`` command-line entry point
"""

from .liegroup import (
    NavState,
    Rotation,
    TangentElement,
    att_dist,
    pa,
    reorthonormalize,
    se23_exp,
    skew,
    so3_exp,
    vex,
)
from .observer import (
    ErrorMetrics,
    GainReport,
    Gains,
    ObserverState,
    error_metrics,
    lyapunov_l1,
    step,
    validate_gains,
)
from .replay import (
    ConfigError,
    DataError,
    ReplayResult,
    derive_velocity,
    export_dataset,
    load_dataset,
    quat_to_rotation,
    rotation_to_quat,
    run_replay,
)
from .sensors import (
    ImuSample,
    ReferenceVectors,
    TriadDegenerate,
    TriadPair,
    attitude_innovation,
    build_triads,
    predicted_body_vectors,
    weighted_matrix,
)
from .sim import (
    Scenario,
    SensorNoise,
    SimResult,
    TruthModel,
    TruthTrack,
    default_anchors,
    preset_scenario,
    propagate_truth,
    run_scenario,
    synthesize_imu,
    truth_track,
)
from .tdoa import (
    Anchor,
    AnchorSet,
    GeometryDegenerate,
    ReconstructedPosition,
    TdoaFrame,
    build_system,
    load_anchors,
    solve_frame,
    solve_position,
    synthesize_tdoa,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # liegroup
    "Rotation",
    "NavState",
    "TangentElement",
    "skew",
    "vex",
    "pa",
    "att_dist",
    "so3_exp",
    "se23_exp",
    "reorthonormalize",
    # tdoa
    "Anchor",
    "AnchorSet",
    "TdoaFrame",
    "ReconstructedPosition",
    "GeometryDegenerate",
    "build_system",
    "solve_position",
    "solve_frame",
    "synthesize_tdoa",
    "load_anchors",
    # sensors
    "ImuSample",
    "ReferenceVectors",
    "TriadPair",
    "TriadDegenerate",
    "build_triads",
    "weighted_matrix",
    "predicted_body_vectors",
    "attitude_innovation",
    # observer
    "Gains",
    "ObserverState",
    "ErrorMetrics",
    "GainReport",
    "step",
    "error_metrics",
    "lyapunov_l1",
    "validate_gains",
    # sim
    "SensorNoise",
    "TruthModel",
    "TruthTrack",
    "Scenario",
    "SimResult",
    "default_anchors",
    "propagate_truth",
    "synthesize_imu",
    "preset_scenario",
    "truth_track",
    "run_scenario",
    # replay
    "ConfigError",
    "DataError",
    "ReplayResult",
    "load_dataset",
    "quat_to_rotation",
    "rotation_to_quat",
    "derive_velocity",
    "run_replay",
    "export_dataset",
]
