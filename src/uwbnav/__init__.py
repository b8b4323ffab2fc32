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
    export_dataset,
    load_dataset,
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
    RunResult,
    Scenario,
    SensorNoise,
    SimResult,
    TruthTrack,
    default_anchors,
    preset_scenario,
    run_scenario,
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
    synthesize_tdoa,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # liegroup
    "Rotation",
    "NavState",
    "TangentElement",
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
    "TruthTrack",
    "Scenario",
    "RunResult",
    "SimResult",
    "default_anchors",
    "preset_scenario",
    "truth_track",
    "run_scenario",
    # replay
    "ConfigError",
    "DataError",
    "load_dataset",
    "run_replay",
    "export_dataset",
]
