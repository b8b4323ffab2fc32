"""Ground-truth propagation and synthetic measurement generation.

The true kinematics  Rdot = R [Omega]_x,  Pdot = V,  Vdot = R a + g  are the
group equation Xdot = X U - G X with U = u([Omega]_x, 0, a, 1) and the
constant G = u(0, 0, -g, 1).  For inputs held over a step this integrates
exactly as

    X(t + dt) = exp(-G dt) @ X(t) @ exp(U dt),

so the simulator samples Omega and a at the interval midpoint and applies the
sandwich step: exact for constant inputs, second-order accurate otherwise,
and SO(3) is preserved to machine precision.

Everything is deterministic: measurement noise is drawn from per-call
generators seeded by (scenario seed, stream tag, sample time/index), so a
run, and any CSV export of it, replays bit-identically.

The truth depends on the trajectory alone, never on the seed.
``truth_track`` steps it once over every IMU sample into a read-only
``TruthTrack``, and ``run_scenario`` runs on a track (building one when none
is given), adding per seed only what the seed changes: IMU and TDOA noise,
biases, the magnetometer reading, the observer and its errors.  A seed
sweep (``uwbnav sim --runs N``) therefore integrates its truth once.

Per seed, ``run_scenario`` builds the whole IMU stream and every TDOA frame
before the loop, hands them to ``observer._run_stream`` (the loop that
replay shares), and computes every error series after it, in one pass over
the estimate arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .liegroup import (
    _ZERO3,
    NavState,
    Rotation,
    _as_vec3,
    _pack,
    _se23_exp,
    se23_exp,  # noqa: F401  propagate_truth runs _se23_exp; navbench traces calls at this name
    so3_exp,
)
from .observer import Gains, ObserverState, _nav_errors, _norms, _run_stream, step
from .observer import error_metrics  # noqa: F401  run_scenario batches the errors; navbench traces this name
from .sensors import ImuSample, ReferenceVectors
from .tdoa import Anchor, AnchorSet, synthesize_tdoa
from .tdoa import solve_frame  # noqa: F401  _run_stream solves the frames; navbench traces this name

__all__ = [
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
    "settling_time",
    "error_summary",
    "PRESET_NAMES",
]

# Stream tags mixed into per-call RNG seeds so the IMU, TDOA, and replay
# magnetometer streams never collide.
_STREAM_IMU = 0
_STREAM_TDOA = 1


@dataclass(frozen=True)
class SensorNoise:
    """Per-sensor Gaussian noise standard deviations."""

    gyro_sd: float = 0.0
    accel_sd: float = 0.0
    mag_sd: float = 0.2
    tdoa_sd: float = 0.0

    def __post_init__(self):
        for name in ("gyro_sd", "accel_sd", "mag_sd", "tdoa_sd"):
            val = float(getattr(self, name))
            if not (np.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {val}")
            object.__setattr__(self, name, val)


def _zero3(_t: float) -> np.ndarray:
    return np.zeros(3)


@dataclass(frozen=True)
class TruthModel:
    """Exact vehicle state plus the measurement imperfections.

    ``omega_fn(t)`` and ``accel_fn(t)`` give the body-frame angular rate and
    specific force driving the kinematics; ``b_omega``/``b_a`` are the
    constant sensor biases added to the synthesized measurements.
    """

    nav: NavState
    omega_fn: object = _zero3
    accel_fn: object = _zero3
    b_omega: np.ndarray = (0.0, 0.0, 0.0)
    b_a: np.ndarray = (0.0, 0.0, 0.0)
    noise: SensorNoise = SensorNoise()
    seed: int = 0
    time: float = 0.0
    gravity: np.ndarray = (0.0, 0.0, -9.8)

    def __post_init__(self):
        object.__setattr__(self, "b_omega", np.asarray(self.b_omega, dtype=float))
        object.__setattr__(self, "b_a", np.asarray(self.b_a, dtype=float))
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))


@dataclass(frozen=True, eq=False)
class TruthTrack:
    """The noiseless truth of a trajectory at every IMU sample t_k = k / imu_rate.

    ``rot`` (n+1, 3, 3), ``pos`` and ``vel`` (n+1, 3) are the true state, row 0
    the initial one and each later row stepped from the one before by
    ``propagate_truth``; ``omega`` and ``accel`` (n+1, 3) are ``omega_fn(t_k)``
    and ``accel_fn(t_k)``.  The arrays are read-only copies.  ``omega_fn``,
    ``accel_fn``, the initial state, ``gravity``, ``imu_rate`` and ``n`` are
    the definition the track was built from; ``run_scenario`` refuses a track
    whose definition differs from its scenario's.
    """

    omega_fn: object
    accel_fn: object
    gravity: np.ndarray
    imu_rate: float
    n: int
    rot: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    omega: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        rows = int(self.n) + 1
        shapes = {
            "gravity": (3,),
            "rot": (rows, 3, 3),
            "pos": (rows, 3),
            "vel": (rows, 3),
            "omega": (rows, 3),
            "accel": (rows, 3),
        }
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "imu_rate", float(self.imu_rate))
        object.__setattr__(self, "n", int(self.n))

    def __reduce__(self):
        # Unpickle through __init__, so that the copy a --jobs worker receives
        # is read-only as well.
        return (TruthTrack, tuple(getattr(self, f.name) for f in fields(self)))


class _TrackRotation(NamedTuple):
    """A track rotation read as a ``Rotation`` is, through ``.m``.

    ``propagate_truth`` checked each rotation on SO(3) as it made it, so a
    seed reads the track without building a ``Rotation`` again.
    """

    m: np.ndarray


def propagate_truth(t: TruthModel, dt: float) -> TruthModel:
    """One exact Lie-group step of the true kinematics over [time, time+dt]."""
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must be in (0, 0.1] s, got {dt}")
    mid = t.time + 0.5 * dt
    omega = _as_vec3(t.omega_fn(mid), "omega_fn(t)")
    accel = _as_vec3(t.accel_fn(mid), "accel_fn(t)")
    gravity = _as_vec3(t.gravity, "gravity")
    # exp(-G dt) X exp(U dt) with U = u([omega]_x, 0, accel, 1), G = u(0, 0, -g, 1).
    X = (
        _se23_exp(_ZERO3, _ZERO3, -gravity, 1.0, -dt)
        .dot(_pack(t.nav.rot.m, t.nav.pos, t.nav.vel))
        .dot(_se23_exp(omega, _ZERO3, accel, 1.0, dt))
    )
    nav = NavState(Rotation(X[:3, :3]), X[:3, 3], X[:3, 4])
    return replace(t, nav=nav, time=t.time + dt)


def _call_rng(seed: int, stream: int, key: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(stream), int(key)))


def synthesize_imu(t: TruthModel, time: float, ref: ReferenceVectors | None = None) -> ImuSample:
    """Biased, noisy IMU measurement of the truth at the given time.

    gyro  = Omega + b_omega + n,  accel = specific force + b_a + n,
    mag   = R^T m_r + n.  The noise draw depends only on (seed, time), so a
    repeated call is bit-identical.
    """
    ref = ReferenceVectors() if ref is None else ref
    return _noisy_imu(
        t.noise,
        t.seed,
        time,
        t.omega_fn(time) + t.b_omega,
        t.accel_fn(time) + t.b_a,
        t.nav.rot.m.T @ ref.mag_ref,
    )


def _noisy_imu(noise: SensorNoise, seed: int, time: float, gyro, accel, mag) -> ImuSample:
    """The IMU sample at ``time``: the biased readings plus their seeded noise.

    One generator keyed by (seed, time in ns) draws the gyro, accel and mag
    noise in that order, each only when its sd is positive.
    """
    if noise.gyro_sd > 0.0 or noise.accel_sd > 0.0 or noise.mag_sd > 0.0:
        rng = _call_rng(seed, _STREAM_IMU, round(time * 1e9))
        if noise.gyro_sd > 0.0:
            gyro = gyro + rng.normal(0.0, noise.gyro_sd, 3)
        if noise.accel_sd > 0.0:
            accel = accel + rng.normal(0.0, noise.accel_sd, 3)
        if noise.mag_sd > 0.0:
            mag = mag + rng.normal(0.0, noise.mag_sd, 3)
    return ImuSample(timestamp=time, gyro=gyro, accel=accel, mag=mag)


def default_anchors() -> AnchorSet:
    """Eight anchors on the vertices of a 8 m x 8 m x 4 m box."""
    verts = [
        (x, y, z)
        for x in (-4.0, 4.0)
        for y in (-4.0, 4.0)
        for z in (0.0, 4.0)
    ]
    return AnchorSet(tuple(Anchor(id=i + 1, pos=np.array(v)) for i, v in enumerate(verts)))


@dataclass
class Scenario:
    """A closed-loop experiment: truth model, sensors, observer initialization."""

    name: str
    anchors: AnchorSet
    duration: float
    truth: TruthModel
    estimate: ObserverState
    imu_rate: float = 100.0
    tdoa_rate: float = 10.0
    tag_offset: np.ndarray = (0.0, 0.0, 0.0)
    ref: ReferenceVectors = ReferenceVectors()

    def __post_init__(self):
        if not self.duration > 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not (self.imu_rate > 0.0 and self.tdoa_rate > 0.0):
            raise ValueError("imu_rate and tdoa_rate must be > 0")
        self.tag_offset = np.asarray(self.tag_offset, dtype=float)


# --- preset trajectories ---------------------------------------------------

_G = np.array([0.0, 0.0, -9.8])


class _Preset:
    """A preset trajectory.  Each preset is one instance, held in ``_PRESETS``.

    So the ``omega``/``accel`` methods bound into every seed's scenario
    compare equal, and one ``TruthTrack`` fits every seed.  An instance
    pickles as its preset name, so this holds in a ``--jobs`` worker too.
    """

    name = ""

    def __reduce__(self):
        return (_preset, (self.name,))


def _preset(name: str) -> _Preset:
    return _PRESETS[name]


class _StaticHover(_Preset):
    """Omega = 0, specific force exactly cancelling gravity."""

    name = "static"

    def __init__(self, R0: np.ndarray):
        self._f = -(R0.T @ _G)

    def omega(self, _t: float) -> np.ndarray:
        return np.zeros(3)

    def accel(self, _t: float) -> np.ndarray:
        return self._f.copy()


class _YawCircle(_Preset):
    """Constant-rate yaw while flying a horizontal circle."""

    name = "yaw_circle"

    def __init__(self, yaw_rate: float = 0.5, radius: float = 1.5, center=(0.0, 0.0, 1.5)):
        self.w = yaw_rate
        self.r = radius
        self.center = np.asarray(center, dtype=float)

    def rot(self, t: float) -> np.ndarray:
        return so3_exp(np.array([0.0, 0.0, self.w]), t)

    def pos(self, t: float) -> np.ndarray:
        a = self.w * t
        return self.center + self.r * np.array([math.cos(a), math.sin(a), 0.0])

    def vel(self, t: float) -> np.ndarray:
        a = self.w * t
        return self.r * self.w * np.array([-math.sin(a), math.cos(a), 0.0])

    def omega(self, _t: float) -> np.ndarray:
        return np.array([0.0, 0.0, self.w])

    def accel(self, t: float) -> np.ndarray:
        a = self.w * t
        vdot = -self.r * self.w**2 * np.array([math.cos(a), math.sin(a), 0.0])
        return self.rot(t).T @ (vdot - _G)


class _FigureEight(_Preset):
    """Lissajous figure-eight (x at nu, y at 2 nu) with a gentle yaw rate.

    The yaw rate is constant so the true attitude has the closed form
    R(t) = exp([0,0,yaw_rate]_x t), which makes the synthesized specific
    force exact.
    """

    name = "figure8"

    def __init__(
        self,
        center=(1.237, 0.124, 1.534),
        ampl_x: float = 2.0,
        ampl_y: float = 1.5,
        ampl_z: float = 0.3,
        nu: float = 0.5,
        yaw_rate: float = 0.3,
    ):
        self.center = np.asarray(center, dtype=float)
        self.ax, self.ay, self.az = ampl_x, ampl_y, ampl_z
        self.nu = nu
        self.w = yaw_rate

    def rot(self, t: float) -> np.ndarray:
        return so3_exp(np.array([0.0, 0.0, self.w]), t)

    def pos(self, t: float) -> np.ndarray:
        nu = self.nu
        return self.center + np.array(
            [self.ax * math.sin(nu * t), self.ay * math.sin(2 * nu * t), self.az * math.sin(nu * t)]
        )

    def vel(self, t: float) -> np.ndarray:
        nu = self.nu
        return np.array(
            [
                self.ax * nu * math.cos(nu * t),
                2 * self.ay * nu * math.cos(2 * nu * t),
                self.az * nu * math.cos(nu * t),
            ]
        )

    def vdot(self, t: float) -> np.ndarray:
        nu = self.nu
        return np.array(
            [
                -self.ax * nu**2 * math.sin(nu * t),
                -4 * self.ay * nu**2 * math.sin(2 * nu * t),
                -self.az * nu**2 * math.sin(nu * t),
            ]
        )

    def omega(self, _t: float) -> np.ndarray:
        return np.array([0.0, 0.0, self.w])

    def accel(self, t: float) -> np.ndarray:
        return self.rot(t).T @ (self.vdot(t) - _G)


_PRESETS = {p.name: p for p in (_StaticHover(np.eye(3)), _YawCircle(), _FigureEight())}

PRESET_NAMES = tuple(_PRESETS)

_DEFAULT_DURATIONS = {"static": 10.0, "yaw_circle": 20.0, "figure8": 30.0}


def preset_scenario(
    name: str,
    *,
    seed: int = 0,
    duration: float | None = None,
    imu_rate: float = 100.0,
    tdoa_rate: float = 10.0,
    noise: SensorNoise | None = None,
    b_omega=(0.0, 0.0, 0.0),
    b_a=(0.0, 0.0, 0.0),
    estimate_pos=(-3.0, -1.0, 0.0),
    estimate_vel=(0.0, 0.0, 0.0),
    estimate_rotvec=(0.0, 0.0, 0.0),
    tag_offset=(0.0, 0.0, 0.0),
    anchors: AnchorSet | None = None,
    ref: ReferenceVectors | None = None,
) -> Scenario:
    """Build one of the named scenarios: static, yaw_circle, figure8."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {PRESET_NAMES}")
    ref = ReferenceVectors() if ref is None else ref
    noise = SensorNoise() if noise is None else noise
    anchors = default_anchors() if anchors is None else anchors
    traj = _PRESETS[name]
    if name == "static":
        nav0 = NavState(Rotation.identity(), np.array([1.237, 0.124, 1.534]), np.zeros(3))
    else:
        nav0 = NavState(Rotation(traj.rot(0.0)), traj.pos(0.0), traj.vel(0.0))
    truth = TruthModel(
        nav=nav0,
        omega_fn=traj.omega,
        accel_fn=traj.accel,
        b_omega=b_omega,
        b_a=b_a,
        noise=noise,
        seed=seed,
        gravity=ref.gravity,
    )
    estimate = ObserverState(
        nav=NavState(Rotation.from_rotvec(estimate_rotvec), estimate_pos, estimate_vel),
        b_omega_hat=np.zeros(3),
        b_a_hat=np.zeros(3),
    )
    return Scenario(
        name=name,
        anchors=anchors,
        duration=_DEFAULT_DURATIONS[name] if duration is None else float(duration),
        truth=truth,
        estimate=estimate,
        imu_rate=imu_rate,
        tdoa_rate=tdoa_rate,
        tag_offset=tag_offset,
        ref=ref,
    )


@dataclass
class SimResult:
    """Time series and summary of one closed-loop run.

    Metric arrays have ``n_steps + 1`` entries (index 0 is the initial
    condition); ``raw_pos``/``raw_err`` are NaN at steps without a TDOA fix.
    ``imu`` holds one extra trailing sample so an exported dataset carries the
    step lengths implicitly in its timestamps.
    """

    scenario: Scenario
    t: np.ndarray
    att_err: np.ndarray
    pos_err: np.ndarray
    vel_err: np.ndarray
    b_omega_err: np.ndarray
    b_a_err: np.ndarray
    truth_rot: np.ndarray
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    est_pos: np.ndarray
    est_vel: np.ndarray
    raw_pos: np.ndarray
    raw_err: np.ndarray
    imu: list
    frames: dict
    final_state: ObserverState
    summary: dict = field(default_factory=dict)


def settling_time(t, pos_err, threshold: float, dwell: float) -> float:
    """First time pos_err dips below ``threshold`` and stays there for ``dwell`` s.

    Returns NaN when the series never settles (a dip must hold until at least
    min(t[-1], t_dip + dwell); a dip too close to the end still counts only if
    it holds through the end of the series and t[-1] >= t_dip + dwell).
    """
    t = np.asarray(t, dtype=float)
    pos_err = np.asarray(pos_err, dtype=float)
    below = pos_err < threshold
    for i in np.flatnonzero(below):
        end = t[i] + dwell
        if t[-1] < end:
            return float("nan")
        window = (t >= t[i]) & (t <= end)
        if np.all(below[window]):
            return float(t[i])
    return float("nan")


def error_summary(
    t, att_err, pos_err, vel_err, raw_err, duration: float, settle_threshold: float, settle_dwell: float
) -> dict:
    """Summary statistics shared by simulated and replayed runs.

    Final and initial errors, settling time, and the steady-state RMS of the
    estimate and of the raw TDOA fix over the last third of ``duration``
    (measured from t[0]).  NaN rows (no benchmark, no fix) are ignored; a
    statistic with no rows to draw on is NaN.
    """
    ss_mask = (t - t[0]) >= (2.0 / 3.0) * duration

    def finite(x):
        return x[np.isfinite(x)]

    def rms(x):
        return float(np.sqrt(np.mean(x**2))) if x.size else float("nan")

    def last(x):
        return float(x[-1]) if x.size else float("nan")

    valid = np.isfinite(pos_err)
    pos = pos_err[valid]
    return {
        "initial_pos_err": float(pos[0]) if pos.size else float("nan"),
        "final_att_err": last(att_err[valid]),
        "final_pos_err": last(pos),
        "final_vel_err": last(finite(vel_err)),
        "settling_time": settling_time(t[valid], pos, settle_threshold, settle_dwell),
        "settle_threshold": settle_threshold,
        "ss_pos_rms": rms(finite(pos_err[ss_mask])),
        "ss_vel_rms": rms(finite(vel_err[ss_mask])),
        "raw_pos_rms": rms(finite(raw_err[ss_mask])),
    }


def _log_error_slope(t, total_err, t_end: float) -> float:
    # Exact-to-machine-zero samples carry no slope information; drop them.
    mask = (t <= t_end) & (total_err > 0.0)
    if np.count_nonzero(mask) < 2:
        return float("nan")
    return float(np.polyfit(t[mask], np.log(total_err[mask]), 1)[0])


def _step_count(sc: Scenario) -> int:
    n = int(round(sc.duration * sc.imu_rate))
    if n < 1:
        raise ValueError("duration too short for one IMU step")
    return n


def truth_track(sc: Scenario) -> TruthTrack:
    """Step the scenario's truth once over every IMU sample of its run.

    The track depends only on the trajectory (``omega_fn``, ``accel_fn``, the
    initial state, gravity) and the sampling (``imu_rate``, the step count),
    never on the seed, noise or biases, so one track serves every seed of a
    sweep.  Each step is ``propagate_truth`` over [t_k, t_k+1]; its time
    stays exactly t_k+1, because t_k+1 - t_k is exact (Sterbenz).
    """
    n = _step_count(sc)
    t = np.arange(n + 1) / sc.imu_rate
    truth = replace(sc.truth, time=0.0)
    rot = np.empty((n + 1, 3, 3))
    pos = np.empty((n + 1, 3))
    vel = np.empty((n + 1, 3))
    rot[0], pos[0], vel[0] = truth.nav.rot.m, truth.nav.pos, truth.nav.vel
    for k in range(n):
        truth = propagate_truth(truth, float(t[k + 1] - t[k]))
        rot[k + 1], pos[k + 1], vel[k + 1] = truth.nav.rot.m, truth.nav.pos, truth.nav.vel
    times = t.tolist()
    return TruthTrack(
        omega_fn=truth.omega_fn,
        accel_fn=truth.accel_fn,
        gravity=truth.gravity,
        imu_rate=sc.imu_rate,
        n=n,
        rot=rot,
        pos=pos,
        vel=vel,
        omega=[truth.omega_fn(tk) for tk in times],
        accel=[truth.accel_fn(tk) for tk in times],
    )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_track(track: TruthTrack, sc: Scenario) -> None:
    truth, nav = sc.truth, sc.truth.nav
    same = {
        "omega_fn": track.omega_fn == truth.omega_fn,
        "accel_fn": track.accel_fn == truth.accel_fn,
        "initial rotation": _same_bits(track.rot[0], nav.rot.m),
        "initial position": _same_bits(track.pos[0], nav.pos),
        "initial velocity": _same_bits(track.vel[0], nav.vel),
        "gravity": _same_bits(track.gravity, truth.gravity),
        "imu_rate": track.imu_rate == sc.imu_rate,
        "n": track.n == _step_count(sc),
    }
    differ = [name for name, ok in same.items() if not ok]
    if differ:
        raise ValueError(f"truth track does not fit the scenario: {', '.join(differ)} differ")


def run_scenario(
    sc: Scenario,
    gains: Gains,
    *,
    track: TruthTrack | None = None,
    settle_threshold: float = 0.5,
    settle_dwell: float = 5.0,
) -> SimResult:
    """Run the observer closed-loop against the synthetic truth.

    Deterministic: the result depends only on (scenario, gains).  The truth
    comes from ``track``, built by ``truth_track(sc)`` when omitted; a sweep
    builds it once and hands it to every seed.  A track whose definition
    differs from the scenario's raises ValueError.  The summary reports final
    errors, settling time, steady-state RMS over the last third of the run,
    the raw TDOA RMS over the same window, and the slope of
    log(att+pos+vel error) over the first half (negative = converging).
    """
    if track is None:
        track = truth_track(sc)
    else:
        _check_track(track, sc)
    n = track.n
    t = np.arange(n + 1) / sc.imu_rate
    times = t.tolist()
    truth = sc.truth
    noise = truth.noise
    # n + 1 samples: the trailing one lets a dataset export carry the final step length.
    imu_stream = [
        _noisy_imu(noise, truth.seed, tk, w + truth.b_omega, f + truth.b_a, r.T @ sc.ref.mag_ref)
        for tk, w, f, r in zip(times, track.omega, track.accel, track.rot)
    ]
    frames: dict = {}
    tdoa_next, tdoa_period = 0.0, 1.0 / sc.tdoa_rate
    for k in range(n):
        if times[k] >= tdoa_next - 1e-9:
            tdoa_next += tdoa_period
            frames[k] = synthesize_tdoa(
                track.pos[k], _TrackRotation(track.rot[k]), sc.anchors, sc.tag_offset, noise.tdoa_sd,
                seed=(truth.seed, _STREAM_TDOA, k), timestamp=times[k],
            )
    est, _, (R, P, V, b_omega_hat, b_a_hat, raw_pos) = _run_stream(
        sc.estimate, imu_stream, frames, sc.anchors, gains, np.diff(t).tolist(), ref=sc.ref, step=step
    )
    att, pos, vel = _nav_errors(track.rot, track.pos, track.vel, R, P, V)
    b_om = _norms(truth.b_omega - b_omega_hat)
    b_a = _norms(truth.b_a - b_a_hat)
    raw_err = _norms(raw_pos - track.pos)

    summary = {
        "scenario": sc.name,
        "seed": sc.truth.seed,
        "duration": sc.duration,
        "steps": n,
        "final_b_omega_err": float(b_om[-1]),
        "final_b_a_err": float(b_a[-1]),
        "log_error_slope": _log_error_slope(t, att + pos + vel, 0.5 * sc.duration),
        **error_summary(t, att, pos, vel, raw_err, sc.duration, settle_threshold, settle_dwell),
        "tdoa_frames": len(frames),
        "tdoa_failures": est.tdoa_failures,
        "triad_failures": est.triad_failures,
    }
    return SimResult(
        scenario=sc,
        t=t,
        att_err=att,
        pos_err=pos,
        vel_err=vel,
        b_omega_err=b_om,
        b_a_err=b_a,
        truth_rot=track.rot,
        truth_pos=track.pos,
        truth_vel=track.vel,
        est_pos=P,
        est_vel=V,
        raw_pos=raw_pos,
        raw_err=raw_err,
        imu=imu_stream,
        frames=frames,
        final_state=est,
        summary=summary,
    )
