"""Ground-truth propagation and synthetic measurement generation.

The true kinematics  Rdot = R [Omega]_x,  Pdot = V,  Vdot = R a + g  are the
group equation Xdot = X U - G X with U = u([Omega]_x, 0, a, 1) and the
constant G = u(0, 0, -g, 1).  For inputs held over a step this integrates
exactly as

    X(t + dt) = exp(-G dt) @ X(t) @ exp(U dt),

so the simulator samples Omega and a at the interval midpoint and applies the
sandwich step: exact for constant inputs, second-order accurate otherwise,
and SO(3) is preserved to machine precision.

Everything is deterministic: each sample's measurement noise is what a
generator seeded by (scenario seed, stream tag, sample time/index) draws, so
a run, and any CSV export of it, replays bit-identically.  The keys are
numpy's ``default_rng`` keys; ``_pcg64_states`` derives the generator states
for a whole stream at once (numpy's SeedSequence hash and PCG64 seeding, on
arrays), and ``_standard_normals`` draws every sample from one re-seeded
generator, with the bits ``default_rng(key)`` would give.  ``_noisy_table``
adds that noise to the sim's IMU readings and replay's synthesized magnetometer.

The truth depends on the trajectory alone, never on the seed.
``truth_track`` steps it once over every IMU sample into a read-only
``TruthTrack``, and ``run_scenario`` runs on a track (building one when none
is given), adding per seed only what the seed changes: IMU and TDOA noise,
biases, the magnetometer reading, the observer and its errors.  A seed
sweep (``uwbnav sim --runs N``) therefore integrates its truth once.

``TruthModel`` and ``Scenario`` check their inputs when built.  One checked
walk, ``_walk_truth``, makes the sandwich steps: ``truth_track`` runs it over
the IMU grid, and ``propagate_truth`` is its one-step case.

Per seed, ``run_scenario`` builds the IMU table (``_imu_stream``, of which
``synthesize_imu`` is the one-sample case) and the TDOA table
(``_tdoa_table``: every frame in one pass, with ``synthesize_tdoa``'s range
differences and frame k's noise keyed (seed, 1, k), the bits
``default_rng((seed, 1, k)).normal`` draws) before the loop: the tables an
export writes and replay loads.  ``_run_and_score``, which
``replay.run_replay`` calls too, steps the observer over them (the one loop
over a stream) and scores the stacked estimates against the truth, into a
``RunResult``; ``SimResult`` extends it with what only a sim has.  The
presets fly their trajectory under the scenario's gravity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .liegroup import (
    NavState,
    Rotation,
    _as_vec3,
    _check_so3,
    _compose,
    _norms,
    _se23_exp,
    _trusted,
    se23_exp,  # noqa: F401  _walk_truth runs _se23_exp; navbench traces calls at this name
    so3_exp,
)
from .observer import _DT_MAX, Gains, ObserverState, _carried, _check_dt, _nav_errors, step
from .observer import error_metrics  # noqa: F401  run_scenario batches the errors; navbench traces this name
from .sensors import ImuSample, ReferenceVectors, _body_rows_table
from .tdoa import Anchor, AnchorSet, GeometryDegenerate, TdoaFrame, _range_differences, solve_frame
from .tdoa import synthesize_tdoa  # noqa: F401  _tdoa_table makes the frames; navbench traces this name

__all__ = [
    "SensorNoise",
    "TruthModel",
    "TruthTrack",
    "Scenario",
    "RunResult",
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
_STREAM_MAG = 2

# The position-error settling rule a run's summary reports, for sim and replay.
_SETTLE_THRESHOLD = 0.5  # m
_SETTLE_DWELL = 5.0  # s


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


@dataclass(frozen=True, eq=False)
class TruthModel:
    """Exact vehicle state plus the measurement imperfections.

    ``omega_fn(t)`` and ``accel_fn(t)`` give the body-frame angular rate and
    specific force driving the kinematics; ``b_omega``/``b_a`` are the
    constant sensor biases added to the synthesized measurements.  Both
    biases and ``gravity`` are checked as finite 3-vectors.
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
        for name in ("b_omega", "b_a", "gravity"):
            object.__setattr__(self, name, _as_vec3(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class TruthTrack:
    """The noiseless truth of a trajectory at every IMU sample t_k = k / imu_rate.

    ``rot`` (n+1, 3, 3), ``pos`` and ``vel`` (n+1, 3) are the true state, row 0
    the initial one and each later row stepped from the one before by
    ``_walk_truth``, of which ``propagate_truth`` is the one-step case;
    ``omega`` and ``accel`` (n+1, 3) are ``omega_fn(t_k)`` and
    ``accel_fn(t_k)``.  The arrays are read-only copies.  ``omega_fn``,
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


def _walk_truth(nav: NavState, time: float, dts: list, omega_fn, accel_fn, gravity) -> np.ndarray:
    """The truth stepped from ``nav`` at ``time`` over each step length of ``dts``.

    Returns the (len(dts) + 1, 15) stack of top blocks [R P V] (R row-major,
    then P and V), row 0 ``nav``.  Each step is (exp(-G dt) X) exp(U dt), two
    ``liegroup._compose`` products on the floats carried from the step before,
    U from the ``omega_fn``/``accel_fn`` samples at the step's midpoint; the
    gravity factor exp(-G dt) is built once per distinct dt.  It checks what it
    takes in and makes: every dt, each midpoint sample, each new rotation on
    SO(3) and each new position and velocity.
    """
    _check_dt(min(dts))
    _check_dt(max(dts))
    gravity_factors = {dt: _se23_exp((0.0, 0.0, 0.0), None, (-gravity).tolist(), 1.0, -dt) for dt in set(dts)}
    X = (*nav.rot.m.ravel().tolist(), *nav.pos.tolist(), *nav.vel.tolist())
    out = np.empty((len(dts) + 1, 15))
    out[0] = X
    for k, dt in enumerate(dts, 1):
        mid = time + 0.5 * dt
        omega = _as_vec3(omega_fn(mid), "omega_fn(t)").tolist()
        accel = _as_vec3(accel_fn(mid), "accel_fn(t)").tolist()
        X = _compose(_compose(gravity_factors[dt], X, 0.0), _se23_exp(omega, None, accel, 1.0, dt), dt)
        _check_so3(*X[:9])
        if not all(map(math.isfinite, X[9:])):
            raise ValueError(f"true position and velocity must be finite, got {np.array(X[9:12])}, {np.array(X[12:])}")
        out[k] = X
        time += dt
    return out


def propagate_truth(t: TruthModel, dt: float) -> TruthModel:
    """One exact Lie-group step of the true kinematics over [time, time+dt]: the walk's one-step case."""
    X = _walk_truth(t.nav, t.time, [dt], t.omega_fn, t.accel_fn, t.gravity)[1]
    nav = _trusted(NavState, rot=_trusted(Rotation, m=X[:9].reshape(3, 3)), pos=X[9:12], vel=X[12:])
    return replace(t, nav=nav, time=t.time + dt)


def synthesize_imu(t: TruthModel, time: float, ref: ReferenceVectors | None = None) -> ImuSample:
    """Biased, noisy IMU measurement of the truth at the given time.

    gyro  = Omega + b_omega + n,  accel = specific force + b_a + n,
    mag   = R^T m_r + n.  The noise draw depends only on (seed, time), so a
    repeated call is bit-identical.
    """
    ref = ReferenceVectors() if ref is None else ref
    gyro = _as_vec3(t.omega_fn(time) + t.b_omega, "gyro")
    accel = _as_vec3(t.accel_fn(time) + t.b_a, "accel")
    row = _imu_stream(t.noise, t.seed, [float(time)], gyro[None], accel[None], [t.nav.rot.m], ref.mag_ref)[0]
    return _trusted(ImuSample, timestamp=float(time), gyro=row[1:4], accel=row[4:7], mag=row[7:10])


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _entropy_words(keys) -> tuple:
    """The ints of each key as little-endian uint32 words, as SeedSequence splits them.

    Returns the (m, a, w) words of the (m, a) keys, zero-padded to the most
    words any int has, and the (m, a) word counts (0 is one word).  A
    negative int raises the ValueError numpy raises.
    """
    try:
        rest = np.array(keys, dtype=np.int64)
    except OverflowError:
        rest = np.array(keys, dtype=object)
    rest = rest.reshape(len(keys), -1)
    if (rest < 0).any():
        raise ValueError("expected non-negative integer")
    words, counts = [], np.ones(rest.shape, dtype=np.int64)
    while True:
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
        more = rest > 0
        if not more.any():
            return np.stack(words, axis=2), counts
        counts += more


def _generate_state(entropy: np.ndarray) -> list:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of the (m, L) uint32 ``entropy``.

    The pool of 4 words is mixed as SeedSequence mixes it, every row at
    once; the result is the four uint64 columns.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    n_words = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # Little-endian pairs of uint32 words make the uint64 words.
    return [state[2 * i] | state[2 * i + 1] << np.uint64(32) for i in range(4)]


def _pcg64_seed(seed_hi: int, seed_lo: int, inc_hi: int, inc_lo: int) -> tuple:
    """PCG64's set-seed step: the (state, inc) it makes of the four uint64 seed words."""
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    return ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _pcg64_states(keys):
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(key)`` starts from, for each key, in order.

    A key is a tuple of non-negative ints, every key of one length.  Each
    int becomes its uint32 words as numpy splits it, and the keys with as
    many words run SeedSequence's hash together on uint32 columns; a
    negative int raises the ValueError numpy raises, at the call.  The
    states come as an iterator: PCG64's set-seed step runs on Python ints,
    one key at a time, so no stream's worth of 128-bit ints is ever held.
    """
    seed_words = np.empty((len(keys), 4), dtype=np.uint64)
    if len(keys):
        words, counts = _entropy_words(keys)
        # Row-major, a key's used words are its entropy: its ints' words in order.
        used = np.arange(words.shape[2]) < counts[:, :, None]
        lengths = counts.sum(axis=1)
        for n_words in set(lengths.tolist()):
            rows = np.flatnonzero(lengths == n_words)
            entropy = words[rows][used[rows]].reshape(len(rows), n_words)
            seed_words[rows] = np.stack(_generate_state(entropy), axis=1)
    return (_pcg64_seed(*row.tolist()) for row in seed_words)


def _standard_normals(keys, width: int) -> np.ndarray:
    """Row i holds the first ``width`` standard normals of ``np.random.default_rng(keys[i])``.

    One generator is made and re-seeded per key from ``_pcg64_states``.
    """
    z = np.empty((len(keys), width))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (pcg["state"], pcg["inc"]) in zip(z, _pcg64_states(keys)):
        bits.state = state
        gen.standard_normal(out=row)
    return z


def _noisy_table(times, readings: list, sds, seed: int, stream: int, ticks, what: str) -> np.ndarray:
    """The table t, readings at ``times``: each (n, w) reading plus its seeded noise.

    Sample i's noise is what a generator keyed by (seed, stream, tick i)
    draws, ``ticks`` read only when a sd is positive: for each reading in
    turn whose sd is positive, as ``normal(0, sd, w)`` returns it.  A sample
    with a reading that is not finite raises ValueError naming ``what``.
    """
    readings = list(readings)
    drawn = [i for i, sd in enumerate(sds) if sd > 0.0]
    if drawn:
        widths = [readings[i].shape[1] for i in drawn]
        z = _standard_normals([(int(seed), stream, tick) for tick in ticks], sum(widths))
        # normal(0, sd) returns 0.0 + sd * z, scaled in C where an overflow is
        # silent; a reading it spoils is refused below.
        with np.errstate(over="ignore"):
            draws = 0.0 + np.repeat([sds[i] for i in drawn], widths) * z
        for i, part in zip(drawn, np.split(draws, np.cumsum(widths)[:-1], axis=1)):
            readings[i] = readings[i] + part
    table = np.column_stack([times, *readings])
    finite = np.isfinite(table[:, 1:]).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{what} must be finite, got {', '.join(str(r[k]) for r in readings)} at t = {times[k]}")
    return table


def _imu_stream(noise: SensorNoise, seed: int, times: list, gyro, accel, rot, mag_ref) -> np.ndarray:
    """The (n, 10) IMU table t, gyro, accel, mag at ``times``: the biased readings plus their seeded noise.

    ``gyro`` and ``accel`` are the (n, 3) biased readings, ``rot`` the n true
    rotations and ``times`` n floats.  Sample k's noise is keyed by (seed,
    time in ns); the finiteness check is the one ``ImuSample`` would make.
    """
    mag = np.transpose(rot, (0, 2, 1)) @ mag_ref  # every R^T m_r in one stacked product
    sds = (noise.gyro_sd, noise.accel_sd, noise.mag_sd)
    ticks = (round(tk * 1e9) for tk in times)
    return _noisy_table(times, [gyro, accel, mag], sds, seed, _STREAM_IMU, ticks, "IMU readings")


def default_anchors() -> AnchorSet:
    """Eight anchors on the vertices of a 8 m x 8 m x 4 m box."""
    verts = [
        (x, y, z)
        for x in (-4.0, 4.0)
        for y in (-4.0, 4.0)
        for z in (0.0, 4.0)
    ]
    return AnchorSet(tuple(Anchor(id=i + 1, pos=np.array(v)) for i, v in enumerate(verts)))


@dataclass(eq=False)
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
        for name in ("duration", "imu_rate", "tdoa_rate"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        self.tag_offset = _as_vec3(self.tag_offset, "tag_offset")


# --- preset trajectories ---------------------------------------------------


class _Preset:
    """A preset trajectory flown under one gravity, yawing at ``w`` rad/s.

    ``_preset(name, gravity)`` makes one instance per preset and gravity (by
    its bits) and keeps it, so the ``omega``/``accel`` methods bound into every
    seed's scenario compare equal, and one ``TruthTrack`` fits every seed.
    """

    name = ""
    w = 0.0

    def __init__(self, gravity: np.ndarray):
        self.g = gravity

    def rot(self, t: float) -> np.ndarray:
        return so3_exp(np.array([0.0, 0.0, self.w]), t)

    def omega(self, _t: float) -> np.ndarray:
        return np.array([0.0, 0.0, self.w])


def _preset(name: str, gravity) -> _Preset:
    gravity = np.array(gravity, dtype=float)
    key = (name, gravity.tobytes())
    if key not in _PRESET_INSTANCES:
        gravity.setflags(write=False)
        _PRESET_INSTANCES[key] = _PRESETS[name](gravity)
    return _PRESET_INSTANCES[key]


class _StaticHover(_Preset):
    """Omega = 0, specific force exactly cancelling gravity."""

    name = "static"

    def accel(self, _t: float) -> np.ndarray:
        return -self.g


class _YawCircle(_Preset):
    """Constant-rate yaw while flying a horizontal circle."""

    name = "yaw_circle"
    w = 0.5
    r = 1.5  # radius, m
    center = np.array([0.0, 0.0, 1.5])

    def pos(self, t: float) -> np.ndarray:
        a = self.w * t
        return self.center + self.r * np.array([math.cos(a), math.sin(a), 0.0])

    def vel(self, t: float) -> np.ndarray:
        a = self.w * t
        return self.r * self.w * np.array([-math.sin(a), math.cos(a), 0.0])

    def accel(self, t: float) -> np.ndarray:
        a = self.w * t
        vdot = -self.r * self.w**2 * np.array([math.cos(a), math.sin(a), 0.0])
        return self.rot(t).T @ (vdot - self.g)


class _FigureEight(_Preset):
    """Lissajous figure-eight (x at nu, y at 2 nu) with a gentle yaw rate.

    The yaw rate is constant so the true attitude has the closed form
    R(t) = exp([0,0,yaw_rate]_x t), which makes the synthesized specific
    force exact.
    """

    name = "figure8"
    w = 0.3
    center = np.array([1.237, 0.124, 1.534])
    ax, ay, az = 2.0, 1.5, 0.3  # amplitudes, m
    nu = 0.5  # x frequency, rad/s

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

    def accel(self, t: float) -> np.ndarray:
        return self.rot(t).T @ (self.vdot(t) - self.g)


_PRESETS = {cls.name: cls for cls in (_StaticHover, _YawCircle, _FigureEight)}
_PRESET_INSTANCES: dict = {}

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
    traj = _preset(name, ref.gravity)
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
    estimate = ObserverState.cold_start(
        estimate_pos, estimate_vel, Rotation.from_rotvec(estimate_rotvec)
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


@dataclass(eq=False)
class RunResult:
    """Error series, tracks and summary of one observer run against its truth.

    ``run_replay`` returns one; a ``SimResult`` is one.  Arrays have a row per
    IMU sample (row 0 is the initial condition); rows without a benchmark
    (outside the ground-truth range), and ``raw_pos``/``raw_err`` at steps
    without a TDOA fix, hold NaN.
    """

    t: np.ndarray
    att_err: np.ndarray
    pos_err: np.ndarray
    vel_err: np.ndarray
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    est_pos: np.ndarray
    est_vel: np.ndarray
    raw_pos: np.ndarray
    raw_err: np.ndarray
    final_state: ObserverState
    summary: dict


@dataclass(eq=False)
class SimResult(RunResult):
    """One closed-loop run: the shared record, plus what only a sim has.

    ``imu`` (n_steps + 1, 10) and ``tdoa`` (frames, 1 + N) are the tables
    ``replay.export_dataset`` writes; the trailing IMU sample lets it carry
    the last step length in its timestamps.
    """

    scenario: Scenario
    b_omega_err: np.ndarray
    b_a_err: np.ndarray
    truth_rot: np.ndarray
    imu: np.ndarray
    tdoa: np.ndarray


def settling_time(t, pos_err, threshold: float, dwell: float) -> float:
    """First time pos_err dips below ``threshold`` and stays there for ``dwell`` s.

    Returns NaN when the series never settles (a dip must hold until at least
    min(t[-1], t_dip + dwell); a dip too close to the end still counts only if
    it holds through the end of the series and t[-1] >= t_dip + dwell).  ``t``
    is non-decreasing, and every sample at a dip's time must be below too.
    One pass: a dip holds when no sample from its time up to t_dip + dwell is
    at or above the threshold.
    """
    t = np.asarray(t, dtype=float)
    below = np.asarray(pos_err, dtype=float) < threshold
    if not below.any():
        return float("nan")
    end = t + dwell
    # first[i]: the first index at t[i]; next_up[j]: the time of the first sample from j on not below.
    first = np.maximum.accumulate(np.where(np.r_[True, t[1:] != t[:-1]], np.arange(len(t)), 0))
    next_up = np.minimum.accumulate(np.where(below, np.inf, t)[::-1])[::-1]
    late = t[-1] < end
    # The first dip whose window runs past the end (NaN) or holds decides.
    stop = below & (late | ~(next_up[first] <= end))
    i = int(np.argmax(stop))
    return float(t[i]) if stop[i] and not late[i] else float("nan")


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


def _run_and_score(state, imu, mags, tdoa, anchors, gains, truth, duration, settle, *, ref, step):
    """Step the observer over a stream and score the estimate against ``truth``.

    The one loop that calls ``step`` (the caller's binding, the name the
    benchmark times), for ``run_scenario`` and ``run_replay``.  ``imu`` is the
    (n+1, 7 or 10) table t, gyro, accel[, mag], ``mags`` each sample's
    magnetometer (or None), ``tdoa`` the (m, 1 + N) table t, differences, both
    with non-decreasing t, and ``truth`` (rot, pos, vel) a row per sample, NaN
    where there is no benchmark.  Step k runs on sample k over t[k+1] - t[k];
    a dt outside (0, 0.1], NaN too, keeps the state and counts as skipped.
    Each frame goes to the step that starts at or before it, the last of a
    step winning; one no taken step gets is dropped.  Rows become samples and
    frames unchecked.  A taken frame is solved once, for the raw-fix column
    and ``step``'s ``p_y`` (None if the solve failed).  Every sample's triad
    body rows are formed once, before the loop, by
    ``sensors._body_rows_table``, and each step is handed its sample's as
    ``body_rows`` (None where they do not form, which counts one triad
    failure, as in ``step``).  A ValueError from
    ``step`` (a diverged state) is raised again as a RuntimeError naming the
    step and its time, so numpy's overflow and invalid-value warnings are off.
    Each state's 21 carried floats (``observer._carried``) go into one
    preallocated (n+1, 21) array, scored in one pass after the loop; the summary
    holds ``duration`` (as given), ``steps``, ``error_summary``'s keys with
    ``settle`` as (threshold, dwell) and the TDOA frame and failure counts.
    Returns the record, the skipped-step and taken-frame counts and the gyro
    and accelerometer bias estimates, a row per sample.
    """
    t = imu[:, 0].copy()
    times, dts = t.tolist(), np.diff(t).tolist()
    n = len(dts)
    steps = np.searchsorted(t, tdoa[:, 0], side="right") - 1
    frame_rows = {k: i for i, k in enumerate(steps.tolist()) if 0 <= k < n}
    gyro, accel = imu[:, 1:4], imu[:, 4:7]
    body, formed = _body_rows_table(accel[:n], mags[:n])
    raw_pos = np.full((n + 1, 3), np.nan)
    states = np.empty((n + 1, 21))  # row k: the 21 floats step carries after step k
    states[0] = _carried(state)
    skipped = taken = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, dt in enumerate(dts):
            if not 0.0 < dt <= _DT_MAX:
                skipped += 1
                states[k + 1] = states[k]
                continue
            frame = p_y = None
            i = frame_rows.get(k)
            if i is not None:
                frame = _trusted(TdoaFrame, timestamp=float(tdoa[i, 0]), d=tdoa[i, 1:])
                taken += 1
                try:
                    p_y = raw_pos[k] = solve_frame(anchors, frame).p
                except (GeometryDegenerate, ValueError):
                    pass
            sample = _trusted(ImuSample, timestamp=times[k], gyro=gyro[k], accel=accel[k], mag=mags[k])
            body_rows = body[k].tolist() if formed[k] else None
            try:
                state = step(state, sample, frame, anchors, gains, dt, ref=ref, p_y=p_y, body_rows=body_rows)
            except ValueError as exc:
                raise RuntimeError(f"observer diverged at step {k} (t = {times[k]!r} s): {exc}") from exc
            x = state._x  # None from a step binding that returns a public state
            states[k + 1] = _carried(state) if x is None else x
    # R, P and V contiguous: a strided R can round differently in _nav_errors.
    R, P, V = (np.ascontiguousarray(a) for a in (states[:, :9].reshape(-1, 3, 3), states[:, 9:12], states[:, 12:15]))
    b_omega_hat, b_a_hat = states[:, 15:18], states[:, 18:]
    rot, pos, vel = truth
    att_err, pos_err, vel_err = _nav_errors(rot, pos, vel, R, P, V)
    raw_err = _norms(raw_pos - pos)
    summary = {
        "duration": duration,
        "steps": n,
        **error_summary(t, att_err, pos_err, vel_err, raw_err, duration, *settle),
        "tdoa_frames": len(tdoa),
        "tdoa_failures": state.tdoa_failures,
        "triad_failures": state.triad_failures,
    }
    result = RunResult(t, att_err, pos_err, vel_err, pos, vel, P, V, raw_pos, raw_err, state, summary)
    return result, skipped, taken, b_omega_hat, b_a_hat


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
    sweep.  It is ``_walk_truth`` over the steps t_k+1 - t_k, each exact
    (Sterbenz), so every row is bit for bit a ``propagate_truth`` walk.
    """
    n = _step_count(sc)
    t = np.arange(n + 1) / sc.imu_rate
    truth = sc.truth
    X = _walk_truth(truth.nav, 0.0, np.diff(t).tolist(), truth.omega_fn, truth.accel_fn, truth.gravity)
    times = t.tolist()
    return TruthTrack(
        omega_fn=truth.omega_fn, accel_fn=truth.accel_fn, gravity=truth.gravity,
        imu_rate=sc.imu_rate, n=n, rot=X[:, :9].reshape(-1, 3, 3), pos=X[:, 9:12], vel=X[:, 12:],
        omega=[truth.omega_fn(tk) for tk in times], accel=[truth.accel_fn(tk) for tk in times],
    )


def _tdoa_table(sc: Scenario, track: TruthTrack, times: list) -> np.ndarray:
    """The TDOA table t, d: a frame at each step that reaches the next 1 / tdoa_rate
    tick (the step at t = 0 always does), the tag at P + R l on the track."""
    ks, tdoa_next, tdoa_period = [], 0.0, 1.0 / sc.tdoa_rate
    for k in range(track.n):
        if times[k] >= tdoa_next - 1e-9:
            tdoa_next += tdoa_period
            ks.append(k)
    d = _range_differences(track.pos[ks] + track.rot[ks] @ sc.tag_offset, sc.anchors.positions)
    sd, seed = sc.truth.noise.tdoa_sd, sc.truth.seed
    return _noisy_table([times[k] for k in ks], [d], [sd], seed, _STREAM_TDOA, ks, "range differences")


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
    settle_threshold: float = _SETTLE_THRESHOLD,
    settle_dwell: float = _SETTLE_DWELL,
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
    times = (np.arange(track.n + 1) / sc.imu_rate).tolist()
    truth = sc.truth
    # n + 1 samples: the trailing one lets a dataset export carry the final step length.
    imu = _imu_stream(
        truth.noise, truth.seed, times, track.omega + truth.b_omega, track.accel + truth.b_a, track.rot, sc.ref.mag_ref
    )
    tdoa = _tdoa_table(sc, track, times)
    run, _, _, b_omega_hat, b_a_hat = _run_and_score(
        sc.estimate, imu, imu[:, 7:10], tdoa, sc.anchors, gains, (track.rot, track.pos, track.vel),
        sc.duration, (settle_threshold, settle_dwell), ref=sc.ref, step=step,
    )
    b_omega_err, b_a_err = _norms(truth.b_omega - b_omega_hat), _norms(truth.b_a - b_a_hat)
    run.summary.update(
        scenario=sc.name,
        seed=truth.seed,
        final_b_omega_err=float(b_omega_err[-1]),
        final_b_a_err=float(b_a_err[-1]),
        log_error_slope=_log_error_slope(run.t, run.att_err + run.pos_err + run.vel_err, 0.5 * sc.duration),
    )
    return SimResult(
        **vars(run), scenario=sc, b_omega_err=b_omega_err, b_a_err=b_a_err, truth_rot=track.rot, imu=imu, tdoa=tdoa
    )
