"""Nonlinear deterministic navigation observer on SE2(3) with bias estimation.

One discrete step does:

1.  predict  Xhat+ = Xhat @ exp(Uhat dt) with the bias-corrected IMU element
    Uhat = u([gyro - b_omega_hat]_x, 0, accel - b_a_hat, 1);
2.  reconstruct the position fix P_y from the TDOA frame, if one arrived;
3.  build the vector triads and form the misalignment innovation
    sum_i s_i (v_i x vhat_i);
4.  update both bias estimates by explicit Euler and assemble the correction
    terms w_omega, w_V, w_a;
5.  correct  Xhat = exp(-u([w_omega]_x, w_V, w_a - g, 1) dt) @ Xhat+.

All correction terms are evaluated at the incoming state, the one the
measurements were taken against; only the group correction in step 5 acts on
the predicted element.  Evaluating at the predicted state instead would leave
a permanent g dt^2/2 position innovation at equilibrium.

Between TDOA frames the observer dead-reckons: w_V, w_a and the accelerometer
bias update are suspended while the attitude correction and gyro-bias update
keep running (gravity is still integrated through the correction element's
acceleration column).  A TDOA solve failure degrades to the same
dead-reckoning behaviour and is counted, never raised.

``step`` runs on the raw blocks of the state: R, P and V are packed into one
5x5 matrix, both exponentials are built from their (omega, v, a, rho) blocks
by ``liegroup._se23_exp``, and no ``TangentElement`` or intermediate state is
made.  Validation sits at the boundary.  On entry: the step length, a frame
needing an anchor set, and a finite bias-corrected IMU element.  On the
measurements, the checks of ``TdoaFrame``/``solve_frame`` and of the
``TriadPair`` that ``build_triads`` returns (unit rows, v3 orthogonal to v1
and v2, weights non-negative and summing to 3).  On the result, the
constructors of the returned state: the rotation on SO(3), finite position,
velocity and biases.  A state that diverges therefore surfaces as a
ValueError.  The kernel performs the floating-point operations of the
dataclass composition in the same order, so its states are bit-identical to
it (see tests/test_observer.py).

``_run_stream`` is the one loop over a stream, shared by ``sim`` and
``replay``: their inputs are built before it, it records the estimates as
arrays, and the errors come after it from those arrays (``_nav_errors``,
``_norms``; ``error_metrics`` is their one-row form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import (
    NavState,
    Rotation,
    _ZERO3,
    _all_finite,
    _pack,
    _se23_exp,
    att_dist,
    reorthonormalize,
    se23_exp,  # noqa: F401  step runs _se23_exp; navbench traces calls at this name
    skew,
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
from .tdoa import AnchorSet, GeometryDegenerate, TdoaFrame, solve_frame

__all__ = [
    "Gains",
    "ObserverState",
    "ErrorMetrics",
    "GainReport",
    "step",
    "error_metrics",
    "lyapunov_l1",
    "validate_gains",
]

# How often (in steps) the attitude estimate is projected back onto SO(3).
REORTH_INTERVAL = 1000


@dataclass(frozen=True)
class Gains:
    """Observer gains; defaults are a flight-tested tuning for room-scale UWB."""

    k_omega: float = 3.0
    k_v: float = 2.0
    k_a: float = 70.0
    gamma_omega: float = 0.1
    gamma_a: float = 2.0

    def __post_init__(self):
        for name in ("k_omega", "k_v", "k_a", "gamma_omega", "gamma_a"):
            val = float(getattr(self, name))
            if not (np.isfinite(val) and val > 0.0):
                raise ValueError(f"gain {name} must be positive, got {val}")
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class ObserverState:
    """Estimated navigation state plus the two bias estimates.

    ``tdoa_failures`` / ``triad_failures`` count steps that degraded to dead
    reckoning because a measurement could not be used.
    """

    nav: NavState
    b_omega_hat: np.ndarray
    b_a_hat: np.ndarray
    step_count: int = 0
    tdoa_failures: int = 0
    triad_failures: int = 0

    def __post_init__(self):
        object.__setattr__(self, "b_omega_hat", np.asarray(self.b_omega_hat, dtype=float))
        object.__setattr__(self, "b_a_hat", np.asarray(self.b_a_hat, dtype=float))
        if not (_all_finite(self.b_omega_hat) and _all_finite(self.b_a_hat)):
            raise ValueError("bias estimates must be finite")

    @classmethod
    def cold_start(cls, pos=(0.0, 0.0, 0.0), vel=(0.0, 0.0, 0.0), rot=None) -> "ObserverState":
        """Zero biases, given initial position/velocity, identity attitude by default."""
        rot = Rotation.identity() if rot is None else rot
        return cls(
            nav=NavState(rot, np.asarray(pos, dtype=float), np.asarray(vel, dtype=float)),
            b_omega_hat=np.zeros(3),
            b_a_hat=np.zeros(3),
        )


@dataclass(frozen=True)
class ErrorMetrics:
    """Estimation errors against a known truth."""

    att_err: float
    pos_err: float
    vel_err: float
    b_omega_err: float = 0.0
    b_a_err: float = 0.0


def _correction_terms(R, P, V, triads: TriadPair | None, p_y, gains: Gains):
    """Raw correction vectors at the given state.

    ``triads`` may be None (no usable accel/mag pair: attitude correction
    suspended); ``p_y`` may be None (no position fix: dead reckoning).
    """
    if triads is not None:
        vhat = predicted_body_vectors(R, triads)
        body_sum, inertial_sum = attitude_innovation(triads, vhat, R)
        w_omega = -0.5 * gains.k_omega * inertial_sum
        b_omega_dot = -0.5 * gains.gamma_omega * body_sum
    else:
        w_omega = np.zeros(3)
        b_omega_dot = np.zeros(3)
    if p_y is not None:
        e = p_y - P
        W = skew(w_omega)
        w_v = -gains.k_v * e - W.dot(P)
        w_a = -gains.k_a * e - W.dot(V)
        b_a_dot = -gains.gamma_a * (R.T @ e)
    else:
        w_v = np.zeros(3)
        w_a = np.zeros(3)
        b_a_dot = np.zeros(3)
    return w_omega, w_v, w_a, b_omega_dot, b_a_dot


def step(
    state: ObserverState,
    imu: ImuSample,
    frame: TdoaFrame | None,
    anchors: AnchorSet | None,
    gains: Gains,
    dt: float,
    *,
    ref: ReferenceVectors = ReferenceVectors(),
    weights=None,
    reorth_every: int = REORTH_INTERVAL,
) -> ObserverState:
    """Advance the observer by one IMU period.

    Parameters
    ----------
    frame, anchors
        The TDOA frame that arrived during this period (or None) and the
        anchor geometry to solve it against.
    ref, weights
        Inertial reference directions and triad confidence weights used for
        the attitude innovation.
    dt
        Step length in (0, 0.1] seconds.

    A failed TDOA solve or a degenerate triad never raises; the affected
    correction is suspended for this step and the failure is counted on the
    returned state.  Raises ValueError for a bad ``dt``, a frame without
    anchors, invalid ``weights``, a non-finite bias-corrected IMU element, or
    a result that is not a valid state (rotation off SO(3), non-finite
    position, velocity or bias).
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must be in (0, 0.1] s, got {dt}")
    if frame is not None and anchors is None:
        raise ValueError("a TDOA frame was supplied without an anchor set")
    nav = state.nav
    R, P, V = nav.rot.m, nav.pos, nav.vel
    b_omega_hat, b_a_hat = state.b_omega_hat, state.b_a_hat
    omega = imu.gyro - b_omega_hat
    acc = imu.accel - b_a_hat
    if not (_all_finite(omega) and _all_finite(acc)):
        raise ValueError(f"bias-corrected IMU element must be finite, got {omega}, {acc}")

    # Predict with the bias-corrected IMU element u([omega]_x, 0, acc, 1).
    Xp = _pack(R, P, V).dot(_se23_exp(omega, _ZERO3, acc, 1.0, dt))

    # Position fix, if a frame arrived and solves.
    p_y = None
    tdoa_failures = state.tdoa_failures
    if frame is not None:
        try:
            p_y = solve_frame(anchors, frame).p
        except (GeometryDegenerate, ValueError):
            tdoa_failures += 1

    triad_failures = state.triad_failures
    try:
        triads = build_triads(imu, ref, weights)
    except TriadDegenerate:
        triads = None
        triad_failures += 1

    w_omega, w_v, w_a, b_omega_dot, b_a_dot = _correction_terms(
        R, P, V, triads, p_y, gains
    )

    # Correct with u(-[w_omega]_x, -w_V, -(w_a - g), -1); the acceleration
    # column carries g so gravity is always integrated, with or without a
    # position fix.
    X = _se23_exp(-w_omega, -w_v, -(w_a - ref.gravity), -1.0, dt).dot(Xp)

    count = state.step_count + 1
    Rnew = X[:3, :3]
    if reorth_every and count % reorth_every == 0:
        Rnew = reorthonormalize(Rnew)
    return ObserverState(
        nav=NavState(Rotation(Rnew), X[:3, 3], X[:3, 4]),
        b_omega_hat=b_omega_hat + dt * b_omega_dot,
        b_a_hat=b_a_hat + dt * b_a_dot,
        step_count=count,
        tdoa_failures=tdoa_failures,
        triad_failures=triad_failures,
    )


def _run_stream(state, samples, frames, anchors, gains, dts, *, ref, step):
    """Step the observer over a stream: the one loop that calls ``step``.

    Step k takes ``samples[k]``, ``frames.get(k)`` and ``dts[k]``; a dt outside
    (0, 0.1] keeps the state and is counted as skipped.  A taken step's frame
    is solved here for the raw-fix column, and again inside ``step``, which is
    the caller's own binding (the name the benchmark times).  Returns the final
    state, the skipped count and the arrays (R, P, V, b_omega_hat, b_a_hat,
    fix), one row per sample from the initial state on; ``fix`` is NaN where
    no frame solved.
    """
    m = len(dts) + 1
    R = np.empty((m, 3, 3))
    P, V, b_omega_hat, b_a_hat = np.empty((4, m, 3))
    fix = np.full((m, 3), np.nan)
    skipped = 0
    for k in range(m):
        nav = state.nav
        R[k], P[k], V[k] = nav.rot.m, nav.pos, nav.vel
        b_omega_hat[k], b_a_hat[k] = state.b_omega_hat, state.b_a_hat
        if k == m - 1:
            break
        dt = dts[k]
        if not 0.0 < dt <= 0.1:
            skipped += 1
            continue
        frame = frames.get(k)
        if frame is not None:
            try:
                fix[k] = solve_frame(anchors, frame).p
            except (GeometryDegenerate, ValueError):
                pass
        state = step(state, samples[k], frame, anchors, gains, dt, ref=ref)
    return state, skipped, (R, P, V, b_omega_hat, b_a_hat, fix)


def _norms(d):
    """Row norms of d (m, 3), bit for bit those of ``np.linalg.norm`` on each row.

    ``np.linalg.norm(d, axis=1)`` sums the squares in another order.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None]).reshape(-1))


def _nav_errors(rot, pos, vel, R, P, V):
    """Per-row attitude, position and velocity errors of (R, P, V) against truth.

    Each row is bit for bit ``error_metrics`` (an ``einsum`` trace would not
    be); a NaN truth row gives NaN errors.
    """
    att = 0.25 * (3.0 - np.trace(rot @ R.transpose(0, 2, 1), axis1=1, axis2=2))
    return att, _norms(pos - P), _norms(vel - V)


def error_metrics(truth: NavState, state: ObserverState, b_omega=None, b_a=None) -> ErrorMetrics:
    """Errors of the estimate against truth: Rtilde = R Rhat^T, norms elsewhere."""
    nav = state.nav
    rows = (truth.rot.m, truth.pos, truth.vel, nav.rot.m, nav.pos, nav.vel)
    att, pos, vel = _nav_errors(*(a[None] for a in rows))
    b_omega = np.zeros(3) if b_omega is None else np.asarray(b_omega, dtype=float)
    b_a = np.zeros(3) if b_a is None else np.asarray(b_a, dtype=float)
    b_err = _norms(np.array([b_omega - state.b_omega_hat, b_a - state.b_a_hat]))
    return ErrorMetrics(*(float(x) for x in (att[0], pos[0], vel[0], *b_err)))


def lyapunov_l1(triads: TriadPair, Rtilde, b_omega_err, gains: Gains) -> float:
    """Attitude-subsystem Lyapunov value 2||M_r Rtilde||_I + ||b_tilde||^2 / (2 gamma)."""
    M = weighted_matrix(triads)
    Rtilde = Rtilde.m if isinstance(Rtilde, Rotation) else np.asarray(Rtilde, dtype=float)
    b = np.asarray(b_omega_err, dtype=float)
    return 2.0 * float(att_dist(Rtilde, M)) + float(b @ b) / (2.0 * gains.gamma_omega)


@dataclass(frozen=True)
class GainReport:
    """Result of the quadratic-form gain certificate."""

    passed: bool
    delta: float
    bound: float
    margin: float
    q4_positive: bool
    q6_positive: bool
    q4_eigenvalues: np.ndarray
    q6_eigenvalues: np.ndarray


def validate_gains(gains: Gains, delta: float) -> GainReport:
    """Certify (k_v, k_a, delta) against the convergence conditions.

    Checks delta < 4 k_v / (k_v^2 + 4 k_a) and positive definiteness of

        Q4 = [[1/2, -delta/2], [-delta/2, 1/(2 k_a)]]
        Q6 = [[k_v - delta k_a, -delta k_v / 2], [-delta k_v / 2, delta]]

    ``delta`` is an analysis parameter, not a runtime gain: any value in the
    open interval (0, bound) certifies the gain pair.
    """
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    k_v, k_a = gains.k_v, gains.k_a
    bound = 4.0 * k_v / (k_v**2 + 4.0 * k_a)
    q4 = np.array([[0.5, -delta / 2.0], [-delta / 2.0, 1.0 / (2.0 * k_a)]])
    q6 = np.array(
        [[k_v - delta * k_a, -delta * k_v / 2.0], [-delta * k_v / 2.0, delta]]
    )
    q4_eig = np.linalg.eigvalsh(q4)
    q6_eig = np.linalg.eigvalsh(q6)
    q4_pos = bool(np.all(q4_eig > 0.0))
    q6_pos = bool(np.all(q6_eig > 0.0))
    passed = bool(delta < bound and q4_pos and q6_pos)
    return GainReport(
        passed=passed,
        delta=delta,
        bound=float(bound),
        margin=float(bound - delta),
        q4_positive=q4_pos,
        q6_positive=q6_pos,
        q4_eigenvalues=q4_eig,
        q6_eigenvalues=q6_eig,
    )
