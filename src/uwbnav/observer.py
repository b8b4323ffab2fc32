"""Nonlinear deterministic navigation observer on SE2(3) with bias estimation.

One discrete step does:

1.  predict  Xhat+ = Xhat @ exp(Uhat dt) with the bias-corrected IMU element
    Uhat = u([gyro - b_omega_hat]_x, 0, accel - b_a_hat, 1);
2.  reconstruct the position fix P_y from the TDOA frame, if one arrived
    (or take the one the caller solved and handed over as ``p_y``); only the
    fix's position is read, so its quality is never computed;
3.  form the triads' body rows v_i (``sensors._body_rows``, as
    ``build_triads``) and the misalignment innovation sum_i s_i (v_i x vhat_i)
    in one pass, without a ``TriadPair``;
4.  form the correction terms w_omega, w_V, w_a and both bias rates on
    Python floats, and update the bias estimates by explicit Euler;
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

``step`` runs on the raw blocks of the state.  It starts from the 5x5 matrix
of R, P and V that the previous step returned: the state carries it, and its
``nav`` arrays are views of it (a reorthonormalised R is written back into
it).  A state made any other way (constructor, ``cold_start``, ``replace``,
pickle, copy) carries none, and its ``nav`` is packed once.  Both
exponentials are built from their (omega, v, a, rho) blocks by
``liegroup._se23_exp``; no ``TangentElement`` or intermediate state is
made.  Validation sits at the boundary, and each check runs once.  On entry,
before any measurement is read: the step length, a frame needing an anchor
set, the caller's triad weights (non-negative, summing to 3) and a finite
bias-corrected IMU element.  On the measurements: ``TdoaFrame`` checks its
differences when it is made and ``build_system`` their count and size; the
body rows are unit and v3 orthogonal by construction, and the reference rows
were checked once, by ``ReferenceVectors``.  On the result, from one
``X[:3].tolist()``: the rotation on SO(3) (``liegroup._check_so3``), then one
finiteness test over the position, velocity and both biases, in the order
the public constructors check them and with their messages.  The returned
``ObserverState``, its ``NavState`` and ``Rotation`` are then made from those
checked values without running the constructors again.  A state that
diverges therefore surfaces as a ValueError.

The kernel keeps ``liegroup``'s arithmetic contract: each product is one BLAS
call on the arrays the matrix form multiplies, and the sums, differences and
scalings between them run on Python floats in its order (``p_y - P``, itself
a product's operand, stays one numpy subtraction, which rounds the same).
Its states are bit-identical to the dataclass composition (see
tests/test_observer.py).

This module holds the online step, the gains, the error kernels and the
gain certificate.  The loop over a stream is ``sim._run_and_score``, the one
run-and-score routine of ``sim`` and ``replay``: it hands ``step`` each
taken frame's fix and scores the stacked estimates with ``_nav_errors`` and
``_norms`` (``error_metrics`` is their one-row form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liegroup import (
    NavState,
    Rotation,
    _ZERO3,
    _as_vec3,
    _check_so3,
    _pack,
    _se23_exp,
    att_dist,
    reorthonormalize,
    se23_exp,  # noqa: F401  step runs _se23_exp; navbench traces calls at this name
)
from .sensors import (
    ImuSample,
    ReferenceVectors,
    TriadDegenerate,
    TriadPair,
    _UNIT_WEIGHTS,
    _body_rows,
    _check_weights,
    _cross,
    build_triads,  # noqa: F401  step runs _body_rows; navbench traces calls at this name
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

_SOLVE = object()  # step's default p_y: solve the frame inside the step


_DT_MAX = 0.1  # s: every step, observer or truth, is over dt in (0, _DT_MAX]


def _check_dt(dt: float) -> None:
    # ``step`` and ``sim._run_and_score`` test the range inline: no call per step.
    if not 0.0 < dt <= _DT_MAX:
        raise ValueError(f"dt must be in (0, {_DT_MAX}] s, got {dt}")


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
        object.__setattr__(self, "b_omega_hat", _as_vec3(self.b_omega_hat, "b_omega_hat"))
        object.__setattr__(self, "b_a_hat", _as_vec3(self.b_a_hat, "b_a_hat"))
        object.__setattr__(self, "_X", None)  # no carried 5x5: step packs nav once

    def __getstate__(self):
        return {**vars(self), "_X": None}  # a pickle or copy packs its own nav

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
    p_y=_SOLVE,
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
    p_y
        The fix ``solve_frame(anchors, frame).p`` of this step's frame, when
        the caller has solved it already, or None when that solve raised
        ``GeometryDegenerate`` or ValueError (or no frame arrived); the step
        then uses it instead of solving the frame again.  By default the
        step solves the frame.

    A failed TDOA solve or a degenerate triad never raises; the affected
    correction is suspended for this step and the failure is counted on the
    returned state; a handed None counts as one.  Raises ValueError for a
    bad ``dt``, a frame without anchors, a fix handed as ``p_y`` without a frame,
    invalid ``weights``, a non-finite bias-corrected IMU element, or
    a result that is not a valid state (rotation off SO(3), non-finite
    position, velocity or bias).
    """
    if not 0.0 < dt <= _DT_MAX:
        _check_dt(dt)  # raises
    if frame is None:
        if p_y is not None and p_y is not _SOLVE:
            raise ValueError("a position fix was handed to step without its TDOA frame")
    elif anchors is None:
        raise ValueError("a TDOA frame was supplied without an anchor set")
    s = _UNIT_WEIGHTS if weights is None else _check_weights(weights)
    nav, X = state.nav, state._X
    R, P, V = nav.rot.m, nav.pos, nav.vel
    b_omega_hat, b_a_hat = state.b_omega_hat, state.b_a_hat
    omega = imu.gyro - b_omega_hat
    acc = imu.accel - b_a_hat
    if not all(map(math.isfinite, omega.tolist() + acc.tolist())):
        raise ValueError(f"bias-corrected IMU element must be finite, got {omega}, {acc}")

    # Predict with the bias-corrected IMU element u([omega]_x, 0, acc, 1).
    Xp = (_pack(R, P, V) if X is None else X).dot(_se23_exp(omega, _ZERO3, acc, 1.0, dt))

    # Position fix, if a frame arrived and solves: here, or in the caller that handed p_y.
    tdoa_failures = state.tdoa_failures
    if frame is None:
        p_y = None
    else:
        if p_y is _SOLVE:
            try:
                p_y = solve_frame(anchors, frame).p
            except (GeometryDegenerate, ValueError):
                p_y = None
        if p_y is None:
            tdoa_failures += 1

    # The correction terms at the incoming state, on Python floats: w_omega (o)
    # and the gyro-bias rate (d) from attitude_innovation's sum, suspended without
    # triads; w_V (v), w_a (a) and the accelerometer-bias rate (f) from
    # e = p_y - P, suspended without a fix.
    triad_failures = state.triad_failures
    try:
        t1, t2, t3 = _body_rows(imu)  # the body rows v_i
    except TriadDegenerate:
        triad_failures += 1
        o0 = o1 = o2 = d0 = d1 = d2 = 0.0
    else:
        h1, h2, h3 = ref.triad.dot(R).tolist()  # vhat_i = R^T r_i
        crosses = np.array((*_cross(t1, h1), *_cross(t2, h2), *_cross(t3, h3))).reshape(3, 3)
        body_sum = crosses.T.dot(s)
        k, (x0, x1, x2) = -0.5 * gains.k_omega, R.dot(body_sum).tolist()
        o0, o1, o2 = k * x0, k * x1, k * x2
        k, (x0, x1, x2) = -0.5 * gains.gamma_omega, body_sum.tolist()
        d0, d1, d2 = k * x0, k * x1, k * x2
    if p_y is None:
        v0 = v1 = v2 = a0 = a1 = a2 = f0 = f1 = f2 = 0.0
    else:
        e = p_y - P
        e0, e1, e2 = e.tolist()
        W = np.array((0.0, -o2, o1, o2, 0.0, -o0, -o1, o0, 0.0)).reshape(3, 3)  # skew(w_omega)
        k, (x0, x1, x2) = -gains.k_v, W.dot(P).tolist()
        v0, v1, v2 = k * e0 - x0, k * e1 - x1, k * e2 - x2
        k, (x0, x1, x2) = -gains.k_a, W.dot(V).tolist()
        a0, a1, a2 = k * e0 - x0, k * e1 - x1, k * e2 - x2
        # R.T @ e, not R.T.dot(e): on a strided R (a view of the last 5x5) they differ.
        k, (x0, x1, x2) = -gains.gamma_a, (R.T @ e).tolist()
        f0, f1, f2 = k * x0, k * x1, k * x2

    # Correct with u(-[w_omega]_x, -w_V, -(w_a - g), -1); the acceleration
    # column carries g so gravity is always integrated, with or without a
    # position fix.
    g0, g1, g2 = ref.gravity.tolist()
    X = _se23_exp(
        np.array((-o0, -o1, -o2)),
        np.array((-v0, -v1, -v2)),
        np.array((-(a0 - g0), -(a1 - g1), -(a2 - g2))),
        -1.0,
        dt,
    ).dot(Xp)

    count = state.step_count + 1
    Rnew = X[:3, :3]
    if reorth_every and count % reorth_every == 0:
        Rnew[:] = reorthonormalize(Rnew)
    (b0, b1, b2), (c0, c1, c2) = b_omega_hat.tolist(), b_a_hat.tolist()
    b_omega_new = (b0 + dt * d0, b1 + dt * d1, b2 + dt * d2)
    b_a_new = (c0 + dt * f0, c1 + dt * f1, c2 + dt * f2)

    # The result's checks on one unpacking of X, in its constructors' order: the
    # rotation on SO(3), then one finiteness test over position, velocity and both
    # biases (on failure the public constructors rerun it and raise with their message).
    (r0, r1, r2, p0, v0), (r3, r4, r5, p1, v1), (r6, r7, r8, p2, v2) = X[:3].tolist()
    _check_so3(r0, r1, r2, r3, r4, r5, r6, r7, r8)
    pos, vel = X[:3, 3], X[:3, 4]
    if not all(map(math.isfinite, (p0, p1, p2, v0, v1, v2, *b_omega_new, *b_a_new))):
        ObserverState(NavState(Rotation(Rnew), pos, vel), b_omega_new, b_a_new)
    # Each field set in declaration order, as __init__ sets it, so that every
    # instance dict keeps sharing its keys with its class.
    put = object.__setattr__
    rot = object.__new__(Rotation)
    put(rot, "m", Rnew)
    nav = object.__new__(NavState)
    put(nav, "rot", rot)
    put(nav, "pos", pos)
    put(nav, "vel", vel)
    out = object.__new__(ObserverState)
    put(out, "nav", nav)
    put(out, "b_omega_hat", np.array(b_omega_new))
    put(out, "b_a_hat", np.array(b_a_new))
    put(out, "step_count", count)
    put(out, "tdoa_failures", tdoa_failures)
    put(out, "triad_failures", triad_failures)
    put(out, "_X", X)  # the next step starts from X, whose blocks nav views
    return out


def _norms(d):
    """Row norms of d (m, k), bit for bit those of ``np.linalg.norm`` on each row.

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
