"""Nonlinear deterministic navigation observer on SE2(3) with bias estimation.

One discrete step does:

1.  predict  Xhat+ = Xhat @ exp(Uhat dt) with the bias-corrected IMU element
    Uhat = u([gyro - b_omega_hat]_x, 0, accel - b_a_hat, 1);
2.  reconstruct the position fix P_y from the TDOA frame, if one arrived
    (or take the one the caller solved and handed over as ``p_y``); only the
    fix's position is read, so its quality is never computed;
3.  form the triads' body rows v_i (``sensors._body_rows``, as
    ``build_triads``), or take the nine floats the caller formed already and
    handed over as ``body_rows`` (``sim._run_and_score`` forms a stream's
    with ``sensors._body_rows_table`` before its loop), and the misalignment
    innovation sum_i s_i (v_i x vhat_i) in one pass, its three crosses
    written out, without a ``TriadPair``;
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

``step`` runs on Python floats.  It starts from the 21 floats of R
(row-major), P, V and both biases that the previous step returned: the state
carries them as one array, of which its arrays are views (a reorthonormalised
R is written into it), read with one ``tolist()``.  A state made any other
way (constructor, ``cold_start``, ``replace``, pickle, copy) carries none,
and its fields are unpacked once.  Both exponentials are built from their
(omega, v, a, rho) blocks by ``liegroup._se23_exp`` and multiplied in by
``liegroup._compose``; no ``TangentElement``, 5x5 or intermediate state is
made.  Validation sits at the boundary, and each check runs once.  On entry,
before any measurement is read: the step length, a frame needing an anchor
set, a handed fix being a finite 3-vector, handed body rows needing an IMU
sample and being nine finite numbers, the caller's triad weights
(non-negative, summing to 3) and a finite bias-corrected IMU element.  On the
measurements: ``TdoaFrame`` checks its differences when it is made and
``solve_frame``, as it reads the frame, their count and size; the
body rows are unit and v3 orthogonal by construction, and the reference rows
were checked once, by ``ReferenceVectors``.  On the result's floats: the
rotation on SO(3) (``liegroup._check_so3``), then one finiteness test over
the position, velocity and both biases, in the order the public
constructors check them and with their messages.  The returned
``ObserverState``, its ``NavState`` and ``Rotation`` are then made from one
array of them without running the constructors again.  A state that diverges
therefore surfaces as a ValueError.

Between reading its inputs and building that array the step keeps
``liegroup``'s arithmetic contract and makes no numpy call (R^T r_i, the
crosses, their weighted sum, [w_omega]_x P and V as crosses, R^T e are
written out in the matrix form's order); its states are bit for bit those of
the dataclass composition on that contract (tests/test_observer.py).  The body
rows and the frame's solve run on Python floats too, and only a
reorthonormalisation on numpy.

This module holds the online step, the gains, the error kernels and the
gain certificate.  The loop over a stream is ``sim._run_and_score``, the one
run-and-score routine of ``sim`` and ``replay``: it hands ``step`` each
taken frame's fix and each sample's body rows, and scores the stacked
estimates with ``_nav_errors`` and ``_norms`` (``error_metrics`` is their
one-row form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liegroup import (
    NavState,
    Rotation,
    _as_vec3,
    _check_so3,
    _compose,
    _norms,
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
    _body_rows,
    _check_weights,
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
_FORM = object()  # step's default body_rows: form them from the sample inside the step


_DT_MAX = 0.1  # s: every step, observer or truth, is over dt in (0, _DT_MAX]


def _check_body_rows(rows) -> None:
    # The check ``step`` runs on handed body rows: nine finite numbers.
    try:
        ok = len(rows) == 9 and all(map(math.isfinite, rows))
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"body_rows must be 9 finite numbers, got {rows!r}")


def _carried(state) -> list:
    """The 21 floats ``step`` carries: R (row-major), P, V, b_omega_hat and b_a_hat."""
    if state._x is not None:
        return state._x.tolist()
    nav = state.nav
    return np.concatenate((nav.rot.m.ravel(), nav.pos, nav.vel, state.b_omega_hat, state.b_a_hat)).tolist()


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


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "_x", None)  # no carried array: step unpacks nav once

    def __getstate__(self):
        return {**vars(self), "_x": None}  # a pickle or copy unpacks its own nav

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
    body_rows=_FORM,
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
    body_rows
        The triad body rows v1, v2, v3 of ``imu`` as nine floats, as
        ``sensors._body_rows(imu)`` gives them, when the caller has formed
        them already (``sensors._body_rows_table`` forms a stream's at once),
        or None when ``_body_rows`` raises ``TriadDegenerate`` for the sample;
        the step then uses them instead of forming them again.  By default
        the step forms them.  They are trusted to be that sample's rows: only
        their count and finiteness are checked.

    A failed TDOA solve or a degenerate triad never raises; the affected
    correction is suspended for this step and the failure is counted on the
    returned state; a handed None counts as one, for ``p_y`` and
    ``body_rows`` alike.  Raises ValueError for a bad ``dt``, a frame without
    anchors, a fix handed as ``p_y`` without a frame, a handed ``p_y`` that is
    not a finite 3-vector, ``body_rows`` handed without an IMU sample or
    handed as anything but nine finite numbers, invalid ``weights``, a
    non-finite bias-corrected IMU element, or a result that is not a valid
    state (rotation off SO(3), non-finite position, velocity or bias).
    """
    if not 0.0 < dt <= _DT_MAX:
        _check_dt(dt)  # raises
    if frame is None:
        if p_y is not None and p_y is not _SOLVE:
            raise ValueError("a position fix was handed to step without its TDOA frame")
    elif anchors is None:
        raise ValueError("a TDOA frame was supplied without an anchor set")
    elif p_y is not _SOLVE and p_y is not None:
        p_y = _as_vec3(p_y, "p_y")  # a float 3-vector comes back as it is
    if body_rows is not _FORM:
        if imu is None:
            raise ValueError("triad body rows were handed to step without an IMU sample")
        if body_rows is not None:
            _check_body_rows(body_rows)
    s0, s1, s2 = (1.0, 1.0, 1.0) if weights is None else _check_weights(weights).tolist()
    r0, r1, r2, r3, r4, r5, r6, r7, r8, P0, P1, P2, V0, V1, V2, b0, b1, b2, c0, c1, c2 = carry = _carried(state)
    (g0, g1, g2), (f0, f1, f2) = imu.gyro.tolist(), imu.accel.tolist()
    omega, acc = (g0 - b0, g1 - b1, g2 - b2), (f0 - c0, f1 - c1, f2 - c2)
    if not all(map(math.isfinite, omega + acc)):
        raise ValueError(f"bias-corrected IMU element must be finite, got {np.array(omega)}, {np.array(acc)}")

    # Predict with the bias-corrected IMU element u([omega]_x, 0, acc, 1): X+ = X exp(U dt).
    Xp = _compose(carry[:15], _se23_exp(omega, None, acc, 1.0, dt), dt)

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

    # The correction terms at the incoming state: w_omega (o) and the gyro-bias
    # rate (d) from attitude_innovation's sum, suspended without triads; -w_V
    # (v), w_a - g (a) and the accelerometer-bias rate (f) from e = p_y - P,
    # with w_V = w_a = 0 and no v column without a fix.
    triad_failures = state.triad_failures
    if body_rows is _FORM:
        try:
            body_rows = _body_rows(imu)  # the body rows v_i
        except TriadDegenerate:
            body_rows = None
    if body_rows is None:
        triad_failures += 1
        o0 = o1 = o2 = d0 = d1 = d2 = 0.0
    else:
        u0, u1, u2, u3, u4, u5, u6, u7, u8 = body_rows
        t0, t1, t2, t3, t4, t5, t6, t7, t8 = ref._triad_floats
        # vhat_i = R^T r_i, the rows of triad R; then v_i x vhat_i, as sensors._cross,
        # and body_sum = sum_i s_i (v_i x vhat_i).
        h0, h1, h2 = t0 * r0 + t1 * r3 + t2 * r6, t0 * r1 + t1 * r4 + t2 * r7, t0 * r2 + t1 * r5 + t2 * r8
        h3, h4, h5 = t3 * r0 + t4 * r3 + t5 * r6, t3 * r1 + t4 * r4 + t5 * r7, t3 * r2 + t4 * r5 + t5 * r8
        h6, h7, h8 = t6 * r0 + t7 * r3 + t8 * r6, t6 * r1 + t7 * r4 + t8 * r7, t6 * r2 + t7 * r5 + t8 * r8
        e0, e1, e2 = u1 * h2 - u2 * h1, u2 * h0 - u0 * h2, u0 * h1 - u1 * h0
        e3, e4, e5 = u4 * h5 - u5 * h4, u5 * h3 - u3 * h5, u3 * h4 - u4 * h3
        e6, e7, e8 = u7 * h8 - u8 * h7, u8 * h6 - u6 * h8, u6 * h7 - u7 * h6
        x0, x1, x2 = e0 * s0 + e3 * s1 + e6 * s2, e1 * s0 + e4 * s1 + e7 * s2, e2 * s0 + e5 * s1 + e8 * s2
        k = -0.5 * gains.k_omega  # w_omega = k R body_sum
        o0, o1, o2 = (k * (r0 * x0 + r1 * x1 + r2 * x2), k * (r3 * x0 + r4 * x1 + r5 * x2),
                      k * (r6 * x0 + r7 * x1 + r8 * x2))
        k = -0.5 * gains.gamma_omega
        d0, d1, d2 = k * x0, k * x1, k * x2
    g0, g1, g2 = ref._gravity_floats
    if p_y is None:
        v = None
        a0, a1, a2 = 0.0 - g0, 0.0 - g1, 0.0 - g2
        f0 = f1 = f2 = 0.0
    else:
        y0, y1, y2 = p_y.tolist()
        e0, e1, e2 = y0 - P0, y1 - P1, y2 - P2
        # [w_omega]_x P and [w_omega]_x V are the crosses w_omega x P and w_omega x V.
        k = -gains.k_v
        v = -(k * e0 - (o1 * P2 - o2 * P1)), -(k * e1 - (o2 * P0 - o0 * P2)), -(k * e2 - (o0 * P1 - o1 * P0))
        k = -gains.k_a
        a0, a1, a2 = (k * e0 - (o1 * V2 - o2 * V1) - g0, k * e1 - (o2 * V0 - o0 * V2) - g1,
                      k * e2 - (o0 * V1 - o1 * V0) - g2)
        k = -gains.gamma_a  # times R^T e
        f0, f1, f2 = (k * (r0 * e0 + r3 * e1 + r6 * e2), k * (r1 * e0 + r4 * e1 + r7 * e2),
                      k * (r2 * e0 + r5 * e1 + r8 * e2))

    # Correct with u(-[w_omega]_x, -w_V, -(w_a - g), -1): X = exp(-u dt) X+, X+'s
    # rho dt entry dt.  The a column carries g: gravity is integrated with or without a fix.
    X = _compose(_se23_exp((-o0, -o1, -o2), v, (-a0, -a1, -a2), -1.0, dt), Xp, dt)
    count = state.step_count + 1
    if reorth_every and count % reorth_every == 0:
        X = (*reorthonormalize(np.array(X[:9]).reshape(3, 3)).ravel().tolist(), *X[9:])
    b = b0 + dt * d0, b1 + dt * d1, b2 + dt * d2, c0 + dt * f0, c1 + dt * f1, c2 + dt * f2  # both biases

    # The result's checks, in its constructors' order: the rotation on SO(3),
    # then one finiteness test over position, velocity and both biases (on
    # failure the public constructors rerun it and raise with their message).
    _check_so3(*X[:9])
    x = np.array((*X, *b))
    R, pos, vel, b_omega_hat, b_a_hat = x[:9].reshape(3, 3), x[9:12], x[12:15], x[15:18], x[18:]
    if not all(map(math.isfinite, (*X[9:], *b))):
        ObserverState(NavState(Rotation(R), pos, vel), b_omega_hat, b_a_hat)
    # Each field set in declaration order, as __init__ sets it, so that every
    # instance dict keeps sharing its keys with its class.
    put = object.__setattr__
    rot = object.__new__(Rotation)
    put(rot, "m", R)
    nav = object.__new__(NavState)
    put(nav, "rot", rot)
    put(nav, "pos", pos)
    put(nav, "vel", vel)
    out = object.__new__(ObserverState)
    put(out, "nav", nav)
    put(out, "b_omega_hat", b_omega_hat)
    put(out, "b_a_hat", b_a_hat)
    put(out, "step_count", count)
    put(out, "tdoa_failures", tdoa_failures)
    put(out, "triad_failures", triad_failures)
    put(out, "_x", x)  # the next step starts from x, of which every array field is a view
    return out


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


@dataclass(frozen=True, eq=False)
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
