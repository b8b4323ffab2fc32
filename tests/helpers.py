"""Shared numerical oracles for the test suite.

These deliberately avoid the closed-form code paths under test: the matrix
exponential is summed as a plain scaled Taylor series, and random rotations
are built from axis-angle sampling.  The observer step and the truth
propagation are also composed here, from validated ``TangentElement``s and
frozen copies of the kernels' arithmetic, as the references the lean kernels
must match bit for bit; ``frozen_solve`` is the TDOA fix with its quality
computed eagerly, as the solver did before it computed quality on read;
``frozen_fmt`` is the cell format the CSV writers must match byte for byte.
"""

import math
from dataclasses import replace

import numpy as np

from uwbnav.liegroup import NavState, Rotation, TangentElement, _exp_coefficients, reorthonormalize, skew
from uwbnav.observer import REORTH_INTERVAL, ObserverState
from uwbnav.sensors import COLLINEARITY_TOL, ReferenceVectors, TriadDegenerate, TriadPair, _cross
from uwbnav.sim import TruthTrack
from uwbnav.tdoa import RANK_TOL, Anchor, AnchorSet, GeometryDegenerate, solve_frame

# --- frozen kernel arithmetic ---------------------------------------------------
#
# Verbatim copies of the kernels as they computed before their entrywise
# arithmetic was unrolled onto Python floats: numpy vector operations, list
# comprehensions over the 3x3 entries, and the same BLAS products.  The
# references below are built from these copies and not from the package, so
# a rewrite of _se23_exp, step's correction terms, build_triads or _pack is
# compared with the arithmetic it replaced, never with itself.

_EYE3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # row-major entries of I
_UNIT_WEIGHTS = np.ones(3)
_UNIT_WEIGHTS.setflags(write=False)


def frozen_pack(R, P, V):
    X = np.eye(5)
    X[:3, :3] = R
    X[:3, 3] = P
    X[:3, 4] = V
    return X


def frozen_se23_exp(omega, vcol, acol, rho, dt):
    w0, w1, w2 = omega.tolist()
    z = 0.0 * dt
    S = (z, -w2 * dt, w1 * dt, w2 * dt, z, -w0 * dt, -w1 * dt, w0 * dt, z)
    theta = math.sqrt(omega.dot(omega)) * abs(dt)
    s1, c1, c2, d2 = _exp_coefficients(theta)
    Sm = np.array(S).reshape(3, 3)
    S2 = Sm.dot(Sm).ravel().tolist()
    dt2 = dt * dt
    R = [i + s1 * s + c1 * q for i, s, q in zip(_EYE3, S, S2)]
    J = np.array([dt * (i + c1 * s + c2 * q) for i, s, q in zip(_EYE3, S, S2)]).reshape(3, 3)
    K = np.array([dt2 * (0.5 * i + c2 * s + d2 * q) for i, s, q in zip(_EYE3, S, S2)]).reshape(3, 3)
    p0, p1, p2 = [x + rho * y for x, y in zip(J.dot(vcol).tolist(), K.dot(acol).tolist())]
    v0, v1, v2 = J.dot(acol).tolist()
    return np.array(
        [
            R[0], R[1], R[2], p0, v0,
            R[3], R[4], R[5], p1, v1,
            R[6], R[7], R[8], p2, v2,
            0.0, 0.0, 0.0, 1.0, 0.0,
            0.0, 0.0, 0.0, rho * dt, 1.0,
        ]
    ).reshape(5, 5)


def frozen_build_triads(sample, ref, s=None):
    if sample.mag is None:
        raise TriadDegenerate("sample has no magnetometer reading")
    accel, mag = sample.accel, sample.mag
    na = math.sqrt(accel.dot(accel))
    nm = math.sqrt(mag.dot(mag))
    if na <= 1e-9 or nm <= 1e-9:
        raise TriadDegenerate(f"accel/mag norm too small ({na:.2e}, {nm:.2e})")
    v1 = [x / na for x in accel.tolist()]
    v2 = [x / nm for x in mag.tolist()]
    cv = _cross(v1, v2)
    cva = np.array(cv)
    ncv = math.sqrt(cva.dot(cva))
    if ncv <= COLLINEARITY_TOL:
        raise TriadDegenerate(f"accel and mag are collinear (cross norm {ncv:.2e})")
    v = np.array([*v1, *v2, cv[0] / ncv, cv[1] / ncv, cv[2] / ncv]).reshape(3, 3)
    return TriadPair(v=v, r=ref.triad, s=_UNIT_WEIGHTS if s is None else s)


def frozen_predicted_body_vectors(Rhat, triads):
    return triads.r @ Rhat


def frozen_attitude_innovation(triads, vhat, Rhat):
    crosses = [c for a, b in zip(triads.v.tolist(), vhat.tolist()) for c in _cross(a, b)]
    body_sum = np.array(crosses).reshape(3, 3).T.dot(triads.s)
    return body_sum, Rhat @ body_sum


def frozen_correction_terms(R, P, V, triads, p_y, gains):
    if triads is not None:
        vhat = frozen_predicted_body_vectors(R, triads)
        body_sum, inertial_sum = frozen_attitude_innovation(triads, vhat, R)
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


def frozen_solve(A, B, allow_reduced, h1):
    """(p, range_to_h1, residual, range_consistency, negative_range, reduced)
    of the system (A, B), every value computed eagerly as ``tdoa.solve_frame``
    did before fix quality was computed on read; ``np.linalg.lstsq``, which the
    solver matches bit for bit, stands for its LAPACK call."""
    sol, _, rank, sv = np.linalg.lstsq(A, B, rcond=RANK_TOL)
    if rank < 4:
        if not allow_reduced:
            raise GeometryDegenerate(f"TDOA system rank {rank} < 4 (singular values {sv})", rank=rank)
        A3 = A[:, :3]
        sol3, _, rank3, _ = np.linalg.lstsq(A3, B, rcond=RANK_TOL)
        if rank3 < 3:
            raise GeometryDegenerate(f"reduced TDOA system rank {rank3} < 3", rank=rank3)
        residual = float(np.sqrt(np.mean((A3 @ sol3 - B) ** 2)))
        return sol3, float("nan"), residual, float("nan"), False, True
    r = A @ sol - B
    residual = math.sqrt(np.add.reduce(r * r) / r.size)
    p = sol[:3]
    range_to_h1 = float(sol[3])
    offset = p - h1
    consistency = abs(range_to_h1 - math.sqrt(offset.dot(offset)))
    return p, range_to_h1, residual, consistency, range_to_h1 < 0.0, False


def frozen_exp(u: TangentElement, dt):
    """exp(u dt) of a validated element, by the frozen arithmetic."""
    return frozen_se23_exp(u.omega, u.vcol, u.acol, u.rho, dt)


def frozen_fmt(x) -> str:
    """One CSV cell as the per-cell writers formatted it: the shortest repr that
    round-trips the float, NaN as ''."""
    x = float(x)
    return "" if math.isnan(x) else repr(x)


def expm_series(A, terms: int = 30) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring over a Taylor series.

    Scale A down by a power of two until its norm is below 0.5, sum ``terms``
    series terms, then square back up.  With 30 terms the truncation error is
    far below double-precision round-off for the matrices used in tests.
    """
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0 else 0
    B = A / (2.0**squarings)
    result = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ B / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def random_rotation(rng) -> np.ndarray:
    """Random rotation matrix: uniform axis, angle uniform on [0, pi)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def box_anchors():
    """Eight anchors on the vertices of the box [-4, 4] x [-4, 4] x [0, 4]."""
    verts = [
        np.array([x, y, z])
        for x in (-4.0, 4.0)
        for y in (-4.0, 4.0)
        for z in (0.0, 4.0)
    ]
    return AnchorSet(tuple(Anchor(id=i + 1, pos=v) for i, v in enumerate(verts)))


def random_psd(rng, dim: int = 3, eig_low: float = 0.0, eig_high: float = 2.0) -> np.ndarray:
    """Random symmetric positive-semidefinite matrix with bounded eigenvalues."""
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(eig_low, eig_high, dim)
    return Q @ np.diag(eigs) @ Q.T


_SOLVE_HERE = object()  # reference_step's default p_y and body_rows: nothing was handed


def reference_step(state, imu, frame, anchors, gains, dt, *, ref=None, weights=None, reorth_every=None,
                   p_y=_SOLVE_HERE, body_rows=_SOLVE_HERE):
    """One observer step composed from the validated public primitives.

    This is the dataclass form of ``observer.step``: both exponentials are
    built from validated ``TangentElement``s by the frozen arithmetic above,
    the predicted and corrected states are 5x5 products, and every
    intermediate is validated.  The lean kernel in ``step`` must reproduce it
    bit for bit.  It always solves the frame itself; a handed ``p_y`` (the
    caller's fix, or None for a failed solve or no frame) must equal that
    solve bit for bit, or both must have no fix.  It always forms the triad
    itself too; handed ``body_rows`` (nine floats, or None for a degenerate
    triad) must equal its body rows bit for bit, or both must have no triad.
    """
    ref = ReferenceVectors() if ref is None else ref
    reorth_every = REORTH_INTERVAL if reorth_every is None else reorth_every
    nav = state.nav
    R, P, V = nav.rot.m, nav.pos, nav.vel
    U = TangentElement(imu.gyro - state.b_omega_hat, np.zeros(3), imu.accel - state.b_a_hat, 1.0)
    Xp = frozen_pack(R, P, V) @ frozen_exp(U, dt)
    handed, p_y = p_y, None
    tdoa_failures = state.tdoa_failures
    if frame is not None:
        try:
            p_y = solve_frame(anchors, frame).p
        except (GeometryDegenerate, ValueError):
            tdoa_failures += 1
    if handed is not _SOLVE_HERE:
        if p_y is None:
            assert handed is None, "a fix was handed where no frame solves"
        else:
            assert handed is not None, "a failed solve was handed for a frame that solves"
            assert handed.dtype == p_y.dtype and handed.shape == p_y.shape
            assert handed.tobytes() == p_y.tobytes(), "the handed fix differs from the frame's solve"
    triad_failures = state.triad_failures
    try:
        triads = frozen_build_triads(imu, ref, weights)
    except TriadDegenerate:
        triads = None
        triad_failures += 1
    if body_rows is not _SOLVE_HERE:
        if triads is None:
            assert body_rows is None, "body rows were handed where the sample forms no triad"
        else:
            assert body_rows is not None, "no body rows were handed for a sample that forms a triad"
            assert len(body_rows) == 9 and all(type(x) is float for x in body_rows)
            assert np.array(body_rows).tobytes() == triads.v.tobytes(), "the handed rows differ from the triad's"
    w_omega, w_v, w_a, b_omega_dot, b_a_dot = frozen_correction_terms(R, P, V, triads, p_y, gains)
    W = TangentElement(-w_omega, -w_v, -(w_a - ref.gravity), -1.0)
    X = frozen_exp(W, dt) @ Xp
    count = state.step_count + 1
    Rnew = X[:3, :3]
    if reorth_every and count % reorth_every == 0:
        Rnew = reorthonormalize(Rnew)
    return ObserverState(
        nav=NavState(Rotation(Rnew), X[:3, 3], X[:3, 4]),
        b_omega_hat=state.b_omega_hat + dt * b_omega_dot,
        b_a_hat=state.b_a_hat + dt * b_a_dot,
        step_count=count,
        tdoa_failures=tdoa_failures,
        triad_failures=triad_failures,
    )


def reference_propagate_truth(truth, dt):
    """``sim.propagate_truth`` as the sandwich exp(-G dt) @ X @ exp(U dt) of validated elements."""
    mid = truth.time + 0.5 * dt
    U = TangentElement(truth.omega_fn(mid), np.zeros(3), truth.accel_fn(mid), 1.0)
    G = TangentElement(np.zeros(3), np.zeros(3), -truth.gravity, 1.0)
    nav = truth.nav
    X = frozen_exp(G, -dt) @ frozen_pack(nav.rot.m, nav.pos, nav.vel) @ frozen_exp(U, dt)
    return replace(truth, nav=NavState(Rotation(X[:3, :3]), X[:3, 3], X[:3, 4]), time=truth.time + dt)


def reference_truth_track(sc):
    """``sim.truth_track`` as a walk of ``reference_propagate_truth`` over the IMU sample grid."""
    n = int(round(sc.duration * sc.imu_rate))
    t = np.arange(n + 1) / sc.imu_rate
    truth = replace(sc.truth, time=0.0)
    navs = [truth.nav]
    for k in range(n):
        truth = reference_propagate_truth(truth, float(t[k + 1] - t[k]))
        navs.append(truth.nav)
    return TruthTrack(
        omega_fn=truth.omega_fn,
        accel_fn=truth.accel_fn,
        gravity=truth.gravity,
        imu_rate=sc.imu_rate,
        n=n,
        rot=[nav.rot.m for nav in navs],
        pos=[nav.pos for nav in navs],
        vel=[nav.vel for nav in navs],
        omega=[truth.omega_fn(tk) for tk in t.tolist()],
        accel=[truth.accel_fn(tk) for tk in t.tolist()],
    )


def assert_states_identical(a, b):
    """Bit-for-bit equality of two observer states, counters included."""
    assert np.array_equal(a.nav.rot.m, b.nav.rot.m)
    assert np.array_equal(a.nav.pos, b.nav.pos)
    assert np.array_equal(a.nav.vel, b.nav.vel)
    assert np.array_equal(a.b_omega_hat, b.b_omega_hat)
    assert np.array_equal(a.b_a_hat, b.b_a_hat)
    assert (a.step_count, a.tdoa_failures, a.triad_failures) == (
        b.step_count,
        b.tdoa_failures,
        b.triad_failures,
    )
