"""Shared numerical oracles for the test suite.

These deliberately avoid the closed-form code paths under test: the matrix
exponential is summed as a plain scaled Taylor series, and random rotations
are built from axis-angle sampling.  The observer step and the truth
propagation are also composed here, from validated ``TangentElement``s and
5x5 matrices, as the references the lean kernels must match bit for bit: on
``liegroup``'s float contract, written entry by entry from the matrix
expressions with no numpy product (``reference_step``,
``reference_propagate_truth``), and on the BLAS arithmetic of the kernels
before that contract (``blas_reference_step``, and the truth references
given ``BLAS``), the matrix-form oracle the float kernels are held to within
rounding; ``frozen_solve`` is the TDOA fix, its closed-form solve written
as loops over the entries, with its quality computed eagerly, as the solver
did before it computed quality on read;
``frozen_fmt`` is the cell format the CSV writers must match byte for byte.
"""

import functools
import math
import operator
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from uwbnav.liegroup import SMALL_ANGLE, NavState, Rotation, TangentElement, _exp_coefficients, reorthonormalize, skew
from uwbnav.observer import REORTH_INTERVAL, ObserverState
from uwbnav.sensors import COLLINEARITY_TOL, ReferenceVectors, TriadDegenerate, TriadPair, _cross
from uwbnav.sim import TruthTrack
from uwbnav.tdoa import RANK_TOL, Anchor, AnchorSet, GeometryDegenerate, solve_frame

# --- frozen kernel arithmetic ---------------------------------------------------
#
# Two frozen forms of the step's and the truth's arithmetic, built here and
# not from the package, so that a rewrite of a kernel is compared with an
# independent composition and never with itself.
#
# The float contract (liegroup's module docstring): every entry of a product
# is the sum of its terms in index order, left to right, on Python floats;
# a term with a structural zero of the matrix form is left out, and the
# identity's entry leads each entry of R, J and K.  These are written as
# generic loops over the entries of the matrix expressions, not as the
# kernels' unrolled sums.
#
# The BLAS arithmetic: copies of the kernels as they computed before they
# moved onto that contract, with every product one numpy/BLAS call.

_EYE3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # row-major entries of I
_UNIT_WEIGHTS = np.ones(3)
_UNIT_WEIGHTS.setflags(write=False)
# Entries of a 5x5 SE2(3) matrix that are zero by its structure.
_SE23_ZEROS = {(3, 0), (3, 1), (3, 2), (3, 4), (4, 0), (4, 1), (4, 2)}


def frozen_pack(R, P, V):
    X = np.eye(5)
    X[:3, :3] = R
    X[:3, 3] = P
    X[:3, 4] = V
    return X


def _sum(terms):
    """The terms summed left to right; 0.0 for none."""
    terms = list(terms)
    return functools.reduce(operator.add, terms) if terms else 0.0


def _skew_rows(w0, w1, w2):
    """[w]_x as rows, None on its structurally zero diagonal."""
    return [[None, -w2, w1], [w2, None, -w0], [-w1, w0, None]]


def _skew_dot(S, x):
    """S x for rows S from ``_skew_rows``, the diagonal's terms left out."""
    return [_sum(S[i][k] * x[k] for k in range(3) if S[i][k] is not None) for i in range(3)]


def _rodrigues(w0, w1, w2, dt):
    """S = [omega dt]_x as rows (None on its diagonal) and Q = S S, each entry
    of Q the sum of its terms in index order, the diagonal's left out."""
    S = _skew_rows(w0 * dt, w1 * dt, w2 * dt)
    Q = [[_sum(S[i][k] * S[k][j] for k in range(3) if S[i][k] is not None and S[k][j] is not None)
          for j in range(3)] for i in range(3)]
    return S, Q


def _block(S, Q, eye, s_coef, q_coef):
    """(eye I + s_coef S) + q_coef Q entry by entry, as rows; eye S_ii is left out."""
    return [[(eye if i == j else 0.0 + s_coef * S[i][j]) + q_coef * Q[i][j] for j in range(3)] for i in range(3)]


def frozen_so3_exp(omega, dt):
    """so3_exp on the float contract: (I + a S) + c S^2 entry by entry, with
    (a, c) = (sin(theta)/theta, (1 - cos(theta))/theta^2), or (1, 1/2) below SMALL_ANGLE."""
    w0, w1, w2 = [float(x) for x in omega]
    theta = math.sqrt(_sum(x * x for x in (w0, w1, w2))) * abs(dt)
    a, c = 1.0, 0.5
    if not theta < SMALL_ANGLE:
        a, c = math.sin(theta) / theta, float((1.0 - math.cos(theta)) / np.float64(theta) ** 2)
    return np.array(_block(*_rodrigues(w0, w1, w2, dt), 1.0, a, c))


def frozen_se23_exp(omega, vcol, acol, rho, dt):
    """exp(u dt) on the float contract: the 5x5 from the matrix expressions
    R = (I + s1 S) + c1 S^2, (0 + J v) + rho K a and J a, entry by entry;
    ``vcol`` None for no v column."""
    w0, w1, w2 = [float(x) for x in omega]
    a = [float(x) for x in acol]
    theta = math.sqrt(_sum(x * x for x in (w0, w1, w2))) * abs(dt)
    s1, c1, c2, d2 = _exp_coefficients(theta)
    S, Q = _rodrigues(w0, w1, w2, dt)
    R = _block(S, Q, 1.0, s1, c1)
    J = [[dt * x for x in row] for row in _block(S, Q, 1.0, c1, c2)]
    K = [[dt * dt * x for x in row] for row in _block(S, Q, 0.5, c2, d2)]
    Jv = [0.0] * 3 if vcol is None else [_sum([0.0, *(J[i][k] * float(vcol[k]) for k in range(3))]) for i in range(3)]
    Ka = [_sum(K[i][k] * a[k] for k in range(3)) for i in range(3)]
    Ja = [_sum(J[i][k] * a[k] for k in range(3)) for i in range(3)]
    return np.array(
        [
            [*R[0], Jv[0] + rho * Ka[0], Ja[0]],
            [*R[1], Jv[1] + rho * Ka[1], Ja[1]],
            [*R[2], Jv[2] + rho * Ka[2], Ja[2]],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, rho * dt, 1.0],
        ]
    )


def frozen_product(A, B):
    """A B of two 5x5 SE2(3) matrices on the float contract: each entry the sum
    of its terms in index order, the terms with a structural zero left out."""
    a, b = A.tolist(), B.tolist()
    return np.array(
        [
            [
                _sum(a[i][k] * b[k][j] for k in range(5) if (i, k) not in _SE23_ZEROS and (k, j) not in _SE23_ZEROS)
                for j in range(5)
            ]
            for i in range(5)
        ]
    )


def blas_se23_exp(omega, vcol, acol, rho, dt):
    """exp(u dt) by the BLAS arithmetic: S @ S and J, K products through numpy."""
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
    accel, mag = sample.accel.tolist(), sample.mag.tolist()
    na = math.sqrt(_sum(x * x for x in accel))
    nm = math.sqrt(_sum(x * x for x in mag))
    if na <= 1e-9 or nm <= 1e-9:
        raise TriadDegenerate(f"accel/mag norm too small ({na:.2e}, {nm:.2e})")
    v1 = [x / na for x in accel]
    v2 = [x / nm for x in mag]
    cv = _cross(v1, v2)
    ncv = math.sqrt(_sum(x * x for x in cv))
    if ncv <= COLLINEARITY_TOL:
        raise TriadDegenerate(f"accel and mag are collinear (cross norm {ncv:.2e})")
    v = np.array([*v1, *v2, cv[0] / ncv, cv[1] / ncv, cv[2] / ncv]).reshape(3, 3)
    return TriadPair(v=v, r=ref.triad, s=_UNIT_WEIGHTS if s is None else s)


def frozen_correction_terms(R, P, V, triads, p_y, gains):
    """w_omega, w_V, w_a and both bias rates on the float contract, as lists."""
    R, P, V = R.tolist(), P.tolist(), V.tolist()
    if triads is not None:
        r, v, s = triads.r.tolist(), triads.v.tolist(), triads.s.tolist()
        vhat = [[_sum(r[i][k] * R[k][j] for k in range(3)) for j in range(3)] for i in range(3)]  # r R
        crosses = [_cross(v[i], vhat[i]) for i in range(3)]
        body_sum = [_sum(crosses[i][j] * s[i] for i in range(3)) for j in range(3)]
        inertial_sum = [_sum(R[i][k] * body_sum[k] for k in range(3)) for i in range(3)]
        w_omega = [-0.5 * gains.k_omega * x for x in inertial_sum]
        b_omega_dot = [-0.5 * gains.gamma_omega * x for x in body_sum]
    else:
        w_omega = [0.0] * 3
        b_omega_dot = [0.0] * 3
    if p_y is not None:
        e = [y - q for y, q in zip(p_y.tolist(), P)]
        W = _skew_rows(*w_omega)
        w_v = [-gains.k_v * x - y for x, y in zip(e, _skew_dot(W, P))]
        w_a = [-gains.k_a * x - y for x, y in zip(e, _skew_dot(W, V))]
        b_a_dot = [-gains.gamma_a * _sum(R[k][j] * e[k] for k in range(3)) for j in range(3)]
    else:
        w_v = [0.0] * 3
        w_a = [0.0] * 3
        b_a_dot = [0.0] * 3
    return w_omega, w_v, w_a, b_omega_dot, b_a_dot


def blas_correction_terms(R, P, V, triads, p_y, gains):
    """The correction terms by the BLAS arithmetic, as arrays."""
    if triads is not None:
        vhat = triads.r @ R
        crosses = [c for a, b in zip(triads.v.tolist(), vhat.tolist()) for c in _cross(a, b)]
        body_sum = np.array(crosses).reshape(3, 3).T.dot(triads.s)
        w_omega = -0.5 * gains.k_omega * (R @ body_sum)
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


# The two arithmetics the references compose with: each one's exponential
# (omega, vcol, acol, rho, dt), 5x5 product and correction terms.
FLOAT = SimpleNamespace(exp=frozen_se23_exp, product=frozen_product, terms=frozen_correction_terms)
BLAS = SimpleNamespace(exp=blas_se23_exp, product=np.dot, terms=blas_correction_terms)


def _dot(x, y):
    """sum x_k y_k in index order, from 0.0."""
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def _finite(p):
    """``p``, or the LinAlgError ``solve_frame`` raises for a non-finite position."""
    if not np.isfinite(p).all():
        raise np.linalg.LinAlgError(f"TDOA solve gave a non-finite position {tuple(p.tolist())}")
    return p


def frozen_solve(A, B, allow_reduced, h1):
    """(p, range_to_h1, residual, range_consistency, negative_range, reduced)
    of the system (A, B), every value computed eagerly as ``tdoa.solve_frame``
    did before fix quality was computed on read.  The solve is the closed
    form on the SVD G = U S V^T of A's geometry columns, written as generic
    loops over the entries on Python floats: with x_perp = x - U U^T x, the
    range r = -<d_perp, B_perp> / ||d_perp||^2 and p = V ((U^T B + r U^T d) / S),
    rank 3 when ||d_perp|| is at most ``RANK_TOL`` S_1, and p = V (U^T B / S)
    for the reduced fallback; a non-finite p raises ``np.linalg.LinAlgError``."""
    U, S, Vt = (x.tolist() for x in np.linalg.svd(A[:, :3], full_matrices=False))
    d, b = (-A[:, 3]).tolist(), B.tolist()
    columns = [[row[j] for row in U] for j in range(3)]
    ud = [_dot(u, d) for u in columns]
    ub = [_dot(u, b) for u in columns]
    d_perp = [dk - _sum(row[j] * ud[j] for j in range(3)) for dk, row in zip(d, U)]
    b_perp = [bk - _sum(row[j] * ub[j] for j in range(3)) for bk, row in zip(b, U)]
    dd = _dot(d_perp, d_perp)
    off, cutoff = math.sqrt(dd), RANK_TOL * S[0]
    if off <= cutoff:
        if not allow_reduced:
            raise GeometryDegenerate(
                f"TDOA system rank 3 < 4 (||d_perp|| {off:.3e} m at or below the cutoff {cutoff:.3e} m)", rank=3
            )
        q = [ub[j] / S[j] for j in range(3)]
        p = _finite(np.array([_sum(Vt[j][i] * q[j] for j in range(3)) for i in range(3)]))
        residual = float(np.sqrt(np.mean((A[:, :3] @ p - B) ** 2)))
        return p, float("nan"), residual, float("nan"), False, True
    r = -_dot(d_perp, b_perp) / dd
    q = [(ub[j] + r * ud[j]) / S[j] for j in range(3)]
    sol = np.array([*(_sum(Vt[j][i] * q[j] for j in range(3)) for i in range(3)), r])
    _finite(sol[:3])
    res = A @ sol - B
    residual = math.sqrt(np.add.reduce(res * res) / res.size)
    p = sol[:3]
    range_to_h1 = float(sol[3])
    offset = p - h1
    consistency = abs(range_to_h1 - math.sqrt(offset.dot(offset)))
    return p, range_to_h1, residual, consistency, range_to_h1 < 0.0, False


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
                   p_y=_SOLVE_HERE, body_rows=_SOLVE_HERE, arithmetic=FLOAT):
    """One observer step composed from the validated public primitives.

    This is the dataclass form of ``observer.step``: both exponentials are
    built from validated ``TangentElement``s, the predicted and corrected
    states are 5x5 products, all by ``arithmetic`` (``FLOAT``, the float
    contract, or ``BLAS``), and every intermediate is validated.  The lean
    kernel in ``step`` must reproduce the ``FLOAT`` composition bit for bit.
    It always solves the frame itself; a handed ``p_y`` (the caller's fix, or
    None for a failed solve or no frame) must equal that solve bit for bit,
    or both must have no fix.  It always forms the triad itself too; handed
    ``body_rows`` (nine floats, or None for a degenerate triad) must equal
    its body rows bit for bit, or both must have no triad.
    """
    ref = ReferenceVectors() if ref is None else ref
    reorth_every = REORTH_INTERVAL if reorth_every is None else reorth_every
    exp, product = arithmetic.exp, arithmetic.product
    nav = state.nav
    R, P, V = nav.rot.m, nav.pos, nav.vel
    U = TangentElement(imu.gyro - state.b_omega_hat, np.zeros(3), imu.accel - state.b_a_hat, 1.0)
    Xp = product(frozen_pack(R, P, V), exp(U.omega, U.vcol, U.acol, U.rho, dt))
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
    terms = arithmetic.terms(R, P, V, triads, p_y, gains)
    w_omega, w_v, w_a, b_omega_dot, b_a_dot = (np.array(x, dtype=float) for x in terms)
    W = TangentElement(-w_omega, -w_v, -(w_a - ref.gravity), -1.0)
    X = product(exp(W.omega, W.vcol, W.acol, W.rho, dt), Xp)
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


blas_reference_step = functools.partial(reference_step, arithmetic=BLAS)


def reference_propagate_truth(truth, dt, arithmetic=FLOAT):
    """``sim.propagate_truth`` as the sandwich (exp(-G dt) X) exp(U dt) of validated elements."""
    exp, product = arithmetic.exp, arithmetic.product
    mid = truth.time + 0.5 * dt
    U = TangentElement(truth.omega_fn(mid), np.zeros(3), truth.accel_fn(mid), 1.0)
    G = TangentElement(np.zeros(3), np.zeros(3), -truth.gravity, 1.0)
    nav = truth.nav
    X = product(
        product(exp(G.omega, G.vcol, G.acol, G.rho, -dt), frozen_pack(nav.rot.m, nav.pos, nav.vel)),
        exp(U.omega, U.vcol, U.acol, U.rho, dt),
    )
    return replace(truth, nav=NavState(Rotation(X[:3, :3]), X[:3, 3], X[:3, 4]), time=truth.time + dt)


def reference_truth_track(sc, arithmetic=FLOAT):
    """``sim.truth_track`` as a walk of ``reference_propagate_truth`` over the IMU sample grid."""
    n = int(round(sc.duration * sc.imu_rate))
    t = np.arange(n + 1) / sc.imu_rate
    truth = replace(sc.truth, time=0.0)
    navs = [truth.nav]
    for k in range(n):
        truth = reference_propagate_truth(truth, float(t[k + 1] - t[k]), arithmetic)
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
    """Bit-for-bit equality of two observer states, the signs of zeros and the counters included."""
    pairs = zip(
        (a.nav.rot.m, a.nav.pos, a.nav.vel, a.b_omega_hat, a.b_a_hat),
        (b.nav.rot.m, b.nav.pos, b.nav.vel, b.b_omega_hat, b.b_a_hat),
    )
    for x, y in pairs:
        assert x.shape == y.shape and np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), (x, y)
    assert (a.step_count, a.tdoa_failures, a.triad_failures) == (
        b.step_count,
        b.tdoa_failures,
        b.triad_failures,
    )
