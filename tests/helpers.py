"""Shared numerical oracles for the test suite.

These deliberately avoid the closed-form code paths under test: the matrix
exponential is summed as a plain scaled Taylor series, and random rotations
are built from axis-angle sampling.  The observer step and the truth
propagation are also composed here from the validated public primitives, as
the references the lean kernels must match bit for bit.
"""

from dataclasses import replace

import numpy as np

from uwbnav.liegroup import NavState, Rotation, TangentElement, _pack, reorthonormalize, se23_exp
from uwbnav.observer import REORTH_INTERVAL, ObserverState, _correction_terms
from uwbnav.sensors import ReferenceVectors, TriadDegenerate, build_triads
from uwbnav.tdoa import GeometryDegenerate, solve_frame


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


def random_psd(rng, dim: int = 3, eig_low: float = 0.0, eig_high: float = 2.0) -> np.ndarray:
    """Random symmetric positive-semidefinite matrix with bounded eigenvalues."""
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(eig_low, eig_high, dim)
    return Q @ np.diag(eigs) @ Q.T


def reference_step(state, imu, frame, anchors, gains, dt, *, ref=None, weights=None, reorth_every=None):
    """One observer step composed from the validated public primitives.

    This is the dataclass form of ``observer.step``: both exponentials go
    through ``TangentElement`` and ``se23_exp``, the predicted and corrected
    states are 5x5 products, and every intermediate is validated.  The lean
    kernel in ``step`` must reproduce it bit for bit.
    """
    ref = ReferenceVectors() if ref is None else ref
    reorth_every = REORTH_INTERVAL if reorth_every is None else reorth_every
    nav = state.nav
    R, P, V = nav.rot.m, nav.pos, nav.vel
    U = TangentElement(imu.gyro - state.b_omega_hat, np.zeros(3), imu.accel - state.b_a_hat, 1.0)
    Xp = _pack(R, P, V) @ se23_exp(U, dt)
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
    w_omega, w_v, w_a, b_omega_dot, b_a_dot = _correction_terms(R, P, V, triads, p_y, gains)
    W = TangentElement(-w_omega, -w_v, -(w_a - ref.gravity), -1.0)
    X = se23_exp(W, dt) @ Xp
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
    X = se23_exp(G, -dt) @ _pack(nav.rot.m, nav.pos, nav.vel) @ se23_exp(U, dt)
    return replace(truth, nav=NavState(Rotation(X[:3, :3]), X[:3, 3], X[:3, 4]), time=truth.time + dt)


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
