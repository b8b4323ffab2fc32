"""Tests for the SE2(3) observer step, corrections, and the gain certificate."""

import numpy as np
import pytest

from helpers import assert_states_identical, random_rotation, reference_step
from uwbnav.liegroup import NavState, Rotation, att_dist, pa, vex
from uwbnav.observer import (
    ErrorMetrics,
    Gains,
    ObserverState,
    _correction_terms,
    _run_stream,
    error_metrics,
    lyapunov_l1,
    step,
    validate_gains,
)
from uwbnav.sensors import ImuSample, ReferenceVectors, build_triads, weighted_matrix
from uwbnav.tdoa import Anchor, AnchorSet, TdoaFrame, solve_frame, synthesize_tdoa

GRAVITY = np.array([0.0, 0.0, -9.8])


def hover_imu(R, ref, t=0.0):
    return ImuSample(timestamp=t, gyro=np.zeros(3), accel=-R.T @ ref.gravity, mag=R.T @ ref.mag_ref)


def box_anchors():
    verts = [
        np.array([x, y, z])
        for x in (-4.0, 4.0)
        for y in (-4.0, 4.0)
        for z in (0.0, 4.0)
    ]
    return AnchorSet(tuple(Anchor(id=i + 1, pos=v) for i, v in enumerate(verts)))


# --- gains ----------------------------------------------------------------------


def test_gains_defaults():
    g = Gains()
    assert (g.k_omega, g.k_v, g.k_a, g.gamma_omega, g.gamma_a) == (3.0, 2.0, 70.0, 0.1, 2.0)


@pytest.mark.parametrize("field", ["k_omega", "k_v", "k_a", "gamma_omega", "gamma_a"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_gains_must_be_positive(field, bad):
    with pytest.raises(ValueError, match=field):
        Gains(**{field: bad})


# --- correction terms -------------------------------------------------------------


def correction(state, triads, p_y, gains):
    """(w_omega, w_v, w_a, b_omega_dot, b_a_dot) at the state's attitude/position/velocity."""
    nav = state.nav
    return _correction_terms(nav.rot.m, nav.pos, nav.vel, triads, p_y, gains)


def test_correction_zero_at_truth():
    ref = ReferenceVectors()
    pos = np.array([1.237, 0.124, 1.534])
    state = ObserverState.cold_start(pos=pos)
    triads = build_triads(hover_imu(np.eye(3), ref), ref)
    for term in correction(state, triads, pos, Gains()):
        assert np.max(np.abs(term)) < 1e-13


def test_correction_position_terms_scale_with_gains():
    # Aligned attitude at the origin, fix one metre along x: the velocity and
    # acceleration corrections are -k_v e and -k_a e, and the accelerometer
    # bias rate is -gamma_a R^T e.
    ref = ReferenceVectors()
    state = ObserverState.cold_start()
    triads = build_triads(hover_imu(np.eye(3), ref), ref)
    w_omega, w_v, w_a, _, b_a_dot = correction(state, triads, np.array([1.0, 0.0, 0.0]), Gains())
    np.testing.assert_allclose(w_omega, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(w_v, [-2.0, 0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(w_a, [-70.0, 0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(b_a_dot, [-2.0, 0.0, 0.0], atol=1e-13)


def test_correction_attitude_term_matches_matrix_form():
    # w_omega must equal -k_omega vex(Pa(M_r R Rhat^T)) and the gyro-bias rate
    # -gamma_omega Rhat^T vex(Pa(M_r R Rhat^T)).
    ref = ReferenceVectors()
    gains = Gains()
    rng = np.random.default_rng(51)
    for _ in range(50):
        R = random_rotation(rng)
        Rhat = random_rotation(rng)
        state = ObserverState.cold_start(rot=Rotation(Rhat))
        triads = build_triads(hover_imu(R, ref), ref)
        w_omega, w_v, w_a, b_omega_dot, b_a_dot = correction(state, triads, None, gains)
        axis = vex(pa(weighted_matrix(triads) @ (R @ Rhat.T)))
        np.testing.assert_allclose(w_omega, -gains.k_omega * axis, atol=1e-11)
        np.testing.assert_allclose(b_omega_dot, -gains.gamma_omega * (Rhat.T @ axis), atol=1e-11)
        np.testing.assert_allclose(w_v, np.zeros(3))
        np.testing.assert_allclose(w_a, np.zeros(3))
        np.testing.assert_allclose(b_a_dot, np.zeros(3))


# --- step ------------------------------------------------------------------------


def test_step_zero_input_integrates_free_fall_exactly():
    # No magnetometer, no fix, zero IMU: one step from rest is exact free
    # fall, and the missing triad is counted.
    state = ObserverState.cold_start()
    imu = ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=np.zeros(3), mag=None)
    dt = 0.01
    out = step(state, imu, None, None, Gains(), dt)
    np.testing.assert_allclose(out.nav.rot.m, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(out.nav.vel, GRAVITY * dt, atol=1e-15)
    np.testing.assert_allclose(out.nav.pos, 0.5 * GRAVITY * dt**2, atol=1e-15)
    assert out.triad_failures == 1
    assert out.tdoa_failures == 0
    assert out.step_count == 1
    np.testing.assert_array_equal(out.b_omega_hat, np.zeros(3))
    np.testing.assert_array_equal(out.b_a_hat, np.zeros(3))


def test_step_rejects_bad_dt():
    state = ObserverState.cold_start()
    imu = ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=np.zeros(3))
    for dt in (0.0, -0.01, 0.11):
        with pytest.raises(ValueError, match="dt"):
            step(state, imu, None, None, Gains(), dt)


def test_step_frame_without_anchors_raises():
    state = ObserverState.cold_start()
    imu = ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=np.zeros(3))
    frame = TdoaFrame(timestamp=0.0, d=np.zeros(8))
    with pytest.raises(ValueError, match="anchor"):
        step(state, imu, frame, None, Gains(), 0.01)


def test_step_degenerate_frame_counts_failure_and_dead_reckons():
    ref = ReferenceVectors()
    state = ObserverState.cold_start(pos=(1.0, 1.0, 1.0))
    imu = hover_imu(np.eye(3), ref)
    # All-zero differences cannot be solved (rank-deficient geometry).
    frame = TdoaFrame(timestamp=0.0, d=np.zeros(8))
    out = step(state, imu, frame, box_anchors(), Gains(), 0.01, ref=ref)
    assert out.tdoa_failures == 1
    np.testing.assert_array_equal(out.b_a_hat, np.zeros(3))


def test_step_without_frame_leaves_accel_bias_untouched():
    # Misaligned attitude, magnetometer present, no fix: the gyro bias
    # estimate moves, the accelerometer bias estimate does not.
    ref = ReferenceVectors()
    rng = np.random.default_rng(52)
    R = random_rotation(rng)
    state = ObserverState.cold_start()
    out = step(state, hover_imu(R, ref), None, None, Gains(), 0.01, ref=ref)
    assert np.linalg.norm(out.b_omega_hat) > 1e-6
    np.testing.assert_array_equal(out.b_a_hat, np.zeros(3))
    assert out.tdoa_failures == 0
    assert out.triad_failures == 0


def test_step_static_closed_loop_converges():
    ref = ReferenceVectors()
    gains = Gains()
    anchors = box_anchors()
    truth_pos = np.array([1.237, 0.124, 1.534])
    truth = NavState(Rotation.identity(), truth_pos, np.zeros(3))
    imu = hover_imu(np.eye(3), ref)
    frame = synthesize_tdoa(truth_pos, None, anchors)
    state = ObserverState.cold_start(
        pos=(-3.0, -1.0, 0.0), rot=Rotation.from_rotvec([0.05, -0.03, 0.08])
    )
    dt = 0.01
    att, pos = [], []
    for _ in range(500):
        state = step(state, imu, frame, anchors, gains, dt, ref=ref)
        m = error_metrics(truth, state)
        att.append(m.att_err)
        pos.append(m.pos_err)
    # The attitude subsystem is overdamped: strictly decreasing step by step.
    assert all(a > b for a, b in zip(att[:100], att[1:100]))
    # Position/velocity have complex poles, so the norm oscillates; the
    # envelope (max over successive thirds) must still contract.
    thirds = [max(pos[0:167]), max(pos[167:334]), max(pos[334:500])]
    assert thirds[0] > thirds[1] > thirds[2]
    assert pos[-1] < 0.1
    assert att[-1] < 1e-6


def test_step_equilibrium_is_fixed_point():
    # Starting exactly at a static truth with perfect measurements, every
    # innovation is zero so the predict/correct pair reduces to the exact
    # gravity sandwich: the state tracks truth to machine precision.
    ref = ReferenceVectors()
    anchors = box_anchors()
    truth_pos = np.array([1.237, 0.124, 1.534])
    truth = NavState(Rotation.identity(), truth_pos, np.zeros(3))
    imu = hover_imu(np.eye(3), ref)
    frame = synthesize_tdoa(truth_pos, None, anchors)
    state = ObserverState.cold_start(pos=truth_pos)
    for _ in range(200):
        state = step(state, imu, frame, anchors, Gains(), 0.01, ref=ref)
        m = error_metrics(truth, state)
        assert m.att_err < 1e-12
        assert m.pos_err < 1e-11
        assert m.vel_err < 1e-11
    assert np.max(np.abs(state.b_omega_hat)) < 1e-12
    assert np.max(np.abs(state.b_a_hat)) < 1e-11


def test_step_consistency_order():
    # One step of length dt versus two steps of dt/2: the gap shrinks ~4x
    # when dt halves, i.e. the per-step error is second order.
    ref = ReferenceVectors()
    anchors = box_anchors()
    gains = Gains()
    imu = ImuSample(
        timestamp=0.0,
        gyro=[0.1, -0.2, 0.05],
        accel=[0.3, 0.1, 9.7],
        mag=[-1.5, 0.2, 1.1],
    )
    frame = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors)
    start = ObserverState.cold_start(
        pos=(0.5, -0.2, 0.8), vel=(0.1, 0.0, -0.05), rot=Rotation.from_rotvec([0.2, 0.1, -0.3])
    )

    def gap(dt):
        one = step(start, imu, frame, anchors, gains, dt, ref=ref)
        half = step(start, imu, frame, anchors, gains, dt / 2.0, ref=ref)
        two = step(half, imu, frame, anchors, gains, dt / 2.0, ref=ref)
        return (
            np.linalg.norm(one.nav.rot.m - two.nav.rot.m)
            + np.linalg.norm(one.nav.pos - two.nav.pos)
            + np.linalg.norm(one.nav.vel - two.nav.vel)
            + np.linalg.norm(one.b_omega_hat - two.b_omega_hat)
            + np.linalg.norm(one.b_a_hat - two.b_a_hat)
        )

    ratio = gap(0.02) / gap(0.01)
    assert 2.5 < ratio < 6.0


def test_step_reorthonormalizes_on_schedule():
    ref = ReferenceVectors()
    rng = np.random.default_rng(53)
    state = ObserverState.cold_start()
    for k in range(50):
        imu = ImuSample(
            timestamp=0.01 * k,
            gyro=rng.normal(scale=0.5, size=3),
            accel=[0.0, 0.0, 9.8],
            mag=[-1.7, 0.0, 1.2],
        )
        state = step(state, imu, None, None, Gains(), 0.01, ref=ref, reorth_every=1)
    R = state.nav.rot.m
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def _random_step_inputs(rng, k, anchors, ref):
    """The k-th input of the kernel-equivalence walk: an IMU sample, a frame and weights.

    Cycles through frames that solve, no frame, degenerate, out-of-range and
    wrongly sized frames; magnetometers present, missing and collinear with
    the accelerometer; default and custom triad weights.
    """
    gyro = rng.normal(scale=0.3, size=3)
    accel = -ref.gravity + rng.normal(scale=1.0, size=3)
    mag_case = k % 7
    if mag_case == 0:
        mag = None
    elif mag_case == 1:
        mag = 0.2 * accel  # collinear with the accelerometer
    else:
        mag = ref.mag_ref + rng.normal(scale=0.3, size=3)
    imu = ImuSample(timestamp=0.01 * k, gyro=gyro, accel=accel, mag=mag)
    frame_case = k % 5
    if frame_case in (0, 1):
        p = rng.uniform([-3.0, -3.0, 0.5], [3.0, 3.0, 3.5])
        frame = synthesize_tdoa(p, None, anchors, noise_sd=0.05, seed=k)
    elif frame_case == 2:
        frame = None
    elif frame_case == 3:
        frame = TdoaFrame(timestamp=0.0, d=np.zeros(8))  # rank deficient
    else:
        frame = TdoaFrame(timestamp=0.0, d=np.full(8 if k % 2 else 7, 50.0))  # too far / wrong size
    weights = None if k % 3 else tuple(rng.dirichlet(np.ones(3)) * 3.0)
    return imu, frame, weights


@pytest.mark.parametrize("reorth_every", [1, 1000])
def test_step_kernel_matches_the_dataclass_composition(reorth_every):
    # The lean kernel against the step composed from se23_exp(TangentElement),
    # build_triads, solve_frame, _correction_terms and _pack: bit for bit on
    # R, P, V and both biases, and equal failure counters, at every step.
    rng = np.random.default_rng(55)
    anchors = box_anchors()
    ref = ReferenceVectors()
    gains = Gains()
    state = ObserverState(
        NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3)),
        rng.normal(scale=0.01, size=3),
        rng.normal(scale=0.1, size=3),
    )
    kinds = {"fix": 0, "tdoa_failure": 0, "triad_failure": 0, "weights": 0}
    for k in range(600):
        imu, frame, weights = _random_step_inputs(rng, k, anchors, ref)
        dt = float(rng.uniform(0.001, 0.1))
        want = reference_step(
            state, imu, frame, anchors, gains, dt, ref=ref, weights=weights, reorth_every=reorth_every
        )
        got = step(state, imu, frame, anchors, gains, dt, ref=ref, weights=weights, reorth_every=reorth_every)
        assert_states_identical(got, want)
        kinds["fix"] += frame is not None and got.tdoa_failures == state.tdoa_failures
        kinds["tdoa_failure"] += got.tdoa_failures - state.tdoa_failures
        kinds["triad_failure"] += got.triad_failures - state.triad_failures
        kinds["weights"] += weights is not None
        state = got
    assert state.step_count == 600
    assert all(count >= 50 for count in kinds.values()), kinds


@pytest.mark.parametrize("with_frames", [True, False])
def test_step_kernel_matches_the_dataclass_composition_on_a_steady_stream(with_frames):
    # A solvable frame on every step, or none at all, with the default
    # reference vectors; reorth_every=7 alternates strided and contiguous
    # rotation matrices in the incoming state.
    rng = np.random.default_rng(56)
    anchors = box_anchors()
    state = ObserverState.cold_start(pos=(-3.0, -1.0, 0.5), rot=Rotation(random_rotation(rng)))
    for k in range(300):
        imu = hover_imu(random_rotation(rng), ReferenceVectors(), t=0.01 * k)
        frame = synthesize_tdoa(rng.uniform(-3.0, 3.0, 3), None, anchors, noise_sd=0.05, seed=k) if with_frames else None
        want = reference_step(state, imu, frame, anchors, Gains(), 0.01, reorth_every=7)
        got = step(state, imu, frame, anchors, Gains(), 0.01, reorth_every=7)
        assert_states_identical(got, want)
        state = got
    assert state.tdoa_failures == 0


def test_step_rejects_a_state_pushed_off_so3():
    # The input state's rotation is scaled in place after construction; the
    # step's result is validated and rejects it.
    state = ObserverState.cold_start()
    state.nav.rot.m[:] *= 1.001
    imu = hover_imu(np.eye(3), ReferenceVectors())
    with pytest.raises(ValueError, match="orthogonal"):
        step(state, imu, None, None, Gains(), 0.01)


@pytest.mark.parametrize(
    "weights, message",
    [
        ((1.0, 1.0, 2.0), "sum to 3"),
        ((3.5, -0.5, 0.0), "nonnegative"),
        ((np.nan, np.nan, np.nan), "finite nonnegative weights"),
    ],
)
def test_step_rejects_invalid_weights(weights, message):
    state = ObserverState.cold_start()
    imu = hover_imu(np.eye(3), ReferenceVectors())
    with pytest.raises(ValueError, match=message):
        step(state, imu, None, None, Gains(), 0.01, weights=weights)


def test_step_rejects_a_non_finite_bias_corrected_imu_element():
    # Gyro and bias estimate are each finite; their difference overflows.
    state = ObserverState(NavState(Rotation.identity(), np.zeros(3), np.zeros(3)), [-1e308, 0.0, 0.0], np.zeros(3))
    imu = ImuSample(timestamp=0.0, gyro=[1e308, 0.0, 0.0], accel=[0.0, 0.0, 9.8], mag=[-1.7, 0.0, 1.2])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        step(state, imu, None, None, Gains(), 0.01)


def test_step_divergence_surfaces_as_value_error():
    # Absurd gains blow the state up within a few steps; the first non-finite
    # result is rejected by the output validation, not returned.
    ref = ReferenceVectors()
    anchors = box_anchors()
    frame = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors)
    gains = Gains(k_v=1e150, k_a=1e300)
    state = ObserverState.cold_start()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        for _ in range(50):
            state = step(state, hover_imu(np.eye(3), ref), frame, anchors, gains, 0.01, ref=ref)


# --- metrics and Lyapunov value ------------------------------------------------------


def test_run_stream_skips_steps_outside_the_dt_range():
    # A step with dt outside (0, 0.1] keeps the state, is counted, and leaves
    # its frame unsolved; every other frame is solved for the raw-fix column.
    anchors = box_anchors()
    ref = ReferenceVectors()
    imu = hover_imu(np.eye(3), ref)
    frame = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors)
    bad = TdoaFrame(timestamp=0.0, d=np.zeros(8))  # all anchors equidistant: no fix
    dts = [0.01, 0.0, 0.2, 0.01, float("nan"), 0.01]
    frames = {0: frame, 1: frame, 3: frame, 5: bad}
    state = ObserverState.cold_start()
    final, skipped, (R, P, V, b_omega_hat, b_a_hat, fix) = _run_stream(
        state, [imu] * 6, frames, anchors, Gains(), dts, ref=ref, step=step
    )
    assert skipped == 3
    assert final.step_count == 3 and final.tdoa_failures == 1
    assert R.shape == (7, 3, 3) and P.shape == V.shape == b_omega_hat.shape == b_a_hat.shape == (7, 3)
    assert np.array_equal(P[0], state.nav.pos) and np.array_equal(P[6], final.nav.pos)
    for a in (R, P, V, b_omega_hat, b_a_hat):
        assert np.array_equal(a[1], a[2]) and np.array_equal(a[2], a[3])  # kept across the skips
        assert np.array_equal(a[4], a[5])
    assert np.flatnonzero(np.isfinite(fix[:, 0])).tolist() == [0, 3]
    assert np.array_equal(fix[0], solve_frame(anchors, frame).p)


def test_error_metrics_zero_for_identical_states():
    truth = NavState(Rotation.identity(), np.array([1.0, 2.0, 3.0]), np.zeros(3))
    state = ObserverState.cold_start(pos=(1.0, 2.0, 3.0))
    m = error_metrics(truth, state)
    assert (m.att_err, m.pos_err, m.vel_err, m.b_omega_err, m.b_a_err) == (0, 0, 0, 0, 0)


def test_error_metrics_known_values():
    truth = NavState(
        Rotation.from_rotvec([0.0, 0.0, np.pi]), np.array([1.237, 0.124, 1.534]), np.zeros(3)
    )
    state = ObserverState.cold_start(pos=(-3.0, -1.0, 0.0))
    m = error_metrics(truth, state, b_omega=[0.01, -0.02, 0.005], b_a=[0.1, -0.05, 0.2])
    assert m.att_err == pytest.approx(1.0, abs=1e-12)
    assert m.pos_err == pytest.approx(4.644, abs=1e-3)
    assert m.b_omega_err == pytest.approx(np.linalg.norm([0.01, -0.02, 0.005]))
    assert m.b_a_err == pytest.approx(np.linalg.norm([0.1, -0.05, 0.2]))
    assert isinstance(m, ErrorMetrics)


def test_lyapunov_value_zero_at_equilibrium():
    ref = ReferenceVectors()
    triads = build_triads(hover_imu(np.eye(3), ref), ref)
    assert lyapunov_l1(triads, np.eye(3), np.zeros(3), Gains()) == pytest.approx(0.0, abs=1e-14)


def test_lyapunov_value_bias_term():
    ref = ReferenceVectors()
    triads = build_triads(hover_imu(np.eye(3), ref), ref)
    # ||b||^2 / (2 gamma_omega) with gamma_omega = 0.1 and unit bias error.
    val = lyapunov_l1(triads, np.eye(3), [1.0, 0.0, 0.0], Gains())
    assert val == pytest.approx(5.0, abs=1e-12)


def test_lyapunov_value_matches_direct_formula():
    ref = ReferenceVectors()
    gains = Gains()
    rng = np.random.default_rng(54)
    for _ in range(20):
        R = random_rotation(rng)
        b = rng.normal(size=3)
        triads = build_triads(hover_imu(random_rotation(rng), ref), ref)
        M = weighted_matrix(triads)
        expected = 0.5 * np.trace(M @ (np.eye(3) - R)) + (b @ b) / (2.0 * gains.gamma_omega)
        assert lyapunov_l1(triads, R, b, gains) == pytest.approx(expected, abs=1e-12)
        assert att_dist(R, M) >= 0.0


# --- gain certificate ---------------------------------------------------------------


def test_validate_gains_bound_value():
    report = validate_gains(Gains(), 0.01)
    assert report.bound == pytest.approx(8.0 / 284.0, abs=1e-15)
    assert report.passed
    assert report.q4_positive and report.q6_positive
    assert report.margin == pytest.approx(report.bound - 0.01)


def test_validate_gains_fails_at_bound():
    report = validate_gains(Gains(), 8.0 / 284.0)
    assert not report.passed


def test_validate_gains_fails_beyond_bound():
    report = validate_gains(Gains(), 0.05)
    assert not report.passed
    assert not (report.q4_positive and report.q6_positive and report.delta < report.bound)


def test_validate_gains_unit_gains_eigenvalues():
    report = validate_gains(Gains(k_v=1.0, k_a=1.0), 0.1)
    assert report.bound == pytest.approx(0.8)
    assert report.passed
    q4 = np.array([[0.5, -0.05], [-0.05, 0.5]])
    q6 = np.array([[0.9, -0.05], [-0.05, 0.1]])
    np.testing.assert_allclose(report.q4_eigenvalues, np.linalg.eigvalsh(q4), atol=1e-14)
    np.testing.assert_allclose(report.q6_eigenvalues, np.linalg.eigvalsh(q6), atol=1e-14)


@pytest.mark.parametrize("delta", [0.0, -0.01, np.nan])
def test_validate_gains_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        validate_gains(Gains(), delta)
