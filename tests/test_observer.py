"""Tests for the SE2(3) observer step, corrections, and the gain certificate."""

import copy
import pickle
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_states_identical, box_anchors, random_rotation, reference_step
from uwbnav import observer as observer_module
from uwbnav.liegroup import NavState, Rotation, att_dist, pa, vex
from uwbnav.observer import (
    ErrorMetrics,
    Gains,
    ObserverState,
    error_metrics,
    lyapunov_l1,
    step,
    validate_gains,
)
from uwbnav.sensors import ImuSample, ReferenceVectors, _body_rows, build_triads, weighted_matrix
from uwbnav.tdoa import (
    DIAMETER_SLACK,
    GeometryDegenerate,
    TdoaFrame,
    solve_frame,
    synthesize_tdoa,
)

GRAVITY = np.array([0.0, 0.0, -9.8])


def hover_imu(R, ref, t=0.0):
    return ImuSample(timestamp=t, gyro=np.zeros(3), accel=-R.T @ ref.gravity, mag=R.T @ ref.mag_ref)


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


def correction(monkeypatch, state, imu, p_y, gains, ref=ReferenceVectors(), dt=0.01):
    """(w_omega, w_v, w_a, b_omega_dot, b_a_dot) of one step from ``state`` on
    ``imu`` with the handed fix ``p_y`` (None: no fix).

    The first three are read off the step's correcting exponential
    u(-[w_omega]_x, -w_V, -(w_a - g), -1), its second ``_se23_exp`` call; the
    bias rates off the change of the bias estimates over ``dt``.
    """
    calls, real = [], observer_module._se23_exp

    def recording(*args):
        calls.append(args)
        return real(*args)

    frame = None if p_y is None else TdoaFrame(timestamp=0.0, d=np.zeros(8))
    with monkeypatch.context() as m:
        m.setattr(observer_module, "_se23_exp", recording)
        out = step(state, imu, frame, box_anchors(), gains, dt, ref=ref, p_y=p_y)
    *blocks, rho, _ = calls[1]
    assert rho == -1.0
    # Float 3-sequences; no v column (None) without a fix.
    minus_w_omega, minus_w_v, minus_w_a_g = (np.zeros(3) if b is None else np.array(b) for b in blocks)
    return (
        -minus_w_omega,
        -minus_w_v,
        ref.gravity - minus_w_a_g,
        (out.b_omega_hat - state.b_omega_hat) / dt,
        (out.b_a_hat - state.b_a_hat) / dt,
    )


def test_correction_zero_at_truth(monkeypatch):
    ref = ReferenceVectors()
    pos = np.array([1.237, 0.124, 1.534])
    state = ObserverState.cold_start(pos=pos)
    for term in correction(monkeypatch, state, hover_imu(np.eye(3), ref), pos, Gains(), ref):
        assert np.max(np.abs(term)) < 1e-13


def test_correction_position_terms_scale_with_gains(monkeypatch):
    # Aligned attitude at the origin, fix one metre along x: the velocity and
    # acceleration corrections are -k_v e and -k_a e, and the accelerometer
    # bias rate is -gamma_a R^T e.
    ref = ReferenceVectors()
    state = ObserverState.cold_start()
    w_omega, w_v, w_a, _, b_a_dot = correction(
        monkeypatch, state, hover_imu(np.eye(3), ref), np.array([1.0, 0.0, 0.0]), Gains(), ref
    )
    np.testing.assert_allclose(w_omega, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(w_v, [-2.0, 0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(w_a, [-70.0, 0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(b_a_dot, [-2.0, 0.0, 0.0], atol=1e-13)


def test_correction_attitude_term_matches_matrix_form(monkeypatch):
    # w_omega must equal -k_omega vex(Pa(M_r R Rhat^T)) and the gyro-bias rate
    # -gamma_omega Rhat^T vex(Pa(M_r R Rhat^T)).
    ref = ReferenceVectors()
    gains = Gains()
    rng = np.random.default_rng(51)
    for _ in range(50):
        R = random_rotation(rng)
        Rhat = random_rotation(rng)
        state = ObserverState.cold_start(rot=Rotation(Rhat))
        imu = hover_imu(R, ref)
        w_omega, w_v, w_a, b_omega_dot, b_a_dot = correction(monkeypatch, state, imu, None, gains, ref)
        axis = vex(pa(weighted_matrix(build_triads(imu, ref)) @ (R @ Rhat.T)))
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
    for dt in (0.0, -0.01, 0.11, float("nan")):
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


@pytest.mark.parametrize("kind", ["solvable", "all-zero", "beyond the diameter"])
def test_a_handed_fix_steps_as_the_step_s_own_solve(kind):
    # The fix sim._run_and_score solves once and hands over, or the None of a failed
    # solve, gives the state step reaches by solving the frame itself; each
    # failure, rank 3 or out of range, counts once.
    ref = ReferenceVectors()
    anchors = box_anchors()
    rng = np.random.default_rng(57)
    state = ObserverState.cold_start(pos=(1.0, -0.5, 1.5), rot=Rotation(random_rotation(rng)))
    d, error = {
        "solvable": (synthesize_tdoa([1.2, 0.4, 1.1], None, anchors, noise_sd=0.05, seed=1).d, None),
        "all-zero": (np.zeros(8), GeometryDegenerate),
        "beyond the diameter": (np.full(8, anchors.diameter + DIAMETER_SLACK + 0.5), ValueError),
    }[kind]
    frame = TdoaFrame(timestamp=0.0, d=d)
    if error is None:
        p_y = solve_frame(anchors, frame).p
    else:
        with pytest.raises(error):
            solve_frame(anchors, frame)
        p_y = None
    imu = hover_imu(random_rotation(rng), ref)
    got = step(state, imu, frame, anchors, Gains(), 0.01, ref=ref, p_y=p_y)
    assert_states_identical(got, step(state, imu, frame, anchors, Gains(), 0.01, ref=ref))
    assert_states_identical(got, reference_step(state, imu, frame, anchors, Gains(), 0.01, ref=ref, p_y=p_y))
    assert got.tdoa_failures == state.tdoa_failures + (p_y is None)


def test_a_handed_fix_without_its_frame_raises():
    # No frame and no fix is a step without a frame; a fix with no frame is refused.
    ref = ReferenceVectors()
    anchors = box_anchors()
    imu = hover_imu(np.eye(3), ref)
    state = ObserverState.cold_start()
    assert_states_identical(
        step(state, imu, None, anchors, Gains(), 0.01, ref=ref, p_y=None),
        step(state, imu, None, anchors, Gains(), 0.01, ref=ref),
    )
    with pytest.raises(ValueError, match="without its TDOA frame"):
        step(ObserverState.cold_start(), imu, None, anchors, Gains(), 0.01, ref=ref, p_y=np.array([1.0, 2.0, 0.5]))


@pytest.mark.parametrize(
    "p_y, message",
    [
        (np.array([5.0]), r"p_y must have 3 components, got shape \(1,\)"),
        (5.0, r"p_y must have 3 components, got shape \(\)"),
        (np.array([np.nan, 1.0, 0.5]), r"p_y must be finite"),
    ],
    ids=["one component", "a scalar", "NaN"],
)
def test_a_malformed_handed_fix_is_refused_on_entry(p_y, message):
    # The first two would broadcast into a wrong correction; a NaN would fail only
    # on the result's SO(3) check, after a numpy RuntimeWarning.
    ref = ReferenceVectors()
    imu = hover_imu(np.eye(3), ref)
    frame = TdoaFrame(timestamp=0.0, d=np.zeros(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            step(ObserverState.cold_start(), imu, frame, box_anchors(), Gains(), 0.01, ref=ref, p_y=p_y)


@pytest.mark.parametrize("kind", ["no frame", "a handed fix", "a failed solve"])
def test_handed_body_rows_step_as_the_step_s_own_rows(kind):
    # The rows sim._run_and_score forms for a whole stream and hands over give
    # the state step reaches by forming them itself, with or without a fix.
    ref = ReferenceVectors()
    anchors = box_anchors()
    rng = np.random.default_rng(58)
    state = ObserverState.cold_start(pos=(1.0, -0.5, 1.5), rot=Rotation(random_rotation(rng)))
    frame = {
        "no frame": None,
        "a handed fix": TdoaFrame(0.0, synthesize_tdoa([1.2, 0.4, 1.1], None, anchors, noise_sd=0.05, seed=1).d),
        "a failed solve": TdoaFrame(0.0, np.zeros(8)),
    }[kind]
    p_y = None if kind != "a handed fix" else solve_frame(anchors, frame).p
    imu = ImuSample(0.0, rng.normal(scale=0.2, size=3), rng.normal(size=3) + (0.0, 0.0, 9.8), rng.normal(size=3))
    rows = list(_body_rows(imu))
    got = step(state, imu, frame, anchors, Gains(), 0.01, ref=ref, p_y=p_y, body_rows=rows)
    assert_states_identical(got, step(state, imu, frame, anchors, Gains(), 0.01, ref=ref))
    assert_states_identical(
        got, reference_step(state, imu, frame, anchors, Gains(), 0.01, ref=ref, p_y=p_y, body_rows=rows)
    )
    assert (got.triad_failures, got.tdoa_failures) == (0, kind == "a failed solve")


def test_handed_none_body_rows_count_one_triad_failure():
    # None stands for a sample whose rows do not form: the step dead-reckons
    # the attitude as it does on a sample without a magnetometer.
    ref = ReferenceVectors()
    rng = np.random.default_rng(59)
    state = ObserverState.cold_start(rot=Rotation(random_rotation(rng)))
    imu = hover_imu(random_rotation(rng), ref)
    no_mag = ImuSample(0.0, imu.gyro, imu.accel, None)
    got = step(state, imu, None, None, Gains(), 0.01, ref=ref, body_rows=None)
    assert got.triad_failures == state.triad_failures + 1
    assert_states_identical(got, step(state, no_mag, None, None, Gains(), 0.01, ref=ref))


@pytest.mark.parametrize(
    "rows",
    [[0.0] * 8, [0.0] * 10, [float("nan")] + [0.0] * 8, [float("inf")] * 9, [[1.0, 0.0, 0.0]] * 3, "123456789", 9.0],
    ids=["eight", "ten", "NaN", "inf", "three rows", "a string", "a number"],
)
def test_malformed_handed_body_rows_are_refused_on_entry(rows):
    ref = ReferenceVectors()
    with pytest.raises(ValueError, match="body_rows must be 9 finite numbers"):
        step(ObserverState.cold_start(), hover_imu(np.eye(3), ref), None, None, Gains(), 0.01, ref=ref, body_rows=rows)


def test_body_rows_handed_without_an_imu_sample_are_refused():
    rows = list(_body_rows(hover_imu(np.eye(3), ReferenceVectors())))
    for handed in (rows, None):
        with pytest.raises(ValueError, match="without an IMU sample"):
            step(ObserverState.cold_start(), None, None, None, Gains(), 0.01, body_rows=handed)


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
    # The lean kernel against the step composed from validated TangentElements,
    # solve_frame and 5x5 products written on the float contract in
    # helpers.py: bit for bit on R, P, V and both biases, and equal failure
    # counters, at every step.
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
    # reference vectors; reorth_every=7 writes a reorthonormalised rotation
    # back into the carried floats every seventh step.
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


def test_a_state_without_carried_floats_steps_as_its_own_fields_unpack():
    # step starts from the 21 floats the previous step carried, one array of
    # which the state's arrays are views; a state from the public constructor,
    # cold_start, replace or a pickle or copy carries none and unpacks its own
    # fields.  replace's new nav and biases differ from the stepped state's,
    # so stepping from the old carried floats would not match the reference.
    rng = np.random.default_rng(58)
    anchors, ref = box_anchors(), ReferenceVectors()
    stepped = step(ObserverState.cold_start(pos=(1.0, 0.5, 1.0)), hover_imu(np.eye(3), ref), None, None, Gains(), 0.01)
    x = stepped._x
    assert x is not None and x.shape == (21,)
    nav = stepped.nav
    fields = (nav.rot.m, nav.pos, nav.vel, stepped.b_omega_hat, stepped.b_a_hat)
    assert all(np.shares_memory(a, x) for a in fields)
    assert x.tobytes() == np.concatenate([a.ravel() for a in fields]).tobytes()
    other = NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3))
    states = {
        "public": ObserverState(other, rng.normal(scale=0.01, size=3), rng.normal(scale=0.1, size=3), 5, 1, 2),
        "cold_start": ObserverState.cold_start(pos=other.pos, vel=other.vel, rot=other.rot),
        "replace": replace(stepped, nav=other),
        "replace biases": replace(stepped, b_omega_hat=rng.normal(scale=0.01, size=3), b_a_hat=rng.normal(size=3)),
        "pickle": pickle.loads(pickle.dumps(stepped)),
        "copy": copy.copy(stepped),
        "deepcopy": copy.deepcopy(stepped),
    }
    for name, state in states.items():
        assert state._x is None, name
        for frame in (None, synthesize_tdoa(rng.uniform(-3.0, 3.0, 3), None, anchors, noise_sd=0.05, seed=1)):
            imu = hover_imu(random_rotation(rng), ref, t=0.01)
            got = step(state, imu, frame, anchors, Gains(), 0.01, ref=ref)
            assert_states_identical(got, reference_step(state, imu, frame, anchors, Gains(), 0.01, ref=ref))
    assert stepped._x is x


def test_the_carried_floats_round_trip_a_state_bit_for_bit():
    # What step carries is the state's fields unpacked, R row-major, then P,
    # V and both biases; a state written in place through its views is read
    # back as written.
    rng = np.random.default_rng(18)
    for _ in range(20):
        nav = NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3))
        state = ObserverState(nav, rng.normal(size=3), rng.normal(size=3))
        floats = observer_module._carried(state)
        x = np.array(floats)
        assert [type(f) for f in floats] == [float] * 21
        for got, want in zip((x[:9].reshape(3, 3), x[9:12], x[12:15], x[15:18], x[18:]),
                             (nav.rot.m, nav.pos, nav.vel, state.b_omega_hat, state.b_a_hat)):
            assert got.tobytes() == want.tobytes()
        stepped = step(state, hover_imu(nav.rot.m, ReferenceVectors()), None, None, Gains(), 0.01)
        assert observer_module._carried(stepped) == stepped._x.tolist()
        stepped.nav.pos[:] = rng.normal(size=3)
        stepped.b_a_hat[1] = 0.25
        assert observer_module._carried(stepped) == observer_module._carried(replace(stepped))


def test_a_reorthonormalised_rotation_is_written_back_into_the_carried_floats():
    rng = np.random.default_rng(59)
    ref = ReferenceVectors()
    state = ObserverState.cold_start(rot=Rotation(random_rotation(rng)))
    for k in range(3):
        imu = ImuSample(timestamp=0.01 * k, gyro=rng.normal(scale=0.5, size=3), accel=[0.0, 0.0, 9.8], mag=[-1.7, 0.0, 1.2])
        want = reference_step(state, imu, None, None, Gains(), 0.01, ref=ref, reorth_every=1)
        state = step(state, imu, None, None, Gains(), 0.01, ref=ref, reorth_every=1)
        assert_states_identical(state, want)
        x, nav = state._x, state.nav
        assert all(np.shares_memory(a, x) for a in (nav.rot.m, nav.pos, nav.vel))
        assert x[:15].tobytes() == np.concatenate([want.nav.rot.m.ravel(), want.nav.pos, want.nav.vel]).tobytes()


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


@pytest.mark.parametrize("mag", [None, [0.0, 0.0, 2.0]], ids=["no magnetometer", "collinear"])
def test_invalid_weights_are_refused_before_a_degenerate_triad_is_read(mag):
    # The weights are the caller's parameter, so they are checked before any
    # measurement: a sample that forms no triad must not hide them.
    imu = ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=[0.0, 0.0, 9.8], mag=mag)
    with pytest.raises(ValueError, match="nonnegative"):
        step(ObserverState.cold_start(), imu, None, None, Gains(), 0.01, weights=(5.0, -2.0, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        build_triads(imu, ReferenceVectors(), s=(5.0, -2.0, 0.0))


@pytest.mark.parametrize(
    "accel, mag",
    [([0.0, 0.0, 9.8], None), ([0.0, 0.0, 0.0], [-1.7, 0.0, 1.2]), ([0.0, 0.0, 9.8], [0.0, 0.0, 0.0]),
     ([0.3, -0.2, 9.8], [0.06, -0.04, 1.96])],
    ids=["no magnetometer", "zero accelerometer", "zero magnetometer", "collinear"],
)
def test_a_degenerate_triad_steps_as_the_composition_and_counts_one_failure(accel, mag):
    # step forms the triad rows itself, without build_triads; on each way a
    # sample can fail to form them it must dead-reckon the attitude as the
    # dataclass composition does, frame or no frame, and count one failure.
    rng = np.random.default_rng(60)
    anchors, ref = box_anchors(), ReferenceVectors()
    state = ObserverState(
        NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3)),
        rng.normal(scale=0.01, size=3),
        rng.normal(scale=0.1, size=3),
        3, 1, 2,
    )
    imu = ImuSample(timestamp=0.0, gyro=rng.normal(scale=0.3, size=3), accel=accel, mag=mag)
    for frame in (None, synthesize_tdoa(rng.uniform(-3.0, 3.0, 3), None, anchors, noise_sd=0.05, seed=2)):
        got = step(state, imu, frame, anchors, Gains(), 0.01, ref=ref)
        assert_states_identical(got, reference_step(state, imu, frame, anchors, Gains(), 0.01, ref=ref))
        assert got.triad_failures == state.triad_failures + 1
        assert got.tdoa_failures == state.tdoa_failures


def test_step_rejects_a_non_finite_bias_corrected_imu_element():
    # Gyro and bias estimate are each finite; their difference overflows.
    state = ObserverState(NavState(Rotation.identity(), np.zeros(3), np.zeros(3)), [-1e308, 0.0, 0.0], np.zeros(3))
    imu = ImuSample(timestamp=0.0, gyro=[1e308, 0.0, 0.0], accel=[0.0, 0.0, 9.8], mag=[-1.7, 0.0, 1.2])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        step(state, imu, None, None, Gains(), 0.01)


def test_step_rejects_a_bias_update_that_overflows_while_the_state_stays_finite():
    # gamma_a only scales the accelerometer-bias update, so X stays finite
    # and the result's finiteness test must catch the bias on its own, with
    # the message ObserverState gives.
    anchors = box_anchors()
    ref = ReferenceVectors()
    frame = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors)
    state = ObserverState.cold_start(pos=(-3.0, -1.0, 0.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="b_a_hat must be finite"):
        step(state, hover_imu(np.eye(3), ref), frame, anchors, Gains(gamma_a=1e308), 0.01, ref=ref)


def test_observer_state_biases_must_be_3_vectors():
    # A (2,) estimate used to construct and fail inside the next step with a
    # numpy broadcast error, which the stream loop reported as a divergence.
    with pytest.raises(ValueError, match="b_omega_hat must have 3 components"):
        ObserverState(NavState.identity(), [0.0, 0.0], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="b_a_hat must have 3 components"):
        ObserverState(NavState.identity(), np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="b_a_hat must be finite"):
        ObserverState(NavState.identity(), np.zeros(3), [0.0, np.nan, 0.0])
    state = ObserverState(NavState.identity(), [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    assert state.b_omega_hat.shape == state.b_a_hat.shape == (3,)
    assert step(state, hover_imu(np.eye(3), ReferenceVectors()), None, None, Gains(), 0.01).step_count == 1


def test_step_result_is_what_the_public_constructors_build():
    # step makes its result without running the constructors; rebuilt through
    # them it must pass and equal itself, survive a pickle round trip, and
    # hold per-instance dicts of the public size (a dict that stopped sharing
    # its keys with the class would cost memory on every kept state).
    rng = np.random.default_rng(57)
    anchors = box_anchors()
    ref = ReferenceVectors()
    state = ObserverState.cold_start(pos=(-3.0, -1.0, 0.5), rot=Rotation(random_rotation(rng)))
    for k in range(40):
        frame = synthesize_tdoa(rng.uniform(-3.0, 3.0, 3), None, anchors, noise_sd=0.05, seed=k)
        state = step(state, hover_imu(random_rotation(rng), ref, t=0.01 * k), frame, anchors, Gains(), 0.01, reorth_every=7)
        nav = state.nav
        public = ObserverState(
            NavState(Rotation(nav.rot.m), nav.pos, nav.vel),
            state.b_omega_hat,
            state.b_a_hat,
            state.step_count,
            state.tdoa_failures,
            state.triad_failures,
        )
        assert_states_identical(state, public)
        assert_states_identical(pickle.loads(pickle.dumps(state)), state)
        for got, want in ((state, public), (nav, public.nav), (nav.rot, public.nav.rot)):
            assert type(got) is type(want)
            assert list(vars(got)) == list(vars(want))
            assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(want))
    assert state.step_count == 40 and state.tdoa_failures == 0


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
