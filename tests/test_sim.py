"""Tests for truth propagation, measurement synthesis, and closed-loop runs."""

import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_states_identical, random_rotation, reference_propagate_truth, reference_step
from uwbnav.liegroup import NavState, Rotation, att_dist
from uwbnav.observer import Gains, error_metrics
from uwbnav.sensors import ReferenceVectors
from uwbnav.sim import (
    PRESET_NAMES,
    Scenario,
    SensorNoise,
    TruthModel,
    default_anchors,
    preset_scenario,
    propagate_truth,
    run_scenario,
    settling_time,
    synthesize_imu,
    truth_track,
)

GRAVITY = np.array([0.0, 0.0, -9.8])


def hover_model(R0, V0=(0.0, 0.0, 0.0), pos0=(1.0, 2.0, 1.5), **kwargs):
    f = -(R0.T @ GRAVITY)
    return TruthModel(
        nav=NavState(Rotation(R0), np.asarray(pos0, dtype=float), np.asarray(V0, dtype=float)),
        accel_fn=lambda _t: f.copy(),
        **kwargs,
    )


# --- SensorNoise / Scenario validation --------------------------------------------


def test_sensor_noise_defaults():
    n = SensorNoise()
    assert (n.gyro_sd, n.accel_sd, n.mag_sd, n.tdoa_sd) == (0.0, 0.0, 0.2, 0.0)


@pytest.mark.parametrize("field", ["gyro_sd", "accel_sd", "mag_sd", "tdoa_sd"])
def test_sensor_noise_rejects_negative(field):
    with pytest.raises(ValueError, match=field):
        SensorNoise(**{field: -0.1})


def test_scenario_rejects_bad_duration_and_rates():
    sc = preset_scenario("static")
    with pytest.raises(ValueError, match="duration"):
        Scenario(
            name="x", anchors=sc.anchors, duration=0.0, truth=sc.truth, estimate=sc.estimate
        )
    with pytest.raises(ValueError, match="rate"):
        Scenario(
            name="x",
            anchors=sc.anchors,
            duration=1.0,
            truth=sc.truth,
            estimate=sc.estimate,
            tdoa_rate=0.0,
        )


# --- propagate_truth ---------------------------------------------------------------


def test_propagate_hover_advances_position_only():
    rng = np.random.default_rng(61)
    R0 = random_rotation(rng)
    V0 = np.array([0.1, -0.2, 0.05])
    truth = hover_model(R0, V0)
    for _ in range(100):
        truth = propagate_truth(truth, 0.01)
    np.testing.assert_allclose(truth.nav.vel, V0, atol=1e-12)
    np.testing.assert_allclose(truth.nav.pos, np.array([1.0, 2.0, 1.5]) + V0, atol=1e-12)
    np.testing.assert_allclose(truth.nav.rot.m, R0, atol=1e-12)
    assert truth.time == pytest.approx(1.0)


def test_propagate_free_fall():
    truth = TruthModel(nav=NavState(Rotation.identity(), np.zeros(3), np.zeros(3)))
    for _ in range(100):
        truth = propagate_truth(truth, 0.01)
    np.testing.assert_allclose(truth.nav.vel, GRAVITY * 1.0, atol=1e-12)
    np.testing.assert_allclose(truth.nav.pos, 0.5 * GRAVITY * 1.0**2, atol=1e-12)


def test_propagate_rejects_bad_dt():
    truth = hover_model(np.eye(3))
    for dt in (0.0, -0.01, 0.2):
        with pytest.raises(ValueError, match="dt"):
            propagate_truth(truth, dt)


def test_propagate_kernel_matches_the_dataclass_sandwich():
    # propagate_truth against exp(-G dt) @ _pack(R, P, V) @ exp(U dt) built from
    # validated TangentElements: bit for bit over a 600-step walk with
    # time-varying inputs, random step lengths and a non-default gravity.
    rng = np.random.default_rng(62)
    w = rng.normal(size=3)
    f = rng.normal(size=3)
    truth = TruthModel(
        nav=NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3)),
        omega_fn=lambda t: w * np.cos(t) + 0.1,
        accel_fn=lambda t: f * np.sin(3.0 * t) + np.array([0.0, 0.0, 9.81]),
        gravity=(0.1, -0.2, -9.81),
    )
    for _ in range(600):
        dt = float(rng.uniform(1e-4, 0.1))
        want = reference_propagate_truth(truth, dt)
        truth = propagate_truth(truth, dt)
        assert np.array_equal(truth.nav.rot.m, want.nav.rot.m)
        assert np.array_equal(truth.nav.pos, want.nav.pos)
        assert np.array_equal(truth.nav.vel, want.nav.vel)
        assert truth.time == want.time


def test_propagate_rejects_non_finite_inputs():
    truth = TruthModel(
        nav=NavState(Rotation.identity(), np.zeros(3), np.zeros(3)),
        omega_fn=lambda _t: np.array([np.nan, 0.0, 0.0]),
    )
    with pytest.raises(ValueError, match="finite"):
        propagate_truth(truth, 0.01)
    truth = TruthModel(nav=NavState(Rotation.identity(), np.zeros(3), np.zeros(3)), gravity=(0.0, np.inf, 0.0))
    with pytest.raises(ValueError, match="finite"):
        propagate_truth(truth, 0.01)


def test_run_scenario_matches_the_dataclass_kernels(monkeypatch):
    # A closed-loop run with noise, biases and a lever arm, once on the lean
    # kernels and once with sim.step and sim.propagate_truth replaced by the
    # dataclass compositions: every recorded series is identical.
    import uwbnav.sim as sim_module

    sc = preset_scenario(
        "figure8",
        seed=3,
        duration=5.0,
        noise=SensorNoise(gyro_sd=0.005, accel_sd=0.02, mag_sd=0.2, tdoa_sd=0.05),
        b_omega=(0.01, -0.02, 0.005),
        b_a=(0.1, -0.05, 0.2),
        tag_offset=(-0.012, 0.001, 0.091),
    )
    lean = run_scenario(sc, Gains())
    monkeypatch.setattr(sim_module, "step", reference_step)
    monkeypatch.setattr(sim_module, "propagate_truth", reference_propagate_truth)
    ref = run_scenario(sc, Gains())
    for name in ("att_err", "pos_err", "vel_err", "b_omega_err", "b_a_err", "truth_rot", "est_pos", "est_vel"):
        assert np.array_equal(getattr(lean, name), getattr(ref, name)), name
    assert_states_identical(lean.final_state, ref.final_state)


def test_batched_errors_match_error_metrics_row_by_row(monkeypatch):
    # run_scenario computes every error series after the loop, in one pass
    # over the estimate arrays.  Each row must keep the bits of the per-step
    # forms: error_metrics, and the plain np.linalg.norm / att_dist of one
    # row.  Two batched forms that look equivalent do not.  On this run
    # np.linalg.norm(d, axis=1), which sums the squares in another order,
    # differs on 87 of the 1 001 position rows and 77 velocity rows, and an
    # einsum trace of the stacked products on 264 attitude rows.
    import uwbnav.sim as sim_module

    states = []
    real = sim_module.step

    def recording(state, *args, **kwargs):
        out = real(state, *args, **kwargs)
        states.append(out)
        return out

    monkeypatch.setattr(sim_module, "step", recording)
    b_omega, b_a = np.array([0.01, -0.02, 0.005]), np.array([0.1, -0.05, 0.2])
    sc = preset_scenario(
        "figure8",
        seed=5,
        duration=10.0,
        noise=SensorNoise(gyro_sd=0.005, accel_sd=0.02, mag_sd=0.2, tdoa_sd=0.05),
        b_omega=b_omega,
        b_a=b_a,
        tag_offset=(-0.012, 0.001, 0.091),
    )
    res = run_scenario(sc, Gains())
    states.insert(0, sc.estimate)
    assert len(states) == len(res.t) == 1001
    want = {name: np.empty(len(states)) for name in ("att_err", "pos_err", "vel_err", "b_omega_err", "b_a_err")}
    plain = {name: np.empty(len(states)) for name in want}
    raw_err = np.full(len(states), np.nan)
    for k, state in enumerate(states):
        truth = NavState(Rotation(res.truth_rot[k]), res.truth_pos[k], res.truth_vel[k])
        m = error_metrics(truth, state, b_omega, b_a)
        for name in want:
            want[name][k] = getattr(m, name)
        nav = state.nav
        plain["att_err"][k] = att_dist(res.truth_rot[k] @ nav.rot.m.T)
        plain["pos_err"][k] = np.linalg.norm(res.truth_pos[k] - nav.pos)
        plain["vel_err"][k] = np.linalg.norm(res.truth_vel[k] - nav.vel)
        plain["b_omega_err"][k] = np.linalg.norm(b_omega - state.b_omega_hat)
        plain["b_a_err"][k] = np.linalg.norm(b_a - state.b_a_hat)
        if np.isfinite(res.raw_pos[k, 0]):
            raw_err[k] = np.linalg.norm(res.raw_pos[k] - res.truth_pos[k])
    for name in want:
        assert np.array_equal(getattr(res, name), want[name]), name
        assert np.array_equal(getattr(res, name), plain[name]), name
    assert np.count_nonzero(np.isfinite(raw_err)) == 100
    assert np.array_equal(res.raw_err, raw_err, equal_nan=True)


def test_propagate_matches_analytic_trajectory_second_order():
    # Independent oracle: a yawing sinusoidal trajectory with closed-form
    # R(t), P(t), V(t).  Midpoint input sampling must converge at O(dt^2).
    w = 0.7

    def rot(t):
        c, s = math.cos(w * t), math.sin(w * t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def pos(t):
        return np.array([math.sin(0.8 * t), 0.5 * math.sin(1.6 * t), 0.3 * t])

    def vel(t):
        return np.array([0.8 * math.cos(0.8 * t), 0.8 * math.cos(1.6 * t), 0.3])

    def vdot(t):
        return np.array([-0.64 * math.sin(0.8 * t), -1.28 * math.sin(1.6 * t), 0.0])

    def accel_fn(t):
        return rot(t).T @ (vdot(t) - GRAVITY)

    def run(dt):
        truth = TruthModel(
            nav=NavState(Rotation(rot(0.0)), pos(0.0), vel(0.0)),
            omega_fn=lambda _t: np.array([0.0, 0.0, w]),
            accel_fn=accel_fn,
        )
        for _ in range(int(round(1.0 / dt))):
            truth = propagate_truth(truth, dt)
        return (
            np.linalg.norm(truth.nav.pos - pos(1.0))
            + np.linalg.norm(truth.nav.vel - vel(1.0))
            + np.linalg.norm(truth.nav.rot.m - rot(1.0))
        )

    coarse, fine = run(0.01), run(0.0025)
    assert coarse < 1e-3
    assert 8.0 < coarse / fine < 32.0


def test_truth_rotation_stays_orthonormal_over_run():
    sc = preset_scenario("yaw_circle", duration=5.0)
    result = run_scenario(sc, Gains())
    worst = max(
        np.max(np.abs(R.T @ R - np.eye(3))) for R in result.truth_rot
    )
    assert worst <= 1e-9


# --- synthesize_imu ----------------------------------------------------------------


def test_synthesize_hover_measures_reaction_to_gravity():
    rng = np.random.default_rng(62)
    R0 = random_rotation(rng)
    truth = hover_model(R0, noise=SensorNoise(mag_sd=0.0))
    sample = synthesize_imu(truth, 0.0)
    np.testing.assert_allclose(sample.accel, -R0.T @ GRAVITY, atol=1e-15)
    np.testing.assert_allclose(sample.gyro, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(sample.mag, R0.T @ np.array([-1.7, 0.0, 1.2]), atol=1e-15)


def test_synthesize_biases_are_exactly_additive():
    b_omega = np.array([0.01, -0.02, 0.005])
    b_a = np.array([0.1, -0.05, 0.2])
    truth = hover_model(np.eye(3), b_omega=b_omega, b_a=b_a, noise=SensorNoise(mag_sd=0.0))
    clean = hover_model(np.eye(3), noise=SensorNoise(mag_sd=0.0))
    biased = synthesize_imu(truth, 0.25)
    base = synthesize_imu(clean, 0.25)
    # The true rate is zero, so the gyro reads the bias bit for bit; the
    # accelerometer adds the bias to a nonzero specific force (one rounding).
    np.testing.assert_array_equal(biased.gyro, b_omega)
    np.testing.assert_allclose(biased.accel - base.accel, b_a, atol=1e-14)


def test_synthesize_noise_is_seed_and_time_keyed():
    noise = SensorNoise(gyro_sd=0.01, accel_sd=0.05, mag_sd=0.2)
    t_a = hover_model(np.eye(3), noise=noise, seed=7)
    a1 = synthesize_imu(t_a, 0.13)
    a2 = synthesize_imu(t_a, 0.13)
    b = synthesize_imu(t_a, 0.14)
    c = synthesize_imu(hover_model(np.eye(3), noise=noise, seed=8), 0.13)
    for field in ("gyro", "accel", "mag"):
        assert np.array_equal(getattr(a1, field), getattr(a2, field))
        assert not np.array_equal(getattr(a1, field), getattr(b, field))
        assert not np.array_equal(getattr(a1, field), getattr(c, field))


def test_synthesize_noiseless_ignores_seed():
    quiet = SensorNoise(mag_sd=0.0)
    a = synthesize_imu(hover_model(np.eye(3), noise=quiet, seed=1), 0.5)
    b = synthesize_imu(hover_model(np.eye(3), noise=quiet, seed=2), 0.5)
    assert np.array_equal(a.accel, b.accel)
    assert np.array_equal(a.mag, b.mag)


# --- presets -----------------------------------------------------------------------


def test_preset_names_and_durations():
    assert PRESET_NAMES == ("static", "yaw_circle", "figure8")
    for name, dur in (("static", 10.0), ("yaw_circle", 20.0), ("figure8", 30.0)):
        assert preset_scenario(name).duration == dur


def test_preset_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        preset_scenario("barrel_roll")


def test_preset_initial_offset_matches_reference_experiment():
    # Truth starts at [1.237, 0.124, 1.534]; the estimate at [-3, -1, 0]:
    # initial position error just over 4.64 m.
    sc = preset_scenario("static")
    err = np.linalg.norm(sc.truth.nav.pos - sc.estimate.nav.pos)
    assert err == pytest.approx(4.644, abs=1e-3)
    assert default_anchors().n == 8


# --- run_scenario ------------------------------------------------------------------


def test_run_scenario_shapes_and_frame_count():
    sc = preset_scenario("static", duration=2.0, noise=SensorNoise(mag_sd=0.0))
    r = run_scenario(sc, Gains())
    n = 200
    assert r.t.shape == (n + 1,)
    assert r.att_err.shape == (n + 1,)
    assert r.truth_rot.shape == (n + 1, 3, 3)
    assert len(r.imu) == n + 1  # one trailing sample carries the final dt
    assert r.summary["tdoa_frames"] == 20  # 10 Hz over 2 s starting at t=0
    frame_steps = sorted(r.frames)
    assert np.all(np.isfinite(r.raw_err[frame_steps]))
    off = np.setdiff1d(np.arange(n + 1), frame_steps)
    assert np.all(np.isnan(r.raw_err[off]))


def test_run_scenario_is_bit_deterministic():
    noise = SensorNoise(gyro_sd=0.01, accel_sd=0.05, mag_sd=0.2, tdoa_sd=0.05)
    kw = dict(seed=5, duration=2.0, noise=noise, b_omega=(0.01, -0.02, 0.005))
    a = run_scenario(preset_scenario("figure8", **kw), Gains())
    b = run_scenario(preset_scenario("figure8", **kw), Gains())
    for field in ("att_err", "pos_err", "vel_err", "est_pos", "est_vel"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(a.raw_pos, b.raw_pos, equal_nan=True)
    assert sorted(a.frames) == sorted(b.frames)
    for k in a.frames:
        assert np.array_equal(a.frames[k].d, b.frames[k].d)
    assert json.dumps(a.summary) == json.dumps(b.summary)
    c = run_scenario(preset_scenario("figure8", **{**kw, "seed": 6}), Gains())
    assert not np.array_equal(a.est_pos, c.est_pos)


# --- truth_track ---------------------------------------------------------------------


def sweep_scenario(seed=0, **kwargs):
    noise = SensorNoise(gyro_sd=0.005, accel_sd=0.02, mag_sd=0.2, tdoa_sd=0.05)
    kwargs = {"duration": 2.0, "noise": noise, "tag_offset": (-0.012, 0.001, 0.091), **kwargs}
    return preset_scenario(kwargs.pop("name", "figure8"), seed=seed, **kwargs)


def test_one_truth_track_serves_every_seed():
    # A track built from seed 0's scenario: seeds with their own noise draws,
    # biases and initial estimates run on it exactly as on a track of their own.
    track = truth_track(sweep_scenario(seed=0))
    for sc in (
        sweep_scenario(seed=1),
        sweep_scenario(seed=2, b_omega=(0.01, -0.02, 0.005), b_a=(0.1, -0.05, 0.2), estimate_pos=(0.5, 0.2, 1.0)),
    ):
        shared = run_scenario(sc, Gains(), track=track)
        own = run_scenario(sc, Gains())
        for name in ("att_err", "pos_err", "vel_err", "b_omega_err", "b_a_err", "truth_rot", "est_pos", "est_vel"):
            assert np.array_equal(getattr(shared, name), getattr(own, name)), name
        assert np.array_equal(shared.raw_pos, own.raw_pos, equal_nan=True)
        assert json.dumps(shared.summary) == json.dumps(own.summary)


def test_run_scenario_imu_matches_synthesize_imu():
    # run_scenario reads the track and synthesize_imu a TruthModel; both add
    # the biases and the seeded noise through one helper.
    sc = sweep_scenario(seed=4, b_omega=(0.01, -0.02, 0.005), b_a=(0.1, -0.05, 0.2))
    result = run_scenario(sc, Gains())
    for k in (0, 1, 77, len(result.imu) - 1):
        nav = NavState(Rotation(result.truth_rot[k]), result.truth_pos[k], result.truth_vel[k])
        want = synthesize_imu(replace(sc.truth, nav=nav), float(result.t[k]), sc.ref)
        got = result.imu[k]
        assert got.timestamp == want.timestamp
        for name in ("gyro", "accel", "mag"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (k, name)


@pytest.mark.parametrize(
    "other, differ",
    [
        (dict(name="yaw_circle"), ": omega_fn, accel_fn, initial position, initial velocity differ"),
        (dict(duration=3.0), ": n differ"),
        (dict(imu_rate=200.0), ": imu_rate, n differ"),
        (dict(ref=ReferenceVectors(gravity=(0.0, 0.0, -9.81))), ": gravity differ"),
    ],
    ids=["trajectory", "duration", "imu_rate", "gravity"],
)
def test_run_scenario_refuses_a_track_of_another_trajectory(other, differ):
    track = truth_track(sweep_scenario(seed=0))
    with pytest.raises(ValueError, match=differ):
        run_scenario(sweep_scenario(seed=1, **other), Gains(), track=track)


def test_run_scenario_refuses_a_track_from_another_initial_state():
    sc = sweep_scenario(seed=0)
    track = truth_track(sc)
    nav = sc.truth.nav
    moved = replace(sc, truth=replace(sc.truth, nav=NavState(nav.rot, nav.pos + [0.0, 0.0, 1e-12], nav.vel)))
    with pytest.raises(ValueError, match=": initial position differ"):
        run_scenario(moved, Gains(), track=track)


def test_truth_track_is_read_only_and_pickles_for_jobs_workers():
    sc = sweep_scenario(seed=0)
    track = truth_track(sc)
    copy = pickle.loads(pickle.dumps(track))
    for tr in (track, copy):
        for name in ("gravity", "rot", "pos", "vel", "omega", "accel"):
            assert not getattr(tr, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        track.pos[0, 0] = 1.0
    # A preset trajectory unpickles as the same instance, so the copy still
    # fits the scenarios a worker builds.
    assert copy.omega_fn == sc.truth.omega_fn and copy.accel_fn == sc.truth.accel_fn
    assert np.array_equal(run_scenario(sc, Gains(), track=copy).est_pos, run_scenario(sc, Gains(), track=track).est_pos)


@settings(max_examples=60, deadline=None)
@given(imu_rate=st.floats(min_value=11.0, max_value=5000.0), n=st.integers(min_value=1, max_value=300))
def test_propagate_truth_time_lands_on_the_sample_grid(imu_rate, n):
    # t[k] + (t[k+1] - t[k]) == t[k+1]: the difference is exact (Sterbenz),
    # so stepping the truth keeps its time on the sample grid.
    t = np.arange(n + 1) / imu_rate
    truth = TruthModel(nav=NavState.identity())
    for k in range(n):
        truth = propagate_truth(truth, float(t[k + 1] - t[k]))
        assert truth.time == t[k + 1]


def test_run_scenario_truth_initialized_estimate_stays_put():
    # With perfect sensors and the estimate started on the truth, every
    # innovation is zero and the errors never leave machine precision.
    sc = preset_scenario(
        "static",
        duration=10.0,
        noise=SensorNoise(mag_sd=0.0),
        estimate_pos=(1.237, 0.124, 1.534),
        estimate_vel=(0.0, 0.0, 0.0),
        estimate_rotvec=(0.0, 0.0, 0.0),
    )
    r = run_scenario(sc, Gains())
    assert np.max(r.att_err) <= 1e-9
    assert np.max(r.pos_err) <= 1e-9
    assert np.max(r.vel_err) <= 1e-9


def test_run_scenario_noiseless_loop_converges_below_microscale():
    # Synchronous fixes, small initial offsets: all three errors fall below
    # 1e-6 within 10 simulated seconds.
    s = 1e-4
    sc = preset_scenario(
        "static",
        duration=10.0,
        imu_rate=100.0,
        tdoa_rate=100.0,
        noise=SensorNoise(gyro_sd=0.0, accel_sd=0.0, mag_sd=0.0, tdoa_sd=0.0),
        estimate_pos=(1.237 + s, 0.124 - s, 1.534 + 0.5 * s),
        estimate_vel=(s, 0.0, -s),
        estimate_rotvec=(s, -0.5 * s, s),
    )
    r = run_scenario(sc, Gains())
    assert r.att_err[-1] < 1e-6
    assert r.pos_err[-1] < 1e-6
    assert r.vel_err[-1] < 1e-6
    assert r.summary["log_error_slope"] < 0.0
    assert r.summary["tdoa_failures"] == 0
    assert r.summary["triad_failures"] == 0


def test_run_scenario_converging_run_has_negative_slope_and_settles():
    # Fixes at the IMU rate give the position loop its full damping; at the
    # default 10 Hz fix rate the transient rings for ~20 s instead.
    sc = preset_scenario("static", duration=10.0, tdoa_rate=100.0)
    r = run_scenario(sc, Gains())
    assert r.summary["log_error_slope"] < 0.0
    settle = r.summary["settling_time"]
    assert math.isfinite(settle) and 0.0 < settle < 5.0
    assert r.pos_err[-1] < 0.3
    assert r.summary["initial_pos_err"] == pytest.approx(4.644, abs=1e-3)


def test_run_scenario_ref_override_is_threaded_through():
    ref = ReferenceVectors(gravity=(0.0, 0.0, -9.81), mag_ref=(0.4, -0.3, 0.9))
    sc = preset_scenario("static", duration=1.0, ref=ref)
    r = run_scenario(sc, Gains())
    assert r.summary["triad_failures"] == 0
    assert np.max(r.pos_err) < 5.0


# --- settling_time -----------------------------------------------------------------


def test_settling_time_detects_first_durable_dip():
    t = np.linspace(0.0, 10.0, 101)
    err = np.where(t < 2.0, 1.0, 0.1)
    assert settling_time(t, err, 0.5, 5.0) == pytest.approx(2.0)


def test_settling_time_requires_dwell():
    t = np.linspace(0.0, 10.0, 101)
    err = np.full_like(t, 1.0)
    err[(t >= 2.0) & (t < 3.0)] = 0.1  # transient dip only
    assert math.isnan(settling_time(t, err, 0.5, 5.0))


def test_settling_time_never_settles():
    t = np.linspace(0.0, 10.0, 101)
    assert math.isnan(settling_time(t, np.ones_like(t), 0.5, 5.0))


def test_settling_time_dip_too_close_to_end():
    t = np.linspace(0.0, 10.0, 101)
    err = np.where(t < 7.0, 1.0, 0.1)  # only 3 s of dwell available
    assert math.isnan(settling_time(t, err, 0.5, 5.0))
