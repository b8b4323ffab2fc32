"""Tests for truth propagation, measurement synthesis, and closed-loop runs."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwbnav.sim as sim_module
from helpers import (
    assert_states_identical,
    box_anchors,
    random_rotation,
    reference_propagate_truth,
    reference_step,
    reference_truth_track,
)
from uwbnav.liegroup import NavState, Rotation, att_dist
from uwbnav.observer import Gains, ObserverState, error_metrics, step
from uwbnav.sensors import ImuSample, ReferenceVectors
from uwbnav.tdoa import TdoaFrame, solve_frame, synthesize_tdoa
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


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("duration", math.inf, "duration must be finite"),
        ("duration", math.nan, "duration must be finite"),
        ("imu_rate", math.inf, "imu_rate must be finite"),
        ("tdoa_rate", math.inf, "tdoa_rate must be finite"),
        ("tdoa_rate", -1.0, "tdoa_rate must be finite and > 0"),
        ("tag_offset", (1.0, 2.0), "tag_offset must have 3 components"),
        ("tag_offset", (0.0, math.nan, 0.0), "tag_offset must be finite"),
    ],
)
def test_scenario_checks_its_rates_duration_and_lever_arm(field, value, match):
    sc = preset_scenario("static")
    kwargs = dict(name="x", anchors=sc.anchors, duration=1.0, truth=sc.truth, estimate=sc.estimate)
    with pytest.raises(ValueError, match=match):
        Scenario(**{**kwargs, field: value})


@pytest.mark.parametrize("field", ["b_omega", "b_a", "gravity"])
def test_truth_model_checks_its_vectors(field):
    nav = NavState.identity()
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TruthModel(nav=nav, **{field: (0.0, np.inf, 0.0)})
    with pytest.raises(ValueError, match=f"{field} must have 3 components"):
        TruthModel(nav=nav, **{field: (0.1, 0.2)})


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
    for dt in (0.0, -0.01, 0.2, float("nan")):
        with pytest.raises(ValueError, match="dt"):
            propagate_truth(truth, dt)


def test_propagate_kernel_matches_the_dataclass_sandwich():
    # propagate_truth against exp(-G dt) @ pack(R, P, V) @ exp(U dt) built from
    # validated TangentElements by the frozen arithmetic in helpers.py: bit for
    # bit over a 600-step walk with time-varying inputs, random step lengths
    # and a non-default gravity.
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
    # A non-finite gravity never reaches a step: the model refuses it.
    with pytest.raises(ValueError, match="finite"):
        TruthModel(nav=NavState(Rotation.identity(), np.zeros(3), np.zeros(3)), gravity=(0.0, np.inf, 0.0))


def test_run_scenario_matches_the_dataclass_kernels(monkeypatch):
    # A closed-loop run with noise, biases and a lever arm, once on the lean
    # kernels and once with sim.step replaced by the dataclass composition and
    # the truth track walked by it: every recorded series is identical.
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
    ref = run_scenario(sc, Gains(), track=reference_truth_track(sc))
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


def hover_sample(ref):
    return ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=-ref.gravity, mag=ref.mag_ref)


def run_without_truth(state, imu, mags, tdoa, anchors, ref, step):
    """``_run_and_score`` over the tables against an all-NaN truth: the run, unscored."""
    n = len(imu)
    truth = (np.full((n, 3, 3), np.nan), np.full((n, 3), np.nan), np.full((n, 3), np.nan))
    return sim_module._run_and_score(state, imu, mags, tdoa, anchors, Gains(), truth, 1.0, (0.5, 5.0), ref=ref, step=step)


def test_run_and_score_skips_steps_outside_the_dt_range():
    # On tables: a step with dt outside (0, 0.1] keeps the state, is counted,
    # and takes no frame; every frame a taken step receives is solved for the
    # raw-fix column and counted as handed to step.  Each frame goes to the
    # step starting at or before it, the last of a step winning: a frame
    # before the first sample, on a skipped step, under a later frame of its
    # step, or at the last sample reaches no step.
    anchors = box_anchors()
    ref = ReferenceVectors()
    hover = hover_sample(ref)
    times = [0.0, 0.01, 0.01, 0.21, 0.22, 0.23, 0.24]  # dts 0.01, 0.0, 0.2, 0.01, 0.01, 0.01
    imu = np.array([[t, *hover.gyro, *hover.accel] for t in times])
    mags = [hover.mag + k for k in range(len(times))]
    here = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors).d
    there = synthesize_tdoa([0.5, -0.3, 1.0], None, anchors).d
    tdoa = np.array([
        [-0.005, *here],  # before the first sample
        [0.0, *here],  # step 0
        [0.01, *here],  # step 2, skipped for its 0.2 s dt
        [0.21, *here],  # step 3, under the next frame
        [0.215, *there],  # step 3: the last of its step wins
        [0.23, *np.zeros(8)],  # step 5: all anchors equidistant, no fix
        [0.24, *here],  # the last sample starts no step
    ])
    state = ObserverState.cold_start()
    received = []

    def counting_step(state, imu, frame, *args, **kwargs):
        received.append((imu.timestamp, None if frame is None else frame.timestamp))
        assert imu.mag is mags[times.index(imu.timestamp)]
        return step(state, imu, frame, *args, **kwargs)

    run, skipped, taken, b_omega_hat, b_a_hat = run_without_truth(state, imu, mags, tdoa, anchors, ref, counting_step)
    final, P, V, fix = run.final_state, run.est_pos, run.est_vel, run.raw_pos
    assert skipped == 2
    assert received == [(0.0, 0.0), (0.21, 0.215), (0.22, None), (0.23, 0.23)]
    assert taken == 3 and len(tdoa) - taken == 4
    assert final.step_count == 4 and final.tdoa_failures == 1
    assert P.shape == V.shape == b_omega_hat.shape == b_a_hat.shape == (7, 3)
    assert np.array_equal(P[0], state.nav.pos) and np.array_equal(P[6], final.nav.pos)
    for a in (P, V, b_omega_hat, b_a_hat):
        assert np.array_equal(a[1], a[2]) and np.array_equal(a[2], a[3])  # kept across the skips
    assert np.flatnonzero(np.isfinite(fix[:, 0])).tolist() == [0, 3]
    assert np.array_equal(fix[0], solve_frame(anchors, TdoaFrame(0.0, here)).p)
    assert np.array_equal(fix[3], solve_frame(anchors, TdoaFrame(0.215, there)).p)


def test_run_and_score_skips_a_nan_dt():
    # Times running to inf give an inf dt and then a NaN one (inf - inf):
    # both steps are skipped and keep the state, and no frame reaches them.
    anchors = box_anchors()
    ref = ReferenceVectors()
    hover = hover_sample(ref)
    imu = np.array([[t, *hover.gyro, *hover.accel] for t in (0.0, 0.01, np.inf, np.inf)])
    here = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors).d
    tdoa = np.array([[0.0, *here], [0.01, *here], [np.inf, *here]])
    with np.errstate(invalid="ignore"):  # inf - inf
        run, skipped, taken, b_omega_hat, b_a_hat = run_without_truth(
            ObserverState.cold_start(), imu, [None] * 4, tdoa, anchors, ref, step
        )
    assert skipped == 2 and taken == 1 and run.final_state.step_count == 1
    for a in (run.est_pos, run.est_vel, b_omega_hat, b_a_hat):
        assert np.array_equal(a[1], a[2]) and np.array_equal(a[2], a[3])


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


def test_presets_fly_their_trajectory_under_the_scenario_gravity():
    # At g = 9.81 the presets' specific force is what that gravity needs: the
    # hover holds its position and the others follow their closed form, as
    # closely as at the default 9.8.  Every seed binds the one instance per
    # preset and gravity, so one track fits every seed of a sweep.
    ref = ReferenceVectors(gravity=(0.0, 0.0, -9.81))
    hover = truth_track(preset_scenario("static", duration=30.0, ref=ref))
    assert np.max(np.abs(hover.pos - hover.pos[0])) <= 1e-9
    for name, tol in (("yaw_circle", 1e-9), ("figure8", 1.1e-5 * 30.0)):
        sc = preset_scenario(name, duration=30.0, ref=ref)
        track = truth_track(sc)
        closed = np.array([sc.truth.accel_fn.__self__.pos(k / 100.0) for k in range(0, 3001, 50)])
        assert np.max(np.linalg.norm(track.pos[::50] - closed, axis=1)) <= tol, name
        assert preset_scenario(name, seed=3, ref=ref).truth.accel_fn == sc.truth.accel_fn
        assert preset_scenario(name, seed=3).truth.accel_fn != sc.truth.accel_fn


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


def test_synthesized_readings_are_checked_3_vectors():
    # The samples are built without ImuSample's constructor; its checks run on
    # the readings: a gyro that is not a 3-vector or not finite, a scenario
    # bias that is not a 3-vector, and a noisy reading that overflows are all
    # refused.
    with pytest.raises(ValueError, match="gyro must have 3 components"):
        synthesize_imu(hover_model(np.eye(3), omega_fn=lambda _t: np.zeros((2, 3))), 0.0)
    with pytest.raises(ValueError, match="gyro must be finite"):
        synthesize_imu(hover_model(np.eye(3), omega_fn=lambda _t: np.array([0.0, np.nan, 0.0])), 0.0)
    with pytest.raises(ValueError, match="b_a must have 3 components"):
        run_scenario(preset_scenario("static", duration=0.05, b_a=(0.1, 0.2)), Gains())
    loud = hover_model(np.eye(3), b_omega=(1.7e308, 0.0, 0.0), noise=SensorNoise(gyro_sd=1e308), seed=3)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="IMU readings must be finite"):
        for k in range(100):  # a draw that pushes the reading past the largest float
            synthesize_imu(loud, 0.01 * k)
    sample = synthesize_imu(hover_model(np.eye(3)), 2)
    assert type(sample.timestamp) is float
    assert sample.gyro.shape == sample.accel.shape == sample.mag.shape == (3,)


# --- seeded noise streams ----------------------------------------------------------

# Seeds and sample times (ns) at the edges of numpy's 32-bit entropy words.
WORD_EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5)
WORD_EDGE_TICKS = (0, 2**32 - 1, 2**32 + 1)


def default_rng_state(key):
    state = np.random.default_rng(key).bit_generator.state["state"]
    return state["state"], state["inc"]


@settings(max_examples=60, deadline=None)
@example(keys=list(itertools.product(WORD_EDGE_SEEDS, range(3), WORD_EDGE_TICKS)))
@given(
    st.lists(
        st.tuples(
            st.sampled_from(WORD_EDGE_SEEDS) | st.integers(0, 2**100),
            st.integers(0, 2),
            st.sampled_from(WORD_EDGE_TICKS) | st.integers(0, 2**70),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_pcg64_states_are_the_states_default_rng_starts_from(keys):
    # Keys of different word counts in one call, each hashed with its own kind.
    assert list(sim_module._pcg64_states(keys)) == [default_rng_state(key) for key in keys]


def test_pcg64_states_refuse_a_negative_int_as_numpy_does():
    for key in ((-1, 0, 0), (3, 0, -(2**70))):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.default_rng(key)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sim_module._pcg64_states([(1, 0, 0), key])
    assert list(sim_module._pcg64_states([])) == []


@pytest.mark.parametrize("sds", list(itertools.product((0.0, 0.01), (0.0, 0.05), (0.0, 0.2))))
def test_imu_stream_draws_what_a_generator_per_sample_draws(sds):
    # Every on/off combination of the three IMU sds: each sample's noise is
    # default_rng((seed, 0, t in ns)).normal(0, sd, 3) for gyro, accel, mag in
    # turn, bit for bit.  The times cross 2**32 ns, the seed is two words.
    gyro_sd, accel_sd, mag_sd = sds
    noise = SensorNoise(gyro_sd=gyro_sd, accel_sd=accel_sd, mag_sd=mag_sd)
    rng = np.random.default_rng(5)
    n, seed = 40, 2**32 + 11
    times = (4.2 + np.arange(n) / 100.0).tolist()
    gyro, accel = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    rot = [random_rotation(rng) for _ in range(n)]
    mag_ref = ReferenceVectors().mag_ref
    table = sim_module._imu_stream(noise, seed, times, gyro, accel, rot, mag_ref)
    assert table.shape == (n, 10)
    for k, row in enumerate(table):
        gen = np.random.default_rng((seed, 0, round(times[k] * 1e9)))
        want = [gyro[k], accel[k], rot[k].T @ mag_ref]
        for i, sd in enumerate(sds):
            if sd > 0.0:
                want[i] = want[i] + gen.normal(0.0, sd, 3)
        assert row[0] == times[k]
        for name, got, reading in zip(("gyro", "accel", "mag"), (row[1:4], row[4:7], row[7:10]), want):
            assert got.tobytes() == reading.tobytes(), (k, name)


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
    assert r.imu.shape == (n + 1, 10)  # one trailing sample carries the final dt
    assert np.array_equal(r.imu[:, 0], r.t)
    assert r.tdoa.shape == (20, 9)
    assert r.summary["tdoa_frames"] == 20  # 10 Hz over 2 s starting at t=0
    frame_steps = np.flatnonzero(np.isin(r.t, r.tdoa[:, 0]))  # each frame on a sample's time
    assert len(frame_steps) == 20
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
    assert a.imu.tobytes() == b.imu.tobytes()
    assert a.tdoa.shape == b.tdoa.shape and a.tdoa.tobytes() == b.tdoa.tobytes()
    assert json.dumps(a.summary) == json.dumps(b.summary)
    c = run_scenario(preset_scenario("figure8", **{**kw, "seed": 6}), Gains())
    assert not np.array_equal(a.est_pos, c.est_pos)


# --- truth_track ---------------------------------------------------------------------


def sweep_scenario(seed=0, **kwargs):
    noise = SensorNoise(gyro_sd=0.005, accel_sd=0.02, mag_sd=0.2, tdoa_sd=0.05)
    kwargs = {"duration": 2.0, "noise": noise, "tag_offset": (-0.012, 0.001, 0.091), **kwargs}
    return preset_scenario(kwargs.pop("name", "figure8"), seed=seed, **kwargs)


def test_the_stacked_magnetometer_rows_are_the_per_row_products_bit_for_bit():
    # _imu_stream takes every R^T m_r in one stacked product; each row is the
    # one 3x3 product R.T @ m_r, bit for bit.
    rng = np.random.default_rng(41)
    rot = np.array([random_rotation(rng) for _ in range(400)])
    mag_ref = rng.normal(size=3)
    zeros = np.zeros((len(rot), 3))
    table = sim_module._imu_stream(SensorNoise(mag_sd=0.0), 0, [0.01 * k for k in range(len(rot))], zeros, zeros,
                                   rot, mag_ref)
    assert table[:, 7:10].tobytes() == np.array([r.T @ mag_ref for r in rot]).tobytes()


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
        row = result.imu[k]
        assert row[0] == want.timestamp
        for name, got in zip(("gyro", "accel", "mag"), (row[1:4], row[4:7], row[7:10])):
            assert np.array_equal(got, getattr(want, name)), (k, name)


def test_run_scenario_frames_see_the_tag_through_the_truth_rotation():
    # Each frame run_scenario synthesizes puts the tag at P + R l, with R the
    # track's rotation at that step: the frames match synthesize_tdoa given a
    # public Rotation, bit for bit, and not a tag at the body origin.
    _check_frames_against_synthesize_tdoa(sweep_scenario(seed=4), 20)


@pytest.mark.parametrize(
    "kwargs, frames",
    [
        (dict(noise=SensorNoise(gyro_sd=0.005, accel_sd=0.02, mag_sd=0.2, tdoa_sd=0.0)), 20),
        (dict(tag_offset=(0.31, -0.22, 0.15), estimate_rotvec=(0.2, -0.1, 0.4)), 20),
        (dict(seed=2**32 + 4), 20),
        (dict(tdoa_rate=7.0), 14),
    ],
    ids=["tdoa_sd_0", "lever_arm", "big_seed", "rate_7"],
)
def test_run_scenario_frames_see_the_tag_through_the_truth_rotation_in_every_set_up(kwargs, frames):
    # The one-pass table against the one-frame forward model: no TDOA noise,
    # another lever arm, a seed of two entropy words, and a frame rate that
    # does not divide the IMU rate (frames 0.15 s and 0.14 s apart).
    _check_frames_against_synthesize_tdoa(sweep_scenario(**{"seed": 4, **kwargs}), frames)


def _check_frames_against_synthesize_tdoa(sc, frames):
    result = run_scenario(sc, Gains())
    assert len(result.tdoa) == frames
    for row in result.tdoa:
        k = int(np.searchsorted(result.t, row[0]))
        assert result.t[k] == row[0]
        seed = (sc.truth.seed, sim_module._STREAM_TDOA, k)
        rest = (sc.anchors, sc.tag_offset, sc.truth.noise.tdoa_sd)
        want = synthesize_tdoa(result.truth_pos[k], Rotation(result.truth_rot[k]), *rest, seed=seed)
        assert row[1:].tobytes() == want.d.tobytes(), k
        origin = synthesize_tdoa(result.truth_pos[k], None, *rest, seed=seed)
        assert not np.array_equal(row[1:], origin.d), k


@pytest.mark.parametrize(
    "other, differ",
    [
        (dict(name="yaw_circle"), ": omega_fn, accel_fn, initial position, initial velocity differ"),
        (dict(duration=3.0), ": n differ"),
        (dict(imu_rate=200.0), ": imu_rate, n differ"),
        (dict(ref=ReferenceVectors(gravity=(0.0, 0.0, -9.81))), ": omega_fn, accel_fn, gravity differ"),
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


def test_truth_track_is_read_only():
    track = truth_track(sweep_scenario(seed=0))
    for name in ("gravity", "rot", "pos", "vel", "omega", "accel"):
        assert not getattr(track, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        track.pos[0, 0] = 1.0


def custom_scenario(**kwargs):
    # Time-varying inputs, a random initial state and a non-default gravity.
    rng = np.random.default_rng(63)
    w, f = rng.normal(size=3), rng.normal(size=3)
    truth = TruthModel(
        nav=NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3)),
        omega_fn=lambda t: w * np.cos(t) + 0.1,
        accel_fn=lambda t: f * np.sin(3.0 * t) + np.array([0.0, 0.0, 9.81]),
        gravity=(0.1, -0.2, -9.81),
    )
    sc = preset_scenario("static")
    return Scenario(name="custom", anchors=sc.anchors, truth=truth, estimate=sc.estimate, **kwargs)


@pytest.mark.parametrize(
    "make",
    [
        *(lambda name=name: preset_scenario(name, duration=5.0) for name in PRESET_NAMES),
        lambda: custom_scenario(duration=3.0, imu_rate=250.0),
    ],
    ids=[*PRESET_NAMES, "custom-250Hz"],
)
def test_truth_track_matches_a_walk_of_the_dataclass_sandwich(make):
    # truth_track steps raw arrays; the reference walks validated TruthModels
    # through exp(-G dt) @ X @ exp(U dt) built by the frozen arithmetic in
    # helpers.py.  Every row and the track's definition agree bit for bit.
    sc = make()
    got, want = truth_track(sc), reference_truth_track(sc)
    assert (got.n, got.imu_rate) == (want.n, want.imu_rate)
    for name in ("gravity", "rot", "pos", "vel", "omega", "accel"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("fn", ["omega_fn", "accel_fn"])
def test_truth_track_rejects_non_finite_inputs(fn):
    sc = custom_scenario(duration=1.0)
    real = getattr(sc.truth, fn)
    bad = replace(sc.truth, **{fn: lambda t: real(t) * (np.nan if t > 0.5 else 1.0)})
    with pytest.raises(ValueError, match=rf"{fn}\(t\) must be finite"):
        truth_track(replace(sc, truth=bad))


def test_truth_track_checks_every_state_it_makes(monkeypatch):
    # The walk checks the state of each step: a rotation off SO(3) and a
    # non-finite position or velocity are refused, however late they appear.
    # The fault enters through the step's input exponential exp(U dt) (the
    # gravity factors are built at -dt), so it is in the state of step k and
    # no later step runs.
    sc = custom_scenario(duration=1.0)
    real = sim_module._se23_exp
    calls = []

    def corrupt(k, fault):
        calls.clear()

        def exponential(omega, vcol, acol, rho, dt):
            E = real(omega, vcol, acol, rho, dt)
            if dt > 0.0:
                calls.append(1)
                if len(calls) == k:
                    fault(E)
            return E

        monkeypatch.setattr(sim_module, "_se23_exp", exponential)

    def scale_rotation(E):
        E[:3, :3] *= 1.0 + 1e-8

    def infinite_position(E):
        E[1, 3] = np.inf

    def nan_velocity(E):
        E[2, 4] = np.nan

    for fault, match in (
        (scale_rotation, "not orthogonal"),
        (infinite_position, "position and velocity must be finite"),
        (nan_velocity, "position and velocity must be finite"),
    ):
        corrupt(57, fault)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=match):  # inf * 0 in the products
            truth_track(sc)
        assert len(calls) == 57


def test_truth_track_rejects_a_step_longer_than_a_tenth_of_a_second():
    with pytest.raises(ValueError, match=r"dt must be in \(0, 0.1\] s"):
        truth_track(preset_scenario("static", duration=1.0, imu_rate=9.0))


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


def settling_time_per_dip(t, pos_err, threshold, dwell):
    """settling_time as a loop over the dips, each with its own window mask (the reference)."""
    t = np.asarray(t, dtype=float)
    pos_err = np.asarray(pos_err, dtype=float)
    below = pos_err < threshold
    for i in np.flatnonzero(below):
        end = t[i] + dwell
        if t[-1] < end:
            return float("nan")
        window = (t >= t[i]) & (t <= end)
        if np.all(below[window]):
            return float(t[i])
    return float("nan")


@settings(max_examples=400, deadline=None)
@given(
    t0=st.floats(-10.0, 10.0),
    steps=st.lists(st.sampled_from([0.0, 0.01, 0.1]) | st.floats(0.0, 2.0), max_size=60),
    dwell=st.sampled_from([0.0, 0.01, 0.5, 5.0]) | st.floats(0.0, 20.0),
    data=st.data(),
)
def test_settling_time_matches_the_per_dip_loop(t0, steps, dwell, data):
    # Non-uniform and repeated times, errors at the threshold, dips near the
    # end: the same float as the loop, or NaN where it gives NaN.
    t = t0 + np.cumsum([0.0, *steps])
    err = data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.0, 1.0), min_size=len(t), max_size=len(t)))
    got, want = settling_time(t, err, 0.5, dwell), settling_time_per_dip(t, err, 0.5, dwell)
    assert (math.isnan(got) and math.isnan(want)) or np.float64(got).tobytes() == np.float64(want).tobytes()


def test_settling_time_of_an_empty_series_is_nan():
    assert math.isnan(settling_time([], [], 0.5, 5.0))
