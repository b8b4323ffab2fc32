"""The names the benchmark's tracer and latency shims look up in the package.

navbench/tracer.py wraps functions at the module attributes their callers
bind (``uwbnav.sim.solve_frame`` for a run's frames,
``uwbnav.observer.solve_frame`` for a frame ``step`` solves itself,
``uwbnav.sim.step``, ...), and the benchmark times ``uwbnav.sim.step`` /
``uwbnav.replay.step`` once per IMU step.  A refactor that moves a call away from one of these names would make
a traced run fail with a KeyError, or time nothing; these tests catch it
first.  The tracer is imported from its file and not modified.  The timed
calls are handed each sample's triad body rows; two tests check that those
are the rows the step would form, None included.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_states_identical

from uwbnav.observer import Gains, ObserverState, step
from uwbnav.replay import export_dataset, load_dataset, run_replay
from uwbnav.sensors import ImuSample, ReferenceVectors, TriadDegenerate, _body_rows
from uwbnav.sim import default_anchors, preset_scenario, run_scenario
from uwbnav.tdoa import TdoaFrame, load_anchors, solve_frame, synthesize_tdoa

TRACER = Path(__file__).resolve().parents[1] / "navbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("navbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def test_every_traced_call_site_resolves():
    sites = load_tracer().CALL_SITES
    assert sites
    for module, attr, span in sites:
        assert attr in owner(module).__dict__, f"{module}.{attr} (traced as {span}) is gone"


def test_run_scenario_calls_sim_step_once_per_imu_step(monkeypatch):
    import uwbnav.sim as sim_module

    calls = []
    real = sim_module.step

    def counting(*args, **kwargs):
        calls.append(args[1].timestamp)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_module, "step", counting)
    result = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    assert len(calls) == 100
    assert result.final_state.step_count == 100


def test_run_replay_calls_replay_step_once_per_taken_imu_step(monkeypatch, tmp_path):
    # The replay twin of the test above, over an exported 1 s trial with a
    # 0.21 s IMU gap cut into it: the step across the gap is skipped and
    # makes no call.
    import uwbnav.replay as replay_module

    sim = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    paths = export_dataset(sim, tmp_path)
    dataset = load_dataset({k: paths[k] for k in ("imu", "uwb", "gt")})
    dataset = replace(dataset, imu=np.concatenate([dataset.imu[:40], dataset.imu[60:]]))
    calls = []
    real = replay_module.step

    def counting(*args, **kwargs):
        calls.append(args[1].timestamp)
        return real(*args, **kwargs)

    monkeypatch.setattr(replay_module, "step", counting)
    result = run_replay(dataset, load_anchors(paths["anchors"]), Gains(), ObserverState.cold_start())
    summary = result.summary
    assert (summary["steps"], summary["skipped_steps"]) == (80, 1)
    assert len(calls) == 79
    assert calls == [t for k, t in enumerate(dataset.imu[:80, 0].tolist()) if k != 39]
    assert result.final_state.step_count == 79


def count_solves_and_stepped_frames(monkeypatch, step_module):
    """Lists that fill with each frame ``uwbnav.sim.solve_frame`` is called
    on, raising or not, and each frame ``step_module.step`` is handed."""
    import uwbnav.sim as sim_module

    solved, stepped = [], []
    real_solve, real_step = sim_module.solve_frame, step_module.step

    def counting_solve(anchors, frame, *args):
        solved.append(frame)
        return real_solve(anchors, frame, *args)

    def counting_step(*args, **kwargs):
        if args[2] is not None:
            stepped.append(args[2])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(sim_module, "solve_frame", counting_solve)
    monkeypatch.setattr(step_module, "step", counting_step)
    return solved, stepped


def test_run_scenario_solves_each_taken_frame_once(monkeypatch):
    import uwbnav.sim as sim_module

    solved, stepped = count_solves_and_stepped_frames(monkeypatch, sim_module)
    result = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    assert result.summary["tdoa_frames"] == 10
    assert len(stepped) == 10
    assert len(solved) == len(stepped) and all(a is b for a, b in zip(solved, stepped))


def test_run_replay_solves_each_taken_frame_once(monkeypatch, tmp_path):
    # Over the gap trial of test_run_replay_calls_replay_step_once_per_taken_imu_step,
    # with one frame's differences zeroed: the two frames on the skipped step
    # are dropped unsolved, and the frame that fails is solved once and
    # counted once.
    import uwbnav.replay as replay_module

    sim = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    paths = export_dataset(sim, tmp_path)
    dataset = load_dataset({k: paths[k] for k in ("imu", "uwb", "gt")})
    tdoa = dataset.tdoa.copy()
    tdoa[7, 1:] = 0.0
    dataset = replace(dataset, imu=np.concatenate([dataset.imu[:40], dataset.imu[60:]]), tdoa=tdoa)
    solved, stepped = count_solves_and_stepped_frames(monkeypatch, replay_module)
    result = run_replay(dataset, load_anchors(paths["anchors"]), Gains(), ObserverState.cold_start())
    summary = result.summary
    assert (summary["tdoa_frames"], summary["dropped_tdoa_frames"], summary["tdoa_failures"]) == (10, 2, 1)
    assert len(stepped) == 8
    assert len(solved) == len(stepped) and all(a is b for a, b in zip(solved, stepped))


def record_body_rows(monkeypatch, step_module):
    """A list that fills with (sample, handed body rows) for each ``step_module.step`` call."""
    handed = []
    real = step_module.step

    def recording(*args, **kwargs):
        handed.append((args[1], kwargs["body_rows"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(step_module, "step", recording)
    return handed


def sample_rows(sample):
    try:
        return _body_rows(sample)
    except TriadDegenerate:
        return None


def test_run_scenario_hands_every_step_its_sample_s_body_rows(monkeypatch):
    import uwbnav.sim as sim_module

    handed = record_body_rows(monkeypatch, sim_module)
    result = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    assert len(handed) == 100 and result.final_state.triad_failures == 0
    for sample, rows in handed:
        assert type(rows) is list and np.array(rows).tobytes() == np.array(_body_rows(sample)).tobytes()


def test_a_replay_without_a_magnetometer_hands_none_outside_the_truth_range(monkeypatch, tmp_path):
    # The magnetometer is synthesised from the truth attitude inside the truth
    # range only: outside it each step is handed None and counts one triad
    # failure, as forming the rows from the sample (no magnetometer) does.
    import uwbnav.replay as replay_module

    sim = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    paths = export_dataset(sim, tmp_path)
    dataset = load_dataset({k: paths[k] for k in ("imu", "uwb", "gt")})
    dataset = replace(dataset, imu=dataset.imu[:, :7], gt=dataset.gt[20:80])
    anchors = load_anchors(paths["anchors"])
    real = replay_module.step

    def forming(*args, body_rows, **kwargs):  # the rows formed from each sample, in step
        return real(*args, **kwargs)

    monkeypatch.setattr(replay_module, "step", forming)
    formed = run_replay(dataset, anchors, Gains(), ObserverState.cold_start())
    monkeypatch.setattr(replay_module, "step", real)
    handed = record_body_rows(monkeypatch, replay_module)
    result = run_replay(dataset, anchors, Gains(), ObserverState.cold_start())
    assert len(handed) == 100
    outside = [k for k, (sample, _) in enumerate(handed) if not 0.2 <= sample.timestamp <= 0.79]
    assert outside == list(range(20)) + list(range(80, 100))
    for k, (sample, rows) in enumerate(handed):
        assert (rows is None) == (k in outside) == (sample.mag is None)
        want = sample_rows(sample)
        assert rows is want is None or np.array(rows).tobytes() == np.array(want).tobytes()
    assert result.final_state.triad_failures == result.summary["triad_failures"] == 40
    assert formed.summary["triad_failures"] == 40
    assert_states_identical(result.final_state, formed.final_state)


def test_step_solves_its_frame_through_the_observer_module(monkeypatch):
    # The stream workload's fix statistics come from the solve_frame calls
    # step makes at uwbnav.observer.solve_frame: one per frame.
    import uwbnav.observer as observer_module

    frames = []
    real = observer_module.solve_frame

    def counting(anchors, frame, *args):
        frames.append(frame)
        return real(anchors, frame, *args)

    monkeypatch.setattr(observer_module, "solve_frame", counting)
    anchors = default_anchors()
    ref = ReferenceVectors()
    imu = ImuSample(0.0, np.zeros(3), -ref.gravity, ref.mag_ref)
    frame = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors)
    state = step(ObserverState.cold_start(), imu, frame, anchors, Gains(), 0.01, ref=ref)
    step(state, imu, None, anchors, Gains(), 0.01, ref=ref)
    assert frames == [frame]


def test_the_hot_path_never_computes_fix_quality(monkeypatch, tmp_path):
    # step and sim._run_and_score read only a fix's position: with the routine that
    # computes fix quality made to raise, a step with a frame, a sim run and
    # a replay of its export all complete, and a read of the quality raises.
    import uwbnav.tdoa as tdoa_module

    def refused(*args):
        raise AssertionError("fix quality was computed")

    monkeypatch.setattr(tdoa_module, "_fix_quality", refused)
    anchors = default_anchors()
    ref = ReferenceVectors()
    imu = ImuSample(0.0, np.zeros(3), -ref.gravity, ref.mag_ref)
    frame = synthesize_tdoa([1.0, 0.5, 1.2], None, anchors)
    assert step(ObserverState.cold_start(), imu, frame, anchors, Gains(), 0.01, ref=ref).tdoa_failures == 0
    sim = run_scenario(preset_scenario("figure8", duration=1.0), Gains())
    assert sim.summary["tdoa_frames"] == 10 and sim.final_state.tdoa_failures == 0
    paths = export_dataset(sim, tmp_path)
    dataset = load_dataset({k: paths[k] for k in ("imu", "uwb", "gt")})
    replayed = run_replay(dataset, load_anchors(paths["anchors"]), Gains(), ObserverState.cold_start())
    assert replayed.summary["tdoa_frames"] == 10 and replayed.final_state.tdoa_failures == 0
    fix = solve_frame(anchors, TdoaFrame(0.0, frame.d))
    with pytest.raises(AssertionError, match="fix quality was computed"):
        fix.residual
