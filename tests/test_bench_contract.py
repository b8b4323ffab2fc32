"""The names the benchmark's tracer and latency shims look up in the package.

navbench/tracer.py wraps functions at the module attributes their callers
bind (``uwbnav.observer.solve_frame``, ``uwbnav.sim.step``, ...), and the
benchmark times ``uwbnav.sim.step`` / ``uwbnav.replay.step`` once per IMU
step.  A refactor that moves a call away from one of these names would make
a traced run fail with a KeyError, or time nothing; these tests catch it
first.  The tracer is imported from its file and not modified.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from uwbnav.observer import Gains, ObserverState, step
from uwbnav.replay import export_dataset, load_dataset, run_replay
from uwbnav.sensors import ImuSample, ReferenceVectors
from uwbnav.sim import default_anchors, preset_scenario, run_scenario
from uwbnav.tdoa import load_anchors, synthesize_tdoa

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
    dataset = replace(dataset, imu=dataset.imu[:40] + dataset.imu[60:])
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
    assert calls == [s.timestamp for k, s in enumerate(dataset.imu[:80]) if k != 39]
    assert result.final_state.step_count == 79


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
