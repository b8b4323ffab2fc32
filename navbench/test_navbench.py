"""Self-tests of the benchmark: python3 -m pytest navbench -q

* every workload runs end to end in --short mode, traced and untraced, and
  prints exactly the metrics BENCHMARK.json names;
* each correctness check fails on a corrupted copy of a real output;
* without the program's sources the benchmark exits non-zero, printing no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, bench_dir=HERE):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--short"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_mode_runs_every_workload(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = run_bench("sim-sweep", 0, cwd=tmp_path, bench_dir=tmp_path / HERE.name)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# --- each check fails on a corrupted output -----------------------------------


@pytest.fixture(scope="module")
def sim_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    bench = worker.SimSweep(seed=3, short=True, work=out)
    assert bench.run_round(out / "round") == 0
    cols = checks.read_metrics_csv(out / "round" / "metrics.csv")
    summary_text = (out / "round" / "summary.json").read_text()
    assert checks.check_sim_seed(cols, checks.strict_json(summary_text), bench.duration) == []
    return cols, summary_text, bench.duration


def _frame_rows(cols):
    return np.flatnonzero(np.isfinite(cols["px_raw"]))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda c: c["px_est"].__iadd__(0.01), "pos_err does not equal"),
        (lambda c: c["py_true"].__setitem__(200, c["py_true"][200] + 0.01), "closed-form figure eight"),
        (lambda c: c["px_raw"].__setitem__(_frame_rows(c)[5], np.nan), "TDOA fixes"),
        (lambda c: c["pos_err"].__setitem__(0, c["pos_err"][0] + 0.01), "initial error"),
        (lambda c: c["pos_err"].__imul__(np.exp(2.0 * c["t"])), "slope"),
    ],
)
def test_sim_checks_catch_corruption(sim_output, corrupt, message):
    cols, summary_text, duration = sim_output
    cols = copy.deepcopy(cols)
    corrupt(cols)
    problems = checks.check_sim_seed(cols, checks.strict_json(summary_text), duration)
    assert any(message in p for p in problems), problems


def test_sim_summary_checks(sim_output):
    cols, summary_text, duration = sim_output
    with pytest.raises(ValueError):
        checks.strict_json(summary_text.replace('"settle_threshold": 0.5', '"settle_threshold": NaN'))
    summary = checks.strict_json(summary_text)
    for key, value in (("tdoa_failures", 1), ("tdoa_frames", 59)):
        problems = checks.check_sim_seed(cols, dict(summary, **{key: value}), duration)
        assert problems, key


@pytest.fixture(scope="module")
def replay_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("replay")
    bench = worker.ReplayTrial(seed=3, short=True, work=work, inputs=work / "trials")
    bench.export_trials()
    bench.prepare()
    assert bench.run_round(work / "round") == 0
    out = work / "round" / f"trial-{bench.seeds[0]}"
    cols = checks.read_metrics_csv(out / "metrics.csv")
    summary = checks.strict_json((out / "summary.json").read_text())
    assert checks.check_replay(cols, summary, bench.references[0], bench.duration) == []
    return cols, summary, bench.references[0], bench.duration


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda c: c["pos_err"].__setitem__(300, c["pos_err"][300] + 0.01), "pos_err differs"),
        (lambda c: c["att_err"].__setitem__(300, c["att_err"][300] + 1e-6), "att_err differs"),
        (lambda c: c["pz_true"].__setitem__(10, c["pz_true"][10] + 0.01), "interpolated truth"),
        (lambda c: c["vel_err"].__setitem__(42, c["vel_err"][42] + 0.01), "derived velocity"),
        (lambda c: c["px_raw"].__setitem__(_frame_rows(c)[0], np.nan), "fixes in metrics.csv"),
    ],
)
def test_replay_checks_catch_corruption(replay_output, corrupt, message):
    cols, summary, reference, duration = replay_output
    cols = copy.deepcopy(cols)
    corrupt(cols)
    problems = checks.check_replay(cols, summary, reference, duration)
    assert any(message in p for p in problems), problems


@pytest.mark.parametrize("key", ["skipped_steps", "dropped_tdoa_frames", "triad_failures"])
def test_replay_summary_checks(replay_output, key):
    cols, summary, reference, duration = replay_output
    problems = checks.check_replay(cols, dict(summary, **{key: 1}), reference, duration)
    assert any(key in p for p in problems), problems


@pytest.fixture(scope="module")
def stream_output(tmp_path_factory):
    bench = worker.ObserverStream(seed=3, short=True, work=tmp_path_factory.mktemp("stream"))
    bench.make_inputs()
    bench.prepare()
    bench.run_round(None)
    states = bench.states[0]
    R = np.array([s.nav.rot.m for s in states])
    P = np.array([s.nav.pos for s in states])
    V = np.array([s.nav.vel for s in states])
    t = bench.t + worker.DT
    args = (t, R, P, V, *bench.truth)
    assert checks.check_stream(*args, {"tdoa": 0}, bench.duration) == []
    return args, bench.duration


def test_stream_checks_catch_corruption(stream_output):
    (t, R, P, V, R_true, P_true, V_true), duration = stream_output

    def problems(R=R, P=P, V=V, failures=None):
        return checks.check_stream(t, R, P, V, R_true, P_true, V_true, failures or {}, duration)

    skewed = R.copy()
    skewed[400, 0, 1] += 1e-6
    assert any("R^T R - I" in p for p in problems(R=skewed))
    broken = P.copy()
    broken[100, 2] = np.nan
    assert problems(P=broken) == ["estimate is not finite"]
    assert any("failures" in p for p in problems(failures={"tdoa": 1}))
    growth = np.exp(t)[:, None]
    diverged = problems(P=P_true + (P - P_true) * growth, V=V_true + (V - V_true) * growth)
    assert any("slope" in p for p in diverged) and any("steady-state" in p for p in diverged)
