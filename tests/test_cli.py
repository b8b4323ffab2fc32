"""Tests for the command-line interface: config handling, artifacts, exit codes."""

import inspect
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import uwbnav
from uwbnav.cli import DEFAULT_CONFIG, _build_parser, main
from uwbnav.observer import Gains
from uwbnav.sensors import ReferenceVectors
from uwbnav.replay import run_replay
from uwbnav.sim import SensorNoise, default_anchors, preset_scenario
from uwbnav.tdoa import synthesize_tdoa


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_anchor_file(path, anchors=None):
    anchors = anchors if anchors is not None else default_anchors()
    payload = {
        "anchors": [{"id": a.id, "pos": [float(x) for x in a.pos]} for a in anchors.anchors]
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def exported_dataset(tmp_path_factory):
    """A short static-scenario dataset exported through the CLI itself."""
    out = tmp_path_factory.mktemp("export")
    code = main(
        [
            "sim",
            "--scenario",
            "static",
            "--out",
            str(out),
            "--set",
            "sim.duration=2",
            "--set",
            "sim.export_dataset=true",
        ]
    )
    assert code == 0
    return out / "dataset"


# --- argument parsing ---------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_scenario_choice_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--scenario", "loop"])
    assert exc.value.code == 2


def test_sim_requires_a_scenario(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["sim", "--out", str(tmp_path)])
    assert code == 2
    assert "no scenario selected" in err


@pytest.mark.parametrize(
    "override, fragment",
    [
        ("sim.duration", "key=value"),  # no '=' at all
        ("sim.durations=2", "unknown config key"),
        ("sim=3", "config section"),
    ],
)
def test_sim_rejects_malformed_overrides(capsys, tmp_path, override, fragment):
    code, _, err = run_cli(
        capsys, ["sim", "--scenario", "static", "--out", str(tmp_path), "--set", override]
    )
    assert code == 2
    assert fragment in err


def test_sim_rejects_nonpositive_run_count(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["sim", "--scenario", "static", "--runs", "0", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "runs" in err


# --- sim command ----------------------------------------------------------------------


def test_sim_writes_artifacts_and_summary(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        ["sim", "--scenario", "static", "--out", str(tmp_path), "--set", "sim.duration=2"],
    )
    assert code == 0
    assert "sim static seed=0" in out
    assert (tmp_path / "metrics.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "static"
    assert summary["duration"] == 2.0
    assert summary["steps"] == 200


def test_sim_artifacts_are_bit_reproducible(capsys, tmp_path):
    argv = ["sim", "--scenario", "static", "--set", "sim.duration=2"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("metrics.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sim_parallel_runs_match_serial_runs(capsys, tmp_path):
    base = ["sim", "--scenario", "static", "--runs", "3", "--set", "sim.duration=2"]
    assert main(base + ["--out", str(tmp_path / "serial")]) == 0
    assert main(base + ["--jobs", "3", "--out", str(tmp_path / "parallel")]) == 0
    capsys.readouterr()
    for seed in range(3):
        sub = f"seed-{seed:04d}"
        assert (tmp_path / "serial" / sub / "metrics.csv").read_bytes() == (
            tmp_path / "parallel" / sub / "metrics.csv"
        ).read_bytes()
    # the multi-run roll-up summary is identical too
    assert (tmp_path / "serial" / "summary.json").read_bytes() == (
        tmp_path / "parallel" / "summary.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "runs, jobs, cpus, workers",
    [(2, 100000, 8, 2), (6, 100000, 4, 4), (6, 3, 8, 3), (3, 2, None, None), (1, 5, 8, None)],
)
def test_sim_jobs_are_bounded_by_runs_and_cpus(capsys, tmp_path, monkeypatch, runs, jobs, cpus, workers):
    # A pool forks all max_workers at its first submit, so --jobs must never
    # reach it unbounded.  A stand-in pool records max_workers and runs the
    # tasks inline; no process is started.  None: the sweep runs serially.
    import concurrent.futures

    import uwbnav.cli as cli_module

    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: cpus)
    argv = ["sim", "--scenario", "static", "--runs", str(runs), "--set", "sim.duration=0.5"]
    assert main(argv + ["--jobs", str(jobs), "--out", str(tmp_path)]) == 0
    assert pools == ([] if workers is None else [workers])
    assert len(list(tmp_path.rglob("metrics.csv"))) == runs


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sim_rejects_a_job_count_below_one(capsys, tmp_path, jobs):
    code, _, err = run_cli(
        capsys, ["sim", "--scenario", "static", "--jobs", jobs, "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--jobs must be >= 1" in err
    assert not tmp_path.joinpath("metrics.csv").exists()


def test_sim_sweep_integrates_its_truth_once(capsys, tmp_path, monkeypatch):
    # One track per invocation, shared by every seed and by --jobs workers;
    # none outlives the call, so a second sweep integrates its own.
    import uwbnav.sim as sim_module

    calls = []
    real = sim_module.propagate_truth

    def counting(truth, dt):
        calls.append(dt)
        return real(truth, dt)

    monkeypatch.setattr(sim_module, "propagate_truth", counting)
    argv = ["sim", "--scenario", "figure8", "--runs", "3", "--set", "sim.duration=1"]
    for setting in ("sim.noise.tdoa_sd=0.05", "sim.noise.gyro_sd=0.005", "sim.export_dataset=true"):
        argv += ["--set", setting]
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert len(calls) == 100
    assert main(argv + ["--out", str(tmp_path / "again")]) == 0
    assert len(calls) == 200
    assert main(argv + ["--jobs", "2", "--out", str(tmp_path / "jobs")]) == 0
    assert len(calls) == 300
    capsys.readouterr()
    serial = sorted(p.relative_to(tmp_path / "serial") for p in (tmp_path / "serial").rglob("*.*"))
    assert len(serial) == 3 * 6 + 1  # per seed metrics, summary and four dataset files; one roll-up
    for rel in serial:
        want = (tmp_path / "serial" / rel).read_bytes()
        assert (tmp_path / "again" / rel).read_bytes() == want, rel
        assert (tmp_path / "jobs" / rel).read_bytes() == want, rel


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_sim_sweep_summary_is_strict_json(capsys, tmp_path):
    # Two seconds cannot hold the five-second settling dwell, so every
    # per-seed settling_time is NaN; the roll-up must carry it as null.
    argv = ["sim", "--scenario", "static", "--runs", "2", "--set", "sim.duration=2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rollup = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_reject_constant)
    assert [run["seed"] for run in rollup["runs"]] == [0, 1]
    assert [run["settling_time"] for run in rollup["runs"]] == [None, None]


def test_config_defaults_come_from_the_dataclasses():
    gains, ref, noise = Gains(), ReferenceVectors(), SensorNoise()
    assert DEFAULT_CONFIG["gains"] == {
        "k_omega": gains.k_omega,
        "k_v": gains.k_v,
        "k_a": gains.k_a,
        "gamma_omega": gains.gamma_omega,
        "gamma_a": gains.gamma_a,
    }
    assert DEFAULT_CONFIG["ref"] == {"gravity": list(ref.gravity), "mag_ref": list(ref.mag_ref)}
    assert DEFAULT_CONFIG["sim"]["noise"] == {
        "gyro_sd": noise.gyro_sd,
        "accel_sd": noise.accel_sd,
        "mag_sd": noise.mag_sd,
        "tdoa_sd": noise.tdoa_sd,
    }
    # The sim and replay keys come from the keyword defaults of the functions
    # that take them.
    sim_defaults = inspect.signature(preset_scenario).parameters
    keys = ("imu_rate", "tdoa_rate", "estimate_pos", "estimate_vel", "estimate_rotvec", "tag_offset", "b_omega", "b_a")
    for key in keys:
        assert DEFAULT_CONFIG["sim"][key] == np.asarray(sim_defaults[key].default).tolist(), key
    replay_defaults = inspect.signature(run_replay).parameters
    for key in ("mag_noise_sd", "velocity_window", "velocity_poly_order"):
        assert DEFAULT_CONFIG["replay"][key] == replay_defaults[key].default, key
    # The config stays plain JSON.
    assert json.loads(json.dumps(DEFAULT_CONFIG)) == DEFAULT_CONFIG
    args = _build_parser().parse_args(["validate-gains", "--delta", "0.01"])
    assert (args.k_omega, args.k_v, args.k_a) == (gains.k_omega, gains.k_v, gains.k_a)


def test_package_exports_are_listed_by_their_modules():
    for name in uwbnav.__all__:
        if name == "__version__":
            continue
        module = sys.modules[getattr(uwbnav, name).__module__]
        assert name in module.__all__, f"{name} missing from {module.__name__}.__all__"


def test_config_file_merges_and_cli_overrides_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"scenario": "static", "duration": 2.0}}))
    code, _, _ = run_cli(
        capsys,
        [
            "sim",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
            "--set",
            "sim.duration=1",
        ],
    )
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["duration"] == 1.0  # --set applied after the config file
    assert summary["steps"] == 100


@pytest.mark.parametrize(
    "content, fragment",
    [
        (None, "not found"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"simulation": {}}', "unknown config key"),
    ],
)
def test_config_file_errors_are_usage_errors(capsys, tmp_path, content, fragment):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code, _, err = run_cli(
        capsys, ["sim", "--scenario", "static", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert code == 2
    assert fragment in err


# --- tdoa-solve command ----------------------------------------------------------------


def test_tdoa_solve_recovers_a_known_position(capsys, tmp_path):
    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    d = synthesize_tdoa([1.0, 2.0, 0.5], None, default_anchors()).d
    code, out, _ = run_cli(
        capsys,
        [
            "tdoa-solve",
            "--anchors",
            str(anchors_path),
            "--d",
            ",".join(repr(float(x)) for x in d),
        ],
    )
    assert code == 0
    position_line = next(line for line in out.splitlines() if line.startswith("position:"))
    recovered = json.loads(position_line.split(":", 1)[1])
    np.testing.assert_allclose(recovered, [1.0, 2.0, 0.5], atol=1e-8)
    assert "residual:" in out


def test_tdoa_solve_degenerate_geometry_is_a_runtime_failure(capsys, tmp_path):
    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    code, _, err = run_cli(
        capsys, ["tdoa-solve", "--anchors", str(anchors_path), "--d", ",".join(["0.0"] * 8)]
    )
    assert code == 3
    assert "degenerate geometry" in err
    assert "rank 3" in err


def test_tdoa_solve_rejects_bad_inputs(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["tdoa-solve", "--anchors", str(tmp_path / "nope.json"), "--d", "0,0,0"]
    )
    assert code == 2 and "not found" in err

    few = default_anchors().anchors[:3]
    payload = {"anchors": [{"id": a.id, "pos": [float(x) for x in a.pos]} for a in few]}
    bad = tmp_path / "three.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, ["tdoa-solve", "--anchors", str(bad), "--d", "0,0,0"])
    assert code == 2 and "4 anchors" in err

    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    code, _, err = run_cli(
        capsys, ["tdoa-solve", "--anchors", str(anchors_path), "--d", "0.1,abc,0.3"]
    )
    assert code == 2 and "comma-separated" in err


# --- validate-gains command --------------------------------------------------------------


def test_validate_gains_passes_inside_the_bound(capsys):
    code, out, _ = run_cli(capsys, ["validate-gains", "--delta", "0.01"])
    assert code == 0
    assert out.startswith("PASS")
    assert "bound=0.028169014084507043" in out
    assert "Q4 eigenvalues" in out and "Q6 eigenvalues" in out


def test_validate_gains_fails_outside_the_bound(capsys):
    code, out, _ = run_cli(capsys, ["validate-gains", "--delta", "0.05"])
    assert code == 3
    assert out.startswith("FAIL")
    assert "certificate failed" in out


# --- replay command ------------------------------------------------------------------------


def test_replay_cli_runs_an_exported_dataset(capsys, tmp_path, exported_dataset):
    ds = exported_dataset
    code, out, _ = run_cli(
        capsys,
        [
            "replay",
            "--out",
            str(tmp_path),
            "--set",
            f"replay.imu={ds}/imu.csv",
            "--set",
            f"replay.uwb={ds}/uwb.csv",
            "--set",
            f"replay.gt={ds}/gt.csv",
            "--set",
            f"replay.anchors={ds}/anchors.json",
            "--set",
            "replay.tag_offset=[0,0,0]",
        ],
    )
    assert code == 0
    assert "replay: 200 steps" in out
    assert "initial pos err 4.644" in out
    assert (tmp_path / "metrics.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps"] == 200
    assert summary["gt_records"] == 201


def test_replay_cli_has_no_jobs_flag(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--jobs", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_replay_cli_requires_dataset_paths(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["replay", "--out", str(tmp_path)])
    assert code == 2
    assert "imu, uwb, gt" in err


def test_replay_cli_rejects_unknown_column_map_key(capsys, tmp_path, exported_dataset):
    ds = exported_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "replay": {
                    "imu": f"{ds}/imu.csv",
                    "uwb": f"{ds}/uwb.csv",
                    "gt": f"{ds}/gt.csv",
                    "column_map": {"imu": {"bogus": "x"}},
                }
            }
        )
    )
    code, _, err = run_cli(capsys, ["replay", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "bogus" in err


# --- environment / entry point -------------------------------------------------------------


@pytest.mark.parametrize("level", ["BOGUS", "DEBUG"])
def test_log_level_env_var_is_forgiving(capsys, monkeypatch, level):
    monkeypatch.setenv("NAV_LOG", level)
    code, out, _ = run_cli(capsys, ["validate-gains", "--delta", "0.01"])
    assert code == 0
    assert "PASS" in out


@pytest.mark.skipif(
    shutil.which("uwbnav") is None, reason="uwbnav console script not on PATH (pip install -e .)"
)
def test_console_script_is_installed():
    exe = shutil.which("uwbnav")
    proc = subprocess.run(
        [exe, "validate-gains", "--delta", "0.01"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_console_script_entry_point_runs():
    """The [project.scripts] entry resolves to cli.main and runs as a script would."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    ep = EntryPoint(name="uwbnav", value=scripts["uwbnav"], group="console_scripts")
    assert ep.load() is main
    env = dict(os.environ)
    src = str(Path(uwbnav.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    launcher = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint(name='uwbnav', value={ep.value!r}, group='console_scripts').load()())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "validate-gains", "--delta", "0.01"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
