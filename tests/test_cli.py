"""Tests for the command-line interface: config handling, artifacts, exit codes."""

import inspect
import json
import os
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import uwbnav
from uwbnav.cli import DEFAULT_CONFIG, _build_parser, _join_d, main
from uwbnav.observer import Gains
from uwbnav.sensors import ReferenceVectors
from uwbnav.replay import run_replay
from uwbnav.sim import SensorNoise, default_anchors, preset_scenario, run_scenario
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


def test_sim_sweep_integrates_its_truth_once(capsys, tmp_path, monkeypatch):
    # One track per invocation, shared by every seed; none outlives the
    # call, so a second sweep integrates its own.  Tracks are counted where
    # the CLI builds one and where run_scenario would.
    import uwbnav.cli as cli_module
    import uwbnav.sim as sim_module

    calls = []
    real = sim_module.truth_track

    def counting(sc):
        track = real(sc)
        calls.append(track.n)
        return track

    monkeypatch.setattr(cli_module, "truth_track", counting)
    monkeypatch.setattr(sim_module, "truth_track", counting)
    argv = ["sim", "--scenario", "figure8", "--runs", "3", "--set", "sim.duration=1"]
    for setting in ("sim.noise.tdoa_sd=0.05", "sim.noise.gyro_sd=0.005", "sim.export_dataset=true"):
        argv += ["--set", setting]
    assert main(argv + ["--out", str(tmp_path / "first")]) == 0
    assert calls == [100]
    assert main(argv + ["--out", str(tmp_path / "again")]) == 0
    assert calls == [100, 100]
    capsys.readouterr()
    first = sorted(p.relative_to(tmp_path / "first") for p in (tmp_path / "first").rglob("*.*"))
    assert len(first) == 3 * 6 + 1  # per seed metrics, summary and four dataset files; one roll-up
    for rel in first:
        want = (tmp_path / "first" / rel).read_bytes()
        assert (tmp_path / "again" / rel).read_bytes() == want, rel


@pytest.mark.parametrize(
    "setting",
    ["sim.duration=Infinity", "sim.imu_rate=Infinity", "sim.tdoa_rate=Infinity", "sim.tag_offset=[1,2]"],
)
def test_sim_rejects_a_non_finite_rate_or_duration_and_a_bad_lever_arm(capsys, tmp_path, setting):
    code, out, err = run_cli(
        capsys, ["sim", "--scenario", "static", "--set", setting, "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert err.startswith("invalid input: ") and "Traceback" not in err
    assert out == ""
    assert not tmp_path.joinpath("out").exists()


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
    # The replay's initial estimate is the sim's; the settle keys are run_scenario's.
    for key in ("estimate_pos", "estimate_vel", "estimate_rotvec"):
        assert DEFAULT_CONFIG["replay"][key] == np.asarray(sim_defaults[key].default).tolist(), key
    assert DEFAULT_CONFIG["replay"]["estimate_pos"] == [-3.0, -1.0, 0.0]
    run_defaults = inspect.signature(run_scenario).parameters
    for key in ("settle_threshold", "settle_dwell"):
        assert DEFAULT_CONFIG[key] == run_defaults[key].default, key
    assert (DEFAULT_CONFIG["settle_threshold"], DEFAULT_CONFIG["settle_dwell"]) == (0.5, 5.0)
    # The config stays plain JSON.
    assert json.loads(json.dumps(DEFAULT_CONFIG)) == DEFAULT_CONFIG
    args = _build_parser().parse_args(["validate-gains", "--delta", "0.01"])
    assert (args.k_v, args.k_a) == (gains.k_v, gains.k_a)


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


@pytest.mark.parametrize(
    "command, config, override, key",
    [
        ("sim", None, 'sim.imu_rate="abc"', "sim.imu_rate"),
        ("sim", None, "sim.tdoa_rate=null", "sim.tdoa_rate"),
        ("sim", None, "sim.duration=[1]", "sim.duration"),
        ("sim", None, "gains.k_v=null", "gains.k_v"),
        ("sim", None, "gains.k_a=true", "gains.k_a"),
        ("sim", None, 'settle_dwell="x"', "settle_dwell"),
        ("sim", None, "settle_threshold=null", "settle_threshold"),
        ("sim", None, "seed=1.5", "seed"),
        ("sim", None, "sim.export_dataset=1", "sim.export_dataset"),
        ("sim", None, "sim.anchors=5", "sim.anchors"),
        ("sim", None, "sim.noise.gyro_sd.x=1", "'sim.noise.gyro_sd' is a plain value"),
        ("sim", {"sim": 3}, None, "'sim'"),
        ("sim", {"gains": []}, None, "'gains'"),
        ("sim", {"sim": {"noise": 5}}, None, "'sim.noise'"),
        ("replay", None, "replay.imu=5", "replay.imu"),
        ("replay", None, "replay.velocity_window=11.5", "replay.velocity_window"),
        ("replay", None, "replay.column_map.imu=3", "column_map['imu']"),
        ("sim", None, 'sim.anchors="absent/anchors.json"', "sim.anchors: anchor file not found"),
        ("replay", None, 'replay.anchors="absent/anchors.json"', "replay.anchors: anchor file not found"),
    ],
)
def test_every_config_error_exits_2_naming_its_key(capsys, tmp_path, request, command, config, override, key):
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "sim":
        argv += ["--scenario", "static", "--set", "sim.duration=0.5"]
    else:
        ds = request.getfixturevalue("exported_dataset")
        capsys.readouterr()
        argv += [f"--set=replay.{s}={ds}/{s}.csv" for s in ("imu", "uwb", "gt")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    if override is not None:
        argv += ["--set", override]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert key in err
    assert out == ""
    assert not tmp_path.joinpath("out").exists()


@pytest.mark.parametrize(
    "command, settings",
    [("sim", []), ("sim", ["--set", "sim.noise.mag_sd=0"]), ("replay", [])],
    ids=["sim", "sim without noise", "replay"],
)
def test_a_negative_seed_is_refused_at_the_config_boundary(capsys, tmp_path, request, command, settings):
    # Numpy refused it only where noise is drawn, after the truth walk; a sim
    # without noise, or a replay of a dataset with a magnetometer, used it.
    argv = [command, "--seed", "-3", "--out", str(tmp_path / "out"), *settings]
    if command == "sim":
        argv += ["--scenario", "static", "--set", "sim.duration=0.5"]
    else:
        ds = request.getfixturevalue("exported_dataset")
        capsys.readouterr()
        argv += [f"--set=replay.{s}={ds}/{s}.csv" for s in ("imu", "uwb", "gt")]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert err.strip() == "configuration error: seed must be >= 0, got -3"
    assert out == ""
    assert not tmp_path.joinpath("out").exists()


def test_an_integer_anchor_path_is_refused_before_it_reaches_open(capsys, tmp_path):
    # open() takes an int as a file descriptor: it would read this one and close it.
    held = tmp_path / "held.json"
    held.write_text('{"anchors": []}')
    fd = os.open(held, os.O_RDONLY)
    try:
        code, _, err = run_cli(
            capsys, ["sim", "--scenario", "static", "--set", f"sim.anchors={fd}", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "sim.anchors must be a string or null" in err
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # still open, and unread
    finally:
        os.close(fd)


def test_a_section_override_merges_into_the_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"noise": {"mag_sd": 0}}}))
    argv = ["sim", "--scenario", "static", "--set", "sim.duration=2"]
    section = ["--config", str(cfg), "--set", 'sim.noise={"tdoa_sd":0.05}']
    leaves = ["--set", "sim.noise.mag_sd=0", "--set", "sim.noise.tdoa_sd=0.05"]
    assert main(argv + section + ["--out", str(tmp_path / "section")]) == 0
    assert main(argv + leaves + ["--out", str(tmp_path / "leaves")]) == 0
    capsys.readouterr()
    for name in ("metrics.csv", "summary.json"):
        assert (tmp_path / "section" / name).read_bytes() == (tmp_path / "leaves" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--set", 'sim={"scenario":"static","duration":0.5}'],
        ["--scenario", "static", "--set", "sim.duration=0.5", "--set", 'ref={"gravity":[0,0,-9.8]}'],
    ],
)
def test_a_section_assignment_keeps_the_keys_it_does_not_name(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, ["sim", *argv, "--out", str(tmp_path)])
    assert code == 0, err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["scenario"], summary["steps"]) == ("static", 50)


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


def test_tdoa_solve_takes_a_negative_first_difference_after_an_equals_sign(capsys, tmp_path):
    # Above z = 2 the tag is nearer anchor 2 than anchor 1, so d[0] < 0.
    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    d = synthesize_tdoa([1.0, 2.0, 3.0], None, default_anchors()).d
    assert d[0] < 0.0
    code, out, _ = run_cli(
        capsys, ["tdoa-solve", "--anchors", str(anchors_path), "--d=" + ",".join(repr(float(x)) for x in d)]
    )
    assert code == 0
    position_line = next(line for line in out.splitlines() if line.startswith("position:"))
    np.testing.assert_allclose(json.loads(position_line.split(":", 1)[1]), [1.0, 2.0, 3.0], atol=1e-8)


def test_tdoa_solve_reads_a_negative_first_difference_given_separately(capsys, tmp_path):
    # "--d -2.1,..." and "--d=-2.1,..." solve the same frame and print the same lines.
    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    d = ",".join(repr(float(x)) for x in synthesize_tdoa([1.0, 2.0, 3.0], None, default_anchors()).d)
    assert d.startswith("-")
    separate = run_cli(capsys, ["tdoa-solve", "--anchors", str(anchors_path), "--d", d])
    joined = run_cli(capsys, ["tdoa-solve", "--anchors", str(anchors_path), f"--d={d}"])
    assert separate == joined and separate[0] == 0 and "position:" in separate[1]


@pytest.mark.parametrize("value", ["-0.1,abc,0.3", "-x,0.2,0.3"])
def test_tdoa_solve_refuses_a_separate_value_that_is_not_numbers(capsys, tmp_path, value):
    # A value that starts like a negative number reaches the parse of the
    # differences; "-x,..." is still refused by argparse.  Both exit 2 naming --d.
    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    try:
        code = main(["tdoa-solve", "--anchors", str(anchors_path), "--d", value])
    except SystemExit as exc:
        code = exc.code
    assert code == 2 and "--d" in capsys.readouterr().err


def test_only_tdoa_solve_s_d_takes_a_separate_negative_value():
    assert _join_d(["tdoa-solve", "--anchors", "a.json", "--d", "-1,2"]) == ["tdoa-solve", "--anchors", "a.json", "--d=-1,2"]
    assert _join_d(["tdoa-solve", "--anchors", "-1.json", "--d", "-.5,2"]) == ["tdoa-solve", "--anchors", "-1.json", "--d=-.5,2"]
    assert _join_d(["tdoa-solve", "--d", "1,2"]) == ["tdoa-solve", "--d", "1,2"]
    assert _join_d(["validate-gains", "--d", "-1"]) == ["validate-gains", "--d", "-1"]


def test_tdoa_solve_degenerate_geometry_is_a_runtime_failure(capsys, tmp_path):
    anchors_path = write_anchor_file(tmp_path / "anchors.json")
    code, _, err = run_cli(
        capsys, ["tdoa-solve", "--anchors", str(anchors_path), "--d", ",".join(["0.0"] * 8)]
    )
    assert code == 3
    assert "degenerate geometry" in err
    assert "rank 3" in err


def test_sim_divergence_is_a_runtime_failure_naming_the_step(capsys, tmp_path):
    # A position gain this large blows the state up mid-run; step's ValueError
    # surfaces as exit 3 with the step index and time, not as bad input, and
    # numpy's overflow and invalid-value warnings on the way are not printed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            capsys,
            ["sim", "--scenario", "static", "--set", "sim.duration=10.0",
             "--set", "gains.k_v=1000000", "--out", str(tmp_path / "out")],
        )
    assert code == 3
    assert "runtime failure: observer diverged at step 760 (t = 7.6 s)" in err
    assert "invalid input" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err


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


def test_validate_gains_rejects_the_attitude_gain_flag(capsys):
    # The certificate reads k_v and k_a only, so there is no --k-omega to ignore.
    with pytest.raises(SystemExit) as exc:
        main(["validate-gains", "--k-omega", "3", "--delta", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k-omega" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [["sim", "--scenario", "static", "--runs", "2"], ["replay"]], ids=["sim", "replay"])
def test_cli_has_no_jobs_flag(capsys, tmp_path, argv):
    # Every seed of a sweep runs in the CLI's own process.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def test_replay_cli_exits_2_on_a_synthesized_magnetometer_that_is_not_finite(capsys, tmp_path, exported_dataset):
    ds = exported_dataset
    no_mag = json.dumps({c: f"absent_{c}" for c in ("mx", "my", "mz")})
    argv = ["replay", "--out", str(tmp_path)]
    for item in (
        *(f"replay.{stream}={ds}/{stream}.csv" for stream in ("imu", "uwb", "gt")),
        f"replay.anchors={ds}/anchors.json",
        f"replay.column_map.imu={no_mag}",
        "replay.mag_noise_sd=1e308",
    ):
        argv += ["--set", item]
    with np.errstate(over="ignore"):
        code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("invalid input: ") and "mag must be finite" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("order", ["0", "-2"])
def test_replay_cli_exits_2_on_a_velocity_poly_order_below_1(capsys, tmp_path, exported_dataset, order):
    ds = exported_dataset
    argv = ["replay", "--out", str(tmp_path)]
    for item in (
        *(f"replay.{stream}={ds}/{stream}.csv" for stream in ("imu", "uwb", "gt")),
        f"replay.anchors={ds}/anchors.json",
        f"replay.velocity_poly_order={order}",
    ):
        argv += ["--set", item]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.strip() == f"invalid input: poly_order must be an integer >= 1, got {order}"
    assert not (tmp_path / "summary.json").exists()


def test_replay_cli_exits_3_naming_a_file_whose_cell_is_over_csv_s_field_limit(capsys, tmp_path, exported_dataset):
    # A quoted 200 000-character note: csv refuses the file, and the run ends with a data error.
    ds = exported_dataset
    header, *rows = (ds / "uwb.csv").read_text().splitlines()
    uwb = tmp_path / "uwb.csv"
    note = '"' + "x" * 200_000 + '"'
    uwb.write_text("\n".join([header + ",note"] + [row + "," + note for row in rows]) + "\n")
    values = json.dumps({"values": header.split(",")[1:]})
    argv = ["replay", "--out", str(tmp_path / "out")]
    for item in (
        f"replay.imu={ds}/imu.csv", f"replay.uwb={uwb}", f"replay.gt={ds}/gt.csv",
        f"replay.anchors={ds}/anchors.json", f"replay.column_map.uwb={values}",
    ):
        argv += ["--set", item]
    code, _, err = run_cli(capsys, argv)
    assert code == 3
    assert err.startswith("data error: ") and str(uwb) in err and "field larger than field limit" in err
    assert not (tmp_path / "out" / "summary.json").exists()


# --- environment / entry point -------------------------------------------------------------


@pytest.mark.parametrize("level", ["BOGUS", "DEBUG"])
def test_log_level_env_var_is_forgiving(capsys, monkeypatch, level):
    monkeypatch.setenv("NAV_LOG", level)
    code, out, _ = run_cli(capsys, ["validate-gains", "--delta", "0.01"])
    assert code == 0
    assert "PASS" in out


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # The package needs numpy alone: with every scipy import refused, sim,
    # tdoa-solve, validate-gains and replay all run.
    code = f"""
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {{name!r}} (blocked)", name=name)

sys.meta_path.insert(0, NoScipy())
import json
from uwbnav.cli import main
from uwbnav.sim import default_anchors
from uwbnav.tdoa import synthesize_tdoa
out = {str(tmp_path)!r}
assert main(["sim", "--scenario", "static", "--out", out + "/sim",
             "--set", "sim.duration=1", "--set", "sim.export_dataset=true"]) == 0
d = synthesize_tdoa([1.0, 2.0, 0.5], None, default_anchors()).d
assert main(["tdoa-solve", "--anchors", out + "/sim/dataset/anchors.json",
             "--d", ",".join(map(repr, d.tolist()))]) == 0
assert main(["validate-gains", "--delta", "0.01"]) == 0
ds = out + "/sim/dataset"
assert main(["replay", "--out", out + "/replay", "--set", f"replay.imu={{ds}}/imu.csv",
             "--set", f"replay.uwb={{ds}}/uwb.csv", "--set", f"replay.gt={{ds}}/gt.csv",
             "--set", f"replay.anchors={{ds}}/anchors.json"]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(json.load(open(out + "/replay/summary.json"))["steps"])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "100"


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
