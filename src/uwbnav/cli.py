"""Command-line interface: simulate, replay, solve TDOA frames, validate gains.

Commands
    uwbnav sim --scenario figure8 --seed 0 --out out/
    uwbnav replay --config trial.json --out out/
    uwbnav tdoa-solve --anchors anchors.json --d 0.1,0.2,...
    uwbnav validate-gains --k-v 2 --k-a 70 --delta 0.01

Configuration is one JSON document (``--config``) merged over built-in
defaults, with ``--set dotted.key=value`` overrides applied last.  Unknown
keys are rejected.  Artifacts (metrics.csv, summary.json, exported datasets)
are written atomically.  Exit codes: 0 success, 2 configuration or usage
error, 3 runtime/data failure (including a failed gain certificate and
degenerate TDOA geometry).

The environment variable NAV_LOG sets the log level (DEBUG, INFO, ...).
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .liegroup import NavState, Rotation
from .observer import Gains, ObserverState, validate_gains
from .replay import (
    ConfigError,
    DataError,
    export_dataset,
    load_dataset,
    run_replay,
    write_metrics_csv,
    write_summary_json,
)
from .sensors import ReferenceVectors
from .sim import (
    PRESET_NAMES,
    Scenario,
    SensorNoise,
    TruthTrack,
    default_anchors,
    preset_scenario,
    run_scenario,
    truth_track,
)
from .tdoa import GeometryDegenerate, TdoaFrame, load_anchors, solve_frame

__all__ = ["main", "DEFAULT_CONFIG", "load_config", "apply_overrides"]

log = logging.getLogger("uwbnav")


def _fields(obj) -> dict:
    """A dataclass instance's fields as plain JSON values (arrays become lists)."""
    return {k: np.asarray(v).tolist() for k, v in asdict(obj).items()}


def _defaults(fn, *names) -> dict:
    """The named keyword defaults of ``fn`` as plain JSON values."""
    params = inspect.signature(fn).parameters
    return {name: np.asarray(params[name].default).tolist() for name in names}


DEFAULT_CONFIG = {
    "seed": 0,
    "gains": _fields(Gains()),
    "ref": _fields(ReferenceVectors()),
    "settle_threshold": 0.5,
    "settle_dwell": 5.0,
    "sim": {
        "scenario": None,
        "duration": None,
        **_defaults(preset_scenario, "imu_rate", "tdoa_rate"),
        "noise": _fields(SensorNoise()),
        **_defaults(
            preset_scenario,
            "b_omega",
            "b_a",
            "estimate_pos",
            "estimate_vel",
            "estimate_rotvec",
            "tag_offset",
        ),
        "anchors": None,
        "runs": 1,
        "export_dataset": False,
    },
    "replay": {
        "imu": None,
        "uwb": None,
        "gt": None,
        "anchors": None,
        "column_map": {},
        "tag_offset": [-0.012, 0.001, 0.091],
        **_defaults(run_replay, "mag_noise_sd", "velocity_window", "velocity_poly_order"),
        "estimate_pos": [-3.0, -1.0, 0.0],
        "estimate_vel": [0.0, 0.0, 0.0],
        "estimate_rotvec": [0.0, 0.0, 0.0],
    },
}

# Subtrees whose keys are free-form (validated downstream, not against defaults).
_OPAQUE_KEYS = {("replay", "column_map")}


def _check_keys(cfg: dict, defaults: dict, path: tuple = ()):
    for key, value in cfg.items():
        if key not in defaults:
            dotted = ".".join(path + (key,))
            raise ConfigError(f"unknown config key {dotted!r}")
        sub_path = path + (key,)
        if sub_path in _OPAQUE_KEYS:
            continue
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            _check_keys(value, defaults[key], sub_path)


def _deep_merge(base: dict, override: dict, path: tuple = ()) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if (
            key in out
            and isinstance(out[key], dict)
            and isinstance(value, dict)
            and path + (key,) not in _OPAQUE_KEYS
        ):
            out[key] = _deep_merge(out[key], value, path + (key,))
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None) -> dict:
    """Built-in defaults, optionally merged with a JSON config file."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        user = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    _check_keys(user, DEFAULT_CONFIG)
    return _deep_merge(cfg, user)


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply ``--set dotted.key=value`` pairs; values parse as JSON when possible."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = tuple(dotted.split("."))
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        # Validate the path against the defaults, stopping at opaque subtrees.
        defaults = DEFAULT_CONFIG
        opaque = False
        for i, key in enumerate(keys):
            if opaque:
                break
            if not isinstance(defaults, dict) or key not in defaults:
                raise ConfigError(f"unknown config key {dotted!r}")
            if keys[: i + 1] in _OPAQUE_KEYS:
                opaque = True
            defaults = defaults[key]
        if not opaque and isinstance(defaults, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted!r} is a config section; assign an object to it")
            _check_keys(value, defaults, keys)
        node = cfg
        for key in keys[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = value
    return cfg


def _gains(cfg: dict) -> Gains:
    return Gains(**cfg["gains"])


def _ref(cfg: dict) -> ReferenceVectors:
    return ReferenceVectors(gravity=cfg["ref"]["gravity"], mag_ref=cfg["ref"]["mag_ref"])


def _estimate_state(section: dict) -> ObserverState:
    nav = NavState(
        Rotation.from_rotvec(section["estimate_rotvec"]),
        section["estimate_pos"],
        section["estimate_vel"],
    )
    return ObserverState(nav=nav, b_omega_hat=np.zeros(3), b_a_hat=np.zeros(3))


def _write_artifacts(out: Path, result) -> None:
    """metrics.csv and summary.json of one sim or replay run."""
    write_metrics_csv(
        out / "metrics.csv",
        result.t,
        result.att_err,
        result.pos_err,
        result.vel_err,
        result.truth_pos,
        result.est_pos,
        result.raw_pos,
    )
    write_summary_json(out / "summary.json", result.summary)


def _scenario(cfg: dict, seed: int) -> Scenario:
    sim_cfg = cfg["sim"]
    return preset_scenario(
        sim_cfg["scenario"],
        seed=seed,
        duration=sim_cfg["duration"],
        imu_rate=sim_cfg["imu_rate"],
        tdoa_rate=sim_cfg["tdoa_rate"],
        noise=SensorNoise(**sim_cfg["noise"]),
        b_omega=sim_cfg["b_omega"],
        b_a=sim_cfg["b_a"],
        estimate_pos=sim_cfg["estimate_pos"],
        estimate_vel=sim_cfg["estimate_vel"],
        estimate_rotvec=sim_cfg["estimate_rotvec"],
        tag_offset=sim_cfg["tag_offset"],
        anchors=load_anchors(sim_cfg["anchors"]) if sim_cfg["anchors"] else default_anchors(),
        ref=_ref(cfg),
    )


def _run_sim_job(cfg: dict, seed: int, outdir: str, track: TruthTrack) -> dict:
    """Run one sim seed on the sweep's truth track and write its artifacts.

    Top-level so that --jobs can send it to a worker process.
    """
    result = run_scenario(
        _scenario(cfg, seed),
        _gains(cfg),
        track=track,
        settle_threshold=cfg["settle_threshold"],
        settle_dwell=cfg["settle_dwell"],
    )
    out = Path(outdir)
    _write_artifacts(out, result)
    if cfg["sim"]["export_dataset"]:
        export_dataset(result, out / "dataset")
    log.info("wrote %s and summary.json", out / "metrics.csv")
    return result.summary


def cmd_sim(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.set)
    if args.scenario:
        cfg["sim"]["scenario"] = args.scenario
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.runs is not None:
        cfg["sim"]["runs"] = args.runs
    name = cfg["sim"]["scenario"]
    if not name:
        raise ConfigError("no scenario selected (use --scenario or sim.scenario)")
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown scenario {name!r}; choose from {PRESET_NAMES}")
    runs = int(cfg["sim"]["runs"])
    if runs < 1:
        raise ConfigError(f"sim.runs must be >= 1, got {runs}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    base_seed = int(cfg["seed"])
    out = Path(args.out)
    seeds = [base_seed + i for i in range(runs)]
    jobs = [(seed, out if runs == 1 else out / f"seed-{seed:04d}") for seed in seeds]
    # The truth does not depend on the seed: integrate it once for the sweep.
    track = truth_track(_scenario(cfg, base_seed))
    # A pool forks all its workers at the first submit: never more than there
    # are seeds to run or CPUs to run them on.
    workers = min(args.jobs, runs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_sim_job, cfg, s, str(d), track) for s, d in jobs]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_run_sim_job(cfg, s, str(d), track) for s, d in jobs]
    for summary, (seed, outdir) in zip(summaries, jobs):
        settle = summary["settling_time"]
        settle_txt = "never" if math.isnan(settle) else f"{settle:.2f} s"
        print(
            f"sim {name} seed={seed}: final pos err {summary['final_pos_err']:.3f} m,"
            f" settled {settle_txt}, artifacts in {outdir}"
        )
    if runs > 1:
        write_summary_json(out / "summary.json", {"runs": summaries})
    return 0


def cmd_replay(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    rcfg = cfg["replay"]
    missing = [k for k in ("imu", "uwb", "gt") if not rcfg[k]]
    if missing:
        raise ConfigError(f"replay config missing dataset paths: {', '.join(missing)}")
    paths = {k: rcfg[k] for k in ("imu", "uwb", "gt")}
    dataset = load_dataset(paths, rcfg["column_map"])
    print(dataset.report.describe())
    anchors = load_anchors(rcfg["anchors"]) if rcfg["anchors"] else default_anchors()
    result = run_replay(
        dataset,
        anchors,
        _gains(cfg),
        _estimate_state(rcfg),
        tag_offset=rcfg["tag_offset"],
        ref=_ref(cfg),
        seed=int(cfg["seed"]),
        mag_noise_sd=rcfg["mag_noise_sd"],
        velocity_window=int(rcfg["velocity_window"]),
        velocity_poly_order=int(rcfg["velocity_poly_order"]),
        settle_threshold=cfg["settle_threshold"],
        settle_dwell=cfg["settle_dwell"],
    )
    out = Path(args.out)
    _write_artifacts(out, result)
    s = result.summary
    settle = s["settling_time"]
    settle_txt = "never" if math.isnan(settle) else f"{settle:.2f} s"
    print(
        f"replay: {s['steps']} steps, initial pos err {s['initial_pos_err']:.3f} m,"
        f" steady-state rms {s['ss_pos_rms']:.3f} m (raw {s['raw_pos_rms']:.3f} m),"
        f" settled {settle_txt}, artifacts in {out}"
    )
    return 0


def cmd_tdoa_solve(args) -> int:
    if not Path(args.anchors).exists():
        raise ConfigError(f"anchor file not found: {args.anchors}")
    anchors = load_anchors(args.anchors)
    try:
        d = [float(x) for x in args.d.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--d must be comma-separated numbers: {exc}") from exc
    frame = TdoaFrame(timestamp=0.0, d=d)
    fix = solve_frame(anchors, frame, allow_reduced=args.allow_reduced)
    px, py, pz = (float(v) for v in fix.p)
    print(f"position: [{px!r}, {py!r}, {pz!r}]")
    print(f"range_to_first_anchor: {float(fix.range_to_h1)!r}")
    print(f"residual: {float(fix.residual)!r}")
    print(f"range_consistency: {float(fix.range_consistency)!r}")
    if fix.negative_range:
        print("warning: negative recovered range (geometry or data suspect)")
    if fix.reduced:
        print("note: reduced solve (range column dropped)")
    return 0


def cmd_validate_gains(args) -> int:
    gains = Gains(k_omega=args.k_omega, k_v=args.k_v, k_a=args.k_a)
    report = validate_gains(gains, args.delta)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: delta={report.delta!r}, bound={report.bound!r}, margin={report.margin!r}")
    q4 = [float(v) for v in report.q4_eigenvalues]
    q6 = [float(v) for v in report.q6_eigenvalues]
    print(f"  Q4 eigenvalues: {q4[0]!r}, {q4[1]!r}")
    print(f"  Q6 eigenvalues: {q6[0]!r}, {q6[1]!r}")
    if not report.passed:
        print("  certificate failed: pick delta inside (0, bound)")
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbnav",
        description="UWB + IMU navigation observer: simulate, replay, and diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file merged over defaults")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="config override with dotted keys, e.g. --set gains.k_a=50",
        )

    p_sim = sub.add_parser("sim", help="run a synthetic closed-loop scenario")
    add_common(p_sim)
    p_sim.add_argument("--scenario", choices=PRESET_NAMES, help="scenario preset")
    p_sim.add_argument("--runs", type=int, help="number of consecutive seeds to run")
    p_sim.add_argument("--jobs", type=int, default=1, help="parallel workers for multi-run sims")
    p_sim.set_defaults(func=cmd_sim)

    p_rep = sub.add_parser("replay", help="replay the observer over a recorded dataset")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_replay)

    p_tdoa = sub.add_parser("tdoa-solve", help="solve one TDOA frame against an anchor file")
    p_tdoa.add_argument("--anchors", required=True, help="anchors.json path")
    p_tdoa.add_argument("--d", required=True, help="comma-separated cyclic range differences")
    p_tdoa.add_argument(
        "--allow-reduced", action="store_true", help="fall back to a rank-3 solve if degenerate"
    )
    p_tdoa.set_defaults(func=cmd_tdoa_solve)

    p_val = sub.add_parser("validate-gains", help="check the closed-form stability certificate")
    gains = Gains()
    for flag, name, what in (
        ("--k-omega", "k_omega", "attitude"),
        ("--k-v", "k_v", "position"),
        ("--k-a", "k_a", "velocity"),
    ):
        default = getattr(gains, name)
        p_val.add_argument(flag, type=float, default=default, help=f"{what} gain (default {default:g})")
    p_val.add_argument("--delta", type=float, required=True, help="certificate parameter")
    p_val.set_defaults(func=cmd_validate_gains)
    return parser


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("NAV_LOG", "WARNING").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GeometryDegenerate as exc:
        print(f"degenerate geometry: {exc} (rank {exc.rank})", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
