"""Command-line interface: simulate, replay, solve TDOA frames, validate gains.

Commands
    uwbnav sim --scenario figure8 --seed 0 --out out/
    uwbnav replay --config trial.json --out out/
    uwbnav tdoa-solve --anchors anchors.json --d -0.1,0.2,...
    uwbnav validate-gains --k-v 2 --k-a 70 --delta 0.01

Configuration is built-in defaults, then a JSON document (``--config``),
then each ``--set a.b=v`` as the document ``{"a": {"b": v}}``, then the
subcommand flags, each checked and merged the same way.  An unknown key, an
object for a plain value and a plain value for a section are refused; each
value takes its default's kind (a JSON integer is a number); an object merges
into its section key by key.  Artifacts (metrics.csv, summary.json, exported
datasets) are written atomically.  Exit codes: 0 success, 2 any configuration
or usage error, 3 runtime/data failure (including a failed gain certificate,
degenerate TDOA geometry and an observer that diverges during a run).
``replay.tag_offset`` is accepted and not yet applied (ROADMAP item 2).

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
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .liegroup import Rotation
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
from .tdoa import AnchorSet, GeometryDegenerate, TdoaFrame, load_anchors, solve_frame

__all__ = ["main", "DEFAULT_CONFIG", "load_config", "apply_overrides"]

log = logging.getLogger("uwbnav")


def _fields(obj) -> dict:
    """A dataclass instance's fields as plain JSON values (arrays become lists)."""
    return {k: np.asarray(v).tolist() for k, v in asdict(obj).items()}


def _defaults(fn, *names) -> dict:
    """The named keyword defaults of ``fn`` as plain JSON values."""
    params = inspect.signature(fn).parameters
    return {name: np.asarray(params[name].default).tolist() for name in names}


def _pick(section: dict, names) -> dict:
    return {name: section[name] for name in names}


# The keyword parameters a config section passes on by name: the section's
# defaults are the callee's, and _pick hands the same keys back to it.
_ESTIMATE_KEYS = ("estimate_pos", "estimate_vel", "estimate_rotvec")
_SIM_KEYS = ("duration", "imu_rate", "tdoa_rate", "b_omega", "b_a", *_ESTIMATE_KEYS, "tag_offset")
_REPLAY_KEYS = ("mag_noise_sd", "velocity_window", "velocity_poly_order")
_SETTLE_KEYS = ("settle_threshold", "settle_dwell")

DEFAULT_CONFIG = {
    "seed": 0,
    "gains": _fields(Gains()),
    "ref": _fields(ReferenceVectors()),
    **_defaults(run_scenario, *_SETTLE_KEYS),
    "sim": {
        "scenario": None,
        **_defaults(preset_scenario, *_SIM_KEYS),
        "noise": _fields(SensorNoise()),
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
        **_defaults(run_replay, *_REPLAY_KEYS),
        **_defaults(preset_scenario, *_ESTIMATE_KEYS),
    },
}

# A section whose keys are free-form (load_dataset checks them).
_OPAQUE_KEYS = {"replay.column_map"}
# The JSON types a leaf takes, by its default's type: a JSON integer is a
# number, and true and false are not (they are ints to isinstance(), not to type()).
_NUMBER = (int, float)
_KINDS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "a whole number"),
    float: (_NUMBER, "a number"),
    type(None): ((str, type(None)), "a string or null"),
}
_NUMBER_OR_NULL = ((*_NUMBER, type(None)), "a number or null")  # sim.duration's kind


def _check(doc: dict, defaults: dict, path: str = "") -> None:
    """Refuse a config document that does not fit the keys, sections and kinds of ``defaults``."""
    for key, value in doc.items():
        name = path + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name!r} is a config section; assign an object to it")
            if name not in _OPAQUE_KEYS:
                _check(value, default, name + ".")
        elif isinstance(value, dict):
            raise ConfigError(f"{name!r} is a plain value; it cannot be assigned an object")
        elif isinstance(default, list):
            numbers = type(value) is list and all(type(v) in _NUMBER for v in value)
            if not numbers or len(value) != len(default):
                raise ValueError(f"{name} must be {len(default)} numbers, got {json.dumps(value)}")
        else:
            types, kind = _NUMBER_OR_NULL if name == "sim.duration" else _KINDS[type(default)]
            if type(value) not in types:
                raise ValueError(f"{name} must be {kind}, got {json.dumps(value)}")


def _merge(cfg: dict, doc: dict) -> dict:
    """Merge ``doc`` into ``cfg`` in place, object into object, key by key."""
    for key, value in doc.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            _merge(cfg[key], value)
        else:
            cfg[key] = value
    return cfg


def _apply(cfg: dict, doc: dict) -> dict:
    """The one way into a config: check ``doc`` against the defaults, then merge it."""
    _check(doc, DEFAULT_CONFIG)
    return _merge(cfg, doc)


def _document(dotted: str, value) -> dict:
    """The document ``{"a": {"b": value}}`` of the dotted key ``a.b``."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


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
    return _apply(cfg, user)


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply ``--set dotted.key=value`` pairs; values parse as JSON when possible."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _apply(cfg, _document(dotted, value))
    return cfg


def _config(args, flags: dict) -> dict:
    """The config file, then each --set, then the subcommand flags that were given."""
    cfg = apply_overrides(load_config(args.config), args.set)
    for dotted, value in flags.items():
        if value is not None:
            _apply(cfg, _document(dotted, value))
    if cfg["seed"] < 0:  # numpy refuses it only where it draws noise
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _estimate_state(section: dict) -> ObserverState:
    return ObserverState.cold_start(
        section["estimate_pos"],
        section["estimate_vel"],
        Rotation.from_rotvec(section["estimate_rotvec"]),
    )


def _anchors(path: str | None, key: str) -> AnchorSet:
    """The anchor file the config names at ``key``, or the default anchors when it names none."""
    if not path:
        return default_anchors()
    if not Path(path).exists():
        raise ConfigError(f"{key}: anchor file not found: {path}")
    return load_anchors(path)


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


def _settled(summary: dict) -> str:
    """A run summary's settling time as sim and replay print it: "never" or "x.xx s"."""
    settle = summary["settling_time"]
    return "never" if math.isnan(settle) else f"{settle:.2f} s"


def _scenario(cfg: dict, seed: int) -> Scenario:
    sim_cfg = cfg["sim"]
    return preset_scenario(
        sim_cfg["scenario"],
        seed=seed,
        noise=SensorNoise(**sim_cfg["noise"]),
        anchors=_anchors(sim_cfg["anchors"], "sim.anchors"),
        ref=ReferenceVectors(**cfg["ref"]),
        **_pick(sim_cfg, _SIM_KEYS),
    )


def _run_sim_job(cfg: dict, seed: int, outdir: Path, track: TruthTrack) -> dict:
    """Run one sim seed on the sweep's truth track and write its artifacts."""
    result = run_scenario(
        _scenario(cfg, seed),
        Gains(**cfg["gains"]),
        track=track,
        **_pick(cfg, _SETTLE_KEYS),
    )
    _write_artifacts(outdir, result)
    if cfg["sim"]["export_dataset"]:
        export_dataset(result, outdir / "dataset")
    log.info("wrote %s and summary.json", outdir / "metrics.csv")
    return result.summary


def cmd_sim(args) -> int:
    cfg = _config(args, {"sim.scenario": args.scenario, "seed": args.seed, "sim.runs": args.runs})
    name = cfg["sim"]["scenario"]
    if not name:
        raise ConfigError("no scenario selected (use --scenario or sim.scenario)")
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown scenario {name!r}; choose from {PRESET_NAMES}")
    runs = cfg["sim"]["runs"]
    if runs < 1:
        raise ConfigError(f"sim.runs must be >= 1, got {runs}")
    base_seed = cfg["seed"]
    out = Path(args.out)
    # The truth does not depend on the seed: integrate it once for the sweep.
    track = truth_track(_scenario(cfg, base_seed))
    summaries = []
    for seed in range(base_seed, base_seed + runs):
        outdir = out if runs == 1 else out / f"seed-{seed:04d}"
        summary = _run_sim_job(cfg, seed, outdir, track)
        summaries.append(summary)
        print(
            f"sim {name} seed={seed}: final pos err {summary['final_pos_err']:.3f} m,"
            f" settled {_settled(summary)}, artifacts in {outdir}"
        )
    if runs > 1:
        write_summary_json(out / "summary.json", {"runs": summaries})
    return 0


def cmd_replay(args) -> int:
    cfg = _config(args, {"seed": args.seed})
    rcfg = cfg["replay"]
    missing = [k for k in ("imu", "uwb", "gt") if not rcfg[k]]
    if missing:
        raise ConfigError(f"replay config missing dataset paths: {', '.join(missing)}")
    anchors = _anchors(rcfg["anchors"], "replay.anchors")
    paths = {k: rcfg[k] for k in ("imu", "uwb", "gt")}
    dataset = load_dataset(paths, rcfg["column_map"])
    print(dataset.report.describe())
    result = run_replay(
        dataset,
        anchors,
        Gains(**cfg["gains"]),
        _estimate_state(rcfg),
        tag_offset=rcfg["tag_offset"],
        ref=ReferenceVectors(**cfg["ref"]),
        seed=cfg["seed"],
        **_pick(rcfg, _REPLAY_KEYS),
        **_pick(cfg, _SETTLE_KEYS),
    )
    out = Path(args.out)
    _write_artifacts(out, result)
    s = result.summary
    print(
        f"replay: {s['steps']} steps, initial pos err {s['initial_pos_err']:.3f} m,"
        f" steady-state rms {s['ss_pos_rms']:.3f} m (raw {s['raw_pos_rms']:.3f} m),"
        f" settled {_settled(s)}, artifacts in {out}"
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
    gains = Gains(k_v=args.k_v, k_a=args.k_a)
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
    p_sim.set_defaults(func=cmd_sim)

    p_rep = sub.add_parser("replay", help="replay the observer over a recorded dataset")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_replay)

    p_tdoa = sub.add_parser("tdoa-solve", help="solve one TDOA frame against an anchor file")
    p_tdoa.add_argument("--anchors", required=True, help="anchors.json path")
    p_tdoa.add_argument("--d", required=True, help="comma-separated cyclic range differences, e.g. --d -0.1,0.2,...")
    p_tdoa.add_argument(
        "--allow-reduced", action="store_true", help="fall back to a rank-3 solve if degenerate"
    )
    p_tdoa.set_defaults(func=cmd_tdoa_solve)

    p_val = sub.add_parser("validate-gains", help="check the closed-form stability certificate")
    gains = Gains()
    for flag, name, what in (
        ("--k-v", "k_v", "position"),
        ("--k-a", "k_a", "velocity"),
    ):
        default = getattr(gains, name)
        p_val.add_argument(flag, type=float, default=default, help=f"{what} gain (default {default:g})")
    p_val.add_argument("--delta", type=float, required=True, help="certificate parameter")
    p_val.set_defaults(func=cmd_validate_gains)
    return parser


def _join_d(argv) -> list:
    """``tdoa-solve``'s ``--d VALUE`` as ``--d=VALUE`` where VALUE starts like a
    negative number: argparse would take ``-4.49,3.93,...`` for an option."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] != ["tdoa-solve"]:
        return argv
    for i in range(len(argv) - 1, 1, -1):
        if argv[i - 1] == "--d" and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"--d={argv[i]}"]
    return argv


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("NAV_LOG", "WARNING").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(_join_d(argv))
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
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
