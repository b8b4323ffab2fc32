"""One benchmark process: set up a workload, run whole rounds of it, check them.

run.py starts this file in a fresh interpreter, so the set-up it measures
starts at interpreter start.  Modes:

* ``generate``: write the replay trials (exported, seeded sim runs) under --inputs;
* ``probe``:    set up the workload, print the set-up time and exit;
* ``run``:      set up, run rounds until --seconds of rounds have been timed,
                check every round and print the metrics as one JSON line.

With ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones from the traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

_import_start = time.monotonic()
import uwbnav.cli as cli  # noqa: E402  (the import is timed: it is part of set-up)
from uwbnav import observer  # noqa: E402

IMPORT_S = time.monotonic() - _import_start

import checks  # noqa: E402
import speed  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer, installed, patched  # noqa: E402

SWEEP_RUNS = 6  # seeds per `uwbnav sim --runs` call
STREAM_STEPS = 6000  # one 60 s flight of 100 Hz IMU, one TDOA frame per sample
STREAM_FLIGHTS = 6  # flights per observer-stream round
TRIALS = 3  # replays per replay-trial round
TRIAL_SECONDS = 60.0
SHORT_SECONDS = 6.0  # run length of every workload in --short mode
DT = 0.01
CHECKPOINT_EVERY = 50  # step calls between machine-speed checkpoints

# All four sensor noises, for the exported replay trial and the stream.
NOISE = {"gyro_sd": 0.005, "accel_sd": 0.02, "mag_sd": 0.2, "tdoa_sd": 0.05}


def timed(fn, sink, meter):
    """``fn`` with each call's duration appended to ``sink`` (ns), and a speed
    checkpoint after every CHECKPOINT_EVERY calls."""
    clock = time.perf_counter_ns

    def call(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        sink.append(clock() - start)
        if len(sink) % CHECKPOINT_EVERY == 0:
            meter.checkpoint(len(sink))
        return result

    return call


@dataclass
class Round:
    """The outcome of one round: problems found, failed operations, error metrics."""

    problems: list = field(default_factory=list)
    failed: int = 0
    accuracy: dict = field(default_factory=dict)
    digest: str = ""
    error: str | None = None


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _check_runs(dirs, duration, check) -> Round:
    """Check each CLI run's metrics.csv and summary.json with ``check(i, cols,
    summary)``; the error metrics average the runs."""
    problems, failed, files, per_run = [], 0, [], []
    for i, d in enumerate(dirs):
        metrics, summary_path = d / "metrics.csv", d / "summary.json"
        if not (metrics.exists() and summary_path.exists()):
            failed += 1
            continue
        cols = checks.read_metrics_csv(metrics)
        try:
            summary = checks.strict_json(summary_path.read_text())
        except ValueError as exc:
            problems.append(f"{d.name}/summary.json: {exc}")
            summary = {}
        problems += [f"{d.name}: {p}" for p in check(i, cols, summary)]
        per_run.append(checks.steady_state(cols["t"], cols["att_err"], cols["pos_err"], cols["vel_err"], duration))
        files += [metrics, summary_path]
    return Round(problems, failed, _mean_accuracy(per_run), _digest(files))


def _mean_accuracy(per_run) -> dict:
    return {k: statistics.fmean(r[k] for r in per_run) for k in per_run[0]} if per_run else {}


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class SimSweep:
    """`uwbnav sim --scenario figure8 --runs N` with criterion 6's sensor set-up."""

    step_site = "uwbnav.sim"
    # One round's 99th-percentile step latency, which falls among the ~1 800
    # steps that carry a TDOA frame, spread by 0.19 over ten seeds; two
    # rounds brought that to 0.08.
    min_rounds = 2

    def __init__(self, seed, short, work):
        self.runs = 1 if short else SWEEP_RUNS
        self.duration = SHORT_SECONDS if short else 30.0
        self.base_seed = seed * self.runs
        self.steps = self.runs * int(round(self.duration * 100))
        self.ops = self.runs

    def make_inputs(self):
        pass

    def prepare(self):
        pass

    def run_round(self, out) -> int:
        sets = {
            "sim.duration": self.duration,
            "sim.noise.tdoa_sd": NOISE["tdoa_sd"],
            "sim.noise.mag_sd": NOISE["mag_sd"],
            "sim.b_omega": list(checks.GYRO_BIAS),
            "sim.b_a": list(checks.ACCEL_BIAS),
        }
        argv = ["sim", "--scenario", "figure8", "--runs", str(self.runs)]
        argv += ["--seed", str(self.base_seed), "--out", str(out)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return _quiet_cli(argv)

    def seed_dirs(self, out):
        if self.runs == 1:
            return [Path(out)]
        return [Path(out) / f"seed-{self.base_seed + i:04d}" for i in range(self.runs)]

    def check_round(self, out) -> Round:
        result = _check_runs(
            self.seed_dirs(out), self.duration, lambda i, cols, summary: checks.check_sim_seed(cols, summary, self.duration)
        )
        if self.runs > 1:
            # The sweep summary holds bare NaN tokens (see CHANGES.md), so it
            # is read leniently; only its length is checked.
            runs = json.loads((Path(out) / "summary.json").read_text()).get("runs", [])
            if len(runs) != self.runs:
                result.problems.append(f"sweep summary lists {len(runs)} runs, expected {self.runs}")
        return result

    def fix_truth(self, t):
        return checks.figure8_position(t)


class ReplayTrial:
    """`uwbnav replay` over exported figure-eight trials, TRIALS of them per round.

    One trial's steady-state error varies by about 11 % from seed to seed,
    and a three times longer trial varies as much, so a round replays
    independent trials and the error metrics average them.
    """

    step_site = "uwbnav.replay"
    min_rounds = 1

    def __init__(self, seed, short, work, inputs):
        self.trials = 1 if short else TRIALS
        self.seeds = [seed * self.trials + i for i in range(self.trials)]
        self.duration = SHORT_SECONDS if short else TRIAL_SECONDS
        self.steps = self.trials * int(round(self.duration * 100))
        self.ops = self.trials
        self.inputs = [Path(inputs) / f"trial-{s}" for s in self.seeds]
        self.configs = [Path(work) / f"trial-{s}.json" for s in self.seeds]

    @staticmethod
    def lever():
        return cli.DEFAULT_CONFIG["replay"]["tag_offset"]

    def make_inputs(self):
        pass  # export_trials wrote them, in a process of its own

    def export_trials(self):
        """Export seeded sim runs with every noise, both biases and the CLI's lever arm."""
        import numpy as np
        from uwbnav.observer import Gains
        from uwbnav.replay import export_dataset
        from uwbnav.sim import SensorNoise, preset_scenario, run_scenario

        for seed, inputs in zip(self.seeds, self.inputs):
            scenario = preset_scenario(
                "figure8",
                seed=seed,
                duration=self.duration,
                noise=SensorNoise(**NOISE),
                b_omega=checks.GYRO_BIAS,
                b_a=checks.ACCEL_BIAS,
                tag_offset=self.lever(),
            )
            result = run_scenario(scenario, Gains())
            export_dataset(result, inputs)
            np.savez(
                inputs / "reference.npz",
                t=result.t,
                att_err=result.att_err,
                pos_err=result.pos_err,
                vel_err=result.vel_err,
            )

    def prepare(self):
        import numpy as np
        import scipy.signal  # noqa: F401  replay imports it lazily, once per process

        self.references = []
        for inputs, config in zip(self.inputs, self.configs):
            paths = {k: str(inputs / f"{k}.csv") for k in ("imu", "uwb", "gt")}
            paths["anchors"] = str(inputs / "anchors.json")
            config.write_text(json.dumps({"replay": paths}))
            with np.load(inputs / "reference.npz") as ref:
                self.references.append({k: ref[k] for k in ref.files})

    def run_round(self, out) -> int:
        rc = 0
        for seed, config in zip(self.seeds, self.configs):
            argv = ["replay", "--config", str(config), "--out", str(Path(out) / f"trial-{seed}"), "--seed", str(seed)]
            rc = rc or _quiet_cli(argv)
        return rc

    def check_round(self, out) -> Round:
        dirs = [Path(out) / f"trial-{seed}" for seed in self.seeds]
        return _check_runs(
            dirs,
            self.duration,
            lambda i, cols, summary: checks.check_replay(cols, summary, self.references[i], self.duration),
        )

    def fix_truth(self, t):
        return checks.figure8_antenna(t, self.lever())


class ObserverStream:
    """`observer.step` over in-memory inputs with a TDOA frame on every IMU sample.

    One round flies the same closed-form trajectory FLIGHTS times, each time
    from the same initial estimate with its own seeded noise.  The error of
    one 60 s flight still varies by about 20 % from seed to seed (the
    underdamped position loop turns white fix noise into slow swings), so the
    error metrics average the flights.
    """

    step_site = None  # the benchmark itself calls observer.step
    min_rounds = 1

    # Eight anchors near the corners of an 8 m x 8 m x 4 m room, not quite a box.
    ANCHORS = (
        (-4.1, -3.9, 0.1), (4.0, -4.2, 0.0), (3.9, 4.1, 0.2), (-4.0, 4.0, 0.0),
        (-3.8, -4.0, 3.9), (4.2, -3.9, 4.1), (4.0, 3.8, 3.9), (-4.1, 4.2, 4.0),
    )

    def __init__(self, seed, short, work):
        self.seed = seed
        self.flights = 1 if short else STREAM_FLIGHTS
        self.flight_steps = int(round(SHORT_SECONDS * 100)) if short else STREAM_STEPS
        self.duration = self.flight_steps * DT
        self.steps = self.ops = self.flights * self.flight_steps
        self.traj = checks.Helix()

    def make_inputs(self):
        """Closed-form measurements plus seeded noise, as plain arrays."""
        import numpy as np

        traj, n = self.traj, self.flight_steps
        t = np.arange(n) * DT
        mid = t + 0.5 * DT  # IMU inputs are held over a step: sample them at its midpoint
        R, R_mid = traj.rotation(t), traj.rotation(mid)
        gyro = np.array([0.0, 0.0, traj.yaw_rate]) + checks.GYRO_BIAS
        accel = np.einsum("kji,kj->ki", R_mid, traj.acceleration(mid) - traj.gravity) + checks.ACCEL_BIAS
        mag = np.einsum("kji,j->ki", R, traj.mag_ref)
        ranges = np.linalg.norm(traj.position(t)[:, None, :] - np.array(self.ANCHORS)[None], axis=2)
        d = np.roll(ranges, -1, axis=1) - ranges
        self.t = t
        self.noisy = []
        for flight in range(self.flights):
            rng = np.random.default_rng((self.seed, flight))
            self.noisy.append((
                gyro + rng.normal(0.0, NOISE["gyro_sd"], (n, 3)),
                accel + rng.normal(0.0, NOISE["accel_sd"], (n, 3)),
                mag + rng.normal(0.0, NOISE["mag_sd"], (n, 3)),
                d + rng.normal(0.0, NOISE["tdoa_sd"], d.shape),
            ))
        t_next = t + DT  # the estimate after step k is compared with truth at t_{k+1}
        self.truth = (traj.rotation(t_next), traj.position(t_next), traj.velocity(t_next))

    def prepare(self):
        from uwbnav.liegroup import NavState, Rotation
        from uwbnav.observer import Gains, ObserverState
        from uwbnav.sensors import ImuSample, ReferenceVectors
        from uwbnav.tdoa import Anchor, AnchorSet, TdoaFrame

        self.anchor_set = AnchorSet(tuple(Anchor(i + 1, p) for i, p in enumerate(self.ANCHORS)))
        self.gains = Gains()
        self.ref = ReferenceVectors(gravity=self.traj.gravity, mag_ref=self.traj.mag_ref)
        self.init = ObserverState(
            NavState(Rotation.identity(), checks.ESTIMATE_POS, [0.0, 0.0, 0.0]), [0.0] * 3, [0.0] * 3
        )
        self.inputs = [
            (
                [ImuSample(tk, g, a, m) for tk, g, a, m in zip(self.t, gyro, accel, mag)],
                [TdoaFrame(tk, dk) for tk, dk in zip(self.t, d)],
            )
            for gyro, accel, mag, d in self.noisy
        ]

    def run_round(self, out, latencies=None, meter=None):
        step = observer.step  # looked up per round, so a traced round gets the wrapper
        clock = time.perf_counter_ns
        anchors, gains, ref = self.anchor_set, self.gains, self.ref
        sink = latencies if latencies is not None else []
        self.states = []
        for samples, frames in self.inputs:
            state, states = self.init, []
            for sample, frame in zip(samples, frames):
                start = clock()
                state = step(state, sample, frame, anchors, gains, DT, ref=ref)
                sink.append(clock() - start)
                states.append(state)
                if meter is not None and len(sink) % CHECKPOINT_EVERY == 0:
                    meter.checkpoint(len(sink))
            self.states.append(states)
        return 0

    def check_round(self, out) -> Round:
        import numpy as np

        problems, per_flight, h = [], [], hashlib.sha256()
        t = self.t + DT
        for flight, states in enumerate(self.states):
            R = np.array([s.nav.rot.m for s in states])
            P = np.array([s.nav.pos for s in states])
            V = np.array([s.nav.vel for s in states])
            failures = {"tdoa": states[-1].tdoa_failures, "triad": states[-1].triad_failures}
            found = checks.check_stream(t, R, P, V, *self.truth, failures, self.duration)
            problems += [f"flight {flight}: {p}" for p in found]
            att, pos, vel = checks.stream_error_series(R, P, V, *self.truth)
            per_flight.append(checks.steady_state(t, att, pos, vel, self.duration))
            for arr in (R, P, V):
                h.update(np.ascontiguousarray(arr).tobytes())
        self.states = None
        return Round(problems, 0, _mean_accuracy(per_flight), h.hexdigest())

    def fix_truth(self, t):
        return self.traj.position(t)


def make_workload(args, work):
    if args.workload == "sim-sweep":
        return SimSweep(args.seed, args.short, work)
    if args.workload == "replay-trial":
        return ReplayTrial(args.seed, args.short, work, args.inputs)
    return ObserverStream(args.seed, args.short, work)


class Recorded:
    """What a traced run records from call arguments and results, beyond span times."""

    def __init__(self, tracer):
        self.fixes = []  # (frame timestamp, fix position) per solve_frame call
        self.frames = 0  # step calls that carried a TDOA frame
        self.csv_bytes = []  # size of each metrics.csv written
        self.rows = []  # rows read by each load_dataset call
        tracer.observers.update({
            "tdoa.solve_frame": self.on_solve,
            "observer.step": self.on_step,
            "replay.write_metrics_csv": self.on_write,
            "replay.load_dataset": self.on_load,
        })

    def on_solve(self, args, fix):
        self.fixes.append((args[1].timestamp, fix.p))

    def on_step(self, args, state):
        self.frames += args[2] is not None

    def on_write(self, args, result):
        self.csv_bytes.append(os.path.getsize(args[0]))

    def on_load(self, args, dataset):
        self.rows.append(sum(dataset.report.rows_read.values()))


def run_rounds(workload, seconds, trace, work):
    """Whole rounds until ``seconds`` of rounds are timed and the workload's
    min_rounds have run; with ``trace``, every second round is traced (so a
    traced run makes at least one of each)."""
    tracer = Tracer() if trace else None
    recorded = Recorded(tracer) if trace else None
    rounds, timed_s = [], 0.0
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        out = Path(work) / f"round-{len(rounds)}"
        latencies, meter = [], SpeedMeter()
        if traced:
            context, body = installed(tracer), tracer.wrap("bench.round", workload.run_round)
        elif workload.step_site:
            site = sys.modules[workload.step_site]
            context, body = patched([(site, "step", timed(site.step, latencies, meter))]), workload.run_round
        else:
            context = contextlib.nullcontext()
            body = lambda o: workload.run_round(o, latencies, meter)  # noqa: E731
        error = None
        try:
            with context:
                rc = body(out)
        except Exception as exc:  # a crashed round counts all its operations as failed
            rc, error = None, f"{type(exc).__name__}: {exc}"
        meter.checkpoint(len(latencies), runs=5)  # a traced round is one segment
        timed_s += meter.raw
        if rc == 0:
            result = workload.check_round(out)
        else:
            result = Round(failed=workload.ops, error=error or f"exit code {rc}")
        shutil.rmtree(out, ignore_errors=True)
        rounds.append({
            "traced": traced,
            "wall": meter.raw,
            "scaled": meter.scaled,
            "latencies": latencies,
            "scaled_latencies": meter.scale(latencies),
            "result": result,
        })
        if timed_s >= seconds and len(rounds) >= (2 if trace else workload.min_rounds):
            return rounds, tracer, recorded


COUNTED = ("observer.step", "liegroup.se23_exp", "liegroup.Rotation", "sensors.build_triads", "tdoa.solve_frame")
SELF_TIMED = COUNTED + (
    "tdoa.synthesize_tdoa",
    "sim.propagate_truth",
    "sim.synthesize_imu",
    "observer.error_metrics",
)
FALLIBLE = ("sensors.build_triads", "tdoa.solve_frame")


def steps_per_s(workload, rounds, traced, key):
    """Steps over timed seconds, pooled over the untraced (or the traced) rounds."""
    walls = [r[key] for r in rounds if r["traced"] == traced]
    return workload.steps * len(walls) / sum(walls)


def end_to_end(workload, rounds, scaled=True) -> dict:
    """The end-to-end metrics, in reference-machine time (or raw with scaled=False)."""
    import numpy as np

    plain = [r for r in rounds if not r["traced"]]
    key = "scaled_latencies" if scaled else "latencies"
    lat_us = np.concatenate([np.asarray(r[key], dtype=float) for r in plain]) / 1e3
    accuracy = next(r["result"].accuracy for r in rounds if r["result"].accuracy)
    units = {"ss_pos_rms_m": "m", "ss_vel_rms_mps": "m/s", "ss_att_rms_deg": "deg"}
    metrics = {
        "steps_per_s": (steps_per_s(workload, rounds, False, "scaled" if scaled else "wall"), "1/s"),
        "step_p50_us": (np.percentile(lat_us, 50), "us"),
        "step_p99_us": (np.percentile(lat_us, 99), "us"),
    }
    metrics.update({k: (v, units[k]) for k, v in accuracy.items()})
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(workload, rounds, tracer, recorded, import_s) -> dict:
    """Per-layer metrics from the traced rounds, times in reference-machine time."""
    import numpy as np

    totals = tracer.totals()
    traced = [r for r in rounds if r["traced"]]
    n = len(traced)
    scale = sum(r["scaled"] for r in traced) / sum(r["wall"] for r in traced)

    def get(name):
        return totals.get(name, (0, 0, 0, 0))

    def per_call(name, ns_index, unit_ns):
        calls, ns = get(name)[0], get(name)[ns_index]
        return ns * scale / calls / unit_ns if calls else 0.0

    metrics = {f"{name}.calls": (get(name)[0] / n, "count") for name in COUNTED}
    metrics.update({f"{name}.self_us": (per_call(name, 2, 1e3), "us") for name in SELF_TIMED})
    metrics.update({f"{name}.failures": (get(name)[3] / n, "count") for name in FALLIBLE})
    metrics["tdoa.solves_per_frame"] = (get("tdoa.solve_frame")[0] / recorded.frames, "ratio")
    t = np.array([f[0] for f in recorded.fixes])
    err = np.linalg.norm(np.array([f[1] for f in recorded.fixes]) - workload.fix_truth(t), axis=1)
    metrics["tdoa.fix_rms_m"] = (checks.rms(err), "m")
    steps = get("observer.step")[0]
    for name in ("sim.run_scenario", "replay.run_replay"):
        metrics[f"{name}.self_us_per_step"] = (get(name)[2] * scale / steps / 1e3, "us")
    load_ns = get("replay.load_dataset")[1] * scale
    metrics["replay.load_dataset.s"] = (per_call("replay.load_dataset", 1, 1e9), "s")
    metrics["replay.load_dataset.rows_per_s"] = (sum(recorded.rows) / (load_ns / 1e9) if load_ns else 0.0, "1/s")
    metrics["replay.write_metrics_csv.s"] = (per_call("replay.write_metrics_csv", 1, 1e9), "s")
    sizes = recorded.csv_bytes
    metrics["replay.write_metrics_csv.bytes"] = (statistics.fmean(sizes) if sizes else 0.0, "byte")
    metrics["cli.import_s"] = (import_s, "s")
    untraced = steps_per_s(workload, rounds, False, "scaled")
    metrics["trace.overhead_pct"] = (100.0 * (untraced / steps_per_s(workload, rounds, True, "scaled") - 1.0), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sim-sweep", "replay-trial", "observer-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("generate", "probe", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--work", required=True, help="scratch directory for round outputs")
    parser.add_argument("--inputs", help="replay trial directory")
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args, args.work)
    if args.mode == "generate":
        workload.export_trials()
        return 0
    start = time.monotonic()
    workload.make_inputs()
    inputs_s = time.monotonic() - start
    workload.prepare()
    setup_raw = time.monotonic() - args.t0 - inputs_s
    setup_factor = speed.median_factor()
    setup = {"setup_s": setup_raw * setup_factor, "setup_raw_s": setup_raw}
    if args.mode == "probe":
        print(json.dumps(setup))
        return 0

    rounds, tracer, recorded = run_rounds(workload, args.seconds, args.trace, args.work)
    results = [r["result"] for r in rounds]
    problems = sorted({p for r in results for p in r.problems})
    if len({r.digest for r in results if r.digest}) > 1:
        problems.append("rounds over the same inputs gave different outputs")
    for r in results:
        if r.error:
            print(f"round failed: {r.error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(workload, rounds, tracer, recorded, IMPORT_S * setup_factor)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(
            out_dir / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "traced_rounds": sum(r["traced"] for r in rounds),
             "per_layer": {k: v for k, (v, _) in metrics.items()}},
        )
    else:
        metrics = end_to_end(workload, rounds)
        raw = {k: v for k, (v, _) in end_to_end(workload, rounds, scaled=False).items() if k.startswith("step")}
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.ops * len(rounds),
        "failed": sum(r.failed for r in results),
        "problems": problems[:20],
        **setup,
        "raw": {} if args.trace else raw,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
