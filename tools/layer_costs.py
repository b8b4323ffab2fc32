"""Layer costs: each layer timed alone on one state or replay trial, parent against this tree in one interpreter.

    python3 tools/layer_costs.py --parent 24171ba --out BENCH_24.json

Both sides run from the same kind of snapshot as ``tools/bench_pairs.py``
makes: the files of a commit exported by ``git archive`` into a temporary
directory (the change side is ``git stash create``'s commit of the working
tree and index, else HEAD).  One fresh interpreter, with BLAS pinned to one
thread, imports both snapshots' ``uwbnav`` and navbench ``worker``, each as
its own set of modules.  In each it builds navbench's observer-stream inputs
for seed 5, steps the first flight to step 1500 and takes each layer's call
on that state.  The replay input stage's layers read one 60 s figure-eight
trial, exported once, as navbench's replay-trial exports it (its seed 5,
first trial).  The sim's synthesis layers run on one 30 s figure8 seed (5) with
navbench's sensor noise (``NOISE``) and biases.  It then runs 40
rounds.  In each round every layer is timed on both sides, the side that
goes first alternating from round to round: the minimum of 3 ``timeit`` runs
of 1 000 calls (1 call for a layer that takes milliseconds), in microseconds
per call.  For each layer the result gives each side's minimum and median
over the rounds and the number of rounds in which the change was faster;
every round's numbers are kept.  It is the ``layer_costs_us`` entry of the
output file, whose other entries are kept.

Both trees are timed in one interpreter, round by round, because separate
interpreters do not agree to a few µs on a shared two-CPU machine: the
minimum over ten interpreters per side read the same parent's frameless step
as 60, 49 and 51 µs in three runs, and single interpreters from 49 to 89 µs.

The layers: ``step`` without a frame, with a frame it solves, with a fix
handed as ``p_y`` and, without a frame, with its triad body rows handed as
``body_rows`` (a tree without the keyword runs its frameless step);
``solve_frame`` of the timed state's frame, repeated, and
its ``build_system``; ``solve_stream``, ``solve_frame`` over each of the first
flight's 6 000 frames in turn (one call per timing, so its figure is the
microseconds of all 6 000 solves: real inputs, none cached); the correction
step's ``_se23_exp`` (all blocks non-zero) and the prediction's (no v
column); ``compose``, the prediction's product of the state and its
exponential (``liegroup._compose`` on floats; a tree without it multiplies
the 5x5s of ``_pack`` and ``_se23_exp``, whose inputs are arrays, with one
``dot``); ``build_triads``; ``body_rows``, ``sensors._body_rows`` of the
timed sample, the triad rows the online step forms; ``body_rows_table``, ``sensors._body_rows_table``
over the first flight's 6 000 samples (one call per timing; a tree without it
runs ``_body_rows`` on each sample in turn); and
the replay input stage: ``load_dataset`` of the trial's three CSV files,
``load_dataset_messy`` of the same files as ``tools/artifact_diff.py``'s
``mess_up`` rewrites them (LF line ends, a blank line, a quoted cell and a
cell that is not a number in each: what a file costs that numpy's text
reader leaves to csv), and ``derive_velocity`` on its gt table and on a copy
whose times are jittered by up to 2 ms, so that no fit window repeats; and
the sim's synthesis stage: ``truth_track`` of the sweep scenario,
``_imu_stream`` and ``_tdoa_table`` of its seed, and ``so3_exp`` as the
presets call it for their attitude.

Standard library only (the probe imports the snapshots' numpy code).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from artifact_diff import mess_up  # noqa: E402
from bench_pairs import change_ref, checkout, git, machine  # noqa: E402

STATE_SEED = 5  # navbench observer-stream seed of the timed state
STATE_STEP = 1500  # steps of its first flight before the timed state
ROUNDS, NUMBER, REPEAT = 40, 1_000, 3  # alternating rounds; calls per timing; timings per layer, side and round
SNAPSHOT_MODULES = ("uwbnav", "worker", "checks", "speed", "tracer")  # what importing a snapshot loads
# Layers of milliseconds, timed one call at a time.
ONE_CALL_LAYERS = (
    "solve_stream", "body_rows_table", "load_dataset", "load_dataset_messy", "derive_velocity",
    "derive_velocity_jittered", "truth_track", "imu_stream", "tdoa_table",
)
JITTER_S = 0.002  # largest shift of a gt time in the jittered copy (the gt step is 10 ms)


def layers(root: Path, trial: Path) -> dict:
    """Each layer's call on the fixed state and the replay trial, with ``root``'s code.

    The snapshot's modules are imported afresh, apart from those of any
    snapshot imported before; its calls keep their own modules alive.  The
    trial is exported into ``trial`` by the first snapshot that finds it empty.
    """
    for name in [m for m in sys.modules if m.partition(".")[0] in SNAPSHOT_MODULES]:
        del sys.modules[name]
    path = sys.path[:]
    sys.path[:0] = [str(root / "src"), str(root / "navbench")]
    try:
        import numpy as np
        import worker
        from uwbnav import liegroup, observer, replay, sensors, sim, tdoa

        stream = worker.ObserverStream(STATE_SEED, False, None)
        stream.flights = 1  # flight 0's noise does not depend on the flight count
        stream.make_inputs()
        stream.prepare()
        bench = worker.ReplayTrial(STATE_SEED, False, trial, trial)
        bench.seeds, bench.inputs = bench.seeds[:1], bench.inputs[:1]
        if not bench.inputs[0].exists():
            bench.export_trials()
    finally:
        sys.path[:] = path
    csvs = {k: bench.inputs[0] / f"{k}.csv" for k in ("imu", "uwb", "gt")}
    messy = {k: trial / f"{k}_messy.csv" for k in csvs}
    for k, path in messy.items():
        if not path.exists():
            mess_up(csvs[k], path)
    gt = replay.load_dataset(csvs).gt
    t, gt_pos = gt[:, 0], gt[:, 5:8]
    t_jittered = t + np.random.default_rng(STATE_SEED).uniform(-JITTER_S, JITTER_S, len(t))
    samples, frames = stream.inputs[0]
    anchors, gains, ref, dt = stream.anchor_set, stream.gains, stream.ref, worker.DT
    state = stream.init
    for k in range(STATE_STEP):
        state = observer.step(state, samples[k], frames[k], anchors, gains, dt, ref=ref)
    sample, frame, nav = samples[STATE_STEP], frames[STATE_STEP], state.nav
    omega, acc = sample.gyro - state.b_omega_hat, sample.accel - state.b_a_hat
    p_y = tdoa.solve_frame(anchors, frame).p
    sweep = sim.preset_scenario(
        "figure8", seed=STATE_SEED, duration=30.0, noise=sim.SensorNoise(**worker.NOISE),
        b_omega=worker.checks.GYRO_BIAS, b_a=worker.checks.ACCEL_BIAS,
    )
    truth, track = sweep.truth, sim.truth_track(sweep)
    times = (np.arange(track.n + 1) / sweep.imu_rate).tolist()
    gyro, accel = track.omega + truth.b_omega, track.accel + truth.b_a
    yaw = np.array([0.0, 0.0, 0.3])

    def solve_stream():
        for f in frames:
            tdoa.solve_frame(anchors, f)

    if hasattr(liegroup, "_compose"):  # the float kernels: 3-sequences in, the top block's 15 floats out
        w, a, v = omega.tolist(), acc.tolist(), nav.vel.tolist()
        X = (*nav.rot.m.ravel().tolist(), *nav.pos.tolist(), *v)
        E = liegroup._se23_exp(w, None, a, 1.0, dt)

        def se23_exp():
            return liegroup._se23_exp(w, v, a, -1.0, dt)

        def se23_exp_zero_v():
            return liegroup._se23_exp(w, None, a, 1.0, dt)

        def compose():
            return liegroup._compose(X, E, dt)
    else:  # a tree on BLAS products: float arrays in, a 5x5 out, and the 5x5 product

        def se23_exp():
            return liegroup._se23_exp(omega, nav.vel, acc, -1.0, dt)

        def se23_exp_zero_v():
            return liegroup._se23_exp(omega, liegroup._ZERO3, acc, 1.0, dt)

        X5, E5 = liegroup._pack(nav.rot.m, nav.pos, nav.vel), se23_exp_zero_v()

        def compose():
            return X5.dot(E5)

    accels, mags = np.array([s.accel for s in samples]), np.array([s.mag for s in samples])
    if hasattr(sensors, "_body_rows_table"):
        rows = list(sensors._body_rows(sample))

        def step_handed_rows():
            return observer.step(state, sample, None, anchors, gains, dt, ref=ref, body_rows=rows)

        def body_rows_table():
            return sensors._body_rows_table(accels, mags)
    else:  # a tree without the table form: its frameless step, and _body_rows over each sample

        def step_handed_rows():
            return observer.step(state, sample, None, anchors, gains, dt, ref=ref)

        def body_rows_table():
            for s in samples:
                try:
                    sensors._body_rows(s)
                except sensors.TriadDegenerate:
                    pass

    return {
        "step_no_frame": lambda: observer.step(state, sample, None, anchors, gains, dt, ref=ref),
        "step_frame": lambda: observer.step(state, sample, frame, anchors, gains, dt, ref=ref),
        "step_handed_fix": lambda: observer.step(state, sample, frame, anchors, gains, dt, ref=ref, p_y=p_y),
        "step_handed_rows": step_handed_rows,
        "solve_frame": lambda: tdoa.solve_frame(anchors, frame),
        "build_system": lambda: tdoa.build_system(anchors, frame),
        "solve_stream": solve_stream,
        "se23_exp": se23_exp,
        "se23_exp_zero_v": se23_exp_zero_v,
        "compose": compose,
        "build_triads": lambda: sensors.build_triads(sample, ref),
        "body_rows": lambda: sensors._body_rows(sample),
        "body_rows_table": body_rows_table,
        "load_dataset": lambda: replay.load_dataset(csvs),
        "load_dataset_messy": lambda: replay.load_dataset(messy),
        "derive_velocity": lambda: replay.derive_velocity(t, gt_pos),
        "derive_velocity_jittered": lambda: replay.derive_velocity(t_jittered, gt_pos),
        "truth_track": lambda: sim.truth_track(sweep),
        "imu_stream": lambda: sim._imu_stream(truth.noise, truth.seed, times, gyro, accel, track.rot, ref.mag_ref),
        "tdoa_table": lambda: sim._tdoa_table(sweep, track, times),
        "so3_exp": lambda: liegroup.so3_exp(yaw, 12.34),
    }


def probe(roots: dict, rounds: int = ROUNDS, number: int = NUMBER, repeat: int = REPEAT) -> list[dict]:
    """Per round, each side's microseconds per call of each layer; ``roots`` maps side to snapshot."""
    sides = list(roots)
    out = []
    with tempfile.TemporaryDirectory(prefix="layer-costs-trial-") as trial:
        calls = {side: layers(root, Path(trial)) for side, root in roots.items()}
        for i in range(rounds):
            row = {side: {} for side in sides}
            for name in calls[sides[0]]:
                n = 1 if name in ONE_CALL_LAYERS else number
                for side in sides if i % 2 == 0 else sides[::-1]:
                    row[side][name] = min(timeit.repeat(calls[side][name], number=n, repeat=repeat)) / n * 1e6
            out.append(row)
            print(f"round {i + 1} of {rounds}", file=sys.stderr, flush=True)
    return out


def summarise(rounds: list[dict]) -> dict:
    """Per layer: each side's minimum and median over the rounds, rounded to
    0.01 us, and the number of rounds in which the change was faster."""
    out = {}
    for name in rounds[0]["parent"]:
        us = {side: [r[side][name] for r in rounds] for side in ("parent", "change")}
        out[name] = {
            side: {"min": round(min(xs), 2), "median": round(statistics.median(xs), 2)} for side, xs in us.items()
        }
        out[name]["change_faster"] = sum(c < p for p, c in zip(us["parent"], us["change"]))
    return out


def run_probe(roots: dict) -> list[dict]:
    """``probe`` in a fresh interpreter, BLAS on one thread, as navbench runs its workers."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", str(roots["parent"]), str(roots["change"])]
    proc = subprocess.run(cmd, cwd=roots["parent"].parent, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"]:  # the child: --probe PARENT CHANGE [ROUNDS NUMBER REPEAT] times both trees
        parent, change, *counts = argv[1:]
        print(json.dumps(probe({"parent": Path(parent), "change": Path(change)}, *map(int, counts))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or update")
    args = parser.parse_args(argv)

    parent_sha, change_sha = git("rev-parse", args.parent), change_ref()
    with tempfile.TemporaryDirectory(prefix="layer-costs-") as tmp:
        roots = {side: checkout(sha, Path(tmp) / side) for side, sha in (("parent", parent_sha), ("change", change_sha))}
        rounds = run_probe(roots)

    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.setdefault("machine", machine())
    costs = summarise(rounds)
    doc["layer_costs_us"] = {
        "method": (
            f"tools/layer_costs.py: both trees imported into one interpreter, BLAS on one thread;"
            f" {ROUNDS} rounds, each timing every layer on both sides in turn (first side alternating),"
            f" min of {REPEAT} x {NUMBER} timeit calls (x 1 for {', '.join(ONE_CALL_LAYERS)});"
            f" one fixed observer-stream state (seed {STATE_SEED}, step {STATE_STEP}), one exported"
            f" 60 s replay trial (seed {STATE_SEED}) and one 30 s figure8 seed ({STATE_SEED}) with navbench's"
            f" noise and biases; min and median over rounds, raw microseconds"
        ),
        "parent_ref": parent_sha,
        "change_ref": change_sha,
        "layers": costs,
        "rounds": rounds,
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, c in costs.items():
        print(
            f"{name}: min {c['parent']['min']} -> {c['change']['min']} us,"
            f" median {c['parent']['median']} -> {c['change']['median']} us,"
            f" change faster in {c['change_faster']} of {len(rounds)} rounds"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
