"""Layer costs: one fixed observer state, each layer timed alone, parent against this tree.

    python3 tools/layer_costs.py --parent 46ad722 --out BENCH_21.json

Both sides run from the same kind of snapshot as ``tools/bench_pairs.py``
makes: the files of a commit exported by ``git archive`` into a temporary
directory (the change side is ``git stash create``'s commit of the working
tree and index, else HEAD).  In each snapshot a fresh interpreter, with BLAS
pinned to one thread, builds navbench's observer-stream inputs for seed 5,
steps its first flight to step 1500 and times each layer on that state: the
minimum over 5 x 20 000 ``timeit`` calls, in microseconds per call.  Ten
interpreters run per side, alternating which side goes first; a side's cost
is the minimum over its interpreters, and every interpreter's numbers are
kept.  The result is the ``layer_costs_us`` entry of the output file, whose
other entries are kept.

On a shared two-CPU machine its readings spread by about a fifth: three runs
on the same two trees read the parent's frameless step as 60, 49 and 51 µs,
and single interpreters from 49 to 89 µs.  A change of a few µs is below
what it resolves.

The layers: ``step`` without a frame, with a frame it solves and with a fix
handed as ``p_y``; ``solve_frame`` and its ``build_system``; the correction
step's ``_se23_exp`` (all blocks non-zero) and the prediction's (``vcol`` the
shared zero); ``build_triads``; and ``_pack`` of the state's R, P and V.

Standard library only (the probe imports the snapshot's numpy code).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import change_ref, checkout, git, machine  # noqa: E402

STATE_SEED = 5  # navbench observer-stream seed of the timed state
STATE_STEP = 1500  # steps of its first flight before the timed state
PROCESSES, NUMBER, REPEAT = 10, 20_000, 5  # interpreters per side; calls per timing; timings per layer


def probe(root: Path, number: int = NUMBER, repeat: int = REPEAT) -> dict:
    """Microseconds per call of each layer on the fixed state, with ``root``'s code."""
    sys.path[:0] = [str(root / "src"), str(root / "navbench")]
    import worker
    from uwbnav import liegroup, observer, sensors, tdoa

    stream = worker.ObserverStream(STATE_SEED, False, None)
    stream.flights = 1  # flight 0's noise does not depend on the flight count
    stream.make_inputs()
    stream.prepare()
    samples, frames = stream.inputs[0]
    anchors, gains, ref, dt = stream.anchor_set, stream.gains, stream.ref, worker.DT
    state = stream.init
    for k in range(STATE_STEP):
        state = observer.step(state, samples[k], frames[k], anchors, gains, dt, ref=ref)
    sample, frame, nav = samples[STATE_STEP], frames[STATE_STEP], state.nav
    omega, acc = sample.gyro - state.b_omega_hat, sample.accel - state.b_a_hat
    p_y = tdoa.solve_frame(anchors, frame).p
    calls = {
        "step_no_frame": lambda: observer.step(state, sample, None, anchors, gains, dt, ref=ref),
        "step_frame": lambda: observer.step(state, sample, frame, anchors, gains, dt, ref=ref),
        "step_handed_fix": lambda: observer.step(state, sample, frame, anchors, gains, dt, ref=ref, p_y=p_y),
        "solve_frame": lambda: tdoa.solve_frame(anchors, frame),
        "build_system": lambda: tdoa.build_system(anchors, frame),
        "se23_exp": lambda: liegroup._se23_exp(omega, nav.vel, acc, -1.0, dt),
        "se23_exp_zero_v": lambda: liegroup._se23_exp(omega, liegroup._ZERO3, acc, 1.0, dt),
        "build_triads": lambda: sensors.build_triads(sample, ref),
        "pack": lambda: liegroup._pack(nav.rot.m, nav.pos, nav.vel),
    }
    return {name: min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6 for name, fn in calls.items()}


def run_probe(root: Path) -> dict:
    """``probe`` in a fresh interpreter, BLAS on one thread, as navbench runs its workers."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", str(root)]
    proc = subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def combine(runs: list[dict]) -> dict:
    """Per side, each layer's minimum over that side's processes, rounded to 0.01 us."""
    out = {}
    for run in runs:
        side = out.setdefault(run["side"], {})
        for name, us in run["us"].items():
            side[name] = min(side.get(name, us), us)
    return {side: {name: round(us, 2) for name, us in costs.items()} for side, costs in out.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"]:  # the child: --probe ROOT [NUMBER REPEAT] times one tree
        root, *counts = argv[1:]
        print(json.dumps(probe(Path(root), *map(int, counts))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or update")
    args = parser.parse_args(argv)

    parent_sha, change_sha = git("rev-parse", args.parent), change_ref()
    runs = []
    with tempfile.TemporaryDirectory(prefix="layer-costs-") as tmp:
        roots = {side: checkout(sha, Path(tmp) / side) for side, sha in (("parent", parent_sha), ("change", change_sha))}
        for i in range(PROCESSES):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                us = run_probe(roots[side])
                runs.append({"process": i, "side": side, "us": us})
                print(f"process {i} {side}: " + json.dumps({k: round(v, 2) for k, v in us.items()}), flush=True)

    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.setdefault("machine", machine())
    doc["layer_costs_us"] = {
        "method": (
            f"tools/layer_costs.py: min over {REPEAT} x {NUMBER} timeit calls on one fixed"
            f" observer-stream state (seed {STATE_SEED}, step {STATE_STEP}), min over {PROCESSES}"
            " interleaved processes per side, each side from a git archive snapshot; raw microseconds"
        ),
        "parent_ref": parent_sha,
        "change_ref": change_sha,
        **combine(runs),
        "runs": runs,
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    costs = doc["layer_costs_us"]
    for name in costs["parent"]:
        print(f"{name}: {costs['parent'][name]} -> {costs['change'][name]} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
