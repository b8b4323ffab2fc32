"""Byte-for-byte comparison of the CLI's artifacts between a parent ref and this tree.

    python3 tools/artifact_diff.py --parent HEAD~1

Both sides run from snapshots that ``tools/bench_pairs.py`` makes the same
way, exported by ``git archive`` into a temporary directory: the parent
ref's commit, and ``git stash create``'s commit of this tree's working tree
and index (HEAD when the tree is clean; stage a new file for it to count).
The fixed artifact set below then runs on each side, with its own ``src/``
and the same interpreter, and every file the two runs wrote is compared byte
for byte.  Each file that differs, or that only one side
wrote, is printed; the exit status is 1 if there is any, else 0.  Under a
differing CSV file with the same header and row count on both sides, each
column that differs is printed with its largest absolute difference, so a
change in the last bits shows its size.

The artifact set opens with three ``uwbnav tdoa-solve`` runs against the
five anchors of ``TDOA_ANCHORS`` (written next to the artifacts as
``TDOA_ANCHORS_FILE``), one of ``tests/test_tdoa.py``'s random anchor sets:
a full-rank frame, the all-zero frame with ``--allow-reduced`` and a frame
whose solved range to the first anchor is negative.  Each prints the fix's
position and its four quality lines (range to the first anchor, residual,
range consistency, the negative-range warning), which are computed only
when read.  Then, with every sensor noise on (gyro 0.005, accel 0.02, mag
0.2, TDOA 0.05), both biases, ``sim.export_dataset=true`` and seed 11:

* ``uwbnav sim --runs 6`` on static, yaw_circle and figure8 for 20 s;
* ``uwbnav sim`` on figure8 at a 250 Hz IMU rate, with gravity (0, 0, -9.81)
  and a lever arm, the one run whose frames read the truth rotation;
* ``uwbnav sim`` on yaw_circle for 20 s whose scenario, noise and biases come
  from a ``--config`` file (``CONFIG``, written next to the artifacts), with
  one ``--set`` leaf on top, the one run that reads a config file;
* ``uwbnav sim`` on figure8 for 20 s at seed 2**32 + 11, whose noise keys
  take five entropy words once the sample time passes 2**32 ns;
* ``uwbnav sim`` on figure8 for 20 s with TDOA frames at 7 Hz, a rate that
  does not divide the IMU's, no TDOA noise and an initial attitude error
  (``sim.estimate_rotvec``), the one run whose frames are noiseless;
* ``uwbnav sim`` on figure8 for 60 s, and ``uwbnav replay`` of its exported
  dataset, once as exported, once with ``replay.column_map.imu`` naming
  magnetometer columns the file does not have, the one run that synthesises
  its magnetometer, and once with the IMU rows of t in [5.00, 5.195) s cut
  out (``GAP_IMU``, written next to the artifacts), the one run with a
  skipped step and dropped TDOA frames, and once with two frames that do
  not solve (``BROKEN_UWB``, written next to the artifacts: the trial's
  ``uwb.csv`` with the differences of its frame at t = 10 s set to zero,
  rank 3, and the first difference at t = 30 s set 0.5 m beyond the anchor
  set's diameter + 1 m, out of range), the one run with ``tdoa_failures``,
  and once from its three files rewritten by ``mess_up`` (``MESSY``, written
  next to the artifacts: LF line ends, a blank line, a quoted cell and a cell
  that is not a number in each), the one run whose files numpy's text reader
  leaves to csv, so that path's tables and load report are compared too.

The standard output of every command is kept next to its artifacts and
compared with them.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import change_ref, checkout, git  # noqa: E402

SEED = 11
SETUP = (
    "sim.noise.gyro_sd=0.005",
    "sim.noise.accel_sd=0.02",
    "sim.noise.mag_sd=0.2",
    "sim.noise.tdoa_sd=0.05",
    "sim.b_omega=[0.02,-0.01,0.015]",
    "sim.b_a=[0.1,-0.05,0.08]",
    "sim.export_dataset=true",
)
CONFIG = {
    "sim": {
        "scenario": "yaw_circle",
        "duration": 20,
        "noise": {"gyro_sd": 0.005, "accel_sd": 0.02, "mag_sd": 0.2, "tdoa_sd": 0.05},
        "b_omega": [0.02, -0.01, 0.015],
        "b_a": [0.1, -0.05, 0.08],
    }
}

# The anchor set of the tdoa-solve runs, and their frames by run name: full
# rank, all zero (solved by the reduced fallback) and one whose solved range
# to the first anchor comes out negative.
TDOA_ANCHORS_FILE = "tdoa_anchors.json"
TDOA_ANCHORS = (
    (1.1349169413825466, -1.3314330287277585, -4.221880222254283),
    (-2.7696405503358656, 3.2185368119591864, 1.9496011301847282),
    (-0.5929398886111787, -1.5988396891801946, 0.3411169797316571),
    (-1.6758704177278725, 4.8128246737790175, 3.3516458984814808),
    (-4.147002931334559, 2.202644524203028, -0.7746894715879469),
)
TDOA_FRAMES = {
    "tdoa-full-rank": "-4.493175829118821,3.933707419695683,-3.0475430817434246,-2.1554771080736312,5.8398351618411795",
    "tdoa-reduced": "0.0,0.0,0.0,0.0,0.0",
    "tdoa-negative-range": "1.7862250542911844,-1.035922791435252,2.852956283534032,-4.458564851397486,0.710898617918397",
}

# The IMU file of the gap replay: the trial's, without its rows of t in GAP.
GAP_IMU = "imu_gap.csv"
GAP = (5.0, 5.195)

# The UWB file of the failing-frame replay: the trial's, with the frame at
# ZEROED all zeros and the first difference of the frame at OUT_OF_RANGE past
# the anchor set's diameter + 1 m (the solver's slack) by 0.5 m.
BROKEN_UWB = "uwb_broken.csv"
ZEROED, OUT_OF_RANGE = 10.0, 30.0

# The files of the messy replay: the trial's three, each rewritten by mess_up.
MESSY = {stream: f"{stream}_messy.csv" for stream in ("imu", "uwb", "gt")}


def commands() -> list[tuple[str, list[str]]]:
    """(output directory, CLI arguments) of every run in the set, in order; paths are relative."""
    sets = [arg for item in SETUP for arg in ("--set", item)]
    runs = []
    for name, d in TDOA_FRAMES.items():
        reduced = ["--allow-reduced"] if name == "tdoa-reduced" else []
        runs.append((name, ["tdoa-solve", "--anchors", TDOA_ANCHORS_FILE, f"--d={d}", *reduced]))  # d may start with "-"
    for scenario in ("static", "yaw_circle", "figure8"):
        out = f"sim-{scenario}"
        runs.append((out, ["sim", "--scenario", scenario, "--runs", "6", "--seed", str(SEED),
                           "--set", "sim.duration=20", *sets, "--out", out]))
    lever = ("sim.imu_rate=250", "ref.gravity=[0,0,-9.81]", "sim.tag_offset=[-0.012,0.001,0.091]")
    runs.append(("lever-arm", ["sim", "--scenario", "figure8", "--seed", str(SEED), *sets,
                               *(arg for item in lever for arg in ("--set", item)), "--out", "lever-arm"]))
    runs.append(("config", ["sim", "--config", "config.json", "--seed", str(SEED),
                            "--set", "sim.noise.tdoa_sd=0.1", "--out", "config"]))
    runs.append(("big-seed", ["sim", "--scenario", "figure8", "--seed", str(2**32 + SEED),
                              "--set", "sim.duration=20", *sets, "--out", "big-seed"]))
    rate_7 = ("sim.duration=20", "sim.tdoa_rate=7", "sim.noise.tdoa_sd=0", "sim.estimate_rotvec=[0.3,-0.2,1.0]")
    runs.append(("rate-7", ["sim", "--scenario", "figure8", "--seed", str(SEED), *sets,
                            *(arg for item in rate_7 for arg in ("--set", item)), "--out", "rate-7"]))
    runs.append(("trial", ["sim", "--scenario", "figure8", "--seed", str(SEED),
                           "--set", "sim.duration=60", *sets, "--out", "trial"]))
    dataset = {stream: f"trial/dataset/{stream}.csv" for stream in ("imu", "uwb", "gt")}
    dataset["anchors"] = "trial/dataset/anchors.json"

    def replay(out, *extra, **streams):
        items = [f"replay.{stream}={path}" for stream, path in {**dataset, **streams}.items()] + list(extra)
        return out, ["replay", "--seed", str(SEED), *(arg for item in items for arg in ("--set", item)), "--out", out]

    runs.append(replay("replay"))
    no_mag = json.dumps({c: f"absent_{c}" for c in ("mx", "my", "mz")})
    runs.append(replay("replay-no-mag", f"replay.column_map.imu={no_mag}"))
    runs.append(replay("replay-gap", imu=GAP_IMU))
    runs.append(replay("replay-broken", uwb=BROKEN_UWB))
    runs.append(replay("replay-messy", **MESSY))
    return runs


def cut_gap(imu: Path, out: Path) -> None:
    """Write ``imu`` to ``out`` without its rows of t in GAP, as csv.writer writes them."""
    with open(imu, newline="") as fh:
        rows = list(csv.reader(fh))
    kept = [rows[0]] + [row for row in rows[1:] if not GAP[0] <= float(row[0]) < GAP[1]]
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(kept)


def break_frames(uwb: Path, anchors: Path, out: Path) -> None:
    """Write ``uwb`` to ``out`` with its frames at ZEROED and OUT_OF_RANGE made
    unsolvable, as csv.writer writes them."""
    with open(anchors) as fh:
        pos = [a["pos"] for a in json.load(fh)["anchors"]]
    diameter = max(math.dist(a, b) for a in pos for b in pos)
    with open(uwb, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if float(row[0]) == ZEROED:
            row[1:] = ["0.0"] * (len(row) - 1)
        elif float(row[0]) == OUT_OF_RANGE:
            row[1] = repr(diameter + 1.5)
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def mess_up(path: Path, out: Path) -> None:
    """Write the CSV file ``path`` to ``out`` with LF line ends, a blank line
    before its row a quarter of the way in, the second cell of its middle row
    quoted and that of its row three quarters in replaced by "n/a"."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    n = len(rows)
    rows[n // 2][1] = f'"{rows[n // 2][1]}"'
    rows[3 * n // 4][1] = "n/a"
    lines = [",".join(row) for row in rows]
    lines.insert(n // 4, "")
    with open(out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_set(root: Path, out: Path, log=print) -> None:
    """Run every command of the set with ``root``'s package, writing under ``out``."""
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(CONFIG))
    anchors = [{"id": i, "pos": list(pos)} for i, pos in enumerate(TDOA_ANCHORS)]
    (out / TDOA_ANCHORS_FILE).write_text(json.dumps({"anchors": anchors}))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for name, args in commands():
        if name == "replay-gap":
            cut_gap(out / "trial/dataset/imu.csv", out / GAP_IMU)
        elif name == "replay-broken":
            break_frames(out / "trial/dataset/uwb.csv", out / "trial/dataset/anchors.json", out / BROKEN_UWB)
        elif name == "replay-messy":
            for stream, messy in MESSY.items():
                mess_up(out / f"trial/dataset/{stream}.csv", out / messy)
        log(f"{root}: uwbnav {' '.join(args)}")
        proc = subprocess.run([sys.executable, "-m", "uwbnav.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"uwbnav {args[0]} exited {proc.returncode} in {root}: {proc.stderr.strip()}")
        (out / f"{name}.stdout").write_text(proc.stdout)


def column_diffs(parent: Path, change: Path) -> list[str]:
    """An indented ``<column>: <largest absolute difference>`` line per column
    that differs between two CSV files of the same header and row count.

    An empty cell reads as NaN; NaN equals NaN and differs from a number by
    inf.  No lines when the shapes differ or a cell is not a number.
    """
    with open(parent, newline="") as fa, open(change, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if not a or len(a) != len(b) or a[0] != b[0] or any(len(row) != len(a[0]) for row in a + b):
        return []
    largest = [0.0] * len(a[0])
    try:
        for ra, rb in zip(a[1:], b[1:]):
            for j, (x, y) in enumerate(zip(ra, rb)):
                x, y = (float(cell) if cell else math.nan for cell in (x, y))
                if x != y and not (math.isnan(x) and math.isnan(y)):
                    diff = math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)
                    largest[j] = max(largest[j], diff)
    except ValueError:
        return []
    return [f"    {name}: {diff:.3g}" for name, diff in zip(a[0], largest) if diff]


def compare_trees(parent: Path, change: Path) -> tuple[list[str], int]:
    """A line per relative file path that differs or exists on one side only, sorted,
    each differing CSV file followed by its ``column_diffs``, and the number of
    paths compared."""
    files = {}
    for side, top in (("parent", parent), ("change", change)):
        for path in top.rglob("*"):
            if path.is_file():
                files.setdefault(path.relative_to(top).as_posix(), set()).add(side)
    lines = []
    for rel in sorted(files):
        sides = files[rel]
        if len(sides) == 1:
            lines.append(f"only in {sides.pop()}: {rel}")
        elif not filecmp.cmp(parent / rel, change / rel, shallow=False):
            lines.append(f"differs: {rel}")
            if rel.endswith(".csv"):
                lines += column_diffs(parent / rel, change / rel)
    return lines, len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    args = parser.parse_args(argv)
    parent_sha, change_sha = git("rev-parse", args.parent), change_ref()
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        run_set(checkout(parent_sha, tmp / "parent"), tmp / "out-parent")
        run_set(checkout(change_sha, tmp / "change"), tmp / "out-change")
        lines, compared = compare_trees(tmp / "out-parent", tmp / "out-change")
    for line in lines:
        print(line)
    differing = sum(not line.startswith(" ") for line in lines)
    print(f"{differing} of {compared} files differ from {parent_sha[:12]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
