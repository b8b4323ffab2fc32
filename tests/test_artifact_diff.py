"""The comparison and the run list of tools/artifact_diff.py, on temporary directories.

The tool is loaded from its file; no CLI run or git command happens here.
"""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"


@pytest.fixture(scope="module")
def ad():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, files: dict):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_identical_trees_have_no_differences(ad, tmp_path):
    files = {"a/metrics.csv": b"t,x\n0.0,1.5\n", "a/summary.json": b"{}\n", "run.stdout": b"ok\n"}
    write(tmp_path / "parent", files)
    write(tmp_path / "change", files)
    assert ad.compare_trees(tmp_path / "parent", tmp_path / "change") == ([], 3)


def test_every_differing_or_one_sided_file_is_reported(ad, tmp_path):
    write(tmp_path / "parent", {"same.csv": b"1\n", "last_bit.csv": b"0.30000000000000004\n", "gone.json": b"{}"})
    write(tmp_path / "change", {"same.csv": b"1\n", "last_bit.csv": b"0.30000000000000009\n", "seed/new.csv": b""})
    lines, compared = ad.compare_trees(tmp_path / "parent", tmp_path / "change")
    assert lines == ["only in parent: gone.json", "differs: last_bit.csv", "only in change: seed/new.csv"]
    assert compared == 4


def test_a_differing_csv_file_names_the_largest_difference_of_each_column(ad, tmp_path):
    write(tmp_path / "parent", {
        "replay/metrics.csv": b"t,att_err,pos_err\n0.0,0.1,\n0.01,0.2,1.5\n",
        "gap.csv": b"x,y\n,1.0\n",
        "rows.csv": b"x\n1.0\n",
        "run.stdout": b"ok\n",
    })
    write(tmp_path / "change", {
        # NaN (an empty cell) against NaN is equal, and t does not move.
        "replay/metrics.csv": b"t,att_err,pos_err\n0.0,0.10000000000000002,\n0.01,0.2,1.5000000000000004\n",
        "gap.csv": b"x,y\n2.0,1.0\n",
        "rows.csv": b"x\n1.0\n2.0\n",
        "run.stdout": b"ok.\n",
    })
    lines, compared = ad.compare_trees(tmp_path / "parent", tmp_path / "change")
    assert lines == [
        "differs: gap.csv",
        "    x: inf",
        "differs: replay/metrics.csv",
        "    att_err: 1.39e-17",
        "    pos_err: 4.44e-16",
        "differs: rows.csv",
        "differs: run.stdout",
    ]
    assert compared == 4


def test_the_set_runs_every_scenario_both_ways_and_replays_its_export(ad):
    runs = ad.commands()
    names = [name for name, _ in runs]
    assert len(set(names)) == len(names) == 16
    # Three tdoa-solve runs open the set, one frame each against the same
    # anchor file; only the all-zero frame may fall back to the reduced solve.
    solves = {name: args for name, args in runs if args[0] == "tdoa-solve"}
    assert list(solves) == names[:3] == list(ad.TDOA_FRAMES)
    for name, args in solves.items():
        assert args[args.index("--anchors") + 1] == ad.TDOA_ANCHORS_FILE
        assert f"--d={ad.TDOA_FRAMES[name]}" in args
        assert ("--allow-reduced" in args) == (name == "tdoa-reduced")
    assert len(ad.TDOA_ANCHORS) == len(ad.TDOA_FRAMES["tdoa-full-rank"].split(",")) == 5
    sims = [args for _, args in runs if args[0] == "sim" and "--runs" in args]
    assert [a[a.index("--scenario") + 1] for a in sims] == ["static", "yaw_circle", "figure8"]
    assert not any("--jobs" in a for _, a in runs)
    for args in sims:
        assert args[args.index("--runs") + 1] == "6" and "sim.duration=20" in args
    # One run reads the truth rotation through a lever arm, at a rate and
    # gravity of its own.
    lever = [args for _, args in runs if any(a.startswith("sim.tag_offset=") for a in args)]
    assert len(lever) == 1
    assert {"sim.imu_rate=250", "ref.gravity=[0,0,-9.81]", "sim.tag_offset=[-0.012,0.001,0.091]"} <= set(lever[0])
    # One run takes its scenario, noise and biases from the config file, with one leaf set on top.
    configured = [args for _, args in runs if "--config" in args]
    assert len(configured) == 1 and configured[0].count("--set") == 1
    assert configured[0][configured[0].index("--config") + 1] == "config.json"
    assert set(ad.CONFIG["sim"]) >= {"scenario", "noise", "b_omega", "b_a"}
    # One seed of five entropy words: two for the seed, two for a time past 2**32 ns.
    big = [args for _, args in runs if args[0] == "sim" and int(args[args.index("--seed") + 1]) >= 2**32]
    assert len(big) == 1 and "sim.noise.gyro_sd=0.005" in big[0]
    # One run takes noiseless frames at a rate that does not divide the IMU's, from a turned start.
    rate_7 = [args for _, args in runs if "sim.tdoa_rate=7" in args]
    assert len(rate_7) == 1 and {"sim.noise.tdoa_sd=0", "sim.estimate_rotvec=[0.3,-0.2,1.0]"} <= set(rate_7[0])
    assert rate_7[0].index("sim.noise.tdoa_sd=0") > rate_7[0].index("sim.noise.tdoa_sd=0.05")
    # The 60 s trial is exported, then replayed as written, with its
    # magnetometer columns mapped away, so that replay synthesises one, with
    # a gap cut into its IMU rows, with two of its frames broken, and from
    # its three files messed up.
    assert "sim.duration=60" in runs[-6][1] and "sim.export_dataset=true" in runs[-6][1]
    for _, replay in runs[-5:]:
        assert replay[0] == "replay"
    for _, replay in runs[-5:-2]:
        assert "replay.uwb=trial/dataset/uwb.csv" in replay
    for _, replay in runs[-5:-3] + runs[-2:-1]:
        assert "replay.imu=trial/dataset/imu.csv" in replay
    assert not any("column_map" in a for a in runs[-5][1])
    mapped = [a for a in runs[-4][1] if a.startswith("replay.column_map.imu=")]
    assert len(mapped) == 1 and "absent_mx" in mapped[0]
    assert runs[-3][0] == "replay-gap" and f"replay.imu={ad.GAP_IMU}" in runs[-3][1]
    assert runs[-2][0] == "replay-broken" and f"replay.uwb={ad.BROKEN_UWB}" in runs[-2][1]
    assert runs[-1][0] == "replay-messy"
    assert {f"replay.{stream}={messy}" for stream, messy in ad.MESSY.items()} <= set(runs[-1][1])


def test_the_gap_cuts_the_imu_rows_inside_it_and_keeps_the_rest(ad, tmp_path):
    imu = tmp_path / "imu.csv"
    times = [f"{k / 100!r}" for k in range(490, 530)]
    imu.write_bytes(b"t,gx\r\n" + b"".join(f"{t},0.5\r\n".encode() for t in times))
    ad.cut_gap(imu, tmp_path / "gap.csv")
    kept = (tmp_path / "gap.csv").read_bytes().split(b"\r\n")[1:-1]
    assert [row.split(b",")[0].decode() for row in kept] == [t for t in times if not 5.0 <= float(t) < 5.195]
    assert len(times) - len(kept) == 20 and kept[0] == b"4.9,0.5"


def test_the_broken_frames_are_a_rank_3_one_and_an_out_of_range_one(ad, tmp_path):
    # The two rows that stop solving, and only those, change; the rest keep their bytes.
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({"anchors": [{"id": i, "pos": p} for i, p in enumerate(
        ([0, 0, 0], [4, 0, 0], [0, 3, 0], [0, 0, 2]))]}))
    uwb = tmp_path / "uwb.csv"
    times = [f"{k / 10!r}" for k in range(95, 305)]
    uwb.write_bytes(b"t,d1,d2,d3,d4\r\n" + b"".join(f"{t},0.25,-0.5,1e-3,0.125\r\n".encode() for t in times))
    ad.break_frames(uwb, anchors, tmp_path / "broken.csv")
    before = uwb.read_bytes().split(b"\r\n")
    after = (tmp_path / "broken.csv").read_bytes().split(b"\r\n")
    changed = {a.split(b",")[0].decode(): a for a, b in zip(after, before) if a != b}
    assert len(after) == len(before) and set(changed) == {"10.0", "30.0"}
    assert changed["10.0"] == b"10.0,0.0,0.0,0.0,0.0"
    assert changed["30.0"] == b"30.0,6.5,-0.5,1e-3,0.125"  # diameter 5 + slack 1 + 0.5


def test_the_messy_files_hold_lf_line_ends_a_blank_line_a_quoted_cell_and_one_that_is_no_number(ad, tmp_path):
    # Every other row keeps its cells; a csv read of the file gives them back.
    path = tmp_path / "gt.csv"
    rows = [["t", "qw", "px"]] + [[f"{k / 100!r}", "1.0", f"{k / 8!r}"] for k in range(11)]
    path.write_bytes(b"".join(",".join(row).encode() + b"\r\n" for row in rows))
    ad.mess_up(path, tmp_path / "messy.csv")
    text = (tmp_path / "messy.csv").read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    lines = text.decode().split("\n")[:-1]
    assert len(lines) == len(rows) + 1 and lines[3] == ""
    assert lines[7] == '0.05,"1.0",0.625' and lines[10] == "0.08,n/a,1.0"
    with open(tmp_path / "messy.csv", newline="") as fh:
        read = list(csv.reader(fh))
    rows[9][1] = "n/a"
    assert read == rows[:3] + [[]] + rows[3:]


def test_both_sides_run_from_snapshots_as_bench_pairs_makes_them(ad, tmp_path, monkeypatch):
    # The parent's commit and the change's `git stash create` commit (or
    # HEAD), each exported to a temporary directory: nothing runs in the repository.
    exported, roots = [], []

    def checkout(ref, dest):
        exported.append(ref)
        dest.mkdir(parents=True)
        return dest

    def run_set(root, out, log=print):
        roots.append(root)
        out.mkdir(parents=True)

    monkeypatch.setattr(ad, "git", lambda *args: f"sha-{args[-1]}")
    monkeypatch.setattr(ad, "change_ref", lambda: "5ta5h")
    monkeypatch.setattr(ad, "checkout", checkout)
    monkeypatch.setattr(ad, "run_set", run_set)
    assert ad.main(["--parent", "p"]) == 0
    assert exported == ["sha-p", "5ta5h"]
    root = Path(__file__).resolve().parents[1]
    assert len(set(roots)) == 2 and all(r != root and root not in r.parents for r in roots)
