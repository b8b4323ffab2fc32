"""Tests for dataset loading, benchmark derivation, replay, and artifact writing."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as SpRotation, Slerp

from helpers import frozen_fmt

import uwbnav.replay
from uwbnav.liegroup import so3_exp
from uwbnav.observer import Gains, ObserverState, step
from uwbnav.replay import (
    ConfigError,
    DataError,
    atomic_writer,
    derive_velocity,
    export_dataset,
    load_dataset,
    rotation_to_quat,
    run_replay,
    write_metrics_csv,
    write_summary_json,
)
from uwbnav.sensors import ReferenceVectors
from uwbnav.sim import RunResult, SensorNoise, SimResult, default_anchors, preset_scenario, run_scenario
from uwbnav.tdoa import load_anchors, synthesize_tdoa

MAG_REF = np.array([-1.7, 0.0, 1.2])
HOVER_POS = np.array([1.0, 2.0, 1.5])

IMU_HEADER = ["t", "gx", "gy", "gz", "ax", "ay", "az", "mx", "my", "mz"]
GT_HEADER = ["t", "qw", "qx", "qy", "qz", "px", "py", "pz"]
UWB_HEADER = ["t"] + [f"d{i + 1}" for i in range(8)]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def hover_imu_row(t):
    """A stationary, level body: zero rates, accel cancelling gravity."""
    return [repr(float(t)), "0.0", "0.0", "0.0", "0.0", "0.0", "9.8"] + [
        repr(float(x)) for x in MAG_REF
    ]


def gt_row(t, pos=HOVER_POS):
    return [repr(float(t)), "1.0", "0.0", "0.0", "0.0"] + [repr(float(x)) for x in pos]


def hover_dataset(tmp_path, imu_times, gt_times=None, uwb_times=()):
    """Write a minimal stationary dataset and return its paths dict."""
    d = synthesize_tdoa(HOVER_POS, None, default_anchors()).d
    write_csv(tmp_path / "imu.csv", IMU_HEADER, [hover_imu_row(t) for t in imu_times])
    write_csv(
        tmp_path / "gt.csv",
        GT_HEADER,
        [gt_row(t) for t in (imu_times if gt_times is None else gt_times)],
    )
    write_csv(
        tmp_path / "uwb.csv",
        UWB_HEADER,
        [[repr(float(t))] + [repr(float(x)) for x in d] for t in uwb_times],
    )
    return {"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv", "gt": tmp_path / "gt.csv"}


# --- load_dataset ------------------------------------------------------------------


def test_load_dataset_keeps_each_stream_sorted_by_time(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01, 0.02), uwb_times=(0.005,))
    ds = load_dataset(paths)
    assert ds.imu.shape == (3, 10)
    assert ds.tdoa.shape == (1, 9)
    assert ds.gt.shape == (3, 8)
    for stream in (ds.imu, ds.tdoa, ds.gt):
        assert stream.dtype == np.float64
        times = stream[:, 0].tolist()
        assert times == sorted(times)
    np.testing.assert_array_equal(ds.gt[0], [0.0, 1.0, 0.0, 0.0, 0.0, *HOVER_POS])
    assert ds.has_mag is True
    assert ds.n_uwb_values == 8


def test_load_dataset_with_no_usable_rows_raises(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(), gt_times=())
    with pytest.raises(DataError, match="no usable rows"):
        load_dataset(paths)


def test_load_dataset_sorts_out_of_order_rows_and_counts_them(tmp_path):
    write_csv(
        tmp_path / "imu.csv", IMU_HEADER, [hover_imu_row(t) for t in (0.0, 0.02, 0.01)]
    )
    write_csv(tmp_path / "gt.csv", GT_HEADER, [gt_row(t) for t in (0.0, 0.01, 0.02)])
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    ds = load_dataset(
        {"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv", "gt": tmp_path / "gt.csv"}
    )
    assert ds.imu[:, 0].tolist() == [0.0, 0.01, 0.02]
    assert ds.report.reordered["imu"] == 1
    assert ds.report.reordered["gt"] == 0


def test_load_dataset_skips_malformed_rows_and_reports_locations(tmp_path):
    rows = [
        hover_imu_row(0.0),
        ["oops"] + hover_imu_row(0.01)[1:],  # non-numeric timestamp
        hover_imu_row(0.02)[:4],  # short row
        [x if i != 4 else "inf" for i, x in enumerate(hover_imu_row(0.03))],  # non-finite
        hover_imu_row(0.04),
    ]
    write_csv(tmp_path / "imu.csv", IMU_HEADER, rows)
    write_csv(tmp_path / "gt.csv", GT_HEADER, [gt_row(t) for t in (0.0, 0.02, 0.04)])
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    ds = load_dataset(
        {"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv", "gt": tmp_path / "gt.csv"}
    )
    assert ds.report.rows_read["imu"] == 5
    assert ds.report.rows_skipped["imu"] == 3
    assert len(ds.imu) == 2
    messages = ds.report.skipped_rows
    assert any(m.startswith("imu.csv row 3") for m in messages)
    assert any(m.startswith("imu.csv row 4") for m in messages)
    assert any(m.startswith("imu.csv row 5") for m in messages)
    assert "3 skipped" in ds.report.describe()


def test_load_dataset_missing_column_names_it(tmp_path):
    header = [c for c in IMU_HEADER if c != "gz"]
    write_csv(tmp_path / "imu.csv", header, [])
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    with pytest.raises(ConfigError, match="gz"):
        load_dataset({"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv"})


def test_load_dataset_empty_file_raises(tmp_path):
    (tmp_path / "imu.csv").write_text("")
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    with pytest.raises(DataError, match="empty"):
        load_dataset({"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv"})


def test_load_dataset_missing_file_raises(tmp_path):
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    with pytest.raises(ConfigError, match="not found"):
        load_dataset({"imu": tmp_path / "nope.csv", "uwb": tmp_path / "uwb.csv"})


def test_load_dataset_requires_imu_and_uwb_paths(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    with pytest.raises(ConfigError, match="'imu' and 'uwb'"):
        load_dataset({"imu": paths["imu"]})


def test_column_map_rejects_unknown_stream_and_key(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    with pytest.raises(ConfigError, match="unknown stream 'lidar'"):
        load_dataset(paths, column_map={"lidar": {}})
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        load_dataset(paths, column_map={"imu": {"bogus": "x"}})
    with pytest.raises(ConfigError, match=r"column_map\['imu'\] must be an object, got 3"):
        load_dataset(paths, column_map={"imu": 3})
    with pytest.raises(ConfigError, match="column_map must be an object"):
        load_dataset(paths, column_map=["imu"])


def test_column_map_renames_columns(tmp_path):
    header = ["time", "wx", "wy", "wz", "fx", "fy", "fz"]
    write_csv(tmp_path / "imu.csv", header, [["0.5", "1", "2", "3", "4", "5", "6"]])
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    cmap = {
        "imu": {"t": "time", "gx": "wx", "gy": "wy", "gz": "wz", "ax": "fx", "ay": "fy", "az": "fz"}
    }
    ds = load_dataset({"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv"}, column_map=cmap)
    assert ds.has_mag is False
    # t, gyro, accel and no magnetometer columns
    np.testing.assert_array_equal(ds.imu, [[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])


def test_uwb_value_columns_can_be_selected_explicitly(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    header = ["t", "quality", "d1", "d2", "d3", "d4"]
    write_csv(tmp_path / "uwb.csv", header, [["0.0", "99", "0.1", "0.2", "0.3", "-0.6"]])
    cmap = {"uwb": {"values": ["d1", "d2", "d3", "d4"]}}
    ds = load_dataset(paths, column_map=cmap)
    assert ds.n_uwb_values == 4
    np.testing.assert_array_equal(ds.tdoa[0, 1:], [0.1, 0.2, 0.3, -0.6])


def test_uwb_range_mode_matches_native_differences(tmp_path):
    anchors = default_anchors()
    ranges = np.linalg.norm(HOVER_POS - anchors.positions, axis=1)
    expected = synthesize_tdoa(HOVER_POS, None, anchors).d

    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    header = ["t"] + [f"r{i + 1}" for i in range(8)]
    write_csv(
        tmp_path / "uwb.csv", header, [["0.0"] + [repr(float(r)) for r in ranges]]
    )
    ds = load_dataset(paths, column_map={"uwb": {"mode": "range"}})
    np.testing.assert_array_equal(ds.tdoa[0, 1:], expected)


def test_uwb_range_row_whose_differences_overflow_is_skipped_and_reported(tmp_path):
    # Every range is finite, but 1e308 - (-1e308) is not: the row is skipped,
    # not raised, and the next row is kept.
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    header = ["t"] + [f"r{i + 1}" for i in range(4)]
    rows = [["0.0", "1.0", "1e308", "-1e308", "2.0"], ["0.1", "1.0", "2.0", "4.0", "8.0"]]
    write_csv(tmp_path / "uwb.csv", header, rows)
    ds = load_dataset(paths, column_map={"uwb": {"mode": "range"}})
    assert ds.report.rows_read["uwb"] == 2
    assert ds.report.rows_skipped["uwb"] == 1
    assert ds.report.skipped_rows == ["uwb.csv row 2: range differences must be finite"]
    np.testing.assert_array_equal(ds.tdoa, [[0.1, 1.0, 2.0, 4.0, -7.0]])


def test_uwb_mode_must_be_diff_or_range(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    with pytest.raises(ConfigError, match="'diff' or 'range'"):
        load_dataset(paths, column_map={"uwb": {"mode": "absolute"}})


def test_incomplete_magnetometer_columns_raise(tmp_path):
    header = IMU_HEADER[:-1]  # mx, my present but mz missing
    write_csv(tmp_path / "imu.csv", header, [])
    write_csv(tmp_path / "uwb.csv", UWB_HEADER, [])
    with pytest.raises(ConfigError, match="magnetometer"):
        load_dataset({"imu": tmp_path / "imu.csv", "uwb": tmp_path / "uwb.csv"})


def test_uwb_file_with_no_value_columns_raises(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    write_csv(tmp_path / "uwb.csv", ["t"], [])
    with pytest.raises(ConfigError, match="no UWB value columns"):
        load_dataset(paths)


def test_load_dataset_skips_ground_truth_rows_off_unit_norm_or_malformed(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    pos = [repr(float(x)) for x in HOVER_POS]
    rows = [
        gt_row(0.0),
        ["0.01", repr(1.0 + 2e-6), "0.0", "0.0", "0.0", *pos],  # norm off by 2e-6
        ["0.02", repr(1.0 + 5e-7), "0.0", "0.0", "0.0", *pos],  # within 1e-6: kept
        ["0.03", "1.0", "0.0", "0.0", "nan", *pos],  # non-finite quaternion
        ["0.04", "1.0", "0.0", "0.0", "0.0", *pos[:2], "nan"],  # non-finite position
        ["0.05", "1.0", "0.0", "0.0", *pos],  # short row: one quaternion part missing
        gt_row(0.06)[:7],  # short row: pz missing
        gt_row(0.07),
    ]
    write_csv(tmp_path / "gt.csv", GT_HEADER, rows)
    ds = load_dataset(paths)
    assert ds.report.rows_read["gt"] == 8
    assert ds.report.rows_skipped["gt"] == 5
    assert ds.gt[:, 0].tolist() == [0.0, 0.02, 0.07]
    assert ds.gt[1, 1] == 1.0 + 5e-7
    messages = [m for m in ds.report.skipped_rows if m.startswith("gt.csv")]
    assert messages == [
        "gt.csv row 3: quaternion norm 1.00000200 is not 1 +/- 1e-06",
        "gt.csv row 5: non-finite value",
        "gt.csv row 6: non-finite value",
        "gt.csv row 7: list index out of range",
        "gt.csv row 8: list index out of range",
    ]


def test_a_short_row_is_reported_at_its_first_failing_column_in_column_map_order(tmp_path):
    # The file's columns run px, py, pz, t, qw, qx, qy, qz; the map reads t,
    # qw, qx, qy, qz, px, py, pz.  A short row whose earlier column (in map
    # order) does not convert is reported with float()'s message.
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    header = ["px", "py", "pz", "t", "qw", "qx", "qy", "qz"]
    rows = [
        ["1.0", "2.0", "3.0", "0.0", "1.0", "0.0", "0.0", "0.0"],
        ["bad", "2.0", "3.0", "0.01", "1.0", "0.0", "0.0"],  # qz missing before px is read
        ["1.0", "2.0", "3.0", "x", "1.0", "0.0"],  # t fails before qy is missing
        ["bad", "2.0", "3.0", "0.03", "worse", "0.0", "0.0", "0.0"],  # qw fails before px
        ["1.0", "2.0", "3.0", "0.04", "1.0", "0.0", "0.0", "nope", "extra"],
        ["1.0", "2.0", "3.0", "0.05", "1.0", "0.0", "0.0", "0.0"],
    ]
    write_csv(tmp_path / "gt.csv", header, rows)
    ds = load_dataset(paths)
    assert ds.report.rows_read["gt"] == 6
    assert ds.report.rows_skipped["gt"] == 4
    assert ds.gt[:, 0].tolist() == [0.0, 0.05]
    assert [m for m in ds.report.skipped_rows if m.startswith("gt.csv")] == [
        "gt.csv row 3: list index out of range",
        "gt.csv row 4: could not convert string to float: 'x'",
        "gt.csv row 5: could not convert string to float: 'worse'",
        "gt.csv row 6: could not convert string to float: 'nope'",
    ]


def row_by_row_stream(path, names, check=None):
    """The rows of one CSV stream, read as ``load_dataset`` read them before it
    converted whole tables: ``float()`` per cell, each row checked alone, then
    sorted by time.  Returns (table, rows read, skipped, messages)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = list(reader)
    indices = [header.index(name) for name in names]
    table, messages = [], []
    for row_no, row in enumerate(rows, start=2):
        try:
            values = [float(row[i]) for i in indices]
            if not all(map(np.isfinite, values)):
                raise ValueError("non-finite value")
            table.append(values if check is None else check(values))
        except (ValueError, IndexError) as exc:
            messages.append(f"{path.name} row {row_no}: {exc}")
    table = np.array(table, dtype=float).reshape(len(table), len(indices))
    return table[np.argsort(table[:, 0], kind="stable")], len(rows), len(rows) - len(table), messages


def row_unit_quaternion(v):
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and off
        norm = np.linalg.norm(v[1:5])
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {norm:.8f} is not 1 +/- 1e-06")
    return v


def row_range_differences(v):
    r = v[1:]
    d = [b - a for a, b in zip(r, r[1:] + r[:1])]
    if not all(map(np.isfinite, d)):
        raise ValueError("range differences must be finite")
    return v[:1] + d


def test_every_float_spelling_loads_as_the_row_by_row_read_gives_it(tmp_path):
    # float() takes underscores, any Unicode digits, surrounding whitespace,
    # "infinity" and overflowing exponents, and keeps -0's sign; it refuses
    # hex.  The tables, counts and messages are those of a float() per cell.
    spellings = ["1_0", "١٢", " 1.5 ", "-0", "infinity", "1e400", "0x10", "-0.0", "\t2e-3\n", "1e-400"]
    rng = np.random.default_rng(24)

    def cells(k, width, base):
        row = [repr(base + 0.01 * k)] + [repr(float(x)) for x in rng.normal(size=width - 1)]
        row[1 + k % (width - 1)] = spellings[k % len(spellings)]
        return row

    write_csv(tmp_path / "imu.csv", IMU_HEADER, [cells(k, 10, 0.0) for k in range(40)])
    write_csv(tmp_path / "uwb.csv", ["t", "r1", "r2", "r3", "r4"], [cells(k, 5, 0.0) for k in range(40)])
    gt = [["٠.0" if k == 3 else repr(0.01 * k), "1.0", "0.0", "-0", "0.0", *cells(k, 4, 0.0)[1:]] for k in range(30)]
    gt += [[repr(0.01 * k), s, "0.0", "0.0", "0.0", "1.0", "2.0", "3.0"] for k, s in enumerate(spellings, start=30)]
    gt.append(["0.5", "1e200", "1e200", "0.0", "0.0", "1.0", "2.0", "3.0"])  # its norm overflows
    gt.append(["0.6", "0.6", "0.8", "0.0", " -0 ", "1", "2", "3"])
    write_csv(tmp_path / "gt.csv", GT_HEADER, gt)
    paths = {k: tmp_path / f"{k}.csv" for k in ("imu", "uwb", "gt")}
    ds = load_dataset(paths, column_map={"uwb": {"mode": "range"}})

    want = {
        "imu": row_by_row_stream(paths["imu"], IMU_HEADER),
        "uwb": row_by_row_stream(paths["uwb"], ["t", "r1", "r2", "r3", "r4"], row_range_differences),
        "gt": row_by_row_stream(paths["gt"], GT_HEADER, row_unit_quaternion),
    }
    messages = []
    for stream, got in (("imu", ds.imu), ("uwb", ds.tdoa), ("gt", ds.gt)):
        table, read, skipped, stream_messages = want[stream]
        assert got.shape == table.shape and got.tobytes() == table.tobytes(), stream
        assert (ds.report.rows_read[stream], ds.report.rows_skipped[stream]) == (read, skipped), stream
        assert 0 < skipped < read, stream
        messages += stream_messages
    assert ds.report.skipped_rows == messages
    assert "gt.csv row 38: could not convert string to float: '0x10'" in messages
    assert (ds.gt[:, 3] == 0.0).all() and np.signbit(ds.gt[:, 3]).any()


def csv_rows_built(monkeypatch):
    """The list of every row replay's csv readers yield from here on."""
    built = []

    def reader(lines):
        for row in csv.reader(lines):
            built.append(row)
            yield row

    monkeypatch.setattr(uwbnav.replay, "csv", SimpleNamespace(reader=reader))
    return built


def messy_csv(path, header, rows, case):
    """Write ``header`` and ``rows`` to ``path`` with the irregularity ``case``."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    middle = len(lines) // 2
    if case == "blank line in the middle":
        lines.insert(middle, "")
    elif case == "blank line at the end":
        lines.append("")
    elif case == "whitespace-only line":
        lines.insert(middle, " \t ")
    elif case == "quoted numeric cells":
        lines[middle] = ",".join(f'"{cell}"' for cell in lines[middle].split(","))
    elif case == "extra trailing columns":
        lines[1:] = [line + ",7.5,note" for line in lines[1:]]
    end = {"LF line ends": "\n", "CR line ends": "\r"}.get(case, "\r\n")
    text = end.join(lines) + ("" if case == "last line without a newline" else end)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# The layouts numpy's text reader parses; csv reads the rows of the others.
BY_NUMPY = ("LF line ends", "last line without a newline", "extra trailing columns", "a file column named twice")
BLANK = ("blank line in the middle", "blank line at the end", "whitespace-only line")


@pytest.mark.parametrize("case", BY_NUMPY + BLANK + ("CR line ends", "quoted numeric cells"))
def test_each_file_layout_loads_as_the_row_by_row_read_gives_it(tmp_path, monkeypatch, case):
    # Whichever reader parses a file, the tables, counts and messages are those of a float() per cell.
    rng = np.random.default_rng(27)
    q = rng.normal(size=(30, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    names = {"imu": IMU_HEADER, "uwb": ["t", "r1", "r2", "r3", "r4"], "gt": GT_HEADER}
    cells = {
        "imu": lambda k: [0.01 * k, *rng.normal(size=9).tolist()],
        "uwb": lambda k: [0.1 * k, *rng.uniform(1.0, 9.0, 4).tolist()],
        "gt": lambda k: [0.01 * k, *q[k].tolist(), *rng.normal(size=3).tolist()],
    }
    paths = {stream: tmp_path / f"{stream}.csv" for stream in names}
    for stream, header in names.items():
        messy_csv(paths[stream], header, [list(map(repr, cells[stream](k))) for k in range(30)], case)
    column_map = {"uwb": {"mode": "range"}}
    if case == "a file column named twice":
        column_map |= {"imu": {"gy": "gx"}, "gt": {"pz": "px"}}
        names |= {"imu": [n if n != "gy" else "gx" for n in IMU_HEADER], "gt": GT_HEADER[:-1] + ["px"]}
    built = csv_rows_built(monkeypatch)
    ds = load_dataset(paths, column_map=column_map)

    assert (built == [IMU_HEADER, names["uwb"], GT_HEADER]) == (case in BY_NUMPY)
    messages = []
    checks = {"imu": None, "uwb": row_range_differences, "gt": row_unit_quaternion}
    for stream, got in (("imu", ds.imu), ("uwb", ds.tdoa), ("gt", ds.gt)):
        table, read, skipped, stream_messages = row_by_row_stream(paths[stream], names[stream], checks[stream])
        assert got.shape == table.shape and got.tobytes() == table.tobytes(), stream
        assert (ds.report.rows_read[stream], ds.report.rows_skipped[stream]) == (read, skipped), stream
        messages += stream_messages
    assert ds.report.skipped_rows == messages
    assert ds.report.rows_read == dict.fromkeys(names, 31 if case in BLANK else 30)
    assert ds.report.rows_skipped == dict.fromkeys(names, 1 if case in BLANK else 0)
    if case == "a file column named twice":
        assert (ds.imu[:, 1] == ds.imu[:, 2]).all() and (ds.gt[:, 5] == ds.gt[:, 7]).all()


def test_a_quoted_comma_is_read_as_csv_reads_it(tmp_path):
    # Split at its commas, the row's columns 0 and 2 would read 0.1 and 0.7.
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    paths["uwb"].write_text('t,note,d1\r\n0.1,"a,0.7,b",0.3\r\n', newline="")
    ds = load_dataset(paths, column_map={"uwb": {"values": ["d1"]}})
    assert ds.tdoa.tolist() == [[0.1, 0.3]]


def test_a_header_only_file_loads_as_an_empty_table_without_a_warning(tmp_path):
    # numpy's text reader warns on a body without rows; such a body never reaches it.
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01), uwb_times=(0.005,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for body in ("", "\r\n", "\n\n"):
            paths["uwb"].write_text(",".join(UWB_HEADER) + "\r\n" + body, newline="")
            ds = load_dataset(paths)
            assert ds.tdoa.shape == (0, 9)
            blank_lines = body.count("\n")  # each is a row csv reports, and skipped
            assert (ds.report.rows_read["uwb"], ds.report.rows_skipped["uwb"]) == (blank_lines, blank_lines)


def test_a_clean_export_builds_no_csv_rows_past_its_headers(tmp_path, monkeypatch):
    # numpy's text reader parses every body of an exported run; csv reads only the headers.
    noise = SensorNoise(0.005, 0.02, 0.2, 0.05)
    result = run_scenario(preset_scenario("figure8", seed=3, duration=2.0, noise=noise), Gains())
    paths = export_dataset(result, tmp_path)
    built = csv_rows_built(monkeypatch)
    ds = load_dataset(paths)
    assert built == [IMU_HEADER, UWB_HEADER, GT_HEADER]
    assert ds.imu.tobytes() == result.imu.tobytes() and ds.tdoa.tobytes() == result.tdoa.tobytes()
    assert ds.report.rows_read == {"imu": len(result.imu), "uwb": len(result.tdoa), "gt": len(result.t)}


# --- quaternion conversions -----------------------------------------------------------


def from_quat(q):
    """The rotation of a (w, x, y, z) quaternion, read as the replay reader reads gt.csv."""
    return SpRotation.from_quat(q[[1, 2, 3, 0]]).as_matrix()


def test_rotation_to_quat_round_trips_with_nonnegative_scalar():
    rng = np.random.default_rng(31)
    for _ in range(100):
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * rng.uniform(0.0, np.pi - 1e-9)
        R = so3_exp(w)
        q = rotation_to_quat(R)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        np.testing.assert_allclose(from_quat(q), R, atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_rotation_to_quat_handles_half_turns(axis):
    # Half turns have trace -1, exercising the non-trace extraction branches.
    w = np.zeros(3)
    w[axis] = np.pi
    R = so3_exp(w)
    q = rotation_to_quat(R)
    assert q[0] >= 0.0
    np.testing.assert_allclose(from_quat(q), R, atol=1e-12)


# --- truth attitude interpolation ---------------------------------------------------


@pytest.fixture(scope="module")
def figure8_gt(tmp_path_factory):
    """The (t, qw, qx, qy, qz) columns of an exported 20 s figure8 trial's gt.csv."""
    sim = run_scenario(preset_scenario("figure8", duration=20.0), Gains())
    gt = load_dataset(export_dataset(sim, tmp_path_factory.mktemp("figure8"))).gt
    return gt[:, 0], gt[:, 1:5]


def scipy_slerp(t_gt, q, t):
    """The reference: scipy's Slerp of the (w, x, y, z) rows ``q``, as matrices."""
    return Slerp(t_gt, SpRotation.from_quat(q[:, [1, 2, 3, 0]]))(t).as_matrix()


@pytest.mark.parametrize(
    "case",
    [
        "as exported",
        # every other quaternion negated: the same rotations, reached on the short arc
        "sign flipped",
        # off unit norm by the loader's tolerance: scipy normalises them
        "off unit norm",
    ],
)
def test_slerp_matrices_match_scipy_slerp(figure8_gt, case):
    t_gt, q = figure8_gt
    if case == "sign flipped":
        q = q * np.where(np.arange(len(q)) % 2, -1.0, 1.0)[:, None]
    elif case == "off unit norm":
        q = q * np.where(np.arange(len(q)) % 2, 1.0 + 1e-6, 1.0 - 1e-6)[:, None]
    t = np.sort(np.random.default_rng(12).uniform(t_gt[0], t_gt[-1], 5000))
    t = np.concatenate([t_gt, t])  # on the grid and off it
    rot = uwbnav.replay._slerp_matrices(t_gt, q, t)
    np.testing.assert_allclose(rot, scipy_slerp(t_gt, q, t), rtol=0.0, atol=1e-15)


def test_slerp_matrices_of_a_static_hover_are_the_identity_exactly():
    # A zero arc (theta = 0) takes no branch and returns I bit for bit, which
    # keeps the replay of a static trial bit-identical to its simulation.
    t_gt = np.arange(201) * 0.01
    q = np.tile([1.0, 0.0, 0.0, 0.0], (len(t_gt), 1))
    t = np.concatenate([t_gt, np.random.default_rng(13).uniform(0.0, 2.0, 1000)])
    rot = uwbnav.replay._slerp_matrices(t_gt, q, t)
    assert (rot == np.eye(3)).all()


# --- derive_velocity ------------------------------------------------------------------


def test_derive_velocity_exact_on_uniform_quadratic_including_edges():
    t = np.arange(0.0, 0.41, 0.01)
    a = np.array([0.3, -0.2, 1.0])
    b = np.array([0.5, 1.5, -0.3])
    c = np.array([-0.2, 0.1, 0.4])
    pos = a + np.outer(t, b) + np.outer(t**2, c)
    vel = derive_velocity(t, pos)
    np.testing.assert_allclose(vel, b + 2.0 * np.outer(t, c), atol=1e-12)


def test_derive_velocity_exact_on_nonuniform_quadratic():
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.uniform(0.005, 0.02, 60))
    a = np.array([0.3, -0.2, 1.0])
    b = np.array([0.5, 1.5, -0.3])
    c = np.array([-0.2, 0.1, 0.4])
    pos = a + np.outer(t, b) + np.outer(t**2, c)
    vel = derive_velocity(t, pos)
    np.testing.assert_allclose(vel, b + 2.0 * np.outer(t, c), atol=1e-12)


def test_derive_velocity_tracks_sinusoid():
    t = np.arange(0.0, 4.0, 0.01)
    pos = np.stack([np.sin(np.pi * t), np.zeros_like(t), np.cos(np.pi * t)], axis=1)
    vel = derive_velocity(t, pos)
    true = np.stack(
        [np.pi * np.cos(np.pi * t), np.zeros_like(t), -np.pi * np.sin(np.pi * t)], axis=1
    )
    assert np.max(np.abs(vel - true)) < 0.05  # edge windows are one-sided
    assert np.max(np.abs(vel[5:-5] - true[5:-5])) < 0.02


def test_derive_velocity_matches_savgol_filter_on_uniform_samples():
    # On uniform timestamps the local fits are the Savitzky-Golay derivative
    # with mode="interp" (edge windows clamped), on a noisy figure-eight.
    from scipy.signal import savgol_filter

    rng = np.random.default_rng(6)
    t = 3.0 + np.arange(6001) * 0.01
    pos = np.stack([2.0 * np.sin(0.5 * t), 1.5 * np.sin(t), 0.3 * np.sin(0.5 * t)], axis=1)
    pos += rng.normal(scale=0.002, size=pos.shape)
    for window, order in ((11, 2), (7, 3), (5, 1)):
        vel = derive_velocity(t, pos, window, order)
        ref = savgol_filter(pos, window, order, deriv=1, delta=0.01, axis=0, mode="interp")
        np.testing.assert_allclose(vel, ref, rtol=0.0, atol=1e-11)


def chunked_fit_velocity(t, pos, window=11, poly_order=2, chunk=512):
    """derive_velocity's arithmetic written out: a pseudo-inverse per sample,
    ``chunk`` samples at a time.  A faster form must keep every bit of it."""
    n = len(t)
    lo = np.clip(np.arange(n) - window // 2, 0, n - window)
    powers = np.arange(poly_order + 1)
    vel = np.empty_like(pos)
    for start in range(0, n, chunk):
        i = np.arange(start, min(start + chunk, n))
        idx = lo[i, None] + np.arange(window)
        span = t[idx[:, -1]] - t[idx[:, 0]]
        local = (t[idx] - t[i, None]) / span[:, None]
        slope = np.linalg.pinv(local[..., None] ** powers)[:, 1, :] / span[:, None]
        vel[i] = np.einsum("mw,mwk->mk", slope, pos[idx])
    return vel


@pytest.mark.parametrize("series", ["uniform", "jittered", "chunks"])
def test_derive_velocity_is_the_per_sample_fit_bit_for_bit(series):
    rng = np.random.default_rng(24)
    if series == "uniform":  # a 60 s trial's gt times: few distinct windows
        t = np.arange(6001) / 100
    elif series == "jittered":  # no window repeats
        t = np.cumsum(rng.uniform(0.005, 0.015, 1500))
    else:  # across the chunk boundaries and both clamped ends, a few windows jittered
        n = 2 * uwbnav.replay._VELOCITY_CHUNK + 7
        t = np.arange(n) / 100
        t[[3, 511, 512, 700, n - 2]] += 0.003
    pos = np.stack([np.sin(t), np.cos(0.5 * t), 0.1 * t], axis=1) + rng.normal(scale=1e-3, size=(len(t), 3))
    want = chunked_fit_velocity(t, pos, chunk=uwbnav.replay._VELOCITY_CHUNK)
    got = derive_velocity(t, pos)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for window, order in ((7, 3), (5, 1)):
        want = chunked_fit_velocity(t, pos, window, order, uwbnav.replay._VELOCITY_CHUNK)
        assert derive_velocity(t, pos, window, order).tobytes() == want.tobytes()


def test_derive_velocity_does_not_import_scipy_signal():
    # scipy.signal costs more to import than all of uwbnav; replay start-up
    # should not pay for it.
    code = (
        "import sys, numpy as np\n"
        "from uwbnav.replay import derive_velocity\n"
        "t = np.arange(50) * 0.01\n"
        "derive_velocity(t, np.outer(t, [1.0, 0.0, 0.0]))\n"
        "assert 'scipy.signal' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_derive_velocity_validates_window_and_data():
    t = np.arange(0.0, 0.2, 0.01)
    pos = np.outer(t, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="odd"):
        derive_velocity(t, pos, window=10)
    with pytest.raises(ValueError, match="too small"):
        derive_velocity(t, pos, window=3, poly_order=2)
    # An order below 1 has no slope, and a float order or window would be fitted as another integer.
    for order in (0, -1, 1.5, 2.0):
        with pytest.raises(ValueError, match=rf"poly_order must be an integer >= 1, got {order!r}"):
            derive_velocity(t, pos, poly_order=order)
    with pytest.raises(ValueError, match="odd integer"):
        derive_velocity(t, pos, window=11.0)
    np.testing.assert_array_equal(derive_velocity(t, pos, np.int64(5), np.int64(1)), derive_velocity(t, pos, 5, 1))
    with pytest.raises(ValueError, match="one position row per time"):
        derive_velocity(t, pos[:-1])
    with pytest.raises(DataError, match="at least 11"):
        derive_velocity(t[:5], pos[:5])
    dup = [0.0, 0.01, 0.01, 0.02, 0.03]
    with pytest.raises(DataError, match="strictly increasing"):
        derive_velocity(dup, np.zeros((5, 3)), window=3, poly_order=1)


# --- run_replay -----------------------------------------------------------------------


def test_run_replay_requires_two_imu_samples(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0,), gt_times=(0.0, 0.01, 0.02))
    ds = load_dataset(paths)
    with pytest.raises(DataError, match="at least 2 IMU"):
        run_replay(ds, default_anchors(), Gains(), ObserverState.cold_start(pos=HOVER_POS))


def test_run_replay_requires_ground_truth_stream(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01))
    del paths["gt"]
    ds = load_dataset(paths)
    with pytest.raises(DataError, match="ground-truth"):
        run_replay(ds, default_anchors(), Gains(), ObserverState.cold_start(pos=HOVER_POS))


def test_run_replay_rejects_anchor_count_mismatch(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01, 0.02))
    write_csv(
        tmp_path / "uwb.csv",
        ["t", "d1", "d2", "d3", "d4"],
        [["0.005", "0.1", "0.2", "0.3", "-0.6"]],
    )
    ds = load_dataset(paths)
    with pytest.raises(ConfigError, match="4 TDOA values but anchor set has 8"):
        run_replay(ds, default_anchors(), Gains(), ObserverState.cold_start(pos=HOVER_POS))


def test_run_replay_consumes_last_frame_per_step_and_counts_drops(tmp_path):
    # Two frames land in step 0 (last wins), one is before the first IMU
    # sample, one after the last step: three of four frames are dropped.
    paths = hover_dataset(
        tmp_path, imu_times=(0.0, 0.01, 0.02), uwb_times=(0.001, 0.002, -0.5, 0.05)
    )
    ds = load_dataset(paths)
    rep = run_replay(
        ds,
        default_anchors(),
        Gains(),
        ObserverState.cold_start(pos=HOVER_POS),
        velocity_window=3,
        velocity_poly_order=1,
    )
    assert rep.summary["tdoa_frames"] == 4
    assert rep.summary["dropped_tdoa_frames"] == 3
    assert list(np.where(np.isfinite(rep.raw_err))[0]) == [0]
    np.testing.assert_allclose(rep.raw_pos[0], HOVER_POS, atol=1e-8)


def test_run_replay_skips_oversized_time_gaps(tmp_path):
    paths = hover_dataset(tmp_path, imu_times=(0.0, 0.01, 0.5))
    ds = load_dataset(paths)
    rep = run_replay(
        ds,
        default_anchors(),
        Gains(),
        ObserverState.cold_start(pos=HOVER_POS),
        velocity_window=3,
        velocity_poly_order=1,
    )
    assert rep.summary["steps"] == 2
    assert rep.summary["skipped_steps"] == 1
    assert np.all(np.isfinite(rep.est_pos))


def test_run_replay_marks_rows_outside_ground_truth_range(tmp_path):
    paths = hover_dataset(
        tmp_path, imu_times=(0.0, 0.01, 0.02, 0.03, 0.04), gt_times=(0.01, 0.02, 0.03)
    )
    ds = load_dataset(paths)
    rep = run_replay(
        ds,
        default_anchors(),
        Gains(),
        ObserverState.cold_start(pos=HOVER_POS),
        velocity_window=3,
        velocity_poly_order=1,
    )
    assert np.isnan(rep.pos_err[0]) and np.isnan(rep.pos_err[-1])
    assert np.all(np.isfinite(rep.pos_err[1:4]))
    # summary statistics use the first row that has a benchmark
    assert rep.summary["initial_pos_err"] == pytest.approx(rep.pos_err[1])


def test_run_replay_from_truth_stays_at_truth(tmp_path):
    sc = preset_scenario("static", duration=2.0, noise=SensorNoise(0.0, 0.0, 0.0, 0.0))
    paths = export_dataset(run_scenario(sc, Gains()), tmp_path)
    ds = load_dataset(paths)
    anchors = load_anchors(paths["anchors"])
    init = ObserverState.cold_start(pos=(1.237, 0.124, 1.534))
    rep = run_replay(ds, anchors, Gains(), init)
    assert np.nanmax(rep.att_err) < 1e-14
    assert np.nanmax(rep.pos_err) < 1e-12
    assert np.nanmax(rep.vel_err) < 1e-12
    assert rep.summary["skipped_steps"] == 0
    assert rep.summary["dropped_tdoa_frames"] == 0


def test_run_replay_reproduces_exported_simulation_metrics(tmp_path):
    sc = preset_scenario(
        "static",
        duration=2.0,
        seed=3,
        noise=SensorNoise(0.005, 0.02, 0.2, 0.05),
        b_omega=(0.01, -0.02, 0.005),
        b_a=(0.1, -0.05, 0.2),
        tag_offset=(-0.012, 0.001, 0.091),
    )
    sim = run_scenario(sc, Gains())
    paths = export_dataset(sim, tmp_path)
    ds = load_dataset(paths)
    anchors = load_anchors(paths["anchors"])
    rep = run_replay(
        ds,
        anchors,
        Gains(),
        ObserverState.cold_start(pos=(-3.0, -1.0, 0.0)),
        tag_offset=(-0.012, 0.001, 0.091),
        seed=3,
    )
    # estimator trajectory and attitude/position metrics are reproduced
    # bit-for-bit; the velocity benchmark is re-derived from positions, so it
    # only matches to numerical differentiation precision.
    np.testing.assert_array_equal(rep.est_pos, sim.est_pos)
    np.testing.assert_array_equal(rep.att_err, sim.att_err)
    np.testing.assert_array_equal(rep.pos_err, sim.pos_err)
    np.testing.assert_array_equal(rep.raw_err, sim.raw_err)
    np.testing.assert_allclose(rep.vel_err, sim.vel_err, atol=1e-12)


# The summary keys as run_scenario (one run) and run_replay write them.
SHARED_SUMMARY_KEYS = {
    "duration", "steps", "initial_pos_err", "final_att_err", "final_pos_err", "final_vel_err",
    "settling_time", "settle_threshold", "ss_pos_rms", "ss_vel_rms", "raw_pos_rms",
    "tdoa_frames", "tdoa_failures", "triad_failures",
}
SIM_SUMMARY_KEYS = SHARED_SUMMARY_KEYS | {
    "scenario", "seed", "final_b_omega_err", "final_b_a_err", "log_error_slope",
}
REPLAY_SUMMARY_KEYS = SHARED_SUMMARY_KEYS | {"skipped_steps", "imu_samples", "dropped_tdoa_frames", "gt_records"}
RUN_FIELDS = [
    "t", "att_err", "pos_err", "vel_err", "truth_pos", "truth_vel",
    "est_pos", "est_vel", "raw_pos", "raw_err", "final_state", "summary",
]


def test_sim_and_replay_return_one_record_with_their_own_summary_keys(tmp_path):
    sim = run_scenario(preset_scenario("figure8", duration=2.0), Gains())
    paths = export_dataset(sim, tmp_path)
    rep = run_replay(load_dataset(paths), load_anchors(paths["anchors"]), Gains(), ObserverState.cold_start())
    assert set(sim.summary) == SIM_SUMMARY_KEYS
    assert set(rep.summary) == REPLAY_SUMMARY_KEYS
    assert type(rep) is RunResult and isinstance(sim, RunResult)
    assert [f.name for f in dataclasses.fields(RunResult)] == RUN_FIELDS
    assert [f.name for f in dataclasses.fields(SimResult)] == RUN_FIELDS + [
        "scenario", "b_omega_err", "b_a_err", "truth_rot", "imu", "tdoa",
    ]
    for name in RUN_FIELDS[:-2]:
        assert getattr(rep, name).shape == getattr(sim, name).shape, name


def export_without_magnetometer(sc, tmp_path):
    """The scenario's exported dataset, loaded with the magnetometer columns stripped, and its anchors."""
    paths = export_dataset(run_scenario(sc, Gains()), tmp_path)
    rows = list(csv.reader(open(paths["imu"])))
    with open(tmp_path / "imu_nomag.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(row[:7] for row in rows)
    ds = load_dataset(dict(paths, imu=tmp_path / "imu_nomag.csv"))
    assert ds.has_mag is False
    return ds, load_anchors(paths["anchors"])


def test_run_replay_synthesizes_deterministic_magnetometer(tmp_path):
    sc = preset_scenario(
        "static", duration=1.0, seed=3, noise=SensorNoise(0.0, 0.0, 0.2, 0.05)
    )
    ds, anchors = export_without_magnetometer(sc, tmp_path)

    def replay(seed):
        return run_replay(
            ds, anchors, Gains(), ObserverState.cold_start(pos=(-3.0, -1.0, 0.0)), seed=seed
        )

    a, b, c = replay(3), replay(3), replay(4)
    np.testing.assert_array_equal(a.est_pos, b.est_pos)
    assert not np.array_equal(a.est_pos, c.est_pos)
    assert a.summary["triad_failures"] == 0


def test_synthesized_magnetometer_noise_is_each_sample_s_own_generator(tmp_path, monkeypatch):
    # Sample k's noise is normal(0, sd, 3) of default_rng((seed, 2, k)), bit
    # for bit, added to the interpolated truth's R^T m_r.
    sc = preset_scenario("yaw_circle", duration=6.0, seed=3, noise=SensorNoise(0.0, 0.0, 0.2, 0.05))
    ds, anchors = export_without_magnetometer(sc, tmp_path)
    real_interpolate = uwbnav.replay._interpolate_truth
    truth_rot, mags = [], []

    def interpolate(*args):
        out = real_interpolate(*args)
        truth_rot.append(out[1])
        return out

    def recording_step(state, imu, frame, *args, **kwargs):
        mags.append(imu.mag)
        return step(state, imu, frame, *args, **kwargs)

    monkeypatch.setattr(uwbnav.replay, "_interpolate_truth", interpolate)
    monkeypatch.setattr(uwbnav.replay, "step", recording_step)
    seed = 2**32 + 5
    run_replay(ds, anchors, Gains(), ObserverState.cold_start(pos=(-3.0, -1.0, 0.0)), seed=seed, mag_noise_sd=0.3)
    mag_ref = ReferenceVectors().mag_ref
    assert len(mags) == len(ds.imu) - 1
    for k, mag in enumerate(mags):
        noise = np.random.default_rng((seed, 2, k)).normal(0.0, 0.3, 3)
        assert mag.tobytes() == (truth_rot[0][k].T @ mag_ref + noise).tobytes(), k


def test_a_synthesized_magnetometer_that_is_not_finite_is_refused(tmp_path):
    # An sd of 1e308 pushes some sample's draw past the largest float: that
    # reading is refused as ImuSample would refuse it, not handed to the step.
    sc = preset_scenario("static", duration=1.0, seed=3, noise=SensorNoise(0.0, 0.0, 0.2, 0.05))
    ds, anchors = export_without_magnetometer(sc, tmp_path)
    init = ObserverState.cold_start(pos=(-3.0, -1.0, 0.0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="mag must be finite"):
        run_replay(ds, anchors, Gains(), init, seed=3, mag_noise_sd=1e308)


def test_run_replay_counts_frames_on_skipped_steps_as_dropped(tmp_path, monkeypatch):
    # Cutting the IMU rows of t = 5.00 .. 5.19 s leaves one 0.21 s step, which
    # is skipped; the frames at 5.0 and 5.1 s both land on it: one is
    # overwritten by the other and the other never reaches the observer.
    sc = preset_scenario("figure8", duration=20.0, noise=SensorNoise(0.005, 0.02, 0.2, 0.05))
    paths = export_dataset(run_scenario(sc, Gains()), tmp_path)
    with open(paths["imu"], newline="") as fh:
        rows = list(csv.reader(fh))
    kept = [rows[0]] + [row for row in rows[1:] if not 5.0 <= float(row[0]) < 5.195]
    assert len(rows) - len(kept) == 20
    with open(tmp_path / "imu_gap.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(kept)
    ds = load_dataset(dict(paths, imu=tmp_path / "imu_gap.csv"))
    received = []

    def counting_step(state, imu, frame, *args, **kwargs):
        received.append(frame is not None)
        return step(state, imu, frame, *args, **kwargs)

    monkeypatch.setattr(uwbnav.replay, "step", counting_step)
    rep = run_replay(
        ds, load_anchors(paths["anchors"]), Gains(), ObserverState.cold_start(pos=(-3.0, -1.0, 0.0))
    )
    assert rep.summary["tdoa_frames"] == 200
    assert rep.summary["dropped_tdoa_frames"] == 2
    assert rep.summary["skipped_steps"] == 1
    assert sum(received) == 198 == rep.summary["tdoa_frames"] - rep.summary["dropped_tdoa_frames"]


# --- artifact writing -----------------------------------------------------------------


def test_export_dataset_writes_canonical_layout(tmp_path):
    sc = preset_scenario("static", duration=1.0)
    result = run_scenario(sc, Gains())
    paths = export_dataset(result, tmp_path)
    assert set(paths) == {"imu", "uwb", "gt", "anchors"}

    imu_rows = list(csv.reader(open(paths["imu"])))
    assert imu_rows[0] == IMU_HEADER
    assert len(imu_rows) - 1 == len(result.imu)
    assert [float(x) for x in imu_rows[1]] == result.imu[0].tolist()

    uwb_rows = list(csv.reader(open(paths["uwb"])))
    assert len(uwb_rows) - 1 == len(result.tdoa)

    gt_rows = list(csv.reader(open(paths["gt"])))
    assert gt_rows[0] == GT_HEADER
    q = np.array([float(x) for x in gt_rows[1][1:5]])
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    loaded = load_anchors(paths["anchors"])
    assert loaded.n == sc.anchors.n
    np.testing.assert_array_equal(loaded.positions, sc.anchors.positions)


def test_load_dataset_gives_back_the_tables_of_the_exported_run(tmp_path):
    # A run's imu and tdoa tables are what the export writes, so loading it
    # gives them back bit for bit: replay steps over the tables sim stepped over.
    noise = SensorNoise(0.005, 0.02, 0.2, 0.05)
    sc = preset_scenario("figure8", duration=10.0, seed=7, noise=noise, b_omega=(0.01, -0.02, 0.005), b_a=(0.1, -0.05, 0.2))
    result = run_scenario(sc, Gains())
    paths = export_dataset(result, tmp_path)
    ds = load_dataset({k: paths[k] for k in ("imu", "uwb", "gt")})
    for name in ("imu", "tdoa"):
        got, want = getattr(ds, name), getattr(result, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert ds.imu.shape == (1001, 10) and ds.tdoa.shape == (100, 9)


def test_export_dataset_matches_the_per_cell_form_byte_for_byte(tmp_path):
    # The table writer against the form it replaced: every cell through
    # frozen_fmt, one csv.writer row per sample, frame or truth record.
    sc = preset_scenario("figure8", duration=20.0, noise=SensorNoise(0.005, 0.02, 0.2, 0.05))
    result = run_scenario(sc, Gains())
    paths = export_dataset(result, tmp_path / "dataset")
    truth = zip(result.t, result.truth_rot, result.truth_pos)
    reference = {
        "imu": (IMU_HEADER, result.imu.tolist()),
        "uwb": (["t"] + [f"d{i + 1}" for i in range(sc.anchors.n)], result.tdoa.tolist()),
        "gt": (GT_HEADER, [[t, *rotation_to_quat(r), *p] for t, r, p in truth]),
    }
    for stream, (header, rows) in reference.items():
        path = tmp_path / f"{stream}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([frozen_fmt(v) for v in row])
        assert len(rows) > 100
        with open(paths[stream], "rb") as fh:
            assert fh.read() == path.read_bytes(), stream


def test_write_metrics_csv_round_trips_floats_and_blanks_nan(tmp_path):
    t = np.array([0.0, 0.1])
    att = np.array([0.123456789012345, np.nan])
    pos = np.array([1.0 / 3.0, 2.0])
    vel = np.array([np.nan, 0.5])
    track = np.array([[1.0, 2.0, 3.0], [np.nan, np.nan, np.nan]])
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, t, att, pos, vel, track, track, track)
    rows = list(csv.reader(open(path)))
    assert rows[0][:4] == ["t", "att_err", "pos_err", "vel_err"]
    assert float(rows[1][1]) == att[0]  # shortest-repr round trip is exact
    assert float(rows[1][2]) == pos[0]
    assert rows[1][3] == ""  # NaN written as blank
    assert rows[2][1] == ""
    assert rows[2][4:] == [""] * 9


def test_write_metrics_csv_matches_the_per_cell_form_byte_for_byte(tmp_path):
    # The row-streaming writer against the form it replaced: every cell
    # through frozen_fmt, one csv row per sample.
    rng = np.random.default_rng(71)
    special = [np.nan, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -np.inf, 0.1, -1.0 / 3.0]
    values = np.concatenate([special, rng.normal(size=8)])
    n = 40
    t, att, pos, vel = (rng.choice(values, size=n) for _ in range(4))
    truth_pos, est_pos, raw_pos = (rng.choice(values, size=(n, 3)) for _ in range(3))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, t, att, pos, vel, truth_pos, est_pos, raw_pos)

    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "att_err", "pos_err", "vel_err", "px_true", "py_true", "pz_true",
                    "px_est", "py_est", "pz_est", "px_raw", "py_raw", "pz_raw"])
        for k in range(n):
            row = [t[k], att[k], pos[k], vel[k], *truth_pos[k], *est_pos[k], *raw_pos[k]]
            w.writerow([frozen_fmt(v) for v in row])
    assert path.read_bytes() == reference.read_bytes()
    text = path.read_text()
    for token in ("-0.0", "5e-324", "1e+300", "-inf", ",,"):
        assert token in text, token


def test_write_summary_json_nulls_non_finite_values(tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(path, {"b": float("nan"), "a": 1.5, "c": "static"})
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == {"a": 1.5, "b": None, "c": "static"}
    assert list(data) == ["a", "b", "c"]  # keys are sorted


def test_atomic_writer_commits_on_success(tmp_path):
    path = tmp_path / "out" / "file.txt"
    with atomic_writer(path) as fh:
        fh.write("payload")
    assert path.read_text() == "payload"
    assert os.listdir(path.parent) == ["file.txt"]  # no temp files left behind


def test_atomic_writer_leaves_no_file_on_failure(tmp_path):
    path = tmp_path / "file.txt"
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_atomic_writer_replaces_existing_file_in_place(tmp_path):
    path = tmp_path / "file.txt"
    path.write_text("old")
    with atomic_writer(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
