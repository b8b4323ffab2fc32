"""Dataset ingestion, ground-truth benchmarks, and observer replay.

A recorded trial arrives as three CSV streams — IMU, UWB, and ground truth —
plus an anchor JSON file.  This module converts each stream once into a float
table sorted by time (numpy's C text reader parses a file, csv one it cannot
take, see ``_parse_stream``; validation happens there, on the whole table, and
nowhere after), derives a benchmark velocity from the ground-truth positions
(local least-squares polynomial differentiation), runs the observer
sample-by-sample, and scores it into the simulator's record, ``sim.RunResult``,
so synthetic and recorded runs are directly comparable.  ``run_replay``
interpolates the truth once from the gt table (NaN outside its range) and
hands it, with the loaded IMU and TDOA tables, to ``sim._run_and_score``,
which steps and scores ``run_scenario``'s tables too; it then adds the
replay's summary keys (skipped steps, sample, dropped frame and gt counts).

File formats (canonical column names; remap via ``column_map``):

* ``imu.csv``: t, gx, gy, gz, ax, ay, az [, mx, my, mz]
* ``uwb.csv``: t, then N difference (or raw range) columns in anchor order
* ``gt.csv``:  t, qw, qx, qy, qz, px, py, pz
* ``anchors.json``: {"anchors": [{"id": ..., "pos": [x, y, z]}, ...]}

When the magnetometer columns are absent, measurements are synthesized from
the interpolated ground-truth attitude (deterministically, from the seed).
That attitude is a quaternion slerp in numpy, ``_slerp_matrices``.

Every CSV this module writes (an exported run's three streams and the
per-timestamp metrics) goes through one table writer, ``_write_table``: each
float in its shortest round-trip form, NaN as an empty cell.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .liegroup import Rotation, _norms
from .observer import Gains, ObserverState, step
from .sensors import ReferenceVectors
from .sim import _SETTLE_DWELL, _SETTLE_THRESHOLD, _STREAM_MAG, RunResult, SimResult, _noisy_table, _run_and_score
from .tdoa import _cyclic_differences
from .tdoa import solve_frame  # noqa: F401  sim._run_and_score solves the frames; navbench traces this name

__all__ = [
    "ConfigError",
    "DataError",
    "LoadReport",
    "LoadedDataset",
    "load_dataset",
    "rotation_to_quat",
    "derive_velocity",
    "run_replay",
    "export_dataset",
    "write_metrics_csv",
    "write_summary_json",
    "atomic_writer",
    "DEFAULT_COLUMN_MAP",
]

_QUAT_NORM_TOL = 1e-6
_VELOCITY_CHUNK = 512  # samples per batch of local fits in derive_velocity (bounds memory)
# The benchmark velocity's local fit: samples per window, polynomial order.
_VELOCITY_WINDOW, _VELOCITY_POLY_ORDER = 11, 2


class ConfigError(Exception):
    """The run is misconfigured (missing files/columns, mismatched anchors)."""


class DataError(Exception):
    """The dataset content is unusable (empty stream, degenerate records)."""


@dataclass
class LoadReport:
    """Ingestion accounting: rows read/skipped and reorders per stream."""

    rows_read: dict = field(default_factory=dict)
    rows_skipped: dict = field(default_factory=dict)
    reordered: dict = field(default_factory=dict)
    skipped_rows: list = field(default_factory=list)

    def describe(self) -> str:
        lines = []
        for stream in sorted(self.rows_read):
            lines.append(
                f"{stream}: {self.rows_read[stream]} rows"
                f" ({self.rows_skipped.get(stream, 0)} skipped,"
                f" {self.reordered.get(stream, 0)} out of order)"
            )
        lines.extend(self.skipped_rows[:20])
        if len(self.skipped_rows) > 20:
            lines.append(f"... and {len(self.skipped_rows) - 20} more skipped rows")
        return "\n".join(lines)


@dataclass(eq=False)
class LoadedDataset:
    """The three streams as float tables, each sorted by time, plus the ingestion report.

    ``imu`` is (n, 7): t, gx, gy, gz, ax, ay, az, or (n, 10) with mx, my, mz
    after them.  ``tdoa`` is (m, 1 + N): t, then the N cyclic range
    differences (a range file arrives converted).  ``gt`` is (k, 8): t, qw,
    qx, qy, qz, px, py, pz, and (0, 8) when no ground-truth file was given.
    Every value is finite: the replay loop builds its IMU samples and TDOA
    frames from these rows without checking them again.
    """

    imu: np.ndarray
    tdoa: np.ndarray
    gt: np.ndarray
    report: LoadReport

    @property
    def has_mag(self) -> bool:
        return self.imu.shape[1] == 10

    @property
    def n_uwb_values(self) -> int:
        return self.tdoa.shape[1] - 1


DEFAULT_COLUMN_MAP = {
    "imu": {c: c for c in ("t", "gx", "gy", "gz", "ax", "ay", "az", "mx", "my", "mz")},
    "uwb": {"t": "t", "values": None, "mode": "diff"},
    "gt": {c: c for c in ("t", "qw", "qx", "qy", "qz", "px", "py", "pz")},
}


def _merge_column_map(column_map: dict | None) -> dict:
    merged = {k: dict(v) for k, v in DEFAULT_COLUMN_MAP.items()}
    column_map = {} if column_map is None else column_map
    if not isinstance(column_map, dict):
        raise ConfigError(f"column_map must be an object, got {column_map!r}")
    for stream, mapping in column_map.items():
        if stream not in merged:
            raise ConfigError(f"column_map refers to unknown stream {stream!r}")
        if not isinstance(mapping, dict):
            raise ConfigError(f"column_map[{stream!r}] must be an object, got {mapping!r}")
        for key, val in mapping.items():
            if key not in merged[stream]:
                raise ConfigError(f"column_map[{stream!r}] has unknown key {key!r}")
            merged[stream][key] = val
    if merged["uwb"]["mode"] not in ("diff", "range"):
        raise ConfigError(f"uwb mode must be 'diff' or 'range', got {merged['uwb']['mode']!r}")
    return merged


def _read_rows(path) -> tuple[list, str]:
    """A CSV file's header cells, as csv reads them, and its body: the text after the header."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from exc
        body = fh.read()
    if header is None:
        raise DataError(f"{path} is empty")
    return [h.strip() for h in header], body


def _column_indices(header, names, path):
    for name in names:
        if name not in header:
            raise ConfigError(f"{Path(path).name}: missing required column {name!r}")
    return [header.index(name) for name in names]


def _unit_quaternion(table):
    """Table check of gt.csv: each quaternion (columns 1-4) has norm 1 +/- _QUAT_NORM_TOL."""
    norm = _norms(table[:, 1:5])  # inf where it overflows
    off = np.flatnonzero(np.abs(norm - 1.0) > _QUAT_NORM_TOL).tolist()
    return table, {k: f"quaternion norm {norm[k]:.8f} is not 1 +/- {_QUAT_NORM_TOL}" for k in off}


def _range_differences(table):
    """Table conversion of a range file: t, then each row's cyclic differences r[k+1] - r[k]."""
    table = np.column_stack([table[:, :1], _cyclic_differences(table[:, 1:])])
    off = np.flatnonzero(~np.isfinite(table).all(axis=1)).tolist()
    return table, dict.fromkeys(off, "range differences must be finite")


def _text_table(body, indices):
    """``body``'s ``indices`` columns by numpy's C text reader, or None unless it reads each line as one row."""
    if body[:1] in "\r\n" or '"' in body:  # empty or a blank first line (it warns or skips); quoting is csv's
        return None
    with suppress(ValueError):  # a cell it cannot read (float() may), a short row, a lone CR
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, quotechar=None, usecols=indices, ndmin=2)
        return table if len(table) == body.count("\n") + (body[-1] != "\n") else None  # it skips blank lines
    return None


def _parse_stream(path, body, indices, stream, report, check=None) -> np.ndarray:
    """The ``indices`` columns of the CSV ``body`` as one float table, sorted by time (column 0).

    numpy's C text reader parses the body; csv reads its rows instead when it holds quotes, a blank
    line, a CR line end, a short row or a cell that reader refuses (``float()`` takes ``1_0``), and
    one ``np.array(cells, dtype=float)`` converts them as ``float()`` does.  A row is skipped, and
    logged with its line number, when a column is missing or not a finite number (only then are the
    rows read with ``float()``, in one pass that names the failing rows and converts the others), or
    when ``check`` fails it: ``check(table)`` returns it, converted if need be, and a message per
    failing row.  A file csv cannot read (a cell over its field limit) raises ``DataError``.
    """
    table = _text_table(body, indices)
    try:
        rows = range(len(table)) if table is not None else list(csv.reader(io.StringIO(body, newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    errors, taken = {}, range(len(rows))
    try:
        table = np.array(list(map(itemgetter(*indices), rows)), dtype=float) if table is None else table
    except (ValueError, IndexError):
        table = []
        for k in taken:
            try:
                table.append([float(rows[k][i]) for i in indices])
            except (ValueError, IndexError) as exc:
                errors[k] = str(exc)
        taken = [k for k in taken if k not in errors]
    table = np.asarray(table, dtype=float).reshape(-1, len(indices))
    non_finite = dict.fromkeys(np.flatnonzero(~np.isfinite(table).all(axis=1)).tolist(), "non-finite value")
    with np.errstate(over="ignore", invalid="ignore"):  # a check fails what overflows or is not finite
        table, failed = (table, {}) if check is None else check(table)
    failed |= non_finite  # a non-finite row is reported as such
    errors.update((taken[k], msg) for k, msg in failed.items())
    table = np.delete(table, list(failed), axis=0)
    name = Path(path).name
    report.skipped_rows.extend(f"{name} row {k + 2}: {errors[k]}" for k in sorted(errors))  # header is line 1
    report.rows_read[stream], report.rows_skipped[stream] = len(rows), len(errors)
    times = table[:, 0]
    report.reordered[stream] = int(np.sum(np.diff(times) < 0))
    return table[np.argsort(times, kind="stable")]


def load_dataset(paths: dict, column_map: dict | None = None) -> LoadedDataset:
    """Load imu/uwb/gt CSV files into three time-sorted float tables.

    ``paths`` maps stream names ("imu", "uwb", "gt") to file paths; "gt" is
    optional at load time (replay will refuse to run without it).  Each file
    is converted once into one table and checked as a whole; malformed rows
    (a missing or non-finite value, a gt quaternion off unit norm, range
    differences that overflow) are skipped and counted in the report rather
    than aborting the load.  See ``LoadedDataset`` for the table layouts.
    """
    cmap = _merge_column_map(column_map)
    if "imu" not in paths or "uwb" not in paths:
        raise ConfigError("paths must include 'imu' and 'uwb'")
    report = LoadReport()

    imu_map = cmap["imu"]
    header, body = _read_rows(paths["imu"])
    names = [imu_map[c] for c in ("t", "gx", "gy", "gz", "ax", "ay", "az")]
    idx = _column_indices(header, names, paths["imu"])
    mag_names = [imu_map[c] for c in ("mx", "my", "mz")]
    n_mag = sum(name in header for name in mag_names)
    if n_mag not in (0, 3):
        raise ConfigError(f"{Path(paths['imu']).name}: magnetometer columns incomplete")
    idx += _column_indices(header, mag_names[:n_mag], paths["imu"])
    imu = _parse_stream(paths["imu"], body, idx, "imu", report)

    uwb_map = cmap["uwb"]
    header, body = _read_rows(paths["uwb"])
    idx = _column_indices(header, [uwb_map["t"]], paths["uwb"])
    value_names = uwb_map["values"]
    if value_names is None:
        value_names = [h for h in header if h != uwb_map["t"]]
    if not value_names:
        raise ConfigError(f"{Path(paths['uwb']).name}: no UWB value columns")
    idx += _column_indices(header, value_names, paths["uwb"])
    check = _range_differences if uwb_map["mode"] == "range" else None
    tdoa = _parse_stream(paths["uwb"], body, idx, "uwb", report, check)

    gt = np.empty((0, 8))
    if "gt" in paths:
        gt_map = cmap["gt"]
        header, body = _read_rows(paths["gt"])
        names = [gt_map[c] for c in ("t", "qw", "qx", "qy", "qz", "px", "py", "pz")]
        idx = _column_indices(header, names, paths["gt"])
        gt = _parse_stream(paths["gt"], body, idx, "gt", report, _unit_quaternion)

    if not (len(imu) or len(tdoa) or len(gt)):
        raise DataError("dataset contains no usable rows")
    return LoadedDataset(imu=imu, tdoa=tdoa, gt=gt, report=report)


# Shepperd's method, per case (the largest of trace, m00, m11, m22): each
# component's numerator in (m21 - m12, m02 - m20, m10 - m01, m01 + m10,
# m02 + m20, m12 + m21); component ``case`` is 0.25 s instead.
_SHEPPERD = np.array([[0, 0, 1, 2], [0, 0, 3, 4], [1, 3, 0, 5], [2, 4, 5, 0]])


def _quaternions(m) -> np.ndarray:
    """The unit Hamilton (w, x, y, z) quaternions, w >= 0, of the (n, 3, 3) rotation matrices ``m``.

    Shepperd's method: each row picks the largest of (trace, m00, m11, m22)
    for stability, with every row's arithmetic that of the one-matrix form.
    """
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = np.reshape(m, (-1, 9)).T
    tr = m00 + m11 + m22
    case = np.argmax(np.stack([tr, m00, m11, m22], axis=1), axis=1)  # ties go to the first, as in the one-matrix form
    radicand = np.choose(case, [tr + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11])
    s = np.sqrt(np.maximum(radicand, 0.0)) * 2.0
    pairs = np.stack([m21 - m12, m02 - m20, m10 - m01, m01 + m10, m02 + m20, m12 + m21], axis=1)
    q = np.take_along_axis(pairs, _SHEPPERD[case], axis=1) / s[:, None]
    q[np.arange(len(q)), case] = 0.25 * s
    q /= _norms(q)[:, None]
    return np.where(q[:, :1] >= 0.0, q, -q)


def rotation_to_quat(R) -> np.ndarray:
    """Convert a rotation matrix to a unit Hamilton (w, x, y, z) quaternion, w >= 0."""
    m = R.m if isinstance(R, Rotation) else np.asarray(R, dtype=float)
    return _quaternions(m[None])[0]


def derive_velocity(t, pos, window: int = _VELOCITY_WINDOW, poly_order: int = _VELOCITY_POLY_ORDER) -> np.ndarray:
    """Benchmark velocity from ground-truth positions ``pos`` (n, 3) at times ``t`` (n,).

    Each point gets the derivative of a local least-squares polynomial fit
    (the Gaussian-noise maximum-likelihood smoother) over ``window`` samples
    centred on it; within half a window of either end the window is clamped
    to the first or last ``window`` samples.  On uniform timestamps this is
    the Savitzky-Golay derivative with ``mode="interp"``; the timestamps need
    not be uniform.  Exact on position series that are polynomials of degree
    <= poly_order.  Its columns j >= 2 are numpy's pow of an exponent array, not the
    ``x * x`` of a scalar exponent 2, which differs in 2-5 % of a trial's entries.
    """
    if not isinstance(poly_order, (int, np.integer)) or poly_order < 1:
        raise ValueError(f"poly_order must be an integer >= 1, got {poly_order!r}")
    if not isinstance(window, (int, np.integer)) or window % 2 == 0 or window < 3:
        raise ValueError(f"window must be an odd integer >= 3, got {window}")
    if window < poly_order + 2:
        raise ValueError(f"window {window} too small for poly_order {poly_order}")
    t = np.asarray(t, dtype=float)
    pos = np.asarray(pos, dtype=float)
    if t.ndim != 1 or pos.shape[:1] != t.shape:
        raise ValueError(f"need one position row per time, got {pos.shape} for {t.shape}")
    n = len(t)
    if n < window:
        raise DataError(f"need at least {window} ground-truth samples, got {n}")
    if np.any(np.diff(t) <= 0.0):
        raise DataError("ground-truth timestamps must be strictly increasing")
    lo = np.clip(np.arange(n) - window // 2, 0, n - window)
    vel = np.empty_like(pos)
    for start in range(0, n, _VELOCITY_CHUNK):
        i = np.arange(start, min(start + _VELOCITY_CHUNK, n))
        idx = lo[i, None] + np.arange(window)
        span = t[idx[:, -1]] - t[idx[:, 0]]
        # Vandermonde rows in the local time (t - t_i) / span, one matrix per
        # sample (pow(x, 0) is 1 and pow(x, 1) is x); row 1 of its
        # pseudo-inverse maps the window's positions to the fitted slope at t_i.
        local = (t[idx] - t[i, None]) / span[:, None]
        high = [np.power(local, np.full(local.shape, float(j))) for j in range(2, poly_order + 1)]
        slope = np.linalg.pinv(np.stack([np.ones_like(local), local, *high], axis=-1))[:, 1, :] / span[:, None]
        vel[i] = np.einsum("mw,mwk->mk", slope, pos[idx])
    return vel


def _slerp_matrices(t_gt, q, t):
    """Rotation matrices at the times ``t``, inside ``t_gt``, by spherical linear
    interpolation (Shoemake 1985) of the (w, x, y, z) rows ``q``, each normalised
    first; every interval takes the short arc."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    k = np.clip(np.searchsorted(t_gt, t) - 1, 0, len(t_gt) - 2)
    q0, q1 = q[k], q[k + 1]
    q1 = np.where(np.sum(q0 * q1, axis=1, keepdims=True) < 0.0, -q1, q1)
    a = ((t - t_gt[k]) / (t_gt[k + 1] - t_gt[k]))[:, None]
    # th is the arc theta = 2 atan2(|q1 - q0|, |q1 + q0|) over pi, so the weight
    # sin(s theta) / sin(theta) is s sinc(s th) / sinc(th): no theta = 0 branch.
    th = np.arctan2(np.linalg.norm(q1 - q0, axis=1), np.linalg.norm(q1 + q0, axis=1))[:, None] / (np.pi / 2)
    q = ((1.0 - a) * np.sinc((1.0 - a) * th) * q0 + a * np.sinc(a * th) * q1) / np.sinc(th)
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y),
    ], axis=1).reshape(-1, 3, 3)


def _interpolate_truth(gt, t, window: int, poly_order: int):
    """Attitude/position/velocity benchmark at the times ``t`` from the gt table.

    Attitude uses spherical linear interpolation, position and the derived
    velocity are linear.  Rows outside the ground-truth time range hold NaN —
    the benchmark never extrapolates.  Returns (inside, rot, pos, vel).
    """
    if len(gt) < 2:
        raise DataError("need at least 2 ground-truth records")
    t_gt, pos_gt = gt[:, 0], gt[:, 5:8]
    vel_gt = derive_velocity(t_gt, pos_gt, window, poly_order)
    inside = (t >= t_gt[0]) & (t <= t_gt[-1])
    rot = np.full((len(t), 3, 3), np.nan)
    pos = np.full((len(t), 3), np.nan)
    vel = np.full((len(t), 3), np.nan)
    if inside.any():
        rot[inside] = _slerp_matrices(t_gt, gt[:, 1:5], t[inside])
        for i in range(3):
            pos[inside, i] = np.interp(t[inside], t_gt, pos_gt[:, i])
            vel[inside, i] = np.interp(t[inside], t_gt, vel_gt[:, i])
    return inside, rot, pos, vel


def run_replay(
    dataset: LoadedDataset,
    anchors,
    gains: Gains,
    init: ObserverState,
    tag_offset=(0.0, 0.0, 0.0),
    *,
    ref: ReferenceVectors | None = None,
    seed: int = 0,
    mag_noise_sd: float = 0.2,
    velocity_window: int = _VELOCITY_WINDOW,
    velocity_poly_order: int = _VELOCITY_POLY_ORDER,
    settle_threshold: float = _SETTLE_THRESHOLD,
    settle_dwell: float = _SETTLE_DWELL,
) -> RunResult:
    """Replay the observer over a loaded dataset against its ground truth.

    The IMU and TDOA tables go to ``sim._run_and_score`` as loaded, the form
    ``run_scenario`` gives it: each frame goes to the step that starts at or
    before it, the last of a step winning, and a frame that no step takes
    (outside the stream, under a later frame, or on a step skipped for its
    dt) counts in ``dropped_tdoa_frames``.  Without a magnetometer in the
    dataset, one is synthesized from the interpolated ground-truth attitude
    with noise ``mag_noise_sd`` (draws keyed by the seed and sample index);
    a sample outside the truth range has none.  The velocity and settle
    defaults are ``derive_velocity``'s and ``run_scenario``'s.  ``tag_offset``
    is accepted but not yet applied (ROADMAP item 2 plans ``p_y - R_hat @ tag_offset``).
    """
    ref = ReferenceVectors() if ref is None else ref
    tag_offset = np.asarray(tag_offset, dtype=float)
    imu, tdoa, gt = dataset.imu, dataset.tdoa, dataset.gt
    if len(imu) < 2:
        raise DataError(f"need at least 2 IMU samples to step, got {len(imu)}")
    if not len(gt):
        raise DataError("dataset has no ground-truth stream")
    if len(tdoa) and dataset.n_uwb_values != anchors.n:
        raise ConfigError(
            f"dataset provides {dataset.n_uwb_values} TDOA values but anchor set has {anchors.n}"
        )
    t_imu = imu[:, 0]
    inside, truth_rot, truth_pos, truth_vel = _interpolate_truth(
        gt, t_imu, velocity_window, velocity_poly_order
    )
    n_steps = len(imu) - 1
    # A file without a magnetometer gets one synthesised from the interpolated
    # truth attitude inside the truth range, checked as ImuSample would check it.
    if dataset.has_mag:
        mags = imu[:, 7:10]
    else:
        mags = [None] * n_steps
        steps_inside = np.flatnonzero(inside[:n_steps]).tolist()
        synthesised = truth_rot[steps_inside].transpose(0, 2, 1) @ ref.mag_ref
        table = _noisy_table(
            t_imu[steps_inside], [synthesised], [mag_noise_sd], seed, _STREAM_MAG, steps_inside, "synthesized mag"
        )
        for k, mag in zip(steps_inside, table[:, 1:]):
            mags[k] = mag
    result, skipped_steps, taken, _, _ = _run_and_score(
        init, imu, mags, tdoa, anchors, gains, (truth_rot, truth_pos, truth_vel),
        float(t_imu[-1] - t_imu[0]), (settle_threshold, settle_dwell), ref=ref, step=step,
    )
    result.summary.update(
        skipped_steps=skipped_steps, imu_samples=len(imu), dropped_tdoa_frames=len(tdoa) - taken, gt_records=len(gt)
    )
    return result


# --- artifact writing -------------------------------------------------------


@contextmanager
def atomic_writer(path):
    """Write a text file atomically: temp file in the same directory + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_table(path, header, table):
    """Write ``header`` and the rows of the float ``table`` as CSV, atomically.

    Each cell is the float's shortest round-trip repr, NaN empty ("nan" is in
    no other float's repr), and each line ends in csv's \r\n: the bytes
    csv.writer writes for those cells, so loading the file gives the floats back.
    """
    with atomic_writer(path) as fh:
        csv.writer(fh).writerow(header)
        for row in table:
            fh.write(",".join(map(repr, row.tolist())).replace("nan", "") + "\r\n")


def write_metrics_csv(path, t, att_err, pos_err, vel_err, truth_pos, est_pos, raw_pos):
    """Plot-ready per-timestamp error and track columns."""
    header = [
        "t",
        "att_err",
        "pos_err",
        "vel_err",
        "px_true",
        "py_true",
        "pz_true",
        "px_est",
        "py_est",
        "pz_est",
        "px_raw",
        "py_raw",
        "pz_raw",
    ]
    _write_table(path, header, np.column_stack([t, att_err, pos_err, vel_err, truth_pos, est_pos, raw_pos]))


def write_summary_json(path, summary: dict):
    """Strict JSON: non-finite floats, at any depth, are written as null."""

    def clean(v):
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, float) and not math.isfinite(v):
            return None
        return v

    with atomic_writer(path) as fh:
        json.dump(clean(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_dataset(result: SimResult, outdir) -> dict:
    """Write a sim run out as a replayable dataset.

    Emits imu.csv / uwb.csv / gt.csv / anchors.json in the canonical layout:
    imu.csv and uwb.csv are the run's ``imu`` and ``tdoa`` tables.  All floats
    are written in shortest round-trip form, so loading the files back gives
    those tables, and the in-memory run, bit for bit.
    """
    outdir = Path(outdir)
    paths = {
        "imu": outdir / "imu.csv",
        "uwb": outdir / "uwb.csv",
        "gt": outdir / "gt.csv",
        "anchors": outdir / "anchors.json",
    }
    _write_table(paths["imu"], ["t", "gx", "gy", "gz", "ax", "ay", "az", "mx", "my", "mz"], result.imu)
    anchors = result.scenario.anchors
    _write_table(paths["uwb"], ["t"] + [f"d{i + 1}" for i in range(anchors.n)], result.tdoa)
    gt = np.column_stack([result.t, _quaternions(result.truth_rot), result.truth_pos])
    _write_table(paths["gt"], ["t", "qw", "qx", "qy", "qz", "px", "py", "pz"], gt)
    payload = {"anchors": [{"id": a.id, "pos": [float(x) for x in a.pos]} for a in anchors.anchors]}
    with atomic_writer(paths["anchors"]) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return {k: str(v) for k, v in paths.items()}
