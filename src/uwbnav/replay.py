"""Dataset ingestion, ground-truth benchmarks, and observer replay.

A recorded trial arrives as three CSV streams — IMU, UWB, and ground truth —
plus an anchor JSON file.  This module loads each stream in time order, derives
a benchmark velocity from the ground-truth positions (local least-squares
polynomial differentiation), runs the observer sample-by-sample, and reports
the same error metrics and summary statistics as the simulator, so synthetic
and recorded runs are directly comparable.  ``run_replay`` interpolates the
truth once, maps the frames onto steps and builds the samples before the
loop; the loop itself is ``observer._run_stream``, the one ``sim`` uses, and
the errors come after it from the estimate arrays, NaN outside the truth
range.

File formats (canonical column names; remap via ``column_map``):

* ``imu.csv``: t, gx, gy, gz, ax, ay, az [, mx, my, mz]
* ``uwb.csv``: t, then N difference (or raw range) columns in anchor order
* ``gt.csv``:  t, qw, qx, qy, qz, px, py, pz
* ``anchors.json``: {"anchors": [{"id": ..., "pos": [x, y, z]}, ...]}

When the magnetometer columns are absent, measurements are synthesized from
the interpolated ground-truth attitude (deterministically, from the seed).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation as _SpRotation
from scipy.spatial.transform import Slerp

from .liegroup import Rotation
from .observer import Gains, ObserverState, _nav_errors, _norms, _run_stream, step
from .sensors import ImuSample, ReferenceVectors
from .sim import SimResult, error_summary
from .tdoa import TdoaFrame
from .tdoa import solve_frame  # noqa: F401  _run_stream solves the frames; navbench traces this name

__all__ = [
    "ConfigError",
    "DataError",
    "GroundTruthRecord",
    "LoadReport",
    "LoadedDataset",
    "ReplayResult",
    "load_dataset",
    "quat_to_rotation",
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
_STREAM_MAG = 2  # rng stream tag for synthesized magnetometer noise
_VELOCITY_CHUNK = 512  # samples per batch of local fits in derive_velocity (bounds memory)


class ConfigError(Exception):
    """The run is misconfigured (missing files/columns, mismatched anchors)."""


class DataError(Exception):
    """The dataset content is unusable (empty stream, degenerate records)."""


@dataclass(frozen=True)
class GroundTruthRecord:
    """One ground-truth pose sample: unit quaternion (w, x, y, z) and position."""

    timestamp: float
    quat: np.ndarray
    pos: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float).reshape(-1)
        p = np.asarray(self.pos, dtype=float).reshape(-1)
        if q.shape != (4,):
            raise ValueError(f"quat must have 4 components, got shape {q.shape}")
        if p.shape != (3,):
            raise ValueError(f"pos must have 3 components, got shape {p.shape}")
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(p)):
            raise ValueError("ground-truth record contains non-finite values")
        if abs(np.linalg.norm(q) - 1.0) > _QUAT_NORM_TOL:
            raise ValueError(f"quaternion norm {np.linalg.norm(q):.8f} is not 1 +/- {_QUAT_NORM_TOL}")
        object.__setattr__(self, "quat", q)
        object.__setattr__(self, "pos", p)


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


@dataclass
class LoadedDataset:
    """The three streams, each sorted by time, plus the ingestion report.

    ``imu`` holds ImuSamples, ``tdoa`` TdoaFrames and ``gt`` GroundTruthRecords
    (empty when no ground-truth file was given).
    """

    imu: list
    tdoa: list
    gt: list
    report: LoadReport
    has_mag: bool
    n_uwb_values: int


DEFAULT_COLUMN_MAP = {
    "imu": {c: c for c in ("t", "gx", "gy", "gz", "ax", "ay", "az", "mx", "my", "mz")},
    "uwb": {"t": "t", "values": None, "mode": "diff"},
    "gt": {c: c for c in ("t", "qw", "qx", "qy", "qz", "px", "py", "pz")},
}


def _merge_column_map(column_map: dict | None) -> dict:
    merged = {k: dict(v) for k, v in DEFAULT_COLUMN_MAP.items()}
    for stream, mapping in (column_map or {}).items():
        if stream not in merged:
            raise ConfigError(f"column_map refers to unknown stream {stream!r}")
        for key, val in mapping.items():
            if key not in merged[stream]:
                raise ConfigError(f"column_map[{stream!r}] has unknown key {key!r}")
            merged[stream][key] = val
    if merged["uwb"]["mode"] not in ("diff", "range"):
        raise ConfigError(f"uwb mode must be 'diff' or 'range', got {merged['uwb']['mode']!r}")
    return merged


def _read_rows(path) -> tuple[list, list]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows = list(reader)
    return header, rows


def _column_indices(header, names, path, *, required=True):
    indices = []
    for name in names:
        if name not in header:
            if required:
                raise ConfigError(f"{Path(path).name}: missing required column {name!r}")
            return None
        indices.append(header.index(name))
    return indices


def _parse_stream(path, header, rows, indices, builder, stream, report):
    """Parse rows into records, skipping and logging malformed ones."""
    records = []
    skipped = 0
    for row_no, row in enumerate(rows, start=2):  # header is line 1
        try:
            values = [float(row[i]) for i in indices]
            if not all(math.isfinite(v) for v in values):
                raise ValueError("non-finite value")
            records.append(builder(values))
        except (ValueError, IndexError) as exc:
            skipped += 1
            report.skipped_rows.append(f"{Path(path).name} row {row_no}: {exc}")
    report.rows_read[stream] = len(rows)
    report.rows_skipped[stream] = skipped
    times = np.array([r.timestamp for r in records])
    report.reordered[stream] = int(np.sum(np.diff(times) < 0)) if len(times) > 1 else 0
    order = np.argsort(times, kind="stable")
    return [records[i] for i in order]


def load_dataset(paths: dict, column_map: dict | None = None) -> LoadedDataset:
    """Load imu/uwb/gt CSV files into three time-sorted streams.

    ``paths`` maps stream names ("imu", "uwb", "gt") to file paths; "gt" is
    optional at load time (replay will refuse to run without it).  Malformed
    rows are skipped and counted in the report rather than aborting the load.
    """
    cmap = _merge_column_map(column_map)
    if "imu" not in paths or "uwb" not in paths:
        raise ConfigError("paths must include 'imu' and 'uwb'")
    report = LoadReport()

    imu_map = cmap["imu"]
    header, rows = _read_rows(paths["imu"])
    base = [imu_map[c] for c in ("t", "gx", "gy", "gz", "ax", "ay", "az")]
    idx = _column_indices(header, base, paths["imu"])
    mag_names = [imu_map[c] for c in ("mx", "my", "mz")]
    mag_idx = _column_indices(header, mag_names, paths["imu"], required=False)
    n_mag_present = sum(name in header for name in mag_names)
    if 0 < n_mag_present < 3:
        raise ConfigError(f"{Path(paths['imu']).name}: magnetometer columns incomplete")
    has_mag = mag_idx is not None
    all_idx = idx + (mag_idx or [])

    def build_imu(v):
        mag = np.array(v[7:10]) if len(v) == 10 else None
        return ImuSample(timestamp=v[0], gyro=np.array(v[1:4]), accel=np.array(v[4:7]), mag=mag)

    imu = _parse_stream(paths["imu"], header, rows, all_idx, build_imu, "imu", report)

    uwb_map = cmap["uwb"]
    header, rows = _read_rows(paths["uwb"])
    t_idx = _column_indices(header, [uwb_map["t"]], paths["uwb"])
    value_names = uwb_map["values"]
    if value_names is None:
        value_names = [h for h in header if h != uwb_map["t"]]
    if not value_names:
        raise ConfigError(f"{Path(paths['uwb']).name}: no UWB value columns")
    val_idx = _column_indices(header, value_names, paths["uwb"])
    as_ranges = uwb_map["mode"] == "range"

    def build_uwb(v):
        d = np.array(v[1:])
        if as_ranges:
            d = np.roll(d, -1) - d  # cyclic pairwise differences r[k+1] - r[k]
        return TdoaFrame(timestamp=v[0], d=d)

    tdoa = _parse_stream(paths["uwb"], header, rows, t_idx + val_idx, build_uwb, "uwb", report)

    gt = []
    if "gt" in paths:
        gt_map = cmap["gt"]
        header, rows = _read_rows(paths["gt"])
        names = [gt_map[c] for c in ("t", "qw", "qx", "qy", "qz", "px", "py", "pz")]
        idx = _column_indices(header, names, paths["gt"])

        def build_gt(v):
            return GroundTruthRecord(timestamp=v[0], quat=np.array(v[1:5]), pos=np.array(v[5:8]))

        gt = _parse_stream(paths["gt"], header, rows, idx, build_gt, "gt", report)

    if not (imu or tdoa or gt):
        raise DataError("dataset contains no usable rows")
    return LoadedDataset(
        imu=imu, tdoa=tdoa, gt=gt, report=report, has_mag=has_mag, n_uwb_values=len(value_names)
    )


def quat_to_rotation(q) -> Rotation:
    """Convert a Hamilton (w, x, y, z) quaternion to a rotation matrix."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (4,):
        raise ValueError(f"quaternion must have 4 components, got shape {q.shape}")
    norm = np.linalg.norm(q)
    if not np.isfinite(norm) or norm < 1e-8:
        raise DataError(f"quaternion norm {norm} too small to normalize")
    w, x, y, z = q / norm
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return Rotation(m)


def rotation_to_quat(R) -> np.ndarray:
    """Convert a rotation matrix to a unit Hamilton (w, x, y, z) quaternion, w >= 0."""
    m = R.m if isinstance(R, Rotation) else np.asarray(R, dtype=float)
    # Shepperd's method: pick the largest of (trace, m00, m11, m22) for stability.
    tr = np.trace(m)
    if tr >= max(m[0, 0], m[1, 1], m[2, 2]):
        s = math.sqrt(max(tr + 1.0, 0.0)) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= max(m[1, 1], m[2, 2]):
        s = math.sqrt(max(1.0 + m[0, 0] - m[1, 1] - m[2, 2], 0.0)) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(max(1.0 + m[1, 1] - m[0, 0] - m[2, 2], 0.0)) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(max(1.0 + m[2, 2] - m[0, 0] - m[1, 1], 0.0)) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    q /= np.linalg.norm(q)
    return q if q[0] >= 0.0 else -q


def derive_velocity(gt_records, window: int = 11, poly_order: int = 2) -> np.ndarray:
    """Benchmark velocity from ground-truth positions.

    Each point gets the derivative of a local least-squares polynomial fit
    (the Gaussian-noise maximum-likelihood smoother) over ``window`` samples
    centred on it; within half a window of either end the window is clamped
    to the first or last ``window`` samples.  On uniform timestamps this is
    the Savitzky-Golay derivative with ``mode="interp"``; the timestamps need
    not be uniform.  Exact on position series that are polynomials of degree
    <= poly_order.
    """
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be an odd integer >= 3, got {window}")
    if window < poly_order + 2:
        raise ValueError(f"window {window} too small for poly_order {poly_order}")
    t = np.array([r.timestamp for r in gt_records], dtype=float)
    pos = np.array([r.pos for r in gt_records], dtype=float)
    n = len(t)
    if n < window:
        raise DataError(f"need at least {window} ground-truth samples, got {n}")
    if np.any(np.diff(t) <= 0.0):
        raise DataError("ground-truth timestamps must be strictly increasing")
    lo = np.clip(np.arange(n) - window // 2, 0, n - window)
    powers = np.arange(poly_order + 1)
    vel = np.empty_like(pos)
    for start in range(0, n, _VELOCITY_CHUNK):
        i = np.arange(start, min(start + _VELOCITY_CHUNK, n))
        idx = lo[i, None] + np.arange(window)
        span = t[idx[:, -1]] - t[idx[:, 0]]
        # Vandermonde rows in the local time (t - t_i) / span, one matrix per
        # sample; row 1 of its pseudo-inverse maps the window's positions to
        # the fitted slope at t_i.
        local = (t[idx] - t[i, None]) / span[:, None]
        slope = np.linalg.pinv(local[..., None] ** powers)[:, 1, :] / span[:, None]
        vel[i] = np.einsum("mw,mwk->mk", slope, pos[idx])
    return vel


@dataclass
class ReplayResult:
    """Per-timestamp error metrics and summary for one replayed trial.

    Arrays align with the IMU timeline (row 0 = initial state); rows outside
    the ground-truth time range, or steps without a TDOA fix in the raw
    columns, hold NaN.
    """

    t: np.ndarray
    att_err: np.ndarray
    pos_err: np.ndarray
    vel_err: np.ndarray
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    est_pos: np.ndarray
    est_vel: np.ndarray
    raw_pos: np.ndarray
    raw_err: np.ndarray
    final_state: ObserverState
    summary: dict = field(default_factory=dict)


def _interpolate_truth(gt_records, t, window: int, poly_order: int):
    """Attitude/position/velocity benchmark at the times ``t``.

    Attitude uses spherical linear interpolation, position and the derived
    velocity are linear.  Rows outside the ground-truth time range hold NaN —
    the benchmark never extrapolates.  Returns (inside, rot, pos, vel).
    """
    if len(gt_records) < 2:
        raise DataError("need at least 2 ground-truth records")
    t_gt = np.array([r.timestamp for r in gt_records])
    pos_gt = np.array([r.pos for r in gt_records])
    vel_gt = derive_velocity(gt_records, window, poly_order)
    inside = (t >= t_gt[0]) & (t <= t_gt[-1])
    rot = np.full((len(t), 3, 3), np.nan)
    pos = np.full((len(t), 3), np.nan)
    vel = np.full((len(t), 3), np.nan)
    if inside.any():
        quats_wxyz = np.array([r.quat for r in gt_records])
        slerp = Slerp(t_gt, _SpRotation.from_quat(quats_wxyz[:, [1, 2, 3, 0]]))
        rot[inside] = slerp(t[inside]).as_matrix()
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
    velocity_window: int = 11,
    velocity_poly_order: int = 2,
    settle_threshold: float = 0.5,
    settle_dwell: float = 5.0,
) -> ReplayResult:
    """Replay the observer over a loaded dataset against its ground truth.

    TDOA frames are consumed by the IMU step whose timestamp is closest at or
    before them; when several frames land in one step the last wins.  When the
    dataset has no magnetometer, one is synthesized from the interpolated
    ground-truth attitude with noise `mag_noise_sd` (draws keyed by the seed
    and sample index, so the replay is deterministic).
    """
    ref = ReferenceVectors() if ref is None else ref
    tag_offset = np.asarray(tag_offset, dtype=float)
    imu, tdoa, gt = dataset.imu, dataset.tdoa, dataset.gt
    if len(imu) < 2:
        raise DataError(f"need at least 2 IMU samples to step, got {len(imu)}")
    if not gt:
        raise DataError("dataset has no ground-truth stream")
    if tdoa and tdoa[0].d.shape[0] != anchors.n:
        raise ConfigError(
            f"dataset provides {tdoa[0].d.shape[0]} TDOA values but anchor set has {anchors.n}"
        )
    t_imu = np.array([s.timestamp for s in imu])
    inside, truth_rot, truth_pos, truth_vel = _interpolate_truth(
        gt, t_imu, velocity_window, velocity_poly_order
    )
    n_steps = len(imu) - 1
    # Map each TDOA frame onto the step that starts at or just before it.
    frame_for_step: dict = {}
    dropped_frames = 0
    for fr in tdoa:
        k = int(np.searchsorted(t_imu, fr.timestamp, side="right")) - 1
        if 0 <= k < n_steps:
            if k in frame_for_step:
                dropped_frames += 1
            frame_for_step[k] = fr
        else:
            dropped_frames += 1

    # The magnetometer, when the file has none, is synthesised from the
    # interpolated truth attitude inside the truth range.
    samples = imu[:n_steps]
    if not dataset.has_mag:
        for k in np.flatnonzero(inside[:n_steps]).tolist():
            mag = truth_rot[k].T @ ref.mag_ref
            if mag_noise_sd > 0.0:
                rng = np.random.default_rng((int(seed), _STREAM_MAG, k))
                mag = mag + rng.normal(0.0, mag_noise_sd, 3)
            s = samples[k]
            samples[k] = ImuSample(s.timestamp, s.gyro, s.accel, mag)

    state, skipped_steps, (R, P, V, _, _, raw_pos) = _run_stream(
        init, samples, frame_for_step, anchors, gains, np.diff(t_imu).tolist(), ref=ref, step=step
    )
    att, pos, vel = _nav_errors(truth_rot, truth_pos, truth_vel, R, P, V)
    raw_err = _norms(raw_pos - truth_pos)

    duration = float(t_imu[-1] - t_imu[0])
    summary = {
        "duration": duration,
        "steps": n_steps,
        "skipped_steps": skipped_steps,
        "imu_samples": len(imu),
        "tdoa_frames": len(tdoa),
        "dropped_tdoa_frames": dropped_frames,
        "gt_records": len(gt),
        **error_summary(t_imu, att, pos, vel, raw_err, duration, settle_threshold, settle_dwell),
        "tdoa_failures": state.tdoa_failures,
        "triad_failures": state.triad_failures,
    }
    return ReplayResult(
        t=t_imu,
        att_err=att,
        pos_err=pos,
        vel_err=vel,
        truth_pos=truth_pos,
        truth_vel=truth_vel,
        est_pos=P,
        est_vel=V,
        raw_pos=raw_pos,
        raw_err=raw_err,
        final_state=state,
        summary=summary,
    )


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


def _fmt(x) -> str:
    """Shortest exact decimal for a float (round-trips bit-for-bit); NaN -> ''."""
    x = float(x)
    return "" if math.isnan(x) else repr(x)


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
    table = np.column_stack([t, att_err, pos_err, vel_err, truth_pos, est_pos, raw_pos])
    with atomic_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        # Row by row, as _fmt writes each cell: shortest round-trip repr, NaN empty.
        for row in table:
            w.writerow(["" if math.isnan(x) else repr(x) for x in row.tolist()])


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

    Emits imu.csv / uwb.csv / gt.csv / anchors.json in the canonical layout.
    All floats are written in shortest round-trip form, so loading the files
    back reproduces the in-memory run bit-for-bit.
    """
    outdir = Path(outdir)
    paths = {
        "imu": outdir / "imu.csv",
        "uwb": outdir / "uwb.csv",
        "gt": outdir / "gt.csv",
        "anchors": outdir / "anchors.json",
    }
    with atomic_writer(paths["imu"]) as fh:
        w = csv.writer(fh)
        w.writerow(["t", "gx", "gy", "gz", "ax", "ay", "az", "mx", "my", "mz"])
        for s in result.imu:
            row = [s.timestamp, *s.gyro, *s.accel]
            row.extend(s.mag if s.mag is not None else [np.nan] * 3)
            w.writerow([_fmt(v) for v in row])
    n = result.scenario.anchors.n
    with atomic_writer(paths["uwb"]) as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"d{i + 1}" for i in range(n)])
        for k in sorted(result.frames):
            fr = result.frames[k]
            w.writerow([_fmt(v) for v in (fr.timestamp, *fr.d)])
    with atomic_writer(paths["gt"]) as fh:
        w = csv.writer(fh)
        w.writerow(["t", "qw", "qx", "qy", "qz", "px", "py", "pz"])
        for k in range(len(result.t)):
            q = rotation_to_quat(result.truth_rot[k])
            w.writerow([_fmt(v) for v in (result.t[k], *q, *result.truth_pos[k])])
    anchors = result.scenario.anchors
    payload = {"anchors": [{"id": a.id, "pos": [float(x) for x in a.pos]} for a in anchors.anchors]}
    with atomic_writer(paths["anchors"]) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return {k: str(v) for k, v in paths.items()}
