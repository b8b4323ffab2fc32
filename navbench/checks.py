"""Correctness checks for the benchmark's workloads, computed apart from uwbnav.

Everything here uses numpy and the standard library only: closed-form truth
for the figure-eight preset and for the observer stream's trajectory, a
metrics.csv reader, a strict JSON reader and one check function per
workload output.  Each check returns a list of problems; an empty list means
the output is correct.  The self-tests feed these functions corrupted
outputs to show that each check can fail.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Criterion 6's sensor set-up: gyro and accelerometer biases added to the
# synthesized IMU, and the CLI's default initial estimate.
GYRO_BIAS = (0.01, -0.02, 0.005)
ACCEL_BIAS = (0.1, -0.05, 0.2)
ESTIMATE_POS = np.array([-3.0, -1.0, 0.0])

# The figure-eight preset (uwbnav.sim._FigureEight defaults), written out again.
FIG8_CENTRE = np.array([1.237, 0.124, 1.534])
FIG8_AMPL = np.array([2.0, 1.5, 0.3])
FIG8_NU = 0.5
FIG8_YAW_RATE = 0.3

# Truth propagation is second-order accurate: its position error grows by
# about 5.7e-6 m per simulated second (1.6e-4 m after 30 s, 3.4e-4 m after
# 60 s at 100 Hz).  The tolerance allows twice that.
TRUTH_TOL_PER_S = 1.1e-5
# Largest gap between the Savitzky-Golay velocity replay derives from the
# ground truth and the exact velocity: 1.44e-3 m/s, at the window edges.
SG_VEL_TOL = 2.0e-3
# Replay must reproduce the exporting sim run's error series to this.
REPRODUCE_TOL = 1e-9
ORTHO_TOL = 1e-9


def figure8_position(t) -> np.ndarray:
    """Closed-form figure-eight position, shape (len(t), 3)."""
    t = np.asarray(t, dtype=float)
    s1 = np.sin(FIG8_NU * t)
    s2 = np.sin(2.0 * FIG8_NU * t)
    return FIG8_CENTRE + np.stack([FIG8_AMPL[0] * s1, FIG8_AMPL[1] * s2, FIG8_AMPL[2] * s1], axis=-1)


def yaw_rotation(psi) -> np.ndarray:
    """Rotations about z by the angles ``psi``, shape (len(psi), 3, 3)."""
    psi = np.asarray(psi, dtype=float)
    c, s = np.cos(psi), np.sin(psi)
    R = np.zeros(psi.shape + (3, 3))
    R[..., 0, 0], R[..., 0, 1] = c, -s
    R[..., 1, 0], R[..., 1, 1] = s, c
    R[..., 2, 2] = 1.0
    return R


def figure8_antenna(t, lever) -> np.ndarray:
    """Position of an antenna mounted at ``lever`` in the body frame."""
    R = yaw_rotation(FIG8_YAW_RATE * np.asarray(t, dtype=float))
    return figure8_position(t) + R @ np.asarray(lever, dtype=float)


class Helix:
    """The observer stream's trajectory: a climbing-and-sinking circle with yaw.

    Position, velocity, acceleration and attitude are all closed form, so the
    stream needs no simulator.
    """

    centre = np.array([0.3, -0.2, 1.4])
    radius = 1.8
    rate = 0.4
    z_ampl = 0.25
    z_rate = 0.8
    yaw_rate = 0.25
    gravity = np.array([0.0, 0.0, -9.8])
    mag_ref = np.array([-1.7, 0.0, 1.2])

    def position(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        a = self.rate * t
        return self.centre + np.stack(
            [self.radius * np.cos(a), self.radius * np.sin(a), self.z_ampl * np.sin(self.z_rate * t)],
            axis=-1,
        )

    def velocity(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        a = self.rate * t
        return np.stack(
            [
                -self.radius * self.rate * np.sin(a),
                self.radius * self.rate * np.cos(a),
                self.z_ampl * self.z_rate * np.cos(self.z_rate * t),
            ],
            axis=-1,
        )

    def acceleration(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        a = self.rate * t
        w2 = self.rate**2
        return np.stack(
            [
                -self.radius * w2 * np.cos(a),
                -self.radius * w2 * np.sin(a),
                -self.z_ampl * self.z_rate**2 * np.sin(self.z_rate * t),
            ],
            axis=-1,
        )

    def rotation(self, t) -> np.ndarray:
        return yaw_rotation(self.yaw_rate * np.asarray(t, dtype=float))


# --- reading the program's artifacts ---------------------------------------


def read_metrics_csv(path) -> dict:
    """metrics.csv as a dict of float columns; empty cells read as NaN."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) if v else math.nan for v in row] for row in reader]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON the way strict parsers do: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def att_degrees(att_dist) -> np.ndarray:
    """Rotation angle (deg) from the attitude distance (1 - cos theta) / 2."""
    return np.degrees(2.0 * np.arcsin(np.sqrt(np.clip(att_dist, 0.0, 1.0))))


def rms(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(np.mean(x * x)))


def steady_state(t, att_dist, pos_err, vel_err, duration) -> dict:
    """RMS errors over the last third of a run (t >= 2/3 of its duration)."""
    ss = np.asarray(t) >= (2.0 / 3.0) * duration
    return {
        "ss_pos_rms_m": rms(pos_err[ss]),
        "ss_vel_rms_mps": rms(vel_err[ss]),
        "ss_att_rms_deg": rms(att_degrees(att_dist[ss])),
    }


def log_error_slope(t, total, t_end) -> float:
    """Least-squares slope of log(total error) over t <= t_end."""
    t = np.asarray(t, dtype=float)
    total = np.asarray(total, dtype=float)
    mask = (t <= t_end) & (total > 0.0)
    if np.count_nonzero(mask) < 2:
        return math.nan
    return float(np.polyfit(t[mask], np.log(total[mask]), 1)[0])


def decay_problems(t, att_dist, pos_err, vel_err, duration) -> list:
    """The error must shrink: negative log-slope over the first half, and a
    steady-state position error below the initial one."""
    problems = []
    slope = log_error_slope(t, att_dist + pos_err + vel_err, 0.5 * duration)
    if not slope < 0.0:
        problems.append(f"log-error slope {slope} is not negative")
    ss = steady_state(t, att_dist, pos_err, vel_err, duration)["ss_pos_rms_m"]
    if not ss < pos_err[0]:
        problems.append(f"steady-state position error {ss} is not below the initial {pos_err[0]}")
    return problems


# --- per-workload checks ----------------------------------------------------


def check_sim_seed(cols: dict, summary: dict, duration: float) -> list:
    """One seed of ``uwbnav sim --scenario figure8``: its metrics.csv and summary."""
    problems = []
    t = cols["t"]
    n = int(round(duration * 100.0))
    if t.shape != (n + 1,) or np.max(np.abs(t - np.arange(n + 1) / 100.0)) > 1e-12:
        return [f"time column is not the {n + 1} samples of a {duration} s run at 100 Hz"]
    truth = np.stack([cols["px_true"], cols["py_true"], cols["pz_true"]], axis=1)
    est = np.stack([cols["px_est"], cols["py_est"], cols["pz_est"]], axis=1)
    raw = np.stack([cols["px_raw"], cols["py_raw"], cols["pz_raw"]], axis=1)
    truth_err = float(np.max(np.linalg.norm(truth - figure8_position(t), axis=1)))
    if not truth_err <= TRUTH_TOL_PER_S * duration:
        problems.append(f"truth is {truth_err:.3e} m from the closed-form figure eight")
    pos_err = np.linalg.norm(truth - est, axis=1)
    if not np.max(np.abs(pos_err - cols["pos_err"])) <= REPRODUCE_TOL:
        problems.append("pos_err does not equal |truth - estimate|")
    initial = float(np.linalg.norm(FIG8_CENTRE - ESTIMATE_POS))
    if not abs(cols["pos_err"][0] - initial) <= 1e-9:
        problems.append(f"initial error {cols['pos_err'][0]} is not |centre - estimate| = {initial}")
    problems += decay_problems(t, cols["att_err"], cols["pos_err"], cols["vel_err"], duration)
    frames = int(round(duration * 10.0))  # 10 Hz TDOA
    fixes = int(np.count_nonzero(np.all(np.isfinite(raw), axis=1)))
    if fixes != frames:
        problems.append(f"{fixes} TDOA fixes in metrics.csv, expected {frames}")
    if summary.get("tdoa_frames") != frames:
        problems.append(f"summary reports {summary.get('tdoa_frames')} frames, expected {frames}")
    if summary.get("tdoa_failures") != 0 or summary.get("triad_failures") != 0:
        problems.append(
            f"failures: tdoa {summary.get('tdoa_failures')}, triad {summary.get('triad_failures')}"
        )
    return problems


def check_replay(cols: dict, summary: dict, reference: dict, duration: float) -> list:
    """``uwbnav replay`` of an exported sim run against that run's own series."""
    problems = []
    t = cols["t"]
    if t.shape != reference["t"].shape or np.any(t != reference["t"]):
        return ["replay timeline differs from the exported run's"]
    for name in ("pos_err", "att_err"):
        diff = float(np.max(np.abs(cols[name] - reference[name])))
        if not diff <= REPRODUCE_TOL:
            problems.append(f"{name} differs from the exporting sim run by {diff:.3e}")
    truth = np.stack([cols["px_true"], cols["py_true"], cols["pz_true"]], axis=1)
    truth_err = float(np.max(np.linalg.norm(truth - figure8_position(t), axis=1)))
    if not truth_err <= TRUTH_TOL_PER_S * duration:
        problems.append(f"interpolated truth is {truth_err:.3e} m from the closed form")
    # |vel_err_replay - vel_err_sim| <= |v_derived - v_true| by the triangle
    # inequality, so this bounds the derived velocity's error.
    vel_gap = float(np.max(np.abs(cols["vel_err"] - reference["vel_err"])))
    if not vel_gap <= SG_VEL_TOL:
        problems.append(f"derived velocity is off by at least {vel_gap:.3e} m/s")
    raw = np.stack([cols["px_raw"], cols["py_raw"], cols["pz_raw"]], axis=1)
    fixes = int(np.count_nonzero(np.all(np.isfinite(raw), axis=1)))
    frames = int(round(duration * 10.0))
    if fixes != frames:
        problems.append(f"{fixes} fixes in metrics.csv, expected {frames}")
    expected = {
        "steps": len(t) - 1,
        "skipped_steps": 0,
        "tdoa_frames": frames,
        "dropped_tdoa_frames": 0,
        "tdoa_failures": 0,
        "triad_failures": 0,
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"summary {key} = {summary.get(key)}, expected {value}")
    return problems


def stream_error_series(R, P, V, R_true, P_true, V_true):
    """Attitude distance, position and velocity error of a stream's estimates."""
    att = 0.25 * (3.0 - np.einsum("kij,kij->k", R_true, R))
    return att, np.linalg.norm(P_true - P, axis=1), np.linalg.norm(V_true - V, axis=1)


def check_stream(t, R, P, V, R_true, P_true, V_true, failures: dict, duration: float) -> list:
    """An observer stream: rotations orthonormal, state finite, error decaying."""
    problems = []
    if not (np.all(np.isfinite(R)) and np.all(np.isfinite(P)) and np.all(np.isfinite(V))):
        return ["estimate is not finite"]
    ortho = float(np.max(np.linalg.norm(np.swapaxes(R, 1, 2) @ R - np.eye(3), axis=(1, 2))))
    if not ortho <= ORTHO_TOL:
        problems.append(f"|R^T R - I| reaches {ortho:.3e}")
    for name, count in failures.items():
        if count != 0:
            problems.append(f"{count} {name} failures")
    att, pos, vel = stream_error_series(R, P, V, R_true, P_true, V_true)
    problems += decay_problems(t, att, pos, vel, duration)
    return problems
