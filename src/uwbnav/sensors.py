"""IMU measurement types, vector-triad construction, and the attitude innovation.

The attitude correction is driven by pairing unit vectors measured in the
body frame (normalized accelerometer and magnetometer, plus their cross
product) with the corresponding known inertial directions (normalized
gravity and earth-field references).  The misalignment signal

    sum_i s_i (v_i x vhat_i),    vhat_i = Rhat^T r_i

equals, in matrix form, 2 vex(Pa(M_r Rtilde)) rotated into the body frame,
where M_r = sum_i s_i r_i r_i^T and Rtilde = R Rhat^T.  Both computations are
provided and cross-checked in the tests.

The body rows v_1, v_2, v_3 of one sample are ``_body_rows``' nine floats,
which ``build_triads`` and ``observer.step`` use; ``_body_rows_table`` forms
them for a whole stream at once, bit for bit, and ``sim._run_and_score``
hands each step its sample's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liegroup import _ZERO3, _as_vec3, _norms, _trusted

__all__ = [
    "ImuSample",
    "ReferenceVectors",
    "TriadPair",
    "TriadDegenerate",
    "build_triads",
    "weighted_matrix",
    "predicted_body_vectors",
    "attitude_innovation",
]

# ||v1 x v2|| at or below this is treated as collinear (the triad construction
# divides by it).
COLLINEARITY_TOL = 1e-6

_UNIT_WEIGHTS = np.ones(3)
_UNIT_WEIGHTS.setflags(write=False)


class TriadDegenerate(Exception):
    """Measurements cannot form a non-collinear triad."""


@dataclass(frozen=True, eq=False)
class ImuSample:
    """One IMU epoch: body-frame angular rate, specific force, magnetic field.

    ``mag`` may be None for datasets without a magnetometer; the replay layer
    synthesizes one from ground truth in that case.
    """

    timestamp: float
    gyro: np.ndarray
    accel: np.ndarray
    mag: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "timestamp", float(self.timestamp))
        object.__setattr__(self, "gyro", _as_vec3(self.gyro, "gyro"))
        object.__setattr__(self, "accel", _as_vec3(self.accel, "accel"))
        if self.mag is not None:
            object.__setattr__(self, "mag", _as_vec3(self.mag, "mag"))


@dataclass(frozen=True, eq=False)
class ReferenceVectors:
    """Known inertial-frame directions: gravity and the local magnetic field.

    ``triad`` holds the reference rows r_1..r_3 that :func:`build_triads`
    pairs with every measurement, computed once here.
    """

    gravity: np.ndarray = (0.0, 0.0, -9.8)
    mag_ref: np.ndarray = (-1.7, 0.0, 1.2)

    def __post_init__(self):
        # Own copies, frozen with the cached triad below.
        g = _as_vec3(self.gravity, "gravity").copy()
        m = _as_vec3(self.mag_ref, "mag_ref").copy()
        if np.linalg.norm(g) <= 1e-12:
            raise ValueError("gravity reference must be nonzero")
        if np.linalg.norm(m) <= 1e-12:
            raise ValueError("magnetic reference must be nonzero")
        cross = np.cross(g / np.linalg.norm(g), m / np.linalg.norm(m))
        if np.linalg.norm(cross) <= COLLINEARITY_TOL:
            raise ValueError("magnetic reference is parallel to gravity")
        object.__setattr__(self, "gravity", g)
        object.__setattr__(self, "mag_ref", m)
        # The reference triad r1 = -g/||g||, r2 = m/||m||, r3 = r1 x r2 / ||.||
        # that every build_triads call pairs with its measurement.
        r1 = -g / np.linalg.norm(g)
        r2 = m / np.linalg.norm(m)
        cr = np.cross(r1, r2)
        r = np.array([r1, r2, cr / np.linalg.norm(cr)])
        _check_unit_rows("r", r.tolist())  # TriadPair's check, for every triad built on r
        for arr in (g, m, r):
            arr.setflags(write=False)
        object.__setattr__(self, "triad", r)


@dataclass(frozen=True, eq=False)
class TriadPair:
    """Three matched unit vectors in body (v) and inertial (r) frames.

    ``v`` and ``r`` are (3, 3) arrays whose rows are v_1..v_3 / r_1..r_3;
    ``s`` holds the per-pair confidence weights, constrained to sum to 3.
    """

    v: np.ndarray
    r: np.ndarray
    s: np.ndarray = (1.0, 1.0, 1.0)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if v.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("v and r must be (3, 3) arrays of row vectors")
        s = _check_weights(self.s)
        v1, v2, v3 = v_rows = v.tolist()
        _check_unit_rows("v", v_rows)
        for vi in (v1, v2):
            if abs(v3[0] * vi[0] + v3[1] * vi[1] + v3[2] * vi[2]) > 1e-9:
                raise ValueError("v3 must be orthogonal to v1 and v2")
        _check_unit_rows("r", r.tolist())
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)


def _check_weights(s) -> np.ndarray:
    """TriadPair's weights s as a float array, checked: three finite non-negative numbers summing to 3."""
    s = np.asarray(s, dtype=float).reshape(-1)
    weights = s.tolist()
    # NaN fails every ">=" and inf fails the finite sum.
    w_ok = len(weights) == 3 and weights[0] >= 0.0 and weights[1] >= 0.0 and weights[2] >= 0.0
    if not (w_ok and math.isfinite(sum(weights))):
        raise ValueError(f"s must be 3 finite nonnegative weights, got {weights}")
    total = weights[0] + weights[1] + weights[2]
    if abs(total - 3.0) > 1e-9:
        raise ValueError(f"confidence weights must sum to 3, got {total}")
    return s


def _check_unit_rows(name: str, rows):
    for x, y, z in rows:
        if abs(math.sqrt(x * x + y * y + z * z) - 1.0) > 1e-12:
            norms = [math.sqrt(x * x + y * y + z * z) for x, y, z in rows]
            raise ValueError(f"{name} rows must be unit vectors (norms {norms})")


def build_triads(sample: ImuSample, ref: ReferenceVectors, s=None) -> TriadPair:
    """Form the measured/reference vector triads for one IMU sample.

    v1 is the normalized specific force (at low frequency the accelerometer
    points opposite gravity), paired with r1 = -g/||g||; v2 is the normalized
    magnetometer reading, paired with the normalized field reference; the
    third pair is the normalized cross product of the first two.

    Raises
    ------
    ValueError
        If the weights ``s`` are invalid; they are checked before the sample.
    TriadDegenerate
        If the accelerometer or magnetometer norm is ~0, the magnetometer is
        missing, or v1 and v2 are collinear (cross-product norm <= 1e-6).
    """
    # Only the weights come from the caller: ref.triad was checked once, when made.
    s = _UNIT_WEIGHTS if s is None else _check_weights(s)
    v = np.array(_body_rows(sample)).reshape(3, 3)
    return _trusted(TriadPair, v=v, r=ref.triad, s=s)


def _body_rows(sample: ImuSample) -> tuple:
    """``build_triads``' body rows v1, v2, v3 as nine floats, or TriadDegenerate.

    Unit, and v3 orthogonal to v1 and v2, by construction: within TriadPair's
    tolerances even next to the collinearity bound."""
    if sample.mag is None:
        raise TriadDegenerate("sample has no magnetometer reading")
    accel, mag = sample.accel, sample.mag
    na = math.sqrt(accel.dot(accel))
    nm = math.sqrt(mag.dot(mag))
    if na <= 1e-9 or nm <= 1e-9:
        raise TriadDegenerate(f"accel/mag norm too small ({na:.2e}, {nm:.2e})")
    a0, a1, a2 = accel.tolist()
    m0, m1, m2 = mag.tolist()
    v1 = (a0 / na, a1 / na, a2 / na)
    v2 = (m0 / nm, m1 / nm, m2 / nm)
    c0, c1, c2 = cv = _cross(v1, v2)
    cva = np.array(cv)
    ncv = math.sqrt(cva.dot(cva))
    if ncv <= COLLINEARITY_TOL:
        raise TriadDegenerate(f"accel and mag are collinear (cross norm {ncv:.2e})")
    return (*v1, *v2, c0 / ncv, c1 / ncv, c2 / ncv)


def _body_rows_table(accel, mags) -> tuple:
    """``_body_rows`` of every sample of a stream at once: an (n, 9) array and n flags.

    ``accel`` is an (n, 3) array; ``mags`` an (n, 3) array, or a sequence of
    3-vectors with None for a sample without a magnetometer.  Row k holds
    ``_body_rows``' nine floats for sample k, bit for bit, where flag k is
    True; a False flag marks a sample for which ``_body_rows`` raises
    TriadDegenerate (its row is then meaningless).  The operations are
    ``_body_rows``' own: each norm is one BLAS dot product of the row with
    itself (``_norms``), then the elementwise divisions and the ``_cross``
    expression, and the same ``<=`` tests, so a NaN norm passes them as it
    does there.  A missing magnetometer stands as a zero row, which the norm
    test refuses.
    """
    if not isinstance(mags, np.ndarray):
        mags = np.array([_ZERO3 if m is None else m for m in mags], dtype=float).reshape(-1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        na, nm = _norms(accel), _norms(mags)
        v1, v2 = accel / na[:, None], mags / nm[:, None]
        cv = np.stack(_cross(v1.T, v2.T), axis=1)
        ncv = _norms(cv)
        rows = np.concatenate((v1, v2, cv / ncv[:, None]), axis=1)
    degenerate = (na <= 1e-9) | (nm <= 1e-9) | (ncv <= COLLINEARITY_TOL)
    return rows, (~degenerate).tolist()


def _cross(a, b) -> tuple:
    """a x b for two 3-sequences of floats, with the operations of ``np.cross``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def weighted_matrix(triads: TriadPair) -> np.ndarray:
    """Inertial-frame confidence matrix M_r = sum_i s_i r_i r_i^T."""
    r = triads.r
    return (triads.s[:, None] * r).T @ r


def predicted_body_vectors(Rhat: np.ndarray, triads: TriadPair) -> np.ndarray:
    """Rows vhat_i = Rhat^T r_i: the reference directions seen from the estimate."""
    return triads.r.dot(Rhat)


def attitude_innovation(triads: TriadPair, vhat: np.ndarray, Rhat: np.ndarray):
    """Misalignment sums (body_sum, inertial_sum).

    body_sum = sum_i s_i (v_i x vhat_i); inertial_sum = Rhat @ body_sum.
    The inertial sum equals 2 vex(Pa(M_r Rtilde)) for Rtilde = R Rhat^T.
    """
    v1, v2, v3 = triads.v.tolist()
    w1, w2, w3 = vhat.tolist()
    crosses = np.array((*_cross(v1, w1), *_cross(v2, w2), *_cross(v3, w3))).reshape(3, 3)
    body_sum = crosses.T.dot(triads.s)
    return body_sum, Rhat.dot(body_sum)
