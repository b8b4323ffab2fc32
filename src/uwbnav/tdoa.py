"""UWB time-difference-of-arrival positioning.

A tag hears N fixed anchors h_1..h_N and measures the cyclic chain of range
differences

    d = [d_{2,1}, d_{3,2}, ..., d_{N,N-1}, d_{1,N}],   d_{j,i} = ||P-h_j|| - ||P-h_i||.

With the range r = ||P - h_1|| as a fourth unknown, one linear equation per
consecutive pair gives the N x 4 least-squares system G P - d r = B (rows in
``build_system``), G's rows being the chain geometry h_k - h_{k+1}.

``solve_frame`` solves it in closed form, the linear TDOA least squares of
Chan & Ho (IEEE TSP 42(8), 1994), on the thin SVD G = U S V^T that
``AnchorSet`` takes once.  With x_perp = x - U U^T x, the part of x off G's
columns, r = -<d_perp, B_perp> / ||d_perp||^2 and P = V ((U^T B + r U^T d) / S):
a few length-N sums on Python floats per frame and no LAPACK call.  The rank
rule: rank 4 when ||d_perp|| exceeds ``RANK_TOL`` times G's largest singular
value, else rank 3 (all-zero differences, for one): refused, or, with
``allow_reduced``, P = V (U^T B / S).  ``AnchorSet`` refuses a G of rank < 3
under the same cutoff.  Stability: B is projected off U before its product
with d_perp; <d_perp, B>, equal in exact arithmetic, cancels on an
ill-conditioned set far beyond lstsq's error, while the projected form agrees
with ``np.linalg.lstsq`` to a few cond(A) eps (tests/test_tdoa.py).

A fix's quality (range to h_1, residual, range consistency, negative-range
flag) is computed on read, from the system ``build_system`` rebuilds, so the
observer, which reads only the position, pays for none of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .liegroup import Rotation, _all_finite, _as_vec3

__all__ = [
    "Anchor",
    "AnchorSet",
    "TdoaFrame",
    "ReconstructedPosition",
    "GeometryDegenerate",
    "build_system",
    "solve_frame",
    "synthesize_tdoa",
    "load_anchors",
]

# The rank cutoff, relative to the chain geometry's largest singular value:
# for G's own smallest one, and for ||d_perp|| of each frame.
RANK_TOL = 1e-8

# Allowed excess of |d_k| over the anchor-set diameter before a frame is
# rejected as physically impossible (noise slack, meters).
DIAMETER_SLACK = 1.0


class GeometryDegenerate(Exception):
    """TDOA geometry does not determine a position; carries the numerical rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


@dataclass(frozen=True, eq=False)
class Anchor:
    """A fixed UWB base station with a known inertial-frame position."""

    id: int
    pos: np.ndarray

    def __post_init__(self):
        i = self.id
        if not (isinstance(i, (int, np.integer)) or isinstance(i, (float, np.floating)) and i.is_integer()):
            raise ValueError(f"anchor id must be a whole number, got {i!r}")  # 1.7, "1", NaN
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "pos", _as_vec3(self.pos, "anchor pos"))


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Ordered anchors; the TDOA chain follows this order cyclically.

    Requires N >= 4 anchors with unique ids that are not all coplanar
    (smallest singular value of the centered position matrix must exceed
    1e-6 of the largest), otherwise 3-D positioning is impossible, and whose
    chain geometry G (rows h_k - h_{k+1}) has rank 3 under ``RANK_TOL``.

    ``positions`` ((N, 3), chain order), ``diameter`` (the largest
    anchor-to-anchor distance) and what each frame's solve reads (G's thin
    SVD, the c_k, the rank cutoff) are computed once, at construction.
    """

    anchors: tuple

    def __post_init__(self):
        anchors = tuple(self.anchors)
        object.__setattr__(self, "anchors", anchors)
        if len(anchors) < 4:
            raise ValueError(f"need at least 4 anchors for a 3-D solve, got {len(anchors)}")
        ids = [a.id for a in anchors]
        if len(set(ids)) != len(ids):
            raise ValueError(f"anchor ids are not unique: {ids}")
        pos = np.array([a.pos for a in anchors])
        centered = pos - pos.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if not sv[2] > 1e-6 * sv[0]:
            raise ValueError("anchors are coplanar (or collinear); geometry is degenerate")
        # The geometry every frame is solved against, computed once: A's rows
        # [(h_k - h_{k+1})^T, 0], read-only, G = U S V^T with the rows of U and
        # of V^T and S as float tuples, the cutoff, and per link k the c_k.
        template = np.zeros((len(anchors), 4))
        template[:, :3] = pos - np.roll(pos, -1, axis=0)
        u, sv, vt = np.linalg.svd(template[:, :3], full_matrices=False)
        if not sv[2] > RANK_TOL * sv[0]:
            raise ValueError(f"anchor chain geometry has rank < 3 (singular values {sv}); geometry is degenerate")
        norms = np.sum(pos * pos, axis=1)
        object.__setattr__(self, "_c", tuple((norms - np.roll(norms, -1)).tolist()))
        object.__setattr__(self, "_u", tuple(map(tuple, u.tolist())))
        object.__setattr__(self, "_s", tuple(sv.tolist()))
        object.__setattr__(self, "_vt", tuple(map(tuple, vt.tolist())))
        object.__setattr__(self, "_tol", RANK_TOL * float(sv[0]))
        for arr in (template, pos):
            arr.setflags(write=False)
        object.__setattr__(self, "_template", template)
        object.__setattr__(self, "positions", pos)
        diameter = float(np.max(np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)))
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "_bound", diameter + DIAMETER_SLACK)
        object.__setattr__(self, "_h1", pos[0])

    @property
    def n(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True, eq=False)
class TdoaFrame:
    """One epoch of cyclic range differences (meters)."""

    timestamp: float
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamp", float(self.timestamp))
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if not _all_finite(d):
            raise ValueError("range differences must be finite")
        object.__setattr__(self, "d", d)


class ReconstructedPosition:
    """Least-squares TDOA fix.

    ``p`` and ``reduced`` come from the solve.  The four quality attributes
    are computed on read: the first read runs ``_fix_quality`` once on what
    the fix holds (the anchor set, the solve's own float lists of d and B,
    and the solution) and keeps all four.

    Attributes
    ----------
    p : (3,) ndarray
        Reconstructed tag position (m).
    reduced : bool
        True when the 3-unknown fallback produced this fix.
    range_to_h1 : float
        The solved fourth unknown ||p - h_1||; NaN for the reduced solve.
        Not clamped: a negative value signals inconsistent measurements and
        sets ``negative_range``.
    residual : float
        RMS of A @ solution - B (m).
    range_consistency : float
        |range_to_h1 - ||p - h_1|||; NaN for the reduced solve.  Large values
        flag a poor fix.
    negative_range : bool
        True when the solved range came out negative.
    """

    __slots__ = ("p", "reduced", "_solved", "_quality")

    def __init__(self, p, reduced, solved):
        self.p, self.reduced, self._solved, self._quality = p, reduced, solved, None

    def _read(self, i):
        if self._quality is None:
            self._quality = _fix_quality(*self._solved)
        return self._quality[i]

    range_to_h1 = property(lambda self: self._read(0))
    residual = property(lambda self: self._read(1))
    range_consistency = property(lambda self: self._read(2))
    negative_range = property(lambda self: self._read(3))


def _rows(anchors: AnchorSet, frame: TdoaFrame):
    """The frame's d and B as float lists, after ``build_system``'s count and range checks."""
    d = frame.d
    n = len(anchors.anchors)
    if d.shape != (n,):
        raise ValueError(f"frame has {d.shape[0]} differences for {n} anchors")
    dl = d.tolist()
    if max(map(abs, dl)) > anchors._bound:
        raise ValueError(f"range difference exceeds anchor-set diameter + slack ({anchors._bound:.3f} m)")
    # dk**2, not dk*dk: it goes through pow(), as the documented row form on numpy
    # scalars does, and differs from dk*dk in the last bit on ~0.1 % of values.
    B = []
    csum = 0.0
    for dk, ck in zip(dl, anchors._c):
        B.append(0.5 * (dk**2 + ck) + dk * csum)
        csum += dk
    return dl, B


def build_system(anchors: AnchorSet, frame: TdoaFrame):
    """Assemble the N x 4 linear system (A, B) for one TDOA frame.

    Row k (0-based, cyclic successor j = k+1 mod N):

        A[k] = [(h_k - h_j)^T, -d_k]
        B[k] = (d_k^2 + c_k) / 2 + d_k * csum_k,   c_k = ||h_k||^2 - ||h_j||^2

    where csum_k is the cumulative sum of d_0..d_{k-1} (empty for k = 0).
    A is a fresh copy of the anchor set's geometry columns with -d written
    into the fourth; B is built by exactly these rows, on Python floats, as
    ``solve_frame`` builds them.  Raises ValueError for a count other than N
    or a |d_k| over the diameter + slack.
    """
    return _system(anchors, *_rows(anchors, frame))


def _system(anchors, dl, B):
    """(A, B) of the rows ``_rows`` gave: A a fresh copy of the geometry columns with -d in the fourth."""
    A = anchors._template.copy()
    A[:, 3] = dl
    np.negative(A[:, 3], out=A[:, 3])
    return A, np.array(B)


def _fix_quality(anchors, dl, B, sol):
    """(range_to_h1, residual, range_consistency, negative_range) of the solution
    ``sol`` of the system of the rows ``dl``, ``B`` that ``_rows`` gave: the
    reduced one, of A's first three columns, when it has three entries."""
    A, B = _system(anchors, dl, B)
    if sol.size == 3:
        return math.nan, float(np.sqrt(np.mean((A[:, :3] @ sol - B) ** 2))), math.nan, False
    r = A @ sol - B
    residual = math.sqrt(np.add.reduce(r * r) / r.size)  # the RMS, as np.mean sums it
    range_to_h1 = float(sol[3])
    offset = sol[:3] - anchors._h1
    consistency = abs(range_to_h1 - math.sqrt(offset.dot(offset)))
    return range_to_h1, residual, consistency, range_to_h1 < 0.0


def solve_frame(
    anchors: AnchorSet, frame: TdoaFrame, allow_reduced: bool = False
) -> ReconstructedPosition:
    """Solve the frame's N x 4 system in closed form on the anchor set's SVD.

    Raises ValueError when ``build_system`` would refuse the frame, and
    :class:`GeometryDegenerate` (rank 3) when the system is rank deficient:
    ||d_perp||, the part of the differences off the chain geometry's
    columns, at or below ``RANK_TOL`` times its largest singular value, so
    all-zero differences, for one, give rank 3.  With ``allow_reduced=True``
    such frames fall back to the 3-unknown system that drops the range
    column (usable when the differences are near zero); the fallback cannot
    report ``range_to_h1``.  A solution that is not finite raises
    ``np.linalg.LinAlgError``.
    """
    dl, B = _rows(anchors, frame)
    # U^T d and U^T B, then, with d_perp = d - U U^T d and B_perp = B - U U^T B,
    # ||d_perp||^2 and <d_perp, B_perp>; each sum taken in row order from 0.0.
    ud0 = ud1 = ud2 = ub0 = ub1 = ub2 = 0.0
    for dk, bk, (a0, a1, a2) in zip(dl, B, anchors._u):
        ud0, ud1, ud2 = ud0 + a0 * dk, ud1 + a1 * dk, ud2 + a2 * dk
        ub0, ub1, ub2 = ub0 + a0 * bk, ub1 + a1 * bk, ub2 + a2 * bk
    dd = db = 0.0
    for dk, bk, (a0, a1, a2) in zip(dl, B, anchors._u):
        x = dk - (a0 * ud0 + a1 * ud1 + a2 * ud2)
        dd += x * x
        db += x * (bk - (a0 * ub0 + a1 * ub1 + a2 * ub2))
    off = math.sqrt(dd)
    reduced = off <= anchors._tol
    if reduced and not allow_reduced:
        cutoff = f"||d_perp|| {off:.3e} m at or below the cutoff {anchors._tol:.3e} m"
        raise GeometryDegenerate(f"TDOA system rank 3 < 4 ({cutoff})", rank=3)
    if not reduced:  # the range r, and U^T (B + r d) in place of U^T B
        r = -db / dd
        ub0, ub1, ub2 = ub0 + r * ud0, ub1 + r * ud1, ub2 + r * ud2
    s0, s1, s2 = anchors._s
    q0, q1, q2 = ub0 / s0, ub1 / s1, ub2 / s2
    (w0, w1, w2), (x0, x1, x2), (y0, y1, y2) = anchors._vt
    p = w0 * q0 + x0 * q1 + y0 * q2, w1 * q0 + x1 * q1 + y1 * q2, w2 * q0 + x2 * q1 + y2 * q2
    if not all(map(math.isfinite, p)):
        raise np.linalg.LinAlgError(f"TDOA solve gave a non-finite position {p}")
    sol = np.array(p if reduced else (*p, r))
    return ReconstructedPosition(sol[:3], reduced, (anchors, dl, B, sol))


def _cyclic_differences(r) -> np.ndarray:
    """The cyclic differences r[k+1] - r[k] along the last axis of the range array ``r``: the chain order."""
    return np.concatenate((r[..., 1:], r[..., :1]), axis=-1) - r


def _range_differences(tags, positions) -> np.ndarray:
    """The cyclic range differences from each tag position (last axis) to the (N, 3) anchor ``positions``."""
    return _cyclic_differences(np.linalg.norm(tags[..., None, :] - positions, axis=-1))


def synthesize_tdoa(
    P,
    R: Rotation | None,
    anchors: AnchorSet,
    tag_offset=(0.0, 0.0, 0.0),
    noise_sd: float = 0.0,
    seed=0,
    timestamp: float = 0.0,
) -> TdoaFrame:
    """Forward model: cyclic range differences for a tag at P (plus offset).

    The effective tag position is ``P + R @ tag_offset`` (the body-mounted
    antenna lever arm) or just ``P`` when ``R`` is None.  Gaussian noise with
    std ``noise_sd`` is added per difference, drawn from
    ``numpy.random.default_rng(seed)``; the seed may be an int or a tuple.
    """
    P = _as_vec3(P, "P")
    offset = _as_vec3(tag_offset, "tag_offset")
    eff = P if R is None else P + R.m @ offset
    d = _range_differences(eff, anchors.positions)
    if noise_sd > 0.0:
        rng = np.random.default_rng(seed)
        d = d + rng.normal(0.0, noise_sd, anchors.n)
    return TdoaFrame(timestamp=timestamp, d=d)


def load_anchors(path) -> AnchorSet:
    """Read an AnchorSet from a JSON document {"anchors": [{"id", "pos"}, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)  # a JSONDecodeError is a ValueError
            return AnchorSet(tuple(Anchor(id=e["id"], pos=e["pos"]) for e in doc["anchors"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed anchor document {path}: {exc}") from exc
