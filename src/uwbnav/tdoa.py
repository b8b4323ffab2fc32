"""UWB time-difference-of-arrival positioning.

A tag hears N fixed anchors h_1..h_N and measures the cyclic chain of range
differences

    d = [d_{2,1}, d_{3,2}, ..., d_{N,N-1}, d_{1,N}],   d_{j,i} = ||P-h_j|| - ||P-h_i||.

Stacking one linear equation per consecutive pair and treating the range to
the first anchor as a fourth unknown gives an N x 4 least-squares system whose
solution is the reconstructed position.  The chain structure means row k's
constant term carries the cumulative sum d_{2,1} + ... + d_{k,k-1}, since
||P - h_k|| = ||P - h_1|| + sum of the differences along the chain.

Every system is solved by one call to LAPACK ``dgelsd`` (SVD-based minimum-norm
least squares) through numpy's own ``lstsq`` gufunc: the routine, workspace
query and singular value cutoff ``RANK_TOL`` that
``np.linalg.lstsq(A, B, rcond=RANK_TOL)`` runs, without its wrapper.  The
gufunc is private to numpy, so it is chosen once, at import, and only if it
exists and answers a probe system bit for bit as ``np.linalg.lstsq`` does;
otherwise every system goes through ``np.linalg.lstsq`` itself.

A fix's quality (range to h_1, residual, range consistency, negative-range
flag) is computed on read, from the system the fix holds, so the observer,
which reads only the position, pays for none of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy without the private module: np.linalg.lstsq serves
    _umath_linalg = None

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

# sigma_4 / sigma_1 below this means the 4-unknown system is rank deficient.
RANK_TOL = 1e-8

# Allowed excess of |d_k| over the anchor-set diameter before a frame is
# rejected as physically impossible (noise slack, meters).
DIAMETER_SLACK = 1.0


class GeometryDegenerate(Exception):
    """TDOA geometry does not determine a position; carries the numerical rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


@dataclass(frozen=True)
class Anchor:
    """A fixed UWB base station with a known inertial-frame position."""

    id: int
    pos: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "pos", _as_vec3(self.pos, "anchor pos"))


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchors; the TDOA chain follows this order cyclically.

    Requires N >= 4 anchors with unique ids that are not all coplanar
    (smallest singular value of the centered position matrix must exceed
    1e-6 of the largest), otherwise 3-D positioning is impossible.

    ``positions`` ((N, 3), chain order) and ``diameter`` (the largest
    anchor-to-anchor distance) are computed once, at construction.
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
        # [(h_k - h_{k+1})^T, 0], read-only, and per link k ||h_k||^2, ||h_{k+1}||^2.
        norms = np.sum(pos * pos, axis=1)
        template = np.zeros((len(anchors), 4))
        template[:, :3] = pos - np.roll(pos, -1, axis=0)
        object.__setattr__(self, "_links", tuple(zip(norms.tolist(), np.roll(norms, -1).tolist())))
        for arr in (template, pos):
            arr.setflags(write=False)
        object.__setattr__(self, "_template", template)
        object.__setattr__(self, "positions", pos)
        diameter = np.max(np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2))
        object.__setattr__(self, "diameter", float(diameter))

    @property
    def n(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
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
    are computed on read: the first read runs ``_fix_quality`` once on the
    system (A, B) and solution the fix holds, and keeps all four.

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

    __slots__ = ("p", "reduced", "_system", "_quality")

    def __init__(self, p, reduced, system):
        self.p, self.reduced, self._system, self._quality = p, reduced, system, None

    def _read(self, i):
        if self._quality is None:
            self._quality = _fix_quality(*self._system)
        return self._quality[i]

    range_to_h1 = property(lambda self: self._read(0))
    residual = property(lambda self: self._read(1))
    range_consistency = property(lambda self: self._read(2))
    negative_range = property(lambda self: self._read(3))


def build_system(anchors: AnchorSet, frame: TdoaFrame):
    """Assemble the N x 4 linear system (A, B) for one TDOA frame.

    Row k (0-based, cyclic successor j = k+1 mod N):

        A[k] = [(h_k - h_j)^T, -d_k]
        B[k] = (d_k^2 + ||h_k||^2 - ||h_j||^2 + 2 d_k * csum_k) / 2

    where csum_k is the cumulative sum of d_0..d_{k-1} (empty for k = 0).
    A is a fresh copy of the anchor set's geometry columns with -d written
    into the fourth; B is built by exactly these rows, on Python floats.
    """
    n = anchors.n
    d = frame.d
    if d.shape != (n,):
        raise ValueError(f"frame has {d.shape[0]} differences for {n} anchors")
    dl = d.tolist()
    bound = anchors.diameter + DIAMETER_SLACK
    if max(map(abs, dl)) > bound:
        raise ValueError(
            f"range difference exceeds anchor-set diameter + slack ({bound:.3f} m)"
        )
    # dk**2, not dk*dk: it goes through pow(), as the documented row form on
    # numpy scalars does, and differs from dk*dk in the last bit on ~0.1 %
    # of values.
    A = anchors._template.copy()
    np.negative(d, out=A[:, 3])
    B = []
    csum = 0.0
    for dk, (nk, nj) in zip(dl, anchors._links):
        B.append(0.5 * (dk**2 + nk - nj + 2.0 * dk * csum))
        csum += dk
    return A, np.array(B)


def _gufunc_lstsq(A, B):
    """Solution, rank and singular values of min ||A x - B|| by one dgelsd call.

    Calls the gufunc ``np.linalg.lstsq(A, B, rcond=RANK_TOL)`` runs, so
    singular values below ``RANK_TOL`` times the largest count as zero, as
    there.  A and B are finite (``TdoaFrame`` and ``Anchor`` check them), so
    no per-call ``np.errstate`` is set; a solve that fails comes back
    non-finite and raises ``LinAlgError``, as ``np.linalg.lstsq`` does.
    """
    x, _, rank, sv = _umath_linalg.lstsq(A, B[:, None], RANK_TOL)
    if not _all_finite(x):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:, 0], int(rank), sv


def _numpy_lstsq(A, B):
    """``_gufunc_lstsq`` through the public ``np.linalg.lstsq``, wrapper included."""
    x, _, rank, sv = np.linalg.lstsq(A, B, rcond=RANK_TOL)
    return x, int(rank), sv


def _select_lstsq():
    """``_gufunc_lstsq`` if numpy's private gufunc exists and solves a probe
    system to the bits of ``np.linalg.lstsq``, else ``_numpy_lstsq``."""
    A = np.array([[4.0, -1.0, 2.0, 0.5], [1.0, 3.0, -2.0, 1.0], [0.0, 2.0, 5.0, -1.0],
                  [2.0, 0.0, 1.0, 3.0], [-1.0, 1.0, 0.0, 2.0]])
    B = np.array([1.0, -2.0, 3.0, 0.25, 5.0])
    want = _numpy_lstsq(A, B)
    try:
        got = _gufunc_lstsq(A, B)
        same = got[1] == want[1] and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in ((got[0], want[0]), (got[2], want[2]))
        )
    except (AttributeError, TypeError, ValueError):  # missing, another signature or result form
        same = False
    return _gufunc_lstsq if same else _numpy_lstsq


_lstsq = _select_lstsq()


def _solve(A, B, allow_reduced: bool, h1) -> ReconstructedPosition:
    """The fix of the N x 4 system (A, B); ``h1``, the first anchor, is kept for its quality."""
    sol, rank, sv = _lstsq(A, B)
    if rank == 4:
        return ReconstructedPosition(sol[:3], False, (A, B, sol, h1))
    if not allow_reduced:
        raise GeometryDegenerate(f"TDOA system rank {rank} < 4 (singular values {sv})", rank=rank)
    sol, rank, _ = _lstsq(A[:, :3], B)
    if rank < 3:
        raise GeometryDegenerate(f"reduced TDOA system rank {rank} < 3", rank=rank)
    return ReconstructedPosition(sol, True, (A, B, sol, h1))


def _fix_quality(A, B, sol, h1):
    """(range_to_h1, residual, range_consistency, negative_range) of the solution
    ``sol`` of the system (A, B): the reduced one, of A's first three columns,
    when it has three entries."""
    if sol.size == 3:
        return math.nan, float(np.sqrt(np.mean((A[:, :3] @ sol - B) ** 2))), math.nan, False
    r = A @ sol - B
    residual = math.sqrt(np.add.reduce(r * r) / r.size)  # the RMS, as np.mean sums it
    range_to_h1 = float(sol[3])
    offset = sol[:3] - h1
    consistency = abs(range_to_h1 - math.sqrt(offset.dot(offset)))
    return range_to_h1, residual, consistency, range_to_h1 < 0.0


def solve_frame(
    anchors: AnchorSet, frame: TdoaFrame, allow_reduced: bool = False
) -> ReconstructedPosition:
    """Build the frame's N x 4 system and solve it by SVD least squares (LAPACK ``dgelsd``).

    Raises :class:`GeometryDegenerate` when the 4-column system is rank
    deficient: its rank counts the singular values above 1e-8 of the
    largest, so all-zero differences, for one, give rank 3.  With
    ``allow_reduced=True`` such frames fall back to the 3-unknown system that
    drops the range column (usable when the differences are near zero),
    solved the same way; the fallback cannot report ``range_to_h1``.
    """
    A, B = build_system(anchors, frame)
    return _solve(A, B, allow_reduced, anchors.positions[0])


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
        doc = json.load(fh)
    try:
        entries = doc["anchors"]
        anchors = tuple(Anchor(id=e["id"], pos=e["pos"]) for e in entries)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed anchor document {path}: {exc}") from exc
    return AnchorSet(anchors)
