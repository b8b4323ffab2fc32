"""Tests for anchor geometry and TDOA least-squares reconstruction."""

import json
import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import frozen_solve, random_rotation
from uwbnav import tdoa
from uwbnav.liegroup import Rotation
from uwbnav.tdoa import (
    DIAMETER_SLACK,
    RANK_TOL,
    Anchor,
    AnchorSet,
    GeometryDegenerate,
    TdoaFrame,
    build_system,
    load_anchors,
    solve_frame,
    synthesize_tdoa,
)


def box_anchors(side=4.0, height=4.0, origin=(0.0, 0.0, 0.0)):
    """Eight anchors on the vertices of a rectangular box."""
    o = np.asarray(origin, dtype=float)
    verts = [
        o + np.array([x, y, z])
        for x in (0.0, side)
        for y in (0.0, side)
        for z in (0.0, height)
    ]
    return AnchorSet(tuple(Anchor(id=i + 1, pos=v) for i, v in enumerate(verts)))


def tetra_anchors():
    pts = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 4.0)]
    return AnchorSet(tuple(Anchor(id=i, pos=np.array(p)) for i, p in enumerate(pts)))


# --- anchor-set validation -----------------------------------------------------


def test_anchorset_requires_four_anchors():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(ValueError, match="4 anchors"):
        AnchorSet(tuple(Anchor(id=i, pos=np.array(p, dtype=float)) for i, p in enumerate(pts)))


def test_anchorset_rejects_duplicate_ids():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError, match="unique"):
        AnchorSet(tuple(Anchor(id=1, pos=np.array(p, dtype=float)) for p in pts))


def test_anchorset_rejects_coplanar_anchors():
    pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (4, 4, 0), (2, 2, 0)]
    with pytest.raises(ValueError, match="coplanar"):
        AnchorSet(tuple(Anchor(id=i, pos=np.array(p, dtype=float)) for i, p in enumerate(pts)))


def zigzag_points():
    """1 000 points that are not coplanar but whose chain geometry has rank 2
    under ``RANK_TOL``: a zigzag in x and y and an 8 um slow wave in z, which
    the chain's differences attenuate about 300-fold."""
    k = np.arange(1000)
    z = 8e-6 * np.cos(2 * np.pi * k / 1000)
    return np.column_stack([np.where(k % 2, -4.0, 4.0), np.where(k // 2 % 2, -4.0, 4.0), z])


def test_anchorset_rejects_a_chain_geometry_of_rank_below_3():
    # The centered positions pass the coplanarity test; the chain differences
    # h_k - h_{k+1}, which every frame is solved against, do not reach rank 3.
    pts = zigzag_points()
    sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    assert sv[2] > 1e-6 * sv[0]
    with pytest.raises(ValueError, match=r"^anchor chain geometry has rank < 3 \(singular values .*\); geometry is degenerate$"):
        AnchorSet(tuple(Anchor(id=i, pos=p) for i, p in enumerate(pts)))


def test_anchorset_diameter():
    a = box_anchors(side=4.0, height=4.0)
    assert a.diameter == pytest.approx(np.sqrt(48.0))


def test_anchorset_caches_its_geometry_at_construction():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pts = rng.uniform(-5.0, 5.0, (int(rng.integers(4, 12)), 3))
        a = AnchorSet(tuple(Anchor(id=i, pos=p) for i, p in enumerate(pts)))
        positions = np.array([anchor.pos for anchor in a.anchors])
        diameter = float(np.max(np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)))
        assert np.array_equal(a.positions, positions)
        assert a.diameter == diameter
        assert not a.positions.flags.writeable
        # What each frame's solve reads: the range bound, the first anchor's row,
        # the c_k, and the chain geometry's SVD as float tuples with its cutoff.
        assert a._bound == diameter + DIAMETER_SLACK
        assert a._h1.tobytes() == positions[0].tobytes() and not a._h1.flags.writeable
        norms = np.sum(positions * positions, axis=1)
        assert a._c == tuple(norms - np.roll(norms, -1))
        geometry = positions - np.roll(positions, -1, axis=0)
        U, S, Vt = np.array(a._u), np.array(a._s), np.array(a._vt)
        assert U.shape == (len(positions), 3) and S.shape == (3,) and Vt.shape == (3, 3)
        np.testing.assert_allclose(U @ np.diag(S) @ Vt, geometry, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(U.T @ U, np.eye(3), rtol=0.0, atol=1e-14)
        assert S[0] >= S[1] >= S[2] > RANK_TOL * S[0] and a._tol == RANK_TOL * S[0]


@pytest.mark.parametrize("bad", [1.7, "1", None, float("nan"), float("inf"), [1]])
def test_anchor_refuses_an_id_that_is_not_a_whole_number(bad):
    # 1.7 was truncated to 1, silently.
    with pytest.raises(ValueError, match=re.escape(f"anchor id must be a whole number, got {bad!r}")):
        Anchor(id=bad, pos=np.zeros(3))


def test_anchor_keeps_a_whole_number_id_as_an_int():
    for whole in (3, 3.0, np.int64(3), np.float32(3.0), True):
        anchor = Anchor(id=whole, pos=np.zeros(3))
        assert type(anchor.id) is int and anchor.id == int(whole)


def test_anchor_rejects_non_finite_position():
    with pytest.raises(ValueError):
        Anchor(id=1, pos=np.array([np.inf, 0.0, 0.0]))


def test_frame_rejects_non_finite_differences():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^range differences must be finite$"):
            TdoaFrame(timestamp=0.0, d=[0.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="^range differences must be finite$"):
            TdoaFrame(timestamp=0.0, d=np.full((2, 2), bad))


# --- build_system ----------------------------------------------------------------


def test_build_system_zero_differences_reduction():
    anchors = tetra_anchors()
    frame = TdoaFrame(timestamp=0.0, d=np.zeros(4))
    A, B = build_system(anchors, frame)
    assert A.shape == (4, 4)
    assert np.array_equal(A[:, 3], np.zeros(4))
    h = anchors.positions
    for k in range(4):
        j = (k + 1) % 4
        np.testing.assert_allclose(A[k, :3], h[k] - h[j], atol=1e-15)
        assert B[k] == pytest.approx(0.5 * (h[k] @ h[k] - h[j] @ h[j]))


def test_build_system_row_count_matches_anchors():
    anchors = box_anchors()
    frame = synthesize_tdoa([1.0, 2.0, 1.0], None, anchors)
    A, B = build_system(anchors, frame)
    assert A.shape == (8, 4)
    assert B.shape == (8,)


def test_build_system_algebraic_identity():
    # A [P, ||P - h1||] = B must hold exactly for noiseless synthesis.
    anchors = box_anchors()
    rng = np.random.default_rng(31)
    for _ in range(50):
        P = rng.uniform(0.5, 3.5, size=3)
        frame = synthesize_tdoa(P, None, anchors)
        A, B = build_system(anchors, frame)
        pbar = np.append(P, np.linalg.norm(P - anchors.positions[0]))
        assert np.max(np.abs(A @ pbar - B)) < 1e-9


def build_system_rows(anchors, frame):
    """The linear system assembled row by row on numpy scalars, as documented."""
    pos = np.array([a.pos for a in anchors.anchors])
    n = len(pos)
    d = frame.d
    A = np.zeros((n, 4))
    B = np.zeros(n)
    norms = np.sum(pos * pos, axis=1)
    csum = 0.0
    for k in range(n):
        j = (k + 1) % n
        A[k, :3] = pos[k] - pos[j]
        A[k, 3] = -d[k]
        B[k] = 0.5 * (d[k] ** 2 + (norms[k] - norms[j])) + d[k] * csum
        csum += d[k]
    return A, B


def test_build_system_matches_the_row_by_row_form_bit_for_bit():
    # d_k**2 on a numpy scalar goes through pow(), which differs from d*d in
    # the last bit on ~0.1 % of values; the vectorized system must not.
    rng = np.random.default_rng(32)
    for anchors in (box_anchors(), tetra_anchors(), box_anchors(side=8.0, origin=(-4.0, -4.0, 0.0))):
        for k in range(300):
            p = rng.uniform(-1.0, 5.0, 3)
            frame = synthesize_tdoa(p, None, anchors, noise_sd=0.05, seed=k)
            A, B = build_system(anchors, frame)
            A_ref, B_ref = build_system_rows(anchors, frame)
            assert np.array_equal(A, A_ref)
            assert np.array_equal(B, B_ref)


def test_build_system_rejects_length_mismatch():
    anchors = box_anchors()
    frame = TdoaFrame(timestamp=0.0, d=np.zeros(4))
    with pytest.raises(ValueError, match="8 anchors"):
        build_system(anchors, frame)


def test_build_system_rejects_out_of_range_difference():
    # |d_k| can never exceed the anchor-set diameter (plus slack).
    anchors = box_anchors()
    d = np.zeros(8)
    d[2] = anchors.diameter + 2.0
    with pytest.raises(ValueError, match="difference"):
        build_system(anchors, TdoaFrame(timestamp=0.0, d=d))


def test_build_system_returns_a_fresh_a_over_a_read_only_template():
    # Each system's A is a copy of the anchor set's geometry columns: writing
    # into one changes neither the next frame's system nor the template, and
    # the template refuses writes.
    anchors = box_anchors()
    first = synthesize_tdoa([1.0, 2.0, 1.0], None, anchors, noise_sd=0.05, seed=1)
    second = synthesize_tdoa([3.0, 0.5, 2.5], None, anchors, noise_sd=0.05, seed=2)
    A, _ = build_system(anchors, first)
    A[:] = np.nan
    got_A, got_B = build_system(anchors, second)
    want_A, want_B = build_system_rows(anchors, second)
    assert np.array_equal(got_A, want_A) and np.array_equal(got_B, want_B)
    assert got_A.flags.writeable and not np.shares_memory(got_A, anchors._template)
    assert not anchors._template.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        anchors._template[0, 0] = 1.0
    assert np.array_equal(anchors._template, np.column_stack([want_A[:, :3], np.zeros(8)]))


# --- solve_frame ---------------------------------------------------------------


def test_solve_recovers_position_in_cube():
    anchors = box_anchors(side=4.0, height=4.0)
    P = np.array([1.0, 2.0, 0.5])
    frame = synthesize_tdoa(P, None, anchors)
    fix = solve_frame(anchors, frame)
    assert np.linalg.norm(fix.p - P) <= 1e-8
    assert fix.range_to_h1 == pytest.approx(np.linalg.norm(P - anchors.positions[0]), abs=1e-8)
    assert fix.range_consistency <= 1e-6
    assert not fix.negative_range
    assert not fix.reduced


def test_solve_zero_differences_is_degenerate():
    anchors = box_anchors()
    with pytest.raises(GeometryDegenerate) as exc_info:
        solve_frame(anchors, TdoaFrame(timestamp=0.0, d=np.zeros(8)))
    assert exc_info.value.rank == 3


def test_solve_perturbed_differences_stay_centimeter_scale():
    anchors = box_anchors()
    P = np.array([1.4, 2.2, 1.1])
    rng = np.random.default_rng(32)
    frame = synthesize_tdoa(P, None, anchors)
    d = frame.d + rng.uniform(-1e-3, 1e-3, size=8)
    fix = solve_frame(anchors, TdoaFrame(timestamp=0.0, d=d))
    assert np.linalg.norm(fix.p - P) < 0.05
    assert fix.residual > 0.0


def test_reduced_fallback_solves_equidistant_case():
    anchors = box_anchors()
    fix = solve_frame(anchors, TdoaFrame(timestamp=0.0, d=np.zeros(8)), allow_reduced=True)
    assert fix.reduced
    assert np.isnan(fix.range_to_h1) and np.isnan(fix.range_consistency)
    # All-zero differences mean equidistance: the box center.
    np.testing.assert_allclose(fix.p, [2.0, 2.0, 2.0], atol=1e-9)


def lstsq_reference(A, B, allow_reduced, lstsq=np.linalg.lstsq):
    """The fix as ``lstsq`` (by default ``np.linalg.lstsq``, LAPACK gelsd) solves
    the system, with the condition number of the matrix it solves: (kind, values, cond)."""
    sol, _, rank, sv = lstsq(A, B, rcond=RANK_TOL)
    if rank == 4:
        return "fix", list(sol), sv[0] / sv[-1]
    if not allow_reduced:
        return "degenerate", [rank], None
    sol3, _, rank3, sv3 = lstsq(A[:, :3], B, rcond=RANK_TOL)
    if rank3 < 3:
        return "degenerate", [rank3], None
    return "reduced", list(sol3), sv3[0] / sv3[-1]


def svd_lstsq(A, B, rcond):
    """``np.linalg.lstsq``'s (x, residuals, rank, sv), residuals left out, by
    numpy's SVD gufunc (LAPACK gesdd) and the pseudo-inverse, with lstsq's rank
    rule: the singular values above ``rcond`` times the largest."""
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(sv > rcond * sv[0]))
    return Vt[:rank].T @ ((U[:, :rank].T @ B) / sv[:rank]), None, rank, sv


def within_lstsq_bound(got, want, cond):
    """``got`` within 64 cond eps of max(1, ||p||_inf) of ``want``, p its position."""
    bound = 64.0 * cond * np.finfo(float).eps * max(1.0, np.abs(want[:3]).max())
    return np.abs(np.subtract(got, want)).max() <= bound


def classify(solve):
    try:
        fix = solve()
    except GeometryDegenerate as exc:
        return "degenerate", [exc.rank]
    except ValueError:
        return "invalid", []
    if fix.reduced:
        assert np.isnan(fix.range_to_h1) and np.isnan(fix.range_consistency)
        return "reduced", list(fix.p)
    assert fix.negative_range == (fix.range_to_h1 < 0.0)
    return "fix", [*fix.p, fix.range_to_h1]


def random_frames(rng, anchors):
    """Noisy in- and out-of-hull frames plus the edge cases of the solver."""
    pos, n = anchors.positions, anchors.n
    for k in range(12):
        ranges = np.linalg.norm(rng.uniform(-8.0, 8.0, 3) - pos, axis=1)
        yield np.roll(ranges, -1) - ranges + rng.normal(0.0, 0.05, n)
    yield np.zeros(n)  # rank 3: degenerate, or the reduced fallback
    # Rank 4 in exact arithmetic, 3 under the 1e-8 cutoff: the range column is ~1e-10.
    yield 1e-10 * rng.normal(size=n)
    yield np.full(n, anchors.diameter + DIAMETER_SLACK + 0.5) * (-1.0) ** np.arange(n)  # range
    yield np.zeros(n - 1)  # size


def test_solve_frame_matches_numpy_lstsq_on_random_anchor_sets():
    # np.linalg.lstsq is the tolerance oracle: the same kind of outcome on
    # every frame (the rank rules agree on this corpus), and the same
    # solution within 64 cond(A) eps of max(1, ||p||_inf), A the matrix solved.
    rng = np.random.default_rng(36)
    kinds = set()
    for _ in range(120):
        pts = rng.uniform(-5.0, 5.0, (int(rng.integers(4, 13)), 3))
        anchors = AnchorSet(tuple(Anchor(id=i, pos=p) for i, p in enumerate(pts)))
        for d in random_frames(rng, anchors):
            frame = TdoaFrame(timestamp=0.0, d=d)
            for allow_reduced in (False, True):
                got = classify(lambda: solve_frame(anchors, frame, allow_reduced))
                valid = d.shape == (anchors.n,) and np.abs(d).max() <= anchors.diameter + DIAMETER_SLACK
                kind, want, cond = (
                    lstsq_reference(*build_system_rows(anchors, frame), allow_reduced) if valid else ("invalid", [], None)
                )
                assert got[0] == kind
                if cond is None:
                    assert got[1] == want
                else:
                    assert within_lstsq_bound(got[1], want, cond)
                kinds.add(kind)
    assert kinds == {"fix", "reduced", "degenerate", "invalid"}


def bits(x):
    """A quality value's bytes: a float's IEEE double, NaN included, or the bool itself."""
    return x if isinstance(x, bool) else struct.pack("<d", x)


def test_fix_quality_is_computed_on_read_as_the_eager_solve_computed_it():
    # Every fix that solves, on random anchor sets: its position and reduced
    # flag, and its quality read twice, bit for bit the frozen eager solve of
    # helpers.py.  Full-rank, reduced and negative-range fixes all occur.
    rng = np.random.default_rng(38)
    kinds = set()
    for _ in range(60):
        pts = rng.uniform(-5.0, 5.0, (int(rng.integers(4, 13)), 3))
        anchors = AnchorSet(tuple(Anchor(id=i, pos=p) for i, p in enumerate(pts)))
        for d in random_frames(rng, anchors):
            frame = TdoaFrame(timestamp=0.0, d=d)
            for allow_reduced in (False, True):
                try:
                    fix = solve_frame(anchors, frame, allow_reduced)
                except (GeometryDegenerate, ValueError):
                    continue
                p, *quality, reduced = frozen_solve(*build_system(anchors, frame), allow_reduced, anchors.positions[0])
                assert fix.reduced is reduced
                assert fix.p.dtype == p.dtype and fix.p.shape == p.shape and fix.p.tobytes() == p.tobytes()
                for _ in range(2):
                    got = (fix.range_to_h1, fix.residual, fix.range_consistency, fix.negative_range)
                    assert [type(x) for x in got] == [float, float, float, bool]
                    assert list(map(bits, got)) == list(map(bits, quality))
                kinds.add("reduced" if reduced else "negative range" if quality[-1] else "full rank")
    assert kinds == {"full rank", "reduced", "negative range"}


def test_a_non_finite_solve_raises_linalg_error():
    # Singular values that the quotient U^T B / S overflows: the non-finite
    # position of a full-rank frame or of the reduced fallback is refused.
    anchors = box_anchors()
    object.__setattr__(anchors, "_s", (5e-324,) * 3)
    noisy = synthesize_tdoa([1.0, 2.0, 0.5], None, anchors, noise_sd=0.05, seed=4)
    for d, allow_reduced in ((noisy.d, False), (np.zeros(8), True)):
        with pytest.raises(np.linalg.LinAlgError, match="^TDOA solve gave a non-finite position"):
            solve_frame(anchors, TdoaFrame(timestamp=0.0, d=d), allow_reduced)


@pytest.mark.parametrize("offset", [0.0, 10.0, 100.0, 1000.0])
def test_the_solve_keeps_lstsq_s_accuracy_far_from_the_world_origin(offset):
    # The same anchors and noiseless tags, the world frame moved by ``offset``
    # metres: the RMS position error of 200 fixes is at most twice lstsq's
    # on the same systems.
    rng = np.random.default_rng(39)
    shift = offset * np.array([0.8, 0.5, 0.3])
    pts = rng.uniform(-5.0, 5.0, (8, 3))
    anchors = AnchorSet(tuple(Anchor(id=i, pos=p + shift) for i, p in enumerate(pts)))
    ours, theirs = [], []
    for tag in rng.uniform(-4.0, 4.0, (200, 3)) + shift:
        frame = synthesize_tdoa(tag, None, anchors)
        ours.append(solve_frame(anchors, frame).p - tag)
        theirs.append(np.linalg.lstsq(*build_system(anchors, frame), rcond=RANK_TOL)[0][:3] - tag)
    rms = [math.sqrt(np.mean(np.square(e))) for e in (ours, theirs)]
    assert rms[0] <= 2.0 * rms[1]


def documented_solve(anchors, frame, allow_reduced):
    """(p, reduced) of the frame by the documented checks and rows and ``frozen_solve``."""
    d, n, bound = frame.d, anchors.n, anchors.diameter + DIAMETER_SLACK
    if d.shape != (n,):
        raise ValueError(f"frame has {d.shape[0]} differences for {n} anchors")
    if np.abs(d).max() > bound:
        raise ValueError(f"range difference exceeds anchor-set diameter + slack ({bound:.3f} m)")
    p, *_, reduced = frozen_solve(*build_system_rows(anchors, frame), allow_reduced, anchors.positions[0])
    return p, reduced


def outcome(solve):
    """A refused solve's exception type, message and rank, or a fix's position bits and reduced flag."""
    try:
        got = solve()
    except (GeometryDegenerate, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "rank", None)
    p, reduced = (got.p, got.reduced) if isinstance(got, tdoa.ReconstructedPosition) else got
    return "fix", p.dtype, p.shape, p.tobytes(), reduced


# The least-squares oracles a case is held to, both with the RANK_TOL cutoff.
ORACLES = {"gufunc": svd_lstsq, "numpy": np.linalg.lstsq}
# A box of side 6e153 m from (6e153, 6e153, 6e153): its diameter and its first
# anchor's squared norm are finite, the other squared norms overflow, so every
# c_k, and with it B, is non-finite while A is not.
OVERFLOW = 6e153
ANCHOR_SETS = {
    "box": (box_anchors, 1.0),
    "overflowing": (lambda: box_anchors(OVERFLOW, OVERFLOW, (OVERFLOW,) * 3), OVERFLOW / 4.0),
}
LinAlgError = np.linalg.LinAlgError
FLAT_SOLVE_CASES = {
    # name: (anchor set, differences, allow_reduced, outcome kind)
    "full rank": ("box", "noisy", False, "fix"),
    "wrong count": ("box", np.zeros(7), False, ValueError),
    "out of range": ("box", "beyond", False, ValueError),
    "rank 3": ("box", np.zeros(8), False, GeometryDegenerate),
    "rank 3, reduced": ("box", np.zeros(8), True, "fix"),
    # zigzag_points: refused when the AnchorSet is made, not per frame.
    "rank 2": ("zigzag", np.zeros(1000), False, ValueError),
    "rank 2, reduced rank 2": ("zigzag", np.zeros(1000), True, ValueError),
    "non-finite, 4 columns": ("overflowing", "noisy", False, LinAlgError),
    "non-finite, 3 columns": ("overflowing", np.zeros(8), True, LinAlgError),
}


@pytest.mark.parametrize("oracle", list(ORACLES))
@pytest.mark.parametrize("case", list(FLAT_SOLVE_CASES))
def test_the_flat_solve_refuses_and_solves_as_numpy_lstsq(oracle, case):
    # The same exception type, message and rank, or the same position bits, as the
    # documented checks and rows with helpers.frozen_solve; and, on a frame that
    # passes the checks, the oracle's outcome: its rank where the solve refuses
    # the frame, a non-finite solution where it raises LinAlgError, and a fix
    # within 64 cond(A) eps otherwise.  A fix holds its anchor set, its own
    # copies of build_system's d and B and the solution whose first three
    # entries are its position, so a later write into the caller's array of
    # differences changes none of its quality.
    anchor_name, d, allow_reduced, kind = FLAT_SOLVE_CASES[case]
    lstsq = ORACLES[oracle]
    if anchor_name == "zigzag":
        # The oracle finds rank 2 in the frame's system, of 4 columns and of 3;
        # the anchor set that every such frame would be solved against is refused.
        points = tuple(Anchor(id=i, pos=p) for i, p in enumerate(zigzag_points()))
        A, B = build_system_rows(SimpleNamespace(anchors=points), TdoaFrame(timestamp=0.0, d=d))
        assert lstsq_reference(A, B, allow_reduced, lstsq)[:2] == ("degenerate", [2])
        with pytest.raises(kind, match=r"^anchor chain geometry has rank < 3 "):
            AnchorSet(points)
        return
    make, scale = ANCHOR_SETS[anchor_name]
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing set's c_k
        anchors = make()
    if isinstance(d, str):
        sign = (-1.0) ** np.arange(anchors.n)
        d = {
            "noisy": synthesize_tdoa(
                anchors.positions[0] + scale * np.array([1.0, 2.5, 1.5]), None, anchors, noise_sd=0.05 * scale, seed=4
            ).d,
            "beyond": (anchors.diameter + DIAMETER_SLACK + 0.5) * sign,
        }[d]
    frame = TdoaFrame(timestamp=0.0, d=d)
    got = outcome(lambda: solve_frame(anchors, frame, allow_reduced))
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing set's rows
        assert got == outcome(lambda: documented_solve(anchors, frame, allow_reduced))
    assert got[0] == kind
    if kind is ValueError:
        return  # the documented count and range checks, ahead of any solve
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want_kind, want, cond = lstsq_reference(*build_system_rows(anchors, frame), allow_reduced, lstsq)
        except LinAlgError:
            want_kind = "failed"
    if kind is GeometryDegenerate:
        assert (want_kind, want) == ("degenerate", [got[2]])
    elif kind is LinAlgError:
        assert want_kind == "failed" or not np.isfinite(want).all()
    else:
        d = np.array(d)
        fix = solve_frame(anchors, TdoaFrame(timestamp=0.0, d=d), allow_reduced)
        assert want_kind == ("reduced" if fix.reduced else "fix")
        assert within_lstsq_bound([*fix.p] if fix.reduced else [*fix.p, fix.range_to_h1], want, cond)
        held_anchors, dl, B, sol = fix._solved
        A, want_B = build_system(anchors, frame)
        assert held_anchors is anchors and np.array(dl).tobytes() == (-A[:, 3]).tobytes()
        assert np.array(B).tobytes() == want_B.tobytes()
        assert sol.size == (3 if allow_reduced else 4) and np.shares_memory(fix.p, sol)
        assert fix.p.tobytes() == sol[:3].tobytes()
        d[:] = 0.0
        want = frozen_solve(A, want_B, allow_reduced, anchors.positions[0])[1:5]
        got = (fix.range_to_h1, fix.residual, fix.range_consistency, fix.negative_range)
        assert list(map(bits, got)) == list(map(bits, want))


# --- synthesize_tdoa ---------------------------------------------------------------


def test_synthesize_equidistant_point_gives_zero_differences():
    anchors = box_anchors()
    center = np.array([2.0, 2.0, 2.0])
    frame = synthesize_tdoa(center, None, anchors)
    np.testing.assert_allclose(frame.d, np.zeros(8), atol=1e-12)


def test_synthesize_tag_offset_shifts_effective_position():
    anchors = box_anchors()
    P = np.array([1.3, 2.4, 1.9])
    v_c = np.array([-0.012, 0.001, 0.091])
    rng = np.random.default_rng(33)
    R = Rotation(random_rotation(rng))
    with_offset = synthesize_tdoa(P, R, anchors, tag_offset=v_c)
    at_shifted = synthesize_tdoa(P + R.m @ v_c, None, anchors)
    np.testing.assert_allclose(with_offset.d, at_shifted.d, atol=1e-12)
    plain = synthesize_tdoa(P, R, anchors)
    assert np.max(np.abs(with_offset.d - plain.d)) > 1e-4


def test_synthesis_solve_round_trip_with_offset():
    anchors = box_anchors()
    rng = np.random.default_rng(34)
    for _ in range(50):
        P = rng.uniform(0.5, 3.5, size=3)
        R = Rotation(random_rotation(rng))
        v_c = rng.uniform(-0.1, 0.1, size=3)
        frame = synthesize_tdoa(P, R, anchors, tag_offset=v_c)
        fix = solve_frame(anchors, frame)
        assert np.linalg.norm(fix.p - (P + R.m @ v_c)) <= 1e-8


def test_cyclic_differences_telescope_to_zero():
    anchors = box_anchors()
    rng = np.random.default_rng(35)
    for _ in range(50):
        P = rng.uniform(0.0, 4.0, size=3)
        frame = synthesize_tdoa(P, None, anchors)
        assert abs(np.sum(frame.d)) < 1e-12


def test_synthesize_noise_is_seed_deterministic():
    anchors = box_anchors()
    P = np.array([1.0, 1.0, 1.0])
    a = synthesize_tdoa(P, None, anchors, noise_sd=0.05, seed=(7, 1, 3))
    b = synthesize_tdoa(P, None, anchors, noise_sd=0.05, seed=(7, 1, 3))
    c = synthesize_tdoa(P, None, anchors, noise_sd=0.05, seed=(7, 1, 4))
    assert np.array_equal(a.d, b.d)
    assert not np.array_equal(a.d, c.d)


# --- anchors JSON ---------------------------------------------------------------


def test_load_anchors_round_trip(tmp_path):
    path = tmp_path / "anchors.json"
    doc = {
        "anchors": [
            {"id": 1, "pos": [0.0, 0.0, 0.0]},
            {"id": 2, "pos": [4.0, 0.0, 0.0]},
            {"id": 3, "pos": [0.0, 4.0, 0.0]},
            {"id": 4, "pos": [0.0, 0.0, 4.0]},
            {"id": 5, "pos": [4.0, 4.0, 4.0]},
        ]
    }
    path.write_text(json.dumps(doc))
    anchors = load_anchors(path)
    assert anchors.n == 5
    assert [a.id for a in anchors.anchors] == [1, 2, 3, 4, 5]
    np.testing.assert_allclose(anchors.positions[4], [4.0, 4.0, 4.0])


def test_load_anchors_rejects_malformed_document(tmp_path):
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps({"sites": []}))
    with pytest.raises(ValueError, match="malformed"):
        load_anchors(path)


FOUR = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{not json", "Expecting property name"),
        (json.dumps({"sites": []}), "'anchors'"),
        (json.dumps({"anchors": 5}), "not iterable"),
        (json.dumps({"anchors": [{"id": 1.7, "pos": p} for p in FOUR]}), "anchor id must be a whole number, got 1.7"),
        (json.dumps({"anchors": [{"id": i, "pos": [0.0, 0.0]} for i in range(4)]}), "anchor pos must have 3 components"),
        (json.dumps({"anchors": [{"id": i, "pos": p} for i, p in enumerate(FOUR[:3])]}), "need at least 4 anchors"),
        (json.dumps({"anchors": [{"id": 1, "pos": p} for p in FOUR]}), "anchor ids are not unique"),
        (json.dumps({"anchors": [{"id": i, "pos": [p[0], p[1], 0.0]} for i, p in enumerate(FOUR)]}), "coplanar"),
    ],
    ids=["not JSON", "no anchors", "not a list", "fractional id", "short pos", "three anchors", "same ids", "coplanar"],
)
def test_load_anchors_names_the_file_in_every_refusal(tmp_path, text, reason):
    path = tmp_path / "anchors.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^malformed anchor document {re.escape(str(path))}: .*{re.escape(reason)}"):
        load_anchors(path)
