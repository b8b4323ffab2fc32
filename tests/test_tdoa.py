"""Tests for anchor geometry and TDOA least-squares reconstruction."""

import json
import math
import re
import struct
import warnings
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
        # What each frame's solve reads: the range bound and the first anchor's row.
        assert a._bound == diameter + DIAMETER_SLACK
        assert a._h1.tobytes() == positions[0].tobytes() and not a._h1.flags.writeable


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
        B[k] = 0.5 * (d[k] ** 2 + norms[k] - norms[j] + 2.0 * d[k] * csum)
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


def lstsq_reference(A, B, allow_reduced, h1):
    """The fix as np.linalg.lstsq computes it, as a (kind, values) pair.

    np.linalg.lstsq runs LAPACK gelsd, the routine solve_frame calls
    directly, with the same singular value cutoff: the kinds must match
    exactly and the values to rounding.
    """
    sol, _, rank, _ = np.linalg.lstsq(A, B, rcond=RANK_TOL)
    if rank < 4:
        if not allow_reduced:
            return "degenerate", [rank]
        sol3, _, rank3, _ = np.linalg.lstsq(A[:, :3], B, rcond=RANK_TOL)
        if rank3 < 3:
            return "degenerate", [rank3]
        return "reduced", [*sol3, math.sqrt(np.mean((A[:, :3] @ sol3 - B) ** 2))]
    return "fix", [*sol, math.sqrt(np.mean((A @ sol - B) ** 2)), abs(sol[3] - np.linalg.norm(sol[:3] - h1))]


def classify(solve):
    try:
        fix = solve()
    except GeometryDegenerate as exc:
        return "degenerate", [exc.rank]
    except ValueError:
        return "invalid", []
    if fix.reduced:
        assert np.isnan(fix.range_to_h1) and np.isnan(fix.range_consistency)
        return "reduced", [*fix.p, fix.residual]
    assert fix.negative_range == (fix.range_to_h1 < 0.0)
    return "fix", [*fix.p, fix.range_to_h1, fix.residual, fix.range_consistency]


def assert_same_fix(got, want):
    assert got[0] == want[0]
    # 1e-12 relative; the 1e-14 m floor covers residuals of exact fits, which
    # are rounding noise.
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-14)


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
                if valid:
                    want = lstsq_reference(
                        *build_system_rows(anchors, frame), allow_reduced, anchors.positions[0]
                    )
                else:
                    want = "invalid", []
                assert_same_fix(got, want)
                kinds.add(got[0])
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


def assert_bit_exact_with_numpy_lstsq():
    """``tdoa._lstsq`` and ``solve_frame`` against ``np.linalg.lstsq`` on random
    frames: the same solution, rank and singular values to the last bit, and
    the same exceptions, rank-deficient frames too."""
    rng = np.random.default_rng(37)
    ranks = set()
    for _ in range(120):
        pts = rng.uniform(-5.0, 5.0, (int(rng.integers(4, 13)), 3))
        anchors = AnchorSet(tuple(Anchor(id=i, pos=p) for i, p in enumerate(pts)))
        for d in random_frames(rng, anchors):
            if d.shape != (anchors.n,) or np.abs(d).max() > anchors.diameter + DIAMETER_SLACK:
                continue
            frame = TdoaFrame(timestamp=0.0, d=d)
            A, B = build_system(anchors, frame)
            x, _, rank, sv = np.linalg.lstsq(A, B, rcond=RANK_TOL)
            x3, _, rank3, _ = np.linalg.lstsq(A[:, :3], B, rcond=RANK_TOL)
            got, got_rank, got_sv = tdoa._lstsq(A, B)
            assert type(got_rank) is int and got_rank == rank
            assert np.array_equal(got, x) and np.array_equal(got_sv, sv)
            ranks.add(rank)
            if rank == 4:
                fix = solve_frame(anchors, frame)
                assert np.array_equal(fix.p, x[:3]) and fix.range_to_h1 == x[3]
                continue
            with pytest.raises(GeometryDegenerate) as exc:
                solve_frame(anchors, frame)
            assert exc.value.rank == rank and str(sv) in str(exc.value)
            assert rank3 == 3
            assert np.array_equal(solve_frame(anchors, frame, allow_reduced=True).p, x3)
    assert ranks == {3, 4}


def test_solve_frame_is_bit_exact_with_numpy_lstsq():
    # The solver calls the gufunc np.linalg.lstsq runs, chosen at import.
    assert_bit_exact_with_numpy_lstsq()


def _nudged_lstsq(A, B, rcond):
    """The gufunc's answer through np.linalg.lstsq, its solution one ulp off."""
    x, residuals, rank, sv = np.linalg.lstsq(A, B, rcond=rcond)
    return np.nextafter(x, np.inf), residuals, rank, sv


@pytest.mark.parametrize(
    "gufunc",
    [None, SimpleNamespace(), SimpleNamespace(lstsq=lambda A, B: np.linalg.lstsq(A, B)),
     SimpleNamespace(lstsq=_nudged_lstsq)],
    ids=["no module", "no gufunc", "another signature", "other bits"],
)
def test_the_numpy_lstsq_fallback_is_bit_exact_with_numpy_lstsq(monkeypatch, gufunc):
    # A numpy whose private gufunc is missing, called otherwise or answers the
    # probe with other bits gets np.linalg.lstsq itself, and the same fixes.
    monkeypatch.setattr(tdoa, "_umath_linalg", gufunc)
    assert tdoa._select_lstsq() is tdoa._numpy_lstsq
    monkeypatch.setattr(tdoa, "_lstsq", tdoa._numpy_lstsq)
    assert_bit_exact_with_numpy_lstsq()


def test_a_non_finite_solve_raises_linalg_error(monkeypatch):
    def failed(A, B, rcond):
        n = A.shape[1]
        return np.full((n, 1), np.nan), np.full(1, np.nan), np.int32(-1), np.full(n, np.nan)

    monkeypatch.setattr(tdoa, "_umath_linalg", SimpleNamespace(lstsq=failed))
    monkeypatch.setattr(tdoa, "_lstsq", tdoa._gufunc_lstsq)
    frame = synthesize_tdoa([1.0, 2.0, 0.5], None, box_anchors())
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        solve_frame(box_anchors(), frame)


GUFUNCS = np.linalg._linalg._umath_linalg  # numpy's own, which FailingGufuncs wraps


class FailingGufuncs:
    """numpy's private linalg gufuncs, ``lstsq`` failing on systems of
    ``columns`` columns as it does when LAPACK's SVD does not converge: a NaN
    solution and the floating-point invalid flag, which ``np.linalg.lstsq``
    turns into its LinAlgError."""

    def __init__(self, columns):
        self.columns = columns

    def __getattr__(self, name):
        return getattr(GUFUNCS, name)

    def lstsq(self, A, B, rcond, **kwargs):
        x, residuals, rank, sv = GUFUNCS.lstsq(A, B, rcond, **kwargs)
        if A.shape[1] == self.columns:
            np.multiply(np.inf, 0.0)  # the invalid flag
            x = np.full_like(x, np.nan)
        return x, residuals, rank, sv


def numpy_solve(anchors, frame, allow_reduced):
    """(p, reduced) of the frame by the documented checks, rows and ``np.linalg.lstsq``."""
    d, n, bound = frame.d, anchors.n, anchors.diameter + DIAMETER_SLACK
    if d.shape != (n,):
        raise ValueError(f"frame has {d.shape[0]} differences for {n} anchors")
    if np.abs(d).max() > bound:
        raise ValueError(f"range difference exceeds anchor-set diameter + slack ({bound:.3f} m)")
    p, *_, reduced = frozen_solve(*build_system_rows(anchors, frame), allow_reduced, anchors.positions[0])
    return p, reduced


def outcome(solve):
    """A refused solve's exception type, message and rank, or a fix's position bits and reduced flag.

    The invalid flag is ignored outside ``np.linalg.lstsq``, which sets its own
    handling of it: a failed solve is caught by its non-finite solution there.
    """
    with np.errstate(invalid="ignore"):
        try:
            got = solve()
        except (GeometryDegenerate, ValueError) as exc:
            return type(exc), str(exc), getattr(exc, "rank", None)
    p, reduced = (got.p, got.reduced) if isinstance(got, tdoa.ReconstructedPosition) else got
    return "fix", p.dtype, p.shape, p.tobytes(), reduced


@pytest.fixture(scope="module")
def zigzag_anchors():
    """1 000 anchors that are not coplanar but whose 3-column system has rank 2
    under ``RANK_TOL``: a zigzag in x and y and an 8 um slow wave in z, which
    the chain's differences attenuate about 300-fold."""
    k = np.arange(1000)
    z = 8e-6 * np.cos(2 * np.pi * k / 1000)
    pts = np.column_stack([np.where(k % 2, -4.0, 4.0), np.where(k // 2 % 2, -4.0, 4.0), z])
    return AnchorSet(tuple(Anchor(id=i, pos=p) for i, p in enumerate(pts)))


LinAlgError = np.linalg.LinAlgError
FLAT_SOLVE_CASES = {
    # name: (anchor set, differences, allow_reduced, failing solve's column count, outcome kind)
    "full rank": ("box", "noisy", False, None, "fix"),
    "wrong count": ("box", np.zeros(7), False, None, ValueError),
    "out of range": ("box", "beyond", False, None, ValueError),
    "rank 3": ("box", np.zeros(8), False, None, GeometryDegenerate),
    "rank 3, reduced": ("box", np.zeros(8), True, None, "fix"),
    "rank 2": ("zigzag", np.zeros(1000), False, None, GeometryDegenerate),
    "rank 2, reduced rank 2": ("zigzag", np.zeros(1000), True, None, GeometryDegenerate),
    "non-finite, 4 columns": ("box", "noisy", False, 4, LinAlgError),
    "non-finite, 3 columns": ("box", np.zeros(8), True, 3, LinAlgError),
}


@pytest.mark.parametrize("selection", ["gufunc", "numpy"])
@pytest.mark.parametrize("case", list(FLAT_SOLVE_CASES))
def test_the_flat_solve_refuses_and_solves_as_numpy_lstsq(monkeypatch, request, selection, case):
    # The same exception type, message and rank, or the same position bits, as the
    # documented checks and rows with np.linalg.lstsq, with either selected _lstsq;
    # a fix holds build_system's A and B, bit for bit, and the first anchor's row.
    if selection == "gufunc" and tdoa._umath_linalg is None:
        pytest.skip("this numpy has no private lstsq gufunc")
    anchor_name, d, allow_reduced, failing, kind = FLAT_SOLVE_CASES[case]
    anchors = box_anchors() if anchor_name == "box" else request.getfixturevalue("zigzag_anchors")
    if isinstance(d, str):
        sign = (-1.0) ** np.arange(anchors.n)
        d = {
            "noisy": synthesize_tdoa([1.0, 2.5, 1.5], None, anchors, noise_sd=0.05, seed=4).d,
            "beyond": (anchors.diameter + DIAMETER_SLACK + 0.5) * sign,
        }[d]
    frame = TdoaFrame(timestamp=0.0, d=d)
    monkeypatch.setattr(tdoa, "_lstsq", tdoa._gufunc_lstsq if selection == "gufunc" else tdoa._numpy_lstsq)
    if failing is not None:
        monkeypatch.setattr(tdoa, "_umath_linalg", FailingGufuncs(failing))
        monkeypatch.setattr(np.linalg._linalg, "_umath_linalg", FailingGufuncs(failing))
    got = outcome(lambda: solve_frame(anchors, frame, allow_reduced))
    assert got == outcome(lambda: numpy_solve(anchors, frame, allow_reduced))
    assert got[0] == kind
    if kind == "fix":
        A, B, _, h1 = solve_frame(anchors, frame, allow_reduced)._system
        want_A, want_B = build_system(anchors, frame)
        for have, want in ((A, want_A), (B, want_B), (h1, anchors.positions[0])):
            assert have.dtype == want.dtype and have.shape == want.shape and have.tobytes() == want.tobytes()


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
