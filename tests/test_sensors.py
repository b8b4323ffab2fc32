"""Tests for triad construction and the attitude misalignment innovation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frozen_build_triads, random_rotation
from uwbnav.liegroup import _trusted, pa, skew, vex
from uwbnav.sensors import (
    ImuSample,
    ReferenceVectors,
    TriadDegenerate,
    TriadPair,
    _body_rows,
    _body_rows_table,
    attitude_innovation,
    build_triads,
    predicted_body_vectors,
    weighted_matrix,
)

GRAVITY = np.array([0.0, 0.0, -9.8])
MAG_REF = np.array([-1.7, 0.0, 1.2])


def hover_sample(R, ref=None, t=0.0):
    """Noiseless accelerometer/magnetometer readings at rest with attitude R."""
    g = GRAVITY if ref is None else ref.gravity
    m = MAG_REF if ref is None else ref.mag_ref
    return ImuSample(timestamp=t, gyro=np.zeros(3), accel=-R.T @ g, mag=R.T @ m)


# --- reference vectors -----------------------------------------------------------


def test_reference_defaults():
    ref = ReferenceVectors()
    np.testing.assert_allclose(ref.gravity, GRAVITY)
    np.testing.assert_allclose(ref.mag_ref, MAG_REF)


def test_reference_rejects_zero_gravity():
    with pytest.raises(ValueError, match="gravity"):
        ReferenceVectors(gravity=(0.0, 0.0, 0.0))


def test_reference_rejects_parallel_field():
    with pytest.raises(ValueError, match="parallel"):
        ReferenceVectors(gravity=(0.0, 0.0, -9.8), mag_ref=(0.0, 0.0, 3.0))


# --- triad construction ----------------------------------------------------------


def test_build_triads_identity_attitude_matches_references():
    triads = build_triads(hover_sample(np.eye(3)), ReferenceVectors())
    np.testing.assert_allclose(triads.v[0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(triads.v[1], MAG_REF / np.linalg.norm(MAG_REF), atol=1e-15)
    np.testing.assert_allclose(triads.v, triads.r, atol=1e-15)
    np.testing.assert_allclose(triads.s, [1.0, 1.0, 1.0])


def test_build_triads_rotates_references_into_body_frame():
    ref = ReferenceVectors()
    rng = np.random.default_rng(41)
    for _ in range(100):
        R = random_rotation(rng)
        triads = build_triads(hover_sample(R), ref)
        # Each measured direction is the reference seen from the body frame.
        np.testing.assert_allclose(triads.v, triads.r @ R, atol=1e-13)


def test_build_triads_requires_magnetometer():
    sample = ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=[0.0, 0.0, 9.8], mag=None)
    with pytest.raises(TriadDegenerate, match="magnetometer"):
        build_triads(sample, ReferenceVectors())


def test_build_triads_rejects_zero_accel():
    sample = ImuSample(timestamp=0.0, gyro=np.zeros(3), accel=np.zeros(3), mag=MAG_REF)
    with pytest.raises(TriadDegenerate, match="norm"):
        build_triads(sample, ReferenceVectors())


def test_build_triads_rejects_collinear_measurements():
    sample = ImuSample(
        timestamp=0.0, gyro=np.zeros(3), accel=[0.0, 0.0, 9.8], mag=[0.0, 0.0, 2.0]
    )
    with pytest.raises(TriadDegenerate, match="collinear"):
        build_triads(sample, ReferenceVectors())


def test_build_triads_accepts_custom_weights():
    triads = build_triads(hover_sample(np.eye(3)), ReferenceVectors(), s=(2.0, 0.5, 0.5))
    np.testing.assert_allclose(triads.s, [2.0, 0.5, 0.5])


def test_triad_weights_must_sum_to_three():
    with pytest.raises(ValueError, match="sum to 3"):
        build_triads(hover_sample(np.eye(3)), ReferenceVectors(), s=(1.0, 1.0, 2.0))


@pytest.mark.parametrize("s", [(np.nan, np.nan, np.nan), (np.nan, 1.5, 1.5), (np.inf, 1.0, 1.0)])
def test_triad_weights_must_be_finite(s):
    # NaN passes both "w < 0" and "|sum - 3| > tol" as false, so it must be
    # rejected as a weight, not left to fail later as a non-orthogonal state.
    with pytest.raises(ValueError, match="finite nonnegative weights"):
        build_triads(hover_sample(np.eye(3)), ReferenceVectors(), s=s)


_COMPONENT = st.floats(min_value=-1.0, max_value=1.0)
_DIRECTION = (
    st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)
    .filter(lambda x: np.linalg.norm(x) > 0.1)
    .map(lambda x: np.array(x) / np.linalg.norm(x))
)
_WEIGHTS = st.one_of(
    st.none(),
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3)
    .filter(lambda w: sum(w) > 0.1)
    .map(lambda w: tuple(3.0 * x / sum(w) for x in w)),
)


# The drawn pairs: sin=None pairs two free directions; otherwise mag lies at
# an angle whose sine is in (1e-6, 1e-5] from accel, next to the collinearity
# bound, where the unit-row and orthogonality checks have least margin.
_DRAWN_PAIRS = given(
    u=_DIRECTION,
    w=_DIRECTION,
    sin=st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1e-5, exclude_min=True)),
    scale=st.tuples(st.floats(min_value=0.05, max_value=50.0), st.floats(min_value=0.05, max_value=5.0)),
    s=_WEIGHTS,
    custom_ref=st.booleans(),
)


def _drawn_sample(u, w, sin, scale, custom_ref):
    """The sample and references of one drawn pair."""
    if sin is None:
        m = w
    else:
        perp = np.cross(u, w)
        if np.linalg.norm(perp) < 0.1:
            perp = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
        m = np.sqrt(1.0 - sin * sin) * u + sin * perp / np.linalg.norm(perp)
    ref = ReferenceVectors(gravity=(0.1, -0.2, -9.81), mag_ref=(0.3, -1.6, 1.1)) if custom_ref else ReferenceVectors()
    return ImuSample(0.0, np.zeros(3), scale[0] * u, scale[1] * m), ref


@settings(max_examples=300, deadline=None)
@_DRAWN_PAIRS
def test_build_triads_pair_passes_the_public_constructor_unchanged(u, w, sin, scale, s, custom_ref):
    # build_triads checks only the weights it is given and skips
    # TriadPair.__post_init__: its unit body rows and orthogonal v3 hold by
    # construction.  This is the guard that they do, so the pair it returns
    # must pass that constructor as it is.
    sample, ref = _drawn_sample(u, w, sin, scale, custom_ref)
    try:
        triads = build_triads(sample, ref, s)
    except TriadDegenerate:
        # Only a pair no further from collinear than rounding can reach.
        assert sin is not None and sin < 1.000001e-6 or np.linalg.norm(np.cross(u, w)) <= 1.000001e-6
        return
    public = TriadPair(triads.v, triads.r, triads.s)
    assert triads.r is ref.triad
    for name in ("v", "r", "s"):
        assert np.array_equal(getattr(public, name), getattr(triads, name))
        assert getattr(triads, name).shape == getattr(public, name).shape


@settings(max_examples=300, deadline=None)
@_DRAWN_PAIRS
def test_the_body_rows_step_forms_are_build_triads_rows_bit_for_bit(u, w, sin, scale, s, custom_ref):
    # observer.step forms its triad from _body_rows without making the pair;
    # the rows must be the pair's v, as nine floats, or raise alike, and
    # both must be the rows of the frozen arithmetic in helpers.py.
    sample, ref = _drawn_sample(u, w, sin, scale, custom_ref)
    try:
        rows = _body_rows(sample)
    except TriadDegenerate:
        for build in (build_triads, frozen_build_triads):
            with pytest.raises(TriadDegenerate):
                build(sample, ref, s)
        return
    assert len(rows) == 9
    assert all(type(x) is float for x in rows)
    assert np.array(rows).tobytes() == build_triads(sample, ref, s).v.tobytes()
    assert np.array(rows).tobytes() == frozen_build_triads(sample, ref, s).v.tobytes()


def _per_sample_rows(accel, mags):
    """``_body_rows`` of each row pair, as the table form reports it: (rows or None) per sample."""
    out = []
    for a, m in zip(accel, mags):
        try:
            out.append(_body_rows(_trusted(ImuSample, timestamp=0.0, gyro=np.zeros(3), accel=a, mag=m)))
        except TriadDegenerate:
            out.append(None)
    return out


def _assert_table_is_per_sample(rows, formed, want):
    assert rows.shape == (len(want), 9) and len(formed) == len(want)
    assert all(type(f) is bool for f in formed)
    for k, w in enumerate(want):
        assert formed[k] == (w is not None), k
        if w is not None:
            assert rows[k].tobytes() == np.array(w).tobytes(), k


def test_the_table_form_is_body_rows_bit_for_bit():
    # 12 000 random rows over six decades of scale, with a sixth of the
    # magnetometer rows next to collinear and some norms near the 1e-9 bound.
    rng = np.random.default_rng(71)
    n = 12_000
    accel = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    mag = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    near = rng.random(n) < 1 / 6
    mag[near] = accel[near] * rng.uniform(0.1, 10.0, (near.sum(), 1)) + rng.normal(scale=1e-6, size=(near.sum(), 3))
    tiny = rng.random(n) < 0.01
    accel[tiny] *= 1e-9 / np.linalg.norm(accel[tiny], axis=1, keepdims=True) * rng.uniform(0.5, 2.0, (tiny.sum(), 1))
    want = _per_sample_rows(accel, mag)
    assert 0 < sum(w is None for w in want) < n // 5
    _assert_table_is_per_sample(*_body_rows_table(accel, mag), want)


def test_the_table_form_is_body_rows_bit_for_bit_on_strided_views():
    # The loop hands it imu[:, 4:7] and imu[:, 7:10], views into the IMU table,
    # and formed each sample's rows from row views of the same table.
    rng = np.random.default_rng(72)
    imu = rng.normal(size=(3_000, 10)) * 10.0 ** rng.uniform(-2.0, 2.0, (3_000, 1))
    accel, mag = imu[:, 4:7], imu[:, 7:10]
    assert not accel.flags.c_contiguous and not mag.flags.c_contiguous
    want = _per_sample_rows(accel, mag)
    rows, formed = _body_rows_table(accel, mag)
    _assert_table_is_per_sample(rows, formed, want)
    copied, formed_copied = _body_rows_table(accel.copy(), mag.copy())
    assert copied.tobytes() == rows.tobytes() and formed_copied == formed


@pytest.mark.parametrize(
    "accel, mag",
    [([0.0, 0.0, 9.8], None), ([0.0, 0.0, 0.0], [-1.7, 0.0, 1.2]), ([0.0, 0.0, 9.8], [0.0, 0.0, 0.0]),
     ([0.3, -0.2, 9.8], [0.06, -0.04, 1.96]), ([0.0, 0.0, 5e-10], [-1.7, 0.0, 1.2])],
    ids=["no magnetometer", "zero accelerometer", "zero magnetometer", "collinear", "accel norm below 1e-9"],
)
def test_the_table_form_flags_each_degenerate_sample(accel, mag):
    # Between two good samples, as a list with None for the missing magnetometer.
    good = hover_sample(np.eye(3))
    accels = np.array([good.accel, accel, good.accel])
    mags = [good.mag, None if mag is None else np.array(mag, dtype=float), good.mag]
    with pytest.raises(TriadDegenerate):
        _body_rows(_trusted(ImuSample, timestamp=0.0, gyro=np.zeros(3), accel=accels[1], mag=mags[1]))
    rows, formed = _body_rows_table(accels, mags)
    assert formed == [True, False, True]
    assert rows[0].tobytes() == rows[2].tobytes() == np.array(_body_rows(good)).tobytes()


def test_the_table_form_passes_a_nan_norm_as_body_rows_does():
    # A NaN fails every "<=" test in both forms, so the rows come out NaN, not flagged.
    accel = np.array([[0.0, 0.0, 9.8], [np.nan, 0.0, 9.8]])
    mag = np.array([[np.nan, 0.0, 1.2], [-1.7, 0.0, 1.2]])
    want = _per_sample_rows(accel, mag)
    rows, formed = _body_rows_table(accel, mag)
    assert formed == [True, True]
    for k in range(2):
        assert np.array_equal(rows[k], np.array(want[k]), equal_nan=True)
    assert np.isnan(rows).any(axis=1).all()


def test_reference_rows_are_checked_once_when_the_references_are_made(monkeypatch):
    # ref.triad is frozen at construction, so TriadPair's unit-row check on r
    # runs there; build_triads checks no rows at all, as its own are unit by
    # construction.
    import uwbnav.sensors as sensors

    checked = []
    real = sensors._check_unit_rows
    monkeypatch.setattr(sensors, "_check_unit_rows", lambda name, rows: (checked.append(name), real(name, rows)))
    ref = ReferenceVectors()
    assert checked == ["r"]
    for k in range(20):
        build_triads(hover_sample(random_rotation(np.random.default_rng(k)), ref), ref)
    assert checked == ["r"]


def test_triadpair_rejects_non_unit_rows():
    with pytest.raises(ValueError, match="unit"):
        TriadPair(v=2.0 * np.eye(3), r=np.eye(3))


def test_triadpair_requires_orthogonal_third_vector():
    v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [np.sqrt(0.5), 0.0, np.sqrt(0.5)]])
    with pytest.raises(ValueError, match="orthogonal"):
        TriadPair(v=v, r=np.eye(3))


def test_triads_and_innovation_match_the_np_cross_forms_bit_for_bit():
    # The triad is built with written-out cross products and norms, and the
    # reference rows are cached on ReferenceVectors; both must equal the
    # np.cross forms, the body rows' norms summed elementwise (no BLAS dot).
    rng = np.random.default_rng(43)

    def norm(x):
        return np.sqrt(np.sum(x * x))

    ref = ReferenceVectors(gravity=(0.1, -0.2, -9.81), mag_ref=(0.3, -1.6, 1.1))
    g = ref.gravity
    r1 = -g / np.linalg.norm(g)
    r2 = ref.mag_ref / np.linalg.norm(ref.mag_ref)
    cr = np.cross(r1, r2)
    r = np.array([r1, r2, cr / np.linalg.norm(cr)])
    for _ in range(500):
        sample = ImuSample(0.0, np.zeros(3), rng.normal(scale=5.0, size=3), rng.normal(size=3))
        triads = build_triads(sample, ref)
        v1 = sample.accel / norm(sample.accel)
        v2 = sample.mag / norm(sample.mag)
        cv = np.cross(v1, v2)
        assert np.array_equal(triads.v, np.array([v1, v2, cv / norm(cv)]))
        assert np.array_equal(triads.r, r)
        Rhat = random_rotation(rng)
        vhat = predicted_body_vectors(Rhat, triads)
        body_sum, inertial_sum = attitude_innovation(triads, vhat, Rhat)
        expected = np.cross(triads.v, vhat).T @ triads.s
        assert np.array_equal(body_sum, expected)
        assert np.array_equal(inertial_sum, Rhat @ expected)


def test_reference_vectors_are_frozen_copies():
    gravity = np.array([0.0, 0.0, -9.8])
    ref = ReferenceVectors(gravity=gravity)
    gravity[2] = -1.0
    assert ref.gravity[2] == -9.8
    for arr in (ref.gravity, ref.mag_ref, ref.triad):
        assert not arr.flags.writeable


# --- confidence matrices ----------------------------------------------------------


def test_weighted_matrix_orthonormal_unit_weights_is_identity():
    triads = TriadPair(v=np.eye(3), r=np.eye(3))
    np.testing.assert_allclose(weighted_matrix(triads), np.eye(3), atol=1e-15)


def test_weighted_matrix_eigenvalues_are_the_weights():
    triads = TriadPair(v=np.eye(3), r=np.eye(3), s=(2.0, 0.5, 0.5))
    eig = np.sort(np.linalg.eigvalsh(weighted_matrix(triads)))
    np.testing.assert_allclose(eig, [0.5, 0.5, 2.0], atol=1e-12)


def test_weighted_matrix_matches_outer_product_sum():
    rng = np.random.default_rng(42)
    ref = ReferenceVectors()
    for _ in range(20):
        R = random_rotation(rng)
        w = rng.uniform(0.2, 2.0, size=3)
        s = 3.0 * w / np.sum(w)
        triads = build_triads(hover_sample(R), ref, s=s)
        expected = sum(s[i] * np.outer(triads.r[i], triads.r[i]) for i in range(3))
        np.testing.assert_allclose(weighted_matrix(triads), expected, atol=1e-13)
        assert np.trace(weighted_matrix(triads)) == pytest.approx(3.0)


def test_weighted_matrix_is_symmetric_psd():
    rng = np.random.default_rng(43)
    triads = build_triads(hover_sample(random_rotation(rng)), ReferenceVectors())
    M = weighted_matrix(triads)
    np.testing.assert_allclose(M, M.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(M)) >= -1e-14


# --- predicted directions -----------------------------------------------------------


def test_predicted_vectors_identity_estimate_returns_references():
    triads = build_triads(hover_sample(np.eye(3)), ReferenceVectors())
    np.testing.assert_allclose(predicted_body_vectors(np.eye(3), triads), triads.r)


def test_predicted_vectors_true_estimate_matches_measurements():
    rng = np.random.default_rng(44)
    for _ in range(20):
        R = random_rotation(rng)
        triads = build_triads(hover_sample(R), ReferenceVectors())
        vhat = predicted_body_vectors(R, triads)
        np.testing.assert_allclose(vhat, triads.v, atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(vhat, axis=1), np.ones(3), atol=1e-13)


# --- innovation ---------------------------------------------------------------------


def test_innovation_vanishes_when_aligned():
    rng = np.random.default_rng(45)
    R = random_rotation(rng)
    triads = build_triads(hover_sample(R), ReferenceVectors())
    body, inertial = attitude_innovation(triads, predicted_body_vectors(R, triads), R)
    assert np.max(np.abs(body)) < 1e-13
    assert np.max(np.abs(inertial)) < 1e-13


def test_innovation_matches_projected_matrix_form():
    # The inertial-frame sum must equal 2 vex(Pa(M_r R Rhat^T)).
    rng = np.random.default_rng(46)
    ref = ReferenceVectors()
    for _ in range(100):
        R = random_rotation(rng)
        Rhat = random_rotation(rng)
        w = rng.uniform(0.2, 2.0, size=3)
        triads = build_triads(hover_sample(R), ref, s=3.0 * w / np.sum(w))
        vhat = predicted_body_vectors(Rhat, triads)
        _, inertial = attitude_innovation(triads, vhat, Rhat)
        expected = 2.0 * vex(pa(weighted_matrix(triads) @ (R @ Rhat.T)))
        np.testing.assert_allclose(inertial, expected, atol=1e-10)


def test_innovation_axis_for_yaw_misalignment():
    # Orthonormal triads, truth yawed about z, identity estimate: the
    # innovation points along z with magnitude 2 sin(theta).
    for theta in (0.1, 0.5, 1.0):
        c, s = np.cos(theta), np.sin(theta)
        Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        triads = TriadPair(v=np.eye(3) @ Rz, r=np.eye(3))
        body, inertial = attitude_innovation(
            triads, predicted_body_vectors(np.eye(3), triads), np.eye(3)
        )
        np.testing.assert_allclose(body, [0.0, 0.0, 2.0 * s], atol=1e-12)
        np.testing.assert_allclose(inertial, body, atol=1e-15)


def test_cross_product_matrix_identity():
    # [v x vhat]_x = vhat v^T - v vhat^T, the bridge between the vector and
    # matrix forms of the innovation.
    rng = np.random.default_rng(47)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        vhat = rng.normal(size=3)
        vhat /= np.linalg.norm(vhat)
        lhs = skew(np.cross(v, vhat))
        rhs = np.outer(vhat, v) - np.outer(v, vhat)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_imu_sample_rejects_bad_vector_shape():
    with pytest.raises(ValueError):
        ImuSample(timestamp=0.0, gyro=[1.0, 2.0], accel=[0.0, 0.0, 9.8])
