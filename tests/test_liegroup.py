"""Tests for the rotation/state containers and exponential maps."""

import numpy as np
import pytest

from helpers import expm_series, frozen_se23_exp, random_rotation
from uwbnav.liegroup import (
    _EXP_TAYLOR_SWITCH,
    _ZERO3,
    NavState,
    _as_vec3,
    Rotation,
    SMALL_ANGLE,
    TangentElement,
    att_dist,
    _pack,
    _se23_exp,
    pa,
    reorthonormalize,
    se23_exp,
    skew,
    so3_exp,
    vex,
)


# --- the boundary check ------------------------------------------------------


@pytest.mark.parametrize(
    "x",
    [
        np.array([1.0, -2.0, 3.0]),
        np.arange(12.0).reshape(3, 4)[:, 1],  # strided
        np.array([1.0, -2.0, 3.0], dtype=">f8"),
        np.array([[1.0], [-2.0], [3.0]]),
        np.array([[1.0, -2.0, 3.0]]),
        np.array([1, -2, 3]),
        [1, -2, 3],
    ],
)
def test_as_vec3_takes_every_finite_3_vector_as_a_float_3_vector(x):
    v = _as_vec3(x, "x")
    assert type(v) is np.ndarray and v.shape == (3,) and v.dtype == np.float64
    assert np.array_equal(v, np.asarray(x, dtype=float).reshape(-1))


@pytest.mark.parametrize(
    "x, message",
    [
        (np.array([1.0, np.nan, 3.0]), "x must be finite, got [ 1. nan  3.]"),
        (np.array([np.inf, 0.0, 0.0]), "x must be finite, got [inf  0.  0.]"),
        ([[0.0], [0.0], [-np.inf]], "x must be finite, got [  0.   0. -inf]"),
        (np.zeros(4), "x must have 3 components, got shape (4,)"),
        (np.zeros((3, 3)), "x must have 3 components, got shape (3, 3)"),
    ],
)
def test_as_vec3_refuses_with_its_message(x, message):
    with pytest.raises(ValueError) as info:
        _as_vec3(x, "x")
    assert str(info.value) == message


# --- skew / vex / pa ---------------------------------------------------------


def test_skew_zero_vector_gives_zero_matrix():
    assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_skew_matches_displayed_matrix():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(skew([1.0, 2.0, 3.0]), expected)


@pytest.mark.parametrize(
    "y, x",
    [
        ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
        ([0.3, -1.2, 2.5], [0.7, 0.7, -0.1]),
        ([-2.0, 0.5, 1.0], [1.0, 2.0, 3.0]),
    ],
)
def test_skew_realizes_cross_product(y, x):
    np.testing.assert_allclose(skew(y) @ x, np.cross(y, x), atol=1e-15)


def test_skew_is_antisymmetric_for_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(50):
        S = skew(rng.normal(size=3))
        assert np.array_equal(S, -S.T)


def test_vex_zero_matrix():
    assert np.array_equal(vex(np.zeros((3, 3))), np.zeros(3))


def test_vex_inverts_skew():
    rng = np.random.default_rng(12)
    for _ in range(100):
        y = rng.normal(size=3)
        assert np.array_equal(vex(skew(y)), y)
        S = skew(y)
        assert np.array_equal(skew(vex(S)), S)


def test_vex_pa_component_formula():
    rng = np.random.default_rng(13)
    for _ in range(100):
        Y = rng.normal(size=(3, 3))
        expected = 0.5 * np.array(
            [Y[2, 1] - Y[1, 2], Y[0, 2] - Y[2, 0], Y[1, 0] - Y[0, 1]]
        )
        np.testing.assert_allclose(vex(pa(Y)), expected, atol=1e-15)


def test_vex_rejects_non_skew_input():
    with pytest.raises(ValueError):
        vex(np.eye(3))


def test_pa_of_symmetric_matrix_is_zero():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(3, 3))
    sym = A + A.T
    np.testing.assert_allclose(pa(sym), np.zeros((3, 3)), atol=1e-15)


def test_pa_fixes_skew_matrices():
    S = skew([0.4, -0.2, 0.9])
    assert np.array_equal(pa(S), S)


def test_pa_direct_formula():
    Y = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expected = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(pa(Y), expected)


# --- attitude distance -------------------------------------------------------


def test_att_dist_identity_is_zero():
    assert att_dist(Rotation.identity()) == 0.0


@pytest.mark.parametrize(
    "angle, expected",
    [(np.pi, 1.0), (np.pi / 2.0, 0.5), (0.0, 0.0)],
)
def test_att_dist_trace_formula_about_z(angle, expected):
    R = so3_exp(np.array([0.0, 0.0, angle]))
    assert att_dist(R) == pytest.approx(expected, abs=1e-12)


def test_att_dist_range_and_trace_bounds():
    rng = np.random.default_rng(15)
    for _ in range(200):
        R = random_rotation(rng)
        d = att_dist(R)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= np.trace(R) <= 3.0 + 1e-12


def test_att_dist_weighted_form():
    rng = np.random.default_rng(16)
    for _ in range(50):
        R = random_rotation(rng)
        A = rng.normal(size=(3, 3))
        M = A @ A.T
        assert att_dist(R, M) == pytest.approx(0.25 * np.trace(M - M @ R), abs=1e-12)


# --- packing ------------------------------------------------------------------


def test_pack_identity_state_is_identity_matrix():
    s = NavState.identity()
    assert np.array_equal(_pack(s.rot.m, s.pos, s.vel), np.eye(5))


def test_pack_layout_and_bottom_rows():
    rng = np.random.default_rng(17)
    R = random_rotation(rng)
    P = rng.normal(size=3)
    V = rng.normal(size=3)
    X = _pack(R, P, V)
    assert np.array_equal(X[:3, :3], R)
    assert np.array_equal(X[:3, 3], P)
    assert np.array_equal(X[:3, 4], V)
    assert np.array_equal(X[3], [0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(X[4], [0.0, 0.0, 0.0, 0.0, 1.0])


def test_pack_unpack_round_trip_is_bit_identical():
    rng = np.random.default_rng(18)
    for _ in range(20):
        s = NavState(Rotation(random_rotation(rng)), rng.normal(size=3), rng.normal(size=3))
        X = _pack(s.rot.m, s.pos, s.vel)
        back = NavState(Rotation(X[:3, :3]), X[:3, 3], X[:3, 4])
        assert np.array_equal(back.rot.m, s.rot.m)
        assert np.array_equal(back.pos, s.pos)
        assert np.array_equal(back.vel, s.vel)


# --- rotation / state validation ---------------------------------------------


def test_rotation_rejects_non_orthogonal_matrix():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.01)


def test_rotation_rejects_reflection():
    m = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Rotation(m)


def test_navstate_requires_finite_components():
    with pytest.raises(ValueError):
        NavState(Rotation.identity(), [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_tangent_element_matrix_layout():
    u = TangentElement([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0], 2.0)
    m = u.matrix()
    assert np.array_equal(m[:3, :3], skew([1.0, 2.0, 3.0]))
    assert np.array_equal(m[:3, 3], [4.0, 5.0, 6.0])
    assert np.array_equal(m[:3, 4], [7.0, 8.0, 9.0])
    assert m[4, 3] == 2.0
    assert np.array_equal(m[3], np.zeros(5))
    assert np.array_equal(m[4, [0, 1, 2, 4]], np.zeros(4))


# --- so3_exp -------------------------------------------------------------------


def test_so3_exp_zero_is_identity():
    assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))


def test_so3_exp_quarter_turn_matches_series():
    R = so3_exp(np.array([0.0, 0.0, np.pi / 2.0]), 1.0)
    ref = expm_series(skew([0.0, 0.0, np.pi / 2.0]))
    assert np.linalg.norm(R - ref) / np.linalg.norm(ref) < 1e-12


def test_so3_exp_small_angle_branch():
    omega = np.array([1e-12, 0.0, 0.0])
    R = so3_exp(omega, 1.0)
    np.testing.assert_allclose(R, np.eye(3) + skew(omega), atol=1e-12)


def test_so3_exp_stays_orthogonal():
    rng = np.random.default_rng(19)
    for _ in range(200):
        omega = rng.normal(size=3) * rng.uniform(0.0, 5.0)
        dt = rng.uniform(1e-4, 1.0)
        R = so3_exp(omega, dt)
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12


def so3_exp_matrix_form(omega, dt):
    """The matrix expression so3_exp evaluates on floats, entry by entry."""
    S = skew(omega) * dt
    theta = np.linalg.norm(omega) * abs(dt)
    if theta < SMALL_ANGLE:
        return np.eye(3) + S + 0.5 * (S @ S)
    return np.eye(3) + (np.sin(theta) / theta) * S + ((1.0 - np.cos(theta)) / theta**2) * (S @ S)


def test_so3_exp_matches_the_matrix_form_bit_for_bit():
    # Random axes, angles from 1e-12 to 30 rad (both sides of SMALL_ANGLE),
    # both signs of dt, the zero vector and the switch point itself: every
    # bit, the sign of each zero included.  Rotation.from_rotvec is the dt = 1 case.
    rng = np.random.default_rng(31)
    below = np.nextafter(SMALL_ANGLE, 0.0)
    cases = [(np.zeros(3), 1.0), (np.zeros(3), -1.0), (np.array([0.0, SMALL_ANGLE, 0.0]), 1.0),
             (np.array([0.0, 0.0, below]), -1.0)]
    for _ in range(4000):
        axis = rng.normal(size=3)
        omega = axis / np.linalg.norm(axis) * 10.0 ** rng.uniform(-12.0, 1.5)
        cases.append((omega, float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0))))
    small = 0
    for omega, dt in cases:
        assert so3_exp(omega, dt).tobytes() == so3_exp_matrix_form(omega, dt).tobytes(), (omega, dt)
        small += np.linalg.norm(omega) * abs(dt) < SMALL_ANGLE
        assert Rotation.from_rotvec(omega).m.tobytes() == so3_exp_matrix_form(omega, 1.0).tobytes()
    assert 200 <= small <= len(cases) - 200, small


def test_so3_exp_handles_negative_dt():
    omega = np.array([0.4, -0.2, 0.9])
    forward = so3_exp(omega, 0.05)
    backward = so3_exp(omega, -0.05)
    np.testing.assert_allclose(forward @ backward, np.eye(3), atol=1e-14)


# --- se23_exp -------------------------------------------------------------------


def _random_tangent(rng) -> TangentElement:
    return TangentElement(
        rng.normal(size=3) * rng.uniform(0.1, 3.0),
        rng.normal(size=3) * 5.0,
        rng.normal(size=3) * 5.0,
        rng.normal() * 2.0,
    )


def test_se23_exp_zero_is_identity():
    u = TangentElement(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
    assert np.array_equal(se23_exp(u, 0.01), np.eye(5))


def test_se23_exp_nilpotent_case():
    u = TangentElement(np.zeros(3), [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], 0.0)
    dt = 0.02
    X = se23_exp(u, dt)
    expected = np.eye(5)
    expected[:3, 3] = dt * np.array([1.0, 2.0, 3.0])
    expected[:3, 4] = dt * np.array([4.0, 5.0, 6.0])
    np.testing.assert_allclose(X, expected, atol=1e-15)


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 1e-1])
def test_se23_exp_matches_series_oracle(dt):
    rng = np.random.default_rng(20)
    for _ in range(100):
        u = _random_tangent(rng)
        X = se23_exp(u, dt)
        ref = expm_series(u.matrix() * dt)
        rel = np.linalg.norm(X - ref) / np.linalg.norm(ref)
        assert rel < 1e-10


def test_se23_exp_one_parameter_subgroup():
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = _random_tangent(rng)
        a, b = rng.uniform(1e-3, 0.05, size=2)
        lhs = se23_exp(u, a) @ se23_exp(u, b)
        rhs = se23_exp(u, a + b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_se23_exp_top_left_block_is_so3_exp():
    rng = np.random.default_rng(22)
    for _ in range(50):
        u = _random_tangent(rng)
        dt = rng.uniform(1e-3, 0.1)
        np.testing.assert_allclose(se23_exp(u, dt)[:3, :3], so3_exp(u.omega, dt), atol=1e-14)


def test_se23_exp_negative_dt_inverts():
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = _random_tangent(rng)
        X = se23_exp(u, 0.03) @ se23_exp(u, -0.03)
        np.testing.assert_allclose(X, np.eye(5), atol=1e-13)


def se23_exp_matrix_form(u, dt):
    """The closed form written with whole 3x3 matrices, as documented in se23_exp."""
    S = skew(u.omega) * dt
    theta = float(np.linalg.norm(u.omega)) * abs(dt)
    if theta < 0.1:
        t2 = theta * theta
        t4 = t2 * t2
        t6 = t4 * t2
        s1 = 1.0 - t2 / 6.0 + t4 / 120.0 - t6 / 5040.0
        c1 = 0.5 - t2 / 24.0 + t4 / 720.0 - t6 / 40320.0
        c2 = 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t6 / 362880.0
        d2 = 1.0 / 24.0 - t2 / 720.0 + t4 / 40320.0 - t6 / 3628800.0
    else:
        t2 = theta * theta
        s1 = np.sin(theta) / theta
        c1 = (1.0 - np.cos(theta)) / t2
        c2 = (theta - np.sin(theta)) / (t2 * theta)
        d2 = (np.cos(theta) - 1.0 + 0.5 * t2) / (t2 * t2)
    S2 = S @ S
    I3 = np.eye(3)
    E = np.eye(5)
    E[:3, :3] = I3 + s1 * S + c1 * S2
    J = dt * (I3 + c1 * S + c2 * S2)
    K = dt * dt * (0.5 * I3 + c2 * S + d2 * S2)
    E[:3, 3] = J @ u.vcol + u.rho * (K @ u.acol)
    E[:3, 4] = J @ u.acol
    E[4, 3] = u.rho * dt
    return E


def test_se23_exp_matches_the_matrix_form_bit_for_bit():
    # Both coefficient branches, negative steps and zero blocks.
    rng = np.random.default_rng(27)
    for k in range(600):
        u = _random_tangent(rng)
        if k % 4 == 0:
            u = TangentElement(u.omega, np.zeros(3), u.acol, 1.0)
        dt = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.5))
        assert np.array_equal(se23_exp(u, dt), se23_exp_matrix_form(u, dt))


def test_se23_exp_takes_j_a_and_k_a_from_one_product_bit_for_bit():
    # _se23_exp stacks J over K and multiplies the 6x3 array by acol once; the
    # frozen kernel in helpers.py takes two 3x3 products.  A BLAS whose 6-row
    # product rounds a row otherwise than its 3-row one fails here.  Both
    # coefficient branches, vcol the shared zero and not, both signs of dt.
    rng = np.random.default_rng(29)
    seen = {}
    for k in range(4000):
        omega = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 1.5)
        dt = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0))
        vcol = _ZERO3 if k % 2 else rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        acol = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        rho = float(rng.choice([1.0, -1.0, rng.normal()]))
        assert np.array_equal(_se23_exp(omega, vcol, acol, rho, dt), frozen_se23_exp(omega, vcol, acol, rho, dt))
        key = (np.linalg.norm(omega) * abs(dt) < _EXP_TAYLOR_SWITCH, vcol is _ZERO3)
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 300, seen


def test_se23_exp_keeps_the_sign_of_every_zero_of_the_frozen_arithmetic():
    # Each entry of R, J and K adds the identity's entry first ("0.0 +" off
    # the diagonal), which turns a -0.0 sum into +0.0.  Blocks with zero
    # components of both signs, both signs of dt: every bit, zeros included.
    rng = np.random.default_rng(30)
    for k in range(600):
        omega = np.where(rng.random(3) < 0.5, rng.choice([0.0, -0.0], 3), rng.normal(size=3))
        acol = np.where(rng.random(3) < 0.5, rng.choice([0.0, -0.0], 3), rng.normal(size=3))
        vcol = _ZERO3 if k % 2 else np.where(rng.random(3) < 0.5, -0.0, rng.normal(size=3))
        dt, rho = float(rng.choice([-0.01, 0.01])), float(rng.choice([1.0, -1.0, 0.0]))
        got, want = _se23_exp(omega, vcol, acol, rho, dt), frozen_se23_exp(omega, vcol, acol, rho, dt)
        assert got.tobytes() == want.tobytes(), (omega, vcol, acol, rho, dt)


def test_se23_exp_with_an_all_negative_zero_vcol_is_the_shared_zero_call_bit_for_bit():
    # A step without a fix passes _ZERO3 as the correction's vcol where it
    # formed (-0, -0, -0): J's product with it must come out of BLAS as +0.0,
    # the zero the skipped product stands for.  Both coefficient branches, a
    # zero omega of either sign, both signs of dt and of rho.
    rng = np.random.default_rng(31)
    minus_zero = np.array((-0.0, -0.0, -0.0))
    for k in range(2000):
        if k % 4 == 0:
            omega = rng.choice([0.0, -0.0], 3)
        else:
            omega = rng.normal(size=3) * 10.0 ** rng.uniform(-9.0, 1.5)
        acol = np.where(rng.random(3) < 0.2, rng.choice([0.0, -0.0], 3), rng.normal(size=3))
        dt, rho = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, -1.0)), float(rng.choice([1.0, -1.0]))
        got = _se23_exp(omega, minus_zero, acol, rho, dt)
        assert got.tobytes() == _se23_exp(omega, _ZERO3, acol, rho, dt).tobytes(), (omega, acol, rho, dt)


def test_rotation_check_tolerance():
    rng = np.random.default_rng(28)
    R = random_rotation(rng)
    Rotation(R * (1.0 + 1e-10))  # residual ~3.5e-10: accepted
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation(R * (1.0 + 1e-9))  # residual ~3.5e-9
    with pytest.raises(ValueError, match="proper rotation"):
        Rotation(-R)


def test_se23_exp_continuous_across_taylor_switch():
    # theta = |omega| * dt straddles the series/closed-form branch point; the
    # two branches must agree to near round-off where they meet.
    u = TangentElement([1.0, 0.0, 0.0], [1.0, -2.0, 0.5], [0.3, 0.1, -0.7], 1.3)
    below = se23_exp(u, 0.1 - 1e-9)
    above = se23_exp(u, 0.1 + 1e-9)
    assert np.linalg.norm(above - below) < 1e-7


# --- reorthonormalize -----------------------------------------------------------


def test_reorthonormalize_fixes_exact_rotation():
    rng = np.random.default_rng(24)
    R = random_rotation(rng)
    np.testing.assert_allclose(reorthonormalize(R), R, atol=1e-14)


def test_reorthonormalize_removes_scale():
    rng = np.random.default_rng(25)
    R = random_rotation(rng)
    np.testing.assert_allclose(reorthonormalize(R * (1.0 + 1e-6)), R, atol=1e-12)


def test_reorthonormalize_small_perturbation_stays_close():
    rng = np.random.default_rng(26)
    for _ in range(50):
        R = random_rotation(rng)
        E = rng.normal(size=(3, 3))
        noisy = R + E * (1e-6 / np.linalg.norm(E))
        fixed = reorthonormalize(noisy)
        # The nearest rotation is no farther from the input than R itself is.
        assert np.linalg.norm(fixed - noisy) < 2e-6
        Rotation(fixed)  # invariants restored


def test_reorthonormalize_rejects_large_residual():
    with pytest.raises(ValueError):
        reorthonormalize(np.eye(3) * 2.0)


def test_reorthonormalize_rejects_reflection():
    with pytest.raises(ValueError):
        reorthonormalize(np.diag([1.0, 1.0, -1.0 + 1e-7]))
