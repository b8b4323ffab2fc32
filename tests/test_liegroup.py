"""Tests for the rotation/state containers and exponential maps."""

import numpy as np
import pytest

from helpers import blas_se23_exp, expm_series, frozen_product, frozen_se23_exp, frozen_so3_exp, random_rotation
from uwbnav.liegroup import (
    _EXP_TAYLOR_SWITCH,
    NavState,
    _as_vec3,
    Rotation,
    SMALL_ANGLE,
    TangentElement,
    att_dist,
    _compose,
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


# --- the float layout -------------------------------------------------------------

_EPS = np.finfo(float).eps
_IDENTITY_BLOCK = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def top(E) -> tuple:
    """The top block [R P V] of a 5x5 in the kernels' layout: R row-major, then P and V."""
    E = np.asarray(E)
    return (*E[:3, :3].ravel().tolist(), *E[:3, 3].tolist(), *E[:3, 4].tolist())


def element(block, c=0.0) -> np.ndarray:
    """The 5x5 of a top block, its rho dt entry ``c``."""
    E = np.eye(5)
    E[:3, :3] = np.reshape(block[:9], (3, 3))
    E[:3, 3], E[:3, 4], E[4, 3] = block[9:12], block[12:], c
    return E


def bits(block) -> bytes:
    return np.array(block, dtype=float).tobytes()


def test_compose_with_the_identity_block_is_the_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = top(element((*random_rotation(rng).ravel(), *rng.normal(size=6))))
        assert bits(_compose(_IDENTITY_BLOCK, a, 0.0)) == bits(a)
        assert bits(_compose(a, _IDENTITY_BLOCK, 0.0)) == bits(a)


def test_se23_exp_lays_out_the_top_block_and_the_bottom_rows():
    rng = np.random.default_rng(18)
    for _ in range(20):
        u = _random_tangent(rng)
        dt = float(rng.uniform(-0.1, 0.1))
        X = se23_exp(u, dt)
        assert bits(top(X)) == bits(_se23_exp(u.omega.tolist(), u.vcol.tolist(), u.acol.tolist(), u.rho, dt))
        assert np.array_equal(X[3], [0.0, 0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(X[4], [0.0, 0.0, 0.0, u.rho * dt, 1.0])


def test_compose_matches_the_float_product_bit_for_bit():
    # Each entry the sum of its terms in index order, the bottom rows'
    # structural zeros left out: against the generic 5x5 product in helpers.py,
    # with b's rho dt entry 0, +-dt and random, every bit.
    rng = np.random.default_rng(32)
    for _ in range(2000):
        a = (*random_rotation(rng).ravel(), *(rng.normal(size=6) * 10.0 ** rng.uniform(-2.0, 2.0)))
        b = (*random_rotation(rng).ravel(), *(rng.normal(size=6) * 10.0 ** rng.uniform(-2.0, 2.0)))
        c = float(rng.choice([0.0, 0.01, -0.01, rng.normal()]))
        want = top(frozen_product(element(a, float(rng.normal())), element(b, c)))
        assert bits(_compose(a, b, c)) == bits(want)


def test_compose_matches_the_blas_product_within_rounding():
    # The matrix form's 5x5 @, summed in BLAS's order: each entry within
    # 3 eps of the sum of its terms' magnitudes (1.9 eps at most measured
    # over 20 000 products; any two orders of a 5-term sum stay within 8 eps).
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(4000):
        a = (*random_rotation(rng).ravel(), *(rng.normal(size=6) * 10.0 ** rng.uniform(-2.0, 2.0)))
        A, c = element(a, float(rng.normal())), float(rng.choice([0.0, 0.01, -0.01, rng.normal()]))
        B = element((*random_rotation(rng).ravel(), *(rng.normal(size=6) * 10.0 ** rng.uniform(-2.0, 2.0))), c)
        got = np.array(_compose(top(A), top(B), c))
        err = np.abs(got - np.array(top(A @ B))) / (_EPS * np.array(top(np.abs(A) @ np.abs(B))))
        worst = max(worst, float(err.max()))
    assert worst <= 3.0, worst


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
    """The matrix expression so3_exp evaluates, with whole 3x3 matrices through numpy."""
    S = skew(omega) * dt
    theta = np.linalg.norm(omega) * abs(dt)
    if theta < SMALL_ANGLE:
        return np.eye(3) + S + 0.5 * (S @ S)
    return np.eye(3) + (np.sin(theta) / theta) * S + ((1.0 - np.cos(theta)) / theta**2) * (S @ S)


def test_so3_exp_matches_the_matrix_form_bit_for_bit():
    # Against the matrix expression written entry by entry on the float
    # contract (helpers.frozen_so3_exp).  Random axes, angles from 1e-12 to
    # 30 rad (both sides of SMALL_ANGLE), both signs of dt, the zero vector and
    # the switch point itself: every bit, the sign of each zero included.
    # Rotation.from_rotvec is the dt = 1 case.
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
        assert so3_exp(omega, dt).tobytes() == frozen_so3_exp(omega, dt).tobytes(), (omega, dt)
        small += np.linalg.norm(omega) * abs(dt) < SMALL_ANGLE
        assert Rotation.from_rotvec(omega).m.tobytes() == frozen_so3_exp(omega, 1.0).tobytes()
    assert 200 <= small <= len(cases) - 200, small


def test_so3_exp_matches_the_blas_matrix_form_within_rounding():
    # The matrix expression through numpy (S @ S, np.linalg.norm, np.sin), as
    # so3_exp computed it before the float contract: every entry within
    # 3 eps max(1, theta) (1.9 at most measured over 20 000 random inputs;
    # an angle's rounding grows with the angle).
    rng = np.random.default_rng(36)
    worst = 0.0
    for _ in range(4000):
        axis = rng.normal(size=3)
        omega = axis / np.linalg.norm(axis) * 10.0 ** rng.uniform(-12.0, 1.5)
        dt = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0))
        theta = np.linalg.norm(omega) * abs(dt)
        diff = np.abs(so3_exp(omega, dt) - so3_exp_matrix_form(omega, dt)).max()
        worst = max(worst, diff / (_EPS * max(1.0, theta)))
    assert worst <= 3.0, worst


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


def test_se23_exp_matches_the_matrix_form_bit_for_bit():
    # Both coefficient branches, negative steps and zero blocks, against the
    # matrix expressions written entry by entry on the float contract.
    rng = np.random.default_rng(27)
    for k in range(600):
        u = _random_tangent(rng)
        if k % 4 == 0:
            u = TangentElement(u.omega, np.zeros(3), u.acol, 1.0)
        dt = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.5))
        assert se23_exp(u, dt).tobytes() == frozen_se23_exp(u.omega, u.vcol, u.acol, u.rho, dt).tobytes()


def test_se23_exp_takes_j_a_and_k_a_from_one_product_bit_for_bit():
    # _se23_exp sums J a and K a from the same J and K entries in one pass;
    # the float reference in helpers.py forms J and K as 3x3 rows and takes
    # each product apart.  Both coefficient branches, no v column and one,
    # both signs of dt: the top block, every bit.
    rng = np.random.default_rng(29)
    seen = {}
    for k in range(4000):
        omega = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 1.5)
        dt = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0))
        vcol = None if k % 2 else (rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)).tolist()
        acol = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        rho = float(rng.choice([1.0, -1.0, rng.normal()]))
        got = _se23_exp(omega.tolist(), vcol, acol.tolist(), rho, dt)
        assert bits(got) == bits(top(frozen_se23_exp(omega, vcol, acol, rho, dt)))
        key = (np.linalg.norm(omega) * abs(dt) < _EXP_TAYLOR_SWITCH, vcol is None)
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 300, seen


def test_se23_exp_keeps_the_sign_of_every_zero_of_the_frozen_arithmetic():
    # Each entry of R, J and K adds the identity's entry first ("0.0 +" off
    # the diagonal), and J v adds to 0.0, which turns a -0.0 sum into +0.0.
    # Blocks with zero components of both signs, both signs of dt: every
    # bit, zeros included.
    rng = np.random.default_rng(30)
    for k in range(600):
        omega = np.where(rng.random(3) < 0.5, rng.choice([0.0, -0.0], 3), rng.normal(size=3))
        acol = np.where(rng.random(3) < 0.5, rng.choice([0.0, -0.0], 3), rng.normal(size=3))
        vcol = None if k % 2 else np.where(rng.random(3) < 0.5, -0.0, rng.normal(size=3)).tolist()
        dt, rho = float(rng.choice([-0.01, 0.01])), float(rng.choice([1.0, -1.0, 0.0]))
        got = _se23_exp(omega.tolist(), vcol, acol.tolist(), rho, dt)
        want = top(frozen_se23_exp(omega, vcol, acol, rho, dt))
        assert bits(got) == bits(want), (omega, vcol, acol, rho, dt)


def test_se23_exp_with_an_all_negative_zero_vcol_is_the_shared_zero_call_bit_for_bit():
    # A step without a fix passes no v column (None) where the matrix form has
    # -w_V = (-0, -0, -0): J v's leading 0.0 makes that product +0.0, the
    # zero None stands for.  Both coefficient branches, a zero omega of either
    # sign, both signs of dt and of rho.
    rng = np.random.default_rng(31)
    minus_zero = [-0.0, -0.0, -0.0]
    for k in range(2000):
        if k % 4 == 0:
            omega = rng.choice([0.0, -0.0], 3)
        else:
            omega = rng.normal(size=3) * 10.0 ** rng.uniform(-9.0, 1.5)
        acol = np.where(rng.random(3) < 0.2, rng.choice([0.0, -0.0], 3), rng.normal(size=3)).tolist()
        dt, rho = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, -1.0)), float(rng.choice([1.0, -1.0]))
        got = _se23_exp(omega.tolist(), minus_zero, acol, rho, dt)
        assert bits(got) == bits(_se23_exp(omega.tolist(), None, acol, rho, dt)), (omega, acol, rho, dt)


def test_se23_exp_kernel_matches_the_blas_kernel_within_rounding():
    # _se23_exp against the kernel's BLAS arithmetic before the float
    # contract (helpers.blas_se23_exp): both coefficient branches, omega = 0
    # of either sign, no v column and an all -0.0 one.  R within 6 eps per
    # entry, P and V within 16 eps of |dt| |v| + |rho| dt^2 |a| and 4 eps of
    # |dt| |a| (4, 9.8 and 1.9 eps at most measured over 20 000 inputs).
    rng = np.random.default_rng(35)
    worst, seen = {"R": 0.0, "P": 0.0, "V": 0.0}, set()
    for k in range(6000):
        omega = rng.choice([0.0, -0.0], 3) if k % 5 == 0 else rng.normal(size=3) * 10.0 ** rng.uniform(-9.0, 1.5)
        dt = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -1.0))
        vcol = (None, np.array((-0.0, -0.0, -0.0)), rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0))[k % 3]
        acol = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        rho = float(rng.choice([1.0, -1.0, rng.normal()]))
        got = np.array(_se23_exp(omega.tolist(), None if vcol is None else vcol.tolist(), acol.tolist(), rho, dt))
        diff = np.abs(got - top(blas_se23_exp(omega, np.zeros(3) if vcol is None else vcol, acol, rho, dt)))
        v_scale = abs(dt) * np.linalg.norm(acol)
        p_scale = (0.0 if vcol is None else abs(dt) * np.linalg.norm(vcol)) + abs(rho) * dt * dt * np.linalg.norm(acol)
        worst["R"] = max(worst["R"], diff[:9].max() / _EPS)
        worst["P"] = max(worst["P"], diff[9:12].max() / (_EPS * p_scale))
        worst["V"] = max(worst["V"], diff[12:].max() / (_EPS * v_scale))
        seen.add((np.linalg.norm(omega) * abs(dt) < _EXP_TAYLOR_SWITCH, not omega.any(), k % 3))
    assert worst["R"] <= 6.0 and worst["P"] <= 16.0 and worst["V"] <= 4.0, worst
    assert len(seen) == 9, seen  # the zero omega only on the series branch


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
