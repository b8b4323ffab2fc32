"""Matrix algebra for SO(3) and the extended pose group SE2(3).

The navigation state (attitude R, position P, velocity V) is packed into a
5x5 homogeneous matrix

    X = [ R  P  V ]
        [ 0  1  0 ]
        [ 0  0  1 ]

and propagated by right-multiplication with matrix exponentials of tangent
elements u([omega]_x, v, a, rho):

    U = [ [omega]_x  v  a ]
        [ 0          0  0 ]
        [ 0        rho  0 ]

The scalar ``rho`` couples the velocity column into the position column
(it is what turns "P-dot = V" into a group operation).  Everything here is a
pure function of its inputs; no mutable state.

Arithmetic contract of the hot-path kernels (``_se23_exp``, ``_compose``,
``so3_exp`` and ``observer.step``'s own terms): they run on Python floats, no
BLAS call per step, so their bits depend on IEEE arithmetic and libm, not on
the BLAS build.  A top block [R P V] is 15 floats: R row-major, then P and V.
Each entry of a product sums its terms in index order, left to right; a term
with a structural zero of the matrix form (the diagonal of [omega]_x, the
bottom rows' zeros) is left out, and every other term stays, so a product's
P column takes V_a times b's rho dt entry even when that is 0.0.  ``1.0 +``,
``0.5 +`` or ``0.0 +`` (the identity's entry) leads each entry of R, J and K,
and ``0.0 +`` leads J v, so a zero entry is +0.0 whatever the signs of the
zeros it sums, and a v column of zeros of either sign gives what None gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ROTATION_TOL",
    "SMALL_ANGLE",
    "Rotation",
    "NavState",
    "TangentElement",
    "skew",
    "vex",
    "pa",
    "att_dist",
    "so3_exp",
    "se23_exp",
    "reorthonormalize",
]

# Orthogonality / determinant tolerance for anything claiming to be a rotation.
ROTATION_TOL = 1e-9

# Below this total angle, Rodrigues' formula switches to a second-order
# Taylor expansion to avoid 0/0.
SMALL_ANGLE = 1e-8


_ZERO3 = np.zeros(3)
_ZERO3.setflags(write=False)
_FLOAT = _ZERO3.dtype


def _all_finite(a: np.ndarray) -> bool:
    """True when no entry of the float array is inf or NaN (cheap for small arrays)."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _norms(d):
    """Row norms of d (m, k), bit for bit those of ``np.linalg.norm`` on each row.

    ``np.linalg.norm(d, axis=1)`` sums the squares in another order.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None]).reshape(-1))


def _as_vec3(x, name: str = "vector") -> np.ndarray:
    as_is = type(x) is np.ndarray and x.shape == (3,) and x.dtype is _FLOAT  # a float 3-vector: no conversion
    v = x if as_is else np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {np.shape(x)}")
    a, b, c = v.tolist()
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def _trusted(cls, **fields):
    """A frozen dataclass instance made from values that are already checked.

    Sets every field, in declaration order, with ``object.__setattr__`` as the
    generated ``__init__`` does, and skips ``__post_init__``: for a value built
    on the hot path from inputs its caller has validated.  Setting the fields
    in the order of ``__init__`` keeps the instance's ``__dict__`` sharing its
    keys with the class, so a trusted instance takes the memory a public one
    does.  Every field must be given.
    """
    obj = object.__new__(cls)
    for name in cls.__dataclass_fields__:
        object.__setattr__(obj, name, fields[name])
    return obj


def _check_so3(x0, y0, z0, x1, y1, z1, x2, y2, z2) -> None:
    """Raise ValueError unless the matrix of rows (x0, y0, z0), (x1, y1, z1),
    (x2, y2, z2) is in SO(3) within ``ROTATION_TOL``.

    ``||m^T m - I||_F`` and det(m) from the columns x, y, z of m; a non-finite
    entry fails the first test.
    """
    xx = x0 * x0 + x1 * x1 + x2 * x2 - 1.0
    yy = y0 * y0 + y1 * y1 + y2 * y2 - 1.0
    zz = z0 * z0 + z1 * z1 + z2 * z2 - 1.0
    xy = x0 * y0 + x1 * y1 + x2 * y2
    xz = x0 * z0 + x1 * z1 + x2 * z2
    yz = y0 * z0 + y1 * z1 + y2 * z2
    err = math.sqrt(xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz))
    if not err <= ROTATION_TOL:
        raise ValueError(f"matrix is not orthogonal (residual {err:.3e})")
    det = x0 * (y1 * z2 - y2 * z1) - y0 * (x1 * z2 - x2 * z1) + z0 * (x1 * y2 - x2 * y1)
    if not abs(det - 1.0) <= ROTATION_TOL:
        raise ValueError(f"matrix is not a proper rotation (det {det:.12f})")


@dataclass(frozen=True, eq=False)
class Rotation:
    """A validated member of SO(3).

    Parameters
    ----------
    m : (3, 3) ndarray
        Proper orthogonal matrix, body-to-inertial.  Construction fails if
        ``||m^T m - I||_F`` exceeds ``ROTATION_TOL`` or det(m) is not 1
        within the same tolerance.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
        object.__setattr__(self, "m", m)
        _check_so3(*m.ravel().tolist())

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_rotvec(cls, rotvec, dt: float = 1.0) -> "Rotation":
        """Exponential of an axis-angle vector (angle = ||rotvec|| * dt)."""
        return cls(so3_exp(_as_vec3(rotvec, "rotvec"), dt))


@dataclass(frozen=True, eq=False)
class NavState:
    """Attitude, inertial-frame position (m) and velocity (m/s)."""

    rot: Rotation
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pos", _as_vec3(self.pos, "pos"))
        object.__setattr__(self, "vel", _as_vec3(self.vel, "vel"))

    @classmethod
    def identity(cls) -> "NavState":
        return cls(Rotation.identity(), np.zeros(3), np.zeros(3))


@dataclass(frozen=True, eq=False)
class TangentElement:
    """Element of the tangent-like space: ([omega]_x, v-column, a-column, rho)."""

    omega: np.ndarray
    vcol: np.ndarray
    acol: np.ndarray
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_vec3(self.omega, "omega"))
        object.__setattr__(self, "vcol", _as_vec3(self.vcol, "vcol"))
        object.__setattr__(self, "acol", _as_vec3(self.acol, "acol"))
        rho = float(self.rho)
        if not np.isfinite(rho):
            raise ValueError(f"rho must be finite, got {rho}")
        object.__setattr__(self, "rho", rho)

    def matrix(self) -> np.ndarray:
        """The 5x5 matrix form of this element."""
        u = np.zeros((5, 5))
        u[:3, :3] = skew(self.omega)
        u[:3, 3] = self.vcol
        u[:3, 4] = self.acol
        u[4, 3] = self.rho
        return u


def skew(y) -> np.ndarray:
    """Map a 3-vector to the skew-symmetric matrix with skew(y) @ x = y x x."""
    y0, y1, y2 = np.asarray(y, dtype=float).tolist()
    return np.array([[0.0, -y2, y1], [y2, 0.0, -y0], [-y1, y0, 0.0]])


def vex(S, tol: float = 1e-9) -> np.ndarray:
    """Inverse of :func:`skew`.

    Raises
    ------
    ValueError
        If ``S`` is not skew-symmetric within ``tol`` (Frobenius).
    """
    S = np.asarray(S, dtype=float)
    residual = np.linalg.norm(S + S.T)
    if not residual <= tol:
        raise ValueError(f"input is not skew-symmetric (residual {residual:.3e})")
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


def pa(Y) -> np.ndarray:
    """Antisymmetric projection (Y - Y^T) / 2."""
    Y = np.asarray(Y, dtype=float)
    return 0.5 * (Y - Y.T)


def att_dist(R, M=None) -> float:
    """Normalized attitude distance.

    ``att_dist(R)`` is Tr{I - R} / 4, which lies in [0, 1] for R in SO(3)
    (0 at identity, 1 at a half-turn).  With a symmetric weight ``M`` it is
    the weighted form Tr{M - M R} / 4.
    """
    R = R.m if isinstance(R, Rotation) else np.asarray(R, dtype=float)
    if M is None:
        return 0.25 * (3.0 - np.trace(R))
    M = np.asarray(M, dtype=float)
    return 0.25 * np.trace(M - M @ R)


def so3_exp(omega, dt: float = 1.0) -> np.ndarray:
    """Rodrigues' rotation formula: exp([omega]_x * dt).

    For total angle ||omega||*dt below ``SMALL_ANGLE`` the closed form is
    replaced by the second-order Taylor expansion I + S + S^2/2.  By the module's
    contract, entry ij is (I_ij + a S_ij) + c (S S)_ij with (a, c) = (1, 1/2)
    in the Taylor form, as a S_ij is then S_ij itself.
    """
    w0, w1, w2 = np.asarray(omega, dtype=float).tolist()
    x1, x2, x3, x5, x6, x7 = -w2 * dt, w1 * dt, w2 * dt, -w0 * dt, -w1 * dt, w0 * dt
    theta = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2) * abs(dt)
    a, c = 1.0, 0.5
    if not theta < SMALL_ANGLE:
        # numpy's theta**2 (libm pow, as Python's), which overflows to inf where Python's raises.
        a, c = math.sin(theta) / theta, float((1.0 - math.cos(theta)) / np.float64(theta) ** 2)
    return np.array((
        1.0 + c * (x1 * x3 + x2 * x6), 0.0 + a * x1 + c * (x2 * x7), 0.0 + a * x2 + c * (x1 * x5),
        0.0 + a * x3 + c * (x5 * x6), 1.0 + c * (x3 * x1 + x5 * x7), 0.0 + a * x5 + c * (x3 * x2),
        0.0 + a * x6 + c * (x7 * x3), 0.0 + a * x7 + c * (x6 * x1), 1.0 + c * (x6 * x2 + x7 * x5),
    )).reshape(3, 3)


# Switch point for the Taylor branch of the se23_exp coefficients.  The direct
# trigonometric forms of c2 and d2 lose up to ~theta^-4 digits to cancellation;
# below 0.1 rad the series through theta^6 is accurate to ~1e-15 while the
# direct form is still good to ~5e-11 above it.
_EXP_TAYLOR_SWITCH = 0.1


def _exp_coefficients(theta: float):
    """sin/cos ratio coefficients used by the closed-form 5x5 exponential.

    Returns (s1, c1, c2, d2) with
        s1 = sin(theta)/theta
        c1 = (1 - cos(theta))/theta^2
        c2 = (theta - sin(theta))/theta^3
        d2 = (cos(theta) - 1 + theta^2/2)/theta^4
    """
    t2 = theta * theta
    if theta < _EXP_TAYLOR_SWITCH:
        t4 = t2 * t2
        t6 = t4 * t2
        s1 = 1.0 - t2 / 6.0 + t4 / 120.0 - t6 / 5040.0
        c1 = 0.5 - t2 / 24.0 + t4 / 720.0 - t6 / 40320.0
        c2 = 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t6 / 362880.0
        d2 = 1.0 / 24.0 - t2 / 720.0 + t4 / 40320.0 - t6 / 3628800.0
        return s1, c1, c2, d2
    sin, cos = math.sin(theta), math.cos(theta)
    s1 = sin / theta
    c1 = (1.0 - cos) / t2
    c2 = (theta - sin) / (t2 * theta)
    d2 = (cos - 1.0 + 0.5 * t2) / (t2 * t2)
    return s1, c1, c2, d2


def se23_exp(u: TangentElement, dt: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(u.matrix() * dt) on the extended pose group.

    Closed form: powers of the tangent matrix satisfy, for n >= 2,
    U^n = [[S^n, S^(n-1) v + rho S^(n-2) a, S^(n-1) a], 0, 0] with S = [omega]_x,
    so the series collapses to Rodrigues blocks

        exp(U dt) = [ R(theta)   J v + rho K a   J a ]
                    [ 0          1               0   ]
                    [ 0          rho dt          1   ]

    with J = dt (I + c1 S' + c2 S'^2), K = dt^2 (I/2 + c2 S' + d2 S'^2) and
    S' = S dt.  Validated against a 30-term scaled power series (see tests).
    """
    top = np.array(_se23_exp(u.omega.tolist(), u.vcol.tolist(), u.acol.tolist(), u.rho, dt))
    E = np.eye(5)
    E[:3, :3], E[:3, 3], E[:3, 4], E[4, 3] = top[:9].reshape(3, 3), top[9:12], top[12:], u.rho * dt
    return E


def _se23_exp(omega, vcol, acol, rho: float, dt: float) -> tuple:
    """The top block [R P V] of :func:`se23_exp` of (omega, vcol, acol, rho), as 15 floats.

    The blocks are 3-sequences of floats, ``vcol`` None for no v column, and
    nothing is validated: hot-path callers check their inputs once.  By the
    module's contract, with S = [omega dt]_x and Q = S S: R = (I + s1 S) + c1 Q,
    J = dt ((I + c1 S) + c2 Q), K = dt^2 ((I/2 + c2 S) + d2 Q), entry by
    entry, then P = (0.0 + J v) + rho (K a) and V = J a.
    """
    w0, w1, w2 = omega
    a0, a1, a2 = acol
    x1, x2, x3, x5, x6, x7 = -w2 * dt, w1 * dt, w2 * dt, -w0 * dt, -w1 * dt, w0 * dt
    s1, c1, c2, d2 = _exp_coefficients(math.sqrt(w0 * w0 + w1 * w1 + w2 * w2) * abs(dt))
    q0, q1, q2 = x1 * x3 + x2 * x6, x2 * x7, x1 * x5
    q3, q4, q5 = x5 * x6, x3 * x1 + x5 * x7, x3 * x2
    q6, q7, q8 = x7 * x3, x6 * x1, x6 * x2 + x7 * x5
    j0, j1, j2 = dt * (1.0 + c2 * q0), dt * (0.0 + c1 * x1 + c2 * q1), dt * (0.0 + c1 * x2 + c2 * q2)
    j3, j4, j5 = dt * (0.0 + c1 * x3 + c2 * q3), dt * (1.0 + c2 * q4), dt * (0.0 + c1 * x5 + c2 * q5)
    j6, j7, j8 = dt * (0.0 + c1 * x6 + c2 * q6), dt * (0.0 + c1 * x7 + c2 * q7), dt * (1.0 + c2 * q8)
    h = dt * dt
    k0, k1, k2 = h * (0.5 + d2 * q0), h * (0.0 + c2 * x1 + d2 * q1), h * (0.0 + c2 * x2 + d2 * q2)
    k3, k4, k5 = h * (0.0 + c2 * x3 + d2 * q3), h * (0.5 + d2 * q4), h * (0.0 + c2 * x5 + d2 * q5)
    k6, k7, k8 = h * (0.0 + c2 * x6 + d2 * q6), h * (0.0 + c2 * x7 + d2 * q7), h * (0.5 + d2 * q8)
    u0 = u1 = u2 = 0.0  # J v without a v column
    if vcol is not None:
        b0, b1, b2 = vcol
        u0, u1 = 0.0 + j0 * b0 + j1 * b1 + j2 * b2, 0.0 + j3 * b0 + j4 * b1 + j5 * b2
        u2 = 0.0 + j6 * b0 + j7 * b1 + j8 * b2
    return (
        1.0 + c1 * q0, 0.0 + s1 * x1 + c1 * q1, 0.0 + s1 * x2 + c1 * q2,
        0.0 + s1 * x3 + c1 * q3, 1.0 + c1 * q4, 0.0 + s1 * x5 + c1 * q5,
        0.0 + s1 * x6 + c1 * q6, 0.0 + s1 * x7 + c1 * q7, 1.0 + c1 * q8,
        u0 + rho * (k0 * a0 + k1 * a1 + k2 * a2), u1 + rho * (k3 * a0 + k4 * a1 + k5 * a2),
        u2 + rho * (k6 * a0 + k7 * a1 + k8 * a2),
        j0 * a0 + j1 * a1 + j2 * a2, j3 * a0 + j4 * a1 + j5 * a2, j6 * a0 + j7 * a1 + j8 * a2,
    )


def _compose(a, b, c: float) -> tuple:
    """The top block [R P V] of the product a b of two SE2(3) elements, as 15 floats.

    ``a`` and ``b`` are top blocks and ``c`` is b's rho dt entry (0.0 for a
    state); the product's own, a's plus c, is the caller's to know.  By the
    module's contract: R_a R_b, R_a P_b + P_a + V_a c and R_a V_b + V_a.
    """
    r0, r1, r2, r3, r4, r5, r6, r7, r8, p0, p1, p2, v0, v1, v2 = a
    s0, s1, s2, s3, s4, s5, s6, s7, s8, q0, q1, q2, u0, u1, u2 = b
    return (
        r0 * s0 + r1 * s3 + r2 * s6, r0 * s1 + r1 * s4 + r2 * s7, r0 * s2 + r1 * s5 + r2 * s8,
        r3 * s0 + r4 * s3 + r5 * s6, r3 * s1 + r4 * s4 + r5 * s7, r3 * s2 + r4 * s5 + r5 * s8,
        r6 * s0 + r7 * s3 + r8 * s6, r6 * s1 + r7 * s4 + r8 * s7, r6 * s2 + r7 * s5 + r8 * s8,
        r0 * q0 + r1 * q1 + r2 * q2 + p0 + v0 * c, r3 * q0 + r4 * q1 + r5 * q2 + p1 + v1 * c,
        r6 * q0 + r7 * q1 + r8 * q2 + p2 + v2 * c,
        r0 * u0 + r1 * u1 + r2 * u2 + v0, r3 * u0 + r4 * u1 + r5 * u2 + v1, r6 * u0 + r7 * u1 + r8 * u2 + v2,
    )


def reorthonormalize(R) -> np.ndarray:
    """Project a near-rotation back onto SO(3) (orthogonal Procrustes).

    Raises
    ------
    ValueError
        If the input is too far from orthogonal (residual >= 0.1) or the
        nearest orthogonal matrix is a reflection (det <= 0).
    """
    R = np.asarray(R, dtype=float)
    residual = np.linalg.norm(R.T @ R - np.eye(3))
    if not residual < 0.1:
        raise ValueError(f"input too far from a rotation (residual {residual:.3e})")
    U, _, Vt = np.linalg.svd(R)
    out = U @ Vt
    if np.linalg.det(out) <= 0.0:
        raise ValueError("projection landed on a reflection (det <= 0)")
    return out
