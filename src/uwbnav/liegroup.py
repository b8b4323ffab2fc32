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

Arithmetic contract of the hot-path kernels (``_se23_exp``, ``so3_exp``, ``_pack``
and ``observer.step``): every matrix or vector product is one numpy ``dot``/``@``
call, through BLAS, on the operands, shapes and memory layout of the matrix
form; everything elementwise (sums, differences, scalings) runs on Python
floats in the order the matrix form evaluates it, with each ``0.0 +`` that
fixes the sign of a zero.  A kernel unpacks each operand to floats once and
writes every entry of its result in its own body, with no helper per block.
No product is unrolled: BLAS kernels with FMA round differently from Python.
One product departs from the matrix form's shapes: ``J @ a`` and ``K @ a`` are
one product of the stacked 6x3 [J; K], each row the same 3-term dot product
(tests/test_liegroup.py checks it bit for bit against the two 3x3 products).
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


def _pack(R: np.ndarray, P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The 5x5 homogeneous matrix of attitude R, position P and velocity V (arrays)."""
    (r0, r1, r2), (r3, r4, r5), (r6, r7, r8) = R.tolist()
    (p0, p1, p2), (v0, v1, v2) = P.tolist(), V.tolist()
    return np.array((
        r0, r1, r2, p0, v0,
        r3, r4, r5, p1, v1,
        r6, r7, r8, p2, v2,
        0.0, 0.0, 0.0, 1.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 1.0,
    )).reshape(5, 5)


def so3_exp(omega, dt: float = 1.0) -> np.ndarray:
    """Rodrigues' rotation formula: exp([omega]_x * dt).

    For total angle ||omega||*dt below ``SMALL_ANGLE`` the closed form is
    replaced by the second-order Taylor expansion I + S + S^2/2.  By the module's
    contract, entry ij is (I_ij + a S_ij) + c (S @ S)_ij with (a, c) = (1, 1/2)
    in the Taylor form, as a S_ij is then S_ij itself.
    """
    omega = np.asarray(omega, dtype=float)
    w0, w1, w2 = omega.tolist()
    z, x1, x2, x3, x5, x6, x7 = 0.0 * dt, -w2 * dt, w1 * dt, w2 * dt, -w0 * dt, -w1 * dt, w0 * dt
    theta = math.sqrt(omega.dot(omega)) * abs(dt)
    S = np.array((z, x1, x2, x3, z, x5, x6, x7, z)).reshape(3, 3)
    (q0, q1, q2), (q3, q4, q5), (q6, q7, q8) = S.dot(S).tolist()
    a, c = 1.0, 0.5
    if not theta < SMALL_ANGLE:
        # numpy's theta**2 (libm pow, as Python's), which overflows to inf where Python's raises.
        a, c = float(np.sin(theta) / theta), float((1.0 - np.cos(theta)) / np.float64(theta) ** 2)
    return np.array((
        1.0 + a * z + c * q0, 0.0 + a * x1 + c * q1, 0.0 + a * x2 + c * q2,
        0.0 + a * x3 + c * q3, 1.0 + a * z + c * q4, 0.0 + a * x5 + c * q5,
        0.0 + a * x6 + c * q6, 0.0 + a * x7 + c * q7, 1.0 + a * z + c * q8,
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
    if theta < _EXP_TAYLOR_SWITCH:
        t2 = theta * theta
        t4 = t2 * t2
        t6 = t4 * t2
        s1 = 1.0 - t2 / 6.0 + t4 / 120.0 - t6 / 5040.0
        c1 = 0.5 - t2 / 24.0 + t4 / 720.0 - t6 / 40320.0
        c2 = 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t6 / 362880.0
        d2 = 1.0 / 24.0 - t2 / 720.0 + t4 / 40320.0 - t6 / 3628800.0
        return s1, c1, c2, d2
    t2 = theta * theta
    sin, cos = float(np.sin(theta)), float(np.cos(theta))
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
    return _se23_exp(u.omega, u.vcol, u.acol, u.rho, dt)


def _se23_exp(omega, vcol, acol, rho: float, dt: float) -> np.ndarray:
    """:func:`se23_exp` of the element (omega, vcol, acol, rho), built from its blocks.

    The blocks are float 3-vectors and ``rho`` a float; nothing is
    validated.  Callers on the hot path check their inputs once instead of
    wrapping them in a :class:`TangentElement`.  The arithmetic follows the
    module's contract, so the result is bit for bit that of the matrix
    expressions: with S = [omega dt]_x (diagonal z) and Q = S @ S, each entry
    of R, J and K is summed left to right, the identity's zeros included.
    One product of the stacked [J; K] gives ``J @ acol`` and
    ``K @ acol``.  ``J @ vcol`` is skipped when ``vcol`` is the shared
    ``_ZERO3``: that BLAS product is exactly +0.0 for a finite J, and the
    ``0.0 +`` standing for it is kept.  The prediction passes ``_ZERO3``, and
    so does ``observer.step``'s correction without a fix, where -w_V is
    (-0, -0, -0): its product with J is +0.0 too.
    """
    w0, w1, w2 = omega.tolist()
    z = 0.0 * dt
    x1, x2, x3, x5, x6, x7 = -w2 * dt, w1 * dt, w2 * dt, -w0 * dt, -w1 * dt, w0 * dt
    theta = math.sqrt(omega.dot(omega)) * abs(dt)
    s1, c1, c2, d2 = _exp_coefficients(theta)
    S = np.array((z, x1, x2, x3, z, x5, x6, x7, z)).reshape(3, 3)
    (q0, q1, q2), (q3, q4, q5), (q6, q7, q8) = S.dot(S).tolist()
    rz, jz, kz, h = s1 * z, c1 * z, c2 * z, dt * dt
    JK = np.array((
        dt * (1.0 + jz + c2 * q0), dt * (0.0 + c1 * x1 + c2 * q1), dt * (0.0 + c1 * x2 + c2 * q2),
        dt * (0.0 + c1 * x3 + c2 * q3), dt * (1.0 + jz + c2 * q4), dt * (0.0 + c1 * x5 + c2 * q5),
        dt * (0.0 + c1 * x6 + c2 * q6), dt * (0.0 + c1 * x7 + c2 * q7), dt * (1.0 + jz + c2 * q8),
        h * (0.5 + kz + d2 * q0), h * (0.0 + c2 * x1 + d2 * q1), h * (0.0 + c2 * x2 + d2 * q2),
        h * (0.0 + c2 * x3 + d2 * q3), h * (0.5 + kz + d2 * q4), h * (0.0 + c2 * x5 + d2 * q5),
        h * (0.0 + c2 * x6 + d2 * q6), h * (0.0 + c2 * x7 + d2 * q7), h * (0.5 + kz + d2 * q8),
    )).reshape(6, 3)
    j0, j1, j2 = (0.0, 0.0, 0.0) if vcol is _ZERO3 else JK[:3].dot(vcol).tolist()
    a0, a1, a2, k0, k1, k2 = JK.dot(acol).tolist()
    return np.array((
        1.0 + rz + c1 * q0, 0.0 + s1 * x1 + c1 * q1, 0.0 + s1 * x2 + c1 * q2, j0 + rho * k0, a0,
        0.0 + s1 * x3 + c1 * q3, 1.0 + rz + c1 * q4, 0.0 + s1 * x5 + c1 * q5, j1 + rho * k1, a1,
        0.0 + s1 * x6 + c1 * q6, 0.0 + s1 * x7 + c1 * q7, 1.0 + rz + c1 * q8, j2 + rho * k2, a2,
        0.0, 0.0, 0.0, 1.0, 0.0,
        0.0, 0.0, 0.0, rho * dt, 1.0,
    )).reshape(5, 5)


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
