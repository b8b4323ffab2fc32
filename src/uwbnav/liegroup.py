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
"""

from __future__ import annotations

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


def _as_vec3(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
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
        err = np.linalg.norm(m.T @ m - np.eye(3))
        if not err <= ROTATION_TOL:
            raise ValueError(f"matrix is not orthogonal (residual {err:.3e})")
        det = np.linalg.det(m)
        if not abs(det - 1.0) <= ROTATION_TOL:
            raise ValueError(f"matrix is not a proper rotation (det {det:.12f})")

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_rotvec(cls, rotvec, dt: float = 1.0) -> "Rotation":
        """Exponential of an axis-angle vector (angle = ||rotvec|| * dt)."""
        return cls(so3_exp(_as_vec3(rotvec, "rotvec"), dt))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    y = np.asarray(y, dtype=float)
    return np.array(
        [
            [0.0, -y[2], y[1]],
            [y[2], 0.0, -y[0]],
            [-y[1], y[0], 0.0],
        ]
    )


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
    """The 5x5 homogeneous matrix of attitude R, position P and velocity V."""
    X = np.eye(5)
    X[:3, :3] = R
    X[:3, 3] = P
    X[:3, 4] = V
    return X


def so3_exp(omega, dt: float = 1.0) -> np.ndarray:
    """Rodrigues' rotation formula: exp([omega]_x * dt).

    For total angle ||omega||*dt below ``SMALL_ANGLE`` the closed form is
    replaced by the second-order Taylor expansion I + S + S^2/2.
    """
    omega = np.asarray(omega, dtype=float)
    S = skew(omega) * dt
    theta = np.linalg.norm(omega) * abs(dt)
    if theta < SMALL_ANGLE:
        return np.eye(3) + S + 0.5 * (S @ S)
    return (
        np.eye(3)
        + (np.sin(theta) / theta) * S
        + ((1.0 - np.cos(theta)) / theta**2) * (S @ S)
    )


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
    s1 = np.sin(theta) / theta
    c1 = (1.0 - np.cos(theta)) / t2
    c2 = (theta - np.sin(theta)) / (t2 * theta)
    d2 = (np.cos(theta) - 1.0 + 0.5 * t2) / (t2 * t2)
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
    S = skew(u.omega) * dt
    theta = float(np.linalg.norm(u.omega)) * abs(dt)
    s1, c1, c2, d2 = _exp_coefficients(theta)
    S2 = S @ S
    I3 = np.eye(3)
    R = I3 + s1 * S + c1 * S2
    J = dt * (I3 + c1 * S + c2 * S2)
    K = dt * dt * (0.5 * I3 + c2 * S + d2 * S2)
    E = np.eye(5)
    E[:3, :3] = R
    E[:3, 3] = J @ u.vcol + u.rho * (K @ u.acol)
    E[:3, 4] = J @ u.acol
    E[4, 3] = u.rho * dt
    return E


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
