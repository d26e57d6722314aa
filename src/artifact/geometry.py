"""Equilateral-lattice geometry: primitive frames, edge frames, Dirac momenta.

Everything here is exact-by-construction float geometry (plus integer
arithmetic for the Bezout data).  The cell area is normalized to one, which
fixes the lattice scale a = (2*sqrt(3))**(-1/2).  The literal determinant of
[v1, v2] is negative with this vector layout; we keep |det| = 1 and carry the
orientation sign around explicitly instead of silently flipping a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

SQRT3 = np.sqrt(3.0)

#: lattice scale fixed by |det[v1, v2]| = 2*sqrt(3)*a^2 = 1
LATTICE_SCALE = float((2.0 * SQRT3) ** -0.5)

TWO_PI = 2.0 * np.pi


class NonCoprime(ValueError):
    """Edge direction integers must be coprime."""


def _det2(u: np.ndarray, w: np.ndarray) -> float:
    return float(u[0] * w[1] - u[1] * w[0])


def as_complex(vec: np.ndarray) -> complex:
    """Embed a 2-vector as x + i*y (the plane seen as the complex line)."""
    return complex(vec[0], vec[1])


def rotation_matrix() -> np.ndarray:
    """Counterclockwise rotation by 2*pi/3; maps the lattice to itself."""
    return np.array([[-0.5, -SQRT3 / 2.0], [SQRT3 / 2.0, -0.5]])


#: action of the 2*pi/3 rotation on dual-lattice integer coordinates:
#: n1*k1 + n2*k2  ->  (n2 - n1)*k1 + (-n1)*k2
ROTATION_ON_DUAL_INTS = np.array([[-1, 1], [-1, 0]], dtype=int)


@dataclass(frozen=True)
class LatticeFrame:
    """Primitive vectors, their duals, and the fundamental cells.

    The duals satisfy <k_i, v_j> = delta_ij with no 2*pi factor; quasimomenta
    therefore live in 2*pi times the dual cell.
    """

    a: float
    v1: np.ndarray
    v2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    orientation: int  # sign of det[v1, v2]; -1 for this layout

    def __post_init__(self) -> None:
        for arr in (self.v1, self.v2, self.k1, self.k2):
            arr.setflags(write=False)

    def dual_coords(self, xi: np.ndarray) -> np.ndarray:
        """Coordinates (c1, c2) of xi in the 2*pi*(k1, k2) basis."""
        # <xi, v_j> picks out 2*pi*c_j because the frames are dual.
        return np.array([xi @ self.v1, xi @ self.v2]) / TWO_PI

    def reduce_dual(self, xi: np.ndarray) -> np.ndarray:
        """Reduce a quasimomentum to the half-open fundamental dual cell.

        Floor division in (k1, k2) coordinates: the representative has
        coordinates in [0, 1) x [0, 1) of 2*pi*(k1, k2).
        """
        c = self.dual_coords(xi)
        c -= np.floor(c + 1e-12)  # nudge so exact-1.0 coords land on 0
        return TWO_PI * (c[0] * self.k1 + c[1] * self.k2)

    def dual_vector(self, n1: int, n2: int) -> np.ndarray:
        """The dual-lattice point n1*k1 + n2*k2 (no 2*pi)."""
        return n1 * self.k1 + n2 * self.k2

    def in_dual_lattice(self, vec: np.ndarray, tol: float = 1e-9) -> bool:
        """Is vec in 2*pi*(integer span of k1, k2)?"""
        c = self.dual_coords(vec)
        return bool(np.all(np.abs(c - np.round(c)) <= tol))


def build_lattice() -> LatticeFrame:
    """The equilateral lattice with unit cell area.

    v1 = a*(sqrt(3), 1), v2 = a*(sqrt(3), -1); duals by 2x2 inversion.
    """
    a = LATTICE_SCALE
    v1 = a * np.array([SQRT3, 1.0])
    v2 = a * np.array([SQRT3, -1.0])
    # rows of inv([v1 v2]) are the duals: <k_i, v_j> = delta_ij
    dual_rows = np.linalg.inv(np.column_stack([v1, v2]))
    k1 = dual_rows[0].copy()
    k2 = dual_rows[1].copy()
    orientation = 1 if _det2(v1, v2) > 0 else -1
    return LatticeFrame(a=a, v1=v1, v2=v2, k1=k1, k2=k2, orientation=orientation)


def dual_ball(lattice: LatticeFrame, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Dual-lattice points with |n1*k1 + n2*k2| <= cutoff.

    Returns the integer pairs (n1, n2) as an (M, 2) int array and the points
    n1*k1 + n2*k2 as an (M, 2) float array, both in lexicographic order on
    (n1, n2), so tables and eigenvector coefficients built on them are
    reproducible run to run.  The set is symmetric under negation and
    contains the origin.
    """
    # |n1*k1 + n2*k2| >= |n|_2 * smallest singular value of [k1 k2]
    dual = np.vstack([lattice.k1, lattice.k2])
    smin = np.linalg.svd(dual.T, compute_uv=False)[-1]
    reach = int(np.ceil(cutoff / smin)) + 1
    n1, n2 = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    pairs = np.column_stack([n1.ravel(), n2.ravel()])
    points = pairs @ dual
    keep = np.linalg.norm(points, axis=1) <= cutoff + 1e-12
    pairs, points = pairs[keep], points[keep]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order], points[order]


def dirac_momenta(frame: LatticeFrame) -> tuple[np.ndarray, np.ndarray]:
    """The two inequivalent cone momenta, reduced to the fundamental dual cell.

    xi_A = (2*pi/3)*(2*k1 + k2), xi_B = (2*pi/3)*(k1 + 2*k2); they satisfy
    -xi_A = xi_B modulo the dual lattice.
    """
    xi_a = frame.reduce_dual(TWO_PI / 3.0 * (2.0 * frame.k1 + frame.k2))
    xi_b = frame.reduce_dual(TWO_PI / 3.0 * (frame.k1 + 2.0 * frame.k2))
    return xi_a, xi_b


def _bezout_pair(a1: int, a2: int) -> tuple[int, int]:
    """Integers (b1, b2) with a1*b2 - a2*b1 = 1, deterministically tie-broken.

    The solution set is (b1 + t*a1, b2 + t*a2); we take the representative
    with smallest |b1| + |b2|, then smallest b1.
    """
    # extended euclid on (a1, a2): find x, y with a1*x + a2*y = 1
    old_r, r = a1, a2
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    # a1*old_x + a2*old_y = 1  ->  b2 = old_x, b1 = -old_y
    b1_0, b2_0 = -old_y, old_x

    t_center = -(a1 * b1_0 + a2 * b2_0) / (a1 * a1 + a2 * a2)
    candidates = []
    for t in range(int(np.floor(t_center)) - 2, int(np.ceil(t_center)) + 3):
        b1, b2 = b1_0 + t * a1, b2_0 + t * a2
        candidates.append((abs(b1) + abs(b2), b1, b2))
    candidates.sort()
    _, b1, b2 = candidates[0]
    return b1, b2


@dataclass(frozen=True)
class EdgeFrame:
    """A rational edge direction and the frames adapted to it.

    v = a1*v1 + a2*v2 runs along the edge; v' completes the cell.  The dual
    pair (k, k') satisfies <k, v> = <k', v'> = 1, cross terms zero.  ell is
    the component of k orthogonal to k'; it still pairs to 1 with v and is
    independent of the Bezout representative.
    """

    lattice: LatticeFrame
    a1: int
    a2: int
    b1: int
    b2: int
    v: np.ndarray
    vp: np.ndarray  # v'
    k: np.ndarray
    kp: np.ndarray  # k'
    ell: np.ndarray
    zeta_star_a: float  # cone position in the edge Bloch phase, sublattice A
    zeta_star_b: float
    armchair: bool

    def __post_init__(self) -> None:
        for arr in (self.v, self.vp, self.k, self.kp, self.ell):
            arr.setflags(write=False)

    @property
    def kp_complex(self) -> complex:
        return as_complex(self.kp)

    @property
    def ell_complex(self) -> complex:
        return as_complex(self.ell)

    @property
    def orientation_sign(self) -> int:
        """sign(Im(k' * conj(ell))) = sign(det[k, k']) = det sign of the duals."""
        return 1 if np.imag(self.kp_complex * np.conj(self.ell_complex)) > 0 else -1

    def xi_of(self, zeta: float, tau: float) -> np.ndarray:
        """Bulk quasimomentum with edge phase zeta and transverse phase tau."""
        return zeta * self.k + tau * self.kp

    def tau_star(self, which: str = "A") -> float:
        """Transverse Bloch phase of the cone momentum, in [0, 2*pi)."""
        xi = dirac_momenta(self.lattice)[0 if which.upper() == "A" else 1]
        return float(np.mod(xi @ self.vp, TWO_PI))

    def zeta_star(self, which: str = "A") -> float:
        return self.zeta_star_a if which.upper() == "A" else self.zeta_star_b


def make_edge_frame(frame: LatticeFrame, a1: int, a2: int) -> EdgeFrame:
    """Edge frame for the rational direction v = a1*v1 + a2*v2.

    Raises NonCoprime unless gcd(a1, a2) = 1.  The complement (b1, b2) solves
    a1*b2 - a2*b1 = 1 with the deterministic tie-break of `_bezout_pair`.
    """
    if gcd(a1, a2) != 1:
        raise NonCoprime(f"edge direction ({a1}, {a2}) is not coprime")
    b1, b2 = _bezout_pair(a1, a2)
    v = a1 * frame.v1 + a2 * frame.v2
    vp = b1 * frame.v1 + b2 * frame.v2
    k = b2 * frame.k1 - b1 * frame.k2
    kp = -a2 * frame.k1 + a1 * frame.k2
    ell = k - (float(k @ kp) / float(kp @ kp)) * kp
    zeta_a = TWO_PI * (((2 * a1 + a2) % 3) / 3.0)
    zeta_b = TWO_PI * (((a1 + 2 * a2) % 3) / 3.0)
    return EdgeFrame(
        lattice=frame,
        a1=a1,
        a2=a2,
        b1=b1,
        b2=b2,
        v=v,
        vp=vp,
        k=k,
        kp=kp,
        ell=ell,
        zeta_star_a=zeta_a,
        zeta_star_b=zeta_b,
        armchair=(a1 - a2) % 3 == 0,
    )
