"""Symmetry-constrained periodic fields and the domain-wall profile.

The bulk potential is a lattice sum of Gaussian wells on the two triangular
sublattices; the parity-breaking field is the difference of the sublattice
sums; the magnetic vector field is a two-mode sine with transverse
polarization.  All of them are stored as truncated Fourier series over the
dual lattice, with the symmetry constraints (realness, parity, rotation
invariance) holding on the coefficients by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .geometry import ROTATION_ON_DUAL_INTS, LatticeFrame, TWO_PI, dual_ball

Parity = Literal["even", "odd", "none"]


class BadCutoff(ValueError):
    """Truncation would discard non-negligible Fourier coefficients."""

    def __init__(self, cutoff: float, required: float):
        self.cutoff = cutoff
        self.required = required
        super().__init__(
            f"cutoff {cutoff:g} discards coefficients above 1e-10 of the max; "
            f"need at least {required:.2f}"
        )


@dataclass(frozen=True)
class FourierField:
    """Truncated Fourier series sum_eta coeff(eta) * exp(2*pi*i <eta_dual, x>).

    `indices` holds the integer dual coordinates (n1, n2); the corresponding
    wave vector is n1*k1 + n2*k2.  `coeffs` is (M,) for scalar fields and
    (M, 2) for vector fields.  Parity is a declaration, checked by
    ``parity_residual``; rotation symmetry is measured by
    ``rotation_residual``.
    """

    lattice: LatticeFrame
    indices: np.ndarray  # (M, 2) int
    coeffs: np.ndarray  # (M,) or (M, 2) complex
    parity: Parity
    kind: str  # free-form provenance tag ("honeycomb_wells", ...)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.indices.setflags(write=False)
        self.coeffs.setflags(write=False)

    @property
    def is_vector(self) -> bool:
        return self.coeffs.ndim == 2

    @property
    def lookup(self) -> dict[tuple[int, int], complex | np.ndarray]:
        table = {}
        for (n1, n2), c in zip(self.indices, self.coeffs):
            table[(int(n1), int(n2))] = c
        return table

    def coeff(self, n1: int, n2: int):
        """Coefficient at dual index (n1, n2); zero outside the table."""
        zero = np.zeros(2, dtype=complex) if self.is_vector else 0.0 + 0.0j
        mask = (self.indices[:, 0] == n1) & (self.indices[:, 1] == n2)
        hits = np.nonzero(mask)[0]
        return self.coeffs[hits[0]] if hits.size else zero

    def dual_vectors(self) -> np.ndarray:
        """(M, 2) array of the wave vectors n1*k1 + n2*k2."""
        return self.indices @ np.vstack([self.lattice.k1, self.lattice.k2])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the (real) field on an (..., 2) array of points."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        phases = np.exp(1j * TWO_PI * (flat @ self.dual_vectors().T))  # (P, M)
        if self.is_vector:
            values = phases @ self.coeffs  # (P, 2)
            out_shape = pts.shape[:-1] + (2,)
        else:
            values = phases @ self.coeffs  # (P,)
            out_shape = pts.shape[:-1]
        return np.real(values).reshape(out_shape)


def _gaussian_sublattice_sum(
    lattice: LatticeFrame,
    cutoff: float,
    width: float,
    sign_b: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of sum_R g(x - c_A - R) + sign_b * g(x - c_B - R).

    g is the unit-amplitude Gaussian exp(-|x|^2 / (2 width^2)); the cell has
    unit area so the Fourier coefficient of one periodized Gaussian is
    2*pi*width^2 * exp(-2*pi^2*width^2*|eta|^2) * exp(-2*pi*i <eta, c>).
    The sites c_A = (v1+v2)/3 and c_B = 2(v1+v2)/3 give <eta_dual, c_A> =
    (n1+n2)/3 and c_B = -c_A mod the lattice.
    """
    indices, duals = dual_ball(lattice, cutoff)
    norms2 = np.sum(duals * duals, axis=1)
    envelope = TWO_PI * width**2 * np.exp(-2.0 * np.pi**2 * width**2 * norms2)
    third = (indices[:, 0] + indices[:, 1]) / 3.0
    phase_a = np.exp(-1j * TWO_PI * third)
    structure = phase_a + sign_b * np.conj(phase_a)
    return indices, envelope * structure


def _check_cutoff(
    lattice: LatticeFrame, cutoff: float, width: float, peak: float
) -> None:
    """Raise BadCutoff when the Gaussian tail just outside the ball is fat."""
    smin = np.linalg.svd(np.vstack([lattice.k1, lattice.k2]).T, compute_uv=False)[-1]
    reach = int(np.ceil((cutoff * 2 + 4) / smin)) + 1
    n1, n2 = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    pairs = np.column_stack([n1.ravel(), n2.ravel()])
    norms = np.linalg.norm(pairs @ np.vstack([lattice.k1, lattice.k2]), axis=1)
    outside = norms[norms > cutoff + 1e-12]
    r_out = np.min(outside)
    tail = 2.0 * TWO_PI * width**2 * np.exp(-2.0 * np.pi**2 * width**2 * r_out**2)
    if tail > 1e-10 * peak:
        # envelope*2 = 1e-10*peak  ->  solve for the radius
        required = np.sqrt(
            np.log(2.0 * TWO_PI * width**2 / (1e-10 * peak))
            / (2.0 * np.pi**2 * width**2)
        )
        raise BadCutoff(cutoff, float(required))


def honeycomb_potential(
    lattice: LatticeFrame, depth: float, width: float, cutoff: float
) -> FourierField:
    """Periodized Gaussian wells of the given depth on both sublattices.

    Even, real, rotation-invariant by construction.  depth < 0 digs wells.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    indices, coeffs = _gaussian_sublattice_sum(lattice, cutoff, width, +1.0)
    coeffs = depth * coeffs
    _check_cutoff(lattice, cutoff, width, float(np.max(np.abs(coeffs))))
    return FourierField(
        lattice=lattice,
        indices=indices,
        coeffs=coeffs,
        parity="even",
        kind="honeycomb_wells",
        meta={"depth": depth, "width": width, "cutoff": cutoff},
    )


def parity_breaking_W(
    lattice: LatticeFrame, amplitude: float, width: float, cutoff: float
) -> FourierField:
    """Sublattice-antisymmetric Gaussian sum: odd, real, rotation-invariant.

    This is the field whose wall-modulated version opens the bulk gap.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    indices, coeffs = _gaussian_sublattice_sum(lattice, cutoff, width, -1.0)
    coeffs = amplitude * coeffs
    peak = float(np.max(np.abs(coeffs))) if np.max(np.abs(coeffs)) > 0 else 1.0
    _check_cutoff(lattice, cutoff, width, peak)
    return FourierField(
        lattice=lattice,
        indices=indices,
        coeffs=coeffs,
        parity="odd",
        kind="sublattice_wall_field",
        meta={"amplitude": amplitude, "width": width, "cutoff": cutoff},
    )


def magnetic_A(lattice: LatticeFrame, amplitude: float) -> FourierField:
    """Two-mode sine vector field with transverse polarization.

    A(x) = amplitude * (sin(2*pi<k1,x>)*u1 + sin(2*pi<k2,x>)*u2) with u_j the
    pi/2 rotation of k_j/|k_j|.  Transverse polarization keeps the curl away
    from zero; a longitudinal choice would be a pure gradient, hence gauge
    trivial, and the emergent magnetic mass would vanish identically.  Odd,
    real, Lambda-periodic; exact rotation covariance is not enforced.
    """
    j_rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    u1 = j_rot @ (lattice.k1 / np.linalg.norm(lattice.k1))
    u2 = j_rot @ (lattice.k2 / np.linalg.norm(lattice.k2))
    indices = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=int)
    coeffs = np.zeros((4, 2), dtype=complex)
    # sin(2*pi<k,x>) = (e^{2*pi*i<k,x>} - e^{-2*pi*i<k,x>}) / (2i)
    coeffs[0] = amplitude * u1 / 2j
    coeffs[1] = -amplitude * u1 / 2j
    coeffs[2] = amplitude * u2 / 2j
    coeffs[3] = -amplitude * u2 / 2j
    return FourierField(
        lattice=lattice,
        indices=indices,
        coeffs=coeffs,
        parity="odd",
        kind="transverse_sine_pair",
        meta={"amplitude": amplitude, "exact_table": True},
    )


# ---------------------------------------------------------------------------
# symmetry residuals
# ---------------------------------------------------------------------------


def _index_map(field_: FourierField) -> dict[tuple[int, int], int]:
    return {
        (int(n1), int(n2)): i for i, (n1, n2) in enumerate(field_.indices)
    }


def parity_residual(field_: FourierField) -> float:
    """Max |coeff(-eta) -/+ coeff(eta)| against the declared parity."""
    if field_.parity == "none":
        return 0.0
    sign = 1.0 if field_.parity == "even" else -1.0
    table = _index_map(field_)
    worst = 0.0
    for i, (n1, n2) in enumerate(field_.indices):
        j = table.get((-int(n1), -int(n2)))
        mirror = field_.coeffs[j] if j is not None else np.zeros_like(field_.coeffs[i])
        worst = max(worst, float(np.max(np.abs(mirror - sign * field_.coeffs[i]))))
    return worst


def realness_residual(field_: FourierField) -> float:
    """Max |coeff(-eta) - conj(coeff(eta))|; zero for a real-valued field."""
    table = _index_map(field_)
    worst = 0.0
    for i, (n1, n2) in enumerate(field_.indices):
        j = table.get((-int(n1), -int(n2)))
        mirror = field_.coeffs[j] if j is not None else np.zeros_like(field_.coeffs[i])
        worst = max(worst, float(np.max(np.abs(mirror - np.conj(field_.coeffs[i])))))
    return worst


def rotation_residual(field_: FourierField) -> float:
    """Max coefficient variation over 2*pi/3-rotation orbits (scalar fields)."""
    if field_.is_vector:
        raise ValueError("rotation residual implemented for scalar fields only")
    table = _index_map(field_)
    worst = 0.0
    for i, pair in enumerate(field_.indices):
        image = ROTATION_ON_DUAL_INTS @ pair
        j = table.get((int(image[0]), int(image[1])))
        mirror = field_.coeffs[j] if j is not None else 0.0
        worst = max(worst, float(np.abs(mirror - field_.coeffs[i])))
    return worst


# ---------------------------------------------------------------------------
# domain wall
# ---------------------------------------------------------------------------


# 48-point Gauss-Legendre rule on [-1, 1] for the bump wall's antiderivative
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _bump_step(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1.

    s is clipped into [0, 1] first; at either end the floored reciprocal
    sends one exponential to exactly 0, so the ends come out exact.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    f = np.exp(-1.0 / np.maximum(s, 1e-300))
    g = np.exp(-1.0 / np.maximum(1.0 - s, 1e-300))
    return f / (f + g)


def _bump_step_deriv(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    out = np.zeros_like(s)
    si = s[inside]
    f = np.exp(-1.0 / si)
    g = np.exp(-1.0 / (1.0 - si))
    fp = f / si**2
    gp = -g / (1.0 - si) ** 2
    out[inside] = (fp * g - f * gp) / (f + g) ** 2
    return out


@dataclass(frozen=True)
class DomainWall:
    """Odd transition profile: -1 on the left plateau, +1 on the right.

    bump_smoothstep is exactly +/-1 outside [-L, L]; tanh_scaled is
    tanh(3t/L), within 1e-12 of its plateaus only asymptotically.
    """

    kind: Literal["tanh_scaled", "bump_smoothstep"]
    plateau_halfwidth: float

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        L = self.plateau_halfwidth
        if isinstance(t, float):
            # one point, as an ODE right-hand side asks for it: math skips
            # numpy's per-call overhead; same clip and floors as _bump_step
            if self.kind == "tanh_scaled":
                return math.tanh(3.0 * t / L)
            s = min(max((t + L) / (2.0 * L), 0.0), 1.0)
            f = math.exp(-1.0 / max(s, 1e-300))
            g = math.exp(-1.0 / max(1.0 - s, 1e-300))
            return 2.0 * (f / (f + g)) - 1.0
        t = np.asarray(t, dtype=float)
        if self.kind == "tanh_scaled":
            return np.tanh(3.0 * t / L)
        return 2.0 * _bump_step((t + L) / (2.0 * L)) - 1.0

    def derivative(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        L = self.plateau_halfwidth
        if self.kind == "tanh_scaled":
            # sech^2 in overflow-safe form
            e = np.exp(-2.0 * np.abs(3.0 * t / L))
            return (3.0 / L) * 4.0 * e / (1.0 + e) ** 2
        return _bump_step_deriv((t + L) / (2.0 * L)) / L

    def antiderivative(self, t: np.ndarray) -> np.ndarray:
        """Integral of kappa from 0 to t (an even function of t)."""
        t = np.asarray(t, dtype=float)
        L = self.plateau_halfwidth
        if self.kind == "tanh_scaled":
            # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log(2), overflow-safe
            x = np.abs(3.0 * t / L)
            return (L / 3.0) * (x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0))
        # inside the transition: Gauss-Legendre on [0, |t|]; outside: the
        # one value at L plus the linear plateau part, so the rule runs only
        # on nodes with |t| < L (and once at L)
        scalar = t.ndim == 0
        tt = np.atleast_1d(np.abs(t))
        inside = tt < L
        upper = np.append(tt[inside], L)
        half = upper / 2.0
        samples = half[:, None] * (_GAUSS_NODES[None, :] + 1.0)  # [-1,1] -> [0, upper]
        core = np.sum(_GAUSS_WEIGHTS[None, :] * self(samples), axis=1) * half
        out = np.empty_like(tt)
        out[inside] = core[:-1]
        out[~inside] = core[-1] + (tt[~inside] - L)
        return float(out[0]) if scalar else out


def domain_wall(
    kind: Literal["tanh_scaled", "bump_smoothstep"], L: float
) -> DomainWall:
    """Wall profile with plateau half-width L > 0."""
    if L <= 0:
        raise ValueError("plateau half-width must be positive")
    if kind not in ("tanh_scaled", "bump_smoothstep"):
        raise ValueError(f"unknown wall kind {kind!r}")
    return DomainWall(kind=kind, plateau_halfwidth=L)
