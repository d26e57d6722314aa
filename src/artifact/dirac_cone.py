"""Dirac-point certification and coefficient extraction.

At the symmetry-pinned momenta the first two dispersion surfaces of the
unperturbed operator touch conically.  This module certifies the touching
(double eigenvalue + rotation eigenvalues tau, conj(tau)), builds the
symmetry-adapted eigenpair (phi1, phi2), and extracts the velocity nu_star,
the fitted cone slope nu_F, and the mass produced by a parity-breaking
scalar field (or the magnetic analogue).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .bloch import (
    PlaneWaveBasis,
    assemble_fiber,
    convolution_matrix,
    eigs,
    magnetic_matrix,
)
from .geometry import (
    ROTATION_ON_DUAL_INTS,
    TWO_PI,
    EdgeFrame,
    dirac_momenta,
    rotation_matrix,
)
from .potentials import FourierField

TAU = np.exp(2j * np.pi / 3.0)

# compute_mass rejects |mass| below MASS_THRESHOLD; fit_fermi_velocity
# rejects a relative spread of the directional slopes above SPREAD_TOL;
# no_fold_scan measures the cone-pair margin only at momenta farther than
# CONE_EXCLUSION from the cone, modulo the dual lattice.
MASS_THRESHOLD = 1e-8
SPREAD_TOL = 0.10
CONE_EXCLUSION = 0.35

# find_dirac_point looks for the degenerate pair among the lowest
# CONE_BANDS bands at the pinned momentum.
CONE_BANDS = 8

# fit_fermi_velocity samples the cone at FERMI_RADII (in units of |k1|,
# inside the linear regime r <= 0.2 |k1|) along FERMI_DIRECTIONS
# equally spaced directions.
FERMI_RADII = (0.05, 0.1, 0.2)
FERMI_DIRECTIONS = 12


class NoDegeneracyFound(RuntimeError):
    """No double eigenvalue at the pinned momentum; reports the nearest gap."""


class SymmetryProjectionFailed(RuntimeError):
    """The rotation operator failed to split the eigenspace into tau-lines."""


class LinearityViolation(RuntimeError):
    """2<phi1,(eta.D)phi2> is not complex-linear in eta: broken symmetry basis."""


class DegenerateMass(RuntimeError):
    """|mass| below threshold: the perturbation fails the non-degeneracy need."""


class PoorFit(RuntimeError):
    """Directional cone-slope fits disagree beyond tolerance."""


class DegenerateDiracPoint(RuntimeError):
    """Prerequisite Dirac data missing or invalid."""


def rotation_permutation(
    basis: PlaneWaveBasis, xi_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index map of the discrete rotation on the fiber's plane-wave modes.

    Composing a fiber function with the 2*pi/3 rotation pulls plane-wave
    labels back by the inverse rotation: mode eta maps to R^{-1} eta + g,
    where 2*pi*g = R^{-1} xi* - xi* is a dual-lattice point at the cone
    momenta.  (The inverse-image convention is what makes the velocity
    element below complex-linear rather than antilinear in eta.)
    Returns (image_index, valid): image_index[m] = basis position of the
    rotated mode, -1 where the image falls outside the cutoff ball (only
    possible near the boundary; the lost mass is at coefficient-tail level).
    """
    lattice = basis.lattice
    rot_inv = rotation_matrix().T
    ints_inv = ROTATION_ON_DUAL_INTS @ ROTATION_ON_DUAL_INTS  # M^3 = identity
    shift = lattice.dual_coords(rot_inv @ xi_star - xi_star)
    g_int = np.round(shift).astype(int)
    if np.max(np.abs(shift - g_int)) > 1e-9:
        raise SymmetryProjectionFailed(
            f"rotation does not fix the momentum modulo the dual lattice "
            f"(fractional shift {shift})"
        )
    table = {
        (int(n1), int(n2)): i for i, (n1, n2) in enumerate(basis.indices)
    }
    images = np.full(len(basis), -1, dtype=int)
    for m, pair in enumerate(basis.indices):
        target = ints_inv @ pair + g_int
        images[m] = table.get((int(target[0]), int(target[1])), -1)
    valid = images >= 0
    return images, valid


def apply_rotation(
    coeffs: np.ndarray, images: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Coefficients of the rotated fiber function (boundary leakage dropped)."""
    out = np.zeros_like(coeffs)
    out[images[valid]] = coeffs[valid]
    return out


@dataclass
class DiracPointData:
    """Certified cone data at one of the two pinned momenta."""

    which: str  # "A" or "B"
    xi_star: np.ndarray
    E_star: float
    j_star: int  # 1-based index of the lower band of the degenerate pair
    phi1: np.ndarray  # plane-wave coefficients, tau-eigenvector
    phi2: np.ndarray  # elementwise conjugate of phi1
    degeneracy_split: float
    rotation_residual: float
    k_cutoff: float
    nu_star: complex | None = None
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def nu_abs(self) -> float:
        if self.nu_star is None:
            raise DegenerateDiracPoint("velocity not computed yet")
        return abs(self.nu_star)


def find_dirac_point(
    V: FourierField,
    which: str,
    basis: PlaneWaveBasis,
    degeneracy_tol: float = 1e-6,
    phase_anchor: int | None = None,
) -> DiracPointData:
    """Certify the cone at the pinned momentum and build (phi1, phi2).

    The momentum is never searched: symmetry pins it.  We eigensolve there,
    locate the lowest double eigenvalue (relative split below
    degeneracy_tol), and split its eigenspace under the discrete rotation;
    phi1 is the tau = exp(2*pi*i/3) eigenvector with its largest-magnitude
    coefficient made real positive (or the coefficient at `phase_anchor`),
    and phi2 is the elementwise conjugate of phi1.
    """
    lattice = basis.lattice
    xi_a, xi_b = dirac_momenta(lattice)
    xi_star = xi_a if which.upper() == "A" else xi_b
    op = assemble_fiber(xi_star, 0.0, V, basis)
    vals, vecs = eigs(op, CONE_BANDS)
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)

    pair = None
    for j in range(CONE_BANDS - 1):
        if (vals[j + 1] - vals[j]) / scale < degeneracy_tol:
            pair = j
            break
    if pair is None:
        nearest = float(np.min(np.diff(vals)))
        raise NoDegeneracyFound(
            f"no double eigenvalue at the pinned momentum; nearest gap {nearest:.3e}"
        )
    split = float(vals[pair + 1] - vals[pair])
    e_star = 0.5 * float(vals[pair] + vals[pair + 1])

    # rotation action restricted to the 2D eigenspace
    images, valid = rotation_permutation(basis, xi_star)
    space = vecs[:, pair : pair + 2]
    rotated = np.column_stack(
        [apply_rotation(space[:, 0], images, valid), apply_rotation(space[:, 1], images, valid)]
    )
    small = space.conj().T @ rotated  # 2x2, unitary up to boundary leakage
    evals, evecs = np.linalg.eig(small)
    # the two eigenvalues must be tau and conj(tau)
    d_tau = np.abs(evals - TAU)
    d_conj = np.abs(evals - np.conj(TAU))
    if min(d_tau) > 1e-6 or min(d_conj) > 1e-6:
        raise SymmetryProjectionFailed(
            f"rotation eigenvalues {evals} do not match exp(+-2*pi*i/3)"
        )
    phi1 = space @ evecs[:, int(np.argmin(d_tau))]
    phi1 = phi1 / np.linalg.norm(phi1)
    anchor = int(np.argmax(np.abs(phi1))) if phase_anchor is None else phase_anchor
    if np.abs(phi1[anchor]) < 1e-12:
        raise SymmetryProjectionFailed("phase anchor coefficient vanishes")
    phi1 = phi1 * (np.abs(phi1[anchor]) / phi1[anchor])
    phi2 = np.conj(phi1)

    rotated1 = apply_rotation(phi1, images, valid)
    residual = float(np.linalg.norm(rotated1 - TAU * phi1))
    return DiracPointData(
        which=which.upper(),
        xi_star=xi_star,
        E_star=e_star,
        j_star=pair + 1,
        phi1=phi1,
        phi2=phi2,
        degeneracy_split=split,
        rotation_residual=residual,
        k_cutoff=basis.k_cutoff,
        diagnostics={"orthogonality": float(abs(phi1.conj() @ phi2))},
    )


def momentum_matrix_elements(
    data: DiracPointData, basis: PlaneWaveBasis
) -> dict[str, np.ndarray]:
    """All <phi_i, D phi_j> as 2-vectors (D = -i grad on the fiber)."""
    shifted = data.xi_star[None, :] + TWO_PI * basis.duals  # (M, 2)
    out = {}
    for name, bra, ket in (
        ("11", data.phi1, data.phi1),
        ("12", data.phi1, data.phi2),
        ("21", data.phi2, data.phi1),
        ("22", data.phi2, data.phi2),
    ):
        out[name] = np.array(
            [
                np.vdot(bra, shifted[:, 0] * ket),
                np.vdot(bra, shifted[:, 1] * ket),
            ]
        )
    return out


def compute_nu_star(
    data: DiracPointData,
    basis: PlaneWaveBasis,
    linearity_tol: float = 1e-8,
) -> complex:
    """The cone velocity: 2<phi1, (eta.D) phi2> = nu_star * (eta1 + i*eta2).

    Evaluates the defining relation for eta = (1,0) and checks complex
    linearity with eta = (0,1); stores the value on `data` and returns it.
    `linearity_tol` is relative; small plane-wave balls have a genuine
    anisotropy floor (~3e-6 at cutoff 4) so callers that extract velocities
    self-consistently at a truncated ball pass a looser value.
    """
    elements = momentum_matrix_elements(data, basis)
    u = 2.0 * elements["12"]
    nu = complex(u[0])
    if abs(u[1] - 1j * nu) > linearity_tol * max(abs(nu), 1e-12):
        raise LinearityViolation(
            f"2<phi1,D phi2> = {u}; second component is not i times the first"
        )
    data.nu_star = nu
    data.diagnostics["momentum_diag_11"] = float(np.max(np.abs(elements["11"])))
    data.diagnostics["momentum_diag_22"] = float(np.max(np.abs(elements["22"])))
    return nu


def compute_mass(
    data: DiracPointData,
    basis: PlaneWaveBasis,
    perturbation: FourierField,
) -> float:
    """Mass of the gapped cone: <phi1, W phi1>, or its magnetic analogue.

    In both the scalar and the magnetic case the two diagonal elements are
    opposite and the cross terms vanish; what distinguishes them is the
    behavior across the two cones (scalar masses are opposite at A and B,
    magnetic masses are equal).  Diagnostics carry the cross term and the
    diagonal sum.
    """
    if perturbation.is_vector:
        mat = magnetic_matrix(perturbation, basis, data.xi_star)
    else:
        mat = convolution_matrix(perturbation, basis)
    m11 = complex(np.vdot(data.phi1, mat @ data.phi1))
    m22 = complex(np.vdot(data.phi2, mat @ data.phi2))
    m12 = complex(np.vdot(data.phi1, mat @ data.phi2))
    mass = float(np.real(m11))
    if abs(np.imag(m11)) > 1e-9 * max(abs(mass), 1.0):
        raise SymmetryProjectionFailed(f"mass has imaginary part {np.imag(m11):.3e}")
    if abs(mass) < MASS_THRESHOLD:
        raise DegenerateMass(
            f"|mass| = {abs(mass):.3e} below threshold {MASS_THRESHOLD:.1e}"
        )
    data.diagnostics["mass_cross_term"] = abs(m12)
    data.diagnostics["mass_diagonal_sum"] = abs(m11 + m22)
    data.diagnostics["mass_22"] = float(np.real(m22))
    return mass


def fit_fermi_velocity(
    V: FourierField,
    data: DiracPointData,
    basis: PlaneWaveBasis,
) -> tuple[float, dict]:
    """Fitted cone slope: directional secants extrapolated to radius zero.

    For each direction the two bands of the pair give slopes (E* - lower)/r
    and (upper - E*)/r; a linear fit in r removes the quadratic correction.
    Returns (nu_F, diagnostics with per-direction intercepts and spread).
    """
    k1_norm = float(np.linalg.norm(basis.lattice.k1))
    radii = tuple(r * k1_norm for r in FERMI_RADII)
    angles = np.arange(FERMI_DIRECTIONS) * (2.0 * np.pi / FERMI_DIRECTIONS) + 0.1
    j = data.j_star - 1  # 0-based lower band of the pair
    intercepts = []
    for ang in angles:
        direction = np.array([np.cos(ang), np.sin(ang)])
        lower, upper = [], []
        for r in radii:
            vals, _ = eigs(
                assemble_fiber(data.xi_star + r * direction, 0.0, V, basis),
                data.j_star + 1,
            )
            lower.append((data.E_star - vals[j]) / r)
            upper.append((vals[j + 1] - data.E_star) / r)
        # linear extrapolation to r -> 0 for both cone sheets
        for slopes in (lower, upper):
            coeff = np.polyfit(radii, slopes, 1)
            intercepts.append(coeff[1])
    intercepts = np.array(intercepts)
    nu_f = float(np.mean(intercepts))
    spread = float((intercepts.max() - intercepts.min()) / abs(nu_f))
    if spread > SPREAD_TOL:
        raise PoorFit(f"directional slope spread {spread:.2%} exceeds {SPREAD_TOL:.0%}")
    diag = {
        "intercepts": intercepts,
        "spread": spread,
        "radii": radii,
    }
    data.diagnostics["velocity_fit_spread"] = spread
    return nu_f, diag


def no_fold_scan(
    V: FourierField,
    edge: EdgeFrame,
    data: DiracPointData,
    basis: PlaneWaveBasis,
    tau_samples: int = 128,
) -> dict:
    """Scan the dispersion along the edge-transverse momentum line.

    Samples the line zeta* k + tau k' (tau over a full period).  Reports the
    exact armchair incidence test (both cone momenta on one line) and two
    margins: distance of all other bands from E*, and distance of the cone
    pair from E* away from the cone momentum.  A scan, not a proof.
    """
    if data is None:
        raise DegenerateDiracPoint("no Dirac data supplied")
    if tau_samples < 64:
        raise ValueError("tau_samples must be at least 64")
    lattice = basis.lattice
    armchair = (edge.a1 - edge.a2) % 3 == 0
    zeta = edge.zeta_star(data.which)
    taus = np.linspace(0.0, TWO_PI, tau_samples, endpoint=False)
    j = data.j_star - 1
    other_margin = np.inf
    pair_margin = np.inf
    for tau in taus:
        xi = edge.xi_of(zeta, tau)
        vals, _ = eigs(assemble_fiber(xi, 0.0, V, basis), data.j_star + 4)
        others = np.concatenate([vals[:j], vals[j + 2 :]])
        other_margin = min(other_margin, float(np.min(np.abs(others - data.E_star))))
        # distance from the cone momentum modulo the dual lattice
        sep = min(
            np.linalg.norm(lattice.reduce_dual(xi - data.xi_star)),
            np.linalg.norm(lattice.reduce_dual(data.xi_star - xi)),
        )
        if sep > CONE_EXCLUSION:
            pair_margin = min(
                pair_margin,
                float(np.min(np.abs(vals[j : j + 2] - data.E_star))),
            )
    return {
        "armchair": armchair,
        "tau_samples": tau_samples,
        "other_band_margin": other_margin,
        "cone_pair_margin_away_from_cone": pair_margin,
        "cone_exclusion_radius": CONE_EXCLUSION,
    }
