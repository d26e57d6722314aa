"""Plane-wave Floquet-Bloch fiber operators and dispersion surfaces.

The fiber at quasimomentum xi acts on lattice-periodic amplitudes through
the shifted Laplacian |xi + 2*pi*eta|^2 plus convolution with the potential
coefficients.  Fibers at desk cutoffs are a few hundred modes, so everything
here is dense Hermitian linear algebra; the ribbon solver owns the sparse
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import TWO_PI, LatticeFrame, dual_ball
from .potentials import FourierField


class CutoffMismatch(ValueError):
    """A field's coefficient table visibly truncates non-negligible data."""


class ConvergenceFailure(RuntimeError):
    """The dense eigensolver failed; carries the LAPACK diagnostics."""


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Dual-lattice indices with |n1*k1 + n2*k2| <= k_cutoff.

    Ordering is lexicographic on (n1, n2), as ``geometry.dual_ball`` builds
    it, so eigenvector coefficients are reproducible run to run.
    """

    lattice: LatticeFrame
    k_cutoff: float
    indices: np.ndarray  # (M, 2) int
    duals: np.ndarray  # (M, 2) float, rows n1*k1 + n2*k2

    def __post_init__(self) -> None:
        self.indices.setflags(write=False)
        self.duals.setflags(write=False)

    def __len__(self) -> int:
        return len(self.indices)

    def index_of(self, n1: int, n2: int) -> int:
        hits = np.nonzero(
            (self.indices[:, 0] == n1) & (self.indices[:, 1] == n2)
        )[0]
        if not hits.size:
            raise KeyError((n1, n2))
        return int(hits[0])


def build_basis(lattice: LatticeFrame, k_cutoff: float) -> PlaneWaveBasis:
    indices, duals = dual_ball(lattice, k_cutoff)
    return PlaneWaveBasis(
        lattice=lattice, k_cutoff=k_cutoff, indices=indices, duals=duals
    )


def _coefficient_grid(field: FourierField, span: int) -> np.ndarray:
    """Dense (2*span+1)^2 table of coefficients indexed by (n1+span, n2+span).

    Raises CutoffMismatch when the field's own table boundary carries weight
    above 1e-10 of its peak -- zero-extending such a table would silently
    drop real data.  Fields built by the library constructors pass by
    construction; the check guards hand-made or truncated tables.
    """
    peak = float(np.max(np.abs(field.coeffs))) if len(field.coeffs) else 0.0
    if peak > 0 and not field.meta.get("exact_table", False):
        radius = np.linalg.norm(field.dual_vectors(), axis=1)
        shell = radius >= radius.max() - 1e-9
        boundary = float(np.max(np.abs(field.coeffs[shell])))
        if boundary > 1e-10 * peak:
            raise CutoffMismatch(
                f"field '{field.kind}' still carries {boundary / peak:.2e} "
                "of its peak on the truncation boundary"
            )
    side = 2 * span + 1
    grid = np.zeros((side, side) + field.coeffs.shape[1:], dtype=complex)
    inside = np.all(np.abs(field.indices) <= span, axis=1)
    n1, n2 = field.indices[inside].T + span
    grid[n1, n2] = field.coeffs[inside]
    return grid


@dataclass(frozen=True)
class FiberOperator:
    xi: np.ndarray
    delta: float
    basis: PlaneWaveBasis
    matrix: np.ndarray  # dense complex Hermitian

    def __post_init__(self) -> None:
        self.xi.setflags(write=False)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def hermiticity_residual(self) -> float:
        scale = float(np.linalg.norm(self.matrix, ord=np.inf))
        return float(
            np.max(np.abs(self.matrix - self.matrix.conj().T)) / max(scale, 1e-300)
        )


def _difference_tables(basis: PlaneWaveBasis) -> tuple[int, np.ndarray, np.ndarray]:
    span = int(np.max(np.abs(basis.indices))) * 2
    d1 = basis.indices[:, 0, None] - basis.indices[None, :, 0] + span
    d2 = basis.indices[:, 1, None] - basis.indices[None, :, 1] + span
    return span, d1, d2


def convolution_matrix(field: FourierField, basis: PlaneWaveBasis) -> np.ndarray:
    """Dense matrix of multiplication by a scalar field: F[m, n] = coeff(eta_m - eta_n)."""
    span, d1, d2 = _difference_tables(basis)
    return _coefficient_grid(field, span)[d1, d2]


def magnetic_matrix(
    field: FourierField, basis: PlaneWaveBasis, xi: np.ndarray
) -> np.ndarray:
    """Dense matrix of A.D + D.A on the fiber at xi.

    Element for modes m, n: A_hat(eta_m - eta_n) . (2*xi + 2*pi*(eta_m + eta_n)),
    the symmetrized quantization.
    """
    xi = np.asarray(xi, dtype=float)
    span, d1, d2 = _difference_tables(basis)
    grid = _coefficient_grid(field, span)  # (.., .., 2)
    shifted = xi[None, :] + TWO_PI * basis.duals
    s1 = shifted[:, 0, None] + shifted[None, :, 0]
    s2 = shifted[:, 1, None] + shifted[None, :, 1]
    return grid[d1, d2, 0] * s1 + grid[d1, d2, 1] * s2


def assemble_fiber(
    xi: np.ndarray,
    delta: float,
    V: FourierField | None,
    basis: PlaneWaveBasis,
    perturbation: FourierField | None = None,
) -> FiberOperator:
    """Fiber matrix |xi + 2*pi*eta|^2 + V + delta * (W or magnetic term).

    A scalar perturbation enters as a convolution like V; a vector field A
    enters through the symmetrized quantization A.D + D.A.
    """
    xi = np.asarray(xi, dtype=float)
    m = len(basis)
    shifted = xi[None, :] + TWO_PI * basis.duals  # (M, 2)
    H = np.zeros((m, m), dtype=complex)
    H[np.diag_indices(m)] = np.sum(shifted * shifted, axis=1)

    if V is not None:
        H += convolution_matrix(V, basis)
    if perturbation is not None and delta != 0.0:
        if perturbation.is_vector:
            H += delta * magnetic_matrix(perturbation, basis, xi)
        else:
            H += delta * convolution_matrix(perturbation, basis)
    return FiberOperator(xi=xi.copy(), delta=delta, basis=basis, matrix=H)


def eigs(op: FiberOperator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenpairs, ascending; vectors in columns."""
    if count > op.dim:
        raise ValueError(f"requested {count} pairs from a {op.dim}-dim fiber")
    try:
        vals, vecs = scipy.linalg.eigh(
            op.matrix, subset_by_index=[0, count - 1]
        )
    except scipy.linalg.LinAlgError as err:  # pragma: no cover - rare
        raise ConvergenceFailure(f"dense eigh failed: {err}") from err
    return vals, vecs
