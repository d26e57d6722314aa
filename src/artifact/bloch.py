"""Plane-wave Floquet-Bloch fiber operators and dispersion surfaces.

The fiber at quasimomentum xi acts on lattice-periodic amplitudes through
the shifted Laplacian |xi + 2*pi*eta|^2 plus convolution with the potential
coefficients.  Fibers at desk cutoffs are a few hundred modes, so everything
here is dense Hermitian linear algebra; the strip (``strip``) and its block
solver (``blocktri``) own the sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg.lapack import zheevr, zheevr_lwork

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
    """Dense matrix of multiplication by a scalar field: F[m, n] = coeff(eta_m - eta_n).

    For a vector field the same gather gives both components, shape (M, M, 2).
    """
    span, d1, d2 = _difference_tables(basis)
    return _coefficient_grid(field, span)[d1, d2]


def _magnetic_term(table: np.ndarray, basis: PlaneWaveBasis, xi: np.ndarray) -> np.ndarray:
    """A.D + D.A at xi from the field's gathered table A_hat(eta_m - eta_n)."""
    shifted = xi[None, :] + TWO_PI * basis.duals
    s1 = shifted[:, 0, None] + shifted[None, :, 0]
    s2 = shifted[:, 1, None] + shifted[None, :, 1]
    return table[..., 0] * s1 + table[..., 1] * s2


def magnetic_matrix(
    field: FourierField, basis: PlaneWaveBasis, xi: np.ndarray
) -> np.ndarray:
    """Dense matrix of A.D + D.A on the fiber at xi.

    Element for modes m, n: A_hat(eta_m - eta_n) . (2*xi + 2*pi*(eta_m + eta_n)),
    the symmetrized quantization.
    """
    xi = np.asarray(xi, dtype=float)
    return _magnetic_term(convolution_matrix(field, basis), basis, xi)


def fiber_tables(
    V: FourierField | None, basis: PlaneWaveBasis, perturbation: FourierField | None
) -> tuple:
    """The xi-independent tables of the fiber matrix: ``(V, perturbation)``.

    Each is the field's gathered coefficient table ``convolution_matrix``
    (M x M for a scalar field, M x M x 2 for a vector one), or None without
    the field.  A scan over many fibers builds them once and passes them to
    ``fiber_from_tables``; ``_coefficient_grid`` and its CutoffMismatch check
    then run once per field, not once per fiber.
    """
    return tuple(
        None if fld is None else convolution_matrix(fld, basis)
        for fld in (V, perturbation)
    )


def fiber_from_tables(
    xi: np.ndarray, delta: float, basis: PlaneWaveBasis, tables: tuple
) -> FiberOperator:
    """Fiber at xi from the tables of ``fiber_tables``.

    Sums ``diag |xi + 2*pi*eta|^2``, then V, then ``delta`` times the
    perturbation's matrix: its table for a scalar field, the symmetrized
    A.D + D.A at xi for a vector one.
    """
    xi = np.array(xi, dtype=float)
    m = len(basis)
    shifted = xi[None, :] + TWO_PI * basis.duals  # (M, 2)
    H = np.zeros((m, m), dtype=complex)
    H[np.diag_indices(m)] = np.sum(shifted * shifted, axis=1)

    v_table, w_table = tables
    if v_table is not None:
        H += v_table
    if w_table is not None and delta != 0.0:
        if w_table.ndim == 3:  # a vector field's two components
            H += delta * _magnetic_term(w_table, basis, xi)
        else:
            H += delta * w_table
    return FiberOperator(xi=xi, delta=delta, basis=basis, matrix=H)


def assemble_fiber(
    xi: np.ndarray,
    delta: float,
    V: FourierField | None,
    basis: PlaneWaveBasis,
    perturbation: FourierField | None = None,
) -> FiberOperator:
    """Fiber matrix |xi + 2*pi*eta|^2 + V + delta * (W or magnetic term).

    A scalar perturbation enters as a convolution like V; a vector field A
    enters through the symmetrized quantization A.D + D.A.  One fiber: the
    tables of ``fiber_tables`` are built for it and dropped.
    """
    tables = fiber_tables(V, basis, perturbation if delta != 0.0 else None)
    return fiber_from_tables(xi, delta, basis, tables)


@cache
def _lwork(n: int) -> tuple[int, int, int]:
    """Workspace sizes ``(lwork, lrwork, liwork)`` for zheevr on an n-row
    fiber (zheevr_lwork, cached): the query ``scipy.linalg.eigh`` makes on
    every call."""
    work, rwork, iwork, _ = zheevr_lwork(n, lower=1)
    return int(work.real), int(rwork), int(iwork)


def eigs(op: FiberOperator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenpairs, ascending; vectors in columns.

    Calls LAPACK's zheevr on the lower triangle for eigenvalues 1 ..
    ``count``, with its workspace queried once per size (``_lwork``): bit
    for bit ``scipy.linalg.eigh(subset_by_index=[0, count - 1])``, without
    that wrapper's checks and its workspace query on every fiber.
    """
    if count > op.dim:
        raise ValueError(f"requested {count} pairs from a {op.dim}-dim fiber")
    lwork, lrwork, liwork = _lwork(op.dim)
    vals, vecs, found, _, info = zheevr(
        op.matrix, range="I", lower=1, il=1, iu=count,
        lwork=lwork, lrwork=lrwork, liwork=liwork,
    )
    if info != 0:  # pragma: no cover - rare
        raise ConvergenceFailure(f"dense eigensolver zheevr failed (info = {info})")
    return vals[:found], vecs
