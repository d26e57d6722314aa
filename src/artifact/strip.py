"""The edge strip: bulk plane waves times slow transverse envelopes.

The wall geometry keeps the direction along the edge periodic (Bloch phase
``zeta``) and opens the transverse direction ``t = <k', x>`` into a long
finite box.  Rather than re-deriving a transverse basis, the strip keeps the
full bulk plane-wave ball and gives every ball mode a complex envelope
``c_m(t)`` on a uniform grid with Dirichlet ends.  An envelope momentum then
simply shifts the transverse Bloch phase, so the constant-coefficient strip
is an exact remap of the bulk fiber family and lattice-scale discretization
error cannot leak into the bulk gap.

Two design points matter and are easy to get wrong:

* the second transverse derivative is assembled as ``D1.T @ D1`` with ``D1``
  the centered difference, not as the usual width-one stencil.  Only the
  squared first difference keeps the exact-remap property; the compact
  stencil leaves a residual that grows like ``(1 - cos p h)^2 / h^2`` and
  sweeps deep bands up through the gap at usable steps.
* the envelope zone edge ``p = pi / step`` hosts a mirror copy of the
  physical channel (same gap, reversed transverse group velocity), so every
  in-gap state comes with a mirror twin nearby: on the base channel the
  mirror sits 4.0e-3 below the physical state (1.8965668163 against
  1.9005822821), at the wall, with a smooth fraction of 7e-13.  Any count
  of the window counts both.  A count that treated the mirrors as states
  would see every crossing twice, with opposite slopes, and cancel it.
  ``envelope_band_fraction`` tells the two apart: the fraction of a state's
  envelope Fourier mass below ``MIRROR_CUT`` of the envelope zone.

One builder, ``strip_terms``, makes the strip: it guards the step and the
box, lays out the grid and returns a ``StripOperator`` holding the grid and
the Kronecker terms ``sum_k T_k (x) F_k``.  The channel solve and the
quasimode residual study read the same object.  The terms are applied
without a matrix: to a strip vector by ``kron_apply``, and to a sample kept
as fast columns times slow coefficients by ``kron_residual``, which never
forms the vector and takes the residual of every leading-column truncation
of the sample in one pass.  The CSC matrix of the strip is the plain sum of its
Kronecker products, built only when a check reads ``StripOperator.matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import zgemm

from .bloch import PlaneWaveBasis, convolution_matrix
from .geometry import TWO_PI, EdgeFrame
from .potentials import DomainWall, FourierField
from .wall_dirac import GridTooCoarse


class PlateauNotReached(ValueError):
    """The transverse box ends before the wall profile settles on its plateaus."""


# Envelope momenta |p| <= MIRROR_CUT * pi / step count as smooth: half the
# envelope zone radius splits the physical channel (mass near p = 0) from
# its zone-edge mirror (mass near p = pi / step).
MIRROR_CUT = 0.5

# A state's boundary mass is its mass at |t| >= BOUNDARY_FRACTION times the
# box half-width, the outer 10% of the box.
BOUNDARY_FRACTION = 0.9

# Rows per slab when kron_apply adds a banded t-factor into its output: a
# slab's temporary is APPLY_ROWS x n_fast, 0.23 MB at the base channel's
# n_fast = 55.
APPLY_ROWS = 256


# ---------------------------------------------------------------------------
# grid and guards


@dataclass(frozen=True)
class StripGrid:
    """Transverse envelope grid for one strip assembly.

    ``t`` holds the interior nodes only (Dirichlet values beyond both ends
    are implicit zeros); it is symmetric about 0 with an odd point count, so
    the wall center always sits on a node.
    """

    zeta: float
    delta: float
    tau_ref: float
    step: float
    t: np.ndarray
    half_width: float  # box half-width in fast t units
    n_fast: int
    n_edge_harmonics: int

    @property
    def n_t(self) -> int:
        return len(self.t)

    @property
    def dim(self) -> int:
        return self.n_t * self.n_fast

    def envelope_momenta(self) -> np.ndarray:
        """Envelope Fourier momenta matching np.fft.fft along the t axis."""
        return TWO_PI * np.fft.fftfreq(self.n_t, d=self.step)


def _check_step(step: float, delta: float) -> None:
    if step > 0.55:
        raise GridTooCoarse(
            f"envelope step {step:.3g} cannot cover the transverse phase range "
            "the gap window needs (require step <= 0.55)"
        )
    if step <= 0.2:
        raise GridTooCoarse(
            f"envelope step {step:.3g} pushes the envelope zone edge past the "
            "fast zone and re-admits transverse alias channels (require step > 0.2)"
        )
    if delta * step > 0.05 + 1e-12:
        raise GridTooCoarse(
            f"slow resolution delta*step = {delta * step:.3g} exceeds 0.05; "
            "the wall profile is under-resolved on the envelope grid"
        )


def nearest_cone(frame: EdgeFrame, zeta: float) -> tuple[str, float]:
    """Which cone the edge phase zeta is closest to, and the wrapped offset.

    Returns ``(which, dz)`` with ``dz = zeta - zeta_star(which)`` wrapped to
    [-pi, pi).
    """
    best = None
    for which in ("A", "B"):
        dz = zeta - frame.zeta_star(which)
        dz = (dz + np.pi) % TWO_PI - np.pi
        if best is None or abs(dz) < abs(best[1]):
            best = (which, float(dz))
    return best


def fold_phase(frame: EdgeFrame, zeta: float) -> float:
    """Transverse reference phase that keeps the nearest cone at envelope rest.

    The fold follows the cone: moving the edge phase by dz moves the momentum
    of closest approach by ``-(k . k') / |k'|^2 * dz`` along ``k'``, so the
    returned tau_ref tracks it and the envelope momentum p = 0 stays at the
    cone, where the finite-difference remap has unit Jacobian.
    """
    which, dz = nearest_cone(frame, zeta)
    slope = -float(frame.k @ frame.kp) / float(frame.kp @ frame.kp)
    return float(frame.tau_star(which) + slope * dz)


# ---------------------------------------------------------------------------
# assembly


def _conv_table(fld: FourierField, basis: PlaneWaveBasis) -> np.ndarray:
    """Convolution matrix with entries below 1e-14 of its peak set to 0."""
    mat = convolution_matrix(fld, basis)
    peak = np.abs(mat).max()
    if peak > 0:
        mat = np.where(np.abs(mat) < 1e-14 * peak, 0.0, mat)
    return mat


@dataclass
class StripOperator:
    """Strip Hamiltonian as its Kronecker terms, with its grid.

    ``terms`` is H = sum_k T_k (x) F_k as ``[(T_k, F_k)]`` (``strip_terms``
    builds both); the window count, the shift-invert solve and the residual
    screen of ``ribbon.gap_eigenpairs`` and the residuals of
    ``quasimode.residual_orders`` all work from them.
    ``matrix`` is the CSC form of H, the sum of the sparse Kronecker products
    with exact zeros removed, built when it is first read and kept from then
    on; only checks read it.  ``dim`` comes from the grid and builds nothing.
    """

    grid: StripGrid
    terms: list

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        H = sum(sp.kron(T, F, format="csc") for T, F in self.terms)
        H.eliminate_zeros()
        return H

    @property
    def dim(self) -> int:
        return self.grid.dim


def strip_terms(
    frame: EdgeFrame,
    potential: FourierField,
    wall: DomainWall,
    zeta: float,
    delta: float,
    basis: PlaneWaveBasis,
    *,
    perturbation: FourierField | None = None,
    step: float = 0.5,
    t_factor: float = 8.0,
    tau_ref: float | None = None,
    half_width: float | None = None,
    flip_wall: bool = False,
) -> StripOperator:
    """The wall-modulated strip Hamiltonian at one edge phase: grid and terms.

    The grid is the box |t| <= half_width (``t_factor`` L / delta by
    default) at ``step``, both guarded: the step by ``_check_step``, the box
    by ``PlateauNotReached`` when it does not reach 3 L in slow units, so
    in-gap states see true plateaus.  ``tau_ref`` defaults to ``fold_phase``.

    The state vector is t-major: entry ``j * n_fast + m`` is the envelope
    value of ball mode m at node t_j.  The kinetic part per fast mode is
    ``|K_m|^2 - 2i (K_m . k') D1 + |k'|^2 D1^T D1``, an exact remap of the
    bulk fiber at transverse phase ``tau_ref + sin(p h)/h`` for envelope
    momentum p.  The wall enters through its slow profile kappa(delta * t)
    multiplying the (scalar or magnetic) perturbation; ``flip_wall`` reverses
    the profile's argument, which is the reflected-wall variant used by the
    covariance checks.

    H = sum_k T_k (x) F_k, each T_k a sparse n_t x n_t band in DIA form
    (offsets within +-2) and each F_k a dense n_fast x n_fast array:

        I (x) (diag |K|^2 + V),   D1 (x) diag(-2i K . k'),   |k'|^2 S2 (x) I,

    with S2 = D1^T D1, plus for a scalar wall ``delta diag(kappa) (x) W``,
    or for a magnetic wall ``delta diag(kappa) (x) (A . K + K . A)`` and
    ``-i delta (diag(kappa) D1 + D1 diag(kappa)) (x) (k' . A)``, the
    symmetrized ``A . D + D . A`` split into its parts without and with a
    t-derivative.  Nothing is summed here: ``kron_apply`` applies the terms
    without a matrix, and ``StripOperator.matrix`` sums them when a check
    needs it.
    """
    _check_step(step, delta)
    L = wall.plateau_halfwidth
    if half_width is None:
        if delta <= 0:
            raise ValueError("delta = 0 needs an explicit half_width")
        half_width = t_factor * L / delta
    if delta > 0 and half_width * delta < 3.0 * L - 1e-9:
        raise PlateauNotReached(
            f"box half-width {half_width:.1f} covers only {half_width * delta:.2f} "
            f"slow units; need at least 3x the wall half-width {L:.2f} so in-gap "
            "states see true plateaus"
        )
    if tau_ref is None:
        tau_ref = fold_phase(frame, zeta)
    half = int(np.floor(half_width / step + 1e-9))
    m = basis.indices @ np.array([frame.a1, frame.a2])
    grid = StripGrid(
        zeta=float(zeta),
        delta=float(delta),
        tau_ref=float(tau_ref),
        step=float(step),
        t=(np.arange(2 * half + 1) - half) * step,
        half_width=float(half_width),
        n_fast=len(basis),
        n_edge_harmonics=int(len(np.unique(m))),
    )
    n_t, n_fast = grid.n_t, grid.n_fast
    h = grid.step

    xi_ref = frame.xi_of(zeta, tau_ref)
    K = xi_ref[None, :] + TWO_PI * basis.duals  # (n_fast, 2)
    kp = frame.kp

    ones = np.ones(n_t - 1)
    D1 = sp.diags([ones / (2 * h), -ones / (2 * h)], [1, -1], format="dia")
    S2 = (D1.T @ D1).todia()  # = -D1 @ D1 on the Dirichlet grid, PSD

    sign = -1.0 if flip_wall else 1.0
    kappa = wall(sign * delta * grid.t)

    kinetic = np.diag(np.einsum("md,md->m", K, K))
    terms = [
        (sp.identity(n_t, format="dia"), kinetic + _conv_table(potential, basis)),
        (D1, np.diag(-2j * (K @ kp))),
        (float(kp @ kp) * S2, np.eye(n_fast)),
    ]
    if perturbation is not None and delta != 0.0:
        wall_diag = sp.diags(delta * kappa, format="dia")
        if perturbation.is_vector:
            coeffs = perturbation.coeffs
            comps = [
                _conv_table(dc_replace(perturbation, coeffs=coeffs[:, c]), basis)
                for c in (0, 1)
            ]
            sym = sum(a * (K[:, c, None] + K[None, :, c]) for c, a in enumerate(comps))
            along = _conv_table(dc_replace(perturbation, coeffs=coeffs @ kp), basis)
            terms.append((wall_diag, sym))
            terms.append((-1j * (wall_diag @ D1 + D1 @ wall_diag).todia(), along))
        else:
            terms.append((wall_diag, _conv_table(perturbation, basis)))
    return StripOperator(grid, terms)


def _is_identity(T) -> bool:
    return T.nnz == T.shape[0] and bool(np.all(T.diagonal() == 1.0))


def _fast_apply(u: np.ndarray, F: np.ndarray) -> np.ndarray:
    """u F^T for the rows of u; a diagonal F scales the columns, an identity is u."""
    diag = np.diagonal(F)
    if np.count_nonzero(F) != np.count_nonzero(diag):
        return u @ F.T
    if np.all(diag == 1.0):
        return u
    return u * diag


def kron_apply(terms: list, u: np.ndarray) -> np.ndarray:
    """H u for H = sum_k T_k (x) F_k and a t-major u of shape (n_t, n_fast).

    Row j of u is the fast vector at node t_j, so (T (x) F) u = T (u F^T).
    A diagonal fast factor scales the columns of u; only the dense ones
    cost a GEMM.  An identity factor on either side is skipped: u F^T is
    added as it is, and u itself stands for u I.  Any other T is added into
    the output by its diagonals (DIA form, as ``strip_terms`` holds it), in
    slabs of ``APPLY_ROWS`` rows, so the only arrays of u's size are the
    output and u F^T: no T (u F^T) is formed.
    """
    n_t = u.shape[0]
    out = np.zeros(u.shape, dtype=complex)
    for T, F in terms:
        v = _fast_apply(u, F)
        if _is_identity(T):
            out += v
        else:
            T = T.todia()
            # DIA row k holds T[j - offsets[k], j] at column j, so output row
            # i takes data[k, i + offset] * v[i + offset]
            for offset, coef in zip(T.offsets, T.data):
                end = min(n_t, n_t - offset)
                for r0 in range(max(0, -offset), end, APPLY_ROWS):
                    r1 = min(r0 + APPLY_ROWS, end)
                    rows = slice(r0 + offset, r1 + offset)
                    out[r0:r1] += coef[rows, None] * v[rows]
        del v  # before the next term's u F^T is made
    return out


def kron_residual(
    terms: list, basis: np.ndarray, coeffs: np.ndarray, cuts: list
) -> list:
    """[(||(H - E_j) u_j||, ||u_j||)] for the leading-column truncations of a field.

    ``basis`` is (n_fast, r) fast columns and ``coeffs`` (r, n_t) slow
    coefficients, one column per node, with r much smaller than n_fast.
    ``cuts`` are ascending ``(end, energy)`` pairs; cut j takes the t-major
    u_j = coeffs[:end]^T basis[:, :end]^T at energy E_j.  One cut is the
    residual of the whole field.

    The residuals are nested: one (n_fast, n_t) output holds (H - E_j) u_j
    after cut j, and each cut adds into it only its new columns b with
    coefficients c,

        (H - E_j) b c = sum_k (F_k b) (T_k c^T)^T - E_j b c,

    the identity-T terms sharing one product (sum F_k b - E_j b) c and each
    banded term adding its own.  Where the energy moves, the cut also adds
    -(E_j - E_{j-1}) times the earlier columns, in the same product.  Every
    GEMM adds into the output in place, so it is the only array of u's size,
    and its inner dimension is the number of columns it adds.

    The norms come from one thin QR of the whole basis, basis = Q R: the
    leading columns are Q[:, :end] R[:end, :end], so ||u_j|| is
    ||R[:end, :end] coeffs[:end]||.

    The route rounds worse than ``kron_apply`` on u: the rounding of each
    F_k b is made once and repeats at every node, so it does not average
    out over n_t and stays about fixed in absolute size, while the order-2
    quasimode residual falls like delta^3.  The floors on the quasimode
    study, measured against the extended-precision reference of the tests,
    are in ``quasimode.residual_orders`` and ``BENCH_nested_residual.json``.
    """
    r = np.linalg.qr(basis, mode="r")
    identity = [F for T, F in terms if _is_identity(T)]
    banded = [(T, F) for T, F in terms if not _is_identity(T)]
    # the residual transposed, (n_fast, n_t) in Fortran order, so that zgemm
    # adds each product into it in place
    out = np.zeros((basis.shape[0], coeffs.shape[1]), dtype=complex, order="F")
    norms, start, energy = [], 0, 0.0
    for end, new_energy in cuts:
        new = basis[:, start:end]
        shared = sum(_fast_apply(new.T, F).T for F in identity) - new_energy * new
        first = start
        if new_energy != energy:  # -(E_j - E_{j-1}) times the earlier columns
            shared = np.hstack([(energy - new_energy) * basis[:, :start], shared])
            first = 0
        out = zgemm(
            1.0, shared, coeffs[first:end].T, trans_b=1, beta=1.0, c=out, overwrite_c=1
        )
        for T, F in banded:
            out = zgemm(
                1.0, _fast_apply(new.T, F).T, (T @ coeffs[start:end].T).T,
                beta=1.0, c=out, overwrite_c=1,
            )
        x = r[:end, :end] @ coeffs[:end]
        norms.append((float(np.linalg.norm(out)), float(np.linalg.norm(x))))
        start, energy = end, new_energy
    return norms


# ---------------------------------------------------------------------------
# per-state utilities


def envelope_band_fraction(vec: np.ndarray, grid: StripGrid) -> float:
    """Fraction of a state's envelope Fourier mass below the mirror cut.

    The cut at ``MIRROR_CUT`` times the envelope zone radius separates the
    physical channel (mass near p = 0) from its zone-edge mirror (mass near
    p = pi/step); genuine states score near 1, mirrors near 0, and unresolved
    mixtures land in between.
    """
    env = vec.reshape(grid.n_t, grid.n_fast)
    spec = np.fft.fft(env, axis=0)
    mask = np.abs(grid.envelope_momenta()) <= MIRROR_CUT * np.pi / grid.step
    total = np.sum(np.abs(spec) ** 2)
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(spec[mask]) ** 2) / total)


def transverse_profile(vec: np.ndarray, grid: StripGrid) -> np.ndarray:
    """Per-node probability mass, summed over the fast ball index."""
    env = np.abs(vec.reshape(grid.n_t, grid.n_fast)) ** 2
    prof = env.sum(axis=1)
    total = prof.sum()
    return prof / total if total > 0 else prof


def mass_fractions(vec: np.ndarray, grid: StripGrid) -> tuple[float, float]:
    """(localization in |t| <= T/2, boundary mass in the outer 10%)."""
    prof = transverse_profile(vec, grid)
    inner = np.abs(grid.t) <= 0.5 * grid.half_width
    outer = np.abs(grid.t) >= BOUNDARY_FRACTION * grid.half_width
    return float(prof[inner].sum()), float(prof[outer].sum())


def state_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>|^2 for unit-normalized copies of u and v."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.abs(np.vdot(u, v) / (nu * nv)) ** 2)
