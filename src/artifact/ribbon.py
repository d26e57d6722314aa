"""Edge-channel strip solver: bulk plane waves times slow transverse envelopes.

The wall geometry keeps the direction along the edge periodic (Bloch phase
``zeta``) and opens the transverse direction ``t = <k', x>`` into a long
finite box.  Rather than re-deriving a transverse basis, the solver keeps the
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
  of the window counts both.  The states are therefore never searched for
  blindly: each is seeded from its state of the reduced Dirac ladder, the
  cone pair times the ladder envelope, which is smooth and carries no
  mirror content, and refined by inverse iteration.  A count that treated
  the mirrors as states would see every crossing twice, with opposite
  slopes, and cancel it.

A window is certified complete by counting, not by over-solving.  The strip
couples t-nodes at distance at most 2 (the squared centered difference), so
grouped in node pairs it is block tridiagonal, magnetic terms included.  A
block LDL^H of ``H - s`` gives its inertia and, by Sylvester's law, the
number of eigenvalues below s; two counts give the window exactly (spectrum
slicing, Ericsson & Ruhe, Math. Comp. 35, 1980).  That count must be twice
the reduced ladder's, one state and its mirror each.  Each seed's inverse
iteration solves with the same LDL^H taken at the seed's Rayleigh quotient:
one forward and one backward pass over its segments.

The LDL^H reads no matrix.  H is kept as its Kronecker terms ``sum_k T_k
(x) F_k``, and each node pair's diagonal block D_i and its coupling
B_(i+1) to the next pair are summed from the 2x2 node blocks of the T_k
times their F_k.  Only the t-derivative terms reach the next pair, and
their t-coefficients repeat (everywhere on a scalar wall, on the plateaus
of a magnetic one), so one coupling, and its adjoint, is built per distinct
coefficient set and shared by every factorization of the strip.  Off the
wall the diagonal coefficients repeat too: the base channel's 438 node
pairs fall into 123 runs of equal ones (``_runs``), and D_i is built once
per run.  A single pair takes the sweep's step: its Schur block S_i
(``_schur_block``) is factored by Bunch-Kaufman (zhetrf, blocked) and
inverted from that factor (zhetri), and ``B^H S_i^-1 B`` is passed on to
the next block.  B stays sparse there: it holds only the distance-one and
distance-two node couplings (165 nonzeros of its 12,100 entries on the base
channel, 257 with a magnetic wall), so both products with it cost next to
nothing and only the inverse is dense.

A run of equal pairs is reduced by block cyclic reduction (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970), the in-box form of the decimation
of Sancho, Sancho & Rubio (J. Phys. F 15, 1985): a run of m pairs reduces
to its last pair's Schur block in about 2 log2(m) factorizations, each
level factoring one pivot for all the blocks it eliminates.  That Schur
block is the one the per-pair sweep reaches, and by Haynsworth additivity
the pivots carry the same inertia.  The base channel's 123 runs include the
plateaus of 158 and 159 pairs, so one count takes 147 factorizations where
a per-pair sweep takes 438, and 0.30 -> 0.13 s.  The count and the factor
at the shift walk the table with one generator (``_run_ldl``).  The count
keeps nothing; the factor keeps, per run, the lower triangle of its last
pair's Schur inverse in LAPACK's packed form and, per level of a reduction,
its pivot inverses and coupling.  Each solve applies a single pair's
inverse by one packed Hermitian matrix-vector product (zhpmv) and a level
by zgemm on all the blocks it eliminates at once.  On the base channel the
factor keeps 1.25 M values where a per-pair one kept 2.74 M (5.36 M as
Bunch-Kaufman factors), and takes 0.29 -> 0.15 s; one solve takes 21 -> 14
ms (medians of three alternating processes, two-core host, BLAS on one
thread).  The CSC matrix of the strip is the plain sum of its Kronecker
products, built only when a check reads ``StripOperator.matrix``.

The reduction's pivots are Schur blocks of stretches of the plateau (the
first is D - shift), and near an eigenvalue of one of them it is not
backward stable where the per-pair sweep is: uncertified, a count 1e-6
from an eigenvalue of D was one short.  So every pivot carries a condition
estimate (``_pivot``), and a run with a pivot above ``PIVOT_CONDITION`` is
walked pair by pair.  Inside the gap windows of the tested channels no run
falls back, within 1e-10 of a state included.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  bench/tracer.py patches ribbon.spla
from scipy.linalg.blas import zgemm, zhpmv
from scipy.linalg.lapack import zhetrf, zhetrf_lwork, zhetri
from scipy.optimize import minimize_scalar

from .bloch import (
    PlaneWaveBasis,
    convolution_matrix,
    eigs as fiber_eigs,
    fiber_from_tables,
    fiber_tables,
)
from .dirac_cone import compute_mass, compute_nu_star, find_dirac_point
from .geometry import TWO_PI, EdgeFrame
from .potentials import DomainWall, FourierField
from .wall_dirac import GridTooCoarse, params_from_frames, window_spectrum

__all__ = [
    "PlateauNotReached",
    "GapClosed",
    "FactorizationFailure",
    "CountMismatch",
    "BoxTooShortWarning",
    "GapTooTightWarning",
    "StripGrid",
    "StripOperator",
    "BulkEdges",
    "EdgeSpectrum",
    "fold_phase",
    "nearest_cone",
    "strip_grid",
    "assemble_strip",
    "essential_edges_bulk",
    "gap_window",
    "gap_eigenpairs",
    "envelope_band_fraction",
    "transverse_profile",
    "state_overlap",
    "fit_power_law",
]


class PlateauNotReached(ValueError):
    """The transverse box ends before the wall profile settles on its plateaus."""


class GapClosed(RuntimeError):
    """The bulk spectral gap vanished at the requested edge Bloch phase."""


class FactorizationFailure(RuntimeError):
    """The shift-inverted strip operator could not be factorized or solved."""


class CountMismatch(RuntimeError):
    """Two routes to the number of states in one window disagree.

    Raised by ``gap_eigenpairs`` when the window's inertia count is not twice
    the number of reduced-ladder seeds (each state comes with its mirror),
    and by ``compare_with_dirac`` when the certified strip states and the
    reduced ladder in the window differ in number.  ``count`` is the
    reference count (inertia, or ladder), ``found`` the number the other
    route gives (twice the seeds, or the certified states).
    """

    def __init__(self, message: str, *, count: int, found: int):
        super().__init__(message)
        self.count = count
        self.found = found


class BoxTooShortWarning(UserWarning):
    """The box tail past the wall is too short to certify any in-gap energy.

    Carries the edge phase ``zeta``, the tail length ``tail_slow`` in slow
    units, the decay rate ``R`` the boundary tolerance needs over that tail,
    and the half-gap ``H`` (slow units) on the side that failed: a state can
    decay at most at rate H, so ``R >= H`` leaves no window.  A box with no
    tail at all (``tail_slow <= 0``) carries ``R = inf``.
    """

    def __init__(self, zeta: float, tail_slow: float, R: float, H: float):
        if tail_slow > 0:
            need = f"a {tail_slow:.3g}-unit tail needs decay rate {R:.3g}"
        else:
            need = f"no tail is left past the wall ({tail_slow:.3g} units)"
        super().__init__(
            f"box too short at zeta = {zeta:.6f}: {need} but the half-gap "
            f"allows at most {H:.3g}; raise t_factor"
        )
        self.zeta = zeta
        self.tail_slow = tail_slow
        self.R = R
        self.H = H


class GapTooTightWarning(UserWarning):
    """The gap is too narrow for the window margins the box needs.

    Carries the edge phase ``zeta``, the bulk ``gap`` (energy units), the
    minimum edge distances ``d_min = (lower, upper)`` in slow units, and the
    smallest margin ``factor`` tried: pulling each edge in by ``factor *
    d_min * delta`` left no energy between them.
    """

    def __init__(
        self, zeta: float, gap: float, d_min: tuple[float, float], factor: float
    ):
        super().__init__(
            f"gap {gap:.3g} at zeta = {zeta:.6f} too tight: pulling the edges in "
            f"by {factor:g} x d_min = ({d_min[0]:.3g}, {d_min[1]:.3g}) slow units "
            "leaves no window; raise t_factor or lower the boundary tolerance"
        )
        self.zeta = zeta
        self.gap = gap
        self.d_min = d_min
        self.factor = factor


# Envelope momenta |p| <= MIRROR_CUT * pi / step count as smooth: half the
# envelope zone radius splits the physical channel (mass near p = 0) from
# its zone-edge mirror (mass near p = pi / step).
MIRROR_CUT = 0.5

# gap_eigenpairs screens: kept states must have a relative residual at most
# RESIDUAL_TOL and at most BOUNDARY_MASS_TOL of their mass in the outer 10%
# of the box.
RESIDUAL_TOL = 1e-6
BOUNDARY_MASS_TOL = 1e-6

# Most block solves of one seed's inverse iteration.  It stops earlier, at
# the first solve that lowers the residual by less than SOLVE_GAIN: a
# converging seed gains at least 28x per solve until it is below 1e-10, so a
# smaller gain means the residual has reached rounding noise.  It also stops
# once the residual is at most RESIDUAL_FLOOR * max(1, |e|), 1e-4 of
# RESIDUAL_TOL: a further solve moves the energy by less than the residual
# squared over the gap to the next state, far below rounding (after 3 to 5
# solves on the tested channels).
SEED_SOLVES = 20
SOLVE_GAIN = 10.0
RESIDUAL_FLOOR = 1e-10

# solve_edge_channel's cone velocity check: the relative linearity floor of
# the truncated plane-wave ball is about 3e-6 at cutoff 4, above
# compute_nu_star's default.
NU_LINEARITY_TOL = 1e-4

# gap_window pulls the window in by this multiple of the minimum edge
# distance before falling back to its smaller ``fallback_factor``.
WINDOW_MARGIN = 3.0

# Largest condition estimate of a pivot of the run reduction (_pivot, about
# ||P||_1 ||P^-1||_1); a run with a pivot above it is walked pair by pair.
# Inside the tested windows the largest estimate is 1.7e3.
PIVOT_CONDITION = 1e4


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
    wall_halfwidth: float  # wall transition half-width in slow units
    t_factor: float
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


def strip_grid(
    frame: EdgeFrame,
    wall: DomainWall,
    zeta: float,
    delta: float,
    basis: PlaneWaveBasis,
    *,
    step: float = 0.5,
    t_factor: float = 8.0,
    tau_ref: float | None = None,
    half_width: float | None = None,
) -> StripGrid:
    """Build the transverse grid, enforcing the plateau and step guards."""
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
    half = int(np.floor(half_width / step + 1e-9))
    t = (np.arange(2 * half + 1) - half) * step
    m = basis.indices @ np.array([frame.a1, frame.a2])
    return StripGrid(
        zeta=float(zeta),
        delta=float(delta),
        tau_ref=float(tau_ref) if tau_ref is not None else np.nan,
        step=float(step),
        t=t,
        half_width=float(half_width),
        wall_halfwidth=float(L),
        t_factor=float(t_factor),
        n_fast=len(basis),
        n_edge_harmonics=int(len(np.unique(m))),
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


def fold_phase(frame: EdgeFrame, zeta: float, which: str | None = None) -> float:
    """Transverse reference phase that keeps the nearest cone at envelope rest.

    The fold follows the cone: moving the edge phase by dz moves the momentum
    of closest approach by ``-(k . k') / |k'|^2 * dz`` along ``k'``, so the
    returned tau_ref tracks it and the envelope momentum p = 0 stays at the
    cone, where the finite-difference remap has unit Jacobian.
    """
    if which is None:
        which, dz = nearest_cone(frame, zeta)
    else:
        dz = zeta - frame.zeta_star(which)
        dz = (dz + np.pi) % TWO_PI - np.pi
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


# The strip couples t-nodes at distance at most BAND (the squared centered
# difference), so two nodes per block make it block tridiagonal for the sweep.
BAND = 2

# Rows per slab when _kron_apply adds a banded t-factor into its output: a
# slab's temporary is APPLY_ROWS x n_fast, 0.35 MB at n_fast = 85.
APPLY_ROWS = 256


def _check_band(T) -> None:
    reach = sp.coo_matrix(T)
    if np.any(np.abs(reach.col - reach.row) > BAND):
        raise ValueError(f"a t-factor couples nodes farther apart than {BAND}")


def _band_coefficients(terms: list) -> np.ndarray:
    """``coef[k, i, d + BAND] = T_k[i + d, i]``, zero where i + d leaves the strip."""
    n_t = terms[0][0].shape[0]
    coef = np.zeros((len(terms), n_t, 2 * BAND + 1), dtype=complex)
    for k, (T, _) in enumerate(terms):
        _check_band(T)
        for d in range(-BAND, BAND + 1):
            coef[k, max(-d, 0) : n_t - max(d, 0), d + BAND] = T.diagonal(-d)
    return coef


@dataclass
class StripOperator:
    """Strip Hamiltonian as its Kronecker terms, with its grid.

    ``terms`` is H = sum_k T_k (x) F_k as ``[(T_k, F_k)]`` (see
    ``assemble_strip``); the window count, the shift-invert solve and the
    residual screen of ``gap_eigenpairs`` all work from them.  ``matrix``
    is the CSC form of H, the sum of the sparse Kronecker products with exact
    zeros removed, built when it is first read and kept from then on; only
    checks read it.  ``dim`` comes from the grid and builds nothing.
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

    def hermiticity_residual(self) -> float:
        """Relative max-entry asymmetry of the assembled matrix."""
        diff = self.matrix - self.matrix.getH()
        scale = max(np.abs(self.matrix.data).max(), 1.0)
        if diff.nnz == 0:
            return 0.0
        return float(np.abs(diff.data).max() / scale)


def _strip_terms(
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
) -> tuple[StripGrid, list]:
    """Grid and Kronecker terms ``[(T_k, F_k)]`` of the strip.

    The strip Hamiltonian is H = sum_k T_k (x) F_k with each T_k a sparse
    n_t x n_t band in DIA form (offsets within +-``BAND``) and each F_k a
    dense n_fast x n_fast array; see
    ``assemble_strip`` for the terms.  ``_kron_apply`` applies H without
    forming it, and ``StripOperator.matrix`` sums it when a check needs it.
    """
    if tau_ref is None:
        tau_ref = fold_phase(frame, zeta)
    grid = strip_grid(
        frame,
        wall,
        zeta,
        delta,
        basis,
        step=step,
        t_factor=t_factor,
        tau_ref=tau_ref,
        half_width=half_width,
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
    return grid, terms


def _kron_apply(terms: list, u: np.ndarray) -> np.ndarray:
    """H u for H = sum_k T_k (x) F_k and a t-major u of shape (n_t, n_fast).

    Row j of u is the fast vector at node t_j, so (T (x) F) u = T (u F^T).
    A diagonal fast factor scales the columns of u; only the dense ones
    cost a GEMM.  An identity factor on either side is skipped: u F^T is
    added as it is, and u itself stands for u I.  Any other T is added into
    the output by its diagonals (DIA form, as ``_strip_terms`` holds it), in
    slabs of ``APPLY_ROWS`` rows, so the only arrays of u's size are the
    output and u F^T: no T (u F^T) is formed.
    """
    n_t = u.shape[0]
    out = np.zeros(u.shape, dtype=complex)
    for T, F in terms:
        diag = np.diagonal(F)
        if np.count_nonzero(F) != np.count_nonzero(diag):
            v = u @ F.T
        elif np.all(diag == 1.0):
            v = u
        else:
            v = u * diag
        if T.nnz == n_t and np.all(T.diagonal() == 1.0):
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


def assemble_strip(
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
    """Assemble the wall-modulated strip Hamiltonian at one edge phase.

    The state vector is t-major: entry ``j * n_fast + m`` is the envelope
    value of ball mode m at node t_j.  The kinetic part per fast mode is
    ``|K_m|^2 - 2i (K_m . k') D1 + |k'|^2 D1^T D1``, an exact remap of the
    bulk fiber at transverse phase ``tau_ref + sin(p h)/h`` for envelope
    momentum p.  The wall enters through its slow profile kappa(delta * t)
    multiplying the (scalar or magnetic) perturbation; ``flip_wall`` reverses
    the profile's argument, which is the reflected-wall variant used by the
    covariance checks.

    The matrix is a sum of Kronecker terms (t-factor (x) fast factor):

        I (x) (diag |K|^2 + V),   D1 (x) diag(-2i K . k'),   |k'|^2 S2 (x) I,

    with S2 = D1^T D1, plus for a scalar wall ``delta diag(kappa) (x) W``,
    or for a magnetic wall ``delta diag(kappa) (x) (A . K + K . A)`` and
    ``-i delta (diag(kappa) D1 + D1 diag(kappa)) (x) (k' . A)``, the
    symmetrized ``A . D + D . A`` split into its parts without and with a
    t-derivative.  ``_strip_terms`` builds them and the returned operator
    carries them; nothing is summed here.  Its ``matrix`` is their sum as
    CSC, built once, when first read.
    """
    grid, terms = _strip_terms(
        frame,
        potential,
        wall,
        zeta,
        delta,
        basis,
        perturbation=perturbation,
        step=step,
        t_factor=t_factor,
        tau_ref=tau_ref,
        half_width=half_width,
        flip_wall=flip_wall,
    )
    return StripOperator(grid=grid, terms=terms)


# ---------------------------------------------------------------------------
# bulk essential spectrum


@dataclass(frozen=True)
class BulkEdges:
    """Essential-spectrum edges of the two plateau bulk operators."""

    zeta: float
    delta: float
    lower: float  # top of the band below the gap, max over tau and both signs
    upper: float  # bottom of the band above, min over tau and both signs
    tau_lower: float
    tau_upper: float
    per_sign: dict  # {"+": (lower, upper), "-": (lower, upper)}
    samples: np.ndarray  # columns: tau, lo+, hi+, lo-, hi-
    closed: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _fiber_pair(tables, frame, zeta, tau, delta, basis, j_star):
    op = fiber_from_tables(frame.xi_of(zeta, tau), delta, basis, tables)
    vals, _ = fiber_eigs(op, j_star + 1)
    return vals[j_star - 1], vals[j_star]


def essential_edges_bulk(
    frame: EdgeFrame,
    potential: FourierField,
    perturbation: FourierField | None,
    zeta: float,
    delta: float,
    basis: PlaneWaveBasis,
    j_star: int,
    *,
    tau_samples: int = 160,
    allow_closed: bool = False,
    closed_tol: float = 1e-9,
) -> BulkEdges:
    """Gap edges of the strip's essential spectrum at edge phase zeta.

    Far from the wall the strip looks like one of the two homogeneous bulk
    operators (coupling +delta on one side, -delta on the other), so the
    essential spectrum is the union of their zeta-slice band ranges.  The gap
    between bands ``j_star`` and ``j_star + 1`` (1-based, matching the cone
    certificate) is the intersection over both signs of the per-sign gaps,
    each an extremum over the transverse phase tau, located on the sample
    grid and then refined by a bounded scalar search.  The fibers differ only
    in xi and the sign of delta, so the tables of V and the perturbation are
    built once per call (``fiber_tables``), not once per fiber: 2 tables
    where 706 were built on the base channel.
    """
    if tau_samples < 128:
        raise ValueError("tau_samples must be at least 128")
    taus = np.linspace(0.0, TWO_PI, tau_samples, endpoint=False)
    width = TWO_PI / tau_samples
    tables = fiber_tables(potential, basis, perturbation if delta != 0.0 else None)

    per_sign = {}
    samples = np.empty((tau_samples, 5))
    samples[:, 0] = taus
    winners = {}
    for col, (label, sgn) in enumerate((("+", 1.0), ("-", -1.0))):
        lo = np.empty(tau_samples)
        hi = np.empty(tau_samples)
        for i, tau in enumerate(taus):
            lo[i], hi[i] = _fiber_pair(
                tables, frame, zeta, tau, sgn * delta, basis, j_star
            )
        samples[:, 1 + 2 * col] = lo
        samples[:, 2 + 2 * col] = hi

        i_lo = int(np.argmax(lo))
        i_hi = int(np.argmin(hi))
        tau_lo, val_lo = taus[i_lo], lo[i_lo]
        tau_hi, val_hi = taus[i_hi], hi[i_hi]

        def band(tau, index, s=sgn):
            return _fiber_pair(tables, frame, zeta, tau, s * delta, basis, j_star)[index]

        res = minimize_scalar(
            lambda tau: -band(tau, 0),
            bounds=(tau_lo - width, tau_lo + width),
            method="bounded",
            options={"xatol": 1e-8},
        )
        tau_lo, val_lo = float(res.x), float(-res.fun)
        res = minimize_scalar(
            lambda tau: band(tau, 1),
            bounds=(tau_hi - width, tau_hi + width),
            method="bounded",
            options={"xatol": 1e-8},
        )
        tau_hi, val_hi = float(res.x), float(res.fun)
        per_sign[label] = {
            "lower": float(val_lo),
            "upper": float(val_hi),
            "tau_lower": float(np.mod(tau_lo, TWO_PI)),
            "tau_upper": float(np.mod(tau_hi, TWO_PI)),
        }

    lower_sign = max(per_sign, key=lambda s: per_sign[s]["lower"])
    upper_sign = min(per_sign, key=lambda s: per_sign[s]["upper"])
    lower = per_sign[lower_sign]["lower"]
    upper = per_sign[upper_sign]["upper"]
    closed = (upper - lower) <= closed_tol * max(1.0, abs(upper), abs(lower))
    if closed and not allow_closed:
        raise GapClosed(
            f"bulk gap closed at zeta = {zeta:.6f}, delta = {delta:.4g} "
            f"(edges {lower:.9f} / {upper:.9f})"
        )
    return BulkEdges(
        zeta=float(zeta),
        delta=float(delta),
        lower=float(lower),
        upper=float(upper),
        tau_lower=per_sign[lower_sign]["tau_lower"],
        tau_upper=per_sign[upper_sign]["tau_upper"],
        per_sign={
            s: (per_sign[s]["lower"], per_sign[s]["upper"]) for s in per_sign
        },
        samples=samples,
        closed=bool(closed),
    )


def gap_window(
    edges: BulkEdges,
    decay_speed: float,
    half_width: float,
    wall_halfwidth: float,
    delta: float,
    *,
    boundary_tol: float = 1e-6,
    fallback_factor: float = 1.5,
) -> tuple[float, float] | None:
    """Energy window inside the gap whose states the finite box can certify.

    A state at energy E in the gap decays past the wall like
    ``exp(-sqrt(H^2 - (H - d)^2) / decay_speed * |t_slow|)`` where H is the
    half-gap and d the distance to the nearer edge, both in slow (per-delta)
    units.  Requiring boundary mass below ``boundary_tol`` over the tail the
    box actually provides gives a minimum edge distance d_min; the window
    pulls in ``WINDOW_MARGIN`` times that, falling back to the smaller
    ``fallback_factor``; a gap too tight for both gives no window, with a
    GapTooTightWarning.  An open gap the box is too short for (no tail past
    the wall, or a required rate R at least the half-gap H) also gives no
    window, with a BoxTooShortWarning.  A closed gap or delta <= 0 gives no
    window and no warning.
    """
    if edges.closed or edges.gap <= 0:
        return None
    if delta <= 0:
        return None
    tail_slow = 0.9 * half_width * delta - wall_halfwidth
    if tail_slow <= 0:
        warnings.warn(
            BoxTooShortWarning(edges.zeta, tail_slow, np.inf, 0.5 * edges.gap / delta)
        )
        return None
    r_req = np.log(1.0 / boundary_tol) / (2.0 * tail_slow)
    R = r_req * decay_speed
    center = edges.center
    d_min = {}
    for side, edge in (("lower", edges.lower), ("upper", edges.upper)):
        H = abs(edge - center) / delta
        if R >= H:
            warnings.warn(BoxTooShortWarning(edges.zeta, tail_slow, R, H))
            return None
        d_min[side] = H - np.sqrt(H * H - R * R)
    for factor in (WINDOW_MARGIN, fallback_factor):
        lo = edges.lower + factor * d_min["lower"] * delta
        hi = edges.upper - factor * d_min["upper"] * delta
        if lo < hi:
            return (float(lo), float(hi))
    warnings.warn(
        GapTooTightWarning(
            edges.zeta,
            edges.gap,
            (d_min["lower"], d_min["upper"]),
            min(WINDOW_MARGIN, fallback_factor),
        )
    )
    return None


# ---------------------------------------------------------------------------
# interior eigenpairs


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


def _mass_fractions(vec: np.ndarray, grid: StripGrid) -> tuple[float, float]:
    """(localization in |t| <= T/2, boundary mass in the outer 10%)."""
    prof = transverse_profile(vec, grid)
    inner = np.abs(grid.t) <= 0.5 * grid.half_width
    outer = np.abs(grid.t) >= 0.9 * grid.half_width
    return float(prof[inner].sum()), float(prof[outer].sum())


def state_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>|^2 for unit-normalized copies of u and v."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.abs(np.vdot(u, v) / (nu * nv)) ** 2)


def fit_power_law(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares exponent of y ~ x**a on log-log axes."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass
class EdgeSpectrum:
    """Certified in-gap eigenpairs of one strip assembly.

    ``thetas`` are the reduced-ladder eigenvalues in the window, in theta =
    (E - E*) / delta, that seeded the states (sorted; empty when no ladder
    was counted); ``compare_with_dirac`` predicts the strip energies from
    them.
    """

    zeta: float
    delta: float
    mu: float  # (zeta - zeta_star) / delta for the targeted cone; nan if unset
    values: np.ndarray
    vectors: np.ndarray | None  # (dim, n) columns, unit norm
    localization: np.ndarray  # mass within |t| <= T/2
    boundary_mass: np.ndarray  # mass in the outer 10% of the box
    smooth_fraction: np.ndarray  # envelope Fourier mass below the mirror cut
    window: tuple[float, float] | None
    edges: BulkEdges
    diagnostics: dict = dc_field(default_factory=dict)
    grid: StripGrid | None = None  # strip geometry, kept for profile sampling
    thetas: np.ndarray = dc_field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.values)


def _empty_spectrum(op, window, edges, mu, note, extra=None) -> EdgeSpectrum:
    diag = dict(extra) if extra else {}
    diag["note"] = note
    return EdgeSpectrum(
        zeta=op.grid.zeta,
        delta=op.grid.delta,
        mu=mu,
        values=np.empty(0),
        vectors=None,
        localization=np.empty(0),
        boundary_mass=np.empty(0),
        smooth_fraction=np.empty(0),
        window=window,
        edges=edges,
        diagnostics=diag,
        grid=op.grid,
    )


def _negative_pivots(ldu: np.ndarray, ipiv: np.ndarray) -> int:
    """Number of negative eigenvalues of D in a lower Bunch-Kaufman factor (zhetrf).

    A 1x1 pivot (ipiv > 0) counts when its diagonal entry is negative.  A 2x2
    pivot marks both of its rows with the same negative ipiv; det < 0 means
    one eigenvalue of each sign, det > 0 two of the sign of its first entry.
    """
    d = ldu.diagonal().real
    k = np.flatnonzero(ipiv < 0)[::2]  # first row of each 2x2 pivot
    det = d[k] * d[k + 1] - np.abs(ldu[k + 1, k]) ** 2
    pairs = np.where(det < 0, 1, np.where(d[k] < 0, 2, 0))
    return int(np.count_nonzero(d[ipiv > 0] < 0) + pairs.sum())


def _node_coefficients(coef: np.ndarray, rows: range, cols: range) -> np.ndarray:
    """``T_k[rows, cols]`` for every term k, from the band coefficients ``coef``."""
    out = np.zeros((coef.shape[0], len(rows), len(cols)), dtype=complex)
    for a, j in enumerate(rows):
        for b, i in enumerate(cols):
            if abs(j - i) <= BAND:
                out[:, a, b] = coef[:, i, j - i + BAND]
    return out


def _kron_block(t_block: np.ndarray, fast: list) -> np.ndarray:
    """Dense ``sum_k t_block[k] (x) fast[k]``, one strip block.

    The scaled F_k are added term by term, elementwise and in the order in
    which ``StripOperator.matrix`` sums the Kronecker products, so the block
    is the slice of that matrix bit for bit.
    """
    _, m, n = t_block.shape
    n_fast = fast[0].shape[0]
    out = np.zeros((m, n_fast, n, n_fast), dtype=complex)
    for k, a, b in zip(*np.nonzero(t_block)):
        out[a, :, b, :] += t_block[k, a, b] * fast[k]
    return out.reshape(m * n_fast, n * n_fast)


def _node_pairs(terms: list) -> list:
    """The strip's node pairs, read once from its terms for every sweep.

    Returns ``(r0, r1, diagonal, coupling, adjoint)`` per pair of t-nodes:
    its rows, ``diagonal()`` that sums its diagonal block D_i as a fresh
    dense array, and the sparse (CSC) coupling B_(i+1) to the next pair with
    its adjoint (CSR), both None for the last pair.  Nothing here depends on
    the shift, so one table serves all sweeps of a strip.  A coupling
    depends only on the terms' t-coefficients between the two pairs, so it
    and its adjoint are built once per distinct set of them and shared by
    every pair with that set.  Consecutive pairs whose own t-coefficients
    are equal share one ``diagonal`` callable in the same way, which
    ``_run_ldl`` calls once per run: on the base channel, scalar or
    magnetic wall, 438 pairs have 123 distinct callables, since kappa is
    constant on the plateaus and every other coefficient is constant.
    """
    n_t = terms[0][0].shape[0]
    fast = [F for _, F in terms]
    n_fast = fast[0].shape[0]
    coef = _band_coefficients(terms)
    built: dict = {}
    pairs = []
    diagonal = None
    for j0 in range(0, n_t, 2):
        j1, j2 = min(j0 + 2, n_t), min(j0 + 4, n_t)
        pair = range(j0, j1)
        block = _node_coefficients(coef, pair, pair)
        if diagonal is None or not np.array_equal(diagonal.args[0], block):
            diagonal = partial(_kron_block, block, fast)
        coupling = adjoint = None
        if j1 < n_t:
            reach = _node_coefficients(coef, pair, range(j1, j2))
            key = (reach.shape, reach.tobytes())
            if key not in built:
                c = sp.csc_matrix(_kron_block(reach, fast))
                built[key] = (c, c.conj().T)
            coupling, adjoint = built[key]
        pairs.append((j0 * n_fast, j1 * n_fast, diagonal, coupling, adjoint))
    return pairs


@cache
def _upper(n: int, k: int) -> np.ndarray:
    """Mask of an n x n block's upper triangle from its k-th diagonal up
    (cached, read-only).  ``S.T[_upper(n, 0)]`` reads the lower triangle of S
    column by column, LAPACK's packed order as zhpmv reads it with lower=1."""
    mask = np.triu(np.ones((n, n), dtype=bool), k)
    mask.flags.writeable = False
    return mask


@cache
def _lwork(n: int) -> int:
    """Workspace size for zhetrf on an n-row block (zhetrf_lwork, cached).

    scipy's default ``lwork = n`` keeps LAPACK on its unblocked path; this
    size lets it block (7,040 for a 110-row block: 244 -> 124 us per block,
    two-core host, BLAS on one thread).
    Blocks of at most 64 rows take the unblocked path either way.
    """
    work, _ = zhetrf_lwork(n, lower=1)
    return int(work.real)


def _schur_block(built: np.ndarray, shift: float, adjoint, inverse) -> np.ndarray:
    """``D - shift - B^H X B`` as a fresh array: the Schur block of one node
    pair from its diagonal block D (``built``, not changed), the incoming
    coupling's adjoint B^H and the previous Schur block's inverse X, or
    ``D - shift`` when ``adjoint`` is None."""
    block = built.copy()
    block[np.diag_indices(len(block))] -= shift
    if adjoint is not None:
        # (B^H X)^H = X B, as X is exactly Hermitian
        block -= adjoint @ (adjoint @ inverse).conj().T
    return block


def _factor(block: np.ndarray, where: str) -> tuple:
    """Bunch-Kaufman factor of a Hermitian block (zhetrf, lower) and its inverse.

    Returns ``(ldu, ipiv, inverse)``.  The inverse comes from the factor
    (zhetri), with the conjugate of its lower triangle copied over its upper
    one (one masked copy, 22 us per 110-row block where two ``np.tril`` and
    an add took 94 us), so it is exactly Hermitian.  A singular block raises
    FactorizationFailure with ``where`` in the message.
    """
    n = len(block)
    ldu, ipiv, info = zhetrf(block, lower=1, lwork=_lwork(n))
    if info == 0:
        inverse, info = zhetri(ldu, ipiv, lower=1)
        np.copyto(inverse, inverse.T.conj(), where=_upper(n, 1))
    if info != 0:
        raise FactorizationFailure(
            f"block LDL^H of the strip is singular {where} (info = {info})"
        )
    return ldu, ipiv, inverse


def _runs(pairs: list) -> list:
    """The node-pair table cut into runs: stretches of consecutive pairs with
    one ``diagonal`` callable, each coupled to the next by one shared
    coupling object (the last pair's own coupling may differ).  The base
    channel's 438 pairs make 123 runs: the two plateaus of 158 and 159
    pairs, 119 single pairs on the wall and one at each end of the box."""
    runs: list = []
    for pair in pairs:
        run = runs[-1] if runs else None
        if run and pair[2] is run[0][2] and run[-1][3] is run[0][3]:
            run.append(pair)
        else:
            runs.append([pair])
    return runs


def _pivot(
    block: np.ndarray, coupling: np.ndarray, scale: float, first: bool = False
) -> tuple | None:
    """Negative pivots and inverse of one pivot P of the run reduction, or
    None when it fails the certificate: a singular block, or a condition
    estimate ``||P^-1||_1 max(||P||_1, ||B||_1^2 / scale)`` above
    ``PIVOT_CONDITION``, with B the level's coupling and ``scale`` the run's
    ``||D - shift||_1 + 2 ||B_1||_1``.  The first term is P's condition
    number; the second bounds the update ``B^H P^-1 B`` against the run's
    scale, which grows where the reduction's couplings grow and costs
    backward accuracy as a poor pivot does.  The run's ``first`` block F
    is tested on the second term alone: F is a Schur block of the box up
    to inside the run, near singular close to a state as the sweep's own
    blocks past it are, and its update is small however near singular F
    is once the level's coupling has decayed."""
    try:
        ldu, ipiv, inverse = _factor(block, "in a run's reduction")
    except FactorizationFailure:
        return None
    growth = np.linalg.norm(coupling, 1) ** 2 / scale
    if not first:
        growth = max(growth, np.linalg.norm(block, 1))
    if np.linalg.norm(inverse, 1) * growth > PIVOT_CONDITION:
        return None
    return _negative_pivots(ldu, ipiv), inverse


def _reduce_run(first, plateau, coupling, m: int) -> tuple:
    """Schur complement of a run's last block, by block cyclic reduction.

    The run is the block tridiagonal chain of m >= 2 blocks ``[F, A, ...,
    A, A]`` with every coupling B (block j to block j + 1; B^H below): F =
    ``first`` is the first pair's Schur block, A = ``plateau`` is D - shift,
    and B = ``coupling`` (dense).  Each level eliminates every second block,
    counting back from the last, which is never eliminated.  The eliminated
    blocks are not coupled to each other, so their Schur update is local:
    every interior one has the pivot A, which is factored and inverted once
    for all of them, and the first block, when eliminated, is its own pivot.
    The kept blocks form the next level's chain, with

        F <- F - B A^-1 B^H                          (F kept), or
        F <- A - B^H F^-1 B - B A^-1 B^H             (F eliminated),
        A <- A - B^H A^-1 B - B A^-1 B^H,
        L <- L - B^H P^-1 B,   B <- -B A^-1 B,

    with L the last block (A at the start) and P its eliminated neighbour's
    pivot (A, or F when the chain has two blocks).  The block left at the
    end is the Schur complement of the last pair, the same matrix the
    per-pair sweep reaches (it is unique).  Returns ``(schur, levels,
    negatives, factorizations)``: by Haynsworth additivity the eliminated
    blocks' negative pivots, each pivot's count times the blocks it stands
    for, add up to the inertia of the first m - 1 blocks of the sweep, and
    ``factorizations`` counts the pivots factored.
    ``levels`` holds, per level, what its solve applies (``_solve_levels``):
    ``(s, k, A^-1, F^-1, B)``, the chain's stride s in pairs and its length
    k, the pivots' inverses (None where the level eliminates no interior
    block, or keeps F) and the level's coupling.  A run of 158 pairs takes
    12 factorizations in 8 levels.  Every dense product is a zgemm (see
    ``_run_ldl`` on the two BLAS pools).

    The pivots are Schur blocks of stretches of the plateau, cut off at
    both ends (D - shift, then 3, 7, ... pairs) or, for F, joined to the box
    before the run; the sweep's are those of the box from its first pair.
    Near an eigenvalue of one of them the reduction is not backward stable
    where the sweep is: uncertified, the count was one short 1e-6 below the
    eigenvalue 6.31 of the base plateau's D and up to 5 short 3e-8 from
    -1.38, and a solve on a small magnetic strip missed the backward bound
    244-fold at a pivot estimate of 2.4e6.  So each pivot carries a
    certificate (``_pivot``), and the first that fails it ends the
    reduction with ``schur`` None and the pivots factored so far, the failed
    one included: the caller walks the run pair by pair.  Inside the windows
    of the tested channels the largest estimate is 1.7e3 (amp 15, at the
    lower window edge; 539 on the base channel).  Close to a state that lies before the
    run, F's own eigenvalues come close too, but F's certificate reads its
    coupling term only, and no run falls back there: on the base channel
    the largest estimate stays 488 from 1e-10 to 1e-2 either side of its
    state (``BENCH_run_factor.json``).
    """
    F, A, L, B = first, plateau, plateau.copy(), coupling
    scale = np.linalg.norm(plateau, 1) + 2 * np.linalg.norm(coupling, 1)
    levels: list = []
    negatives = factorizations = 0
    for level in itertools.count():
        interior = m // 2 - (m % 2 == 0)  # eliminated blocks with pivot A
        inv_a = inv_f = None
        if interior:
            pivot = _pivot(A, B, scale)
            factorizations += 1
            if pivot is None:
                return None, (), 0, factorizations
            neg, inv_a = pivot
            negatives += interior * neg
            a_b = zgemm(1.0, inv_a, B)  # A^-1 B
            # what a kept block loses to the eliminated block after it, and
            # to the one before it
            from_next = zgemm(1.0, B, zgemm(1.0, inv_a, B, trans_b=2))  # B A^-1 B^H
            from_prev = zgemm(1.0, B, a_b, trans_a=2)  # B^H A^-1 B
        if m % 2 == 0:
            pivot = _pivot(F, B, scale, first=True)
            factorizations += 1
            if pivot is None:
                return None, (), 0, factorizations
            neg, inv_f = pivot
            negatives += neg
            f_b = zgemm(-1.0, B, zgemm(1.0, inv_f, B), trans_a=2)  # -B^H F^-1 B
        levels.append((2**level, m, inv_a, inv_f, B))
        if m == 2:
            return L + f_b, levels, negatives, factorizations
        F = A + f_b - from_next if m % 2 == 0 else F - from_next
        L = L - from_prev
        A = A - from_prev - from_next
        B = zgemm(-1.0, B, a_b)
        m = (m + 1) // 2


class _Segment(NamedTuple):
    """One step of the run walker (``_run_ldl``): a run reduced to its last
    pair, or one pair.  Rows ``r0:r1`` are the run's; ``levels`` its
    reduction (``_reduce_run``; empty for one pair); ``inverse`` the full
    Hermitian inverse of the last pair's Schur block; ``coupling`` and
    ``adjoint`` the sparse coupling of that pair to the next one and its
    adjoint (None at the end of the strip); ``negatives`` and
    ``factorizations`` what the step's pivots count and how many blocks it
    factored."""

    r0: int
    r1: int
    levels: tuple
    inverse: np.ndarray
    coupling: object
    adjoint: object
    negatives: int
    factorizations: int


def _run_ldl(pairs: list, shift: float):
    """Block LDL^H of ``H - shift`` for H = sum_k T_k (x) F_k, one run at a time.

    The t-major strip is block tridiagonal in blocks of two nodes (``2 *
    n_fast`` rows), so ``H - shift = L D L^H`` with D = diag(S_i), the
    Schur blocks ``S_i = D_i - shift - B_i^H S_(i-1)^-1 B_i`` (B_i the
    coupling of block i - 1 to block i).  ``pairs`` is the node-pair table
    of the terms (``_node_pairs``): each D_i is summed from the terms once
    per run (``_runs``) and copied for the rest, and B_(i+1) is the table's
    shared coupling; no matrix of the strip is formed.  Yields one
    ``_Segment`` per run (per pair where a run is walked pair by pair).  A
    run of m >= 2 equal pairs enters with its first pair's Schur block and
    is reduced to its last pair's by block cyclic reduction
    (``_reduce_run``), in about 2 log2(m) factorizations where a per-pair
    sweep takes m; the elimination order changes inside the run only, so
    the last pair's Schur block is the sweep's, and the next run goes on
    from its inverse.  A single pair, and every pair of a run whose
    reduction fails its pivot certificate, takes the per-pair step: build
    S_i (``_schur_block``, two sparse-times-dense products with ``B^H``),
    factor and invert it (``_factor``) and yield it as a segment of its own;
    the first pair of a run whose reduction failed also counts the pivots
    that reduction factored.
    B_(i+1) couples only nodes at distance one or two, so it holds a few
    hundred nonzeros and is made dense only as a run's reduction coupling.
    On the base channel the 438 pairs make 123 runs and 147
    factorizations.

    A consumer that keeps nothing (``_inertia``) holds at most one run's
    reduction at a time.  Each Schur block is dropped once factored: held
    to the next step it took the base channel's peak RSS from 142 to 150
    MB.  Every dense BLAS call goes through scipy's LAPACK and BLAS
    wrappers (here and in ``_shift_invert_solve``), which share one
    OpenBLAS: numpy bundles another with its own thread pool, and
    alternating the two left both pools spinning against each other (a base
    channel sweep took 5.8 s instead of 0.43 s on a two-core host).
    """
    adjoint = inverse = None  # B^H into the next segment and the last Schur inverse
    for index, run in enumerate(_runs(pairs)):
        r0, _, diagonal, coupling, _ = run[0]
        where = f"at shift = {shift:.12g}, run {index} (rows {r0}:{run[-1][1]})"
        built = diagonal()
        block = _schur_block(built, shift, adjoint, inverse)
        schur, made = None, 0
        if len(run) > 1:
            schur, levels, negatives, made = _reduce_run(
                block,
                _schur_block(built, shift, None, None),
                coupling.toarray(order="F"),
                len(run),
            )
        if schur is None:
            for r0, r1, _, coupling, next_adjoint in run:
                if block is None:
                    block = _schur_block(built, shift, adjoint, inverse)
                at = f"at shift = {shift:.12g}, rows {r0}:{r1}"
                ldu, ipiv, inverse = _factor(block, at)
                block = None
                adjoint = next_adjoint
                negatives = _negative_pivots(ldu, ipiv)
                yield _Segment(
                    r0, r1, (), inverse, coupling, adjoint, negatives, made + 1
                )
                made = 0
            continue
        del block
        ldu, ipiv, inverse = _factor(schur, where)
        del schur
        _, r1, _, coupling, adjoint = run[-1]
        negatives += _negative_pivots(ldu, ipiv)
        yield _Segment(
            r0, r1, tuple(levels), inverse, coupling, adjoint, negatives, made + 1
        )


def _inertia(pairs: list, shift: float) -> tuple[int, int]:
    """Number of strip eigenvalues below ``shift``, by Sylvester's law of inertia.

    Returns ``(count, factorizations)``: the negative pivots of the block
    LDL^H of ``H - shift`` that the run walker takes (``_run_ldl``), which
    by Haynsworth additivity carry its inertia, and the block
    factorizations that took.  Each plateau run is reduced by block cyclic
    reduction, so on the base channel one count takes 147 factorizations
    where a per-pair sweep takes 438 (150 where 626 at amp 15), and 0.30 ->
    0.13 s (two-core host, BLAS on one thread).  A run whose reduction
    fails its pivot certificate is walked pair by pair, so the count stays
    right next to the eigenvalues of the plateau's own blocks, and then
    takes more factorizations.  The count keeps nothing.
    """
    negatives = factorizations = 0
    for segment in _run_ldl(pairs, shift):
        negatives += segment.negatives
        factorizations += segment.factorizations
    return negatives, factorizations


def _solve_levels(x: np.ndarray, levels: tuple, forward: bool) -> None:
    """One pass of a run's reduction over ``x`` (its rows as m x n, in place).

    At each level the chain is the run's pairs m - 1 - j s, j < k, with the
    last pair at j = 0 and F at j = k - 1; the level eliminates the odd j,
    the interior ones by the pivot A and F when k is even.  Forward, level by
    level, ``z_(e-s) -= B P^-1 z_e`` and ``z_(e+s) -= B^H P^-1 z_e`` for every
    eliminated pair e with pivot P; backward, levels reversed, ``x_e = P^-1
    (z_e - B^H x_(e-s) - B x_(e+s))``.  Each pivot is applied to all the
    pairs it eliminates at once, as one zgemm on their columns.
    """
    m = len(x)
    for s, k, inv_a, inv_f, b in levels if forward else reversed(levels):
        # (pivot inverse, the pairs it eliminates, whether they have a
        # neighbour before them in the chain: F has none)
        eliminated = (
            (inv_a, m - 1 - s * np.arange(1, k - 1, 2), True),
            (inv_f, np.array([m - 1 - (k - 1) * s]), False),
        )
        for pivot, e, before in eliminated:
            if pivot is None:
                continue
            if forward:
                y = zgemm(1.0, pivot, x[e].T)
                if before:
                    x[e - s] -= zgemm(1.0, b, y).T
                x[e + s] -= zgemm(1.0, b, y, trans_a=2).T
            else:
                z = x[e].T - zgemm(1.0, b, x[e + s].T)
                if before:
                    z -= zgemm(1.0, b, x[e - s].T, trans_a=2)
                x[e] = zgemm(1.0, pivot, z).T


def _shift_invert_solve(pairs: list, sigma: float):
    """``x -> (H - sigma)^-1 x`` from the run walker's LDL^H at ``sigma``.

    H is given by the node-pair table of its Kronecker terms
    (``_node_pairs``).  Returns ``(solve, kept, factorizations)``.  Per
    segment of the walker (``_run_ldl``) the solve keeps the lower triangle
    of the last pair's Hermitian Schur inverse, packed column by column (n
    (n + 1) / 2 values for a block of n rows), the table's sparse coupling
    to the next pair, and a run's reduction: per level its pivot inverses
    and its coupling, dense.  ``kept`` counts those values (coupling
    nonzeros once per segment, though segments with equal coefficients
    share one coupling); ``factorizations`` the blocks factored.  On the
    base channel that is 1,250,425 values (2,741,475 for a per-pair
    factor) and 147 factorizations (438).

    Forward, per segment: the run's levels (``_solve_levels``), then
    ``z_(i+1) -= B_(i+1)^H S_i^-1 z_i`` from its last pair i into the next
    segment; backward, segments reversed: ``x_i = S_i^-1 (z_i - B_(i+1)
    x_(i+1))``, then the run's levels.  Each S_i^-1 is applied to one
    vector as a packed Hermitian matrix-vector product (zhpmv), which reads
    the forward pass's z_i in place.  Pivots stay inside each block, so
    nothing bounds growth across blocks; a poor factor shows up as an
    inverse iteration whose residual stalls, and its state then fails the
    RESIDUAL_TOL screen against H.
    """
    factors, factorizations = [], 0
    for seg in _run_ldl(pairs, sigma):
        n = len(seg.inverse)
        packed = seg.inverse.T[_upper(n, 0)]
        factors.append(
            (seg.r0, seg.r1, n, seg.levels, packed, seg.coupling, seg.adjoint)
        )
        factorizations += seg.factorizations

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=np.complex128).ravel()
        for r0, r1, n, levels, packed, coupling, adjoint in factors:
            if levels:
                _solve_levels(x[r0:r1].reshape(-1, n), levels, forward=True)
            if coupling is not None:
                y = zhpmv(n, 1.0, packed, x, offx=r1 - n, lower=1)
                x[r1 : r1 + coupling.shape[1]] -= adjoint @ y
        for r0, r1, n, levels, packed, coupling, _ in reversed(factors):
            z = x[r1 - n : r1]
            if coupling is not None:
                z = z - coupling @ x[r1 : r1 + coupling.shape[1]]
            x[r1 - n : r1] = zhpmv(n, 1.0, packed, z, lower=1)
            if levels:
                _solve_levels(x[r0:r1].reshape(-1, n), levels, forward=False)
        return x

    kept = sum(
        p.size
        + (0 if c is None else c.nnz)
        + sum(a.size for _, _, *arrays in lv for a in arrays if a is not None)
        for _, _, _, lv, p, c, _ in factors
    )
    return solve, kept, factorizations


def _inverse_iteration(pairs: list, apply, seed: np.ndarray) -> tuple:
    """Refine one seed into a strip eigenpair with one factor at its Rayleigh quotient.

    Factors ``H - e0`` once (``_shift_invert_solve``), e0 the seed's
    Rayleigh quotient, and applies the solve until one lowers the residual
    ||H w - e w|| by less than ``SOLVE_GAIN`` or takes it to
    ``RESIDUAL_FLOOR * max(1, |e|)`` (at most ``SEED_SOLVES``); the better of
    the last two iterates is kept.  A reduced-ladder seed carries
    no mirror content and sits nearer its own state than any other, so each
    solve shrinks the rest by their distance ratio: on the base channel the
    residual falls 0.17, 3.5e-6, 4.9e-9, 8.6e-12, and the iteration stops
    there, after 3 solves, as it is below ``RESIDUAL_FLOOR`` (a fourth solve
    took it only to 3.5e-12 and moved e by 2.4e-15).  Returns ``(w, e,
    residual, shift, solves, kept, factorizations)`` with ``kept`` the
    values the factor stores and ``factorizations`` the blocks it factored.
    """

    def rayleigh(x: np.ndarray) -> tuple[float, float]:
        hx = apply(x)
        e = float(np.real(np.vdot(x, hx)))
        return e, float(np.linalg.norm(hx - e * x))

    w = seed / np.linalg.norm(seed)
    shift, res = rayleigh(w)
    e = shift
    solve, kept, factorizations = _shift_invert_solve(pairs, shift)
    for solves in range(1, SEED_SOLVES + 1):
        x = solve(w)
        x /= np.linalg.norm(x)
        e_x, res_x = rayleigh(x)
        converging = res_x * SOLVE_GAIN < res
        if res_x < res:
            w, e, res = x, e_x, res_x
        if not converging or res <= RESIDUAL_FLOOR * max(1.0, abs(e)):
            break
    return w, e, res, shift, solves, kept, factorizations


def gap_eigenpairs(
    op: StripOperator,
    window: tuple[float, float] | None,
    edges: BulkEdges,
    seeds: list,
    *,
    mu: float = np.nan,
) -> EdgeSpectrum:
    """All certified eigenpairs of the strip inside the given energy window.

    ``seeds`` are unit strip vectors, one per state of the reduced ladder in
    the window (``solve_edge_channel`` lifts them with
    ``quasimode.lift_order0``).  The window is counted first: ``count =
    nu(hi) - nu(lo)`` from two inertia sweeps (``_inertia``) is the exact
    number of strip eigenvalues in it.  Every state comes with its
    zone-edge mirror, so the count must be twice the number of seeds; any
    other count raises CountMismatch with both numbers, and a window that
    counts none returns without factoring.  Each seed is then refined by
    inverse iteration with its own factor at its Rayleigh quotient
    (``_inverse_iteration``): with one factor shared at the window centre,
    the side states of the amp-15 ladder stall near 4e-3 and then fall onto
    the midgap state, the one nearest that shift.  The mirrors are counted,
    never solved for.

    Every factorization builds its blocks from the strip's Kronecker terms;
    the node-pair table and its shared couplings (``_node_pairs``) are read
    once per call, and no step here forms, slices or multiplies the CSC
    strip.  The two counts and each seed's factor walk the table run by run
    and reduce each plateau run by block cyclic reduction (``_run_ldl``).
    The Rayleigh quotients and residuals apply the terms (``_kron_apply``).
    The diagnostics record ``inertia_sweeps`` (2 for the count, plus one
    factor per seed), ``count_factorizations`` and
    ``factor_factorizations`` (the block factorizations of one count and of
    one seed's factor), ``block_solves`` (applications of the shift-invert
    solves), ``shifts`` (one Rayleigh quotient per seed), ``seed_overlaps``
    (|<seed, state>|^2 per seed: a seed with the wrong reduced model can
    still reach its state from rounding noise, but not with a large
    overlap) and ``factor_values`` (values one factor keeps,
    ``_shift_invert_solve``).  On the base channel that is 3 sweeps of 147
    factorizations each where a per-pair sweep takes 438, 1,250,425 values
    kept, and 3 block solves.

    A refined state is kept when its relative residual is at most
    ``RESIDUAL_TOL``, its energy lies in the window and at most
    ``BOUNDARY_MASS_TOL`` of its mass is in the outer 10% of the box; the
    others are counted in ``dropped``.  ``smooth_fraction`` records each
    kept state's envelope Fourier mass below the mirror cut.
    """
    if window is None:
        return _empty_spectrum(op, None, edges, mu, "empty window, no solve")
    lo, hi = window
    if not lo < hi:
        return _empty_spectrum(op, window, edges, mu, "degenerate window, no solve")

    terms, pairs = op.terms, _node_pairs(op.terms)
    n_t, n_fast = op.grid.n_t, op.grid.n_fast
    (nu_lo, factorizations), (nu_hi, _) = _inertia(pairs, lo), _inertia(pairs, hi)
    count = nu_hi - nu_lo
    diagnostics: dict = {
        "inertia": (nu_lo, nu_hi),
        "count": count,
        "seeds": len(seeds),
        "shifts": (),
        "seed_overlaps": (),
        "inertia_sweeps": 2,
        "count_factorizations": factorizations,
        "block_solves": 0,
        "factor_values": 0,
        "factor_factorizations": 0,
    }
    if count != 2 * len(seeds):
        raise CountMismatch(
            f"inertia counts {count} strip eigenvalues in [{lo:.6f}, {hi:.6f}] "
            f"but the reduced ladder seeds {len(seeds)} states, "
            f"{2 * len(seeds)} with their mirrors (zeta = {op.grid.zeta:.6f})",
            count=count,
            found=2 * len(seeds),
        )
    if count == 0:
        return _empty_spectrum(op, window, edges, mu, "no states in window", diagnostics)

    def apply(x: np.ndarray) -> np.ndarray:
        return _kron_apply(terms, x.reshape(n_t, n_fast)).ravel()

    values, vectors, loc, bnd, smooth = [], [], [], [], []
    dropped = {"boundary": 0, "residual": 0, "window": 0}
    max_residual = 0.0
    for seed in seeds:
        w, e, res, shift, solves, kept, made = _inverse_iteration(pairs, apply, seed)
        diagnostics["shifts"] += (shift,)
        diagnostics["seed_overlaps"] += (state_overlap(seed, w),)
        diagnostics["inertia_sweeps"] += 1
        diagnostics["block_solves"] += solves
        diagnostics["factor_values"] = kept
        diagnostics["factor_factorizations"] = made
        max_residual = max(max_residual, res)
        if res > RESIDUAL_TOL * max(1.0, abs(e)):
            dropped["residual"] += 1
            continue
        if not (lo <= e <= hi):
            dropped["window"] += 1
            continue
        inner, outer = _mass_fractions(w, op.grid)
        if outer > BOUNDARY_MASS_TOL:
            dropped["boundary"] += 1
            continue
        values.append(e)
        vectors.append(w)
        loc.append(inner)
        bnd.append(outer)
        smooth.append(envelope_band_fraction(w, op.grid))

    diagnostics["dropped"] = dropped
    diagnostics["max_residual"] = max_residual
    order = np.argsort(values)
    values = np.asarray(values)[order]
    mat = np.stack([vectors[i] for i in order], axis=1) if len(values) else None
    return EdgeSpectrum(
        zeta=op.grid.zeta,
        delta=op.grid.delta,
        mu=mu,
        values=values,
        vectors=mat,
        localization=np.asarray(loc)[order] if len(values) else np.empty(0),
        boundary_mass=np.asarray(bnd)[order] if len(values) else np.empty(0),
        smooth_fraction=np.asarray(smooth)[order] if len(values) else np.empty(0),
        window=window,
        edges=edges,
        diagnostics=diagnostics,
        grid=op.grid,
    )


# ---------------------------------------------------------------------------
# comparison against the reduced 1D operator


@dataclass(frozen=True)
class DiracComparison:
    """Pairing of strip in-gap energies with reduced-operator predictions.

    Predictions are E_star + delta * theta_j with theta_j the reduced in-gap
    eigenvalues at the matching envelope detuning mu, the ones the strip
    solve counted in its window and seeded its states from; residuals are
    the per-state absolute differences after sorting both lists.
    """

    zeta: float
    delta: float
    mu: float
    measured: np.ndarray
    predicted: np.ndarray
    thetas: np.ndarray
    residuals: np.ndarray

    @property
    def count(self) -> int:
        return len(self.measured)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if len(self.residuals) else 0.0


def compare_with_dirac(
    spectrum: EdgeSpectrum,
    params,
    e_star: float,
) -> DiracComparison:
    """Match a strip in-gap spectrum against the reduced operator's ladder.

    The ladder is the one ``solve_edge_channel`` counted and refined in the
    strip's certified window, in theta = (E - E*) / delta, on the strip's
    own box; the spectrum carries its roots as ``thetas``, and nothing is
    integrated here.
    ``params`` bundles the reduced-operator coefficients and must carry the
    detuning mu = spectrum.mu.  The thetas are rescaled to strip energies
    E* + delta * theta and compared state by state; a kept state count that
    differs from the ladder's (a seed refined to a state the screens
    dropped) raises CountMismatch.  The independent route, the whole ladder
    on the box |t| <= 30 (``gap_spectrum``), gives the same thetas to
    1e-12 on the tested channels.
    """
    if spectrum.window is None:
        raise ValueError("strip spectrum has no certified window to compare on")
    if not np.isfinite(spectrum.mu):
        raise ValueError("strip spectrum carries no detuning label mu")
    if abs(params.mu - spectrum.mu) > 1e-12 * max(1.0, abs(spectrum.mu)):
        raise ValueError(
            f"reduced-operator detuning {params.mu} does not match the strip's "
            f"{spectrum.mu}"
        )
    thetas = spectrum.thetas
    if len(thetas) != len(spectrum.values):
        lo, hi = spectrum.window
        raise CountMismatch(
            f"strip kept {len(spectrum.values)} in-gap states in "
            f"[{lo:.6f}, {hi:.6f}] but the reduced ladder has "
            f"{len(thetas)} (zeta = {spectrum.zeta:.6f}, delta = {spectrum.delta})",
            count=len(thetas),
            found=len(spectrum.values),
        )
    predicted = e_star + spectrum.delta * thetas
    measured = np.sort(spectrum.values)
    return DiracComparison(
        zeta=spectrum.zeta,
        delta=spectrum.delta,
        mu=spectrum.mu,
        measured=measured,
        predicted=predicted,
        thetas=thetas,
        residuals=np.abs(measured - predicted),
    )


# ---------------------------------------------------------------------------
# one-call driver: edges -> assembly -> window -> certified eigenpairs


def solve_edge_channel(
    frame: EdgeFrame,
    potential: FourierField,
    wall,
    zeta: float,
    delta: float,
    basis: PlaneWaveBasis,
    j_star: int,
    decay_speed: float,
    *,
    perturbation: FourierField | None = None,
    step: float = 0.5,
    t_factor: float = 8.0,
    seed: int = 20250818,
    flip_wall: bool = False,
    tau_ref: float | None = None,
) -> EdgeSpectrum:
    """Run the full per-momentum pipeline and return the certified spectrum.

    Labels the result with the envelope detuning mu = (wrapped distance to the
    nearest conical momentum) / delta.  ``decay_speed`` is the transverse group
    speed of the reduced operator (used to convert decay lengths into window
    margins); pass ``params.speed_t``.  ``seed`` is accepted and not read:
    nothing in the solve is random.

    The strip states are seeded from the reduced model, which is derived here
    from the inputs: the nearest cone (``find_dirac_point``), its velocity
    nu*, the wall's mass on it (negated for ``flip_wall``, as the wall
    profile is odd) and ``params_from_frames`` at mu.  The Prufer ladder is
    counted once, in the strip window's theta range, (E - E*) / delta, on
    the strip's own box (``window_spectrum``).  Each of its states' order-0
    quasimode, the cone pair times the envelope of ``ladder_pair`` (the
    closed-form ``zero_mode_pair`` for the zero mode), is lifted onto the
    strip grid (``quasimode.lift_order0``) as the seed of ``gap_eigenpairs``,
    and its eigenvalues are kept as the spectrum's ``thetas``, which
    ``compare_with_dirac`` reads.
    """
    from .quasimode import ladder_pair, lift_order0  # quasimode imports this module

    which, dz = nearest_cone(frame, zeta)
    mu = dz / delta if delta > 0 else np.nan
    edges = essential_edges_bulk(
        frame, potential, perturbation, zeta, delta, basis, j_star
    )
    op = assemble_strip(
        frame, potential, wall, zeta, delta, basis,
        perturbation=perturbation, step=step, t_factor=t_factor,
        tau_ref=tau_ref, flip_wall=flip_wall,
    )
    window = gap_window(
        edges, decay_speed, op.grid.half_width, wall.plateau_halfwidth, delta
    )
    seeds, thetas = [], np.empty(0)
    if window is not None:
        cone = find_dirac_point(potential, which, basis)
        compute_nu_star(cone, basis, linearity_tol=NU_LINEARITY_TOL)
        mass = compute_mass(cone, basis, perturbation)
        params = params_from_frames(
            cone, frame, -mass if flip_wall else mass, wall, mu=mu
        )
        bounds = tuple((e - cone.E_star) / delta for e in window)
        ladder = window_spectrum(params, delta * op.grid.half_width, op.grid.n_t, bounds)
        thetas = ladder.eigenvalues
        center = int(np.argmin(np.abs(thetas))) if len(thetas) else 0
        seeds = [
            lift_order0(cone, frame, basis, ladder_pair(ladder, j - center), op.grid)
            for j in range(len(thetas))
        ]
    spectrum = gap_eigenpairs(op, window, edges, seeds, mu=mu)
    return dc_replace(spectrum, thetas=thetas)
