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
  in-gap eigenvalue shows up twice with a splitting far below machine
  precision, and the raw eigensolver returns arbitrary mixtures of each pair.
  Eigenvector clusters are therefore rotated so envelope Fourier mass
  separates the smooth member from the mirror one, and only the smooth member
  is kept.  Skipping this filter makes every crossing count appear twice with
  opposite slopes and cancel.

A window is certified complete by counting, not by over-solving.  The strip
couples t-nodes at distance at most 2 (the squared centered difference), so
grouped in node pairs it is block tridiagonal, magnetic terms included.  A
block LDL^H sweep over those pairs gives the inertia of ``H - s`` and, by
Sylvester's law, the number of eigenvalues below s; two sweeps count the
window exactly (spectrum slicing, Ericsson & Ruhe, Math. Comp. 35, 1980).
The Krylov solve then asks for that many pairs and must find that many.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace as dc_replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import zhetrf, zhetrs
from scipy.optimize import minimize_scalar

from .bloch import (
    PlaneWaveBasis,
    assemble_fiber,
    convolution_matrix,
    eigs as fiber_eigs,
)
from .geometry import TWO_PI, EdgeFrame
from .potentials import DomainWall, FourierField
from .wall_dirac import GridTooCoarse

__all__ = [
    "PlateauNotReached",
    "GapClosed",
    "FactorizationFailure",
    "CountMismatch",
    "MissedMultiplicityWarning",
    "BoxTooShortWarning",
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

    Raised when the strip's certified states and the reduced operator's ladder
    differ in number, and when the converged Ritz values in a window differ
    from its inertia count.  ``count`` is the reference count (ladder or
    inertia), ``found`` the number the strip solve produced, and ``k`` the
    Krylov subspace size asked for (None for the ladder comparison).
    """

    def __init__(self, message: str, *, count: int, found: int, k: int | None):
        super().__init__(message)
        self.count = count
        self.found = found
        self.k = k


class MissedMultiplicityWarning(UserWarning):
    """An eigenvalue cluster looks like an unresolved smooth/mirror pair."""


class BoxTooShortWarning(UserWarning):
    """The box tail past the wall is too short to certify any in-gap energy.

    Carries the edge phase ``zeta``, the tail length ``tail_slow`` in slow
    units, the decay rate ``R`` the boundary tolerance needs over that tail,
    and the half-gap ``H`` (slow units) on the side that failed: a state can
    decay at most at rate H, so ``R >= H`` leaves no window.
    """

    def __init__(self, zeta: float, tail_slow: float, R: float, H: float):
        super().__init__(
            f"box too short at zeta = {zeta:.6f}: a {tail_slow:.3g}-unit tail "
            f"needs decay rate {R:.3g} but the half-gap allows at most "
            f"{H:.3g}; raise t_factor"
        )
        self.zeta = zeta
        self.tail_slow = tail_slow
        self.R = R
        self.H = H


# Envelope momenta |p| <= MIRROR_CUT * pi / step count as smooth: half the
# envelope zone radius splits the physical channel (mass near p = 0) from
# its zone-edge mirror (mass near p = pi / step).
MIRROR_CUT = 0.5

# gap_eigenpairs screens.  Raw eigenvalues closer than CLUSTER_TOL form one
# smooth/mirror cluster; a rotated member is kept when its smooth fraction
# reaches SMOOTH_CUT, and a fraction strictly inside MIXED_BAND marks an
# unresolved pair.  Kept states must have a relative residual at most
# RESIDUAL_TOL and at most BOUNDARY_MASS_TOL of their mass in the outer 10%
# of the box.
CLUSTER_TOL = 1e-6
SMOOTH_CUT = 0.5
MIXED_BAND = (0.15, 0.85)
RESIDUAL_TOL = 1e-6
BOUNDARY_MASS_TOL = 1e-6

# gap_window pulls the window in by this multiple of the minimum edge
# distance before falling back to its smaller ``fallback_factor``.
WINDOW_MARGIN = 3.0


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


def _sparse_conv(fld: FourierField, basis: PlaneWaveBasis) -> sp.csr_matrix:
    mat = convolution_matrix(fld, basis)
    peak = np.abs(mat).max()
    if peak > 0:
        mat = np.where(np.abs(mat) < 1e-14 * peak, 0.0, mat)
    return sp.csr_matrix(mat)


@dataclass
class StripOperator:
    """Assembled strip Hamiltonian with its grid and bookkeeping."""

    grid: StripGrid
    basis: PlaneWaveBasis
    matrix: sp.csc_matrix
    kappa: np.ndarray  # wall profile on the envelope nodes (slow argument)
    meta: dict = dc_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_residual(self) -> float:
        """Relative max-entry asymmetry of the assembled matrix."""
        diff = self.matrix - self.matrix.getH()
        scale = max(np.abs(self.matrix.data).max(), 1.0)
        if diff.nnz == 0:
            return 0.0
        return float(np.abs(diff.data).max() / scale)


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
    D1 = sp.diags([ones / (2 * h), -ones / (2 * h)], [1, -1], format="csr")
    S2 = (D1.T @ D1).tocsr()  # = -D1 @ D1 on the Dirichlet grid, PSD
    I_t = sp.identity(n_t, format="csr")
    I_f = sp.identity(n_fast, format="csr")

    sign = -1.0 if flip_wall else 1.0
    kappa = wall(sign * delta * grid.t)

    H = sp.kron(I_t, sp.diags(np.einsum("md,md->m", K, K)), format="csr")
    H = H + sp.kron(D1, sp.diags(-2j * (K @ kp)), format="csr")
    H = H + float(kp @ kp) * sp.kron(S2, I_f, format="csr")
    H = H + sp.kron(I_t, _sparse_conv(potential, basis), format="csr")

    if perturbation is not None and delta != 0.0:
        if perturbation.is_vector:
            wall_diag = sp.diags(kappa)
            for c in (0, 1):
                comp = dc_replace(perturbation, coeffs=perturbation.coeffs[:, c])
                A_c = sp.kron(wall_diag, _sparse_conv(comp, basis), format="csr")
                D_c = sp.kron(I_t, sp.diags(K[:, c]), format="csr") + float(
                    kp[c]
                ) * sp.kron(-1j * D1, I_f, format="csr")
                H = H + delta * (A_c @ D_c + D_c @ A_c)
        else:
            H = H + delta * sp.kron(
                sp.diags(kappa), _sparse_conv(perturbation, basis), format="csr"
            )

    return StripOperator(
        grid=grid,
        basis=basis,
        matrix=H.tocsc(),
        kappa=kappa,
        meta={
            "tau_ref": float(tau_ref),
            "flip_wall": flip_wall,
            "magnetic": bool(perturbation is not None and perturbation.is_vector),
        },
    )


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


def _fiber_pair(frame, potential, perturbation, zeta, tau, delta, basis, j_star):
    op = assemble_fiber(
        frame.xi_of(zeta, tau), delta, potential, basis, perturbation=perturbation
    )
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
    grid and then refined by a bounded scalar search.
    """
    if tau_samples < 128:
        raise ValueError("tau_samples must be at least 128")
    taus = np.linspace(0.0, TWO_PI, tau_samples, endpoint=False)
    width = TWO_PI / tau_samples

    per_sign = {}
    samples = np.empty((tau_samples, 5))
    samples[:, 0] = taus
    winners = {}
    for col, (label, sgn) in enumerate((("+", 1.0), ("-", -1.0))):
        lo = np.empty(tau_samples)
        hi = np.empty(tau_samples)
        for i, tau in enumerate(taus):
            lo[i], hi[i] = _fiber_pair(
                frame, potential, perturbation, zeta, tau, sgn * delta, basis, j_star
            )
        samples[:, 1 + 2 * col] = lo
        samples[:, 2 + 2 * col] = hi

        i_lo = int(np.argmax(lo))
        i_hi = int(np.argmin(hi))
        tau_lo, val_lo = taus[i_lo], lo[i_lo]
        tau_hi, val_hi = taus[i_hi], hi[i_hi]

        def band(tau, index, s=sgn):
            pair = _fiber_pair(
                frame, potential, perturbation, zeta, tau, s * delta, basis, j_star
            )
            return pair[index]

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
    pulls in ``WINDOW_MARGIN`` times that (falling back to the smaller
    ``fallback_factor``, then to no window at all, when the gap is too tight).
    An open gap the box is too short for (required rate R at least the
    half-gap H) also gives no window, with a BoxTooShortWarning.
    """
    if edges.closed or edges.gap <= 0:
        return None
    if delta <= 0:
        return None
    tail_slow = 0.9 * half_width * delta - wall_halfwidth
    if tail_slow <= 0:
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
    return None


# ---------------------------------------------------------------------------
# interior eigenpairs


def _smooth_mask(grid: StripGrid) -> np.ndarray:
    """Envelope momenta below the mirror cut, in np.fft order."""
    return np.abs(grid.envelope_momenta()) <= MIRROR_CUT * np.pi / grid.step


def envelope_band_fraction(vec: np.ndarray, grid: StripGrid) -> float:
    """Fraction of a state's envelope Fourier mass below the mirror cut.

    The cut at ``MIRROR_CUT`` times the envelope zone radius separates the
    physical channel (mass near p = 0) from its zone-edge mirror (mass near
    p = pi/step); genuine states score near 1, mirrors near 0, and unresolved
    mixtures land in between.
    """
    env = vec.reshape(grid.n_t, grid.n_fast)
    spec = np.fft.fft(env, axis=0)
    mask = _smooth_mask(grid)
    total = np.sum(np.abs(spec) ** 2)
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(spec[mask]) ** 2) / total)


def _band_projection(block: np.ndarray, grid: StripGrid):
    """Apply the envelope low-momentum projector to columns of a state block."""
    n_states = block.shape[1]
    mask = _smooth_mask(grid)
    out = np.empty_like(block)
    for j in range(n_states):
        spec = np.fft.fft(block[:, j].reshape(grid.n_t, grid.n_fast), axis=0)
        spec[~mask] = 0.0
        out[:, j] = np.fft.ifft(spec, axis=0).ravel()
    return out


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
    """Certified in-gap eigenpairs of one strip assembly."""

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

    def __len__(self) -> int:
        return len(self.values)

    def to_csv_rows(self) -> list[tuple]:
        """Rows (zeta, delta, kind, value, localization) for the artifact CSV."""
        rows = [
            (self.zeta, self.delta, "ess_lo", self.edges.lower, np.nan),
            (self.zeta, self.delta, "ess_hi", self.edges.upper, np.nan),
        ]
        for val, loc in zip(self.values, self.localization):
            rows.append((self.zeta, self.delta, "eig", float(val), float(loc)))
        return rows


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
    """Number of negative eigenvalues of D in a lower Bunch-Kaufman factor (zhetrf)."""
    d = ldu.diagonal().real
    neg, k = 0, 0
    while k < len(ipiv):
        if ipiv[k] > 0:
            neg += int(d[k] < 0)
            k += 1
        else:  # 2x2 pivot: det < 0 means one eigenvalue of each sign
            det = d[k] * d[k + 1] - abs(ldu[k + 1, k]) ** 2
            neg += 1 if det < 0 else (2 if d[k] < 0 else 0)
            k += 2
    return neg


def _inertia(matrix: sp.csc_matrix, n_fast: int, shift: float) -> int:
    """Number of strip eigenvalues below ``shift``, by Sylvester's law of inertia.

    The t-major strip is block tridiagonal in blocks of two nodes (``2 *
    n_fast`` rows), so ``matrix - shift`` has a block LDL^H factorization whose
    Schur blocks ``S_i = D_i - shift - B_i^H S_(i-1)^-1 B_i``, with B_i the
    coupling of block i - 1 to block i, together carry its inertia
    (Haynsworth additivity).  Each S_i is factored densely by
    Bunch-Kaufman; only the current block is alive, so memory stays at a few
    blocks however long the strip is.
    """
    n = matrix.shape[0]
    size = 2 * n_fast
    below = 0
    coupling = solved = None  # B_i and S_(i-1)^-1 B_i for the next block
    for r0 in range(0, n, size):
        r1 = min(r0 + size, n)
        block = matrix[r0:r1, r0:r1].toarray()
        block[np.diag_indices(r1 - r0)] -= shift
        if coupling is not None:
            # scipy's zgemm rather than numpy's matmul: numpy and scipy each
            # bundle an OpenBLAS with its own thread pool, and alternating the
            # two here left both pools spinning against each other (a base
            # channel sweep took 5.8 s instead of 0.43 s on a two-core host)
            block = zgemm(-1.0, coupling, solved, beta=1.0, c=block, trans_a=2)
        ldu, ipiv, info = zhetrf(block, lower=1)
        if info != 0:
            raise FactorizationFailure(
                f"block LDL^H of the strip is singular at shift = {shift:.12g} "
                f"(rows {r0}:{r1}, info = {info})"
            )
        below += _negative_pivots(ldu, ipiv)
        if r1 < n:
            coupling = matrix[r0:r1, r1 : min(r1 + size, n)].toarray()
            solved, _ = zhetrs(ldu, ipiv, coupling, lower=1)
    return below


def _shift_invert_factor(matrix: sp.csc_matrix, sigma: float):
    shifted = (matrix - sigma * sp.identity(matrix.shape[0], format="csc")).tocsc()
    # The shifted strip is Hermitian, so SuperLU orders A^T + A and keeps its
    # pivots on the diagonal, which factors with the fill of a symmetric LDL^H.
    # The default threshold pivoting swaps rows off the diagonal and wrecks
    # that ordering: on the base channel it had not finished after 10 min at
    # 4.2 GB.  Nothing bounds element growth without row swaps; a poor factor
    # shows up as Ritz values that miss the inertia count (CountMismatch) or
    # as states failing the RESIDUAL_TOL screen against the unshifted matrix.
    try:
        return spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except (RuntimeError, MemoryError, ValueError) as exc:
        raise FactorizationFailure(
            f"LU factorization of the shifted strip failed at sigma = {sigma:.6f}: {exc}"
        ) from exc


def gap_eigenpairs(
    op: StripOperator,
    window: tuple[float, float] | None,
    edges: BulkEdges,
    *,
    mu: float = np.nan,
    seed: int = 20250818,
) -> EdgeSpectrum:
    """All certified eigenpairs of the strip inside the given energy window.

    The window is counted first: ``count = nu(hi) - nu(lo)`` from two inertia
    sweeps (``_inertia``) is the exact number of strip eigenvalues in it, so
    an empty window returns without any factorization.  Otherwise the strip
    is shift-inverted about (almost) the window center, with a deliberately
    asymmetric offset since the in-gap ladder is nearly symmetric about
    midgap and exact magnitude ties stall the Lanczos iteration, and ARPACK
    is asked for exactly ``count`` pairs.  The window is complete when
    ``count`` converged Ritz values lie in it.  Out-of-window eigenvalues on
    the near side of the shift can outrank in-window ones on the far side;
    on a shortfall the solve is repeated once with every eigenvalue within
    the window's radius of the shift, counted the same way.  Any other number
    raises CountMismatch.

    Quasi-degenerate clusters are then rotated in envelope Fourier mass to
    split physical states from their zone-edge mirrors; only smooth members
    are kept and their energies re-evaluated as Rayleigh quotients.  A
    post-rotation fraction stuck inside ``MIXED_BAND`` means an unresolved
    pair and raises a MissedMultiplicityWarning.  ``CLUSTER_TOL``,
    ``SMOOTH_CUT``, ``RESIDUAL_TOL`` and ``BOUNDARY_MASS_TOL`` set the other
    screens.
    """
    if window is None:
        return _empty_spectrum(op, None, edges, mu, "empty window, no solve")
    lo, hi = window
    if not lo < hi:
        return _empty_spectrum(op, window, edges, mu, "degenerate window, no solve")

    H = op.matrix
    n = H.shape[0]
    n_fast = op.grid.n_fast
    nu_lo, nu_hi = _inertia(H, n_fast, lo), _inertia(H, n_fast, hi)
    count = nu_hi - nu_lo
    sigma = 0.5 * (lo + hi) + 0.00137 * (hi - lo)
    diagnostics: dict = {
        "sigma": float(sigma),
        "inertia": (nu_lo, nu_hi),
        "count": count,
        "k_used": 0,
        "solves": 0,
        "raw_in_window": 0,
    }
    if count == 0:
        return _empty_spectrum(op, window, edges, mu, "no states in window", diagnostics)

    lu = _shift_invert_factor(H, sigma)
    op_inv = spla.LinearOperator(H.shape, matvec=lu.solve, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)

    def ritz_in_window(k: int):
        try:
            vals, vecs = spla.eigsh(
                H, k=k, sigma=sigma, which="LM", OPinv=op_inv, v0=v0, maxiter=3000
            )
        except spla.ArpackNoConvergence as exc:
            raise FactorizationFailure(
                f"shift-inverted iteration stalled at sigma = {sigma:.6f} "
                f"with k = {k}: {exc}"
            ) from exc
        diagnostics["solves"] += 1
        diagnostics["k_used"] = k
        in_win = np.flatnonzero((vals >= lo) & (vals <= hi))
        in_win = in_win[np.argsort(vals[in_win])]
        return vals[in_win], vecs[:, in_win]

    sub_vals, sub_vecs = ritz_in_window(count)
    if len(sub_vals) < count:
        radius = max(hi - sigma, sigma - lo)
        k_disc = _inertia(H, n_fast, sigma + radius) - _inertia(
            H, n_fast, sigma - radius
        )
        if k_disc > count:
            sub_vals, sub_vecs = ritz_in_window(k_disc)
    diagnostics["raw_in_window"] = int(len(sub_vals))
    if len(sub_vals) != count:
        raise CountMismatch(
            f"inertia counts {count} strip eigenvalues in [{lo:.6f}, {hi:.6f}] "
            f"but {len(sub_vals)} converged Ritz values lie there "
            f"(k = {diagnostics['k_used']}, zeta = {op.grid.zeta:.6f})",
            count=count,
            found=len(sub_vals),
            k=diagnostics["k_used"],
        )

    # cluster quasi-degenerate values, rotate each cluster so envelope
    # Fourier mass is diagonal, and keep the smooth members
    splits = np.flatnonzero(np.diff(sub_vals) > CLUSTER_TOL) + 1
    kept_vecs, kept_fracs = [], []
    mixed = False
    for idx in np.split(np.arange(len(sub_vals)), splits):
        q, _ = np.linalg.qr(sub_vecs[:, idx])
        pq = _band_projection(q, op.grid)
        gram = q.conj().T @ pq
        gram = 0.5 * (gram + gram.conj().T)
        fracs, rot = np.linalg.eigh(gram)
        rotated = q @ rot
        for j in range(rotated.shape[1]):
            frac = float(np.clip(fracs[j], 0.0, 1.0))
            if MIXED_BAND[0] < frac < MIXED_BAND[1]:
                mixed = True
            if frac >= SMOOTH_CUT:
                w = rotated[:, j]
                kept_vecs.append(w / np.linalg.norm(w))
                kept_fracs.append(frac)
    if mixed:
        warnings.warn(
            f"unresolved smooth/mirror mixture at zeta = {op.grid.zeta:.6f}; "
            "the rotation did not separate a state from its mirror twin",
            MissedMultiplicityWarning,
        )
        diagnostics["mixed_unresolved"] = True
    if not kept_vecs:
        return _empty_spectrum(
            op, window, edges, mu, "all states were mirrors", diagnostics
        )

    # Rayleigh re-evaluation on the rotated states, then residual and
    # boundary screens
    values, vectors, loc, bnd, smooth = [], [], [], [], []
    dropped = {"boundary": 0, "residual": 0, "window": 0}
    max_residual = 0.0
    for w, frac in zip(kept_vecs, kept_fracs):
        hw = H @ w
        e = float(np.real(np.vdot(w, hw)))
        res = float(np.linalg.norm(hw - e * w))
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
        smooth.append(frac)

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
    eigenvalues at the matching envelope detuning mu; residuals are the
    per-state absolute differences after sorting both lists.
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
    *,
    grid_half_width: float = 30.0,
    grid_points: int = 6000,
) -> DiracComparison:
    """Match a strip in-gap spectrum against the reduced operator's ladder.

    ``params`` bundles the reduced-operator coefficients (velocity, frame,
    mass, wall) and must already carry the detuning mu = spectrum.mu.  The
    reduced ladder is filtered to the strip's certified window, rescaled to
    strip energies, and compared state by state; a count difference raises
    CountMismatch since the windows are constructed to match.
    """
    from .wall_dirac import gap_spectrum  # local import keeps startup light

    if spectrum.window is None:
        raise ValueError("strip spectrum has no certified window to compare on")
    if not np.isfinite(spectrum.mu):
        raise ValueError("strip spectrum carries no detuning label mu")
    if abs(params.mu - spectrum.mu) > 1e-12 * max(1.0, abs(spectrum.mu)):
        raise ValueError(
            f"reduced-operator detuning {params.mu} does not match the strip's "
            f"{spectrum.mu}"
        )
    ladder = gap_spectrum(params, grid_half_width, grid_points)
    lo, hi = spectrum.window
    t_lo = (lo - e_star) / spectrum.delta
    t_hi = (hi - e_star) / spectrum.delta
    thetas = ladder.eigenvalues[
        (ladder.eigenvalues >= t_lo) & (ladder.eigenvalues <= t_hi)
    ]
    if len(thetas) != len(spectrum.values):
        raise CountMismatch(
            f"strip found {len(spectrum.values)} in-gap states in "
            f"[{lo:.6f}, {hi:.6f}] but the reduced operator predicts "
            f"{len(thetas)} (zeta = {spectrum.zeta:.6f}, delta = {spectrum.delta})",
            count=len(thetas),
            found=len(spectrum.values),
            k=None,
        )
    predicted = e_star + spectrum.delta * np.sort(thetas)
    measured = np.sort(spectrum.values)
    residuals = np.abs(measured - predicted)
    return DiracComparison(
        zeta=spectrum.zeta,
        delta=spectrum.delta,
        mu=spectrum.mu,
        measured=measured,
        predicted=predicted,
        thetas=np.sort(thetas),
        residuals=residuals,
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
    tau_samples: int = 160,
    seed: int = 20250818,
    flip_wall: bool = False,
    tau_ref: float | None = None,
) -> EdgeSpectrum:
    """Run the full per-momentum pipeline and return the certified spectrum.

    Labels the result with the envelope detuning mu = (wrapped distance to the
    nearest conical momentum) / delta.  ``decay_speed`` is the transverse group
    speed of the reduced operator (used to convert decay lengths into window
    margins); pass ``params.speed_t``.
    """
    _, dz = nearest_cone(frame, zeta)
    mu = dz / delta if delta > 0 else np.nan
    edges = essential_edges_bulk(
        frame, potential, perturbation, zeta, delta, basis, j_star,
        tau_samples=tau_samples,
    )
    op = assemble_strip(
        frame, potential, wall, zeta, delta, basis,
        perturbation=perturbation, step=step, t_factor=t_factor,
        tau_ref=tau_ref, flip_wall=flip_wall,
    )
    window = gap_window(
        edges, decay_speed, op.grid.half_width, wall.plateau_halfwidth, delta
    )
    return gap_eigenpairs(op, window, edges, mu=mu, seed=seed)
