"""Two-scale quasimodes for the wall strip.

A gapped cone plus a slowly varying domain wall carries edge channels whose
strip eigenvectors are, to leading order, a product of the degenerate cone
pair and an envelope that solves the reduced two-by-two wall operator.  This
module builds those products explicitly: sample the envelope eigenpair on
the strip's transverse nodes, attach the fast cone eigenvectors, add the
transverse corrector that solves the order-delta equation on the orthogonal
complement of the cone pair, and optionally the full second-order layer
(envelope correction, next energy coefficient, second transverse corrector),
which buys one more power of delta in the residual:

    order 0   bare product                     residual ~ delta
    order 1   + delta * transverse corrector   residual ~ delta^2
    order 2   + envelope correction, a2,       residual ~ delta^3
                second transverse corrector

The transverse corrector solves, per transverse node, a linear system in the
fast plane-wave fiber restricted to the complement of the pair.  Solvability
of that restriction is exactly the statement that (theta, alpha) is an
eigenpair of the reduced operator, so the projection of the right-hand side
onto the pair is a direct consistency meter between the extracted
coefficients (nu*, mass, theta) and the fiber itself; it is gated at
``SOLVABILITY_TOL``.  The gate is honest: at fast cutoff 4 the truncation
split of the pair (~1e-5) leaves a projection near 2e-6, so quasimode work
needs cutoff >= 5, where the projection drops below 1e-9.

The envelope correction at second order needs the reduced operator solved
with its eigendirection deflated.  Naive central differences are useless for
that: the discrete first-derivative operator commutes with a sawtooth
conjugation that plants an exact spurious copy of the wall zero mode at the
grid scale, and a mass-channel penalty term cannot lift it (wall zero modes
carry no mass-channel expectation).  We solve the squared operator instead
-- a local Schrodinger form with no lattice artifacts -- which recovers the
first-order solution exactly on the deflated complement.

Envelope eigenpairs come either from the closed-form zero mode (mu = 0,
center branch) or by shooting from an eigenvalue of the Prufer-counted
ladder (``wall_dirac.gap_spectrum``): the reduced system is rotated to the
same real 2x2 gauge, integrated from both plateaus with decaying initial
data, and the matching determinant at the wall center is driven to zero in
the eigenvalue.  The glued half-line solutions give the envelope sampler.
The integration runs on |t| <= ``SHOOTING_BOX`` at relative tolerance
``SHOOTING_RTOL``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .bloch import PlaneWaveBasis, assemble_fiber, convolution_matrix
from .dirac_cone import DiracPointData
from .geometry import TWO_PI, EdgeFrame
from .potentials import DomainWall, FourierField
from .ribbon import (
    StripGrid,
    _kron_apply,
    _strip_terms,
    fit_power_law,
    fold_phase,
    strip_grid,
)
from .wall_dirac import Dirac1DSpectrum, DiracParams, _real_gauge

# Largest pair projection of the order-delta right-hand side the correctors
# accept.
SOLVABILITY_TOL = 1e-8

# Shooting: half-width (slow units) of the integration box and the
# integrator's relative tolerance.  The root bracket starts at
# +-SHOOTING_BRACKET around the guess and doubles at most SHOOTING_MAX_WIDEN
# times.
SHOOTING_BOX = 30.0
SHOOTING_RTOL = 1e-12
SHOOTING_BRACKET = 2e-3
SHOOTING_MAX_WIDEN = 6

# Half-bandwidth of the squared reduced operator in the interleaved
# (node, spinor) order: the first-difference term couples spinor a of node i
# to spinor b of node i +- 1, at most three columns away.
ENVELOPE_BAND = 3

# residual_orders warns when the envelope at the box ends exceeds this
# fraction of an order's residual: the Dirichlet cut then sets a floor under
# the residual, and the fitted exponent stops measuring the order.
EDGE_FLOOR_RATIO = 0.1


class SolvabilityViolation(RuntimeError):
    """Projected right-hand side of the complement solve is too large.

    The projection of the order-delta right-hand side onto the cone pair
    vanishes exactly when (theta, alpha) solves the reduced eigenproblem
    with coefficients consistent with the fiber.  A large projection means
    the coefficients upstream (nu*, mass, theta, or the envelope itself)
    do not match the fiber at the requested tolerance.
    """


class TruncationFloorWarning(UserWarning):
    """The box cuts the envelope off above what an ansatz order resolves.

    Carries ``delta``, the ansatz ``order``, its ``residual`` and the
    ``edge_value`` |alpha| at the outermost strip nodes, which exceeded
    ``EDGE_FLOOR_RATIO`` times that residual.
    """

    def __init__(self, delta: float, order: int, residual: float, edge_value: float):
        super().__init__(
            f"envelope edge value {edge_value:.3g} at delta = {delta:g} exceeds "
            f"{EDGE_FLOOR_RATIO:g} x the order-{order} residual {residual:.3g}: "
            "the box truncation floors the residual; raise t_factor"
        )
        self.delta = delta
        self.order = order
        self.residual = residual
        self.edge_value = edge_value


# ---------------------------------------------------------------------------
# envelope eigenpairs of the reduced wall operator


@dataclass(frozen=True)
class EnvelopePair:
    """In-gap eigenpair (theta, alpha) of the reduced wall operator.

    ``sampler`` maps transverse positions (slow units) to (n, 2) complex
    envelope values, normalized to unit L2 norm in the slow variable;
    ``box`` is the half-width on which the sampler is trustworthy.
    Derivatives come from the eigenvalue relation itself, not from finite
    differences of the samples, so they inherit the sampler's accuracy.
    """

    params: DiracParams
    theta: float
    sampler: Callable[[np.ndarray], np.ndarray]
    box: float
    label: str = "numeric"
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def mu(self) -> float:
        return self.params.mu

    def alpha(self, ts: np.ndarray) -> np.ndarray:
        return self.sampler(np.asarray(ts, dtype=float))

    def d_alpha(self, ts: np.ndarray, alpha: np.ndarray | None = None) -> np.ndarray:
        """D_t alpha via the eigenvalue relation (m1 is an involution)."""
        p = self.params
        if alpha is None:
            alpha = self.alpha(ts)
        m1, m2, m3 = p.matrices()
        kap = p.wall(np.asarray(ts, dtype=float))
        rest = (
            self.theta * alpha
            - p.mu * p.speed_mu * (alpha @ m2.T)
            - p.mass * kap[:, None] * (alpha @ m3.T)
        )
        return (rest @ m1.T) / p.speed_t

    def d2_alpha(
        self,
        ts: np.ndarray,
        alpha: np.ndarray | None = None,
        d_alpha: np.ndarray | None = None,
    ) -> np.ndarray:
        """D_t^2 alpha by differentiating the eigenvalue relation once."""
        p = self.params
        ts = np.asarray(ts, dtype=float)
        if alpha is None:
            alpha = self.alpha(ts)
        if d_alpha is None:
            d_alpha = self.d_alpha(ts, alpha)
        m1, m2, m3 = p.matrices()
        kap = p.wall(ts)
        d_kap = -1j * p.wall.derivative(ts)  # D_t kappa
        rest = (
            -p.mass * d_kap[:, None] * (alpha @ m3.T)
            + self.theta * d_alpha
            - p.mu * p.speed_mu * (d_alpha @ m2.T)
            - p.mass * kap[:, None] * (d_alpha @ m3.T)
        )
        return (rest @ m1.T) / p.speed_t


def zero_mode_pair(params: DiracParams) -> EnvelopePair:
    """Closed-form center-branch pair at mu = 0: theta = 0 exactly.

    The spinor is the eigenvector of i*m1*m3 with eigenvalue sgn(mass); the
    profile is exp(-decay_rate * antiderivative(kappa)), normalized in L2.
    """
    if abs(params.mu) > 1e-12:
        raise ValueError("closed-form zero mode requires mu = 0")
    m1, _, m3 = params.matrices()
    vals, vecs = np.linalg.eigh(1j * (m1 @ m3))
    spinor = vecs[:, int(np.argmin(np.abs(vals - np.sign(params.mass))))]
    rate = params.decay_rate
    wall = params.wall
    norm_sq, _ = quad(
        lambda t: np.exp(-2.0 * rate * wall.antiderivative(np.array([t]))[0]),
        -np.inf,
        np.inf,
    )
    scale = 1.0 / np.sqrt(norm_sq)

    def sampler(ts: np.ndarray) -> np.ndarray:
        profile = scale * np.exp(-rate * wall.antiderivative(ts))
        return profile[:, None] * spinor[None, :]

    return EnvelopePair(
        params=params, theta=0.0, sampler=sampler, box=np.inf, label="zero-mode"
    )


def _shoot_halves(params: DiracParams, theta: float):
    """Integrate the real-gauge system from both plateaus toward the wall."""
    p = params
    s, smu, mass = p.speed_t, p.speed_mu, p.mass
    _, sign = _real_gauge(p)
    b = p.mu * smu * sign

    def rhs(t, y):
        mk = mass * p.wall(t)
        return [(-b * y[0] + (theta + mk) * y[1]) / s, ((mk - theta) * y[0] + b * y[1]) / s]

    def end_vec(kappa: float, direction: float) -> np.ndarray:
        # decaying solution of the constant-coefficient plateau system
        mk = mass * kappa
        lam2 = b * b + mk * mk - theta * theta
        if lam2 <= 0:
            raise ValueError(
                f"theta = {theta:.6f} is not inside the essential gap "
                f"(edge {p.essential_edge():.6f})"
            )
        lam = direction * np.sqrt(lam2) / s
        v = np.array([theta + mk, s * lam + b])
        return v / np.linalg.norm(v)

    box = SHOOTING_BOX
    left = solve_ivp(
        rhs, (-box, 0.0), end_vec(p.wall(-box), +1.0),
        method="DOP853", rtol=SHOOTING_RTOL, atol=1e-300, dense_output=True,
    )
    right = solve_ivp(
        rhs, (box, 0.0), end_vec(p.wall(box), -1.0),
        method="DOP853", rtol=SHOOTING_RTOL, atol=1e-300, dense_output=True,
    )
    if not (left.success and right.success):
        raise RuntimeError("plateau integration failed")
    return left, right


def _matching_det(params: DiracParams, theta: float) -> float:
    left, right = _shoot_halves(params, theta)
    a = left.y[:, -1] / np.linalg.norm(left.y[:, -1])
    c = right.y[:, -1] / np.linalg.norm(right.y[:, -1])
    return float(a[0] * c[1] - a[1] * c[0])


def shooting_pair(params: DiracParams, theta_guess: float) -> EnvelopePair:
    """Refine an in-gap eigenvalue by shooting and return the glued pair.

    ``theta_guess`` brackets the root (a value of ``gap_spectrum``'s
    ladder is accurate to about 1e-12); the bracket is widened geometrically
    until the matching determinant changes sign.  The returned sampler
    evaluates the dense outputs of the two half-line integrations, so the
    envelope and the eigenvalue are accurate to the integrator tolerance.
    """
    box = SHOOTING_BOX
    if box <= params.wall.plateau_halfwidth:
        raise ValueError("shooting box must exceed the wall plateau")

    def det(th: float) -> float:
        return _matching_det(params, th)

    half = SHOOTING_BRACKET
    lo, hi = theta_guess - half, theta_guess + half
    f_lo, f_hi = det(lo), det(hi)
    widened = 0
    while f_lo * f_hi > 0 and widened < SHOOTING_MAX_WIDEN:
        half *= 2.0
        lo, hi = theta_guess - half, theta_guess + half
        f_lo, f_hi = det(lo), det(hi)
        widened += 1
    if f_lo * f_hi > 0:
        raise RuntimeError(
            f"matching determinant does not change sign around theta = "
            f"{theta_guess:.6f} (final bracket half-width {half:.2e})"
        )
    theta = float(brentq(det, lo, hi, xtol=1e-13))

    left, right = _shoot_halves(params, theta)
    chi_l = left.y[:, -1]
    chi_r = right.y[:, -1]
    # glue the right half onto the left one's scale (collinear at the root)
    glue = float(chi_l @ chi_r) / float(chi_r @ chi_r)
    mismatch = float(np.linalg.norm(chi_l - glue * chi_r)) / max(
        np.linalg.norm(chi_l), 1e-300
    )

    e1, _ = _real_gauge(params)
    back = np.array([1.0, -1j * np.conj(e1)])

    def chi(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), 2))
        neg = ts < 0.0
        if np.any(neg):
            out[neg] = left.sol(ts[neg]).T
        if np.any(~neg):
            out[~neg] = glue * right.sol(ts[~neg]).T
        return out

    fine = np.linspace(-box, box, 40001)
    values = chi(fine)
    norm = np.sqrt(np.trapezoid(np.sum(values**2, axis=1), fine))

    def sampler(ts: np.ndarray) -> np.ndarray:
        return (chi(ts) / norm) * back[None, :]

    return EnvelopePair(
        params=params,
        theta=theta,
        sampler=sampler,
        box=float(box),
        label="shooting",
        diagnostics={
            "theta_guess": float(theta_guess),
            "theta_shift": float(theta - theta_guess),
            "glue_mismatch": mismatch,
            "bracket_halfwidth": half,
        },
    )


def ladder_pair(spectrum: Dirac1DSpectrum, branch: int = 0) -> EnvelopePair:
    """Shooting-refined pair for one branch of a 1D in-gap ladder.

    ``branch`` counts from the middle of the sorted in-gap spectrum
    (branch 0 = eigenvalue closest to zero), matching the config convention.
    """
    n = len(spectrum.eigenvalues)
    if n == 0:
        raise ValueError("1D spectrum has no in-gap eigenvalues")
    center = int(np.argmin(np.abs(spectrum.eigenvalues)))
    idx = center + branch
    if not 0 <= idx < n:
        raise ValueError(f"branch {branch} outside the ladder (count {n})")
    guess = float(spectrum.eigenvalues[idx])
    if branch == 0 and abs(spectrum.params.mu) < 1e-12 and abs(guess) < 1e-8:
        return zero_mode_pair(spectrum.params)
    return shooting_pair(spectrum.params, guess)


# ---------------------------------------------------------------------------
# workspace: fiber eigendecomposition at the cone momentum, shared read-only


@dataclass
class QuasimodeWorkspace:
    """Everything the correctors need from the fast fiber, computed once.

    The fiber eigendecomposition, the deflated pseudo-inverse pieces, the
    frame projections of the plane-wave momenta, and the perturbation's
    convolution matrix are all independent of delta and of the envelope, so
    one workspace serves a whole residual study.
    """

    data: DiracPointData
    frame: EdgeFrame
    potential: FourierField
    wall: DomainWall
    perturbation: FourierField
    basis: PlaneWaveBasis
    phi: np.ndarray  # (M, 2) cone pair, columns
    d_kp: np.ndarray  # (M,) (xi* + 2 pi q) . kp
    d_ell: np.ndarray  # (M,) (xi* + 2 pi q) . ell
    conv_w: np.ndarray  # (M, M) perturbation convolution
    kp_sq: float
    ell_sq: float
    comp_vecs: np.ndarray  # (M, M-2) complement eigenvectors
    comp_vals: np.ndarray  # (M-2,) their eigenvalues
    deflation_split: float
    deflation_threshold: float

    @property
    def e_star(self) -> float:
        return self.data.E_star

    @property
    def zeta_star(self) -> float:
        return self.frame.zeta_star(self.data.which)

    @property
    def tau_star(self) -> float:
        return self.frame.tau_star(self.data.which)

    def complement_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the deflated pseudo-inverse of (P0 - E*) columnwise."""
        co = self.comp_vecs.conj().T @ rhs
        return self.comp_vecs @ (co / (self.comp_vals - self.e_star)[:, None])

    def pair_projection(self, rhs: np.ndarray) -> np.ndarray:
        """(2, n) projection of fiber columns onto the cone pair."""
        return self.phi.conj().T @ rhs


def quasimode_workspace(
    data: DiracPointData,
    frame: EdgeFrame,
    potential: FourierField,
    wall: DomainWall,
    perturbation: FourierField,
    basis: PlaneWaveBasis,
    *,
    degeneracy_tol: float = 1e-6,
) -> QuasimodeWorkspace:
    """Diagonalize the unperturbed fiber at the cone and deflate the pair.

    The deflation threshold follows the cone certificate's convention:
    relative tolerance ``degeneracy_tol`` against the magnitude scale of the
    low bands.  Exactly two eigenvalues must sit inside the threshold around
    E*, and the next one must be far outside it.
    """
    if data.nu_star is None:
        raise ValueError("cone velocity not computed yet")
    if perturbation.is_vector:
        raise ValueError(
            "quasimode construction supports scalar gap-opening perturbations only"
        )
    xi_star = frame.xi_of(frame.zeta_star(data.which), frame.tau_star(data.which))
    fiber = assemble_fiber(xi_star, 0.0, potential, basis)
    vals, vecs = np.linalg.eigh(fiber.matrix)

    low = vals[: max(data.j_star + 4, 8)]
    scale = max(abs(low[0]), abs(low[-1]), 1.0)
    threshold = degeneracy_tol * scale
    order = np.argsort(np.abs(vals - data.E_star))
    split = float(abs(vals[order[1]] - vals[order[0]]))
    if split > threshold:
        raise ValueError(
            f"cone pair split {split:.3e} exceeds the deflation threshold "
            f"{threshold:.3e}; raise the fast cutoff"
        )
    third = float(abs(vals[order[2]] - data.E_star))
    if third < 1e3 * threshold:
        raise ValueError(
            f"third eigenvalue only {third:.3e} from E*; deflation is ambiguous"
        )
    keep = np.setdiff1d(np.arange(len(vals)), order[:2])

    duals = xi_star[None, :] + TWO_PI * basis.duals
    return QuasimodeWorkspace(
        data=data,
        frame=frame,
        potential=potential,
        wall=wall,
        perturbation=perturbation,
        basis=basis,
        phi=np.stack([data.phi1, data.phi2], axis=1),
        d_kp=duals @ frame.kp,
        d_ell=duals @ frame.ell,
        conv_w=convolution_matrix(perturbation, basis),
        kp_sq=float(frame.kp @ frame.kp),
        ell_sq=float(frame.ell @ frame.ell),
        comp_vecs=vecs[:, keep],
        comp_vals=vals[keep],
        deflation_split=split,
        deflation_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# first transverse corrector


@dataclass
class TransverseCorrection:
    """Per-node complement solve for the order-delta equation."""

    ts: np.ndarray  # slow transverse nodes
    alpha: np.ndarray  # (n, 2) envelope samples the solve was built from
    d_alpha: np.ndarray  # (n, 2) D_t alpha at the same nodes
    values: np.ndarray  # (M, n) corrector in the fast fiber, per node
    subtracted: np.ndarray  # (2, n) solvability projection removed from g
    defect: float  # max |projection| before subtraction
    projected_residual: float  # max |projection| of the actual rhs (machine)


def _order1_bracket(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    ts: np.ndarray,
    alpha: np.ndarray,
    d_alpha: np.ndarray,
) -> np.ndarray:
    """g = [2 (kp.D) D_t + 2 mu (ell.D) + kappa W - theta] (alpha . phi)."""
    fast = ws.phi @ alpha.T
    d_fast = ws.phi @ d_alpha.T
    kap = ws.wall(ts)
    return (
        2.0 * ws.d_kp[:, None] * d_fast
        + 2.0 * pair.mu * ws.d_ell[:, None] * fast
        + (ws.conv_w @ fast) * kap[None, :]
        - pair.theta * fast
    )


def first_correction(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    ts: np.ndarray,
) -> TransverseCorrection:
    """Solve (P0 - E*) V = -g on the complement of the cone pair, per node.

    The projection of g onto the pair is subtracted before the solve (it
    vanishes identically for an exact eigenpair); its pre-subtraction
    magnitude is the solvability defect and is gated at ``SOLVABILITY_TOL``.
    The envelope samples alpha and D_t alpha are kept on the result, so the
    ansatz and the second-order layer reuse them instead of sampling again.
    """
    ts = np.asarray(ts, dtype=float)
    alpha = pair.alpha(ts)
    d_alpha = pair.d_alpha(ts, alpha)
    g = _order1_bracket(ws, pair, ts, alpha, d_alpha)
    projection = ws.pair_projection(g)
    defect = float(np.abs(projection).max())
    if defect > SOLVABILITY_TOL:
        raise SolvabilityViolation(
            f"solvability projection {defect:.3e} exceeds {SOLVABILITY_TOL:.1e}; "
            "the reduced coefficients do not match the fiber (check the fast "
            "cutoff and the envelope eigenvalue accuracy)"
        )
    g_perp = g - ws.phi @ projection
    residual = float(np.abs(ws.pair_projection(g_perp)).max())
    return TransverseCorrection(
        ts=ts,
        alpha=alpha,
        d_alpha=d_alpha,
        values=-ws.complement_solve(g_perp),
        subtracted=projection,
        defect=defect,
        projected_residual=residual,
    )


# ---------------------------------------------------------------------------
# second-order layer: envelope correction, energy coefficient, corrector


@dataclass
class SecondOrderLayer:
    """Envelope correction, next energy coefficient, second corrector."""

    beta: np.ndarray  # (n, 2) envelope correction, orthogonal to alpha
    a2: float  # next energy coefficient
    values: np.ndarray  # (M, n) second transverse corrector
    a2_imag: float  # imaginary part discarded from a2 (diagnostic)
    envelope_residual: float  # first-order equation check on beta
    projection: float  # pair projection of the second-order rhs


def _reduced_matrix_apply(
    params: DiracParams, theta: float, ts: np.ndarray, values: np.ndarray,
    d_values: np.ndarray,
) -> np.ndarray:
    """(reduced operator - theta) applied to envelope samples."""
    m1, m2, m3 = params.matrices()
    kap = params.wall(ts)
    return (
        params.speed_t * (d_values @ m1.T)
        + params.mu * params.speed_mu * (values @ m2.T)
        + params.mass * kap[:, None] * (values @ m3.T)
        - theta * values
    )


def _bordered_solve(
    squared: sp.csr_matrix, w: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """beta from [[S, w], [w^H, 0]] [beta; lam] = [rhs; 0], S banded.

    One banded LU of S solves S y0 = rhs and S y1 = w together; the border
    then leaves one scalar, lam = w^H y0 / w^H y1, and beta = y0 - lam y1 is
    orthogonal to w.  S is nearly singular along w, so y0 and y1 are both
    large along it, and the subtraction cancels exactly that direction.
    """
    band = ENVELOPE_BAND
    dia = squared.todia()
    if np.abs(dia.offsets).max() > band:
        raise ValueError(f"squared operator is wider than half-bandwidth {band}")
    # LAPACK band storage: ab[band + i - j, j] = S[i, j]; a DIA row k holds
    # S[j - offsets[k], j] at column j
    ab = np.zeros((2 * band + 1, squared.shape[1]), dtype=complex)
    ab[band - dia.offsets, : dia.data.shape[1]] = dia.data
    y = solve_banded((band, band), ab, np.column_stack([rhs, w]), check_finite=False)
    lam = (np.conj(w) @ y[:, 0]) / (np.conj(w) @ y[:, 1])
    return y[:, 0] - lam * y[:, 1]


def _envelope_correction(
    pair: EnvelopePair,
    ts: np.ndarray,
    rho: np.ndarray,
    alpha: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve (reduced - theta) beta = rho with the alpha direction deflated.

    Works on the squared operator: central differences on the first-order
    system carry an exact sawtooth ghost of the wall zero mode, while the
    squared operator is a local Schrodinger form whose only near-kernel
    direction is alpha itself.  For rho orthogonal to alpha the squared
    solve reproduces the first-order solution exactly.  In the interleaved
    (node, spinor) order the squared operator is banded with half-bandwidth
    ``ENVELOPE_BAND``; the deflation is a border, so beta is the solution
    orthogonal to w = alpha / |alpha|, found by ``_bordered_solve`` from one
    banded LU of the squared operator.
    """
    p = pair.params
    n = len(ts)
    h = float(ts[1] - ts[0])
    s, mass, theta = p.speed_t, p.mass, pair.theta
    m1, m2, m3 = p.matrices()
    kap = p.wall(ts)
    d_kap = p.wall.derivative(ts)

    d_rho = np.zeros_like(rho)
    d_rho[1:-1] = (rho[2:] - rho[:-2]) / (2.0 * h)
    rhs = _reduced_matrix_apply(p, theta, ts, rho, -1j * d_rho).ravel()

    lap = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        [-1, 0, 1], format="csr",
    ) / (h * h)
    eye2 = sp.identity(2, format="csr")
    diag_sq = p.mu**2 * p.speed_mu**2 + mass**2 * kap**2 + theta**2
    squared = (
        s**2 * sp.kron(lap, eye2)
        + sp.kron(sp.diags(diag_sq), eye2)
        + (-1j * s * mass) * sp.kron(sp.diags(d_kap), m1 @ m3)
    )
    if theta != 0.0 or p.mu != 0.0:
        off = np.ones(n - 1) / (2.0 * h)
        d1 = sp.diags([off, -off], [1, -1], format="csr")
        first_order = (
            s * sp.kron(-1j * d1, m1)
            + p.mu * p.speed_mu * sp.kron(sp.identity(n, format="csr"), m2)
            + mass * sp.kron(sp.diags(kap), m3)
        )
        squared = squared - 2.0 * theta * first_order
    squared = squared.tocsr()

    w = alpha.ravel()
    w = w / np.linalg.norm(w)
    beta = _bordered_solve(squared, w, rhs).reshape(n, 2)

    d_beta = np.zeros_like(beta)
    d_beta[1:-1] = (beta[2:] - beta[:-2]) / (2.0 * h)
    d_beta *= -1j
    check = _reduced_matrix_apply(p, theta, ts, beta, d_beta) - rho
    return beta, d_beta, float(np.abs(check).max())


def second_order_layer(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    corr: TransverseCorrection,
) -> SecondOrderLayer:
    """Assemble the order-delta^2 equation and solve both of its halves.

    The envelope samples alpha and D_t alpha are the ones ``corr`` was built
    from; only D_t^2 alpha is new.  The pair projection fixes (a2, beta): a2
    is the envelope average of the projected forcing and beta solves the
    deflated reduced operator against what remains (``_envelope_correction``,
    one banded solve).  The complement projection then yields the second
    transverse corrector exactly as at first order.
    """
    ts = corr.ts
    alpha = corr.alpha
    d_alpha = corr.d_alpha
    d2_alpha = pair.d2_alpha(ts, alpha, d_alpha)
    kap = ws.wall(ts)
    d_kap_t = -1j * ws.wall.derivative(ts)
    h = float(ts[1] - ts[0])
    mu = pair.mu

    fast = ws.phi @ alpha.T
    d_fast = ws.phi @ d_alpha.T
    d2_fast = ws.phi @ d2_alpha.T

    # D_t of the order-delta bracket, for D_t V via the shared pseudo-inverse
    d_g = (
        2.0 * ws.d_kp[:, None] * d2_fast
        + 2.0 * mu * ws.d_ell[:, None] * d_fast
        + (ws.conv_w @ fast) * d_kap_t[None, :]
        + (ws.conv_w @ d_fast) * kap[None, :]
        - pair.theta * d_fast
    )
    d_corr = -ws.complement_solve(d_g - ws.phi @ ws.pair_projection(d_g))

    def bracket(values: np.ndarray, d_values: np.ndarray) -> np.ndarray:
        return (
            2.0 * ws.d_kp[:, None] * d_values
            + 2.0 * mu * ws.d_ell[:, None] * values
            + (ws.conv_w @ values) * kap[None, :]
            - pair.theta * values
        )

    on_corr = bracket(corr.values, d_corr)
    curvature = ws.kp_sq * d2_alpha.T + mu**2 * ws.ell_sq * alpha.T
    forcing = ws.pair_projection(on_corr) + curvature  # (2, n)
    a2_complex = complex(np.sum(np.conj(alpha.T) * forcing) * h)
    a2 = float(a2_complex.real)

    rho = -(forcing.T - a2 * alpha)
    beta, d_beta, env_res = _envelope_correction(pair, ts, rho, alpha)

    beta_fast = ws.phi @ beta.T
    d_beta_fast = ws.phi @ d_beta.T
    g2 = (
        on_corr
        + bracket(beta_fast, d_beta_fast)
        + ws.kp_sq * d2_fast
        + mu**2 * ws.ell_sq * fast
        - a2 * fast
    )
    projection = ws.pair_projection(g2)
    values = -ws.complement_solve(g2 - ws.phi @ projection)
    return SecondOrderLayer(
        beta=beta,
        a2=a2,
        values=values,
        a2_imag=abs(a2_complex.imag),
        envelope_residual=env_res,
        projection=float(np.abs(projection).max()),
    )


# ---------------------------------------------------------------------------
# the sampled ansatz


@dataclass
class QuasimodeAnsatz:
    """A two-scale quasimode sampled on one strip grid.

    ``vector`` is the unit-norm strip sample (t-major, matching the strip
    assembly); ``energy`` is E* + delta * theta, plus delta^2 * a2 when the
    second-order layer is included.
    """

    delta: float
    mu: float
    theta: float
    order: int
    energy: float
    grid: StripGrid
    vector: np.ndarray
    alpha: np.ndarray  # (n, 2) envelope samples at the grid nodes
    correction: TransverseCorrection | None
    second: SecondOrderLayer | None
    pair: EnvelopePair
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def defect(self) -> float:
        return self.correction.defect if self.correction is not None else np.nan


def effective_zeta(ws: QuasimodeWorkspace, delta: float, mu: float) -> float:
    """Edge Bloch phase carried by the detuned ansatz: zeta* + mu delta."""
    return float(ws.zeta_star + mu * delta * (ws.frame.ell @ ws.frame.v))


def leading_quasimode(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    delta: float,
    mu: float | None = None,
    grid: StripGrid | None = None,
    *,
    order: int = 1,
    step: float = 0.5,
    t_factor: float = 4.5,
) -> QuasimodeAnsatz:
    """Sample the two-scale ansatz on a strip grid.

    order 0 is the bare envelope-times-pair product (residual ~ delta),
    order 1 adds the transverse corrector (~ delta^2, the default), and
    order 2 adds the envelope correction, the next energy coefficient, and
    the second transverse corrector (~ delta^3).

    When ``grid`` is supplied it must match delta and the detuned Bloch
    phase zeta* + mu delta, so the sample lives in the same discrete space
    as an edge solve at that phase; otherwise a grid is built with the
    reference phase ``assemble_strip`` uses by default, ``fold_phase``.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    if mu is None:
        mu = pair.mu
    elif abs(mu - pair.mu) > 1e-12:
        raise ValueError(
            f"mu = {mu} does not match the envelope pair (mu = {pair.mu})"
        )
    if delta <= 0:
        raise ValueError("delta must be positive")

    zeta_eff = effective_zeta(ws, delta, mu)
    if grid is None:
        grid = strip_grid(
            ws.frame, ws.wall, zeta_eff, delta, ws.basis,
            step=step, t_factor=t_factor, tau_ref=fold_phase(ws.frame, zeta_eff),
        )
    else:
        if abs(grid.delta - delta) > 1e-12:
            raise ValueError("grid.delta does not match the requested delta")
        if abs(grid.zeta - zeta_eff) > 1e-9:
            raise ValueError(
                f"grid.zeta = {grid.zeta:.9f} but the detuned ansatz needs "
                f"{zeta_eff:.9f}"
            )
    ts = delta * grid.t
    span = float(np.max(np.abs(ts)))
    if span > pair.box + 1e-9:
        raise ValueError(
            f"strip spans |t| <= {span:.2f} but the envelope was integrated "
            f"on |t| <= {pair.box:.2f}; rebuild the pair with a larger box"
        )

    correction = first_correction(ws, pair, ts) if order >= 1 else None
    alpha = pair.alpha(ts) if correction is None else correction.alpha
    second = second_order_layer(ws, pair, correction) if order >= 2 else None
    energy, field = _truncated_field(ws, pair, delta, alpha, correction, second, order)
    return QuasimodeAnsatz(
        delta=float(delta),
        mu=float(mu),
        theta=pair.theta,
        order=order,
        energy=energy,
        grid=grid,
        vector=_strip_vector(ws, grid, delta, mu, field),
        alpha=alpha,
        correction=correction,
        second=second,
        pair=pair,
        diagnostics={
            "zeta_effective": zeta_eff,
            "envelope_edge_value": float(np.abs(alpha[[0, -1]]).max()),
        },
    )


def _truncated_field(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    delta: float,
    alpha: np.ndarray,
    correction: TransverseCorrection | None,
    second: SecondOrderLayer | None,
    order: int,
) -> tuple[float, np.ndarray]:
    """Energy and (M, n) fast-fiber field of the ansatz cut at ``order``.

    ``correction`` is needed from order 1 on and ``second`` at order 2; the
    pieces of a higher order serve every lower one.
    """
    fast = ws.phi @ alpha.T
    energy = ws.e_star + delta * pair.theta
    if order == 0:
        return float(energy), fast
    if order == 1:
        return float(energy), fast + delta * correction.values
    field = (
        fast
        + delta * (correction.values + ws.phi @ second.beta.T)
        + delta**2 * second.values
    )
    return float(energy + delta**2 * second.a2), field


def _strip_vector(
    ws: QuasimodeWorkspace, grid: StripGrid, delta: float, mu: float, field: np.ndarray
) -> np.ndarray:
    """Unit strip sample (t-major) of a fast-fiber field times the edge phase."""
    ell_vp = float(ws.frame.ell @ ws.frame.vp)
    phase = np.exp(1j * ((ws.tau_star - grid.tau_ref) + mu * delta * ell_vp) * grid.t)
    vector = (field * phase[None, :]).T.ravel()
    return vector / np.linalg.norm(vector)


# ---------------------------------------------------------------------------
# residual study


@dataclass
class ResidualStudy:
    """Residual norms of the sampled ansatz against the strip operators."""

    deltas: np.ndarray
    orders: tuple[int, ...]
    residuals: dict  # order -> array of residual norms, one per delta
    exponents: dict  # order -> fitted power of delta
    defects: np.ndarray  # solvability defect per delta
    edge_values: np.ndarray  # envelope |alpha| at the box ends, per delta
    energies: dict  # order -> array of ansatz energies
    mu: float
    theta: float


def residual_orders(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    deltas: tuple[float, ...] = (0.08, 0.04, 0.02),
    *,
    orders: tuple[int, ...] = (1, 2),
    step: float = 0.5,
    t_factor: float = 4.5,
) -> ResidualStudy:
    """Measure ||(strip - E) u|| / ||u|| across delta for each ansatz order.

    One pass per delta: the strip's Kronecker terms (``_strip_terms``),
    applied matrix-free by ``_kron_apply`` so the strip matrix is never
    formed, and one ``leading_quasimode`` at the highest requested order,
    which samples the envelope once and solves each corrector once.  The lower
    orders are cut from the same pieces (``_truncated_field``), so every
    order's vector is the one ``leading_quasimode`` builds at that order.
    The fitted exponents should land near order + 1.

    The envelope's value at the box ends is recorded per delta
    (``edge_values``).  Where it exceeds ``EDGE_FLOOR_RATIO`` times an
    order's residual, the box truncation, not the order, sets that residual,
    and a TruncationFloorWarning names the delta and order.
    """
    if len(deltas) < 2:
        raise ValueError("need at least two deltas to fit an exponent")
    mu = pair.mu
    residuals = {o: np.zeros(len(deltas)) for o in orders}
    energies = {o: np.zeros(len(deltas)) for o in orders}
    defects = np.zeros(len(deltas))
    edge_values = np.zeros(len(deltas))
    for i, delta in enumerate(deltas):
        zeta_eff = effective_zeta(ws, delta, mu)
        grid, terms, _ = _strip_terms(
            ws.frame, ws.potential, ws.wall, zeta_eff, delta, ws.basis,
            perturbation=ws.perturbation, step=step, t_factor=t_factor,
        )
        top = leading_quasimode(ws, pair, delta, mu, grid, order=max(orders))
        edge_values[i] = top.diagnostics["envelope_edge_value"]
        if top.correction is not None:
            defects[i] = top.correction.defect
        for o in sorted(orders):
            if o == top.order:
                energy, vector = top.energy, top.vector
            else:
                energy, field = _truncated_field(
                    ws, pair, delta, top.alpha, top.correction, top.second, o
                )
                vector = _strip_vector(ws, grid, delta, mu, field)
            u = vector.reshape(grid.n_t, grid.n_fast)
            residuals[o][i] = float(np.linalg.norm(_kron_apply(terms, u) - energy * u))
            energies[o][i] = energy
            if edge_values[i] > EDGE_FLOOR_RATIO * residuals[o][i]:
                warnings.warn(
                    TruncationFloorWarning(delta, o, residuals[o][i], edge_values[i])
                )
        del top  # free this delta's vectors before the next, larger grid is sampled
    exponents = {
        o: float(fit_power_law(np.asarray(deltas), residuals[o])) for o in orders
    }
    return ResidualStudy(
        deltas=np.asarray(deltas, dtype=float),
        orders=tuple(sorted(orders)),
        residuals=residuals,
        exponents=exponents,
        defects=defects,
        edge_values=edge_values,
        energies=energies,
        mu=mu,
        theta=pair.theta,
    )
