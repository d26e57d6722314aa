"""Two-scale quasimodes for the wall strip.

A gapped cone plus a slowly varying domain wall carries edge channels whose
strip eigenvectors are, to leading order, a product of the degenerate cone
pair and an envelope that solves the reduced two-by-two wall operator.  This
module builds those products explicitly, as one series in delta
(``ansatz_series``): sample the envelope eigenpair on the strip's
transverse nodes and attach the fast cone eigenvectors (order 0); add the
transverse corrector V1 that solves the order-delta equation on the
orthogonal complement of the cone pair (order 1); add the envelope
correction beta, the next energy coefficient a2 and the second transverse
corrector V2 (order 2).  Each order appends (order, power) entries to the
series, a term entering times delta**power, and buys one more power of
delta in the residual.  The ansatz at an order is the series cut there
(``AnsatzSeries.cut``), so the pieces of a higher order serve every lower
one:

    order   terms (power)           energy (power)      residual
    0       phi alpha (0)           E* (0), theta (1)   ~ delta
    1       + V1 (1)                                    ~ delta^2
    2       + phi beta (1), V2 (2)  + a2 (2)            ~ delta^3

``lift_order0`` samples the bare product from the cone data alone, with no
workspace, so it serves any cutoff and the magnetic wall; the strip solver
seeds each edge state with it.

The fast part of every corrector is the deflated resolvent applied to a few
fixed fiber vectors, and only the slow envelope coefficients vary along t.
So every fast field is kept factored (``FastField``): an (M, r) basis of
fiber columns times (r, n) coefficients, one column per transverse node.
The bracket of the order-delta equation maps a field of rank r to one of
rank about 3r, and the W product and the complement solve act on the basis
alone.  The ranks do not depend on n or delta: the first corrector has 6,
D_t of it 8, the second corrector 28 and the order-2 field 38.  Only
``_strip_vector`` forms an array of the strip's size, the sampled vector.

The transverse corrector solves, per transverse node, a linear system in the
fast plane-wave fiber restricted to the complement of the pair.  Solvability
of that restriction is exactly the statement that (theta, alpha) is an
eigenpair of the reduced operator, so the projection of the right-hand side
onto the pair is a direct consistency meter between the extracted
coefficients (nu*, mass, theta) and the fiber itself; it is gated at
``SOLVABILITY_TOL``.  The gate is honest: at fast cutoff 4 the truncation
split of the pair (2.2e-5) leaves a projection of 1.6e-6, so quasimode work
needs cutoff >= 5, where the split is 5.4e-8 and the projection drops below
1e-9.

The envelope correction at second order needs the reduced operator solved
with its eigendirection deflated.  Naive central differences are useless for
that: the discrete first-derivative operator commutes with a sawtooth
conjugation that plants an exact spurious copy of the wall zero mode at the
grid scale, and a mass-channel penalty term cannot lift it (wall zero modes
carry no mass-channel expectation).  We solve the squared operator instead
-- a local Schrodinger form with no lattice artifacts -- which recovers the
first-order solution exactly on the deflated complement.

Envelope eigenpairs come either from the closed-form zero mode (mu = 0,
center branch) or straight from the Prufer-counted ladder
(``wall_dirac.gap_spectrum``).  ``ladder_pair`` takes the ladder's refined
eigenvalue as it stands and samples the glued Prufer half-solutions at it
(angle and log radius, dense output), normalized in L2 on the ladder's box
by the integral of r^2 that the halves carry as one more component.
``shooting_pair`` is the independent reference the tests hold it to: it
integrates the two-component real-gauge system from both plateaus, starting
on the same decaying plateau solution, and drives the matching determinant
at the wall center to zero in the eigenvalue, on |t| <= ``SHOOTING_BOX`` at
relative tolerance ``SHOOTING_RTOL``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .bloch import PlaneWaveBasis, assemble_fiber, convolution_matrix
from .dirac_cone import DiracPointData
from .geometry import TWO_PI, EdgeFrame
from .potentials import DomainWall, FourierField
from .strip import StripGrid, kron_apply, strip_terms
from .wall_dirac import (
    Dirac1DSpectrum,
    DiracParams,
    glued_mode,
    real_gauge,
    start_angle,
)

# Largest pair projection of the order-delta right-hand side the correctors
# accept.
SOLVABILITY_TOL = 1e-8

# quasimode_workspace deflates the cone pair within DEFLATION_TOL, relative
# to the magnitude scale of the low bands: the cone certificate's default
# degeneracy tolerance.
DEFLATION_TOL = 1e-6

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
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def mu(self) -> float:
        return self.params.mu

    def alpha(self, ts: np.ndarray) -> np.ndarray:
        return self.sampler(np.asarray(ts, dtype=float))

    def d_alpha(self, ts: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """D_t alpha via the eigenvalue relation (m1 is an involution)."""
        p = self.params
        m1, m2, m3 = p.matrices()
        kap = p.wall(np.asarray(ts, dtype=float))
        rest = (
            self.theta * alpha
            - p.mu * p.speed_mu * (alpha @ m2.T)
            - p.mass * kap[:, None] * (alpha @ m3.T)
        )
        return (rest @ m1.T) / p.speed_t

    def d2_alpha(
        self, ts: np.ndarray, alpha: np.ndarray, d_alpha: np.ndarray
    ) -> np.ndarray:
        """D_t^2 alpha by differentiating the eigenvalue relation once."""
        p = self.params
        ts = np.asarray(ts, dtype=float)
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
    It decays on both sides because the wall's antiderivative is even and
    grows linearly on the plateaus.
    """
    if abs(params.mu) > 1e-12:
        raise ValueError("closed-form zero mode requires mu = 0")
    m1, _, m3 = params.matrices()
    vals, vecs = np.linalg.eigh(1j * (m1 @ m3))
    sgn = np.sign(params.mass)
    idx = int(np.argmin(np.abs(vals - sgn)))
    if abs(vals[idx] - sgn) > 1e-12:
        raise ValueError("spinor eigenproblem did not produce a +/-1 pair")
    spinor = vecs[:, idx]
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

    return EnvelopePair(params=params, theta=0.0, sampler=sampler, box=np.inf)


def _shoot_halves(params: DiracParams, theta: float):
    """Integrate the real-gauge system from both plateaus toward the wall.

    Each half starts on the unit vector (cos phi0, sin phi0) at its box end,
    with phi0 the Prufer start angle of ``wall_dirac.start_angle``: the
    plateau solution that decays away from the wall, continuous in theta.
    A third component carries the integral of |y|^2 from the box end.  The
    tolerance is relative on y, which grows from unit length toward the
    wall; the integral starts at 0 with a unit integrand, so it gets the
    absolute tolerance ``SHOOTING_RTOL`` as well.
    """
    p = params
    s, smu, mass = p.speed_t, p.speed_mu, p.mass
    _, sign = real_gauge(p)
    b = p.mu * smu * sign

    def rhs(t, y):
        mk = mass * p.wall(t)
        return [
            (-b * y[0] + (theta + mk) * y[1]) / s,
            ((mk - theta) * y[0] + b * y[1]) / s,
            y[0] * y[0] + y[1] * y[1],
        ]

    def half(end: float):
        phi0, _ = start_angle(p, theta, end)
        return solve_ivp(
            rhs, (end, 0.0), [np.cos(phi0), np.sin(phi0), 0.0],
            method="DOP853", rtol=SHOOTING_RTOL, atol=[1e-300, 1e-300, SHOOTING_RTOL],
            dense_output=True,
        )

    left, right = half(-SHOOTING_BOX), half(SHOOTING_BOX)
    if not (left.success and right.success):
        raise RuntimeError("plateau integration failed")
    return left, right


def _matching_det(params: DiracParams, theta: float) -> float:
    left, right = _shoot_halves(params, theta)
    a = left.y[:2, -1] / np.linalg.norm(left.y[:2, -1])
    c = right.y[:2, -1] / np.linalg.norm(right.y[:2, -1])
    return float(a[0] * c[1] - a[1] * c[0])


def _glued_pair(
    params: DiracParams,
    theta: float,
    chi,
    norm_sq: float,
    box: float,
    diagnostics: dict,
) -> EnvelopePair:
    """Envelope pair at theta from a real-gauge solution chi(t).

    The sampler maps chi back to the spinor frame with [1, -i conj(e1)] and
    is normalized in L2 on |t| <= box, by ``norm_sq``, the integral of
    |chi|^2 there that the half-line integrations carry.
    """
    norm = np.sqrt(norm_sq)
    e1, _ = real_gauge(params)
    back = np.array([1.0, -1j * np.conj(e1)])

    def sampler(ts: np.ndarray) -> np.ndarray:
        return (chi(ts) / norm) * back[None, :]

    return EnvelopePair(
        params=params, theta=theta, sampler=sampler, box=float(box),
        diagnostics=diagnostics,
    )


def shooting_pair(params: DiracParams, theta_guess: float) -> EnvelopePair:
    """Refine an in-gap eigenvalue by shooting and return the glued pair.

    The independent reference for the Prufer ladder and ``ladder_pair``:
    it integrates the two-component real-gauge system itself, not its angle.
    ``theta_guess`` brackets the root; the bracket is widened geometrically
    until the matching determinant changes sign, and a RuntimeError is
    raised if it never does.  The returned sampler evaluates the dense
    outputs of the two half-line integrations, and the integral of |y|^2
    that they carry normalizes it, so the envelope, its norm and the
    eigenvalue are accurate to the integrator tolerance.
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
    chi_l = left.y[:2, -1]
    chi_r = right.y[:2, -1]
    # glue the right half onto the left one's scale (collinear at the root)
    glue = float(chi_l @ chi_r) / float(chi_r @ chi_r)
    mismatch = float(np.linalg.norm(chi_l - glue * chi_r)) / max(
        np.linalg.norm(chi_l), 1e-300
    )

    def chi(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), 2))
        neg = ts < 0.0
        if np.any(neg):
            out[neg] = left.sol(ts[neg])[:2].T
        if np.any(~neg):
            out[~neg] = glue * right.sol(ts[~neg])[:2].T
        return out

    # the right half runs from +box down to 0, so its integral is negative
    norm_sq = float(left.y[2, -1] - glue * glue * right.y[2, -1])
    return _glued_pair(
        params, theta, chi, norm_sq, box,
        {
            "theta_guess": float(theta_guess),
            "theta_shift": float(theta - theta_guess),
            "glue_mismatch": mismatch,
            "bracket_halfwidth": half,
        },
    )


def ladder_pair(spectrum: Dirac1DSpectrum, branch: int = 0) -> EnvelopePair:
    """Envelope pair for one branch of the Prufer-counted in-gap ladder.

    ``branch`` counts from the middle of the sorted in-gap spectrum
    (branch 0 = eigenvalue closest to zero).
    The eigenvalue is the ladder's own, already refined; the sampler is the
    glued Prufer half-solutions at it (``wall_dirac.glued_mode``) on the
    ladder's box |t| <= spectrum.T, normalized in L2 on that box by the
    integral the halves carry (no samples are taken for it).  The exact
    zero at mu = 0 gets the closed-form ``zero_mode_pair``.
    """
    n = len(spectrum.eigenvalues)
    if n == 0:
        raise ValueError("1D spectrum has no in-gap eigenvalues")
    center = int(np.argmin(np.abs(spectrum.eigenvalues)))
    idx = center + branch
    if not 0 <= idx < n:
        raise ValueError(f"branch {branch} outside the ladder (count {n})")
    theta = float(spectrum.eigenvalues[idx])
    params = spectrum.params
    if branch == 0 and abs(params.mu) < 1e-12 and abs(theta) < 1e-8:
        return zero_mode_pair(params)
    chi, norm_sq = glued_mode(params, theta, spectrum.T)
    return _glued_pair(params, theta, chi, norm_sq, spectrum.T, {})


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

    def complement_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the deflated pseudo-inverse of (P0 - E*) columnwise."""
        co = self.comp_vecs.conj().T @ rhs
        return self.comp_vecs @ (co / (self.comp_vals - self.e_star)[:, None])

    def pair_projection(self, rhs: np.ndarray) -> np.ndarray:
        """(2, k) projection of k fiber columns onto the cone pair."""
        return self.phi.conj().T @ rhs


def quasimode_workspace(
    data: DiracPointData,
    frame: EdgeFrame,
    potential: FourierField,
    wall: DomainWall,
    perturbation: FourierField,
    basis: PlaneWaveBasis,
) -> QuasimodeWorkspace:
    """Diagonalize the unperturbed fiber at the cone and deflate the pair.

    Exactly two eigenvalues must sit inside the ``DEFLATION_TOL`` threshold
    around E*, and the next one must be far outside it.

    The fiber and the momenta are taken at ``frame.xi_of(zeta*, tau*)``,
    with both phases wrapped into [0, 2 pi), while the cone pair's
    coefficients sit on the ball around ``data.xi_star``.  The two differ by
    2 pi S for a dual-lattice vector S: 0 on the (1, 0) edge, but (-1, 0) on
    (0, 1) and (1, 1) and (-1, 1) on (2, 1).  The pair would then be read on
    a translated ball, so a nonzero S raises a ValueError that names the
    edge, the cone and S.
    """
    if data.nu_star is None:
        raise ValueError("cone velocity not computed yet")
    if perturbation.is_vector:
        raise ValueError(
            "quasimode construction supports scalar gap-opening perturbations only"
        )
    xi_star = frame.xi_of(frame.zeta_star(data.which), frame.tau_star(data.which))
    shift = np.rint(frame.lattice.dual_coords(xi_star - data.xi_star)).astype(int)
    if np.any(shift != 0):
        raise ValueError(
            f"edge ({frame.a1}, {frame.a2}), cone {data.which}: the wrapped "
            f"momentum xi_of(zeta*, tau*) is xi* + 2 pi S with S = "
            f"({shift[0]}, {shift[1]}), so the cone pair's coefficients would be "
            "read on a translated plane-wave ball"
        )
    fiber = assemble_fiber(xi_star, 0.0, potential, basis)
    vals, vecs = np.linalg.eigh(fiber.matrix)

    low = vals[: max(data.j_star + 4, 8)]
    scale = max(abs(low[0]), abs(low[-1]), 1.0)
    threshold = DEFLATION_TOL * scale
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
# factored fast fields and the order-delta bracket


class FastField(NamedTuple):
    """A fast-fiber field per transverse node, kept factored: ``basis @ coeffs``.

    ``basis`` is (M, r) fiber columns and ``coeffs`` (r, n) slow coefficients,
    one column per node.  The rank r depends on the ansatz order only, not on
    n or delta, so the W product and the complement solve act on the r basis
    columns where a dense (M, n) field would take n.
    """

    basis: np.ndarray
    coeffs: np.ndarray

    def scaled(self, factor: float) -> FastField:
        return FastField(self.basis, factor * self.coeffs)


def _stack(*fields: FastField) -> FastField:
    """The sum of factored fields, as one field of the summed rank."""
    return FastField(
        np.hstack([f.basis for f in fields]), np.vstack([f.coeffs for f in fields])
    )


def _order1_bracket(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    kap: np.ndarray,
    field: FastField,
    d_field: FastField,
) -> FastField:
    """[2 (kp.D) D_t + 2 mu (ell.D) + kappa W - theta] on a fast field per node.

    ``field`` is the factored field (U, C), ``d_field`` its D_t (U', C'), and
    ``kap`` the wall profile at the n nodes.  The result is factored too,
    columns [2 d_kp U' | 2 mu d_ell U - theta U | W U] on rows [C'; C; kappa C],
    of rank r' + 2 r.
    """
    u = field.basis
    return FastField(
        np.hstack([
            2.0 * ws.d_kp[:, None] * d_field.basis,
            2.0 * pair.mu * ws.d_ell[:, None] * u - pair.theta * u,
            ws.conv_w @ u,
        ]),
        np.vstack([d_field.coeffs, field.coeffs, kap[None, :] * field.coeffs]),
    )


def _deflated_corrector(ws: QuasimodeWorkspace, g: FastField) -> tuple:
    """-(P0 - E*)^+ g on the complement of the cone pair, and g's pair projection.

    Both act on the basis alone: the corrector keeps g's coefficients, and the
    (2, n) projection is (phi^H U) C.
    """
    on_pair = ws.pair_projection(g.basis)
    corrector = -ws.complement_solve(g.basis - ws.phi @ on_pair)
    return FastField(corrector, g.coeffs), on_pair @ g.coeffs


# ---------------------------------------------------------------------------
# envelope correction: the deflated reduced operator


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


# ---------------------------------------------------------------------------
# the ansatz as one series in delta


@dataclass(frozen=True)
class AnsatzSeries:
    """The two-scale ansatz through one order, as a series in delta.

    ``terms`` are (order, power, field) entries in stacking order, each a
    factored fast field that enters times delta**power: phi alpha at (0, 0),
    the first transverse corrector V1 at (1, 1), the envelope correction
    phi beta at (2, 1) and the second corrector V2 at (2, 2).  ``energies``
    are (order, power, coefficient) entries the same way: E* at (0, 0),
    theta at (0, 1) and a2 at (2, 2).  A higher order only appends entries,
    so every lower order is cut from the same record by one rule (``cut``).

    ``diagnostics`` holds the solvability ``defect`` from order 1 on, and at
    order 2 ``a2_imag`` (the imaginary part dropped from a2),
    ``envelope_residual`` (the first-order equation checked on beta) and
    ``projection`` (the pair projection of the order-2 right-hand side).
    """

    alpha: np.ndarray  # (n, 2) envelope samples at the nodes
    terms: tuple  # (order, power, FastField) entries
    energies: tuple  # (order, power, coefficient) entries
    diagnostics: dict

    def cut(self, delta: float, order: int) -> tuple[float, FastField]:
        """Energy and factored field of the ansatz truncated at ``order``.

        Sums the entries of order at most ``order``, each scaled by
        delta**power.  The field's rank is 2, 8 and 38 at orders 0, 1 and 2.
        """
        built = self.terms[-1][0]
        if order > built:
            raise ValueError(f"series built through order {built}, cut at {order}")
        energy = sum(c * delta**p for o, p, c in self.energies if o <= order)
        field = _stack(*(f.scaled(delta**p) for o, p, f in self.terms if o <= order))
        return float(energy), field


def ansatz_series(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    ts: np.ndarray,
    order: int,
) -> AnsatzSeries:
    """The ansatz series through ``order`` on the slow transverse nodes ``ts``.

    The envelope is sampled once; alpha and D_t alpha serve every order.

    Order 1 solves (P0 - E*) V1 = -g per node on the complement of the cone
    pair, g the bracket of the order-0 field (phi, alpha^T), of rank 6 like
    V1.  The projection of g onto the pair is subtracted before the solve (it
    vanishes identically for an exact eigenpair); its pre-subtraction
    magnitude is the solvability ``defect`` and is gated at
    ``SOLVABILITY_TOL``.

    Order 2 assembles the order-delta^2 equation and solves both of its
    halves.  The pair projection fixes (a2, beta): a2 is the envelope average
    of the projected forcing and beta solves the deflated reduced operator
    against what remains (``_envelope_correction``, one banded solve).  The
    complement projection then yields V2 exactly as at order 1.  Every fast
    field stays factored: D_t V1 has rank 8, the bracket on (V1, D_t V1)
    rank 20 and V2 rank 28.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    ts = np.asarray(ts, dtype=float)
    phi = ws.phi
    alpha = pair.alpha(ts)
    bare = FastField(phi, alpha.T)
    terms = [(0, 0, bare)]
    energies = [(0, 0, ws.e_star), (0, 1, pair.theta)]
    diagnostics = {}
    if order >= 1:
        d_alpha = pair.d_alpha(ts, alpha)
        kap = ws.wall(ts)
        g = _order1_bracket(ws, pair, kap, bare, FastField(phi, d_alpha.T))
        v1, projection = _deflated_corrector(ws, g)
        defect = float(np.abs(projection).max())
        if defect > SOLVABILITY_TOL:
            raise SolvabilityViolation(
                f"solvability projection {defect:.3e} exceeds {SOLVABILITY_TOL:.1e}; "
                "the reduced coefficients do not match the fiber (check the fast "
                "cutoff and the envelope eigenvalue accuracy)"
            )
        terms.append((1, 1, v1))
        diagnostics["defect"] = defect
    if order >= 2:
        d2_alpha = pair.d2_alpha(ts, alpha, d_alpha)
        d_kap_t = -1j * ws.wall.derivative(ts)
        h = float(ts[1] - ts[0])
        mu = pair.mu

        # D_t of the order-delta bracket, for D_t V1 via the shared
        # pseudo-inverse: the bracket on D_t of the field, plus D_t kappa
        # times W on the field
        d_g = _stack(
            _order1_bracket(
                ws, pair, kap, FastField(phi, d_alpha.T), FastField(phi, d2_alpha.T)
            ),
            FastField(ws.conv_w @ phi, d_kap_t[None, :] * alpha.T),
        )
        d_v1, _ = _deflated_corrector(ws, d_g)

        on_v1 = _order1_bracket(ws, pair, kap, v1, d_v1)
        curvature = ws.kp_sq * d2_alpha.T + mu**2 * ws.ell_sq * alpha.T
        forcing = ws.pair_projection(on_v1.basis) @ on_v1.coeffs + curvature  # (2, n)
        a2_complex = complex(np.sum(np.conj(alpha.T) * forcing) * h)
        a2 = float(a2_complex.real)

        rho = -(forcing.T - a2 * alpha)
        beta, d_beta, env_res = _envelope_correction(pair, ts, rho, alpha)

        g2 = _stack(
            on_v1,
            _order1_bracket(
                ws, pair, kap, FastField(phi, beta.T), FastField(phi, d_beta.T)
            ),
            FastField(phi, curvature - a2 * alpha.T),
        )
        v2, projection = _deflated_corrector(ws, g2)
        terms += [(2, 1, FastField(phi, beta.T)), (2, 2, v2)]
        energies.append((2, 2, a2))
        diagnostics.update(
            a2_imag=abs(a2_complex.imag),
            envelope_residual=env_res,
            projection=float(np.abs(projection).max()),
        )
    return AnsatzSeries(alpha, tuple(terms), tuple(energies), diagnostics)


# ---------------------------------------------------------------------------
# the sampled ansatz


@dataclass
class QuasimodeAnsatz:
    """A two-scale quasimode sampled on one strip grid.

    ``vector`` is the unit-norm strip sample (t-major, matching the strip
    assembly) of ``series`` cut at ``order``; ``energy`` is E* + delta *
    theta, plus delta^2 * a2 at order 2.
    """

    delta: float
    mu: float
    theta: float
    order: int
    energy: float
    grid: StripGrid
    vector: np.ndarray
    series: AnsatzSeries
    diagnostics: dict = dc_field(default_factory=dict)


def effective_zeta(ws: QuasimodeWorkspace, delta: float, mu: float) -> float:
    """Edge Bloch phase carried by the detuned ansatz: zeta* + mu delta."""
    return float(ws.zeta_star + mu * delta * (ws.frame.ell @ ws.frame.v))


def leading_quasimode(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    grid: StripGrid,
    *,
    order: int = 1,
) -> QuasimodeAnsatz:
    """Sample the two-scale ansatz on a strip grid.

    order 0 is the bare envelope-times-pair product (residual ~ delta),
    order 1 adds the transverse corrector (~ delta^2, the default), and
    order 2 adds the envelope correction, the next energy coefficient, and
    the second transverse corrector (~ delta^3).  The series is built
    through ``order`` (``ansatz_series``) and cut there (``AnsatzSeries.cut``).

    Every fast field is kept factored as fiber columns times slow
    coefficients (``FastField``), of rank 2, 8 and 38 at orders 0, 1 and 2
    whatever the grid; only ``_strip_vector`` forms an array of the strip's
    size, the returned vector itself.

    delta is the grid's and mu the pair's.  The grid must sit at the
    detuned Bloch phase zeta* + mu delta, so the sample lives in the same
    discrete space as an edge solve at that phase.
    """
    delta, mu = grid.delta, pair.mu
    if delta <= 0:
        raise ValueError("delta must be positive")
    zeta_eff = effective_zeta(ws, delta, mu)
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

    series = ansatz_series(ws, pair, ts, order)
    energy, field = series.cut(delta, order)
    return QuasimodeAnsatz(
        delta=float(delta),
        mu=float(mu),
        theta=pair.theta,
        order=order,
        energy=energy,
        grid=grid,
        vector=_strip_vector(ws.frame, ws.data.which, grid, mu, field),
        series=series,
        diagnostics={
            "zeta_effective": zeta_eff,
            "envelope_edge_value": float(np.abs(series.alpha[[0, -1]]).max()),
        },
    )


def _cone_offset(frame: EdgeFrame, which: str, grid: StripGrid) -> float:
    """tau* - tau_ref wrapped into [-pi, pi): the cone's transverse phase on the grid.

    Unwrapped, a tau_ref a full turn from tau* (say -tau*(A) = tau*(B) - 2 pi)
    would give the envelope a momentum of 2 pi, which on a grid of step 0.5
    is the envelope zone edge pi / step, where the mirror channel lives.
    """
    return float((frame.tau_star(which) - grid.tau_ref + np.pi) % TWO_PI - np.pi)


def _strip_vector(
    frame: EdgeFrame, which: str, grid: StripGrid, mu: float, field: FastField
) -> np.ndarray:
    """Unit strip sample (t-major) of a factored fast-fiber field times the edge phase.

    The only place where an array of the strip's size is formed: the t-major
    sample is (C phase)^T U^T, written by one GEMM and normalized in place.
    """
    ell_vp = float(frame.ell @ frame.vp)
    offset = _cone_offset(frame, which, grid)
    phase = np.exp(1j * (offset + mu * grid.delta * ell_vp) * grid.t)
    vector = ((field.coeffs * phase[None, :]).T @ field.basis.T).ravel()
    vector /= np.linalg.norm(vector)
    return vector


def lift_order0(
    data: DiracPointData,
    frame: EdgeFrame,
    basis: PlaneWaveBasis,
    pair: EnvelopePair,
    grid: StripGrid,
) -> np.ndarray:
    """Unit strip sample of the order-0 quasimode: cone pair times envelope.

    ``data`` is the cone nearest the grid's edge phase and ``pair`` an
    envelope pair at the grid's detuning; no workspace is built.  The pair's
    coefficients sit on the ball around xi*, the strip's fast modes on the
    ball around xi_of(zeta, tau_ref).  With the wrapped offset of
    ``_cone_offset``, the cone momentum seen from the strip,
    xi_of(zeta - mu delta, tau_ref + offset), differs from xi* by a
    dual-lattice vector 2 pi S, so coefficient n moves to n - S; a mode moved
    out of the ball is dropped.
    """
    offset = _cone_offset(frame, data.which, grid)
    xi = frame.xi_of(grid.zeta - pair.mu * grid.delta, grid.tau_ref + offset)
    shift = np.rint(frame.lattice.dual_coords(xi - data.xi_star))
    moves = np.all(basis.indices[:, None] - shift == basis.indices[None, :], axis=2)
    cone_pair = moves.T @ np.stack([data.phi1, data.phi2], axis=1)
    field = FastField(cone_pair, pair.alpha(grid.delta * grid.t).T)
    return _strip_vector(frame, data.which, grid, pair.mu, field)


# ---------------------------------------------------------------------------
# residual study


def fit_power_law(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares exponent of y ~ x**a on log-log axes."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass
class ResidualStudy:
    """Residual norms of the sampled ansatz against the strip operators."""

    deltas: np.ndarray
    orders: tuple[int, ...]
    residuals: dict  # order -> array of residual norms, one per delta
    exponents: dict  # order -> fitted power of delta
    defects: np.ndarray  # solvability defect per delta, NaN below order 1
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
    t_factor: float = 4.5,
) -> ResidualStudy:
    """Measure ||(strip - E) u|| / ||u|| across delta for each ansatz order.

    One pass per delta: the strip operator (``strip_terms``, the builder
    the channel solve uses), whose grid the ansatz is sampled on and whose
    Kronecker terms ``kron_apply`` applies without forming the strip
    matrix, and one ``leading_quasimode`` at the highest requested order,
    whose ``ansatz_series`` samples the envelope once and solves each
    corrector once.  The lower orders are cut from the same series
    (``AnsatzSeries.cut``), so every order's vector is the one
    ``leading_quasimode`` builds at that order; the top order's is the
    ansatz's own.  The series' terms are factored fields of rank at most 38,
    and only ``_strip_vector`` forms a strip-sized array from them, so the
    ones alive at once are at most four: the top order's vector, the order's
    own, and the apply's output and fast product.  At delta = 0.02 (M = 85,
    n = 4,501) a vector is 6.1 MB and the study's traced peak 29 MB.  The
    fitted exponents should land near order + 1.

    ``defects`` holds the solvability defect of the first corrector per
    delta, or NaN at every delta when the top order is 0 and no corrector
    is solved.

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
        op = strip_terms(
            ws.frame, ws.potential, ws.wall, zeta_eff, delta, ws.basis,
            perturbation=ws.perturbation, t_factor=t_factor,
        )
        top = leading_quasimode(ws, pair, op.grid, order=max(orders))
        edge_values[i] = top.diagnostics["envelope_edge_value"]
        defects[i] = top.series.diagnostics.get("defect", np.nan)
        for o in sorted(orders):
            if o == top.order:
                energy, vector = top.energy, top.vector
            else:
                energy, field = top.series.cut(delta, o)
                vector = _strip_vector(ws.frame, ws.data.which, op.grid, mu, field)
            u = vector.reshape(op.grid.n_t, op.grid.n_fast)
            residual = kron_apply(op.terms, u)
            residual -= energy * u
            residuals[o][i] = float(np.linalg.norm(residual))
            del residual, vector, u  # before the next order's vector is made
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
