"""The emergent one-dimensional Dirac operator across the domain wall.

Near a gapped cone the edge problem reduces to a 2x2 first-order system on
the slow transverse variable t:

    H(mu) = M(kp) D_t + mu * M(ell) + mass * sigma3 * kappa(t),

with D_t = -i d/dt, M(c) = [[0, nu_star*c], [conj(nu_star*c), 0]] for the
frame vectors kp (transverse dual) and ell (Bloch line direction) read as
complex numbers, and kappa the domain wall.

The in-gap ladder comes from one scalar ODE and no grid.  The spinor gauge
of ``_real_gauge`` turns H alpha = theta alpha into a real 2x2 system whose
solutions r (cos phi, sin phi) carry the Prufer angle

    phi' = (mass * kappa(t) * cos 2phi + b * sin 2phi - theta) / s,

with s = nu_F |kp| and b = mu nu_F |ell| times the gauge sign.  On a plateau
the angle has two fixed points, one per exponential; each half starts at its
box end on the one that decays away from the wall, which is exact on a
bump_smoothstep plateau and asymptotic on a tanh_scaled wall.  Since
d phi' / d theta = -1/s, the mismatch g(theta) = phi_left(0) - phi_right(0)
at the wall center is strictly decreasing, and theta is an eigenvalue
exactly where g crosses a multiple of pi (renormalized oscillation theory:
Gesztesy, Simon & Teschl, Amer. J. Math. 118 (1996) 571; Teschl, Proc. AMS
126 (1998) for Dirac systems).  A window therefore holds as many eigenvalues
as there are multiples of pi strictly between g at its two ends, and each is
the root of g - k pi.  No sample grid can miss two close states, and there
are no grid doublers or box-end states to screen out.

Each root is refined by a safeguarded Newton iteration.  The slope g' =
psi_left(0) - psi_right(0) comes from the variational equation of psi =
d phi / d theta, integrated as one more component of the same half-line
solve.  Since g is strictly decreasing, every evaluation of g narrows the
bracket of every root still open, and a Newton step that leaves its bracket
bisects it instead.

Envelope eigenpairs (``EnvelopePair``) come either from the closed-form zero
mode (mu = 0, center branch, ``zero_mode_pair``) or straight from the
ladder.  ``ladder_pair`` takes the ladder's refined eigenvalue as it stands
and samples the glued Prufer half-solutions at it (angle and log radius,
dense output), normalized in L2 on the ladder's box by the integral of r^2
that the halves carry as one more component; this is the one sampler of a
ladder state.  ``shooting_pair`` is the independent reference the tests hold
it to: it integrates the two-component real-gauge system from both
plateaus, starting on the same decaying plateau solution, and drives the
matching determinant at the wall center to zero in the eigenvalue, on |t|
<= ``SHOOTING_BOX`` at relative tolerance ``SHOOTING_RTOL``.

The envelope correction of the two-scale ansatz at second order
(``envelope_correction``) needs the reduced operator solved with its
eigendirection deflated.  Naive central differences are useless for that:
the discrete first-derivative operator commutes with a sawtooth conjugation
that plants an exact spurious copy of the wall zero mode at the grid scale,
and a mass-channel penalty term cannot lift it (wall zero modes carry no
mass-channel expectation).  We solve the squared operator instead -- a local
Schrodinger form with no lattice artifacts -- which recovers the
first-order solution exactly on the deflated complement.  Its first-order
part is the centered-difference matrix of H that ``assemble_dirac`` also
builds (``_dirac_matrix``), which the tests read as a reference.

Frame orientation matters for the mu-linear branch: the slope of the
topological eigenvalue is nu_F*|ell| * sgn(mass) * orientation, where
orientation = sgn(Im(kp * conj(ell))) is the signed area of the frame pair.
The derivation is four lines of 2x2 algebra: the zero mode's spinor is the
eigenvector of i*m1*m3 with eigenvalue sgn(mass), and applying m2 to it
picks up exactly that orientation sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .dirac_cone import DiracPointData
from .geometry import EdgeFrame
from .potentials import DomainWall


class GridTooCoarse(ValueError):
    """The grid cannot resolve the wall transition."""


class LadderFailure(RuntimeError):
    """The Prufer count or its roots could not be trusted.

    Carries ``theta`` and ``side`` ("left" or "right") of a failed
    half-line integration, and ``count`` (multiples of pi crossed in the
    window) with ``found`` (distinct roots refined inside it) once the count
    is known; a field that does not apply is None.
    """

    def __init__(
        self,
        message: str,
        *,
        theta: float | None,
        side: str | None,
        count: int | None,
        found: int | None,
    ):
        super().__init__(message)
        self.theta = theta
        self.side = side
        self.count = count
        self.found = found


# Relative and absolute tolerance of the Prufer integration, and the xtol of
# each refined eigenvalue.
PRUFER_RTOL = 1e-12
PRUFER_ATOL = 1e-12
ROOT_XTOL = 1e-13

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


@dataclass(frozen=True)
class DiracParams:
    """Coefficients of the reduced operator, all in slow units."""

    nu_star: complex
    kp: complex
    ell: complex
    mass: float
    wall: DomainWall
    mu: float = 0.0

    def __post_init__(self) -> None:
        # the frame pair must be orthogonal; this is what decouples the
        # D_t term from the mu term in the 2x2 algebra
        inner = abs((self.kp * np.conj(self.ell)).real)
        scale = abs(self.kp) * abs(self.ell)
        if scale == 0 or inner > 1e-9 * scale:
            raise ValueError("kp and ell must be nonzero and orthogonal")
        if self.mass == 0:
            raise ValueError("mass must be nonzero (gapped cone)")

    @property
    def nu_f(self) -> float:
        return abs(self.nu_star)

    @property
    def speed_t(self) -> float:
        return self.nu_f * abs(self.kp)

    @property
    def speed_mu(self) -> float:
        return self.nu_f * abs(self.ell)

    @property
    def orientation(self) -> int:
        """Sign of the frame area Im(kp * conj(ell))."""
        return int(np.sign((self.kp * np.conj(self.ell)).imag))

    @property
    def decay_rate(self) -> float:
        """Zero-mode decay rate |mass| / (nu_F |kp|) on the plateaus."""
        return abs(self.mass) / self.speed_t

    def essential_edge(self) -> float:
        return float(np.sqrt(self.mass**2 + (self.mu * self.speed_mu) ** 2))

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m1, m2, m3): unit Hermitian coefficient matrices."""
        e1 = self.nu_star * self.kp / (self.nu_f * abs(self.kp))
        e2 = self.nu_star * self.ell / (self.nu_f * abs(self.ell))
        m1 = np.array([[0.0, e1], [np.conj(e1), 0.0]])
        m2 = np.array([[0.0, e2], [np.conj(e2), 0.0]])
        m3 = np.diag([1.0, -1.0]).astype(complex)
        return m1, m2, m3


def params_from_frames(
    data: DiracPointData,
    edge: EdgeFrame,
    mass: float,
    wall: DomainWall,
    mu: float = 0.0,
) -> DiracParams:
    """Bundle cone data and an edge frame into reduced-operator coefficients."""
    if data.nu_star is None:
        raise ValueError("cone velocity not computed yet")
    return DiracParams(
        nu_star=data.nu_star,
        kp=edge.kp_complex,
        ell=edge.ell_complex,
        mass=mass,
        wall=wall,
        mu=mu,
    )


@dataclass
class Dirac1DSpectrum:
    """In-gap eigenvalues of the reduced operator in a window, on the box |t| <= T.

    A state's samples come from its envelope pair (``ladder_pair``).
    """

    params: DiracParams
    T: float
    window: tuple[float, float]
    eigenvalues: np.ndarray  # sorted, inside the window
    # always 0: the Prufer count has no grid doublers to reject; the
    # benchmark tracer still reads it
    doubling_rejected: int = 0


def _dirac_matrix(
    params: DiracParams, h: float, kappa: np.ndarray, wrap: bool
) -> sp.spmatrix:
    """H(mu) by centered differences on len(kappa) nodes of step h.

    Interleaved layout: unknown (node, spinor) at row 2 node + spinor.  D_t
    is the centered antisymmetric stencil, clamped at the ends or, with
    ``wrap``, closed periodically.  ``assemble_dirac`` and
    ``envelope_correction`` both build H here.
    """
    n = len(kappa)
    m1, m2, m3 = params.matrices()
    off = np.ones(n - 1) / (2.0 * h)
    bands, offsets = [off, -off], [1, -1]
    if wrap:
        bands += [off[:1], -off[:1]]
        offsets += [-(n - 1), n - 1]
    d1 = sp.diags(bands, offsets, format="csr")
    return (
        params.speed_t * sp.kron(-1j * d1, m1)
        + params.mu * params.speed_mu * sp.kron(sp.identity(n, format="csr"), m2)
        + params.mass * sp.kron(sp.diags(kappa), m3)
    )


def assemble_dirac(
    params: DiracParams,
    T: float,
    N: int,
    kappa_const: float | None = None,
    periodic: bool = False,
) -> sp.csr_matrix:
    """Sparse 2N x 2N Hermitian matrix of H(mu) on [-T, T].

    Grid-major layout: unknown (n, spinor) at row 2n + spinor.  kappa_const
    replaces the wall by a constant (the two asymptotic operators are the
    +1 / -1 specializations).  periodic wraps the stencil instead of
    clamping, which only makes sense for constant kappa; the wrapped grid
    contains the zero momentum exactly, so the measured band edge is free
    of the Dirichlet box shift.
    """
    L = params.wall.plateau_halfwidth
    if T < 4 * L:
        raise ValueError(f"need T >= 4L = {4 * L}, got {T}")
    if N < 1000:
        raise ValueError("need at least 1000 grid points")
    if periodic and kappa_const is None:
        raise ValueError("periodic wrap requires a constant kappa")
    t = np.linspace(-T, T, N)
    h = float(t[1] - t[0])
    if kappa_const is None:
        slope = float(np.max(np.abs(params.wall.derivative(t))))
        if h * slope > 0.1:
            raise GridTooCoarse(
                f"h*max|kappa'| = {h * slope:.3f} > 0.1; refine the grid"
            )
        kappa = params.wall(t)
    else:
        kappa = np.full(N, float(kappa_const))
    H = _dirac_matrix(params, h, kappa, wrap=periodic).tocsr()
    H.eliminate_zeros()  # the 2x2 blocks of the kron products store zeros
    return H


def _real_gauge(params: DiracParams) -> tuple[complex, float]:
    """Spinor phase and sign that rotate the reduced operator to real form.

    With U = diag(1, e1) the D_t channel becomes sigma_1 and the mu channel
    becomes -sign * sigma_2 where sign = Im(e2 * conj(e1)) = -orientation;
    substituting chi = (alpha1', i*alpha2') then yields a real 2x2 ODE.
    """
    m1, m2, _ = params.matrices()
    e1 = m1[0, 1]
    sign = float(np.sign(np.imag(m2[0, 1] * np.conj(e1))))
    return e1, sign


def _start_angle(params: DiracParams, theta: float, end: float) -> tuple[float, float]:
    """Prufer angle at the box end ``end`` and its theta derivative.

    The angle is the plateau fixed point of the solution that decays away
    from the wall, 2 phi = atan2(b, m) + arccos(theta / R) at the left end
    (end < 0) and - arccos at the right, with m the mass times kappa at the
    end and R = hypot(m, b).  The arccos branch keeps it continuous in
    theta, so the mismatch at t = 0 is too; its theta derivative is
    -/+ 1 / (2 sqrt(R^2 - theta^2)).
    """
    b = params.mu * params.speed_mu * _real_gauge(params)[1]
    m_end = params.mass * params.wall(end)
    R = math.hypot(m_end, b)
    if not abs(theta) < R:
        raise ValueError(
            f"theta = {theta:.6f} is not inside the essential gap "
            f"(edge {R:.6f} at t = {end:g})"
        )
    sgn = 1.0 if end < 0 else -1.0
    phi0 = 0.5 * (math.atan2(b, m_end) + sgn * math.acos(theta / R))
    return phi0, -sgn / (2.0 * math.sqrt(R * R - theta * theta))


def _prufer_half(
    params: DiracParams, theta: float, T: float, side: str, radius: bool
):
    """Integrate the Prufer angle and more components from a box end to t = 0.

    The half starts on ``_start_angle`` at its box end.  With ``radius`` the
    second component is log r, (log r)' = (m kappa sin 2phi - b cos 2phi) /
    s with log r = 0 at the box end, the third is w, the integral of r^2 in
    units of the current r^2, w' = 1 - 2 (log r)' w, and the dense output is
    kept; otherwise the second is the variational psi = d phi / d theta,
    psi' = (2 (b cos 2phi - m kappa sin 2phi) psi - 1) / s, started on the
    theta derivative of the start angle.

    Scaled so, w stays of order the decay length however far r grows.  It
    starts on its plateau value 1 / (2 (log r)'), the integral of the
    exponential tail beyond the box end, so it holds still along the plateau
    rather than relaxing onto it over many steps.  At t = 0 the half's own
    integral of (r / r(0))^2, signed by the direction of integration, is
    ``w(0) - w(end) / r(0)^2``.
    """
    s, mass, wall = params.speed_t, params.mass, params.wall
    b = params.mu * params.speed_mu * _real_gauge(params)[1]
    end = -T if side == "left" else T
    phi0, dphi0 = _start_angle(params, theta, end)

    def rhs(t, y):
        mk = mass * wall(t)
        c, sn = math.cos(2.0 * y[0]), math.sin(2.0 * y[0])
        dphi = (mk * c + b * sn - theta) / s
        if radius:
            dlog_r = (mk * sn - b * c) / s
            return [dphi, dlog_r, 1.0 - 2.0 * dlog_r * y[2]]
        return [dphi, (2.0 * (b * c - mk * sn) * y[1] - 1.0) / s]

    start = [phi0, dphi0]
    if radius:
        start = [phi0, 0.0, 0.0]
        start[2] = 0.5 / rhs(end, start)[1]
    sol = solve_ivp(
        rhs, (end, 0.0), start,
        method="DOP853", rtol=PRUFER_RTOL, atol=PRUFER_ATOL, dense_output=radius,
    )
    if not sol.success:
        raise LadderFailure(
            f"Prufer integration from the {side} box end failed at "
            f"theta = {theta:.12f}: {sol.message}",
            theta=theta, side=side, count=None, found=None,
        )
    return sol


def _mismatch(params: DiracParams, theta: float, T: float) -> tuple[float, float]:
    """g = phi_left(0) - phi_right(0) and its slope psi_left(0) - psi_right(0)."""
    left = _prufer_half(params, theta, T, "left", radius=False)
    right = _prufer_half(params, theta, T, "right", radius=False)
    g, slope = left.y[:, -1] - right.y[:, -1]
    return float(g), float(slope)


def _glued_mode(params: DiracParams, theta: float, T: float):
    """Real-gauge eigenfunction chi(t) at an eigenvalue theta, chi(0) of unit length.

    The two Prufer halves meet at t = 0 with angles k pi apart, so the right
    one is glued on with the left one's radius and the sign (-1)^k.  Returns
    ``(chi, norm_sq)``: a function that maps an array of t to (n, 2) real
    values, evaluating the dense outputs of both halves, and the integral
    of |chi|^2 over [-T, T], which the halves carry to integrator accuracy.
    """
    left = _prufer_half(params, theta, T, "left", radius=True)
    right = _prufer_half(params, theta, T, "right", radius=True)
    sign = (-1.0) ** round((left.y[0, -1] - right.y[0, -1]) / np.pi)

    def chi(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        y = np.empty((len(ts), 2))
        amp = np.empty(len(ts))
        for half, mask, scale in ((left, ts < 0.0, 1.0), (right, ts >= 0.0, sign)):
            if np.any(mask):
                y[mask] = half.sol(ts[mask])[:2].T
                amp[mask] = scale * np.exp(y[mask, 1] - half.y[1, -1])
        return amp[:, None] * np.column_stack([np.cos(y[:, 0]), np.sin(y[:, 0])])

    left_sq, right_sq = (
        half.y[2, -1] - half.y[2, 0] * np.exp(-2.0 * half.y[1, -1])
        for half in (left, right)
    )
    return chi, float(left_sq - right_sq)


def _refine_roots(mismatch, levels, ends) -> list[float]:
    """The theta with g(theta) = level for each level, by safeguarded Newton.

    ``mismatch`` returns (g, g') of a strictly decreasing g, and ``ends``
    holds (theta, g, g') at the two window ends, which bracket every level.
    Every evaluation narrows the bracket of every level.  A Newton step that
    leaves its bracket bisects it instead.  A root is done, after its last
    Newton step, once g meets its level to within the integrator's
    tolerance on the two angles it subtracts, which differ by the level
    there: ``PRUFER_RTOL * |level| + 2 * PRUFER_ATOL``.  A further
    evaluation would only resolve rounding noise.  It is also done once its
    Newton step (or half-bracket) is under ``ROOT_XTOL``.
    """
    levels = np.asarray(levels, dtype=float)
    (lo, *at_lo), (hi, *at_hi) = ends
    below = np.full(len(levels), lo)  # g(below) > level
    above = np.full(len(levels), hi)  # g(above) < level
    seen = {lo: at_lo, hi: at_hi}
    roots = []
    for i, level in enumerate(levels):
        noise = PRUFER_RTOL * abs(level) + 2.0 * PRUFER_ATOL
        # start from the bracket end with the shorter Newton step
        x = min(
            (below[i], above[i]),
            key=lambda th: abs((seen[th][0] - level) / seen[th][1]),
        )
        f, slope = seen[x]
        while True:
            step = (level - f) / slope
            if abs(level - f) <= noise or abs(step) < ROOT_XTOL:
                x += step
                break
            if below[i] < x + step < above[i]:
                x += step
            else:
                x = 0.5 * (below[i] + above[i])
                if above[i] - below[i] < 2.0 * ROOT_XTOL:
                    break
            f, slope = seen[x] = mismatch(x)
            below[f > levels] = np.maximum(below[f > levels], x)
            above[f < levels] = np.minimum(above[f < levels], x)
        roots.append(float(x))
    return roots


def window_spectrum(
    params: DiracParams, T: float, window: tuple[float, float]
) -> Dirac1DSpectrum:
    """Every eigenvalue of the reduced operator with theta inside ``window``.

    The count is the number of multiples k pi strictly between g(hi) and
    g(lo); each eigenvalue is the root of g - k pi, refined by
    ``_refine_roots`` on the slope from the variational equation.  A state
    is sampled through its envelope pair (``ladder_pair``).  T is the
    half-width of the integration box, which must hold the wall's
    plateau half-width.  Raises LadderFailure if an integration fails or the
    refined roots are not ``count`` distinct values inside the window.
    """
    lo, hi = map(float, window)
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi})")
    if T <= params.wall.plateau_halfwidth:
        raise ValueError(
            f"box half-width {T} must exceed the wall plateau "
            f"{params.wall.plateau_halfwidth}"
        )

    ends = [(theta, *_mismatch(params, theta, T)) for theta in (lo, hi)]
    g_lo, g_hi = ends[0][1], ends[1][1]
    ks = range(math.floor(g_hi / np.pi) + 1, math.ceil(g_lo / np.pi))
    roots = _refine_roots(
        lambda theta: _mismatch(params, theta, T), [k * np.pi for k in ks], ends
    )
    roots = np.unique([r for r in roots if lo < r < hi])
    if len(roots) != len(ks):
        raise LadderFailure(
            f"{len(ks)} eigenvalues counted in ({lo:.6f}, {hi:.6f}) but "
            f"{len(roots)} distinct roots refined",
            theta=None, side=None, count=len(ks), found=len(roots),
        )
    return Dirac1DSpectrum(params=params, T=T, window=(lo, hi), eigenvalues=roots)


def gap_spectrum(params: DiracParams, T: float, N: int) -> Dirac1DSpectrum:
    """All in-gap eigenvalues, counted and refined by the Prufer angle.

    The window is the essential gap shrunk by a margin 3/T at each end; see
    ``window_spectrum`` for the count and the roots.  ``N`` is not read: it
    stays in the signature because the benchmark calls it with one.
    """
    edge = params.essential_edge()
    margin = 3.0 / T
    window = (-edge + margin, edge - margin)
    if window[0] >= window[1]:
        raise ValueError("essential gap too small for the boundary margin")
    return window_spectrum(params, T, window)


def measured_essential_edge(
    params: DiracParams, T: float, N: int, side: float = 1.0
) -> float:
    """Smallest |eigenvalue| of the constant-coefficient specialization.

    Uses the periodic wrap so the grid momenta include zero; a clamped box
    would shift the band bottom by the quantization offset ~(pi/2T)^2.
    """
    H = assemble_dirac(params, T, N, kappa_const=side, periodic=True)
    v0 = np.random.default_rng(12345).standard_normal(H.shape[0])
    # k must exceed the magnitude tie at the gap edges: the +/- band extremes
    # and the grid doubler give four inverse eigenvalues of equal modulus, and
    # asking for fewer than the tie stalls the iteration.
    vals = spla.eigsh(
        H, k=8, sigma=0.0, which="LM", v0=v0, return_eigenvectors=False,
        maxiter=2000,
    )
    return float(np.min(np.abs(vals)))


def predict_mu_spectrum(
    base: Dirac1DSpectrum, mu: float, params: DiracParams
) -> list[tuple[float, str]]:
    """Eigenvalues at mu from the mu = 0 spectrum, with branch labels.

    The zero eigenvalue moves linearly, slope nu_F*|ell| * sgn(mass) *
    orientation; every nonzero pair +/-x moves to -/+sqrt(x^2 + (mu
    nu_F|ell|)^2).  Sorted by value.
    """
    if abs(base.params.mu) > 0:
        raise ValueError("base spectrum must be computed at mu = 0")
    shift = mu * params.speed_mu
    slope_sign = float(np.sign(params.mass)) * params.orientation
    out: list[tuple[float, str]] = []
    for val in base.eigenvalues:
        if abs(val) < 1e-6:
            out.append((shift * slope_sign, "topological"))
        else:
            out.append(
                (float(np.sign(val)) * np.sqrt(val**2 + shift**2), "paired")
            )
    return sorted(out, key=lambda pair: pair[0])


def susy_conjugation_residual(params: DiracParams, T: float, N: int) -> float:
    """max |m2 H m2 + H| at mu = 0: the chiral conjugation flips the sign."""
    if params.mu != 0:
        raise ValueError("the conjugation identity holds at mu = 0")
    H = assemble_dirac(params, T, N)
    _, m2, _ = params.matrices()
    M2 = sp.kron(sp.identity(N, format="csr"), m2, format="csr")
    resid = M2 @ H @ M2 + H
    scale = max(float(np.abs(H.data).max()), 1e-300)
    return float(np.abs(resid.data).max() / scale) if resid.nnz else 0.0


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
    with phi0 the Prufer start angle of ``_start_angle``: the plateau
    solution that decays away from the wall, continuous in theta.
    A third component carries the integral of |y|^2 from the box end.  The
    tolerance is relative on y, which grows from unit length toward the
    wall; the integral starts at 0 with a unit integrand, so it gets the
    absolute tolerance ``SHOOTING_RTOL`` as well.
    """
    p = params
    s, smu, mass = p.speed_t, p.speed_mu, p.mass
    _, sign = _real_gauge(p)
    b = p.mu * smu * sign

    def rhs(t, y):
        mk = mass * p.wall(t)
        return [
            (-b * y[0] + (theta + mk) * y[1]) / s,
            ((mk - theta) * y[0] + b * y[1]) / s,
            y[0] * y[0] + y[1] * y[1],
        ]

    def half(end: float):
        phi0, _ = _start_angle(p, theta, end)
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
    e1, _ = _real_gauge(params)
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
    glued Prufer half-solutions at it (``_glued_mode``) on the ladder's
    box |t| <= spectrum.T, normalized in L2 on that box by the integral the
    halves carry (no samples are taken for it).  The exact zero at mu = 0
    gets the closed-form ``zero_mode_pair``.
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
    chi, norm_sq = _glued_mode(params, theta, spectrum.T)
    return _glued_pair(params, theta, chi, norm_sq, spectrum.T, {})


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


def envelope_correction(
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
    banded LU of the squared operator.  Its first-order part is
    ``_dirac_matrix``, the difference matrix of ``assemble_dirac``.
    """
    p = pair.params
    n = len(ts)
    h = float(ts[1] - ts[0])
    s, mass, theta = p.speed_t, p.mass, pair.theta
    m1, _, m3 = p.matrices()
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
        squared = squared - 2.0 * theta * _dirac_matrix(p, h, kap, wrap=False)
    squared = squared.tocsr()

    w = alpha.ravel()
    w = w / np.linalg.norm(w)
    beta = _bordered_solve(squared, w, rhs).reshape(n, 2)

    d_beta = np.zeros_like(beta)
    d_beta[1:-1] = (beta[2:] - beta[:-2]) / (2.0 * h)
    d_beta *= -1j
    check = _reduced_matrix_apply(p, theta, ts, beta, d_beta) - rho
    return beta, d_beta, float(np.abs(check).max())
