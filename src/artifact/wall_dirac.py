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
are no grid doublers or box-end states to screen out.  ``assemble_dirac``
keeps a centered finite-difference matrix of H as a test reference.

Frame orientation matters for the mu-linear branch: the slope of the
topological eigenvalue is nu_F*|ell| * sgn(mass) * orientation, where
orientation = sgn(Im(kp * conj(ell))) is the signed area of the frame pair.
The derivation is four lines of 2x2 algebra: the zero mode's spinor is the
eigenvector of i*m1*m3 with eigenvalue sgn(mass), and applying m2 to it
picks up exactly that orientation sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
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
    def gap_rate(self) -> float:
        """|mass| scaled speed along t: the essential half-gap at mu = 0."""
        return abs(self.mass)

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

    def essential_edge(self, mu: float | None = None) -> float:
        m = self.mu if mu is None else mu
        return float(np.sqrt(self.mass**2 + (m * self.speed_mu) ** 2))

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
    """In-gap eigenpairs of the reduced operator in a window."""

    params: DiracParams
    T: float
    N: int
    essential_edge: float
    window: tuple[float, float]
    eigenvalues: np.ndarray  # sorted, inside the window
    eigenvectors: np.ndarray  # (2N, len(eigenvalues)) on grid(), t outer
    # always 0: the Prufer count has no grid doublers to reject; the
    # benchmark tracer still reads it
    doubling_rejected: int = 0

    @property
    def min_spacing(self) -> float:
        if len(self.eigenvalues) < 2:
            return np.inf
        return float(np.min(np.diff(self.eigenvalues)))

    def grid(self) -> np.ndarray:
        return np.linspace(-self.T, self.T, self.N)


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

    m1, m2, m3 = params.matrices()
    # D_t: centered antisymmetric stencil, Dirichlet clamp or periodic wrap
    ones = np.ones(N - 1)
    bands = [ones, -ones]
    offsets = [1, -1]
    if periodic:
        bands += [np.array([1.0]), np.array([-1.0])]
        offsets += [-(N - 1), N - 1]
    shift = sp.diags(bands, offsets=offsets, format="csr")
    d_t = (-1j / (2.0 * h)) * shift

    eye = sp.identity(N, format="csr")
    H = (
        sp.kron(d_t, params.speed_t * m1, format="csr")
        + sp.kron(eye, params.mu * params.speed_mu * m2, format="csr")
        + sp.kron(sp.diags(kappa), params.mass * m3, format="csr")
    )
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


def _prufer_half(
    params: DiracParams, theta: float, T: float, side: str, radius: bool
):
    """Integrate the Prufer angle (and log r) from one box end to t = 0.

    Each half starts at its box end on the plateau fixed point of the
    solution that decays away from the wall, 2 phi = atan2(b, m) + arccos(
    theta / R) on the left and - arccos on the right, with m the mass times
    kappa at the box end and R = hypot(m, b); the same solution as the
    shooting end vector.  The arccos branch keeps the start continuous in
    theta, so the mismatch at t = 0 is too.  ``radius`` adds
    (log r)' = (m kappa sin 2phi - b cos 2phi) / s, with log r = 0 at the
    box end, and keeps the dense output.
    """
    s, mass, wall = params.speed_t, params.mass, params.wall
    b = params.mu * params.speed_mu * _real_gauge(params)[1]
    end = -T if side == "left" else T
    m_end = mass * wall(end)
    R = math.hypot(m_end, b)
    if not abs(theta) < R:
        raise ValueError(
            f"theta = {theta:.6f} is not inside the essential gap "
            f"(edge {R:.6f} at t = {end:g})"
        )
    arc = math.acos(theta / R)
    phi0 = 0.5 * (math.atan2(b, m_end) + (arc if side == "left" else -arc))

    def rhs(t, y):
        mk = mass * wall(t)
        c, sn = math.cos(2.0 * y[0]), math.sin(2.0 * y[0])
        dphi = (mk * c + b * sn - theta) / s
        return [dphi, (mk * sn - b * c) / s] if radius else [dphi]

    sol = solve_ivp(
        rhs, (end, 0.0), [phi0, 0.0] if radius else [phi0],
        method="DOP853", rtol=PRUFER_RTOL, atol=PRUFER_ATOL, dense_output=radius,
    )
    if not sol.success:
        raise LadderFailure(
            f"Prufer integration from the {side} box end failed at "
            f"theta = {theta:.12f}: {sol.message}",
            theta=theta, side=side, count=None, found=None,
        )
    return sol


def _sample_mode(
    params: DiracParams, theta: float, T: float, t: np.ndarray
) -> np.ndarray:
    """Eigenvector at an eigenvalue theta, sampled on t, unit 2-norm.

    The halves meet at t = 0 with angles k pi apart, so the right one is
    glued on with the left one's radius and the sign (-1)^k, then mapped
    back to the original spinor frame with [1, -i conj(e1)].
    """
    left = _prufer_half(params, theta, T, "left", radius=True)
    right = _prufer_half(params, theta, T, "right", radius=True)
    k = round((left.y[0, -1] - right.y[0, -1]) / np.pi)
    neg = t < 0.0
    y = np.empty((len(t), 2))
    y[neg] = left.sol(t[neg]).T
    y[~neg] = right.sol(t[~neg]).T
    y[~neg, 1] += left.y[1, -1] - right.y[1, -1]
    amp = np.exp(y[:, 1] - y[:, 1].max())
    amp[~neg] *= (-1.0) ** k
    e1, _ = _real_gauge(params)
    back = np.array([1.0, -1j * np.conj(e1)])
    chi = amp[:, None] * np.column_stack([np.cos(y[:, 0]), np.sin(y[:, 0])])
    vec = (chi * back[None, :]).reshape(-1)
    return vec / np.linalg.norm(vec)


def window_spectrum(
    params: DiracParams, T: float, N: int, window: tuple[float, float]
) -> Dirac1DSpectrum:
    """Every eigenpair of the reduced operator with theta inside ``window``.

    The count is the number of multiples k pi strictly between g(hi) and
    g(lo); each eigenvalue is the root of g - k pi by brentq, and its
    eigenvector is sampled on linspace(-T, T, N).  T is the half-width of
    the integration box, which must hold the wall's plateau half-width.
    Raises LadderFailure if an integration fails or the refined roots are
    not ``count`` distinct values inside the window.
    """
    lo, hi = map(float, window)
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi})")
    if T <= params.wall.plateau_halfwidth:
        raise ValueError(
            f"box half-width {T} must exceed the wall plateau "
            f"{params.wall.plateau_halfwidth}"
        )
    if N < 2:
        raise ValueError("need at least two sample points")

    def g(theta: float) -> float:
        left = _prufer_half(params, theta, T, "left", radius=False)
        right = _prufer_half(params, theta, T, "right", radius=False)
        return float(left.y[0, -1] - right.y[0, -1])

    g_lo, g_hi = g(lo), g(hi)
    ks = range(math.floor(g_hi / np.pi) + 1, math.ceil(g_lo / np.pi))
    roots = [
        float(brentq(lambda th, k=k: g(th) - k * np.pi, lo, hi, xtol=ROOT_XTOL))
        for k in ks
    ]
    roots = np.unique([r for r in roots if lo < r < hi])
    if len(roots) != len(ks):
        raise LadderFailure(
            f"{len(ks)} eigenvalues counted in ({lo:.6f}, {hi:.6f}) but "
            f"{len(roots)} distinct roots refined",
            theta=None, side=None, count=len(ks), found=len(roots),
        )
    t = np.linspace(-T, T, N)
    vecs = [_sample_mode(params, theta, T, t) for theta in roots]
    return Dirac1DSpectrum(
        params=params,
        T=T,
        N=N,
        essential_edge=params.essential_edge(),
        window=(lo, hi),
        eigenvalues=roots,
        eigenvectors=np.column_stack(vecs) if vecs else np.zeros((2 * N, 0), complex),
    )


def gap_spectrum(params: DiracParams, T: float, N: int) -> Dirac1DSpectrum:
    """All in-gap eigenpairs, counted and refined by the Prufer angle.

    The window is the essential gap shrunk by a margin 3/T at each end; see
    ``window_spectrum`` for the count, the roots and the samples.
    """
    edge = params.essential_edge()
    margin = 3.0 / T
    window = (-edge + margin, edge - margin)
    if window[0] >= window[1]:
        raise ValueError("essential gap too small for the boundary margin")
    return window_spectrum(params, T, N, window)


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


def analytic_zero_mode(params: DiracParams, t: np.ndarray) -> np.ndarray:
    """Closed-form zero mode of H(0), normalized on the grid.

    The spinor is the eigenvector of i*m1*m3 with eigenvalue sgn(mass); the
    profile is exp(-(|mass| / (nu_F |kp|)) * int_0^t kappa), which decays on
    both sides because the wall's antiderivative is even and grows linearly.
    """
    m1, _, m3 = params.matrices()
    s = float(np.sign(params.mass))
    op = 1j * (m1 @ m3)
    evals, evecs = np.linalg.eigh(op)
    idx = int(np.argmin(np.abs(evals - s)))
    if abs(evals[idx] - s) > 1e-12:
        raise ValueError("spinor eigenproblem did not produce a +/-1 pair")
    u0 = evecs[:, idx]
    profile = np.exp(-params.decay_rate * params.wall.antiderivative(t))
    mode = (profile[:, None] * u0[None, :]).reshape(-1)
    return mode / np.linalg.norm(mode)


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
