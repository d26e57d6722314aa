"""The emergent one-dimensional Dirac operator across the domain wall.

Near a gapped cone the edge problem reduces to a 2x2 first-order system on
the slow transverse variable t:

    H(mu) = M(kp) D_t + mu * M(ell) + mass * sigma3 * kappa(t),

with D_t = -i d/dt, M(c) = [[0, nu_star*c], [conj(nu_star*c), 0]] for the
frame vectors kp (transverse dual) and ell (Bloch line direction) read as
complex numbers, and kappa the domain wall.

The in-gap ladder comes from one scalar ODE and no grid.  The spinor gauge
of ``real_gauge`` turns H alpha = theta alpha into a real 2x2 system whose
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
bisects it instead.  The eigenvectors are the glued half-line solutions,
with (log r)' integrated beside phi, and are sampled only when a caller
reads them.  ``assemble_dirac`` keeps a centered finite-difference matrix of
H as a test reference.

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
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

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

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(2N, len(eigenvalues)) unit eigenvectors on grid(), t outer.

        Sampled from the glued Prufer halves on first read, so a caller that
        needs only the eigenvalues integrates no radius.
        """
        t = self.grid()
        vecs = [_sample_mode(self.params, th, self.T, t) for th in self.eigenvalues]
        return np.column_stack(vecs) if vecs else np.zeros((2 * self.N, 0), complex)


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


def real_gauge(params: DiracParams) -> tuple[complex, float]:
    """Spinor phase and sign that rotate the reduced operator to real form.

    With U = diag(1, e1) the D_t channel becomes sigma_1 and the mu channel
    becomes -sign * sigma_2 where sign = Im(e2 * conj(e1)) = -orientation;
    substituting chi = (alpha1', i*alpha2') then yields a real 2x2 ODE.
    """
    m1, m2, _ = params.matrices()
    e1 = m1[0, 1]
    sign = float(np.sign(np.imag(m2[0, 1] * np.conj(e1))))
    return e1, sign


def start_angle(params: DiracParams, theta: float, end: float) -> tuple[float, float]:
    """Prufer angle at the box end ``end`` and its theta derivative.

    The angle is the plateau fixed point of the solution that decays away
    from the wall, 2 phi = atan2(b, m) + arccos(theta / R) at the left end
    (end < 0) and - arccos at the right, with m the mass times kappa at the
    end and R = hypot(m, b).  The arccos branch keeps it continuous in
    theta, so the mismatch at t = 0 is too; its theta derivative is
    -/+ 1 / (2 sqrt(R^2 - theta^2)).
    """
    b = params.mu * params.speed_mu * real_gauge(params)[1]
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

    The half starts on ``start_angle`` at its box end.  With ``radius`` the
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
    b = params.mu * params.speed_mu * real_gauge(params)[1]
    end = -T if side == "left" else T
    phi0, dphi0 = start_angle(params, theta, end)

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


def glued_mode(params: DiracParams, theta: float, T: float):
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


def _sample_mode(
    params: DiracParams, theta: float, T: float, t: np.ndarray
) -> np.ndarray:
    """Eigenvector at an eigenvalue theta, sampled on t, unit 2-norm.

    The glued real-gauge solution is mapped back to the original spinor
    frame with [1, -i conj(e1)].
    """
    e1, _ = real_gauge(params)
    back = np.array([1.0, -1j * np.conj(e1)])
    chi, _ = glued_mode(params, theta, T)
    vec = (chi(t) * back[None, :]).reshape(-1)
    return vec / np.linalg.norm(vec)


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
    params: DiracParams, T: float, N: int, window: tuple[float, float]
) -> Dirac1DSpectrum:
    """Every eigenpair of the reduced operator with theta inside ``window``.

    The count is the number of multiples k pi strictly between g(hi) and
    g(lo); each eigenvalue is the root of g - k pi, refined by
    ``_refine_roots`` on the slope from the variational equation.  The
    eigenvectors are sampled on linspace(-T, T, N) when first read.  T is
    the half-width of the integration box, which must hold the wall's
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
    if N < 2:
        raise ValueError("need at least two sample points")

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
    return Dirac1DSpectrum(
        params=params,
        T=T,
        N=N,
        essential_edge=params.essential_edge(),
        window=(lo, hi),
        eigenvalues=roots,
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
