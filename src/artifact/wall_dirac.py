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
the angle has two fixed points, one per exponential; each half starts on the
one that decays away from the wall.  Since
d phi' / d theta = -1/s, the mismatch g(theta) = phi_left(0) - phi_right(0)
at the wall center is strictly decreasing, and theta is an eigenvalue
exactly where g crosses a multiple of pi (renormalized oscillation theory:
Gesztesy, Simon & Teschl, Amer. J. Math. 118 (1996) 571; Teschl, Proc. AMS
126 (1998) for Dirac systems).  A window therefore holds as many eigenvalues
as there are multiples of pi strictly between g at its two ends, and each is
the root of g - k pi.  No sample grid can miss two close states, and there
are no grid doublers or box-end states to screen out.

Every half-line solution comes from one propagator.  The real-gauge system
chi' = M(t; theta) chi is linear, 2x2 and traceless, and M is constant on a
bump_smoothstep plateau, where the solution that decays away from the wall
is an eigenvector of M: its angle holds and log r falls linearly with |t|.
So each half starts in closed form on ``_start_angle`` at the plateau's
inner end |t| = L and crosses |t| < L in equal sixth-order Magnus steps
(``_magnus``: the Gauss three-point method of Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009) 151), each step's exponential in closed form.  The
steps are evaluated in numpy over all steps, both halves and all theta at
once, then applied in order, tracking the Prufer angle step by step.  A
tanh_scaled wall, whose plateau is only asymptotic, is stepped from its box
ends.  No ODE is integrated adaptively.

Each root is refined by a safeguarded Newton iteration, all roots of a
window at once.  The slope needs no variational equation: psi = d phi / d
theta obeys (r^2 psi)' = -r^2 / s and r^2 psi vanishes deep in each plateau,
so g' = -(1/s) times the integral of (r / r(0))^2 over both half-lines.  The
halves carry that integral as a Gauss sum over their steps plus the
closed-form plateau tail.  Since g is strictly decreasing, every evaluation
of g narrows the bracket of every root still open, and a Newton step that
leaves its bracket bisects it instead.

Envelope eigenpairs (``EnvelopePair``) come either from the closed-form zero
mode (mu = 0, center branch, ``zero_mode_pair``) or from the halves.
``ladder_pair`` takes the ladder's refined eigenvalue as it stands and
samples the glued halves at it, from their node values and one partial
Magnus step per sample, normalized in L2 over the line by the integral that
gives the slope; this is the one sampler of a ladder state.
``shooting_pair`` is the same ladder counted in a window around a guess
(``window_spectrum``), its root nearest the guess sampled the same way; it
has no root search of its own and is no independent check of the ladder:
the tests hold both to an adaptive integration of their own.

The envelope correction of the two-scale ansatz at second order
(``envelope_correction``) needs the reduced operator solved with its
eigendirection deflated.  Naive central differences are useless for that:
the discrete first-derivative operator commutes with a sawtooth conjugation
that plants an exact spurious copy of the wall zero mode at the grid scale,
and a mass-channel penalty term cannot lift it (wall zero modes carry no
mass-channel expectation).  We solve the squared operator instead -- a local
Schrodinger form with no lattice artifacts -- which recovers the
first-order solution exactly on the deflated complement.  Its 2x2 node
blocks go straight into LAPACK band storage, so the solve needs no sparse
matrix; its first-order part is the centered-difference matrix of H, which
the tests assemble as their difference reference.

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
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import solve_banded

from .dirac_cone import DiracPointData
from .geometry import EdgeFrame
from .potentials import DomainWall


class GridTooCoarse(ValueError):
    """The grid cannot resolve the wall transition."""


class LadderFailure(RuntimeError):
    """The Prufer count or its roots could not be trusted.

    Carries ``theta`` and ``side`` ("left" or "right") of a half whose
    Magnus step turned the angle too far, and ``count`` (multiples of pi
    crossed in the window) with ``found`` (distinct roots refined inside it)
    once the count is known; a field that does not apply is None.
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


# Magnus step across the wall, in decay lengths s / R (R the essential
# edge), and a bound on the error of the mismatch g(theta) at that step:
# against an adaptive DOP853 at rtol 3e-14 it is at most 1.7e-13 on the base,
# mu = 0.3, rich and tanh walls of the tests.  A refined root is done once g
# meets its level to within that bound; its xtol is ROOT_XTOL.
MAGNUS_STEP = 0.02
MAGNUS_ERROR = 5e-13
ROOT_XTOL = 1e-13

# Shooting: half-width (slow units) of the box, which a tanh_scaled wall is
# stepped across, and half-width of the theta window searched around the
# guess.
SHOOTING_BOX = 30.0
SHOOTING_WINDOW = 0.128

# Gauss-Legendre rule on [-1, 1] for the zero mode's norm across a bump
# wall's transition.
_NORM_NODES, _NORM_WEIGHTS = np.polynomial.legendre.leggauss(48)

# The three-point Gauss-Legendre rule on [0, 1]: the nodes of a Magnus step
# and the quadrature of r^2 over it.
_GAUSS_NODES = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0

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


def _start_angle(
    params: DiracParams, theta: np.ndarray, end: float
) -> tuple[np.ndarray, np.ndarray]:
    """Prufer angle at the plateau point ``end`` and the decay rate there, per theta.

    The angle is the plateau fixed point of the solution that decays away
    from the wall, 2 phi = atan2(b, m) + arccos(theta / R) on the left (end
    < 0) and - arccos on the right, with m the mass times kappa at the end
    and R = hypot(m, b).  The arccos branch keeps it continuous in theta, so
    the mismatch at t = 0 is too.  The rate sqrt(R^2 - theta^2) / s is the
    one at which log r falls with |t| on the plateau.
    """
    b = params.mu * params.speed_mu * _real_gauge(params)[1]
    m_end = params.mass * params.wall(end)
    R = math.hypot(m_end, b)
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.abs(theta) < R):
        worst = float(theta.flat[np.argmax(np.abs(theta))])
        raise ValueError(
            f"theta = {worst:.6f} is not inside the essential gap "
            f"(edge {R:.6f} at t = {end:g})"
        )
    sgn = 1.0 if end < 0 else -1.0
    phi0 = 0.5 * (math.atan2(b, m_end) + sgn * np.arccos(theta / R))
    return phi0, np.sqrt(R * R - theta * theta) / params.speed_t


def _bracket(u, v) -> tuple:
    """[u, v] of two elements z Z + j J + x X of sl(2, R), as (z, j, x)."""
    (z1, j1, x1), (z2, j2, x2) = u, v
    return (
        2.0 * (j1 * x2 - x1 * j2),
        2.0 * (z1 * x2 - x1 * z2),
        2.0 * (z1 * j2 - j1 * z2),
    )


def _magnus(
    params: DiracParams, theta: np.ndarray, t0: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One sixth-order Magnus step of the real-gauge system from t0 over h.

    The system is chi' = M chi with M = (-b Z + theta J + m kappa(t) X) / s,
    on Z = diag(1, -1), J = [[0, 1], [-1, 0]] and X = [[0, 1], [1, 0]], whose
    brackets are [Z, X] = 2J, [J, X] = 2Z and [Z, J] = 2X.  With a1 = h M at
    the middle Gauss node, a2 = (sqrt(15) / 3) h (M3 - M1) and a3 = (10 / 3)
    h (M3 - 2 M2 + M1) over the three nodes, the step is exp(Omega) with

        Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240,
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60

    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151).  Omega is
    traceless, so Omega^2 = w^2 I with w^2 = -det Omega and exp(Omega) =
    cosh(w) I + (sinh(w) / w) Omega, with cos and sin when w^2 < 0.  On zeta
    = chi_0 + i chi_1 the step is zeta -> A zeta + B conj(zeta); returns (A,
    B), broadcast over theta, t0 and h (h < 0 steps backward).
    """
    b = params.mu * params.speed_mu * _real_gauge(params)[1]
    q = h / params.speed_t
    m1, m2, m3 = (params.mass * params.wall(t0 + c * h) for c in _GAUSS_NODES)
    a1 = (-b * q, theta * q, m2 * q)
    a2 = (0.0, 0.0, math.sqrt(15.0) / 3.0 * q * (m3 - m1))
    a3 = (0.0, 0.0, 10.0 / 3.0 * q * (m3 - 2.0 * m2 + m1))
    c1 = _bracket(a1, a2)
    c2 = [-v / 60.0 for v in _bracket(a1, [2.0 * u + v for u, v in zip(a3, c1)])]
    outer = _bracket(
        [-20.0 * u - v + c for u, v, c in zip(a1, a3, c1)],
        [u + c for u, c in zip(a2, c2)],
    )
    z, j, x = (u + v / 12.0 + o / 240.0 for u, v, o in zip(a1, a3, outer))
    w2 = z * z + x * x - j * j
    w = np.sqrt(np.abs(w2))
    cosh = np.where(w2 > 0.0, np.cosh(w), np.cos(w))
    sinhc = np.divide(
        np.where(w2 > 0.0, np.sinh(w), np.sin(w)), w,
        out=np.ones_like(w), where=w > 0.0,
    )
    return cosh - 1j * sinhc * j, sinhc * (z + 1j * x)


class _Halves(NamedTuple):
    """Both Prufer halves at m values of theta, from the plateaus to t = 0.

    Axis 1 of the node arrays is the side (left, right).  ``nodes`` (n + 1,
    2) run from -p and +p to 0; ``zeta`` (n + 1, 2, m) is the unit vector
    chi / r at the nodes as chi_0 + i chi_1, and ``log_r`` its log radius, 0
    at +-p.  ``rate`` (2, m) is the decay rate beyond +-p, ``angle`` (2, m)
    the Prufer angle at t = 0, and ``norm`` (2, m) the integral of (r /
    r(0))^2 over each half-line, plateau tail included.
    """

    nodes: np.ndarray
    zeta: np.ndarray
    log_r: np.ndarray
    rate: np.ndarray
    angle: np.ndarray
    norm: np.ndarray


def _halves(params: DiracParams, theta: np.ndarray, box: float) -> _Halves:
    """Propagate both Prufer halves at each theta in the 1-D array ``theta``.

    Each half starts on ``_start_angle`` at +-p, with p = L on a
    bump_smoothstep wall (exact: the plateau beyond is closed form) and p =
    ``box`` on a tanh_scaled wall, and crosses |t| < p in n equal Magnus
    steps, n = ceil(p R / (MAGNUS_STEP s)).  The step matrices of all steps,
    both sides and all theta come from one call of ``_magnus``; applying
    them in order is the one loop.  A step that turns the angle by pi/4 or
    more raises LadderFailure with its theta and side.  Each step's
    three-point Gauss sum of r^2 reaches its nodes by partial Magnus steps.
    """
    p = params.wall.plateau_halfwidth if params.wall.kind == "bump_smoothstep" else box
    n = math.ceil(p * params.essential_edge() / (MAGNUS_STEP * params.speed_t))
    left = np.linspace(-p, 0.0, n + 1)
    nodes = np.column_stack([left, -left])
    t0, h = nodes[:-1, :, None], np.diff(nodes, axis=0)[:, :, None]
    A, B = _magnus(params, theta, t0, h)
    starts = [_start_angle(params, theta, end) for end in (-p, p)]
    zeta = np.empty((n + 1, 2, len(theta)), dtype=complex)
    angle0 = np.array([phi0 for phi0, _ in starts])
    zeta[0] = np.exp(1j * angle0)
    growth = np.empty((n, 2, len(theta)))
    for k in range(n):
        step = A[k] * zeta[k] + B[k] * np.conj(zeta[k])
        growth[k] = np.abs(step)
        zeta[k + 1] = step / growth[k]
    turn = np.angle(zeta[1:] * np.conj(zeta[:-1]))
    bad = ~(np.abs(turn) < 0.25 * np.pi)  # NaN counts as bad
    if bad.any():
        k, side, i = np.argwhere(bad)[0]
        name = ("left", "right")[side]
        raise LadderFailure(
            f"a Magnus step from the {name} plateau turned the Prufer angle by "
            f"{turn[k, side, i]:.3f} at theta = {theta[i]:.12f} (pi/4 at most)",
            theta=float(theta[i]), side=name, count=None, found=None,
        )
    log_r = np.concatenate([np.zeros((1, 2, len(theta))), np.cumsum(np.log(growth), 0)])
    rate = np.array([r for _, r in starts])
    # r^2 at each step's Gauss nodes, by partial steps from its start node
    A, B = _magnus(params, theta, t0[:, None], h[:, None] * _GAUSS_NODES[:, None, None])
    inner = zeta[:-1, None]
    r_sq = np.abs(A * inner + B * np.conj(inner)) ** 2 * np.exp(
        2.0 * (log_r[:-1, None] - log_r[-1])
    )
    transition = np.einsum("kisj,i,ks->sj", r_sq, _GAUSS_WEIGHTS, np.abs(h[:, :, 0]))
    return _Halves(
        nodes=nodes, zeta=zeta, log_r=log_r, rate=rate,
        angle=angle0 + turn.sum(axis=0),
        norm=transition + np.exp(-2.0 * log_r[-1]) / (2.0 * rate),
    )


def _mismatch(params: DiracParams, theta, T: float) -> tuple[np.ndarray, np.ndarray]:
    """g = phi_left(0) - phi_right(0) and its slope g', each shaped like ``theta``.

    psi = d phi / d theta obeys (r^2 psi)' = -r^2 / s and r^2 psi vanishes
    deep in each plateau, so psi(0) is -(1/s) times the left half's norm and
    +(1/s) times the right one's: g' = -(norm_left + norm_right) / s.
    """
    halves = _halves(params, np.atleast_1d(np.asarray(theta, dtype=float)), T)
    g = halves.angle[0] - halves.angle[1]
    slope = -(halves.norm[0] + halves.norm[1]) / params.speed_t
    return g.reshape(np.shape(theta)), slope.reshape(np.shape(theta))


def _glued_mode(params: DiracParams, theta: float, T: float):
    """Real-gauge eigenfunction chi(t) at an eigenvalue theta, chi(0) of unit length.

    The two halves meet at t = 0 with angles k pi apart, so the right one is
    glued on with the sign (-1)^k.  Returns ``(chi, norm_sq)``: a function
    that maps an array of t to (n, 2) real values, and the integral of
    |chi|^2 over the line, which the halves carry.  A sample inside |t| < p
    takes one partial Magnus step from the node of its half before it; one
    beyond falls off the node at +-p at the plateau's decay rate.
    """
    halves = _halves(params, np.array([float(theta)]), T)
    nodes = halves.nodes
    n, p = len(nodes) - 1, -nodes[0, 0]
    sign = (-1.0) ** round(float(halves.angle[0, 0] - halves.angle[1, 0]) / np.pi)

    def chi(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        side = (ts >= 0.0).astype(int)
        k = np.clip(np.floor((p - np.abs(ts)) * n / p).astype(int), 0, n - 1)
        beyond = np.maximum(np.abs(ts) - p, 0.0)
        t0 = nodes[k, side]
        A, B = _magnus(params, theta, t0, np.where(beyond > 0.0, 0.0, ts - t0))
        start = halves.zeta[k, side, 0]
        log_amp = (
            halves.log_r[k, side, 0] - halves.log_r[-1, side, 0]
            - halves.rate[side, 0] * beyond
        )
        z = np.where(side == 1, sign, 1.0) * np.exp(log_amp)
        z = z * (A * start + B * np.conj(start))
        return np.column_stack([z.real, z.imag])

    return chi, float(halves.norm[:, 0].sum())


def _refine_roots(mismatch, levels, ends) -> list[float]:
    """The theta with g(theta) = level for each level, by safeguarded Newton.

    ``mismatch`` maps an array of theta to (g, g') of a strictly decreasing
    g, and ``ends`` holds (theta, g, g') at the two window ends, which
    bracket every level.  Each round evaluates g at the iterates of all open
    levels in one call, and every evaluation narrows the bracket of every
    level.  A Newton step that leaves its bracket bisects it instead.  A
    root is done, after its last Newton step, once g meets its level to
    within ``MAGNUS_ERROR``, the propagator's error on g: a further
    evaluation would only resolve that error.  It is also done once its
    Newton step (or half-bracket) is under ``ROOT_XTOL``.
    """
    levels = np.asarray(levels, dtype=float)
    (lo, g_lo, d_lo), (hi, g_hi, d_hi) = ends
    below = np.full(len(levels), lo)  # g(below) > level
    above = np.full(len(levels), hi)  # g(above) < level
    # start from the bracket end with the shorter Newton step
    from_lo = np.abs((g_lo - levels) / d_lo) <= np.abs((g_hi - levels) / d_hi)
    x = np.where(from_lo, lo, hi)
    f = np.where(from_lo, g_lo, g_hi)
    slope = np.where(from_lo, d_lo, d_hi)
    roots = np.full(len(levels), np.nan)
    todo = np.ones(len(levels), dtype=bool)
    while todo.any():
        step = (levels - f) / slope
        close = (np.abs(levels - f) <= MAGNUS_ERROR) | (np.abs(step) < ROOT_XTOL)
        done = todo & close
        roots[done] = (x + step)[done]
        inside = (below < x + step) & (x + step < above)
        x = np.where(inside, x + step, 0.5 * (below + above))
        stuck = todo & ~done & ~inside & (above - below < 2.0 * ROOT_XTOL)
        roots[stuck] = x[stuck]
        todo &= ~(done | stuck)
        if todo.any():
            f[todo], slope[todo] = mismatch(x[todo])
            new_x, new_f = x[todo, None], f[todo, None]
            below = np.maximum(below, np.where(new_f > levels, new_x, -np.inf).max(0))
            above = np.minimum(above, np.where(new_f < levels, new_x, np.inf).min(0))
    return [float(r) for r in roots]


def window_spectrum(
    params: DiracParams, T: float, window: tuple[float, float]
) -> Dirac1DSpectrum:
    """Every eigenvalue of the reduced operator with theta inside ``window``.

    The count is the number of multiples k pi strictly between g(hi) and
    g(lo); each eigenvalue is the root of g - k pi, refined by
    ``_refine_roots`` on the slope from the halves' norms.  A state is
    sampled through its envelope pair (``ladder_pair``).  T is the
    half-width of the box, which must hold the wall's plateau half-width; a
    tanh_scaled wall is stepped across it.  Raises LadderFailure if a Magnus
    step turns the angle too far or the refined roots are not ``count``
    distinct values inside the window.
    """
    lo, hi = map(float, window)
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi})")
    if T <= params.wall.plateau_halfwidth:
        raise ValueError(
            f"box half-width {T} must exceed the wall plateau "
            f"{params.wall.plateau_halfwidth}"
        )

    (g_lo, g_hi), (d_lo, d_hi) = _mismatch(params, np.array([lo, hi]), T)
    ends = [(lo, g_lo, d_lo), (hi, g_hi, d_hi)]
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


def _zero_mode_norm_sq(wall: DomainWall, rate: float) -> float:
    """Integral over the line of exp(-2 rate A(t)), A the wall's antiderivative.

    On a tanh_scaled wall A = (L/3) log cosh(3t/L), so the integral is
    (L/3) B(1/2, nu/2) = (L/3) sqrt(pi) Gamma(nu/2) / Gamma((nu + 1)/2) with
    nu = 2 rate L / 3.  On a bump_smoothstep wall A = A(L) + |t| - L on the
    plateaus, whose two tails give exp(-2 rate A(L)) / rate exactly, and the
    even transition |t| < L is twice a Gauss-Legendre sum over [0, L].
    """
    L = wall.plateau_halfwidth
    if wall.kind == "tanh_scaled":
        nu = 2.0 * rate * L / 3.0
        log_beta = math.lgamma(nu / 2.0) - math.lgamma((nu + 1.0) / 2.0)
        return (L / 3.0) * math.sqrt(math.pi) * math.exp(log_beta)
    profile = np.exp(-2.0 * rate * wall.antiderivative(0.5 * L * (_NORM_NODES + 1.0)))
    core = L * float(_NORM_WEIGHTS @ profile)
    return core + math.exp(-2.0 * rate * wall.antiderivative(L)) / rate


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
    scale = 1.0 / math.sqrt(_zero_mode_norm_sq(wall, rate))

    def sampler(ts: np.ndarray) -> np.ndarray:
        profile = scale * np.exp(-rate * wall.antiderivative(ts))
        return profile[:, None] * spinor[None, :]

    return EnvelopePair(params=params, theta=0.0, sampler=sampler, box=np.inf)


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
    is normalized in L2 by ``norm_sq``, the integral of |chi|^2 over the
    line that the halves carry.
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
    """The ladder's eigenvalue nearest a guess, with its glued pair.

    The ladder is counted and refined (``window_spectrum``) on the box |t| <=
    ``SHOOTING_BOX``, in the window theta_guess +- ``SHOOTING_WINDOW`` cut to
    the one ``gap_spectrum`` counts on that box; the root nearest the guess
    is sampled as ``ladder_pair`` samples a ladder state.  Raises
    LadderFailure, naming the guess and the window, when no root lies in it.
    """
    box = SHOOTING_BOX
    edge = params.essential_edge() - 3.0 / box
    lo = max(theta_guess - SHOOTING_WINDOW, -edge)
    hi = min(theta_guess + SHOOTING_WINDOW, edge)
    roots = window_spectrum(params, box, (lo, hi)).eigenvalues
    if not len(roots):
        raise LadderFailure(
            f"no eigenvalue near theta = {theta_guess:.6f}: the ladder on the "
            f"shooting box is empty in ({lo:.6f}, {hi:.6f})",
            theta=None, side=None, count=0, found=0,
        )
    theta = float(roots[np.argmin(np.abs(roots - theta_guess))])
    chi, norm_sq = _glued_mode(params, theta, box)
    return _glued_pair(
        params, theta, chi, norm_sq, box,
        {"theta_guess": float(theta_guess), "theta_shift": theta - theta_guess},
    )


def ladder_pair(spectrum: Dirac1DSpectrum, branch: int = 0) -> EnvelopePair:
    """Envelope pair for one branch of the Prufer-counted in-gap ladder.

    ``branch`` counts from the middle of the sorted in-gap spectrum
    (branch 0 = eigenvalue closest to zero).
    The eigenvalue is the ladder's own, already refined; the sampler is the
    glued Prufer halves at it (``_glued_mode``): node values and one partial
    Magnus step per sample, normalized in L2 over the line by the integral
    the halves carry, the one that gives the ladder's slope (no samples are
    taken for it).  Its box is the ladder's, |t| <= spectrum.T.  The exact
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


def _bordered_solve(ab: np.ndarray, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """beta from [[S, w], [w^H, 0]] [beta; lam] = [rhs; 0], S in band storage.

    ``ab`` is S in LAPACK band storage, ab[band + i - j, j] = S[i, j], with
    the same half-bandwidth band above and below the diagonal.  One banded
    LU of S solves S y0 = rhs and S y1 = w together; the border then leaves
    one scalar, lam = w^H y0 / w^H y1, and beta = y0 - lam y1 is orthogonal
    to w.  S is nearly singular along w, so y0 and y1 are both large along
    it, and the subtraction cancels exactly that direction.
    """
    band = len(ab) // 2
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
    solve reproduces the first-order solution exactly.  With H the
    centered-difference reduced operator and Delta the three-point
    Laplacian, the squared operator is

        S = -s^2 Delta + mu^2 s_mu^2 + mass^2 kappa^2 + theta^2
            - i s mass kappa' m1 m3 - 2 theta H,

    s = speed_t and s_mu = speed_mu.  In the interleaved (node, spinor)
    order it couples each node to itself and its two neighbours by 2x2
    blocks, so it is banded with half-bandwidth ``ENVELOPE_BAND``; the
    blocks are written straight into LAPACK band storage.  The deflation is
    a border, so beta is the solution orthogonal to w = alpha / |alpha|,
    found by ``_bordered_solve`` from one banded LU of S.
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

    # the 2x2 node blocks: S[i, i] per node, and S[i, i + 1] = hop, whose
    # conjugate transpose is S[i + 1, i]
    diag_sq = p.mu**2 * p.speed_mu**2 + mass**2 * kap**2 + theta**2
    on_node = (
        (s**2 * 2.0 / (h * h) + diag_sq)[:, None, None] * np.eye(2)
        + (-1j * s * mass) * d_kap[:, None, None] * (m1 @ m3)
        - 2.0 * theta * (p.mu * p.speed_mu * m2 + mass * kap[:, None, None] * m3)
    )
    hop = -(s**2) / (h * h) * np.eye(2) + (1j * theta * s / h) * m1
    # band storage ab[band + row - col, col], row 2 i + a and col 2 j + b:
    # block offset d = j - i puts entry (a, b) on band row band - 2 d + a - b
    band = ENVELOPE_BAND
    ab = np.zeros((2 * band + 1, n, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            ab[band + a - b, :, b] = on_node[:, a, b]
            ab[band - 2 + a - b, 1:, b] = hop[a, b]
            ab[band + 2 + a - b, :-1, b] = np.conj(hop[b, a])

    w = alpha.ravel()
    w = w / np.linalg.norm(w)
    beta = _bordered_solve(ab.reshape(2 * band + 1, 2 * n), w, rhs).reshape(n, 2)

    d_beta = np.zeros_like(beta)
    d_beta[1:-1] = (beta[2:] - beta[:-2]) / (2.0 * h)
    d_beta *= -1j
    check = _reduced_matrix_apply(p, theta, ts, beta, d_beta) - rho
    return beta, d_beta, float(np.abs(check).max())
