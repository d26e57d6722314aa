"""Tests for the effective 1D domain-wall operator.

The ladder values below are pinned to the tests' adaptive reference
(``wall_reference``: solve_ivp's DOP853 at rtol 3e-14 and brentq), a route
independent of the package's Magnus propagator, and cross-checked against
the closed-form zero mode, the chiral conjugation identity, and the exact
square-sum relation for the transverse shift.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import wall_reference
from scipy.integrate import quad
from scipy.optimize import brentq

from artifact import bloch, geometry, potentials, ribbon, wall_dirac
from artifact.dirac_cone import find_dirac_point
from artifact.wall_dirac import (
    DiracParams,
    GridTooCoarse,
    LadderFailure,
    gap_spectrum,
    ladder_pair,
    predict_mu_spectrum,
    shooting_pair,
    window_spectrum,
    zero_mode_pair,
)

NU_STAR = 3.2984584267 - 1.9043658606j
DEFAULT_MASS = -1.0296486867
RICH_MASS = -3.4321622890

# the reference's eigenvalues, to 13 digits; the exact zero is pinned by the
# conjugation symmetry
RICH_VALUES = [
    -3.0743380936622,
    -2.5739757915659,
    -1.8508068966870,
    0.0,
    1.8508068966870,
    2.5739757915659,
    3.0743380936622,
]


@pytest.fixture(scope="module")
def frame():
    return geometry.make_edge_frame(geometry.build_lattice(), 1, 0)


@pytest.fixture(scope="module")
def default_params(frame):
    wall = potentials.domain_wall("bump_smoothstep", 5.0)
    return DiracParams(
        nu_star=NU_STAR,
        kp=frame.kp_complex,
        ell=frame.ell_complex,
        mass=DEFAULT_MASS,
        wall=wall,
    )


@pytest.fixture(scope="module")
def default_spec(default_params):
    return gap_spectrum(default_params, 30.0, 6000)


@pytest.fixture(scope="module")
def rich_params(frame):
    # wide wall and strong mass: several bound pairs, for the branch tests
    wall = potentials.domain_wall("bump_smoothstep", 16.0)
    return DiracParams(
        nu_star=NU_STAR,
        kp=frame.kp_complex,
        ell=frame.ell_complex,
        mass=RICH_MASS,
        wall=wall,
    )


@pytest.fixture(scope="module")
def rich_base(rich_params):
    return gap_spectrum(rich_params, 64.0, 24000)


# ---------------------------------------------------------------------------
# the centered-difference matrix of H and two diagnostics read from it: a
# grid reference for the closed-form zero mode, the chiral conjugation and
# the essential edge


def _dirac_matrix(params: DiracParams, h: float, kappa: np.ndarray, wrap: bool):
    """H(mu) by centered differences on len(kappa) nodes of step h.

    Interleaved layout: unknown (node, spinor) at row 2 node + spinor.  D_t
    is the centered antisymmetric stencil, clamped at the ends or, with
    ``wrap``, closed periodically.
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
):
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


def test_params_properties(default_params):
    p = default_params
    assert p.orientation == -1
    assert p.speed_t == pytest.approx(4.092748585929, abs=1e-9)
    assert p.speed_mu == pytest.approx(3.544424246718, abs=1e-9)
    assert p.nu_f == pytest.approx(3.8087317211, abs=1e-9)
    assert p.decay_rate == pytest.approx(abs(p.mass) / p.speed_t, abs=1e-12)
    assert p.essential_edge() == pytest.approx(abs(DEFAULT_MASS), abs=1e-12)
    shifted = DiracParams(p.nu_star, p.kp, p.ell, p.mass, p.wall, mu=0.5)
    assert shifted.essential_edge() == pytest.approx(
        np.hypot(DEFAULT_MASS, 0.5 * p.speed_mu), abs=1e-12
    )


def test_params_validation(default_params):
    p = default_params
    with pytest.raises(ValueError, match="orthogonal"):
        DiracParams(p.nu_star, p.kp, p.kp, p.mass, p.wall)
    with pytest.raises(ValueError, match="mass"):
        DiracParams(p.nu_star, p.kp, p.ell, 0.0, p.wall)


def test_matrix_algebra(default_params):
    mats = default_params.matrices()
    eye = np.eye(2)
    for i, a in enumerate(mats):
        assert np.allclose(a, a.conj().T, atol=1e-15)
        assert np.allclose(a @ a, eye, atol=1e-15)
        for b in mats[i + 1 :]:
            assert np.abs(a @ b + b @ a).max() < 2e-15


def test_assemble_guards(default_params, frame):
    with pytest.raises(ValueError, match="T >= 4L"):
        assemble_dirac(default_params, 10.0, 6000)
    with pytest.raises(ValueError, match="1000 grid points"):
        assemble_dirac(default_params, 30.0, 500)
    with pytest.raises(ValueError, match="constant kappa"):
        assemble_dirac(default_params, 30.0, 6000, periodic=True)
    steep = DiracParams(
        NU_STAR,
        frame.kp_complex,
        frame.ell_complex,
        mass=-1.0,
        wall=potentials.domain_wall("tanh_scaled", 0.05),
    )
    with pytest.raises(GridTooCoarse):
        assemble_dirac(steep, 30.0, 1000)


def test_assembled_hermitian(default_params):
    for kw in ({}, {"kappa_const": 1.0}, {"kappa_const": 1.0, "periodic": True}):
        H = assemble_dirac(default_params, 30.0, 1200, **kw)
        delta = (H - H.conj().T).tocoo()
        resid = np.abs(delta.data).max() if delta.nnz else 0.0
        assert resid < 1e-14 * np.abs(H.data).max()


def test_default_zero_mode(default_spec):
    s = default_spec
    assert len(s.eigenvalues) == 1
    assert abs(s.eigenvalues[0]) < 1e-12
    assert s.doubling_rejected == 0


def _zero_mode(params, t):
    """The closed-form zero mode of ``zero_mode_pair`` on t, unit 2-norm on
    the grid, t outer."""
    u = zero_mode_pair(params).alpha(t).reshape(-1)
    return u / np.linalg.norm(u)


def test_zero_mode_overlap(default_params, default_spec):
    # the glued Prufer halves at the ladder's zero are the closed-form mode
    # (ladder_pair itself hands out the closed form for this branch)
    T = default_spec.T
    theta = float(default_spec.eigenvalues[0])
    chi, norm_sq = wall_dirac._glued_mode(default_params, theta, T)
    pair = wall_dirac._glued_pair(default_params, theta, chi, norm_sq, T, {})
    t = np.linspace(-T, T, 6000)
    u_num = pair.alpha(t).reshape(-1)
    u_an = _zero_mode(default_params, t)
    overlap = abs(np.vdot(u_an, u_num)) / np.linalg.norm(u_num)
    assert overlap >= 1.0 - 1e-12


def test_analytic_mode_residual_fine_grid(default_params):
    T, N = 80.0, 40000
    t = np.linspace(-T, T, N)
    u = _zero_mode(default_params, t)
    H = assemble_dirac(default_params, T, N)
    resid = np.linalg.norm(H @ u.ravel()) / np.linalg.norm(u)
    assert resid <= 1e-6


def test_zero_mode_spinor_relations(default_params):
    p = default_params
    m1, m2, m3 = p.matrices()
    t = np.linspace(-30.0, 30.0, 2001)
    u = _zero_mode(p, t).reshape(len(t), 2)
    spinor = u[len(t) // 2]
    spinor = spinor / np.linalg.norm(spinor)
    sgn = np.sign(p.mass)
    assert np.allclose(1j * m1 @ m3 @ spinor, sgn * spinor, atol=1e-12)
    # the transverse-shift matrix acts on the zero spinor with a sign that
    # carries the frame orientation, not just the sign of the mass
    assert np.allclose(m2 @ spinor, sgn * p.orientation * spinor, atol=1e-12)


def test_susy_conjugation(default_params):
    resid = susy_conjugation_residual(default_params, 30.0, 2000)
    assert resid < 1e-13
    shifted = DiracParams(
        default_params.nu_star,
        default_params.kp,
        default_params.ell,
        default_params.mass,
        default_params.wall,
        mu=0.3,
    )
    with pytest.raises(ValueError, match="mu = 0"):
        susy_conjugation_residual(shifted, 30.0, 2000)


def test_essential_edge_measured(default_params):
    analytic = default_params.essential_edge()
    for side in (1.0, -1.0):
        e = measured_essential_edge(default_params, 30.0, 6000, side=side)
        assert abs(e - analytic) / analytic < 1e-12
    shifted = DiracParams(
        default_params.nu_star,
        default_params.kp,
        default_params.ell,
        default_params.mass,
        default_params.wall,
        mu=0.5,
    )
    e = measured_essential_edge(shifted, 30.0, 6000)
    assert abs(e - shifted.essential_edge()) / shifted.essential_edge() < 1e-12


def test_rich_spectrum_frozen(rich_base):
    s = rich_base
    assert len(s.eigenvalues) == 7
    assert s.eigenvalues == pytest.approx(RICH_VALUES, abs=1e-9)
    # conjugation antisymmetry of the in-gap values
    assert np.abs(s.eigenvalues + s.eigenvalues[::-1]).max() < 1e-8
    assert np.min(np.diff(s.eigenvalues)) > 1e-6


def test_shooting_refines_fd_ladder(rich_base, default_params):
    # second route to the ladder: the adaptive reference lands on each
    # Prufer root, on the rich wall and for the topological value at
    # mu = 0.5; shooting_pair, on the same propagator, lands there too
    for value in rich_base.eigenvalues:
        ref = wall_reference.eigenvalue(rich_base.params, float(value), rich_base.T)
        assert abs(ref - value) <= 1e-10
        assert abs(shooting_pair(rich_base.params, float(value)).theta - value) <= 1e-12
    shifted = dataclasses.replace(default_params, mu=0.5)
    (topo,) = gap_spectrum(shifted, 30.0, 6000).eigenvalues
    assert abs(wall_reference.eigenvalue(shifted, float(topo), 30.0) - topo) <= 1e-12


def test_mu_prediction_matches_direct(rich_params, rich_base):
    mu = 0.5
    shifted = DiracParams(
        rich_params.nu_star,
        rich_params.kp,
        rich_params.ell,
        rich_params.mass,
        rich_params.wall,
        mu=mu,
    )
    direct = gap_spectrum(shifted, 64.0, 24000)
    predicted = predict_mu_spectrum(rich_base, mu, shifted)
    values = np.array([v for v, _ in predicted])
    labels = [b for _, b in predicted]
    assert len(direct.eigenvalues) == len(values)
    rel = np.abs(direct.eigenvalues - values) / np.abs(values)
    assert rel.max() < 1e-6
    assert labels.count("topological") == 1
    assert labels.count("paired") == 6


def test_branch_parity_under_mu_sign(rich_base, rich_params):
    plus = predict_mu_spectrum(
        rich_base,
        0.5,
        DiracParams(
            rich_params.nu_star,
            rich_params.kp,
            rich_params.ell,
            rich_params.mass,
            rich_params.wall,
            mu=0.5,
        ),
    )
    minus = predict_mu_spectrum(
        rich_base,
        -0.5,
        DiracParams(
            rich_params.nu_star,
            rich_params.kp,
            rich_params.ell,
            rich_params.mass,
            rich_params.wall,
            mu=-0.5,
        ),
    )
    topo_plus = [v for v, b in plus if b == "topological"]
    topo_minus = [v for v, b in minus if b == "topological"]
    assert topo_plus[0] == pytest.approx(-topo_minus[0], abs=1e-12)
    paired_plus = sorted(v for v, b in plus if b == "paired")
    paired_minus = sorted(v for v, b in minus if b == "paired")
    assert paired_plus == pytest.approx(paired_minus, abs=1e-12)


def test_topological_slope_sign(default_params):
    # slope of the zero branch = mu * speed_mu * sgn(mass) * orientation;
    # with negative mass and orientation -1 the state moves UP
    mu = 0.5
    shifted = DiracParams(
        default_params.nu_star,
        default_params.kp,
        default_params.ell,
        default_params.mass,
        default_params.wall,
        mu=mu,
    )
    direct = gap_spectrum(shifted, 30.0, 6000)
    assert len(direct.eigenvalues) == 1
    expected = mu * shifted.speed_mu * np.sign(shifted.mass) * shifted.orientation
    assert direct.eigenvalues[0] == pytest.approx(expected, abs=1e-9)
    assert direct.eigenvalues[0] > 0


def test_predict_requires_unshifted_base(default_params):
    mu_params = DiracParams(
        default_params.nu_star,
        default_params.kp,
        default_params.ell,
        default_params.mass,
        default_params.wall,
        mu=0.5,
    )
    base = gap_spectrum(mu_params, 30.0, 6000)
    with pytest.raises(ValueError, match="mu = 0"):
        predict_mu_spectrum(base, 0.5, mu_params)


def test_count_matches_matching_det_sign_changes(rich_params, rich_base):
    # independent route to the count: sign changes of the reference's
    # matching determinant between consecutive points of a fine theta grid,
    # all evaluated in one integration, over the full window and over 6
    # sub-windows with edges on that grid; an even point count keeps the
    # exact zero mode off the grid
    lo, hi = rich_base.window
    thetas = np.linspace(lo, hi, 122)
    dets = wall_reference.matching_dets(rich_params, thetas, 64.0)
    flips = np.sign(dets[:-1]) != np.sign(dets[1:])
    assert len(rich_base.eigenvalues) == int(flips.sum()) == 7
    cuts = np.linspace(0, 121, 7).round().astype(int)
    for a, b in zip(cuts[:-1], cuts[1:]):
        sub = window_spectrum(rich_params, 64.0, (thetas[a], thetas[b]))
        assert len(sub.eigenvalues) == int(flips[a:b].sum())
        assert np.all((sub.eigenvalues > thetas[a]) & (sub.eigenvalues < thetas[b]))
    # between the zero mode and the first pair there is nothing
    empty = window_spectrum(rich_params, 64.0, (0.5, 1.5))
    assert len(empty.eigenvalues) == 0


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_tanh_wall_ladder_matches_shooting(frame, mu):
    # the tanh plateau is reached only asymptotically, so both the ladder
    # and the reference start at the box ends +-30 on the frozen-coefficient
    # data
    params = DiracParams(
        NU_STAR,
        frame.kp_complex,
        frame.ell_complex,
        mass=RICH_MASS,
        wall=potentials.domain_wall("tanh_scaled", 10.0),
        mu=mu,
    )
    s = gap_spectrum(params, 30.0, 3000)
    assert len(s.eigenvalues) == 5
    t = np.linspace(-s.T, s.T, 3000)
    center = int(np.argmin(np.abs(s.eigenvalues)))
    for j, value in enumerate(s.eigenvalues):
        theta = wall_reference.eigenvalue(params, float(value), s.T)
        assert abs(theta - value) <= 1e-10
        # the ladder pair's samples are the reference envelope up to a phase
        vec = ladder_pair(s, j - center).alpha(t).reshape(-1)
        ref = wall_reference.envelope(params, theta, s.T)(t).reshape(-1)
        overlap = abs(np.vdot(ref, vec)) / (np.linalg.norm(ref) * np.linalg.norm(vec))
        assert overlap >= 1.0 - 1e-10


def test_mismatch_slope_matches_central_difference(rich_params):
    # g' = -(norm_left + norm_right) / s is the theta derivative of g
    h = 1e-5
    for theta in (-2.2, 0.9, 3.0):
        _, slope = wall_dirac._mismatch(rich_params, theta, 64.0)
        g_plus, _ = wall_dirac._mismatch(rich_params, theta + h, 64.0)
        g_minus, _ = wall_dirac._mismatch(rich_params, theta - h, 64.0)
        assert abs(slope - (g_plus - g_minus) / (2 * h)) <= 1e-6 * abs(slope)


def test_shooting_start_is_continuous_in_theta(default_params):
    # the shooting halves start on the Prufer start angle, which is
    # continuous in theta: at mu = 0.5 the mismatch on the shooting box falls
    # smoothly across theta = |mass|, where a start vector built from
    # (theta + m kappa, s lambda + b) vanished and flipped, so the ladder
    # holds no root there and shooting around 1.03 finds none (the only
    # eigenvalue is near 1.7722)
    shifted = dataclasses.replace(default_params, mu=0.5)
    g, _ = wall_dirac._mismatch(
        shifted, np.linspace(1.0, 1.5, 51), wall_dirac.SHOOTING_BOX
    )
    steps = np.diff(g)
    assert np.all((-0.25 * np.pi < steps) & (steps < 0.0))
    spec = window_spectrum(shifted, wall_dirac.SHOOTING_BOX, (1.0, 1.5))
    assert len(spec.eigenvalues) == 0
    with pytest.raises(RuntimeError, match="no eigenvalue near theta = 1.030000"):
        shooting_pair(shifted, 1.03)


def test_ladder_failures_are_typed(rich_params, monkeypatch):
    # a Magnus step that turns the Prufer angle by pi/4 or more raises with
    # its theta and side: here steps of about one decay length
    monkeypatch.setattr(wall_dirac, "MAGNUS_STEP", 1.0)
    with pytest.raises(LadderFailure, match="pi/4 at most") as info:
        window_spectrum(rich_params, 64.0, (-3.0, 3.0))
    assert (info.value.theta, info.value.side) == (-3.0, "left")
    assert info.value.count is None and info.value.found is None
    monkeypatch.undo()

    # a refinement that lands on one root for every k leaves the count unmet
    monkeypatch.setattr(
        wall_dirac, "_refine_roots", lambda mismatch, levels, ends: [0.25] * len(levels)
    )
    with pytest.raises(LadderFailure, match="distinct roots") as info:
        window_spectrum(rich_params, 64.0, (-3.0, 3.0))
    assert (info.value.count, info.value.found) == (5, 1)
    assert info.value.theta is None and info.value.side is None


class _RightPoisoned:
    """A bump wall that is NaN inside the right half of its transition."""

    def __init__(self, wall):
        self.wall = wall
        self.kind = wall.kind
        self.plateau_halfwidth = wall.plateau_halfwidth

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t > 0.0) & (t < self.plateau_halfwidth)
        return np.where(inside, np.nan, self.wall(t))[()]


def test_shooting_failures_are_typed(default_params):
    # a step whose angle change is NaN fails the same guard, on the side
    # where it happens
    wall = _RightPoisoned(default_params.wall)
    poisoned = dataclasses.replace(default_params, wall=wall)
    with np.errstate(invalid="ignore"), pytest.raises(
        LadderFailure, match="right plateau"
    ) as info:
        wall_dirac._mismatch(poisoned, 0.3, wall_dirac.SHOOTING_BOX)
    assert (info.value.theta, info.value.side) == (0.3, "right")
    assert info.value.count is None and info.value.found is None


def _assert_halves_match_solve_ivp(params, theta, T, slope, radius):
    # the Magnus halves against the adaptive reference from the box ends.
    # slope: the start angle (mod pi, the reference's eigenvector has no
    # preferred sign), the angle turned on the way to t = 0 and each half's
    # norm, which is the mismatch slope's denominator.  radius: log r at
    # t = 0 over the box end (the closed-form plateau from the box end to L
    # included) and the samples of each half at 1001 points
    L = params.wall.plateau_halfwidth
    halves = wall_dirac._halves(params, np.array([theta]), T)
    chi, _ = wall_dirac._glued_mode(params, theta, T)
    ts = np.linspace(-T, T, 1001)
    ours = chi(ts)
    for side, end, mask in ((0, -L, ts < 0.0), (1, L, ts >= 0.0)):
        ref = wall_reference.half(params, theta, T, ("left", "right")[side])
        if slope:
            phi0 = wall_dirac._start_angle(params, np.array([theta]), end)[0][0]
            assert abs((phi0 - ref.y[0, 0] + 0.5 * np.pi) % np.pi - 0.5 * np.pi) <= 1e-14
            turned = halves.angle[side, 0] - phi0
            assert abs(turned - (ref.y[0, -1] - ref.y[0, 0])) <= 1e-12
            norm = abs(ref.y[2, -1])
            assert abs(halves.norm[side, 0] - norm) <= 1e-12 * norm
        if radius:
            log_r = halves.log_r[-1, side, 0] + halves.rate[side, 0] * (T - L)
            assert abs(log_r - ref.y[1, -1]) <= 1e-12 * ref.y[1, -1]
            phi, log_rs, _ = ref.sol(ts[mask])
            theirs = np.exp(log_rs - ref.y[1, -1]) * np.array([np.cos(phi), np.sin(phi)])
            theirs = theirs.T * np.sign(np.sum(theirs.T * ours[mask]))
            assert np.abs(ours[mask] - theirs).max() <= 1e-11


@pytest.mark.parametrize("radius", [False, True], ids=["slope", "radius"])
@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_prufer_halves_match_solve_ivp(rich_params, radius, mu):
    params = dataclasses.replace(rich_params, mu=mu)
    _assert_halves_match_solve_ivp(params, 1.2, 64.0, not radius, radius)


def test_shooting_halves_match_solve_ivp(rich_params):
    # the halves on the shooting box, which shooting_pair reads
    params = dataclasses.replace(rich_params, mu=0.3)
    _assert_halves_match_solve_ivp(params, 1.2, wall_dirac.SHOOTING_BOX, True, True)


def test_shooting_root_matches_brentq(frame):
    # the ported Brent search, which refines the bulk gap edges, lands where
    # scipy's brentq does on the base channel's band-slope brackets: the
    # Hellmann-Feynman slope of each band at the gap on the two samples
    # around its sampled extremum, whose end values the scan hands it
    lat = geometry.build_lattice()
    basis = bloch.build_basis(lat, 4.0)
    wid = 0.15 * np.linalg.norm(lat.v1)
    V = potentials.honeycomb_potential(lat, -30.0, wid, 8)
    W = potentials.parity_breaking_W(lat, 10.0, wid, 8)
    j_star = find_dirac_point(V, "A", basis).j_star
    zeta, delta = frame.zeta_star("A"), 0.08
    edges = ribbon.essential_edges_bulk(frame, V, W, zeta, delta, basis, j_star)
    tables = bloch.fiber_tables(V, basis, W)
    taus, width = edges.samples[:, 0], geometry.TWO_PI / len(edges.samples)
    extrema = (np.argmax(edges.samples[:, 1]), np.argmin(edges.samples[:, 2]))
    for band, i in enumerate(extrema):
        def slope(tau, band=band):
            _, slopes = ribbon._fiber_pair(
                tables, frame, zeta, tau, delta, basis, j_star, 0.0
            )
            return slopes[band]

        a, b = taus[i] - width, taus[i] + width
        ours = ribbon._brentq(slope, a, b, slope(a), slope(b), xtol=1e-10)
        assert abs(ours - brentq(slope, a, b, xtol=1e-10)) <= 1e-13


@pytest.mark.parametrize(
    "kind, L",
    [("bump_smoothstep", 2.0), ("bump_smoothstep", 5.0), ("tanh_scaled", 10.0)],
)
def test_zero_mode_norm_matches_quadrature(kind, L):
    # the closed-form norm against adaptive quadrature over the whole line
    wall = potentials.domain_wall(kind, L)
    for rate in (0.25, 0.84, 3.0):
        ref, _ = quad(
            lambda t: math.exp(-2.0 * rate * float(wall.antiderivative(t))),
            -np.inf, np.inf,
        )
        assert abs(wall_dirac._zero_mode_norm_sq(wall, rate) - ref) <= 1e-13 * ref


def _sparse_square(params: DiracParams, theta: float, ts: np.ndarray):
    """The squared operator of ``envelope_correction``, summed from sparse krons."""
    n, h = len(ts), float(ts[1] - ts[0])
    s, mass = params.speed_t, params.mass
    m1, _, m3 = params.matrices()
    kap = params.wall(ts)
    lap = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]
    ) / (h * h)
    eye2 = sp.identity(2)
    diag_sq = params.mu**2 * params.speed_mu**2 + mass**2 * kap**2 + theta**2
    return (
        s**2 * sp.kron(lap, eye2)
        + sp.kron(sp.diags(diag_sq), eye2)
        + (-1j * s * mass) * sp.kron(sp.diags(params.wall.derivative(ts)), m1 @ m3)
        - 2.0 * theta * _dirac_matrix(params, h, kap, wrap=False)
    ).todia()


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_envelope_band_matches_sparse_square(default_params, monkeypatch, mu):
    # envelope_correction writes the squared operator's node blocks straight
    # into band storage; they are the band of the sparse sum, and beta solved
    # from either lies within 1e-12 of the other
    params = dataclasses.replace(default_params, mu=mu)
    if mu == 0.0:
        pair = zero_mode_pair(params)
    else:
        pair = ladder_pair(gap_spectrum(params, 30.0, 6000))
    ts = 0.04 * np.arange(-560, 561)
    alpha = pair.alpha(ts)
    rho = np.tanh(ts)[:, None] * alpha[:, ::-1]
    seen = []
    banded = wall_dirac._bordered_solve

    def capture(ab, w, rhs):
        seen.append((ab, w, rhs))
        return banded(ab, w, rhs)

    monkeypatch.setattr(wall_dirac, "_bordered_solve", capture)
    beta, _, _ = wall_dirac.envelope_correction(pair, ts, rho, alpha)
    ((ab, w, rhs),) = seen
    dia = _sparse_square(params, pair.theta, ts)
    band = wall_dirac.ENVELOPE_BAND
    assert np.abs(dia.offsets).max() == band
    want = np.zeros_like(ab)  # band storage: a DIA row holds S[j - offset, j]
    want[band - dia.offsets, : dia.data.shape[1]] = dia.data
    assert np.abs(ab - want).max() <= 1e-14 * np.abs(want).max()
    beta_sparse = banded(want, w, rhs).reshape(beta.shape)
    assert np.linalg.norm(beta - beta_sparse) <= 1e-12 * np.linalg.norm(beta_sparse)
