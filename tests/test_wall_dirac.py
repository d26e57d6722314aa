"""Tests for the effective 1D domain-wall operator.

The ladder values below are pinned to shooting on the continuum operator
(shooting_pair), a route independent of the Prufer count, and
cross-checked against the closed-form zero mode, the chiral conjugation
identity, and the exact square-sum relation for the transverse shift.
"""

import dataclasses

import numpy as np
import pytest

from artifact import geometry, potentials, wall_dirac
from artifact.wall_dirac import (
    DiracParams,
    GridTooCoarse,
    LadderFailure,
    _matching_det,
    assemble_dirac,
    gap_spectrum,
    ladder_pair,
    measured_essential_edge,
    predict_mu_spectrum,
    shooting_pair,
    susy_conjugation_residual,
    window_spectrum,
    zero_mode_pair,
)

NU_STAR = 3.2984584267 - 1.9043658606j
DEFAULT_MASS = -1.0296486867
RICH_MASS = -3.4321622890

# shooting_pair values (integrator rtol 1e-12); the exact zero is pinned by
# the conjugation symmetry
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
    # second route to the ladder: shooting on the continuum operator (the
    # matching determinant of the two-vector system) lands on each Prufer
    # root, on the rich wall and for the topological value at mu = 0.5
    for value in rich_base.eigenvalues:
        pair = shooting_pair(rich_base.params, float(value))
        assert abs(pair.theta - value) <= 1e-10
    shifted = dataclasses.replace(default_params, mu=0.5)
    (topo,) = gap_spectrum(shifted, 30.0, 6000).eigenvalues
    assert abs(shooting_pair(shifted, float(topo)).theta - topo) <= 1e-12


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
    # independent route to the count: sign changes of the two-vector
    # shooting determinant between consecutive points of a fine theta grid,
    # over the full window and over 6 sub-windows with edges on that grid;
    # an even point count keeps the exact zero mode off the grid
    lo, hi = rich_base.window
    thetas = np.linspace(lo, hi, 122)
    dets = np.array([_matching_det(rich_params, th) for th in thetas])
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
    # the tanh plateau is reached only asymptotically, so both routes start
    # their integration at the box ends +-30 on the frozen-coefficient data
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
        pair = shooting_pair(params, float(value))
        assert abs(pair.theta - value) <= 1e-10
        # the ladder pair's samples are the shooting envelope up to a phase
        vec = ladder_pair(s, j - center).alpha(t).reshape(-1)
        ref = pair.alpha(t).reshape(-1)
        overlap = abs(np.vdot(ref, vec)) / (np.linalg.norm(ref) * np.linalg.norm(vec))
        assert overlap >= 1.0 - 1e-10


def test_mismatch_slope_matches_central_difference(rich_params):
    # g' from the variational equation is the theta derivative of g
    h = 1e-5
    for theta in (-2.2, 0.9, 3.0):
        _, slope = wall_dirac._mismatch(rich_params, theta, 64.0)
        g_plus, _ = wall_dirac._mismatch(rich_params, theta + h, 64.0)
        g_minus, _ = wall_dirac._mismatch(rich_params, theta - h, 64.0)
        assert abs(slope - (g_plus - g_minus) / (2 * h)) <= 1e-6 * abs(slope)


def test_shooting_start_is_continuous_in_theta(default_params):
    # the shooting halves start on the Prufer start angle, which is
    # continuous in theta: at mu = 0.5 the matching determinant keeps its
    # sign across theta = |mass|, where a start vector built from
    # (theta + m kappa, s lambda + b) vanished and flipped, and shooting
    # around 1.03 finds no root (the only eigenvalue is near 1.7722)
    shifted = dataclasses.replace(default_params, mu=0.5)
    dets = np.array([_matching_det(shifted, th) for th in np.linspace(1.0, 1.5, 51)])
    assert np.all(np.sign(dets) == np.sign(dets[0]))
    with pytest.raises(RuntimeError, match="does not change sign"):
        shooting_pair(shifted, 1.03)


def test_ladder_failures_are_typed(default_params, rich_params, monkeypatch):
    # an integration that reports failure raises with its theta and side
    real_solve_ivp = wall_dirac.solve_ivp

    def failing_right(fun, t_span, *args, **kwargs):
        sol = real_solve_ivp(fun, t_span, *args, **kwargs)
        if t_span[0] > 0:
            sol.success, sol.message = False, "step size too small"
        return sol

    monkeypatch.setattr(wall_dirac, "solve_ivp", failing_right)
    with pytest.raises(LadderFailure, match="right box end") as info:
        gap_spectrum(default_params, 30.0, 6000)
    assert info.value.side == "right"
    assert info.value.theta == pytest.approx(-default_params.essential_edge() + 0.1)
    assert info.value.count is None
    monkeypatch.undo()

    # a refinement that lands on one root for every k leaves the count unmet
    monkeypatch.setattr(
        wall_dirac, "_refine_roots", lambda mismatch, levels, ends: [0.25] * len(levels)
    )
    with pytest.raises(LadderFailure, match="distinct roots") as info:
        window_spectrum(rich_params, 64.0, (-3.0, 3.0))
    assert (info.value.count, info.value.found) == (5, 1)
    assert info.value.theta is None and info.value.side is None
