"""Tests for the effective 1D domain-wall operator.

Reference values below were measured with this module at pinned grids and
cross-checked against the closed-form zero mode, the chiral conjugation
identity, and the exact square-sum relation for the transverse shift.
"""

import dataclasses

import numpy as np
import pytest

from artifact import geometry, potentials, wall_dirac
from artifact.quasimode import shooting_pair
from artifact.wall_dirac import (
    DiracParams,
    GridTooCoarse,
    SpuriousModeWarning,
    analytic_zero_mode,
    assemble_dirac,
    fd_order_study,
    gap_spectrum,
    measured_essential_edge,
    predict_mu_spectrum,
    susy_conjugation_residual,
)

NU_STAR = 3.2984584267 - 1.9043658606j
DEFAULT_MASS = -1.0296486867
RICH_MASS = -3.4321622890

# measured at (T=64, N=24000); the exact zero is pinned by the conjugation
# symmetry, the pairs by the frozen run
RICH_VALUES = [
    -3.074335778754,
    -2.573974207821,
    -1.850806269136,
    0.0,
    1.850806269136,
    2.573974207821,
    3.074335778754,
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
    assert s.localization[0] == pytest.approx(0.9918913152, abs=1e-6)
    assert s.localization[0] >= 0.99
    assert s.doubling_rejected >= 1
    assert s.min_spacing == np.inf
    assert s.essential_edge == pytest.approx(abs(DEFAULT_MASS), abs=1e-12)


def test_zero_mode_overlap(default_params, default_spec):
    u_num = default_spec.eigenvectors[:, 0]
    u_an = analytic_zero_mode(default_params, default_spec.grid())
    overlap = abs(np.vdot(u_an.ravel(), u_num))
    assert overlap >= 1.0 - 1e-6
    assert overlap == pytest.approx(0.999999828353, abs=1e-7)


def test_analytic_mode_residual_fine_grid(default_params):
    T, N = 80.0, 40000
    t = np.linspace(-T, T, N)
    u = analytic_zero_mode(default_params, t)
    H = assemble_dirac(default_params, T, N)
    resid = np.linalg.norm(H @ u.ravel()) / np.linalg.norm(u)
    assert resid <= 1e-6


def test_zero_mode_spinor_relations(default_params):
    p = default_params
    m1, m2, m3 = p.matrices()
    t = np.linspace(-30.0, 30.0, 2001)
    u = analytic_zero_mode(p, t).reshape(len(t), 2)
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
    assert s.eigenvalues == pytest.approx(RICH_VALUES, abs=1e-8)
    # conjugation antisymmetry of the in-gap values
    assert np.abs(s.eigenvalues + s.eigenvalues[::-1]).max() < 1e-8
    assert s.doubling_rejected == 7
    assert s.min_spacing > 1e-6
    assert np.all(s.localization >= 0.999)


def test_shooting_refines_fd_ladder(rich_base, default_params):
    # second route to the FD ladder: shooting on the continuum operator moves
    # each rich eigenvalue by the FD error only (up to 2.3e-6 at N = 24000,
    # which the 1e-8 pin of RICH_VALUES carries), and the topological value
    # at mu = 0.5 by almost nothing
    for value in rich_base.eigenvalues:
        pair = shooting_pair(rich_base.params, float(value))
        assert abs(pair.theta - value) <= 3e-6
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


def test_fd_order(rich_params):
    study = fd_order_study(rich_params, 64.0, (3000, 6000, 12000))
    assert 1.8 <= study["median_order"] <= 2.2
    with pytest.raises(ValueError, match="three grid sizes"):
        fd_order_study(rich_params, 64.0, (3000, 6000))


def test_spurious_mode_warning(default_params):
    with pytest.warns(SpuriousModeWarning):
        s = gap_spectrum(default_params, 30.0, 6000, localization_cut=0.99999)
    assert len(s.eigenvalues) == 0
    assert len(s.rejected) == 1


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


def test_failed_shift_retries_raise_runtime_error(default_params, monkeypatch):
    # every shift-invert attempt fails inside the eigensolver: the retry loop
    # must end in its own RuntimeError, not in an unassigned residual
    calls = []

    def failing_eigsh(*args, **kwargs):
        calls.append(kwargs["sigma"])
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(wall_dirac.spla, "eigsh", failing_eigsh)
    with pytest.raises(RuntimeError, match="no attempt converged"):
        gap_spectrum(default_params, 30.0, 6000)
    assert len(calls) == 4
