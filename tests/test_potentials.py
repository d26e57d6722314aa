from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from artifact.geometry import build_lattice, rotation_matrix
from artifact.potentials import (
    BadCutoff,
    domain_wall,
    honeycomb_potential,
    magnetic_A,
    parity_breaking_W,
    parity_residual,
    rotation_residual,
)

LATTICE = build_lattice()
DEPTH = -30.0
WIDTH = 0.15 * 2.0 * LATTICE.a  # 0.15 * |v1|
CUTOFF = 8.0


def realness_residual(field_):
    """Max |coeff(-eta) - conj(coeff(eta))|; zero for a real-valued field."""
    table = {(int(n1), int(n2)): i for i, (n1, n2) in enumerate(field_.indices)}
    worst = 0.0
    for i, (n1, n2) in enumerate(field_.indices):
        j = table.get((-int(n1), -int(n2)))
        mirror = field_.coeffs[j] if j is not None else np.zeros_like(field_.coeffs[i])
        worst = max(worst, float(np.max(np.abs(mirror - np.conj(field_.coeffs[i])))))
    return worst


@pytest.fixture(scope="module")
def V():
    return honeycomb_potential(LATTICE, DEPTH, WIDTH, CUTOFF)


@pytest.fixture(scope="module")
def W():
    return parity_breaking_W(LATTICE, 1.0, WIDTH, CUTOFF)


def _direct_lattice_sum(points: np.ndarray, width: float, sign_b: float) -> np.ndarray:
    """Brute-force sum of Gaussians over nearby lattice translates."""
    sites_a = (LATTICE.v1 + LATTICE.v2) / 3.0
    sites_b = 2.0 * (LATTICE.v1 + LATTICE.v2) / 3.0
    total = np.zeros(len(points))
    for m1 in range(-4, 5):
        for m2 in range(-4, 5):
            shift = m1 * LATTICE.v1 + m2 * LATTICE.v2
            for site, sgn in ((sites_a, 1.0), (sites_b, sign_b)):
                d = points - (site + shift)
                total += sgn * np.exp(-np.sum(d * d, axis=1) / (2.0 * width**2))
    return total


def test_honeycomb_matches_direct_lattice_sum(V):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(40, 2))
    direct = DEPTH * _direct_lattice_sum(pts, WIDTH, +1.0)
    np.testing.assert_allclose(V.evaluate(pts), direct, atol=1e-9 * abs(DEPTH))


def test_wall_field_matches_direct_lattice_sum(W):
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, size=(40, 2))
    direct = _direct_lattice_sum(pts, WIDTH, -1.0)
    np.testing.assert_allclose(W.evaluate(pts), direct, atol=1e-9)


def test_mean_coefficient_closed_form(V, W):
    # quadrature oracle: cell integral of the periodized wells equals twice
    # the full-plane Gaussian mass (unit cell area)
    assert V.coeff(0, 0) == pytest.approx(DEPTH * 2.0 * np.pi * WIDTH**2 * 2.0, rel=1e-12)
    assert abs(W.coeff(0, 0)) < 1e-14


def test_symmetry_residuals_vanish(V, W):
    assert realness_residual(V) < 1e-12 * abs(DEPTH)
    assert parity_residual(V) < 1e-12 * abs(DEPTH)
    assert rotation_residual(V) < 1e-12 * abs(DEPTH)
    assert realness_residual(W) < 1e-12
    assert parity_residual(W) < 1e-12
    assert rotation_residual(W) < 1e-12


def test_rotation_symmetry_in_real_space(V):
    rng = np.random.default_rng(13)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    rot = rotation_matrix()
    np.testing.assert_allclose(
        V.evaluate(pts @ rot.T), V.evaluate(pts), atol=1e-10 * abs(DEPTH)
    )


def test_wall_field_is_odd_in_real_space(W):
    rng = np.random.default_rng(14)
    pts = rng.uniform(-2.0, 2.0, size=(60, 2))
    np.testing.assert_allclose(W.evaluate(-pts) + W.evaluate(pts), 0.0, atol=1e-12)


def test_wall_field_is_periodic(W):
    rng = np.random.default_rng(15)
    pts = rng.uniform(-1.0, 1.0, size=(30, 2))
    for shift in (LATTICE.v1, LATTICE.v2, 3 * LATTICE.v1 - 2 * LATTICE.v2):
        np.testing.assert_allclose(
            W.evaluate(pts + shift), W.evaluate(pts), atol=1e-11
        )


def test_fft_round_trip_recovers_coefficients(V):
    # sample on an N x N grid of the fundamental cell and Fourier-analyze
    N = 64
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    pts = (i.ravel()[:, None] / N) * LATTICE.v1 + (j.ravel()[:, None] / N) * LATTICE.v2
    samples = V.evaluate(pts).reshape(N, N)
    hat = np.fft.fft2(samples) / N**2
    for (n1, n2), c in V.lookup.items():
        assert hat[n1 % N, n2 % N] == pytest.approx(c, abs=1e-10 * abs(DEPTH))


def test_bad_cutoff_reports_required_radius():
    with pytest.raises(BadCutoff) as err:
        honeycomb_potential(LATTICE, DEPTH, 0.05, 4.0)
    assert err.value.required > 4.0
    # the reported radius is sufficient
    honeycomb_potential(LATTICE, DEPTH, 0.05, err.value.required + 0.5)


def test_magnetic_field_is_odd_real_and_periodic():
    A = magnetic_A(LATTICE, 0.7)
    assert A.is_vector
    assert realness_residual(A) < 1e-14
    assert parity_residual(A) < 1e-14
    rng = np.random.default_rng(16)
    pts = rng.uniform(-2.0, 2.0, size=(50, 2))
    np.testing.assert_allclose(A.evaluate(-pts) + A.evaluate(pts), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        A.evaluate(pts + LATTICE.v1), A.evaluate(pts), atol=1e-12
    )
    # closed form at a point: sum of the two sine modes
    x = np.array([[0.31, -0.47]])
    j_rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    u1 = j_rot @ (LATTICE.k1 / np.linalg.norm(LATTICE.k1))
    u2 = j_rot @ (LATTICE.k2 / np.linalg.norm(LATTICE.k2))
    expected = 0.7 * (
        np.sin(2 * np.pi * (x[0] @ LATTICE.k1)) * u1
        + np.sin(2 * np.pi * (x[0] @ LATTICE.k2)) * u2
    )
    np.testing.assert_allclose(A.evaluate(x)[0], expected, atol=1e-13)


def test_magnetic_field_is_not_a_pure_gradient():
    # curl(A) = d(A_y)/dx - d(A_x)/dy must not vanish identically
    A = magnetic_A(LATTICE, 1.0)
    duals = A.dual_vectors()
    curl_coeffs = 2j * np.pi * (duals[:, 0] * A.coeffs[:, 1] - duals[:, 1] * A.coeffs[:, 0])
    assert np.max(np.abs(curl_coeffs)) > 0.1


def test_domain_wall_plateaus_and_oddness():
    bump = domain_wall("bump_smoothstep", 5.0)
    assert bump(5.001) == 1.0  # exactly
    assert bump(-5.001) == -1.0
    assert bump(0.0) == pytest.approx(0.0, abs=1e-15)
    ts = np.linspace(-8, 8, 401)
    np.testing.assert_allclose(bump(-ts), -bump(ts), atol=1e-14)

    tanh_wall = domain_wall("tanh_scaled", 5.0)
    assert abs(tanh_wall(5.0) - np.tanh(3.0)) < 1e-15
    assert tanh_wall(0.0) == 0.0
    np.testing.assert_allclose(tanh_wall(-ts), -tanh_wall(ts), atol=1e-15)


@pytest.mark.parametrize("kind", ["bump_smoothstep", "tanh_scaled"])
def test_domain_wall_scalar_matches_array(kind):
    # a Python float takes the math branch; it must give the array values,
    # at the plateau edges t = +-L and on the plateaus too
    L = 5.0
    wall = domain_wall(kind, L)
    ts = np.concatenate([np.linspace(-12.0, 12.0, 200_001), [-L, L]])
    scalar = np.array([wall(float(t)) for t in ts])
    assert isinstance(wall(1.0), float)
    assert np.abs(scalar - wall(ts)).max() <= 1e-15
    if kind == "bump_smoothstep":
        assert np.all(scalar[np.abs(ts) >= L] == np.sign(ts[np.abs(ts) >= L]))


def test_domain_wall_derivative_matches_finite_differences():
    for kind in ("bump_smoothstep", "tanh_scaled"):
        wall = domain_wall(kind, 3.0)
        ts = np.linspace(-4.0, 4.0, 57)
        h = 1e-6
        fd = (wall(ts + h) - wall(ts - h)) / (2.0 * h)
        np.testing.assert_allclose(wall.derivative(ts), fd, atol=1e-7)


def test_tanh_antiderivative_closed_form():
    wall = domain_wall("tanh_scaled", 5.0)
    for t in (-7.3, -1.0, 0.0, 0.4, 2.9, 11.0):
        expected = (5.0 / 3.0) * np.log(np.cosh(3.0 * t / 5.0))
        assert wall.antiderivative(t) == pytest.approx(expected, abs=1e-12)


def test_bump_antiderivative_matches_quadrature():
    wall = domain_wall("bump_smoothstep", 2.0)
    for t in (-5.0, -1.7, 0.6, 1.9, 2.0, 8.0):
        expected, _ = quad(lambda s: float(wall(s)), 0.0, t, limit=200)
        assert wall.antiderivative(t) == pytest.approx(expected, abs=1e-9)


def test_bump_antiderivative_samples_only_the_transition(monkeypatch):
    # the Gauss rule runs at the nodes with |t| < L and once at L; a plateau
    # node is the value at L plus |t| - L, so an array gives the same numbers
    # as one call per node
    from artifact.potentials import DomainWall

    wall = domain_wall("bump_smoothstep", 2.0)
    ts = np.linspace(-8.0, 8.0, 33)
    per_node = np.array([wall.antiderivative(t) for t in ts])
    at_plateau = wall.antiderivative(2.0)
    rows = []
    profile = DomainWall.__call__

    def counted(self, t):
        rows.append(np.shape(t))
        return profile(self, t)

    monkeypatch.setattr(DomainWall, "__call__", counted)
    values = wall.antiderivative(ts)
    inside = int(np.count_nonzero(np.abs(ts) < 2.0))
    assert rows == [(inside + 1, 48)]
    assert np.array_equal(values, per_node)
    plateau = np.abs(ts) >= 2.0
    assert np.array_equal(values[plateau], at_plateau + (np.abs(ts[plateau]) - 2.0))


def test_domain_wall_rejects_bad_arguments():
    with pytest.raises(ValueError):
        domain_wall("tanh_scaled", 0.0)
    with pytest.raises(ValueError):
        domain_wall("sigmoid", 1.0)


def test_bump_step_is_exact_at_the_ends_and_odd_about_half():
    from artifact.potentials import _bump_step

    s = np.linspace(-3.0, 3.0, 6001)
    f = _bump_step(s)
    assert np.all(f[s <= 0.0] == 0.0)
    assert np.all(f[s >= 1.0] == 1.0)
    assert np.all(np.diff(f) >= 0.0)
    np.testing.assert_allclose(f + _bump_step(1.0 - s), 1.0, rtol=0, atol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 1.0, -0.0, -2.0, 0.25, 3.0):
            assert np.ndim(_bump_step(x)) == 0
        assert _bump_step(0.0) == 0.0 and _bump_step(1.0) == 1.0
        _bump_step(np.array([0.0, 1.0, -1.0, 2.0, 0.5]))
        domain_wall("bump_smoothstep", 5.0)(np.array([-5.0, 0.0, 5.0]))
