"""Cone detection and coefficient extraction against frozen study values.

The numbers below were frozen from convergence studies on the default
medium (wells of depth -30, width 0.15*|v1|, tables and basis at cutoff 8):

  * cone energy 1.899989144564, stable to 1e-11 under cutoff doubling;
  * velocity coefficient 3.2984584267 - 1.9043658606j at the first cone,
    modulus 3.8087317211, agreeing with a finite-difference slope fit on
    rings around the cone to 0.3%;
  * per-unit-amplitude gap coefficient of the sublattice field:
    -0.3432162289 at the first cone, +0.3432162289 at the second;
  * per-unit-amplitude gap coefficient of the transverse sine vector
    field: +1.5616859763, equal at both cones.
"""


import numpy as np
import pytest

from artifact import bloch, dirac_cone, geometry, potentials

E_CONE = 1.899989144564
NU_STAR_A = 3.2984584267 - 1.9043658606j
NU_ABS = 3.8087317211
SCALAR_MASS_UNIT = -0.3432162289  # first cone, per unit wall amplitude
MAGNETIC_MASS_UNIT = 1.5616859763  # both cones, per unit field amplitude


def rank_two_model(data, basis, V, W, xi, delta):
    """Two-level prediction vs. the true fiber pair near the gapped cone.

    The model eigenvalues are E* +- sqrt(mass^2 delta^2 + nu_F^2 |xi-xi*|^2)
    with the mass of W on this cone (``compute_mass``) and the velocity
    that ``compute_nu_star`` stored on it; returns (model pair, fiber pair
    nearest E*, max deviation).
    """
    mass = dirac_cone.compute_mass(data, basis, W)
    dist = float(np.linalg.norm(xi - data.xi_star))
    radius = np.sqrt(mass**2 * delta**2 + data.nu_abs**2 * dist**2)
    model = np.array([data.E_star - radius, data.E_star + radius])
    fiber = bloch.assemble_fiber(xi, delta, V, basis, W)
    vals, _ = bloch.eigs(fiber, data.j_star + 3)
    order = np.argsort(np.abs(vals - data.E_star))
    pair = np.sort(vals[order[:2]])
    return model, pair, float(np.max(np.abs(pair - model)))


@pytest.fixture(scope="module")
def lat():
    return geometry.build_lattice()


@pytest.fixture(scope="module")
def wells(lat):
    return potentials.honeycomb_potential(lat, -30.0, 0.15 * np.linalg.norm(lat.v1), 8.0)


@pytest.fixture(scope="module")
def basis8(lat):
    return bloch.build_basis(lat, 8.0)


@pytest.fixture(scope="module")
def cone_a(wells, basis8):
    return dirac_cone.find_dirac_point(wells, "A", basis8)


@pytest.fixture(scope="module")
def cone_b(wells, basis8):
    return dirac_cone.find_dirac_point(wells, "B", basis8)


def test_cone_energy_and_certificate(cone_a, cone_b):
    assert abs(cone_a.E_star - E_CONE) < 1e-9
    assert abs(cone_a.E_star - cone_b.E_star) < 1e-9
    assert cone_a.degeneracy_split < 1e-7
    assert cone_b.degeneracy_split < 1e-7
    assert cone_a.j_star == 1
    assert cone_a.rotation_residual < 1e-8


def test_symmetry_frame_structure(cone_a, basis8):
    # second basis vector is the elementwise conjugate of the first
    assert np.allclose(cone_a.phi2, np.conj(cone_a.phi1), atol=0)
    # both are unit vectors, orthogonal to each other
    assert abs(np.linalg.norm(cone_a.phi1) - 1.0) < 1e-12
    assert abs(np.vdot(cone_a.phi1, cone_a.phi2)) < 1e-9
    # rotation eigenvector property, checked directly
    images, valid = dirac_cone.rotation_permutation(basis8, cone_a.xi_star)
    rotated = dirac_cone.apply_rotation(cone_a.phi1, images, valid)
    tau = np.exp(2j * np.pi / 3.0)
    assert np.linalg.norm(rotated - tau * cone_a.phi1) < 1e-8


def test_velocity_coefficient_value(cone_a, basis8):
    nu = dirac_cone.compute_nu_star(cone_a, basis8)
    assert abs(nu - NU_STAR_A) < 1e-8
    assert abs(abs(nu) - NU_ABS) < 1e-8
    # diagonal momentum elements vanish at the cone
    assert cone_a.diagnostics["momentum_diag_11"] < 1e-9
    assert cone_a.diagnostics["momentum_diag_22"] < 1e-9


def test_velocity_gauge_invariance(wells, basis8):
    # the modulus of the velocity coefficient is gauge independent; the
    # phase anchor only rotates it
    data0 = dirac_cone.find_dirac_point(wells, "A", basis8)
    nu0 = dirac_cone.compute_nu_star(data0, basis8)
    anchored = dirac_cone.find_dirac_point(wells, "A", basis8, phase_anchor=5)
    nu1 = dirac_cone.compute_nu_star(anchored, basis8)
    assert abs(abs(nu1) - abs(nu0)) < 1e-9


def test_conjugate_cone_velocity_modulus(cone_b, basis8):
    nu_b = dirac_cone.compute_nu_star(cone_b, basis8)
    assert abs(abs(nu_b) - NU_ABS) < 1e-8


def test_fermi_velocity_fit_matches_modulus(wells, cone_a, basis8):
    nu_f, diag = dirac_cone.fit_fermi_velocity(wells, cone_a, basis8)
    assert abs(nu_f - NU_ABS) / NU_ABS < 0.02
    assert diag["spread"] < 0.10


def test_scalar_mass_values_and_antisymmetry(lat, cone_a, cone_b, basis8):
    W = potentials.parity_breaking_W(lat, 1.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    m_a = dirac_cone.compute_mass(cone_a, basis8, W)
    m_b = dirac_cone.compute_mass(cone_b, basis8, W)
    assert abs(m_a - SCALAR_MASS_UNIT) < 1e-8
    assert abs(m_a + m_b) < 1e-8
    # mass matrix is purely off-band-diagonal-free: cross terms vanish
    assert cone_a.diagnostics["mass_cross_term"] < 1e-9
    assert abs(cone_a.diagnostics["mass_22"] + m_a) < 1e-9


def test_scalar_mass_scales_with_amplitude(lat, cone_a, basis8):
    W3 = potentials.parity_breaking_W(lat, 3.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    m3 = dirac_cone.compute_mass(cone_a, basis8, W3)
    assert abs(m3 - 3.0 * SCALAR_MASS_UNIT) < 1e-8


def test_magnetic_mass_equal_at_both_cones(lat, cone_a, cone_b, basis8):
    A = potentials.magnetic_A(lat, 1.0)
    m_a = dirac_cone.compute_mass(cone_a, basis8, A)
    m_b = dirac_cone.compute_mass(cone_b, basis8, A)
    assert abs(m_a - MAGNETIC_MASS_UNIT) < 1e-8
    assert abs(m_a - m_b) < 1e-8
    # defaults used elsewhere: amplitude 0.65 gives a mass near one
    A65 = potentials.magnetic_A(lat, 0.65)
    m65 = dirac_cone.compute_mass(cone_a, basis8, A65)
    assert abs(m65 - 0.65 * MAGNETIC_MASS_UNIT) < 1e-8


def test_longitudinal_polarization_would_be_gauge_trivial(lat, cone_a, basis8):
    # rotate each polarization back onto its wavevector: every mode becomes
    # a pure gradient, so the field is gauge trivial and the mass collapses
    A = potentials.magnetic_A(lat, 1.0)
    longitudinal = np.column_stack([A.coeffs[:, 1], -A.coeffs[:, 0]])
    grad = potentials.FourierField(
        lattice=lat,
        indices=A.indices,
        coeffs=longitudinal,
        parity="odd",
        kind="longitudinal_probe",
        meta={"exact_table": True},
    )
    with pytest.raises(dirac_cone.DegenerateMass):
        dirac_cone.compute_mass(cone_a, basis8, grad)


def test_no_degeneracy_below_resolving_cutoff(wells, lat):
    # a coarse basis leaves a 2e-5 split at the cone; a certificate asking
    # for a much tighter degeneracy must refuse rather than mislabel
    basis4 = bloch.build_basis(lat, 4.0)
    with pytest.raises(dirac_cone.NoDegeneracyFound):
        dirac_cone.find_dirac_point(wells, "A", basis4, degeneracy_tol=1e-9)


def test_rank_two_model_reduces_at_cone(lat, wells, cone_a, basis8):
    W = potentials.parity_breaking_W(lat, 3.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    dirac_cone.compute_nu_star(cone_a, basis8)
    model, fiber, dev = rank_two_model(
        cone_a, basis8, wells, W, cone_a.xi_star, 0.0
    )
    # at the cone with delta = 0 both model levels collapse to the cone energy
    assert np.allclose(model, [cone_a.E_star, cone_a.E_star], atol=1e-12)
    assert dev < 1e-9


def test_rank_two_model_deviation_scales(lat, wells, cone_a, basis8):
    # second-order accuracy: deviation drops ~4x when (delta, offset) halve
    W = potentials.parity_breaking_W(lat, 3.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    dirac_cone.compute_nu_star(cone_a, basis8)
    direction = np.array([0.6, 0.8])
    devs = []
    for scale in (1.0, 0.5):
        xi = cone_a.xi_star + 0.05 * scale * direction
        _, _, dev = rank_two_model(cone_a, basis8, wells, W, xi, 0.04 * scale)
        devs.append(dev)
    order = np.log2(devs[0] / devs[1])
    assert 1.5 < order < 2.5


def test_no_fold_scan_zigzag_margins(lat, wells, cone_a, basis8):
    edge = geometry.make_edge_frame(lat, 1, 0)
    report = dirac_cone.no_fold_scan(wells, edge, cone_a, basis8)
    assert not report["armchair"]
    assert report["other_band_margin"] > 0.5
    assert report["cone_pair_margin_away_from_cone"] > 0.0


def test_no_fold_scan_flags_armchair(lat, wells, cone_a, basis8):
    edge = geometry.make_edge_frame(lat, 1, 1)
    report = dirac_cone.no_fold_scan(wells, edge, cone_a, basis8)
    assert report["armchair"]


def test_no_fold_scan_validates_sampling(lat, wells, cone_a, basis8):
    edge = geometry.make_edge_frame(lat, 1, 0)
    with pytest.raises(ValueError):
        dirac_cone.no_fold_scan(wells, edge, cone_a, basis8, tau_samples=32)
