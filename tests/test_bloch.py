"""Plane-wave fiber solver: exactness, symmetries, and convergence.

The degeneracy values at the cone momentum are frozen from a cutoff-doubling
study (4 -> 8 -> 16 -> 32): the first-band energy at the cone stabilizes to
1.899989144564 and the two-fold split collapses from 2.2e-5 at cutoff 4 to
round-off at cutoff 8 and beyond.
"""

import numpy as np
import pytest
import scipy.linalg

from artifact import bloch, geometry, potentials

E_CONE = 1.899989144564  # first-band energy at the cone, default wells


@pytest.fixture(scope="module")
def lat():
    return geometry.build_lattice()


@pytest.fixture(scope="module")
def wells(lat):
    width = 0.15 * np.linalg.norm(lat.v1)
    return potentials.honeycomb_potential(lat, -30.0, width, 8.0)


@pytest.fixture(scope="module")
def basis8(lat):
    return bloch.build_basis(lat, 8.0)


def test_free_fiber_is_exact(lat, basis8):
    xi = np.array([0.4, 0.1])
    op = bloch.assemble_fiber(xi, 0.0, None, basis8)
    vals, vecs = bloch.eigs(op, 6)
    expected = np.sort(np.sum((xi[None, :] + 2 * np.pi * basis8.duals) ** 2, axis=1))
    assert np.allclose(vals, expected[:6], atol=1e-12)
    # eigenvectors solve the problem
    for j in range(6):
        r = op.matrix @ vecs[:, j] - vals[j] * vecs[:, j]
        assert np.linalg.norm(r) < 1e-10


def test_hermiticity_scalar_and_magnetic(lat, wells, basis8):
    xi = np.array([0.3, -0.2])
    W = potentials.parity_breaking_W(lat, 3.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    A = potentials.magnetic_A(lat, 0.65)
    for pert in (None, W, A):
        op = bloch.assemble_fiber(xi, 0.07, wells, basis8, pert)
        assert op.hermiticity_residual < 1e-13


def test_periodicity_under_dual_shifts(lat, wells, basis8):
    xi = np.array([0.31, -0.17])
    base = bloch.eigs(bloch.assemble_fiber(xi, 0.0, wells, basis8), 5)[0]
    for eta in (lat.k1, lat.k2, lat.k1 + lat.k2, -lat.k2):
        shifted = bloch.eigs(
            bloch.assemble_fiber(xi + 2 * np.pi * eta, 0.0, wells, basis8), 5
        )[0]
        assert np.max(np.abs(base - shifted)) < 1e-10


def test_rotation_invariance_of_bands(lat, wells, basis8):
    # the plane-wave ball maps onto itself under the lattice rotation, so
    # rotation invariance holds to round-off at matched truncation
    R = geometry.rotation_matrix()
    for xi in (np.array([0.31, -0.17]), np.array([-0.8, 0.45])):
        a = bloch.eigs(bloch.assemble_fiber(xi, 0.0, wells, basis8), 6)[0]
        b = bloch.eigs(bloch.assemble_fiber(R @ xi, 0.0, wells, basis8), 6)[0]
        assert np.max(np.abs(a - b)) < 1e-11


def test_conjugation_symmetry_for_real_potential(lat, wells, basis8):
    xi = np.array([0.52, 0.33])
    a = bloch.eigs(bloch.assemble_fiber(xi, 0.0, wells, basis8), 6)[0]
    b = bloch.eigs(bloch.assemble_fiber(-xi, 0.0, wells, basis8), 6)[0]
    assert np.max(np.abs(a - b)) < 1e-10


def test_cone_degeneracy_and_cutoff_doubling(lat, wells):
    xi_a, _ = geometry.dirac_momenta(lat)
    splits = {}
    energies = {}
    for cutoff in (4.0, 8.0, 16.0):
        basis = bloch.build_basis(lat, cutoff)
        vals = bloch.eigs(bloch.assemble_fiber(xi_a, 0.0, wells, basis), 3)[0]
        splits[cutoff] = vals[1] - vals[0]
        energies[cutoff] = 0.5 * (vals[0] + vals[1])
    # split collapses under refinement and is resolved at the working cutoff
    assert splits[4.0] < 1e-4
    assert splits[8.0] <= splits[4.0]
    assert splits[16.0] <= 1e-9
    assert splits[8.0] < 1e-9
    # energy itself has converged
    assert abs(energies[8.0] - E_CONE) < 1e-9
    assert abs(energies[16.0] - energies[8.0]) < 1e-9


def test_both_cones_agree(lat, wells, basis8):
    xi_a, xi_b = geometry.dirac_momenta(lat)
    va = bloch.eigs(bloch.assemble_fiber(xi_a, 0.0, wells, basis8), 2)[0]
    vb = bloch.eigs(bloch.assemble_fiber(xi_b, 0.0, wells, basis8), 2)[0]
    assert np.max(np.abs(va - vb)) < 1e-10


def test_magnetic_matrix_element_formula(lat, basis8):
    # spot-check the symmetrized quantization against the hand formula:
    # element(m, n) = A_hat(eta_m - eta_n) . (2*xi + 2*pi*(eta_m + eta_n))
    A = potentials.magnetic_A(lat, 0.65)
    xi = np.array([0.2, -0.4])
    M = bloch.magnetic_matrix(A, basis8, xi)
    lookup = A.lookup
    m, n = 3, 17
    dm = tuple(basis8.indices[m] - basis8.indices[n])
    expect = 0.0
    if dm in lookup:
        ahat = lookup[dm]
        expect = ahat @ (2 * xi + 2 * np.pi * (basis8.duals[m] + basis8.duals[n]))
    assert abs(M[m, n] - expect) < 1e-12
    assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_scalar_perturbation_scales_linearly(lat, wells, basis8):
    W = potentials.parity_breaking_W(lat, 3.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    xi = np.array([0.1, 0.6])
    h0 = bloch.assemble_fiber(xi, 0.0, wells, basis8, W).matrix
    h1 = bloch.assemble_fiber(xi, 0.25, wells, basis8, W).matrix
    h2 = bloch.assemble_fiber(xi, 0.50, wells, basis8, W).matrix
    assert np.allclose(h2 - h1, h1 - h0, atol=1e-12)


def test_truncated_table_raises_mismatch(lat, basis8):
    # hand-truncate a wide table so its boundary carries real weight
    wide = potentials.honeycomb_potential(lat, -30.0, 0.3 * np.linalg.norm(lat.v1), 8.0)
    radius = np.linalg.norm(wide.dual_vectors(), axis=1)
    keep = radius <= 2.0
    clipped = potentials.FourierField(
        lattice=lat,
        indices=wide.indices[keep],
        coeffs=wide.coeffs[keep],
        parity=wide.parity,
        kind="clipped",
        meta={},
    )
    with pytest.raises(bloch.CutoffMismatch):
        bloch.convolution_matrix(clipped, basis8)


def test_eigs_rejects_overcount(lat, wells):
    basis = bloch.build_basis(lat, 3.0)
    op = bloch.assemble_fiber(np.zeros(2), 0.0, wells, basis)
    with pytest.raises(ValueError):
        bloch.eigs(op, op.dim + 1)


@pytest.mark.parametrize("field", ["none", "W", "A"])
def test_eigs_matches_scipy_eigh(lat, wells, field):
    # the direct zheevr call is scipy.linalg.eigh(subset_by_index=...) bit
    # for bit, values and vectors, on fibers with a scalar, a vector or no
    # perturbation, at cutoffs 4 and 8 and for several counts
    width = 0.15 * np.linalg.norm(lat.v1)
    pert = {
        "none": None,
        "W": potentials.parity_breaking_W(lat, 10.0, width, 8.0),
        "A": potentials.magnetic_A(lat, 2.2),
    }[field]
    rng = np.random.default_rng(3)
    for cutoff in (4.0, 8.0):
        basis = bloch.build_basis(lat, cutoff)
        for _ in range(3):
            op = bloch.assemble_fiber(rng.standard_normal(2), 0.08, wells, basis, pert)
            for count in (1, 2, 7):
                vals, vecs = bloch.eigs(op, count)
                ref_vals, ref_vecs = scipy.linalg.eigh(
                    op.matrix, subset_by_index=[0, count - 1]
                )
                assert vals.shape == (count,) and vecs.shape == (op.dim, count)
                assert np.array_equal(vals, ref_vals)
                assert np.array_equal(vecs, ref_vecs)


def test_gap_opens_linearly_with_delta(lat, wells, basis8):
    # at the cone, a small transition-breaking perturbation opens a split
    # that is linear in delta with slope 2*|mass|
    W = potentials.parity_breaking_W(lat, 3.0, 0.15 * np.linalg.norm(lat.v1), 8.0)
    xi_a, _ = geometry.dirac_momenta(lat)
    gaps = {}
    for delta in (0.02, 0.01):
        vals = bloch.eigs(bloch.assemble_fiber(xi_a, delta, wells, basis8, W), 2)[0]
        gaps[delta] = vals[1] - vals[0]
    ratio = gaps[0.02] / gaps[0.01]
    assert abs(ratio - 2.0) < 0.02
