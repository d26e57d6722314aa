from __future__ import annotations

from math import gcd

import numpy as np
import pytest

from artifact.geometry import (
    LATTICE_SCALE,
    NonCoprime,
    ROTATION_ON_DUAL_INTS,
    as_complex,
    build_lattice,
    dirac_momenta,
    make_edge_frame,
    rotation_matrix,
)

TWO_PI = 2.0 * np.pi


def coprime_pairs(limit):
    """All coprime (a1, a2) with 0 < max(|a1|, |a2|) <= limit."""
    for a1 in range(-limit, limit + 1):
        for a2 in range(-limit, limit + 1):
            if (a1, a2) != (0, 0) and gcd(a1, a2) == 1:
                yield a1, a2


@pytest.fixture(scope="module")
def frame():
    return build_lattice()


def test_scale_fixed_by_unit_cell_area(frame):
    # solve |det[v1, v2]| = 2*sqrt(3)*a^2 = 1 by hand
    assert frame.a == pytest.approx((2.0 * np.sqrt(3.0)) ** -0.5, abs=1e-15)
    assert frame.a == pytest.approx(0.53728, abs=5e-6)
    det = frame.v1[0] * frame.v2[1] - frame.v1[1] * frame.v2[0]
    assert abs(det) == pytest.approx(1.0, abs=1e-14)
    assert frame.orientation == -1
    assert np.sign(det) == frame.orientation


def test_duality_is_exact(frame):
    assert frame.k1 @ frame.v1 == pytest.approx(1.0, abs=1e-14)
    assert frame.k1 @ frame.v2 == pytest.approx(0.0, abs=1e-14)
    assert frame.k2 @ frame.v1 == pytest.approx(0.0, abs=1e-14)
    assert frame.k2 @ frame.v2 == pytest.approx(1.0, abs=1e-14)


def test_dual_vectors_closed_form(frame):
    # [k1, k2] = (1/(6a)) * [[sqrt(3), sqrt(3)], [3, -3]]
    a = frame.a
    expected = np.array([[np.sqrt(3.0), np.sqrt(3.0)], [3.0, -3.0]]) / (6.0 * a)
    cell = np.column_stack([frame.k1, frame.k2])
    np.testing.assert_allclose(cell, expected, atol=1e-14)


def test_rotation_preserves_lattice_exactly(frame):
    rot = rotation_matrix()
    np.testing.assert_allclose(rot @ frame.v1, -frame.v2, atol=1e-15)
    np.testing.assert_allclose(rot @ frame.v2, frame.v1 - frame.v2, atol=1e-15)
    # and the cube is the identity
    np.testing.assert_allclose(rot @ rot @ rot, np.eye(2), atol=1e-15)


def test_rotation_on_dual_integer_coordinates(frame):
    rot = rotation_matrix()
    for n1, n2 in [(1, 0), (0, 1), (2, -3), (5, 5)]:
        image = rot @ frame.dual_vector(n1, n2)
        m1, m2 = ROTATION_ON_DUAL_INTS @ np.array([n1, n2])
        np.testing.assert_allclose(image, frame.dual_vector(m1, m2), atol=1e-13)


def test_dirac_momenta_basics(frame):
    xi_a, xi_b = dirac_momenta(frame)
    np.testing.assert_allclose(
        xi_a, TWO_PI / 3.0 * (2.0 * frame.k1 + frame.k2), atol=1e-13
    )
    np.testing.assert_allclose(
        xi_b, TWO_PI / 3.0 * (frame.k1 + 2.0 * frame.k2), atol=1e-13
    )
    # -xi_A = xi_B modulo the dual lattice
    assert frame.in_dual_lattice(-xi_a - xi_b)
    # the rotation fixes each cone momentum modulo the dual lattice
    rot = rotation_matrix()
    assert frame.in_dual_lattice(rot.T @ xi_a - xi_a)
    assert frame.in_dual_lattice(rot @ xi_a - xi_a)


def test_reduce_dual_is_idempotent_and_periodic(frame):
    rng = np.random.default_rng(7)
    for _ in range(50):
        xi = rng.normal(size=2) * 20.0
        red = frame.reduce_dual(xi)
        c = frame.dual_coords(red)
        assert np.all(c > -1e-9) and np.all(c < 1.0 + 1e-9)
        assert frame.in_dual_lattice(xi - red)
        np.testing.assert_allclose(frame.reduce_dual(red), red, atol=1e-10)


def test_edge_frame_examples_match_hand_values(frame):
    e10 = make_edge_frame(frame, 1, 0)
    np.testing.assert_allclose(e10.v, frame.v1, atol=1e-15)
    np.testing.assert_allclose(e10.vp, frame.v2, atol=1e-15)
    np.testing.assert_allclose(e10.k, frame.k1, atol=1e-15)
    np.testing.assert_allclose(e10.kp, frame.k2, atol=1e-15)
    assert e10.zeta_star_a == pytest.approx(4.0 * np.pi / 3.0, abs=1e-14)
    assert e10.zeta_star_b == pytest.approx(2.0 * np.pi / 3.0, abs=1e-14)
    assert not e10.armchair

    zigzag = make_edge_frame(frame, 1, -1)
    np.testing.assert_allclose(zigzag.kp, frame.k1 + frame.k2, atol=1e-15)
    assert not zigzag.armchair

    armchair = make_edge_frame(frame, 1, 1)
    assert armchair.armchair


def test_edge_frame_rejects_non_coprime(frame):
    with pytest.raises(NonCoprime):
        make_edge_frame(frame, 2, 4)


def test_edge_frame_duality_and_ell_random_directions(frame):
    count = 0
    for a1, a2 in coprime_pairs(20):
        count += 1
        edge = make_edge_frame(frame, a1, a2)
        assert edge.a1 * edge.b2 - edge.a2 * edge.b1 == 1
        assert edge.k @ edge.v == pytest.approx(1.0, abs=1e-13)
        assert edge.k @ edge.vp == pytest.approx(0.0, abs=1e-13)
        assert edge.kp @ edge.v == pytest.approx(0.0, abs=1e-13)
        assert edge.kp @ edge.vp == pytest.approx(1.0, abs=1e-13)
        # ell: the part of k orthogonal to k', still pairing to 1 with v
        assert edge.ell @ edge.kp == pytest.approx(0.0, abs=1e-12)
        assert edge.ell @ edge.v == pytest.approx(1.0, abs=1e-12)
        # orientation of the (k, k') frame matches the primitive duals
        det_kkp = edge.k[0] * edge.kp[1] - edge.k[1] * edge.kp[0]
        det_k1k2 = frame.k1[0] * frame.k2[1] - frame.k1[1] * frame.k2[0]
        assert det_kkp == pytest.approx(det_k1k2, rel=1e-12)
        # Im(k' * conj(ell)) = det[k, k'] (scale-free identity)
        im = np.imag(as_complex(edge.kp) * np.conj(as_complex(edge.ell)))
        assert im == pytest.approx(det_kkp, rel=1e-10)
    assert count > 400  # the sweep actually covered the plane


def test_ell_does_not_depend_on_bezout_representative(frame):
    rng = np.random.default_rng(3)
    pairs = [p for p in coprime_pairs(12)]
    for idx in rng.choice(len(pairs), size=40, replace=False):
        a1, a2 = pairs[idx]
        edge = make_edge_frame(frame, a1, a2)
        for t in (-2, 1, 3):
            b1 = edge.b1 + t * a1
            b2 = edge.b2 + t * a2
            k = b2 * frame.k1 - b1 * frame.k2
            kp = -a2 * frame.k1 + a1 * frame.k2
            ell = k - (k @ kp) / (kp @ kp) * kp
            np.testing.assert_allclose(ell, edge.ell, atol=1e-12)


def test_zeta_star_values_on_third_circle(frame):
    thirds = {0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0}
    for a1, a2 in coprime_pairs(20):
        edge = make_edge_frame(frame, a1, a2)
        for z in (edge.zeta_star_a, edge.zeta_star_b):
            assert min(abs(z - t) for t in thirds) < 1e-12
        distinct = {round(edge.zeta_star_a, 9), round(edge.zeta_star_b, 9)}
        if (a1 - a2) % 3 == 0:
            # armchair: both cones project to the same edge phase (zero)
            assert edge.armchair
            assert distinct == {0.0}
        else:
            assert not edge.armchair
            assert distinct == {
                round(TWO_PI / 3.0, 9),
                round(2.0 * TWO_PI / 3.0, 9),
            }


def test_zeta_star_matches_cone_momentum_pairing(frame):
    # <xi_A, v> mod 2*pi must equal the closed-form zeta_star^A
    def circ_dist(x, y):
        d = np.mod(x - y, TWO_PI)
        return min(d, TWO_PI - d)

    xi_a, xi_b = dirac_momenta(frame)
    for a1, a2 in [(1, 0), (1, -1), (2, 1), (3, -2), (1, 1)]:
        edge = make_edge_frame(frame, a1, a2)
        assert circ_dist(xi_a @ edge.v, edge.zeta_star_a) < 1e-10
        assert circ_dist(xi_b @ edge.v, edge.zeta_star_b) < 1e-10


def test_zigzag_edge_frame_closed_forms(frame):
    z = make_edge_frame(frame, 1, -1)
    a = frame.a
    np.testing.assert_allclose(z.v, np.array([0.0, 2.0 * a]), atol=1e-14)
    np.testing.assert_allclose(z.ell, np.array([0.0, 1.0 / (2.0 * a)]), atol=1e-13)
    np.testing.assert_allclose(
        z.kp, np.array([np.sqrt(3.0) / (3.0 * a), 0.0]), atol=1e-13
    )
    assert z.tau_star("A") == pytest.approx(TWO_PI / 3.0, abs=1e-10)
    assert z.orientation_sign == -1
