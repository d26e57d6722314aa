"""Tests for the two-scale quasimodes of the wall strip.

The medium is the one of the ribbon tests (wells of depth -30, width
0.15*|v1|, tables at cutoff 8) with the gap-opening field at amplitude 10 and
the fast ball at cutoff 5, where the truncation split of the cone pair is
small enough for the solvability gate.  At t_factor 4.5 the box holds the
envelope, so each ansatz order gains one power of delta in its residual.
"""

import dataclasses

import numpy as np
import pytest

from artifact import bloch, dirac_cone, geometry, potentials, quasimode, wall_dirac


@pytest.fixture(scope="module")
def setup():
    lat = geometry.build_lattice()
    frame = geometry.make_edge_frame(lat, 1, 0)
    width = 0.15 * np.linalg.norm(lat.v1)
    V = potentials.honeycomb_potential(lat, -30.0, width, 8)
    W = potentials.parity_breaking_W(lat, 10.0, width, 8)
    wall = potentials.domain_wall("bump_smoothstep", 5.0)
    basis = bloch.build_basis(lat, 5.0)
    cone = dirac_cone.find_dirac_point(V, "A", basis)
    dirac_cone.compute_nu_star(cone, basis, linearity_tol=1e-4)
    mass = dirac_cone.compute_mass(cone, basis, W)
    params = wall_dirac.params_from_frames(cone, frame, mass, wall)
    ws = quasimode.quasimode_workspace(cone, frame, V, wall, W, basis)
    return params, ws


def test_residual_exponents_are_order_plus_one(setup):
    params, ws = setup
    study = quasimode.residual_orders(
        ws, quasimode.zero_mode_pair(params), (0.08, 0.04),
        orders=(0, 1, 2), t_factor=4.5,
    )
    assert study.orders == (0, 1, 2)
    for order in study.orders:
        assert abs(study.exponents[order] - (order + 1)) < 0.05
    # the exact zero mode passes the solvability gate at every delta
    assert np.all(study.defects < quasimode.SOLVABILITY_TOL)


def test_solvability_gate_rejects_mismatched_mass(setup):
    params, ws = setup
    off = dataclasses.replace(params, mass=1.001 * params.mass)
    pair = quasimode.zero_mode_pair(off)
    ts = 0.08 * np.arange(-200, 201) * 0.5
    with pytest.raises(quasimode.SolvabilityViolation, match="solvability projection"):
        quasimode.first_correction(ws, pair, ts)
    # the consistent pair on the same nodes passes
    ok = quasimode.first_correction(ws, quasimode.zero_mode_pair(params), ts)
    assert ok.defect < quasimode.SOLVABILITY_TOL
