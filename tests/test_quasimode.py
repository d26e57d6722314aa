"""Tests for the two-scale quasimodes of the wall strip.

The medium is the one of the ribbon tests (wells of depth -30, width
0.15*|v1|, tables at cutoff 8) with the gap-opening field at amplitude 10 and
the fast ball at cutoff 5, where the truncation split of the cone pair is
small enough for the solvability gate.  At t_factor 4.5 the box holds the
envelope, so each ansatz order gains one power of delta in its residual.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from artifact import bloch, dirac_cone, geometry, potentials, quasimode, wall_dirac
from artifact import strip as st


@pytest.fixture(scope="module")
def medium():
    lat = geometry.build_lattice()
    frame = geometry.make_edge_frame(lat, 1, 0)
    width = 0.15 * np.linalg.norm(lat.v1)
    V = potentials.honeycomb_potential(lat, -30.0, width, 8)
    wall = potentials.domain_wall("bump_smoothstep", 5.0)
    cones = {}

    def at_amplitude(amplitude, cutoff=5.0):
        if cutoff not in cones:
            basis = bloch.build_basis(lat, cutoff)
            cone = dirac_cone.find_dirac_point(V, "A", basis)
            dirac_cone.compute_nu_star(cone, basis, linearity_tol=1e-4)
            cones[cutoff] = basis, cone
        basis, cone = cones[cutoff]
        W = potentials.parity_breaking_W(lat, amplitude, width, 8)
        mass = dirac_cone.compute_mass(cone, basis, W)
        params = wall_dirac.params_from_frames(cone, frame, mass, wall)
        return params, quasimode.quasimode_workspace(cone, frame, V, wall, W, basis)

    return at_amplitude


@pytest.fixture(scope="module")
def setup(medium):
    return medium(10.0)


@pytest.fixture(scope="module")
def detuned_pair(setup):
    # mu = 0.3 has no closed-form pair: the envelope comes from the Prufer
    # ladder's eigenvalue and its glued half-line solutions
    params, _ = setup
    detuned = dataclasses.replace(params, mu=0.3)
    return wall_dirac.ladder_pair(wall_dirac.gap_spectrum(detuned, 30.0, 6000))


def _pair(setup, detuned_pair, mu):
    return wall_dirac.zero_mode_pair(setup[0]) if mu == 0.0 else detuned_pair


@pytest.mark.parametrize("wall_kind", ["mu=0.3", "tanh"])
def test_ladder_pair_matches_shooting(setup, monkeypatch, wall_kind):
    # the ladder pair takes the Prufer eigenvalue as it stands and samples
    # the glued Prufer halves, with no shooting; the independent shooting
    # route lands on the same eigenvalue and the same envelope
    params = dataclasses.replace(setup[0], mu=0.3)
    if wall_kind == "tanh":
        params = dataclasses.replace(
            params, wall=potentials.domain_wall("tanh_scaled", 5.0)
        )
    shots = []
    real_shoot = wall_dirac._shoot_halves

    def counted(*args):
        shots.append(args)
        return real_shoot(*args)

    monkeypatch.setattr(wall_dirac, "_shoot_halves", counted)
    pair = wall_dirac.ladder_pair(wall_dirac.gap_spectrum(params, 30.0, 6000))
    assert shots == []
    ref = wall_dirac.shooting_pair(params, pair.theta)
    assert len(shots) > 0
    assert abs(pair.theta - ref.theta) <= 1e-12
    ts = np.linspace(-27.0, 27.0, 1081)
    assert np.abs(pair.alpha(ts) - ref.alpha(ts)).max() <= 1e-10


def test_residual_exponents_are_order_plus_one(setup):
    params, ws = setup
    with warnings.catch_warnings():
        warnings.simplefilter("error", quasimode.TruncationFloorWarning)
        study = quasimode.residual_orders(
            ws, wall_dirac.zero_mode_pair(params), (0.08, 0.04),
            orders=(0, 1, 2), t_factor=4.5,
        )
    assert study.orders == (0, 1, 2)
    for order in study.orders:
        assert abs(study.exponents[order] - (order + 1)) < 0.05
    # the exact zero mode passes the solvability gate at every delta
    assert np.all(study.defects < quasimode.SOLVABILITY_TOL)
    # the box holds the envelope far below every residual
    assert np.all(study.edge_values < quasimode.EDGE_FLOOR_RATIO * study.residuals[2])


def test_detuned_exponents_through_ladder_pair(setup, detuned_pair):
    # the ladder pair's eigenvalue is the topological slope
    params, ws = setup
    detuned = dataclasses.replace(params, mu=0.3)
    pair = detuned_pair
    slope = detuned.mu * detuned.speed_mu * np.sign(detuned.mass) * detuned.orientation
    assert abs(pair.theta - slope) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error", quasimode.TruncationFloorWarning)
        study = quasimode.residual_orders(
            ws, pair, (0.08, 0.04), orders=(0, 1, 2), t_factor=4.5
        )
    assert study.mu == 0.3
    for order in study.orders:
        assert abs(study.exponents[order] - (order + 1)) < 0.05
    assert np.all(study.defects < quasimode.SOLVABILITY_TOL)


def test_top_order_zero_records_no_defect(setup):
    # no corrector is solved at order 0, so no solvability defect is
    # measured: the study says so with NaN, not with a perfect 0
    params, ws = setup
    study = quasimode.residual_orders(
        ws, wall_dirac.zero_mode_pair(params), (0.08, 0.04), orders=(0,), t_factor=4.5
    )
    assert np.all(np.isnan(study.defects))
    assert np.all(study.residuals[0] > 0)


def test_workspace_rejects_translated_ball(setup):
    # on the (0, 1) edge the wrapped phases (zeta*, tau*) put the fiber at
    # xi* + 2 pi (-1, 0), a ball the cone pair's coefficients do not sit on
    _, ws = setup
    other = geometry.make_edge_frame(ws.frame.lattice, 0, 1)
    args = (ws.potential, ws.wall, ws.perturbation, ws.basis)
    with pytest.raises(ValueError, match=r"edge \(0, 1\), cone A: .* S = \(-1, 0\)"):
        quasimode.quasimode_workspace(ws.data, other, *args)
    # the (1, 0) edge needs no translation and builds as before
    again = quasimode.quasimode_workspace(ws.data, ws.frame, *args)
    for name in ("d_kp", "d_ell", "comp_vals", "comp_vecs", "conv_w", "phi"):
        assert np.array_equal(getattr(again, name), getattr(ws, name))


def test_truncated_envelope_warns(medium):
    # at amplitude 3 the envelope decays too slowly for t_factor 4.5: its
    # value at the box ends (~1.4e-3) floors the order-1 and order-2
    # residuals, whose exponents collapse towards 1/2
    params, ws = medium(3.0)
    floor = quasimode.TruncationFloorWarning
    with pytest.warns(floor, match="floors the residual") as caught:
        study = quasimode.residual_orders(
            ws, wall_dirac.zero_mode_pair(params), (0.08, 0.04),
            orders=(0, 1, 2), t_factor=4.5,
        )
    tripped = {(w.message.delta, w.message.order) for w in caught}
    assert {(0.04, 1), (0.04, 2)} <= tripped
    assert all(o > 0 for _, o in tripped)  # order 0 is far above the floor
    for w in caught:
        i = study.deltas.tolist().index(w.message.delta)
        assert w.message.edge_value == study.edge_values[i]
        assert w.message.residual == study.residuals[w.message.order][i]
        assert w.message.edge_value > quasimode.EDGE_FLOOR_RATIO * w.message.residual
    assert study.exponents[2] < 1.0



@pytest.mark.parametrize("cutoff, split", [(4.0, 2.2e-5), (5.0, 5.4e-8)])
def test_deflation_split_sets_the_cutoff(medium, cutoff, split):
    # the workspace deflates the pair the cone certificate found, so its
    # split is the cone's truncation split.  It passes the deflation
    # threshold (9.4e-5) at both cutoffs, but at cutoff 4 the split leaves a
    # solvability projection of 1.6e-6, and the gate refuses the corrector
    params, ws = medium(10.0, cutoff)
    assert abs(ws.deflation_split - ws.data.degeneracy_split) <= 1e-12
    assert abs(ws.deflation_split - split) <= 0.05 * split
    assert abs(ws.deflation_threshold - 9.4e-5) <= 1e-6
    assert ws.deflation_split < ws.deflation_threshold
    pair = wall_dirac.zero_mode_pair(params)
    ts = 0.08 * np.arange(-200, 201) * 0.5
    if cutoff == 4.0:
        with pytest.raises(quasimode.SolvabilityViolation, match="1.580e-06"):
            quasimode.ansatz_series(ws, pair, ts, 1)
    else:
        series = quasimode.ansatz_series(ws, pair, ts, 1)
        assert series.diagnostics["defect"] < 1e-9


def test_solvability_gate_rejects_mismatched_mass(setup):
    params, ws = setup
    off = dataclasses.replace(params, mass=1.001 * params.mass)
    pair = wall_dirac.zero_mode_pair(off)
    ts = 0.08 * np.arange(-200, 201) * 0.5
    with pytest.raises(quasimode.SolvabilityViolation, match="solvability projection"):
        quasimode.ansatz_series(ws, pair, ts, 1)
    # the consistent pair on the same nodes passes
    ok = quasimode.ansatz_series(ws, wall_dirac.zero_mode_pair(params), ts, 1)
    assert ok.diagnostics["defect"] < quasimode.SOLVABILITY_TOL


# envelope_residual of the order-2 layer at delta = 0.08 when the bordered
# system was solved by sparse LU; the banded solve must reproduce it
SPARSE_LU_ENVELOPE_RESIDUAL = {0.0: 5.438818665598477e-05, 0.3: 1.1070898024218012e-04}


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_bordered_solve_matches_dense(setup, detuned_pair, monkeypatch, mu):
    _, ws = setup
    pair = _pair(setup, detuned_pair, mu)
    seen = []
    banded = wall_dirac._bordered_solve

    def capture(squared, w, rhs):
        beta = banded(squared, w, rhs)
        seen.append((squared, w, rhs, beta))
        return beta

    monkeypatch.setattr(wall_dirac, "_bordered_solve", capture)
    zeta = quasimode.effective_zeta(ws, 0.08, mu)
    grid = st.strip_terms(
        ws.frame, ws.potential, ws.wall, zeta, 0.08, ws.basis, t_factor=4.5
    ).grid
    ansatz = quasimode.leading_quasimode(ws, pair, grid, order=2)
    ((squared, w, rhs, beta),) = seen
    n = squared.shape[0]
    assert n + 1 == 2251
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = squared.toarray()
    bordered[:n, n] = w
    bordered[n, :n] = np.conj(w)
    dense = np.linalg.solve(bordered, np.append(rhs, 0.0))[:n]
    assert np.linalg.norm(beta - dense) <= 1e-10 * np.linalg.norm(dense)
    alpha = ansatz.series.alpha.ravel()
    assert abs(np.vdot(alpha, beta)) <= 1e-12 * np.linalg.norm(beta)
    reference = SPARSE_LU_ENVELOPE_RESIDUAL[mu]
    assert abs(ansatz.series.diagnostics["envelope_residual"] - reference) <= 1e-6 * reference


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_residual_orders_is_one_pass_per_delta(setup, detuned_pair, monkeypatch, mu):
    _, ws = setup
    pair = _pair(setup, detuned_pair, mu)
    calls = []
    build = quasimode.ansatz_series

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return build(*args, **kwargs)

    monkeypatch.setattr(quasimode, "ansatz_series", counted)

    def no_csc(*args, **kwargs):
        raise AssertionError("the CSC strip was built")

    # the residuals apply the strip's terms and never build its CSC matrix
    monkeypatch.setattr(st.StripOperator, "matrix", property(no_csc))
    deltas = (0.08, 0.04)
    study = quasimode.residual_orders(ws, pair, deltas, orders=(0, 1, 2), t_factor=4.5)
    # one series per delta, built through the top order
    assert calls == [2] * len(deltas)
    # the orders cut from the shared series are the vectors each order
    # builds; the apply is the study's own, so the match is bitwise
    for i, delta in enumerate(deltas):
        op = st.strip_terms(
            ws.frame, ws.potential, ws.wall, quasimode.effective_zeta(ws, delta, mu),
            delta, ws.basis, perturbation=ws.perturbation, t_factor=4.5,
        )
        for order in (0, 1):
            u = quasimode.leading_quasimode(ws, pair, op.grid, order=order)
            v = u.vector.reshape(op.grid.n_t, op.grid.n_fast)
            direct = float(np.linalg.norm(st.kron_apply(op.terms, v) - u.energy * v))
            assert study.residuals[order][i] == direct
            assert study.energies[order][i] == u.energy


# ---------------------------------------------------------------------------
# the correctors as dense (M, n) fields: the test's own route to the
# factored ones, built from the order-delta and order-delta^2 equations
# node by node


def _dense_bracket(ws, pair, kap, values, d_values):
    """[2 (kp.D) D_t + 2 mu (ell.D) + kappa W - theta] on a dense (M, n) field."""
    return (
        2.0 * ws.d_kp[:, None] * d_values
        + 2.0 * pair.mu * ws.d_ell[:, None] * values
        + (ws.conv_w @ values) * kap[None, :]
        - pair.theta * values
    )


def _dense_complement(ws, g):
    """-(P0 - E*)^+ on the complement of the pair, and g's pair projection."""
    projection = ws.phi.conj().T @ g
    co = ws.comp_vecs.conj().T @ (g - ws.phi @ projection)
    solved = ws.comp_vecs @ (co / (ws.comp_vals - ws.e_star)[:, None])
    return -solved, projection


def _dense_layers(ws, pair, ts, delta):
    """V1, its defect, and the order-2 layer (V2, a2, beta, order-2 field)."""
    alpha = pair.alpha(ts)
    d_alpha = pair.d_alpha(ts, alpha)
    d2_alpha = pair.d2_alpha(ts, alpha, d_alpha)
    kap = ws.wall(ts)
    d_kap_t = -1j * ws.wall.derivative(ts)
    h, mu, phi = float(ts[1] - ts[0]), pair.mu, ws.phi
    fast, d_fast, d2_fast = phi @ alpha.T, phi @ d_alpha.T, phi @ d2_alpha.T

    v1, projection = _dense_complement(ws, _dense_bracket(ws, pair, kap, fast, d_fast))
    d_g = _dense_bracket(ws, pair, kap, d_fast, d2_fast)
    d_g += (ws.conv_w @ fast) * d_kap_t[None, :]
    d_v1, _ = _dense_complement(ws, d_g)

    on_v1 = _dense_bracket(ws, pair, kap, v1, d_v1)
    forcing = (
        phi.conj().T @ on_v1 + ws.kp_sq * d2_alpha.T + mu**2 * ws.ell_sq * alpha.T
    )
    a2 = float(np.real(np.sum(np.conj(alpha.T) * forcing) * h))
    rho = -(forcing.T - a2 * alpha)
    beta, d_beta, env_res = wall_dirac.envelope_correction(pair, ts, rho, alpha)
    g2 = (
        on_v1
        + _dense_bracket(ws, pair, kap, phi @ beta.T, phi @ d_beta.T)
        + ws.kp_sq * d2_fast
        + mu**2 * ws.ell_sq * fast
        - a2 * fast
    )
    v2, projection2 = _dense_complement(ws, g2)
    return {
        "v1": v1,
        "defect": float(np.abs(projection).max()),
        "v2": v2,
        "a2": a2,
        "envelope_residual": env_res,
        "projection": float(np.abs(projection2).max()),
        "field": fast + delta * (v1 + phi @ beta.T) + delta**2 * v2,
    }


def _grid(ws, delta, mu):
    zeta = quasimode.effective_zeta(ws, delta, mu)
    return st.strip_terms(
        ws.frame, ws.potential, ws.wall, zeta, delta, ws.basis, t_factor=4.5
    ).grid


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_factored_correctors_match_dense_fields(setup, detuned_pair, mu):
    # the correctors are fiber columns times slow coefficients; their
    # products are the (M, n) fields the equations give node by node
    _, ws = setup
    pair = _pair(setup, detuned_pair, mu)
    for delta in (0.08, 0.04):
        ts = delta * _grid(ws, delta, mu).t
        series = quasimode.ansatz_series(ws, pair, ts, 2)
        assert [(o, p) for o, p, _ in series.terms] == [(0, 0), (1, 1), (2, 1), (2, 2)]
        assert [(o, p) for o, p, _ in series.energies] == [(0, 0), (0, 1), (2, 2)]
        v1, v2 = series.terms[1][2], series.terms[3][2]
        # the ranks are the equations', whatever the number of nodes
        assert v1.basis.shape == (len(ws.phi), 6)
        assert v2.basis.shape == (len(ws.phi), 28)
        assert v1.coeffs.shape == (6, len(ts))
    delta = 0.08
    ts = delta * _grid(ws, delta, mu).t
    ref = _dense_layers(ws, pair, ts, delta)
    series = quasimode.ansatz_series(ws, pair, ts, 2)
    _, field = series.cut(delta, 2)
    assert field.basis.shape[1] == 38
    for got, want in (
        (series.terms[1][2], ref["v1"]), (series.terms[3][2], ref["v2"]),
        (field, ref["field"]),
    ):
        dense = got.basis @ got.coeffs
        assert np.linalg.norm(dense - want) <= 1e-12 * np.linalg.norm(want)
    diagnostics = series.diagnostics
    assert abs(series.energies[2][2] - ref["a2"]) <= 1e-14
    assert abs(diagnostics["defect"] - ref["defect"]) <= 1e-12
    assert abs(diagnostics["projection"] - ref["projection"]) <= 1e-12
    assert abs(diagnostics["envelope_residual"] - ref["envelope_residual"]) <= 1e-12


def test_residual_study_holds_no_dense_field(setup):
    # only the strip vectors reach the strip's size: the study's traced peak
    # stays below 8 vectors at its finest delta, where dense (M, n)
    # correctors took it to 15
    params, ws = setup
    grid = _grid(ws, 0.02, 0.0)
    vector_bytes = grid.n_t * grid.n_fast * 16
    assert (grid.n_fast, grid.n_t) == (85, 4501)
    pair = wall_dirac.zero_mode_pair(params)
    tracemalloc.start()
    try:
        quasimode.residual_orders(
            ws, pair, (0.04, 0.02), orders=(0, 1, 2), t_factor=4.5
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * vector_bytes
