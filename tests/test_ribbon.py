"""Tests for the edge-strip solver.

Reference values below were measured with this module at the pinned operating
point (plane-wave cutoff 4, envelope step 0.5) and cross-checked three ways:
in-gap energies against the reduced 1D operator's ladder at matching detuning
(residuals O(delta^2)), the whole assembly against its exact discrete
symmetries (wall/coupling sign flip, spatial inversion, conjugation), and the
discretization against a joint basis-and-step doubling.  The delta = 0 bulk
touch is pinned at cutoff 5 where the degenerate-pair truncation split is
below 1e-6.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from artifact import ribbon as rb
from artifact.bloch import assemble_fiber, build_basis
from artifact.dirac_cone import compute_mass, compute_nu_star, find_dirac_point
from artifact.geometry import TWO_PI, build_lattice, make_edge_frame
from artifact.potentials import domain_wall, honeycomb_potential, parity_breaking_W
from artifact.wall_dirac import GridTooCoarse, params_from_frames

DELTA = 0.08
E_STAR = 1.9000088541213909
E_STAR_C5 = 1.899989187356
MASS_10 = -3.432150836217444
MASS_15 = -5.1482262543261665
BASE_VALUE = 1.9005822775439  # single midgap state, amp 10, t_factor 3.5
AMP15_VALUES = [1.58302851, 1.90091624, 2.21561953]  # t_factor 5 ladder
MU03_VALUE = 1.98425927  # amp 10, mu = 0.3, t_factor 5
MU03_THETA = 1.06332779
SPEED_T = 4.0928  # transverse group speed of the reduced operator


@pytest.fixture(scope="module")
def lat():
    return build_lattice()


@pytest.fixture(scope="module")
def frame(lat):
    return make_edge_frame(lat, 1, 0)


@pytest.fixture(scope="module")
def basis(lat):
    return build_basis(lat, 4.0)


@pytest.fixture(scope="module")
def fields(lat):
    wid = 0.15 * np.linalg.norm(lat.v1)
    return {
        "V": honeycomb_potential(lat, -30.0, wid, 8),
        "wall": domain_wall("bump_smoothstep", 5.0),
        "W10": parity_breaking_W(lat, 10.0, wid, 8),
        "W15": parity_breaking_W(lat, 15.0, wid, 8),
    }


@pytest.fixture(scope="module")
def cone(fields, basis):
    data = find_dirac_point(fields["V"], "A", basis)
    compute_nu_star(data, basis, linearity_tol=1e-4)
    return data


@pytest.fixture(scope="module")
def masses(cone, basis, fields):
    return {
        10: compute_mass(cone, basis, fields["W10"]),
        15: compute_mass(cone, basis, fields["W15"]),
    }


@pytest.fixture(scope="module")
def base_spec(frame, fields, basis, cone):
    zs = frame.zeta_star("A")
    return rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], zs, DELTA, basis, cone.j_star,
        SPEED_T, perturbation=fields["W10"], t_factor=3.5,
    )


@pytest.fixture(scope="module")
def base_comp(base_spec, cone, frame, fields, masses):
    params = params_from_frames(cone, frame, masses[10], fields["wall"])
    return rb.compare_with_dirac(base_spec, params, cone.E_star)


def _synthetic_edges(lo, hi, delta=DELTA):
    return rb.BulkEdges(
        zeta=0.0, delta=delta, lower=lo, upper=hi, tau_lower=0.0, tau_upper=0.0,
        per_sign={"+": (lo, hi), "-": (lo, hi)}, samples=np.zeros((1, 5)),
        closed=False,
    )


def _permuted(mat, grid, basis, trev, fneg, conj):
    n_f = len(basis)
    t_idx = np.arange(grid.n_t)[::-1] if trev else np.arange(grid.n_t)
    if fneg:
        f_idx = np.array(
            [basis.index_of(-n1, -n2) for n1, n2 in basis.indices]
        )
    else:
        f_idx = np.arange(n_f)
    perm = (t_idx[:, None] * n_f + f_idx[None, :]).ravel()
    out = mat.tocsr()[perm, :][:, perm]
    return out.conj() if conj else out


def _sparse_max_abs(diff):
    coo = diff.tocoo()
    return float(np.abs(coo.data).max()) if coo.data.size else 0.0


# ---------------------------------------------------------------------------
# guards and grid structure


def test_step_guards(frame, fields, basis):
    wall = fields["wall"]
    zs = frame.zeta_star("A")
    with pytest.raises(GridTooCoarse, match="transverse phase range"):
        rb.strip_grid(frame, wall, zs, DELTA, basis, step=0.7)
    with pytest.raises(GridTooCoarse, match="alias"):
        rb.strip_grid(frame, wall, zs, DELTA, basis, step=0.15)
    with pytest.raises(GridTooCoarse, match="under-resolved"):
        rb.strip_grid(frame, wall, zs, 0.3, basis, step=0.5, t_factor=3.5)
    with pytest.raises(rb.PlateauNotReached):
        rb.strip_grid(frame, wall, zs, DELTA, basis, t_factor=2.0)
    with pytest.raises(ValueError, match="explicit half_width"):
        rb.strip_grid(frame, wall, zs, 0.0, basis)
    with pytest.raises(ValueError, match="at least 128"):
        rb.essential_edges_bulk(
            frame, fields["V"], None, zs, DELTA, basis, 1, tau_samples=100
        )


def test_grid_structure(frame, fields, basis):
    grid = rb.strip_grid(
        frame, fields["wall"], frame.zeta_star("A"), DELTA, basis, t_factor=3.5
    )
    assert grid.n_t % 2 == 1
    assert np.any(grid.t == 0.0)
    np.testing.assert_allclose(grid.t, -grid.t[::-1])
    assert grid.dim == grid.n_t * grid.n_fast
    p = grid.envelope_momenta()
    assert len(p) == grid.n_t
    np.testing.assert_allclose(p, TWO_PI * np.fft.fftfreq(grid.n_t, d=grid.step))
    assert 1 < grid.n_edge_harmonics <= len(basis)


def test_cone_tracking(frame):
    zs = frame.zeta_star("A")
    ta = frame.tau_star("A")
    which, dz = rb.nearest_cone(frame, zs + 0.1)
    assert which == "A"
    assert abs(dz - 0.1) < 1e-12
    # the transverse fold tracks the cone with slope -(k.k')/|k'|^2 = +1/2
    assert abs(rb.fold_phase(frame, zs + 0.1) - (ta + 0.05)) < 1e-9
    # the reflected momentum -zeta_star(A) is cone B's home, at zero offset
    which, dz = rb.nearest_cone(frame, -zs)
    assert which == "B"
    assert abs(dz) < 1e-12


# ---------------------------------------------------------------------------
# assembly identities


def test_hermiticity(lat, frame, fields, basis):
    from artifact.potentials import magnetic_A

    wall = domain_wall("bump_smoothstep", 0.5)
    zs = frame.zeta_star("A")
    common = dict(half_width=20.0)
    op = rb.assemble_strip(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=fields["W10"], **common,
    )
    assert op.hermiticity_residual() < 1e-12
    opf = rb.assemble_strip(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=fields["W10"], flip_wall=True, **common,
    )
    assert opf.hermiticity_residual() < 1e-12
    opm = rb.assemble_strip(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=magnetic_A(lat, 2.2), **common,
    )
    assert opm.meta["magnetic"]
    assert opm.hermiticity_residual() < 1e-12


def test_interior_remap(frame, fields, basis):
    # without a wall the strip is t-translation invariant, so a plane-wave
    # envelope must reproduce the bulk fiber at the finite-difference remap
    # tau_ref + sin(p h)/h of its momentum, exactly, away from the boundary
    op0 = rb.assemble_strip(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), 0.0, basis,
        half_width=60.0,
    )
    rng = np.random.default_rng(1)
    u = rng.standard_normal(op0.grid.n_fast) + 1j * rng.standard_normal(
        op0.grid.n_fast
    )
    p = 0.37
    wave = np.exp(1j * p * op0.grid.t)
    x0 = (wave[:, None] * u[None, :]).ravel()
    y0 = op0.matrix @ x0
    shift = np.sin(p * op0.grid.step) / op0.grid.step
    fib = assemble_fiber(
        frame.xi_of(op0.grid.zeta, op0.meta["tau_ref"] + shift), 0.0,
        fields["V"], basis,
    )
    pred = (wave[:, None] * (fib.matrix @ u)[None, :]).ravel()
    interior = slice(2 * op0.grid.n_fast, -2 * op0.grid.n_fast)
    assert np.abs(y0[interior] - pred[interior]).max() < 1e-9


def test_inversion_and_conjugation_maps(frame, fields, basis):
    # exact discrete symmetries of the assembly, all at unfolded momenta:
    #   flip wall and coupling sign at fixed zeta  -> identical matrix
    #   t-reversal x ball negation                 -> reflected zeta, flipped W
    #   ball negation + complex conjugation        -> reflected zeta, same W
    wall = domain_wall("bump_smoothstep", 0.5)
    zs = frame.zeta_star("A")
    ta = frame.tau_star("A")
    Wneg = dataclasses.replace(fields["W10"], coeffs=-fields["W10"].coeffs)
    common = dict(half_width=20.0)
    A = rb.assemble_strip(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=fields["W10"], **common,
    )
    B = rb.assemble_strip(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=Wneg, flip_wall=True, **common,
    )
    assert _sparse_max_abs(A.matrix - B.matrix) < 1e-12

    C = rb.assemble_strip(
        frame, fields["V"], wall, -zs, DELTA, basis,
        perturbation=Wneg, flip_wall=True, tau_ref=-ta, **common,
    )
    diff = A.matrix - _permuted(C.matrix, C.grid, basis, True, True, False)
    assert _sparse_max_abs(diff) < 1e-10

    D = rb.assemble_strip(
        frame, fields["V"], wall, -zs, DELTA, basis,
        perturbation=fields["W10"], tau_ref=-ta, **common,
    )
    diff = A.matrix - _permuted(D.matrix, D.grid, basis, False, True, True)
    assert _sparse_max_abs(diff) < 1e-10


# ---------------------------------------------------------------------------
# essential edges and the certification window


def test_delta_zero_touch(lat, frame, fields):
    # at delta = 0 the gap must close at the cone up to the truncation split
    # of the degenerate pair; cutoff 5 puts that split below 1e-6
    basis5 = build_basis(lat, 5.0)
    data5 = find_dirac_point(fields["V"], "A", basis5)
    edges0 = rb.essential_edges_bulk(
        frame, fields["V"], fields["W10"], frame.zeta_star("A"), 0.0, basis5,
        data5.j_star, allow_closed=True,
    )
    assert edges0.gap <= 1e-6
    assert abs(edges0.lower - E_STAR_C5) < 1e-6
    assert abs(data5.E_star - E_STAR_C5) < 1e-9
    assert rb.gap_window(edges0, SPEED_T, 218.75, 5.0, 0.0) is None


def test_gap_closed_guard(frame, fields, basis, cone):
    # cutoff 4 splits the touching pair by ~2e-5; with a tolerance above that
    # the closure must be flagged, and without permission must raise
    zs = frame.zeta_star("A")
    with pytest.raises(rb.GapClosed):
        rb.essential_edges_bulk(
            frame, fields["V"], fields["W10"], zs, 0.0, basis, cone.j_star,
            closed_tol=1e-4,
        )
    edges0 = rb.essential_edges_bulk(
        frame, fields["V"], fields["W10"], zs, 0.0, basis, cone.j_star,
        closed_tol=1e-4, allow_closed=True,
    )
    assert edges0.closed
    op0 = rb.assemble_strip(
        frame, fields["V"], fields["wall"], zs, 0.0, basis, half_width=20.0
    )
    spec = rb.gap_eigenpairs(op0, None, edges0)
    assert len(spec) == 0
    assert "no solve" in spec.diagnostics["note"]


def test_edges_amp10(frame, fields, basis, cone, base_spec, masses):
    edges = base_spec.edges
    # for a scalar coupling the two plateau signs give identical edge pairs
    dp, dm = edges.per_sign["+"], edges.per_sign["-"]
    assert abs(dp[0] - dm[0]) < 1e-9
    assert abs(dp[1] - dm[1]) < 1e-9
    # half-gap over delta reproduces the cone's coupling strength to O(delta)
    assert abs(edges.gap / 2 / DELTA - abs(masses[10])) < 0.01 * abs(masses[10])
    assert abs(masses[10] - MASS_10) < 1e-9
    # refinement has converged: doubling the scan does not move the edges
    edges320 = rb.essential_edges_bulk(
        frame, fields["V"], fields["W10"], edges.zeta, DELTA, basis,
        cone.j_star, tau_samples=320,
    )
    assert abs(edges320.lower - edges.lower) < 1e-6
    assert abs(edges320.upper - edges.upper) < 1e-6
    lo, hi = base_spec.window
    assert edges.lower < lo < hi < edges.upper


def test_window_formula():
    e = _synthetic_edges(1.623957230, 2.173092367)
    w6 = rb.gap_window(e, SPEED_T, 218.75, 5.0, DELTA)
    w3 = rb.gap_window(e, SPEED_T, 218.75, 5.0, DELTA, boundary_tol=1e-3)
    assert w6 is not None and w3 is not None
    # a looser boundary target certifies a wider window
    assert w3[0] < w6[0] < w6[1] < w3[1]
    assert rb.gap_window(e, SPEED_T, 218.75, 5.0, 0.0) is None
    # box too small to host any decay tail past the wall
    assert rb.gap_window(e, SPEED_T, 60.0, 5.0, DELTA) is None
    # decay too slow for the box: no energy is certifiable, and it says so
    with pytest.warns(rb.BoxTooShortWarning, match="box too short"):
        assert rb.gap_window(e, 1e6, 218.75, 5.0, DELTA) is None
    # tight gap: the full margin fails but the fallback margin still fits
    f = _synthetic_edges(1.75, 2.05)
    wf = rb.gap_window(f, SPEED_T, 315.0, 5.0, DELTA)
    assert wf is not None and f.lower < wf[0] < wf[1] < f.upper
    assert rb.gap_window(f, SPEED_T, 315.0, 5.0, DELTA, fallback_factor=3.0) is None


# ---------------------------------------------------------------------------
# certified in-gap spectra against the reduced operator


def test_base_channel(base_spec, base_comp):
    assert len(base_spec) == 1
    assert len(base_spec) % 2 == 1  # scalar wall: odd in-gap count
    assert base_spec.mu == 0.0
    assert abs(base_spec.values[0] - BASE_VALUE) < 1e-6
    assert base_spec.localization[0] > 0.999
    assert base_spec.boundary_mass[0] < 1e-5
    assert base_spec.smooth_fraction[0] > 0.9
    # the raw solve sees the state and its zone-edge mirror twin, which is
    # exactly the inertia count of the window
    assert base_spec.diagnostics["raw_in_window"] == 2
    assert base_spec.diagnostics["count"] == 2
    assert base_spec.grid is not None
    assert base_comp.count == 1
    assert base_comp.max_residual < 3e-3  # O(delta^2) at delta = 0.08
    rows = base_spec.to_csv_rows()
    assert [r[2] for r in rows[:2]] == ["ess_lo", "ess_hi"]
    assert rows[2][2] == "eig" and rows[2][4] == pytest.approx(
        base_spec.localization[0]
    )


def test_amp15_ladder(frame, fields, basis, cone, masses):
    # heavier coupling pulls a symmetric pair into the gap: 2N + 1 = 3 states
    zs = frame.zeta_star("A")
    spec = rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], zs, DELTA, basis, cone.j_star,
        SPEED_T, perturbation=fields["W15"], t_factor=5.0,
    )
    assert len(spec) == 3
    np.testing.assert_allclose(spec.values, AMP15_VALUES, atol=1e-6)
    params = params_from_frames(cone, frame, masses[15], fields["wall"])
    comp = rb.compare_with_dirac(spec, params, cone.E_star)
    assert comp.count == 3
    assert comp.max_residual < 3e-3
    # the side pair sits symmetrically about the midgap state to O(delta^2)
    assert abs(spec.values[0] + spec.values[2] - 2 * spec.values[1]) < 1e-2
    assert abs(masses[15] - MASS_15) < 1e-9


def test_detuned_channel(frame, fields, basis, cone, masses):
    # off the cone the envelope detuning tilts the ladder; the window must
    # still hold the crossing branch (t_factor 5) and match the reduced model
    mu = 0.3
    z = frame.zeta_star("A") + mu * DELTA
    spec = rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], z, DELTA, basis, cone.j_star,
        SPEED_T, perturbation=fields["W10"], t_factor=5.0,
    )
    assert abs(spec.mu - mu) < 1e-9
    assert len(spec) == 1
    assert abs(spec.values[0] - MU03_VALUE) < 1e-6
    params = params_from_frames(
        cone, frame, masses[10], fields["wall"], mu=spec.mu
    )
    comp = rb.compare_with_dirac(spec, params, cone.E_star)
    assert comp.count == 1
    np.testing.assert_allclose(comp.thetas, [MU03_THETA], atol=1e-6)
    assert comp.max_residual < 3e-3


def test_doubling_invariance(lat, frame, fields, cone, base_spec):
    # refining both scales at once (ball radius x sqrt(2), envelope step / 2)
    # must not move a certified in-gap energy beyond the discretization floor
    basis2 = build_basis(lat, 4.0 * np.sqrt(2.0))
    data2 = find_dirac_point(fields["V"], "A", basis2)
    assert data2.j_star == cone.j_star
    spec2 = rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA,
        basis2, data2.j_star, SPEED_T, perturbation=fields["W10"],
        t_factor=3.5, step=0.25,
    )
    assert len(spec2) == 1
    assert abs(spec2.values[0] - base_spec.values[0]) < 1e-5


def test_inversion_double_solve(frame, fields, basis, cone, base_spec):
    # flipping wall and coupling while reflecting the edge momentum (kept
    # unfolded, with the matching transverse fold) must reproduce the in-gap
    # energy exactly: the two assemblies are permutation-equivalent
    zs = frame.zeta_star("A")
    Wneg = dataclasses.replace(fields["W10"], coeffs=-fields["W10"].coeffs)
    spec_r = rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], -zs, DELTA, basis, cone.j_star,
        SPEED_T, perturbation=Wneg, t_factor=3.5, flip_wall=True,
        tau_ref=-frame.tau_star("A"),
    )
    assert spec_r.mu == 0.0
    assert len(spec_r) == len(base_spec) == 1
    assert abs(spec_r.values[0] - base_spec.values[0]) < 1e-8


@pytest.fixture(scope="module")
def base_op(frame, fields, basis):
    return rb.assemble_strip(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA,
        basis, perturbation=fields["W10"], t_factor=3.5,
    )


def test_dropped_ritz_pair_raises_count_mismatch(monkeypatch, base_op, base_spec):
    # a Krylov solve that loses an in-window pair cannot match the inertia
    # count of the window and must say so with both numbers
    real_eigsh = rb.spla.eigsh
    lo, hi = base_spec.window

    def lossy_eigsh(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        drop = np.flatnonzero((vals >= lo) & (vals <= hi))[0]
        keep = np.arange(len(vals)) != drop
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(rb.spla, "eigsh", lossy_eigsh)
    with pytest.raises(rb.CountMismatch, match="inertia counts 2") as err:
        rb.gap_eigenpairs(base_op, base_spec.window, base_spec.edges)
    assert err.value.count == 2
    assert err.value.found == 1
    assert err.value.k == 2


def test_empty_window_skips_solve(monkeypatch, base_op, base_spec):
    # a window inside the gap that holds no state is certified empty by the
    # count alone, without factoring the shift or running the Krylov solve
    def no_call(*args, **kwargs):
        raise AssertionError("solver called on an empty window")

    monkeypatch.setattr(rb.spla, "eigsh", no_call)
    monkeypatch.setattr(rb.spla, "splu", no_call)
    window = (1.95, 2.0)
    assert base_spec.edges.lower < window[0] and window[1] < base_spec.edges.upper
    spec = rb.gap_eigenpairs(base_op, window, base_spec.edges)
    assert len(spec) == 0
    assert spec.diagnostics["count"] == 0
    assert spec.diagnostics["note"] == "no states in window"


@pytest.mark.parametrize("magnetic", [False, True], ids=["W", "A"])
def test_inertia_matches_dense_count(lat, frame, fields, magnetic):
    # Sylvester inertia of the block LDL^H sweep against a dense eigensolve
    # on a small strip (cutoff 2, dim 1833), for a scalar and a magnetic wall
    from artifact.potentials import magnetic_A

    basis = build_basis(lat, 2.0)
    pert = magnetic_A(lat, 2.2) if magnetic else fields["W10"]
    op = rb.assemble_strip(
        frame, fields["V"], domain_wall("bump_smoothstep", 1.0),
        frame.zeta_star("A"), 0.1, basis, perturbation=pert, t_factor=3.5,
    )
    assert op.dim == 1833
    evals = np.linalg.eigvalsh(op.matrix.toarray())
    n_fast = op.grid.n_fast
    assert rb._inertia(op.matrix, n_fast, evals[0] - 1.0) == 0
    assert rb._inertia(op.matrix, n_fast, evals[-1] + 1.0) == op.dim
    for i in (3, 250, 917, 1500, 1831):
        shift = 0.5 * (evals[i - 1] + evals[i])
        assert rb._inertia(op.matrix, n_fast, shift) == i
    # the second window ends just below an eigenvalue; the shift sits above
    # the window center, so that eigenvalue outranks the in-window one next
    # to the lower edge, the solve at k = count comes up short, and it is
    # repeated with every eigenvalue within the window radius of the shift
    a, b = np.searchsorted(evals, [1.6, 2.1])
    near_miss = (evals[a] - 1e-5, evals[b] - 1e-5)
    for window, solves in (((1.45, 2.2), 1), (near_miss, 2)):
        dense = int(np.sum((evals >= window[0]) & (evals <= window[1])))
        assert dense >= 3
        # cutoff 2 does not resolve the cone, so the window holds band states
        # rather than smooth/mirror pairs; only the count is under test here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rb.MissedMultiplicityWarning)
            spec = rb.gap_eigenpairs(
                op, window, _synthetic_edges(*window, delta=0.1)
            )
        assert spec.diagnostics["count"] == dense
        assert spec.diagnostics["raw_in_window"] == dense
        assert spec.diagnostics["solves"] == solves
        assert (spec.diagnostics["k_used"] > dense) == (solves == 2)


def test_short_box_warns_on_21_edge(lat, fields, basis, cone, masses):
    # the (2,1) edge has an open gap but a transverse speed too fast for a
    # t_factor 3.5 box: no window, and the warning carries the numbers
    frame21 = make_edge_frame(lat, 2, 1)
    speed = params_from_frames(cone, frame21, masses[10], fields["wall"]).speed_t
    with pytest.warns(rb.BoxTooShortWarning) as rec:
        spec = rb.solve_edge_channel(
            frame21, fields["V"], fields["wall"], frame21.zeta_star("A"), DELTA,
            basis, cone.j_star, speed, perturbation=fields["W10"], t_factor=3.5,
        )
    assert len(spec) == 0 and spec.window is None
    assert spec.edges.gap > 0.5
    warned = [w.message for w in rec if isinstance(w.message, rb.BoxTooShortWarning)]
    assert len(warned) == 1
    info = warned[0]
    assert info.zeta == pytest.approx(frame21.zeta_star("A"))
    assert info.R >= info.H > 0
    assert info.tail_slow == pytest.approx(0.9 * 218.75 * DELTA - 5.0)
    # a longer box certifies a window on the same edge
    assert rb.gap_window(spec.edges, speed, 8.0 * 5.0 / DELTA, 5.0, DELTA) is not None


def test_compare_count_mismatch(base_spec, cone, frame, fields, masses):
    # widening the window beyond what the solve certified must be caught by
    # the ladder comparison, not silently matched
    edges = base_spec.edges
    wide = dataclasses.replace(
        base_spec, window=(edges.lower + 1e-4, edges.upper - 1e-4)
    )
    params = params_from_frames(cone, frame, masses[10], fields["wall"])
    with pytest.raises(rb.CountMismatch):
        rb.compare_with_dirac(wide, params, cone.E_star)


# ---------------------------------------------------------------------------
# profile utilities


def test_profile_utilities(frame, fields, basis):
    grid = rb.strip_grid(
        frame, fields["wall"], frame.zeta_star("A"), 0.0, basis,
        half_width=10.0,
    )
    p = grid.envelope_momenta()
    n_f = grid.n_fast
    slow = np.zeros(grid.dim, dtype=complex)
    fast = np.zeros(grid.dim, dtype=complex)
    j_slow = int(np.argmin(np.abs(p - 0.4)))
    j_fast = int(np.argmin(np.abs(p - 0.9 * np.pi / grid.step)))
    slow[np.arange(grid.n_t) * n_f] = np.exp(1j * p[j_slow] * grid.t)
    fast[np.arange(grid.n_t) * n_f] = np.exp(1j * p[j_fast] * grid.t)
    slow /= np.linalg.norm(slow)
    fast /= np.linalg.norm(fast)
    assert rb.envelope_band_fraction(slow, grid) > 0.99
    assert rb.envelope_band_fraction(fast, grid) < 0.01
    prof = rb.transverse_profile(slow, grid)
    assert prof.shape == (grid.n_t,)
    assert abs(prof.sum() - 1.0) < 1e-12
    assert rb.state_overlap(slow, slow) == pytest.approx(1.0)
    assert rb.state_overlap(slow, fast) < 1e-12
    x = np.array([0.08, 0.04, 0.02])
    assert abs(rb.fit_power_law(x, 3.0 * x**2) - 2.0) < 1e-12
