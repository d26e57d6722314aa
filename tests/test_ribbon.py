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
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize_scalar

from artifact import bloch
from artifact import blocktri as bt
from artifact import ribbon as rb
from artifact import strip as st
from artifact.bloch import assemble_fiber, build_basis, convolution_matrix
from artifact.dirac_cone import compute_mass, compute_nu_star, find_dirac_point
from artifact.geometry import TWO_PI, build_lattice, make_edge_frame
from artifact.potentials import domain_wall, honeycomb_potential, parity_breaking_W
from artifact.quasimode import fit_power_law
from artifact.wall_dirac import GridTooCoarse, gap_spectrum, params_from_frames
from test_blocktri import packed_count, per_pair_sweep, reduction_levels

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
        zeta=0.0, delta=delta, lower=lo, upper=hi,
        per_sign={"+": (lo, hi), "-": (lo, hi)}, samples=np.zeros((1, 3)),
        closed=False,
    )


def _permuted(mat, grid, basis, trev, fneg, conj):
    n_f = grid.n_fast
    t_idx = np.arange(grid.n_t)[::-1] if trev else np.arange(grid.n_t)
    if fneg:
        # the ball is symmetric, so it lists -n for every n
        where = {(int(n1), int(n2)): i for i, (n1, n2) in enumerate(basis.indices)}
        f_idx = np.array([where[(-int(n1), -int(n2))] for n1, n2 in basis.indices])
    else:
        f_idx = np.arange(n_f)
    perm = (t_idx[:, None] * n_f + f_idx[None, :]).ravel()
    out = mat.tocsr()[perm, :][:, perm]
    return out.conj() if conj else out


def _sparse_max_abs(diff):
    coo = diff.tocoo()
    return float(np.abs(coo.data).max()) if coo.data.size else 0.0


def _hermiticity_residual(op):
    """Relative max-entry asymmetry of the assembled strip, ||H - H^H||_max /
    max(||H||_max, 1)."""
    H = op.matrix
    return _sparse_max_abs(H - H.getH()) / max(np.abs(H.data).max(), 1.0)


def _mirror_residual(op):
    """The strip's residual under A = (t -> -t) o complex conjugation, the
    symmetry the half walks rest on: ||conj(R H R) - H||_max / ||H||_max, R
    the reversal of the t-nodes."""
    H = op.matrix
    R = _permuted(H, op.grid, None, True, False, True)  # conj(R H R)
    return _sparse_max_abs(R - H) / np.abs(H.data).max()


# ---------------------------------------------------------------------------
# guards and grid structure


def test_step_guards(frame, fields, basis, monkeypatch):
    V, wall = fields["V"], fields["wall"]
    zs = frame.zeta_star("A")
    with pytest.raises(GridTooCoarse, match="transverse phase range"):
        st.strip_terms(frame, V, wall, zs, DELTA, basis, step=0.7)
    with pytest.raises(GridTooCoarse, match="alias"):
        st.strip_terms(frame, V, wall, zs, DELTA, basis, step=0.15)
    with pytest.raises(GridTooCoarse, match="under-resolved"):
        st.strip_terms(frame, V, wall, zs, 0.3, basis, step=0.5, t_factor=3.5)
    with pytest.raises(st.PlateauNotReached):
        st.strip_terms(frame, V, wall, zs, DELTA, basis, t_factor=2.0)
    with pytest.raises(ValueError, match="explicit half_width"):
        st.strip_terms(frame, V, wall, zs, 0.0, basis)
    with pytest.raises(ValueError, match="at least 128"):
        rb.essential_edges_bulk(
            frame, fields["V"], None, zs, DELTA, basis, 1, tau_samples=100
        )
    # an extremum whose neighbouring samples' slopes share a sign is not
    # bracketed, and the edge search says so rather than guess
    real = rb._fiber_pair
    monkeypatch.setattr(rb, "_fiber_pair", lambda *args: (real(*args)[0], np.ones(2)))
    with pytest.raises(RuntimeError, match="raise tau_samples"):
        rb.essential_edges_bulk(frame, fields["V"], fields["W10"], zs, DELTA, basis, 1)


def test_grid_structure(frame, fields, basis):
    grid = st.strip_terms(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis,
        t_factor=3.5,
    ).grid
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
    which, dz = st.nearest_cone(frame, zs + 0.1)
    assert which == "A"
    assert abs(dz - 0.1) < 1e-12
    # the transverse fold tracks the cone with slope -(k.k')/|k'|^2 = +1/2
    assert abs(st.fold_phase(frame, zs + 0.1) - (ta + 0.05)) < 1e-9
    # the reflected momentum -zeta_star(A) is cone B's home, at zero offset
    which, dz = st.nearest_cone(frame, -zs)
    assert which == "B"
    assert abs(dz) < 1e-12


# ---------------------------------------------------------------------------
# assembly identities


def test_hermiticity(lat, frame, fields, basis):
    from artifact.potentials import magnetic_A

    wall = domain_wall("bump_smoothstep", 0.5)
    zs = frame.zeta_star("A")
    common = dict(half_width=20.0)
    op = st.strip_terms(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=fields["W10"], **common,
    )
    assert _hermiticity_residual(op) < 1e-12
    opf = st.strip_terms(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=fields["W10"], flip_wall=True, **common,
    )
    assert _hermiticity_residual(opf) < 1e-12
    opm = st.strip_terms(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=magnetic_A(lat, 2.2), **common,
    )
    assert len(opm.terms) == 5  # the magnetic wall's two terms
    assert _hermiticity_residual(opm) < 1e-12


@pytest.mark.parametrize("magnetic", [False, True], ids=["W", "A"])
def test_strip_is_mirror_conjugate(lat, frame, fields, magnetic):
    # the half walks take the right half of the strip as the conjugate mirror
    # of the left one: conj(R H R) = H to rounding (2.9e-19 on the scalar
    # cutoff-2 strip, 4.2e-18 on the magnetic one; the wall profile is odd to
    # rounding), and the half table accepts its terms.  A perturbation with a
    # real part breaks the symmetry, and the half table names the term and
    # its residual
    from artifact.potentials import magnetic_A

    pert = magnetic_A(lat, 2.2) if magnetic else fields["W10"]
    wall = domain_wall("bump_smoothstep", 1.0)
    args = (frame, fields["V"], wall, frame.zeta_star("A"), 0.1, build_basis(lat, 2.0))
    op = st.strip_terms(*args, perturbation=pert, t_factor=3.5)
    assert _mirror_residual(op) <= (1e-17 if magnetic else 1e-18)
    bt.half_table(op.terms, rb.CONJUGATION_TOL)
    broken = dataclasses.replace(pert, coeffs=pert.coeffs + 0.1 * np.abs(pert.coeffs))
    op = st.strip_terms(*args, perturbation=broken, t_factor=3.5)
    assert _mirror_residual(op) > 1e-5
    with pytest.raises(ValueError, match="not mirror-conjugate") as err:
        bt.half_table(op.terms, rb.CONJUGATION_TOL)
    assert isinstance(err.value, bt.MirrorAsymmetry)
    assert err.value.term == 3 and err.value.residual > 1e-3
    assert "term 3 of the strip" in str(err.value)
    assert f"residual {err.value.residual:.3e}" in str(err.value)


def _kron_formula(frame, fields, basis, op, perturbation, wall, flip):
    """The strip matrix as a chain of sparse Kronecker products and sums,
    with the wall profile kappa(delta t), or kappa(-delta t) for a flipped
    wall, evaluated here."""
    grid = op.grid
    n_t, n_fast, h, delta = grid.n_t, grid.n_fast, grid.step, grid.delta
    K = frame.xi_of(grid.zeta, grid.tau_ref)[None, :] + TWO_PI * basis.duals
    kp = frame.kp

    def conv(fld):
        mat = convolution_matrix(fld, basis)
        mat = np.where(np.abs(mat) < 1e-14 * np.abs(mat).max(), 0.0, mat)
        return sp.csr_matrix(mat)

    ones = np.ones(n_t - 1)
    D1 = sp.diags([ones / (2 * h), -ones / (2 * h)], [1, -1], format="csr")
    I_t = sp.identity(n_t, format="csr")
    I_f = sp.identity(n_fast, format="csr")
    H = sp.kron(I_t, sp.diags(np.einsum("md,md->m", K, K)), format="csr")
    H = H + sp.kron(D1, sp.diags(-2j * (K @ kp)), format="csr")
    H = H + float(kp @ kp) * sp.kron(D1.T @ D1, I_f, format="csr")
    H = H + sp.kron(I_t, conv(fields["V"]), format="csr")
    if perturbation is not None and delta != 0.0:
        wall_diag = sp.diags(wall((-1.0 if flip else 1.0) * delta * grid.t))
        if perturbation.is_vector:
            for c in (0, 1):
                comp = dataclasses.replace(
                    perturbation, coeffs=perturbation.coeffs[:, c]
                )
                A_c = sp.kron(wall_diag, conv(comp), format="csr")
                D_c = sp.kron(I_t, sp.diags(K[:, c]), format="csr") + float(
                    kp[c]
                ) * sp.kron(-1j * D1, I_f, format="csr")
                H = H + delta * (A_c @ D_c + D_c @ A_c)
        else:
            H = H + delta * sp.kron(wall_diag, conv(perturbation), format="csr")
    return H.tocsc()


@pytest.mark.parametrize("case", ["W", "W_flip", "A", "delta0"])
def test_assembly_matches_kron_formula(lat, frame, fields, basis, case):
    from artifact.potentials import magnetic_A

    wall = domain_wall("bump_smoothstep", 0.5)
    pert = magnetic_A(lat, 2.2) if case == "A" else fields["W10"]
    delta = 0.0 if case == "delta0" else DELTA
    op = st.strip_terms(
        frame, fields["V"], wall, frame.zeta_star("A"), delta, basis,
        perturbation=pert, half_width=20.0, flip_wall=case == "W_flip",
    )
    ref = _kron_formula(frame, fields, basis, op, pert, wall, case == "W_flip")
    new = op.matrix
    scale = np.abs(ref.data).max()
    assert _sparse_max_abs(new - ref) <= 1e-13 * scale
    assert np.all(new.data != 0)
    if case == "A":
        # k' is the dual vector k2, orthogonal to the polarization of the
        # +-k2 modes, so k'.A-hat vanishes there; the product chain keeps
        # 1288 rounding residues of that sum, which summing the components
        # in the fast factor first leaves out
        in_new = new.copy()
        in_new.data[:] = 1.0
        ref_only = ref - ref.multiply(in_new)
        assert ref_only.nnz == 1288 == ref.nnz - new.nnz
        assert _sparse_max_abs(ref_only) <= 1e-15 * scale
    else:
        assert new.nnz == ref.nnz


@pytest.mark.parametrize("case", ["W", "A", "W_flip"])
def test_kron_apply_matches_assembled_matvec(lat, frame, fields, basis, case):
    # the matrix-free apply of the strip's terms is the assembled matrix
    # times u, on the base-channel strip including its Dirichlet end rows;
    # the factored residual of a rank-5 field is the assembled residual of
    # its strip vector, and its norm the vector's
    from artifact.potentials import magnetic_A

    pert = magnetic_A(lat, 2.2) if case == "A" else fields["W10"]
    args = (frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis)
    kwargs = dict(perturbation=pert, t_factor=3.5, flip_wall=case == "W_flip")
    op = st.strip_terms(*args, **kwargs)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((op.grid.n_t, op.grid.n_fast, 2)) @ np.array([1.0, 1.0j])
    matvec = op.matrix @ u.ravel()
    applied = st.kron_apply(op.terms, u)
    assert applied.shape == (op.grid.n_t, op.grid.n_fast)
    assert np.linalg.norm(applied.ravel() - matvec) <= 1e-14 * np.linalg.norm(matvec)
    fast = rng.standard_normal((op.grid.n_fast, 5, 2)) @ np.array([1.0, 1.0j])
    slow = rng.standard_normal((5, op.grid.n_t, 2)) @ np.array([1.0, 1.0j])
    v = (slow.T @ fast.T).ravel()
    want = np.linalg.norm(op.matrix @ v - 1.9 * v)
    [(residual, norm)] = st.kron_residual(op.terms, fast, slow, [(5, 1.9)])
    assert abs(norm - np.linalg.norm(v)) <= 1e-14 * norm
    assert abs(residual - want) <= 1e-14 * want


def test_nested_kron_residual_cuts(frame, fields, basis):
    # one nested pass takes the residual of every leading-column truncation,
    # at its own energy, including cuts that add no column and only move the
    # energy; each is the assembled residual of its truncated strip vector
    args = (frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis)
    op = st.strip_terms(*args, perturbation=fields["W10"], t_factor=3.5)
    rng = np.random.default_rng(11)
    fast = rng.standard_normal((op.grid.n_fast, 5, 2)) @ np.array([1.0, 1.0j])
    slow = rng.standard_normal((5, op.grid.n_t, 2)) @ np.array([1.0, 1.0j])
    cuts = [(2, 1.9), (2, 2.3), (5, 2.3), (5, 1.7)]
    nested = st.kron_residual(op.terms, fast, slow, cuts)
    assert len(nested) == len(cuts)
    for (end, energy), (residual, norm) in zip(cuts, nested):
        v = (slow[:end].T @ fast[:, :end].T).ravel()
        want = np.linalg.norm(op.matrix @ v - energy * v)
        assert abs(norm - np.linalg.norm(v)) <= 1e-14 * norm
        assert abs(residual - want) <= 1e-14 * want


@pytest.mark.parametrize("case", ["W", "A", "W_flip", "cutoff2"])
def test_node_pair_blocks_match_csc_slices(lat, frame, fields, basis, case):
    # the sweep's diagonal blocks and couplings, built from the Kronecker
    # terms, are the slices of the CSC strip: on the base-channel strips, and
    # on a cutoff-2 strip (dim 1833) whose odd node count leaves one node in
    # the last block.  Both sides multiply and add elementwise, with no BLAS
    # call, and add the same products in the same order, so they are equal
    # bit for bit
    from artifact.potentials import magnetic_A

    wall, delta, fast = fields["wall"], DELTA, basis
    if case == "cutoff2":
        wall, delta = domain_wall("bump_smoothstep", 1.0), 0.1
        fast = build_basis(lat, 2.0)
    pert = magnetic_A(lat, 2.2) if case == "A" else fields["W10"]
    op = st.strip_terms(
        frame, fields["V"], wall, frame.zeta_star("A"), delta, fast,
        perturbation=pert, t_factor=3.5, flip_wall=case == "W_flip",
    )
    H = op.matrix

    def assert_slice(built, r0, r1, c0, c1):
        assert np.array_equal(built, H[r0:r1, c0:c1].toarray())

    assert op.grid.n_t % 2 == 1
    rows, couplings = [], set()
    for r0, r1, diagonal, coupling, adjoint in bt.node_pairs(op.terms):
        rows.append((r0, r1))
        assert_slice(diagonal(), r0, r1, r0, r1)
        if coupling is None:
            continue
        couplings.add(id(coupling))
        c1 = r1 + coupling.shape[1]
        assert coupling.nnz == H[r0:r1, r1:c1].nnz
        assert_slice(coupling.toarray(), r0, r1, r1, c1)
        assert np.array_equal(adjoint.toarray(), coupling.toarray().conj().T)
    assert len(rows) == (op.grid.n_t + 1) // 2
    assert rows[-1] == (op.dim - op.grid.n_fast, op.dim)
    # a scalar wall's couplings have the same t-coefficients at every pair:
    # one shared coupling, and one more into the single-node last block
    assert (len(couplings) == 2) == (case != "A")


def _channel(lat, frame, fields, channel):
    """Edge phase, perturbation and strip keywords of a test channel: the
    base channel, amp 15, the magnetic wall (A) or the inverted base channel."""
    from artifact.potentials import magnetic_A

    zeta, pert, kwargs = frame.zeta_star("A"), fields["W10"], dict(t_factor=3.5)
    if channel == "amp15":
        pert, kwargs = fields["W15"], dict(t_factor=5.0)
    elif channel == "A":
        pert = magnetic_A(lat, 2.2)
    elif channel == "inversion":
        zeta, pert = -zeta, dataclasses.replace(pert, coeffs=-pert.coeffs)
        kwargs.update(flip_wall=True, tau_ref=-frame.tau_star("A"))
    return zeta, pert, kwargs


def _channel_op(lat, frame, fields, basis, channel):
    zeta, pert, kwargs = _channel(lat, frame, fields, channel)
    return st.strip_terms(
        frame, fields["V"], fields["wall"], zeta, DELTA, basis, perturbation=pert,
        **kwargs,
    )


def _swept(pairs, shift):
    """Negative pivots of the per-pair reference sweep: the count below shift."""
    sweep = per_pair_sweep(pairs, shift)
    return sum(bt._negative_pivots(ldu, ipiv) for *_, ldu, ipiv, _ in sweep)


@pytest.mark.parametrize("channel", ["base", "amp15", "A", "inversion"])
def test_shared_diagonal_blocks_match_fresh_blocks(
    monkeypatch, lat, frame, fields, basis, channel
):
    # consecutive node pairs with equal t-coefficients share one diagonal
    # callable, and the walker builds the block once per run and copies it
    # for the rest.  With every run walked pair by pair (no pivot passes a
    # certificate of 0), every inverse and pivot count it yields is bit for
    # bit that of a per-pair sweep that sums a fresh D_i from the terms at
    # every pair; with the certificate, the last pair of each reduced run
    # gets the sweep's Schur inverse to rounding and the count is the same
    op = _channel_op(lat, frame, fields, basis, channel)
    pairs = bt.node_pairs(op.terms)
    coef, fast = bt._band_coefficients(op.terms), [F for _, F in op.terms]
    fresh = []
    for r0, r1, _, coupling, adjoint in pairs:
        nodes = range(r0 // op.grid.n_fast, r1 // op.grid.n_fast)
        block = bt._node_coefficients(coef, nodes, nodes)
        fresh.append((r0, r1, partial(bt._kron_block, block, fast), coupling, adjoint))
    # kappa is constant on the plateaus and every other t-coefficient is
    # constant: the 438 pairs (626 at t_factor 5) fall into 123 runs
    assert len({id(p[2]) for p in pairs}) == 123 < len(pairs)
    reference = {
        r1: (ldu, ipiv, inv) for _, r1, _, ldu, ipiv, inv in per_pair_sweep(fresh, 1.88)
    }
    reduced = list(bt._run_ldl(pairs, 1.88))
    assert len(reduced) == 123
    for seg in reduced:
        ldu, ipiv, inverse = reference[seg.r1]
        scale = np.abs(inverse).max()
        assert np.abs(seg.inverse - inverse).max() <= 1e-10 * scale
    count = sum(bt._negative_pivots(ldu, ipiv) for ldu, ipiv, _ in reference.values())
    assert sum(seg.negatives for seg in reduced) == count
    monkeypatch.setattr(bt, "PIVOT_CONDITION", 0.0)
    walked = list(bt._run_ldl(pairs, 1.88))
    assert len(walked) == len(pairs)
    # the first pair of a run also reports the reduction's one failed pivot
    firsts = {run[0][1] for run in bt._runs(pairs) if len(run) > 1}
    for seg in walked:
        ldu, ipiv, inverse = reference[seg.r1]
        assert seg.levels == () and seg.factorizations == 1 + (seg.r1 in firsts)
        assert seg.negatives == bt._negative_pivots(ldu, ipiv)
        assert np.array_equal(seg.inverse, inverse)


def test_channel_solve_forms_no_csc_strip(frame, fields, basis, cone, monkeypatch):
    # the count, the shift-invert solves and the Rayleigh/residual screens
    # all work from the Kronecker terms, so the base channel solves with the
    # CSC strip unreadable; the seeded solve runs no Krylov eigensolver: two
    # counting sweeps and one factor for its one seed; and every walk is a
    # half walk, with no node-pair table or walk of the whole strip
    def no_call(*args, **kwargs):
        raise AssertionError("the CSC strip, eigsh or a whole-strip walk was used")

    monkeypatch.setattr(st.StripOperator, "matrix", property(no_call))
    monkeypatch.setattr(rb.spla, "eigsh", no_call)
    for name in ("node_pairs", "inertia", "shift_invert_solve"):
        monkeypatch.setattr(bt, name, no_call)
    spec = rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis,
        cone.j_star, SPEED_T, perturbation=fields["W10"], t_factor=3.5,
    )
    assert len(spec) == 1
    assert abs(spec.values[0] - BASE_VALUE) < 1e-6
    assert spec.diagnostics["inertia"] == (874, 876)
    assert spec.diagnostics["inertia_sweeps"] == 3


def test_interior_remap(frame, fields, basis):
    # without a wall the strip is t-translation invariant, so a plane-wave
    # envelope must reproduce the bulk fiber at the finite-difference remap
    # tau_ref + sin(p h)/h of its momentum, exactly, away from the boundary
    op0 = st.strip_terms(
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
        frame.xi_of(op0.grid.zeta, op0.grid.tau_ref + shift), 0.0,
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
    A = st.strip_terms(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=fields["W10"], **common,
    )
    B = st.strip_terms(
        frame, fields["V"], wall, zs, DELTA, basis,
        perturbation=Wneg, flip_wall=True, **common,
    )
    assert _sparse_max_abs(A.matrix - B.matrix) < 1e-12

    C = st.strip_terms(
        frame, fields["V"], wall, -zs, DELTA, basis,
        perturbation=Wneg, flip_wall=True, tau_ref=-ta, **common,
    )
    diff = A.matrix - _permuted(C.matrix, C.grid, basis, True, True, False)
    assert _sparse_max_abs(diff) < 1e-10

    D = st.strip_terms(
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
    op0 = st.strip_terms(
        frame, fields["V"], fields["wall"], zs, 0.0, basis, half_width=20.0
    )
    spec = rb.gap_eigenpairs(op0, None, edges0, [])
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


@pytest.mark.parametrize("magnetic", [False, True], ids=["W", "A"])
def test_bulk_edge_search_matches_minimize_scalar(
    lat, frame, fields, basis, cone, magnetic, monkeypatch
):
    # one scan at +delta refines each edge as the zero of its Hellmann-Feynman
    # slope (on a magnetic wall the slope has the constant term 2 delta A.k');
    # scipy's minimize_scalar(method="bounded") on the band itself, over the
    # bracket of the two samples around the sampled extremum, gives the same
    # edge on the fibers of either sign, with 160 samples and at most 16
    # refinements
    from artifact.potentials import magnetic_A

    pert = magnetic_A(lat, 2.2) if magnetic else fields["W10"]
    real, calls = rb._fiber_pair, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rb, "_fiber_pair", counted)
    zeta = frame.zeta_star("A")
    edges = rb.essential_edges_bulk(
        frame, fields["V"], pert, zeta, DELTA, basis, cone.j_star
    )
    monkeypatch.undo()
    assert len(calls) <= 160 + 16
    tables = bloch.fiber_tables(fields["V"], basis, pert)
    width = TWO_PI / 160
    taus = edges.samples[:, 0]
    t_lo = taus[int(np.argmax(edges.samples[:, 1]))]
    t_hi = taus[int(np.argmin(edges.samples[:, 2]))]
    for label, sgn in (("+", 1.0), ("-", -1.0)):
        def band(tau, index, s=sgn):
            fiber = bloch.fiber_from_tables(
                frame.xi_of(zeta, tau), s * DELTA, basis, tables
            )
            return bloch.eigs(fiber, cone.j_star + 1)[0][cone.j_star - 1 + index]

        options = {"xatol": 1e-8}
        ref_lo = -minimize_scalar(
            lambda tau: -band(tau, 0), bounds=(t_lo - width, t_lo + width),
            method="bounded", options=options,
        ).fun
        ref_hi = minimize_scalar(
            lambda tau: band(tau, 1), bounds=(t_hi - width, t_hi + width),
            method="bounded", options=options,
        ).fun
        lower, upper = edges.per_sign[label]
        assert abs(lower - ref_lo) <= 1e-12 and abs(upper - ref_hi) <= 1e-12


@pytest.mark.parametrize("magnetic", [False, True], ids=["W", "A"])
def test_bulk_edges_match_per_fiber_assembly(
    lat, frame, fields, basis, cone, magnetic, monkeypatch
):
    # the scan builds the V and perturbation tables once per call, each with
    # its truncation check; its samples are bit for bit those of fibers that
    # rebuild both tables one by one and sum diag |xi + 2 pi eta|^2, then V,
    # then the +delta perturbation, and the -delta fibers, the conjugates of
    # the +delta ones, give the same pair bit for bit
    from artifact.potentials import magnetic_A

    pert = magnetic_A(lat, 2.2) if magnetic else fields["W10"]
    real, grids = bloch._coefficient_grid, []

    def counted(field, span):
        grids.append(field)
        return real(field, span)

    monkeypatch.setattr(bloch, "_coefficient_grid", counted)
    zeta = frame.zeta_star("A")
    edges = rb.essential_edges_bulk(
        frame, fields["V"], pert, zeta, DELTA, basis, cone.j_star
    )
    assert grids == [fields["V"], pert]
    m = len(basis)
    for tau, lo, hi in edges.samples:
        xi = frame.xi_of(zeta, tau)
        for delta in (DELTA, -DELTA):
            shifted = xi[None, :] + TWO_PI * basis.duals
            H = np.zeros((m, m), dtype=complex)
            H[np.diag_indices(m)] = np.sum(shifted * shifted, axis=1)
            H += convolution_matrix(fields["V"], basis)
            if magnetic:
                H += delta * bloch.magnetic_matrix(pert, basis, xi)
            else:
                H += delta * convolution_matrix(pert, basis)
            fiber = bloch.FiberOperator(xi=xi, delta=delta, basis=basis, matrix=H)
            vals, _ = bloch.eigs(fiber, cone.j_star + 1)
            assert (lo, hi) == (vals[cone.j_star - 1], vals[cone.j_star])

    # a perturbation with a real even part breaks the conjugation, and the
    # one scan refuses it
    broken = dataclasses.replace(pert, coeffs=pert.coeffs + 0.1 * np.abs(pert.coeffs))
    with pytest.raises(ValueError, match="perturbation coefficient table has a real"):
        rb.essential_edges_bulk(
            frame, fields["V"], broken, zeta, DELTA, basis, cone.j_star
        )


def test_window_formula(monkeypatch):
    e = _synthetic_edges(1.623957230, 2.173092367)
    w6 = rb.gap_window(e, SPEED_T, 218.75, 5.0, DELTA)
    with monkeypatch.context() as patch:
        patch.setattr(rb, "BOUNDARY_MASS_TOL", 1e-3)
        w3 = rb.gap_window(e, SPEED_T, 218.75, 5.0, DELTA)
    assert w6 is not None and w3 is not None
    # a looser boundary target certifies a wider window
    assert w3[0] < w6[0] < w6[1] < w3[1]
    # delta <= 0 and a closed gap give no window, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rb.gap_window(e, SPEED_T, 218.75, 5.0, 0.0) is None
        closed = dataclasses.replace(e, closed=True)
        assert rb.gap_window(closed, SPEED_T, 218.75, 5.0, DELTA) is None
    # box too small to host any decay tail past the wall
    with pytest.warns(rb.BoxTooShortWarning, match="no tail") as caught:
        assert rb.gap_window(e, SPEED_T, 60.0, 5.0, DELTA) is None
    assert caught[0].message.tail_slow < 0 and caught[0].message.R == np.inf
    # decay too slow for the box: no energy is certifiable, and it says so
    with pytest.warns(rb.BoxTooShortWarning, match="box too short"):
        assert rb.gap_window(e, 1e6, 218.75, 5.0, DELTA) is None
    # tight gap: the full margin fails but the fallback margin still fits
    f = _synthetic_edges(1.75, 2.05)
    wf = rb.gap_window(f, SPEED_T, 315.0, 5.0, DELTA)
    assert wf is not None and f.lower < wf[0] < wf[1] < f.upper
    # a narrower gap fails the fallback margin too
    g = _synthetic_edges(1.7675, 2.0325)
    with pytest.warns(rb.GapTooTightWarning, match="too tight") as caught:
        assert rb.gap_window(g, SPEED_T, 315.0, 5.0, DELTA) is None
    tight = caught[0].message
    assert tight.gap == g.gap and tight.factor == rb.WINDOW_FALLBACK == 1.5
    pulled_lo = g.lower + 1.5 * tight.d_min[0] * DELTA
    pulled_hi = g.upper - 1.5 * tight.d_min[1] * DELTA
    assert pulled_lo >= pulled_hi


# ---------------------------------------------------------------------------
# certified in-gap spectra against the reduced operator


def test_base_channel(base_spec, base_comp, base_op):
    assert len(base_spec) == 1
    assert len(base_spec) % 2 == 1  # scalar wall: odd in-gap count
    assert base_spec.mu == 0.0
    assert abs(base_spec.values[0] - BASE_VALUE) < 1e-6
    assert base_spec.localization[0] > 0.999
    assert base_spec.boundary_mass[0] < 1e-5
    assert base_spec.smooth_fraction[0] > 0.9
    # the window counts the state and its zone-edge mirror twin: twice the
    # reduced ladder, which seeds the one state
    assert base_spec.diagnostics["count"] == 2 == 2 * base_spec.diagnostics["seeds"]
    assert min(base_spec.diagnostics["seed_overlaps"]) > 0.99
    # two counts and the factor at the shift, each a walk of the left half:
    # 875 nodes leave a left half of 436 nodes, 218 of the strip's 438 node
    # pairs, and a separator of 3 nodes.  Its 61 runs are 60 single pairs
    # (59 on the wall, one at the end of the box), which take one
    # factorization each, and the plateau run of 158 pairs, reduced by block
    # cyclic reduction, 13; the separator's Schur block Gamma takes one more
    assert base_spec.diagnostics["inertia_sweeps"] == 3
    half = bt.half_table(base_op.terms, rb.CONJUGATION_TOL)
    size = 2 * base_op.grid.n_fast
    n_sep = len(half.separator)
    assert len(half.pairs) == 218 and n_sep == 3 * base_op.grid.n_fast
    assert base_spec.diagnostics["separator_rows"] == n_sep
    plateau_first, plateau = 1, 158  # first pair and length of the plateau run
    assert _long_runs(half.pairs) == [plateau]
    assert len(bt._runs(half.pairs)) == 61
    made = 60 + 1 + sum(a + f for a, f in reduction_levels(plateau)) + 1
    assert base_spec.diagnostics["count_factorizations"] == made == 74
    assert type(base_spec.diagnostics["count_factorizations"]) is int
    assert base_spec.diagnostics["factor_factorizations"] == made
    # the seed's residual falls 0.17, 3.5e-6, 4.9e-9, 8.6e-12: below the
    # floor after the third solve, where the iteration stops
    assert base_spec.diagnostics["block_solves"] == 3
    assert base_spec.diagnostics["max_residual"] <= bt.RESIDUAL_FLOOR
    # the factor keeps, on the left half, the packed Schur inverse of the
    # last pair of every run and its coupling, and per level of the plateau's
    # reduction its coupling and pivot inverses, dense (110-row blocks); and
    # Gamma's packed inverse and the coupling E into the separator
    left = len(half.pairs) * size
    eliminated = range(plateau_first, plateau_first + plateau - 1)
    kept = (
        packed_count(base_op.matrix[:left, :left], size, skip=eliminated)
        + size**2 * sum(1 + a + f for a, f in reduction_levels(plateau))
        + n_sep * (n_sep + 1) // 2
        + base_op.matrix[left - size : left, left : left + n_sep].nnz
    )
    assert base_spec.diagnostics["factor_values"] == kept == 638_165
    assert base_spec.grid is not None
    assert base_comp.count == 1
    assert base_comp.max_residual < 3e-3  # O(delta^2) at delta = 0.08


@pytest.fixture(scope="module")
def amp15_spec(frame, fields, basis, cone):
    return rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis,
        cone.j_star, SPEED_T, perturbation=fields["W15"], t_factor=5.0,
    )


def test_amp15_ladder(frame, fields, cone, masses, amp15_spec):
    # heavier coupling pulls a symmetric pair into the gap: 2N + 1 = 3 states
    spec = amp15_spec
    assert len(spec) == 3
    np.testing.assert_allclose(spec.values, AMP15_VALUES, atol=1e-6)
    params = params_from_frames(cone, frame, masses[15], fields["wall"])
    comp = rb.compare_with_dirac(spec, params, cone.E_star)
    assert comp.count == 3
    assert comp.max_residual < 3e-3
    # the side pair sits symmetrically about the midgap state to O(delta^2)
    assert abs(spec.values[0] + spec.values[2] - 2 * spec.values[1]) < 1e-2
    assert abs(masses[15] - MASS_15) < 1e-9


@pytest.fixture(scope="module")
def mu03_spec(frame, fields, basis, cone):
    return rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], frame.zeta_star("A") + 0.3 * DELTA,
        DELTA, basis, cone.j_star, SPEED_T, perturbation=fields["W10"], t_factor=5.0,
    )


def test_detuned_channel(frame, fields, cone, masses, mu03_spec):
    # off the cone the envelope detuning tilts the ladder; the window must
    # still hold the crossing branch (t_factor 5) and match the reduced model
    spec = mu03_spec
    assert abs(spec.mu - 0.3) < 1e-9
    assert len(spec) == 1
    assert abs(spec.values[0] - MU03_VALUE) < 1e-6
    params = params_from_frames(
        cone, frame, masses[10], fields["wall"], mu=spec.mu
    )
    comp = rb.compare_with_dirac(spec, params, cone.E_star)
    assert comp.count == 1
    np.testing.assert_allclose(comp.thetas, [MU03_THETA], atol=1e-6)
    assert comp.max_residual < 3e-3


@pytest.mark.parametrize("channel", ["base", "amp15", "mu03"])
def test_check_ladder_matches_gap_spectrum(request, cone, frame, fields, masses, channel):
    # the ladder the solve counted on the strip's own box, which the
    # comparison reads, against the independent box-30 route: the roots of
    # the whole box-30 ladder (gap_spectrum) that fall in the window, to 1e-12
    spec = request.getfixturevalue(f"{channel}_spec")
    mass = masses[15 if channel == "amp15" else 10]
    params = params_from_frames(cone, frame, mass, fields["wall"], mu=spec.mu)
    ladder = gap_spectrum(params, 30.0, 6000).eigenvalues
    t_lo, t_hi = ((e - cone.E_star) / DELTA for e in spec.window)
    whole = ladder[(ladder >= t_lo) & (ladder <= t_hi)]
    assert len(spec.thetas) == len(whole) == len(spec)
    assert np.abs(spec.thetas - whole).max() <= 1e-12
    comp = rb.compare_with_dirac(spec, params, cone.E_star)
    assert np.array_equal(comp.thetas, spec.thetas)
    np.testing.assert_array_equal(comp.predicted, cone.E_star + DELTA * spec.thetas)


def test_compare_samples_no_eigenvectors(frame, fields, basis, cone, masses, monkeypatch):
    # the reduced ladder is integrated once per channel: the solve counts it
    # (one window_spectrum call) and the comparison reads its thetas, with no
    # Prufer half-line of its own
    from artifact import wall_dirac

    real_window, windows = rb.window_spectrum, []

    def counted_window(*args, **kwargs):
        windows.append(args)
        return real_window(*args, **kwargs)

    monkeypatch.setattr(rb, "window_spectrum", counted_window)
    spec = rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis,
        cone.j_star, SPEED_T, perturbation=fields["W10"], t_factor=3.5,
    )
    real_halves, halves = wall_dirac._halves, []

    def counted_halves(*args, **kwargs):
        halves.append(args)
        return real_halves(*args, **kwargs)

    monkeypatch.setattr(wall_dirac, "_halves", counted_halves)
    params = params_from_frames(cone, frame, masses[10], fields["wall"])
    comp = rb.compare_with_dirac(spec, params, cone.E_star)
    assert comp.count == 1
    assert len(windows) == 1 and halves == []


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


@pytest.fixture(scope="module")
def inversion_spec(lat, frame, fields, basis, cone):
    zeta, pert, kwargs = _channel(lat, frame, fields, "inversion")
    return rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], zeta, DELTA, basis, cone.j_star,
        SPEED_T, perturbation=pert, **kwargs,
    )


def test_inversion_double_solve(base_spec, inversion_spec):
    # flipping wall and coupling while reflecting the edge momentum (kept
    # unfolded, with the matching transverse fold) must reproduce the in-gap
    # energy exactly: the two assemblies are permutation-equivalent
    spec_r = inversion_spec
    assert spec_r.mu == 0.0
    assert len(spec_r) == len(base_spec) == 1
    assert abs(spec_r.values[0] - base_spec.values[0]) < 1e-8
    # the reflected strip's seed comes from cone B on the flipped wall and
    # is its state to O(delta): a wrong-signed mass or an unwrapped phase
    # seeds a vector orthogonal to it
    assert min(spec_r.diagnostics["seed_overlaps"]) > 0.99


@pytest.fixture(scope="module")
def base_op(frame, fields, basis):
    return st.strip_terms(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA,
        basis, perturbation=fields["W10"], t_factor=3.5,
    )


@pytest.mark.parametrize("change", ["drop", "add"])
def test_ladder_count_mismatch(monkeypatch, frame, fields, basis, cone, change):
    # a reduced ladder that loses its root, or gains one, seeds a number of
    # states whose mirrors do not make up the inertia count of the window,
    # and the solve must say so with both counts
    real = rb.window_spectrum

    def changed(*args, **kwargs):
        ladder = real(*args, **kwargs)
        thetas = ladder.eigenvalues
        thetas = thetas[:-1] if change == "drop" else np.append(thetas, 1.0)
        return dataclasses.replace(ladder, eigenvalues=thetas)

    monkeypatch.setattr(rb, "window_spectrum", changed)
    with pytest.raises(rb.CountMismatch, match="inertia counts 2") as err:
        rb.solve_edge_channel(
            frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA,
            basis, cone.j_star, SPEED_T, perturbation=fields["W10"], t_factor=3.5,
        )
    assert err.value.count == 2
    assert err.value.found == (0 if change == "drop" else 4)


def _arpack_smooth_values(op, window):
    """Reference route to a window's states: shift-invert ARPACK, applying the
    block LDL^H solve at the window centre, asked for every eigenvalue the
    window counts, and the smooth members of what it returns there (envelope
    Fourier mass mostly below the mirror cut)."""
    lo, hi = window
    pairs = bt.node_pairs(op.terms)
    count = bt.inertia(pairs, hi)[0] - bt.inertia(pairs, lo)[0]
    sigma = 0.5 * (lo + hi) + 0.00137 * (hi - lo)
    solve, *_ = bt.shift_invert_solve(pairs, sigma)
    n, shape = op.dim, (op.grid.n_t, op.grid.n_fast)
    strip = spla.LinearOperator(
        (n, n), matvec=lambda x: st.kron_apply(op.terms, x.reshape(shape)).ravel(),
        dtype=complex,
    )
    op_inv = spla.LinearOperator((n, n), matvec=solve, dtype=complex)
    rng = np.random.default_rng(20250818)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals, vecs = spla.eigsh(
        strip, k=count, sigma=sigma, which="LM", OPinv=op_inv, v0=v0
    )
    inside = (vals >= lo) & (vals <= hi)
    assert np.count_nonzero(inside) == count
    fractions = [st.envelope_band_fraction(v, op.grid) for v in vecs[:, inside].T]
    return np.sort(vals[inside][np.asarray(fractions) > 0.5])


@pytest.mark.parametrize("channel", ["base", "amp15"])
def test_seeded_values_match_arpack(frame, fields, basis, base_spec, amp15_spec, channel):
    # the seeded inverse iteration against a blind Krylov solve of the same
    # strip: the same smooth states in the window, to 1e-10
    spec = base_spec if channel == "base" else amp15_spec
    op = st.strip_terms(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), DELTA, basis,
        perturbation=fields["W10" if channel == "base" else "W15"],
        t_factor=3.5 if channel == "base" else 5.0,
    )
    reference = _arpack_smooth_values(op, spec.window)
    assert len(reference) == len(spec) == spec.diagnostics["seeds"]
    assert np.abs(spec.values - reference).max() < 1e-10



@pytest.mark.parametrize("channel", ["base", "amp15"])
def test_edge_states_are_eigenvectors(
    lat, frame, fields, basis, base_spec, amp15_spec, channel
):
    # the kept vectors are the states themselves: unit columns whose residual
    # under the channel's own terms passes the screen, and whose Rayleigh
    # quotients are the reported values
    spec = base_spec if channel == "base" else amp15_spec
    zeta, pert, kwargs = _channel(lat, frame, fields, channel)
    op = st.strip_terms(
        frame, fields["V"], fields["wall"], zeta, DELTA, basis, perturbation=pert,
        **kwargs,
    )
    grid = op.grid
    assert np.array_equal(grid.t, spec.grid.t)
    assert spec.vectors.shape == (grid.n_t * grid.n_fast, len(spec))
    for value, vector in zip(spec.values, spec.vectors.T):
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        u = vector.reshape(grid.n_t, grid.n_fast)
        applied = st.kron_apply(op.terms, u)
        residual = np.linalg.norm(applied - value * u)
        assert residual <= rb.RESIDUAL_TOL * max(1.0, abs(value))
        assert abs(np.vdot(u, applied).real - value) <= 1e-12

def _magnetic_params(lat, frame, fields, basis, cone):
    _, pert, _ = _channel(lat, frame, fields, "A")
    mass = compute_mass(cone, basis, pert)
    return params_from_frames(cone, frame, mass, fields["wall"])


@pytest.fixture(scope="module")
def magnetic_spec(lat, frame, fields, basis, cone):
    zeta, pert, kwargs = _channel(lat, frame, fields, "A")
    return rb.solve_edge_channel(
        frame, fields["V"], fields["wall"], zeta, DELTA, basis, cone.j_star,
        _magnetic_params(lat, frame, fields, basis, cone).speed_t,
        perturbation=pert, **kwargs,
    )


def test_magnetic_channel(lat, frame, fields, basis, cone, magnetic_spec):
    # the order-0 seed needs only the cone pair and the envelope, so the
    # magnetic wall is seeded like the scalar one: one state and its mirror,
    # on the reduced ladder to O(delta^2) and on the Krylov reference
    spec = magnetic_spec
    params = _magnetic_params(lat, frame, fields, basis, cone)
    assert len(spec) == 1
    assert spec.diagnostics["count"] == 2 == 2 * spec.diagnostics["seeds"]
    assert min(spec.diagnostics["seed_overlaps"]) > 0.99
    assert rb.compare_with_dirac(spec, params, cone.E_star).max_residual < 3e-3
    op = _channel_op(lat, frame, fields, basis, "A")
    assert np.abs(spec.values - _arpack_smooth_values(op, spec.window)).max() < 1e-10


def test_empty_window_skips_solve(monkeypatch, base_op, base_spec):
    # a window inside the gap that holds no state is certified empty by the
    # count alone, without factoring at any shift
    def no_call(*args, **kwargs):
        raise AssertionError("solver called on an empty window")

    monkeypatch.setattr(bt, "half_solve", no_call)
    monkeypatch.setattr(bt, "shift_invert_solve", no_call)
    window = (1.95, 2.0)
    assert base_spec.edges.lower < window[0] and window[1] < base_spec.edges.upper
    spec = rb.gap_eigenpairs(base_op, window, base_spec.edges, [])
    assert len(spec) == 0
    assert spec.diagnostics["count"] == 0
    assert spec.diagnostics["note"] == "no states in window"
    assert spec.diagnostics["inertia_sweeps"] == 2
    assert spec.diagnostics["block_solves"] == spec.diagnostics["factor_values"] == 0
    assert spec.diagnostics["factor_factorizations"] == 0


@pytest.mark.parametrize("screen", ["residual", "window", "boundary"])
def test_refined_state_screens(monkeypatch, base_op, base_spec, screen):
    # seeded with the converged base state, inverse iteration returns it
    # again; each screen, made to fail on its own, drops it and counts it
    # under its own name, and nothing is kept
    lo, hi = base_spec.window
    if screen == "residual":
        monkeypatch.setattr(rb, "RESIDUAL_TOL", 0.0)
    elif screen == "window":
        refine = rb.inverse_iteration

        def outside(*args):
            w, e, *rest = refine(*args)
            return (w, hi + 1.0, *rest)

        monkeypatch.setattr(rb, "inverse_iteration", outside)
    else:
        monkeypatch.setattr(rb, "BOUNDARY_MASS_TOL", 0.0)
    seed = base_spec.vectors[:, 0]
    spec = rb.gap_eigenpairs(base_op, (lo, hi), base_spec.edges, [seed])
    expected = {"boundary": 0, "residual": 0, "window": 0}
    expected[screen] = 1
    assert spec.diagnostics["dropped"] == expected
    assert len(spec) == 0 and len(spec.values) == 0
    assert spec.diagnostics["seeds"] == 1 and spec.diagnostics["count"] == 2


def _assert_counts_match_dense(count, evals, split=0.0):
    """The count below both ends of the spectrum and at the midpoints of 82
    eigenvalue pairs spread over it, against a dense eigensolve; ``count``
    is ``shift -> (count, factorizations)``.  A midpoint between eigenvalues
    split by ``split`` or less is left out; by default only an exactly
    degenerate pair, whose midpoint is an eigenvalue.  Returns the number of
    midpoints checked."""
    dim = len(evals)
    assert count(evals[0] - 1.0)[0] == 0
    assert count(evals[-1] + 1.0)[0] == dim
    index = np.unique(np.linspace(1, dim - 1, 82).astype(int))
    index = index[evals[index] - evals[index - 1] > split]
    for i in index:
        assert count(0.5 * (evals[i - 1] + evals[i]))[0] == i
    return len(index)


def _long_runs(pairs):
    return [len(run) for run in bt._runs(pairs) if len(run) > 1]


@pytest.mark.parametrize(
    "magnetic, t_factor, dim, runs, separator",
    [
        (False, 3.5, 1833, [25, 25], 5),
        (True, 3.5, 1833, [25, 25], 5),
        (False, 3.75, 1963, [27, 28], 3),
        (True, 3.75, 1963, [27, 28], 3),
    ],
    ids=["W", "A", "W-3.75", "A-3.75"],
)
def test_inertia_matches_dense_count(
    lat, frame, fields, magnetic, t_factor, dim, runs, separator
):
    # Sylvester inertia of the run-reduced count against a dense eigensolve,
    # and the run-reduced shift-invert solve against a dense solve, on small
    # strips (cutoff 2) for a scalar and a magnetic wall; the plateaus are
    # runs of 25 and 25 equal node pairs at t_factor 3.5, and of 27 and 28
    # at 3.75, so runs of odd and even length are reduced.  At some of these
    # shifts a reduction fails its pivot certificate and the run is walked
    # pair by pair: at the top one of the magnetic strip at 3.75 (a pivot
    # estimate of 2.4e6) the uncertified solve missed the backward bound
    # 244-fold.  The half walks take the same checks: 141 nodes (t_factor
    # 3.5) leave a left half of 68 nodes and a separator of 5, 151 nodes
    # (3.75) a left half of 74 and a separator of 3
    from artifact.potentials import magnetic_A

    basis = build_basis(lat, 2.0)
    pert = magnetic_A(lat, 2.2) if magnetic else fields["W10"]
    op = st.strip_terms(
        frame, fields["V"], domain_wall("bump_smoothstep", 1.0),
        frame.zeta_star("A"), 0.1, basis, perturbation=pert, t_factor=t_factor,
    )
    assert op.dim == dim
    # an odd node count leaves a single node in the last block
    assert op.grid.n_t % 2 == 1
    pairs = bt.node_pairs(op.terms)
    assert _long_runs(pairs) == runs
    half = bt.half_table(op.terms, rb.CONJUGATION_TOL)
    n_fast, n_t = op.grid.n_fast, op.grid.n_t
    assert len(half.separator) == separator * n_fast
    assert half.pairs[-1][1] == (n_t - separator) // 2 * n_fast
    # the left half's pairs are the strip's first ones
    assert [p[:2] for p in half.pairs] == [p[:2] for p in pairs[: len(half.pairs)]]
    dense_h = op.matrix.toarray()
    evals = np.linalg.eigvalsh(dense_h)
    # every midpoint, the mirror pairs split by 1e-12 to 1e-8 on the scalar
    # wall included, by the walk of the whole strip and by the half walk
    assert _assert_counts_match_dense(partial(bt.inertia, pairs), evals) == 82
    assert _assert_counts_match_dense(partial(bt.half_inertia, half), evals) == 82
    below = {evals[0] - 1.0: 0, evals[-1] + 1.0: op.dim}
    for i in (3, 250, 917, 1500, 1831):
        below[0.5 * (evals[i - 1] + evals[i])] = i
    rng = np.random.default_rng(7)
    compared = 0
    for shift, i in below.items():
        assert bt.inertia(pairs, shift)[0] == i
        assert bt.half_inertia(half, shift)[0] == i
        b = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        dist = np.abs(evals - shift)
        ref = None
        # ... equal to the dense solve wherever the shift is not an
        # eigenvalue to working precision: on the scalar strips two midpoints
        # fall inside mirror pairs (condition numbers 6e10 to 2e12), where
        # no solver, the dense one included, resolves x to 1e-10
        if dist.max() / dist.min() < 1e6:
            ref = np.linalg.solve(dense_h - shift * np.eye(op.dim), b)
            compared += 1
        for factor in (bt.shift_invert_solve(pairs, shift), bt.half_solve(half, shift)):
            x = factor[0](b)
            # backward stable at every shift ...
            residual = np.linalg.norm(op.matrix @ x - shift * x - b)
            bound = dist.max() * np.linalg.norm(x) + np.linalg.norm(b)
            assert residual <= 1e-14 * bound
            if ref is not None:
                assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert compared >= 5


def test_inertia_matches_dense_count_without_wall(lat, frame, fields):
    # with no wall (delta = 0) every node pair but the first and the last has
    # the same blocks, so the count reduces one run of 74 pairs.  Here 42 of
    # the 82 midpoints sit between eigenvalues degenerate to rounding (split
    # by 1e-12 or so, two of them exactly; every other split is 4e-3 or
    # more): rounding, not the method, decides a shift that close to two
    # eigenvalues, and the per-pair sweep misses 38 of them as the
    # run-reduced count does, so they are left out
    basis = build_basis(lat, 2.0)
    op = st.strip_terms(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), 0.0, basis,
        half_width=37.5,
    )
    assert op.dim == 1963
    pairs = bt.node_pairs(op.terms)
    assert _long_runs(pairs) == [74]
    evals = np.linalg.eigvalsh(op.matrix.toarray())
    count = partial(bt.inertia, pairs)
    assert _assert_counts_match_dense(count, evals, split=1e-8) == 40


@pytest.mark.parametrize("channel", ["base", "amp15", "A", "inversion"])
def test_run_reduced_count_matches_sweep(request, lat, frame, fields, basis, channel):
    # the half count (the run-reduced walk of the left half and the
    # separator) against the negative pivots of the per-pair reference sweep
    # of the whole strip at the window edges, where the solve counted, and
    # 1e-9 above each state, where a Schur block is all but singular.  There
    # no run falls back: the F pivot of a late level (a Schur block of the
    # box up to deep inside the run) is as close to singular as the sweep's
    # blocks past the state, but its certificate reads its coupling term
    # only, and the level's coupling has decayed
    name = "magnetic" if channel == "A" else channel
    spec = request.getfixturevalue(f"{name}_spec")
    op = _channel_op(lat, frame, fields, basis, channel)
    pairs, half = bt.node_pairs(op.terms), bt.half_table(op.terms, rb.CONJUGATION_TOL)
    factorizations = spec.diagnostics["count_factorizations"]
    assert factorizations <= 80
    assert spec.diagnostics["factor_factorizations"] == factorizations
    counts = tuple(_swept(pairs, shift) for shift in spec.window)
    assert counts == spec.diagnostics["inertia"]
    for shift in spec.values + 1e-9:
        assert bt.half_inertia(half, shift) == (_swept(pairs, shift), factorizations)
    # the reduction's first pivot is the plateau's D - shift, which the sweep
    # never factors.  D has no eigenvalue within 2.9 of the window (the
    # nearest lie near -1.38 and 6.31 on all four channels).  Uncertified,
    # the count was one short 1e-6 below 6.31 on the base and the inverted
    # channel, and up to 5 short 3e-8 from -1.38 on all four; there the
    # pivot fails its certificate, the left half's plateau is walked pair by
    # pair, and the count is the sweep's
    plateau = max(bt._runs(half.pairs), key=len)
    lam = np.linalg.eigvalsh(plateau[0][2]())
    lo, hi = spec.window
    below, above = lam[lam < lo].max(), lam[lam > hi].min()
    assert lo - below > 2.9 and above - hi > 2.9
    for shift in (below - 1e-4, below + 1e-4, above - 1e-4, above + 1e-4):
        assert bt.half_inertia(half, shift)[0] == _swept(pairs, shift)
    for shift in (below - 3e-8, below + 3e-8, above - 1e-6):
        count, made = bt.half_inertia(half, shift)
        assert count == _swept(pairs, shift)
        assert made > factorizations + len(plateau) // 2  # a plateau walked per pair


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
    # a strip that keeps fewer states than the ladder it was seeded from (a
    # refined seed the screens dropped) must be caught by the comparison,
    # not silently matched
    fewer = dataclasses.replace(base_spec, values=np.empty(0))
    params = params_from_frames(cone, frame, masses[10], fields["wall"])
    with pytest.raises(rb.CountMismatch) as err:
        rb.compare_with_dirac(fewer, params, cone.E_star)
    assert (err.value.count, err.value.found) == (1, 0)


# ---------------------------------------------------------------------------
# profile utilities


def test_profile_utilities(frame, fields, basis):
    grid = st.strip_terms(
        frame, fields["V"], fields["wall"], frame.zeta_star("A"), 0.0, basis,
        half_width=10.0,
    ).grid
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
    assert st.envelope_band_fraction(slow, grid) > 0.99
    assert st.envelope_band_fraction(fast, grid) < 0.01
    prof = st.transverse_profile(slow, grid)
    assert prof.shape == (grid.n_t,)
    assert abs(prof.sum() - 1.0) < 1e-12
    assert st.state_overlap(slow, slow) == pytest.approx(1.0)
    assert st.state_overlap(slow, fast) < 1e-12
    x = np.array([0.08, 0.04, 0.02])
    assert abs(fit_power_law(x, 3.0 * x**2) - 2.0) < 1e-12
