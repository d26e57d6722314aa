"""Tests for the block LDL^H walker on matrices that are not strips.

The walker takes any Hermitian H given as Kronecker terms ``sum_k T_k (x)
F_k`` with each T_k coupling nodes at distance at most two.  Here the terms
are random: repeated node blocks with dense couplings, so the run reduction,
its pivot certificate and 2x2 Bunch-Kaufman pivots are exercised away from
the strip's near-diagonal couplings.  The dense reference is the plain sum of
the Kronecker products.  The helpers ``per_pair_sweep``, ``reduction_levels``
and ``packed_count`` are the references the strip tests use too, and so are
the one-shift walks: ``inertia`` and ``shift_invert_solve`` walk a whole
table, ``half_inertia`` and ``half_solver`` a strip's left half.
"""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import zhetrf, zhetri

from artifact import blocktri as bt


def inertia(pairs, shift):
    """``(count, factorizations)`` of a walk of the whole table at ``shift``
    alone: the eigenvalues of H below it and the blocks factored."""
    negatives, made, _, _ = bt._walk(pairs, (shift,), ())
    return negatives[0], made[0]


def shift_invert_solve(pairs, sigma):
    """``(solve, kept, factorizations)`` of a walk of the whole table at
    ``sigma`` alone: ``x -> (H - sigma)^-1 x`` by the walk's forward and
    backward passes, the values its factor keeps and the blocks factored."""
    _, made, _, (segments,) = bt._walk(pairs, (), (sigma,))

    def solve(b):
        x = np.array(b, dtype=np.complex128).ravel()
        bt._forward(segments, x)
        bt._backward(segments, x)
        return x

    return solve, bt._kept(segments), made[0]


def half_inertia(half, shift):
    """``(count, factorizations)`` of a half walk at ``shift`` alone."""
    (counted,), _ = bt.half_walk(half, (shift,), ())
    return counted


def half_solver(half, sigma):
    """``(solve, kept, factorizations)`` of a half walk at ``sigma`` alone."""
    _, (factor,) = bt.half_walk(half, (), (sigma,))
    return partial(bt.half_solve, half, factor), factor.kept, factor.factorizations


def per_pair_sweep(pairs, shift):
    """Reference block LDL^H of ``H - shift``, one node pair at a time: the
    Schur block of every pair from its own ``diagonal()`` (``_schur_block``),
    factored and inverted (``_factor``).  Yields ``(r0, r1, block, ldu,
    ipiv, inverse)`` per pair."""
    adjoint = inverse = None
    for r0, r1, diagonal, _, next_adjoint in pairs:
        block = bt._schur_block(diagonal(), shift, adjoint, inverse)
        ldu, ipiv, inverse = bt._factor(block, f"rows {r0}:{r1}")
        adjoint = next_adjoint
        yield r0, r1, block, ldu, ipiv, inverse


def reduction_levels(m):
    """Per level of the block cyclic reduction of a run of m >= 2 pairs,
    whether it factors an interior pivot and whether it factors the run's
    first block: each level eliminates every second block of its chain,
    counting back from the last, and the chain of k blocks keeps (k + 1) //
    2 of them, down to two."""
    levels = []
    while True:
        levels.append((int(m // 2 - (m % 2 == 0) > 0), int(m % 2 == 0)))
        if m == 2:
            return levels
        m = (m + 1) // 2


def packed_count(mat, size, skip=()):
    """Values a per-pair factor keeps for the sparse matrix ``mat`` in node
    pairs of ``size`` rows: the packed lower triangle of each pair's
    inverse, n (n + 1) / 2 values for n rows, plus the nonzeros of the
    pair's coupling to the next one; the pairs numbered in ``skip`` left
    out."""
    dim = mat.shape[0]
    return sum(
        (n := min(size, dim - r0)) * (n + 1) // 2
        + mat[r0 : r0 + size, r0 + size : r0 + 2 * size].nnz
        for i, r0 in enumerate(range(0, dim, size))
        if i not in skip
    )


def assert_same_segments(segments, reference):
    """Two kept walks' segments (``bt._pack``) hold the same rows, couplings
    and arrays, bit for bit."""
    assert len(segments) == len(reference)
    for seg, ref in zip(segments, reference):
        r0, r1, n, levels, packed, coupling, adjoint = seg
        assert (r0, r1, n) == ref[:3] and coupling is ref[5] and adjoint is ref[6]
        assert np.array_equal(packed, ref[4])
        assert len(levels) == len(ref[3])
        for level, ref_level in zip(levels, ref[3]):
            assert level[:2] == ref_level[:2]
            for a, b in zip(level[2:], ref_level[2:]):
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(a, b)


def _kron_sum(terms):
    """Dense ``sum_k T_k (x) F_k``."""
    return sum(np.kron(T.toarray(), F) for T, F in terms)


def _toeplitz_terms(stretches, rng, n_fast=5, singular=None):
    """Kronecker terms of a random Hermitian matrix of the strip's block shape
    whose node blocks repeat.  ``stretches`` lists ``(pairs, d, c)``: that
    many node pairs whose nodes take family d's node block N_d (random, zero
    diagonal) and coupling C1_d to the next node, and family c's coupling
    C2_c to the node after that; one node of its own closes the strip.  The
    pairs of one stretch share one diagonal block and one coupling, and so
    do consecutive stretches with equal (d, c).  Family ``singular`` has N =
    C1 = 0, so the diagonal block of its pairs is zero."""
    sizes = [2 * m for m, _, _ in stretches] + [1]
    node_family = np.repeat([d for _, d, _ in stretches] + [-1], sizes)
    reach_family = np.repeat([c for _, _, c in stretches] + [-1], sizes)
    n_t = len(node_family)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    terms = []

    def add(nodes, d, block):
        # block at (j, j + d) for every node j in nodes, and its adjoint below
        left = nodes[nodes + d < n_t]
        if len(left):
            ones = np.ones(len(left))
            T = sp.csr_matrix((ones, (left, left + d)), shape=(n_t, n_t))
            terms.append((T, block))
            if d:
                terms.append((T.T.tocsr(), block.conj().T))

    for family in np.unique(node_family):
        nodes, kept = np.flatnonzero(node_family == family), family != singular
        a = cplx(n_fast, n_fast)
        add(nodes, 0, (a + a.conj().T - np.diag(2 * a.diagonal().real)) * kept)
        add(nodes, 1, cplx(n_fast, n_fast) * kept)
    for family in np.unique(reach_family):
        add(np.flatnonzero(reach_family == family), 2, cplx(n_fast, n_fast))
    return terms


def test_run_reduction_on_dense_toeplitz_runs(monkeypatch):
    # the count and the solve on repeated random node blocks with dense
    # couplings, in runs of 1, 2, 3, 4 and 7 node pairs, then 7 pairs with
    # one diagonal block whose coupling changes after the third, then a pair
    # and a node of their own: against eigvalsh, a dense solve and the solve
    # with every run walked pair by pair at every midpoint.  The coupling
    # change splits the 7 pairs into runs of 4 (the fourth pair only leaves
    # by the new coupling) and 3.  The zero node diagonals force 2x2
    # Bunch-Kaufman pivots in the reduction's own factorizations too
    stretches = [(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 3, 3), (7, 4, 4), (3, 5, 5),
                 (4, 5, 6), (1, 6, 7)]
    terms = _toeplitz_terms(stretches, np.random.default_rng(5))
    dense = _kron_sum(terms)
    mat = sp.csc_matrix(dense)
    assert np.array_equal(dense, dense.conj().T)
    pairs = bt.node_pairs(terms)
    runs = [len(run) for run in bt._runs(pairs)]
    assert runs == [1, 2, 3, 4, 7, 4, 3, 1, 1]
    # the pivots of each run's reduction, at most two per level
    pivots = [sum(a + f for a, f in reduction_levels(m)) if m > 1 else 0 for m in runs]
    assert pivots == [0, 1, 2, 3, 4, 3, 2, 0, 0]
    real_pivot, taken = bt._pivot, []

    def recorded_pivot(block, coupling, scale, first=False):
        two_by_two = bool(np.any(zhetrf(block, lower=1)[1] < 0))
        out = real_pivot(block, coupling, scale, first)
        taken.append((out is not None, two_by_two))
        return out

    monkeypatch.setattr(bt, "_pivot", recorded_pivot)
    real_factor, factored = bt._factor, []

    def counted_factor(block, where):
        factored.append(where)
        return real_factor(block, where)

    monkeypatch.setattr(bt, "_factor", counted_factor)
    evals = np.linalg.eigvalsh(dense)
    assert np.diff(evals).min() > 1e-8
    shifts = [evals[0] - 1.0, *(0.5 * (evals[1:] + evals[:-1])), evals[-1] + 1.0]
    rng = np.random.default_rng(6)
    two_by_two, walked, ratios, checked, reported = [], [], [], 0, 0
    for i, shift in enumerate(shifts):
        taken.clear()
        factored.clear()
        count, made = inertia(pairs, shift)
        # each run's reduction takes all its pivots, or stops at the first
        # that fails its certificate, and the run is walked pair by pair: m
        # factorizations for a run of m pairs, plus the pivots tried up to
        # the failed one, where its pivots and its last block took p + 1
        attempts, expected, rest = list(taken), len(runs), [ok for ok, _ in taken]
        for m, p in zip(runs, pivots):
            if all(rest[:p]):
                del rest[:p]
                expected += p
            else:
                tried = rest.index(False) + 1
                del rest[:tried]
                expected += m - 1 + tried
                walked.append((i, m))
        assert rest == [] and (count, made) == (i, expected)
        # every block factored is reported, those of a failed reduction too
        assert made == len(factored)
        reported += made
        two_by_two += [t for _, t in attempts]
        solve, kept, made = shift_invert_solve(pairs, shift)
        assert made == expected and taken == 2 * attempts
        with monkeypatch.context() as per_pair:
            per_pair.setattr(bt, "PIVOT_CONDITION", 0.0)
            walk, *_ = shift_invert_solve(pairs, shift)
        b = rng.standard_normal(len(dense)) + 1j * rng.standard_normal(len(dense))
        dist = np.abs(evals - shift)

        def backward(x):
            residual = np.linalg.norm(mat @ x - shift * x - b)
            return residual / (dist.max() * np.linalg.norm(x) + np.linalg.norm(b))

        x = solve(b)
        ratios.append(backward(x) / backward(walk(b)))
        ref = np.linalg.solve(dense - shift * np.eye(len(dense)), b)
        # block LDL^H pivots inside each block only, so at an indefinite
        # shift its accuracy rests on the blocks it factors; the bounds hold
        # wherever the per-pair reference's Schur blocks are well conditioned
        # (the solve walked pair by pair misses the backward bound at 89 of
        # these 256 midpoints, the run-reduced one at 62)
        worst = max(
            np.linalg.norm(block, 1) * np.linalg.norm(inverse, 1)
            for _, _, block, _, _, inverse in per_pair_sweep(pairs, shift)
        )
        if worst <= 1e4:
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        if worst <= 1e3:
            assert backward(x) <= 1e-14
            checked += 1
    assert checked == 54
    # at every midpoint the run-reduced solve's backward error is within a
    # fixed factor of the one walked pair by pair: 24 at most (midpoint 246,
    # where the only pivot near singular, the first of the run of 2, is the
    # sweep's own Schur block, condition 1.6e4), 0.9 at the median
    assert max(ratios) <= 30 and np.median(ratios) <= 1
    # the pivots of a reduction that fell back are counted up to the one
    # that failed: 3,803 where 15 a shift would make 3,840; a run of 3, 4
    # or 7 pairs fell back 88 times, at 66 of the 256 shifts
    assert len(two_by_two) == 3803 and any(two_by_two)
    assert len(walked) == 88 and len({i for i, _ in walked}) == 66
    # over the 256 counts: 6,198 blocks of the kept paths and 223 pivots of
    # the reductions that fell back
    assert reported == 6421
    # a run whose blocks D - shift are singular fails the certificate at its
    # first pivot and is walked pair by pair, whose Schur blocks are not
    # singular: the count at shift 0 is right
    monkeypatch.undo()
    stretches = [(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 3, 3)]
    terms = _toeplitz_terms(stretches, np.random.default_rng(5), singular=3)
    dense = _kron_sum(terms)
    below = np.count_nonzero(np.linalg.eigvalsh(dense) < 0.0)
    # 1, 1 + 1 and 1 + 2 factorizations for the first three runs, 4 for the
    # run of 4 walked per pair plus its singular first pivot, and 1 for the
    # node
    assert inertia(bt.node_pairs(terms), 0.0) == (below, 12)


def test_one_walk_matches_walks_at_each_shift():
    # one walk of the Toeplitz test table at 32 shifts, counts and kept
    # factors interleaved along the spectrum, gives every shift what a walk
    # at that shift alone gives, bit for bit: its negative pivots, blocks
    # factored, last Schur inverse and every kept segment, with the runs
    # whose reduction fails its certificate at some of the shifts and not
    # at others; and it builds each run's diagonal block once
    stretches = [(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 3, 3), (7, 4, 4), (3, 5, 5),
                 (4, 5, 6), (1, 6, 7)]
    terms = _toeplitz_terms(stretches, np.random.default_rng(5))
    pairs = bt.node_pairs(terms)
    evals = np.linalg.eigvalsh(_kron_sum(terms))
    mids = 0.5 * (evals[1:] + evals[:-1])
    counts, sigmas = tuple(mids[::16]), tuple(mids[8::16])
    built, wrappers = [], {}

    def counted(diagonal):
        def call():
            built.append(diagonal)
            return diagonal()

        return call

    table = [
        (r0, r1, wrappers.setdefault(id(d), counted(d)), c, a)
        for r0, r1, d, c, a in pairs
    ]
    negatives, made, inverses, factors = bt._walk(table, counts, sigmas)
    assert len(built) == len(bt._runs(pairs)) == 9
    assert len(negatives) == len(made) == len(inverses) == 32 and len(factors) == 16
    for k, shift in enumerate(counts + sigmas):
        kept = k >= len(counts)
        walk = (), (shift,)
        n, m, inv, f = bt._walk(pairs, *(walk if kept else walk[::-1]))
        assert (negatives[k], made[k]) == (n[0], m[0])
        assert np.array_equal(inverses[k], inv[0])
        if kept:
            assert_same_segments(factors[k - len(counts)], f[0])
    # the 9 runs' last blocks and their 15 pivots where no reduction falls
    # back, more where one does
    assert min(made) == 9 + 15 and max(made) > min(made)


def _negative_pivots_loop(ldu, ipiv):
    """Pivot-by-pivot count of negative D eigenvalues, the reference for
    the vectorised bt._negative_pivots."""
    d = ldu.diagonal().real
    neg, k = 0, 0
    while k < len(ipiv):
        if ipiv[k] > 0:
            neg += int(d[k] < 0)
            k += 1
        else:  # 2x2 pivot: det < 0 means one eigenvalue of each sign
            det = d[k] * d[k + 1] - abs(ldu[k + 1, k]) ** 2
            neg += 1 if det < 0 else (2 if d[k] < 0 else 0)
            k += 2
    return neg


def test_block_ldl_on_dense_couplings():
    # the sweep on a random Hermitian matrix of the strip's block shape (nodes
    # coupled up to distance 2, n_fast = 5, an odd node count) whose node
    # couplings are dense rather than the strip's near-diagonal ones, and
    # whose zero node diagonals force 2x2 Bunch-Kaufman pivots; the sweep
    # reads it as single-entry T_k (x) dense F_k terms, one per node block,
    # and refuses a term that couples nodes at distance 3
    n_fast, n_t = 5, 9
    dim = n_fast * n_t
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    dense = np.zeros((dim, dim), dtype=complex)
    node = [slice(j * n_fast, (j + 1) * n_fast) for j in range(n_t)]
    for j in range(n_t):
        a = cplx(n_fast, n_fast)
        dense[node[j], node[j]] = a + a.conj().T - np.diag(2 * a.diagonal().real)
        for d in (1, 2):
            if j + d < n_t:
                c = cplx(n_fast, n_fast)
                dense[node[j], node[j + d]] = c
                dense[node[j + d], node[j]] = c.conj().T
    assert np.count_nonzero(dense.diagonal()) == 0
    terms = [
        (sp.csr_matrix(([1.0], ([j], [i])), shape=(n_t, n_t)), dense[node[j], node[i]])
        for j in range(n_t)
        for i in range(max(j - 2, 0), min(j + 3, n_t))
    ]
    assert np.array_equal(_kron_sum(terms), dense)
    mat = sp.csc_matrix(dense)
    reach3 = sp.csr_matrix(([1.0], ([3], [0])), shape=(n_t, n_t))
    with pytest.raises(ValueError, match="farther apart"):
        bt.node_pairs(terms + [(reach3, np.ones((n_fast, n_fast)))])
    evals = np.linalg.eigvalsh(dense)
    below = {evals[0] - 1.0: 0, evals[-1] + 1.0: dim}
    for i in (1, 10, 22, 23, 30, 44):
        below[0.5 * (evals[i - 1] + evals[i])] = i
    two_by_two = 0
    pairs = bt.node_pairs(terms)
    for shift, i in below.items():
        for *_, ldu, ipiv, inverse in per_pair_sweep(pairs, shift):
            two_by_two += int(np.any(ipiv < 0))
            assert bt._negative_pivots(ldu, ipiv) == _negative_pivots_loop(ldu, ipiv)
            # the inverse is zhetri's lower triangle with its conjugate copied
            # over the upper one: bit for bit the lower triangle plus the
            # adjoint of its strict part, 2x2 pivots and the last block included
            ref = np.tril(zhetri(ldu, ipiv, lower=1)[0])
            ref += np.tril(ref, -1).conj().T
            assert np.array_equal(inverse, ref)
        assert inertia(pairs, shift)[0] == i
        b = cplx(dim)
        solve, kept, made = shift_invert_solve(pairs, shift)
        # four pairs of 10 rows and a last block of 5, coupled by three and by
        # two dense node blocks; no two pairs share a block, so each is a run
        # of its own and the factor is per pair
        assert kept == packed_count(mat, 2 * n_fast) == 4 * 55 + 15 + 3 * 75 + 50
        assert made == 5
        x = solve(b)
        dist = np.abs(evals - shift)
        residual = np.linalg.norm(mat @ x - shift * x - b)
        assert residual <= 1e-14 * (dist.max() * np.linalg.norm(x) + np.linalg.norm(b))
        ref = np.linalg.solve(dense - shift * np.eye(dim), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert two_by_two > 0
