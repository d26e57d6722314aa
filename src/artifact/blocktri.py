"""Block LDL^H of a Kronecker-term matrix of bandwidth two: counts and solves.

H is given as its Kronecker terms ``sum_k T_k (x) F_k``: each T_k a sparse
n_t x n_t matrix coupling nodes at distance at most ``BAND`` = 2 (the strip's
squared centered difference), each F_k a dense n_fast x n_fast array.
Grouped in node pairs, H is block tridiagonal.  A block LDL^H of ``H - s``
gives its inertia and, by Sylvester's law, the number of eigenvalues below
s; two counts give the number in a window exactly (spectrum slicing,
Ericsson & Ruhe, Math. Comp. 35, 1980).  The same LDL^H taken at a shift
solves with ``H - shift``: one forward and one backward pass over its
segments (``shift_invert_solve``).  Nothing here knows where the terms come
from, except that a strip's half walks (below) rest on its mirror symmetry,
which they check.

The LDL^H reads no matrix.  Each node pair's diagonal block D_i and its
coupling B_(i+1) to the next pair are summed from the 2x2 node blocks of the
T_k times their F_k (``node_pairs``).  Only the t-derivative terms reach the
next pair, and their t-coefficients repeat (everywhere on a scalar wall, on
the plateaus of a magnetic one), so one coupling, and its adjoint, is built
per distinct coefficient set and shared by every factorization of the
strip.  Off the wall the diagonal coefficients repeat too: the base
channel's 438 node pairs fall into 123 runs of equal ones (``_runs``), and
D_i is built once per run.  A single pair takes the sweep's step: its Schur
block S_i (``_schur_block``) is factored by Bunch-Kaufman (zhetrf, blocked)
and inverted from that factor (zhetri), and ``B^H S_i^-1 B`` is passed on to
the next block.  B stays sparse there: it holds only the distance-one and
distance-two node couplings (165 nonzeros of its 12,100 entries on the base
channel, 257 with a magnetic wall), so both products with it cost next to
nothing and only the inverse is dense.

A run of equal pairs is reduced by block cyclic reduction (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970), the in-box form of the decimation
of Sancho, Sancho & Rubio (J. Phys. F 15, 1985): a run of m pairs reduces
to its last pair's Schur block in about 2 log2(m) factorizations, each
level factoring one pivot for all the blocks it eliminates.  That Schur
block is the one the per-pair sweep reaches, and by Haynsworth additivity
the pivots carry the same inertia.  The base channel's 123 runs include the
plateaus of 158 and 159 pairs, so a walk of its whole table takes 147
factorizations where a per-pair sweep takes 438, and 0.30 -> 0.13 s.  The
count and the factor at the shift walk a table with one generator
(``_run_ldl``).  The count keeps nothing; the factor keeps, per run, the
lower triangle of its last pair's Schur inverse in LAPACK's packed form
and, per level of a reduction, its pivot inverses and coupling.  Each solve
applies a single pair's inverse by one packed Hermitian matrix-vector
product (zhpmv) and a level by zgemm on all the blocks it eliminates at
once.  On the base channel a factor of the whole table keeps 1.25 M values
where a per-pair one kept 2.74 M (5.36 M as Bunch-Kaufman factors), and
takes 0.29 -> 0.15 s; one solve takes 21 -> 14 ms (medians of three
alternating processes, two-core host, BLAS on one thread).

A strip is walked on one half only.  Every strip the library builds is
invariant, to rounding, under A = (t -> -t) o complex conjugation (its
terms are, one by one: ``_mirror_residual``), so the two halves on either
side of a few nodes at the wall centre are conjugate mirrors, and
``nu(H - s) = 2 nu(left half) + nu(Gamma)`` with Gamma the separator's
Schur block once both halves are eliminated (``half_table``,
``half_inertia``, ``half_solve``).  The separator has 3 nodes, or 5: the
terms couple nodes at distance at most two, so it must be at least 2 nodes
wide to keep the halves apart and odd to be symmetric about the centre
node, and the left half must be whole node pairs, the strip's first ones,
so that its last pair abuts the separator; where the 3 centre nodes leave
an odd left half, the separator takes one node more on each side.  On the
base channel the left half holds 218 of the 438 pairs and the separator
165 rows: a count takes 74 factorizations (Gamma's included) where a walk
of the whole strip takes 147, 0.066 s against 0.135 s (medians of five
alternating processes, BLAS on one thread), and the factor at the shift
keeps 638,165 values where the whole strip's keeps 1,250,425.  A
solve walks the left half's factor twice, once for each half, as a solve
of the whole strip walked its factor once.  This is the decimation above
taken across the wall: Gamma is the wall's block with both sides folded in.

The reduction's pivots are Schur blocks of stretches of the plateau (the
first is D - shift), and near an eigenvalue of one of them it is not
backward stable where the per-pair sweep is: uncertified, a count 1e-6
from an eigenvalue of D was one short.  So every pivot carries a condition
estimate (``_pivot``), and a run with a pivot above ``PIVOT_CONDITION`` is
walked pair by pair.  Inside the gap windows of the tested channels no run
falls back, within 1e-10 of a state included.

``inverse_iteration`` applies the half solve to refine a seed into an
eigenpair.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import zgemm, zhpmv
from scipy.linalg.lapack import zhetrf, zhetrf_lwork, zhetri


class FactorizationFailure(RuntimeError):
    """The shift-inverted strip operator could not be factorized or solved."""


# The terms couple t-nodes at distance at most BAND (the squared centered
# difference), so two nodes per block make H block tridiagonal for the sweep.
BAND = 2

# Largest condition estimate of a pivot of the run reduction (_pivot, about
# ||P||_1 ||P^-1||_1); a run with a pivot above it is walked pair by pair.
# Inside the tested windows the largest estimate is 1.7e3.
PIVOT_CONDITION = 1e4

# Most block solves of one seed's inverse iteration.  It stops earlier, at
# the first solve that lowers the residual by less than SOLVE_GAIN: a
# converging seed gains at least 28x per solve until it is below 1e-10, so a
# smaller gain means the residual has reached rounding noise.  It also stops
# once the residual is at most RESIDUAL_FLOOR * max(1, |e|), 1e-4 of the
# strip's residual screen (ribbon.RESIDUAL_TOL): a further solve moves the
# energy by less than the residual squared over the gap to the next state,
# far below rounding (after 3 to 5 solves on the tested channels).
SEED_SOLVES = 20
SOLVE_GAIN = 10.0
RESIDUAL_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# node-pair table


def _check_band(T) -> None:
    reach = sp.coo_matrix(T)
    if np.any(np.abs(reach.col - reach.row) > BAND):
        raise ValueError(f"a t-factor couples nodes farther apart than {BAND}")


def _band_coefficients(terms: list) -> np.ndarray:
    """``coef[k, i, d + BAND] = T_k[i + d, i]``, zero where i + d leaves the strip."""
    n_t = terms[0][0].shape[0]
    coef = np.zeros((len(terms), n_t, 2 * BAND + 1), dtype=complex)
    for k, (T, _) in enumerate(terms):
        _check_band(T)
        for d in range(-BAND, BAND + 1):
            coef[k, max(-d, 0) : n_t - max(d, 0), d + BAND] = T.diagonal(-d)
    return coef


def _node_coefficients(coef: np.ndarray, rows: range, cols: range) -> np.ndarray:
    """``T_k[rows, cols]`` for every term k, from the band coefficients ``coef``."""
    out = np.zeros((coef.shape[0], len(rows), len(cols)), dtype=complex)
    for a, j in enumerate(rows):
        for b, i in enumerate(cols):
            if abs(j - i) <= BAND:
                out[:, a, b] = coef[:, i, j - i + BAND]
    return out


def _kron_block(t_block: np.ndarray, fast: list) -> np.ndarray:
    """Dense ``sum_k t_block[k] (x) fast[k]``, one block of H.

    The scaled F_k are added term by term, elementwise and in the order in
    which the sum of the sparse Kronecker products ``sum_k kron(T_k, F_k)``
    adds them, so the block is the slice of that matrix bit for bit.
    """
    _, m, n = t_block.shape
    n_fast = fast[0].shape[0]
    out = np.zeros((m, n_fast, n, n_fast), dtype=complex)
    for k, a, b in zip(*np.nonzero(t_block)):
        out[a, :, b, :] += t_block[k, a, b] * fast[k]
    return out.reshape(m * n_fast, n * n_fast)


def node_pairs(terms: list) -> list:
    """Node pairs of H = sum_k T_k (x) F_k, read once from its terms for every sweep.

    Returns ``(r0, r1, diagonal, coupling, adjoint)`` per pair of t-nodes:
    its rows, ``diagonal()`` that sums its diagonal block D_i as a fresh
    dense array, and the sparse (CSC) coupling B_(i+1) to the next pair with
    its adjoint (CSR), both None for the last pair.  Nothing here depends on
    the shift, so one table serves all sweeps of a strip.  A coupling
    depends only on the terms' t-coefficients between the two pairs, so it
    and its adjoint are built once per distinct set of them and shared by
    every pair with that set.  Consecutive pairs whose own t-coefficients
    are equal share one ``diagonal`` callable in the same way, which
    ``_run_ldl`` calls once per run: on the base channel, scalar or
    magnetic wall, 438 pairs have 123 distinct callables, since kappa is
    constant on the plateaus and every other coefficient is constant.
    """
    n_t = terms[0][0].shape[0]
    return _pair_table(_band_coefficients(terms), [F for _, F in terms], n_t)


def _pair_table(coef: np.ndarray, fast: list, n_t: int) -> list:
    """``node_pairs`` of the first ``n_t`` nodes, from the band coefficients
    ``coef`` of the terms (``_band_coefficients``) and their fast factors;
    nothing past node ``n_t - 1`` is read."""
    n_fast = fast[0].shape[0]
    built: dict = {}
    pairs = []
    diagonal = None
    for j0 in range(0, n_t, 2):
        j1, j2 = min(j0 + 2, n_t), min(j0 + 4, n_t)
        pair = range(j0, j1)
        block = _node_coefficients(coef, pair, pair)
        if diagonal is None or not np.array_equal(diagonal.args[0], block):
            diagonal = partial(_kron_block, block, fast)
        coupling = adjoint = None
        if j1 < n_t:
            reach = _node_coefficients(coef, pair, range(j1, j2))
            key = (reach.shape, reach.tobytes())
            if key not in built:
                c = sp.csc_matrix(_kron_block(reach, fast))
                built[key] = (c, c.conj().T)
            coupling, adjoint = built[key]
        pairs.append((j0 * n_fast, j1 * n_fast, diagonal, coupling, adjoint))
    return pairs


# ---------------------------------------------------------------------------
# one block: Schur update, factor and inertia


def _negative_pivots(ldu: np.ndarray, ipiv: np.ndarray) -> int:
    """Number of negative eigenvalues of D in a lower Bunch-Kaufman factor (zhetrf).

    A 1x1 pivot (ipiv > 0) counts when its diagonal entry is negative.  A 2x2
    pivot marks both of its rows with the same negative ipiv; det < 0 means
    one eigenvalue of each sign, det > 0 two of the sign of its first entry.
    """
    d = ldu.diagonal().real
    k = np.flatnonzero(ipiv < 0)[::2]  # first row of each 2x2 pivot
    det = d[k] * d[k + 1] - np.abs(ldu[k + 1, k]) ** 2
    pairs = np.where(det < 0, 1, np.where(d[k] < 0, 2, 0))
    return int(np.count_nonzero(d[ipiv > 0] < 0) + pairs.sum())


@cache
def _upper(n: int, k: int) -> np.ndarray:
    """Mask of an n x n block's upper triangle from its k-th diagonal up
    (cached, read-only).  ``S.T[_upper(n, 0)]`` reads the lower triangle of S
    column by column, LAPACK's packed order as zhpmv reads it with lower=1."""
    mask = np.triu(np.ones((n, n), dtype=bool), k)
    mask.flags.writeable = False
    return mask


@cache
def _lwork(n: int) -> int:
    """Workspace size for zhetrf on an n-row block (zhetrf_lwork, cached).

    scipy's default ``lwork = n`` keeps LAPACK on its unblocked path; this
    size lets it block (7,040 for a 110-row block: 244 -> 124 us per block,
    two-core host, BLAS on one thread).
    Blocks of at most 64 rows take the unblocked path either way.
    """
    work, _ = zhetrf_lwork(n, lower=1)
    return int(work.real)


def _schur_block(built: np.ndarray, shift: float, adjoint, inverse) -> np.ndarray:
    """``D - shift - B^H X B`` as a fresh array: the Schur block of one node
    pair from its diagonal block D (``built``, not changed), the incoming
    coupling's adjoint B^H and the previous Schur block's inverse X, or
    ``D - shift`` when ``adjoint`` is None."""
    block = built.copy()
    block[np.diag_indices(len(block))] -= shift
    if adjoint is not None:
        # (B^H X)^H = X B, as X is exactly Hermitian
        block -= adjoint @ (adjoint @ inverse).conj().T
    return block


def _factor(block: np.ndarray, where: str) -> tuple:
    """Bunch-Kaufman factor of a Hermitian block (zhetrf, lower) and its inverse.

    Returns ``(ldu, ipiv, inverse)``.  The inverse comes from the factor
    (zhetri), with the conjugate of its lower triangle copied over its upper
    one (one masked copy, 22 us per 110-row block where two ``np.tril`` and
    an add took 94 us), so it is exactly Hermitian.  A singular block raises
    FactorizationFailure with ``where`` in the message.
    """
    n = len(block)
    ldu, ipiv, info = zhetrf(block, lower=1, lwork=_lwork(n))
    if info == 0:
        inverse, info = zhetri(ldu, ipiv, lower=1)
        np.copyto(inverse, inverse.T.conj(), where=_upper(n, 1))
    if info != 0:
        raise FactorizationFailure(
            f"block LDL^H of the strip is singular {where} (info = {info})"
        )
    return ldu, ipiv, inverse


# ---------------------------------------------------------------------------
# runs: block cyclic reduction under a pivot certificate


def _runs(pairs: list) -> list:
    """The node-pair table cut into runs: stretches of consecutive pairs with
    one ``diagonal`` callable, each coupled to the next by one shared
    coupling object (the last pair's own coupling may differ).  The base
    channel's 438 pairs make 123 runs: the two plateaus of 158 and 159
    pairs, 119 single pairs on the wall and one at each end of the box."""
    runs: list = []
    for pair in pairs:
        run = runs[-1] if runs else None
        if run and pair[2] is run[0][2] and run[-1][3] is run[0][3]:
            run.append(pair)
        else:
            runs.append([pair])
    return runs


def _pivot(
    block: np.ndarray, coupling: np.ndarray, scale: float, first: bool = False
) -> tuple | None:
    """Negative pivots and inverse of one pivot P of the run reduction, or
    None when it fails the certificate: a singular block, or a condition
    estimate ``||P^-1||_1 max(||P||_1, ||B||_1^2 / scale)`` above
    ``PIVOT_CONDITION``, with B the level's coupling and ``scale`` the run's
    ``||D - shift||_1 + 2 ||B_1||_1``.  The first term is P's condition
    number; the second bounds the update ``B^H P^-1 B`` against the run's
    scale, which grows where the reduction's couplings grow and costs
    backward accuracy as a poor pivot does.  The run's ``first`` block F
    is tested on the second term alone: F is a Schur block of the box up
    to inside the run, near singular close to a state as the sweep's own
    blocks past it are, and its update is small however near singular F
    is once the level's coupling has decayed."""
    try:
        ldu, ipiv, inverse = _factor(block, "in a run's reduction")
    except FactorizationFailure:
        return None
    growth = np.linalg.norm(coupling, 1) ** 2 / scale
    if not first:
        growth = max(growth, np.linalg.norm(block, 1))
    if np.linalg.norm(inverse, 1) * growth > PIVOT_CONDITION:
        return None
    return _negative_pivots(ldu, ipiv), inverse


def _reduce_run(first, plateau, coupling, m: int) -> tuple:
    """Schur complement of a run's last block, by block cyclic reduction.

    The run is the block tridiagonal chain of m >= 2 blocks ``[F, A, ...,
    A, A]`` with every coupling B (block j to block j + 1; B^H below): F =
    ``first`` is the first pair's Schur block, A = ``plateau`` is D - shift,
    and B = ``coupling`` (dense).  Each level eliminates every second block,
    counting back from the last, which is never eliminated.  The eliminated
    blocks are not coupled to each other, so their Schur update is local:
    every interior one has the pivot A, which is factored and inverted once
    for all of them, and the first block, when eliminated, is its own pivot.
    The kept blocks form the next level's chain, with

        F <- F - B A^-1 B^H                          (F kept), or
        F <- A - B^H F^-1 B - B A^-1 B^H             (F eliminated),
        A <- A - B^H A^-1 B - B A^-1 B^H,
        L <- L - B^H P^-1 B,   B <- -B A^-1 B,

    with L the last block (A at the start) and P its eliminated neighbour's
    pivot (A, or F when the chain has two blocks).  The block left at the
    end is the Schur complement of the last pair, the same matrix the
    per-pair sweep reaches (it is unique).  Returns ``(schur, levels,
    negatives, factorizations)``: by Haynsworth additivity the eliminated
    blocks' negative pivots, each pivot's count times the blocks it stands
    for, add up to the inertia of the first m - 1 blocks of the sweep, and
    ``factorizations`` counts the pivots factored.
    ``levels`` holds, per level, what its solve applies (``_solve_levels``):
    ``(s, k, A^-1, F^-1, B)``, the chain's stride s in pairs and its length
    k, the pivots' inverses (None where the level eliminates no interior
    block, or keeps F) and the level's coupling.  A run of 158 pairs takes
    12 factorizations in 8 levels.  Every dense product is a zgemm (see
    ``_run_ldl`` on the two BLAS pools).

    The pivots are Schur blocks of stretches of the plateau, cut off at
    both ends (D - shift, then 3, 7, ... pairs) or, for F, joined to the box
    before the run; the sweep's are those of the box from its first pair.
    Near an eigenvalue of one of them the reduction is not backward stable
    where the sweep is: uncertified, the count was one short 1e-6 below the
    eigenvalue 6.31 of the base plateau's D and up to 5 short 3e-8 from
    -1.38, and a solve on a small magnetic strip missed the backward bound
    244-fold at a pivot estimate of 2.4e6.  So each pivot carries a
    certificate (``_pivot``), and the first that fails it ends the
    reduction with ``schur`` None and the pivots factored so far, the failed
    one included: the caller walks the run pair by pair.  Inside the windows
    of the tested channels the largest estimate is 1.7e3 (amp 15, at the
    lower window edge; 539 on the base channel).  Close to a state that lies before the
    run, F's own eigenvalues come close too, but F's certificate reads its
    coupling term only, and no run falls back there: on the base channel
    the largest estimate stays 488 from 1e-10 to 1e-2 either side of its
    state (``BENCH_run_factor.json``).
    """
    F, A, L, B = first, plateau, plateau.copy(), coupling
    scale = np.linalg.norm(plateau, 1) + 2 * np.linalg.norm(coupling, 1)
    levels: list = []
    negatives = factorizations = 0
    for level in itertools.count():
        interior = m // 2 - (m % 2 == 0)  # eliminated blocks with pivot A
        inv_a = inv_f = None
        if interior:
            pivot = _pivot(A, B, scale)
            factorizations += 1
            if pivot is None:
                return None, (), 0, factorizations
            neg, inv_a = pivot
            negatives += interior * neg
            a_b = zgemm(1.0, inv_a, B)  # A^-1 B
            # what a kept block loses to the eliminated block after it, and
            # to the one before it
            from_next = zgemm(1.0, B, zgemm(1.0, inv_a, B, trans_b=2))  # B A^-1 B^H
            from_prev = zgemm(1.0, B, a_b, trans_a=2)  # B^H A^-1 B
        if m % 2 == 0:
            pivot = _pivot(F, B, scale, first=True)
            factorizations += 1
            if pivot is None:
                return None, (), 0, factorizations
            neg, inv_f = pivot
            negatives += neg
            f_b = zgemm(-1.0, B, zgemm(1.0, inv_f, B), trans_a=2)  # -B^H F^-1 B
        levels.append((2**level, m, inv_a, inv_f, B))
        if m == 2:
            return L + f_b, levels, negatives, factorizations
        F = A + f_b - from_next if m % 2 == 0 else F - from_next
        L = L - from_prev
        A = A - from_prev - from_next
        B = zgemm(-1.0, B, a_b)
        m = (m + 1) // 2


# ---------------------------------------------------------------------------
# the walker, the count and the solve


class _Segment(NamedTuple):
    """One step of the run walker (``_run_ldl``): a run reduced to its last
    pair, or one pair.  Rows ``r0:r1`` are the run's; ``levels`` its
    reduction (``_reduce_run``; empty for one pair); ``inverse`` the full
    Hermitian inverse of the last pair's Schur block; ``coupling`` and
    ``adjoint`` the sparse coupling of that pair to the next one and its
    adjoint (None at the end of the strip); ``negatives`` and
    ``factorizations`` what the step's pivots count and how many blocks it
    factored."""

    r0: int
    r1: int
    levels: tuple
    inverse: np.ndarray
    coupling: object
    adjoint: object
    negatives: int
    factorizations: int


def _run_ldl(pairs: list, shift: float):
    """Block LDL^H of ``H - shift`` for H = sum_k T_k (x) F_k, one run at a time.

    The t-major H is block tridiagonal in blocks of two nodes (``2 *
    n_fast`` rows), so ``H - shift = L D L^H`` with D = diag(S_i), the
    Schur blocks ``S_i = D_i - shift - B_i^H S_(i-1)^-1 B_i`` (B_i the
    coupling of block i - 1 to block i).  ``pairs`` is the node-pair table
    of the terms (``node_pairs``): each D_i is summed from the terms once
    per run (``_runs``) and copied for the rest, and B_(i+1) is the table's
    shared coupling; no matrix of H is formed.  Yields one
    ``_Segment`` per run (per pair where a run is walked pair by pair).  A
    run of m >= 2 equal pairs enters with its first pair's Schur block and
    is reduced to its last pair's by block cyclic reduction
    (``_reduce_run``), in about 2 log2(m) factorizations where a per-pair
    sweep takes m; the elimination order changes inside the run only, so
    the last pair's Schur block is the sweep's, and the next run goes on
    from its inverse.  A single pair, and every pair of a run whose
    reduction fails its pivot certificate, takes the per-pair step: build
    S_i (``_schur_block``, two sparse-times-dense products with ``B^H``),
    factor and invert it (``_factor``) and yield it as a segment of its own;
    the first pair of a run whose reduction failed also counts the pivots
    that reduction factored.
    B_(i+1) couples only nodes at distance one or two, so it holds a few
    hundred nonzeros and is made dense only as a run's reduction coupling.
    On the base channel the 438 pairs make 123 runs and 147
    factorizations.

    A consumer that keeps nothing (``inertia``) holds at most one run's
    reduction at a time.  Each Schur block is dropped once factored: held
    to the next step it took the base channel's peak RSS from 142 to 150
    MB.  Every dense BLAS call goes through scipy's LAPACK and BLAS
    wrappers (here and in ``shift_invert_solve``), which share one
    OpenBLAS: numpy bundles another with its own thread pool, and
    alternating the two left both pools spinning against each other (a base
    channel sweep took 5.8 s instead of 0.43 s on a two-core host).
    """
    adjoint = inverse = None  # B^H into the next segment and the last Schur inverse
    for index, run in enumerate(_runs(pairs)):
        r0, _, diagonal, coupling, _ = run[0]
        where = f"at shift = {shift:.12g}, run {index} (rows {r0}:{run[-1][1]})"
        built = diagonal()
        block = _schur_block(built, shift, adjoint, inverse)
        schur, made = None, 0
        if len(run) > 1:
            schur, levels, negatives, made = _reduce_run(
                block,
                _schur_block(built, shift, None, None),
                coupling.toarray(order="F"),
                len(run),
            )
        if schur is None:
            for r0, r1, _, coupling, next_adjoint in run:
                if block is None:
                    block = _schur_block(built, shift, adjoint, inverse)
                at = f"at shift = {shift:.12g}, rows {r0}:{r1}"
                ldu, ipiv, inverse = _factor(block, at)
                block = None
                adjoint = next_adjoint
                negatives = _negative_pivots(ldu, ipiv)
                yield _Segment(
                    r0, r1, (), inverse, coupling, adjoint, negatives, made + 1
                )
                made = 0
            continue
        del block
        ldu, ipiv, inverse = _factor(schur, where)
        del schur
        _, r1, _, coupling, adjoint = run[-1]
        negatives += _negative_pivots(ldu, ipiv)
        yield _Segment(
            r0, r1, tuple(levels), inverse, coupling, adjoint, negatives, made + 1
        )


def inertia(pairs: list, shift: float) -> tuple[int, int]:
    """Number of eigenvalues of H below ``shift``, by Sylvester's law of inertia.

    Returns ``(count, factorizations)``: the negative pivots of the block
    LDL^H of ``H - shift`` that the run walker takes (``_run_ldl``), which
    by Haynsworth additivity carry its inertia, and the block
    factorizations that took.  Each plateau run is reduced by block cyclic
    reduction, so a count of the whole base-channel strip takes 147
    factorizations where a per-pair sweep takes 438 (150 where 626 at amp
    15), and 0.30 -> 0.13 s (two-core host, BLAS on one thread); a strip's
    own counts walk one half of it (``half_inertia``).  A run whose reduction
    fails its pivot certificate is walked pair by pair, so the count stays
    right next to the eigenvalues of the plateau's own blocks, and then
    takes more factorizations.  The count keeps nothing.
    """
    negatives = factorizations = 0
    for segment in _run_ldl(pairs, shift):
        negatives += segment.negatives
        factorizations += segment.factorizations
    return negatives, factorizations


def _solve_levels(x: np.ndarray, levels: tuple, forward: bool) -> None:
    """One pass of a run's reduction over ``x`` (its rows as m x n, in place).

    At each level the chain is the run's pairs m - 1 - j s, j < k, with the
    last pair at j = 0 and F at j = k - 1; the level eliminates the odd j,
    the interior ones by the pivot A and F when k is even.  Forward, level by
    level, ``z_(e-s) -= B P^-1 z_e`` and ``z_(e+s) -= B^H P^-1 z_e`` for every
    eliminated pair e with pivot P; backward, levels reversed, ``x_e = P^-1
    (z_e - B^H x_(e-s) - B x_(e+s))``.  Each pivot is applied to all the
    pairs it eliminates at once, as one zgemm on their columns.
    """
    m = len(x)
    for s, k, inv_a, inv_f, b in levels if forward else reversed(levels):
        # (pivot inverse, the pairs it eliminates, whether they have a
        # neighbour before them in the chain: F has none)
        eliminated = (
            (inv_a, m - 1 - s * np.arange(1, k - 1, 2), True),
            (inv_f, np.array([m - 1 - (k - 1) * s]), False),
        )
        for pivot, e, before in eliminated:
            if pivot is None:
                continue
            if forward:
                y = zgemm(1.0, pivot, x[e].T)
                if before:
                    x[e - s] -= zgemm(1.0, b, y).T
                x[e + s] -= zgemm(1.0, b, y, trans_a=2).T
            else:
                z = x[e].T - zgemm(1.0, b, x[e + s].T)
                if before:
                    z -= zgemm(1.0, b, x[e - s].T, trans_a=2)
                x[e] = zgemm(1.0, pivot, z).T


def _packed_factor(pairs: list, sigma: float) -> tuple:
    """The run walker's LDL^H at ``sigma`` as the solve keeps it.

    Returns ``(factors, factorizations, inverse)``: per segment of the walker
    (``_run_ldl``) ``(r0, r1, n, levels, packed, coupling, adjoint)``, with
    the lower triangle of the last pair's Hermitian Schur inverse packed
    column by column in ``packed`` (n (n + 1) / 2 values for a block of n
    rows); the blocks factored; and the last segment's full Schur inverse.
    """
    factors, factorizations = [], 0
    for seg in _run_ldl(pairs, sigma):
        n = len(seg.inverse)
        packed = seg.inverse.T[_upper(n, 0)]
        factors.append(
            (seg.r0, seg.r1, n, seg.levels, packed, seg.coupling, seg.adjoint)
        )
        factorizations += seg.factorizations
    return factors, factorizations, seg.inverse


def _forward(factors: list, x: np.ndarray) -> None:
    """The forward pass of ``_packed_factor``'s LDL^H over ``x``, in place."""
    for r0, r1, n, levels, packed, coupling, adjoint in factors:
        if levels:
            _solve_levels(x[r0:r1].reshape(-1, n), levels, forward=True)
        if coupling is not None:
            y = zhpmv(n, 1.0, packed, x, offx=r1 - n, lower=1)
            x[r1 : r1 + coupling.shape[1]] -= adjoint @ y


def _backward(factors: list, x: np.ndarray) -> None:
    """The backward pass of ``_packed_factor``'s LDL^H over ``x``, in place."""
    for r0, r1, n, levels, packed, coupling, _ in reversed(factors):
        z = x[r1 - n : r1]
        if coupling is not None:
            z = z - coupling @ x[r1 : r1 + coupling.shape[1]]
        x[r1 - n : r1] = zhpmv(n, 1.0, packed, z, lower=1)
        if levels:
            _solve_levels(x[r0:r1].reshape(-1, n), levels, forward=False)


def _kept(factors: list) -> int:
    """Values ``_packed_factor``'s factors keep: packed inverses, coupling
    nonzeros once per segment and the reductions' dense arrays."""
    return sum(
        p.size
        + (0 if c is None else c.nnz)
        + sum(a.size for _, _, *arrays in lv for a in arrays if a is not None)
        for _, _, _, lv, p, c, _ in factors
    )


def shift_invert_solve(pairs: list, sigma: float):
    """``x -> (H - sigma)^-1 x`` from the run walker's LDL^H at ``sigma``.

    H is given by the node-pair table of its Kronecker terms
    (``node_pairs``).  Returns ``(solve, kept, factorizations)``.  Per
    segment of the walker (``_run_ldl``) the solve keeps the lower triangle
    of the last pair's Hermitian Schur inverse, packed column by column (n
    (n + 1) / 2 values for a block of n rows), the table's sparse coupling
    to the next pair, and a run's reduction: per level its pivot inverses
    and its coupling, dense (``_packed_factor``).  ``kept`` counts those
    values (coupling nonzeros once per segment, though segments with equal
    coefficients share one coupling); ``factorizations`` the blocks
    factored.  On the base channel's whole strip that is 1,250,425 values
    (2,741,475 for a per-pair factor) and 147 factorizations (438).

    Forward, per segment: the run's levels (``_solve_levels``), then
    ``z_(i+1) -= B_(i+1)^H S_i^-1 z_i`` from its last pair i into the next
    segment; backward, segments reversed: ``x_i = S_i^-1 (z_i - B_(i+1)
    x_(i+1))``, then the run's levels.  Each S_i^-1 is applied to one
    vector as a packed Hermitian matrix-vector product (zhpmv), which reads
    the forward pass's z_i in place.  Pivots stay inside each block, so
    nothing bounds growth across blocks; a poor factor shows up as an
    inverse iteration whose residual stalls, and the caller's residual
    screen against H then rejects its state.
    """
    factors, factorizations, _ = _packed_factor(pairs, sigma)

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=np.complex128).ravel()
        _forward(factors, x)
        _backward(factors, x)
        return x

    return solve, _kept(factors), factorizations


# ---------------------------------------------------------------------------
# half walks: two mirror halves and a separator


class MirrorAsymmetry(ValueError):
    """A term of the strip breaks A = (t -> -t) o complex conjugation.

    ``half_table`` raises it for the term with index ``term`` whose mirror
    residual (``_mirror_residual``) exceeds the caller's tolerance; both are
    in the message and as ``term`` and ``residual``.
    """

    def __init__(self, term: int, residual: float, tol: float):
        super().__init__(
            f"term {term} of the strip is not mirror-conjugate: its residual "
            f"{residual:.3e} exceeds {tol:.1e}, so the right half is not the "
            "conjugate mirror of the left one"
        )
        self.term = term
        self.residual = residual


class HalfTable(NamedTuple):
    """The strip as a left half, a separator and the left half's mirror.

    ``pairs`` is the node-pair table of the left half (``node_pairs`` of its
    nodes only), ``separator`` the dense diagonal block H_SS of the
    separator's nodes, ``coupling`` the sparse (CSC) coupling E of the left
    half's last pair into the separator and ``adjoint`` E^H (CSR), and
    ``n_fast`` the rows per node.  The right half is not stored: it is the
    left one reversed node by node and conjugated.
    """

    pairs: list
    separator: np.ndarray
    coupling: object
    adjoint: object
    n_fast: int


def _mirror_residual(coef: np.ndarray, fast: np.ndarray) -> float:
    """How far one term T (x) F is from invariance under A.

    ``coef`` is the term's band coefficients (``_band_coefficients``), in
    which R T R, R the node reversal, reads ``coef[::-1, ::-1]``.  The term
    is invariant, conj(R T R) (x) conj(F) = T (x) F, when conj(F) = s F and
    conj(R T R) = conj(s) T for one phase s, taken from F's largest entry.
    Returns the larger of the two relative max-entry residuals; the term's
    own relative residual is at most their sum plus their product.
    """
    peak_f, peak_t = np.abs(fast).max(), np.abs(coef).max()
    if peak_f == 0.0 or peak_t == 0.0:
        return 0.0
    top = fast.flat[np.argmax(np.abs(fast))]
    s = np.conj(top) / top
    r_f = np.abs(np.conj(fast) - s * fast).max() / peak_f
    r_t = np.abs(np.conj(coef[::-1, ::-1]) - np.conj(s) * coef).max() / peak_t
    return float(max(r_f, r_t))


def half_table(terms: list, tol: float) -> HalfTable:
    """Split H = sum_k T_k (x) F_k into a left half, a separator and its mirror.

    A strip's t-grid has an odd node count n_t, with the wall centre on node
    c = n_t // 2.  The separator is the nodes c - 1 .. c + 1 when the left
    half, nodes 0 .. c - 2, has an even count, and c - 2 .. c + 2 otherwise:
    the left half is whole node pairs, the strip's own first pairs, and its
    last pair abuts the separator.  The terms couple nodes at distance at
    most ``BAND`` = 2, so a separator of three nodes or more keeps the
    halves apart.  Each term is checked once against the mirror symmetry A
    = (t -> -t) o complex conjugation that makes the right half the left one
    reversed and conjugated (``_mirror_residual``); one whose residual
    exceeds ``tol`` raises MirrorAsymmetry.
    """
    n_t = terms[0][0].shape[0]
    coef = _band_coefficients(terms)
    fast = [F for _, F in terms]
    for k, F in enumerate(fast):
        residual = _mirror_residual(coef[k], F)
        if residual > tol:
            raise MirrorAsymmetry(k, residual, tol)
    c = n_t // 2
    left = c - 1 if (c - 1) % 2 == 0 else c - 2
    separator = range(left, n_t - left)
    coupling = sp.csc_matrix(
        _kron_block(_node_coefficients(coef, range(left - 2, left), separator), fast)
    )
    return HalfTable(
        _pair_table(coef, fast, left),
        _kron_block(_node_coefficients(coef, separator, separator), fast),
        coupling,
        coupling.conj().T,
        fast[0].shape[0],
    )


def _mirrored(x: np.ndarray, n_fast: int) -> np.ndarray:
    """A on a vector of whole nodes: the nodes reversed and conjugated (a copy)."""
    return x.reshape(-1, n_fast)[::-1].conj().ravel()


def _separator_schur(half: HalfTable, shift: float, inverse: np.ndarray) -> np.ndarray:
    """Gamma = H_SS - shift - E^H X E - P conj(E^H X E) P, the separator's
    Schur block once both halves are eliminated: X is the left half's last
    Schur inverse, and the right half's term is the left one's mirror, P
    reversing the separator's nodes."""
    update = half.adjoint @ (half.adjoint @ inverse).conj().T  # E^H X E
    nodes = len(update) // half.n_fast
    mirror = update.reshape(nodes, half.n_fast, nodes, half.n_fast)[::-1, :, ::-1]
    gamma = half.separator - update - mirror.conj().reshape(update.shape)
    gamma[np.diag_indices(len(gamma))] -= shift
    return gamma


def half_inertia(half: HalfTable, shift: float) -> tuple[int, int]:
    """Number of eigenvalues of H below ``shift``, walking the left half only.

    Returns ``(count, factorizations)``.  The right half is the left one's
    conjugate mirror, and a block LDL^H of H - shift that eliminates the
    left half, then the right half from its far end, then the separator has
    the same pivots on both halves up to conjugation.  By Sylvester's law
    and Haynsworth additivity ``count = 2 nu(left) + nu(Gamma)``, with
    nu(left) the negative pivots of the run walker (``_run_ldl``) on the
    left half's table and Gamma the separator's Schur block
    (``_separator_schur``), factored once.  On the base channel the left
    half holds 218 of the strip's 438 node pairs, and a count takes 74
    factorizations (73 on the left half and Gamma's) where a walk of the
    whole strip takes 147.  The count keeps nothing.
    """
    negatives = factorizations = 0
    for segment in _run_ldl(half.pairs, shift):
        negatives += segment.negatives
        factorizations += segment.factorizations
    gamma = _separator_schur(half, shift, segment.inverse)
    ldu, ipiv, _ = _factor(gamma, f"at shift = {shift:.12g}, in the separator")
    return 2 * negatives + _negative_pivots(ldu, ipiv), factorizations + 1


def half_solve(half: HalfTable, sigma: float):
    """``x -> (H - sigma)^-1 x`` from the left half's LDL^H at ``sigma``.

    Returns ``(solve, kept, factorizations)``.  The left half's factor
    (``_packed_factor``) serves the right half too, through its mirror:
    with M the node reversal and conjugation of the right half's part
    (``_mirrored``), the right half's solve is M applied after the left
    solve of M b_R.  The elimination takes the left half, the right half
    from its far end, then the separator: forward, both halves' passes
    (``_forward``) and ``z_S = b_S - E^H y_L - P conj(E^H y_R)`` with y the
    last pair's ``S^-1 z``; then ``x_S = Gamma^-1 z_S``
    (``_separator_schur``, applied packed by zhpmv); backward, each last
    pair's ``z -= E x_S`` (with P conj(x_S) on the mirrored right half) and
    both halves' backward passes (``_backward``).  ``kept`` counts the left
    factor's values (``_kept``), Gamma's packed inverse and E's nonzeros;
    on the base channel 638,165 values where a factor of the whole strip
    keeps 1,250,425, in 74 factorizations where it takes 147.
    """
    factors, factorizations, inverse = _packed_factor(half.pairs, sigma)
    where = f"at shift = {sigma:.12g}, in the separator"
    _, _, gamma = _factor(_separator_schur(half, sigma, inverse), where)
    g, n_fast, n = len(gamma), half.n_fast, factors[-1][2]
    packed_gamma, last = gamma.T[_upper(g, 0)], factors[-1][4]
    left = half.pairs[-1][1]  # rows of the left half, and of the right one

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=np.complex128).ravel()
        halves = (x[:left], _mirrored(x[left + g :], n_fast))
        z = x[left : left + g]
        for v, mirror in zip(halves, (False, True)):
            _forward(factors, v)
            y = half.adjoint @ zhpmv(n, 1.0, last, v, offx=left - n, lower=1)
            z -= _mirrored(y, n_fast) if mirror else y
        z[:] = zhpmv(g, 1.0, packed_gamma, z, lower=1)
        for v, mirror in zip(halves, (False, True)):
            v[left - n :] -= half.coupling @ (_mirrored(z, n_fast) if mirror else z)
            _backward(factors, v)
        x[left + g :] = _mirrored(halves[1], n_fast)
        return x

    kept = _kept(factors) + packed_gamma.size + half.coupling.nnz
    return solve, kept, factorizations + 1


def inverse_iteration(half: HalfTable, apply, seed: np.ndarray) -> tuple:
    """Refine one seed into an eigenpair of H with one factor at its Rayleigh quotient.

    Factors ``H - e0`` once (``half_solve`` on the half table), e0 the
    seed's Rayleigh quotient, and applies the solve until one lowers the
    residual ||H w - e w|| by less than ``SOLVE_GAIN`` or takes it to
    ``RESIDUAL_FLOOR * max(1, |e|)`` (at most ``SEED_SOLVES``); the better of
    the last two iterates is kept.  ``apply`` is ``x -> H x``.  A
    reduced-ladder seed carries no mirror content and sits nearer its own
    state than any other, so each solve shrinks the rest by their distance
    ratio: on the base channel the residual falls 0.17, 3.5e-6, 4.9e-9,
    8.6e-12, and the iteration stops there, after 3 solves, as it is below
    ``RESIDUAL_FLOOR`` (a fourth solve took it only to 3.5e-12 and moved e
    by 2.4e-15).  Returns ``(w, e, residual, shift, solves, kept,
    factorizations)`` with ``kept`` the values the factor stores and
    ``factorizations`` the blocks it factored.
    """

    def rayleigh(x: np.ndarray) -> tuple[float, float]:
        hx = apply(x)
        e = float(np.real(np.vdot(x, hx)))
        return e, float(np.linalg.norm(hx - e * x))

    w = seed / np.linalg.norm(seed)
    shift, res = rayleigh(w)
    e = shift
    solve, kept, factorizations = half_solve(half, shift)
    for solves in range(1, SEED_SOLVES + 1):
        x = solve(w)
        x /= np.linalg.norm(x)
        e_x, res_x = rayleigh(x)
        converging = res_x * SOLVE_GAIN < res
        if res_x < res:
            w, e, res = x, e_x, res_x
        if not converging or res <= RESIDUAL_FLOOR * max(1.0, abs(e)):
            break
    return w, e, res, shift, solves, kept, factorizations
