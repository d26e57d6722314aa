"""Edge-channel solver: the certified in-gap states of one wall strip.

The strip (``strip``) keeps the bulk plane-wave ball and gives every ball
mode a slow transverse envelope; its constant-coefficient part is an exact
remap of the bulk fiber family, so its essential spectrum is that of the two
plateau bulk operators.  Their fibers are complex conjugates of each other
(V real and even, the perturbation real and odd), so ``essential_edges_bulk``
takes the gap edges from one scan of the +delta fibers, each edge refined as
the zero of its Hellmann-Feynman band slope, and ``gap_window`` pulls them in
by the margin the finite box needs to certify a state's decay, or returns no
window with a warning that carries the numbers.

A window is certified complete by counting, not by over-solving.  Two
inertia counts of the strip's block LDL^H give the exact number of strip
eigenvalues in it; each walks the left half of the strip only, as the right
half is its conjugate mirror (``blocktri.half_inertia``).  Every in-gap
state comes with its zone-edge mirror (``strip``), so that count must be
twice the reduced ladder's, one state and its mirror each.  The states
are therefore never searched for blindly: each is seeded from its state of
the reduced Dirac ladder, the cone pair times the ladder envelope
(``quasimode.lift_order0``), which is smooth and carries no mirror content,
and refined by inverse iteration with the LDL^H taken at the seed's
Rayleigh quotient (``blocktri.inverse_iteration``), again on the left half.
The mirrors are counted, never solved for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace as dc_replace

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  bench/tracer.py patches ribbon.spla

from .bloch import PlaneWaveBasis, eigs as fiber_eigs, fiber_from_tables, fiber_tables
from .blocktri import half_inertia, half_table, inverse_iteration
from .dirac_cone import compute_mass, compute_nu_star, find_dirac_point
from .geometry import TWO_PI, EdgeFrame
from .potentials import FourierField
from .quasimode import lift_order0
from .strip import (
    BOUNDARY_FRACTION,
    StripGrid,
    StripOperator,
    envelope_band_fraction,
    kron_apply,
    mass_fractions,
    nearest_cone,
    state_overlap,
    strip_terms,
)
from .wall_dirac import ladder_pair, params_from_frames, window_spectrum


class GapClosed(RuntimeError):
    """The bulk spectral gap vanished at the requested edge Bloch phase."""


class CountMismatch(RuntimeError):
    """Two routes to the number of states in one window disagree.

    Raised by ``gap_eigenpairs`` when the window's inertia count is not twice
    the number of reduced-ladder seeds (each state comes with its mirror),
    and by ``compare_with_dirac`` when the certified strip states and the
    reduced ladder in the window differ in number.  ``count`` is the
    reference count (inertia, or ladder), ``found`` the number the other
    route gives (twice the seeds, or the certified states).
    """

    def __init__(self, message: str, *, count: int, found: int):
        super().__init__(message)
        self.count = count
        self.found = found


class BoxTooShortWarning(UserWarning):
    """The box tail past the wall is too short to certify any in-gap energy.

    Carries the edge phase ``zeta``, the tail length ``tail_slow`` in slow
    units, the decay rate ``R`` the boundary tolerance needs over that tail,
    and the half-gap ``H`` (slow units) on the side that failed: a state can
    decay at most at rate H, so ``R >= H`` leaves no window.  A box with no
    tail at all (``tail_slow <= 0``) carries ``R = inf``.
    """

    def __init__(self, zeta: float, tail_slow: float, R: float, H: float):
        if tail_slow > 0:
            need = f"a {tail_slow:.3g}-unit tail needs decay rate {R:.3g}"
        else:
            need = f"no tail is left past the wall ({tail_slow:.3g} units)"
        super().__init__(
            f"box too short at zeta = {zeta:.6f}: {need} but the half-gap "
            f"allows at most {H:.3g}; raise t_factor"
        )
        self.zeta = zeta
        self.tail_slow = tail_slow
        self.R = R
        self.H = H


class GapTooTightWarning(UserWarning):
    """The gap is too narrow for the window margins the box needs.

    Carries the edge phase ``zeta``, the bulk ``gap`` (energy units), the
    minimum edge distances ``d_min = (lower, upper)`` in slow units, and the
    smallest margin ``factor`` tried: pulling each edge in by ``factor *
    d_min * delta`` left no energy between them.
    """

    def __init__(
        self, zeta: float, gap: float, d_min: tuple[float, float], factor: float
    ):
        super().__init__(
            f"gap {gap:.3g} at zeta = {zeta:.6f} too tight: pulling the edges in "
            f"by {factor:g} x d_min = ({d_min[0]:.3g}, {d_min[1]:.3g}) slow units "
            "leaves no window; raise t_factor or lower the boundary tolerance"
        )
        self.zeta = zeta
        self.gap = gap
        self.d_min = d_min
        self.factor = factor


# gap_eigenpairs screens: kept states must have a relative residual at most
# RESIDUAL_TOL and at most BOUNDARY_MASS_TOL of their mass past
# strip.BOUNDARY_FRACTION of the box.  gap_window sizes the window so that a
# state's mass there stays under the same BOUNDARY_MASS_TOL.
RESIDUAL_TOL = 1e-6
BOUNDARY_MASS_TOL = 1e-6

# solve_edge_channel's cone velocity check: the relative linearity floor of
# the truncated plane-wave ball is about 3e-6 at cutoff 4, above
# compute_nu_star's default.
NU_LINEARITY_TOL = 1e-4

# gap_window pulls the window in by WINDOW_MARGIN times the minimum edge
# distance, or by the smaller WINDOW_FALLBACK where the gap is too narrow
# for the full margin.
WINDOW_MARGIN = 3.0
WINDOW_FALLBACK = 1.5

# essential_edges_bulk's check of its one-scan hypothesis: the largest
# imaginary part of V's coefficient table, and real part of the
# perturbation's, relative to the table's largest entry.  gap_eigenpairs
# holds the strip's terms to the same tolerance for its half walks
# (blocktri.half_table).
CONJUGATION_TOL = 1e-12


# ---------------------------------------------------------------------------
# bulk essential spectrum


@dataclass(frozen=True)
class BulkEdges:
    """Essential-spectrum edges of the two plateau bulk operators.

    The -delta plateau's fibers are the complex conjugates of the +delta
    plateau's, so one scan gives both (``essential_edges_bulk``) and
    ``per_sign`` holds the same pair under both signs.
    """

    zeta: float
    delta: float
    lower: float  # top of the band below the gap, max over tau
    upper: float  # bottom of the band above, min over tau
    per_sign: dict  # {"+": (lower, upper), "-": (lower, upper)}, equal
    samples: np.ndarray  # columns: tau, lo, hi
    closed: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _fiber_pair(tables, frame, zeta, tau, delta, basis, j_star, d_tau):
    """Bands ``j_star`` and ``j_star + 1`` at tau and their tau-slopes.

    Returns ``(values, slopes)``, each of length 2.  The slopes are
    Hellmann-Feynman, dE/dtau = <u, dH/dtau u>: xi moves along k' with tau,
    so dH/dtau is diag 2 (xi + 2 pi eta).k' plus ``d_tau``, the constant
    tau-derivative of a magnetic term.
    """
    xi = frame.xi_of(zeta, tau)
    vals, vecs = fiber_eigs(fiber_from_tables(xi, delta, basis, tables), j_star + 1)
    u = vecs[:, j_star - 1:]
    grad = d_tau + np.diag(2.0 * (xi + TWO_PI * basis.duals) @ frame.kp)
    return vals[j_star - 1:], np.real(np.sum(np.conj(u) * (grad @ u), axis=0))


def _brentq(f, a: float, b: float, f_a: float, f_b: float, xtol: float) -> float:
    """Brent's zero of f in the bracket [a, b], given f of opposite signs there.

    A port of scipy's ``brentq`` (the C routine of ``scipy.optimize``) with
    its default rtol of four machine epsilons and 100 iterations; it takes
    the end values the caller already has instead of evaluating f there
    again.  The zero it returns is a point f was evaluated at (a or b
    included).  Raises RuntimeError if it has not converged by then.
    """
    rtol = 4.0 * 2.220446049250313e-16
    x_pre, x_cur, f_pre, f_cur = a, b, f_a, f_b
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(100):
        if f_pre != 0.0 and f_cur != 0.0 and (
            math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur)
        ):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0 else -delta
        f_cur = f(x_cur)
    raise RuntimeError(f"Brent's method did not converge (last x = {x_cur!r})")


def essential_edges_bulk(
    frame: EdgeFrame,
    potential: FourierField,
    perturbation: FourierField | None,
    zeta: float,
    delta: float,
    basis: PlaneWaveBasis,
    j_star: int,
    *,
    tau_samples: int = 160,
    allow_closed: bool = False,
    closed_tol: float = 1e-9,
) -> BulkEdges:
    """Gap edges of the strip's essential spectrum at edge phase zeta.

    Far from the wall the strip looks like one of the two homogeneous bulk
    operators (coupling +delta on one side, -delta on the other), so the
    essential spectrum is the union of their zeta-slice band ranges.  With
    V real and even and the perturbation (W, or the magnetic A) real and
    odd, V's coefficient table is real and the perturbation's imaginary, so
    conj H(xi, +delta) = H(xi, -delta): the two plateaus have the same
    spectrum at every xi, and one scan at +delta gives the edges of both.
    The tables are checked for that, to rounding (``CONJUGATION_TOL``
    relative), and a field without it raises ValueError naming the field
    and its residual.

    The gap between bands ``j_star`` and ``j_star + 1`` (1-based, matching
    the cone certificate) runs from the top of the lower band to the bottom
    of the upper one over the transverse phase tau.  Each extremum is
    located on the sample grid, whose columns (tau, lo, hi) are kept as
    ``samples``, and refined as the zero of its Hellmann-Feynman slope
    (``_fiber_pair``) by Brent's search (``_brentq``) on the bracket of the
    two neighbouring samples, whose slopes the scan already has; the band
    is 2 pi-periodic in tau, so the neighbours wrap around.  The tables of V
    and the perturbation are built once per call (``fiber_tables``), not
    once per fiber.
    """
    if tau_samples < 128:
        raise ValueError("tau_samples must be at least 128")
    taus = np.linspace(0.0, TWO_PI, tau_samples, endpoint=False)
    width = TWO_PI / tau_samples
    tables = fiber_tables(potential, basis, perturbation if delta != 0.0 else None)
    v_table, w_table = tables
    if w_table is not None:
        for name, kind, stray, table in (
            ("V", "imaginary", v_table.imag, v_table),
            ("perturbation", "real", w_table.real, w_table),
        ):
            if np.abs(stray).max() > CONJUGATION_TOL * np.abs(table).max():
                residual = np.abs(stray).max() / np.abs(table).max()
                raise ValueError(
                    f"the {name} coefficient table has a {kind} part of "
                    f"{residual:.3e} relative: the -delta plateau is not the "
                    "conjugate of the +delta one"
                )
    # a magnetic term's tau-derivative, 2 delta A-hat.k', is constant in tau
    magnetic = w_table is not None and w_table.ndim == 3
    d_tau = 2.0 * delta * (w_table @ frame.kp) if magnetic else 0.0

    def fiber(tau):
        return _fiber_pair(tables, frame, zeta, tau, delta, basis, j_star, d_tau)

    scan = [fiber(tau) for tau in taus]
    values = np.array([vals for vals, _ in scan])
    slopes = np.array([slope for _, slope in scan])

    def refine(band: int, i: int) -> float:
        left, right = (i - 1) % tau_samples, (i + 1) % tau_samples
        a, b = taus[i] - width, taus[i] + width
        s_a, s_b = slopes[left, band], slopes[right, band]
        if s_a * s_b > 0.0:
            raise RuntimeError(
                f"band {j_star + band} has slope {s_a:.3e} and {s_b:.3e} on both sides "
                f"of its sampled extremum at tau = {taus[i]:.6f}: raise tau_samples"
            )
        seen = {a: values[left, band], b: values[right, band]}

        def slope(tau: float) -> float:
            vals, slopes_at = fiber(tau)
            seen[tau] = vals[band]
            return slopes_at[band]

        return float(seen[_brentq(slope, a, b, s_a, s_b, 1e-10)])

    lower = refine(0, int(np.argmax(values[:, 0])))
    upper = refine(1, int(np.argmin(values[:, 1])))
    closed = (upper - lower) <= closed_tol * max(1.0, abs(upper), abs(lower))
    if closed and not allow_closed:
        raise GapClosed(
            f"bulk gap closed at zeta = {zeta:.6f}, delta = {delta:.4g} "
            f"(edges {lower:.9f} / {upper:.9f})"
        )
    return BulkEdges(
        zeta=float(zeta),
        delta=float(delta),
        lower=lower,
        upper=upper,
        per_sign={"+": (lower, upper), "-": (lower, upper)},
        samples=np.column_stack([taus, values]),
        closed=bool(closed),
    )


def gap_window(
    edges: BulkEdges,
    decay_speed: float,
    half_width: float,
    wall_halfwidth: float,
    delta: float,
) -> tuple[float, float] | None:
    """Energy window inside the gap whose states the finite box can certify.

    A state at energy E in the gap decays past the wall like
    ``exp(-sqrt(H^2 - (H - d)^2) / decay_speed * |t_slow|)`` where H is the
    half-gap and d the distance to the nearer edge, both in slow (per-delta)
    units.  Requiring boundary mass below ``BOUNDARY_MASS_TOL``, the bound
    ``gap_eigenpairs`` screens states with, over the tail from the wall to
    ``BOUNDARY_FRACTION`` of the box half-width gives a minimum edge
    distance d_min; the window pulls in ``WINDOW_MARGIN`` times that,
    falling back to the smaller ``WINDOW_FALLBACK``; a gap too tight for
    both gives no window, with a GapTooTightWarning.  An open gap the box is
    too short for (no tail past the wall, or a required rate R at least the
    half-gap H) also gives no window, with a BoxTooShortWarning.  A closed
    gap or delta <= 0 gives no window and no warning.
    """
    if edges.closed or edges.gap <= 0:
        return None
    if delta <= 0:
        return None
    tail_slow = BOUNDARY_FRACTION * half_width * delta - wall_halfwidth
    if tail_slow <= 0:
        warnings.warn(
            BoxTooShortWarning(edges.zeta, tail_slow, np.inf, 0.5 * edges.gap / delta)
        )
        return None
    r_req = np.log(1.0 / BOUNDARY_MASS_TOL) / (2.0 * tail_slow)
    R = r_req * decay_speed
    center = edges.center
    d_min = {}
    for side, edge in (("lower", edges.lower), ("upper", edges.upper)):
        H = abs(edge - center) / delta
        if R >= H:
            warnings.warn(BoxTooShortWarning(edges.zeta, tail_slow, R, H))
            return None
        d_min[side] = H - np.sqrt(H * H - R * R)
    for factor in (WINDOW_MARGIN, WINDOW_FALLBACK):
        lo = edges.lower + factor * d_min["lower"] * delta
        hi = edges.upper - factor * d_min["upper"] * delta
        if lo < hi:
            return (float(lo), float(hi))
    d_pair = (d_min["lower"], d_min["upper"])
    warnings.warn(GapTooTightWarning(edges.zeta, edges.gap, d_pair, WINDOW_FALLBACK))
    return None


# ---------------------------------------------------------------------------
# interior eigenpairs


@dataclass
class EdgeSpectrum:
    """Certified in-gap eigenpairs of one strip assembly.

    ``thetas`` are the reduced-ladder eigenvalues in the window, in theta =
    (E - E*) / delta, that seeded the states (sorted; empty when no ladder
    was counted); ``compare_with_dirac`` predicts the strip energies from
    them.
    """

    zeta: float
    delta: float
    mu: float  # (zeta - zeta_star) / delta for the targeted cone; nan if unset
    values: np.ndarray
    vectors: np.ndarray | None  # (dim, n) columns, unit norm
    localization: np.ndarray  # mass within |t| <= T/2
    boundary_mass: np.ndarray  # mass in the outer 10% of the box
    smooth_fraction: np.ndarray  # envelope Fourier mass below the mirror cut
    window: tuple[float, float] | None
    edges: BulkEdges
    diagnostics: dict = dc_field(default_factory=dict)
    grid: StripGrid | None = None  # strip geometry, kept for profile sampling
    thetas: np.ndarray = dc_field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.values)


def _empty_spectrum(op, window, edges, mu, note, extra=None) -> EdgeSpectrum:
    diag = dict(extra) if extra else {}
    diag["note"] = note
    return EdgeSpectrum(
        zeta=op.grid.zeta,
        delta=op.grid.delta,
        mu=mu,
        values=np.empty(0),
        vectors=None,
        localization=np.empty(0),
        boundary_mass=np.empty(0),
        smooth_fraction=np.empty(0),
        window=window,
        edges=edges,
        diagnostics=diag,
        grid=op.grid,
    )


def gap_eigenpairs(
    op: StripOperator,
    window: tuple[float, float] | None,
    edges: BulkEdges,
    seeds: list,
    *,
    mu: float = np.nan,
) -> EdgeSpectrum:
    """All certified eigenpairs of the strip inside the given energy window.

    ``seeds`` are unit strip vectors, one per state of the reduced ladder in
    the window (``solve_edge_channel`` lifts them with
    ``quasimode.lift_order0``).  The window is counted first: ``count =
    nu(hi) - nu(lo)`` from two inertia counts (``blocktri.half_inertia``) is
    the exact number of strip eigenvalues in it.  Every state comes with its
    zone-edge mirror, so the count must be twice the number of seeds; any
    other count raises CountMismatch with both numbers, and a window that
    counts none returns without factoring.  Each seed is then refined by
    inverse iteration with its own factor at its Rayleigh quotient
    (``blocktri.inverse_iteration``): with one factor shared at the window
    centre, the side states of the amp-15 ladder stall near 4e-3 and then
    fall onto the midgap state, the one nearest that shift.  The mirrors
    are counted, never solved for.

    Every factorization builds its blocks from the strip's Kronecker terms;
    the half table (``blocktri.half_table``: the left half's node pairs,
    the separator's block and its coupling, with the terms' mirror symmetry
    checked to ``CONJUGATION_TOL``) is read once per call, and no step here
    forms, slices or multiplies the CSC strip.  The two counts and each
    seed's factor walk the left half run by run, reduce its plateau run by
    block cyclic reduction and close the separator with one dense factor;
    the right half is the left one's conjugate mirror.  The Rayleigh
    quotients and residuals apply the terms (``strip.kron_apply``).  The
    diagnostics record ``inertia_sweeps`` (2 for the count, plus one factor
    per seed), ``count_factorizations`` and ``factor_factorizations`` (the
    block factorizations of one count and of one seed's factor),
    ``separator_rows`` (the rows of the separator's block),
    ``block_solves`` (applications of the shift-invert solves), ``shifts``
    (one Rayleigh quotient per seed), ``seed_overlaps`` (|<seed, state>|^2
    per seed: a seed with the wrong reduced model can still reach its state
    from rounding noise, but not with a large overlap) and ``factor_values``
    (values one factor keeps, ``blocktri.half_solve``).  On the base channel
    that is 3 half walks of 74 factorizations each where a walk of the whole
    strip takes 147 (and a per-pair sweep 438), 165 separator rows,
    638,165 values kept where a factor of the whole strip keeps 1,250,425,
    and 3 block solves.

    A refined state is kept when its relative residual is at most
    ``RESIDUAL_TOL``, its energy lies in the window and at most
    ``BOUNDARY_MASS_TOL`` of its mass is in the outer 10% of the box; the
    others are counted in ``dropped``.  ``smooth_fraction`` records each
    kept state's envelope Fourier mass below the mirror cut.
    """
    if window is None:
        return _empty_spectrum(op, None, edges, mu, "empty window, no solve")
    lo, hi = window
    if not lo < hi:
        return _empty_spectrum(op, window, edges, mu, "degenerate window, no solve")

    terms, half = op.terms, half_table(op.terms, CONJUGATION_TOL)
    n_t, n_fast = op.grid.n_t, op.grid.n_fast
    (nu_lo, factorizations), (nu_hi, _) = half_inertia(half, lo), half_inertia(half, hi)
    count = nu_hi - nu_lo
    diagnostics: dict = {
        "inertia": (nu_lo, nu_hi),
        "count": count,
        "seeds": len(seeds),
        "shifts": (),
        "seed_overlaps": (),
        "inertia_sweeps": 2,
        "count_factorizations": factorizations,
        "block_solves": 0,
        "factor_values": 0,
        "factor_factorizations": 0,
        "separator_rows": len(half.separator),
    }
    if count != 2 * len(seeds):
        raise CountMismatch(
            f"inertia counts {count} strip eigenvalues in [{lo:.6f}, {hi:.6f}] "
            f"but the reduced ladder seeds {len(seeds)} states, "
            f"{2 * len(seeds)} with their mirrors (zeta = {op.grid.zeta:.6f})",
            count=count,
            found=2 * len(seeds),
        )
    if count == 0:
        return _empty_spectrum(op, window, edges, mu, "no states in window", diagnostics)

    def apply(x: np.ndarray) -> np.ndarray:
        return kron_apply(terms, x.reshape(n_t, n_fast)).ravel()

    values, vectors, loc, bnd, smooth = [], [], [], [], []
    dropped = {"boundary": 0, "residual": 0, "window": 0}
    max_residual = 0.0
    for seed in seeds:
        w, e, res, shift, solves, kept, made = inverse_iteration(half, apply, seed)
        diagnostics["shifts"] += (shift,)
        diagnostics["seed_overlaps"] += (state_overlap(seed, w),)
        diagnostics["inertia_sweeps"] += 1
        diagnostics["block_solves"] += solves
        diagnostics["factor_values"] = kept
        diagnostics["factor_factorizations"] = made
        max_residual = max(max_residual, res)
        if res > RESIDUAL_TOL * max(1.0, abs(e)):
            dropped["residual"] += 1
            continue
        if not (lo <= e <= hi):
            dropped["window"] += 1
            continue
        inner, outer = mass_fractions(w, op.grid)
        if outer > BOUNDARY_MASS_TOL:
            dropped["boundary"] += 1
            continue
        values.append(e)
        vectors.append(w)
        loc.append(inner)
        bnd.append(outer)
        smooth.append(envelope_band_fraction(w, op.grid))

    diagnostics["dropped"] = dropped
    diagnostics["max_residual"] = max_residual
    order = np.argsort(values)
    values = np.asarray(values)[order]
    mat = np.stack([vectors[i] for i in order], axis=1) if len(values) else None
    return EdgeSpectrum(
        zeta=op.grid.zeta,
        delta=op.grid.delta,
        mu=mu,
        values=values,
        vectors=mat,
        localization=np.asarray(loc)[order] if len(values) else np.empty(0),
        boundary_mass=np.asarray(bnd)[order] if len(values) else np.empty(0),
        smooth_fraction=np.asarray(smooth)[order] if len(values) else np.empty(0),
        window=window,
        edges=edges,
        diagnostics=diagnostics,
        grid=op.grid,
    )


# ---------------------------------------------------------------------------
# comparison against the reduced 1D operator


@dataclass(frozen=True)
class DiracComparison:
    """Pairing of strip in-gap energies with reduced-operator predictions.

    Predictions are E_star + delta * theta_j with theta_j the reduced in-gap
    eigenvalues at the matching envelope detuning mu, the ones the strip
    solve counted in its window and seeded its states from; residuals are
    the per-state absolute differences after sorting both lists.
    """

    zeta: float
    delta: float
    mu: float
    measured: np.ndarray
    predicted: np.ndarray
    thetas: np.ndarray
    residuals: np.ndarray

    @property
    def count(self) -> int:
        return len(self.measured)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if len(self.residuals) else 0.0


def compare_with_dirac(
    spectrum: EdgeSpectrum,
    params,
    e_star: float,
) -> DiracComparison:
    """Match a strip in-gap spectrum against the reduced operator's ladder.

    The ladder is the one ``solve_edge_channel`` counted and refined in the
    strip's certified window, in theta = (E - E*) / delta, on the strip's
    own box; the spectrum carries its roots as ``thetas``, and nothing is
    integrated here.
    ``params`` bundles the reduced-operator coefficients and must carry the
    detuning mu = spectrum.mu.  The thetas are rescaled to strip energies
    E* + delta * theta and compared state by state; a kept state count that
    differs from the ladder's (a seed refined to a state the screens
    dropped) raises CountMismatch.  The independent route, the whole ladder
    on the box |t| <= 30 (``gap_spectrum``), gives the same thetas to
    1e-12 on the tested channels.
    """
    if spectrum.window is None:
        raise ValueError("strip spectrum has no certified window to compare on")
    if not np.isfinite(spectrum.mu):
        raise ValueError("strip spectrum carries no detuning label mu")
    if abs(params.mu - spectrum.mu) > 1e-12 * max(1.0, abs(spectrum.mu)):
        raise ValueError(
            f"reduced-operator detuning {params.mu} does not match the strip's "
            f"{spectrum.mu}"
        )
    thetas = spectrum.thetas
    if len(thetas) != len(spectrum.values):
        lo, hi = spectrum.window
        raise CountMismatch(
            f"strip kept {len(spectrum.values)} in-gap states in "
            f"[{lo:.6f}, {hi:.6f}] but the reduced ladder has "
            f"{len(thetas)} (zeta = {spectrum.zeta:.6f}, delta = {spectrum.delta})",
            count=len(thetas),
            found=len(spectrum.values),
        )
    predicted = e_star + spectrum.delta * thetas
    measured = np.sort(spectrum.values)
    return DiracComparison(
        zeta=spectrum.zeta,
        delta=spectrum.delta,
        mu=spectrum.mu,
        measured=measured,
        predicted=predicted,
        thetas=thetas,
        residuals=np.abs(measured - predicted),
    )


# ---------------------------------------------------------------------------
# one-call driver: edges -> assembly -> window -> certified eigenpairs


def assemble_strip(*args, **kwargs) -> StripOperator:
    """``strip.strip_terms`` under the name the benchmark's tracer wraps.

    ``bench/tracer.py`` wraps this name by object identity in every
    ``artifact`` module, and its observer sums ``op.matrix`` of whatever the
    name returns.  The channel solve calls it so the traced strip is the
    channel's; the residual study calls ``strip_terms`` itself, since a
    traced ``quasimode_study`` would otherwise build CSC matrices of the
    delta = 0.02 strip (dim 382,585).  To be deleted with ``seed=`` and
    ``ribbon.spla`` when the benchmark stops wrapping it.
    """
    return strip_terms(*args, **kwargs)


def solve_edge_channel(
    frame: EdgeFrame,
    potential: FourierField,
    wall,
    zeta: float,
    delta: float,
    basis: PlaneWaveBasis,
    j_star: int,
    decay_speed: float,
    *,
    perturbation: FourierField | None = None,
    step: float = 0.5,
    t_factor: float = 8.0,
    seed: int = 20250818,
    flip_wall: bool = False,
    tau_ref: float | None = None,
) -> EdgeSpectrum:
    """Run the full per-momentum pipeline and return the certified spectrum.

    Labels the result with the envelope detuning mu = (wrapped distance to the
    nearest conical momentum) / delta.  ``decay_speed`` is the transverse group
    speed of the reduced operator (used to convert decay lengths into window
    margins); pass ``params.speed_t``.  ``seed`` is accepted and not read:
    nothing in the solve is random.

    The strip states are seeded from the reduced model, which is derived here
    from the inputs: the nearest cone (``find_dirac_point``), its velocity
    nu*, the wall's mass on it (negated for ``flip_wall``, as the wall
    profile is odd) and ``params_from_frames`` at mu.  The Prufer ladder is
    counted once, in the strip window's theta range, (E - E*) / delta, on
    the strip's own box (``window_spectrum``).  Each of its states' order-0
    quasimode, the cone pair times the envelope of ``ladder_pair`` (the
    closed-form ``zero_mode_pair`` for the zero mode), is lifted onto the
    strip grid (``quasimode.lift_order0``) as the seed of ``gap_eigenpairs``,
    and its eigenvalues are kept as the spectrum's ``thetas``, which
    ``compare_with_dirac`` reads.
    """
    which, dz = nearest_cone(frame, zeta)
    mu = dz / delta if delta > 0 else np.nan
    edges = essential_edges_bulk(
        frame, potential, perturbation, zeta, delta, basis, j_star
    )
    op = assemble_strip(
        frame, potential, wall, zeta, delta, basis,
        perturbation=perturbation, step=step, t_factor=t_factor,
        tau_ref=tau_ref, flip_wall=flip_wall,
    )
    window = gap_window(
        edges, decay_speed, op.grid.half_width, wall.plateau_halfwidth, delta
    )
    seeds, thetas = [], np.empty(0)
    if window is not None:
        cone = find_dirac_point(potential, which, basis)
        compute_nu_star(cone, basis, linearity_tol=NU_LINEARITY_TOL)
        mass = compute_mass(cone, basis, perturbation)
        params = params_from_frames(
            cone, frame, -mass if flip_wall else mass, wall, mu=mu
        )
        bounds = tuple((e - cone.E_star) / delta for e in window)
        ladder = window_spectrum(params, delta * op.grid.half_width, bounds)
        thetas = ladder.eigenvalues
        center = int(np.argmin(np.abs(thetas))) if len(thetas) else 0
        seeds = [
            lift_order0(cone, frame, basis, ladder_pair(ladder, j - center), op.grid)
            for j in range(len(thetas))
        ]
    spectrum = gap_eigenpairs(op, window, edges, seeds, mu=mu)
    return dc_replace(spectrum, thetas=thetas)
