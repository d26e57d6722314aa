"""Two-scale quasimodes for the wall strip.

A gapped cone plus a slowly varying domain wall carries edge channels whose
strip eigenvectors are, to leading order, a product of the degenerate cone
pair and an envelope that solves the reduced two-by-two wall operator.  This
module builds those products explicitly, as one series in delta
(``ansatz_series``): sample the envelope eigenpair on the strip's
transverse nodes and attach the fast cone eigenvectors (order 0); add the
transverse corrector V1 that solves the order-delta equation on the
orthogonal complement of the cone pair (order 1); add the envelope
correction beta, the next energy coefficient a2 and the second transverse
corrector V2 (order 2).  Each order appends (order, power) entries to the
series, a term entering times delta**power, and buys one more power of
delta in the residual.  The ansatz at an order is the series cut there
(``AnsatzSeries.cut``), so the pieces of a higher order serve every lower
one:

    order   terms (power)           energy (power)      residual
    0       phi alpha (0)           E* (0), theta (1)   ~ delta
    1       + V1 (1)                                    ~ delta^2
    2       + phi beta (1), V2 (2)  + a2 (2)            ~ delta^3

``lift_order0`` samples the bare product from the cone data alone, with no
workspace, so it serves any cutoff and the magnetic wall; the strip solver
seeds each edge state with it.

The fast part of every corrector is the deflated resolvent applied to a few
fixed fiber vectors, and only the slow envelope coefficients vary along t.
So every fast field is kept factored (``FastField``): an (M, r) basis of
fiber columns times (r, n) coefficients, one column per transverse node.
The bracket of the order-delta equation maps a field of rank r to one of
rank about 3r, and the W product and the complement solve act on the basis
alone.  The ranks do not depend on n or delta: the first corrector has 6,
D_t of it 8, the second corrector 28 and the order-2 field 38.  Only
``_strip_vector`` forms an array of the strip's size, the sampled vector.

The transverse corrector solves, per transverse node, a linear system in the
fast plane-wave fiber restricted to the complement of the pair.  Solvability
of that restriction is exactly the statement that (theta, alpha) is an
eigenpair of the reduced operator, so the projection of the right-hand side
onto the pair is a direct consistency meter between the extracted
coefficients (nu*, mass, theta) and the fiber itself; it is gated at
``SOLVABILITY_TOL``.  The gate is honest: at fast cutoff 4 the truncation
split of the pair (2.2e-5) leaves a projection of 1.6e-6, so quasimode work
needs cutoff >= 5, where the split is 5.4e-8 and the projection drops below
1e-9.

The envelope pair (theta, alpha) and the envelope correction beta belong to
the reduced wall operator and come from ``wall_dirac``: a pair is the
closed-form ``zero_mode_pair`` (mu = 0, center branch) or the Prufer
ladder's ``ladder_pair``, with ``shooting_pair`` as the independent
reference, and beta is its deflated solve ``envelope_correction``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .bloch import PlaneWaveBasis, assemble_fiber, convolution_matrix
from .dirac_cone import DiracPointData
from .geometry import TWO_PI, EdgeFrame
from .potentials import DomainWall, FourierField
from .strip import StripGrid, kron_apply, strip_terms
from .wall_dirac import EnvelopePair, envelope_correction
from .wall_dirac import (  # noqa: F401  bench/ calls and wraps these here
    ladder_pair,
    shooting_pair,
    zero_mode_pair,
)

# Largest pair projection of the order-delta right-hand side the correctors
# accept.
SOLVABILITY_TOL = 1e-8

# quasimode_workspace deflates the cone pair within DEFLATION_TOL, relative
# to the magnitude scale of the low bands: the cone certificate's default
# degeneracy tolerance.
DEFLATION_TOL = 1e-6

# residual_orders warns when the envelope at the box ends exceeds this
# fraction of an order's residual: the Dirichlet cut then sets a floor under
# the residual, and the fitted exponent stops measuring the order.
EDGE_FLOOR_RATIO = 0.1


class SolvabilityViolation(RuntimeError):
    """Projected right-hand side of the complement solve is too large.

    The projection of the order-delta right-hand side onto the cone pair
    vanishes exactly when (theta, alpha) solves the reduced eigenproblem
    with coefficients consistent with the fiber.  A large projection means
    the coefficients upstream (nu*, mass, theta, or the envelope itself)
    do not match the fiber at the requested tolerance.
    """


class TruncationFloorWarning(UserWarning):
    """The box cuts the envelope off above what an ansatz order resolves.

    Carries ``delta``, the ansatz ``order``, its ``residual`` and the
    ``edge_value`` |alpha| at the outermost strip nodes, which exceeded
    ``EDGE_FLOOR_RATIO`` times that residual.
    """

    def __init__(self, delta: float, order: int, residual: float, edge_value: float):
        super().__init__(
            f"envelope edge value {edge_value:.3g} at delta = {delta:g} exceeds "
            f"{EDGE_FLOOR_RATIO:g} x the order-{order} residual {residual:.3g}: "
            "the box truncation floors the residual; raise t_factor"
        )
        self.delta = delta
        self.order = order
        self.residual = residual
        self.edge_value = edge_value


# ---------------------------------------------------------------------------
# workspace: fiber eigendecomposition at the cone momentum, shared read-only


@dataclass
class QuasimodeWorkspace:
    """Everything the correctors need from the fast fiber, computed once.

    The fiber eigendecomposition, the deflated pseudo-inverse pieces, the
    frame projections of the plane-wave momenta, and the perturbation's
    convolution matrix are all independent of delta and of the envelope, so
    one workspace serves a whole residual study.
    """

    data: DiracPointData
    frame: EdgeFrame
    potential: FourierField
    wall: DomainWall
    perturbation: FourierField
    basis: PlaneWaveBasis
    phi: np.ndarray  # (M, 2) cone pair, columns
    d_kp: np.ndarray  # (M,) (xi* + 2 pi q) . kp
    d_ell: np.ndarray  # (M,) (xi* + 2 pi q) . ell
    conv_w: np.ndarray  # (M, M) perturbation convolution
    kp_sq: float
    ell_sq: float
    comp_vecs: np.ndarray  # (M, M-2) complement eigenvectors
    comp_vals: np.ndarray  # (M-2,) their eigenvalues
    deflation_split: float
    deflation_threshold: float

    @property
    def e_star(self) -> float:
        return self.data.E_star

    @property
    def zeta_star(self) -> float:
        return self.frame.zeta_star(self.data.which)

    def complement_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the deflated pseudo-inverse of (P0 - E*) columnwise."""
        co = self.comp_vecs.conj().T @ rhs
        return self.comp_vecs @ (co / (self.comp_vals - self.e_star)[:, None])

    def pair_projection(self, rhs: np.ndarray) -> np.ndarray:
        """(2, k) projection of k fiber columns onto the cone pair."""
        return self.phi.conj().T @ rhs


def quasimode_workspace(
    data: DiracPointData,
    frame: EdgeFrame,
    potential: FourierField,
    wall: DomainWall,
    perturbation: FourierField,
    basis: PlaneWaveBasis,
) -> QuasimodeWorkspace:
    """Diagonalize the unperturbed fiber at the cone and deflate the pair.

    Exactly two eigenvalues must sit inside the ``DEFLATION_TOL`` threshold
    around E*, and the next one must be far outside it.

    The fiber and the momenta are taken at ``frame.xi_of(zeta*, tau*)``,
    with both phases wrapped into [0, 2 pi), while the cone pair's
    coefficients sit on the ball around ``data.xi_star``.  The two differ by
    2 pi S for a dual-lattice vector S: 0 on the (1, 0) edge, but (-1, 0) on
    (0, 1) and (1, 1) and (-1, 1) on (2, 1).  The pair would then be read on
    a translated ball, so a nonzero S raises a ValueError that names the
    edge, the cone and S.
    """
    if data.nu_star is None:
        raise ValueError("cone velocity not computed yet")
    if perturbation.is_vector:
        raise ValueError(
            "quasimode construction supports scalar gap-opening perturbations only"
        )
    xi_star = frame.xi_of(frame.zeta_star(data.which), frame.tau_star(data.which))
    shift = np.rint(frame.lattice.dual_coords(xi_star - data.xi_star)).astype(int)
    if np.any(shift != 0):
        raise ValueError(
            f"edge ({frame.a1}, {frame.a2}), cone {data.which}: the wrapped "
            f"momentum xi_of(zeta*, tau*) is xi* + 2 pi S with S = "
            f"({shift[0]}, {shift[1]}), so the cone pair's coefficients would be "
            "read on a translated plane-wave ball"
        )
    fiber = assemble_fiber(xi_star, 0.0, potential, basis)
    vals, vecs = np.linalg.eigh(fiber.matrix)

    low = vals[: max(data.j_star + 4, 8)]
    scale = max(abs(low[0]), abs(low[-1]), 1.0)
    threshold = DEFLATION_TOL * scale
    order = np.argsort(np.abs(vals - data.E_star))
    split = float(abs(vals[order[1]] - vals[order[0]]))
    if split > threshold:
        raise ValueError(
            f"cone pair split {split:.3e} exceeds the deflation threshold "
            f"{threshold:.3e}; raise the fast cutoff"
        )
    third = float(abs(vals[order[2]] - data.E_star))
    if third < 1e3 * threshold:
        raise ValueError(
            f"third eigenvalue only {third:.3e} from E*; deflation is ambiguous"
        )
    keep = np.setdiff1d(np.arange(len(vals)), order[:2])

    duals = xi_star[None, :] + TWO_PI * basis.duals
    return QuasimodeWorkspace(
        data=data,
        frame=frame,
        potential=potential,
        wall=wall,
        perturbation=perturbation,
        basis=basis,
        phi=np.stack([data.phi1, data.phi2], axis=1),
        d_kp=duals @ frame.kp,
        d_ell=duals @ frame.ell,
        conv_w=convolution_matrix(perturbation, basis),
        kp_sq=float(frame.kp @ frame.kp),
        ell_sq=float(frame.ell @ frame.ell),
        comp_vecs=vecs[:, keep],
        comp_vals=vals[keep],
        deflation_split=split,
        deflation_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# factored fast fields and the order-delta bracket


class FastField(NamedTuple):
    """A fast-fiber field per transverse node, kept factored: ``basis @ coeffs``.

    ``basis`` is (M, r) fiber columns and ``coeffs`` (r, n) slow coefficients,
    one column per node.  The rank r depends on the ansatz order only, not on
    n or delta, so the W product and the complement solve act on the r basis
    columns where a dense (M, n) field would take n.
    """

    basis: np.ndarray
    coeffs: np.ndarray

    def scaled(self, factor: float) -> FastField:
        return FastField(self.basis, factor * self.coeffs)


def _stack(*fields: FastField) -> FastField:
    """The sum of factored fields, as one field of the summed rank."""
    return FastField(
        np.hstack([f.basis for f in fields]), np.vstack([f.coeffs for f in fields])
    )


def _order1_bracket(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    kap: np.ndarray,
    field: FastField,
    d_field: FastField,
) -> FastField:
    """[2 (kp.D) D_t + 2 mu (ell.D) + kappa W - theta] on a fast field per node.

    ``field`` is the factored field (U, C), ``d_field`` its D_t (U', C'), and
    ``kap`` the wall profile at the n nodes.  The result is factored too,
    columns [2 d_kp U' | 2 mu d_ell U - theta U | W U] on rows [C'; C; kappa C],
    of rank r' + 2 r.
    """
    u = field.basis
    return FastField(
        np.hstack([
            2.0 * ws.d_kp[:, None] * d_field.basis,
            2.0 * pair.mu * ws.d_ell[:, None] * u - pair.theta * u,
            ws.conv_w @ u,
        ]),
        np.vstack([d_field.coeffs, field.coeffs, kap[None, :] * field.coeffs]),
    )


def _deflated_corrector(ws: QuasimodeWorkspace, g: FastField) -> tuple:
    """-(P0 - E*)^+ g on the complement of the cone pair, and g's pair projection.

    Both act on the basis alone: the corrector keeps g's coefficients, and the
    (2, n) projection is (phi^H U) C.
    """
    on_pair = ws.pair_projection(g.basis)
    corrector = -ws.complement_solve(g.basis - ws.phi @ on_pair)
    return FastField(corrector, g.coeffs), on_pair @ g.coeffs


# ---------------------------------------------------------------------------
# the ansatz as one series in delta


@dataclass(frozen=True)
class AnsatzSeries:
    """The two-scale ansatz through one order, as a series in delta.

    ``terms`` are (order, power, field) entries in stacking order, each a
    factored fast field that enters times delta**power: phi alpha at (0, 0),
    the first transverse corrector V1 at (1, 1), the envelope correction
    phi beta at (2, 1) and the second corrector V2 at (2, 2).  ``energies``
    are (order, power, coefficient) entries the same way: E* at (0, 0),
    theta at (0, 1) and a2 at (2, 2).  A higher order only appends entries,
    so every lower order is cut from the same record by one rule (``cut``).

    ``diagnostics`` holds the solvability ``defect`` from order 1 on, and at
    order 2 ``a2_imag`` (the imaginary part dropped from a2),
    ``envelope_residual`` (the first-order equation checked on beta) and
    ``projection`` (the pair projection of the order-2 right-hand side).
    """

    alpha: np.ndarray  # (n, 2) envelope samples at the nodes
    terms: tuple  # (order, power, FastField) entries
    energies: tuple  # (order, power, coefficient) entries
    diagnostics: dict

    def cut(self, delta: float, order: int) -> tuple[float, FastField]:
        """Energy and factored field of the ansatz truncated at ``order``.

        Sums the entries of order at most ``order``, each scaled by
        delta**power.  The field's rank is 2, 8 and 38 at orders 0, 1 and 2.
        """
        built = self.terms[-1][0]
        if order > built:
            raise ValueError(f"series built through order {built}, cut at {order}")
        energy = sum(c * delta**p for o, p, c in self.energies if o <= order)
        field = _stack(*(f.scaled(delta**p) for o, p, f in self.terms if o <= order))
        return float(energy), field


def ansatz_series(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    ts: np.ndarray,
    order: int,
) -> AnsatzSeries:
    """The ansatz series through ``order`` on the slow transverse nodes ``ts``.

    The envelope is sampled once; alpha and D_t alpha serve every order.

    Order 1 solves (P0 - E*) V1 = -g per node on the complement of the cone
    pair, g the bracket of the order-0 field (phi, alpha^T), of rank 6 like
    V1.  The projection of g onto the pair is subtracted before the solve (it
    vanishes identically for an exact eigenpair); its pre-subtraction
    magnitude is the solvability ``defect`` and is gated at
    ``SOLVABILITY_TOL``.

    Order 2 assembles the order-delta^2 equation and solves both of its
    halves.  The pair projection fixes (a2, beta): a2 is the envelope average
    of the projected forcing and beta solves the deflated reduced operator
    against what remains (``wall_dirac.envelope_correction``, one banded
    solve).  The complement projection then yields V2 exactly as at order 1.
    Every fast field stays factored: D_t V1 has rank 8, the bracket on (V1,
    D_t V1) rank 20 and V2 rank 28.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    ts = np.asarray(ts, dtype=float)
    phi = ws.phi
    alpha = pair.alpha(ts)
    bare = FastField(phi, alpha.T)
    terms = [(0, 0, bare)]
    energies = [(0, 0, ws.e_star), (0, 1, pair.theta)]
    diagnostics = {}
    if order >= 1:
        d_alpha = pair.d_alpha(ts, alpha)
        kap = ws.wall(ts)
        g = _order1_bracket(ws, pair, kap, bare, FastField(phi, d_alpha.T))
        v1, projection = _deflated_corrector(ws, g)
        defect = float(np.abs(projection).max())
        if defect > SOLVABILITY_TOL:
            raise SolvabilityViolation(
                f"solvability projection {defect:.3e} exceeds {SOLVABILITY_TOL:.1e}; "
                "the reduced coefficients do not match the fiber (check the fast "
                "cutoff and the envelope eigenvalue accuracy)"
            )
        terms.append((1, 1, v1))
        diagnostics["defect"] = defect
    if order >= 2:
        d2_alpha = pair.d2_alpha(ts, alpha, d_alpha)
        d_kap_t = -1j * ws.wall.derivative(ts)
        h = float(ts[1] - ts[0])
        mu = pair.mu

        # D_t of the order-delta bracket, for D_t V1 via the shared
        # pseudo-inverse: the bracket on D_t of the field, plus D_t kappa
        # times W on the field
        d_g = _stack(
            _order1_bracket(
                ws, pair, kap, FastField(phi, d_alpha.T), FastField(phi, d2_alpha.T)
            ),
            FastField(ws.conv_w @ phi, d_kap_t[None, :] * alpha.T),
        )
        d_v1, _ = _deflated_corrector(ws, d_g)

        on_v1 = _order1_bracket(ws, pair, kap, v1, d_v1)
        curvature = ws.kp_sq * d2_alpha.T + mu**2 * ws.ell_sq * alpha.T
        forcing = ws.pair_projection(on_v1.basis) @ on_v1.coeffs + curvature  # (2, n)
        a2_complex = complex(np.sum(np.conj(alpha.T) * forcing) * h)
        a2 = float(a2_complex.real)

        rho = -(forcing.T - a2 * alpha)
        beta, d_beta, env_res = envelope_correction(pair, ts, rho, alpha)

        g2 = _stack(
            on_v1,
            _order1_bracket(
                ws, pair, kap, FastField(phi, beta.T), FastField(phi, d_beta.T)
            ),
            FastField(phi, curvature - a2 * alpha.T),
        )
        v2, projection = _deflated_corrector(ws, g2)
        terms += [(2, 1, FastField(phi, beta.T)), (2, 2, v2)]
        energies.append((2, 2, a2))
        diagnostics.update(
            a2_imag=abs(a2_complex.imag),
            envelope_residual=env_res,
            projection=float(np.abs(projection).max()),
        )
    return AnsatzSeries(alpha, tuple(terms), tuple(energies), diagnostics)


# ---------------------------------------------------------------------------
# the sampled ansatz


@dataclass
class QuasimodeAnsatz:
    """A two-scale quasimode sampled on one strip grid.

    ``vector`` is the unit-norm strip sample (t-major, matching the strip
    assembly) of ``series`` cut at ``order``; ``energy`` is E* + delta *
    theta, plus delta^2 * a2 at order 2.
    """

    delta: float
    mu: float
    theta: float
    order: int
    energy: float
    grid: StripGrid
    vector: np.ndarray
    series: AnsatzSeries
    diagnostics: dict = dc_field(default_factory=dict)


def effective_zeta(ws: QuasimodeWorkspace, delta: float, mu: float) -> float:
    """Edge Bloch phase carried by the detuned ansatz: zeta* + mu delta."""
    return float(ws.zeta_star + mu * delta * (ws.frame.ell @ ws.frame.v))


def leading_quasimode(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    grid: StripGrid,
    *,
    order: int = 1,
) -> QuasimodeAnsatz:
    """Sample the two-scale ansatz on a strip grid.

    order 0 is the bare envelope-times-pair product (residual ~ delta),
    order 1 adds the transverse corrector (~ delta^2, the default), and
    order 2 adds the envelope correction, the next energy coefficient, and
    the second transverse corrector (~ delta^3).  The series is built
    through ``order`` (``ansatz_series``) and cut there (``AnsatzSeries.cut``).

    Every fast field is kept factored as fiber columns times slow
    coefficients (``FastField``), of rank 2, 8 and 38 at orders 0, 1 and 2
    whatever the grid; only ``_strip_vector`` forms an array of the strip's
    size, the returned vector itself.

    delta is the grid's and mu the pair's.  The grid must sit at the
    detuned Bloch phase zeta* + mu delta, so the sample lives in the same
    discrete space as an edge solve at that phase.
    """
    delta, mu = grid.delta, pair.mu
    if delta <= 0:
        raise ValueError("delta must be positive")
    zeta_eff = effective_zeta(ws, delta, mu)
    if abs(grid.zeta - zeta_eff) > 1e-9:
        raise ValueError(
            f"grid.zeta = {grid.zeta:.9f} but the detuned ansatz needs "
            f"{zeta_eff:.9f}"
        )
    ts = delta * grid.t
    span = float(np.max(np.abs(ts)))
    if span > pair.box + 1e-9:
        raise ValueError(
            f"strip spans |t| <= {span:.2f} but the envelope was integrated "
            f"on |t| <= {pair.box:.2f}; rebuild the pair with a larger box"
        )

    series = ansatz_series(ws, pair, ts, order)
    energy, field = series.cut(delta, order)
    return QuasimodeAnsatz(
        delta=float(delta),
        mu=float(mu),
        theta=pair.theta,
        order=order,
        energy=energy,
        grid=grid,
        vector=_strip_vector(ws.frame, ws.data.which, grid, mu, field),
        series=series,
        diagnostics={
            "zeta_effective": zeta_eff,
            "envelope_edge_value": float(np.abs(series.alpha[[0, -1]]).max()),
        },
    )


def _cone_offset(frame: EdgeFrame, which: str, grid: StripGrid) -> float:
    """tau* - tau_ref wrapped into [-pi, pi): the cone's transverse phase on the grid.

    Unwrapped, a tau_ref a full turn from tau* (say -tau*(A) = tau*(B) - 2 pi)
    would give the envelope a momentum of 2 pi, which on a grid of step 0.5
    is the envelope zone edge pi / step, where the mirror channel lives.
    """
    return float((frame.tau_star(which) - grid.tau_ref + np.pi) % TWO_PI - np.pi)


def _strip_vector(
    frame: EdgeFrame, which: str, grid: StripGrid, mu: float, field: FastField
) -> np.ndarray:
    """Unit strip sample (t-major) of a factored fast-fiber field times the edge phase.

    The only place where an array of the strip's size is formed: the t-major
    sample is (C phase)^T U^T, written by one GEMM and normalized in place.
    """
    ell_vp = float(frame.ell @ frame.vp)
    offset = _cone_offset(frame, which, grid)
    phase = np.exp(1j * (offset + mu * grid.delta * ell_vp) * grid.t)
    vector = ((field.coeffs * phase[None, :]).T @ field.basis.T).ravel()
    vector /= np.linalg.norm(vector)
    return vector


def lift_order0(
    data: DiracPointData,
    frame: EdgeFrame,
    basis: PlaneWaveBasis,
    pair: EnvelopePair,
    grid: StripGrid,
) -> np.ndarray:
    """Unit strip sample of the order-0 quasimode: cone pair times envelope.

    ``data`` is the cone nearest the grid's edge phase and ``pair`` an
    envelope pair at the grid's detuning; no workspace is built.  The pair's
    coefficients sit on the ball around xi*, the strip's fast modes on the
    ball around xi_of(zeta, tau_ref).  With the wrapped offset of
    ``_cone_offset``, the cone momentum seen from the strip,
    xi_of(zeta - mu delta, tau_ref + offset), differs from xi* by a
    dual-lattice vector 2 pi S, so coefficient n moves to n - S; a mode moved
    out of the ball is dropped.
    """
    offset = _cone_offset(frame, data.which, grid)
    xi = frame.xi_of(grid.zeta - pair.mu * grid.delta, grid.tau_ref + offset)
    shift = np.rint(frame.lattice.dual_coords(xi - data.xi_star))
    moves = np.all(basis.indices[:, None] - shift == basis.indices[None, :], axis=2)
    cone_pair = moves.T @ np.stack([data.phi1, data.phi2], axis=1)
    field = FastField(cone_pair, pair.alpha(grid.delta * grid.t).T)
    return _strip_vector(frame, data.which, grid, pair.mu, field)


# ---------------------------------------------------------------------------
# residual study


def fit_power_law(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares exponent of y ~ x**a on log-log axes."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass
class ResidualStudy:
    """Residual norms of the sampled ansatz against the strip operators."""

    deltas: np.ndarray
    orders: tuple[int, ...]
    residuals: dict  # order -> array of residual norms, one per delta
    exponents: dict  # order -> fitted power of delta
    defects: np.ndarray  # solvability defect per delta, NaN below order 1
    edge_values: np.ndarray  # envelope |alpha| at the box ends, per delta
    energies: dict  # order -> array of ansatz energies
    mu: float
    theta: float


def residual_orders(
    ws: QuasimodeWorkspace,
    pair: EnvelopePair,
    deltas: tuple[float, ...] = (0.08, 0.04, 0.02),
    *,
    orders: tuple[int, ...] = (1, 2),
    t_factor: float = 4.5,
) -> ResidualStudy:
    """Measure ||(strip - E) u|| / ||u|| across delta for each ansatz order.

    One pass per delta: the strip operator (``strip_terms``, the builder
    the channel solve uses), whose grid the ansatz is sampled on and whose
    Kronecker terms ``kron_apply`` applies without forming the strip
    matrix, and one ``leading_quasimode`` at the highest requested order,
    whose ``ansatz_series`` samples the envelope once and solves each
    corrector once.  The lower orders are cut from the same series
    (``AnsatzSeries.cut``), so every order's vector is the one
    ``leading_quasimode`` builds at that order; the top order's is the
    ansatz's own.  The series' terms are factored fields of rank at most 38,
    and only ``_strip_vector`` forms a strip-sized array from them, so the
    ones alive at once are at most four: the top order's vector, the order's
    own, and the apply's output and fast product.  At delta = 0.02 (M = 85,
    n = 4,501) a vector is 6.1 MB and the study's traced peak 29 MB.  The
    fitted exponents should land near order + 1.

    ``defects`` holds the solvability defect of the first corrector per
    delta, or NaN at every delta when the top order is 0 and no corrector
    is solved.

    The envelope's value at the box ends is recorded per delta
    (``edge_values``).  Where it exceeds ``EDGE_FLOOR_RATIO`` times an
    order's residual, the box truncation, not the order, sets that residual,
    and a TruncationFloorWarning names the delta and order.
    """
    if len(deltas) < 2:
        raise ValueError("need at least two deltas to fit an exponent")
    mu = pair.mu
    residuals = {o: np.zeros(len(deltas)) for o in orders}
    energies = {o: np.zeros(len(deltas)) for o in orders}
    defects = np.zeros(len(deltas))
    edge_values = np.zeros(len(deltas))
    for i, delta in enumerate(deltas):
        zeta_eff = effective_zeta(ws, delta, mu)
        op = strip_terms(
            ws.frame, ws.potential, ws.wall, zeta_eff, delta, ws.basis,
            perturbation=ws.perturbation, t_factor=t_factor,
        )
        top = leading_quasimode(ws, pair, op.grid, order=max(orders))
        edge_values[i] = top.diagnostics["envelope_edge_value"]
        defects[i] = top.series.diagnostics.get("defect", np.nan)
        for o in sorted(orders):
            if o == top.order:
                energy, vector = top.energy, top.vector
            else:
                energy, field = top.series.cut(delta, o)
                vector = _strip_vector(ws.frame, ws.data.which, op.grid, mu, field)
            u = vector.reshape(op.grid.n_t, op.grid.n_fast)
            residual = kron_apply(op.terms, u)
            residual -= energy * u
            residuals[o][i] = float(np.linalg.norm(residual))
            del residual, vector, u  # before the next order's vector is made
            energies[o][i] = energy
            if edge_values[i] > EDGE_FLOOR_RATIO * residuals[o][i]:
                warnings.warn(
                    TruncationFloorWarning(delta, o, residuals[o][i], edge_values[i])
                )
        del top  # free this delta's vectors before the next, larger grid is sampled
    exponents = {
        o: float(fit_power_law(np.asarray(deltas), residuals[o])) for o in orders
    }
    return ResidualStudy(
        deltas=np.asarray(deltas, dtype=float),
        orders=tuple(sorted(orders)),
        residuals=residuals,
        exponents=exponents,
        defects=defects,
        edge_values=edge_values,
        energies=energies,
        mu=mu,
        theta=pair.theta,
    )
