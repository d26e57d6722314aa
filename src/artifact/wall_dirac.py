"""The emergent one-dimensional Dirac operator across the domain wall.

Near a gapped cone the edge problem reduces to a 2x2 first-order system on
the slow transverse variable t:

    H(mu) = M(kp) D_t + mu * M(ell) + mass * sigma3 * kappa(t),

with D_t = -i d/dt, M(c) = [[0, nu_star*c], [conj(nu_star*c), 0]] for the
frame vectors kp (transverse dual) and ell (Bloch line direction) read as
complex numbers, and kappa the domain wall.  The operator is discretized on
a uniform grid with a centered antisymmetric stencil and Dirichlet clamps,
which keeps it Hermitian by construction.

Frame orientation matters for the mu-linear branch: the slope of the
topological eigenvalue is nu_F*|ell| * sgn(mass) * orientation, where
orientation = sgn(Im(kp * conj(ell))) is the signed area of the frame pair.
The derivation is four lines of 2x2 algebra: the zero mode's spinor is the
eigenvector of i*m1*m3 with eigenvalue sgn(mass), and applying m2 to it
picks up exactly that orientation sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dirac_cone import DiracPointData
from .geometry import EdgeFrame
from .potentials import DomainWall


class GridTooCoarse(ValueError):
    """The grid cannot resolve the wall transition."""


class SpuriousModeWarning(UserWarning):
    """Eigenpairs rejected by the localization filter (box artifacts)."""


# gap_spectrum solver settings.  The Krylov count doubles from 32 until the
# converged values straddle the window or reach MAX_PAIRS.  Eigenvalues
# closer than CLUSTER_TOL form one cluster for the roughness rotation, and a
# rotated mode with roughness at or above ROUGHNESS_CUT is a grid doubler.
MAX_PAIRS = 128
CLUSTER_TOL = 1e-2
ROUGHNESS_CUT = 1.0


@dataclass(frozen=True)
class DiracParams:
    """Coefficients of the reduced operator, all in slow units."""

    nu_star: complex
    kp: complex
    ell: complex
    mass: float
    wall: DomainWall
    mu: float = 0.0

    def __post_init__(self) -> None:
        # the frame pair must be orthogonal; this is what decouples the
        # D_t term from the mu term in the 2x2 algebra
        inner = abs((self.kp * np.conj(self.ell)).real)
        scale = abs(self.kp) * abs(self.ell)
        if scale == 0 or inner > 1e-9 * scale:
            raise ValueError("kp and ell must be nonzero and orthogonal")
        if self.mass == 0:
            raise ValueError("mass must be nonzero (gapped cone)")

    @property
    def nu_f(self) -> float:
        return abs(self.nu_star)

    @property
    def gap_rate(self) -> float:
        """|mass| scaled speed along t: the essential half-gap at mu = 0."""
        return abs(self.mass)

    @property
    def speed_t(self) -> float:
        return self.nu_f * abs(self.kp)

    @property
    def speed_mu(self) -> float:
        return self.nu_f * abs(self.ell)

    @property
    def orientation(self) -> int:
        """Sign of the frame area Im(kp * conj(ell))."""
        return int(np.sign((self.kp * np.conj(self.ell)).imag))

    @property
    def decay_rate(self) -> float:
        """Zero-mode decay rate |mass| / (nu_F |kp|) on the plateaus."""
        return abs(self.mass) / self.speed_t

    def essential_edge(self, mu: float | None = None) -> float:
        m = self.mu if mu is None else mu
        return float(np.sqrt(self.mass**2 + (m * self.speed_mu) ** 2))

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m1, m2, m3): unit Hermitian coefficient matrices."""
        e1 = self.nu_star * self.kp / (self.nu_f * abs(self.kp))
        e2 = self.nu_star * self.ell / (self.nu_f * abs(self.ell))
        m1 = np.array([[0.0, e1], [np.conj(e1), 0.0]])
        m2 = np.array([[0.0, e2], [np.conj(e2), 0.0]])
        m3 = np.diag([1.0, -1.0]).astype(complex)
        return m1, m2, m3


def params_from_frames(
    data: DiracPointData,
    edge: EdgeFrame,
    mass: float,
    wall: DomainWall,
    mu: float = 0.0,
) -> DiracParams:
    """Bundle cone data and an edge frame into reduced-operator coefficients."""
    if data.nu_star is None:
        raise ValueError("cone velocity not computed yet")
    return DiracParams(
        nu_star=data.nu_star,
        kp=edge.kp_complex,
        ell=edge.ell_complex,
        mass=mass,
        wall=wall,
        mu=mu,
    )


@dataclass
class Dirac1DSpectrum:
    """In-gap spectrum of the discretized reduced operator."""

    params: DiracParams
    T: float
    N: int
    essential_edge: float
    window: tuple[float, float]
    eigenvalues: np.ndarray  # sorted, in-gap, accepted
    eigenvectors: np.ndarray  # (2N, len(eigenvalues)) grid-major (t outer)
    localization: np.ndarray
    rejected: list = field(default_factory=list)
    doubling_rejected: int = 0

    @property
    def min_spacing(self) -> float:
        if len(self.eigenvalues) < 2:
            return np.inf
        return float(np.min(np.diff(self.eigenvalues)))

    def grid(self) -> np.ndarray:
        return np.linspace(-self.T, self.T, self.N)


def _grid(T: float, N: int) -> tuple[np.ndarray, float]:
    t = np.linspace(-T, T, N)
    return t, float(t[1] - t[0])


def assemble_dirac(
    params: DiracParams,
    T: float,
    N: int,
    kappa_const: float | None = None,
    periodic: bool = False,
) -> sp.csr_matrix:
    """Sparse 2N x 2N Hermitian matrix of H(mu) on [-T, T].

    Grid-major layout: unknown (n, spinor) at row 2n + spinor.  kappa_const
    replaces the wall by a constant (the two asymptotic operators are the
    +1 / -1 specializations).  periodic wraps the stencil instead of
    clamping, which only makes sense for constant kappa; the wrapped grid
    contains the zero momentum exactly, so the measured band edge is free
    of the Dirichlet box shift.
    """
    L = params.wall.plateau_halfwidth
    if T < 4 * L:
        raise ValueError(f"need T >= 4L = {4 * L}, got {T}")
    if N < 1000:
        raise ValueError("need at least 1000 grid points")
    if periodic and kappa_const is None:
        raise ValueError("periodic wrap requires a constant kappa")
    t, h = _grid(T, N)
    if kappa_const is None:
        slope = float(np.max(np.abs(params.wall.derivative(t))))
        if h * slope > 0.1:
            raise GridTooCoarse(
                f"h*max|kappa'| = {h * slope:.3f} > 0.1; refine the grid"
            )
        kappa = params.wall(t)
    else:
        kappa = np.full(N, float(kappa_const))

    m1, m2, m3 = params.matrices()
    # D_t: centered antisymmetric stencil, Dirichlet clamp or periodic wrap
    ones = np.ones(N - 1)
    bands = [ones, -ones]
    offsets = [1, -1]
    if periodic:
        bands += [np.array([1.0]), np.array([-1.0])]
        offsets += [-(N - 1), N - 1]
    shift = sp.diags(bands, offsets=offsets, format="csr")
    d_t = (-1j / (2.0 * h)) * shift

    eye = sp.identity(N, format="csr")
    H = (
        sp.kron(d_t, params.speed_t * m1, format="csr")
        + sp.kron(eye, params.mu * params.speed_mu * m2, format="csr")
        + sp.kron(sp.diags(kappa), params.mass * m3, format="csr")
    )
    return H


def _roughness_split(
    vals: np.ndarray, vecs: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate quasi-degenerate clusters to separate grid-doubling partners.

    The centered first-order stencil carries the classic doubling artifact:
    every smooth bound state has a partner oscillating at the grid scale
    with a nearly equal eigenvalue, and the eigensolver returns arbitrary
    mixtures of the two.  The roughness form R[u] = sum |u_{n+1} - u_n|^2
    tells them apart (doubling partners sit near 4, smooth modes near h^2
    scales), so within each cluster we diagonalize R; the caller re-derives
    energies from Rayleigh quotients of the rotated vectors.
    """
    if len(vals) == 0:
        return vecs, np.zeros(0)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][-1]] < CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    out_vecs, out_rough = [], []
    for idx in clusters:
        # ARPACK does not orthonormalize within a degenerate cluster, so QR
        # first; otherwise the roughness Gram and the downstream Rayleigh
        # quotients silently pick up the basis distortion.
        span = np.linalg.qr(vecs[:, idx])[0]
        diffs = np.diff(span.reshape(N, 2, -1), axis=0).reshape(-1, len(idx))
        G = diffs.conj().T @ diffs
        rough_vals, rot = np.linalg.eigh(G)
        rotated = span @ rot
        for j in range(len(idx)):
            out_vecs.append(rotated[:, j])
            out_rough.append(float(rough_vals[j]))
    return np.column_stack(out_vecs), np.array(out_rough)


def _windowed_eigs(H, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Verified eigenpairs of a sparse Hermitian operator inside a window.

    Shift-invert Lanczos with the shift placed a hair off zero: the operator
    routinely has a numerically exact zero eigenvalue (the topological mode),
    and factoring H - 0 then hands ARPACK a singular solve whose garbage
    quietly contaminates every other eigenvector.  A small real shift keeps
    the factorization well conditioned; residuals are checked explicitly and
    the shift is nudged if a config ever lands an eigenvalue on top of it.
    """
    n = H.shape[0]
    # deterministic start vector: byte-identical reruns, and no accidental
    # symmetry alignment the way a constant vector would have
    v0 = np.random.default_rng(12345).standard_normal(n)
    sigma = 1e-4
    worst = None  # largest residual of the last converged attempt
    for attempt in range(4):
        k = 32
        try:
            while True:
                vals, vecs = spla.eigsh(H, k=k, sigma=sigma, which="LM", v0=v0)
                if (vals.min() < window[0] and vals.max() > window[1]) or k >= min(
                    n, MAX_PAIRS
                ):
                    break
                k = min(n, 2 * k)
        except (RuntimeError, spla.ArpackError):
            sigma *= 1.618
            continue
        inside = (vals > window[0]) & (vals < window[1])
        vals, vecs = vals[inside], vecs[:, inside]
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
        if len(vals) == 0 or residuals.max() < 1e-7 * max(1.0, np.abs(vals).max()):
            return vals, vecs
        worst = float(residuals.max())
        sigma *= 1.618
    detail = "no attempt converged" if worst is None else f"worst residual {worst:.2e}"
    raise RuntimeError(
        f"in-gap eigensolve failed to produce verified residuals after shift retries; {detail}"
    )


def gap_spectrum(
    params: DiracParams,
    T: float,
    N: int,
    localization_cut: float = 0.99,
) -> Dirac1DSpectrum:
    """All accepted smooth in-gap eigenpairs of the discretized operator.

    The window is the essential gap shrunk by a boundary margin 3/T.
    Grid-doubling partners are separated by a roughness rotation within
    quasi-degenerate clusters and dropped; modes failing the localization
    filter (mass fraction inside |t| <= 2L below the cut) are reported via
    SpuriousModeWarning and excluded.
    """
    H = assemble_dirac(params, T, N)
    t, _ = _grid(T, N)
    edge = params.essential_edge()
    margin = 3.0 / T
    window = (-edge + margin, edge - margin)
    if window[0] >= window[1]:
        raise ValueError("essential gap too small for the boundary margin")

    vals, vecs = _windowed_eigs(H, window)

    # unmix doubling partners cluster by cluster, then re-evaluate energies
    rotated, roughness = _roughness_split(vals, vecs, N)
    smooth = roughness < ROUGHNESS_CUT
    doubling_rejected = int(np.sum(~smooth))
    vecs = rotated[:, smooth]
    vals = np.array(
        [float(np.real(np.vdot(w, H @ w) / np.vdot(w, w))) for w in vecs.T]
    )
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    # localization: fraction of mass within twice the wall plateau
    L = params.wall.plateau_halfwidth
    weight = np.abs(vecs.reshape(N, 2, -1)) ** 2
    total = weight.sum(axis=(0, 1))
    core = weight[np.abs(t) <= 2 * L].sum(axis=(0, 1))
    score = core / np.maximum(total, 1e-300)

    keep = score >= localization_cut
    rejected = [(float(v), float(s)) for v, s in zip(vals[~keep], score[~keep])]
    if rejected:
        warnings.warn(
            f"rejected {len(rejected)} delocalized in-gap candidates: "
            + ", ".join(f"{v:+.4f}(score {s:.3f})" for v, s in rejected),
            SpuriousModeWarning,
            stacklevel=2,
        )
    return Dirac1DSpectrum(
        params=params,
        T=T,
        N=N,
        essential_edge=edge,
        window=window,
        eigenvalues=vals[keep],
        eigenvectors=vecs[:, keep],
        localization=score[keep],
        rejected=rejected,
        doubling_rejected=doubling_rejected,
    )


def measured_essential_edge(
    params: DiracParams, T: float, N: int, side: float = 1.0
) -> float:
    """Smallest |eigenvalue| of the constant-coefficient specialization.

    Uses the periodic wrap so the grid momenta include zero; a clamped box
    would shift the band bottom by the quantization offset ~(pi/2T)^2.
    """
    H = assemble_dirac(params, T, N, kappa_const=side, periodic=True)
    v0 = np.random.default_rng(12345).standard_normal(H.shape[0])
    # k must exceed the magnitude tie at the gap edges: the +/- band extremes
    # and the grid doubler give four inverse eigenvalues of equal modulus, and
    # asking for fewer than the tie stalls the iteration.
    vals = spla.eigsh(
        H, k=8, sigma=0.0, which="LM", v0=v0, return_eigenvectors=False,
        maxiter=2000,
    )
    return float(np.min(np.abs(vals)))


def analytic_zero_mode(params: DiracParams, t: np.ndarray) -> np.ndarray:
    """Closed-form zero mode of H(0), normalized on the grid.

    The spinor is the eigenvector of i*m1*m3 with eigenvalue sgn(mass); the
    profile is exp(-(|mass| / (nu_F |kp|)) * int_0^t kappa), which decays on
    both sides because the wall's antiderivative is even and grows linearly.
    """
    m1, _, m3 = params.matrices()
    s = float(np.sign(params.mass))
    op = 1j * (m1 @ m3)
    evals, evecs = np.linalg.eigh(op)
    idx = int(np.argmin(np.abs(evals - s)))
    if abs(evals[idx] - s) > 1e-12:
        raise ValueError("spinor eigenproblem did not produce a +/-1 pair")
    u0 = evecs[:, idx]
    profile = np.exp(-params.decay_rate * params.wall.antiderivative(t))
    mode = (profile[:, None] * u0[None, :]).reshape(-1)
    return mode / np.linalg.norm(mode)


def predict_mu_spectrum(
    base: Dirac1DSpectrum, mu: float, params: DiracParams
) -> list[tuple[float, str]]:
    """Eigenvalues at mu from the mu = 0 spectrum, with branch labels.

    The zero eigenvalue moves linearly, slope nu_F*|ell| * sgn(mass) *
    orientation; every nonzero pair +/-x moves to -/+sqrt(x^2 + (mu
    nu_F|ell|)^2).  Sorted by value.
    """
    if abs(base.params.mu) > 0:
        raise ValueError("base spectrum must be computed at mu = 0")
    shift = mu * params.speed_mu
    slope_sign = float(np.sign(params.mass)) * params.orientation
    out: list[tuple[float, str]] = []
    for val in base.eigenvalues:
        if abs(val) < 1e-6:
            out.append((shift * slope_sign, "topological"))
        else:
            out.append(
                (float(np.sign(val)) * np.sqrt(val**2 + shift**2), "paired")
            )
    return sorted(out, key=lambda pair: pair[0])


def fd_order_study(
    params: DiracParams, T: float, n_values: tuple[int, ...]
) -> dict:
    """Fitted convergence order of the in-gap eigenvalues under refinement.

    Uses Richardson differences between consecutive grids; the centered
    stencil should give an order near 2.
    """
    if len(n_values) < 3:
        raise ValueError("need at least three grid sizes")
    spectra = [gap_spectrum(params, T, n) for n in n_values]
    counts = {len(s.eigenvalues) for s in spectra}
    if len(counts) != 1:
        raise ValueError(f"in-gap count changed across grids: {counts}")
    table = np.array([s.eigenvalues for s in spectra])
    drifts = np.abs(np.diff(table, axis=0))  # (len-1, n_modes)
    # order per mode from consecutive drift ratios; guard tiny denominators
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = drifts[:-1] / np.maximum(drifts[1:], 1e-300)
    h = 1.0 / (np.asarray(n_values, dtype=float) - 1.0)
    h_ratio = h[:-2] / h[1:-1]  # > 1 for refining grids
    orders = np.log(ratios) / np.log(h_ratio[:, None])
    finite = orders[np.isfinite(orders) & (drifts[1:] > 1e-14)]
    return {
        "n_values": n_values,
        "eigenvalue_table": table,
        "orders": orders,
        "median_order": float(np.median(finite)) if finite.size else np.nan,
    }


def susy_conjugation_residual(params: DiracParams, T: float, N: int) -> float:
    """max |m2 H m2 + H| at mu = 0: the chiral conjugation flips the sign."""
    if params.mu != 0:
        raise ValueError("the conjugation identity holds at mu = 0")
    H = assemble_dirac(params, T, N)
    _, m2, _ = params.matrices()
    M2 = sp.kron(sp.identity(N, format="csr"), m2, format="csr")
    resid = M2 @ H @ M2 + H
    scale = max(float(np.abs(H.data).max()), 1e-300)
    return float(np.abs(resid.data).max() / scale) if resid.nnz else 0.0
