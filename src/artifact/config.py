"""Declarative run configuration.

One JSON blob pins every knob of a run: the model fields, the solver
resolutions, and the per-command sweep parameters.  Each field stands for an
argument or option of a library function, so a run is reproducible from its
config alone; ``RunConfig.hash`` is a stable digest of that config.  No
module reads a ``RunConfig`` yet: a run driver that maps it onto the library
calls is still to be written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

__all__ = [
    "ConfigError", "ModelConfig", "SolverConfig", "Dirac1DConfig",
    "StripConfig", "QuasimodeConfig", "RunConfig", "from_dict", "from_json",
    "load",
]


class ConfigError(ValueError):
    """Malformed configuration: unknown keys, wrong types, bad values."""


@dataclass(frozen=True)
class ModelConfig:
    """The periodic medium and the symmetry-breaking fields."""

    well_depth: float = -30.0
    # Gaussian width as a fraction of the lattice vector length |v1|.
    well_width_factor: float = 0.15
    # Dual-space radius (in units of |k1|) for coefficient tables.
    field_cutoff: float = 8.0
    # Strength of the gap-opening sublattice field.
    wall_amplitude: float = 3.0
    # Strength of the transverse sine vector field.
    magnetic_amplitude: float = 0.65
    # Which symmetry-breaking channel the defect modulates.
    perturbation: str = "scalar"  # "scalar" | "magnetic"
    wall_kind: str = "bump_smoothstep"  # or "tanh_scaled"
    # Plateau half-width of the domain wall, in slow units.  Wide enough
    # that the slowest in-gap mode keeps 99% of its mass within twice the
    # plateau at the default amplitudes.
    wall_halfwidth: float = 5.0

    def validate(self) -> None:
        if self.perturbation not in ("scalar", "magnetic"):
            raise ConfigError(
                f"perturbation must be 'scalar' or 'magnetic', got {self.perturbation!r}"
            )
        if self.wall_kind not in ("bump_smoothstep", "tanh_scaled"):
            raise ConfigError(f"unknown wall kind {self.wall_kind!r}")
        if self.well_width_factor <= 0:
            raise ConfigError("well_width_factor must be positive")
        if self.wall_halfwidth <= 0:
            raise ConfigError("wall_halfwidth must be positive")
        if self.field_cutoff < 4:
            raise ConfigError("field_cutoff must be at least 4")


@dataclass(frozen=True)
class SolverConfig:
    """Bulk fiber diagonalization parameters."""

    basis_cutoff: float = 8.0
    n_bands: int = 8
    degeneracy_tol: float = 1e-6
    # Fermi-velocity fit: ring radii as fractions of |k1|.
    velocity_radii: tuple[float, ...] = (0.05, 0.1, 0.2)
    velocity_directions: int = 12

    def validate(self) -> None:
        if self.basis_cutoff < 2:
            raise ConfigError("basis_cutoff must be at least 2")
        if self.n_bands < 2:
            raise ConfigError("n_bands must be at least 2")
        if self.degeneracy_tol <= 0:
            raise ConfigError("degeneracy_tol must be positive")


@dataclass(frozen=True)
class Dirac1DConfig:
    """Grid for the emergent one-dimensional operator."""

    half_width: float = 30.0
    n_points: int = 6000

    def validate(self) -> None:
        if self.half_width <= 0 or self.n_points < 1000:
            raise ConfigError("need half_width > 0 and n_points >= 1000")


@dataclass(frozen=True)
class StripConfig:
    """Edge-strip discretization: fast plane waves times a slow envelope."""

    delta_values: tuple[float, ...] = (0.08, 0.04, 0.02)
    fast_cutoff: float = 4.0
    # Envelope grid step in fast units (the slow step is delta * step).
    step: float = 0.5
    # Transverse box half-width as a multiple of wall_halfwidth / delta.
    t_factor: float = 8.0
    # Transverse quasimomentum samples for essential-band edges.
    tau_samples: int = 160

    def validate(self) -> None:
        if self.step <= 0 or self.t_factor <= 0:
            raise ConfigError("envelope grid parameters must be positive")
        if self.tau_samples < 128:
            raise ConfigError("tau_samples must be at least 128")
        if not self.delta_values or any(d <= 0 for d in self.delta_values):
            raise ConfigError("delta_values must be positive")


@dataclass(frozen=True)
class QuasimodeConfig:
    """Two-scale ansatz residual study."""

    delta_values: tuple[float, ...] = (0.08, 0.04, 0.02)
    mu: float = 0.0
    branch: int = 0  # index into the sorted in-gap 1D spectrum, 0 = middle
    # Residual studies are matvec-only, so a richer fast basis is affordable.
    fast_cutoff: float = 6.0

    def validate(self) -> None:
        if not self.delta_values or any(d <= 0 for d in self.delta_values):
            raise ConfigError("delta_values must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, in one declarative object."""

    edge: tuple[int, int] = (1, 0)
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    dirac1d: Dirac1DConfig = field(default_factory=Dirac1DConfig)
    strip: StripConfig = field(default_factory=StripConfig)
    quasimode: QuasimodeConfig = field(default_factory=QuasimodeConfig)

    def validate(self) -> "RunConfig":
        for name in _SECTIONS:
            getattr(self, name).validate()
        a1, a2 = self.edge
        if (a1, a2) == (0, 0):
            raise ConfigError("edge direction must be a nonzero integer pair")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def hash(self) -> str:
        """Stable digest of the canonical JSON form."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def with_updates(self, **section_updates) -> "RunConfig":
        """Functional update, e.g. cfg.with_updates(strip=dict(step=0.4))."""
        changes = {}
        for key, val in section_updates.items():
            current = getattr(self, key)
            if is_dataclass(current) and isinstance(val, dict):
                changes[key] = replace(current, **val)
            else:
                changes[key] = val
        out = replace(self, **changes)
        return out.validate()


def _build(cls, payload: dict, path: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object, got {type(payload).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(payload) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name in known:
        if name not in payload:
            continue
        kwargs[name] = _tuplify(payload[name])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


# Section classes by field name, for from_dict dispatch (dataclass `type`
# attributes are strings under `from __future__ import annotations`).
_SECTIONS = {
    "model": ModelConfig,
    "solver": SolverConfig,
    "dirac1d": Dirac1DConfig,
    "strip": StripConfig,
    "quasimode": QuasimodeConfig,
}


def from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(payload) - ({"edge"} | set(_SECTIONS))
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    kwargs = {}
    if "edge" in payload:
        edge = payload["edge"]
        if (not isinstance(edge, (list, tuple)) or len(edge) != 2
                or not all(isinstance(x, int) for x in edge)):
            raise ConfigError("edge must be a pair of integers")
        kwargs["edge"] = (edge[0], edge[1])
    for name, cls in _SECTIONS.items():
        if name in payload:
            kwargs[name] = _build(cls, payload[name], name)
    return RunConfig(**kwargs).validate()


def from_json(text: str) -> RunConfig:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return from_dict(payload)


def load(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
