"""The benchmark's three pinned workloads: inputs, operations and gates.

Each workload has a ``setup`` that builds every input from the library's
public API (lattice, fields, basis, cone certificate) and a ``rep`` that runs
the workload's operations once, timing each and checking it against a
reference.  An operation is one checked result; an exception or a failed
gate counts it as failed.

Library functions are always called through their module (``rb.solve_...``)
so that the tracer in ``tracer.py`` sees every call when it is installed.
"""

from __future__ import annotations

import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from artifact import bloch, dirac_cone, geometry, potentials, quasimode
from artifact import ribbon as rb
from artifact import wall_dirac

# References and tolerances.  The edge-channel values are those of
# tests/test_ribbon.py::test_base_channel; the quasimode exponents are the
# orders + 1 the quasimode module documents.  The edges at zeta and -zeta
# agree only to ~3e-5 (bench/baseline.json): the plane-wave ball is not
# invariant under the lattice shift that wraps tau into [0, 2 pi), so the
# mirror tolerance sits a few times above that; the + and - plateau edges
# of the scalar wall agree exactly.
REFERENCE = {
    "edge_channel.value": 1.9005822775,
    "edge_channel.value_tol": 1e-6,
    "edge_channel.count": 1,
    "edge_channel.min_localization": 0.999,
    "edge_channel.max_ladder_residual": 3e-3,
    "bulk_sweep.mirror_tol": 1e-4,
    "bulk_sweep.sign_tol": 1e-9,
    "quasimode_study.exponent_tol": 0.05,
}

# Shifts applied by ``wrong_reference``: each moves a reference far enough
# that every operation of its workload must fail its gate.
WRONG_SHIFT = {
    "edge_channel.value": 1e-3,
    "bulk_sweep.mirror_tol": -1.0,  # a negative tolerance no result meets
    "quasimode_study.exponent_tol": -1.0,
}


def wrong_reference() -> dict:
    ref = dict(REFERENCE)
    for key, shift in WRONG_SHIFT.items():
        ref[key] += shift
    return ref


@dataclass
class Operation:
    """One checked result of a rep."""

    name: str
    seconds: float = 0.0
    ok: bool = False
    error: str | None = None  # exception text or the gate that failed
    detail: dict = field(default_factory=dict)


@dataclass
class RepResult:
    seconds: float
    operations: list
    warnings: dict  # warning class name -> {"count", "messages"}
    stages: dict = field(default_factory=dict)  # named stage seconds


def _run_op(ops: list, name: str, fn) -> Operation:
    """Time ``fn`` (which returns a detail dict) and record it as one operation."""
    op = Operation(name)
    start = time.perf_counter()
    try:
        op.detail = fn()
    except Exception as exc:  # a raising operation is a failed operation
        op.error = f"{type(exc).__name__}: {exc}"
        op.detail = {"traceback": traceback.format_exc(limit=4)}
    op.seconds = time.perf_counter() - start
    ops.append(op)
    return op


def _fail(op: Operation, reason: str) -> None:
    op.ok = False
    op.error = reason if op.error is None else f"{op.error}; {reason}"


def _common_fields():
    lat = geometry.build_lattice()
    frame = geometry.make_edge_frame(lat, 1, 0)
    width = 0.15 * np.linalg.norm(lat.v1)
    return {
        "lattice": lat,
        "frame": frame,
        "V": potentials.honeycomb_potential(lat, -30.0, width, 8),
        "wall": potentials.domain_wall("bump_smoothstep", 5.0),
        "W10": potentials.parity_breaking_W(lat, 10.0, width, 8),
    }


def _certified_cone(V, basis, *perturbations):
    cone = dirac_cone.find_dirac_point(V, "A", basis)
    dirac_cone.compute_nu_star(cone, basis, linearity_tol=1e-4)
    masses = [dirac_cone.compute_mass(cone, basis, p) for p in perturbations]
    return cone, masses


# ---------------------------------------------------------------------------
# edge_channel: the ROADMAP's pinned base channel, one operation per rep


class EdgeChannel:
    name = "edge_channel"
    delta = 0.08
    t_factor = 3.5

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference
        self.params = {
            "edge": [1, 0], "cutoff": 4.0, "delta": self.delta,
            "wall": "bump_smoothstep 5.0", "W_amplitude": 10.0,
            "t_factor": self.t_factor, "zeta": "zeta_star(A)",
            "arpack_seed": seed,
        }

    def setup(self) -> None:
        f = _common_fields()
        self.frame, self.V, self.wall, self.W = f["frame"], f["V"], f["wall"], f["W10"]
        self.basis = bloch.build_basis(f["lattice"], 4.0)
        self.cone, (mass,) = _certified_cone(self.V, self.basis, self.W)
        self.dirac = wall_dirac.params_from_frames(self.cone, self.frame, mass, self.wall)
        self.params["fiber_dim"] = len(self.basis)

    def rep(self) -> RepResult:
        ops: list = []
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op = _run_op(ops, "channel", self._channel)
        if op.error is None:
            self._gate(op)
        return RepResult(time.perf_counter() - start, ops, _count(caught))

    def _channel(self) -> dict:
        spec = rb.solve_edge_channel(
            self.frame, self.V, self.wall, self.frame.zeta_star("A"), self.delta,
            self.basis, self.cone.j_star, self.dirac.speed_t,
            perturbation=self.W, t_factor=self.t_factor, seed=self.seed,
        )
        comp = rb.compare_with_dirac(spec, self.dirac, self.cone.E_star)
        return {
            "values": [float(v) for v in spec.values],
            "localization": [float(v) for v in spec.localization],
            "ladder_max_residual": comp.max_residual,
            "strip_dim": int(spec.grid.n_t * spec.grid.n_fast),
            "diagnostics": spec.diagnostics,
        }

    def _gate(self, op: Operation) -> None:
        ref, d = self.ref, op.detail
        op.ok = True
        if len(d["values"]) != ref["edge_channel.count"]:
            _fail(op, f"{len(d['values'])} in-gap states, expected {ref['edge_channel.count']}")
            return
        err = abs(d["values"][0] - ref["edge_channel.value"])
        if not err <= ref["edge_channel.value_tol"]:
            _fail(op, f"state at {d['values'][0]:.10f} is {err:.2e} from the reference")
        if not d["localization"][0] > ref["edge_channel.min_localization"]:
            _fail(op, f"localization {d['localization'][0]:.6f}")
        if not d["ladder_max_residual"] < ref["edge_channel.max_ladder_residual"]:
            _fail(op, f"ladder residual {d['ladder_max_residual']:.3e}")


# ---------------------------------------------------------------------------
# bulk_sweep: essential edges at 24 zeta, scalar and magnetic wall


class BulkSweep:
    name = "bulk_sweep"
    delta = 0.04
    n_zeta = 24

    def __init__(self, seed: int, reference: dict):
        self.ref = reference
        # 12 points on the upper half circle, rotated by the seed, plus their
        # mirrors -zeta, so every point has its partner
        offset = np.random.default_rng(seed).uniform(0.0, np.pi / 12)
        half = offset + np.pi / 12 * np.arange(self.n_zeta // 2)
        self.zetas = np.concatenate([half, -half])
        self.params = {
            "edge": [1, 0], "cutoff": 4.0, "delta": self.delta,
            "W_amplitude": 10.0, "A_amplitude": 2.2, "tau_samples": 160,
            "zeta_offset": float(offset), "n_zeta": self.n_zeta,
        }

    def setup(self) -> None:
        f = _common_fields()
        self.frame, self.V = f["frame"], f["V"]
        self.walls = {"W": f["W10"], "A": potentials.magnetic_A(f["lattice"], 2.2)}
        self.basis = bloch.build_basis(f["lattice"], 4.0)
        self.cone, masses = _certified_cone(self.V, self.basis, *self.walls.values())
        self.params["masses"] = dict(zip(self.walls, masses))
        self.params["fiber_dim"] = len(self.basis)

    def rep(self) -> RepResult:
        ops: list = []
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for label, pert in self.walls.items():
                for zeta in self.zetas:
                    _run_op(ops, f"{label}@{zeta:.6f}", lambda: self._edges(pert, zeta))
        self._gate(ops)
        return RepResult(time.perf_counter() - start, ops, _count(caught))

    def _edges(self, pert, zeta) -> dict:
        e = rb.essential_edges_bulk(
            self.frame, self.V, pert, zeta, self.delta, self.basis, self.cone.j_star
        )
        return {
            "lower": e.lower, "upper": e.upper, "gap": e.gap, "closed": e.closed,
            "per_sign": {s: list(v) for s, v in e.per_sign.items()},
        }

    def _gate(self, ops: list) -> None:
        ref = self.ref
        half = self.n_zeta // 2
        for op in ops:
            if op.error is None:
                op.ok = True
                if op.detail["closed"] or not op.detail["gap"] > 0:
                    _fail(op, f"gap closed ({op.detail['gap']:.3e})")
        for w in range(len(self.walls)):
            base = w * self.n_zeta
            scalar = list(self.walls)[w] == "W"
            for i in range(half):
                a, b = ops[base + i], ops[base + half + i]
                if a.error is not None or b.error is not None:
                    for op in (a, b):
                        if op.error is None:
                            _fail(op, "mirror partner failed")
                    continue
                dev = max(
                    abs(a.detail["lower"] - b.detail["lower"]),
                    abs(a.detail["upper"] - b.detail["upper"]),
                )
                a.detail["mirror_dev"] = b.detail["mirror_dev"] = dev
                if not dev <= ref["bulk_sweep.mirror_tol"]:
                    for op in (a, b):
                        _fail(op, f"edges at +-zeta differ by {dev:.3e}")
            if scalar:
                for op in ops[base: base + self.n_zeta]:
                    if op.error is not None:
                        continue
                    plus, minus = op.detail["per_sign"]["+"], op.detail["per_sign"]["-"]
                    dev = max(abs(p - m) for p, m in zip(plus, minus))
                    op.detail["sign_dev"] = dev
                    if not dev <= ref["bulk_sweep.sign_tol"]:
                        _fail(op, f"+/- plateau edges differ by {dev:.3e}")


# ---------------------------------------------------------------------------
# quasimode_study: residual exponents at mu = 0 and mu = 0.3


class QuasimodeStudy:
    name = "quasimode_study"
    deltas = (0.08, 0.04, 0.02)
    orders = (0, 1, 2)
    t_factor = 4.5

    def __init__(self, seed: int, reference: dict):
        self.ref = reference  # deterministic: the seed is not used
        self.params = {
            "edge": [1, 0], "cutoff": 5.0, "W_amplitude": 10.0,
            "deltas": list(self.deltas), "orders": list(self.orders),
            "t_factor": self.t_factor, "mu": [0.0, 0.3],
            "ladder_grid": {"T": 30.0, "N": 6000},
        }

    def setup(self) -> None:
        f = _common_fields()
        self.frame, self.V, self.wall, self.W = f["frame"], f["V"], f["wall"], f["W10"]
        self.basis = bloch.build_basis(f["lattice"], 5.0)
        self.cone, (mass,) = _certified_cone(self.V, self.basis, self.W)
        self.dirac = {
            mu: wall_dirac.params_from_frames(self.cone, self.frame, mass, self.wall, mu=mu)
            for mu in (0.0, 0.3)
        }
        self.params["fiber_dim"] = len(self.basis)

    def rep(self) -> RepResult:
        ops: list = []
        stages = {}
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            ws = quasimode.quasimode_workspace(
                self.cone, self.frame, self.V, self.wall, self.W, self.basis
            )
            stages["workspace"] = time.perf_counter() - t0
            _run_op(ops, "mu=0", lambda: self._study(
                ws, quasimode.zero_mode_pair(self.dirac[0.0])))
            _run_op(ops, "mu=0.3", lambda: self._study(ws, self._ladder_pair()))
        for op in ops:
            if op.error is None:
                self._gate(op)
        return RepResult(time.perf_counter() - start, ops, _count(caught), stages)

    def _ladder_pair(self):
        spectrum = wall_dirac.gap_spectrum(self.dirac[0.3], 30.0, 6000)
        return quasimode.ladder_pair(spectrum)

    def _study(self, ws, pair) -> dict:
        study = quasimode.residual_orders(
            ws, pair, self.deltas, orders=self.orders, t_factor=self.t_factor
        )
        return {
            "theta": float(study.theta),
            "exponents": {str(o): study.exponents[o] for o in study.orders},
            "residuals": {str(o): list(map(float, study.residuals[o])) for o in study.orders},
            "defects": list(map(float, study.defects)),
        }

    def _gate(self, op: Operation) -> None:
        op.ok = True
        tol = self.ref["quasimode_study.exponent_tol"]
        for o in self.orders:
            got = op.detail["exponents"][str(o)]
            if not abs(got - (o + 1)) <= tol:
                _fail(op, f"order {o} exponent {got:.4f}, expected {o + 1} +- {tol}")


def _count(caught) -> dict:
    """Captured warnings by class: how many, and each distinct message."""
    out: dict = {}
    for w in caught:
        entry = out.setdefault(w.category.__name__, {"count": 0, "messages": []})
        entry["count"] += 1
        if str(w.message) not in entry["messages"]:
            entry["messages"].append(str(w.message))
    return out


WORKLOADS = {cls.name: cls for cls in (EdgeChannel, BulkSweep, QuasimodeStudy)}
