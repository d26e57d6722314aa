"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of the
library's modules and the scipy entry points the strip solver calls
(``splu``, ``eigsh`` and the LU ``solve``).  Every call becomes a span
(name, phase, start, end, parent) kept in memory; sizes and solver counts
are read off the returned objects at the same boundary.  A span's self time
is its duration minus the time its child spans cover, so the self times of
one phase add up to the time spent inside the library in that phase.

Per-layer metrics are read from the spans of the ``run`` phase, except
``dirac_cone.certify_s``, the inclusive time of the cone certificate in the
``setup`` phase.  Byte sizes are computed from array sizes, not measured:
strip CSR arrays, LU nnz times 16 bytes (complex values only), and M * M *
16 for one dense fiber.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import functools
import sys
import time

# (name, unit) of every per-layer metric, in print order
PER_LAYER = [
    ("ribbon.channel_s", "s"),
    ("ribbon.bulk_edges_s", "s"),
    ("ribbon.bulk_edges_total_s", "s"),
    ("ribbon.bulk_edges_calls", "count"),
    ("ribbon.assemble_s", "s"),
    ("ribbon.assemble_calls", "count"),
    ("ribbon.strip_dim", "count"),
    ("ribbon.strip_nnz", "count"),
    ("ribbon.strip_bytes_computed", "B"),
    ("ribbon.eigenpairs_s", "s"),
    ("ribbon.eigenpairs_total_s", "s"),
    ("ribbon.factor_s", "s"),
    ("ribbon.krylov_s", "s"),
    ("ribbon.lu_solve_s", "s"),
    ("ribbon.lu_solves", "count"),
    ("ribbon.lu_nnz", "count"),
    ("ribbon.lu_bytes_computed", "B"),
    ("ribbon.k_used", "count"),
    ("ribbon.raw_in_window", "count"),
    ("ribbon.kept_ratio", "ratio"),
    ("ribbon.compare_s", "s"),
    ("bloch.assemble_fiber_s", "s"),
    ("bloch.assemble_fiber_calls", "count"),
    ("bloch.coefficient_grid_s", "s"),
    ("bloch.coefficient_grid_calls", "count"),
    ("bloch.eigs_s", "s"),
    ("bloch.eigs_calls", "count"),
    ("bloch.fiber_dim", "count"),
    ("bloch.fiber_bytes_computed", "B"),
    ("dirac_cone.certify_s", "s"),
    ("wall_dirac.gap_spectrum_s", "s"),
    ("wall_dirac.gap_spectrum_calls", "count"),
    ("wall_dirac.doubling_rejected", "count"),
    ("quasimode.workspace_s", "s"),
    ("quasimode.envelope_s", "s"),
    ("quasimode.shooting_s", "s"),
    ("quasimode.shooting_calls", "count"),
    ("quasimode.ansatz_s", "s"),
    ("quasimode.residual_s", "s"),
    ("warnings.missed_multiplicity", "count"),
    ("warnings.spurious_mode", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]

# (module, function, span name) of every traced library function
TRACED = [
    ("ribbon", "solve_edge_channel", "ribbon.channel"),
    ("ribbon", "essential_edges_bulk", "ribbon.bulk_edges"),
    ("ribbon", "assemble_strip", "ribbon.assemble"),
    ("ribbon", "gap_eigenpairs", "ribbon.eigenpairs"),
    ("ribbon", "compare_with_dirac", "ribbon.compare"),
    ("bloch", "assemble_fiber", "bloch.assemble_fiber"),
    ("bloch", "_coefficient_grid", "bloch.coefficient_grid"),
    ("bloch", "eigs", "bloch.eigs"),
    ("dirac_cone", "find_dirac_point", "dirac_cone.certify"),
    ("dirac_cone", "compute_nu_star", "dirac_cone.certify"),
    ("dirac_cone", "compute_mass", "dirac_cone.certify"),
    ("wall_dirac", "gap_spectrum", "wall_dirac.gap_spectrum"),
    ("quasimode", "quasimode_workspace", "quasimode.workspace"),
    ("quasimode", "zero_mode_pair", "quasimode.envelope"),
    ("quasimode", "ladder_pair", "quasimode.envelope"),
    ("quasimode", "shooting_pair", "quasimode.shooting"),
    ("quasimode", "leading_quasimode", "quasimode.ansatz"),
    ("quasimode", "residual_orders", "quasimode.residual"),
]


class _Namespace:
    """A stand-in for a module or object: some attributes overridden, the rest forwarded."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list = []  # (name, phase, start, end, parent index or -1)
        self._covered: list = []  # child time inside each span
        self._stack: list = []
        self._undo: list = []  # (namespace, attribute, original value)
        self.sizes: dict = {}  # run-phase sizes read off returned objects

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._covered.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, self.phase, start, end, parent)
                if parent >= 0:
                    self._covered[parent] += end - start
            if observe is not None and self.phase == "run":
                observe(result)
            return result

        return traced

    def _add(self, key: str, value) -> None:
        self.sizes[key] = self.sizes.get(key, 0) + value

    def _max(self, key: str, value) -> None:
        self.sizes[key] = max(self.sizes.get(key, 0), value)

    # -- observers ---------------------------------------------------------

    def _on_strip(self, op) -> None:
        m = op.matrix
        self._max("ribbon.strip_dim", m.shape[0])
        self._max("ribbon.strip_nnz", m.nnz)
        nbytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        self._max("ribbon.strip_bytes_computed", nbytes)

    def _on_spectrum(self, spec) -> None:
        diag = spec.diagnostics
        if diag.get("k_used") is None:
            return
        self._add("ribbon.k_used", diag["k_used"])
        self._add("ribbon.raw_in_window", diag.get("raw_in_window", 0))
        self._add("ribbon.kept", len(spec.values))

    def _on_fiber(self, op) -> None:
        m = op.matrix.shape[0]
        self._max("bloch.fiber_dim", m)
        self._max("bloch.fiber_bytes_computed", m * m * 16)

    def _on_ladder(self, spectrum) -> None:
        self._add("wall_dirac.doubling_rejected", spectrum.doubling_rejected)

    def _splu(self, fn):
        factor = self.wrap("ribbon.factor", fn)

        def splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            if self.phase == "run":
                self._max("ribbon.lu_nnz", lu.nnz)
                self._max("ribbon.lu_bytes_computed", lu.nnz * 16)
            return _Namespace(lu, solve=self.wrap("ribbon.lu_solve", lu.solve))

        return splu

    # -- installation ------------------------------------------------------

    def _set(self, namespace, attr: str, value) -> None:
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        """Replace every reference to a traced function in the library's modules."""
        lib = sys.modules["artifact"]
        modules = [
            m for n, m in list(sys.modules.items())
            if n.startswith("artifact.") and m is not None
        ]
        observers = {
            "ribbon.assemble": self._on_strip,
            "ribbon.eigenpairs": self._on_spectrum,
            "bloch.assemble_fiber": self._on_fiber,
            "wall_dirac.gap_spectrum": self._on_ladder,
        }
        for mod_name, fn_name, span in TRACED:
            original = getattr(getattr(lib, mod_name), fn_name)
            wrapped = self.wrap(span, original, observers.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)
        ribbon = lib.ribbon
        spla = ribbon.spla
        self._set(ribbon, "spla", _Namespace(
            spla,
            splu=self._splu(spla.splu),
            eigsh=self.wrap("ribbon.krylov", spla.eigsh),
        ))

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)

    # -- metrics -----------------------------------------------------------

    def metrics(self, untraced_wall: float, traced_wall: float, warnings: dict) -> dict:
        """Every per-layer metric of PER_LAYER, as {name: value}."""
        self_s: dict = {}
        total_s: dict = {}
        calls: dict = {}
        certify = 0.0
        for idx, (name, phase, start, end, parent) in enumerate(self.spans):
            if phase == "setup":
                if name == "dirac_cone.certify" and parent < 0:
                    certify += end - start
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start - self._covered[idx])
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        sizes = self.sizes
        layer_self = sum(self_s.values())
        out = {}
        for metric, unit in PER_LAYER:
            if metric in sizes:
                out[metric] = sizes[metric]
            elif metric.endswith("_total_s"):
                out[metric] = total_s.get(metric[: -len("_total_s")], 0.0)
            elif metric.endswith("_s") and metric[:-2] in self_s:
                out[metric] = self_s[metric[:-2]]
            elif metric.endswith("_calls"):
                out[metric] = calls.get(metric[: -len("_calls")], 0)
            else:
                out[metric] = 0.0 if unit == "s" else 0
        out["ribbon.lu_solves"] = calls.get("ribbon.lu_solve", 0)
        k_used = sizes.get("ribbon.k_used", 0)
        out["ribbon.kept_ratio"] = sizes.get("ribbon.kept", 0) / k_used if k_used else 0.0
        out["dirac_cone.certify_s"] = certify
        out["warnings.missed_multiplicity"] = warnings.get("MissedMultiplicityWarning", 0)
        out["warnings.spurious_mode"] = warnings.get("SpuriousModeWarning", 0)
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.traced_wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.layer_self_s"] = layer_self
        out["trace.unattributed_s"] = traced_wall - layer_self
        out["trace.spans"] = sum(1 for s in self.spans if s[1] == "run")
        return out

    def span_summary(self) -> dict:
        """Per span name and phase: calls, self seconds and total seconds."""
        out: dict = {}
        for idx, (name, phase, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(f"{phase}:{name}", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - self._covered[idx]
            entry["total_s"] += end - start
        return out
