"""What the benchmark in bench/ reads of the library, checked from the library's side.

``bench/workloads.py`` calls library functions with fixed argument shapes,
positional and keyword; ``bench/tracer.py`` wraps library functions by name,
reads ``Dirac1DSpectrum.doubling_rejected`` and patches scipy's ``splu``
and ``eigsh`` on ``ribbon.spla``; ``bench/worker.py`` writes each channel's
diagnostics with ``json.dumps``, whose fallback handles numpy scalars only.
A dropped parameter, a rename, a dropped import or an array in the
diagnostics would break a benchmark run, not a test, without these checks.
The tracer imports only the standard library, so it is loaded from its path.
"""

import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from artifact import bloch, dirac_cone, geometry, potentials, quasimode, wall_dirac
from artifact import ribbon as rb
from artifact.bloch import build_basis
from artifact.dirac_cone import find_dirac_point
from artifact.geometry import build_lattice, make_edge_frame
from artifact.potentials import domain_wall, honeycomb_potential, parity_breaking_W

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    for module, function, _ in tracer.TRACED:
        library = importlib.import_module(f"artifact.{module}")
        assert callable(getattr(library, function)), (module, function)


# Every library call of bench/workloads.py, in the form it makes it; ``_``
# stands for an argument whose value binding does not check.
_ = object()
WORKLOAD_CALLS = [
    (geometry.build_lattice, (), {}),
    (geometry.make_edge_frame, (_, 1, 0), {}),
    (geometry.EdgeFrame.zeta_star, (_, "A"), {}),
    (potentials.honeycomb_potential, (_, -30.0, _, 8), {}),
    (potentials.parity_breaking_W, (_, 10.0, _, 8), {}),
    (potentials.domain_wall, ("bump_smoothstep", 5.0), {}),
    (potentials.magnetic_A, (_, 2.2), {}),
    (bloch.build_basis, (_, 4.0), {}),
    (dirac_cone.find_dirac_point, (_, "A", _), {}),
    (dirac_cone.compute_nu_star, (_, _), {"linearity_tol": 1e-4}),
    (dirac_cone.compute_mass, (_, _, _), {}),
    (wall_dirac.params_from_frames, (_, _, _, _), {}),
    (wall_dirac.params_from_frames, (_, _, _, _), {"mu": 0.3}),
    (wall_dirac.gap_spectrum, (_, 30.0, 6000), {}),
    (rb.solve_edge_channel, (_, _, _, _, 0.08, _, _, _),
     {"perturbation": _, "t_factor": 3.5, "seed": 7}),
    (rb.compare_with_dirac, (_, _, _), {}),
    (rb.essential_edges_bulk, (_, _, _, _, 0.04, _, _), {}),
    (quasimode.quasimode_workspace, (_, _, _, _, _, _), {}),
    (quasimode.zero_mode_pair, (_,), {}),
    (quasimode.ladder_pair, (_,), {}),
    (quasimode.residual_orders, (_, _, (0.08, 0.04, 0.02)),
     {"orders": (0, 1, 2), "t_factor": 4.5}),
]


def test_workload_calls_bind():
    failed = []
    for fn, args, kwargs in WORKLOAD_CALLS:
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as err:
            failed.append(f"{fn.__module__}.{fn.__qualname__}: {err}")
    assert not failed, failed


def test_ladder_keeps_doubling_rejected():
    fields = {f.name: f for f in dataclasses.fields(wall_dirac.Dirac1DSpectrum)}
    assert fields["doubling_rejected"].default == 0


def test_ribbon_keeps_patched_scipy_entry_points():
    assert callable(rb.spla.splu)
    assert callable(rb.spla.eigsh)


def test_base_channel_diagnostics_are_plain_json():
    # the benchmark's edge_channel workload: amp-10 wall, t_factor 3.5
    lat = build_lattice()
    frame = make_edge_frame(lat, 1, 0)
    basis = build_basis(lat, 4.0)
    wid = 0.15 * np.linalg.norm(lat.v1)
    V = honeycomb_potential(lat, -30.0, wid, 8)
    cone = find_dirac_point(V, "A", basis)
    spec = rb.solve_edge_channel(
        frame, V, domain_wall("bump_smoothstep", 5.0), frame.zeta_star("A"), 0.08,
        basis, cone.j_star, 4.0928, perturbation=parity_breaking_W(lat, 10.0, wid, 8),
        t_factor=3.5, seed=7,
    )
    assert len(spec) == 1
    json.dumps(spec.diagnostics)
