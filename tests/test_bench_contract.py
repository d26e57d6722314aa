"""What the benchmark in bench/ reads of the library, checked from the library's side.

``bench/tracer.py`` wraps library functions by name and patches scipy's
``splu`` and ``eigsh`` on ``ribbon.spla``; ``bench/worker.py`` writes each
channel's diagnostics with ``json.dumps``, whose fallback handles numpy
scalars only.  A rename, a dropped import or an array in the diagnostics
would break a benchmark run, not a test, without these checks.  The tracer
imports only the standard library, so it is loaded from its path.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

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
