"""The lockstep engine stacks dense systems only.

A netlist whose backend resolves to sparse or Krylov raises
:class:`BatchIncompatible` before any stepping, and the existing
fallbacks take over: a lockstep campaign runs such samples one by one,
bit for bit the per-sample engine's runs, and the stiffness probe
returns ``None``.
"""

import numpy as np
import pytest

import repro.circuits.backend as backend_mod
from repro.campaigns import BatchOptions, run_transient_campaign
from repro.circuits import Circuit, TransientOptions, run_transient, sine
from repro.circuits.batched import (
    BatchIncompatible,
    probe_stiffness_ratios,
    run_transient_batched,
)
from repro.envelope import RLCTank
from repro.sensor.coils import CoilMesh, coil_mesh_array

pytestmark = pytest.mark.skipif(
    not backend_mod._HAVE_SCIPY, reason="sparse backends require scipy"
)

TANK = RLCTank(inductance=10e-6, capacitance=1e-9, series_resistance=2.0)
#: 106 unknowns: ``"auto"`` resolves to sparse.
MESH = CoilMesh(tank=TANK, nx=5, ny=5)
F0 = TANK.frequency
OPTIONS = TransientOptions(t_stop=2.0 / F0, dt=0.05 / F0)


def build_coil(k):
    """Coil ``k`` of a 3-coil array (module level, so picklable)."""
    return coil_mesh_array(MESH, 3)[k]


def build_rc(r):
    circuit = Circuit("rc")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    circuit.resistor("R", "in", "out", float(r))
    circuit.capacitor("C", "out", "0", 1e-9)
    return circuit


def test_sparse_size_campaign_falls_back_per_sample():
    results = run_transient_campaign(
        range(3), build_coil, OPTIONS, BatchOptions(batch_mode="vectorized")
    )
    assert len(results) == 3
    for k, result in enumerate(results):
        reference = run_transient(build_coil(k), OPTIONS)
        assert np.array_equal(result.t, reference.t)
        assert np.array_equal(result.x, reference.x)
        assert result.stats["backend"] == reference.stats["backend"] == "sparse"
        assert "batch_samples" not in result.stats


@pytest.mark.parametrize("backend", ["sparse", "krylov"])
def test_explicit_sparse_backend_is_incompatible(backend):
    circuits = [build_rc(r) for r in (100.0, 150.0, 220.0)]
    options = TransientOptions(t_stop=2e-5, dt=1e-8, backend=backend)
    with pytest.raises(BatchIncompatible, match=backend):
        run_transient_batched(circuits, options)


def test_stiffness_probe_declines_sparse_size_arrays():
    assert probe_stiffness_ratios(coil_mesh_array(MESH, 3), OPTIONS) is None
