"""The lockstep engine stacks dense systems with at most one
nonlinear device.

A netlist whose backend resolves to sparse or Krylov, or one with two
or more :class:`~repro.circuits.controlled.NonlinearVCCS` devices,
raises :class:`BatchIncompatible` before any stepping, and the
existing fallbacks take over: a lockstep campaign runs such samples
one by one, bit for bit the per-sample engine's runs (``general``
Newton for the multi-device netlists), and the stiffness probe
returns ``None``.  Each test below takes both kinds of batch.
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
from repro.envelope.describing import tanh_limiter_pair
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


def build_k_vccs(k, gm):
    """k tanh transconductors driven from one node: ``general`` Newton
    in the per-sample engine for k >= 2."""
    circuit = Circuit(f"k{k}")
    circuit.voltage_source("Vin", "in", "0", sine(0.5, 1e5))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.resistor("RL", "a", "0", 1e3)
    for j in range(k):
        gm_j = gm * (1.0 + 0.1 * j)
        circuit.resistor(f"Ro{j}", f"o{j}", "0", 500.0)
        circuit.capacitor(f"Co{j}", f"o{j}", "0", 1e-10)
        circuit.nonlinear_vccs(
            f"G{j}", f"o{j}", "0", "a", "0",
            lambda v, g=gm_j: 1e-3 * np.tanh(g * v / 1e-3),
            vector_pair=tanh_limiter_pair,
            vector_params=(gm_j, 1e-3),
        )
    return circuit


def build_k3(gm):
    return build_k_vccs(3, gm)


K_GMS = (2e-3, 2.5e-3, 3e-3)
K_OPTIONS = TransientOptions(t_stop=5e-6, dt=1e-8, use_dc_operating_point=True)

#: (build, tasks, options, stats key, per-sample value) of each kind
#: of batch the lockstep engine declines.
DECLINED = [
    (build_coil, range(3), OPTIONS, "backend", "sparse"),
    (build_k3, K_GMS, K_OPTIONS, "strategy", "general"),
]


def test_sparse_size_campaign_falls_back_per_sample():
    for build, tasks, options, key, value in DECLINED:
        results = run_transient_campaign(
            tasks, build, options, BatchOptions(batch_mode="vectorized")
        )
        assert len(results) == len(tasks)
        for task, result in zip(tasks, results):
            reference = run_transient(build(task), options)
            assert np.array_equal(result.t, reference.t)
            assert np.array_equal(result.x, reference.x)
            assert result.stats[key] == reference.stats[key] == value
            assert "batch_samples" not in result.stats


@pytest.mark.parametrize("backend", ["sparse", "krylov", "two_vccs"])
def test_explicit_sparse_backend_is_incompatible(backend):
    if backend == "two_vccs":
        circuits = [build_k_vccs(2, g) for g in K_GMS]
        options, match = K_OPTIONS, "at most one"
    else:
        circuits = [build_rc(r) for r in (100.0, 150.0, 220.0)]
        options = TransientOptions(t_stop=2e-5, dt=1e-8, backend=backend)
        match = backend
    with pytest.raises(BatchIncompatible, match=match):
        run_transient_batched(circuits, options)


def test_stiffness_probe_declines_sparse_size_arrays():
    for build, tasks, options, _key, _value in DECLINED:
        circuits = [build(task) for task in tasks]
        assert probe_stiffness_ratios(circuits, options) is None
