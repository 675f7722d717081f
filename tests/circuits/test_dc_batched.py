"""Stacked-Newton batched DC solve vs the per-sample reference.

The contract under test: ``solve_dc_batched(circuits)[s]`` matches
``solve_dc(circuits[s])`` — solution vectors at rtol 1e-9 (the
implementation is in fact bit-exact, which the sharded campaign layer
relies on for bit-identical shard merges) *and* per-sample Newton
iteration counts, including ragged batches where samples converge at
different iterations and the active-set Newton keeps stepping only
the stragglers.
"""

import numpy as np
import pytest

from repro.circuits import (
    BatchedOperatingPoints,
    Circuit,
    NewtonOptions,
    dc,
    solve_dc,
    solve_dc_batched,
)
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.envelope.describing import tanh_limiter_pair
from repro.errors import ConvergenceError


def build_linear(r):
    circuit = Circuit("lin")
    circuit.voltage_source("V", "in", "0", dc(2.5))
    circuit.resistor("R1", "in", "a", r)
    circuit.resistor("R2", "a", "0", 1e3)
    circuit.current_source("I", "a", "0", 1e-4)
    return circuit


def build_oscillator(gm_scale):
    tank = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def build_tanh_vccs(gm, vectorized=True):
    """One tanh VCCS; gm spans decades so Newton counts go ragged."""
    circuit = Circuit("k1")
    circuit.voltage_source("V", "in", "0", dc(0.4))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.resistor("RL", "a", "0", 1e3)
    circuit.resistor("Ro", "o", "0", 500.0)
    circuit.nonlinear_vccs(
        "G",
        "o",
        "0",
        "a",
        "0",
        lambda v, g=gm: 1e-3 * np.tanh(g * v / 1e-3),
        vector_pair=tanh_limiter_pair if vectorized else None,
        vector_params=(gm, 1e-3) if vectorized else (),
    )
    return circuit


def build_k_vccs(k, gm):
    """k tanh VCCSs driven from one node: two or more is more than the
    stacked Newton takes, so the batch runs per sample."""
    circuit = Circuit(f"k{k}")
    circuit.voltage_source("V", "in", "0", dc(0.4))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.resistor("RL", "a", "0", 1e3)
    for j in range(k):
        gm_j = gm * (1.0 + 0.1 * j)
        circuit.resistor(f"Ro{j}", f"o{j}", "0", 500.0)
        circuit.nonlinear_vccs(
            f"G{j}", f"o{j}", "0", "a", "0",
            lambda v, g=gm_j: 1e-3 * np.tanh(g * v / 1e-3),
            vector_pair=tanh_limiter_pair,
            vector_params=(gm_j, 1e-3),
        )
    return circuit


def build_diode(i_sat):
    """Diode: not a NonlinearVCCS, so the lockstep gate rejects the
    batch and the wholesale per-sample fallback must carry it."""
    circuit = Circuit("d")
    circuit.voltage_source("V", "in", "0", dc(2.0))
    circuit.resistor("R", "in", "a", 1e3)
    circuit.diode("D", "a", "0", i_sat=i_sat)
    return circuit


def assert_dc_equivalent(builders, options=None):
    per_sample = [solve_dc(build(), options=options) for build in builders]
    batched = solve_dc_batched(
        [build() for build in builders], options=options
    )
    assert isinstance(batched, BatchedOperatingPoints)
    assert len(batched) == len(per_sample)
    for s, reference in enumerate(per_sample):
        np.testing.assert_allclose(
            batched.x[s], reference.x, rtol=1e-9, atol=1e-15
        )
        assert int(batched.iterations[s]) == reference.iterations
    return per_sample, batched


class TestEquivalence:
    def test_linear_single_solve(self):
        per, bat = assert_dc_equivalent(
            [lambda r=r: build_linear(r) for r in (100.0, 470.0, 2.2e3)]
        )
        assert bat.iterations.tolist() == [1, 1, 1]

    def test_nonlinear_vectorized(self):
        assert_dc_equivalent(
            [lambda g=g: build_oscillator(g) for g in (0.8, 1.0, 1.2, 1.5)]
        )

    def test_nonlinear_scalar_linearize(self):
        """No vector_pair: the stacked Newton loops devices scalar-wise
        but still matches per-sample exactly."""
        assert_dc_equivalent(
            [
                lambda g=g: build_tanh_vccs(g, vectorized=False)
                for g in (1e-3, 5e-3, 2e-2)
            ]
        )

    def test_ragged_iteration_counts(self):
        """Samples converging at different Newton iterations: the
        active-set solve reports each sample's own count."""
        gms = (1e-4, 2e-3, 2e-2, 0.5)
        per, bat = assert_dc_equivalent(
            [lambda g=g: build_tanh_vccs(g) for g in gms]
        )
        counts = bat.iterations.tolist()
        assert len(set(counts)) > 1  # genuinely ragged
        assert counts == [op.iterations for op in per]

    def test_batch_composition_invariance(self):
        """A sample's solution is bit-identical no matter which batch
        it is solved in — the property shard-merge bit-identity rests
        on (each sample's Newton path, damping and per-block solve are
        independent of its batch-mates)."""
        gms = (1e-4, 2e-3, 2e-2, 0.5)
        whole = solve_dc_batched([build_tanh_vccs(g) for g in gms])
        front = solve_dc_batched([build_tanh_vccs(g) for g in gms[:2]])
        back = solve_dc_batched([build_tanh_vccs(g) for g in gms[2:]])
        np.testing.assert_array_equal(whole.x[:2], front.x)
        np.testing.assert_array_equal(whole.x[2:], back.x)
        assert whole.iterations.tolist() == (
            front.iterations.tolist() + back.iterations.tolist()
        )

    def test_per_sample_fallback_for_unsupported_devices(self):
        """Diodes cannot lockstep; the wholesale fallback still returns
        a BatchedOperatingPoints matching per-sample solves."""
        assert_dc_equivalent(
            [lambda i=i: build_diode(i) for i in (1e-14, 1e-12)]
        )


    def test_two_devices_match_per_sample_bit_for_bit(self):
        gms = (1e-4, 2e-3, 2e-2, 0.5)
        batched = solve_dc_batched([build_k_vccs(2, g) for g in gms])
        for s, g in enumerate(gms):
            reference = solve_dc(build_k_vccs(2, g))
            assert np.array_equal(batched.x[s], reference.x)
            assert int(batched.iterations[s]) == reference.iterations


class TestApi:
    def test_op_accessor_returns_operating_points(self):
        circuits = [build_linear(r) for r in (100.0, 220.0)]
        batched = solve_dc_batched(circuits)
        op = batched.op(1)
        assert op.circuit is batched.circuits[1]
        assert op.iterations == int(batched.iterations[1])
        reference = solve_dc(build_linear(220.0))
        assert op.voltage("a") == pytest.approx(reference.voltage("a"))

    def test_unconverged_sample_reruns_and_raises_like_per_sample(self):
        """A sample the stacked Newton cannot converge re-runs through
        the scalar path from the original seed — and propagates the
        same ConvergenceError the per-sample solve would raise."""
        options = NewtonOptions(max_iterations=2)
        with pytest.raises(ConvergenceError):
            solve_dc(build_tanh_vccs(0.5), options=options)
        with pytest.raises(ConvergenceError):
            solve_dc_batched(
                [build_tanh_vccs(g) for g in (1e-4, 0.5)], options=options
            )
