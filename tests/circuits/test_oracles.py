"""Oracles that do not trust the engines: closed forms a run must meet.

Equivalence tests only prove that the engines agree with each other;
these compare an assembled run against mathematics the engines do not
share code with.

Small-signal envelope.  Far below limiting the Fig 16 oscillator is the
linear tank ``(v, i_L)' = A (v, i_L)`` (``v`` the differential tank
voltage, ``i_L`` the inductor current) with a negative conductance
``gm``, so its amplitude grows as ``exp(sigma t)``.  The trapezoidal
rule maps each eigen-coordinate ``z = w^T (v, i_L)`` (``w`` a left
eigenvector of ``A``) to exactly ``R(lambda h) z`` per step, so ``|z|``
is geometric and its rate converges to ``Re(lambda)`` at order 2.
``small_signal_growth_rate`` is the describing-function model's
``sigma``; its series-to-parallel loss transform is exact at ``omega0``
only, so it sits ``O(1/Q^2)`` off ``Re(lambda)``.
"""

import numpy as np
import pytest

from repro.circuits import TransientOptions, run_transient, run_transient_batched
from repro.core import OscillatorNetlist
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.envelope.dynamics import small_signal_growth_rate

TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
GM = 6e-3
#: The paper's transconductance with 1000x its current limit: a 20-cycle
#: startup from the netlist's 50 uA seed stays below 1e-3 of saturation,
#: where tanh is linear to better than 1e-6.
LIMITER = TanhLimiter(gm=GM, i_max=2.0)
T0 = 1.0 / TANK.frequency
CYCLES = 20


def small_signal_matrix() -> np.ndarray:
    cd = TANK.differential_capacitance
    inductance, rs = TANK.inductance, TANK.series_resistance
    return np.array([[GM / cd, -1.0 / cd], [1.0 / inductance, -rs / inductance]])


def exact_rate() -> float:
    return float(np.linalg.eigvals(small_signal_matrix()).real.max())


def run(engine: str, points_per_cycle: int):
    options = TransientOptions(
        t_stop=CYCLES * T0,
        dt=T0 / points_per_cycle,
        method="trap",
        use_dc_operating_point=False,
    )
    circuit = OscillatorNetlist(TANK, vref=2.5).build(LIMITER)
    if engine == "lockstep":
        return run_transient_batched([circuit], options)[0]
    return run_transient(circuit, options)


def growth_rate(result) -> float:
    """The run's exponential growth rate, from its eigen-coordinate."""
    lam, vectors = np.linalg.eig(small_signal_matrix().T)
    w = vectors[:, np.argmax(lam.imag)]
    v = result.waveform("lc1").y - result.waveform("lc2").y
    z = np.abs(w[0] * v + w[1] * result.branch_current("Losc").y)
    # The first step starts from an inconsistent capacitor current (the
    # integrator state starts at zero), so the sequence is geometric
    # from step 1 on: one growth factor per step, up to the limiter's
    # residual curvature (about 1e-8 of the factor here).
    factors = z[2:] / z[1:-1]
    assert np.ptp(factors) <= 1e-7 * factors.mean()
    return float(np.log(z[-1] / z[1]) / (result.t[-1] - result.t[1]))


@pytest.mark.parametrize("engine", ["scalar", "lockstep"])
class TestSmallSignalEnvelope:
    def test_stays_far_below_saturation(self, engine):
        result = run(engine, 40)
        v = result.waveform("lc1").y - result.waveform("lc2").y
        assert result.stats["newton_iterations"] > 0
        assert GM * np.abs(v).max() < 1e-3 * LIMITER.i_max

    def test_trap_growth_error_is_second_order(self, engine):
        sigma = exact_rate()
        errors = [abs(growth_rate(run(engine, ppc)) - sigma) for ppc in (40, 80, 160)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.6 < coarse / fine < 4.4

    def test_growth_matches_small_signal_model(self, engine):
        sigma = small_signal_growth_rate(TANK, GM)
        coarse, fine = (growth_rate(run(engine, ppc)) for ppc in (40, 80))
        # Richardson: the order-2 error cancels, leaving the model's
        # O(1/Q^2) loss-transform error (0.35% for Q = 15).
        limit = fine + (fine - coarse) / 3.0
        assert abs(limit / sigma - 1.0) < 1.0 / TANK.quality_factor**2
        # The amplitude itself: 20 cycles at 80 points per cycle grow
        # as exp(sigma t) to within half a percent of the exponent.
        assert abs(fine / sigma - 1.0) < 0.006


def test_envelope_model_advance_grows_as_exp_sigma_t():
    # The describing-function model integrates the same sigma (RK4 on
    # the tabulated fundamental, accurate to about 2e-6 here).
    model = EnvelopeModel(TANK, LIMITER)
    sigma = small_signal_growth_rate(TANK, GM)
    a0 = 1e-3
    for t in (T0, 10 * T0, CYCLES * T0):
        assert model.advance(a0, t) == pytest.approx(a0 * np.exp(sigma * t), rel=1e-5)
