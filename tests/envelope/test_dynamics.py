"""Tests for envelope dynamics, incl. cross-validation against the MNA
transient of the same oscillator — the two substrates must agree."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import envelope_by_peaks, oscillation_frequency
from repro.circuits import Circuit, TransientOptions, run_transient
from repro.envelope import (
    EnvelopeModel,
    HardLimiter,
    K_SQUARE_WAVE,
    RLCTank,
    TanhLimiter,
    small_signal_growth_rate,
    steady_state_amplitude,
)
from repro.envelope import dynamics
from repro.errors import ConfigurationError, SimulationError


@pytest.fixture
def tank():
    return RLCTank.from_frequency_and_q(4e6, 50.0, 10e-6)


class TestGrowthRate:
    def test_sign(self, tank):
        critical = 1.0 / tank.parallel_resistance
        assert small_signal_growth_rate(tank, 2 * critical) > 0
        assert small_signal_growth_rate(tank, 0.5 * critical) < 0

    def test_value(self, tank):
        gm = 2.0 / tank.parallel_resistance
        expected = (gm - 1 / tank.parallel_resistance) / (
            2 * tank.differential_capacitance
        )
        assert small_signal_growth_rate(tank, gm) == pytest.approx(expected)

    def test_invalid_gm(self, tank):
        with pytest.raises(ConfigurationError):
            small_signal_growth_rate(tank, -1.0)


class TestSteadyState:
    def test_eq4_deep_limiting(self, tank):
        """RMS amplitude = k * Rp * IM (paper Eq 4)."""
        i_max = 1e-3
        lim = HardLimiter(gm=10e-3, i_max=i_max)
        a_pk = steady_state_amplitude(tank, lim)
        v_rms = a_pk / math.sqrt(2)
        expected = K_SQUARE_WAVE * tank.parallel_resistance * i_max
        assert v_rms == pytest.approx(expected, rel=1e-3)

    def test_amplitude_proportional_to_im(self, tank):
        """Eq 5: dV/V = dIM/IM."""
        a1 = steady_state_amplitude(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        a2 = steady_state_amplitude(tank, HardLimiter(gm=10e-3, i_max=1.05e-3))
        assert a2 / a1 == pytest.approx(1.05, rel=1e-3)

    def test_below_critical_gm_returns_zero(self, tank):
        weak = HardLimiter(gm=0.5 / tank.parallel_resistance, i_max=1e-3)
        assert steady_state_amplitude(tank, weak) == 0.0


class TestBrentqPort:
    """``steady_state_amplitude`` finds its root with a port of scipy's
    ``brentq`` (so ``scipy.optimize`` stays unloaded): the same float,
    and the same errors, as scipy."""

    def test_bit_equal_to_scipy_on_generated_oscillators(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2024)
        pairs = []
        for _ in range(240):
            tank = RLCTank.from_frequency_and_q(
                10 ** rng.uniform(5.5, 7.0), 10 ** rng.uniform(0.5, 3.0),
                10 ** rng.uniform(-7.0, -5.0),
            )
            limiter_type = HardLimiter if rng.random() < 0.25 else TanhLimiter
            limiter = limiter_type(
                gm=(1.0 + 10 ** rng.uniform(-2.0, 1.5)) / tank.parallel_resistance,
                i_max=10 ** rng.uniform(-4.0, -2.0),
            )
            pairs.append((tank, limiter))
        ported = [steady_state_amplitude(tank, limiter) for tank, limiter in pairs]
        monkeypatch.setattr(dynamics, "_brentq", optimize.brentq)
        reference = [steady_state_amplitude(tank, limiter) for tank, limiter in pairs]
        assert all(a > 0.0 for a in reference)
        assert ported == reference

    def test_errors_match_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        cases = [
            (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # no sign change
            (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, {}),  # NaN
            (lambda x: math.exp(x) - 3.0, -4.0, 4.0, {"maxiter": 2}),  # no convergence
        ]
        for f, a, b, kw in cases:
            with pytest.raises(Exception) as expected:
                optimize.brentq(f, a, b, xtol=1e-12, rtol=1e-10, **kw)
            with pytest.raises(expected.type):
                dynamics._brentq(f, a, b, xtol=1e-12, rtol=1e-10, **kw)
        assert dynamics._brentq(lambda x: x - 0.25, 0.25, 1.0, 1e-12, 1e-10) == 0.25


class TestSimulation:
    def test_startup_reaches_steady_state(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        a_ss = model.steady_state()
        wave = model.simulate(20 * tank.ring_down_tau())
        assert wave.y[-1] == pytest.approx(a_ss, rel=1e-3)

    def test_decay_from_above(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        a_ss = model.steady_state()
        wave = model.simulate(20 * tank.ring_down_tau(), a0=3 * a_ss)
        assert wave.y[-1] == pytest.approx(a_ss, rel=1e-3)
        assert wave.y[0] > wave.y[-1]

    def test_startup_time_orders(self, tank):
        strong = EnvelopeModel(tank, HardLimiter(gm=20e-3, i_max=1e-3))
        weak = EnvelopeModel(tank, HardLimiter(gm=2e-3, i_max=1e-3))
        assert strong.startup_time() < weak.startup_time()

    def test_no_start_raises(self, tank):
        model = EnvelopeModel(
            tank, HardLimiter(gm=0.1 / tank.parallel_resistance, i_max=1e-3)
        )
        with pytest.raises(SimulationError):
            model.startup_time()

    def test_invalid_inputs(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        with pytest.raises(SimulationError):
            model.simulate(0.0)
        with pytest.raises(SimulationError):
            model.startup_time(fraction=1.5)

    def test_startup_time_zero_amplitude_raises(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        with pytest.raises(SimulationError, match="must be positive"):
            model.startup_time(a0=0.0)

    @pytest.mark.parametrize(
        "a0, duration", [(math.nan, 1e-6), (math.inf, 1e-6), (1e-3, math.nan), (1e-3, math.inf)]
    )
    def test_advance_rejects_non_finite(self, tank, a0, duration):
        model = EnvelopeModel(tank, TanhLimiter(gm=10e-3, i_max=1e-3))
        with pytest.raises(SimulationError, match="finite"):
            model.advance(a0, duration)


FIG16_PERIOD = 1.0 / 4e6


def exact_rk4(model, a0, duration, n=64):
    """``advance``'s RK4 on the exact (quadrature) derivative."""
    h = duration / n
    a = max(a0, 0.0)
    for _ in range(n):
        k1 = model.derivative(a)
        k2 = model.derivative(a + 0.5 * h * k1)
        k3 = model.derivative(a + 0.5 * h * k2)
        k4 = model.derivative(a + h * k3)
        a = max(a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
    return a


def fig16_model(limiter=None):
    tank = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
    return EnvelopeModel(tank, limiter or TanhLimiter(gm=6e-3, i_max=2e-3))


class TestTabulatedAdvance:
    """``advance`` integrates a tabulated describing function; it must
    match RK4 on the exact ``derivative`` and fall back to it exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(5.0, 500.0),
        gm=st.floats(2e-3, 60e-3),
        i_max=st.floats(0.5e-3, 5e-3),
        a0_frac=st.floats(0.0, 1.0),
        cycles=st.integers(4, 256),
    )
    # A near-critical tank: a DCT-II whose cosine arguments are not
    # reduced, cos(pi * outer(j, k + 0.5) / N), misses the bound at 93
    # cycles (rel 1.009e-12); at 248 cycles it and the other unreduced
    # orderings do (1.8e-12 to 2.5e-12, the reduced form 9e-14).
    @example(q=5.0, gm=0.0078125, i_max=0.00390625, a0_frac=0.0, cycles=93)
    @example(q=5.0, gm=0.0078125, i_max=0.00390625, a0_frac=0.0, cycles=248)
    def test_matches_exact_rk4(self, q, gm, i_max, a0_frac, cycles):
        tank = RLCTank.from_frequency_and_q(4e6, q, 1e-6)
        model = EnvelopeModel(tank, TanhLimiter(gm=gm, i_max=i_max))
        # Log-uniform 1e-6 .. 2 A_ss (2 v_c when the tank cannot oscillate).
        a_top = 2.0 * (model.steady_state() or model.limiter.corner_voltage)
        a0 = 1e-6 * (a_top / 1e-6) ** a0_frac
        duration = cycles * FIG16_PERIOD
        expected = exact_rk4(model, a0, duration)
        assert model.advance(a0, duration) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "limiter, a0_per_corner",
        [
            # Kinked describing function: the table fails verification.
            (HardLimiter(gm=6e-3, i_max=2e-3), 0.5),
            # Beyond where the 2048-point quadrature converges.
            (TanhLimiter(gm=6e-3, i_max=2e-3), 1e3),
        ],
    )
    def test_rejected_table_is_exact(self, limiter, a0_per_corner):
        model = fig16_model(limiter)
        a0 = a0_per_corner * limiter.corner_voltage
        duration = 64 * FIG16_PERIOD
        assert model.advance(a0, duration) == exact_rk4(model, a0, duration)
        assert model._table.pieces is None

    def test_larger_amplitude_widens_the_table(self):
        model = fig16_model()
        model.advance(0.1, FIG16_PERIOD)
        first = model._table
        assert first.pieces is not None
        model.advance(0.5 * first.a_hi, FIG16_PERIOD)
        assert model._table is first
        model.advance(2.0 * first.a_hi, FIG16_PERIOD)
        assert model._table.a_hi > first.a_hi


class TestDCT:
    """The table's numpy DCT-II against ``scipy.fft.dct(type=2)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64, dynamics._TABLE_DEGREE + 1,
            elements=st.floats(-1e6, 1e6, allow_subnormal=False),
        )
    )
    def test_matches_scipy(self, x):
        fft = pytest.importorskip("scipy.fft")
        expected = fft.dct(x, type=2)
        got = dynamics._dct2(x)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


class TestTableHygiene:
    def test_equality_and_repr_ignore_the_table(self):
        used, fresh = fig16_model(), fig16_model()
        text = repr(used)
        used.advance(0.1, 8 * FIG16_PERIOD)
        assert used == fresh
        assert repr(used) == text == repr(fresh)

    def test_pickle_round_trip_keeps_advance(self):
        model = fig16_model()
        model.advance(0.1, 8 * FIG16_PERIOD)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.advance(0.2, 32 * FIG16_PERIOD) == model.advance(0.2, 32 * FIG16_PERIOD)

    def test_models_never_share_a_table(self):
        first, second = fig16_model(), fig16_model()
        first.advance(0.1, 8 * FIG16_PERIOD)
        second.advance(0.1, 8 * FIG16_PERIOD)
        assert first._table is not second._table
        assert dataclasses.replace(first)._table is None

    def test_new_limiter_rebuilds_the_table(self):
        model = fig16_model()
        model.advance(0.1, 8 * FIG16_PERIOD)
        old = model._table
        model.limiter = TanhLimiter(gm=9e-3, i_max=2e-3)
        got = model.advance(0.1, 32 * FIG16_PERIOD)
        assert model._table is not old
        assert model._table.limiter is model.limiter
        assert got == fig16_model(model.limiter).advance(0.1, 32 * FIG16_PERIOD)


class TestCrossValidationAgainstMNA:
    """The envelope model and the carrier-level MNA transient describe
    the same oscillator; their steady-state amplitude and frequency
    must agree within a few percent."""

    def test_amplitude_and_frequency(self):
        tank = RLCTank.from_frequency_and_q(3e6, 25.0, 5e-6)
        limiter = TanhLimiter(gm=8e-3, i_max=0.8e-3)

        # Envelope prediction.
        model = EnvelopeModel(tank, limiter)
        a_envelope = model.steady_state()

        # MNA transient of the identical circuit.
        circuit = Circuit("xval")
        circuit.inductor("L", "a", "m", tank.inductance, ic=1e-4)
        circuit.resistor("Rs", "m", "b", tank.series_resistance)
        circuit.capacitor("Ca", "a", "0", tank.capacitance, ic=0.0)
        circuit.capacitor("Cb", "b", "0", tank.capacitance, ic=0.0)
        circuit.nonlinear_vccs("G", "a", "b", "a", "b", lambda v: -limiter(v))
        period = 1.0 / tank.frequency
        res = run_transient(
            circuit,
            TransientOptions(
                t_stop=160 * period,
                dt=period / 60,
                use_dc_operating_point=False,
            ),
        )
        diff = res.differential("a", "b")
        tail = diff.window(120 * period, 160 * period)
        a_mna = 0.5 * tail.peak_to_peak()
        f_mna = oscillation_frequency(tail)

        assert a_mna == pytest.approx(a_envelope, rel=0.05)
        assert f_mna == pytest.approx(tank.frequency, rel=0.01)
