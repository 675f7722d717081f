"""Tests of the describing-function machinery (k-factor, I1, Gm_eff)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envelope import (
    HardLimiter,
    K_SQUARE_WAVE,
    TanhLimiter,
    delivered_power,
    effective_gm,
    fundamental_current,
    k_factor,
    mean_abs_current,
)
from repro.errors import ConfigurationError


class TestLimiterBasics:
    def test_hard_limiter_shape(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-4)
        assert lim(0.05) == pytest.approx(5e-5)
        assert lim(10.0) == pytest.approx(1e-4)
        assert lim(-10.0) == pytest.approx(-1e-4)
        assert lim.corner_voltage == pytest.approx(0.1)

    def test_tanh_limiter_asymptotes(self):
        lim = TanhLimiter(gm=1e-3, i_max=1e-4)
        assert lim(100.0) == pytest.approx(1e-4, rel=1e-6)
        # small-signal slope = gm
        assert lim(1e-6) / 1e-6 == pytest.approx(1e-3, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HardLimiter(gm=0.0, i_max=1.0)
        with pytest.raises(ConfigurationError):
            HardLimiter(gm=1.0, i_max=-1.0)


class TestFundamental:
    def test_linear_region(self):
        lim = HardLimiter(gm=2e-3, i_max=1.0)
        assert fundamental_current(lim, 0.5) == pytest.approx(1e-3, rel=1e-9)

    def test_square_wave_limit(self):
        lim = HardLimiter(gm=1.0, i_max=1e-3)
        # A >> corner: I1 -> 4 IM / pi
        assert fundamental_current(lim, 1000 * lim.corner_voltage) == pytest.approx(
            4e-3 / math.pi, rel=1e-4
        )

    def test_analytic_matches_quadrature(self):
        """The closed form must agree with brute-force integration."""
        lim = HardLimiter(gm=5e-3, i_max=1e-3)
        for amp in (0.05, 0.2, 0.5, 2.0, 20.0):
            analytic = lim.fundamental(amp)
            quad = super(HardLimiter, lim).fundamental(amp, n=8192)
            assert analytic == pytest.approx(quad, rel=1e-5)

    def test_zero_amplitude(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-3)
        assert fundamental_current(lim, 0.0) == 0.0

    def test_negative_amplitude_rejected(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-3)
        with pytest.raises(ConfigurationError):
            fundamental_current(lim, -1.0)


class TestMeanAbs:
    def test_linear_region(self):
        lim = HardLimiter(gm=2e-3, i_max=1.0)
        # mean |gm A sin| = (2/pi) gm A
        assert mean_abs_current(lim, 0.5) == pytest.approx(
            2 / math.pi * 1e-3, rel=1e-9
        )

    def test_square_limit(self):
        lim = HardLimiter(gm=1.0, i_max=1e-3)
        assert mean_abs_current(lim, 1000 * lim.corner_voltage) == pytest.approx(
            1e-3, rel=1e-3
        )

    def test_analytic_matches_quadrature(self):
        lim = HardLimiter(gm=5e-3, i_max=1e-3)
        for amp in (0.1, 0.3, 1.0, 10.0):
            analytic = lim.mean_abs(amp)
            quad = super(HardLimiter, lim).mean_abs(amp, n=8192)
            assert analytic == pytest.approx(quad, rel=1e-4)


class TestKFactor:
    def test_paper_value_deep_limiting(self):
        """k ≈ 0.9 for the hard-limited driver (paper Eq 3/4)."""
        lim = HardLimiter(gm=10e-3, i_max=1e-3)
        k = k_factor(lim, 200 * lim.corner_voltage)
        assert k == pytest.approx(K_SQUARE_WAVE, rel=1e-3)
        assert k == pytest.approx(0.90, abs=0.01)

    def test_k_square_wave_constant(self):
        assert K_SQUARE_WAVE == pytest.approx(2 * math.sqrt(2) / math.pi)

    def test_tanh_close_to_hard(self):
        hard = HardLimiter(gm=10e-3, i_max=1e-3)
        soft = TanhLimiter(gm=10e-3, i_max=1e-3)
        a = 50 * hard.corner_voltage
        assert k_factor(soft, a) == pytest.approx(k_factor(hard, a), rel=0.05)

    def test_requires_positive_amplitude(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-3)
        with pytest.raises(ConfigurationError):
            k_factor(lim, 0.0)


class TestEffectiveGm:
    def test_small_signal_equals_gm(self):
        lim = HardLimiter(gm=3e-3, i_max=1.0)
        assert effective_gm(lim, 1e-6) == pytest.approx(3e-3, rel=1e-6)

    def test_falls_with_amplitude(self):
        lim = HardLimiter(gm=3e-3, i_max=1e-3)
        gms = [effective_gm(lim, a) for a in (0.1, 1.0, 10.0, 100.0)]
        assert all(g1 >= g2 for g1, g2 in zip(gms, gms[1:]))

    def test_inverse_amplitude_rolloff(self):
        lim = HardLimiter(gm=3e-3, i_max=1e-3)
        g10 = effective_gm(lim, 10.0)
        g100 = effective_gm(lim, 100.0)
        assert g10 / g100 == pytest.approx(10.0, rel=1e-2)


class TestDeliveredPower:
    def test_power_is_half_a_i1(self):
        lim = HardLimiter(gm=5e-3, i_max=1e-3)
        a = 3.0
        assert delivered_power(lim, a) == pytest.approx(
            0.5 * a * fundamental_current(lim, a), rel=1e-9
        )


@settings(max_examples=50)
@given(
    gm=st.floats(1e-4, 1e-1),
    i_max=st.floats(1e-5, 1e-1),
    amp=st.floats(1e-3, 100.0),
)
def test_property_fundamental_bounds(gm, i_max, amp):
    """0 <= I1 <= min(gm*A, 4 IM/pi): linear cap and square-wave cap."""
    lim = HardLimiter(gm=gm, i_max=i_max)
    i1 = fundamental_current(lim, amp)
    assert i1 >= 0.0
    assert i1 <= gm * amp * (1 + 1e-9)
    assert i1 <= 4 * i_max / math.pi * (1 + 1e-9)


def _full_period_trapezoid(lim, amp, n=2048):
    """``(I1, mean |i|)`` by the plain n-point trapezoid over one period."""
    s = np.sin(2.0 * np.pi * np.arange(n) / n)
    i = lim.sample(amp * s)
    return float(np.sum(i * s)) * 2.0 / n, float(np.mean(np.abs(i)))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["tanh", "hard"]),
    gm=st.floats(1e-4, 1e-1),
    i_max=st.floats(1e-5, 1e-1),
    decades=st.floats(-6.0, 3.0),
)
def test_property_quarter_wave_matches_full_period(kind, gm, i_max, decades):
    """The quarter-wave quadrature equals the full-period trapezoid sum."""
    if kind == "tanh":
        lim = quad = TanhLimiter(gm=gm, i_max=i_max)
    else:
        lim = HardLimiter(gm=gm, i_max=i_max)
        quad = super(HardLimiter, lim)
    amp = lim.corner_voltage * 10.0**decades
    i1, mean_abs = _full_period_trapezoid(lim, amp)
    assert quad.fundamental(amp) == pytest.approx(i1, rel=1e-12)
    assert quad.mean_abs(amp) == pytest.approx(mean_abs, rel=1e-12)


@pytest.mark.parametrize("n", [2046, 0, -4])
def test_quadrature_points_must_be_positive_multiple_of_four(n):
    lim = TanhLimiter(gm=1e-3, i_max=1e-3)
    with pytest.raises(ConfigurationError):
        lim.fundamental(1.0, n=n)
    with pytest.raises(ConfigurationError):
        lim.mean_abs(1.0, n=n)
    with pytest.raises(ConfigurationError):
        super(HardLimiter, HardLimiter(gm=1e-3, i_max=1e-3)).fundamental(1.0, n=n)
