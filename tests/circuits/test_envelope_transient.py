"""Tests for the cycle-skipping envelope transient engine (Fig 16).

The paper's envelope claim: the startup envelope of the driven LC
oscillator is reproduced by resolving only a small number of carrier
cycles and advancing the rest with the describing-function amplitude
ODE.  These tests pin the engine against the carrier-resolved golden
run, the ``skip="off"`` bit-identity contract, the re-anchor
shrink-on-mismatch control loop, and warm-start accept/reject.
"""

import numpy as np
import pytest

from repro.circuits import (
    EnvelopeOptions,
    TransientOptions,
    run_transient,
    run_transient_envelope,
)
from repro.core import OscillatorNetlist
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.errors import SimulationError

F = 4e6
T = 1.0 / F


def _tank():
    return RLCTank.from_frequency_and_q(F, 15.0, 1e-6)


def _limiter(i_max=2e-3):
    return TanhLimiter(gm=6e-3, i_max=i_max)


def _circuit(i_max=2e-3):
    return OscillatorNetlist(_tank(), vref=2.5).build(_limiter(i_max))


def _model(i_max=2e-3):
    return EnvelopeModel(_tank(), _limiter(i_max))


def _options(cycles):
    return TransientOptions(
        t_stop=cycles * T,
        dt=T / 40,
        method="trap",
        use_dc_operating_point=False,
        record_nodes=("lc1", "lc2"),
    )


def _envelope(**kw):
    kw.setdefault("model", _model())
    return EnvelopeOptions(period=T, nodes=("lc1", "lc2"), **kw)


def _settled_amplitude(result, t_stop):
    window = result.differential("lc1", "lc2").window(t_stop - 2 * T, t_stop)
    return 0.5 * window.peak_to_peak()


class TestFig16Equivalence:
    def test_envelope_matches_carrier_within_1pct_at_10x(self):
        options = _options(400)
        gold = run_transient(_circuit(), options)
        env = run_transient_envelope(_circuit(), options, _envelope())
        e = env.stats["envelope"]
        # >= 10x fewer resolved cycles than the carrier-resolved run.
        assert e["resolved_cycles"] * 10 <= e["total_cycles"]
        a_gold = _settled_amplitude(gold, options.t_stop)
        a_env = e["final"]["amplitude"]
        assert abs(a_env - a_gold) / a_gold <= 0.01
        # Provenance covers every record and the segments tile the run.
        assert len(e["provenance"]) == len(env.t)
        assert set(e["provenance"]) == {"resolved", "skipped"}
        kinds = {seg["kind"] for seg in e["segments"]}
        assert kinds == {"resolved", "skipped"}
        assert e["resolved_cycles"] + e["skipped_cycles"] == pytest.approx(
            e["total_cycles"]
        )

    def test_skipped_landings_track_gold_envelope(self):
        options = _options(400)
        gold = run_transient(_circuit(), options)
        env = run_transient_envelope(_circuit(), options, _envelope())
        gold_env = np.abs(gold.differential("lc1", "lc2").y)
        e = env.stats["envelope"]
        # Every skip-landing sample stays inside the gold envelope
        # (plus the skip tolerance): the predictor never runs away.
        d = env.differential("lc1", "lc2")
        for t_i, x_i, src in zip(env.t, d.y, e["provenance"]):
            if src != "skipped":
                continue
            k = int(np.searchsorted(gold.t, t_i))
            lo, hi = max(0, k - 80), min(len(gold_env), k + 80)
            assert abs(x_i) <= gold_env[lo:hi].max() * 1.10


class TestFig16SkipSchedule:
    def test_400_cycle_schedule_is_pinned(self):
        """The skip schedule ``run_perf``'s fig16_startup_envelope records.

        A rounding change in the describing-function predictor that
        flips a single skip decision moves at least one of these counts.
        """
        env = run_transient_envelope(_circuit(), _options(400), _envelope())
        e = env.stats["envelope"]
        assert e["resolved_cycles"] == 22
        assert len(e["skip_history"]) == 9
        assert e["final"]["skip"] == 256
        assert env.stats["newton_iterations"] == 1703


class TestSkipOffBitIdentity:
    def test_skip_off_matches_plain_engine_bitwise(self):
        options = _options(60)
        ref = run_transient(_circuit(), options)
        off = run_transient_envelope(_circuit(), options, _envelope(skip="off"))
        np.testing.assert_array_equal(off.t, ref.t)
        np.testing.assert_allclose(off.x, ref.x, rtol=0, atol=0)
        e = off.stats["envelope"]
        assert e["skip"] == "off"
        assert all(p == "resolved" for p in e["provenance"])
        assert len(e["segments"]) == 1


class TestReAnchorControl:
    def test_wrong_predictor_shrinks_skip(self):
        # A deliberately wrong describing function (2x the limiter
        # current) predicts a settled amplitude ~2x too high: every
        # correction burst must flag the mismatch and shrink the skip
        # length instead of letting it grow.
        options = _options(200)
        wrong = EnvelopeModel(_tank(), _limiter(i_max=4e-3))
        env = run_transient_envelope(
            _circuit(), options, _envelope(model=wrong)
        )
        e = env.stats["envelope"]
        history = e["skip_history"]
        assert history, "no skips were attempted"
        mismatched = [h for h in history if h["mismatch"] > 0.02]
        assert mismatched, "wrong predictor never flagged a mismatch"
        # Shrink events follow mismatches; the skip ladder cannot grow
        # past the initial length while the predictor keeps failing.
        assert any(
            later["skip"] < earlier["skip"]
            for earlier, later in zip(history, history[1:])
        )
        settled = [h for h in history if h["mismatch"] > 0.02]
        assert min(h["skip"] for h in settled) <= 8

    def test_exact_predictor_grows_skip(self):
        options = _options(400)
        env = run_transient_envelope(_circuit(), options, _envelope())
        history = env.stats["envelope"]["skip_history"]
        assert max(h["skip"] for h in history) > 8


class TestWarmStart:
    def test_warm_start_accepted_saves_resolved_cycles(self):
        options = _options(200)
        cold = run_transient_envelope(_circuit(), options, _envelope())
        final = dict(cold.stats["envelope"]["final"])
        warm = run_transient_envelope(
            _circuit(), options, _envelope(warm_start=final)
        )
        ew = warm.stats["envelope"]
        assert ew["warm_start"] == "accepted"
        assert (
            ew["resolved_cycles"] < cold.stats["envelope"]["resolved_cycles"]
        )
        a_cold = cold.stats["envelope"]["final"]["amplitude"]
        assert ew["final"]["amplitude"] == pytest.approx(a_cold, rel=0.01)

    def test_bad_warm_start_rejected_cold_fallback(self):
        # A warm skip with no amplitude regime attached is tried
        # immediately — mid-startup, where a settled-regime skip
        # length cannot hold.  The correction burst must reject it and
        # fall back to the cold schedule without losing accuracy.
        options = _options(200)
        gold = run_transient(_circuit(), options)
        warm = run_transient_envelope(
            _circuit(), options, _envelope(warm_start={"skip": 256})
        )
        e = warm.stats["envelope"]
        assert e["warm_start"] == "rejected"
        a_gold = _settled_amplitude(gold, options.t_stop)
        assert abs(e["final"]["amplitude"] - a_gold) / a_gold <= 0.015

    def test_malformed_warm_start_raises(self):
        options = _options(60)
        with pytest.raises(SimulationError):
            run_transient_envelope(
                _circuit(), options, _envelope(warm_start={"skip": "many"})
            )


class TestValidation:
    def test_requires_fixed_grid(self):
        options = _options(60)
        options.step_control = "adaptive"
        with pytest.raises(SimulationError):
            run_transient_envelope(_circuit(), options, _envelope())

    def test_period_must_be_integer_cycles(self):
        options = _options(60)
        options.dt = T / 39.5
        with pytest.raises(SimulationError):
            run_transient_envelope(_circuit(), options, _envelope())
