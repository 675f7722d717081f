"""Run options are honoured or rejected by every engine, never ignored.

The per-sample engine (fixed and adaptive grids), the lockstep engine
(both grids) and the cycle-skipping envelope engine share one
fixed-grid and one adaptive time loop.  Each run option below must
either show its effect in the result (a stats key, the abort reason,
an exact grid landing) or make the engine raise.  The regression
tests pin three options that an engine used to drop silently.
"""

import warnings

import numpy as np
import pytest

from repro.campaigns import BatchOptions, run_transient_campaign
from repro.circuits import (
    BatchIncompatible,
    EnvelopeOptions,
    PhaseSchedule,
    TransientOptions,
    run_transient,
    run_transient_batched,
    run_transient_envelope,
)
from repro.core import OscillatorNetlist
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.errors import SimulationError

F = 4e6
T = 1.0 / F
TANK = RLCTank.from_frequency_and_q(F, 15.0, 1e-6)
LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)


def _circuit():
    return OscillatorNetlist(TANK, vref=2.5).build(LIMITER)


class _Events:
    """A breakpoint source: anything with ``breakpoints(t_stop)``."""

    def __init__(self, *times):
        self.times = times

    def breakpoints(self, t_stop):
        return [t for t in self.times if t < t_stop]


def _options(cycles, step_control="fixed", **kw):
    return TransientOptions(
        t_stop=cycles * T,
        dt=T / 40,
        use_dc_operating_point=False,
        record_nodes=("lc1", "lc2"),
        step_control=step_control,
        **kw,
    )


def _envelope():
    return EnvelopeOptions(
        period=T,
        nodes=("lc1", "lc2"),
        model=EnvelopeModel(TANK, LIMITER),
        resolve_cycles=2,
        correct_cycles=1,
        skip_initial=2,
    )


def _scalar(step_control):
    return lambda kw: run_transient(_circuit(), _options(8, step_control, **kw))


def _lockstep(step_control):
    return lambda kw: run_transient_batched(
        [_circuit()], _options(8, step_control, **kw)
    )[0]


ENGINES = {
    "scalar-fixed": _scalar("fixed"),
    "scalar-adaptive": _scalar("adaptive"),
    "lockstep-fixed": _lockstep("fixed"),
    "lockstep-adaptive": _lockstep("adaptive"),
    "envelope": lambda kw: run_transient_envelope(
        _circuit(), _options(8, **kw), _envelope()
    ),
}

EVENTS = (2.3 * T, 5.1 * T)

#: option -> (TransientOptions keywords, effect the result must show).
OPTIONS = {
    "max_steps": (
        dict(max_steps=5, on_abort="partial"),
        lambda r: r.stats["abort_reason"] == "max_steps",
    ),
    "on_abort": (
        dict(max_steps=5, on_abort="partial"),
        lambda r: r.stats["completed"] is False and r.t[-1] < 8 * T,
    ),
    "guards": (dict(guards=True), lambda r: r.stats["health"] == []),
    "certify": (dict(certify=True), lambda r: r.stats["certified_steps"] > 0),
    "preflight": (dict(preflight="warn"), lambda r: "preflight" in r.stats),
    "phases": (
        dict(phases=PhaseSchedule.carrier_then_settle(4 * T)),
        lambda r: r.stats["phase_switches"] == 1,
    ),
    "breakpoint_sources": (
        dict(breakpoint_sources=(_Events(*EVENTS),)),
        lambda r: all(np.any(r.t == t) for t in EVENTS),
    ),
}

#: The (engine, option) pairs that must raise instead.  Phases and
#: event breakpoints are adaptive-grid features; the stacked lockstep
#: assembly has no live method switch.
REJECTED = {
    ("scalar-fixed", "phases"),
    ("scalar-fixed", "breakpoint_sources"),
    ("lockstep-fixed", "phases"),
    ("lockstep-fixed", "breakpoint_sources"),
    ("lockstep-adaptive", "phases"),
    ("envelope", "phases"),
    ("envelope", "breakpoint_sources"),
}


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_option_honoured_or_rejected(engine, option):
    kwargs, effect = OPTIONS[option]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if (engine, option) in REJECTED:
            with pytest.raises(SimulationError):
                ENGINES[engine](kwargs)
            return
        result = ENGINES[engine](kwargs)
    assert effect(result)


def test_max_steps_aborts_every_engine_by_default():
    for engine in sorted(ENGINES):
        with pytest.raises(SimulationError, match="max_steps"):
            ENGINES[engine](dict(max_steps=5))


class TestRegressions:
    def test_envelope_honours_run_options(self):
        """Fig 16, 200 cycles: the envelope engine used to run 800
        steps here and drop the abort and every health key."""
        options = _options(
            200,
            max_steps=10,
            on_abort="partial",
            certify=True,
            guards=True,
            preflight="warn",
            rescue=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = run_transient(_circuit(), options)
            env = run_transient_envelope(_circuit(), options, _envelope())
        assert plain.stats["abort_reason"] == "max_steps"
        for result in (plain, env):
            stats = result.stats
            assert stats["abort_reason"] == "max_steps"
            assert stats["steps"] == 10
            assert stats["certified_steps"] == 10
            assert stats["health"] == []
            assert "preflight" in stats
            assert stats["rescues"] == 0
        np.testing.assert_array_equal(env.t, plain.t)
        np.testing.assert_array_equal(env.x, plain.x)

    def test_lockstep_rejects_phases_and_campaign_falls_back(self):
        """A trap->gear schedule used to run on another grid with no
        phase switch; now lockstep refuses and the campaign runs the
        per-sample engine."""
        options = _options(
            40, "adaptive", phases=PhaseSchedule.carrier_then_settle(20 * T)
        )
        with pytest.raises(BatchIncompatible, match="phases"):
            run_transient_batched([_circuit()], options)
        solo = run_transient(_circuit(), options)
        assert solo.stats["phase_switches"] == 1
        (campaign,) = run_transient_campaign(
            [None],
            lambda _task: _circuit(),
            options,
            BatchOptions(batch_mode="vectorized"),
        )
        np.testing.assert_array_equal(campaign.t, solo.t)
        np.testing.assert_array_equal(campaign.x, solo.x)
        assert campaign.stats["phases"] == solo.stats["phases"]

    def test_lockstep_lands_on_breakpoint_sources(self):
        events = (7.3 * T, 13.1 * T)
        options = _options(
            20, "adaptive", breakpoint_sources=(_Events(*events),)
        )
        solo = run_transient(_circuit(), options)
        (stacked,) = run_transient_batched([_circuit()], options)
        for result in (solo, stacked):
            for t in events:
                assert np.any(result.t == t)
