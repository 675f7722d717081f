"""Spies on the lockstep rank-1 Newton kernel, shared by the batched
engine's tests as fixtures that hand out the spy functions."""

import numpy as np
import pytest

from repro.circuits import batched
from repro.circuits.batched import _BatchedStepSolver, _DeviceColumn


def _newton_iterates(monkeypatch):
    """Spy on the batched rank-1 kernel: per lockstep step, each
    sample's control voltages at its Newton linearizations."""
    steps = []
    step_rank1 = _BatchedStepSolver._step_rank1
    linearize = _DeviceColumn.linearize

    def spy_step(self, x, rhs_lin, time):
        steps.append([[] for _ in range(len(x))])
        return step_rank1(self, x, rhs_lin, time)

    def spy_linearize(self, v_ctrl, rows):
        for s, v in zip(np.arange(len(self.devices))[rows], v_ctrl):
            steps[-1][s].append(float(v))
        return linearize(self, v_ctrl, rows)

    monkeypatch.setattr(_BatchedStepSolver, "_step_rank1", spy_step)
    monkeypatch.setattr(_DeviceColumn, "linearize", spy_linearize)
    return steps


def _never_none(self):
    """``freeze`` with ``None`` read as an all-False mask: it sits no
    sample out, but it is not the healthy path's ``None``."""
    mask = self.assembly.freeze
    if mask is None:
        return np.zeros(self.assembly.n_samples, dtype=bool)
    return mask


def _healthy_vs_general(run):
    """Call ``run()`` on the healthy path, then with every rank-1 step
    sent through the general Newton loop, and assert the same
    solutions, Newton counts, quarantines and per-step iterates, with
    one linearization per Newton iteration (none evaluated twice).
    Returns the healthy run's results and the working-set gathers
    (``_subset`` calls) of each run."""
    runs = []
    for general in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            steps = _newton_iterates(mp)
            gathers = []
            subset = batched._subset
            mp.setattr(
                batched,
                "_subset",
                lambda rows, mask: gathers.append(1) or subset(rows, mask),
            )
            if general:
                mp.setattr(_BatchedStepSolver, "freeze", property(_never_none))
            results = run()
        runs.append((results, steps, len(gathers)))
    (healthy, steps, gathers), (general, general_steps, general_gathers) = runs
    for a, b in zip(healthy, general):
        assert np.array_equal(a.x, b.x)
        assert a.stats["newton_iterations"] == b.stats["newton_iterations"]
        assert a.stats.get("quarantined") == b.stats.get("quarantined")
    assert steps == general_steps
    for s, result in enumerate(healthy):
        linearized = sum(len(iterates[s]) for iterates in steps)
        assert linearized == result.stats["newton_iterations"]
    return healthy, gathers, general_gathers


@pytest.fixture(scope="session")
def newton_iterates():
    """``newton_iterates(monkeypatch)`` installs the Newton spy and
    returns its per-step, per-sample iterate lists."""
    return _newton_iterates


@pytest.fixture(scope="session")
def healthy_vs_general():
    """``healthy_vs_general(run)``: the healthy path against the forced
    general loop on ``run()``'s batch (see ``_healthy_vs_general``)."""
    return _healthy_vs_general
