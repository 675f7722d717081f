"""Ragged working sets in the lockstep Newton kernel.

The kernel takes a healthy path on full ``(S,)`` arrays while every
sample starts a step on the line and none sits it out, and a general
loop on index arrays once the set turns ragged: samples skipped by an
envelope mask, quarantined after a failure, converged early, or split
between the on-line and off-line branches.  Either way a sample's
arithmetic is its own, so a sample that never sits a step out must
come out bit-identical, with the same Newton count, whatever its
neighbours do; and forcing the general loop on every step must change
nothing at all.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits import TransientOptions, run_transient_batched
from repro.core import OscillatorNetlist
from repro.envelope import RLCTank, TanhLimiter
from repro.mc.mismatch import MismatchProfile, MismatchSigmas

F0 = 4e6
T0 = 1.0 / F0
STEPS = 8 * 40


def fig16_draw(seed, spread):
    """The Fig 16 startup netlist of one mismatch draw (Q and gm spread),
    with the matching sigmas scaled by ``spread``."""
    sigmas = MismatchSigmas(prescale=0.008 * spread, gm_stage=0.02 * spread)
    profile = MismatchProfile.sample(seed=seed, sigmas=sigmas)
    tank = RLCTank.from_frequency_and_q(
        F0, 15.0 * (1.0 + profile.prescale_errors[0]), 1e-6
    )
    limiter = TanhLimiter(gm=6e-3 * (1.0 + profile.gm_stage_errors[0]), i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def options(**kw):
    return TransientOptions(
        t_stop=STEPS * T0 / 40,
        dt=T0 / 40,
        use_dc_operating_point=False,
        quarantine=True,
        **kw,
    )


@st.composite
def campaigns(draw):
    n = draw(st.integers(3, 5))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    spread = draw(st.sampled_from([1.0, 10.0]))
    # Per sample: a window of skipped steps (empty when start == stop).
    windows = [
        tuple(sorted(draw(st.lists(st.integers(1, STEPS), min_size=2, max_size=2))))
        for _ in range(n)
    ]
    # Per sample: the step at which a fault quarantines it, or none.
    kills = draw(
        st.lists(st.one_of(st.none(), st.integers(1, STEPS)), min_size=n, max_size=n)
    )
    return seeds, spread, windows, kills


def masked_run(seeds, spread, skip, kills):
    """The campaign with each sample's skip window and quarantine kill."""
    circuits = [fig16_draw(x, spread) for x in seeds]
    kill_at = {
        id(c): k * T0 / 40 for c, k in zip(circuits, kills) if k is not None
    }
    masked_options = options()
    masked_options.newton.fail_hook = (
        lambda t, phase, c: id(c) in kill_at and t >= kill_at[id(c)] * (1 - 1e-12)
    )
    return run_transient_batched(
        circuits,
        masked_options,
        skip_mask=lambda t: skip[int(round(t / (T0 / 40)))],
    )


def masks(campaign):
    """Per step and sample, the skip mask; per sample, the kill step.
    Sample 0 stays untouched unless some other sample does."""
    seeds, _spread, windows, kills = campaign
    n = len(seeds)
    skip = np.zeros((STEPS + 1, n), dtype=bool)
    for s, (start, stop) in enumerate(windows):
        skip[start:stop, s] = True
    kills = list(kills)
    untouched = [
        s for s in range(n) if not skip[:, s].any() and kills[s] is None
    ]
    if not untouched:
        kills[0], skip[:, 0] = None, False
        untouched = [0]
    return skip, kills, untouched


@settings(max_examples=20, deadline=None)
@given(campaigns())
def test_untouched_samples_match_the_unmasked_batch(campaign):
    seeds, spread, _windows, _kills = campaign
    skip, kills, untouched = masks(campaign)
    plain = run_transient_batched([fig16_draw(x, spread) for x in seeds], options())
    masked = masked_run(seeds, spread, skip, kills)
    assert [r.stats["quarantined"] for r in masked] == [k is not None for k in kills]
    for s in untouched:
        assert np.array_equal(masked[s].x, plain[s].x)
        assert (
            masked[s].stats["newton_iterations"] == plain[s].stats["newton_iterations"]
        )


@settings(max_examples=20, deadline=None)
@given(campaigns())
def test_healthy_path_matches_the_general_loop(healthy_vs_general, campaign):
    seeds, spread, _windows, _kills = campaign
    skip, kills, _untouched = masks(campaign)
    _, gathers, general_gathers = healthy_vs_general(
        lambda: masked_run(seeds, spread, skip, kills)
    )
    # The healthy path runs on a step where no sample sits out, once the
    # predictor holds three points; elsewhere both runs gather alike.
    free = [
        k
        for k in range(3, STEPS + 1)
        if not skip[k].any() and all(kill is None or k < kill for kill in kills)
    ]
    assert gathers < general_gathers if free else gathers == general_gathers
