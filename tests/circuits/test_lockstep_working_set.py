"""Ragged working sets in the lockstep Newton kernel.

The kernel takes a healthy path on full ``(S,)`` arrays while every
sample starts a step on the line and none sits it out, and a general
loop on index arrays once the set turns ragged: samples quarantined
after a failure, converged early, or split between the on-line and
off-line branches.  Either way a sample's arithmetic is its own, so a
sample that never sits a step out must come out bit-identical, with
the same Newton count, whatever its neighbours do; and forcing the
general loop on every step must change nothing at all.
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
    # Per sample: the step at which a fault quarantines it, or none.
    kills = draw(
        st.lists(st.one_of(st.none(), st.integers(1, STEPS)), min_size=n, max_size=n)
    )
    return seeds, spread, kills


def killed_run(seeds, spread, kills):
    """The campaign with each sample's quarantine kill."""
    circuits = [fig16_draw(x, spread) for x in seeds]
    kill_at = {
        id(c): k * T0 / 40 for c, k in zip(circuits, kills) if k is not None
    }
    killed_options = options()
    killed_options.newton.fail_hook = (
        lambda t, phase, c: id(c) in kill_at and t >= kill_at[id(c)] * (1 - 1e-12)
    )
    return run_transient_batched(circuits, killed_options)


def untouched_samples(campaign):
    """Per sample, the kill step; and the samples never killed.
    Sample 0 stays untouched unless some other sample does."""
    seeds, _spread, kills = campaign
    kills = list(kills)
    untouched = [s for s in range(len(seeds)) if kills[s] is None]
    if not untouched:
        kills[0] = None
        untouched = [0]
    return kills, untouched


@settings(max_examples=20, deadline=None)
@given(campaigns())
def test_untouched_samples_match_the_unmasked_batch(campaign):
    seeds, spread, _kills = campaign
    kills, untouched = untouched_samples(campaign)
    plain = run_transient_batched([fig16_draw(x, spread) for x in seeds], options())
    killed = killed_run(seeds, spread, kills)
    assert [r.stats["quarantined"] for r in killed] == [k is not None for k in kills]
    for s in untouched:
        assert np.array_equal(killed[s].x, plain[s].x)
        assert (
            killed[s].stats["newton_iterations"] == plain[s].stats["newton_iterations"]
        )


@settings(max_examples=20, deadline=None)
@given(campaigns())
def test_healthy_path_matches_the_general_loop(healthy_vs_general, campaign):
    seeds, spread, _kills = campaign
    kills, _untouched = untouched_samples(campaign)
    _, gathers, general_gathers = healthy_vs_general(
        lambda: killed_run(seeds, spread, kills)
    )
    # The healthy path runs on a step where no sample sits out, once the
    # predictor holds three points; elsewhere both runs gather alike.
    free = [
        k
        for k in range(3, STEPS + 1)
        if all(kill is None or k < kill for kill in kills)
    ]
    assert gathers < general_gathers if free else gathers == general_gathers
