"""Ragged working sets in the lockstep Newton kernel.

The kernel works on a full view of the batch while every sample is in
its Newton working set, and on index arrays once the set turns ragged:
samples skipped by an envelope mask, quarantined after a failure,
converged early, or split between the on-line and off-line branches.
Either way a sample's arithmetic is its own, so a sample that never
sits a step out must come out bit-identical, with the same Newton
count, whatever its neighbours do.
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


@settings(max_examples=20, deadline=None)
@given(campaigns())
def test_untouched_samples_match_the_unmasked_batch(campaign):
    seeds, spread, windows, kills = campaign
    n = len(seeds)
    skip = np.zeros((STEPS + 1, n), dtype=bool)
    for s, (start, stop) in enumerate(windows):
        skip[start:stop, s] = True
    untouched = [
        s for s in range(n) if not skip[:, s].any() and kills[s] is None
    ]
    if not untouched:
        kills[0], skip[:, 0] = None, False
        untouched = [0]

    plain = run_transient_batched([fig16_draw(x, spread) for x in seeds], options())

    circuits = [fig16_draw(x, spread) for x in seeds]
    kill_at = {
        id(c): k * T0 / 40 for c, k in zip(circuits, kills) if k is not None
    }
    masked_options = options()
    masked_options.newton.fail_hook = (
        lambda t, phase, c: id(c) in kill_at and t >= kill_at[id(c)] * (1 - 1e-12)
    )
    masked = run_transient_batched(
        circuits,
        masked_options,
        skip_mask=lambda t: skip[int(round(t / (T0 / 40)))],
    )
    assert [r.stats["quarantined"] for r in masked] == [k is not None for k in kills]
    for s in untouched:
        assert np.array_equal(masked[s].x, plain[s].x)
        assert (
            masked[s].stats["newton_iterations"] == plain[s].stats["newton_iterations"]
        )
