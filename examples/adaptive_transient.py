"""Adaptive time stepping on a stiff-then-slow transient.

The supply-loss scenario of paper §8, seen from the live tank: a
forced 4 MHz carrier, the drive collapses at the fault instant, the
tank rings down into the dead driver's ~10 kohm pins, and then a long
quiet tail follows.  A fixed step sized for the carrier pays
carrier-resolution cost over the whole record; the LTE controller
walks the quiet tail in steps ~100x larger at the same shape-level
accuracy.

Step-control knobs on :class:`repro.circuits.TransientOptions`:

``step_control``      "fixed" (default) or "adaptive".
``dt``                initial step (adaptive) / the grid (fixed).
``dt_min, dt_max``    hard step bounds; the controller moves on the
                      quantized grid dt_max/2^k between them, at most
                      one level up per accepted step, so the
                      per-step-size assembly caches are never
                      thrashed.  Keep dt_max at ~T_carrier/10 when an
                      envelope will be extracted from the result.
``lte_reltol``        accepted local error per step, relative to the
``lte_abstol``        live signal amplitude, plus an absolute floor
                      (volts) that lets tiny startup seeds take large
                      steps.
``breakpoints``       extra forced step boundaries; pulse/pwl/delayed
                      sine stimuli contribute theirs automatically so
                      the integrator never steps across an edge.

Run:  python examples/adaptive_transient.py
"""

import time

import numpy as np

from repro.analysis import render_series
from repro.circuits import TransientOptions, run_transient
from repro.core import supply_loss_tank_circuit

F0 = 4e6
T = 1.0 / F0
T_FAULT = 40 * T
T_STOP = 400 * T


def build_supply_loss_circuit():
    """Driven tank whose excitation dies at T_FAULT (a §8 supply loss).

    The library builder annotates the composite stimulus with a
    breakpoint at the fault instant, so the adaptive engine lands a
    step boundary exactly on the discontinuity — do the same (attach
    ``func.breakpoints = lambda t_stop: (...)``) to any custom
    stimulus with a kink or edge.
    """
    return supply_loss_tank_circuit(F0, T_FAULT)


def main() -> None:
    fixed_options = TransientOptions(
        t_stop=T_STOP,
        dt=T / 40,
        use_dc_operating_point=False,
    )
    adaptive_options = TransientOptions(
        t_stop=T_STOP,
        dt=T / 40,          # initial step: carrier resolution
        step_control="adaptive",
        dt_min=T / 640,     # breakpoint restarts may dip this low
        dt_max=8 * T,       # the quiet tail strides over 8 cycles/step
        lte_reltol=1e-3,
        lte_abstol=1e-6,
        use_dc_operating_point=False,
    )

    t0 = time.perf_counter()
    fixed = run_transient(build_supply_loss_circuit(), fixed_options)
    t_fixed = time.perf_counter() - t0
    t0 = time.perf_counter()
    adaptive = run_transient(build_supply_loss_circuit(), adaptive_options)
    t_adaptive = time.perf_counter() - t0

    wave = adaptive.differential("lc1", "lc2")
    print(render_series(
        wave.t * 1e6,
        wave.y,
        x_label="t (us)",
        y_label="V(LC1-LC2) (V)",
        title="Supply loss at t = 10 us: carrier, ring-down, quiet tail",
        max_points=24,
    ))

    stats = adaptive.stats
    dts = np.diff(wave.t)
    print(f"\nfixed grid    : {fixed.stats['steps']} steps, {t_fixed*1e3:.0f} ms")
    print(
        f"adaptive grid : {stats['accepted_steps']} accepted + "
        f"{stats['rejected_steps']} rejected steps, {t_adaptive*1e3:.0f} ms "
        f"({t_fixed / t_adaptive:.1f}x)"
    )
    print(
        f"step range    : {stats['min_dt']*1e9:.1f} ns .. "
        f"{stats['max_dt']*1e9:.0f} ns "
        f"({stats['max_dt']/stats['min_dt']:.0f}x dynamic range, "
        f"{stats['dt_cache_entries']} cached step sizes)"
    )
    print(
        f"grid density  : {np.sum(wave.t < T_FAULT)} samples before the "
        f"fault, {np.sum(wave.t >= 2 * T_FAULT)} in the tail "
        f"(breakpoints hit: {stats['breakpoints_hit']})"
    )


if __name__ == "__main__":
    main()
