"""The paper's contribution: exponential-PWL-DAC-controlled, safety-
monitored LC oscillator driver.

Key entry points:

* :class:`OscillatorDriverSystem` — the complete behavioural system,
* :class:`ExponentialPWLDAC` / :class:`HardwareDAC` — the current DACs,
* :func:`encode` — Table 1 control-bus coding,
* :class:`OscillatorNetlist` — carrier-level transient model,
* :func:`run_supply_loss_sweep` — the Fig 17/18 experiments,
* design equations in :mod:`repro.core.design_equations`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".area": ("AreaBudget", "default_area_budget"),
    ".amplitude_detector": ("AmplitudeDetector", "AsymmetryDetector", "DETECTOR_GAIN"),
    ".constants": ("I_LSB", "I_MAX_DRIVER", "MAX_CODE", "MAX_MULTIPLICATION_FACTOR",
                   "MAX_RELATIVE_STEP", "MIN_REGULATED_CODE", "N_CODES", "POR_CODE",
                   "REGULATION_PERIOD"),
    ".control_bus": ("ControlWord", "encode", "table1_rows"),
    ".dac": ("EQUIVALENT_LINEAR_BITS", "ExponentialPWLDAC", "HardwareDAC", "LinearDAC"),
    ".design_equations": ("critical_gm_lumped", "critical_gm_stage",
                          "current_limit_for_rms", "delta_for_range",
                          "exponential_current_law", "oscillation_condition_met",
                          "pwl_approximation_error", "relative_voltage_step",
                          "steady_state_peak", "steady_state_rms"),
    ".driver_iv": ("DriverIV", "driver_limiter_for_code", "static_iv_curve"),
    ".gm_block": ("GmBlock",),
    ".current_mirror": ("ComplementaryMirrors", "CurrentMirror"),
    ".oscillator_system": ("OscillatorConfig", "OscillatorDriverSystem", "PlantState",
                           "SystemTrace"),
    ".output_stage": ("TOPOLOGIES", "SupplyLossResult", "build_supply_loss_testbench",
                      "powered_output_low_voltage", "run_supply_loss_sweep"),
    ".prescaler": ("Prescaler",),
    ".regulation_loop": ("RegulationAction", "RegulationEvent", "RegulationLoop"),
    ".safety": ("FailureKind", "SafetyConfig", "SafetyMonitors", "SafetyReaction"),
    ".segments": ("SEGMENTS", "Segment", "all_multiplication_factors",
                  "code_for_factor", "join_code", "multiplication_factor",
                  "relative_step", "segment_of_code", "split_code"),
    ".startup": ("StartupPhase", "StartupSequencer", "startup_current_fraction"),
    ".transient_system": ("OscillatorNetlist", "TransientStartupResult",
                          "supply_loss_tank_circuit"),
    ".registers": ("ControlRegister", "StatusRegister"),
    ".vref_buffer": ("OVERDRIVE_CONSUMPTION_TYPICAL", "VrefBuffer"),
    ".clock_comparator": ("ClockComparator", "supervise_waveform"),
    ".window_comparator": ("ComparatorState", "WindowComparator", "design_window"),
})
