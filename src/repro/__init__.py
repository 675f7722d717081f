"""repro — reproduction of Horsky, "LC Oscillator Driver for Safety
Critical Applications" (DATE 2005).

The package is organized as:

* :mod:`repro.core` — the paper's contribution (exponential PWL DAC,
  current-limited Gm driver, digital amplitude regulation, safety
  monitors, supply-loss tolerant output stage);
* :mod:`repro.circuits` — a SPICE-like MNA circuit simulator;
* :mod:`repro.envelope` — tank math, describing functions, envelope ODE;
* :mod:`repro.digital` — event kernel, watchdog, NVM, POR;
* :mod:`repro.mc` — mismatch and Monte-Carlo;
* :mod:`repro.faults` — FMEA fault catalog and campaign;
* :mod:`repro.campaigns` — shared batch-campaign engine (sequential,
  warm-started, or process-parallel execution of many runs);
* :mod:`repro.sensor` — the position-sensor application (Fig 9);
* :mod:`repro.analysis` — waveforms and measurements.

Quickstart::

    from repro import OscillatorConfig, OscillatorDriverSystem, RLCTank

    tank = RLCTank.from_frequency_and_q(4e6, quality_factor=30,
                                        inductance=1e-6)
    system = OscillatorDriverSystem(OscillatorConfig(tank=tank))
    trace = system.run(0.05)
    print(trace.final_amplitude, trace.final_code)

``import repro`` loads no subpackage.  Each name below, and each
subpackage reached as an attribute (``repro.circuits``), loads on first
access through the shared lazy-export idiom of :mod:`repro._lazy`; every
package of the library exports its names the same way.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".analysis": ("Waveform",),
    ".campaigns": ("BatchOptions", "run_batch", "run_chain"),
    ".core": ("ExponentialPWLDAC", "FailureKind", "HardwareDAC", "OscillatorConfig",
              "OscillatorDriverSystem", "OscillatorNetlist", "encode",
              "multiplication_factor", "run_supply_loss_sweep"),
    ".envelope": ("EnvelopeModel", "HardLimiter", "InjectionLocking", "LeesonModel",
                  "RLCTank", "TanhLimiter"),
    ".errors": ("ReproError",),
    ".faults": ("FaultCampaign", "standard_fault_catalog"),
    ".mc": ("MismatchProfile",),
    ".sensor": ("DualCoSimulation", "DualSystemScenario", "PositionReceiver"),
}, submodules=("analysis", "campaigns", "circuits", "core", "digital", "envelope",
               "errors", "faults", "mc", "sensor", "units"))
__all__.append("__version__")
