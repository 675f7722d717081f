"""Averaged (envelope) oscillator models: tank math, describing
functions of saturating drivers, and amplitude dynamics."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".describing": ("HardLimiter", "K_SQUARE_WAVE", "LimiterCharacteristic",
                    "TanhLimiter", "delivered_power", "effective_gm",
                    "fundamental_current", "k_factor", "mean_abs_current"),
    ".phase_noise": ("LeesonModel",),
    ".locking": ("InjectionLocking", "frequency_mismatch_from_tolerances"),
    ".dynamics": ("EnvelopeModel", "small_signal_growth_rate",
                  "steady_state_amplitude"),
    ".tank": ("RLCTank",),
})
