"""Waveform containers and measurement utilities."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".waveform": ("Waveform",),
    ".measurements": ("StepEvent", "amplitude_peak", "amplitude_rms_of_sine",
                      "crossing_time", "find_steps", "oscillation_frequency",
                      "oscillation_period", "settling_time", "zero_crossings"),
    ".envelope_extract": ("envelope_by_peaks", "envelope_by_rectify_filter"),
    ".io": ("load_columns_csv", "load_waveform_csv", "save_columns_csv",
            "save_waveform_csv"),
    ".spectrum": ("HarmonicSpectrum", "harmonic_spectrum", "tank_harmonic_rejection",
                  "thd"),
    ".tables": ("format_si", "render_series", "render_table"),
})
