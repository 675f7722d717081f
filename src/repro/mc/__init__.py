"""Monte-Carlo and mismatch modelling."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".distributions": ("make_rng", "relative_errors"),
    ".mismatch": ("DEFAULT_SIGMAS", "MismatchProfile", "MismatchSigmas"),
    ".pelgrom": ("PelgromCoefficients", "current_mismatch_sigma", "sigmas_for_areas"),
    ".montecarlo": ("MonteCarloResult", "chain_metric", "run_monte_carlo"),
})
