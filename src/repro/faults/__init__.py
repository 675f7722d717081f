"""FMEA fault catalog, injection campaign and coverage reporting."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".campaign": ("CampaignResult", "FaultCampaign", "FaultResult"),
    ".coverage": ("coverage_summary", "coverage_table"),
    ".models": ("FaultSpec", "fault_by_name", "standard_fault_catalog"),
})
