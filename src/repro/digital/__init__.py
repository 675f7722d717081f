"""Digital building blocks: event kernel, watchdog, NVM, POR."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".events": ("EventScheduler", "RecurringEvent"),
    ".nvm": ("NonVolatileMemory",),
    ".por": ("PowerOnReset",),
    ".watchdog": ("WatchdogTimer",),
})
