"""Independent voltage and current sources with time-dependent values.

A source value is either a constant or a *waveform function* of time.
Factory helpers build the common SPICE-style stimuli (DC, sine, pulse,
piece-wise linear).

Breakpoints
-----------
The adaptive transient engine must not integrate *across* a stimulus
discontinuity (a pulse edge, a PWL corner, a delayed sine turning on):
the local-truncation-error estimate is blind to an event that falls
strictly inside a step.  Each stimulus factory therefore annotates the
function it returns with the times where its derivative is
discontinuous; :func:`source_breakpoints` recovers them for any value
function, returning an empty tuple for plain callables that carry no
annotation (which is always safe — merely slower, never wrong, for
genuinely smooth stimuli).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from ..errors import NetlistError
from .component import ACStampContext, Component, StampContext

__all__ = [
    "VoltageSource",
    "CurrentSource",
    "dc",
    "sine",
    "pulse",
    "pwl",
    "source_breakpoints",
]

ValueSpec = Union[float, Callable[[float], float]]

#: Safety cap on generated breakpoints (a fast periodic pulse over a
#: long run would otherwise enumerate millions of edges).
_MAX_BREAKPOINTS = 10_000


def source_breakpoints(func: Callable[[float], float], t_stop: float) -> Tuple[float, ...]:
    """Derivative-discontinuity times of a stimulus in ``(0, t_stop)``.

    Stimuli built by the factories in this module carry a
    ``breakpoints(t_stop)`` annotation; anything else (plain lambdas,
    :func:`dc`) yields no breakpoints.
    """
    generator = getattr(func, "breakpoints", None)
    if generator is None:
        return ()
    return tuple(t for t in generator(t_stop) if 0.0 < t < t_stop)


def dc(value: float) -> Callable[[float], float]:
    """Constant stimulus.

    The returned function carries a ``constant`` annotation so batch
    engines can hoist the value out of their time loops.
    """
    def _f(_t: float) -> float:
        return value
    _f.constant = float(value)
    return _f


def sine(
    amplitude: float,
    frequency: float,
    offset: float = 0.0,
    phase_deg: float = 0.0,
    delay: float = 0.0,
) -> Callable[[float], float]:
    """``offset + amplitude*sin(2*pi*f*(t-delay) + phase)`` (0 before delay)."""
    if frequency <= 0:
        raise NetlistError("sine(): frequency must be positive")
    phase = math.radians(phase_deg)

    def _f(t: float) -> float:
        if t < delay:
            return offset + amplitude * math.sin(phase)
        return offset + amplitude * math.sin(2.0 * math.pi * frequency * (t - delay) + phase)

    if delay > 0.0:
        _f.breakpoints = lambda t_stop: (delay,)
    return _f


def pulse(
    v1: float,
    v2: float,
    delay: float = 0.0,
    rise: float = 1e-9,
    fall: float = 1e-9,
    width: float = 1e-6,
    period: float = float("inf"),
) -> Callable[[float], float]:
    """SPICE-style pulse between ``v1`` and ``v2``."""
    if rise <= 0 or fall <= 0 or width < 0:
        raise NetlistError("pulse(): rise/fall must be positive, width >= 0")

    def _f(t: float) -> float:
        if t < delay:
            return v1
        tau = t - delay
        if math.isfinite(period):
            tau = tau % period
        if tau < rise:
            return v1 + (v2 - v1) * tau / rise
        tau -= rise
        if tau < width:
            return v2
        tau -= width
        if tau < fall:
            return v2 + (v1 - v2) * tau / fall
        return v1

    def _breakpoints(t_stop: float):
        edges = (delay, delay + rise, delay + rise + width, delay + rise + width + fall)
        if not math.isfinite(period):
            return edges
        out = []
        cycle = 0
        while len(out) < _MAX_BREAKPOINTS:
            base = cycle * period
            if base + delay >= t_stop:
                break
            out.extend(base + e for e in edges)
            cycle += 1
        return out

    _f.breakpoints = _breakpoints
    return _f


def pwl(points: Sequence[Tuple[float, float]]) -> Callable[[float], float]:
    """Piece-wise-linear stimulus through (time, value) points."""
    if len(points) < 2:
        raise NetlistError("pwl(): need at least two points")
    times = np.asarray([p[0] for p in points], dtype=float)
    values = np.asarray([p[1] for p in points], dtype=float)
    if not np.all(np.diff(times) > 0):
        raise NetlistError("pwl(): times must be strictly increasing")

    def _f(t: float) -> float:
        return float(np.interp(t, times, values))

    _f.breakpoints = lambda t_stop: tuple(float(t) for t in times)
    return _f


def _values_at(source, times: Sequence[float]) -> np.ndarray:
    """``source.value_at`` at each of ``times``, called one by one: a
    vectorized ``np.sin`` or ``np.interp`` need not round as the scalar
    functions do."""
    return np.fromiter(map(source.value_at, times), float, len(times))


class VoltageSource(Component):
    """Independent voltage source from ``n+`` to ``n-``.

    Positive branch current flows from ``n+`` through the source to
    ``n-`` (i.e. a positive current means the source is *sinking*
    current at its positive terminal, SPICE convention).
    """

    n_branches = 1
    supports_stamp_split = True

    def __init__(self, name: str, positive: str, negative: str, value: ValueSpec, ac_magnitude: float = 0.0):
        super().__init__(name, (positive, negative))
        self._func = value if callable(value) else dc(float(value))
        self.ac_magnitude = float(ac_magnitude)

    def value_at(self, t: float) -> float:
        return float(self._func(t))

    def set_value(self, value: ValueSpec) -> None:
        """Replace the stimulus (used by DC sweeps and fault injection)."""
        self._func = value if callable(value) else dc(float(value))

    def breakpoints(self, t_stop: float) -> Tuple[float, ...]:
        """Stimulus discontinuity times for adaptive step control."""
        return source_breakpoints(self._func, t_stop)

    def stamp(self, ctx: StampContext) -> None:
        self.stamp_static(ctx)
        self.stamp_dynamic(ctx)

    def stamp_static(self, ctx: StampContext) -> None:
        a, b = self._n
        br = self._b[0]
        sys = ctx.system
        sys.add_G(a, br, 1.0)
        sys.add_G(b, br, -1.0)
        sys.add_G(br, a, 1.0)
        sys.add_G(br, b, -1.0)

    def stamp_dynamic(self, ctx: StampContext) -> None:
        ctx.system.add_rhs(
            self._b[0], ctx.source_scale * self.value_at(ctx.time)
        )

    def stamp_times(
        self, rhs: np.ndarray, times: Sequence[float], scale: float = 1.0
    ) -> None:
        """:meth:`stamp_dynamic` at each of ``times``, into the rows of
        ``rhs`` (one per time): the same values, added the same way."""
        rhs[:, self._b[0]] += scale * _values_at(self, times)

    def stamp_ac(self, ctx: ACStampContext) -> None:
        a, b = self._n
        br = self._b[0]
        ctx.add_G(a, br, 1.0)
        ctx.add_G(b, br, -1.0)
        ctx.add_G(br, a, 1.0)
        ctx.add_G(br, b, -1.0)
        ctx.add_rhs(br, self.ac_magnitude)

    def current(self, x: np.ndarray) -> float:
        """Branch current (positive flowing n+ -> source -> n-)."""
        return float(x[self._b[0]])


class CurrentSource(Component):
    """Independent current source driving current from ``n+`` to ``n-``.

    SPICE convention: the source removes current from the ``n+`` node
    and injects it into the ``n-`` node.
    """

    supports_stamp_split = True

    def __init__(self, name: str, positive: str, negative: str, value: ValueSpec, ac_magnitude: float = 0.0):
        super().__init__(name, (positive, negative))
        self._func = value if callable(value) else dc(float(value))
        self.ac_magnitude = float(ac_magnitude)

    def value_at(self, t: float) -> float:
        return float(self._func(t))

    def set_value(self, value: ValueSpec) -> None:
        self._func = value if callable(value) else dc(float(value))

    def breakpoints(self, t_stop: float) -> Tuple[float, ...]:
        """Stimulus discontinuity times for adaptive step control."""
        return source_breakpoints(self._func, t_stop)

    def stamp(self, ctx: StampContext) -> None:
        self.stamp_dynamic(ctx)

    def stamp_static(self, ctx: StampContext) -> None:
        """A current source has no matrix footprint at all."""

    def stamp_dynamic(self, ctx: StampContext) -> None:
        current = ctx.source_scale * self.value_at(ctx.time)
        ctx.system.stamp_current(self._n[0], self._n[1], current)

    def stamp_times(
        self, rhs: np.ndarray, times: Sequence[float], scale: float = 1.0
    ) -> None:
        """:meth:`stamp_dynamic` at each of ``times``, into the rows of
        ``rhs`` (one per time): the same values, added the same way."""
        current = scale * _values_at(self, times)
        a, b = self._n
        if a >= 0:
            rhs[:, a] += -current
        if b >= 0:
            rhs[:, b] += current

    def stamp_ac(self, ctx: ACStampContext) -> None:
        ctx.add_rhs(self._n[0], -self.ac_magnitude)
        ctx.add_rhs(self._n[1], self.ac_magnitude)
