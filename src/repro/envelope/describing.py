"""Describing-function analysis of saturating driver characteristics.

The paper regulates amplitude by limiting the driver output current at
``±IM`` (Fig 2).  For a sinusoidal tank voltage ``v(t) = A sin(w t)``
the driver delivers a distorted current whose *fundamental, in-phase*
component is what sustains the oscillation; harmonics are filtered by
the high-Q tank.  This module computes:

* ``fundamental_current(A)`` — in-phase fundamental amplitude ``I1``,
* ``effective_gm(A) = I1 / A`` — the large-signal transconductance,
* ``k_factor(A)`` — the paper's ``k`` (Eq 3/4), defined through
  ``P_delivered = k * V_rms * IM``; for a fully-limited (square)
  current ``k = 2 sqrt(2) / pi ≈ 0.90``, matching the paper's
  "k ≈ 0.9 for linear approximation",
* ``mean_abs_current(A)`` — cycle-average of |i|, the dominant term of
  the driver supply-current model (§9).

:class:`HardLimiter` (the paper's Fig 2 characteristic) has closed
forms for all of these, which keeps the millisecond-scale regulation
simulation fast; other characteristics fall back to quadrature.

Every characteristic here is *odd*, ``i(-v) = -i(v)``, as the paper's
``±IM`` limiters are.  The quadrature relies on it: both integrands,
``f(A sin θ) sin θ`` and ``|f(A sin θ)|``, then have quarter-wave
symmetry, so the n-point full-period trapezoid sum equals
``4 Σ_{k=1}^{n/4-1} g(θ_k) + 2 g(π/2)`` with ``θ_k = 2πk/n``.  Each
evaluation therefore samples the characteristic at ``n/4 - 1`` cached
nodes plus the peak, instead of at all ``n``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "LimiterCharacteristic",
    "HardLimiter",
    "TanhLimiter",
    "hard_limiter_pair",
    "tanh_limiter_pair",
    "K_SQUARE_WAVE",
    "fundamental_current",
    "effective_gm",
    "k_factor",
    "delivered_power",
    "mean_abs_current",
]

#: k for a perfectly square (hard-limited) driver current, ``2*sqrt(2)/pi``.
K_SQUARE_WAVE = 2.0 * math.sqrt(2.0) / math.pi


@functools.lru_cache(maxsize=None)
def _quarter_wave_nodes(n: int) -> np.ndarray:
    """``sin(2πk/n)`` for ``k = 1 .. n/4 - 1``, built once per ``n``."""
    if n <= 0 or n % 4:
        raise ConfigurationError(
            f"quadrature points n must be a positive multiple of 4, got {n!r}"
        )
    nodes = np.sin((2.0 * np.pi / n) * np.arange(1, n // 4))
    nodes.flags.writeable = False
    return nodes


@dataclass(frozen=True)
class LimiterCharacteristic:
    """Base class: a memoryless, odd driver I–V characteristic ``i = f(v)``.

    Subclasses must satisfy ``f(-v) = -f(v)``: the quadrature defaults
    of :meth:`fundamental` and :meth:`mean_abs` integrate over a
    quarter period and unfold the rest by symmetry (module docstring),
    with ``n`` (a positive multiple of 4) full-period trapezoid points.

    Attributes
    ----------
    gm:
        Small-signal transconductance around v = 0.
    i_max:
        Output current limit ``IM`` (the regulated quantity).
    """

    gm: float
    i_max: float

    def __post_init__(self) -> None:
        if self.gm <= 0:
            raise ConfigurationError("gm must be positive")
        if self.i_max <= 0:
            raise ConfigurationError("i_max must be positive")

    @property
    def corner_voltage(self) -> float:
        """Voltage at which the linear region meets the limit."""
        return self.i_max / self.gm

    def __call__(self, v: float) -> float:
        raise NotImplementedError

    def value_and_slope(self, v: float) -> "tuple[float, float]":
        """``(i(v), di/dv)`` in one evaluation.

        Subclasses with a closed-form derivative override this; the
        MNA transient engine uses it to linearize the driver with a
        single characteristic evaluation per Newton iterate instead of
        three finite-difference ones.
        """
        raise NotImplementedError

    def sample(self, v: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (default: loop over scalars)."""
        return np.asarray([self(float(x)) for x in np.asarray(v).ravel()])

    def vector_pair_spec(self):
        """Batchable characteristic family, or ``None``.

        Returns ``(family, params)`` where ``family(v, *params)`` is a
        module-level callable evaluating ``(i, di/dv)`` elementwise on
        numpy arrays — the contract of ``NonlinearVCCS.vector_pair``.
        Two limiters of the same family differ only in ``params``, so
        the batched transient engine can stack many Monte-Carlo
        instances of a driver and linearize them in one call.  The
        base class has no closed-form slope, hence no family.
        """
        return None

    # -- describing-function quantities (quadrature defaults) ----------------

    def fundamental(self, amplitude: float, n: int = 2048) -> float:
        """In-phase fundamental amplitude ``I1(A)`` (quadrature)."""
        nodes = _quarter_wave_nodes(n)
        if amplitude < 0:
            raise ConfigurationError("amplitude must be non-negative")
        if amplitude == 0.0:
            return 0.0
        quarter = float(np.dot(self.sample(amplitude * nodes), nodes))
        return (4.0 * quarter + 2.0 * self(amplitude)) * 2.0 / n

    def mean_abs(self, amplitude: float, n: int = 2048) -> float:
        """Cycle-average of |i(A sin θ)| (quadrature)."""
        nodes = _quarter_wave_nodes(n)
        if amplitude < 0:
            raise ConfigurationError("amplitude must be non-negative")
        if amplitude == 0.0:
            return 0.0
        quarter = float(np.abs(self.sample(amplitude * nodes)).sum())
        return (4.0 * quarter + 2.0 * abs(self(amplitude))) / n


def hard_limiter_pair(v, gm, i_max):
    """Elementwise ``(i, di/dv)`` of a hard limiter (batchable family).

    Matches :meth:`HardLimiter.value_and_slope` bit for bit on scalars
    (same strict-inequality clipping convention).
    """
    i_lin = gm * np.asarray(v, dtype=float)
    limited = (i_lin > i_max) | (i_lin < -i_max)
    i = np.clip(i_lin, -i_max, i_max)
    slope = np.where(limited, 0.0, gm)
    return i, slope


def tanh_limiter_pair(v, gm, i_max):
    """Elementwise ``(i, di/dv)`` of a tanh limiter (batchable family)."""
    t = np.tanh(gm * np.asarray(v, dtype=float) / i_max)
    return i_max * t, gm * (1.0 - t * t)


class HardLimiter(LimiterCharacteristic):
    """Piece-wise-linear limiter of Fig 2: linear slope gm clipped at ±IM.

    ``fundamental`` and ``mean_abs`` use the classic clipped-sine
    closed forms (exact, fast).
    """

    def __call__(self, v: float) -> float:
        return float(np.clip(self.gm * v, -self.i_max, self.i_max))

    def value_and_slope(self, v: float) -> "tuple[float, float]":
        i = self.gm * v
        if i > self.i_max:
            return self.i_max, 0.0
        if i < -self.i_max:
            return -self.i_max, 0.0
        return i, self.gm

    def sample(self, v: np.ndarray) -> np.ndarray:
        return np.clip(self.gm * np.asarray(v, dtype=float), -self.i_max, self.i_max)

    def vector_pair_spec(self):
        return hard_limiter_pair, (self.gm, self.i_max)

    def fundamental(self, amplitude: float, n: int = 2048) -> float:
        if amplitude < 0:
            raise ConfigurationError("amplitude must be non-negative")
        if amplitude == 0.0:
            return 0.0
        v0 = self.corner_voltage
        if amplitude <= v0:
            return self.gm * amplitude
        theta_c = math.asin(v0 / amplitude)
        return (4.0 / math.pi) * (
            self.gm * amplitude * (0.5 * theta_c - 0.25 * math.sin(2.0 * theta_c))
            + self.i_max * math.cos(theta_c)
        )

    def mean_abs(self, amplitude: float, n: int = 2048) -> float:
        if amplitude < 0:
            raise ConfigurationError("amplitude must be non-negative")
        if amplitude == 0.0:
            return 0.0
        v0 = self.corner_voltage
        if amplitude <= v0:
            return (2.0 / math.pi) * self.gm * amplitude
        theta_c = math.asin(v0 / amplitude)
        return (2.0 / math.pi) * (
            self.gm * amplitude * (1.0 - math.cos(theta_c))
            + self.i_max * (0.5 * math.pi - theta_c)
        )


class TanhLimiter(LimiterCharacteristic):
    """Smooth limiter ``IM * tanh(gm v / IM)`` (differential-pair-like).

    Used for transient simulation where a C1-continuous characteristic
    improves Newton convergence; its describing function is within a
    few percent of the hard limiter once well into limiting.
    """

    def __call__(self, v: float) -> float:
        return float(self.i_max * math.tanh(self.gm * v / self.i_max))

    def value_and_slope(self, v: float) -> "tuple[float, float]":
        t = math.tanh(self.gm * v / self.i_max)
        return self.i_max * t, self.gm * (1.0 - t * t)

    def sample(self, v: np.ndarray) -> np.ndarray:
        return self.i_max * np.tanh(self.gm * np.asarray(v, dtype=float) / self.i_max)

    def vector_pair_spec(self):
        return tanh_limiter_pair, (self.gm, self.i_max)


def fundamental_current(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """In-phase fundamental amplitude ``I1`` of the driver current.

    ``I1 = (1/pi) * ∫ f(A sin θ) sin θ dθ`` over one period.
    """
    return limiter.fundamental(amplitude, n=n)


def effective_gm(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """Large-signal transconductance ``Gm_eff(A) = I1(A)/A``.

    Tends to ``gm`` for small amplitudes and falls off as ``~1/A`` once
    limiting dominates — this is the mechanism that stabilizes the
    oscillation amplitude.
    """
    if amplitude <= 0:
        return limiter.gm
    return limiter.fundamental(amplitude, n=n) / amplitude


def delivered_power(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """Average power delivered to the tank at peak amplitude ``A``.

    Only the in-phase fundamental delivers net power into a high-Q
    resonant load: ``P = A * I1 / 2``.
    """
    return 0.5 * amplitude * limiter.fundamental(amplitude, n=n)


def mean_abs_current(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """Cycle-average |i| — the driver's signal-path supply current."""
    return limiter.mean_abs(amplitude, n=n)


def k_factor(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """The paper's ``k``: ``P_delivered = k * V_rms * IM`` (Eq 3).

    For a hard limiter deep in limiting this approaches
    :data:`K_SQUARE_WAVE` ≈ 0.9003.
    """
    if amplitude <= 0:
        raise ConfigurationError("k_factor needs a positive amplitude")
    v_rms = amplitude / math.sqrt(2.0)
    return delivered_power(limiter, amplitude, n=n) / (v_rms * limiter.i_max)
