"""Averaged (envelope) dynamics of the driven LC oscillator.

Energy-balance averaging over one carrier cycle gives the amplitude
ODE::

    dA/dt = (I1(A) - A / Rp) / (2 C_diff)

where ``A`` is the peak differential tank voltage, ``I1`` the in-phase
fundamental of the limited driver current, ``Rp`` the tank's parallel
loss resistance, and ``C_diff = C/2`` the differential capacitance.
This reduces the 2–5 MHz problem to the millisecond time scale of the
regulation loop, and is cross-validated against the full MNA transient
in the test suite.

:meth:`EnvelopeModel.advance` — the cycle-skipping engine's predictor —
evaluates ``I1`` from a table each model builds for its limiter, since
one exact quadrature costs more than the rest of an RK4 stage many
times over.  The table holds ``h(s) = I1(A) / (v_c s)`` over
``s = A / (A + v_c)``, with ``v_c`` the limiter's corner voltage: ``h``
runs from ``gm`` at ``s = 0`` to ``4 gm / pi`` as ``s -> 1``, so one
table keeps uniform relative accuracy from the noise floor into deep
limiting.  It covers ``A < A_hi = 1.25 max(a0, (4/pi) Rp IM)``, an a-priori
bound because ``|I1| <= 4 IM / pi`` for any characteristic bounded by
``±IM``.  A degree-64 Chebyshev interpolant of exact ``fundamental``
values is resampled into 256 quintic Hermite pieces and checked against
the exact values at 32 piece midpoints; a table off by more than 1e-12
relative anywhere there is dropped and ``advance`` integrates the exact
:meth:`EnvelopeModel.derivative` (e.g. the hard limiter, whose
describing function has a kink, or amplitudes where the quadrature
itself no longer converges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .._lazy import LazyModule
from ..analysis.waveform import Waveform
from ..errors import ConfigurationError, SimulationError
from .describing import LimiterCharacteristic, fundamental_current
from .tank import RLCTank

# scipy.fft and scipy.integrate load on the first call of the two
# functions that use them (``_FundamentalTable.build``,
# ``EnvelopeModel.simulate``).  Imported eagerly they would cost every
# process that imports this module about 0.6 s (measured on a 2-CPU
# x86-64 Linux host: scipy.fft drags in scipy.special), and the
# circuit-level workloads import it without ever calling them.
# ``steady_state_amplitude`` finds its root with ``_brentq``, a port of
# scipy's: ``scipy.optimize`` would load scipy.linalg and
# scipy.sparse.linalg with it into every behavioural run.
_fft = LazyModule("scipy.fft")
_integrate = LazyModule("scipy.integrate")

__all__ = ["EnvelopeModel", "steady_state_amplitude", "small_signal_growth_rate"]

#: Default seed amplitude representing thermal noise / kick at enable.
DEFAULT_SEED_AMPLITUDE = 1e-4

# Describing-function table of ``advance`` (module docstring).
_TABLE_DEGREE = 64
_TABLE_PIECES = 256
_TABLE_CHECKS = 32
_TABLE_RTOL = 1e-12
_TABLE_MARGIN = 1.25


def small_signal_growth_rate(tank: RLCTank, gm: float) -> float:
    """Exponential growth (or decay) rate of a small amplitude.

    ``A(t) = A0 * exp(lambda t)`` with
    ``lambda = (gm - 1/Rp) / (2 C_diff)``.  Positive iff the lumped
    differential transconductance exceeds the critical value ``1/Rp``.
    """
    if gm <= 0:
        raise ConfigurationError("gm must be positive")
    return (gm - 1.0 / tank.parallel_resistance) / (2.0 * tank.differential_capacitance)


def steady_state_amplitude(
    tank: RLCTank,
    limiter: LimiterCharacteristic,
    bracket_scale: float = 1e3,
) -> float:
    """Steady-state peak amplitude: solve ``I1(A) = A / Rp``.

    Returns 0 if the oscillation condition is not met (gm below
    critical).  For a hard limiter deep in limiting the result
    approaches ``(4/pi) Rp IM``, i.e. an RMS value of
    ``k * Rp * IM`` with ``k = 2 sqrt(2)/pi`` (the paper's Eq 4).
    """
    rp = tank.parallel_resistance
    if limiter.gm <= 1.0 / rp:
        return 0.0

    def balance(a: float) -> float:
        return fundamental_current(limiter, a) - a / rp

    a_low = limiter.corner_voltage * 1e-6
    a_high = max((4.0 / math.pi) * rp * limiter.i_max * 2.0, limiter.corner_voltage * bracket_scale)
    f_high = balance(a_high)
    # Expand the bracket if needed (very low-Q tanks).
    expansions = 0
    while f_high > 0 and expansions < 60:
        a_high *= 2.0
        f_high = balance(a_high)
        expansions += 1
    if f_high > 0:
        raise SimulationError("could not bracket the steady-state amplitude")
    return float(_brentq(balance, a_low, a_high, xtol=1e-12, rtol=1e-10))


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in the sign-changing bracket ``[xa, xb]``:
    ``scipy.optimize.brentq`` (Brent, *Algorithms for Minimization
    Without Derivatives*, 1973, ch. 4), ported statement for statement
    from scipy's C implementation (``Zeros/brentq.c``), so it returns
    the same float.  Like scipy's wrapper it raises ``ValueError`` for
    a bracket without a sign change or a NaN function value, and
    ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    def signbit(x: float) -> bool:
        return math.copysign(1.0, x) < 0.0

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
            except ZeroDivisionError:
                # C's division gives an infinite or NaN step here,
                # which the test below turns into a bisection.
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@dataclass(frozen=True)
class _FundamentalTable:
    """``I1(A)`` of one limiter on ``[0, a_hi)``, or ``pieces=None`` if
    the table failed verification (module docstring)."""

    limiter: LimiterCharacteristic
    a_hi: float
    pieces: Optional[Tuple[Tuple[float, ...], ...]]

    @classmethod
    def build(cls, limiter: LimiterCharacteristic, a_hi: float) -> "_FundamentalTable":
        vc = limiter.corner_voltage
        s_hi = a_hi / (a_hi + vc)
        if not s_hi < 1.0:
            return cls(limiter, a_hi, None)

        # Degree-64 Chebyshev interpolant of h in u = 2 s / s_hi - 1 from
        # first-kind nodes; a DCT-II gives its coefficients to rounding.
        k = np.arange(_TABLE_DEGREE + 1)
        nodes = 0.5 * s_hi * (1.0 + np.cos(np.pi * (k + 0.5) / k.size))
        h = [limiter.fundamental(vc * s / (1.0 - s)) / (vc * s) for s in nodes.tolist()]
        coef = _fft.dct(h, type=2) / k.size
        coef[0] *= 0.5
        # Value and first two derivatives at the piece knots, scaled to
        # each piece's local coordinate t in [0, 1], define one quintic
        # Hermite per piece.
        columns = np.zeros((_TABLE_DEGREE + 1, 3))
        columns[:, 0] = coef
        columns[:-1, 1] = cheb.chebder(coef, 1, scl=2.0 / _TABLE_PIECES)
        columns[:-2, 2] = cheb.chebder(coef, 2, scl=2.0 / _TABLE_PIECES)
        f, d1, d2 = cheb.chebval(np.linspace(-1.0, 1.0, _TABLE_PIECES + 1), columns)
        r0 = f[1:] - f[:-1] - d1[:-1] - 0.5 * d2[:-1]
        r1 = d1[1:] - d1[:-1] - d2[:-1]
        r2 = d2[1:] - d2[:-1]
        coeffs = np.stack(
            [
                f[:-1],
                d1[:-1],
                0.5 * d2[:-1],
                10.0 * r0 - 4.0 * r1 + 0.5 * r2,
                -15.0 * r0 + 7.0 * r1 - r2,
                6.0 * r0 - 3.0 * r1 + 0.5 * r2,
            ],
            axis=1,
        )
        table = cls(limiter, a_hi, tuple(map(tuple, coeffs.tolist())))
        i1 = table.evaluator()
        width = s_hi / _TABLE_PIECES
        for piece in np.linspace(0, _TABLE_PIECES - 1, _TABLE_CHECKS).round().tolist():
            s = (piece + 0.5) * width
            a = vc * s / (1.0 - s)
            exact = limiter.fundamental(a)
            if not abs(i1(a) - exact) <= _TABLE_RTOL * abs(exact):
                return cls(limiter, a_hi, None)
        return table

    def evaluator(self) -> Callable[[float], float]:
        """``I1(a)`` for ``0 <= a < a_hi``: one piece lookup and a Horner
        pass on plain floats."""
        pieces = self.pieces
        vc = self.limiter.corner_voltage
        last = len(pieces) - 1
        scale = len(pieces) * (self.a_hi + vc) / self.a_hi

        def i1(a: float) -> float:
            s = a / (a + vc)
            x = s * scale
            i = int(x)
            if i > last:
                i = last
            t = x - i
            c0, c1, c2, c3, c4, c5 = pieces[i]
            return (c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))))) * vc * s

        return i1


@dataclass
class EnvelopeModel:
    """Averaged amplitude dynamics of the driven tank.

    Parameters
    ----------
    tank:
        The external RLC network.
    limiter:
        Driver I–V characteristic (gm and current limit IM).
    seed_amplitude:
        Initial amplitude used when starting "from noise".
    """

    tank: RLCTank
    limiter: LimiterCharacteristic
    seed_amplitude: float = DEFAULT_SEED_AMPLITUDE
    _table: Optional[_FundamentalTable] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.seed_amplitude <= 0:
            raise ConfigurationError("seed_amplitude must be positive")

    # -- single-rate API -------------------------------------------------------

    def derivative(self, amplitude: float) -> float:
        """dA/dt at the given peak amplitude."""
        a = max(amplitude, 0.0)
        i1 = fundamental_current(self.limiter, a)
        rp = self.tank.parallel_resistance
        return (i1 - a / rp) / (2.0 * self.tank.differential_capacitance)

    def steady_state(self) -> float:
        """Steady-state peak amplitude (0 if it cannot oscillate)."""
        return steady_state_amplitude(self.tank, self.limiter)

    def advance(
        self,
        a0: float,
        duration: float,
        max_step: Optional[float] = None,
    ) -> float:
        """Amplitude after ``duration`` starting from ``a0``.

        Deterministic fixed-step RK4 on the scalar envelope ODE — the
        cycle-skipping transient engine calls this once per skip, so
        it must be cheap and bit-reproducible (no adaptive solver
        heuristics).  ``max_step`` caps the RK4 substep; the default
        resolves the interval with 64 substeps.

        ``I1`` comes from the model's table of ``h(s) = I1(A)/(v_c s)``
        over ``s = A/(A + v_c)`` (module docstring).  The table covers
        ``A < 1.25 max(a0, (4/pi) Rp IM)``; it is built on first use and
        rebuilt when the limiter is replaced or a larger ``a0`` needs a
        wider range.  RK4 stages at or above the range use the exact
        :meth:`derivative`, and so does every stage when the table
        failed its 1e-12 verification against exact ``fundamental``.
        Non-finite ``a0`` or ``duration`` raises :class:`SimulationError`.
        """
        a0 = float(a0)
        duration = float(duration)
        if not (math.isfinite(a0) and math.isfinite(duration)):
            raise SimulationError("advance needs a finite a0 and duration")
        if duration <= 0:
            return max(a0, 0.0)
        n = 64
        if max_step is not None and max_step > 0:
            n = max(n, int(math.ceil(duration / max_step)))
        h = duration / n
        a = max(a0, 0.0)
        rate = self._tabulated_rate(a) or self.derivative
        for _ in range(n):
            k1 = rate(a)
            k2 = rate(a + 0.5 * h * k1)
            k3 = rate(a + 0.5 * h * k2)
            k4 = rate(a + h * k3)
            a = max(a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
        return a

    def _tabulated_rate(self, a0: float) -> Optional[Callable[[float], float]]:
        """dA/dt from the describing-function table (built or widened
        for ``a0`` if needed), or ``None`` when the table is rejected."""
        rp = self.tank.parallel_resistance
        a_hi = _TABLE_MARGIN * max(a0, (4.0 / math.pi) * rp * self.limiter.i_max)
        table = self._table
        if table is None or table.limiter is not self.limiter or a_hi > table.a_hi:
            table = self._table = _FundamentalTable.build(self.limiter, a_hi)
        if table.pieces is None:
            return None
        i1 = table.evaluator()
        exact = self.derivative
        a_top = table.a_hi
        c2 = 2.0 * self.tank.differential_capacitance

        def rate(a: float) -> float:
            if not 0.0 < a < a_top:
                return exact(a)
            return (i1(a) - a / rp) / c2

        return rate

    def simulate(
        self,
        t_stop: float,
        a0: Optional[float] = None,
        max_step: Optional[float] = None,
        n_points: int = 500,
    ) -> Waveform:
        """Integrate the envelope ODE from ``a0`` (default: seed) to t_stop."""
        if t_stop <= 0:
            raise SimulationError("t_stop must be positive")
        start = self.seed_amplitude if a0 is None else float(a0)
        if start < 0:
            raise SimulationError("initial amplitude must be non-negative")

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            return np.array([self.derivative(float(y[0]))])

        t_eval = np.linspace(0.0, t_stop, n_points)
        solution = _integrate.solve_ivp(
            rhs,
            (0.0, t_stop),
            [start],
            t_eval=t_eval,
            max_step=max_step if max_step is not None else t_stop / 50.0,
            rtol=1e-7,
            atol=1e-12,
        )
        if not solution.success:
            raise SimulationError(f"envelope integration failed: {solution.message}")
        return Waveform(solution.t, np.maximum(solution.y[0], 0.0), name="envelope")

    def startup_time(self, fraction: float = 0.9, a0: Optional[float] = None) -> float:
        """Time to reach ``fraction`` of the steady-state amplitude."""
        if not 0 < fraction < 1:
            raise SimulationError("fraction must be in (0, 1)")
        target_amp = fraction * self.steady_state()
        if target_amp <= 0:
            raise SimulationError("oscillator does not start (gm below critical)")
        # Estimate the horizon from the small-signal growth rate.
        rate = small_signal_growth_rate(self.tank, self.limiter.gm)
        start = self.seed_amplitude if a0 is None else a0
        if start <= 0:
            raise SimulationError("initial amplitude must be positive")
        if rate <= 0:
            raise SimulationError("oscillator does not start (gm below critical)")
        horizon = 5.0 * (math.log(max(target_amp / start, 2.0)) / rate + self.tank.ring_down_tau())
        wave = self.simulate(horizon, a0=a0, n_points=2000)
        above = np.where(wave.y >= target_amp)[0]
        if above.size == 0:
            raise SimulationError("startup did not reach the target within the horizon")
        idx = int(above[0])
        if idx == 0:
            return 0.0
        # Linear interpolation for sub-sample accuracy.
        t0, t1 = wave.t[idx - 1], wave.t[idx]
        y0, y1 = wave.y[idx - 1], wave.y[idx]
        return float(t0 + (target_amp - y0) / (y1 - y0) * (t1 - t0))
