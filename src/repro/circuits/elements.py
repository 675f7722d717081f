"""Passive elements: resistor, capacitor, inductor, ideal switch, and
the array-built stamp stream of the first three (:class:`PlainElements`)."""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ..errors import NetlistError
from .component import ACStampContext, Component, StampContext

__all__ = ["Resistor", "Capacitor", "Inductor", "Switch"]


class Resistor(Component):
    """Linear resistor between two nodes."""

    supports_stamp_split = True

    def __init__(self, name: str, a: str, b: str, resistance: float):
        super().__init__(name, (a, b))
        if resistance <= 0.0 or not np.isfinite(resistance):
            raise NetlistError(f"{name}: resistance must be positive and finite")
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp(self, ctx: StampContext) -> None:
        ctx.system.stamp_conductance(self._n[0], self._n[1], self.conductance)

    def stamp_static(self, ctx: StampContext) -> None:
        self.stamp(ctx)

    def stamp_ac(self, ctx: ACStampContext) -> None:
        ctx.stamp_admittance(self._n[0], self._n[1], self.conductance)

    def current(self, x: np.ndarray) -> float:
        """Current flowing from node ``a`` to node ``b``."""
        va = x[self._n[0]] if self._n[0] >= 0 else 0.0
        vb = x[self._n[1]] if self._n[1] >= 0 else 0.0
        return (va - vb) * self.conductance


class _CapState:
    """Integrator state of a capacitor: previous voltage and current."""

    __slots__ = ("v", "i")

    def __init__(self, v: float, i: float):
        self.v = v
        self.i = i


class Capacitor(Component):
    """Linear capacitor.  Open in DC, companion model in transient.

    The companion conductance ``geq`` depends only on the step size
    and the integration method's leading coefficient, so it lands in
    the static half of the stamp split; the companion current ``ieq``
    tracks the integrator state and is re-stamped each step by
    :meth:`stamp_dynamic`.  Both formulas are driven entirely by the
    coefficients the method supplies (:class:`~repro.circuits.
    integration.StepCoeffs`) — the component knows no method names.
    """

    supports_stamp_split = True

    def __init__(self, name: str, a: str, b: str, capacitance: float, ic: Optional[float] = None):
        super().__init__(name, (a, b))
        if capacitance <= 0.0 or not np.isfinite(capacitance):
            raise NetlistError(f"{name}: capacitance must be positive and finite")
        self.capacitance = float(capacitance)
        #: Optional initial voltage for use_ic transient starts.
        self.ic = ic

    def _voltage(self, ctx: StampContext) -> float:
        return ctx.v(self._n[0]) - ctx.v(self._n[1])

    def companion_conductance(self, dt: float, coeffs) -> float:
        """``geq = lead * C / dt`` for the integrator coefficients."""
        return coeffs.lead * self.capacitance / dt

    def stamp(self, ctx: StampContext) -> None:
        if not ctx.is_transient:
            # Open circuit in DC; a tiny gmin keeps floating nodes solvable.
            ctx.system.stamp_conductance(self._n[0], self._n[1], ctx.gmin)
            return
        self.stamp_static(ctx)
        self.stamp_dynamic(ctx)

    def stamp_static(self, ctx: StampContext) -> None:
        geq = self.companion_conductance(ctx.dt, ctx.coeffs)
        ctx.system.stamp_conductance(self._n[0], self._n[1], geq)

    def stamp_dynamic(self, ctx: StampContext) -> None:
        co = ctx.coeffs.require_one_step(self.name)
        state: _CapState = ctx.states[self.name]
        geq = self.companion_conductance(ctx.dt, co)
        ieq = co.wv0 * (geq * state.v)
        if co.wd0:
            ieq += co.wd0 * state.i
        # Companion current source from a to b: i = geq*v + ieq
        ctx.system.stamp_current(self._n[0], self._n[1], ieq)

    def stamp_ac(self, ctx: ACStampContext) -> None:
        ctx.stamp_admittance(self._n[0], self._n[1], 1j * ctx.omega * self.capacitance)

    def init_state(self, x: np.ndarray) -> _CapState:
        va = x[self._n[0]] if self._n[0] >= 0 else 0.0
        vb = x[self._n[1]] if self._n[1] >= 0 else 0.0
        v0 = self.ic if self.ic is not None else va - vb
        return _CapState(v=v0, i=0.0)

    def update_state(self, ctx: StampContext) -> _CapState:
        co = ctx.coeffs.require_one_step(self.name)
        v_new = self._voltage(ctx)
        state: _CapState = ctx.states[self.name]
        i_new = co.lead * self.capacitance * (v_new - state.v) / ctx.dt
        if co.wd0:
            i_new += co.wd0 * state.i
        return _CapState(v=v_new, i=i_new)


class _IndState:
    """Integrator state of an inductor: previous voltage and current."""

    __slots__ = ("v", "i")

    def __init__(self, v: float, i: float):
        self.v = v
        self.i = i


class Inductor(Component):
    """Linear inductor.  Short in DC, companion model in transient.

    Uses one branch-current unknown; positive branch current flows from
    node ``a`` through the inductor to node ``b``.
    """

    n_branches = 1
    supports_stamp_split = True

    def __init__(self, name: str, a: str, b: str, inductance: float, ic: Optional[float] = None):
        super().__init__(name, (a, b))
        if inductance <= 0.0 or not np.isfinite(inductance):
            raise NetlistError(f"{name}: inductance must be positive and finite")
        self.inductance = float(inductance)
        #: Optional initial current for use_ic transient starts.
        self.ic = ic

    def companion_resistance(self, dt: float, coeffs) -> float:
        """``req = lead * L / dt`` for the integrator coefficients."""
        return coeffs.lead * self.inductance / dt

    def stamp(self, ctx: StampContext) -> None:
        if ctx.is_transient:
            self.stamp_static(ctx)
            self.stamp_dynamic(ctx)
            return
        a, b = self._n
        br = self._b[0]
        sys = ctx.system
        # KCL: branch current leaves node a, enters node b.
        sys.add_G(a, br, 1.0)
        sys.add_G(b, br, -1.0)
        # Branch (KVL) row reads v(a) - v(b) = 0 (DC short).
        sys.add_G(br, a, 1.0)
        sys.add_G(br, b, -1.0)

    def stamp_static(self, ctx: StampContext) -> None:
        a, b = self._n
        br = self._b[0]
        sys = ctx.system
        # KCL: branch current leaves node a, enters node b.
        sys.add_G(a, br, 1.0)
        sys.add_G(b, br, -1.0)
        # Branch (KVL) row: v(a) - v(b) - req*i = <state terms>.
        sys.add_G(br, a, 1.0)
        sys.add_G(br, b, -1.0)
        sys.add_G(br, br, -self.companion_resistance(ctx.dt, ctx.coeffs))

    def stamp_dynamic(self, ctx: StampContext) -> None:
        co = ctx.coeffs.require_one_step(self.name)
        state: _IndState = ctx.states[self.name]
        req = self.companion_resistance(ctx.dt, co)
        # Branch-row state term: wv0*req*i_prev (+ wd0*v_prev for
        # methods that feed back the previous derivative).
        rhs = co.wv0 * (req * state.i)
        if co.wd0:
            rhs += co.wd0 * state.v
        ctx.system.add_rhs(self._b[0], rhs)

    def stamp_ac(self, ctx: ACStampContext) -> None:
        a, b = self._n
        br = self._b[0]
        ctx.add_G(a, br, 1.0)
        ctx.add_G(b, br, -1.0)
        ctx.add_G(br, a, 1.0)
        ctx.add_G(br, b, -1.0)
        ctx.add_G(br, br, -1j * ctx.omega * self.inductance)

    def init_state(self, x: np.ndarray) -> _IndState:
        i0 = self.ic if self.ic is not None else float(x[self._b[0]])
        return _IndState(v=0.0, i=i0)

    def update_state(self, ctx: StampContext) -> _IndState:
        v_new = ctx.v(self._n[0]) - ctx.v(self._n[1])
        i_new = float(ctx.x[self._b[0]])
        return _IndState(v=v_new, i=i_new)

    def current(self, x: np.ndarray) -> float:
        """Branch current from node ``a`` to node ``b``."""
        return float(x[self._b[0]])


class Switch(Component):
    """Ideal switch modelled as a two-state resistor.

    The state is set programmatically (``switch.closed = True``) rather
    than by a controlling voltage, which is what the behavioural test
    benches need (enable signals, fault injection).  The state is
    frozen for the duration of one transient run (it is sampled when
    the cached base matrix is built); toggle it between runs, not
    inside one.
    """

    supports_stamp_split = True

    def __init__(
        self,
        name: str,
        a: str,
        b: str,
        r_on: float = 1.0,
        r_off: float = 1e12,
        closed: bool = False,
    ):
        super().__init__(name, (a, b))
        if r_on <= 0 or r_off <= 0 or r_on >= r_off:
            raise NetlistError(f"{name}: require 0 < r_on < r_off")
        self.r_on = float(r_on)
        self.r_off = float(r_off)
        self.closed = bool(closed)

    @property
    def resistance(self) -> float:
        return self.r_on if self.closed else self.r_off

    def stamp(self, ctx: StampContext) -> None:
        ctx.system.stamp_conductance(self._n[0], self._n[1], 1.0 / self.resistance)

    def stamp_static(self, ctx: StampContext) -> None:
        self.stamp(ctx)

    def stamp_ac(self, ctx: ACStampContext) -> None:
        ctx.stamp_admittance(self._n[0], self._n[1], 1.0 / self.resistance)


def _terminals(elements) -> np.ndarray:
    """``(k, 2)`` terminal indices of two-terminal elements (ground -1)."""
    flat = np.fromiter(
        chain.from_iterable(e._n for e in elements), np.intp, 2 * len(elements)
    )
    return flat.reshape(-1, 2)


def _floats(values, count: int) -> np.ndarray:
    return np.fromiter(values, float, count)


class _StreamLayout:
    """Where each entry of a :class:`PlainElements` stamp stream comes
    from: ``rows``/``cols`` of the whole stream, ``src`` into the
    per-build source vector for the array-built entries, and
    ``gen_dest`` for the triplets the other components stamped
    (``gen_rows``/``gen_cols``/``counts`` are what a later build must
    repeat to reuse the layout)."""

    __slots__ = ("rows", "cols", "src", "gen_dest", "gen_rows", "gen_cols", "counts")

    def __init__(self, rows, cols, src, gen_dest, gen_rows, gen_cols, counts):
        self.rows = rows
        self.cols = cols
        self.src = src
        self.gen_dest = gen_dest
        self.gen_rows = gen_rows
        self.gen_cols = gen_cols
        self.counts = counts

    def repeats(self, counts, rows, cols) -> bool:
        """Whether the other components stamped the same structure."""
        return (
            np.array_equal(self.counts, counts)
            and np.array_equal(self.gen_rows, rows)
            and np.array_equal(self.gen_cols, cols)
        )


class PlainElements:
    """A component list with its type-exact :class:`Resistor`,
    :class:`Capacitor` and :class:`Inductor` read once into arrays.

    Large netlists are almost entirely these three types, and stamping
    them one Python call at a time dominates setting up a run.
    :meth:`stream` builds the stamp stream of the whole list from the
    arrays instead, bit-identical to stamping every component in list
    order into a :class:`~repro.circuits.component.TripletSystem` and
    then adding ``gmin`` on every node's diagonal:

    * the same ``(row, col, value)`` triplets in the same order, with
      ground dropped;
    * the same values, evaluated in the same operation order
      (``1.0 / R``, ``lead * C / dt``, ``-(lead * L / dt)``);
    * every other component (sources, :class:`Switch`, subclasses of
      the three types) stamped by its own method, its triplets placed
      where the per-component loop would put them.

    Subclasses take the generic path because they may override the
    stamps this class reproduces.  Values are read here only: build a
    new instance per run, never cache one across runs, since callers
    change element values between runs.
    """

    def __init__(self, components: Sequence[Component]):
        groups: tuple = ([], [], [], [])
        kinds = [_PLAIN_KIND.get(type(c), 3) for c in components]
        for component, kind in zip(components, kinds):
            groups[kind].append(component)
        self.resistors, self.caps, self.inds, self.generic = groups
        self.kind = np.array(kinds, dtype=np.intp)
        self.r_nodes = _terminals(self.resistors)
        self.c_nodes = _terminals(self.caps)
        self.l_nodes = _terminals(self.inds)
        self.l_branch = np.fromiter((l._b[0] for l in self.inds), np.intp, len(self.inds))
        self.conductance = 1.0 / _floats((r.resistance for r in self.resistors), len(self.resistors))
        reactive = self.caps + self.inds
        #: C per capacitor, then L per inductor.
        self.lc_values = _floats(
            chain((c.capacitance for c in self.caps), (l.inductance for l in self.inds)),
            len(reactive),
        )
        ics = [e.ic for e in reactive]
        #: Per capacitor, then inductor: whether it has an ``ic``, and
        #: its value.
        self.has_ic = np.array([ic is not None for ic in ics], dtype=bool)
        self.ic = _floats((0.0 if ic is None else ic for ic in ics), len(ics))
        self._layouts: dict = {}

    def share_layouts(self, other: "PlainElements") -> None:
        """Reuse ``other``'s stream layouts.  A layout is checked against
        the generic stamps only: share only between lists of the same
        types and wiring, as ``batched._check_lockstep`` requires."""
        self._layouts = other._layouts

    def _width(self, dc: bool) -> int:
        """Length of ``w``, the per-element values of :meth:`stream`'s
        source vector ``[w, -w, 1, -1, gmin, -gmin]``."""
        if dc:
            return len(self.resistors)
        return len(self.resistors) + len(self.caps) + len(self.inds)

    def _entries(self, dc: bool):
        """Every plain element's stamp entries in stamp order, as
        ``(rows, cols, src)`` arrays of shape ``(elements, 5)`` (R, then
        C, then L; a missing entry has row -1).  ``src`` indexes the
        source vector."""
        nr, nc, nl = len(self.resistors), len(self.caps), len(self.inds)
        width = self._width(dc)
        one, gmin = 2 * width, 2 * width + 2
        # R and C: a conductance, (a,a,+) (b,b,+) (a,b,-) (b,a,-).  In
        # DC a capacitor's is gmin.
        a, b = np.concatenate((self.r_nodes, self.c_nodes)).T
        plus = np.arange(nr + nc)
        minus = width + plus
        if dc:
            plus[nr:], minus[nr:] = gmin, gmin + 1
        absent = np.full(nr + nc, -1)
        rc = (
            np.stack((a, b, a, b, absent), axis=1),
            np.stack((a, b, b, a, absent), axis=1),
            np.stack((plus, plus, minus, minus, absent), axis=1),
        )
        # L: the branch's KCL and KVL entries (a,br,1) (b,br,-1)
        # (br,a,1) (br,b,-1), then (br,br,-req) in a transient.
        la, lb = self.l_nodes.T
        br = self.l_branch
        ones, minus_ones = np.full(nl, one), np.full(nl, one + 1)
        l = (
            np.stack((la, lb, br, br, np.full(nl, -1) if dc else br), axis=1),
            np.stack((br, br, la, lb, br), axis=1),
            np.stack((ones, minus_ones, ones, minus_ones,
                      width + nr + nc + np.arange(nl)), axis=1),
        )
        return tuple(np.concatenate(pair).astype(np.intp) for pair in zip(rc, l))

    def _layout(self, dc: bool, n_nodes: int, counts, gen_rows, gen_cols) -> _StreamLayout:
        """Place the plain entries, the generic triplets (``counts`` per
        generic component) and the gmin diagonal in stream order."""
        rows, cols, src = self._entries(dc)
        valid = (rows >= 0) & (cols >= 0)
        plain_at = np.concatenate([np.flatnonzero(self.kind == k) for k in range(3)])
        generic_at = np.flatnonzero(self.kind == 3)
        per = np.zeros(len(self.kind), dtype=np.intp)
        per[plain_at] = valid.sum(axis=1)
        per[generic_at] = counts
        start = np.cumsum(per) - per
        total = int(per.sum())
        out_rows = np.empty(total + n_nodes, dtype=np.intp)
        out_cols = np.empty(total + n_nodes, dtype=np.intp)
        out_src = np.zeros(total + n_nodes, dtype=np.intp)
        at = (start[plain_at, None] + np.cumsum(valid, axis=1) - 1)[valid]
        out_rows[at], out_cols[at], out_src[at] = rows[valid], cols[valid], src[valid]
        # Generic component k's triplets fill start[k], start[k] + 1, ...
        first = np.cumsum(counts) - counts
        gen_dest = np.repeat(start[generic_at] - first, counts) + np.arange(int(counts.sum()))
        out_rows[gen_dest], out_cols[gen_dest] = gen_rows, gen_cols
        out_rows[total:] = out_cols[total:] = np.arange(n_nodes)
        out_src[total:] = 2 * self._width(dc) + 2
        return _StreamLayout(out_rows, out_cols, out_src, gen_dest, gen_rows, gen_cols, counts)

    def stream(self, ctx: StampContext, n_nodes: int, dc: bool = False):
        """The stamp stream of the whole list: ``(layout, values)``.

        ``ctx.system`` must be an empty :class:`~repro.circuits.
        component.TripletSystem`; the generic components stamp into it
        (``stamp`` when ``dc``, ``stamp_static`` otherwise), so their
        right-hand side is left in ``ctx.system.rhs``.  The plain
        elements follow the matching rules: in DC a capacitor is a
        ``ctx.gmin`` conductance and an inductor a short (its four
        ``±1`` entries); in a transient build they stamp their
        companion terms at ``(ctx.dt, ctx.coeffs)``.  The layout is
        reused while the generic components repeat their structure.
        """
        tri = ctx.system
        counts = np.empty(len(self.generic), dtype=np.intp)
        for k, component in enumerate(self.generic):
            before = len(tri.rows)
            if dc:
                component.stamp(ctx)
            else:
                component.stamp_static(ctx)
            counts[k] = len(tri.rows) - before
        gen_rows = np.asarray(tri.rows, dtype=np.intp)
        gen_cols = np.asarray(tri.cols, dtype=np.intp)
        layout = self._layouts.get(dc)
        if layout is None or not layout.repeats(counts, gen_rows, gen_cols):
            layout = self._layout(dc, n_nodes, counts, gen_rows, gen_cols)
            self._layouts[dc] = layout
        if dc:
            w = self.conductance
        else:
            # Capacitor.companion_conductance and
            # Inductor.companion_resistance, in their operation order.
            w = np.concatenate((self.conductance, ctx.coeffs.lead * self.lc_values / ctx.dt))
        gmin = ctx.gmin
        source = np.concatenate((w, -w, np.array([1.0, -1.0, gmin, -gmin])))
        values = source[layout.src]
        if len(tri.vals):
            values[layout.gen_dest] = tri.vals
        return layout, values


_PLAIN_KIND = {Resistor: 0, Capacitor: 1, Inductor: 2}
