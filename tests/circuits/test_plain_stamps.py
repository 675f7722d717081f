"""The array-built stamp stream of :class:`PlainElements`.

Type-exact resistors, capacitors and inductors stamp from arrays read
once per run; every other component stamps itself, its triplets placed
between theirs.  The stream must equal the per-component loop it
replaces bit for bit — the same rows and columns in the same order and
the same values, compared as int64 — in a transient build (every
method and order, several step sizes) and in the DC stamp, on
generated netlists with grounded terminals, initial conditions,
subclasses of the three types, switches, sources and controlled
sources.  The same netlists pin the companion state built from those
arrays: one ``_ReactiveSet`` stacked over same-topology variants must
equal one set per variant.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.circuits import Circuit, dc, sine
from repro.circuits.assembly import TransientAssembly, _ReactiveSet
from repro.circuits.component import Component, StampContext, StampPattern, TripletSystem
from repro.circuits.controlled import VCCS, VCVS, NonlinearVCCS
from repro.circuits.dcop import _stamp_system
from repro.circuits.elements import (
    Capacitor,
    Inductor,
    PlainElements,
    Resistor,
    Switch,
)
from repro.circuits.integration import Gear, resolve_method
from repro.circuits.sources import CurrentSource, VoltageSource

GMIN = 1e-12
NODES = ("0", "n1", "n2", "n3", "n4")
SETUPS = [("trap", 2), ("be", 1)] + [("gear", order) for order in (1, 2, 3)]


class SplitResistor(Resistor):
    """Re-declares the split: in the split list, on the generic path."""

    supports_stamp_split = True


class SplitCapacitor(Capacitor):
    supports_stamp_split = True


class SplitInductor(Inductor):
    supports_stamp_split = True


class FullCapacitor(Capacitor):
    """Does not re-declare the split: restamped in full, generic in DC."""


def _method(name):
    return Gear(max_order=3) if name == "gear" else resolve_method(name)


node = st.sampled_from(NODES)
value = st.floats(min_value=1e-12, max_value=1e3, allow_nan=False)
ic = st.one_of(st.none(), st.floats(min_value=-2.0, max_value=2.0))
element = st.one_of(
    st.tuples(st.just("R"), node, node, value),
    st.tuples(st.just("C"), node, node, value, ic),
    st.tuples(st.just("L"), node, node, value, ic),
    st.tuples(st.sampled_from(["SR", "SC", "SL", "FC"]), node, node, value),
    st.tuples(st.just("S"), node, node, st.booleans()),
    st.tuples(st.sampled_from(["V", "I"]), node, node, value),
    st.tuples(st.sampled_from(["E", "G", "N"]), node, node, node, node, value),
)


def _build(specs):
    circuit = Circuit("generated")
    for k, spec in enumerate(specs):
        kind, a, b = spec[:3]
        name = f"{kind}{k}"
        if kind == "R":
            circuit.add(Resistor(name, a, b, spec[3]))
        elif kind == "C":
            circuit.add(Capacitor(name, a, b, spec[3], ic=spec[4]))
        elif kind == "L":
            circuit.add(Inductor(name, a, b, spec[3], ic=spec[4]))
        elif kind == "SR":
            circuit.add(SplitResistor(name, a, b, spec[3]))
        elif kind == "SC":
            circuit.add(SplitCapacitor(name, a, b, spec[3], ic=0.25))
        elif kind == "SL":
            circuit.add(SplitInductor(name, a, b, spec[3]))
        elif kind == "FC":
            circuit.add(FullCapacitor(name, a, b, spec[3]))
        elif kind == "S":
            circuit.add(Switch(name, a, b, closed=spec[3]))
        elif kind == "V":
            circuit.add(VoltageSource(name, a, b, sine(spec[3], 1e5)))
        elif kind == "I":
            circuit.add(CurrentSource(name, a, b, dc(spec[3])))
        elif kind == "E":
            circuit.add(VCVS(name, a, b, spec[3], spec[4], spec[5]))
        elif kind == "G":
            circuit.add(VCCS(name, a, b, spec[3], spec[4], spec[5]))
        else:
            circuit.add(NonlinearVCCS(name, a, b, spec[3], spec[4], np.tanh,
                                      lambda v: 1.0 - np.tanh(v) ** 2))
    return circuit


spec_lists = st.lists(element, min_size=1, max_size=12)
netlists = spec_lists.map(_build)


def _prepared(circuit):
    circuit.prepare()
    assume(circuit.size > 0)
    return circuit


def _variants(specs, count, seed):
    """``count`` prepared netlists with the topology of ``specs``: the
    first is ``specs`` itself, every later one scales each plain R, C
    and L value and gives each plain C and L an ``ic`` half the time."""
    rng = np.random.default_rng(seed)
    variants = [specs]
    for _ in range(count - 1):
        variant = []
        for spec in specs:
            if spec[0] in ("R", "C", "L"):
                spec = spec[:3] + (spec[3] * rng.uniform(0.5, 2.0),)
                if spec[0] != "R":
                    spec += (None if rng.random() < 0.5 else rng.uniform(-2.0, 2.0),)
            variant.append(spec)
        variants.append(variant)
    return [_prepared(_build(v)) for v in variants]


def _stacked(circuits):
    """One stacked ``_ReactiveSet`` over ``circuits`` and one
    single-row set per circuit."""
    plains = [PlainElements(c.partition_components()[0]) for c in circuits]
    size = circuits[0].size
    return _ReactiveSet(plains, size), [_ReactiveSet(p, size) for p in plains]


def _close(a, b):
    """``max|a - b| <= 1e-12 * max|b|``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)


def _same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_stream(rows, cols, values, tri):
    assert np.array_equal(rows, np.asarray(tri.rows, dtype=np.intp))
    assert np.array_equal(cols, np.asarray(tri.cols, dtype=np.intp))
    assert _same_bits(values, tri.vals)


def _loop_static(circuit, split, dt, method, order):
    """The per-component transient stamp loop the arrays replace."""
    tri = TripletSystem(circuit.size)
    ctx = StampContext(system=tri, x=np.zeros(circuit.size), dt=dt,
                       method=method.name, gmin=GMIN,
                       coeffs=method.base_coeffs(order))
    for component in split:
        component.stamp_static(ctx)
    for i in range(circuit.n_nodes):
        tri.add_G(i, i, GMIN)
    return tri


def _loop_dc(circuit, x, gmin, source_scale):
    """The per-component DC stamp loop the arrays replace."""
    tri = TripletSystem(circuit.size)
    ctx = StampContext(system=tri, x=x, gmin=gmin, source_scale=source_scale)
    for component in circuit:
        component.stamp(ctx)
    for i in range(circuit.n_nodes):
        tri.add_G(i, i, gmin)
    return tri


class TestTransientStream:
    @settings(max_examples=60, deadline=None)
    @given(
        circuit=netlists,
        dts=st.lists(st.floats(min_value=1e-13, max_value=1e-3), min_size=1, max_size=3),
        setup=st.sampled_from(SETUPS),
    )
    def test_bitwise_equal_to_stamp_static_loop(self, circuit, dts, setup):
        circuit = _prepared(circuit)
        split, _full = circuit.partition_components()
        method, order = _method(setup[0]), setup[1]
        plain = PlainElements(split)
        for dt in dts:
            ctx = StampContext(system=TripletSystem(circuit.size),
                               x=np.zeros(circuit.size), dt=dt,
                               method=method.name, gmin=GMIN,
                               coeffs=method.base_coeffs(order))
            layout, values = plain.stream(ctx, circuit.n_nodes)
            _assert_stream(layout.rows, layout.cols, values,
                           _loop_static(circuit, split, dt, method, order))

    @settings(max_examples=30, deadline=None)
    @given(
        circuit=netlists,
        dts=st.lists(st.floats(min_value=1e-12, max_value=1e-4), min_size=1, max_size=3),
        setup=st.sampled_from(SETUPS),
    )
    def test_assembly_base_matrix_equals_loop(self, circuit, dts, setup):
        circuit = _prepared(circuit)
        split, _full = circuit.partition_components()
        method, order = _method(setup[0]), setup[1]
        assembly = TransientAssembly(circuit, dts[0], method, GMIN, backend="dense")
        for dt in dts:
            assembly.set_dt(dt, order=order)
            tri = _loop_static(circuit, split, dt, method, order)
            expected = StampPattern(circuit.size, tri.rows, tri.cols).dense(tri.values())
            assert _same_bits(assembly.G_base, expected)


class TestDCStream:
    @settings(max_examples=60, deadline=None)
    @given(
        circuit=netlists,
        seed=st.integers(0, 2**16),
        gmin=st.sampled_from([1e-12, 1e-3]),
        source_scale=st.sampled_from([1.0, 0.35]),
    )
    def test_bitwise_equal_to_stamp_loop(self, circuit, seed, gmin, source_scale):
        circuit = _prepared(circuit)
        x = np.random.default_rng(seed).standard_normal(circuit.size)
        rows, cols, values, rhs = _stamp_system(
            circuit, PlainElements(list(circuit)), x, gmin, source_scale
        )
        tri = _loop_dc(circuit, x, gmin, source_scale)
        _assert_stream(rows, cols, values, tri)
        assert _same_bits(rhs, tri.rhs)


class TestInitState:
    @settings(max_examples=40, deadline=None)
    @given(specs=spec_lists, samples=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_mixed_ic_matches_per_element_loop(self, specs, samples, seed):
        circuits = _variants(specs, samples, seed)
        x = np.random.default_rng(seed).standard_normal((samples, circuits[0].size))
        assembly = TransientAssembly(circuits[0], 1e-9, "trap", GMIN, backend="dense")
        assembly.init_state(x[0])
        reactive = assembly.reactive
        states = [e.init_state(x[0]) for e in reactive.caps + reactive.inds]
        assert _same_bits(reactive.v, [s.v for s in states])
        assert _same_bits(reactive.i, [s.i for s in states])
        # Lockstep: each row of one stacked set is its own netlist's loop.
        stack, _rows = _stacked(circuits)
        stack.init_state(x)
        for s, circuit in enumerate(circuits):
            states = [circuit[e.name].init_state(x[s]) for e in stack.caps + stack.inds]
            assert _same_bits(stack.v[s], [state.v for state in states])
            assert _same_bits(stack.i[s], [state.i for state in states])

    def test_ic_grounded_and_floating_terminals(self):
        c = Circuit("ic")
        c.voltage_source("v", "a", "0", dc(1.0))
        c.resistor("r", "a", "b", 10.0)
        c.capacitor("c_ic", "b", "0", 1e-9, ic=0.3)
        c.capacitor("c_gnd_a", "0", "b", 2e-9)
        c.capacitor("c_free", "a", "b", 3e-9)
        c.inductor("l_ic", "b", "0", 1e-6, ic=-2e-3)
        c.inductor("l_free", "a", "b", 2e-6)
        c.prepare()
        x = np.arange(1.0, c.size + 1.0)
        assembly = TransientAssembly(c, 1e-9, "trap", GMIN, backend="dense")
        assembly.init_state(x)
        a, b = c.node_index("a"), c.node_index("b")
        br = c["l_free"].branch_indices[0]
        assert list(assembly.reactive.v) == [0.3, 0.0 - x[b], x[a] - x[b], 0.0, 0.0]
        assert list(assembly.reactive.i) == [0.0, 0.0, 0.0, -2e-3, x[br]]


class TestStackedReactiveSet:
    """A stacked ``_ReactiveSet`` of S same-topology netlists equals S
    single-row sets: bit for bit wherever both shapes run the same
    elementwise formulas (coefficients, ``init_state``, the one-step
    ``commit``), to 1e-12 where the stack contracts its rows in one
    product (``companion_rhs``, the multistep ``commit``)."""

    @staticmethod
    def _sets(specs, samples, seed, method):
        circuits = _variants(specs, samples, seed)
        stack, rows = _stacked(circuits)
        if method.is_multistep:
            for reactive in [stack] + rows:
                reactive.enable_history(method.history_depth(method.max_order))
        return stack, rows

    @settings(max_examples=40, deadline=None)
    @given(
        specs=spec_lists,
        samples=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        dt=st.floats(min_value=1e-12, max_value=1e-4),
        setup=st.sampled_from(SETUPS),
    )
    def test_stack_equals_single_rows(self, specs, samples, seed, dt, setup):
        method, order = _method(setup[0]), setup[1]
        stack, rows = self._sets(specs, samples, seed, method)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((samples, stack.size))
        stack.init_state(x)
        for s, row in enumerate(rows):
            row.init_state(x[s])
            assert _same_bits(stack.v[s], row.v) and _same_bits(stack.i[s], row.i)
        same = _close if method.is_multistep else _same_bits
        for step in range(1, 5):
            k = method.usable_order(order, stack.history_points)
            co = stack.coeffs(dt, method, k)
            rhs = stack.companion_rhs(co)
            x = rng.standard_normal(x.shape)
            stack.commit(co, x, step * dt, None)
            for s, row in enumerate(rows):
                co_row = row.coeffs(dt, method, k)
                for name in ("alpha", "beta", "upd_g", "gcol"):
                    a, b = getattr(co, name), getattr(co_row, name)
                    assert a is None and b is None or _same_bits(a[s], b)
                assert _close(rhs[s], row.companion_rhs(co_row))
                row.commit(co_row, x[s], step * dt, None)
                assert same(stack.v[s], row.v) and same(stack.i[s], row.i)

    @settings(max_examples=20, deadline=None)
    @given(specs=spec_lists, seed=st.integers(0, 2**16), setup=st.sampled_from(SETUPS))
    def test_frozen_rows_keep_their_state(self, specs, seed, setup):
        method, order = _method(setup[0]), setup[1]
        stack, _rows = self._sets(specs, 3, seed, method)
        rng = np.random.default_rng(seed)
        stack.init_state(rng.standard_normal((3, stack.size)))
        freeze = np.array([False, True, False])
        ring = stack.ring
        for step in range(1, 5):
            co = stack.coeffs(1e-9, method, method.usable_order(order, stack.history_points))
            before = [stack.v[1].copy(), stack.i[1].copy()]
            if ring.depth:
                before += [ring.fv[0][1].copy(), ring.fd[0][1].copy()]
            stack.commit(co, rng.standard_normal((3, stack.size)), step * 1e-9, freeze)
            after = [stack.v[1], stack.i[1]]
            if ring.depth:
                after += [ring.fv[0][1], ring.fd[0][1]]
            assert all(_same_bits(a, b) for a, b in zip(after, before))


class StepDependent(Component):
    """A split component whose static stamp changes structure with dt:
    below ``threshold`` it stamps only its own diagonal entry (or, with
    ``swap``, the far terminal's: the same count at other positions)."""

    supports_stamp_split = True

    def __init__(self, name, a, b, threshold, swap=False):
        super().__init__(name, (a, b))
        self.threshold = threshold
        self.swap = swap

    def stamp(self, ctx):
        self.stamp_static(ctx)

    def stamp_static(self, ctx):
        a, b = self._n
        g = 1e-3 / ctx.dt * 1e-9
        if ctx.dt >= self.threshold:
            ctx.system.stamp_conductance(a, b, g)
        elif self.swap:
            ctx.system.add_G(b, b, g)
            ctx.system.add_G(b, a, -g)
            ctx.system.add_G(a, b, -g)
            ctx.system.add_G(a, a, g)
        else:
            ctx.system.add_G(a, a, g)


class TestLayoutRebuild:
    @pytest.mark.parametrize("swap", [False, True], ids=["count", "positions"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_generic_structure_change_rebuilds_the_layout(self, swap, backend):
        c = Circuit("step-dependent")
        c.voltage_source("v", "a", "0", sine(1.0, 1e5))
        c.resistor("r1", "a", "b", 50.0)
        c.add(StepDependent("x", "b", "c", threshold=1e-8, swap=swap))
        c.capacitor("c1", "c", "0", 1e-9)
        c.inductor("l1", "c", "0", 1e-6)
        c.resistor("r2", "b", "0", 1e3)
        c.prepare()
        split, _full = c.partition_components()
        method = resolve_method("trap")
        assembly = TransientAssembly(c, 1e-7, method, GMIN, backend=backend)
        layouts = []
        for dt in (1e-7, 1e-9, 2e-9, 1e-6):
            assembly.set_dt(dt)
            tri = _loop_static(c, split, dt, method, 2)
            assert np.array_equal(assembly._layout.rows, tri.rows)
            assert np.array_equal(assembly._layout.cols, tri.cols)
            expected = StampPattern(c.size, tri.rows, tri.cols).dense(tri.values())
            G = assembly.G_base
            G = G if backend == "dense" else G.toarray()
            assert _same_bits(G, expected)
            layouts.append(assembly._layout)
        # A new layout whenever the structure changed, and only then.
        assert layouts[0] is not layouts[1]
        assert layouts[1] is layouts[2]
        assert layouts[2] is not layouts[3]
