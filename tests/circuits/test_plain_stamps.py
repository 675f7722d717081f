"""The array-built stamp stream of :class:`PlainElements`.

Type-exact resistors, capacitors and inductors stamp from arrays read
once per run; every other component stamps itself, its triplets placed
between theirs.  The stream must equal the per-component loop it
replaces bit for bit — the same rows and columns in the same order and
the same values, compared as int64 — in a transient build (every
method and order, several step sizes) and in the DC stamp, on
generated netlists with grounded terminals, initial conditions,
subclasses of the three types, switches, sources and controlled
sources.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.circuits import Circuit, dc, sine
from repro.circuits.assembly import TransientAssembly
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


netlists = st.lists(element, min_size=1, max_size=12).map(_build)


def _prepared(circuit):
    circuit.prepare()
    assume(circuit.size > 0)
    return circuit


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
    @given(circuit=netlists, seed=st.integers(0, 2**16))
    def test_mixed_ic_matches_per_element_loop(self, circuit, seed):
        circuit = _prepared(circuit)
        x = np.random.default_rng(seed).standard_normal(circuit.size)
        assembly = TransientAssembly(circuit, 1e-9, "trap", GMIN, backend="dense")
        assembly.init_state(x)
        reactive = assembly.reactive
        states = [e.init_state(x) for e in reactive.caps + reactive.inds]
        assert _same_bits(reactive.v, [s.v for s in states])
        assert _same_bits(reactive.i, [s.i for s in states])

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
