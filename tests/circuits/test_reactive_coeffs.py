"""The vectorized companion coefficients of :class:`_ReactiveSet`.

``_ReactiveSet.coeffs`` builds every element's companion conductance
(``lead * C / dt`` per capacitor, ``lead * L / dt`` per inductor) as one
array expression over element values gathered at construction.  The
per-element stamp path (:meth:`Capacitor.companion_conductance`,
:meth:`Inductor.companion_resistance`) evaluates the same formula one
element at a time; the two must agree bit for bit, for every method and
order, or the vectorized and stamped halves of one system disagree.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, sine
from repro.circuits.assembly import TransientAssembly, _ReactiveSet
from repro.circuits.elements import Capacitor, Inductor, PlainElements
from repro.circuits.integration import Gear, resolve_method

METHOD_ORDERS = [("trap", 2), ("be", 1), ("bdf2", 1), ("bdf2", 2)] + [
    ("gear3", order) for order in (1, 2, 3)
]


def _method(name):
    return Gear(max_order=3) if name == "gear3" else resolve_method(name)


def _reactive_circuit(caps, inds):
    """A chain: one grounded capacitor per node, inductors in series."""
    c = Circuit("reactive")
    c.voltage_source("vin", "n0", "0", sine(1.0, 1e5))
    nodes = max(len(caps), len(inds) + 1)
    for k in range(nodes - 1):
        c.resistor(f"r{k}", f"n{k}", f"n{k + 1}", 1e3)
    for k, value in enumerate(caps):
        c.capacitor(f"c{k}", f"n{k}", "0", value)
    for k, value in enumerate(inds):
        c.inductor(f"l{k}", f"n{k}", f"n{k + 1}", value)
    c.prepare()
    return c


def _reactive_set(circuit):
    caps = [e for e in circuit if type(e) is Capacitor]
    inds = [e for e in circuit if type(e) is Inductor]
    return _ReactiveSet(PlainElements(caps + inds), circuit.size), caps, inds


positive = st.floats(min_value=1e-15, max_value=1e-1, allow_nan=False)


class TestArrayBuiltCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(
        caps=st.lists(positive, min_size=0, max_size=5),
        inds=st.lists(positive, min_size=0, max_size=4),
        dt=st.floats(min_value=1e-13, max_value=1e-3, allow_nan=False),
        setup=st.sampled_from(METHOD_ORDERS),
    )
    def test_bitwise_equal_to_per_element_formulas(self, caps, inds, dt, setup):
        reactive, cap_els, ind_els = _reactive_set(_reactive_circuit(caps, inds))
        method = _method(setup[0])
        order = setup[1]
        base = method.base_coeffs(order)
        geq = np.array([e.companion_conductance(dt, base) for e in cap_els], dtype=float)
        req = np.array([e.companion_resistance(dt, base) for e in ind_els], dtype=float)

        co = reactive.coeffs(dt, method, order)

        if method.is_multistep:
            assert np.array_equal(co.gcol, np.concatenate([geq, req]))
            assert co.alpha is None and co.beta is None and co.upd_g is None
            return
        n_caps, n_inds = len(cap_els), len(ind_els)
        alpha = np.concatenate([base.wv0 * geq, np.full(n_inds, base.wd0)])
        beta = np.concatenate([np.full(n_caps, base.wd0), base.wv0 * req])
        upd_g = np.concatenate([geq, np.zeros(n_inds)])
        assert np.array_equal(co.alpha, alpha)
        assert np.array_equal(co.beta, beta)
        assert np.array_equal(co.upd_g, upd_g)
        assert co.gcol is None


class TestBootstrapHistory:
    def test_fills_the_ring_from_the_element_values(self):
        circuit = _reactive_circuit([1e-9, 2.2e-9, 4.7e-10], [1e-6, 3.3e-5])
        assembly = TransientAssembly(circuit, 1e-8, Gear(max_order=3), 1e-12)
        reactive = assembly.reactive
        reactive.reseat(
            np.array([0.5, -0.25, 1.0, 0.125, -2.0]),
            np.array([1e-3, -2e-3, 4e-4, 3e-2, -5e-3]),
            0.0,
        )
        dt = 2.5e-9

        filled = reactive.bootstrap_history(dt)

        # The ring filled by hand: every history row a first-order
        # backward extrapolation with derivative fd[0] / (C or L).
        values = np.array([1e-9, 2.2e-9, 4.7e-10, 1e-6, 3.3e-5])
        val0 = np.array([0.5, -0.25, 1.0, 3e-2, -5e-3])
        der0 = np.array([1e-3, -2e-3, 4e-4, 0.125, -2.0])
        assert filled == reactive.h_depth == reactive.h_len == 3
        for k in range(1, 4):
            assert np.array_equal(reactive.h_val[k - 1], val0 - (k * dt) * (der0 / values))
            assert np.array_equal(reactive.h_der[k - 1], der0)
        assert np.array_equal(reactive.h_t, -dt * np.arange(1, 4))
