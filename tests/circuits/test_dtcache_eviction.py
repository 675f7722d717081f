"""The DtCache LRU retire path under step-size churn.

The adaptive controller visits a handful of quantized step sizes, but
nothing *guarantees* a run stays under ``max_dt_entries`` — a long
breakpoint-heavy scenario can walk the whole dt ladder repeatedly.
These tests drive more distinct step sizes than the cache holds and
pin the eviction contract: the ``_retire`` hook fires, ``live_entries``
tracks exactly the survivors, factorization counts stay honest across
evictions, and evicted entries *release* their backend factorizations
instead of keeping LU memory alive.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, dc, sine
from repro.circuits.assembly import DtCache, TransientAssembly


def _circuit():
    c = Circuit("cache")
    c.voltage_source("vin", "in", "0", sine(1.0, 1e6, offset=2.0))
    c.resistor("r1", "in", "a", 100.0)
    c.capacitor("c1", "a", "0", 1e-9)
    c.inductor("l1", "a", "b", 1e-6)
    c.resistor("r2", "b", "0", 50.0)
    return c


class TestDtCachePolicy:
    def test_retire_fires_beyond_capacity(self):
        retired = []
        cache = DtCache(build=lambda dt: {"dt": dt}, retire=retired.append,
                        max_entries=8)
        dts = [1e-9 * 2**k for k in range(12)]
        for dt in dts:
            cache.get(dt)
        assert len(cache) == 8
        assert [e["dt"] for e in retired] == dts[:4]  # oldest first
        live = [e["dt"] for e in cache.live_entries()]
        assert live == dts[4:]

    def test_lru_order_protects_recently_used(self):
        cache = DtCache(build=lambda dt: {"dt": dt}, max_entries=2)
        a = cache.get(1.0)
        cache.get(2.0)
        assert cache.get(1.0) is a  # touch: 1.0 becomes most recent
        cache.get(3.0)  # evicts 2.0, not 1.0
        assert cache.get(1.0) is a
        assert cache.get(2.0) is not None  # rebuilt

    def test_ephemeral_slots_do_not_evict_grid(self):
        retired = []
        cache = DtCache(build=lambda dt: {"dt": dt}, retire=retired.append,
                        max_entries=2)
        cache.get(1.0)
        cache.get(2.0)
        cache.get(0.3, ephemeral=True)
        cache.get(0.15, ephemeral=True)
        assert len(cache) == 2 and not retired
        # A third ephemeral dt retires the previous scratch pair.
        cache.get(0.7, ephemeral=True)
        assert sorted(e["dt"] for e in retired) == [0.15, 0.3]


class TestAssemblyEviction:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_factorizations_counted_and_released(self, backend):
        if backend == "sparse":
            pytest.importorskip("scipy")
        assembly = TransientAssembly(
            _circuit(), 1e-9, "trap", 1e-12, max_dt_entries=8, backend=backend
        )
        dts = [1e-9 * 2**k for k in range(10)]  # > 8 distinct sizes
        factored = []
        for dt in dts:
            assembly.set_dt(dt)
            lu = assembly.lu()  # force a factorization per entry
            assert lu.solve(np.ones(assembly.size)).shape == (assembly.size,)
            factored.append(assembly._active)
        assert assembly.n_dt_entries == 8
        # The two oldest entries were evicted: their factorizations are
        # counted in the retired tally and the references released.
        assert assembly.retired_factorizations == 2
        assert assembly.lu_factorizations == 10
        for entry in factored[:2]:
            assert entry.lu is None and entry.rank1 is None
            assert entry.delta is None
        for entry in factored[2:]:
            assert entry.lu is not None
        live = assembly._cache.live_entries()
        assert len(live) == 8 and factored[0] not in live

    def test_revisiting_cached_dt_does_not_refactor(self):
        assembly = TransientAssembly(_circuit(), 1e-9, "trap", 1e-12)
        assembly.lu()
        before = assembly.lu_factorizations
        assembly.set_dt(2e-9)
        assembly.lu()
        assembly.set_dt(1e-9)  # cache hit
        assembly.lu()
        assert assembly.lu_factorizations == before + 1


class TestSetupKeying:
    """Entries are keyed by the full (dt, method, order) setup.

    The regression this pins: the build closure captures the
    assembly's method, so a dt-only key would happily serve a stale
    entry built for a *different* integrator after a live method
    switch."""

    def test_switching_method_cannot_reuse_stale_entry(self):
        assembly = TransientAssembly(_circuit(), 1e-9, "trap", 1e-12)
        trap_entry = assembly._active
        trap_G = np.array(assembly.G_base)
        assembly.set_method("be")
        assembly.set_dt(1e-9)
        assert assembly._active is not trap_entry
        # The capacitor companion conductance halves under BE; a
        # stale trap entry would keep the 2C/dt stamp.
        assert not np.allclose(np.array(assembly.G_base), trap_G)
        # Switching back is a cache hit on the original entry.
        assembly.set_method("trap")
        assembly.set_dt(1e-9)
        assert assembly._active is trap_entry

    def test_switching_order_cannot_reuse_stale_entry(self):
        assembly = TransientAssembly(_circuit(), 1e-9, "gear", 1e-12)
        assert assembly.order == 1  # startup: no history yet
        order1_entry = assembly._active
        order1_G = np.array(assembly.G_base)
        assembly.set_dt(1e-9, order=2)
        assert assembly._active is not order1_entry
        # BDF2's leading coefficient is 3/2 vs BE's 1.
        assert not np.allclose(np.array(assembly.G_base), order1_G)

    def test_same_setup_same_entry_across_methods_objects(self):
        assembly = TransientAssembly(_circuit(), 1e-9, "trap", 1e-12)
        entry = assembly._active
        assembly.set_dt(2e-9)
        assembly.set_dt(1e-9)
        assert assembly._active is entry

    def test_live_method_upgrade_preserves_history_and_drops_weights(self):
        """Switching to a deeper-history method mid-run must keep the
        committed history valid (no zeroed rows behind a stale h_len)
        and must not serve the previous method's memoized weights."""
        from repro.circuits import Gear

        assembly = TransientAssembly(_circuit(), 1e-9, "gear", 1e-12)
        x = np.zeros(assembly.size)
        for step, order in ((1, None), (2, 2), (3, 2)):
            if order is not None:
                assembly.set_dt(1e-9, order=order)
            rhs = assembly.step_rhs(step * 1e-9, x)
            x = assembly.lu().solve(rhs)
            assembly.commit(x, step * 1e-9)
        r = assembly.reactive
        h_len = r.h_len
        assert h_len >= 2
        times_before = r.history_times()
        old_weights = r.step_weights(assembly._active.coeffs)

        assembly.set_method(Gear(max_order=3))
        # History survived the ring growth: same times, same fill.
        assert r.h_len == h_len
        assert r.history_times() == times_before
        assert not np.isnan(r.h_val[:h_len]).any()
        # The weight memo was dropped with the method; the new
        # method's order-3 weights are served, not the stale pair.
        assembly.set_dt(1e-9, order=3)
        new_weights = r.step_weights(assembly._active.coeffs)
        assert not np.array_equal(new_weights[0], old_weights[0])
        # ...and the upgraded assembly keeps integrating.
        rhs = assembly.step_rhs(4e-9, x)
        x = assembly.lu().solve(rhs)
        assembly.commit(x, 4e-9)
        assert np.isfinite(x).all()
