"""The pluggable linear-algebra backend layer.

Three claims are pinned here:

* the triplet stamp stream finalizes *bit-identically* to direct
  dense stamping (dense backend = pre-refactor results), and the CSR
  finalization agrees cell for cell;
* ``backend="sparse"`` reproduces ``backend="dense"`` at rtol 1e-9 on
  every solve-strategy family — linear (on the dense backend stepped by
  its per-dt propagator, on the sparse one by scatter + solve, for
  every integration method and a phased trap -> Gear run), rank-1
  Sherman–Morrison, and
  general Newton over several NonlinearVCCS devices (the ``woodbury``
  family, which the sparse backend solves as a low-rank update around
  its cached LU) or a diode — on fixed and adaptive grids,
  plus the DC and AC analyses; ``backend="krylov"`` does the same
  transient runs at its rtol 1e-6 contract, general Newton through the
  same low-rank update;
* the dense propagator's backward error stays at a direct solve's on
  the supply-loss tank's stiffest entries, and a singular dense base
  matrix builds no propagator and keeps the least-squares solve;
* on the Fig 16 netlist the rank-1 step's ``z_lin`` and
  Sherman–Morrison column from the propagator hold a solve's backward
  error, the step matches scatter + solve for every method, and a
  step that ends off the line (damped, dense fallback, rescued)
  gathers its commit;
* scipy-less environments degrade gracefully: "auto" falls back to
  dense silently, an explicit "sparse" raises a clear error;
* the condensed ``SparseLU`` (series branches eliminated before
  SuperLU, one refinement step per solve) matches dense solves, is no
  less accurate than plain ``splu`` on a mesh, and leaves matrices
  below its threshold to the plain ``splu`` call, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.circuits.backend as backend_mod
from repro.circuits import (
    Circuit,
    DenseBackend,
    MNASystem,
    NewtonOptions,
    PhaseSchedule,
    SparseBackend,
    StampContext,
    TransientOptions,
    dc,
    pulse,
    resolve_backend,
    run_ac,
    run_transient,
    sine,
    solve_dc,
)
from repro.circuits.assembly import TransientAssembly, _ReactiveSet
from repro.circuits.backend import SPARSE_AUTO_THRESHOLD
from repro.circuits.component import TripletSystem
from repro.circuits.integration import resolve_method
from repro.circuits.transient import _StepSolver
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import RLCTank, TanhLimiter
from repro.errors import SimulationError

TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)
LIMITER = TanhLimiter(gm=6e-3, i_max=2e-3)


def _stamp_all(circuit, system, gmin=1e-12, dt=1e-8, method="trap"):
    ctx = StampContext(
        system=system, x=np.zeros(circuit.size), dt=dt, method=method, gmin=gmin
    )
    for component in circuit:
        if component.supports_stamp_split and not component.is_nonlinear():
            component.stamp_static(ctx)
    for i in range(circuit.n_nodes):
        system.add_G(i, i, gmin)


def _mixed_circuit():
    c = Circuit("mixed")
    c.voltage_source("vin", "in", "0", sine(1.0, 1e6, offset=2.0))
    c.resistor("r1", "in", "a", 100.0)
    c.capacitor("c1", "a", "0", 1e-9)
    c.inductor("l1", "a", "b", 1e-6)
    c.resistor("r2", "b", "0", 50.0)
    c.vccs("g1", "b", "0", "a", "0", 1e-4)
    c.prepare()
    return c


class TestStampStream:
    def test_dense_finalization_bit_identical_to_direct_stamping(self):
        circuit = _mixed_circuit()
        dense = MNASystem(circuit.size)
        _stamp_all(circuit, dense)
        tri = TripletSystem(circuit.size)
        _stamp_all(circuit, tri)
        G = tri.pattern().dense(tri.values())
        assert np.array_equal(G, dense.G)  # bitwise, not approx

    def test_csr_finalization_matches_dense_cell_for_cell(self):
        pytest.importorskip("scipy")
        circuit = _mixed_circuit()
        tri = TripletSystem(circuit.size)
        _stamp_all(circuit, tri)
        pattern = tri.pattern()
        G = pattern.dense(tri.values())
        csr = SparseBackend().finalize(pattern, tri.values())
        assert np.array_equal(csr.toarray(), G)

    def test_pattern_value_split_across_dt(self):
        """Same structure, different values: one pattern serves both."""
        circuit = _mixed_circuit()
        streams = {}
        for dt in (1e-8, 1e-9):
            tri = TripletSystem(circuit.size)
            _stamp_all(circuit, tri, dt=dt)
            streams[dt] = tri
        pattern = streams[1e-8].pattern()
        assert pattern.matches(streams[1e-9])
        for dt, tri in streams.items():
            dense = MNASystem(circuit.size)
            _stamp_all(circuit, dense, dt=dt)
            assert np.array_equal(pattern.dense(tri.values()), dense.G)

    def test_triplet_rhs_and_ground_skipping(self):
        tri = TripletSystem(3)
        tri.add_G(-1, 0, 5.0)
        tri.add_G(0, -1, 5.0)
        tri.stamp_current(0, -1, 2.0)
        tri.stamp_conductance(0, 1, 0.5)
        assert tri.rhs[0] == -2.0
        G = tri.pattern().dense(tri.values())
        expected = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0, 0, 0]])
        assert np.array_equal(G, expected)


class TestResolveBackend:
    def test_auto_threshold(self):
        pytest.importorskip("scipy")
        assert resolve_backend("auto", SPARSE_AUTO_THRESHOLD - 1).is_dense
        assert not resolve_backend("auto", SPARSE_AUTO_THRESHOLD).is_dense

    def test_explicit_names_and_instances(self):
        dense = resolve_backend("dense", 10_000)
        assert dense.is_dense
        assert resolve_backend(dense, 10_000) is dense
        with pytest.raises(SimulationError, match="unknown backend"):
            resolve_backend("cholesky", 8)

    def test_options_validate_backend(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            TransientOptions(t_stop=1e-6, dt=1e-9, backend="blocked")


class TestNoScipyDegradation:
    """The optional-scipy contract, mirrored from linsolve."""

    def test_explicit_sparse_raises_clearly(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        with pytest.raises(SimulationError, match="requires scipy"):
            resolve_backend("sparse", 1000)

    def test_auto_falls_back_to_dense(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        assert resolve_backend("auto", 100_000).is_dense

    def test_run_transient_explicit_sparse_raises(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        circuit = _mixed_circuit()
        options = TransientOptions(t_stop=1e-7, dt=1e-9, backend="sparse")
        with pytest.raises(SimulationError, match="requires scipy"):
            run_transient(circuit, options)


def _linear_circuit():
    c = Circuit("linear")
    c.voltage_source("vin", "in", "0", sine(1.0, 4e6, offset=1.0))
    c.resistor("rs", "in", "a", 50.0)
    c.rlc_ladder("lad_", "a", "out", 6, 1e-7, 0.2, 2e-10)
    c.resistor("rl", "out", "0", 1e3)
    return c


def _rank1_circuit():
    return OscillatorNetlist(TANK, vref=2.5).build(LIMITER)


def _woodbury_circuit():
    c = Circuit("woodbury")
    c.current_source("ib", "vdd", "0", dc(1e-3))
    c.resistor("r1", "vdd", "a", 1e3)
    c.resistor("r2", "a", "0", 2e3)
    c.capacitor("c1", "a", "0", 1e-9)
    c.capacitor("c2", "b", "0", 2e-9)
    c.resistor("r3", "a", "b", 500.0)
    for j, gain in enumerate((1e-3, 2e-3, 1.5e-3)):
        c.nonlinear_vccs(
            f"gm{j}", "b", "0", "a", "0",
            func=(lambda g: lambda v: g * np.tanh(v))(gain),
        )
    return c


def _general_circuit():
    c = Circuit("general")
    c.voltage_source("vin", "in", "0", sine(2.0, 2e6, offset=1.5))
    c.resistor("r1", "in", "a", 200.0)
    c.capacitor("c1", "a", "0", 1e-9)
    c.diode("d1", "a", "b")
    c.resistor("r2", "b", "0", 1e3)
    c.capacitor("c2", "b", "0", 5e-10)
    return c


#: family -> (builder, use_dc_operating_point).  The oscillator must
#: start from the deterministic t=0 kick, not the DC equilibrium: at
#: the equilibrium the startup seed *is* solver rounding noise, and
#: exponential growth amplifies any backend's last-ulp differences
#: into macroscopic (but physically meaningless) divergence.
FAMILIES = {
    "linear": (_linear_circuit, True),
    "rank1": (_rank1_circuit, False),
    "woodbury": (_woodbury_circuit, True),
    "general": (_general_circuit, True),
}


#: Integration setups of the linear family besides the default trap.
LINEAR_METHODS = {
    "be": {"method": "be"},
    "bdf2": {"method": "bdf2"},
    "gear3": {"method": "gear", "max_order": 3},
}


def _options(backend, step_control, use_dc=True, **fields):
    return TransientOptions(
        t_stop=4e-6,
        dt=6.25e-9,
        backend=backend,
        step_control=step_control,
        use_dc_operating_point=use_dc,
        **fields,
    )


def _check_transient(family, step_control, backend, rtol, **fields):
    """``backend`` runs ``family`` on the dense run's time grid with the
    same solve strategy, its waveform within ``rtol`` of dense.
    ``fields`` are further :class:`TransientOptions` of both runs."""
    pytest.importorskip("scipy")
    build, use_dc = FAMILIES[family]
    dense = run_transient(build(), _options("dense", step_control, use_dc, **fields))
    other = run_transient(build(), _options(backend, step_control, use_dc, **fields))
    assert dense.stats["strategy"] == other.stats["strategy"]
    assert other.stats["backend"] == backend
    assert np.array_equal(dense.t, other.t)
    scale = max(float(np.abs(dense.x).max()), 1e-12)
    np.testing.assert_allclose(other.x, dense.x, rtol=rtol, atol=rtol * scale)


class TestSparseMatchesDense:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_transient_equivalence(self, family, step_control):
        _check_transient(family, step_control, "sparse", rtol=1e-9)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_krylov_transient_equivalence(self, family, step_control):
        _check_transient(family, step_control, "krylov", rtol=1e-6)

    @pytest.mark.parametrize("method", sorted(LINEAR_METHODS))
    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_linear_propagator_every_method(self, method, step_control):
        _check_transient(
            "linear", step_control, "sparse", rtol=1e-9, **LINEAR_METHODS[method]
        )

    def test_linear_propagator_phased_trap_then_gear(self):
        phases = PhaseSchedule.carrier_then_settle(
            2e-6, carrier_dt=6.25e-9, settle_dt=2.5e-8,
            settle_method="gear", max_order=3,
        )
        _check_transient("linear", "adaptive", "sparse", rtol=1e-9, phases=phases)

    def test_solve_dc_equivalence(self):
        pytest.importorskip("scipy")
        for build in (_woodbury_circuit, _general_circuit):
            dense = solve_dc(build(), backend="dense")
            sparse = solve_dc(build(), backend="sparse")
            np.testing.assert_allclose(
                sparse.x, dense.x, rtol=1e-9, atol=1e-12
            )

    def test_run_ac_equivalence(self):
        pytest.importorskip("scipy")
        freqs = np.linspace(3e6, 5e6, 21)
        dense = run_ac(_rank1_circuit(), freqs, backend="dense")
        sparse = run_ac(_rank1_circuit(), freqs, backend="sparse")
        np.testing.assert_allclose(
            sparse.x, dense.x, rtol=1e-9, atol=1e-9 * np.abs(dense.x).max()
        )


class TestSparseSingularDegradation:
    def test_singular_system_falls_back_to_lstsq(self):
        pytest.importorskip("scipy")
        # A floating node (current source into a capacitor-only node
        # with gmin) is near-singular; an *exactly* singular CSR must
        # degrade to the least-squares answer instead of raising.
        from repro.circuits.backend import SparseLU
        from scipy import sparse

        matrix = sparse.csr_matrix(np.zeros((3, 3)))
        lu = SparseLU(matrix)
        assert lu.is_singular
        solution = lu.solve(np.array([1.0, 0.0, 0.0]))
        assert np.all(np.isfinite(solution))


F_TANK = 2.0 ** 22
T_TANK = 1.0 / F_TANK


def _backward_error(G, z, rhs):
    """``||G z - rhs|| / (||G|| ||z|| + ||rhs||)`` in the inf-norm."""
    residual = np.abs(G.dot(z) - rhs).max()
    norm_g = np.abs(G).sum(axis=1).max()
    return residual / (norm_g * np.abs(z).max() + np.abs(rhs).max())


#: Multistep and one-step setups of the dt-ladder tests: (method, order).
FOLD_METHODS = [
    ("trap", 2), ("be", 1), ("bdf2", 2), ("gear", 1), ("gear", 2), ("gear", 3),
]

#: Step sizes of one ladder run, in units of its base step: halved and
#: doubled on the binary ladder the step controller walks.
DT_LADDER = (1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0, 1.0)


def _tank_assembly(q, dt, method):
    """A dense supply-loss tank assembly seeded at zero, as in the
    ``supply_loss_q`` workload's linear step."""
    tank = supply_loss_tank_circuit(F_TANK, 1000 * T_TANK, q=q)
    assembly = TransientAssembly(tank, dt, method, 1e-12, backend="dense")
    assembly.init_state(np.zeros(assembly.size))
    return assembly


def _gathered_commit(assembly, z, time):
    """``(v', i', operands)`` of the commit of ``z`` by the gather
    path (handed a copy, so not the pending product), then the state
    restored and the product pending again; ``operands`` as
    :func:`_operands`."""
    reactive = assembly.reactive
    snapshot, pending = assembly.snapshot_state(), reactive.pending
    v0, i0 = reactive.v.copy(), reactive.i.copy()
    assembly.commit(z.copy(), time)
    v, i = reactive.v.copy(), reactive.i.copy()
    assembly.restore_state(snapshot)
    reactive.pending = pending
    return v, i, _operands(assembly, v0, i0, v, i)


def _operands(assembly, v0, i0, v, i):
    """The largest magnitude the commit of ``(v, i)`` from ``(v0, i0)``
    combines into ``i``: ``upd_g v'``, ``upd_g v`` and ``upd_m i``, or
    ``gcol v'`` and the term, for a cap; an inductor's ``i'``.  A stiff
    step can leave ``i'`` far below it, where no path holds ``i'`` to
    1e-14 of its own size."""
    co = assembly._active.coeffs
    if co.gcol is None:
        operands = (
            np.abs(co.upd_g) * (np.abs(v) + np.abs(v0)) + abs(co.upd_m) * np.abs(i0)
        )
    else:
        operands = np.abs(co.gcol * v) + np.abs(i - co.gcol * v)
    nc = assembly.reactive.n_caps
    operands[nc:] = np.abs(i[nc:])
    return operands.max()


def _commit_paths(monkeypatch):
    """Record, per committed step, whether it installs the pending
    product of :meth:`_ReactiveSet.propagate`; each step a
    :meth:`_ReactiveSet.commit_block` installs is a product's."""
    paths = []
    commit = _ReactiveSet.commit
    commit_block = _ReactiveSet.commit_block

    def spy(self, co, x, time, freeze):
        paths.append(self.pending is not None and x is self.pending[0])
        commit(self, co, x, time, freeze)

    def block_spy(self, j):
        paths.extend([True] * (j + 1))
        commit_block(self, j)

    monkeypatch.setattr(_ReactiveSet, "commit", spy)
    monkeypatch.setattr(_ReactiveSet, "commit_block", block_spy)
    return paths


T_FIG16 = 1.0 / TANK.frequency

#: Setups of the rank-1 propagator tests: (method, max_order).
RANK1_METHODS = [("trap", 2), ("be", 1), ("bdf2", 2), ("gear", 3)]


def _fig16():
    """The Fig 16 startup netlist: one NonlinearVCCS, the rank-1 step."""
    return OscillatorNetlist(TANK, vref=2.5).build(LIMITER)


def _random_state(reactive, rng):
    """A random ``(v, i)`` state of the tank's scale."""
    return rng.uniform(-1.0, 1.0, reactive.n), 0.05 * rng.uniform(-1.0, 1.0, reactive.n)


def _cubic(g0, delay):
    """One node: a cubic conductance ``g0*v + 1e-2*v**3`` against R || C,
    a current step ``delay`` in.  With ``g0`` at minus the node's
    companion conductance the rank-1 denominator vanishes at ``v = 0``,
    where every step before the current step starts and ends."""
    circuit = Circuit("cubic")
    circuit.current_source(
        "I", "0", "a", pulse(0.0, 1e-3, delay=delay, rise=1e-9, width=1e-6)
    )
    circuit.resistor("R", "a", "0", 1e3)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.nonlinear_vccs(
        "N", "a", "0", "a", "0",
        lambda v: g0 * v + 1e-2 * v**3,
        dfunc=lambda v: g0 + 3e-2 * v * v,
    )
    return circuit


def _parallel_sources():
    """Two identical sine sources in parallel drive an RC: the dense
    base matrix is exactly singular."""
    c = Circuit("parallel sources")
    c.voltage_source("v1", "a", "0", sine(1.0, 1e6))
    c.voltage_source("v2", "a", "0", sine(1.0, 1e6))
    c.resistor("r", "a", "b", 1e3)
    c.capacitor("c", "b", "0", 1e-9)
    return c


class TestDensePropagator:
    """A linear netlist on the dense backend steps by one small matrix
    product per step (``_ReactiveSet.propagator``), whose state rows
    the step's commit installs; a rank-1 netlist's step takes its
    ``z_lin`` from the same product, and its commit from the product
    moved along the Sherman–Morrison column."""

    @pytest.mark.parametrize("q", [5.0, 500.0])
    @pytest.mark.parametrize(
        "method, dt",
        [
            ("trap", T_TANK / 272),
            ("trap", T_TANK / 40),
            ("gear", T_TANK / 4),
            ("gear", 8 * T_TANK),
        ],
    )
    def test_backward_error_of_a_solve(self, q, method, dt):
        t_fault = 1000 * T_TANK
        tank = supply_loss_tank_circuit(F_TANK, t_fault, q=q)
        assembly = TransientAssembly(
            tank, dt, resolve_method(method, max_order=3), 1e-12, backend="dense"
        )
        x0 = np.zeros(assembly.size)
        assembly.init_state(x0)
        reactive = assembly.reactive
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            t = rng.uniform(0.0, t_fault - dt)
            reactive.reseat(
                rng.uniform(-1.0, 1.0, reactive.n),
                0.05 * rng.uniform(-1.0, 1.0, reactive.n),
                t,
            )
            if method == "gear":
                assembly.set_method(assembly.method, bootstrap_dt=dt)
                assert assembly.order == 3
            rhs_src = assembly.step_rhs(t + dt, x0)
            z = assembly.linear_solve(rhs_src)
            G, rhs_lin = assembly.assemble_dense(z, rhs_src, t + dt)
            worst = max(worst, _backward_error(G, z, rhs_lin))
        assert assembly._active.prop is not False
        assert worst <= 1e-15

    @pytest.mark.parametrize("q", [5.0, 500.0])
    @pytest.mark.parametrize("base_dt", [T_TANK / 272, T_TANK / 4, 8 * T_TANK])
    @pytest.mark.parametrize("method, order", FOLD_METHODS)
    def test_folded_step_on_a_dt_ladder(self, q, base_dt, method, order):
        """The one product per step against scatter + solve, over
        non-uniform histories: from a restarted and from a bootstrapped
        ring, steps halved and doubled on the binary ladder.  Its
        backward error stays at a solve's bound, and the state it
        commits matches the gathered commit of the same ``z``."""
        method = resolve_method(method, max_order=order)
        assembly = _tank_assembly(q, base_dt, method)
        reactive = assembly.reactive
        rng = np.random.default_rng(11)
        x0 = np.zeros(assembly.size)
        worst = {"fold": 0.0, "solve": 0.0, "v": 0.0, "i": 0.0}
        for start in ("restart", "bootstrap") * 5:
            t = rng.uniform(0.0, 500 * T_TANK)
            reactive.reseat(
                rng.uniform(-1.0, 1.0, reactive.n),
                0.05 * rng.uniform(-1.0, 1.0, reactive.n),
                t,
            )
            if start == "bootstrap" and method.is_multistep:
                assembly.set_method(method, bootstrap_dt=base_dt)
            for scale in DT_LADDER:
                dt = scale * base_dt
                order_now = method.usable_order(order, assembly.history_points)
                assembly.set_dt(dt, order=order_now)
                rhs_src = assembly.step_rhs(t + dt, x0)
                z = assembly.linear_solve(rhs_src)
                G, rhs_lin = assembly.assemble_dense(z, rhs_src, t + dt)
                worst["fold"] = max(worst["fold"], _backward_error(G, z, rhs_lin))
                solved = assembly.lu().solve(rhs_lin)
                worst["solve"] = max(
                    worst["solve"], _backward_error(G, solved, rhs_lin)
                )
                v, i, operands = _gathered_commit(assembly, z, t + dt)
                assembly.commit(z, t + dt)
                assert reactive.pending is None
                worst["v"] = max(
                    worst["v"], np.abs(reactive.v - v).max() / np.abs(v).max()
                )
                worst["i"] = max(worst["i"], np.abs(reactive.i - i).max() / operands)
                t += dt
        if method.is_multistep:
            assert assembly.order == order
        assert worst["fold"] <= 1e-15
        assert worst["solve"] <= 1e-15
        assert worst["v"] <= 1e-14
        assert worst["i"] <= 1e-14

    @pytest.mark.parametrize("method", ["trap", "gear"])
    def test_restore_drops_the_pending_product(self, method):
        """A rejected candidate's ``restore_state``: the state goes
        back, and a commit of the rejected ``z`` gathers from the
        restored state instead of installing the product of the state
        the candidate left."""
        method = resolve_method(method, max_order=3)
        dt = T_TANK / 40
        assembly = _tank_assembly(47.2, dt, method)
        x0 = np.zeros(assembly.size)
        assembly.reactive.reseat(
            np.array([0.3, -0.2, 0.1]), np.array([1e-3, 2e-3, -1e-3]), 0.0
        )
        if method.is_multistep:
            assembly.set_method(method, bootstrap_dt=dt)
        snapshot = assembly.snapshot_state()
        z = assembly.linear_solve(assembly.step_rhs(dt, x0))
        assembly.commit(z, dt)
        z = assembly.linear_solve(assembly.step_rhs(2 * dt, z))
        assembly.restore_state(snapshot)
        assert assembly.reactive.pending is None
        assembly.commit(z, 2 * dt)
        v, i = assembly.reactive.v.copy(), assembly.reactive.i.copy()
        assembly.restore_state(snapshot)
        assembly.commit(z.copy(), 2 * dt)
        assert np.array_equal(assembly.reactive.v, v)
        assert np.array_equal(assembly.reactive.i, i)

    def test_method_switch_drops_the_pending_product(self):
        """The phase switch of ``carrier_then_settle`` (a bootstrapped
        ``set_method``) and every other state or dt change drop the
        pending product."""
        dt = T_TANK / 40
        assembly = _tank_assembly(47.2, dt, resolve_method("trap"))
        reactive = assembly.reactive
        x0 = np.zeros(assembly.size)
        changes = [
            lambda: assembly.set_method(
                resolve_method("gear", max_order=3), bootstrap_dt=dt
            ),
            lambda: assembly.set_dt(dt / 2),
            lambda: reactive.reseat(reactive.v, reactive.i, reactive.t_now),
            lambda: reactive.bootstrap_history(dt),
            lambda: assembly.init_state(x0),
        ]
        for change in changes:
            method = assembly.method
            order = method.usable_order(method.max_order, assembly.history_points)
            assembly.set_dt(dt, order=order)
            assembly.linear_solve(assembly.step_rhs(reactive.t_now + dt, x0))
            assert reactive.pending is not None
            change()
            assert reactive.pending is None

    @pytest.mark.parametrize("certify", [False, True])
    def test_phased_run_commits_every_step_from_its_product(
        self, monkeypatch, certify
    ):
        """A ``carrier_then_settle`` run on the tank: every accepted
        half step, in both phases, installs its own product.  Armed
        (``certify``), each candidate commits its first half step
        before its test; unarmed, a candidate rejected inside a block
        commits nothing."""
        paths = _commit_paths(monkeypatch)
        t_fault = 8 * T_TANK
        result = run_transient(
            supply_loss_tank_circuit(F_TANK, t_fault, q=47.2),
            TransientOptions(
                t_stop=16 * T_TANK, dt=T_TANK / 40, step_control="adaptive",
                use_dc_operating_point=False, backend="dense",
                lte_reltol=1e-6, lte_abstol=1e-9,
                phases=PhaseSchedule.carrier_then_settle(
                    t_fault, carrier_dt=T_TANK / 40, settle_dt=T_TANK / 4,
                    settle_method="gear", max_order=3,
                ),
                certify=certify,
            ),
        )
        assert result.stats["phase_switches"] == 1
        assert result.stats["rejected_steps"] > 0
        # Two half steps per accepted candidate, one per LTE-rejected
        # candidate that committed its first.
        stats = result.stats
        accepted, rejected = stats["accepted_steps"], stats["rejected_steps"]
        if certify:
            assert len(paths) == 2 * accepted + rejected
        else:
            assert 2 * accepted <= len(paths) < 2 * accepted + rejected
        assert all(paths)

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_rescued_step_gathers_its_commit(self, monkeypatch, step_control):
        """A rescued step's solution is not a product the step made:
        its commit gathers; every healthy step's installs the product."""
        paths = _commit_paths(monkeypatch)
        t_fail = 10 * T_TANK + 0.1 * T_TANK / 40

        class FailUntilRescued:
            rescued = False

            def __call__(self, time, phase, circuit):
                if phase == "rescue":
                    self.rescued = True
                    return False
                return not self.rescued and time >= t_fail

        options = TransientOptions(
            t_stop=20 * T_TANK, dt=T_TANK / 40, step_control=step_control,
            use_dc_operating_point=False, backend="dense",
            dt_min=T_TANK / 320, rescue=True,
        )
        options.newton.fail_hook = FailUntilRescued()
        tank = supply_loss_tank_circuit(F_TANK, 1000 * T_TANK, q=47.2)
        result = run_transient(tank, options)
        assert result.stats["rescues"] == 1
        assert paths.count(False) == 1
        assert len(paths) > 100

    @pytest.mark.parametrize("method", sorted(LINEAR_METHODS))
    def test_no_reactive_elements(self, method):
        c = Circuit("divider")
        c.voltage_source("vin", "in", "0", sine(1.0, 1e6))
        c.resistor("r1", "in", "out", 1e3)
        c.resistor("r2", "out", "0", 3e3)
        result = run_transient(
            c, _options("dense", "adaptive", **LINEAR_METHODS[method])
        )
        out = result.waveform("out")
        np.testing.assert_allclose(
            out.y, 0.75 * np.sin(2 * np.pi * 1e6 * out.t), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_singular_base_keeps_the_lstsq_solve(self, step_control):
        result = run_transient(
            _parallel_sources(),
            TransientOptions(
                t_stop=4e-6, dt=1e-8, backend="dense", preflight="off",
                step_control=step_control,
            ),
        )
        assert np.isfinite(result.x).all()
        a = result.waveform("a")
        np.testing.assert_allclose(
            a.y, np.sin(2 * np.pi * 1e6 * a.t), rtol=0, atol=1e-9
        )
        assembly = TransientAssembly(_parallel_sources(), 1e-8, "trap", 1e-12)
        assembly.step_rhs(1e-8, np.zeros(assembly.size))
        assert assembly.lu().is_singular
        assert assembly._active.prop is False

    # -- the rank-1 step: the Fig 16 netlist's one NonlinearVCCS --------------

    @pytest.mark.parametrize("dt", [T_FIG16 / 40, T_FIG16 / 4])
    @pytest.mark.parametrize("method, order", RANK1_METHODS)
    def test_rank1_backward_error(self, method, order, dt):
        """The propagated ``z_lin`` solves the linear part, and the
        Sherman–Morrison column ``wout``'s first rows solve ``G w = u``,
        each to a direct solve's backward error."""
        method = resolve_method(method, max_order=order)
        assembly = TransientAssembly(_fig16(), dt, method, 1e-12, backend="dense")
        x0 = np.zeros(assembly.size)
        assembly.init_state(x0)
        reactive = assembly.reactive
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0.0, 100 * T_FIG16)
            reactive.reseat(*_random_state(reactive, rng), t)
            if method.is_multistep:
                assembly.set_method(method, bootstrap_dt=dt)
                assert assembly.order == order
            rhs_src = assembly.step_rhs(t + dt, x0)
            z = assembly.linear_solve(rhs_src)
            G = assembly.G_base
            worst = max(worst, _backward_error(G, z, assembly.full_rhs(rhs_src)))
        w, _vw, _w_vmax, wout = assembly.rank1_data()
        u, _v = assembly.rank1_vectors()
        assert assembly._active.prop is not False
        assert np.shares_memory(w, wout)
        assert worst <= 1e-15
        assert _backward_error(G, w, u) <= 1e-15

    @pytest.mark.parametrize("base_dt", [T_FIG16 / 40, T_FIG16 / 4])
    @pytest.mark.parametrize("method, order", RANK1_METHODS)
    def test_rank1_step_on_a_dt_ladder(self, method, order, base_dt):
        """The rank-1 Newton step on the propagator against the same
        step on scatter + solve (an assembly built for
        ``jacobian="full"`` has no propagator), steps halved and doubled
        on the binary ladder from restarted and bootstrapped rings: the
        same iterations, solutions and committed states at rtol
        1e-12 (``i`` of the operands its commit combines, see
        :func:`_operands`)."""
        method = resolve_method(method, max_order=order)
        pair = []
        for jacobian in ("auto", "full"):
            assembly = TransientAssembly(
                _fig16(), base_dt, method, 1e-12, backend="dense", jacobian=jacobian
            )
            assembly.init_state(np.zeros(assembly.size))
            pair.append((assembly, _StepSolver(assembly, NewtonOptions(), "auto")))
        rng = np.random.default_rng(13)
        worst = {"x": 0.0, "v": 0.0, "i": 0.0}
        for start in ("restart", "bootstrap") * 3:
            t = rng.uniform(0.0, 100 * T_FIG16)
            v0, i0 = _random_state(pair[0][0].reactive, rng)
            for assembly, _solver in pair:
                assembly.reactive.reseat(v0.copy(), i0.copy(), t)
                if start == "bootstrap" and method.is_multistep:
                    assembly.set_method(method, bootstrap_dt=base_dt)
            xs = [np.zeros(pair[0][0].size)] * 2
            for k, scale in enumerate(DT_LADDER):
                dt = scale * base_dt
                v_prev, i_prev = pair[1][0].reactive.v, pair[1][0].reactive.i
                for j, (assembly, solver) in enumerate(pair):
                    order_now = method.usable_order(order, assembly.history_points)
                    assembly.set_dt(dt, order=order_now)
                    rhs = assembly.step_rhs(t + dt, xs[j])
                    xs[j] = solver.step(xs[j], rhs, t + dt)
                    assembly.commit(xs[j], t + dt)
                    solver.note_commit(t + dt, xs[j], restart=k == 0)
                (fold, _), (solve, _) = pair
                v, i = solve.reactive.v, solve.reactive.i
                for key, a, b, scale in (
                    ("x", xs[0], xs[1], np.abs(xs[1]).max()),
                    ("v", fold.reactive.v, v, np.abs(v).max()),
                    ("i", fold.reactive.i, i, _operands(solve, v_prev, i_prev, v, i)),
                ):
                    worst[key] = max(worst[key], np.abs(a - b).max() / scale)
                t += dt
        (fold, fold_solver), (solve, solve_solver) = pair
        assert fold._active.prop is not False
        assert solve._active.prop is False
        assert fold_solver.newton_iterations == solve_solver.newton_iterations
        assert max(worst.values()) <= 1e-12

    def test_rank1_damped_step_gathers_its_commit(self, monkeypatch):
        """A step that ends on a damped iterate, off the line: the
        pending product is not its state, and the commit gathers."""
        paths = _commit_paths(monkeypatch)
        dt = T_FIG16 / 40
        assembly = TransientAssembly(_fig16(), dt, "trap", 1e-12, backend="dense")
        x0 = np.zeros(assembly.size)
        assembly.init_state(x0)
        reactive = assembly.reactive
        reactive.reseat(np.array([0.3, -0.2, 0.1]), np.array([1e-3, 2e-3, -1e-3]), 0.0)
        # Every move is damped to 1e-4 V, which already converges.
        solver = _StepSolver(
            assembly, NewtonOptions(max_step=1e-4, abstol_v=1e-3), "auto"
        )
        x = solver.step(x0, assembly.step_rhs(dt, x0), dt)
        assert solver.newton_iterations == 1
        assert np.abs(x[: assembly.n_nodes]).max() == pytest.approx(1e-4)
        assert reactive.pending is not None and x is not reactive.pending[0]
        assembly.commit(x, dt)
        assert paths == [False]
        assert reactive.pending is None
        assert np.array_equal(reactive.v, reactive._terminal_v(x))
        assert np.array_equal(reactive.i[reactive.n_caps :], x[reactive.br_idx])

    def test_rank1_dense_fallback_gathers_its_commit(self, monkeypatch):
        """Steps that end in the ``|denom| < 1e-12`` dense fallback
        gather their commit; the steps after the current step end on
        the line and install their product.  The run matches the
        sparse backend, which always gathers."""
        pytest.importorskip("scipy")
        dt = 1e-8
        probe = TransientAssembly(_cubic(0.0, 0.0), dt, "trap", 1e-12, backend="dense")
        g_singular = -(1.0 - 1e-13) / probe.rank1_data()[1]
        fallbacks = []
        full_solve = _StepSolver._full_solve

        def spy(self, x, rhs_lin, time):
            fallbacks.append(time)
            return full_solve(self, x, rhs_lin, time)

        monkeypatch.setattr(_StepSolver, "_full_solve", spy)
        paths = _commit_paths(monkeypatch)
        runs = {
            backend: run_transient(
                _cubic(g_singular, 5 * dt),
                TransientOptions(
                    t_stop=40 * dt, dt=dt, use_dc_operating_point=False,
                    backend=backend,
                ),
            )
            for backend in ("dense", "sparse")
        }
        dense_paths = paths[:40]
        assert dense_paths[:5] == [False] * 5
        assert all(dense_paths[5:])
        assert fallbacks[:5] == pytest.approx([k * dt for k in range(1, 6)])
        np.testing.assert_allclose(
            runs["dense"].x, runs["sparse"].x, rtol=1e-9, atol=1e-15
        )
        assert (
            runs["dense"].stats["newton_iterations"]
            == runs["sparse"].stats["newton_iterations"]
        )

    def test_full_jacobian_builds_no_propagator(self, monkeypatch):
        """``jacobian="full"`` runs general Newton, which restamps every
        iteration: its dt entries build no propagator."""
        built = []
        propagator = _ReactiveSet.propagator

        def spy(self, co, inv):
            built.append(co)
            return propagator(self, co, inv)

        monkeypatch.setattr(_ReactiveSet, "propagator", spy)
        options = TransientOptions(
            t_stop=4 * T_FIG16, dt=T_FIG16 / 40, use_dc_operating_point=False,
            backend="dense",
        )
        assert run_transient(_fig16(), options).stats["strategy"] == "rank1"
        assert len(built) == 1
        options.jacobian = "full"
        assert run_transient(_fig16(), options).stats["strategy"] == "general"
        assert len(built) == 1

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_rank1_rescued_step_gathers_its_commit(self, monkeypatch, step_control):
        """A rescued Fig 16 step gathers its commit; every healthy
        step ends on the line and installs its product."""
        paths = _commit_paths(monkeypatch)
        t_fail = 10 * T_FIG16 + 0.1 * T_FIG16 / 40

        class FailUntilRescued:
            rescued = False

            def __call__(self, time, phase, circuit):
                if phase == "rescue":
                    self.rescued = True
                    return False
                return not self.rescued and time >= t_fail

        options = TransientOptions(
            t_stop=20 * T_FIG16, dt=T_FIG16 / 40, step_control=step_control,
            use_dc_operating_point=False, backend="dense",
            dt_min=T_FIG16 / 320, rescue=True,
        )
        options.newton.fail_hook = FailUntilRescued()
        result = run_transient(_fig16(), options)
        assert result.stats["strategy"] == "rank1"
        assert result.stats["rescues"] == 1
        assert paths.count(False) == 1
        assert len(paths) > 100


def _vccs_ladder(stages=40):
    """An RC ladder whose stages are also coupled forward by VCCSs
    (a transconductance from node k into node k+2, none back), so the
    MNA matrix is structurally unsymmetric."""
    c = Circuit("vccs ladder")
    c.voltage_source("vin", "n0", "0", sine(1.0, 1e6))
    for k in range(stages):
        c.resistor(f"r{k}", f"n{k}", f"n{k + 1}", 100.0 * (1 + k % 3))
        c.capacitor(f"c{k}", f"n{k + 1}", "0", 1e-10 * (1 + k % 5))
        if k + 2 <= stages:
            c.vccs(f"g{k}", f"n{k + 2}", "0", f"n{k}", "0", 2e-3)
    c.inductor("l1", f"n{stages}", "0", 1e-6)
    c.prepare()
    return c


def _companion_csr(circuit, dt):
    tri = TripletSystem(circuit.size)
    _stamp_all(circuit, tri, dt=dt)
    return SparseBackend().finalize(tri.pattern(), tri.values())


class TestSparseLUSymmetricMode:
    """SparseLU factors in SuperLU's symmetric mode with ordinary
    partial pivoting; both structurally symmetric and structurally
    unsymmetric MNA matrices must still solve to rounding."""

    def _check(self, matrix, structurally_symmetric):
        from repro.circuits.backend import SparseLU

        pattern = (matrix != 0).astype(int)
        assert ((pattern - pattern.T).nnz == 0) == structurally_symmetric
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(matrix.shape[0])
        x = SparseLU(matrix).solve(rhs)
        dense = matrix.toarray()
        norm_a = np.abs(dense).sum(axis=1).max()
        backward = np.abs(dense @ x - rhs).max() / (
            norm_a * np.abs(x).max() + np.abs(rhs).max()
        )
        assert backward <= 1e-13
        # Scaled to the solution's largest entry: the mesh matrix's
        # condition number (~3e6) leaves its smallest entries only
        # ~1e-8 relative in any pivot order, the default one included.
        expected = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(
            x, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max()
        )

    def test_coil_mesh_companion_matrix(self):
        pytest.importorskip("scipy")
        from repro.sensor.coils import CoilMesh

        mesh = CoilMesh(tank=TANK, nx=20, ny=20)
        circuit = mesh.build_circuit(drive="pulse")
        circuit.prepare()
        self._check(_companion_csr(circuit, 0.01 / TANK.frequency), True)

    def test_vccs_netlist_matrix(self):
        pytest.importorskip("scipy")
        self._check(_companion_csr(_vccs_ladder(), 1e-8), False)


def _mesh_companion(n):
    """An ``n x n`` coil mesh and its companion matrix at the
    workload's nominal step, 0.05 of a carrier period."""
    from repro.sensor.coils import CoilMesh

    circuit = CoilMesh(tank=TANK, nx=n, ny=n).build_circuit(drive="pulse")
    circuit.prepare()
    return circuit, _companion_csr(circuit, 0.05 / TANK.frequency)


class TestCondensedSparseLU:
    """SparseLU eliminates a coil mesh's isolated one- and two-unknown
    blocks exactly, factors the Schur complement of the rest, and
    refines each solve once; matrices whose plan removes less than
    ``CONDENSE_MIN_FRACTION`` of the unknowns keep the plain ``splu``."""

    def test_mesh_solves_match_dense(self):
        pytest.importorskip("scipy")
        from repro.circuits.backend import SparseLU

        _, matrix = _mesh_companion(6)
        lu = SparseLU(matrix)
        assert isinstance(lu._lu, backend_mod._CondensedLU)
        assert lu.n_factorizations == 1
        dense = matrix.toarray()
        rng = np.random.default_rng(3)
        vector = rng.standard_normal(matrix.shape[0])
        columns = rng.standard_normal((matrix.shape[0], 3))
        for rhs in (vector, columns):
            for solve, a in ((lu.solve, dense), (lu.solve_transposed, dense.T)):
                x = solve(rhs)
                expected = np.linalg.solve(a, rhs)
                assert x.shape == rhs.shape
                np.testing.assert_allclose(
                    x, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max()
                )
        assert np.isfinite(lu.condest())

    def test_complex_matrix(self):
        pytest.importorskip("scipy")
        from repro.circuits.backend import SparseLU

        _, matrix = _mesh_companion(6)
        shifted = matrix + 1e-3j * backend_mod._sparse.identity(matrix.shape[0])
        lu = SparseLU(shifted.tocsr())
        assert isinstance(lu._lu, backend_mod._CondensedLU)
        rhs = np.random.default_rng(4).standard_normal(matrix.shape[0]) + 0j
        expected = np.linalg.solve(shifted.toarray(), rhs)
        np.testing.assert_allclose(
            lu.solve(rhs), expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max()
        )

    @pytest.mark.parametrize("source", ["vccs_ladder", "distributed_coil"])
    def test_empty_plan_is_plain_splu_bit_for_bit(self, source):
        pytest.importorskip("scipy")
        from scipy.sparse.linalg import splu

        from repro.circuits.backend import SparseLU
        from repro.sensor.coils import DistributedCoil

        if source == "vccs_ladder":
            matrix = _companion_csr(_vccs_ladder(), 1e-8)
        else:
            circuit = DistributedCoil(tank=TANK, n_segments=250).build_circuit()
            circuit.prepare()
            matrix = _companion_csr(circuit, 0.05 / TANK.frequency)
        assert backend_mod._plan_for(matrix) is None
        rhs = np.random.default_rng(5).standard_normal((matrix.shape[0], 2))
        lu = SparseLU(matrix)
        plain = splu(matrix.tocsc(), options=dict(SymmetricMode=True))
        assert np.array_equal(lu.solve(rhs), plain.solve(rhs))
        assert np.array_equal(lu.solve(rhs[:, 0]), plain.solve(rhs[:, 0]))

    @staticmethod
    def _hub_matrix(block):
        """Six fully coupled hub unknowns, each pair of neighbours
        bridged by a two-unknown block: 12 of 18 unknowns condense."""
        hubs, n = 6, 18
        a = np.zeros((n, n))
        a[:hubs, :hubs] = -1.0
        np.fill_diagonal(a[:hubs, :hubs], 10.0)
        for k in range(hubs):
            p, q = hubs + 2 * k, hubs + 2 * k + 1
            a[p, k] = a[k, p] = -1.0
            a[q, (k + 1) % hubs] = a[(k + 1) % hubs, q] = -1.0
            a[np.ix_([p, q], [p, q])] = [[4.0, 1.0], [1.0, 3.0]]
        a[np.ix_([hubs, hubs + 1], [hubs, hubs + 1])] = block
        return backend_mod._sparse.csr_matrix(a)

    def test_singular_block_falls_back_to_splu(self):
        pytest.importorskip("scipy")
        from repro.circuits.backend import SparseLU

        healthy = SparseLU(self._hub_matrix([[4.0, 1.0], [1.0, 3.0]]))
        assert isinstance(healthy._lu, backend_mod._CondensedLU)
        matrix = self._hub_matrix([[1.0, 1.0], [1.0, 1.0]])
        lu = SparseLU(matrix)
        assert not isinstance(lu._lu, backend_mod._CondensedLU)
        assert not lu.is_singular
        rhs = np.arange(1.0, 19.0)
        np.testing.assert_allclose(
            lu.solve(rhs), np.linalg.solve(matrix.toarray(), rhs), rtol=1e-12
        )

    def test_plan_cache_is_bounded(self):
        pytest.importorskip("scipy")
        for n in range(3, 10):
            backend_mod._plan_for(_mesh_companion(n)[1])
        assert len(backend_mod._plans) == backend_mod._PLAN_CACHE_SIZE


class TestCondensedRefinement:
    """The refinement step is what makes condensation accurate: a
    mesh node's Schur diagonal is a difference of two nearly equal
    conductances, and without the step the condensed answer is several
    times less accurate than plain ``splu``'s."""

    def test_forward_error_no_worse_than_splu(self):
        pytest.importorskip("scipy")
        from scipy.sparse.linalg import splu

        from repro.circuits.backend import SparseLU

        circuit, matrix = _mesh_companion(20)
        n = matrix.shape[0]
        # A drive-current injection and a common-mode state.
        rhs = np.zeros((n, 2))
        rhs[circuit.node_index("pin"), 0] = 1e-3
        rhs[:, 1] = matrix @ (np.arange(n) < circuit.n_nodes)
        lu = SparseLU(matrix)
        assert isinstance(lu._lu, backend_mod._CondensedLU)
        plain = splu(matrix.tocsc(), options=dict(SymmetricMode=True))

        # Reference: plain splu refined with long-double residuals.
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        values = matrix.data.astype(np.longdouble)
        for b in rhs.T:
            exact = plain.solve(b)
            for _ in range(3):
                residual = b.astype(np.longdouble)
                np.subtract.at(
                    residual, rows, values * exact.astype(np.longdouble)[matrix.indices]
                )
                exact = exact + plain.solve(residual.astype(float))
            scale = np.abs(exact).max()
            condensed = np.abs(lu.solve(b) - exact).max() / scale
            direct = np.abs(plain.solve(b) - exact).max() / scale
            assert condensed <= direct


class TestGeneratedMeshes:
    """Backend equivalence on generated coil meshes: the condensed
    sparse LU against the dense path, and the Krylov backend (whose
    anchors are condensed LUs) against the sparse one."""

    @settings(max_examples=8, deadline=None)
    @given(
        nx=st.integers(2, 6),
        ny=st.integers(2, 6),
        inductance=st.floats(1e-6, 20e-6),
        capacitance=st.floats(0.2e-9, 2e-9),
        resistance=st.floats(0.5, 10.0),
    )
    def test_backends_agree(self, nx, ny, inductance, capacitance, resistance):
        pytest.importorskip("scipy")
        from repro.sensor.coils import CoilMesh

        tank = RLCTank(
            inductance=inductance,
            capacitance=capacitance,
            series_resistance=resistance,
        )
        circuit = CoilMesh(tank=tank, nx=nx, ny=ny).build_circuit(
            drive="pulse", pulse_period=1.0 / tank.frequency
        )

        def run(backend, step_control):
            return run_transient(
                circuit,
                TransientOptions(
                    t_stop=3.0 / tank.frequency,
                    dt=0.02 / tank.frequency,
                    backend=backend,
                    step_control=step_control,
                ),
            )

        dense, sparse = run("dense", "fixed"), run("sparse", "fixed")
        assert np.array_equal(dense.t, sparse.t)
        scale = float(np.abs(dense.x).max())
        np.testing.assert_allclose(sparse.x, dense.x, rtol=1e-9, atol=1e-9 * scale)

        sparse, krylov = run("sparse", "adaptive"), run("krylov", "adaptive")
        _, i_s, i_k = np.intersect1d(
            np.round(sparse.t * tank.frequency, 9),
            np.round(krylov.t * tank.frequency, 9),
            return_indices=True,
        )
        assert i_s.size >= 0.5 * sparse.t.size
        scale = float(np.abs(sparse.x).max())
        np.testing.assert_allclose(
            krylov.x[i_k], sparse.x[i_s], rtol=1e-6, atol=1e-6 * scale
        )
