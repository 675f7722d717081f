"""The pluggable linear-algebra backend layer.

Three claims are pinned here:

* the triplet stamp stream finalizes *bit-identically* to direct
  dense stamping (dense backend = pre-refactor results), and the CSR
  finalization agrees cell for cell;
* ``backend="sparse"`` reproduces ``backend="dense"`` at rtol 1e-9 on
  every solve-strategy family — linear, rank-1 Sherman–Morrison, and
  general Newton over several NonlinearVCCS devices (the ``woodbury``
  family, which the sparse backend solves as a low-rank update around
  its cached LU) or a diode — on fixed and adaptive grids,
  plus the DC and AC analyses; ``backend="krylov"`` does the same
  transient runs at its rtol 1e-6 contract, general Newton through the
  same low-rank update;
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
    SparseBackend,
    StampContext,
    TransientOptions,
    dc,
    resolve_backend,
    run_ac,
    run_transient,
    sine,
    solve_dc,
)
from repro.circuits.backend import SPARSE_AUTO_THRESHOLD
from repro.circuits.component import TripletSystem
from repro.core import OscillatorNetlist
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


def _options(backend, step_control, use_dc=True):
    return TransientOptions(
        t_stop=4e-6,
        dt=6.25e-9,
        backend=backend,
        step_control=step_control,
        use_dc_operating_point=use_dc,
    )


def _check_transient(family, step_control, backend, rtol):
    """``backend`` runs ``family`` on the dense run's time grid with the
    same solve strategy, its waveform within ``rtol`` of dense."""
    pytest.importorskip("scipy")
    build, use_dc = FAMILIES[family]
    dense = run_transient(build(), _options("dense", step_control, use_dc))
    other = run_transient(build(), _options(backend, step_control, use_dc))
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
