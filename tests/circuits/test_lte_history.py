"""Solve accounting and the adaptive loop's local-truncation-error
estimate.

Every engine reports ``stats["solves"]``, the MNA solves its step
solver made, so a result alone gives solves per accepted step.  The
adaptive loop estimates each candidate's LTE from committed history
(Milne's divided-difference form) and spends a full-step probe solve
only after a restart or a rejection, counted in
``stats["lte_probes"]``.
"""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    TransientOptions,
    dc,
    pulse,
    run_transient,
    run_transient_batched,
    sine,
)
from repro.circuits.integration import Gear, Trapezoidal
from repro.circuits.stepcontrol import (
    LteHistory,
    StepController,
    collect_breakpoints,
    lte_weights,
)
from repro.circuits.transient import _state_columns
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import RLCTank, TanhLimiter
from repro.envelope.describing import tanh_limiter_pair
from repro.sensor import CoilMesh

F0 = 4e6
T0 = 1.0 / F0


def rlc(r=100.0):
    """Linear strategy."""
    circuit = Circuit("rlc")
    circuit.voltage_source("Vin", "in", "0", sine(0.5, 1e6))
    circuit.resistor("R", "in", "out", r)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.inductor("L", "out", "tail", 1e-6)
    circuit.resistor("R2", "tail", "0", 50.0)
    return circuit


def oscillator(gm_scale=1.0):
    """Rank-1 strategy: the Fig 1 startup netlist."""
    tank = RLCTank.from_frequency_and_q(F0, 15.0, 1e-6)
    limiter = TanhLimiter(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def k_vccs(k):
    """General Newton per sample; rank-k Woodbury in lockstep."""
    circuit = Circuit(f"k{k}")
    circuit.voltage_source("Vin", "in", "0", sine(0.5, 1e6))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.resistor("RL", "a", "0", 1e3)
    for j in range(k):
        gm = 2e-3 * (1.0 + 0.1 * j)
        circuit.resistor(f"Ro{j}", f"o{j}", "0", 500.0)
        circuit.capacitor(f"Co{j}", f"o{j}", "0", 1e-10)
        circuit.nonlinear_vccs(
            f"G{j}", f"o{j}", "0", "a", "0",
            lambda v, g=gm: 1e-3 * np.tanh(g * v / 1e-3),
            vector_pair=tanh_limiter_pair,
            vector_params=(gm, 1e-3),
        )
    return circuit


def options(step_control="fixed", **kw):
    return TransientOptions(
        t_stop=4 * T0,
        dt=T0 / 40,
        use_dc_operating_point=False,
        step_control=step_control,
        **kw,
    )


class TestSolveCounter:
    @pytest.mark.parametrize(
        "build, strategy",
        [(rlc, "linear"), (oscillator, "rank1")],
    )
    def test_one_solve_per_fixed_step_in_both_engines(self, build, strategy):
        result = run_transient(build(), options())
        assert result.stats["strategy"] == strategy
        assert result.stats["solves"] == result.stats["steps"] == 160
        (stacked,) = run_transient_batched([build()], options())
        assert stacked.stats["solves"] == result.stats["solves"]

    def test_lockstep_woodbury_solves_once_per_fixed_step(self):
        result = run_transient(k_vccs(2), options())
        assert result.stats["strategy"] == "general"
        assert result.stats["solves"] == result.stats["newton_iterations"]
        (stacked,) = run_transient_batched([k_vccs(2)], options())
        assert stacked.stats["strategy"] == "batched-woodbury"
        assert stacked.stats["solves"] == stacked.stats["steps"] == 160
        assert (
            stacked.stats["newton_iterations"]
            == result.stats["newton_iterations"]
        )

    def test_general_newton_solves_once_per_iteration(self):
        result = run_transient(k_vccs(5), options())
        assert result.stats["strategy"] == "general"
        assert result.stats["solves"] == result.stats["newton_iterations"] > 160

    def test_adaptive_lockstep_batch_of_one_matches_per_sample(self):
        result = run_transient(oscillator(), options("adaptive"))
        (stacked,) = run_transient_batched([oscillator()], options("adaptive"))
        assert stacked.stats["solves"] == result.stats["solves"]
        assert result.stats["solves"] >= 2 * result.stats["accepted_steps"]


# -- the history estimate ------------------------------------------------------

#: (name, LTE order p, leading error constant C) per method and order.
ESTIMATES = [
    (name, method.lte_order(order), method.error_constant(order))
    for name, method, order in [
        ("trap", Trapezoidal(), 2),
        ("bdf1", Gear(3), 1),
        ("bdf2", Gear(3), 2),
        ("bdf3", Gear(3), 3),
    ]
]


@pytest.mark.parametrize("name, order, constant", ESTIMATES)
def test_divided_difference_recovers_leading_lte(name, order, constant):
    """Milne's estimate on exact samples of sin(wt) at uneven times is
    C·h^{p+1}·x^{(p+1)}, the derivative read at the nodes' centroid."""
    omega = 2 * np.pi * 1e6
    h = 0.1 / omega
    gaps = [h, 0.7 * h, 1.3 * h, 0.5 * h][: order + 1]
    for phase in np.linspace(0.0, 2 * np.pi, 17):
        nodes = [phase / omega]
        for gap in gaps:
            nodes.append(nodes[-1] - gap)
        weights = lte_weights(nodes, order, constant)
        estimate = sum(w * np.sin(omega * t) for w, t in zip(weights, nodes))
        centroid = sum(nodes) / len(nodes)
        derivative = omega ** (order + 1) * np.sin(
            omega * centroid + (order + 1) * np.pi / 2
        )
        exact = constant * h ** (order + 1) * derivative
        amplitude = abs(constant) * (omega * h) ** (order + 1)
        if abs(exact) >= 0.5 * amplitude:
            assert estimate == pytest.approx(exact, rel=0.05)
        assert abs(estimate - exact) <= 0.05 * amplitude


@pytest.mark.parametrize("name, order, constant", ESTIMATES)
@pytest.mark.parametrize("pushed", ["restart", "full"])
def test_history_full_step_matches_richardson(name, order, constant, pushed):
    """On a smooth trajectory the history stands in for the probe:
    (x_full - x_new)/(2^p - 1) is the two half steps' summed LTE.
    Right after a restart (p + 1 points) the second half step's
    estimate, which leaves the restart point out, stands for both."""
    omega = 2 * np.pi * 1e6
    half = 0.04 / omega

    def x(t):
        return np.array([np.sin(omega * t + 0.3), 2.0])

    columns = np.array([1.0, 0.0])
    history = LteHistory(x(0.0), order, columns)
    steps = [0.6 * half, 1.4 * half, half, 0.8 * half, half]
    if pushed == "restart":
        steps = steps[:order]
    t = 0.0
    for step in steps:
        t += step
        history.push(x(t), step)
    assert history.covers(order)
    x_new = x(t + 2 * half)
    x_full = history.full_step(x(t + half), x_new, half, order, constant)
    lte = (x_full - x_new) / (2 ** order - 1)
    derivative = omega ** (order + 1) * np.sin(
        omega * (t + half) + 0.3 + (order + 1) * np.pi / 2
    )
    expected = 2 * constant * half ** (order + 1) * derivative
    amplitude = 2 * abs(constant) * (omega * half) ** (order + 1)
    assert abs(lte[0] - expected) <= 0.1 * amplitude
    assert lte[1] == 0.0  # a masked column reads no error


def test_state_columns_skip_pinned_nodes_but_keep_device_drives():
    tank = supply_loss_tank_circuit(F0, 10 * T0)
    tank.prepare()
    columns = _state_columns(tank, tank.size)
    assert columns[tank.node_index("drv")] == 0.0  # pinned by Vdrv
    for node in ("lc1", "mid", "lc2"):
        assert columns[tank.node_index(node)] == 1.0
    rectifier = Circuit("rect")
    rectifier.voltage_source("V1", "in", "0", sine(2.0, 1e5))
    rectifier.diode("D1", "in", "out")
    rectifier.resistor("RL", "out", "0", 10e3)
    rectifier.capacitor("CL", "out", "0", 1e-6)
    rectifier.prepare()
    columns = _state_columns(rectifier, rectifier.size)
    assert columns[rectifier.node_index("in")] == 1.0  # drives the diode
    assert columns[rectifier.node_index("out")] == 1.0


# -- where the probe solve is still spent --------------------------------------


def undeclared_jump():
    """A biased RC node fed by a current that steps at 1.3 µs, with no
    breakpoint declared for the step."""
    circuit = Circuit("jump")
    circuit.voltage_source("V", "in", "0", dc(1.0))
    circuit.resistor("R", "in", "a", 1e3)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.current_source("I", "0", "a", lambda t: 1e-3 if t >= 1.3e-6 else 0.0)
    return circuit


def jump_options():
    return TransientOptions(t_stop=4e-6, dt=5e-8, step_control="adaptive")


class TestProbeRules:
    def test_undeclared_jump_is_retried_with_the_probe(self):
        result = run_transient(undeclared_jump(), jump_options())
        assert result.t[-1] == pytest.approx(4e-6)
        probes = result.stats["lte_probes"]
        assert probes["retry"] >= 1
        assert result.stats["breakpoints_hit"] == 0
        # Only the run start restarts the history.
        assert probes["restart"] == 1
        v = result.waveform("a").y
        assert v[-1] == pytest.approx(2.0 - np.exp(-2.7), rel=1e-3)

    def test_undeclared_jump_in_lockstep(self):
        solo = run_transient(undeclared_jump(), jump_options())
        (stacked,) = run_transient_batched([undeclared_jump()], jump_options())
        assert stacked.stats["lte_probes"] == solo.stats["lte_probes"]
        assert stacked.stats["lte_probes"]["retry"] >= 1
        np.testing.assert_array_equal(stacked.t, solo.t)
        pair = run_transient_batched(
            [undeclared_jump(), undeclared_jump()], jump_options()
        )
        assert pair[0].stats["lte_probes"]["retry"] >= 1

    @pytest.mark.parametrize("method", ["trap", "be", "gear"])
    def test_every_probe_is_a_restart_or_a_retry(self, method):
        """A linear candidate costs two solves, plus one where the loop
        probes: after a restart or a rejection, nowhere else."""
        result = run_transient(
            supply_loss_tank_circuit(F0, 10 * T0),
            TransientOptions(
                t_stop=30 * T0,
                dt=T0 / 40,
                method=method,
                step_control="adaptive",
                use_dc_operating_point=False,
            ),
        )
        stats = result.stats
        probes = stats["lte_probes"]
        assert probes["retry"] == stats["rejected_steps"]
        # A restart probes until p + 1 points follow it: once, as the
        # two half steps bring two; one restart at t = 0 and one at
        # the fault.
        assert probes["restart"] == 2
        candidates = stats["accepted_steps"] + stats["rejected_steps"]
        assert stats["solves"] == 2 * candidates + sum(probes.values())
        assert stats["solves"] < 2.5 * stats["accepted_steps"]  # 3 with a probe each


# -- the restart after a breakpoint ----------------------------------------------

ENGINES = {
    "scalar": run_transient,
    "lockstep": lambda circuit, opts: run_transient_batched([circuit], opts)[0],
}


def relative_error(result, reference, times):
    """max |x - x_ref| at ``times`` (points both grids land on), over
    max |x_ref|."""
    rows = []
    for r in (result, reference):
        index = np.searchsorted(r.t, times)
        np.testing.assert_allclose(r.t[index], times, rtol=1e-12)
        rows.append(r.x[index])
    return np.abs(rows[0] - rows[1]).max() / np.abs(reference.x).max()


class TestBreakpointRestart:
    """The working step carries over a breakpoint; the restart
    candidate's probe makes its estimate a Richardson one, so a step
    too large for the far side is rejected and retried."""

    MESH = CoilMesh(tank=RLCTank(10e-6, 1e-9, 2.0), nx=10, ny=10)
    T_MESH = 16 / MESH.tank.frequency  # 16 tank periods, two scan pulses

    def mesh_options(self, **kw):
        return TransientOptions(
            t_stop=self.T_MESH,
            dt=self.T_MESH / 320,
            step_control="adaptive",
            backend="sparse",
            **kw,
        )

    @pytest.fixture(scope="class")
    def mesh_reference(self):
        return run_transient(
            self.MESH.build_circuit(drive="pulse"),
            self.mesh_options(
                lte_reltol=1e-6, lte_abstol=1e-10, dt_min=self.T_MESH / 16e6
            ),
        )

    # The 461-unknown mesh is past the dense lockstep stack's size, so
    # only the scalar engine runs it; the lockstep restart is pinned by
    # test_sharp_edge_rejects_the_restart_step.
    @pytest.mark.parametrize("engine", ["scalar"])
    def test_pulsed_coil_mesh(self, engine, mesh_reference):
        circuit = self.MESH.build_circuit(drive="pulse")
        result = ENGINES[engine](circuit, self.mesh_options())
        stats = result.stats
        assert stats["breakpoints_hit"] == 8
        assert stats["lte_probes"]["restart"] == stats["breakpoints_hit"] + 1
        times = np.append(collect_breakpoints(circuit, self.T_MESH), self.T_MESH)
        assert relative_error(result, mesh_reference, times) <= 2e-5

    @staticmethod
    def edge_load():
        """A 1 ns-edge pulse into an RC and an RL branch (1 µs time
        constants)."""
        circuit = Circuit("edge")
        circuit.voltage_source(
            "V", "in", "0",
            pulse(0.0, 1.0, delay=1e-6, rise=1e-9, fall=1e-9, width=4e-6,
                  period=10e-6),
        )
        circuit.resistor("R1", "in", "a", 1e3)
        circuit.capacitor("C1", "a", "0", 1e-9)
        circuit.resistor("R2", "in", "b", 1e3)
        circuit.inductor("L2", "b", "0", 1e-3)
        return circuit

    @staticmethod
    def edge_options(reltol):
        return TransientOptions(
            t_stop=20e-6,
            dt=1e-7,
            step_control="adaptive",
            backend="dense",
            lte_reltol=reltol,
        )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_sharp_edge_rejects_the_restart_step(self, engine, monkeypatch):
        breakpoints = set(collect_breakpoints(self.edge_load(), 20e-6))
        rejected_at = []
        reject = StepController.reject

        def recording_reject(controller, ratio):
            rejected_at.append(controller.t)
            reject(controller, ratio)

        monkeypatch.setattr(StepController, "reject", recording_reject)
        result = ENGINES[engine](self.edge_load(), self.edge_options(1e-3))
        monkeypatch.undo()
        # Some candidate starting on a breakpoint was too large and
        # was retried with the probe.
        assert breakpoints.intersection(rejected_at)
        assert result.stats["lte_probes"]["retry"] >= 1
        reference = run_transient(self.edge_load(), self.edge_options(1e-7))
        times = np.intersect1d(result.t, reference.t)
        assert relative_error(result, reference, times) <= 1.5e-3
