"""Constant-dt blocks: the linear step's bookkeeping once per block.

An unarmed run of a linear netlist on the dense propagator takes its
steps in blocks: the adaptive loop computes every half step of a run of
candidates at one ``(dt, order)`` in one pass, estimates them all at
once, feeds the ratios to the controller in order and commits the
accepted prefix; the fixed grid does the same with no controller.  A
run armed with ``certify=True`` takes each candidate alone, the
single-step body.  The contract is that the two are the same run: equal
``t``, ``x`` and every ``stats`` key of the unarmed run, bit for bit,
with only ``health`` and ``certified_steps`` added by the armed one.

The property runs generated RLC netlists through trap, BE, BDF2 and
Gear-3 with pulse, PWL, sine and DC sources and optional phase
schedules; the named tests pin each way a block ends (breakpoint,
budget, rejection, dt or order change, phase switch) and the record
stride across block edges.  The unit tests pin the pieces: a block's
products and commits against step-by-step propagation, its history
estimates against :meth:`LteHistory.full_step`, its landing times
against :meth:`StepController.propose`, and its source stamps against
``value_at``.
"""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import (
    Circuit,
    TransientOptions,
    dc,
    pulse,
    pwl,
    run_transient,
    sine,
)
from repro.circuits.assembly import TransientAssembly, _ReactiveSet
from repro.circuits.integration import resolve_method
from repro.circuits.sources import CurrentSource, VoltageSource
from repro.circuits.stepcontrol import (
    LteHistory,
    Phase,
    PhaseSchedule,
    StepController,
)
from repro.circuits.transient import _RecordingBuffer
from repro.core import supply_loss_tank_circuit

PERIOD = 1e-5
#: Integration setups: (method, max_order).
METHODS = [("trap", None), ("be", None), ("bdf2", None), ("gear", 3)]
STIMULI = ("sine", "pulse", "pwl", "dc")


def _stimulus(kind, amplitude, period=PERIOD):
    if kind == "sine":
        return sine(amplitude, 1.0 / period)
    if kind == "pulse":
        return pulse(
            0.0, amplitude, delay=0.13 * period, rise=0.05 * period,
            fall=0.07 * period, width=0.3 * period, period=period,
        )
    if kind == "pwl":
        return pwl([
            (0.0, 0.0), (0.21 * period, amplitude),
            (0.55 * period, -0.5 * amplitude), (1.3 * period, 0.25 * amplitude),
        ])
    return dc(amplitude)


def _method_fields(method, max_order):
    fields = {"method": method}
    if method == "gear":
        fields.update(max_order=max_order, order_control=True)
    return fields


def _same_run(blocked, armed):
    """The armed run equals the blocked one in ``t``, ``x`` and every
    ``stats`` key the blocked run has."""
    assert np.array_equal(blocked.t, armed.t)
    assert np.array_equal(blocked.x, armed.x)
    assert set(armed.stats) - set(blocked.stats) <= {"health", "certified_steps"}
    for key, value in blocked.stats.items():
        assert armed.stats[key] == value, key


class _Blocks:
    """Spy on the block kernel: per block, its candidates (adaptive)
    or steps (fixed), and per adaptive block ``(candidates,
    written, accepted)`` as committed to the history."""

    def __init__(self, monkeypatch):
        self.steps = []
        self.history = []
        self.stretches = []
        propagate = _ReactiveSet.propagate_block
        commit = LteHistory.commit_block
        stretch = StepController.stretch

        def spy_propagate(reactive, co, prop, b, times):
            self.steps.append(len(times))
            return propagate(reactive, co, prop, b, times)

        def spy_commit(history, xs, half, written, accepted):
            self.history.append((len(xs) // 2, written, accepted))
            return commit(history, xs, half, written, accepted)

        def spy_stretch(controller, n):
            targets = stretch(controller, n)
            self.stretches.append((n, targets, controller.next_breakpoint))
            return targets

        monkeypatch.setattr(_ReactiveSet, "propagate_block", spy_propagate)
        monkeypatch.setattr(LteHistory, "commit_block", spy_commit)
        monkeypatch.setattr(StepController, "stretch", spy_stretch)

    def cut_by_breakpoint(self):
        """Stretches cut short because the next candidate lands."""
        return [s for s in self.stretches if 0 < len(s[1]) < s[0]]


def _pair(circuit, monkeypatch=None, **fields):
    """The blocked run (spied when ``monkeypatch`` is given) and the
    same run armed with ``certify``."""
    options = TransientOptions(**fields)
    spy = None
    if monkeypatch is not None:
        with monkeypatch.context() as mp:
            spy = _Blocks(mp)
            blocked = run_transient(circuit, options)
    else:
        blocked = run_transient(circuit, options)
    armed = run_transient(circuit, TransientOptions(certify=True, **fields))
    _same_run(blocked, armed)
    return blocked, armed, spy


# -- generated netlists --------------------------------------------------


resistance = st.floats(min_value=10.0, max_value=1e4)
inductance = st.floats(min_value=1e-6, max_value=1e-3)
capacitance = st.floats(min_value=1e-9, max_value=1e-6)


@st.composite
def rlc_netlists(draw):
    """A driven RLC network: every node has a resistor to ground, a
    voltage source drives node 0 through a resistor, R, L and C join
    random node pairs (C also to ground), and a current source may feed
    one node.  Well below 64 unknowns, so the dense propagator runs."""
    n = draw(st.integers(min_value=1, max_value=5))
    nodes = [f"n{k}" for k in range(n)]
    circuit = Circuit("generated-rlc")
    circuit.voltage_source(
        "V", "drv", "0",
        _stimulus(draw(st.sampled_from(STIMULI)), draw(st.floats(0.1, 2.0))),
    )
    circuit.resistor("Rdrv", "drv", nodes[0], draw(resistance))
    for k, node in enumerate(nodes):
        circuit.resistor(f"Rg{k}", node, "0", draw(resistance))
    pair = st.lists(
        st.sampled_from(nodes + ["0"]), min_size=2, max_size=2, unique=True
    )
    elements = st.tuples(st.sampled_from("RLC"), pair)
    for k, (kind, (a, b)) in enumerate(draw(st.lists(elements, min_size=1, max_size=8))):
        if kind == "R":
            circuit.resistor(f"R{k}", a, b, draw(resistance))
        elif kind == "L":
            circuit.inductor(f"L{k}", a, b, draw(inductance))
        else:
            circuit.capacitor(f"C{k}", a, b, draw(capacitance))
    if draw(st.booleans()):
        circuit.current_source(
            "I", "0", draw(st.sampled_from(nodes)),
            _stimulus(draw(st.sampled_from(STIMULI)), draw(st.floats(1e-4, 1e-2))),
        )
    return circuit


@st.composite
def adaptive_fields(draw):
    """Adaptive options: one method, or a two-phase schedule."""
    fields = dict(
        t_stop=3 * PERIOD, dt=PERIOD / 20, step_control="adaptive",
        use_dc_operating_point=False, on_abort="partial", max_steps=20000,
        lte_reltol=draw(st.sampled_from([1e-3, 1e-4])),
        lte_abstol=1e-7,
        record_stride=draw(st.integers(min_value=1, max_value=3)),
    )
    first, second = draw(st.lists(st.sampled_from(METHODS), min_size=2, max_size=2))
    if draw(st.booleans()):
        fields["phases"] = PhaseSchedule((
            Phase(0.0, first[0], max_order=first[1]),
            Phase(
                draw(st.sampled_from([1.0, 1.37, 2.0])) * PERIOD, second[0],
                dt=draw(st.sampled_from([None, PERIOD / 8])),
                max_order=second[1],
                bootstrap=draw(st.booleans()),
            ),
        ))
    else:
        fields.update(_method_fields(*first))
    return fields


@settings(
    max_examples=40,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rlc_netlists(), adaptive_fields())
def test_blocked_adaptive_run_equals_single_step_run(circuit, fields):
    """The contract: an unarmed adaptive run (blocks) equals the same
    run armed with ``certify`` (each candidate alone), bit for bit."""
    assert circuit.prepare() < 64
    _pair(circuit, **fields)


@settings(max_examples=15, deadline=timedelta(seconds=5))
@given(
    rlc_netlists(),
    st.sampled_from(METHODS),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([None, 37, 200]),
)
def test_blocked_fixed_run_equals_single_step_run(circuit, setup, stride, max_steps):
    """The same contract on the fixed grid, with the record stride and
    a step budget that may end the run inside a block."""
    _pair(
        circuit,
        t_stop=3 * PERIOD, dt=PERIOD / 100, use_dc_operating_point=False,
        record_stride=stride, max_steps=max_steps, on_abort="partial",
        **_method_fields(*setup),
    )


# -- each way a block ends -------------------------------------------------


def _tank(t_fault=40 * PERIOD, q=47.2):
    return supply_loss_tank_circuit(1.0 / PERIOD, t_fault, q=q, inductance=1e-6)


def _phased_fields(t_stop=80 * PERIOD, **extra):
    """The ``supply_loss_q`` workload's options on a shorter run.  The
    run takes some 12,000 candidates; the budget of 30,000 keeps a
    broken block (one whose estimates collapse the step) from grinding
    on."""
    fields = dict(
        max_steps=30000, on_abort="partial",
        t_stop=t_stop, dt=PERIOD / 40, step_control="adaptive",
        use_dc_operating_point=False, dt_min=PERIOD / 81920,
        dt_max=8 * PERIOD, lte_reltol=1e-6, lte_abstol=1e-9,
        phases=PhaseSchedule.carrier_then_settle(
            40 * PERIOD, carrier_dt=PERIOD / 40, settle_dt=PERIOD / 4,
            settle_method="gear", max_order=3,
        ),
    )
    fields.update(extra)
    return fields


@pytest.mark.parametrize("method", ["trap", "gear"])
def test_breakpoint_inside_a_would_be_block(monkeypatch, method):
    """A pulse's edges fall inside stretches: each block stops before
    the candidate that lands on an edge, which the single-step body
    takes."""
    circuit = Circuit("pulsed-rc")
    circuit.voltage_source(
        "V", "in", "0",
        pulse(0.0, 1.0, delay=0.37 * PERIOD, rise=0.011 * PERIOD,
              fall=0.013 * PERIOD, width=0.29 * PERIOD, period=PERIOD),
    )
    circuit.resistor("R", "in", "out", 1e3)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.inductor("L", "out", "tail", 1e-4)
    circuit.resistor("R2", "tail", "0", 100.0)
    blocked, _, spy = _pair(
        circuit, monkeypatch, t_stop=6 * PERIOD, dt=PERIOD / 50,
        step_control="adaptive", use_dc_operating_point=False,
        max_steps=20000, on_abort="partial",
        **_method_fields(method, 3),
    )
    assert blocked.stats["breakpoints_hit"] >= 20
    cut = spy.cut_by_breakpoint()
    assert cut
    for n, targets, breakpoint in cut:
        assert targets[-1] < breakpoint


@pytest.mark.parametrize("max_steps", [150, 1001, 2345])
def test_max_steps_hit_mid_block(monkeypatch, max_steps):
    """A step budget exhausted inside a block: the run ends after the
    same accepted candidate, with the same ``t_abort`` and stats."""
    blocked, armed, spy = _pair(
        _tank(), monkeypatch,
        **_phased_fields(max_steps=max_steps, on_abort="partial"),
    )
    assert blocked.stats["abort_reason"] == "max_steps"
    assert blocked.stats["t_abort"] == armed.stats["t_abort"]
    # The last block had candidates the budget never reached.
    n, written, accepted = spy.history[-1]
    assert written < n


@pytest.mark.parametrize("record_nodes", [None, ("lc2", "lc1")])
@pytest.mark.parametrize("step_control", ["adaptive", "fixed"])
def test_record_stride_across_block_edges(monkeypatch, step_control, record_nodes):
    """``record_stride=3`` counts accepted steps across blocks (and
    across the single steps between them), not per block; a block
    gathers ``record_nodes`` as a single step does."""
    if step_control == "adaptive":
        fields = _phased_fields(record_stride=3, record_nodes=record_nodes)
    else:
        fields = dict(
            t_stop=20 * PERIOD, dt=PERIOD / 40, method="gear", max_order=3,
            use_dc_operating_point=False, record_stride=3,
            record_nodes=record_nodes,
        )
    blocked, _, spy = _pair(_tank(), monkeypatch, **fields)
    assert any(n % 3 for n in spy.steps)  # blocks whose edges cut strides
    steps = blocked.stats["steps"]
    assert len(blocked.t) == steps // 3 + 1


def test_rejection_inside_a_block_rolls_back(monkeypatch):
    """A block whose candidate k > 0 is rejected: the integrator ring
    and ``v``/``i``, the ``LteHistory`` rows and the pending product
    are those after candidate k - 1, so the retry and the rest of the
    run match the single-step run."""
    blocked, _, spy = _pair(_tank(), monkeypatch, **_phased_fields())
    rejected_at = [
        accepted for n, written, accepted in spy.history
        if written == accepted + 1 and accepted > 0
    ]
    assert rejected_at
    assert blocked.stats["rejected_steps"] > len(rejected_at)


def test_trap_to_gear_switch_at_a_block_edge(monkeypatch):
    """The phase onset is a breakpoint: the carrier's last block stops
    before it, the landing candidate switches to Gear-3, and Gear's
    blocks follow."""
    blocked, _, spy = _pair(_tank(), monkeypatch, **_phased_fields())
    assert blocked.stats["phase_switches"] == 1
    onset = 40 * PERIOD
    assert any(bp == onset for n, targets, bp in spy.cut_by_breakpoint())
    phase = blocked.stats["phases"][0]
    assert phase["method"] == "gear" and phase["t"] == onset


def test_gear_to_trap_switch_keeps_the_ring(monkeypatch):
    """A one-step phase after a multistep one still carries the ring
    its commits keep; blocks in that phase keep it too."""
    fields = _phased_fields(
        phases=PhaseSchedule((
            Phase(0.0, "gear", max_order=3),
            Phase(40 * PERIOD, "trap", dt=PERIOD / 40),
        )),
    )
    blocked, _, spy = _pair(_tank(), monkeypatch, **fields)
    assert blocked.stats["phase_switches"] == 1
    assert spy.steps


# -- the pieces ---------------------------------------------------------


def _assembly(method, order=None, dt=PERIOD / 40):
    tank = _tank(t_fault=1000 * PERIOD)
    assembly = TransientAssembly(tank, dt, resolve_method(method, max_order=order),
                                 1e-12, backend="dense")
    rng = np.random.default_rng(7)
    assembly.init_state(rng.standard_normal(assembly.size))
    return assembly


def _ring_state(reactive):
    ring = reactive.ring
    state = [reactive.v.copy(), reactive.i.copy(), ring.t_now, ring.fill]
    if ring.depth:
        state += [ring.rows.copy(), ring.t.copy()]
    return state


def _assert_same_state(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("method,order", METHODS)
@pytest.mark.parametrize("j", [0, 3, 11])
def test_block_commit_equals_step_by_step(method, order, j):
    """``propagate_block`` then ``commit_block(j)`` leaves the state
    of steps ``0..j`` taken one by one (``propagate`` + ``commit``),
    and its rows are their products."""
    dt = PERIOD / 40
    times = [k * dt for k in range(4, 16)]
    stepped = _assembly(method, order)
    blocked = _assembly(method, order)
    m = resolve_method(method, max_order=order)
    for assembly in (stepped, blocked):
        # A few committed steps first, so the ring starts part full.
        for t in (dt, 2 * dt, 3 * dt):
            o = m.usable_order(m.max_order, assembly.history_points)
            assembly.set_dt(dt, order=o)
            assembly.commit(assembly.linear_solve(assembly.step_rhs(t, None)), t)
    order_now = m.usable_order(m.max_order, blocked.history_points)
    blocked.set_dt(dt, order=order_now)
    assert blocked.propagated
    out = blocked.propagate_block(times)
    assert blocked.reactive.pending is None
    for k, t in enumerate(times[: j + 1]):
        stepped.set_dt(dt, order=order_now)
        z = stepped.linear_solve(stepped.step_rhs(t, None))
        assert np.array_equal(z, out[k, : stepped.size])
        stepped.commit(z, t)
    blocked.commit_block(j)
    assert blocked.reactive.pending is None and blocked.reactive.block is None
    _assert_same_state(_ring_state(blocked.reactive), _ring_state(stepped.reactive))


def test_block_commit_of_none_leaves_the_state():
    """``commit_block(-1)`` (the block's first candidate rejected)
    drops the whole block."""
    assembly = _assembly("gear", 3)
    assembly.set_dt(PERIOD / 40, order=1)
    before = _ring_state(assembly.reactive)
    assembly.propagate_block([PERIOD / 40 * k for k in range(1, 6)])
    assembly.commit_block(-1)
    _assert_same_state(_ring_state(assembly.reactive), before)


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("written,accepted", [(9, 9), (6, 5), (1, 0), (4, 3)])
def test_history_block_equals_full_step_sequence(depth, written, accepted):
    """``full_steps`` gives each candidate's :meth:`full_step` bits,
    and ``commit_block`` leaves the ring as ``written`` full steps and
    ``accepted`` advances would (a rejected candidate's rows written,
    not advanced)."""
    rng = np.random.default_rng(depth * 100 + written)
    columns = (rng.random(5) < 0.7).astype(float)
    half = 0.25e-6
    xs = rng.standard_normal((18, 5))

    def history():
        h = LteHistory(rng.standard_normal(5), depth, columns)
        for step in (1e-6, 0.5e-6, 0.5e-6):
            h.push(rng.standard_normal(5), step)
        return h

    state = rng.bit_generator.state
    one = history()
    rng.bit_generator.state = state
    block = history()
    order, constant = depth, -1.0 / 12.0
    totals = block.full_steps(xs, half, order, constant)
    for k in range(9):
        expect = one.full_step(xs[2 * k], xs[2 * k + 1], half, order, constant)
        assert np.array_equal(totals[k], expect)
        one.advance()
    rng.bit_generator.state = state
    one = history()
    for k in range(written):
        one.full_step(xs[2 * k], xs[2 * k + 1], half, order, constant)
        if k < accepted:
            one.advance()
    block.commit_block(xs, half, written, accepted)
    assert np.array_equal(block.rows, one.rows)
    assert block.steps == one.steps
    assert (block.head, block.points) == (one.head, one.points)


def test_stretch_equals_successive_proposals():
    """The landing times of a stretch are those ``propose`` returns as
    each candidate is accepted with no dt change, up to the one that
    lands on a breakpoint."""
    controller = StepController(
        t_stop=1.0, dt_initial=0.0123, dt_min=1e-4, dt_max=0.05,
        breakpoints=[0.3],
    )
    targets = controller.stretch(100)
    proposed = []
    while True:
        t_target, dt = controller.propose()
        if t_target == 0.3:
            break
        proposed.append(t_target)
        controller.accept(t_target, dt, 0.5)  # ratio 0.5 keeps dt
    assert targets == proposed
    assert controller.stretch(100) == []


def test_recording_extend_equals_appends():
    rng = np.random.default_rng(3)
    times, xs = rng.random(23), rng.standard_normal((23, 6))
    for indices in (None, np.array([4, 0, 2])):
        one = _RecordingBuffer((6 if indices is None else 3,), 4, indices)
        two = _RecordingBuffer((6 if indices is None else 3,), 4, indices)
        for t, x in zip(times, xs):
            one.append(t, x)
        two.extend(list(times[:5]), xs[:5])
        two.extend(list(times[5:]), xs[5:])
        for a, b in zip(one.arrays(), two.arrays()):
            assert np.array_equal(a, b)


def test_armed_runs_take_no_blocks(monkeypatch):
    """Guards, certification, rescue and a Newton fail hook each take
    the single-step body."""
    from repro.circuits.dcop import NewtonOptions

    armings = [
        dict(guards=True), dict(certify=True), dict(rescue=True),
        dict(newton=NewtonOptions(fail_hook=lambda *_: False)),
    ]
    for arming in armings:
        with monkeypatch.context() as mp:
            spy = _Blocks(mp)
            run_transient(_tank(), TransientOptions(**_phased_fields(**arming)))
        assert spy.steps == [], arming
    with monkeypatch.context() as mp:
        spy = _Blocks(mp)
        run_transient(_tank(), TransientOptions(**_phased_fields()))
    assert spy.steps


# -- source stamps ------------------------------------------------------


def _source_circuit(kind, source_type):
    circuit = Circuit("sourced")
    func = _stimulus(kind, 0.7)
    if source_type is VoltageSource:
        circuit.voltage_source("S", "a", "0", func)
    else:
        circuit.current_source("S", "a", "b", func)
        circuit.resistor("Rb", "b", "0", 100.0)
    circuit.resistor("R", "a", "0", 100.0)
    circuit.capacitor("C", "a", "0", 1e-9)
    return circuit


@pytest.mark.parametrize("kind", STIMULI)
@pytest.mark.parametrize("source_type", [VoltageSource, CurrentSource])
def test_block_sources_equal_value_at(kind, source_type):
    """A block's source stamps are each time's ``value_at``, bit for
    bit, and the very right-hand sides ``step_rhs`` builds per step:
    the block calls the scalar stimulus function once per time, so no
    vectorized ``np.sin`` or ``np.interp`` rounding enters a run."""
    circuit = _source_circuit(kind, source_type)
    assembly = TransientAssembly(circuit, PERIOD / 40, resolve_method("trap"),
                                 1e-12, backend="dense")
    assembly.init_state(np.zeros(assembly.size))
    assert assembly.blocks and assembly.propagated
    rng = np.random.default_rng(11)
    times = list(np.sort(rng.random(200)) * 3 * PERIOD)
    times += [0.13 * PERIOD, 0.18 * PERIOD, 0.21 * PERIOD, PERIOD * 1.3]
    rhs = assembly.block_sources(times)
    source = circuit["S"]
    values = np.array([source.value_at(t) for t in times])
    if source_type is VoltageSource:
        assert np.array_equal(rhs[:, source.branch_indices[0]], values)
    else:
        a, b = (circuit.node_index(n) for n in ("a", "b"))
        assert np.array_equal(rhs[:, a], -values)
        assert np.array_equal(rhs[:, b], values)
    for t, row in zip(times, rhs):
        assert np.array_equal(row, assembly.step_rhs(t, None))

