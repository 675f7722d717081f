"""Import budget: what a circuit-level process loads, and what loads late.

Every package exports its names lazily and every scipy subpackage
loads on first use (``repro._lazy.LazyModule``), so a process that only
runs the paper's small netlists, or the envelope-following campaign of
the Fig 16 oscillator, never loads scipy's linalg, sparse, FFT,
integrate, optimize or special subpackages, nor the fault and digital
layers.  No library code loads ``scipy.fft`` or ``scipy.optimize``
(the describing-function table takes a numpy DCT-II, the steady state
a port of ``brentq``); ``scipy.integrate`` serves only
``EnvelopeModel.simulate``.  A run that does need scipy (``simulate``,
a dense LU of 64 unknowns or more, the sparse and Krylov backends)
loads it there and gets the same numbers bit for bit.  Each check runs
in a fresh interpreter: the pytest process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import repro.circuits.backend as backend_mod
from repro.campaigns import BatchOptions, run_transient_campaign
from repro.circuits import TransientOptions, run_transient
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.envelope.dynamics import steady_state_amplitude
from repro.errors import TaskFailure
from repro.sensor import DistributedCoil

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a transient-only process must not load.
UNUSED_BY_TRANSIENTS = (
    "scipy.fft",
    "scipy.integrate",
    "scipy.linalg",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.sparse.linalg",
    "scipy.special",
    "repro.faults",
    "repro.digital",
)

#: The scipy subpackages the circuit solvers load on first use.
SOLVER_SCIPY = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")

TRANSIENT_PROCESS = f"""
import json, sys

import repro
import repro.campaigns.vectorized
import repro.circuits
import repro.core
import repro.envelope
import repro.sensor
import repro.mc.mismatch
from repro.campaigns import BatchOptions, run_transient_campaign
from repro.circuits import PhaseSchedule, TransientOptions, run_transient, solve_dc
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import RLCTank, TanhLimiter

period = 1 / 4e6
result = run_transient(
    supply_loss_tank_circuit(4e6, 4 * period, q=50.0),
    TransientOptions(t_stop=8 * period, dt=period / 40, backend="dense",
                     use_dc_operating_point=False),
)
assert len(result.t) > 1

# The supply-loss scenario: adaptive trap, then Gear after the fault.
phased = run_transient(
    supply_loss_tank_circuit(4e6, 4 * period, q=50.0),
    TransientOptions(
        t_stop=8 * period, dt=period / 40, step_control="adaptive",
        use_dc_operating_point=False, lte_reltol=1e-6, lte_abstol=1e-9,
        phases=PhaseSchedule.carrier_then_settle(
            4 * period, carrier_dt=period / 40, settle_dt=period / 4,
            settle_method="gear", max_order=3,
        ),
    ),
)
assert phased.t[-1] == 8 * period


def oscillator(q):
    tank = RLCTank.from_frequency_and_q(4e6, q, 1e-6)
    return OscillatorNetlist(tank, vref=2.5).build(TanhLimiter(gm=6e-3, i_max=2e-3))


assert solve_dc(oscillator(15.0)).x.size
lockstep = run_transient_campaign(
    [14.0, 15.0, 16.0], oscillator,
    TransientOptions(t_stop=4 * period, dt=period / 40, use_dc_operating_point=False),
    BatchOptions(batch_mode="vectorized"),
)
assert all(r.stats["strategy"] == "batched-rank1" for r in lockstep)
print(json.dumps([m for m in {UNUSED_BY_TRANSIENTS!r} if m in sys.modules]))
"""

ENVELOPE_PROCESS = f"""
import json, sys

import numpy as np

from repro.campaigns import run_envelope_campaign
from repro.circuits import EnvelopeOptions, TransientOptions
from repro.core import OscillatorNetlist
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.mc.mismatch import MismatchProfile

period = 1 / 4e6


def parts(profile):
    q = 15.0 * (1 + profile.prescale_errors[0])
    gm = 6e-3 * (1 + profile.gm_stage_errors[0])
    return RLCTank.from_frequency_and_q(4e6, q, 1e-6), TanhLimiter(gm=gm, i_max=2e-3)


def build(profile):
    tank, limiter = parts(profile)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


models = []


def envelope_for(profile):
    models.append(EnvelopeModel(*parts(profile)))
    return EnvelopeOptions(period=period, nodes=("lc1", "lc2"), model=models[-1])


# Two Fig 16 mismatch draws over 60 cycles, as the envelope_mc
# benchmark's warm-up runs them.
rng = np.random.default_rng(1)
profiles = [MismatchProfile.sample(rng=rng) for _ in range(2)]
results = run_envelope_campaign(
    profiles, build,
    TransientOptions(t_stop=60 * period, dt=period / 40, method="trap",
                     use_dc_operating_point=False, record_nodes=("lc1", "lc2")),
    envelope_for,
    params=[(p.prescale_errors[0], p.gm_stage_errors[0]) for p in profiles],
)
assert all(r.stats["envelope"]["skipped_cycles"] > 0 for r in results)
assert all(m._table.pieces is not None for m in models)

model = EnvelopeModel(RLCTank.from_frequency_and_q(4e6, 30, 1e-6),
                      TanhLimiter(gm=10e-3, i_max=1e-3))
assert model.advance(1e-3, 5e-6) > 1e-3
assert model._table.pieces is not None
print(json.dumps([m for m in {UNUSED_BY_TRANSIENTS!r} if m in sys.modules]))
"""

needs_scipy = pytest.mark.skipif(
    not backend_mod._HAVE_SCIPY, reason="the solvers load scipy only where installed"
)

COIL_TANK = RLCTank.from_frequency_and_q(4e6, 15.0, 1e-6)


def coil_options(backend: str) -> TransientOptions:
    return TransientOptions(
        t_stop=10 / COIL_TANK.frequency,
        dt=1 / (40 * COIL_TANK.frequency),
        use_dc_operating_point=False,
        backend=backend,
    )


def coil(segments: int):
    return DistributedCoil(COIL_TANK, n_segments=segments).build_circuit()


def fresh_python(source: str) -> str:
    """Run ``source`` in a new interpreter with ``src`` and this directory
    on the path; return its last stdout line."""
    path = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    proc = subprocess.run(
        [sys.executable, "-c", source], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def envelope_results() -> dict:
    """``steady_state_amplitude``, ``simulate`` (which loads
    ``scipy.integrate``) and ``advance``, on a smooth limiter whose
    describing-function table passes verification."""
    tank = RLCTank.from_frequency_and_q(4e6, 30, 1e-6)
    limiter = TanhLimiter(gm=10e-3, i_max=1e-3)
    model = EnvelopeModel(tank, limiter)
    wave = model.simulate(2e-5, n_points=50)
    return {
        "steady_state_amplitude": steady_state_amplitude(tank, limiter),
        "simulate_t": wave.t.tolist(),
        "simulate_y": wave.y.tolist(),
        "advance": model.advance(1e-3, 5e-6),
        "table_built": model._table.pieces is not None,
    }


def solver_results() -> dict:
    """Runs that load scipy, with the solver subpackages loaded after
    each: a dense LU (76 unknowns), then the 121-unknown ladder on the
    ``"auto"`` (sparse) and Krylov backends."""
    out = {}
    for name, segments, backend in (
        ("dense_lu", 25, "dense"), ("sparse", 40, "auto"), ("krylov", 40, "krylov"),
    ):
        result = run_transient(coil(segments), coil_options(backend))
        out[name] = {
            "t": result.t.tolist(),
            "x": result.x.tolist(),
            "loaded": [m for m in SOLVER_SCIPY if m in sys.modules],
        }
    return out


def record_and_build(record_dir: str, segments: int):
    """Campaign build that notes, once per process, whether
    ``scipy.sparse`` was loaded before the process's first build."""
    path = Path(record_dir) / str(os.getpid())
    if not path.exists():
        path.write_text(json.dumps("scipy.sparse" in sys.modules))
    return coil(segments)


def process_campaign_imports(record_dir: str) -> dict:
    """A ``batch_mode="process"`` campaign on the 121-unknown ladder:
    whether the parent's and the workers' first builds saw
    ``scipy.sparse`` already loaded."""
    results = run_transient_campaign(
        [40, 40, 40, 40], partial(record_and_build, record_dir),
        coil_options("auto"), BatchOptions(batch_mode="process", max_workers=2),
    )
    assert not any(isinstance(r, TaskFailure) for r in results)
    seen = {int(p.name): json.loads(p.read_text()) for p in Path(record_dir).iterdir()}
    return {"parent": seen.pop(os.getpid()), "workers": sorted(seen.values())}


def test_transient_process_skips_unused_modules():
    assert json.loads(fresh_python(TRANSIENT_PROCESS)) == []


def test_envelope_process_skips_unused_modules():
    assert json.loads(fresh_python(ENVELOPE_PROCESS)) == []


def test_deferred_scipy_calls_match_in_a_fresh_process():
    expected = envelope_results()
    assert expected["table_built"]
    got = json.loads(fresh_python(
        "import json\n"
        "from test_imports import envelope_results\n"
        "print(json.dumps(envelope_results()))\n"
    ))
    assert got == expected


@needs_scipy
def test_solver_scipy_loads_on_first_use_with_the_same_numbers():
    got = json.loads(fresh_python(
        "import json\n"
        "from test_imports import solver_results\n"
        "print(json.dumps(solver_results()))\n"
    ))
    assert got["dense_lu"]["loaded"] == ["scipy.linalg"]
    assert got["sparse"]["loaded"] == list(SOLVER_SCIPY)
    expected = solver_results()
    for name, run in expected.items():
        assert got[name]["t"] == run["t"], name
        assert got[name]["x"] == run["x"], name


@needs_scipy
def test_process_pool_workers_inherit_scipy(tmp_path):
    got = json.loads(fresh_python(
        "import json\n"
        "from test_imports import process_campaign_imports\n"
        f"print(json.dumps(process_campaign_imports({str(tmp_path)!r})))\n"
    ))
    assert got["parent"] is False
    assert got["workers"] and all(got["workers"])
