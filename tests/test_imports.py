"""Import budget: what a circuit-level process loads, and what loads late.

Every package exports its names lazily and ``repro.envelope.dynamics``
imports its scipy solvers inside the functions that use them, so a
process that only runs transients never loads scipy's FFT, integrate,
optimize or special subpackages, nor the fault and digital layers.
Each check runs in a fresh interpreter: the pytest process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.envelope.dynamics import steady_state_amplitude

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a transient-only process must not load.
UNUSED_BY_TRANSIENTS = (
    "scipy.fft",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.special",
    "repro.faults",
    "repro.digital",
)

TRANSIENT_PROCESS = f"""
import json, sys

import repro
import repro.campaigns.vectorized
import repro.circuits
import repro.core
import repro.envelope
import repro.sensor
import repro.mc.mismatch
from repro.circuits import TransientOptions, run_transient
from repro.core import supply_loss_tank_circuit

period = 1 / 4e6
result = run_transient(
    supply_loss_tank_circuit(4e6, 4 * period, q=50.0),
    TransientOptions(t_stop=8 * period, dt=period / 40, backend="dense",
                     use_dc_operating_point=False),
)
assert len(result.t) > 1
print(json.dumps([m for m in {UNUSED_BY_TRANSIENTS!r} if m in sys.modules]))
"""


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
    """The three calls whose scipy import is deferred, on a smooth
    limiter whose describing-function table passes verification."""
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


def test_transient_process_skips_unused_modules():
    assert json.loads(fresh_python(TRANSIENT_PROCESS)) == []


def test_deferred_scipy_calls_match_in_a_fresh_process():
    expected = envelope_results()
    assert expected["table_built"]
    got = json.loads(fresh_python(
        "import json\n"
        "from test_imports import envelope_results\n"
        "print(json.dumps(envelope_results()))\n"
    ))
    assert got == expected
