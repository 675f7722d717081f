"""Coupled-coil model of the position sensor (Fig 9).

The excitation coil (the oscillator coil) couples into two receiving
coils; a rotor modulates the coupling coefficients with its angle.
Receiving-coil voltage amplitudes are ``k_i(theta) * A_osc``; the
receiver compares them to extract position (§1).

Mutual coupling between the two *excitation* coils of a redundant
dual-oscillator system is modelled by reflecting the other system's
loading impedance into the tank (:func:`tank_with_parallel_load`).

Beyond the lumped abstraction, :class:`DistributedCoil` scales the
same sensing coil into an N-segment RLC transmission-line netlist —
the coil's inductance and loss spread along the winding, its
inter-winding capacitance shunted at every junction — which is the
first workload family in this library whose MNA system grows into
the sparse linear-algebra backend's territory (hundreds-to-thousands
of unknowns; see :mod:`repro.circuits.backend`).  :class:`CoilMesh`
generalizes the same idea to two dimensions — a planar winding
spread over an ``nx x ny`` surface grid of coupled L-R segments —
reaching the 10k–100k-unknown territory of the Krylov backend, and
:func:`coil_mesh_array` spreads a mesh into a same-topology
multi-coil array for the batched campaign engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..circuits.netlist import Circuit
from ..circuits.sources import pulse, sine
from ..envelope.tank import RLCTank
from ..errors import ConfigurationError

__all__ = [
    "CouplingProfile",
    "ReceivingCoilPair",
    "DistributedCoil",
    "CoilMesh",
    "coil_mesh_array",
    "tank_with_parallel_load",
]


@dataclass(frozen=True)
class CouplingProfile:
    """Angle-dependent coupling of the rotor.

    The two receiving coils see complementary couplings::

        k1(theta) = k_max * (1 + sin(theta)) / 2
        k2(theta) = k_max * (1 - sin(theta)) / 2

    over the mechanical range ``±theta_range`` — a standard inductive
    position-sensor characteristic: the *sum* is angle-independent
    (useful for diagnostics) and the normalized *difference* is
    monotonic in the angle.
    """

    k_max: float = 0.2
    theta_range: float = math.pi / 3.0

    def __post_init__(self) -> None:
        if not 0 < self.k_max <= 1:
            raise ConfigurationError("k_max must be in (0, 1]")
        if not 0 < self.theta_range <= math.pi / 2.0:
            raise ConfigurationError("theta_range must be in (0, pi/2]")

    def couplings(self, theta: float) -> Tuple[float, float]:
        """(k1, k2) at mechanical angle ``theta`` (radians)."""
        if abs(theta) > self.theta_range:
            raise ConfigurationError(
                f"angle {theta:g} outside ±{self.theta_range:g} rad"
            )
        s = math.sin(theta) / math.sin(self.theta_range)
        k1 = self.k_max * (1.0 + s) / 2.0
        k2 = self.k_max * (1.0 - s) / 2.0
        return k1, k2


@dataclass(frozen=True)
class ReceivingCoilPair:
    """The two receiving coils seen from the excitation coil."""

    profile: CouplingProfile

    def received_amplitudes(self, theta: float, excitation_peak: float) -> Tuple[float, float]:
        """Peak voltages induced in the two receiving coils."""
        if excitation_peak < 0:
            raise ConfigurationError("excitation amplitude must be >= 0")
        k1, k2 = self.profile.couplings(theta)
        return k1 * excitation_peak, k2 * excitation_peak


@dataclass(frozen=True)
class DistributedCoil:
    """The sensing coil as an N-segment RLC transmission line.

    The lumped tank models the coil as one ``L`` + ``Rs`` between the
    LC pins; physically the inductance and loss are distributed along
    the winding, with inter-winding (parasitic) capacitance to the
    surrounding structure.  This generator splits the coil into
    ``n_segments`` series L-R cells (``L/N``, ``Rs/N`` each) with a
    shunt capacitor at every internal junction carrying an equal share
    of ``parasitic_fraction * C``; the pin capacitors of the lumped
    tank stay lumped at the two ends, so the fundamental resonance
    remains (to the high-Q approximation) the tank's own while the
    netlist gains the transmission-line modes a lumped model cannot
    show.

    ``unknown_count`` grows as ``3 N + 1``: an N-segment coil at
    N >= ~55 crosses the dense/sparse auto threshold, which is exactly
    what this family exists to exercise (the
    ``ladder_transient_dense_vs_sparse`` benchmark workload).
    """

    tank: RLCTank
    n_segments: int
    #: Total inter-winding capacitance as a fraction of one pin cap.
    parasitic_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ConfigurationError("n_segments must be >= 1")
        if not 0.0 < self.parasitic_fraction < 1.0:
            raise ConfigurationError("parasitic_fraction must be in (0, 1)")

    @property
    def segment_inductance(self) -> float:
        return self.tank.inductance / self.n_segments

    @property
    def segment_resistance(self) -> float:
        return self.tank.series_resistance / self.n_segments

    @property
    def junction_capacitance(self) -> float:
        """Shunt capacitance per internal junction (N - 1 of them)."""
        total = self.parasitic_fraction * self.tank.capacitance
        return total / max(self.n_segments - 1, 1)

    @property
    def unknown_count(self) -> int:
        """MNA unknowns of :meth:`build_circuit`'s netlist.

        ``2N + 1`` nodes (pins plus internal junctions) + ``N``
        inductor branches.
        """
        return 3 * self.n_segments + 1

    def build_circuit(self, drive_current: float = 1e-3) -> Circuit:
        """Drivable netlist: sine current drive at the tank resonance.

        The oscillator's Gm stage is a current drive, so the
        excitation is a current source into the LC1 pin at the lumped
        tank's resonance frequency; both pin capacitors of the lumped
        model appear at the ends (LC2 returned to ground, as in the
        single-ended test benches), with the distributed coil between
        them.  The netlist is linear — one factorization serves the
        whole run — which makes it the cleanest dense-vs-sparse
        backend comparison: identical step count, identical RHS work,
        only the linear algebra differs.
        """
        if drive_current <= 0:
            raise ConfigurationError("drive_current must be positive")
        circuit = Circuit(
            f"distributed sensing coil, {self.n_segments} segments"
        )
        circuit.current_source(
            "idrive", "0", "lc1", sine(drive_current, self.tank.frequency)
        )
        circuit.capacitor("cosc1", "lc1", "0", self.tank.capacitance)
        circuit.rlc_ladder(
            "coil_",
            "lc1",
            "lc2",
            self.n_segments,
            self.segment_inductance,
            self.segment_resistance,
            self.junction_capacitance,
        )
        circuit.capacitor("cosc2", "lc2", "0", self.tank.capacitance)
        # LC2 is the driven-to-ground pin in the single-ended benches.
        circuit.resistor("rload", "lc2", "0", 1e6)
        return circuit


@dataclass(frozen=True)
class CoilMesh:
    """The sensing coil as a 2-D ``nx x ny`` surface mesh.

    :class:`DistributedCoil` strings the winding out in one dimension;
    physically a planar sensing coil is a *surface*, its inductance
    and loss spread over a two-dimensional grid of coupled segments
    with distributed capacitance to the surrounding structure at every
    point of the surface.  This generator splits the lumped tank over
    a ``Circuit.coil_mesh`` grid: each of the ``E`` edges carries
    ``L/E`` and ``Rs/E`` (so the total series inductance and loss seen
    corner-to-corner stay of the tank's order), and each grid node
    shunts an equal share of ``parasitic_fraction * C``.

    ``unknown_count`` grows as ``~5 * nx * ny``: a 46x46 mesh crosses
    10k unknowns and a 100x100 mesh lands at ~50k, which is the
    workload family the stale-LU Krylov backend
    (:class:`~repro.circuits.backend.KrylovBackend`) exists for.
    """

    tank: RLCTank
    nx: int
    ny: int
    #: Total distributed capacitance as a fraction of one pin cap.
    parasitic_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError("coil mesh needs nx >= 2 and ny >= 2")
        if not 0.0 < self.parasitic_fraction < 1.0:
            raise ConfigurationError("parasitic_fraction must be in (0, 1)")

    @property
    def n_edges(self) -> int:
        return self.nx * (self.ny - 1) + self.ny * (self.nx - 1)

    @property
    def segment_inductance(self) -> float:
        return self.tank.inductance / self.n_edges

    @property
    def segment_resistance(self) -> float:
        return self.tank.series_resistance / self.n_edges

    @property
    def node_capacitance(self) -> float:
        """Shunt capacitance per grid node."""
        total = self.parasitic_fraction * self.tank.capacitance
        return total / (self.nx * self.ny)

    @property
    def unknown_count(self) -> int:
        """MNA unknowns of :meth:`build_circuit`'s netlist.

        ``nx*ny`` grid nodes + per edge one mid junction and one
        inductor branch, plus the drive pin.
        """
        return self.nx * self.ny + 2 * self.n_edges + 1

    def build_circuit(
        self,
        drive_current: float = 1e-3,
        drive: str = "sine",
        pulse_period: float = 0.0,
    ) -> Circuit:
        """Drivable netlist: current drive into one corner of the mesh.

        ``drive="sine"`` excites at the lumped tank's resonance — the
        linear single-factorization workload, the cleanest backend
        wall-clock comparison.  ``drive="pulse"`` is a repetitive
        scan-pulse train (period ``pulse_period``, default eight
        periods of the tank resonance): every edge is a stimulus
        breakpoint, so an adaptive run truncates steps onto the edges
        and churns through one-shot dt-cache entries — the
        refactorization-bound regime the stale-LU Krylov backend
        amortizes.
        """
        if drive_current <= 0:
            raise ConfigurationError("drive_current must be positive")
        if drive not in ("sine", "pulse"):
            raise ConfigurationError("drive must be 'sine' or 'pulse'")
        circuit = Circuit(
            f"coil mesh {self.nx}x{self.ny} ({self.unknown_count} unknowns)"
        )
        if drive == "sine":
            stimulus = sine(drive_current, self.tank.frequency)
        else:
            period = pulse_period or 8.0 / self.tank.frequency
            stimulus = pulse(
                0.0,
                drive_current,
                delay=0.1 * period,
                rise=0.02 * period,
                fall=0.02 * period,
                width=0.4 * period,
                period=period,
            )
        circuit.current_source("idrive", "0", "pin", stimulus)
        circuit.capacitor("cpin", "pin", "0", self.tank.capacitance)
        grid = circuit.coil_mesh(
            "mesh_",
            self.nx,
            self.ny,
            self.segment_inductance,
            self.segment_resistance,
            self.node_capacitance,
        )
        # Feed the corner, load the opposite corner.
        circuit.resistor("rfeed", "pin", grid[0][0], self.segment_resistance)
        circuit.resistor("rload", grid[self.nx - 1][self.ny - 1], "0", 1e6)
        return circuit


def coil_mesh_array(
    mesh: CoilMesh,
    n_coils: int,
    spread: float = 0.05,
    drive_current: float = 1e-3,
    drive: str = "sine",
) -> List[Circuit]:
    """Same-topology multi-coil array: one netlist per coil position.

    Manufacturing spread moves each coil's element values a
    deterministic few percent from nominal (coil ``k`` scales L, Rs,
    and C by ``1 + spread * sin``-spaced offsets), so the list feeds
    the campaign engines directly: identical structure, per-sample
    values.  A mesh of :data:`~repro.circuits.backend.
    SPARSE_AUTO_THRESHOLD` unknowns or more is too large for the dense
    lockstep stack, so a campaign over it runs per sample (in a
    process pool with ``batch_mode="process"``).
    """
    if n_coils < 1:
        raise ConfigurationError("n_coils must be >= 1")
    if not 0.0 <= spread < 0.5:
        raise ConfigurationError("spread must be in [0, 0.5)")
    circuits = []
    for k in range(n_coils):
        # Deterministic, well-spread offsets in [-spread, spread].
        phase = 2.0 * math.pi * (k + 0.5) / n_coils
        scale_l = 1.0 + spread * math.sin(phase)
        scale_c = 1.0 + spread * math.cos(phase)
        scale_r = 1.0 + spread * math.sin(2.0 * phase)
        tank = RLCTank(
            mesh.tank.inductance * scale_l,
            mesh.tank.capacitance * scale_c,
            mesh.tank.series_resistance * scale_r,
        )
        varied = CoilMesh(tank, mesh.nx, mesh.ny, mesh.parasitic_fraction)
        # One scanner drives the whole array: the pulse train's timing
        # comes from the *nominal* tank so every coil shares the same
        # stimulus breakpoints (spread moves the elements, not the
        # scan clock).
        circuits.append(
            varied.build_circuit(
                drive_current=drive_current,
                drive=drive,
                pulse_period=8.0 / mesh.tank.frequency,
            )
        )
    return circuits


def tank_with_parallel_load(tank: RLCTank, r_parallel: float) -> RLCTank:
    """A tank whose Rp is loaded by an extra parallel resistance.

    Used to reflect the other system's pin loading (through the mutual
    coil coupling) into this system's resonance network.  The loaded
    ``Rp' = Rp || r_parallel`` is converted back to an equivalent
    series resistance at the same L and C.
    """
    if r_parallel <= 0:
        raise ConfigurationError("r_parallel must be positive")
    rp = tank.parallel_resistance
    rp_loaded = rp * r_parallel / (rp + r_parallel)
    xl = tank.omega0 * tank.inductance
    # Invert the exact series->parallel transform: Rp = (Rs^2 + XL^2)/Rs.
    # Solve Rs^2 - Rp*Rs + XL^2 = 0 for the low-loss root.
    disc = rp_loaded * rp_loaded - 4.0 * xl * xl
    if disc < 0:
        # Loading so heavy the tank stops being a resonator; report the
        # critically-damped equivalent.
        rs_loaded = rp_loaded / 2.0
    else:
        rs_loaded = (rp_loaded - math.sqrt(disc)) / 2.0
    return RLCTank(tank.inductance, tank.capacitance, rs_loaded)
