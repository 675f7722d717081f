"""Position-sensor application substrate (Fig 9)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".coils": ("CoilMesh", "CouplingProfile", "DistributedCoil", "ReceivingCoilPair",
               "coil_mesh_array", "tank_with_parallel_load"),
    ".receiver": ("PositionReceiver",),
    ".dual_cosim": ("DualCoSimulation", "DualTrace"),
    ".redundant": ("DualSystemOutcome", "DualSystemScenario",
                   "effective_load_resistance"),
})
