"""HH-PIM: heterogeneous-hybrid processing-in-memory for edge AI.

A full reproduction of *"HH-PIM: Dynamic Optimization of Power and
Performance with Heterogeneous-Hybrid PIM for Edge AI Devices"*
(DAC 2025): the HH-PIM architecture model (clusters, modules, PEs,
hybrid MRAM/SRAM memories), the dynamic weight-placement optimizer
(knapsack DP + allocation LUT), the time-slice runtime, the substrates
that price it (NVSim-style memory estimation, energy accounting, FPGA
resource model, a cycle engine used as a cross-layer oracle), and the
analysis layer that regenerates the paper's tables and figures.

The front door is :mod:`repro.api`: string-keyed registries of
architectures, models, scenarios and placement policies; a frozen,
serialisable :class:`~repro.api.ExperimentConfig`; an
:class:`~repro.api.Engine` that memoizes allocation LUTs across runs and
batches grids over a process pool; and a :class:`~repro.api.ResultSet`
with filtering, aggregation and JSON/CSV export.

Quickstart
----------
>>> from repro.api import Engine, ExperimentConfig
>>> engine = Engine()
>>> result = engine.run(ExperimentConfig(scenario="case3"))
>>> result.deadlines_met
True
>>> results = engine.run_many(
...     ExperimentConfig(slices=20).sweep(arch=["Baseline-PIM", "HH-PIM"])
... )
>>> results.savings_vs("HH-PIM")  # doctest: +SKIP
{'Baseline-PIM': 0.62}

The lower-level constructors (:class:`TimeSliceRuntime`,
:class:`DataPlacementOptimizer`, :func:`scenario`, ...) remain public
and unchanged for callers that want to wire the pipeline by hand.
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".arch.specs": (
            "ArchitectureSpec",
            "BASELINE_PIM",
            "ClusterSpec",
            "HETEROGENEOUS_PIM",
            "HH_PIM",
            "HYBRID_PIM",
            "TABLE_I",
        ),
        ".core.lut": ("AllocationLUT", "Placement"),
        ".core.placement": ("DataPlacementOptimizer", "PlacementPolicy"),
        ".core.runtime": (
            "RunResult",
            "SliceRecord",
            "TimeSliceRuntime",
            "default_time_slice_ns",
            "scalar_runtime",
        ),
        ".core.spaces": ("SpaceKind", "StorageSpace"),
        ".errors": ("ReproError",),
        ".qos": ("Autoscaler", "QoSResult", "QoSSimulator", "QueueDiscipline"),
        ".serving": ("DispatchPolicy", "Fleet", "FleetResult"),
        ".workloads.arrivals": ("ArrivalProcess",),
        ".workloads.models": (
            "EFFICIENTNET_B0",
            "MOBILENET_V2",
            "ModelSpec",
            "RESNET_18",
            "TABLE_IV",
            "model_by_name",
        ),
        ".workloads.scenarios": ("Scenario", "ScenarioCase", "scenario"),
        ".api": (
            "ARCHITECTURES",
            "DISPATCH",
            "Engine",
            "ExperimentConfig",
            "MODELS",
            "POLICIES",
            "ResultSet",
            "RunRecord",
            "SCENARIOS",
            "register_architecture",
            "register_model",
            "register_scenario",
        ),
        ".store": ("Store",),
    },
)
__all__.append("__version__")

__version__ = "1.2.0"
