"""Workloads: TinyML models (Table IV), load scenarios and arrival DSL."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".layers": ("Conv2d", "DepthwiseConv2d", "Linear", "LayerStats"),
        ".models": (
            "ModelSpec",
            "EFFICIENTNET_B0",
            "MOBILENET_V2",
            "RESNET_18",
            "TABLE_IV",
            "model_by_name",
        ),
        ".scenarios": ("Scenario", "ScenarioCase", "scenario", "ALL_CASES"),
        ".tasks": ("InferenceTask", "TaskBuffer"),
        ".arrivals": (
            "ArrivalProcess",
            "bursty",
            "constant",
            "diurnal",
            "load_trace",
            "periodic_spike",
            "poisson",
            "pulsing",
            "scenario_from_trace",
            "trace",
            "uniform",
        ),
    },
)
