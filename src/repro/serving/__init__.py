"""Fleet serving: many devices, one arrival stream.

The paper evaluates one device; this package scales the same time-slice
runtime to a fleet — N devices behind a pluggable dispatch policy,
consuming a single scenario and reporting aggregate energy / latency /
deadline statistics.  See :class:`Fleet`, :class:`FleetResult` and the
policies in :mod:`repro.serving.dispatch`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".dispatch": (
            "BUILTIN_POLICIES",
            "DeviceInfo",
            "DispatchPolicy",
            "EnergyAware",
            "LeastLoaded",
            "RoundRobin",
            "make_policy",
        ),
        ".fleet": ("Fleet", "FleetResult", "device_info"),
    },
)
