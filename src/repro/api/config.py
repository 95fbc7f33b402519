"""The frozen experiment description: one point of the design space.

:class:`ExperimentConfig` names *what* to run — an architecture, a model,
a scenario and a policy, all as registry keys — plus the numeric knobs
(time slice, optimizer resolution, gating granularity).  It is hashable,
serialisable (``to_dict``/``from_dict``) and expandable over grids
(``sweep``), so a whole Fig. 5-style comparison is just::

    configs = ExperimentConfig(slices=50).sweep(
        arch=["Baseline-PIM", "Heterogeneous-PIM", "Hybrid-PIM", "HH-PIM"],
        model=["EfficientNet-B0", "MobileNetV2", "ResNet-18"],
        scenario=["case1", "case2", "case3", "case4", "case5", "case6"],
    )
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, fields

from ..core import lutcache
from ..core.placement import DEFAULT_BLOCK_COUNT, DEFAULT_TIME_STEPS
from ..core.runtime import FINE_GRANULE_BYTES
from ..errors import ConfigurationError
from .registry import (
    ARCHITECTURES,
    AUTOSCALERS,
    DISPATCH,
    MODELS,
    POLICIES,
    QOS,
    SCENARIOS,
)

#: The fields holding registry keys, with the registry each resolves in.
_REGISTRY_AXES = (
    ("arch", ARCHITECTURES),
    ("model", MODELS),
    ("scenario", SCENARIOS),
    ("policy", POLICIES),
    ("dispatch", DISPATCH),
    ("qos", QOS),
    ("autoscaler", AUTOSCALERS),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified experiment: arch x model x scenario x knobs.

    All four spec axes are registry keys (see :mod:`repro.api.registry`);
    ``policy=None`` selects the paper's default policy for the
    architecture (dynamic LUT on HH-PIM, the fixed Table I policies on
    the comparison groups).  ``t_slice_ns=None`` sizes the slice with the
    paper's rule (10 peak-rate inferences plus headroom).
    """

    arch: str = "HH-PIM"
    model: str = "EfficientNet-B0"
    scenario: str = "case3"
    policy: str | None = None
    #: Scenario materialisation knobs.
    slices: int = 50
    peak: int = 10
    low: int = 2
    seed: int = 2025
    #: Time-slice sizing: explicit length, or None for the paper's rule.
    t_slice_ns: float | None = None
    peak_inferences: int = 10
    #: Optimizer resolution and gating granularity.
    block_count: int = DEFAULT_BLOCK_COUNT
    time_steps: int = DEFAULT_TIME_STEPS
    granule_bytes: int = FINE_GRANULE_BYTES
    #: Consult the persistent on-disk LUT cache (see
    #: :mod:`repro.core.lutcache`); identical results either way, so
    #: disable only to benchmark or debug cold builds.
    lut_cache: bool = True
    #: Fleet shape: number of devices serving the scenario (1 = the
    #: paper's single-device runtime) and the dispatch policy splitting
    #: the arrival stream (a :data:`repro.api.registry.DISPATCH` key).
    fleet: int = 1
    dispatch: str = "round_robin"
    #: Request-level QoS knobs (see :mod:`repro.qos`): the queue
    #: discipline (a :data:`repro.api.registry.QOS` key), the latency SLO
    #: target in units of the time slice (the paper's staging bound is
    #: 2T), the autoscaler resizing the fleet between slices (an
    #: :data:`~repro.api.registry.AUTOSCALERS` key) with its device
    #: ceiling (``None``: the initial ``fleet`` size, i.e. no growth),
    #: and the per-device batch size.
    qos: str = "fifo"
    slo: float = 2.0
    autoscaler: str = "fixed"
    max_fleet: int | None = None
    batch: int = 1

    def __post_init__(self) -> None:
        for name in ("arch", "model", "scenario"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise ConfigurationError(
                    f"config {name} must be a non-empty string, got {value!r}"
                )
        if self.policy is not None and (
            not isinstance(self.policy, str) or not self.policy.strip()
        ):
            raise ConfigurationError(
                f"config policy must be a string or None, got {self.policy!r}"
            )
        if self.slices <= 0:
            raise ConfigurationError("slices must be positive")
        if not 0 < self.low <= self.peak:
            raise ConfigurationError(
                f"low load {self.low} must lie in (0, peak={self.peak}]"
            )
        if self.t_slice_ns is not None and self.t_slice_ns <= 0:
            raise ConfigurationError("t_slice_ns must be positive")
        if self.peak_inferences <= 0:
            raise ConfigurationError("peak_inferences must be positive")
        if self.block_count <= 0 or self.time_steps <= 0:
            raise ConfigurationError(
                "block_count and time_steps must be positive"
            )
        if self.granule_bytes <= 0:
            raise ConfigurationError("granule_bytes must be positive")
        if not isinstance(self.lut_cache, bool):
            raise ConfigurationError(
                f"lut_cache must be a bool, got {self.lut_cache!r}"
            )
        if not isinstance(self.fleet, int) or self.fleet <= 0:
            raise ConfigurationError(
                f"fleet size must be a positive integer, got {self.fleet!r}"
            )
        if not isinstance(self.dispatch, str) or not self.dispatch.strip():
            raise ConfigurationError(
                f"dispatch must be a non-empty string, got {self.dispatch!r}"
            )
        if not isinstance(self.qos, str) or not self.qos.strip():
            raise ConfigurationError(
                f"qos discipline must be a non-empty string, got {self.qos!r}"
            )
        if not isinstance(self.slo, (int, float)) or self.slo <= 0:
            raise ConfigurationError(
                f"slo must be a positive number of time slices, "
                f"got {self.slo!r}"
            )
        if not isinstance(self.autoscaler, str) or not self.autoscaler.strip():
            raise ConfigurationError(
                f"autoscaler must be a non-empty string, "
                f"got {self.autoscaler!r}"
            )
        if self.max_fleet is not None and (
            not isinstance(self.max_fleet, int) or self.max_fleet < self.fleet
        ):
            raise ConfigurationError(
                f"max_fleet must be an integer >= fleet ({self.fleet}) or "
                f"None, got {self.max_fleet!r}"
            )
        if not isinstance(self.batch, int) or self.batch <= 0:
            raise ConfigurationError(
                f"batch size must be a positive integer, got {self.batch!r}"
            )

    # -- registry resolution ----------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        """Check every registry key resolves; returns self for chaining."""
        self.canonical()
        return self

    def canonical(self) -> "ExperimentConfig":
        """This config with every registry key in its canonical spelling.

        Registry keys are case-insensitive and may be aliases
        (``"hh-pim"``, ``"resnet-18"``, ``"low_constant"``, ``"FIFO"``),
        but :meth:`fingerprint` and :attr:`label` read the fields as
        written, so two spellings of one experiment would get two store
        keys; their canonical forms share one.  Returns ``self`` when
        every key is already canonical, so the method is idempotent.
        An unknown key raises :class:`~repro.errors.RegistryError` (a
        :class:`~repro.errors.ConfigurationError`); ``policy=None``
        stays ``None``.
        """
        changes = {}
        for name, registry in _REGISTRY_AXES:
            value = getattr(self, name)
            if value is None:
                continue
            key = registry.canonical(value)
            if key != value:
                changes[name] = key
        return dataclasses.replace(self, **changes) if changes else self

    @property
    def resolution(self) -> tuple:
        """The optimizer resolution pair (block_count, time_steps)."""
        return (self.block_count, self.time_steps)

    @property
    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        policy = f":{self.policy}" if self.policy else ""
        return f"{self.arch}/{self.model}/{self.scenario}{policy}"

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-primitive dict that round-trips via :meth:`from_dict`."""
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """The SHA-256 content address of this config's *results*.

        Canonicalises the config through the same machinery as the LUT
        cache (:func:`repro.core.lutcache.fingerprint`), excluding
        ``lut_cache`` — a caching knob that never changes what a run
        produces — so two configs share a fingerprint exactly when they
        describe the same experiment.  This is the key the experiment
        store (:mod:`repro.store`) addresses completed runs by, and the
        hash :mod:`repro.store.sharding` partitions sweep grids with.
        """
        payload = self.to_dict()
        del payload["lut_cache"]
        return lutcache.fingerprint("experiment", payload)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from a dict, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown config keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**data)

    def replace(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- grid expansion ---------------------------------------------------------

    def sweep(self, **axes) -> tuple:
        """Fan this config out over a grid of field values.

        Each keyword names a config field and gives either a single value
        or an iterable of values; the cartesian product is expanded in
        the order the axes are given (last axis fastest), so the result
        is deterministic::

            base.sweep(arch=["HH-PIM", "Hybrid-PIM"], scenario="case1")

        Returns a tuple of :class:`ExperimentConfig`.
        """
        if not axes:
            return (self,)
        known = {f.name for f in fields(type(self))}
        unknown = set(axes) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep axes: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        names = list(axes)
        value_lists = []
        for name in names:
            values = axes[name]
            if isinstance(values, (str, bytes)) or not hasattr(
                values, "__iter__"
            ):
                values = [values]
            values = list(values)
            if not values:
                raise ConfigurationError(f"sweep axis {name!r} is empty")
            value_lists.append(values)
        return tuple(
            dataclasses.replace(self, **dict(zip(names, combo)))
            for combo in itertools.product(*value_lists)
        )
