"""Exception hierarchy for the HH-PIM reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An architecture, memory or workload configuration is invalid."""


class MemoryError_(ReproError):
    """Base class for memory-subsystem failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class AddressError(MemoryError_):
    """An access touched an address outside the bank's address range."""


class PowerGatingError(MemoryError_):
    """An access was attempted on a power-gated (sleeping) memory bank."""


class CapacityError(MemoryError_):
    """A placement or write exceeded the capacity of a storage space."""


class IsaError(ReproError):
    """Base class for PIM-ISA failures."""


class EncodingError(IsaError):
    """An instruction could not be encoded into its binary word format."""


class DecodingError(IsaError):
    """A binary word does not decode to a valid PIM instruction."""


class AssemblerError(IsaError):
    """A PIM assembly program contains a syntax or semantic error."""


class QueueFullError(IsaError):
    """The PIM instruction queue cannot accept another instruction."""


class QueueEmptyError(IsaError):
    """A fetch was attempted from an empty PIM instruction queue."""


class SimulationError(ReproError):
    """The event/cycle simulation engine detected an inconsistency."""


class PlacementError(ReproError):
    """Base class for data-placement optimizer failures."""


class InfeasibleError(PlacementError):
    """No placement satisfies the requested time constraint.

    Corresponds to the grey "Not Possible" region of Fig. 6 in the paper:
    the requested ``t_constraint`` is below the peak-performance point of
    the architecture.
    """


class WorkloadError(ReproError):
    """A workload model or scenario description is invalid."""


class FuzzError(ReproError):
    """A fuzz program, case, or stored regression entry is invalid.

    Raised when a serialized program spec names an unknown operator or
    carries malformed parameters, and when a persisted ``fuzz-`` store
    entry cannot be reconstructed into a runnable case.
    """


class ServingError(ReproError):
    """The fleet serving layer was misconfigured or misbehaved.

    Raised for invalid fleet shapes (no devices, unknown dispatch
    policies) and for dispatch policies that violate the conservation
    contract (assignments must be non-negative and sum to the slice's
    arrivals).
    """


class QoSError(ServingError):
    """The request-level QoS subsystem was misconfigured or misbehaved.

    Raised for invalid request samples (negative timestamps, conflicting
    class mixes), queue disciplines and autoscalers that violate their
    contracts, and simulator budgets that are exhausted before the
    backlog drains.  Derives from :class:`ServingError` so fleet-level
    callers catch QoS failures too.
    """


class ServiceError(ReproError):
    """The resident serving daemon failed to start or operate.

    Raised for socket-level failures the daemon treats as fatal — a
    port already in use, an unwritable pidfile — and for client-side
    failures talking to a daemon (connection refused, a typed error
    reply).  Derives from :class:`ReproError` so the CLI's one-line
    exit-2 handling covers the serving subsystem too.
    """


class ProtocolError(ServiceError):
    """A wire message violated the serve protocol.

    Raised for unparseable frames (bad length prefix, invalid JSON,
    oversized payloads), unknown message types, missing required
    fields, and protocol-version mismatches.  Carries a machine-
    readable ``code`` so daemons can answer with a typed error reply
    instead of dropping the connection.
    """

    def __init__(self, message: str, code: str = "bad_message") -> None:
        super().__init__(message)
        self.code = code


class RegistryError(ConfigurationError):
    """A registry lookup or registration failed.

    Raised for unknown keys, duplicate registrations without
    ``overwrite=True``, and values that fail the registry's validation.
    Derives from :class:`ConfigurationError` so existing callers that
    catch configuration problems also catch registry misuse.
    """
