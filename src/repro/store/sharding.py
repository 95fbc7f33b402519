"""Deterministic config-hash sharding of experiment grids.

A sweep grid partitions into N shards by each config's content hash
(:meth:`~repro.api.config.ExperimentConfig.fingerprint`), so the
assignment depends on nothing but the config itself: every process that
expands the same grid computes the same partition, with no coordinator
and no shared state.  N machines each run ``repro sweep --shard I/N
--store DIR`` against one store, and a final ``--resume`` pass over the
full grid stitches the complete :class:`~repro.api.results.ResultSet`
from stored entries with zero recomputation.

Hash partitioning (rather than round-robin over the grid order) keeps
the assignment stable under grid *edits*: appending an axis value
reshuffles nothing that already ran — untouched configs keep their
shard, and their stored results keep being hits.

A distributed sweep's chunks (:func:`runtime_chunks`) group the grid by
runtime key instead, so each LUT is built by one worker.
"""

from __future__ import annotations

from ..api.config import ExperimentConfig
from ..core.lutcache import fingerprint
from ..errors import ConfigurationError


def parse_shard(shard) -> tuple:
    """Normalise a shard selector to ``(index, count)``.

    Accepts the CLI's ``"I/N"`` string or an ``(index, count)`` pair;
    indices are zero-based, so valid selectors for three shards are
    ``0/3``, ``1/3`` and ``2/3``.
    """
    if isinstance(shard, str):
        head, sep, tail = shard.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
        except ValueError:
            raise ConfigurationError(
                f"shard must look like I/N (e.g. 0/4), got {shard!r}"
            ) from None
    else:
        try:
            index, count = shard
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"shard must be an 'I/N' string or an (index, count) "
                f"pair, got {shard!r}"
            ) from None
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index {index} out of range for {count} shards "
            f"(valid: 0..{count - 1})"
        )
    return index, count


def shard_index(config: ExperimentConfig, count: int) -> int:
    """The shard (of ``count``) a config deterministically lands in."""
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    return int(config.fingerprint(), 16) % count


def partition(configs, count: int) -> list:
    """Split a grid into ``count`` shards, preserving grid order.

    Returns a list of ``count`` tuples; every config appears in exactly
    one (conservation is what makes a sharded sweep stitch back into
    the full grid).
    """
    shards = [[] for _ in range(max(1, count))]
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    for config in configs:
        shards[shard_index(config, count)].append(config)
    return [tuple(shard) for shard in shards]


#: The config fields that make up a run's runtime key
#: (``repro.api.engine._ResolvedRuntime.key``): configs that agree on
#: them share one LUT build.
RUNTIME_KEY_FIELDS = (
    "arch", "model", "policy", "t_slice_ns", "peak_inferences",
    "block_count", "time_steps", "granule_bytes",
)


def runtime_chunks(configs, chunk_size: int) -> list:
    """Split a grid into chunks of at most ``chunk_size`` configs that
    keep each runtime-key group together.

    The distributed executor's work unit.  Configs sharing a runtime
    key (:data:`RUNTIME_KEY_FIELDS`) share one LUT, so a whole group
    goes to one chunk, and so to one worker, which builds that LUT once.
    Groups are packed in order into the current chunk while they fit;
    only a group larger than ``chunk_size`` is split, into full chunks
    plus a remainder that packs on.  Groups go in key-hash order and
    configs in fingerprint order, so chunk membership depends on the
    grid's content, never its order, as a resumed coordinator's leases
    need.  Returns a list of non-empty config tuples; every config
    appears in exactly one.
    """
    if chunk_size <= 0:
        raise ConfigurationError(
            f"chunk size must be positive, got {chunk_size}"
        )
    groups: dict = {}
    for config in configs:
        key = tuple(getattr(config, name) for name in RUNTIME_KEY_FIELDS)
        groups.setdefault(key, []).append(config)
    chunks, current = [], []
    for key in sorted(groups, key=lambda key: fingerprint("runtime", *key)):
        group = sorted(groups[key], key=ExperimentConfig.fingerprint)
        if len(current) + len(group) > chunk_size:
            if current:
                chunks.append(tuple(current))
            current = []
            while len(group) > chunk_size:
                chunks.append(tuple(group[:chunk_size]))
                group = group[chunk_size:]
        current += group
    if current:
        chunks.append(tuple(current))
    return chunks


def select_shard(configs, shard) -> tuple:
    """The subset of a grid belonging to one shard, in grid order.

    ``shard`` is anything :func:`parse_shard` accepts.
    """
    index, count = parse_shard(shard)
    return tuple(
        config for config in configs if shard_index(config, count) == index
    )
