"""The persistent experiment store and sharded, resumable sweeps.

Pins the store's contract: round-tripping, corruption quarantine,
version-bump invalidation, deterministic cross-process shard
assignment, and the headline property — an interrupted sweep resumed
through the store completes with zero recomputation and exports
bit-identically to an uninterrupted run (the experiment-level analogue
of PR 2's "warm cache does zero DP builds" regression).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig, FleetRecord, RunRecord
from repro.errors import ConfigurationError
from repro.store import (
    Store,
    parse_shard,
    partition,
    runtime_chunks,
    select_shard,
    shard_index,
)
from repro.perf.bench import default_bench_settings
from repro.store import store as store_module
from repro.store.sharding import RUNTIME_KEY_FIELDS

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS, slices=6)


def tiny_grid() -> tuple:
    """A 2x2 single-device grid at test resolution."""
    return ExperimentConfig(**TINY).sweep(
        arch=["HH-PIM", "Hybrid-PIM"], scenario=["case1", "case3"]
    )


@pytest.fixture
def store(tmp_path) -> Store:
    return Store(tmp_path / "store")


class TestRoundTrip:
    def test_run_record_round_trip(self, store):
        config = ExperimentConfig(**TINY)
        record = Engine(use_disk_cache=False).run_record(config)
        assert store.put(record)
        loaded = store.get(config)
        assert isinstance(loaded, RunRecord)
        assert loaded.config == config
        assert loaded.to_row() == record.to_row()
        assert loaded.result.to_dict() == record.result.to_dict()

    def test_fleet_record_round_trip(self, store):
        config = ExperimentConfig(fleet=2, **TINY)
        record = Engine(use_disk_cache=False).run_fleet_record(config)
        assert store.put(record)
        loaded = store.get(config)
        assert isinstance(loaded, FleetRecord)
        assert loaded.to_row() == record.to_row()

    def test_qos_round_trip(self, store):
        config = ExperimentConfig(scenario="bursty", **TINY)
        engine = Engine(use_disk_cache=False, store=store)
        first = engine.run_qos(config)
        assert engine.stats.store_misses == 1
        again = Engine(use_disk_cache=False, store=store).run_qos(config)
        assert again.to_dict() == first.to_dict()

    def test_get_unstored_is_miss(self, store):
        assert store.get(ExperimentConfig(**TINY)) is None
        assert store.stats.misses == 1

    def test_put_rejects_non_records(self, store):
        with pytest.raises(ConfigurationError, match="RunRecord"):
            store.put(ExperimentConfig(**TINY))

    def test_contains_and_keys(self, store):
        config = ExperimentConfig(**TINY)
        assert config not in store
        store.put(Engine(use_disk_cache=False).run_record(config))
        assert config in store
        assert store.keys() == [store.key_for(config)]

    def test_fingerprint_ignores_lut_cache_knob(self, store):
        """The store addresses results; lut_cache never changes them."""
        config = ExperimentConfig(**TINY)
        uncached = config.replace(lut_cache=False)
        assert config.fingerprint() == uncached.fingerprint()
        store.put(Engine(use_disk_cache=False).run_record(config))
        assert store.get(uncached) is not None

    def test_fingerprint_separates_real_axes(self):
        config = ExperimentConfig(**TINY)
        assert config.fingerprint() != config.replace(seed=1).fingerprint()
        assert (
            config.fingerprint()
            != config.replace(arch="Hybrid-PIM").fingerprint()
        )


class TestCorruptionAndVersioning:
    def test_corrupt_entry_is_quarantined(self, store):
        config = ExperimentConfig(**TINY)
        store.put(Engine(use_disk_cache=False).run_record(config))
        path = store._entry_path(store.key_for(config))
        path.write_bytes(b"not a pickle")
        assert store.get(config) is None
        assert store.stats.quarantined == 1
        assert not path.exists()  # moved aside, not left to fail again
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == b"not a pickle"  # evidence kept
        assert store.info()["quarantined"] == 1

    def test_mislabeled_entry_is_quarantined(self, store):
        """A payload whose key disagrees with its address is corrupt."""
        config = ExperimentConfig(**TINY)
        other = config.replace(seed=99)
        store.put(Engine(use_disk_cache=False).run_record(config))
        good = store._entry_path(store.key_for(config))
        bad = store._entry_path(store.key_for(other))
        bad.write_bytes(good.read_bytes())
        assert store.get(other) is None
        assert store.stats.quarantined == 1
        assert store.get(config) is not None  # the honest entry survives

    def test_version_bump_orphans_entries(self, store, monkeypatch):
        config = ExperimentConfig(**TINY)
        store.put(Engine(use_disk_cache=False).run_record(config))
        monkeypatch.setattr(store_module, "STORE_VERSION", 2)
        fresh = Store(store.root)
        assert fresh.get(config) is None
        assert fresh.stats.quarantined == 0  # orphaned, not corrupt
        monkeypatch.undo()
        assert Store(store.root).get(config) is not None

    def test_stray_file_does_not_crash_info(self, store):
        """Foreign files in the version dir are reported, not fatal."""
        store.put(
            Engine(use_disk_cache=False).run_record(ExperimentConfig(**TINY))
        )
        (store.root / "v1" / "notes.pkl").write_bytes(b"junk")
        state = store.info()
        assert state["entries"] == 2
        assert state["by_kind"]["run"] == 1
        assert state["by_kind"]["unrecognized"] == 1

    def test_unpicklable_record_degrades_to_a_failed_write(self, store):
        """put() must never crash a finished sweep (contract: degrade)."""
        record = Engine(use_disk_cache=False).run_record(
            ExperimentConfig(**TINY)
        )
        poisoned = RunRecord(
            config=record.config,
            result=record.result,
            lut_cached=record.lut_cached,
        )
        object.__setattr__(poisoned, "unpicklable", lambda: None)
        assert store.put(poisoned) is False
        assert store.stats.write_failures == 1
        leftovers = list((store.root / f"v{store_module.STORE_VERSION}")
                         .glob(".*.tmp"))
        assert leftovers == []  # temp file cleaned up

    def test_clear_removes_everything(self, store):
        store.put(
            Engine(use_disk_cache=False).run_record(ExperimentConfig(**TINY))
        )
        assert store.clear() == 1
        assert store.info()["entries"] == 0
        assert store.clear() == 0  # idempotent on an empty store


class TestSharding:
    def test_parse_shard_forms(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard((2, 3)) == (2, 3)
        for bad in ("4/4", "-1/4", "x/4", "2", (1, 0)):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)

    def test_partition_conserves_the_grid(self):
        grid = tiny_grid()
        shards = partition(grid, 3)
        assert len(shards) == 3
        flattened = [config for shard in shards for config in shard]
        assert sorted(flattened, key=lambda c: c.fingerprint()) == sorted(
            grid, key=lambda c: c.fingerprint()
        )
        for index, shard in enumerate(shards):
            assert shard == select_shard(grid, (index, 3))

    def test_assignment_is_content_based(self):
        """Identical configs land identically however they were built."""
        config = ExperimentConfig(**TINY)
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert shard_index(config, 5) == shard_index(rebuilt, 5)

    def test_assignment_survives_grid_edits(self):
        """Appending an axis value never reshuffles existing configs."""
        grid = tiny_grid()
        grown = ExperimentConfig(**TINY).sweep(
            arch=["HH-PIM", "Hybrid-PIM", "Baseline-PIM"],
            scenario=["case1", "case3"],
        )
        for config in grid:
            assert shard_index(config, 4) == shard_index(
                next(c for c in grown if c == config), 4
            )

    def test_partition_matches_across_processes(self, tmp_path):
        """Same grid -> same shard assignment in a fresh interpreter."""
        script = tmp_path / "shards.py"
        script.write_text(
            "from repro.api import ExperimentConfig\n"
            "from repro.store import shard_index\n"
            f"grid = ExperimentConfig(**{TINY!r}).sweep(\n"
            "    arch=['HH-PIM', 'Hybrid-PIM'], scenario=['case1', 'case3'])\n"
            "print([shard_index(c, 3) for c in grid])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        local = [shard_index(c, 3) for c in tiny_grid()]
        assert json.loads(out.stdout) == local



def runtime_key(config) -> tuple:
    return tuple(getattr(config, name) for name in RUNTIME_KEY_FIELDS)


def chunk_of(chunks) -> dict:
    """Each config's chunk index."""
    return {
        config: index
        for index, chunk in enumerate(chunks)
        for config in chunk
    }


def mixed_grid() -> tuple:
    """Runtime groups of 3, 3, 6 and 1 configs."""
    base = ExperimentConfig(**TINY)
    return (
        base.sweep(arch=["HH-PIM", "Hybrid-PIM"], seed=[1, 2, 3])
        + base.sweep(arch=["Baseline-PIM"], seed=[1, 2, 3, 4, 5, 6])
        + base.sweep(arch=["HH-PIM"], model=["MobileNetV2"])
    )


class TestRuntimeChunks:
    def test_every_config_lands_in_exactly_one_chunk(self):
        grid = mixed_grid()
        for size in (1, 2, 3, 4, 7, 100):
            chunks = runtime_chunks(grid, size)
            flattened = [config for chunk in chunks for config in chunk]
            assert sorted(flattened, key=ExperimentConfig.fingerprint) == (
                sorted(grid, key=ExperimentConfig.fingerprint)
            )
            assert all(0 < len(chunk) <= size for chunk in chunks)

    def test_small_groups_stay_whole_and_only_oversize_ones_split(self):
        grid = mixed_grid()
        for size in (1, 2, 3, 4, 5, 6, 7):
            where = chunk_of(runtime_chunks(grid, size))
            groups: dict = {}
            for config in grid:
                groups.setdefault(runtime_key(config), set()).add(
                    where[config]
                )
            for key, indices in groups.items():
                members = sum(1 for c in grid if runtime_key(c) == key)
                if members <= size:
                    assert len(indices) == 1, (size, key)
                else:
                    assert len(indices) == -(-members // size), (size, key)

    def test_one_config_groups_pack_up_to_chunk_size(self):
        grid = ExperimentConfig(**TINY).sweep(
            arch=["HH-PIM", "Hybrid-PIM", "Baseline-PIM"],
            model=["MobileNetV2", "ResNet-18"],
        )
        assert len({runtime_key(config) for config in grid}) == 6
        assert [len(chunk) for chunk in runtime_chunks(grid, 4)] == [4, 2]
        assert [len(chunk) for chunk in runtime_chunks(grid, 6)] == [6]

    def test_chunks_do_not_depend_on_grid_order(self):
        grid = mixed_grid()
        shuffled = list(grid)
        random.Random(7).shuffle(shuffled)
        assert shuffled != list(grid)
        for size in (1, 3, 4, 8):
            assert runtime_chunks(shuffled, size) == runtime_chunks(grid, size)

    def test_bench_dist_grid_still_chunks_one_config_each(self):
        """``repro bench``'s ``dist`` grid: 24 seeds of one runtime key
        at ``chunk_size=1``, so its speedup gate measures 24 chunks."""
        settings = default_bench_settings(quick=True)
        grid = ExperimentConfig(
            slices=4, block_count=16, time_steps=1500
        ).sweep(seed=list(range(2025, 2025 + settings["dist_configs"])))
        chunks = runtime_chunks(grid, settings["dist_chunk"])
        assert settings["dist_chunk"] == 1
        assert len(chunks) == len(grid) == 24
        assert all(len(chunk) == 1 for chunk in chunks)

    def test_edge_cases(self):
        grid = tiny_grid()
        assert runtime_chunks((), 4) == []
        assert len(runtime_chunks(grid, len(grid) * 10)) == 1
        for bad in (0, -2):
            with pytest.raises(ConfigurationError):
                runtime_chunks(grid, bad)


class TestResumedSweeps:
    def test_interrupted_sweep_resumes_with_zero_recompute(
        self, store, tmp_path
    ):
        """The acceptance regression: shard 0 runs, the resume stitches."""
        grid = tiny_grid()
        shard0 = select_shard(grid, "0/2")
        assert 0 < len(shard0) < len(grid)  # both sides exercised

        first = Engine(use_disk_cache=False, store=store)
        first.run_many(shard0)
        # ... the other shard's process dies here ...

        reference = Engine(use_disk_cache=False).run_many(grid)

        resumed_engine = Engine(use_disk_cache=False, store=store)
        resumed = resumed_engine.run_many(grid)
        assert resumed_engine.stats.store_hits == len(shard0)
        assert resumed_engine.stats.store_misses == len(grid) - len(shard0)
        assert resumed_engine.stats.runs == len(grid) - len(shard0)
        assert resumed.to_json() == reference.to_json()
        assert resumed.to_csv() == reference.to_csv()

        # a second resume is pure hits: zero scenario runs, zero DP work
        final = Engine(use_disk_cache=False, store=store)
        stitched = final.run_many(grid)
        assert final.stats.store_hits == len(grid)
        assert final.stats.runs == 0
        assert final.stats.dp_builds == 0
        assert stitched.to_json() == reference.to_json()

    def test_engine_sweep_expands_shards_and_resumes(self, store):
        engine = Engine(use_disk_cache=False, store=store)
        axes = dict(arch=["HH-PIM", "Hybrid-PIM"], scenario=["case1", "case3"])
        base = ExperimentConfig(**TINY)
        part0 = engine.sweep(base, shard="0/2", **axes)
        part1 = engine.sweep(base, shard="1/2", **axes)
        assert len(part0) + len(part1) == 4
        full_engine = Engine(use_disk_cache=False, store=store)
        full = full_engine.sweep(base, **axes)
        assert len(full) == 4
        assert full_engine.stats.store_hits == 4
        assert full_engine.stats.runs == 0

    def test_write_through_without_resume_recomputes(self, store):
        grid = tiny_grid()
        Engine(use_disk_cache=False, store=store).run_many(grid)
        engine = Engine(use_disk_cache=False, store=store, resume=False)
        engine.run_many(grid)
        assert engine.stats.store_hits == 0
        assert engine.stats.runs == len(grid)

    def test_store_serves_mixed_fleet_batches(self, store):
        configs = (
            ExperimentConfig(**TINY),
            ExperimentConfig(fleet=2, **TINY),
        )
        reference = Engine(use_disk_cache=False, store=store).run_many(configs)
        resumed_engine = Engine(use_disk_cache=False, store=store)
        resumed = resumed_engine.run_many(configs)
        assert resumed_engine.stats.store_hits == 2
        assert isinstance(resumed[1], FleetRecord)
        assert resumed.to_json() == reference.to_json()

    def test_query_reloads_a_result_set(self, store):
        grid = tiny_grid()
        Engine(use_disk_cache=False, store=store).run_many(grid)
        everything = store.query()
        assert len(everything) == len(grid)
        hh = store.query(arch="HH-PIM")
        assert {r.arch for r in hh} == {"HH-PIM"}
        assert len(hh) == 2

    def test_query_limit_is_listing_order_independent(
        self, store, monkeypatch
    ):
        """``limit=N`` truncates the fingerprint-sorted order, so the
        same store queried on any filesystem (or any readdir order)
        yields the same head."""
        grid = tiny_grid()
        Engine(use_disk_cache=False, store=store).run_many(grid)
        full = store.query()
        fingerprints = [r.config.fingerprint() for r in full]
        assert fingerprints == sorted(fingerprints)
        head = store.query(limit=2)
        assert [r.config.fingerprint() for r in head] == fingerprints[:2]

        listing = store._entries
        monkeypatch.setattr(
            store, "_entries", lambda: list(listing())[::-1]
        )
        assert [
            r.config.fingerprint() for r in store.query()
        ] == fingerprints
        assert [
            r.config.fingerprint() for r in store.query(limit=2)
        ] == fingerprints[:2]


class TestStoreCLI:
    def run_cli(self, *argv) -> str:
        from repro.cli import main

        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(list(argv)) == 0
        return buffer.getvalue()

    def test_sharded_sweep_resume_is_bit_identical(self, tmp_path):
        """The CLI acceptance path: shard 0, then --resume, same JSON."""
        args = [
            "sweep", "--model", "EfficientNet-B0", "--case", "1", "--case",
            "3", "--blocks", str(SMALL_BLOCKS), "--steps", str(SMALL_STEPS),
            "--slices", "6", "--json",
        ]
        store_dir = str(tmp_path / "store")
        self.run_cli(*args, "--store", store_dir, "--shard", "0/2")
        reference = self.run_cli(*args)
        resumed = self.run_cli(*args, "--store", store_dir, "--resume")
        assert resumed == reference

    def test_resume_without_store_errors(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--resume", "--case", "1"]) == 2
        assert "needs --store" in capsys.readouterr().err

    def test_ls_kind_and_limit(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self.run_cli(
            "sweep", "--case", "1", "--case", "3", "--arch", "HH-PIM",
            "--model", "EfficientNet-B0", "--blocks", str(SMALL_BLOCKS),
            "--steps", str(SMALL_STEPS), "--slices", "4",
            "--store", store_dir,
        )
        # No qos entries yet: the qos listing says so instead of erroring.
        empty = self.run_cli("store", "ls", "--store", store_dir,
                             "--kind", "qos")
        assert "no stored qos entries" in empty
        # A qos run through a store-attached engine persists its row.
        store = Store(store_dir)
        Engine(use_disk_cache=False, store=store).run_qos(
            ExperimentConfig(scenario="case1", slices=4,
                             block_count=SMALL_BLOCKS,
                             time_steps=SMALL_STEPS)
        )
        qos = self.run_cli("store", "ls", "--store", store_dir,
                           "--kind", "qos")
        assert "SLO att." in qos and "HH-PIM" in qos
        # --kind filters the batch listing; --limit truncates it.
        runs = self.run_cli("store", "ls", "--store", store_dir,
                            "--kind", "run")
        assert runs.count("\nrun ") == 2
        limited = self.run_cli("store", "ls", "--store", store_dir,
                               "--kind", "run", "--limit", "1")
        assert limited.count("\nrun ") == 1
        # No fleet entries: header only, no table.
        fleet = self.run_cli("store", "ls", "--store", store_dir,
                             "--kind", "fleet")
        assert "Deadlines" not in fleet

    def test_info_ls_clear(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self.run_cli(
            "sweep", "--case", "1", "--arch", "HH-PIM", "--model",
            "EfficientNet-B0", "--blocks", str(SMALL_BLOCKS), "--steps",
            str(SMALL_STEPS), "--slices", "4", "--store", store_dir,
        )
        info = self.run_cli("store", "info", "--store", store_dir)
        assert "entries:     1 (1 run" in info
        listing = self.run_cli("store", "ls", "--store", store_dir)
        assert "HH-PIM" in listing and "aggregate by arch" in listing
        cleared = self.run_cli("store", "clear", "--store", store_dir)
        assert "removed 1" in cleared
