"""The distributed sweep executor: leases, coordinator, protocol v2.

Everything here is in-process: lease expiry runs on an injectable
manual clock, and the coordinator is driven through ``dispatch()``
directly (from a second thread where a CLAIM is held open) — the wire
plumbing it shares with the serve daemon is pinned by
``test_service.py``, and the full multi-process path (worker
subprocesses, SIGKILL, byte-identical exports) lives in
``test_dist_integration.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import ExperimentConfig
from repro.dist import LeaseManager, SweepCoordinator
from repro.dist import coordinator as coordinator_module
from repro.errors import ProtocolError
from repro.service import protocol
from repro.store import Store

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS, slices=4)


class ManualClock:
    """A zero-argument clock the tests advance by hand."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tiny_grid(seeds: int = 6) -> tuple:
    return ExperimentConfig(**TINY).sweep(
        seed=list(range(2025, 2025 + seeds))
    )


# -- protocol v2 -----------------------------------------------------------------


class TestProtocolV2:
    def test_dist_verbs_are_requestable(self):
        assert set(protocol.DIST_TYPES) <= set(protocol.REQUEST_TYPES)
        assert protocol.PROTOCOL_VERSION >= 2

    def test_dist_verbs_need_a_worker(self):
        for rtype in protocol.DIST_TYPES:
            with pytest.raises(ProtocolError, match="worker"):
                protocol.validate_request(
                    {"v": protocol.PROTOCOL_VERSION, "type": rtype}
                )

    def test_chunk_verbs_need_an_integer_chunk(self):
        for rtype in ("HEARTBEAT", "PROGRESS", "COMPLETE"):
            for chunk in (None, "3", 1.5, True):
                message = protocol.request(
                    rtype, worker="w", chunk=chunk, completed=0
                )
                with pytest.raises(ProtocolError, match="integer chunk"):
                    protocol.validate_request(message)

    def test_progress_needs_a_count(self):
        for completed in (None, -1, "4", True):
            message = protocol.request(
                "PROGRESS", worker="w", chunk=0, completed=completed
            )
            with pytest.raises(ProtocolError, match="completed"):
                protocol.validate_request(message)

    def test_new_error_codes_are_typed(self):
        for code in ("unknown_chunk", "stale_lease", "unsupported"):
            assert code in protocol.ERROR_CODES


# -- leases ----------------------------------------------------------------------


class TestLeases:
    @pytest.fixture
    def clock(self) -> ManualClock:
        return ManualClock()

    @pytest.fixture
    def leases(self, tmp_path, clock) -> LeaseManager:
        return LeaseManager(tmp_path / "leases", ttl_s=10.0, clock=clock)

    def test_claim_is_exclusive_while_live(self, leases, clock):
        granted = leases.claim(3, "alice")
        assert granted is not None
        assert granted.expires == clock() + 10.0
        # Nobody (not even the holder) can double-claim a live lease.
        assert leases.claim(3, "bob") is None
        assert leases.claim(3, "alice") is None

    def test_expired_lease_is_reclaimed(self, leases, clock):
        leases.claim(3, "alice")
        clock.advance(10.0)
        stolen = leases.claim(3, "bob")
        assert stolen is not None
        assert stolen.worker == "bob"
        # The old holder's renewal and release are now rejected.
        with pytest.raises(ProtocolError) as renew_error:
            leases.renew(3, "alice")
        assert renew_error.value.code == "stale_lease"
        with pytest.raises(ProtocolError) as release_error:
            leases.release(3, "alice")
        assert release_error.value.code == "stale_lease"

    def test_renewal_extends_the_deadline(self, leases, clock):
        leases.claim(3, "alice")
        clock.advance(9.0)
        renewed = leases.renew(3, "alice")
        assert renewed.expires == clock() + 10.0
        assert renewed.renewals == 1
        # The renewal carried the lease past its original deadline.
        clock.advance(9.0)
        assert not leases.holder(3).expired(clock())

    def test_renew_after_expiry_is_stale(self, leases, clock):
        leases.claim(3, "alice")
        clock.advance(10.0)
        with pytest.raises(ProtocolError) as error:
            leases.renew(3, "alice")
        assert error.value.code == "stale_lease"

    def test_unknown_chunk_is_typed(self, leases):
        for method in (leases.renew, leases.release):
            with pytest.raises(ProtocolError) as error:
                method(42, "alice")
            assert error.value.code == "unknown_chunk"

    def test_release_empties_the_directory(self, leases):
        leases.claim(0, "alice")
        leases.claim(1, "alice")
        leases.release(0, "alice")
        leases.release(1, "alice")
        assert leases.active() == []
        assert not list(leases.root.glob("chunk-*"))

    def test_corrupt_lease_file_is_reclaimable(self, leases):
        leases.claim(3, "alice")
        leases.path(3).write_text("not json")
        granted = leases.claim(3, "bob")
        assert granted is not None
        assert granted.worker == "bob"


# -- coordinator dispatch --------------------------------------------------------


class TestCoordinator:
    @pytest.fixture
    def clock(self) -> ManualClock:
        return ManualClock()

    @pytest.fixture
    def coordinator(self, tmp_path, clock) -> SweepCoordinator:
        return SweepCoordinator(
            tiny_grid(),
            Store(tmp_path / "store"),
            chunk_size=2,
            lease_s=10.0,
            clock=clock,
            log=lambda line: None,
        )

    def claim(self, coordinator, worker: str) -> dict:
        return coordinator.dispatch(
            protocol.request("CLAIM", worker=worker)
        )

    def drain(self, coordinator, worker: str) -> list:
        """CLAIM+COMPLETE until EMPTY; returns the completed chunk ids."""
        completed = []
        while True:
            reply = self.claim(coordinator, worker)
            if reply["type"] == "EMPTY":
                return completed
            coordinator.dispatch(
                protocol.request(
                    "COMPLETE", worker=worker, chunk=reply["chunk"]
                )
            )
            completed.append(reply["chunk"])

    def test_claim_grants_largest_chunk_first(self, coordinator):
        sizes = []
        worker = iter(f"w{i}" for i in range(100))
        while True:
            reply = self.claim(coordinator, next(worker))
            if reply["type"] == "EMPTY":
                break
            sizes.append(len(reply["configs"]))
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == len(coordinator.configs)

    def test_chunk_reply_carries_everything_a_worker_needs(
        self, coordinator
    ):
        reply = self.claim(coordinator, "alice")
        assert reply["type"] == "CHUNK"
        assert reply["lease_s"] == 10.0
        assert reply["store"] == str(coordinator.store.root)
        rebuilt = [
            ExperimentConfig.from_dict(data) for data in reply["configs"]
        ]
        assert all(config in coordinator.configs for config in rebuilt)

    def test_complete_drains_the_sweep(self, coordinator):
        completed = self.drain(coordinator, "alice")
        assert coordinator.done
        status = coordinator.status()
        assert status["chunks"]["completed"] == len(completed)
        assert status["chunks"]["pending"] == 0
        assert status["configs"]["completed"] == len(coordinator.configs)
        # Done coordinator answers EMPTY+done, and leaves no lease files.
        reply = self.claim(coordinator, "bob")
        assert reply == {
            "v": protocol.PROTOCOL_VERSION,
            "type": "EMPTY",
            "done": True,
            "retry_s": reply["retry_s"],
        }
        assert coordinator.leases.active() == []

    def test_crashed_worker_is_stolen_from(self, coordinator, clock):
        victim = self.claim(coordinator, "victim")
        coordinator.dispatch(
            protocol.request(
                "PROGRESS", worker="victim", chunk=victim["chunk"],
                completed=1,
            )
        )
        # ... the victim dies here; its lease expires unrenewed ...
        clock.advance(10.0)
        completed = self.drain(coordinator, "rescuer")
        assert victim["chunk"] in completed
        assert coordinator.done
        status = coordinator.status()
        assert status["chunks"]["stolen"] == 1
        assert status["workers"]["rescuer"]["chunks_completed"] == len(
            completed
        )
        # No orphaned lease files — the crash left nothing behind.
        assert coordinator.leases.active() == []
        assert not list(coordinator.leases.root.glob("chunk-*"))

    def test_stale_holder_progress_and_complete_rejected(
        self, coordinator, clock
    ):
        victim = self.claim(coordinator, "victim")
        clock.advance(10.0)
        granted = []
        while victim["chunk"] not in granted:
            reply = self.claim(coordinator, "rescuer")
            assert reply["type"] == "CHUNK"  # fresh first, then the steal
            granted.append(reply["chunk"])
        for rtype in ("PROGRESS", "COMPLETE"):
            with pytest.raises(ProtocolError) as error:
                coordinator.dispatch(
                    protocol.request(
                        rtype, worker="victim", chunk=victim["chunk"],
                        completed=1,
                    )
                )
            assert error.value.code == "stale_lease"

    def test_heartbeat_renews(self, coordinator, clock):
        granted = self.claim(coordinator, "alice")
        clock.advance(9.0)
        reply = coordinator.dispatch(
            protocol.request(
                "HEARTBEAT", worker="alice", chunk=granted["chunk"]
            )
        )
        assert reply["expires"] == clock() + 10.0
        clock.advance(9.0)
        # Still held: another worker cannot claim it.
        holder = coordinator.leases.holder(granted["chunk"])
        assert holder.worker == "alice"
        assert not holder.expired(clock())

    def test_unknown_chunk_is_typed(self, coordinator):
        with pytest.raises(ProtocolError) as error:
            coordinator.dispatch(
                protocol.request("COMPLETE", worker="alice", chunk=99)
            )
        assert error.value.code == "unknown_chunk"

    def test_unserved_verbs_are_unsupported(self, coordinator):
        with pytest.raises(ProtocolError) as error:
            coordinator.dispatch(
                protocol.request("SUBMIT", config={}, label="x")
            )
        assert error.value.code == "unsupported"

    def test_progress_feeds_worker_throughput(self, coordinator, clock):
        granted = self.claim(coordinator, "alice")
        clock.advance(2.0)
        coordinator.dispatch(
            protocol.request(
                "PROGRESS", worker="alice", chunk=granted["chunk"],
                completed=2,
            )
        )
        workers = coordinator.status()["workers"]
        assert workers["alice"]["configs_completed"] == 2
        assert workers["alice"]["throughput_configs_s"] == pytest.approx(
            2 / 2.0
        )
        metrics = coordinator.metrics.values()
        assert metrics["repro_dist_sweep"]["configs_completed"] == 2
        assert metrics["repro_dist_worker,worker=alice"][
            "configs_completed"
        ] == 2

    def test_idle_claim_is_held_until_the_sweep_ends(
        self, coordinator, monkeypatch
    ):
        # A hold far longer than the test: the idle CLAIM can only
        # return early because the sweep finished.
        monkeypatch.setattr(coordinator_module, "RETRY_S", 30.0)
        total = coordinator.status()["chunks"]["total"]
        chunks = [self.claim(coordinator, "alice")["chunk"] for _ in range(total)]
        for chunk in chunks[:-1]:
            coordinator.dispatch(
                protocol.request("COMPLETE", worker="alice", chunk=chunk)
            )
        replies = []
        idle = threading.Thread(
            target=lambda: replies.append(self.claim(coordinator, "bob"))
        )
        idle.start()
        time.sleep(0.05)
        coordinator.dispatch(
            protocol.request("COMPLETE", worker="alice", chunk=chunks[-1])
        )
        idle.join(timeout=10)
        assert not idle.is_alive()
        assert replies == [{
            "v": protocol.PROTOCOL_VERSION,
            "type": "EMPTY",
            "done": True,
            "retry_s": 30.0,
        }]

    def test_empty_grid_is_born_done(self, tmp_path):
        coordinator = SweepCoordinator(
            (), Store(tmp_path / "store"), log=lambda line: None
        )
        assert coordinator.done
