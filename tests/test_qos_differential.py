"""The zero-queueing differential: QoS simulator == fleet runtime.

With capacity well above load and ``batch=1``, the request-level
simulator must degenerate *exactly* to :class:`repro.serving.fleet.Fleet`:
same per-device :class:`~repro.core.runtime.SliceRecord` streams (bit for
bit — placement, movement, every energy term), same per-slice energy and
completed-request totals.  This anchors every QoS metric to the paper's
energy model the same way the scalar/vectorized differentials anchor the
fast paths.
"""

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig
from repro.qos import QoSSimulator
from repro.serving import BUILTIN_POLICIES, Fleet
from repro.workloads import ALL_CASES, scenario

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS)

#: Fleet shapes the differential covers: the single device (the paper's
#: runtime) and a small fleet.
SHAPES = (1, 3)


@pytest.fixture(scope="module")
def engine():
    return Engine(use_disk_cache=False)


@pytest.fixture(scope="module")
def hh_runtime(engine):
    return engine.runtime(ExperimentConfig(**TINY))


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: f"case{c.value}")
@pytest.mark.parametrize("devices", SHAPES)
def test_zero_queueing_matches_fleet(hh_runtime, case, devices):
    """Six Fig. 4 presets on HH-PIM: records equal, record for record."""
    workload = scenario(case, slices=20)
    fleet = Fleet([hh_runtime] * devices, dispatch="round_robin")
    fleet_result = fleet.run(workload)
    # the zero-queueing precondition: the fleet absorbs every slice
    assert fleet_result.deadlines_met

    qos = QoSSimulator(
        hh_runtime, devices=devices, dispatch="round_robin", batch=1
    ).run(workload)

    # record-for-record equality, device by device
    for device in range(devices):
        expected = list(fleet_result.device_results[device].records)
        assert qos.device_records[device] == expected

    # per-slice energy and completed totals match the fleet aggregates
    for index, stats in enumerate(qos.slices):
        slice_energy = sum(
            run.records[index].total_energy_nj
            for run in fleet_result.device_results
        )
        slice_tasks = sum(
            run.records[index].tasks_processed
            for run in fleet_result.device_results
        )
        assert stats.energy_nj == slice_energy
        assert stats.completed == slice_tasks

    assert len(qos.slices) == len(workload)  # no drain windows
    assert qos.completed == fleet_result.total_inferences
    assert qos.unfinished == 0
    # run totals: bit-identical when summed in the same (slice-major)
    # order; the fleet's device-major total differs only by float
    # summation order.
    slice_major_total = sum(
        sum(
            run.records[index].total_energy_nj
            for run in fleet_result.device_results
        )
        for index in range(len(workload))
    )
    assert qos.total_energy_nj == slice_major_total
    assert qos.total_energy_nj == pytest.approx(
        fleet_result.total_energy_nj, rel=1e-12
    )
    # zero queueing: every request inside the paper's 2T staging bound
    assert qos.deadline_miss_rate == 0.0
    assert qos.slo_attainment == 1.0


@pytest.mark.parametrize("dispatch", sorted(BUILTIN_POLICIES))
def test_differential_holds_for_every_dispatch(hh_runtime, dispatch):
    """The record equality is dispatch-agnostic (same policy both sides)."""
    workload = scenario(ALL_CASES[2], slices=15)
    fleet_result = Fleet([hh_runtime] * 3, dispatch=dispatch).run(workload)
    qos = QoSSimulator(hh_runtime, devices=3, dispatch=dispatch).run(workload)
    for device in range(3):
        assert (
            qos.device_records[device]
            == list(fleet_result.device_results[device].records)
        )


def test_differential_on_second_architecture(engine):
    """At least one more Table I architecture (fixed-policy path)."""
    runtime = engine.runtime(ExperimentConfig(arch="Hybrid-PIM", **TINY))
    workload = scenario(ALL_CASES[4], slices=15)
    fleet_result = Fleet([runtime] * 2).run(workload)
    qos = QoSSimulator(runtime, devices=2).run(workload)
    for device in range(2):
        assert (
            qos.device_records[device]
            == list(fleet_result.device_results[device].records)
        )
    assert qos.total_energy_nj == fleet_result.total_energy_nj


def test_engine_run_qos_matches_run_fleet(engine):
    """The engine-level differential: config in, identical records out."""
    config = ExperimentConfig(scenario="case3", fleet=2, slices=12, **TINY)
    fleet_result = engine.run_fleet(config)
    qos = engine.run_qos(config)
    for device in range(2):
        assert (
            qos.device_records[device]
            == list(fleet_result.device_results[device].records)
        )


def test_overload_parts_ways_with_fleet(engine):
    """The equivalence needs every slice to meet its deadline.  Under
    overload ``Fleet`` books the misses slice by slice, while the QoS
    simulator carries the backlog into extra windows, so routing
    ``repro fleet`` through QoS would change its output."""
    config = ExperimentConfig(
        scenario="bursty", fleet=2, peak=30, slices=12, **TINY
    )
    fleet_result = engine.run_fleet(config)
    qos = engine.run_qos(config)
    records = [r.records for r in fleet_result.device_results]
    assert [len(device) for device in records] == [12, 12]
    assert any(not r.deadline_met for device in records for r in device)
    assert len(qos.slices) > 12
    assert qos.device_records[0] != list(records[0])
    assert qos.total_energy_nj != fleet_result.total_energy_nj
