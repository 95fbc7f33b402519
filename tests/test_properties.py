"""Property-based tests (hypothesis) on core invariants."""


import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.knapsack import knapsack_min_energy, reconstruct_counts
from repro.core.spaces import SpaceKind
from repro.isa import ClusterId, Compute, ComputeOp, LoadOperands, decode
from repro.memory import MemoryBank, SRAM_45NM, STT_MRAM_45NM
from repro.pe.mac import int8_mac, requantize, saturate_int8
from tests.test_core_knapsack import brute_force, space


# --- Knapsack DP vs brute force ------------------------------------------------

@st.composite
def dp_instances(draw):
    n_spaces = draw(st.integers(1, 3))
    kinds = [SpaceKind.HP_SRAM, SpaceKind.HP_MRAM, SpaceKind.LP_SRAM]
    spaces = []
    for i in range(n_spaces):
        spaces.append(
            space(
                kinds[i],
                t=draw(st.integers(1, 4)),
                e=draw(st.integers(1, 20)),
                capacity=draw(st.integers(1, 6)),
            )
        )
    blocks = draw(st.integers(1, 5))
    t_steps = draw(st.integers(1, 12))
    return spaces, blocks, t_steps


@given(dp_instances())
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force(instance):
    spaces, blocks, t_steps = instance
    result = knapsack_min_energy(spaces, t_steps=t_steps, max_blocks=blocks,
                                 time_step_ns=1.0)
    for t in range(t_steps + 1):
        expected = brute_force(spaces, t, blocks)
        got = result.dp[-1, t, blocks]
        if expected is None:
            assert np.isinf(got)
        else:
            assert got == np.float64(expected) or abs(got - expected) < 1e-9


@given(dp_instances())
@settings(max_examples=40, deadline=None)
def test_dp_reconstruction_is_consistent(instance):
    spaces, blocks, t_steps = instance
    result = knapsack_min_energy(spaces, t_steps=t_steps, max_blocks=blocks,
                                 time_step_ns=1.0)
    for t in range(t_steps + 1):
        if not np.isfinite(result.dp[-1, t, blocks]):
            continue
        counts = reconstruct_counts(result, t, blocks)
        assert sum(counts.values()) == blocks
        # The reconstructed placement respects capacity and time.
        by_kind = {s.kind: s for s in spaces}
        time = 0
        energy = 0.0
        for kind, taken in counts.items():
            assert taken <= by_kind[kind].capacity_blocks
            time += taken * by_kind[kind].time_per_block_ns
            energy += taken * by_kind[kind].energy_per_block_nj
        assert time <= t + 1e-9
        assert energy == np.float64(result.dp[-1, t, blocks]) or (
            abs(energy - result.dp[-1, t, blocks]) < 1e-9
        )


@given(dp_instances())
@settings(max_examples=30, deadline=None)
def test_dp_monotone_in_budget(instance):
    spaces, blocks, t_steps = instance
    result = knapsack_min_energy(spaces, t_steps=t_steps, max_blocks=blocks,
                                 time_step_ns=1.0)
    row = result.dp[-1, :, blocks]
    finite = row[np.isfinite(row)]
    assert np.all(np.diff(finite) <= 1e-9)


# --- Memory bank round-trips ------------------------------------------------------

@given(
    offset=st.integers(0, 200),
    payload=st.binary(min_size=1, max_size=55),
)
@settings(max_examples=50, deadline=None)
def test_bank_roundtrip(offset, payload):
    bank = MemoryBank(name="t", technology=SRAM_45NM,
                      capacity_bytes=256, vdd=1.2)
    bank.write(offset, payload)
    assert bank.read(offset, len(payload)) == payload


@given(payload=st.binary(min_size=1, max_size=32))
@settings(max_examples=30, deadline=None)
def test_mram_survives_gating(payload):
    bank = MemoryBank(name="t", technology=STT_MRAM_45NM,
                      capacity_bytes=64, vdd=0.8)
    bank.write(0, payload)
    bank.power_off()
    bank.power_on()
    assert bank.read(0, len(payload)) == payload


# --- ISA encode/decode -------------------------------------------------------------

@given(
    cluster=st.sampled_from(list(ClusterId)),
    module=st.integers(0, 15),
    op=st.sampled_from(list(ComputeOp)),
    count=st.integers(0, (1 << 20) - 1),
)
@settings(max_examples=80, deadline=None)
def test_compute_roundtrip(cluster, module, op, count):
    instruction = Compute(cluster, module, op=op, count=count)
    assert decode(instruction.encode()) == instruction


@given(
    cluster=st.sampled_from(list(ClusterId)),
    module=st.integers(0, 15),
    mram=st.integers(0, 1023),
    sram=st.integers(0, 1023),
)
@settings(max_examples=80, deadline=None)
def test_load_roundtrip(cluster, module, mram, sram):
    instruction = LoadOperands(cluster, module, mram_count=mram, sram_count=sram)
    assert decode(instruction.encode()) == instruction


# --- INT8 arithmetic ----------------------------------------------------------------

@given(st.integers(-128, 127), st.integers(-128, 127),
       st.integers(-(2**31), 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_mac_matches_clamped_python(w, a, acc):
    expected = max(-(2**31), min(2**31 - 1, acc + w * a))
    assert int8_mac(acc, w, a) == expected


@given(st.integers(-(2**20), 2**20), st.integers(1, 8), st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_requantize_bounded(value, num, shift):
    result = requantize(value, num, shift)
    assert -128 <= result <= 127
    assert result == saturate_int8(result)


# --- LUT monotonicity over the real optimizer ----------------------------------------

def test_lut_selected_energy_monotone(hh_lut):
    window = hh_lut.t_max_ns
    budgets = np.linspace(hh_lut.min_feasible_t_ns, window, 60)
    energies = [
        hh_lut.lookup(b, window_ns=window).task_energy_nj(window)
        for b in budgets
    ]
    assert all(b <= a + 1e-6 for a, b in zip(energies, energies[1:]))


def test_lut_task_times_within_budget(hh_lut):
    budgets = np.linspace(hh_lut.min_feasible_t_ns, hh_lut.t_max_ns, 40)
    for budget in budgets:
        placement = hh_lut.lookup(budget)
        assert placement.task_time_ns <= budget + 1e-6
