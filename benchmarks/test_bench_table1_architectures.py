"""Table I — developed specifications of the four PIM architectures."""

from repro.analysis import TextTable
from repro.arch import TABLE_I
from repro.core import DataPlacementOptimizer
from repro.core.runtime import default_time_slice_ns
from repro.workloads import EFFICIENTNET_B0

from _artifacts import write_artifact


def render_table_i() -> str:
    table = TextTable(
        ["Architecture", "PIM Module Configuration", "Memory Types (per module)"]
    )
    for spec in TABLE_I:
        if spec.lp is None:
            modules = f"{spec.hp.module_count} HP-PIM"
        else:
            modules = (
                f"{spec.hp.module_count} HP-PIM + {spec.lp.module_count} LP-PIM"
            )
        mram = spec.hp.mram_capacity // 1024
        sram = spec.hp.sram_capacity // 1024
        memory = f"{sram}kB SRAM" if not mram else f"{mram}kB MRAM + {sram}kB SRAM"
        table.add_row(spec.name, modules, memory)
    return table.render()


def test_table1_reproduction(benchmark):
    text = benchmark.pedantic(render_table_i, rounds=3, iterations=1)
    write_artifact("table1.txt", text)
    print("\n" + text)
    assert "Baseline-PIM" in text and "HH-PIM" in text
    assert "64kB MRAM + 64kB SRAM" in text
    assert "128kB SRAM" in text
    # Every architecture builds its eight modules from the spec.
    t_slice = default_time_slice_ns(EFFICIENTNET_B0)
    for spec in TABLE_I:
        clusters = DataPlacementOptimizer(spec, EFFICIENTNET_B0, t_slice).clusters
        assert sum(len(c) for c in clusters.values()) == 8
