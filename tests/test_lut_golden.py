"""Golden LUT candidates of the paper grid at the CLI default resolution.

Every LUT a paper sweep builds (4 Table I architectures x 3 Table IV
models under each architecture's default policy, plus the HH-PIM
bootstrap LUT behind each model's ``default_time_slice_ns``) is pinned
candidate by candidate, floats as ``repr``, so any change to Algorithm 1
or 2 that moves a single bit of a placement fails here.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_lut_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.arch import HH_PIM, TABLE_I
from repro.core.knapsack import scalar_dp
from repro.core.placement import DataPlacementOptimizer, PlacementPolicy
from repro.core.runtime import default_time_slice_ns
from repro.core.spaces import SpaceKind
from repro.workloads import TABLE_IV

GOLDEN = Path(__file__).with_name("data") / "lut_golden.json"

#: ``repro sweep``'s default resolution.
BLOCKS = 48
STEPS = 6000

MRAM_KINDS = [SpaceKind.HP_MRAM, SpaceKind.LP_MRAM]


def _candidates(lut) -> list:
    return [
        {
            "counts": [[kind.value, blocks] for kind, blocks in p.counts.items()],
            "t_budget_ns": repr(p.t_budget_ns),
            "task_time_ns": repr(p.task_time_ns),
            "dp_energy_nj": repr(p.dp_energy_nj),
            "dynamic_energy_nj": repr(p.dynamic_energy_nj),
            "hold_static_power_mw": repr(p.hold_static_power_mw),
        }
        for p in lut.candidates
    ]


def paper_luts() -> dict:
    """Every LUT of the paper grid, keyed ``model/arch`` (or ``/bootstrap``)."""
    luts = {}
    for model in TABLE_IV:
        bootstrap = DataPlacementOptimizer(
            HH_PIM, model, t_slice_ns=1e9, block_count=BLOCKS, time_steps=STEPS
        )
        luts[f"{model.name}/bootstrap"] = _candidates(bootstrap.build_lut())
        t_slice_ns = default_time_slice_ns(
            model, block_count=BLOCKS, time_steps=STEPS
        )
        luts[f"{model.name}/t_slice_ns"] = repr(t_slice_ns)
        for spec in TABLE_I:
            optimizer = DataPlacementOptimizer(
                spec, model, t_slice_ns=t_slice_ns,
                block_count=BLOCKS, time_steps=STEPS,
            )
            policy = PlacementPolicy.default_for(spec)
            restrict = (
                MRAM_KINDS if policy is PlacementPolicy.FIXED_MRAM_ONLY else None
            )
            luts[f"{model.name}/{spec.name}"] = _candidates(
                optimizer.build_lut(restrict_to=restrict)
            )
    return luts


def test_paper_grid_luts_match_golden():
    expected = json.loads(GOLDEN.read_text())
    # The scalar DP would take minutes at this resolution; the scalar
    # leg checks the reference through the differential suites instead.
    with scalar_dp(False):
        got = paper_luts()
    assert list(got) == list(expected)
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_lut_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    with scalar_dp(False):
        data = paper_luts()
    lines = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = ",\n".join("  " + json.dumps(row) for row in value)
            value_text = "[\n" + rows + "\n ]"
        else:
            value_text = json.dumps(value)
        lines.append(f" {json.dumps(key)}: {value_text}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN} ({len(data)} entries)")
