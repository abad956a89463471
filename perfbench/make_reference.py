"""Regenerate reference/capacity_grid.json, the capacities the
capacity-grid workload is checked against.

Run from the root of a flashlife checkout, only when a change to the
model is meant to move these capacities:

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

from flashlife import config  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import REFERENCE, CapacityGrid  # noqa: E402


def main() -> None:
    values = config.load_config(Path("params") / "default.conf")
    grid = CapacityGrid(
        0, config.device_params_from(values), config.policy_config_from(values)
    )
    out = {
        name: [cp.capacity_bits for cp in op(NullTracer()).checkpoints]
        for name, op in grid.ops
    }
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
