"""Regenerate ``reference.json``, the recorded outputs the checks compare to.

    python3 perfbench/record_reference.py

Records, for the default and the held-out seed, the row digests of the
first sweep unit and of the first search_adaptive unit plus that search's
Pareto front, and the row digest of every row a table1_jpeg unit can
produce.  Run it only when a change is meant to alter simulated results;
the review of that change must say why the references moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.explore.adaptive import AdaptiveSearch  # noqa: E402
from repro.explore.campaign import Campaign, clear_scenario_cache  # noqa: E402

import workloads  # noqa: E402
from session import REFERENCE, row_digest  # noqa: E402

#: ``default`` is the seed to develop against; a gain must also hold on
#: ``held_out``, which no tuning may look at.
SEEDS = {"default": 1, "held_out": 2}


def main() -> int:
    size = workloads.SIZES["full"]
    reference = {"seeds": SEEDS, "sweep_rows": {}, "adaptive_rows": {},
                 "adaptive_front": {}, "jpeg_rows": {}}
    for seed in SEEDS.values():
        clear_scenario_cache()
        run = Campaign(workloads.sweep_specs(size, seed, 0)).run()
        reference["sweep_rows"][str(seed)] = [
            row_digest(row) for row in run.deterministic_rows()]
        clear_scenario_cache()
        result = AdaptiveSearch(workloads.adaptive_specs(size, seed, 0),
                                surrogate=True, surrogate_keep=0.25,
                                race=True).run()
        reference["adaptive_rows"][str(seed)] = [
            row_digest(row) for row in result.rows()]
        reference["adaptive_front"][str(seed)] = sorted(
            [outcome.spec.name, outcome.schedule] for outcome in result.front)
    points = {}
    for unit in range(len(workloads.COMPRESSION_RATIOS)):
        for spec in workloads.jpeg_specs(size, 1, unit):
            points[spec.name] = spec
    clear_scenario_cache()
    for row in Campaign(list(points.values())).run().deterministic_rows():
        reference["jpeg_rows"][f"{row['scenario']}/{row['schedule']}"] = \
            row_digest(row)
    expected = {f"{scenario}/{schedule}"
                for scenario, schedule in workloads.jpeg_point_names()}
    if set(reference["jpeg_rows"]) != expected:
        raise SystemExit("the recorded jpeg rows do not cover every point")
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
