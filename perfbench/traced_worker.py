"""A coordinated worker with the layer spans of ``tracing.py`` installed.

The traced run starts these instead of ``python -m repro.explore work``:
the same :class:`~repro.explore.worker.CampaignWorker` loop over a
protocol-v2 :class:`~repro.explore.coordinator.CoordinatorSession`, with a
timed ``run_shard`` executor and a sleep that records every idle poll.
The spans, counters and the process's scenario-cache statistics are
written to ``--spans`` when the coordinator shuts the worker down.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro.explore  # noqa: E402,F401  (every layer, before rebinding)
from repro.explore import distrib  # noqa: E402
from repro.explore.campaign import scenario_cache_stats  # noqa: E402
from repro.explore.coordinator import CoordinatorSession  # noqa: E402
from repro.explore.worker import CampaignWorker  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--id", required=True)
    parser.add_argument("--poll", type=float, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    host, _, port = args.connect.rpartition(":")

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    idle_polls = []

    def sleep(seconds: float) -> None:
        idle_polls.append(time.perf_counter())
        time.sleep(seconds)

    def execute(shard):
        return distrib.run_shard(shard).as_document(deterministic=True)

    session = CoordinatorSession(host, int(port))
    worker = CampaignWorker(session, args.id, poll_interval=args.poll,
                            sleep=sleep, executor=execute)
    try:
        stats = worker.run()
    finally:
        session.close()
        tracer.enabled = False
        tracer.write(args.spans, idle_polls=idle_polls,
                     cache=scenario_cache_stats(), stats=worker.stats)
    print(stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
