"""Experiment runners reproducing the paper's evaluation.

* :mod:`repro.explore.experiments` -- Table I (the four test schedules)
* :mod:`repro.explore.speedup` -- the TLM vs RTL/gate-level simulation speed
  comparison quoted in Section IV
* :mod:`repro.explore.scenarios` -- the scenario grammar: synthetic SoC specs
  and the cross-product generator behind exploration campaigns
* :mod:`repro.explore.campaign` -- the campaign engine: scenarios x schedules
  on a worker pool with structured CSV/JSON result artifacts
* :mod:`repro.explore.adaptive` -- adaptive search on top of the campaign
  engine: successive halving over budgets with Pareto-front pruning, with
  round-boundary checkpoints and mid-search resume from JSON artifacts
* :mod:`repro.explore.distrib` -- the distribution subsystem: deterministic
  shard planning, per-host shard execution and provenance-validated artifact
  merging (merged == single-host, bitwise)
* :mod:`repro.explore.store` -- the columnar result store: typed numpy
  column chunks with schema/provenance metadata, the one shard merge engine
  and streaming JSON/CSV writers that stay bitwise-identical to the
  in-memory artifact writers
* :mod:`repro.explore.coordinator` -- the live control plane: fair-share
  campaign queue, span leases over a localhost socket, heartbeats, work
  stealing and incremental streaming merge (coordinated == single-host,
  bitwise)
* :mod:`repro.explore.worker` -- the execution plane: the lease/execute/
  complete worker loop, over TCP or in process
* :mod:`repro.explore.sweeps` -- design-space sweeps (compression ratio, TAM
  width, schedule exploration), expressed as thin campaign definitions
* :mod:`repro.explore.report` -- plain-text table formatting
* :mod:`repro.explore.cli` -- the ``python -m repro.explore`` entry point

Artifact compatibility: campaign rows follow
:data:`~repro.explore.campaign.RESULT_COLUMNS` and are versioned by
:data:`~repro.explore.campaign.SCHEMA_VERSION` (currently 4); adaptive
artifacts append the provenance columns of :mod:`repro.explore.adaptive`,
versioned by :data:`~repro.explore.adaptive.ADAPTIVE_SCHEMA_VERSION`
(currently 2, resumable checkpoints); shard artifacts embed the campaign
schema plus a shard envelope versioned by
:data:`~repro.explore.distrib.DISTRIB_SCHEMA_VERSION`.
Consumers should key on these version fields, not on column positions.
"""

from repro.explore.adaptive import (
    ADAPTIVE_SCHEMA_VERSION,
    DEFAULT_OBJECTIVES,
    AdaptiveResult,
    AdaptiveRound,
    AdaptiveSearch,
    Objective,
    ParetoFront,
    adaptive_search_from_axes,
    dominates,
    pareto_front_mask,
    pareto_ranks,
    resume_search,
)
from repro.explore.artifact import write_csv, write_json
from repro.explore.campaign import (
    Campaign,
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
    RESULT_COLUMNS,
    SCHEMA_VERSION,
    campaign_from_axes,
    execute_job,
    outcome_from_row,
    result_columns,
    run_jobs,
)
from repro.explore.coordinator import (
    COORDINATOR_SCHEMA_VERSION,
    Coordinator,
    CoordinatorError,
    CoordinatorServer,
    CoordinatorSession,
    SpanLease,
)
from repro.explore.distrib import (
    DISTRIB_SCHEMA_VERSION,
    CampaignShard,
    MergeError,
    MergePlan,
    ShardRun,
    load_artifact,
    merge_shard_documents,
    missing_shard_spans,
    plan_merge,
    plan_shards,
    replan_document,
    run_shard,
    shard_span,
    space_fingerprint,
    validate_shard_result,
)
from repro.explore.experiments import ScenarioResult, run_table1
from repro.explore.report import (
    format_adaptive,
    format_campaign,
    format_coordinator_status,
    format_merged,
    format_shard,
    format_strategies,
    format_table,
    format_table1,
    format_worker_stats,
)
from repro.explore.scenarios import (
    Scenario,
    ScenarioGrid,
    ScenarioSpec,
    build_scenario,
    spec_from_dict,
    spec_to_dict,
)
from repro.explore.speedup import SpeedupResult, run_speed_comparison
from repro.explore.store import (
    STORE_SCHEMA_VERSION,
    ColumnarStore,
    IncrementalShardMerge,
    StoreError,
    merge_shards,
    store_adaptive_result,
    store_campaign_run,
    store_shard_run,
    write_document_json,
)
from repro.explore.sweeps import (
    compression_ratio_sweep,
    tam_width_sweep,
    schedule_exploration,
)
from repro.explore.worker import CampaignWorker, InProcessClient

__all__ = [
    "ADAPTIVE_SCHEMA_VERSION",
    "AdaptiveResult",
    "AdaptiveRound",
    "AdaptiveSearch",
    "COORDINATOR_SCHEMA_VERSION",
    "Campaign",
    "CampaignJob",
    "CampaignOutcome",
    "CampaignRun",
    "CampaignShard",
    "CampaignWorker",
    "ColumnarStore",
    "Coordinator",
    "CoordinatorError",
    "CoordinatorServer",
    "CoordinatorSession",
    "DEFAULT_OBJECTIVES",
    "DISTRIB_SCHEMA_VERSION",
    "InProcessClient",
    "IncrementalShardMerge",
    "MergeError",
    "MergePlan",
    "Objective",
    "ParetoFront",
    "SpanLease",
    "RESULT_COLUMNS",
    "SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "Scenario",
    "ScenarioGrid",
    "ScenarioResult",
    "ScenarioSpec",
    "ShardRun",
    "SpeedupResult",
    "StoreError",
    "adaptive_search_from_axes",
    "build_scenario",
    "campaign_from_axes",
    "compression_ratio_sweep",
    "dominates",
    "execute_job",
    "format_adaptive",
    "format_campaign",
    "format_coordinator_status",
    "format_merged",
    "format_shard",
    "format_strategies",
    "format_table",
    "format_table1",
    "format_worker_stats",
    "load_artifact",
    "merge_shard_documents",
    "merge_shards",
    "missing_shard_spans",
    "outcome_from_row",
    "pareto_front_mask",
    "pareto_ranks",
    "plan_merge",
    "plan_shards",
    "replan_document",
    "result_columns",
    "resume_search",
    "run_jobs",
    "run_shard",
    "run_speed_comparison",
    "run_table1",
    "schedule_exploration",
    "shard_span",
    "space_fingerprint",
    "spec_from_dict",
    "spec_to_dict",
    "store_adaptive_result",
    "store_campaign_run",
    "store_shard_run",
    "tam_width_sweep",
    "validate_shard_result",
    "write_csv",
    "write_document_json",
    "write_json",
]
