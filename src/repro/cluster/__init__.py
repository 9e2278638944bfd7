"""``repro.cluster``: the backend-agnostic sharded query plane.

The field is naturally partitionable by region — a mobile user's query
only ever touches sensors inside its radius along the motion path — so
the cluster shards the world spatially: one full simulated world per
partition cell, a geometry router in front, and the stable
:class:`~repro.api.backend.QueryBackend` surface on top.  See
:mod:`repro.cluster.service` for the guarantees (single-shard
bit-identity, cluster-wide admission, lockstep epochs, worker-process
batch mode).
"""

from .partition import (
    DEFAULT_PARTITIONER,
    PARTITIONERS,
    BalancedKDPartitioner,
    GridStripePartitioner,
    Partitioner,
    make_partitioner,
    overlap_area,
    shard_node_counts,
)
from .scheduler import EPOCH_S, LockstepScheduler
from .service import ClusterService
from .transport import (
    ReplayAdmissionPolicy,
    ShardOutcome,
    ShardPlan,
    parallel_map,
    run_shard_plan,
    run_shards_parallel,
)

__all__ = [
    "ClusterService",
    # partitioning
    "Partitioner",
    "GridStripePartitioner",
    "BalancedKDPartitioner",
    "PARTITIONERS",
    "DEFAULT_PARTITIONER",
    "make_partitioner",
    "overlap_area",
    "shard_node_counts",
    # scheduling
    "LockstepScheduler",
    "EPOCH_S",
    # worker transport
    "ShardPlan",
    "ShardOutcome",
    "ReplayAdmissionPolicy",
    "run_shard_plan",
    "run_shards_parallel",
    "parallel_map",
]
