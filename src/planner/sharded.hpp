#pragma once
/// \file sharded.hpp
/// \brief The sharded multi-cluster planning backend.
///
/// Monolithic planning treats the platform as one flat pool, and the
/// heuristic's cost grows superlinearly with pool size — at 10k nodes a
/// single plan takes tens of seconds. The deployment model the paper
/// targets (hierarchical middleware over multi-cluster grids) suggests
/// the fix: partition the platform into clusters (platform/partition.hpp),
/// plan each cluster's sub-hierarchy independently — and concurrently,
/// on the PlanningService's thread pool — then stitch the shard roots
/// under one globally chosen root and run a bounded cross-shard repair
/// pass. Σ shardᵢ² work replaces n² work, so the speedup holds even on
/// one core; the shards also parallelise perfectly.
///
/// Determinism discipline (same as the PR-2 heuristic rewrite): shard
/// plans are bit-identical for any pool size, shard results are merged
/// in the canonical partition order, and every tie-break is total — the
/// sharded plan is bit-identical for any thread count and any ordering
/// of the partition's shards.
///
/// Quality guarantee: the returned plan is never worse (on the planner's
/// demand-clipped objective) than the best single shard's plan — the
/// stitched-and-repaired candidate competes against each shard-local
/// plan and the best one wins.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "planner/planner.hpp"
#include "planner/registry.hpp"
#include "planner/request.hpp"
#include "platform/partition.hpp"

namespace adept {

/// Maximum children a single stitch merges. A partition with more shards
/// than this is stitched recursively: consecutive canonical shards are
/// grouped (balanced, ≤ fanout groups per level) and each group is
/// stitched + repaired on its own sub-platform before the groups meet at
/// the next level — so a 100k-node platform does not flatten into one
/// 200-way merge. 32 keeps every catalog preset (≤ ~20 shards) on the
/// historical single-level path bit for bit.
inline constexpr std::size_t kDefaultStitchFanout = 32;

/// Registry name of the leaf planner the local sharded backend runs per
/// shard (the paper's heuristic). Shard-cache keys carry this name, so
/// the local leaf path and a distributed coordinator configured with the
/// same leaf planner address identical cache entries.
inline constexpr const char* kShardLeafPlanner = "heuristic";

/// Batch leaf planner of the sharded core: given the canonical leaf
/// shards (platform node ids, ascending within a shard), returns one
/// PlanResult per shard, aligned by index, with hierarchies already in
/// *platform* node ids. Tests and benches inject hand-written leaf
/// paths this way; the `sharded` and `distributed` planners both stream
/// through shard_leaf_stream() instead. Any leaf planner must be
/// deterministic in the shard content — the stitch above it is shared,
/// which is what makes the planners bit-identical.
using ShardLeafBatchFn = std::function<std::vector<PlanResult>(
    const std::vector<std::vector<NodeId>>&)>;

/// The id convention at the leaf/stitch boundary: a leaf plan arrives in
/// the local ids of `platform.subset(ids)` (positions in `ids`), the
/// stitch consumes platform ids. Rewrites `plan` from the former to the
/// latter in place.
inline void leaf_to_platform_ids(PlanResult& plan,
                                 const std::vector<NodeId>& ids) {
  for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
    plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
}

/// Per-shard completion sink of the streaming sharded core: called
/// exactly once per leaf shard — from any thread, in any completion
/// order — with the shard's index in the canonical partition and its
/// plan (hierarchy already in platform node ids). Thread-safe; cheap
/// unless the delivery completes a stitch group, in which case the
/// delivering thread runs that group's stitch + repair before returning
/// (that is the point: group stitches overlap the shards still being
/// planned).
using ShardResultSink = std::function<void(std::size_t, PlanResult)>;

/// Streaming leaf planner of the sharded core: must deliver every leaf
/// shard's plan through `ready` exactly once, in any order and from any
/// threads, and return only after all deliveries have completed. The
/// distributed Coordinator implements this over its worker fleet —
/// responses stream into the stitch straight off the drain threads.
using ShardLeafStreamFn = std::function<void(
    const std::vector<std::vector<NodeId>>&, const ShardResultSink&)>;

/// The self-contained request of one leaf shard: the shard's
/// sub-platform plus the options a leaf honours — `demand`, the trace
/// switch, the deadline and the cancel token. degree/shards/excluded are
/// resolved above the leaves; pool and caches are the caller's. The one
/// place this rule lives: the local leaf path, the Coordinator's wire
/// jobs and ShardPlanCache::key all build leaves here, so the local and
/// distributed planners address the same shard-cache entries.
PlanRequest shard_leaf_request(std::shared_ptr<const Platform> shard_platform,
                               const MiddlewareParams& params,
                               const ServiceSpec& service,
                               const PlanOptions& options);

/// One leaf shard the shard cache could not answer.
struct ShardLeafMiss {
  std::size_t shard = 0;  ///< Index in the canonical partition.
  PlanRequest request;    ///< shard_leaf_request() of the shard.
};

/// Delivery hook for a miss: the shard's index in the partition and its
/// plan in the local ids of the shard's sub-platform (as a leaf planner
/// returns it). Thread-safe; a throw means the plan was rejected and not
/// delivered.
using ShardMissSink = std::function<void(std::size_t, PlanResult)>;

/// Plans the misses of one leaf batch (ascending shard order): must hand
/// every miss's plan to the sink exactly once, from any threads, and
/// return only after all deliveries have completed.
using ShardMissFn = std::function<void(const std::vector<ShardLeafMiss>&,
                                       const ShardMissSink&)>;

/// The one shard-leaf path of the sharded core, shared by the local
/// `sharded` planner and the distributed Coordinator. The returned
/// stream builds each leaf's shard_leaf_request() once, probes
/// `options.shard_cache` (keyed on `leaf_planner`) and delivers the hits,
/// remapped to platform ids, in ascending shard order; then hands the
/// misses to `plan_misses`. Each plan it delivers back is checked to name
/// only nodes of its shard, stored in the cache by content in
/// sub-platform-local ids (so a hit returns it verbatim and plans are
/// bit-identical with or without the cache — ARCHITECTURE.md rule 8),
/// remapped to platform ids and sunk. `platform`, `params`, `service`
/// and `options` must outlive the stream.
ShardLeafStreamFn shard_leaf_stream(const Platform& platform,
                                    const MiddlewareParams& params,
                                    const ServiceSpec& service,
                                    const PlanOptions& options,
                                    std::string leaf_planner,
                                    ShardMissFn plan_misses);

/// Plans `platform` shard-by-shard over an explicit `partition` and
/// stitches the result (see the file comment for the algorithm). The
/// entry point the registry's "sharded" planner calls after resolving
/// `options.shards` through plat::partition_platform; exposed so tests
/// and benches can pin behaviour for hand-built partitions (including
/// shuffled shard orderings, which must not change the plan).
///
/// `options.excluded` must be empty: exclusion is applied by the
/// registry wrapper (plan on the surviving sub-platform, remap back)
/// before any partitioning happens. `options.demand`, `options.pool`,
/// `options.shard_cache` and the deadline/cancel controls are honoured;
/// a one-shard partition degenerates to plan_heterogeneous exactly.
PlanResult plan_sharded(const Platform& platform,
                        const MiddlewareParams& params,
                        const ServiceSpec& service, const PlanOptions& options,
                        const plat::Partition& partition);

/// The sharded core with a batch leaf planner injected. Canonicalizes
/// `partition`, obtains every leaf plan from
/// `plan_leaves` in one batch, then stitches — recursively when the
/// partition has more than `stitch_fanout` shards — and repairs, with
/// the per-level quality floor (never worse than the best child). All
/// validation of plan_sharded() applies; `stitch_fanout` >= 2.
PlanResult plan_sharded_with(const Platform& platform,
                             const MiddlewareParams& params,
                             const ServiceSpec& service,
                             const PlanOptions& options,
                             const plat::Partition& partition,
                             std::size_t stitch_fanout,
                             const ShardLeafBatchFn& plan_leaves);

/// The streaming sharded core — the engine plan_sharded_with() is a
/// batch adapter over. The stitch tree (balanced consecutive groups,
/// ≤ `stitch_fanout` children per node) is precomputed from the
/// canonical partition alone; as `plan_leaves` delivers shard plans, the
/// delivering thread stitches + repairs any group whose children just
/// completed and cascades the group plan upward, so intermediate stitch
/// levels run while later shards are still being planned. Only the top-
/// level stitch (which needs every input) runs after `plan_leaves`
/// returns, on the calling thread. Determinism rule #7: because each
/// group's stitch is a pure function of its child plans and groups
/// follow the canonical shard order, the result is bit-identical to the
/// batch path — and to the local `sharded` planner — for ANY arrival
/// order. All validation of plan_sharded() applies.
PlanResult plan_sharded_streamed(const Platform& platform,
                                 const MiddlewareParams& params,
                                 const ServiceSpec& service,
                                 const PlanOptions& options,
                                 const plat::Partition& partition,
                                 std::size_t stitch_fanout,
                                 const ShardLeafStreamFn& plan_leaves);

/// Factory for the registry entry ("sharded", demand- and shard-aware).
/// Called by PlannerRegistry::instance() when the built-ins register.
std::unique_ptr<IPlanner> make_sharded_planner();

}  // namespace adept
