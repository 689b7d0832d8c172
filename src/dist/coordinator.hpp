#pragma once
/// \file coordinator.hpp
/// \brief The distributed planning tier's front door.
///
/// A Coordinator plans like the local `sharded` backend — same
/// partition (platform/partition.hpp), same recursive stitch + repair +
/// quality floor and the same shard-leaf path (planner/sharded.hpp's
/// plan_sharded_streamed and shard_leaf_stream) — but plans the
/// shard-cache misses on a WorkerPool instead of the local thread pool. Each leaf becomes a self-contained PlanRequest on the
/// serve wire format; since the wire serializers are round-trip exact
/// (shortest round-trip doubles, io/wire.hpp) and the leaf planner is
/// deterministic in the platform content, a worker's answer is
/// bit-identical to what the local planner would have produced — and
/// the shared stitch core does the rest. The result: `distributed`
/// produces bit-identical hierarchies, reports and traces to `sharded`
/// for any worker count, any worker loss pattern, and the in-process
/// fallback (pinned in tests/test_dist.cpp).
///
/// Fault rules (determinism rule #7, docs/ARCHITECTURE.md): a worker
/// crash, hang or malformed response fails the *worker*, never the
/// request — its shards are re-dispatched to healthy workers and, when
/// none remain, planned in-process. Only a genuine planning error (one
/// the local planner would also raise) propagates.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/worker_pool.hpp"
#include "planner/registry.hpp"
#include "planner/request.hpp"
#include "planner/sharded.hpp"

namespace adept::dist {

/// Coordinator tuning knobs.
struct CoordinatorConfig {
  std::size_t workers = 2;      ///< Fleet size (Transport constructor only).
  double shard_timeout_ms = 120000.0;  ///< Per-shard response timeout.
  double health_timeout_ms = 2000.0;   ///< health_check() ping timeout.
  int max_retries = 1;          ///< Re-dispatch rounds before fallback.
  /// Stitch fanout of the shared sharded core; keep the default for
  /// bit-identity with `--planner sharded` (which uses the same value).
  std::size_t stitch_fanout = kDefaultStitchFanout;
  /// Registry planner each worker runs per leaf shard — "heuristic" is
  /// what the local sharded backend uses.
  std::string leaf_planner = "heuristic";
};

/// Partitions requests, dispatches shards to workers, stitches results
/// (see the file comment). One coordinator serves one caller at a time.
class Coordinator {
 public:
  /// Spawns `config.workers` workers from `transport`, which must
  /// outlive the coordinator.
  explicit Coordinator(Transport& transport, CoordinatorConfig config = {});

  /// Adopts pre-spawned workers (fault-injection tests).
  Coordinator(std::vector<std::unique_ptr<Worker>> workers,
              CoordinatorConfig config = {});

  /// Borrows a long-lived fleet instead of building one, so the workers
  /// stay warm across coordinators and requests; the pool serialises
  /// concurrent coordinators. Plans with the default CoordinatorConfig
  /// (stitch fanout and leaf planner); `pool` must outlive the
  /// coordinator.
  explicit Coordinator(WorkerPool& pool);

  /// Plans `request` bit-identically with the registry's "sharded"
  /// planner, streaming shard responses into the stitch
  /// (plan_sharded_streamed) as workers answer. Honours demand, shards,
  /// excluded, verbose_trace, deadline and cancellation exactly like any
  /// registry planner; throws adept::Error on invalid requests or
  /// genuine planning failures.
  PlanResult plan(const PlanRequest& request);

  /// The fleet, owned or borrowed (phase/health introspection).
  WorkerPool& pool() { return *pool_; }

 private:
  CoordinatorConfig config_;
  std::optional<WorkerPool> owned_pool_;  ///< Empty when borrowing.
  WorkerPool* pool_;                      ///< The fleet plan() dispatches to.
};

/// Factory for the registry entry ("distributed", demand- and
/// shard-aware): a coordinator borrowing one process-wide warm pool
/// (in-process transport, hardware-sized, respawning), so repeated
/// plan() calls reuse the same workers. Registered by
/// PlannerRegistry::instance() like the other built-ins; `adept plan
/// --workers N` / `--connect` builds its own respawning pool of real
/// serve workers around the same Coordinator instead.
std::unique_ptr<IPlanner> make_distributed_planner();

}  // namespace adept::dist
