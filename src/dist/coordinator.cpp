/// \file coordinator.cpp
/// \brief Coordinator: partition → dispatch → shared stitch core.

#include "dist/coordinator.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "dist/stats.hpp"
#include "planner/planning_service.hpp"
#include "platform/partition.hpp"

namespace adept::dist {

namespace {

WorkerPoolConfig pool_config(const CoordinatorConfig& config) {
  WorkerPoolConfig out;
  out.shard_timeout_ms = config.shard_timeout_ms;
  out.health_timeout_ms = config.health_timeout_ms;
  out.max_retries = config.max_retries;
  return out;
}

}  // namespace

Coordinator::Coordinator(Transport& transport, CoordinatorConfig config)
    : config_(std::move(config)),
      owned_pool_(std::in_place, transport, config_.workers,
                  pool_config(config_)),
      pool_(&*owned_pool_) {}

Coordinator::Coordinator(std::vector<std::unique_ptr<Worker>> workers,
                         CoordinatorConfig config)
    : config_(std::move(config)),
      owned_pool_(std::in_place, std::move(workers), pool_config(config_)),
      pool_(&*owned_pool_) {}

Coordinator::Coordinator(WorkerPool& pool) : pool_(&pool) {}

PlanResult Coordinator::plan(const PlanRequest& request) {
  ++detail::counters().plans;
  return adept::detail::plan_excluding(
      request, [this](const Platform& platform, const PlanRequest& r) {
        PlanOptions options = r.options;
        options.excluded.clear();  // applied by plan_excluding already
        const plat::Partition partition =
            plat::partition_platform(platform, options.shards);
        // The shared shard-leaf path probes the shard cache and hands
        // only the misses to the fleet.
        auto plan_misses = [this](const std::vector<ShardLeafMiss>& misses,
                                  const ShardMissSink& deliver) {
          std::vector<ShardJob> jobs;
          jobs.reserve(misses.size());
          for (const ShardLeafMiss& miss : misses)
            jobs.push_back({miss.request, config_.leaf_planner});
          // The in-process fallback: same registry planner, same (serial)
          // path a worker would run — so fallback plans are bit-identical
          // to dispatched ones and a worker loss is invisible in the
          // result.
          auto local_fallback = [](const ShardJob& job) {
            return run_planner(job.planner, job.request.options, [&job] {
              return PlannerRegistry::instance().at(job.planner).plan(
                  job.request);
            });
          };
          // `dist.streamed` counts only the deliveries that overlapped the
          // batch — the ones arriving on a drain thread (fallback results
          // come back on the calling thread after the dispatch rounds).
          const std::thread::id caller = std::this_thread::get_id();
          pool_->run(jobs, local_fallback,
                     [&](std::size_t k, PlannerRun&& run) {
                       const std::size_t s = misses[k].shard;
                       // A run that is still not ok went through the local
                       // fallback, so this is a genuine planning error (or
                       // a cancelled/late request) — exactly what the local
                       // sharded planner would have thrown.
                       ADEPT_CHECK(run.ok,
                                   run.error.empty()
                                       ? "shard " + std::to_string(s) +
                                             " failed"
                                       : run.error);
                       deliver(s, std::move(run.result));
                       if (std::this_thread::get_id() != caller)
                         ++detail::counters().streamed;
                     });
        };
        return plan_sharded_streamed(
            platform, r.params, r.service, options, partition,
            config_.stitch_fanout,
            shard_leaf_stream(platform, r.params, r.service, options,
                              config_.leaf_planner, plan_misses));
      });
}

namespace {

/// The process-wide warm fleet behind the `distributed` registry
/// planner: in-process transport, hardware-sized, respawning, built on
/// first use and reused by every later plan() — so the service and
/// portfolios stop paying fleet construction per request.
WorkerPool& shared_fleet() {
  // Declaration order pins destruction order: the transport outlives the
  // fleet it spawns workers from.
  static InProcessTransport transport;
  static WorkerPool fleet(
      transport,
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8),
      [] {
        WorkerPoolConfig config;
        config.respawn = true;
        return config;
      }());
  return fleet;
}

/// The eighth registry planner: a coordinator borrowing shared_fleet() —
/// repeated plan() calls reuse the same warm workers instead of building
/// a fleet each time.
/// shard_aware keeps it out of portfolios, like "sharded" (it can only
/// tie the monolithic heuristic on quality).
class DistributedPlanner final : public IPlanner {
 public:
  DistributedPlanner()
      : info_{"distributed",
              "coordinator dispatching shards to a supervised warm "
              "worker fleet (in-process here; `adept plan --workers N` "
              "spawns serve subprocesses); bit-identical to sharded",
              {.demand_aware = true, .shard_aware = true}} {}

  const PlannerInfo& info() const final { return info_; }

  PlanResult plan(const PlanRequest& request) const final {
    Coordinator coordinator(shared_fleet());
    return coordinator.plan(request);
  }

 private:
  PlannerInfo info_;
};

}  // namespace

std::unique_ptr<IPlanner> make_distributed_planner() {
  return std::make_unique<DistributedPlanner>();
}

}  // namespace adept::dist
