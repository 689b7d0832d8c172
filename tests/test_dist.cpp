/// \file test_dist.cpp
/// \brief The distributed planning tier: bit-identity with the local
/// sharded planner (in-process fleets, real serve subprocesses, any
/// worker count, recursive stitching), and fault injection — crashed,
/// hung, and garbage-spewing workers must cost retries and fallbacks,
/// never the request or a single bit of the result.
///
/// Pipe-based tests spawn real subprocesses: shell one-liners rig the
/// faults, and ADEPT_CLI_BINARY (a compile definition pointing at the
/// built `adept` binary) provides genuine serve workers. The platform,
/// request, fault-command and identity helpers live in
/// tests/dist_test_util.hpp, shared with the socket suite.

#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dist/stats.hpp"
#include "dist/transport.hpp"
#include "dist/worker_pool.hpp"
#include "dist_test_util.hpp"
#include "io/wire.hpp"
#include "planner/planner.hpp"
#include "planner/planning_service.hpp"
#include "planner/shard_cache.hpp"
#include "planner/sharded.hpp"
#include "planning_test_util.hpp"
#include "platform/partition.hpp"

namespace adept {
namespace {

using test_util::run_planner;
using namespace dist;
using namespace dist_test;

// ------------------------------------------------------- bit-identity --

TEST(Dist, InProcessFleetMatchesShardedForAnyWorkerCount) {
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  for (const std::size_t workers : {1u, 2u, 5u}) {
    InProcessTransport transport;
    CoordinatorConfig config;
    config.workers = workers;
    Coordinator coordinator(transport, config);
    const PlanResult distributed = coordinator.plan(make_request(platform));
    expect_identical(distributed, sharded,
                     std::to_string(workers) + " workers");
  }
}

TEST(Dist, RegistryEntryMatchesShardedAndStaysOutOfPortfolios) {
  const Platform platform = multi_cluster(120, 7);
  expect_identical(run_planner("distributed", platform, dgemm_service(310)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "registry dispatch");
  const IPlanner& planner = PlannerRegistry::instance().at("distributed");
  EXPECT_TRUE(planner.info().caps.shard_aware);
  for (const IPlanner* member :
       PlannerRegistry::instance().applicable(make_request(platform)))
    EXPECT_NE(member->info().name, "distributed");
}

TEST(Dist, RealServeSubprocessesMatchSharded) {
  const Platform platform = multi_cluster(160);
  PipeTransport transport(serve_command());
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  const PlanResult distributed = coordinator.plan(make_request(platform));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310)),
                   "pipe fleet of real serve workers");
}

TEST(Dist, ExplicitShardCountAndDemandTravelToWorkers) {
  const Platform platform = multi_cluster(140, 3);
  PlanOptions options;
  options.shards = 5;
  options.demand = 40.0;
  InProcessTransport transport;
  Coordinator coordinator(transport);
  const PlanResult distributed =
      coordinator.plan(make_request(platform, options));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310),
                               options),
                   "shards=5 demand=40");
}

TEST(Dist, RecursiveStitchMatchesTheLocalCoreAtTheSameFanout) {
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 9;
  // Local reference: the shared core at fanout 3 with the serial leaf
  // path the in-process worker also runs.
  const plat::Partition partition = plat::partition_platform(platform, 9);
  const auto leaves_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves) {
        std::vector<PlanResult> plans;
        for (const std::vector<NodeId>& ids : leaves) {
          const Platform sub = platform.subset(ids);
          PlanResult plan = plan_heterogeneous(sub, kParams,
                                               dgemm_service(310),
                                               options.demand, nullptr,
                                               &options);
          leaf_to_platform_ids(plan, ids);
          plans.push_back(std::move(plan));
        }
        return plans;
      };
  const PlanResult local =
      plan_sharded_with(platform, kParams, dgemm_service(310), options,
                        partition, 3, leaves_fn);
  // 9 shards over fanout 3 forces at least one recursive stitch level.
  bool recursed = false;
  for (const std::string& line : local.trace)
    recursed = recursed || line.find("stitch level") != std::string::npos;
  EXPECT_TRUE(recursed) << "expected a recursive stitch in the trace";

  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 3;
  config.stitch_fanout = 3;
  Coordinator coordinator(transport, config);
  const PlanResult distributed =
      coordinator.plan(make_request(platform, options));
  expect_identical(distributed, local, "recursive stitch, fanout 3");
  EXPECT_TRUE(distributed.hierarchy.validate().empty());
}

// ----------------------------------------------------- streaming stitch --

/// Serial reference leaf plans in platform ids, one per shard — the
/// exact computation the local sharded core's leaf path runs.
std::vector<PlanResult> serial_leaf_plans(
    const Platform& platform, const PlanOptions& options,
    const std::vector<std::vector<NodeId>>& leaves) {
  std::vector<PlanResult> plans;
  plans.reserve(leaves.size());
  for (const std::vector<NodeId>& ids : leaves) {
    const Platform sub = platform.subset(ids);
    PlanResult plan = plan_heterogeneous(sub, kParams, dgemm_service(310),
                                         options.demand, nullptr, &options);
    leaf_to_platform_ids(plan, ids);
    plans.push_back(std::move(plan));
  }
  return plans;
}

TEST(Dist, StreamedArrivalOrderCannotChangeTheResult) {
  // Determinism rule #7, streaming extension: the stitch folds shard
  // plans in whatever order they arrive, and the result — hierarchy,
  // report, trace — must be bit-identical to the batch path for every
  // ordering. 9 shards over fanout 3 force recursive stitch levels, so
  // out-of-order arrival exercises group completion mid-stream.
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 9;
  const plat::Partition partition = plat::partition_platform(platform, 9);
  const auto batch_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves) {
        return serial_leaf_plans(platform, options, leaves);
      };
  const PlanResult batch =
      plan_sharded_with(platform, kParams, dgemm_service(310), options,
                        partition, 3, batch_fn);

  for (int mode = 0; mode < 3; ++mode) {
    const auto stream_fn =
        [&platform, &options, mode](
            const std::vector<std::vector<NodeId>>& leaves,
            const ShardResultSink& ready) {
          std::vector<PlanResult> plans =
              serial_leaf_plans(platform, options, leaves);
          std::vector<std::size_t> order(plans.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          if (mode == 0) {
            std::reverse(order.begin(), order.end());
          } else if (mode == 1) {
            std::rotate(order.begin(), order.begin() + order.size() / 2,
                        order.end());
          } else {
            std::mt19937 rng(20080615);
            std::shuffle(order.begin(), order.end(), rng);
          }
          for (const std::size_t i : order) ready(i, std::move(plans[i]));
        };
    const PlanResult streamed =
        plan_sharded_streamed(platform, kParams, dgemm_service(310), options,
                              partition, 3, stream_fn);
    expect_identical(streamed, batch, "arrival order " + std::to_string(mode));
  }
}

TEST(Dist, StreamedConcurrentDeliveryIsBitIdentical) {
  // Every shard delivered from its own racing thread: the engine's
  // internal synchronisation must serialize group completion without
  // letting the schedule leak into the result.
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 9;
  const plat::Partition partition = plat::partition_platform(platform, 9);
  const auto batch_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves) {
        return serial_leaf_plans(platform, options, leaves);
      };
  const PlanResult batch =
      plan_sharded_with(platform, kParams, dgemm_service(310), options,
                        partition, 3, batch_fn);
  const auto stream_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves,
                            const ShardResultSink& ready) {
        std::vector<PlanResult> plans =
            serial_leaf_plans(platform, options, leaves);
        std::vector<std::thread> threads;
        threads.reserve(plans.size());
        for (std::size_t s = 0; s < plans.size(); ++s)
          threads.emplace_back(
              [&ready, &plans, s] { ready(s, std::move(plans[s])); });
        for (std::thread& thread : threads) thread.join();
      };
  for (int round = 0; round < 3; ++round)
    expect_identical(
        plan_sharded_streamed(platform, kParams, dgemm_service(310), options,
                              partition, 3, stream_fn),
        batch, "concurrent delivery round " + std::to_string(round));
}

TEST(Dist, StreamedMissingOrDuplicateDeliveryIsAnError) {
  const Platform platform = multi_cluster(120, 5);
  PlanOptions options;
  options.shards = 4;
  const plat::Partition partition = plat::partition_platform(platform, 4);
  // A leaf planner that never delivers: the stitch must refuse to
  // finalize rather than stitch a hole.
  EXPECT_THROW(
      plan_sharded_streamed(platform, kParams, dgemm_service(310), options,
                            partition, kDefaultStitchFanout,
                            [](const std::vector<std::vector<NodeId>>&,
                               const ShardResultSink&) {}),
      Error);
  // Delivering the same shard twice is a contract violation, not a
  // silent overwrite.
  EXPECT_THROW(
      plan_sharded_streamed(
          platform, kParams, dgemm_service(310), options, partition,
          kDefaultStitchFanout,
          [&platform, &options](const std::vector<std::vector<NodeId>>& leaves,
                                const ShardResultSink& ready) {
            std::vector<PlanResult> plans =
                serial_leaf_plans(platform, options, leaves);
            ready(0, plans[0]);
            ready(0, plans[0]);
          }),
      Error);
}

TEST(Dist, CoordinatorStreamsIntoTheStitchAndMatchesSharded) {
  // The coordinator's only path streams shard responses into the stitch
  // as workers answer: same plan bit for bit as the local sharded
  // planner, and deliveries do reach the stitch off the drain threads.
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  reset_stats_for_test();
  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)), sharded,
                   "streaming coordinator");
  EXPECT_GT(stats_snapshot().streamed, 0u);
}

// ---------------------------------------------------- one run policy --

/// `run` as wire JSON with its timing-dependent fields zeroed.
std::string stable_run(const PlannerRun& run) {
  json::Value value = wire::to_json(run);
  value.set("wall_ms", 0);
  value.set("evaluations", 0);
  return value.dump();
}

/// The in-process worker's answer to `request` planned by `planner`.
PlannerRun in_process_answer(const PlanRequest& request,
                             const std::string& planner) {
  InProcessTransport transport;
  const std::unique_ptr<Worker> worker = transport.spawn();
  json::Value line = wire::to_json(request);
  line.set("planner", planner);
  EXPECT_TRUE(worker->send(line.dump()));
  std::string answer;
  EXPECT_TRUE(worker->receive(answer, 1000.0));
  return wire::planner_run_from_json(json::parse(answer).at("run"));
}

/// A coordinator whose only worker is dead, so every leaf is planned by
/// `leaf_planner` through the local fallback; its run is named `name`.
PlannerRun fallback_coordinator_run(const PlanRequest& request,
                                    const std::string& name,
                                    const std::string& leaf_planner) {
  InProcessTransport transport;
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(transport.spawn());
  workers.front()->kill();
  CoordinatorConfig config;
  config.leaf_planner = leaf_planner;
  Coordinator coordinator(std::move(workers), config);
  return adept::run_planner(name, request.options,
                            [&] { return coordinator.plan(request); });
}

TEST(Dist, EveryCallerReportsARunAsThePlanningServiceDoes) {
  // One run policy: the in-process worker's answer and a coordinator
  // planning every leaf through its fallback report ok, skipped, error
  // and result exactly as PlanningService::run does, on plans and on
  // failures alike. A coordinator plans as `sharded` does with its leaf
  // planner per shard, so an unknown leaf planner must fail with the
  // unknown planner's own error.
  const Platform platform = multi_cluster(120);
  const Platform solo({NodeSpec{"solo", 1000.0}}, 1000.0);
  const PlanRequest plannable = make_request(platform);
  const PlanRequest lone_node = make_request(solo);
  struct Case {
    const char* what;
    const PlanRequest* request;
    std::string planner;
    std::string leaf;  ///< Coordinator leaf planner; empty: not comparable.
  };
  const std::vector<Case> cases = {
      {"heuristic plan", &plannable, "heuristic", ""},
      {"sharded plan", &plannable, "sharded", "heuristic"},
      {"unknown planner", &plannable, "no-such-planner", "no-such-planner"},
      {"invalid platform", &lone_node, "sharded", "heuristic"}};
  PlanningService service(2);
  for (const Case& c : cases) {
    const PlannerRun reference = service.run(*c.request, c.planner);
    EXPECT_EQ(reference.ok, c.request == &plannable &&
                                c.planner != "no-such-planner")
        << c.what;
    EXPECT_EQ(stable_run(in_process_answer(*c.request, c.planner)),
              stable_run(reference))
        << c.what;
    if (!c.leaf.empty())
      EXPECT_EQ(stable_run(fallback_coordinator_run(*c.request, c.planner,
                                                    c.leaf)),
                stable_run(reference))
          << c.what;
  }
}

// ----------------------------------------------------- fault injection --

TEST(Dist, CrashingFleetFallsBackInProcessBitIdentically) {
  const Platform platform = multi_cluster(160);
  reset_stats_for_test();
  PipeTransport transport(shell("read -r line; exit 1"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  const PlanResult distributed = coordinator.plan(make_request(platform));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310)),
                   "every worker crashed mid-request");
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.worker_failures, 2u);
  EXPECT_GT(stats.fallbacks, 0u);
  for (std::size_t i = 0; i < coordinator.pool().size(); ++i)
    EXPECT_EQ(coordinator.pool().phase(i), WorkerPhase::Failed);
}

TEST(Dist, GarbageResponsesFailTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(shell("while read -r line; do echo not-json; done"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "garbage on the wire");
}

TEST(Dist, TruncatedJsonFailsTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(
      shell(R"(read -r line; printf '%s\n' '{"id":0,"ok":tr'; exit 0)"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "truncated response line");
}

TEST(Dist, HangingWorkersTimeOutAndTheRequestStillSucceeds) {
  const Platform platform = multi_cluster(120, 5);
  reset_stats_for_test();
  PipeTransport transport(shell("sleep 30"));
  CoordinatorConfig config;
  config.workers = 2;
  config.shard_timeout_ms = 150.0;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "hung workers under a 150 ms shard timeout");
  EXPECT_EQ(stats_snapshot().worker_failures, 2u);
}

TEST(Dist, ExecFailureBehavesLikeWorkerLossNotAnError) {
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport({"/nonexistent/adept-no-such-binary"});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "worker binary missing");
}

TEST(Dist, MixedFleetRedispatchesToTheSurvivingWorker) {
  const Platform platform = multi_cluster(160);
  reset_stats_for_test();
  PipeTransport healthy(serve_command());
  PipeTransport rigged(shell("read -r line; exit 1"));
  std::vector<std::unique_ptr<Worker>> fleet;
  fleet.push_back(healthy.spawn());
  fleet.push_back(rigged.spawn());
  Coordinator coordinator(std::move(fleet));
  const PlanResult distributed = coordinator.plan(make_request(platform));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310)),
                   "one worker killed mid-run");
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.worker_failures, 1u);
  EXPECT_GT(stats.retried, 0u);
  // The rigged worker's shards were answered by the survivor, not the
  // in-process fallback.
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(coordinator.pool().phase(0), WorkerPhase::Idle);
  EXPECT_EQ(coordinator.pool().phase(1), WorkerPhase::Failed);
  EXPECT_EQ(coordinator.pool().healthy_count(), 1u);
}

// ------------------------------------------------ pool-level behaviour --

TEST(Dist, HealthCheckFailsUnresponsiveWorkers) {
  PipeTransport healthy(serve_command());
  PipeTransport rigged(shell("read -r line; exit 1"));
  std::vector<std::unique_ptr<Worker>> fleet;
  fleet.push_back(healthy.spawn());
  fleet.push_back(rigged.spawn());
  WorkerPoolConfig config;
  config.shard_timeout_ms = 5000.0;
  WorkerPool pool(std::move(fleet), config);
  EXPECT_FALSE(pool.health_check());
  EXPECT_EQ(pool.healthy_count(), 1u);
  EXPECT_EQ(pool.phase(0), WorkerPhase::Idle);
  EXPECT_EQ(pool.phase(1), WorkerPhase::Failed);
}

TEST(Dist, HealthyFleetPassesTheHealthCheck) {
  InProcessTransport transport;
  WorkerPool pool(transport, 2);
  EXPECT_TRUE(pool.health_check());
  EXPECT_EQ(pool.healthy_count(), 2u);
}

TEST(Dist, PhaseNamesCoverTheStateMachine) {
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Idle), "idle");
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Dispatched), "dispatched");
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Responded), "responded");
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Failed), "failed");
}

TEST(Dist, CleanRunLeavesWorkersIdleAndCountsNoFaults) {
  const Platform platform = multi_cluster(120, 9);
  reset_stats_for_test();
  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  const PlanResult result = coordinator.plan(make_request(platform));
  EXPECT_TRUE(result.hierarchy.validate().empty());
  for (std::size_t i = 0; i < coordinator.pool().size(); ++i)
    EXPECT_EQ(coordinator.pool().phase(i), WorkerPhase::Idle);
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.plans, 1u);
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_GT(stats.dispatched, 0u);
  EXPECT_EQ(stats.dispatched, stats.responded);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_EQ(stats.retried, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

// ------------------------------------------------ supervision / respawn --

TEST(Dist, CrashStormWithRespawnNeverFallsBack) {
  // Every worker answers exactly one shard and dies, every round — the
  // respawning pool refills the fleet between rounds, so the whole request is
  // still answered by (a parade of) real workers, never the fallback.
  const Platform platform = multi_cluster(120, 5);
  reset_stats_for_test();
  PipeTransport transport(answer_one_then_die());
  WorkerPoolConfig config;
  config.respawn = true;
  config.respawn_backoff_ms = 0.0;
  config.max_retries = 32;
  WorkerPool fleet(transport, 2, config);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  for (int round = 0; round < 2; ++round) {
    Coordinator coordinator(fleet);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "crash storm, plan " + std::to_string(round));
  }
  const DistStats stats = stats_snapshot();
  EXPECT_GT(stats.workers_respawned, 0u);
  EXPECT_GT(stats.worker_failures, 0u);
  EXPECT_GT(stats.retried, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(Dist, StormFallsBackBitIdenticallyThenFleetRecovers) {
  const Platform platform = multi_cluster(120, 5);
  const std::string sentinel = sentinel_path("storm");
  touch(sentinel);
  reset_stats_for_test();
  PipeTransport transport(storm_gated_worker(sentinel));
  WorkerPoolConfig config;
  config.respawn = true;
  config.respawn_backoff_ms = 0.0;
  config.max_retries = 1;
  WorkerPool fleet(transport, 2, config);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  {
    // Storm: every worker (and every respawn) dies on first contact, so
    // the request is answered by the in-process fallback — bit-identical.
    Coordinator coordinator(fleet);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "full storm, fallback");
  }
  const DistStats storm = stats_snapshot();
  EXPECT_GT(storm.workers_respawned, 0u);
  EXPECT_GT(storm.fallbacks, 0u);
  // Storm over: the next supervision pass respawns genuine workers and
  // the next plan runs on them without a single new fault.
  std::filesystem::remove(sentinel);
  fleet.respawn_due();
  EXPECT_TRUE(fleet.health_check());
  EXPECT_EQ(fleet.healthy_count(), 2u);
  {
    Coordinator coordinator(fleet);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "recovered fleet");
  }
  const DistStats recovered = stats_snapshot();
  EXPECT_EQ(recovered.worker_failures, storm.worker_failures);
  EXPECT_EQ(recovered.fallbacks, storm.fallbacks);
  EXPECT_GT(recovered.responded, storm.responded);
}

TEST(Dist, ConcurrentPlansUnderHeartbeatStayDeterministic) {
  // Two coordinators share one respawning pool and race each other and
  // a supervision thread (respawn_due + health_check in a loop) while
  // every worker keeps dying; the pool's mutex serializes them, so both
  // plans still match the local sharded planner.
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(answer_one_then_die());
  WorkerPoolConfig config;
  config.respawn = true;
  config.respawn_backoff_ms = 0.0;
  config.max_retries = 32;
  WorkerPool fleet(transport, 2, config);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  std::atomic<bool> planning{true};
  std::thread supervisor([&fleet, &planning] {
    while (planning.load()) {
      fleet.respawn_due();
      fleet.health_check();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<PlanResult> results(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t)
    threads.emplace_back([&fleet, &platform, &results, t] {
      Coordinator coordinator(fleet);
      results[t] = coordinator.plan(make_request(platform));
    });
  for (std::thread& thread : threads) thread.join();
  planning.store(false);
  supervisor.join();
  for (std::size_t t = 0; t < results.size(); ++t)
    expect_identical(results[t], sharded,
                     "concurrent plan " + std::to_string(t));
}

TEST(Dist, HealthCheckUsesTheShortHealthTimeout) {
  // A hung worker must fail a heartbeat in health_timeout_ms, not in the
  // two-minute shard timeout the pool grants real planning work.
  PipeTransport transport(shell("sleep 30"));
  std::vector<std::unique_ptr<Worker>> fleet;
  fleet.push_back(transport.spawn());
  WorkerPoolConfig config;
  config.health_timeout_ms = 100.0;
  WorkerPool pool(std::move(fleet), config);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(pool.health_check());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 5000.0);
  EXPECT_EQ(pool.healthy_count(), 0u);
}

// ----------------------------------------------- deadline-aware retries --

TEST(Dist, HungWorkerCannotOutliveTheCallersDeadline) {
  // Default shard timeout is two minutes; the caller's deadline is
  // 400 ms. The dispatch round must clip its receive timeout to the
  // remaining budget and surface the same deadline error the local
  // sharded planner would — not sit on the pipe for 120 s.
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(shell("sleep 30"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  PlanOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(coordinator.plan(make_request(platform, std::move(options))),
               Error);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 20000.0);
}

TEST(Dist, DribblingWriterCannotRestartTheReceiveTimeout) {
  // A worker that emits one byte every 50 ms never completes a line; the
  // receive deadline is absolute, so partial reads must not extend it.
  PipeTransport transport(
      shell("while true; do printf x; sleep 0.05; done"));
  std::unique_ptr<Worker> worker = transport.spawn();
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(worker->receive(line, 300.0));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 250.0);
  EXPECT_LT(elapsed_ms, 10000.0);
}

TEST(Dist, FramedReceiveReassemblesAMultiMebibyteLine) {
  // A 4 MiB line dribbled through a pipe in 1000-byte writes, then a
  // short line and the first bytes of a third: the receive loop returns
  // both lines byte-exact and leaves the unterminated tail in the buffer.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::mt19937 rng(29);
  std::uniform_int_distribution<int> printable(0x20, 0x7e);
  std::string big(std::size_t{4} << 20, ' ');
  for (char& c : big) c = static_cast<char>(printable(rng));
  const std::string tail = "{\"id\":";
  const std::string stream = big + '\n' + "short" + '\n' + tail;
  std::thread writer([&stream, fd = fds[1]] {
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t size = std::min<std::size_t>(1000, stream.size() - at);
      const ssize_t n = ::write(fd, stream.data() + at, size);
      if (n <= 0) break;
      at += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  std::string buffer;
  std::string line;
  bool alive = true;
  EXPECT_TRUE(receive_framed_line(fds[0], buffer, line, 60000.0, alive));
  EXPECT_EQ(line.size(), big.size());
  EXPECT_TRUE(line == big);
  EXPECT_TRUE(receive_framed_line(fds[0], buffer, line, 60000.0, alive));
  EXPECT_EQ(line, "short");
  // The writer closes after the tail: EOF ends the receive with the
  // unterminated bytes still buffered for the caller.
  EXPECT_FALSE(receive_framed_line(fds[0], buffer, line, 60000.0, alive));
  EXPECT_FALSE(alive);
  EXPECT_EQ(buffer, tail);
  writer.join();
  ::close(fds[0]);
}

TEST(Dist, SharedFleetStaysWarmAcrossRegistryPlans) {
  const Platform platform = multi_cluster(120, 9);
  // First plan warms the process-wide fleet (spawning it if this test
  // runs first); afterwards plans must reuse the same workers.
  run_planner("distributed", platform, dgemm_service(310));
  const DistStats warm = stats_snapshot();
  run_planner("distributed", platform, dgemm_service(310));
  const DistStats after = stats_snapshot();
  EXPECT_EQ(after.workers_spawned, warm.workers_spawned);
  EXPECT_EQ(after.plans, warm.plans + 1u);
  EXPECT_GT(after.responded, warm.responded);
}

// ----------------------------------------------------------- shard cache --

TEST(Dist, ShardCacheHitsSkipDispatchBitIdentically) {
  // A warm shard cache answers every leaf before the wire: the second
  // plan dispatches nothing, and both results match the local sharded
  // planner byte for byte.
  reset_stats_for_test();
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));

  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  const PlanResult cold = coordinator.plan(make_request(platform, options));
  const std::uint64_t dispatched = stats_snapshot().dispatched;
  EXPECT_GT(dispatched, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const PlanResult warm = coordinator.plan(make_request(platform, options));
  EXPECT_EQ(stats_snapshot().dispatched, dispatched);
  EXPECT_EQ(cache.stats().hits, cache.stats().misses);

  expect_identical(cold, sharded, "cold vs sharded");
  expect_identical(warm, sharded, "warm vs sharded");
}

/// Answers every planning line `ok` with a two-node hierarchy whose
/// server names node 1000000 — outside any shard's sub-platform.
class OutOfShardWorker final : public Worker {
 public:
  bool send(const std::string& line) override {
    if (!alive_) return false;
    ids_.push_back(json::parse(line).at("id"));
    return true;
  }
  bool receive(std::string& line, double) override {
    if (!alive_ || ids_.empty()) return false;
    PlannerRun run;
    run.planner = "heuristic";
    run.ok = true;
    run.result.hierarchy.add_server(run.result.hierarchy.add_root(0),
                                    1000000);
    json::Value answer = json::Value::object();
    answer.set("id", ids_.front());
    answer.set("ok", true);
    answer.set("run", wire::to_json(run));
    ids_.pop_front();
    line = answer.dump();
    return true;
  }
  bool alive() const override { return alive_; }
  void kill() override { alive_ = false; }

 private:
  std::deque<json::Value> ids_;
  bool alive_ = true;
};

TEST(Dist, OutOfShardResponseFailsTheWorkerAndNeverEntersTheCache) {
  // A worker hierarchy naming a node outside its shard is a malformed
  // response: it fails the worker, its shards fall back in-process, and
  // nothing it said reaches the shard cache.
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  reset_stats_for_test();
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<OutOfShardWorker>());
  Coordinator coordinator(std::move(workers), CoordinatorConfig{});
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  expect_identical(coordinator.plan(make_request(platform, options)), sharded,
                   "out-of-shard response");
  EXPECT_EQ(stats_snapshot().worker_failures, 1u);

  // Every stored entry is the fallback's plan in its shard's local ids.
  const ShardPlanCache::Stats cold = cache.stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.misses, 0u);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  EXPECT_EQ(cold.misses, partition.size());
  for (const std::vector<NodeId>& ids : partition.shards) {
    const Platform sub = platform.subset(ids);
    const std::optional<PlanResult> stored = cache.lookup(ShardPlanCache::key(
        sub, kParams, dgemm_service(310), options, kShardLeafPlanner));
    ASSERT_TRUE(stored.has_value());
    expect_identical(*stored,
                     plan_heterogeneous(sub, kParams, dgemm_service(310),
                                        options.demand, nullptr, &options),
                     "stored shard plan");
  }

  // A second plan on the same cache is all hits and gives the same result.
  const ShardPlanCache::Stats probed = cache.stats();
  expect_identical(coordinator.plan(make_request(platform, options)), sharded,
                   "warm cache after the bad worker");
  EXPECT_EQ(cache.stats().hits - probed.hits, cold.misses);
  EXPECT_EQ(cache.stats().misses, probed.misses);
}

TEST(Dist, LocalShardedPlanWarmsTheCoordinatorsCache) {
  // The local leaf path and the coordinator (default leaf planner
  // "heuristic") key shard problems identically: a plan_sharded() run
  // fills the cache, and a distributed plan then dispatches zero shards.
  reset_stats_for_test();
  const Platform platform = multi_cluster(160);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const PlanResult local = plan_sharded(platform, kParams, dgemm_service(310),
                                        options, partition);

  InProcessTransport transport;
  Coordinator coordinator(transport);
  const PlanResult distributed =
      coordinator.plan(make_request(platform, options));
  EXPECT_EQ(stats_snapshot().dispatched, 0u);
  expect_identical(distributed, local, "warmed distributed vs local");
}

}  // namespace
}  // namespace adept
