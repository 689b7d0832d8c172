/// \file bench_dist.cpp
/// \brief Distributed planning tier vs the local sharded backend.
///
/// One multi-cluster platform, three series:
///   - sharded-local — the registry `sharded` planner with the local
///     thread pool (the tier's bit-identity reference);
///   - dist-inproc   — a Coordinator over the in-process transport (the
///     fallback tier: full wire round-trip, no subprocesses);
///   - dist-pipe     — a Coordinator over real `adept serve` subprocess
///     workers speaking JSON-lines over pipes;
///   - dist-socket   — a Coordinator over TCP sessions to one warm
///     `adept serve --listen` process (dist::ServeListener spawns it and
///     scrapes the announced ephemeral port).
///
/// Two sections measure the streamed stitch:
///   - dist-stream-ab   — end-to-end: the socket coordinator streaming
///     shard responses into the stitch as workers answer, best of 5
///     over 96 shards at stitch fanout 2 so recursive stitch levels
///     overlap leaf planning (the coordinator has no other mode; the
///     series keeps its name so the committed trajectory stays
///     comparable);
///   - dist-stream-tail — isolated: precomputed leaf plans delivered by
///     paced threads, measuring the *tail* — time from the last shard's
///     arrival to the final plan — of plan_sharded_streamed against the
///     batch core plan_sharded_with. Streaming has already folded every
///     earlier group when the last shard lands, so its tail is just the
///     stitch spine; batch pays the whole stitch there. The tail ratio
///     is the feature's latency win, free of socket/scheduler noise.
///
/// Reported per series: wall clock, predicted throughput, dispatch
/// overhead vs the local sharded run. Asserted (exit 1 on violation):
///   - all distributed series are bit-identical to sharded-local
///     (hierarchy, report and trace — ISSUE-6's acceptance contract);
///   - the healthy pipe and socket fleets answer every dispatched shard
///     themselves: no worker failures, fallbacks, or refused connects;
///   - the streamed socket coordinator is bit-identical to the
///     dist-stream-tail plan over the same 96-shard partition;
///   - the streamed stitch tail is >= 2x shorter than the batch tail
///     (tail_speedup, typically ~10x; gated in CI via bench_gate).
///
/// A chaos section then drives a *respawning* pipe fleet through a
/// kill-rate sweep (ISSUE-7's acceptance contract):
///   - dist-chaos-flap    — every worker answers one shard and dies; the
///     pool respawns between rounds, so the request is still
///     answered by workers (0 fallbacks) and stays bit-identical;
///   - dist-chaos-storm   — every worker (and every respawn) dies before
///     answering; the fallback answers bit-identically;
///   - dist-chaos-recovered — the storm ends, a supervision pass
///     (respawn_due + health_check) refills the fleet, and throughput
///     must recover to >= 0.9x the clean pipe run (recovered_vs_clean,
///     gated in CI).
/// All three must finish with zero client-visible failures.
///
///   ./bench_dist [--count N] [--workers N] [--seed N]
///                [--binary PATH] [--json BENCH_dist.json]
///
/// `--binary` points at the adept CLI for the pipe fleet; the default is
/// baked in at build time (the sibling `adept` target).

#include "bench_util.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dist/coordinator.hpp"
#include "dist/stats.hpp"
#include "dist/transport.hpp"
#include "planner/planner.hpp"
#include "planner/sharded.hpp"
#include "platform/partition.hpp"

#ifndef ADEPT_CLI_BINARY
#define ADEPT_CLI_BINARY "adept"
#endif

namespace {

using namespace adept;

struct Measured {
  PlanResult plan;
  double wall_ms = 0.0;
};

template <typename Fn>
Measured timed(Fn&& fn) {
  Measured out;
  const auto start = std::chrono::steady_clock::now();
  out.plan = fn();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

bool identical(const PlanResult& a, const PlanResult& b) {
  return a.hierarchy == b.hierarchy &&
         a.report.overall == b.report.overall && a.trace == b.trace;
}

std::vector<std::string> shell(const std::string& script) {
  return {"bash", "-c", script};
}

/// One chaos phase: plan through a borrowed respawning fleet, timing the
/// run and counting client-visible failures (a thrown plan) instead of
/// letting one abort the sweep.
struct ChaosRun {
  Measured measured;
  bool failed = false;
  adept::dist::DistStats delta;  ///< Counter movement during the run.
};

ChaosRun chaos_plan(adept::dist::WorkerPool& fleet,
                    const adept::PlanRequest& request) {
  using adept::dist::stats_snapshot;
  ChaosRun out;
  const adept::dist::DistStats before = stats_snapshot();
  try {
    out.measured = timed([&] {
      adept::dist::Coordinator coordinator(fleet);
      return coordinator.plan(request);
    });
  } catch (const std::exception& e) {
    std::cerr << "chaos plan failed: " << e.what() << '\n';
    out.failed = true;
  }
  const adept::dist::DistStats after = stats_snapshot();
  out.delta.worker_failures = after.worker_failures - before.worker_failures;
  out.delta.fallbacks = after.fallbacks - before.fallbacks;
  out.delta.workers_respawned =
      after.workers_respawned - before.workers_respawned;
  out.delta.retried = after.retried - before.retried;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser(argv[0] ? argv[0] : "bench_dist",
                   "Distributed planning tier vs the local sharded backend.");
  parser.add_option("count", "multi-cluster platform node count", "2000");
  parser.add_option("workers", "fleet size for both distributed series", "4");
  parser.add_option("seed", "RNG seed for the synthetic platform", "20080615");
  parser.add_option("binary", "adept CLI binary for the pipe fleet",
                    ADEPT_CLI_BINARY);
  parser.add_option("json", "output path for the perf-trajectory JSON",
                    "BENCH_dist.json");
  try {
    parser.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n' << parser.usage();
    return 2;
  }
  const auto count = static_cast<std::size_t>(parser.get_int("count"));
  const auto workers = static_cast<std::size_t>(parser.get_int("workers"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  bench::banner("Distributed tier (coordinator + worker fleet) vs sharded");
  Rng rng(seed);
  const Platform platform = gen::grid5000_multi_cluster(count, rng);
  const ServiceSpec service = dgemm_service(310);
  const std::size_t shard_count = plat::partition_platform(platform, 0).size();
  ThreadPool pool;

  PlanOptions options;
  options.pool = &pool;
  const PlanRequest request{platform, bench::params(), service, options};

  const Measured local =
      timed([&] { return bench::run_planner("sharded", platform,
                                            bench::params(), service,
                                            options); });

  dist::CoordinatorConfig config;
  config.workers = workers;

  const Measured inproc = timed([&] {
    dist::InProcessTransport transport;
    dist::Coordinator coordinator(transport, config);
    return coordinator.plan(request);
  });

  const dist::DistStats before = dist::stats_snapshot();
  const Measured pipe = timed([&] {
    std::vector<std::string> argv_serve{parser.get("binary"), "serve",
                                        "--jobs", "1", "--cache", "0"};
    dist::PipeTransport transport(std::move(argv_serve));
    dist::Coordinator coordinator(transport, config);
    return coordinator.plan(request);
  });
  const dist::DistStats after = dist::stats_snapshot();
  const auto faults = (after.worker_failures - before.worker_failures) +
                      (after.fallbacks - before.fallbacks);
  const bool clean_pipe_run = faults == 0;

  // ---- socket fleet: one warm `serve --listen` process over TCP --------
  // The listener process starts (and is timed) outside the plan: the
  // point of the socket transport is that one warm process backs many
  // coordinators, so the measured run is connect + dispatch + stitch.
  dist::ServeListener listener({parser.get("binary"), "serve", "--listen",
                                "127.0.0.1:0", "--jobs",
                                std::to_string(workers), "--cache", "0"});
  const dist::DistStats socket_before = dist::stats_snapshot();
  const Measured socket = timed([&] {
    dist::SocketTransport transport({listener.endpoint()});
    dist::Coordinator coordinator(transport, config);
    return coordinator.plan(request);
  });
  const dist::DistStats socket_after = dist::stats_snapshot();
  const bool clean_socket_run =
      (socket_after.worker_failures - socket_before.worker_failures) +
          (socket_after.fallbacks - socket_before.fallbacks) +
          (socket_after.socket_connect_failures -
           socket_before.socket_connect_failures) ==
      0;

  // ---- streamed socket coordinator over many shards --------------------
  // Small fanout over many shards forces recursive stitch levels — the
  // work streaming overlaps with planning. The fleet must be real
  // subprocess workers: they plan in their own process, so a drain
  // thread stitching a completed group overlaps the shards still being
  // planned (the in-process transport plans *on* the drain thread, which
  // would serialize the two). The sessions reuse the socket listener
  // above — one warm process, many coordinators, which also keeps worker
  // startup out of the measurement. Best-of-5 damps scheduler noise on
  // shared runners.
  dist::CoordinatorConfig ab_config = config;
  ab_config.workers = 4;
  ab_config.stitch_fanout = 2;
  PlanOptions ab_options = options;
  ab_options.shards = 96;
  const PlanRequest ab_request{platform, bench::params(), service, ab_options};
  Measured streamed;
  for (int round = 0; round < 5; ++round) {
    const Measured stream_run = timed([&] {
      dist::SocketTransport transport({listener.endpoint()});
      dist::Coordinator coordinator(transport, ab_config);
      return coordinator.plan(ab_request);
    });
    if (round == 0 || stream_run.wall_ms < streamed.wall_ms)
      streamed = stream_run;
  }

  // ---- streamed stitch tail: latency after the last shard arrives ------
  // An end-to-end comparison is diluted by everything both cores share
  // (leaf planning, the wire, the scheduler). This section isolates what
  // streaming actually changes: by the time the last shard arrives, the
  // streamed stitch has already folded every completed group, so only
  // the spine (the groups the last shard closes) remains; the batch
  // barrier still owes the entire stitch. Leaf plans are precomputed
  // once and re-delivered by paced threads — a deterministic stand-in
  // for workers answering progressively — and the measured quantity is
  // the tail: last delivery to final plan.
  const std::size_t tail_shards = ab_options.shards;
  const std::size_t tail_fanout = ab_config.stitch_fanout;
  const plat::Partition tail_partition =
      plat::partition_platform(platform, tail_shards);
  std::vector<PlanResult> leaf_bank(tail_shards);
  plan_sharded_streamed(
      platform, bench::params(), service, options, tail_partition, tail_fanout,
      [&](const std::vector<std::vector<NodeId>>& leaves,
          const ShardResultSink& ready) {
        for (std::size_t s = 0; s < leaves.size(); ++s) {
          const Platform sub = platform.subset(leaves[s]);
          PlanResult plan = plan_heterogeneous(sub, bench::params(), service,
                                               options.demand, nullptr,
                                               &options);
          leaf_to_platform_ids(plan, leaves[s]);
          leaf_bank[s] = plan;
          ready(s, std::move(plan));
        }
      });
  std::atomic<std::chrono::steady_clock::time_point> last_delivery{
      std::chrono::steady_clock::now()};
  const std::size_t delivery_threads = 4;
  const auto paced_deliver = [&](const ShardResultSink& ready) {
    std::vector<std::thread> deliverers;
    for (std::size_t t = 0; t < delivery_threads; ++t)
      deliverers.emplace_back([&, t] {
        for (std::size_t s = t; s < tail_shards; s += delivery_threads) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          ready(s, PlanResult(leaf_bank[s]));
          last_delivery.store(std::chrono::steady_clock::now());
        }
      });
    for (std::thread& d : deliverers) d.join();
  };
  const auto tail_ms = [&last_delivery] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - last_delivery.load())
        .count();
  };
  double stream_tail_ms = 0.0;
  double batch_tail_ms = 0.0;
  PlanResult tail_stream_plan;
  PlanResult tail_batch_plan;
  for (int round = 0; round < 3; ++round) {
    tail_stream_plan = plan_sharded_streamed(
        platform, bench::params(), service, options, tail_partition,
        tail_fanout,
        [&](const std::vector<std::vector<NodeId>>&,
            const ShardResultSink& ready) { paced_deliver(ready); });
    const double stream_round = tail_ms();
    tail_batch_plan = plan_sharded_with(
        platform, bench::params(), service, options, tail_partition,
        tail_fanout, [&](const std::vector<std::vector<NodeId>>& leaves) {
          std::vector<PlanResult> plans(leaves.size());
          paced_deliver(
              [&plans](std::size_t s, PlanResult p) { plans[s] = std::move(p); });
          return plans;
        });
    const double batch_round = tail_ms();
    if (round == 0 || stream_round < stream_tail_ms)
      stream_tail_ms = stream_round;
    if (round == 0 || batch_round < batch_tail_ms)
      batch_tail_ms = batch_round;
  }
  const bool tail_identical = identical(tail_stream_plan, tail_batch_plan) &&
                              identical(tail_stream_plan, streamed.plan);
  const double tail_speedup =
      stream_tail_ms > 0.0 ? batch_tail_ms / stream_tail_ms : 0.0;
  const bool stream_identical = identical(streamed.plan, tail_stream_plan);

  // ---- chaos: respawning fleet under a kill-rate sweep ------------------
  const std::string worker_cmd =
      parser.get("binary") + " serve --jobs 1 --cache 0";
  const std::string sentinel =
      (std::filesystem::temp_directory_path() /
       ("adept_bench_storm_" + std::to_string(::getpid())))
          .string();

  dist::WorkerPoolConfig chaos_config;
  chaos_config.respawn = true;
  chaos_config.respawn_backoff_ms = 0.0;
  chaos_config.max_retries = 64;

  // Flap: every worker answers exactly one shard and dies; each round
  // makes progress and the pool refills the fleet between rounds.
  dist::PipeTransport flap_transport(shell("head -n 1 | exec " + worker_cmd));
  ChaosRun flap;
  {
    dist::WorkerPool fleet(flap_transport, workers, chaos_config);
    flap = chaos_plan(fleet, request);
  }

  // Storm + recovery: workers crash on first contact while the sentinel
  // exists, and are genuine serve workers once it is gone.
  std::ofstream(sentinel) << "storm\n";
  dist::PipeTransport storm_transport(shell(
      "if [ -e '" + sentinel + "' ]; then read -r _line; exit 1; else exec " +
      worker_cmd + "; fi"));
  ChaosRun storm;
  ChaosRun recovered;
  {
    dist::WorkerPoolConfig storm_config = chaos_config;
    storm_config.max_retries = 1;  // fall back fast under a full storm
    dist::WorkerPool fleet(storm_transport, workers, storm_config);
    storm = chaos_plan(fleet, request);
    std::filesystem::remove(sentinel);
    // Refill the fleet before timing the recovery.
    fleet.respawn_due();
    fleet.health_check();
    recovered = chaos_plan(fleet, request);
    // Best-of-two on the warm fleet damps scheduler noise on shared
    // runners; identity is still checked on the first recovered plan.
    const ChaosRun again = chaos_plan(fleet, request);
    if (!recovered.failed && !again.failed &&
        again.measured.wall_ms < recovered.measured.wall_ms)
      recovered.measured.wall_ms = again.measured.wall_ms;
  }

  const bool flap_identical =
      !flap.failed && identical(local.plan, flap.measured.plan);
  const bool storm_identical =
      !storm.failed && identical(local.plan, storm.measured.plan);
  const bool recovered_identical =
      !recovered.failed && identical(local.plan, recovered.measured.plan);
  const bool chaos_zero_failures =
      !flap.failed && !storm.failed && !recovered.failed;
  const bool flap_answered_by_workers = flap.delta.fallbacks == 0;
  const bool recovered_clean =
      recovered.delta.worker_failures == 0 && recovered.delta.fallbacks == 0;
  const double recovered_vs_clean =
      recovered.measured.wall_ms > 0.0
          ? pipe.wall_ms / recovered.measured.wall_ms
          : 0.0;

  const bool inproc_identical = identical(local.plan, inproc.plan);
  const bool pipe_identical = identical(local.plan, pipe.plan);
  const bool socket_identical = identical(local.plan, socket.plan);
  const double inproc_overhead =
      local.wall_ms > 0.0 ? inproc.wall_ms / local.wall_ms : 0.0;
  const double pipe_overhead =
      local.wall_ms > 0.0 ? pipe.wall_ms / local.wall_ms : 0.0;
  const double socket_overhead =
      local.wall_ms > 0.0 ? socket.wall_ms / local.wall_ms : 0.0;

  Table table("sharded (local pool) vs distributed fleets, " +
              std::to_string(shard_count) + " shards, dgemm-310, " +
              std::to_string(workers) + " workers");
  table.set_header({"series", "wall ms", "rho (req/s)", "nodes",
                    "overhead", "identical"});
  table.add_row({"sharded-local", Table::num(local.wall_ms, 1),
                 Table::num(local.plan.report.overall, 2),
                 Table::num(static_cast<long long>(local.plan.nodes_used())),
                 "-", "-"});
  table.add_row({"dist-inproc", Table::num(inproc.wall_ms, 1),
                 Table::num(inproc.plan.report.overall, 2),
                 Table::num(static_cast<long long>(inproc.plan.nodes_used())),
                 Table::num(inproc_overhead, 2) + "x",
                 inproc_identical ? "yes" : "NO"});
  table.add_row({"dist-pipe", Table::num(pipe.wall_ms, 1),
                 Table::num(pipe.plan.report.overall, 2),
                 Table::num(static_cast<long long>(pipe.plan.nodes_used())),
                 Table::num(pipe_overhead, 2) + "x",
                 pipe_identical ? "yes" : "NO"});
  table.add_row({"dist-socket", Table::num(socket.wall_ms, 1),
                 Table::num(socket.plan.report.overall, 2),
                 Table::num(static_cast<long long>(socket.plan.nodes_used())),
                 Table::num(socket_overhead, 2) + "x",
                 socket_identical ? "yes" : "NO"});
  std::cout << table << '\n';

  Table stream_table("streamed socket coordinator, " +
                     std::to_string(ab_options.shards) + " shards, fanout " +
                     std::to_string(ab_config.stitch_fanout) + ", " +
                     std::to_string(ab_config.workers) +
                     " socket sessions (best of 5)");
  stream_table.set_header({"mode", "wall ms", "identical to tail plan"});
  stream_table.add_row({"streaming", Table::num(streamed.wall_ms, 1),
                        stream_identical ? "yes" : "NO"});
  std::cout << stream_table << '\n';

  Table tail_table("stitch tail after the last shard arrives, " +
                   std::to_string(tail_shards) + " shards, fanout " +
                   std::to_string(tail_fanout) +
                   ", paced delivery (best of 3)");
  tail_table.set_header({"mode", "tail ms", "speedup", "identical"});
  tail_table.add_row({"batch-collect", Table::num(batch_tail_ms, 2), "-",
                      "-"});
  tail_table.add_row({"streaming", Table::num(stream_tail_ms, 2),
                      Table::num(tail_speedup, 1) + "x",
                      tail_identical ? "yes" : "NO"});
  std::cout << tail_table << '\n';

  Table chaos_table("supervised fleet under kill storms, " +
                    std::to_string(workers) + " workers (chaos sweep)");
  chaos_table.set_header({"phase", "wall ms", "respawned", "fallbacks",
                          "failed reqs", "identical"});
  const auto chaos_row = [&chaos_table](const std::string& name,
                                        const ChaosRun& run, bool same) {
    chaos_table.add_row(
        {name, Table::num(run.measured.wall_ms, 1),
         Table::num(static_cast<long long>(run.delta.workers_respawned)),
         Table::num(static_cast<long long>(run.delta.fallbacks)),
         run.failed ? "1" : "0", same ? "yes" : "NO"});
  };
  chaos_row("flap (die per shard)", flap, flap_identical);
  chaos_row("storm (all crash)", storm, storm_identical);
  chaos_row("recovered", recovered, recovered_identical);
  std::cout << chaos_table << '\n';

  bench::JsonBenchWriter json("dist");
  json.add({"sharded-local", count, local.wall_ms, 0,
            local.plan.report.overall,
            {{"shards", static_cast<double>(shard_count)}}});
  // efficiency = local/dist wall ratio: higher is better, which is the
  // direction tools/bench_gate.py's --metric checks gate on.
  json.add({"dist-inproc", count, inproc.wall_ms, 0,
            inproc.plan.report.overall,
            {{"overhead_vs_sharded", inproc_overhead},
             {"efficiency_vs_sharded",
              inproc_overhead > 0.0 ? 1.0 / inproc_overhead : 0.0},
             {"workers", static_cast<double>(workers)},
             {"bit_identical", inproc_identical ? 1.0 : 0.0}}});
  json.add({"dist-pipe", count, pipe.wall_ms, 0, pipe.plan.report.overall,
            {{"overhead_vs_sharded", pipe_overhead},
             {"efficiency_vs_sharded",
              pipe_overhead > 0.0 ? 1.0 / pipe_overhead : 0.0},
             {"workers", static_cast<double>(workers)},
             {"bit_identical", pipe_identical ? 1.0 : 0.0},
             {"clean_run", clean_pipe_run ? 1.0 : 0.0}}});
  json.add({"dist-socket", count, socket.wall_ms, 0,
            socket.plan.report.overall,
            {{"overhead_vs_sharded", socket_overhead},
             {"efficiency_vs_sharded",
              socket_overhead > 0.0 ? 1.0 / socket_overhead : 0.0},
             {"workers", static_cast<double>(workers)},
             {"bit_identical", socket_identical ? 1.0 : 0.0},
             {"clean_run", clean_socket_run ? 1.0 : 0.0},
             {"socket_connects",
              static_cast<double>(socket_after.socket_connects -
                                  socket_before.socket_connects)}}});
  json.add({"dist-stream-ab", count, streamed.wall_ms, 0,
            streamed.plan.report.overall,
            {{"bit_identical", stream_identical ? 1.0 : 0.0}}});
  json.add({"dist-stream-tail", count, stream_tail_ms, 0,
            tail_stream_plan.report.overall,
            {{"tail_speedup", tail_speedup},
             {"batch_tail_ms", batch_tail_ms},
             {"bit_identical", tail_identical ? 1.0 : 0.0}}});
  json.add({"dist-chaos-flap", count, flap.measured.wall_ms, 0,
            flap.measured.plan.report.overall,
            {{"bit_identical", flap_identical ? 1.0 : 0.0},
             {"zero_failures", flap.failed ? 0.0 : 1.0},
             {"respawned", static_cast<double>(flap.delta.workers_respawned)},
             {"fallbacks", static_cast<double>(flap.delta.fallbacks)},
             {"answered_by_workers", flap_answered_by_workers ? 1.0 : 0.0}}});
  json.add({"dist-chaos-storm", count, storm.measured.wall_ms, 0,
            storm.measured.plan.report.overall,
            {{"bit_identical", storm_identical ? 1.0 : 0.0},
             {"zero_failures", storm.failed ? 0.0 : 1.0},
             {"respawned",
              static_cast<double>(storm.delta.workers_respawned)},
             {"fallbacks", static_cast<double>(storm.delta.fallbacks)}}});
  json.add({"dist-chaos-recovered", count, recovered.measured.wall_ms, 0,
            recovered.measured.plan.report.overall,
            {{"recovered_vs_clean", recovered_vs_clean},
             {"bit_identical", recovered_identical ? 1.0 : 0.0},
             {"zero_failures", recovered.failed ? 0.0 : 1.0},
             {"clean_run", recovered_clean ? 1.0 : 0.0}}});

  bench::verdict("in-process fleet bit-identical to local sharded",
                 inproc_identical);
  bench::verdict("pipe fleet (real serve subprocesses) bit-identical to "
                 "local sharded",
                 pipe_identical);
  bench::verdict("healthy pipe fleet answered every shard itself "
                 "(0 failures, 0 fallbacks; got " +
                     std::to_string(faults) + ")",
                 clean_pipe_run);
  bench::verdict("socket fleet (serve --listen over TCP) bit-identical to "
                 "local sharded",
                 socket_identical);
  bench::verdict("socket fleet ran clean (0 failures, fallbacks, refused "
                 "connects)",
                 clean_socket_run);
  bench::verdict("streamed socket coordinator bit-identical to the "
                 "streamed tail plan",
                 stream_identical);
  bench::verdict("streamed stitch tail >= 2x shorter than the batch tail "
                 "(got " +
                     Table::num(tail_speedup, 1) + "x)",
                 tail_identical && tail_speedup >= 2.0);
  bench::verdict("chaos sweep: zero client-visible failures",
                 chaos_zero_failures);
  bench::verdict("flap phase answered by respawned workers, never the "
                 "fallback",
                 flap_identical && flap_answered_by_workers);
  bench::verdict("storm phase fell back bit-identically", storm_identical);
  bench::verdict("recovered fleet bit-identical with no new faults and "
                 "throughput >= 0.9x clean (got " +
                     Table::num(recovered_vs_clean, 2) + "x)",
                 recovered_identical && recovered_clean &&
                     recovered_vs_clean >= 0.9);

  json.write(parser.get("json"));
  const bool ok = inproc_identical && pipe_identical && clean_pipe_run &&
                  socket_identical && clean_socket_run && stream_identical &&
                  tail_identical &&
                  tail_speedup >= 2.0 && chaos_zero_failures &&
                  flap_identical && flap_answered_by_workers &&
                  storm_identical && recovered_identical && recovered_clean &&
                  recovered_vs_clean >= 0.9;
  return ok ? 0 : 1;
}
