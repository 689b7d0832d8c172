/// \file dist_fleet.cpp
/// \brief dist-fleet: sequential dist::Coordinator::plan calls over
/// SocketTransport to three `adept serve --listen` worker processes.
///
/// Each call plans a distinct seeded g5k-multi-cluster platform with an
/// explicit shard count; the coordinator's shard cache is off, so every
/// shard crosses the wire. Every plan must be bit-identical to the local
/// plan_sharded over the same partition. The traced run wraps the
/// socket workers in a span-recording Worker/Transport pair, so each
/// shard's round trip, the worker's own planning wall and the transport
/// wait between them are timed separately from the coordinator's
/// partition, wire and stitch work.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>

#include "common.hpp"
#include "common/json.hpp"
#include "dist/coordinator.hpp"
#include "dist/stats.hpp"
#include "dist/transport.hpp"
#include "io/wire.hpp"
#include "planner/sharded.hpp"
#include "platform/generator.hpp"
#include "platform/partition.hpp"

namespace adeptbench {

namespace {

using namespace adept;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kPoolSize = 320;  ///< Reused round-robin if exhausted.
constexpr std::size_t kMinNodes = 2000;
constexpr std::size_t kMaxNodes = 3000;
constexpr std::size_t kNodesPerShard = 200;
constexpr double kLatencyLimitMs = 2000.0;
constexpr std::size_t kWirePairs = 300;  ///< Shard lines kept for wire timing.

struct Problem {
  std::shared_ptr<const Platform> platform;
  std::size_t shards = 1;
};

Problem make_problem(std::uint64_t seed, std::size_t i) {
  const std::size_t count =
      spread_size(kMinNodes, kMaxNodes, seed_offset(seed, 4), i);
  Problem p;
  p.platform = std::make_shared<const Platform>(
      gen::catalog_platform("g5k-multi-cluster", count, mix_seed(seed, 5, i)));
  p.shards = (count + kNodesPerShard / 2) / kNodesPerShard;
  return p;
}

PlanRequest make_request(const Problem& p) {
  PlanOptions options;
  options.shards = p.shards;
  return PlanRequest(p.platform, bench_params(), bench_service(), options);
}

/// What the tracing workers observed, shared by all of them.
struct DistObservations {
  std::mutex mutex;
  std::vector<double> rtt_ms, worker_ms, wait_ms;
  std::vector<double> request_kb, response_kb;
  std::vector<std::pair<std::string, std::string>> lines;  ///< (request, response)
};

/// A socket worker with a span around every shard round trip.
class TracingWorker final : public dist::Worker {
 public:
  TracingWorker(std::unique_ptr<dist::Worker> inner, SpanRecorder& recorder,
                DistObservations& seen)
      : inner_(std::move(inner)), recorder_(recorder), seen_(seen) {}

  bool send(const std::string& line) final {
    sent_.push_back({recorder_.now_ms(), line});
    return inner_->send(line);
  }

  bool receive(std::string& line, double timeout_ms) final {
    if (!inner_->receive(line, timeout_ms)) return false;
    const double end = recorder_.now_ms();
    if (sent_.empty()) return true;  // a health ping answered out of band
    auto [start, request] = std::move(sent_.front());
    sent_.pop_front();
    TraceHooks& hooks = trace_hooks();
    recorder_.add(Layer::Dist, hooks.request.load(), hooks.parent.load(),
                  start, end);
    const std::size_t at = line.find("\"wall_ms\":");
    const double worker =
        at == std::string::npos ? 0.0 : std::strtod(line.c_str() + at + 10, nullptr);
    std::lock_guard<std::mutex> lock(seen_.mutex);
    seen_.rtt_ms.push_back(end - start);
    seen_.worker_ms.push_back(worker);
    seen_.wait_ms.push_back(std::max(0.0, end - start - worker));
    seen_.request_kb.push_back(static_cast<double>(request.size()) / 1024.0);
    seen_.response_kb.push_back(static_cast<double>(line.size()) / 1024.0);
    if (seen_.lines.size() < kWirePairs)
      seen_.lines.emplace_back(std::move(request), line);
    return true;
  }

  bool alive() const final { return inner_->alive(); }
  void kill() final { inner_->kill(); }

 private:
  std::unique_ptr<dist::Worker> inner_;
  SpanRecorder& recorder_;
  DistObservations& seen_;
  std::deque<std::pair<double, std::string>> sent_;
};

class TracingTransport final : public dist::Transport {
 public:
  TracingTransport(dist::Transport& inner, SpanRecorder& recorder,
                   DistObservations& seen)
      : inner_(inner), recorder_(recorder), seen_(seen) {}
  const char* name() const final { return "tracing-socket"; }
  std::unique_ptr<dist::Worker> spawn() final {
    return std::make_unique<TracingWorker>(inner_.spawn(), recorder_, seen_);
  }

 private:
  dist::Transport& inner_;
  SpanRecorder& recorder_;
  DistObservations& seen_;
};

/// The worker fleet: three listener processes, the transports and the
/// coordinator, declared so that users are destroyed before what they
/// refer to.
struct Fleet {
  std::vector<std::unique_ptr<dist::ServeListener>> listeners;
  std::unique_ptr<dist::SocketTransport> socket;
  std::unique_ptr<TracingTransport> tracing;
  std::unique_ptr<dist::Coordinator> coordinator;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void stop() {
    coordinator.reset();
    tracing.reset();
    socket.reset();
    listeners.clear();
  }

  void start(const std::string& adept_cli) {
    stop();
    std::vector<std::string> endpoints;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      listeners.push_back(std::make_unique<dist::ServeListener>(std::vector<std::string>{
          adept_cli, "serve", "--listen", "127.0.0.1:0", "--jobs", "1",
          "--cache", "0", "--shard-cache", "0"}));
      endpoints.push_back(listeners.back()->endpoint());
    }
    socket = std::make_unique<dist::SocketTransport>(endpoints);
  }

  double peak_rss_mb() const {
    double peak = 0.0;
    for (const auto& l : listeners) peak = std::max(peak, process_peak_rss_mb(l->pid()));
    return peak;
  }
};

dist::CoordinatorConfig coordinator_config() {
  dist::CoordinatorConfig config;
  config.workers = kWorkers;
  config.max_retries = 1;
  return config;
}

}  // namespace

RunResult run_dist_fleet(const Args& args) {
  RunResult result;

  // ---- set-up, three times: platforms, worker processes, connect ------
  // The span store outlives the fleet, whose tracing workers write to it.
  SpanRecorder recorder;
  DistObservations seen;
  std::vector<Problem> problems;
  Fleet fleet;
  std::vector<double> setups;
  const Problem warm = make_problem(args.seed ^ 0x5eedULL, 0);
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    fleet.stop();
    problems.clear();
    for (std::size_t i = 0; i < kPoolSize; ++i)
      problems.push_back(make_problem(args.seed, i));
    fleet.start(args.adept_cli);
    fleet.coordinator =
        std::make_unique<dist::Coordinator>(*fleet.socket, coordinator_config());
    fleet.coordinator->plan(make_request(warm));
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  TraceHooks& hooks = trace_hooks();
  if (args.trace) {
    fleet.coordinator.reset();
    fleet.tracing = std::make_unique<TracingTransport>(*fleet.socket, recorder, seen);
    fleet.coordinator =
        std::make_unique<dist::Coordinator>(*fleet.tracing, coordinator_config());
    hooks.recorder = &recorder;
  }
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  const dist::DistStats before = dist::stats_snapshot();

  // ---- measured closed loop -------------------------------------------
  std::vector<PlanResult> plans;
  std::vector<double> latencies;
  std::vector<Response> responses;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(args.seconds));
  std::size_t i = 0;
  for (; Clock::now() < stop; ++i) {
    const PlanRequest request = make_request(problems[i % problems.size()]);
    ScopedSpan op(rec, Layer::Op, i);
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      ScopedSpan span(rec, Layer::Sharded, i, op.id());
      hooks.parent = span.id();
      hooks.request = i;
      plans.push_back(fleet.coordinator->plan(request));
    } catch (const std::exception& e) {
      ok = false;
      plans.emplace_back();
      result.check(false, "plan " + std::to_string(i) + " failed: " + e.what());
    }
    const double latency = ms_between(t0, Clock::now());
    latencies.push_back(latency);
    responses.push_back({latency, ok});
    result.accounting.add(ok ? Outcome::Ok : Outcome::Error);
  }
  const double window_s = ms_between(start, Clock::now()) / 1000.0;
  hooks.recorder = nullptr;
  dist::DistStats dstats = dist::stats_snapshot();
  dstats.dispatched -= before.dispatched;
  dstats.retried -= before.retried;
  dstats.fallbacks -= before.fallbacks;
  dstats.worker_failures -= before.worker_failures;
  result.note("pool_wrapped", i > problems.size() ? "yes" : "no");
  const double peak_rss = std::max(self_peak_rss_mb(), fleet.peak_rss_mb());

  // ---- output checks: bit-identical to the local sharded planner -------
  std::vector<char> identical(plans.size(), 0);
  std::vector<double> partition_ms(plans.size(), 0.0);
  std::vector<double> shard_counts(plans.size(), 0.0);
  {
    std::vector<std::thread> threads;
    const std::size_t lanes = host_cores();
    for (std::size_t lane = 0; lane < lanes; ++lane)
      threads.emplace_back([&, lane] {
        for (std::size_t k = lane; k < plans.size(); k += lanes) {
          const PlanRequest request = make_request(problems[k % problems.size()]);
          const auto t0 = Clock::now();
          const plat::Partition partition =
              plat::partition_platform(*request.platform, request.options.shards);
          partition_ms[k] = ms_between(t0, Clock::now());
          shard_counts[k] = static_cast<double>(partition.size());
          const PlanResult local = plan_sharded(*request.platform, request.params,
                                                request.service, request.options,
                                                partition);
          identical[k] = same_plan(local, plans[k]);
        }
      });
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> rhos;
  for (std::size_t k = 0; k < plans.size(); ++k) {
    result.check(identical[k] != 0, "distributed plan " + std::to_string(k) +
                                        " differs from local plan_sharded");
    rhos.push_back(plans[k].report.overall);
  }
  result.check(dstats.fallbacks == 0 && dstats.worker_failures == 0,
               "worker failures or in-process fallbacks during the run");

  const std::size_t n = latencies.size();
  result.note("plans", static_cast<double>(n));
  result.note("shards_dispatched", static_cast<double>(dstats.dispatched));
  record_tail(latencies, result);
  std::cout << "dist-fleet: " << n << " plans in " << window_s << " s, "
            << dstats.dispatched << " shards dispatched, p50 "
            << percentile(latencies, 50.0) << " ms\n";

  result.failed = result.accounting.failed();
  if (!args.trace) {
    result.e2e["setup_s"] = median(setups);
    result.e2e["latency_p50_ms"] = percentile(latencies, 50.0);
    result.e2e["latency_p90_ms"] = percentile(latencies, 90.0);
    result.e2e["ops_per_s"] = static_cast<double>(n) / window_s;
    result.e2e["goodput_rps"] = goodput_rps(responses, kLatencyLimitMs, window_s);
    result.e2e["plan_rho_mean"] = mean(rhos);
    // Restates the bit-identity check above: 1 on every correct run (only
    // churn measures retained throughput against an oracle).
    result.e2e["retained_throughput"] =
        std::count(identical.begin(), identical.end(), 1) /
        static_cast<double>(std::max<std::size_t>(1, identical.size()));
    result.e2e["peak_rss_mb"] = peak_rss;
    return result;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  const std::vector<Span> spans = recorder.snapshot();
  const LayerSummary summary = summarize(spans);
  report_layers(summary, result);
  // Leaf wall per plan: the coordinator span's covered part (the union of
  // its shard round trips); the rest of it is partition, wire and stitch.
  const std::vector<double> self = self_times_ms(spans);
  double coordinator_total = 0.0, coordinator_self = 0.0;
  for (std::size_t s = 0; s < spans.size(); ++s)
    if (spans[s].layer == Layer::Sharded && spans[s].parent >= 0 &&
        spans[static_cast<std::size_t>(spans[s].parent)].layer == Layer::Op) {
      coordinator_total += spans[s].end_ms - spans[s].start_ms;
      coordinator_self += self[s];
    }
  const double plans_n = static_cast<double>(std::max<std::size_t>(1, n));
  const double partition_mean = mean(partition_ms);
  result.layer["platform.partition_ms_p50"] = percentile(partition_ms, 50.0);
  result.layer["platform.shards_mean"] = mean(shard_counts);
  result.layer["sharded.leaf_ms"] = (coordinator_total - coordinator_self) / plans_n;
  result.layer["sharded.stitch_ms"] =
      std::max(0.0, coordinator_self / plans_n - partition_mean);
  result.layer["sharded.stitch_share"] =
      summary.root_ms > 0.0
          ? std::max(0.0, coordinator_self - partition_mean * plans_n) / summary.root_ms
          : 0.0;
  result.layer["heuristic.calls"] = static_cast<double>(seen.worker_ms.size());
  result.layer["heuristic.ms_p50"] = percentile(seen.worker_ms, 50.0);
  double worker_busy = 0.0;
  for (double w : seen.worker_ms) worker_busy += w;
  result.layer["heuristic.busy_ms"] = worker_busy;
  result.layer["dist.shard_rtt_ms_p50"] = percentile(seen.rtt_ms, 50.0);
  result.layer["dist.worker_ms_p50"] = percentile(seen.worker_ms, 50.0);
  result.layer["dist.transport_wait_ms_p50"] = percentile(seen.wait_ms, 50.0);
  result.layer["dist.dispatched"] = static_cast<double>(dstats.dispatched);
  result.layer["dist.retried"] = static_cast<double>(dstats.retried);
  result.layer["dist.fallbacks"] = static_cast<double>(dstats.fallbacks);
  result.layer["dist.worker_failures"] = static_cast<double>(dstats.worker_failures);
  result.layer["wire.request_kb_mean"] = mean(seen.request_kb);
  result.layer["wire.response_kb_mean"] = mean(seen.response_kb);
  // Wire cost on the identical shard lines: the worker's request decode
  // and the coordinator's response decode, then the response encode.
  std::vector<double> decode_ms, encode_ms;
  for (const auto& [request, response] : seen.lines) {
    const auto t0 = Clock::now();
    const PlanRequest decoded = wire::request_from_json(json::parse(request));
    const auto t1 = Clock::now();
    const json::Value value = json::parse(response);
    const PlannerRun run = wire::planner_run_from_json(value.at("run"));
    const auto t2 = Clock::now();
    const std::string again = wire::to_json(run).dump();
    const auto t3 = Clock::now();
    decode_ms.push_back(ms_between(t0, t1));
    decode_ms.push_back(ms_between(t1, t2));
    encode_ms.push_back(ms_between(t2, t3));
    (void)decoded;
    (void)again;
  }
  result.layer["wire.decode_ms_p50"] = percentile(decode_ms, 50.0);
  result.layer["wire.encode_ms_p50"] = percentile(encode_ms, 50.0);

  // Tracing overhead: the first plans again, untraced then traced.
  const std::size_t sample = std::min<std::size_t>(10, n);
  double wall[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    SpanRecorder scratch;
    DistObservations scratch_seen;
    TracingTransport scratch_tracing(*fleet.socket, scratch, scratch_seen);
    dist::Transport& transport =
        pass == 1 ? static_cast<dist::Transport&>(scratch_tracing) : *fleet.socket;
    dist::Coordinator coordinator(transport, coordinator_config());
    hooks.recorder = pass == 1 ? &scratch : nullptr;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < sample; ++k) coordinator.plan(make_request(problems[k]));
    wall[pass] = ms_between(t0, Clock::now());
  }
  hooks.recorder = nullptr;
  result.layer["trace.overhead_frac"] = wall[0] > 0.0 ? wall[1] / wall[0] - 1.0 : 0.0;
  recorder.write_jsonl(args.results_dir + "/dist-fleet-seed" +
                       std::to_string(args.seed) + "-spans.jsonl");
  return result;
}

}  // namespace adeptbench
