#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

namespace adeptbench {

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

void RunResult::note(const std::string& key, const std::string& value) {
  info.emplace_back(key, value);
}

void RunResult::note(const std::string& key, double value) {
  std::ostringstream out;
  out << std::setprecision(10) << value;
  info.emplace_back(key, out.str());
}

const std::vector<std::pair<std::string, std::string>>& e2e_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"goodput_rps", "1/s"},
      {"plan_rho_mean", "req/s"},
      {"retained_throughput", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return catalog;
}

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"heuristic.calls", "count"},
      {"heuristic.ms_p50", "ms"},
      {"heuristic.busy_ms", "ms"},
      {"heuristic.share", "ratio"},
      {"model.evaluations", "count"},
      {"model.improve_ms_p50", "ms"},
      {"platform.partition_ms_p50", "ms"},
      {"platform.shards_mean", "count"},
      {"sharded.leaf_ms", "ms"},
      {"sharded.stitch_ms", "ms"},
      {"sharded.stitch_share", "ratio"},
      {"shard_cache.hits", "count"},
      {"shard_cache.misses", "count"},
      {"shard_cache.hit_rate", "ratio"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.coalesced", "count"},
      {"service.hit_rate", "ratio"},
      {"wire.decode_ms_p50", "ms"},
      {"wire.encode_ms_p50", "ms"},
      {"wire.request_kb_mean", "KiB"},
      {"wire.response_kb_mean", "KiB"},
      {"serve.answered", "count"},
      {"serve.refused", "count"},
      {"serve.errors", "count"},
      {"dist.shard_rtt_ms_p50", "ms"},
      {"dist.worker_ms_p50", "ms"},
      {"dist.transport_wait_ms_p50", "ms"},
      {"dist.dispatched", "count"},
      {"dist.retried", "count"},
      {"dist.fallbacks", "count"},
      {"dist.worker_failures", "count"},
      {"replan.event_ms_p50", "ms"},
      {"replan.event_ms_p99", "ms"},
      {"replan.incremental", "count"},
      {"replan.full", "count"},
      {"replan.full_skipped", "count"},
      {"replan.full_failed", "count"},
      {"replan.prunes", "count"},
      {"replan.full_adopted_frac", "ratio"},
      {"loadgen.send_lag_p99_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.uncovered_share", "ratio"},
      {"self.platform.share", "ratio"},
      {"self.planner.heuristic.share", "ratio"},
      {"self.planner.sharded.share", "ratio"},
      {"self.planner.shard_cache.share", "ratio"},
      {"self.planner.planning_service.share", "ratio"},
      {"self.planner.replan.share", "ratio"},
      {"self.io.wire.share", "ratio"},
      {"self.io.serve.share", "ratio"},
      {"self.dist.share", "ratio"},
  };
  return catalog;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t spread_size(std::size_t lo, std::size_t hi, double offset,
                        std::size_t i) {
  const double golden = 0.6180339887498949;
  const double u = std::fmod(offset + golden * static_cast<double>(i), 1.0);
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo));
}

double seed_offset(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<double>(mix_seed(seed, stream, 0) % 1000003) / 1000003.0;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_peak_rss_mb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

adept::MiddlewareParams bench_params() {
  return adept::MiddlewareParams::diet_grid5000();
}

adept::ServiceSpec bench_service() { return adept::dgemm_service(310); }

double median(std::vector<double> values) { return percentile(values, 50.0); }

void record_tail(const std::vector<double>& latencies, RunResult& result) {
  const std::size_t n = latencies.size();
  const double p = highest_supported_percentile(n, {50.0, 90.0, 99.0});
  result.note("samples", static_cast<double>(n));
  result.note("tail_percentile", p);
  result.note("latency_tail_ms", p > 0.0 ? percentile(latencies, p) : 0.0);
  if (p < 90.0)
    std::cerr << "warning: " << n << " samples leave fewer than " << kMinBeyond
              << " beyond p90\n";
}

std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void report_layers(const LayerSummary& summary, RunResult& result) {
  const double wall = summary.root_ms;
  std::cout << "traced wall " << std::fixed << std::setprecision(1) << wall
            << " ms over " << summary.count[0] << " ops; self time by layer:\n";
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    const double share = wall > 0.0 ? summary.self_ms[l] / wall : 0.0;
    result.layer["self." + name + ".share"] = share;
    std::cout << "  " << std::left << std::setw(26) << name << std::right
              << std::setw(12) << summary.self_ms[l] << " ms self  "
              << std::setw(12) << summary.total_ms[l] << " ms total  "
              << std::setw(8) << summary.count[l] << " spans  "
              << std::setprecision(3) << share << std::setprecision(1)
              << " of wall\n";
  }
  const double uncovered = wall > 0.0 ? summary.uncovered_ms / wall : 0.0;
  result.layer["trace.uncovered_share"] = uncovered;
  std::cout << "  " << std::left << std::setw(26) << "(uncovered)"
            << std::right << std::setw(12) << summary.uncovered_ms
            << " ms      share " << std::setprecision(3) << uncovered << '\n'
            << std::defaultfloat;
}

}  // namespace adeptbench

#include <memory>

#include "model/hetero_comm.hpp"
#include "planner/registry.hpp"

namespace adeptbench {

TraceHooks& trace_hooks() {
  static TraceHooks hooks;
  return hooks;
}

namespace {

class TracedHeuristic final : public adept::IPlanner {
 public:
  TracedHeuristic()
      : inner_(adept::PlannerRegistry::instance().at("heuristic")),
        info_{"adeptbench.heuristic",
              "benchmark span wrapper around the built-in heuristic",
              inner_.info().caps} {}

  const adept::PlannerInfo& info() const final { return info_; }

  adept::PlanResult plan(const adept::PlanRequest& request) const final {
    TraceHooks& hooks = trace_hooks();
    SpanRecorder* recorder = hooks.recorder;
    if (recorder == nullptr) return inner_.plan(request);
    const double start = recorder->now_ms();
    // A call cut off by its deadline throws; its time is still recorded.
    auto record = [&] {
      const double end = recorder->now_ms();
      recorder->add(Layer::Heuristic, hooks.request.load(), hooks.parent.load(),
                    start, end);
      std::lock_guard<std::mutex> lock(hooks.mutex);
      hooks.heuristic_ms.push_back(end - start);
    };
    try {
      adept::PlanResult result = inner_.plan(request);
      record();
      return result;
    } catch (...) {
      record();
      throw;
    }
  }

 private:
  const adept::IPlanner& inner_;
  adept::PlannerInfo info_;
};

}  // namespace

const std::string& traced_heuristic_planner() {
  static const std::string name = [] {
    auto planner = std::make_unique<TracedHeuristic>();
    std::string registered = planner->info().name;
    adept::PlannerRegistry::instance().add(std::move(planner));
    return registered;
  }();
  return name;
}

adept::model::ThroughputReport evaluate_plan(const adept::Hierarchy& hierarchy,
                                             const adept::Platform& platform) {
  return platform.has_homogeneous_links()
             ? adept::model::evaluate(hierarchy, platform, bench_params(),
                                      bench_service())
             : adept::model::evaluate_hetero(hierarchy, platform,
                                             bench_params(), bench_service());
}

}  // namespace adeptbench
