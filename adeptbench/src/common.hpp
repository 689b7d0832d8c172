#pragma once
/// \file common.hpp
/// \brief What every workload shares: run arguments, the result record,
/// the metric catalog, seeding, clocks and memory probes.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.hpp"
#include "model/evaluate.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/planner.hpp"
#include "platform/platform.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace adeptbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `a` to `b`.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string results_dir = ".bench_results";
  std::string revision = "unknown";
  std::string adept_cli;  ///< Path of the `adept` binary under test.
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run produces.
struct RunResult {
  bool correct = true;
  Accounting accounting;
  /// Operations reported as failed: every error, deadline miss and
  /// refusal, except refusals in a deliberately overloaded phase, which
  /// count only against goodput.
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;    ///< End-to-end metrics by name.
  std::map<std::string, double> layer;  ///< Per-layer metrics by name.
  std::vector<std::string> failures;    ///< Output-check failures.
  std::vector<std::pair<std::string, std::string>> info;  ///< Recorded facts.

  /// Records an output check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
};

/// The end-to-end metrics every workload reports (name, unit).
const std::vector<std::pair<std::string, std::string>>& e2e_catalog();
/// The per-layer metrics every traced run reports (name, unit); a layer a
/// workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// Derives an independent 64-bit stream value from (seed, stream, index)
/// (splitmix64 finalizer).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index);

/// Size of the i-th platform of a run: a golden-ratio low-discrepancy
/// sequence started at `offset` (in [0, 1)) over [lo, hi), so runs of
/// any length and seed see nearly the same size mix.
std::size_t spread_size(std::size_t lo, std::size_t hi, double offset,
                        std::size_t i);

/// A seed's starting offset in [0, 1) for spread_size.
double seed_offset(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a 64-bit hash.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Hex form of a 64-bit digest.
std::string hex64(std::uint64_t value);

/// Peak resident set size of this process in MiB.
double self_peak_rss_mb();
/// Peak resident set size (VmHWM) of a live child process in MiB; 0 when
/// unreadable.
double process_peak_rss_mb(int pid);

/// The paper's Table 3 middleware parameters and the DGEMM 310 service:
/// the cost model every workload plans under.
adept::MiddlewareParams bench_params();
adept::ServiceSpec bench_service();

/// Median of `values`; 0 when empty.
double median(std::vector<double> values);

/// Records the sample count, the highest of p50/p90/p99 that has at
/// least ten samples beyond it (`tail_percentile`) and that percentile of
/// `latencies` (`latency_tail_ms`). Warns on stderr when p90 lacks that
/// support (a host too slow for the run length; p90 is still reported).
void record_tail(const std::vector<double>& latencies, RunResult& result);

/// Host cores the benchmark sizes its pools and connections by.
std::size_t host_cores();

/// Writes the per-layer self-time shares (self.<layer>.share) and the
/// uncovered share of `summary` into `result.layer`, and prints the
/// self-time table.
void report_layers(const LayerSummary& summary, RunResult& result);

// The four workloads. Each measures for `args.seconds`, checks its
// outputs, and fills e2e (untraced) or layer (traced) metrics.
RunResult run_plan_cold(const Args& args);
RunResult run_serve_open(const Args& args);
RunResult run_churn(const Args& args);
RunResult run_dist_fleet(const Args& args);

}  // namespace adeptbench

namespace adeptbench {

/// Span hooks the benchmark's traced planner wrappers record through.
/// A traced run sets `recorder`, and before each call into the system
/// the (single) client publishes the span the next planner call nests
/// under; the wrappers read it from whichever pool thread they run on.
struct TraceHooks {
  SpanRecorder* recorder = nullptr;
  std::atomic<std::int64_t> parent{kNoParent};
  std::atomic<std::uint64_t> request{0};
  std::mutex mutex;
  std::vector<double> heuristic_ms;  ///< One entry per wrapped call.
};

TraceHooks& trace_hooks();

/// Registers (once) and returns the name of a registry planner that
/// delegates to the built-in "heuristic" and records a planner.heuristic
/// span around each call. Plans are the built-in planner's, bit for bit.
const std::string& traced_heuristic_planner();

/// Bit-identity of two plans: hierarchy, report and trace.
inline bool same_plan(const adept::PlanResult& a, const adept::PlanResult& b) {
  return a.hierarchy == b.hierarchy && a.report == b.report && a.trace == b.trace;
}

/// Evaluates `hierarchy` under the link model `platform` needs (the
/// homogeneous Eq 16 or the per-link extension), with validation.
adept::model::ThroughputReport evaluate_plan(const adept::Hierarchy& hierarchy,
                                             const adept::Platform& platform);

}  // namespace adeptbench
