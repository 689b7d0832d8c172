/// \file plan_cold.cpp
/// \brief plan-cold: back-to-back uncached heuristic plans through
/// PlanningService::run, one closed-loop client.
///
/// Every request is a distinct seeded platform, so with both caches off
/// each one pays the heuristic's full (polarity, k) block sweep on the
/// incremental evaluator: planner.heuristic and the model do nearly all
/// the work; wire, caches and transport do none.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "io/wire.hpp"
#include "planner/planning_service.hpp"
#include "planner/registry.hpp"
#include "platform/generator.hpp"

namespace adeptbench {

namespace {

using namespace adept;

constexpr const char* kPresets[] = {"uniform", "long-tail", "orsay",
                                    "g5k-multi-cluster"};
constexpr std::size_t kPoolSize = 400;  ///< Reused round-robin if exhausted.
constexpr std::size_t kMinNodes = 800;
constexpr std::size_t kMaxNodes = 1200;
constexpr double kLatencyLimitMs = 2000.0;  ///< Goodput limit per plan.
constexpr std::size_t kReplanSamples = 4;   ///< Direct-registry re-plans.

/// Platform i of the run: presets rotate, sizes follow a seeded
/// low-discrepancy sequence over [kMinNodes, kMaxNodes] so every run sees
/// the same size mix whatever its length.
std::shared_ptr<const Platform> make_platform(std::uint64_t seed,
                                              std::size_t i) {
  const std::size_t count =
      spread_size(kMinNodes, kMaxNodes, seed_offset(seed, 1), i);
  return std::make_shared<const Platform>(gen::catalog_platform(
      kPresets[i % 4], count, mix_seed(seed, 2, i)));
}

}  // namespace

RunResult run_plan_cold(const Args& args) {
  RunResult result;
  const std::size_t cores = host_cores();
  const MiddlewareParams params = bench_params();
  const ServiceSpec service_spec = bench_service();

  // ---- set-up, three times: platforms, service, warm pool -------------
  std::vector<std::shared_ptr<const Platform>> platforms;
  std::unique_ptr<PlanningService> service;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    service.reset();
    platforms.clear();
    for (std::size_t i = 0; i < kPoolSize; ++i)
      platforms.push_back(make_platform(args.seed, i));
    service = std::make_unique<PlanningService>(cores);  // both caches off
    const Platform warm = gen::catalog_platform("uniform", 64, args.seed);
    service->run(PlanRequest(warm, params, service_spec), "heuristic");
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  SpanRecorder recorder;
  TraceHooks& hooks = trace_hooks();
  std::string planner = "heuristic";
  if (args.trace) {
    planner = traced_heuristic_planner();
    hooks.recorder = &recorder;
  }
  SpanRecorder* rec = args.trace ? &recorder : nullptr;

  // ---- measured closed loop -------------------------------------------
  std::vector<PlannerRun> runs;
  std::vector<double> latencies;
  std::vector<double> service_ms;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(args.seconds));
  std::size_t i = 0;
  for (; Clock::now() < stop; ++i) {
    PlanRequest request(platforms[i % platforms.size()], params, service_spec);
    ScopedSpan op(rec, Layer::Op, i);
    const auto t0 = Clock::now();
    PlannerRun run;
    {
      ScopedSpan span(rec, Layer::PlanningService, i, op.id());
      hooks.parent = span.id();
      hooks.request = i;
      run = service->run(request, planner);
    }
    const auto t1 = Clock::now();
    latencies.push_back(ms_between(t0, t1));
    service_ms.push_back(run.wall_ms);
    runs.push_back(std::move(run));
  }
  const double window_s = ms_between(start, Clock::now()) / 1000.0;
  hooks.recorder = nullptr;
  result.note("pool_wrapped", i > platforms.size() ? "yes" : "no");

  // ---- output checks ---------------------------------------------------
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t digest16 = digest;
  std::vector<double> rhos;
  std::vector<Response> responses;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const PlannerRun& run = runs[k];
    result.accounting.add(run.ok ? Outcome::Ok : Outcome::Error);
    responses.push_back({latencies[k], run.ok});
    if (!run.ok) {
      result.check(false, "plan " + std::to_string(k) + " failed: " + run.error);
      continue;
    }
    const std::string bytes = wire::to_json(run.result).dump();
    digest = fnv1a(bytes, digest);
    if (k < 16) digest16 = fnv1a(bytes, digest16);
    rhos.push_back(run.result.report.overall);
    const model::ThroughputReport again =
        evaluate_plan(run.result.hierarchy, *platforms[k % platforms.size()]);
    result.check(again == run.result.report,
                 "plan " + std::to_string(k) +
                     ": report differs from model::evaluate");
  }
  // A deterministic sample re-planned directly through the registry,
  // serially and outside the service, must be bit-identical. Here
  // retained_throughput restates that check: it reads 1 on every correct
  // run (only churn measures it against an oracle).
  std::vector<double> retained;
  const IPlanner& heuristic = PlannerRegistry::instance().at("heuristic");
  for (std::size_t s = 0; s < kReplanSamples && !runs.empty(); ++s) {
    const std::size_t k = s * (runs.size() - 1) / std::max<std::size_t>(1, kReplanSamples - 1);
    if (!runs[k].ok) continue;
    const PlanResult direct = heuristic.plan(
        PlanRequest(platforms[k % platforms.size()], params, service_spec));
    result.check(same_plan(direct, runs[k].result),
                 "plan " + std::to_string(k) +
                     " differs from the direct registry plan");
    retained.push_back(runs[k].result.report.overall / direct.report.overall);
  }
  result.note("digest_all", hex64(digest));
  result.note("digest_first16", hex64(digest16));
  result.note("plans", static_cast<double>(runs.size()));

  const std::size_t n = latencies.size();
  record_tail(latencies, result);
  std::cout << "plan-cold: " << n << " plans in " << window_s << " s, digest "
            << hex64(digest) << ", first-16 digest " << hex64(digest16) << '\n';

  result.failed = result.accounting.failed();
  if (!args.trace) {
    result.e2e["setup_s"] = median(setups);
    result.e2e["latency_p50_ms"] = percentile(latencies, 50.0);
    result.e2e["latency_p90_ms"] = percentile(latencies, 90.0);
    result.e2e["ops_per_s"] = static_cast<double>(n) / window_s;
    result.e2e["goodput_rps"] = goodput_rps(responses, kLatencyLimitMs, window_s);
    result.e2e["plan_rho_mean"] = mean(rhos);
    result.e2e["retained_throughput"] = mean(retained);
    result.e2e["peak_rss_mb"] = self_peak_rss_mb();
    return result;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  const LayerSummary summary = summarize(recorder.snapshot());
  report_layers(summary, result);
  const PlanningStats stats = service->stats();
  result.layer["heuristic.calls"] = static_cast<double>(hooks.heuristic_ms.size());
  result.layer["heuristic.ms_p50"] = percentile(hooks.heuristic_ms, 50.0);
  result.layer["heuristic.busy_ms"] =
      summary.total_ms[static_cast<std::size_t>(Layer::Heuristic)];
  result.layer["heuristic.share"] =
      summary.self_ms[static_cast<std::size_t>(Layer::Heuristic)] /
      summary.root_ms;
  result.layer["model.evaluations"] = static_cast<double>(stats.evaluations);
  result.layer["service.run_ms_p50"] = percentile(service_ms, 50.0);
  result.layer["service.cache_misses"] = static_cast<double>(stats.cache_misses);
  result.layer["service.cache_hits"] = static_cast<double>(stats.cache_hits);

  // Tracing overhead: the first plans again, untraced then traced.
  const std::size_t sample = std::min<std::size_t>(6, runs.size());
  double untraced_ms = 0.0, traced_ms = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    SpanRecorder scratch;
    hooks.recorder = pass == 1 ? &scratch : nullptr;
    const std::string& name = pass == 1 ? planner : std::string("heuristic");
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < sample; ++k) {
      ScopedSpan op(pass == 1 ? &scratch : nullptr, Layer::Op, k);
      service->run(PlanRequest(platforms[k], params, service_spec), name);
    }
    (pass == 1 ? traced_ms : untraced_ms) = ms_between(t0, Clock::now());
  }
  hooks.recorder = nullptr;
  result.layer["trace.overhead_frac"] =
      untraced_ms > 0.0 ? traced_ms / untraced_ms - 1.0 : 0.0;
  recorder.write_jsonl(args.results_dir + "/plan-cold-seed" +
                       std::to_string(args.seed) + "-spans.jsonl");
  return result;
}

}  // namespace adeptbench
