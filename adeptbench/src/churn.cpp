/// \file churn.cpp
/// \brief churn: the ReplanOrchestrator repairing a served plan under the
/// g5k-310-churn catalog scenario, closed loop, trace-driven.
///
/// Every scenario seed starts from the same 310-node platform, so set-up
/// bootstraps one orchestrator and each segment starts from a copy of
/// it. A run plays consecutive scenario seeds, the first kEventsPerSeed
/// mutation events of each, until the time runs out: ~15k events over
/// several hundred seeds. Each event (the write) is applied
/// and repaired under the 10 ms per-event budget; after it the served
/// plan (the read) is re-evaluated outside the timed path. The state at
/// the end of each of the first kOracleSegments segments is kept, and
/// after the measured loop an unbudgeted oracle replan of each measures
/// how much of the achievable throughput the repaired plan retained.
///
/// Why many short segments: a fallback replan the budget cuts off costs
/// ~11 ms against ~0.15 ms for an incremental repair, and once a plan
/// drifts every later event of its seed retries the fallback. How soon
/// that happens differs widely between seeds, so a run that played a few
/// whole seeds measured which seeds it drew. A run over hundreds of seeds
/// averages that out (see README.md).

#include <algorithm>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "planner/planning_service.hpp"
#include "planner/registry.hpp"
#include "planner/replan.hpp"
#include "sim/scenario.hpp"

namespace adeptbench {

namespace {

using namespace adept;

constexpr std::size_t kEventsPerSeed = 20;  ///< Events played per segment.
constexpr double kBudgetMs = 10.0;
/// Planning threads of the orchestrator's service. On a 4-core host an
/// unbudgeted fallback replan of the 310-node platform takes 8-11 ms with
/// four threads, right at the budget, so whether fallbacks finished (and
/// drifted plans recovered) flipped with the host's speed and events/s
/// doubled or halved between runs. With one thread it takes 30-45 ms and
/// the budget cuts every fallback off (BENCH_churn.json records 50 of 51
/// cut off).
constexpr std::size_t kServiceThreads = 1;
constexpr double kLatencyLimitMs = 25.0;  ///< Goodput limit per event.
constexpr std::size_t kOracleSegments = 480;  ///< Oracle samples per run.
constexpr std::size_t kRegenerateEvery = 8;  ///< Segments per trace check.

sim::Scenario scenario_for(std::uint64_t run_seed, std::size_t segment) {
  sim::Scenario scenario = sim::catalog_scenario("g5k-310-churn");
  scenario.seed = mix_seed(run_seed, 3, 0) % 1000000000ULL + segment;
  return scenario;
}

ReplanConfig replan_config(const std::string& planner) {
  ReplanConfig config;
  config.planner = planner;
  config.budget_ms = kBudgetMs;
  return config;
}

RequestRate clipped(RequestRate rho, RequestRate demand) {
  return std::min(rho, demand);
}

/// A segment's final state, replanned by the oracle after the run.
struct OracleSample {
  std::shared_ptr<const Platform> platform;
  NodeSet down;
  RequestRate demand = 0.0;
  RequestRate served = 0.0;  ///< The served plan's throughput, clipped.
};

/// A scenario trace kept to check that it regenerates from its seed.
struct Recorded {
  sim::Scenario scenario;
  std::vector<sim::MutationEvent> trace;
};

struct LoopOutput {
  std::vector<double> latencies;   ///< step + on_event, per event.
  std::vector<double> repair_ms;   ///< RepairOutcome::wall_ms.
  std::vector<double> improve_ms;  ///< Incremental repairs only.
  std::vector<double> rhos;        ///< Served plan, demand-clipped.
  std::vector<OracleSample> oracle_samples;
  std::vector<Response> responses;
  std::vector<Recorded> recorded;
  ReplanStats stats;  ///< Summed over segments, bootstrap excluded.
  std::size_t segments = 0;
  double timed_s = 0.0;
};

void add_stats(ReplanStats& into, const ReplanStats& s, const ReplanStats& base) {
  into.events += s.events - base.events;
  into.prunes += s.prunes - base.prunes;
  into.incremental += s.incremental - base.incremental;
  into.full += s.full - base.full;
  into.full_skipped += s.full_skipped - base.full_skipped;
  into.full_failed += s.full_failed - base.full_failed;
}

/// The set-up every run repeats: the service, the first segment's engine
/// and the bootstrapped orchestrator each segment copies.
struct Bootstrapped {
  std::unique_ptr<PlanningService> service;
  std::unique_ptr<ReplanOrchestrator> orchestrator;
  Platform platform;
};

Bootstrapped bootstrap(std::uint64_t seed, const std::string& planner) {
  Bootstrapped b;
  b.service = std::make_unique<PlanningService>(kServiceThreads);
  const sim::ScenarioEngine engine(scenario_for(seed, 0));
  b.orchestrator = std::make_unique<ReplanOrchestrator>(
      *b.service, bench_params(), bench_service(), replan_config(planner));
  b.orchestrator->bootstrap(engine.platform(), engine.down(), engine.demand());
  b.platform = engine.platform();
  return b;
}

/// Plays segments until `stop` or `max_segments`, repairing every event.
LoopOutput play(const Args& args, const Bootstrapped& boot, Clock::time_point stop,
                std::size_t max_segments, SpanRecorder* rec, bool checks,
                RunResult& result) {
  LoopOutput out;
  TraceHooks& hooks = trace_hooks();
  std::uint64_t op = 0;
  for (std::size_t s = 0; s < max_segments && Clock::now() < stop; ++s) {
    ++out.segments;
    sim::ScenarioEngine engine(scenario_for(args.seed, s));
    if (checks) {
      result.check(engine.platform() == boot.platform && engine.down().empty(),
                   "scenario seed does not start from the bootstrapped platform");
      if (s % kRegenerateEvery == 0)
        out.recorded.push_back({engine.scenario(), engine.trace()});
    }
    ReplanOrchestrator orchestrator(*boot.orchestrator);
    for (std::size_t e = 0; e < kEventsPerSeed && !engine.done(); ++e) {
      const auto t0 = Clock::now();
      RepairOutcome outcome;
      {
        ScopedSpan root(rec, Layer::Op, op);  // the timed event only
        const sim::MutationEvent* event = nullptr;
        {
          ScopedSpan step(rec, Layer::Platform, op, root.id());
          event = &engine.step();
        }
        ScopedSpan replan(rec, Layer::Replan, op, root.id());
        hooks.parent = replan.id();
        hooks.request = op;
        outcome = orchestrator.on_event(*event, engine.platform(), engine.down(),
                                        engine.demand());
      }
      const double latency = ms_between(t0, Clock::now());
      ++op;
      out.latencies.push_back(latency);
      out.repair_ms.push_back(outcome.wall_ms);
      if (outcome.action == RepairAction::Incremental)
        out.improve_ms.push_back(outcome.wall_ms);
      out.timed_s += latency / 1000.0;
      const bool ok = outcome.action != RepairAction::FullFailed;
      result.accounting.add(ok ? Outcome::Ok : Outcome::Error);
      out.responses.push_back({latency, ok});
      if (!ok) result.check(false, "fallback replan errored: " + outcome.detail);

      // The read beside the write: the served plan, outside the timed path.
      const Hierarchy& served = orchestrator.hierarchy();
      const RequestRate demand = engine.demand();
      out.rhos.push_back(clipped(orchestrator.report().overall, demand));
      if (!checks || served.empty()) continue;
      bool uses_down = false;
      for (Hierarchy::Index i = 0; i < served.size(); ++i)
        uses_down = uses_down || engine.down().contains(served.node_of(i));
      result.check(!uses_down, "served plan uses a node that is down");
      result.check(evaluate_plan(served, engine.platform()).overall ==
                       orchestrator.report().overall,
                   "served plan does not re-evaluate to its reported throughput");
    }
    add_stats(out.stats, orchestrator.stats(), boot.orchestrator->stats());
    if (checks && s < kOracleSegments)
      out.oracle_samples.push_back(
          {std::make_shared<const Platform>(engine.platform()), engine.down(),
           engine.demand(), clipped(orchestrator.report().overall, engine.demand())});
  }
  return out;
}

/// Served over oracle throughput for each sample; the oracle is the
/// unbudgeted heuristic on the sample's platform, down set and demand.
std::vector<double> retained(const std::vector<OracleSample>& samples,
                             RunResult& result) {
  PlanningService service(host_cores());
  std::vector<PlanningService::Job> jobs;
  for (const OracleSample& sample : samples) {
    PlanRequest request(sample.platform, bench_params(), bench_service());
    request.options.demand = sample.demand;
    request.options.excluded = sample.down;
    request.options.verbose_trace = false;
    jobs.push_back({std::move(request), "heuristic"});
  }
  const std::vector<PlannerRun> runs = service.run_batch(jobs);
  std::vector<double> ratios;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    result.check(runs[k].ok, "oracle replan failed: " + runs[k].error);
    const RequestRate oracle = clipped(runs[k].result.report.overall, samples[k].demand);
    if (runs[k].ok && oracle > 0.0)
      ratios.push_back(std::min(1.0, samples[k].served / oracle));
  }
  return ratios;
}

}  // namespace

RunResult run_churn(const Args& args) {
  RunResult result;
  TraceHooks& hooks = trace_hooks();
  const std::string planner = args.trace ? traced_heuristic_planner() : "heuristic";

  // ---- set-up, seven times (it takes ~50 ms): service, first engine,
  // bootstrap ----------------------------------------------------------
  Bootstrapped boot;
  std::vector<double> setups;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    boot.orchestrator.reset();  // before the service it refers to
    boot.service.reset();
    boot = bootstrap(args.seed, planner);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  hooks.recorder = rec;
  // The bootstrap's own heuristic call is set-up, not a measured event.
  {
    std::lock_guard<std::mutex> lock(hooks.mutex);
    hooks.heuristic_ms.clear();
  }

  // ---- measured closed loop -------------------------------------------
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(args.seconds));
  LoopOutput out = play(args, boot, stop, static_cast<std::size_t>(-1), rec, true,
                        result);
  hooks.recorder = nullptr;

  // ---- output checks: sampled traces regenerate from their seeds --------
  for (const Recorded& r : out.recorded)
    result.check(sim::ScenarioEngine(r.scenario).trace() == r.trace,
                 "scenario seed " + std::to_string(r.scenario.seed) +
                     " does not regenerate bit-identically");

  const std::size_t n = out.latencies.size();
  result.note("segments", static_cast<double>(out.segments));
  result.note("events_per_segment", static_cast<double>(kEventsPerSeed));
  result.note("traces_regenerated", static_cast<double>(out.recorded.size()));
  record_tail(out.latencies, result);
  std::cout << "churn: " << n << " events over " << out.segments
            << " scenario seeds, " << out.timed_s << " s timed; incremental "
            << out.stats.incremental << ", full " << out.stats.full
            << ", full_skipped " << out.stats.full_skipped << ", p99 "
            << percentile(out.latencies, 99.0) << " ms\n";

  result.failed = result.accounting.failed();
  if (!args.trace) {
    result.e2e["setup_s"] = median(setups);
    result.e2e["latency_p50_ms"] = percentile(out.latencies, 50.0);
    result.e2e["latency_p90_ms"] = percentile(out.latencies, 90.0);
    result.e2e["ops_per_s"] = static_cast<double>(n) / out.timed_s;
    result.e2e["goodput_rps"] =
        goodput_rps(out.responses, kLatencyLimitMs, out.timed_s);
    result.e2e["plan_rho_mean"] = mean(out.rhos);
    const std::vector<double> kept = retained(out.oracle_samples, result);
    result.note("oracle_samples", static_cast<double>(kept.size()));
    result.e2e["retained_throughput"] = mean(kept);
    result.e2e["peak_rss_mb"] = self_peak_rss_mb();
    return result;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  const LayerSummary summary = summarize(recorder.snapshot());
  report_layers(summary, result);
  const PlanningStats pstats = boot.service->stats();
  const ReplanStats& rs = out.stats;
  result.layer["heuristic.calls"] = static_cast<double>(hooks.heuristic_ms.size());
  result.layer["heuristic.ms_p50"] = percentile(hooks.heuristic_ms, 50.0);
  result.layer["heuristic.busy_ms"] =
      summary.total_ms[static_cast<std::size_t>(Layer::Heuristic)];
  result.layer["heuristic.share"] =
      summary.self_ms[static_cast<std::size_t>(Layer::Heuristic)] / summary.root_ms;
  result.layer["model.evaluations"] = static_cast<double>(pstats.evaluations);
  result.layer["model.improve_ms_p50"] = percentile(out.improve_ms, 50.0);
  result.layer["service.cache_hits"] = static_cast<double>(pstats.cache_hits);
  result.layer["service.cache_misses"] = static_cast<double>(pstats.cache_misses);
  result.layer["replan.event_ms_p50"] = percentile(out.repair_ms, 50.0);
  result.layer["replan.event_ms_p99"] = percentile(out.repair_ms, 99.0);
  result.layer["replan.incremental"] = static_cast<double>(rs.incremental);
  result.layer["replan.full"] = static_cast<double>(rs.full);
  result.layer["replan.full_skipped"] = static_cast<double>(rs.full_skipped);
  result.layer["replan.full_failed"] = static_cast<double>(rs.full_failed);
  result.layer["replan.prunes"] = static_cast<double>(rs.prunes);
  result.layer["replan.full_adopted_frac"] =
      rs.full + rs.full_skipped > 0
          ? static_cast<double>(rs.full) / static_cast<double>(rs.full + rs.full_skipped)
          : 0.0;

  // Tracing overhead: the first segments again, untraced then traced.
  constexpr std::size_t kSampleSegments = 100;
  double timed[2] = {0.0, 0.0};
  const Bootstrapped plain = bootstrap(args.seed, "heuristic");
  for (int pass = 0; pass < 2; ++pass) {
    SpanRecorder scratch;
    hooks.recorder = pass == 1 ? &scratch : nullptr;
    RunResult ignored;
    const LoopOutput o = play(args, pass == 1 ? boot : plain,
                              Clock::now() + std::chrono::seconds(30), kSampleSegments,
                              pass == 1 ? &scratch : nullptr, false, ignored);
    timed[pass] = o.timed_s;
  }
  hooks.recorder = nullptr;
  result.layer["trace.overhead_frac"] = timed[0] > 0.0 ? timed[1] / timed[0] - 1.0 : 0.0;
  recorder.write_jsonl(args.results_dir + "/churn-seed" +
                       std::to_string(args.seed) + "-spans.jsonl");
  return result;
}

}  // namespace adeptbench
