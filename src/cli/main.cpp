/// \file main.cpp
/// \brief `adept` — the command-line front end (the ADePT tool the paper's
/// conclusion announces).
///
/// Subcommands:
///   generate   write a synthetic platform description file
///   plan       run a planner on a platform file, print / export the plan
///   predict    evaluate a deployment XML with the throughput model
///   simulate   run the discrete-event simulator against a deployment XML,
///              or (--scenario) a churn scenario with online replanning
///   serve      answer JSON-lines planning requests on stdin/stdout
///   metrics    render a recorded metrics snapshot (table / json / prom)
///   calibrate  reproduce the Table 3 measurement procedure on this host
///
/// plan / predict / repair take `--json` for machine-readable output in
/// the wire format (io/wire.hpp) instead of the human tables.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "deploy/launcher.hpp"
#include "dist/coordinator.hpp"
#include "dist/transport.hpp"
#include "hierarchy/dot.hpp"
#include "hierarchy/xml.hpp"
#include "io/serve.hpp"
#include "io/wire.hpp"
#include "model/evaluate.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "planner/planner.hpp"
#include "planner/planning_service.hpp"
#include "planner/registry.hpp"
#include "planner/replan.hpp"
#include "platform/generator.hpp"
#include "platform/io.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "workload/calibration.hpp"

namespace {

using namespace adept;

ServiceSpec parse_service(const std::string& spec) {
  // Accept "dgemm-310" / "dgemm:310" or a raw MFlop count.
  if (strings::starts_with(spec, "dgemm-") || strings::starts_with(spec, "dgemm:")) {
    const auto n = strings::parse_int(spec.substr(6));
    ADEPT_CHECK(n.has_value() && *n > 0, "bad DGEMM size in '" + spec + "'");
    return dgemm_service(static_cast<std::size_t>(*n));
  }
  const auto wapp = strings::parse_double(spec);
  ADEPT_CHECK(wapp.has_value() && *wapp > 0.0,
              "service must be dgemm-<n> or a positive MFlop count");
  return ServiceSpec{"custom", *wapp};
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ADEPT_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  ADEPT_CHECK(out.good(), "write to '" + path + "' failed");
}

/// Writes the GoDIET XML (--xml) and Graphviz DOT (--dot) exports of
/// `hierarchy` for whichever of the two the command line asked for.
void write_exports(const ArgParser& parser, const Hierarchy& hierarchy,
                   const Platform& platform) {
  if (parser.has("xml"))
    write_file(parser.get("xml"), write_godiet_xml(hierarchy, platform));
  if (parser.has("dot"))
    write_file(parser.get("dot"), write_dot(hierarchy, platform));
}

/// The planning-service sizing flags `plan`, `simulate --scenario` and
/// `serve` share: declared by add_service_flags() (`--shard-cache`
/// defaults differ per command), validated by service_flags().
struct ServiceFlags {
  std::size_t jobs = 0;
  std::size_t shard_cache = 0;
};

void add_service_flags(ArgParser& parser,
                       const std::string& shard_cache_default) {
  parser.add_option("jobs", "planning service worker threads (0 = all cores)",
                    "0");
  parser.add_option("shard-cache",
                    "shard-level sub-plan cache capacity in entries, used by "
                    "sharded/distributed planning (0 disables)",
                    shard_cache_default);
}

ServiceFlags service_flags(const ArgParser& parser) {
  const long long jobs = parser.get_int("jobs");
  const long long shard_cache = parser.get_int("shard-cache");
  ADEPT_CHECK(jobs >= 0, "--jobs must be >= 0");
  ADEPT_CHECK(shard_cache >= 0, "--shard-cache must be >= 0");
  return {static_cast<std::size_t>(jobs),
          static_cast<std::size_t>(shard_cache)};
}

void print_plan_summary(const PlanResult& plan, const Platform& platform) {
  const auto& r = plan.report;
  std::cout << "nodes used      : " << plan.nodes_used() << " of "
            << platform.size() << " (" << plan.hierarchy.agent_count()
            << " agents, " << plan.hierarchy.server_count() << " servers)\n";
  std::cout << "tree depth      : " << plan.hierarchy.max_depth()
            << ", max degree: " << plan.hierarchy.max_degree() << "\n";
  std::cout << "rho (overall)   : " << r.overall << " req/s\n";
  std::cout << "rho_sched       : " << r.sched << " req/s\n";
  std::cout << "rho_service     : " << r.service << " req/s\n";
  std::cout << "bottleneck      : " << model::bottleneck_name(r.bottleneck)
            << "\n";
  for (const auto& line : plan.trace) std::cout << "trace           : " << line << "\n";
}

int cmd_generate(const std::vector<std::string>& args) {
  ArgParser parser("adept generate", "Write a synthetic platform file.");
  parser.add_option("kind", "homogeneous|uniform|bimodal|clustered|power-law|orsay",
                    "uniform");
  parser.add_option("count", "number of nodes", "50");
  parser.add_option("power", "nominal node power, MFlop/s", "1000");
  parser.add_option("min", "minimum power (uniform/power-law)", "200");
  parser.add_option("max", "maximum power (uniform/power-law)", "1200");
  parser.add_option("bandwidth", "link bandwidth, Mbit/s", "1000");
  parser.add_option("seed", "RNG seed", "1");
  parser.add_option("links", "heterogeneous links: lo:hi in Mbit/s");
  parser.add_option("out", "output file (default: stdout)");
  parser.parse(args);

  const auto count = static_cast<std::size_t>(parser.get_int("count"));
  const MbitRate bandwidth = parser.get_double("bandwidth");
  Rng rng(static_cast<std::uint64_t>(parser.get_int("seed")));
  const std::string kind = parser.get("kind");

  Platform platform;
  if (kind == "homogeneous")
    platform = gen::homogeneous(count, parser.get_double("power"), bandwidth);
  else if (kind == "uniform")
    platform = gen::uniform(count, parser.get_double("min"),
                            parser.get_double("max"), bandwidth, rng);
  else if (kind == "bimodal")
    platform = gen::bimodal(count, parser.get_double("power"), 0.5, 0.4,
                            bandwidth, rng);
  else if (kind == "clustered")
    platform = gen::clustered(count, 4, parser.get_double("power"), 0.5, bandwidth);
  else if (kind == "power-law")
    platform = gen::power_law(count, parser.get_double("min"),
                              parser.get_double("max"), 1.5, bandwidth, rng);
  else if (kind == "orsay")
    platform = gen::grid5000_orsay_loaded(count, rng);
  else
    throw Error("unknown platform kind '" + kind + "'\n" + parser.usage());

  if (parser.has("links")) {
    const auto bounds = strings::split(parser.get("links"), ':');
    ADEPT_CHECK(bounds.size() == 2, "--links expects lo:hi");
    const auto lo = strings::parse_double(bounds[0]);
    const auto hi = strings::parse_double(bounds[1]);
    ADEPT_CHECK(lo && hi, "--links expects numeric lo:hi");
    platform = gen::with_heterogeneous_links(std::move(platform), *lo, *hi, rng);
  }

  const std::string text = io::serialize_platform(platform);
  if (parser.has("out"))
    write_file(parser.get("out"), text);
  else
    std::cout << text;
  return 0;
}

/// Maps a comma-separated host-name list onto node ids of `platform`.
NodeSet parse_host_set(const Platform& platform, const std::string& csv) {
  NodeSet out;
  for (const std::string& name : strings::split(csv, ',')) {
    bool found = false;
    for (NodeId id = 0; id < platform.size(); ++id) {
      if (platform.node(id).name == name) {
        out.insert(id);
        found = true;
        break;
      }
    }
    ADEPT_CHECK(found, "no node named '" + name + "' in the platform");
  }
  return out;
}

/// Parses a --shards value: "auto" (the planner partitions by cluster
/// labels / affinity) maps to 0, anything else must be a count >= 1.
std::size_t parse_shards(const std::string& text) {
  if (text == "auto") return 0;
  const auto count = strings::parse_int(text);
  ADEPT_CHECK(count.has_value() && *count >= 1,
              "--shards expects 'auto' or a count >= 1, got '" + text + "'");
  return static_cast<std::size_t>(*count);
}

int list_planners() {
  Table table("Registered planners (adept plan --planner <name|portfolio>)");
  table.set_header({"name", "demand", "links", "degree", "shards", "summary"});
  for (const IPlanner* planner : PlannerRegistry::instance().all()) {
    const PlannerInfo& info = planner->info();
    table.add_row({info.name, info.caps.demand_aware ? "yes" : "-",
                   info.caps.link_aware ? "yes" : "-",
                   info.caps.degree_parameterised ? "yes" : "-",
                   info.caps.shard_aware ? "yes" : "-", info.summary});
  }
  std::cout << table;
  std::cout << "'portfolio' runs every applicable planner concurrently and "
               "keeps the best plan.\n";
  return 0;
}

int cmd_plan(const std::vector<std::string>& args) {
  if (std::find(args.begin(), args.end(), "--list-planners") != args.end())
    return list_planners();

  ArgParser parser("adept plan", "Plan a deployment for a platform file.");
  parser.add_positional("platform", "platform description file");
  parser.add_option("planner", "planner name or 'portfolio' (see --list-planners)",
                    "heuristic");
  parser.add_option("service", "dgemm-<n> or MFlop per request", "dgemm-310");
  parser.add_option("demand", "client demand in req/s (demand-aware planners)");
  parser.add_option("degree", "tree degree (degree-parameterised planners)", "0");
  parser.add_option("shards", "shard count for the sharded planner: auto|N",
                    "auto");
  parser.add_option("exclude", "comma-separated host names never to deploy");
  add_service_flags(parser, "0");
  parser.add_option("workers",
                    "distributed planner only: spawn this many `adept serve` "
                    "subprocesses as the worker fleet");
  parser.add_option("connect",
                    "distributed planner only: comma-separated "
                    "host:port endpoints of `adept serve --listen` "
                    "processes; the fleet is TCP sessions instead of "
                    "subprocesses (--workers sessions, default one per "
                    "endpoint)");
  parser.add_flag("list-planners", "print the planner registry and exit");
  parser.add_flag("json", "print the wire-format JSON result instead of tables");
  parser.add_option("xml", "write GoDIET XML to this file");
  parser.add_option("dot", "write Graphviz DOT to this file");
  parser.parse(args);

  const Platform platform = io::load_platform(parser.get("platform"));
  PlanRequest request(platform, MiddlewareParams::diet_grid5000(),
                      parse_service(parser.get("service")));
  if (parser.has("demand")) request.options.demand = parser.get_double("demand");
  request.options.degree = static_cast<std::size_t>(parser.get_int("degree"));
  request.options.shards = parse_shards(parser.get("shards"));
  if (parser.has("exclude"))
    request.options.excluded = parse_host_set(platform, parser.get("exclude"));

  const std::string planner = parser.get("planner");
  const ServiceFlags flags = service_flags(parser);
  PlanningService service(flags.jobs, PlannerRegistry::instance(),
                          CacheConfig{0, flags.shard_cache, true});

  const bool as_json = parser.get_flag("json");
  PlanResult plan;
  if (planner == "portfolio") {
    const PortfolioResult portfolio = service.run_portfolio(request);
    if (as_json) {
      std::cout << wire::to_json(portfolio).dump() << "\n";
      // The winner is only needed to feed the export writers (best()
      // throws when every planner failed); a winnerless portfolio is
      // already fully described by the JSON.
      if (parser.has("xml") || parser.has("dot"))
        write_exports(parser, portfolio.best().result.hierarchy, platform);
      return portfolio.has_winner() ? 0 : 1;
    }
    Table table("Portfolio (" + std::to_string(service.thread_count()) +
                " worker threads)");
    // The rho column is the exact scale the winner is chosen on:
    // `scores` (per-link evaluator on heterogeneous links, where raw
    // planner reports are beliefs under different evaluators), clipped to
    // the demand when one is set (beyond it, only deployment size counts).
    const bool capped = std::isfinite(request.options.demand);
    table.set_header({"planner", capped ? "rho (req/s, capped)" : "rho (req/s)",
                      "nodes", "evals", "wall (ms)", "status"});
    for (std::size_t i = 0; i < portfolio.runs.size(); ++i) {
      const auto& run = portfolio.runs[i];
      const RequestRate rho =
          std::min(portfolio.scores[i], request.options.demand);
      table.add_row(
          {run.planner, run.ok ? Table::num(rho, 1) : "-",
           run.ok ? Table::num(static_cast<long long>(run.result.nodes_used()))
                  : "-",
           Table::num(static_cast<long long>(run.evaluations)),
           Table::num(run.wall_ms, 2), run.ok ? "ok" : run.error});
    }
    std::cout << table;
    if (capped)
      std::cout << "demand: " << request.options.demand
                << " req/s — rho is capped there; on ties the smallest "
                   "deployment wins\n";
    std::cout << "winner: " << portfolio.best().planner << "\n\n";
    plan = portfolio.best().result;
  } else {
    PlannerRun run;
    if (parser.has("workers") || parser.has("connect")) {
      // A real distributed run: the fleet is `adept serve` subprocesses
      // of this very binary spoken to over stdin/stdout pipes, or — with
      // --connect — TCP sessions on already-running `adept serve
      // --listen` processes. The result is bit-identical to the
      // in-process registry path (and to --planner sharded); only the
      // latency profile changes.
      ADEPT_CHECK(planner == "distributed",
                  "--workers/--connect only apply to --planner distributed");
      std::unique_ptr<dist::Transport> transport;
      std::size_t fleet_size = 0;
      if (parser.has("connect")) {
        std::vector<std::string> endpoints;
        std::istringstream list(parser.get("connect"));
        for (std::string endpoint; std::getline(list, endpoint, ',');)
          if (!endpoint.empty()) endpoints.push_back(endpoint);
        ADEPT_CHECK(!endpoints.empty(),
                    "--connect needs at least one host:port endpoint");
        fleet_size = endpoints.size();
        transport =
            std::make_unique<dist::SocketTransport>(std::move(endpoints));
      } else {
        transport =
            std::make_unique<dist::PipeTransport>(dist::self_serve_command());
      }
      if (parser.has("workers")) {
        const long long workers = parser.get_int("workers");
        ADEPT_CHECK(workers >= 1, "--workers must be >= 1");
        fleet_size = static_cast<std::size_t>(workers);
      }
      dist::WorkerPoolConfig fleet_config;
      fleet_config.respawn = true;
      dist::WorkerPool fleet(*transport, fleet_size, fleet_config);
      dist::Coordinator coordinator(fleet);
      // The coordinator path bypasses the PlanningService, so hand it a
      // coordinator-side shard cache directly: repeated/overlapping shard
      // content is answered locally and never dispatched to the fleet.
      ShardPlanCache coordinator_cache(flags.shard_cache);
      if (flags.shard_cache > 0)
        request.options.shard_cache = &coordinator_cache;
      run = run_planner(planner, request.options,
                        [&] { return coordinator.plan(request); });
    } else {
      run = service.run(request, planner);
    }
    if (!run.ok) throw Error("planner '" + planner + "' failed: " + run.error);
    if (as_json) {
      std::cout << wire::to_json(run).dump() << "\n";
      write_exports(parser, run.result.hierarchy, platform);
      return 0;
    }
    std::cout << "planner         : " << planner << " ("
              << Table::num(run.wall_ms, 2) << " ms, "
              << run.evaluations << " model evaluations)\n";
    plan = std::move(run.result);
  }

  print_plan_summary(plan, platform);
  write_exports(parser, plan.hierarchy, platform);
  return 0;
}

Deployment load_deployment(const std::string& path) {
  std::ifstream in(path);
  ADEPT_CHECK(in.good(), "cannot open deployment file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_godiet_xml(buffer.str());
}

int cmd_predict(const std::vector<std::string>& args) {
  ArgParser parser("adept predict",
                   "Evaluate a deployment XML with the throughput model.");
  parser.add_positional("deployment", "GoDIET-style XML file");
  parser.add_option("service", "dgemm-<n> or MFlop per request", "dgemm-310");
  parser.add_flag("json", "print the wire-format JSON report instead of text");
  parser.parse(args);

  const Deployment deployment = load_deployment(parser.get("deployment"));
  const MiddlewareParams params = MiddlewareParams::diet_grid5000();
  const ServiceSpec service = parse_service(parser.get("service"));
  const auto report =
      model::evaluate(deployment.hierarchy, deployment.platform, params, service);
  if (parser.get_flag("json")) {
    std::cout << wire::to_json(report).dump() << "\n";
    return 0;
  }
  std::cout << "rho (overall) : " << report.overall << " req/s\n";
  std::cout << "rho_sched     : " << report.sched << " req/s\n";
  std::cout << "rho_service   : " << report.service << " req/s\n";
  std::cout << "bottleneck    : " << model::bottleneck_name(report.bottleneck)
            << "\n";
  return 0;
}

int list_scenarios() {
  Table table("Scenario catalog (adept simulate --scenario <name|file>)");
  table.set_header({"name", "summary"});
  for (const auto& entry : sim::scenario_catalog())
    table.add_row({entry.name, entry.summary});
  std::cout << table;
  std::cout << "platform presets: ";
  bool first = true;
  for (const auto& entry : gen::platform_catalog()) {
    std::cout << (first ? "" : ", ") << entry.name;
    first = false;
  }
  std::cout << "\n";
  return 0;
}

/// Resolves --scenario: a readable file holds a recording or a bare
/// scenario in wire JSON; anything else is a catalog name.
struct ResolvedScenario {
  sim::Scenario scenario;
  std::optional<std::vector<sim::MutationEvent>> recorded_trace;
};

ResolvedScenario resolve_scenario(const std::string& ref) {
  std::ifstream in(ref);
  if (!in.good()) return {sim::catalog_scenario(ref), std::nullopt};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  if (doc.find("scenario") != nullptr) {
    sim::ScenarioRecording recording = wire::recording_from_json(doc);
    return {std::move(recording.scenario), std::move(recording.trace)};
  }
  return {wire::scenario_from_json(doc), std::nullopt};
}

int cmd_simulate_scenario(const std::vector<std::string>& args) {
  ArgParser parser(
      "adept simulate --scenario",
      "Run a churn scenario: an event-driven platform mutation stream with "
      "budgeted online replanning (see --list-scenarios for the catalog).");
  parser.add_option("scenario", "catalog scenario name or JSON file");
  parser.add_option("service", "dgemm-<n> or MFlop per request", "dgemm-310");
  parser.add_option("budget", "per-event repair budget in ms (0 = unbudgeted)",
                    "10");
  parser.add_option("drift", "full-replan fallback threshold in (0,1]", "0.85");
  parser.add_option("planner", "full-replan planner", "heuristic");
  parser.add_option("shards", "shard-local repair: auto|N (omit for global "
                              "repair)");
  add_service_flags(parser, "0");
  parser.add_option("events", "stop after this many events (0 = all)", "0");
  parser.add_option("record", "write the scenario + expanded trace to this file");
  parser.add_flag("replay", "input must be a recording; verify the trace "
                            "regenerates bit-identically, then run it");
  parser.add_flag("json", "print a wire-format JSON summary instead of tables");
  parser.add_flag("list-scenarios", "print the scenario catalog and exit");
  parser.parse(args);

  ResolvedScenario resolved = resolve_scenario(parser.get("scenario"));
  const sim::Scenario& scenario = resolved.scenario;

  bool replay_verified = false;
  if (parser.get_flag("replay")) {
    ADEPT_CHECK(resolved.recorded_trace.has_value(),
                "--replay needs a recording file (scenario + trace)");
    const sim::ScenarioEngine regenerated(scenario);
    ADEPT_CHECK(regenerated.trace() == *resolved.recorded_trace,
                "recorded trace does not regenerate bit-identically from the "
                "scenario seed");
    replay_verified = true;
  }

  sim::ScenarioEngine engine =
      resolved.recorded_trace.has_value()
          ? sim::ScenarioEngine(scenario, *resolved.recorded_trace)
          : sim::ScenarioEngine(scenario);

  const ServiceFlags flags = service_flags(parser);
  PlanningService service(flags.jobs);
  ReplanConfig config;
  config.planner = parser.get("planner");
  config.budget_ms = parser.get_double("budget");
  config.drift_threshold = parser.get_double("drift");
  if (parser.has("shards")) config.shards = parse_shards(parser.get("shards"));
  if (flags.shard_cache > 0)
    config.cache = CacheConfig{0, flags.shard_cache, true};
  ReplanOrchestrator orchestrator(service, MiddlewareParams::diet_grid5000(),
                                  parse_service(parser.get("service")), config);

  const auto start = std::chrono::steady_clock::now();
  const RepairOutcome boot =
      orchestrator.bootstrap(engine.platform(), engine.down(), engine.demand());
  ADEPT_CHECK(!orchestrator.hierarchy().empty(),
              "bootstrap replan produced no plan (" + boot.detail + ")");
  const RequestRate initial = orchestrator.report().overall;

  const auto cap = static_cast<std::size_t>(parser.get_int("events"));
  std::map<std::string, std::size_t> by_kind;
  std::size_t processed = 0;
  while (!engine.done() && (cap == 0 || processed < cap)) {
    const sim::MutationEvent& event = engine.step();
    ++by_kind[sim::mutation_kind_name(event.kind)];
    orchestrator.on_event(event, engine.platform(), engine.down(),
                          engine.demand());
    ++processed;
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const ReplanStats& stats = orchestrator.stats();
  const double events_per_s =
      stats.wall_ms > 0.0 ? 1000.0 * static_cast<double>(processed) /
                                stats.wall_ms
                          : 0.0;

  if (parser.has("record")) {
    sim::ScenarioRecording recording{scenario, engine.trace()};
    write_file(parser.get("record"), wire::to_json(recording).dump() + "\n");
  }

  if (parser.get_flag("json")) {
    json::Value counters = json::Value::object();
    for (const auto& [kind, count] : by_kind) counters.set(kind, count);
    json::Value repair = json::Value::object();
    repair.set("events", stats.events);
    repair.set("prunes", stats.prunes);
    repair.set("incremental", stats.incremental);
    repair.set("full", stats.full);
    repair.set("full_skipped", stats.full_skipped);
    repair.set("full_failed", stats.full_failed);
    repair.set("drift_fallbacks", stats.drift_fallbacks);
    repair.set("structural_fallbacks", stats.structural_fallbacks);
    repair.set("repair_wall_ms", stats.wall_ms);
    json::Value out = json::Value::object();
    out.set("scenario", scenario.name);
    out.set("events", processed);
    out.set("events_by_kind", std::move(counters));
    out.set("repairs", std::move(repair));
    out.set("events_per_s", events_per_s);
    out.set("wall_ms", wall_ms);
    out.set("initial_throughput", initial);
    out.set("final", wire::to_json(orchestrator.report()));
    out.set("final_nodes_used", orchestrator.hierarchy().size());
    if (parser.get_flag("replay")) out.set("replay_verified", replay_verified);
    std::cout << out.dump() << "\n";
    return 0;
  }

  std::cout << "scenario        : " << scenario.name << " ("
            << engine.trace().size() << " events over " << scenario.duration
            << " s simulated)\n";
  std::cout << "platform        : " << engine.platform().size() << " nodes, "
            << engine.down().size() << " down at end\n";
  if (replay_verified)
    std::cout << "replay          : trace regenerated bit-identically\n";
  Table events_table("Mutation events processed");
  events_table.set_header({"kind", "count"});
  for (const auto& [kind, count] : by_kind)
    events_table.add_row({kind, Table::num(static_cast<long long>(count))});
  std::cout << events_table;
  Table repair_table("Online repairs (budget " +
                     Table::num(config.budget_ms, 1) + " ms/event)");
  repair_table.set_header({"prunes", "incremental", "full", "full skipped",
                           "full failed", "drift fallbacks", "structural"});
  repair_table.add_row(
      {Table::num(static_cast<long long>(stats.prunes)),
       Table::num(static_cast<long long>(stats.incremental)),
       Table::num(static_cast<long long>(stats.full)),
       Table::num(static_cast<long long>(stats.full_skipped)),
       Table::num(static_cast<long long>(stats.full_failed)),
       Table::num(static_cast<long long>(stats.drift_fallbacks)),
       Table::num(static_cast<long long>(stats.structural_fallbacks))});
  std::cout << repair_table;
  std::cout << "throughput      : " << initial << " -> "
            << orchestrator.report().overall << " req/s predicted ("
            << orchestrator.hierarchy().size() << " nodes deployed)\n";
  std::cout << "repair pace     : " << Table::num(events_per_s, 1)
            << " events/s sustained (" << Table::num(stats.wall_ms, 1)
            << " ms repairing, " << Table::num(wall_ms, 1) << " ms total)\n";
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
  const auto has = [&](const char* flag) {
    return std::find(args.begin(), args.end(), flag) != args.end();
  };
  if (has("--list-scenarios")) return list_scenarios();
  if (has("--scenario") ||
      std::find_if(args.begin(), args.end(), [](const std::string& a) {
        return strings::starts_with(a, "--scenario=");
      }) != args.end())
    return cmd_simulate_scenario(args);

  ArgParser parser("adept simulate",
                   "Run the discrete-event simulator on a deployment XML. "
                   "`adept simulate --scenario <name> --help` lists the "
                   "churn-scenario options instead.");
  parser.add_positional("deployment", "GoDIET-style XML file");
  parser.add_option("service", "dgemm-<n> or MFlop per request", "dgemm-310");
  parser.add_option("clients", "number of concurrent clients", "50");
  parser.add_option("measure", "measurement window, seconds", "8");
  parser.parse(args);

  const Deployment deployment = load_deployment(parser.get("deployment"));
  const MiddlewareParams params = MiddlewareParams::diet_grid5000();
  const ServiceSpec service = parse_service(parser.get("service"));
  sim::SimConfig config;
  config.measure = parser.get_double("measure");
  const auto result =
      sim::simulate(deployment.hierarchy, deployment.platform, params, service,
                    static_cast<std::size_t>(parser.get_int("clients")), config);
  std::cout << "throughput          : " << result.throughput << " req/s\n";
  std::cout << "completed (window)  : " << result.completed_in_window << "\n";
  std::cout << "mean response time  : " << result.mean_response_time << " s\n";
  return 0;
}

int cmd_repair(const std::vector<std::string>& args) {
  ArgParser parser("adept repair",
                   "Replan a deployment around hosts that failed to launch: "
                   "prune their subtrees, then regrow from the surviving "
                   "spare nodes (failed hosts are excluded via PlanOptions).");
  parser.add_positional("deployment", "GoDIET-style XML file");
  parser.add_option("failed", "comma-separated host names that failed");
  parser.add_option("service", "dgemm-<n> or MFlop per request", "dgemm-310");
  parser.add_option("xml", "write the repaired GoDIET XML to this file");
  parser.add_flag("json", "print the wire-format JSON plan instead of text");
  parser.parse(args);

  const Deployment deployment = load_deployment(parser.get("deployment"));
  const MiddlewareParams params = MiddlewareParams::diet_grid5000();
  const ServiceSpec service = parse_service(parser.get("service"));
  const NodeSet failed =
      parser.has("failed")
          ? parse_host_set(deployment.platform, parser.get("failed"))
          : NodeSet{};

  const bool as_json = parser.get_flag("json");
  const auto before = model::evaluate(deployment.hierarchy, deployment.platform,
                                      params, service);
  if (!as_json)
    std::cout << "before          : " << before.overall << " req/s on "
              << deployment.hierarchy.size() << " nodes, "
              << failed.size() << " host(s) failed\n";

  const auto repaired =
      deploy::repair(deployment.hierarchy, deployment.platform, failed, params,
                     service);
  ADEPT_CHECK(repaired.has_value(),
              "nothing survives the failures (root lost or no server left)");
  const PlanResult plan =
      make_plan(*repaired, deployment.platform, params, service);
  if (as_json) {
    json::Value out = json::Value::object();
    out.set("before", wire::to_json(before));
    out.set("plan", wire::to_json(plan));
    std::cout << out.dump() << "\n";
  } else {
    print_plan_summary(plan, deployment.platform);
  }
  write_exports(parser, plan.hierarchy, deployment.platform);
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  ArgParser parser(
      "adept serve",
      "Answer JSON-lines planning requests on stdin, one JSON response "
      "per line on stdout, until EOF or {\"cmd\":\"quit\"} (see io/serve.hpp "
      "for the request schema).");
  add_service_flags(parser, "256");
  parser.add_option("cache", "plan-cache capacity in entries (0 disables)",
                    "256");
  parser.add_flag("no-coalesce",
                  "disable single-flight coalescing of identical "
                  "concurrent requests");
  parser.add_option("max-pending",
                    "admission bound: refuse (or degrade) new planning "
                    "requests once this many are pending (0 = unbounded)",
                    "0");
  parser.add_flag("degrade",
                  "answer overloaded/over-budget requests with the cheap "
                  "homogeneous planner instead of erroring");
  parser.add_option("listen",
                    "serve over TCP instead of stdio: accept JSON-lines "
                    "sessions on host:port (port 0 picks an ephemeral port, "
                    "announced as 'listening on host:port' on stdout)");
  parser.add_option("max-sessions",
                    "with --listen: exit after this many sessions have "
                    "completed (0 = serve forever)",
                    "0");
  parser.parse(args);

  const ServiceFlags flags = service_flags(parser);
  const long long cache = parser.get_int("cache");
  const long long max_pending = parser.get_int("max-pending");
  const long long max_sessions = parser.get_int("max-sessions");
  ADEPT_CHECK(cache >= 0, "--cache must be >= 0");
  ADEPT_CHECK(max_pending >= 0, "--max-pending must be >= 0");
  ADEPT_CHECK(max_sessions >= 0, "--max-sessions must be >= 0");
  ADEPT_CHECK(max_sessions == 0 || parser.has("listen"),
              "--max-sessions only applies with --listen");
  io::ServeConfig config;
  config.threads = flags.jobs;
  config.cache = CacheConfig{static_cast<std::size_t>(cache), flags.shard_cache,
                             !parser.get_flag("no-coalesce")};
  config.max_pending = static_cast<std::size_t>(max_pending);
  config.degrade = parser.get_flag("degrade");
  std::size_t answered = 0;
  if (parser.has("listen")) {
    answered = io::serve_listen(parser.get("listen"), config, std::cout,
                                static_cast<std::size_t>(max_sessions));
  } else {
    answered = io::serve_session(std::cin, std::cout, config);
  }
  std::cerr << "serve: answered " << answered << " request(s)\n";
  return 0;
}

int cmd_metrics(const std::vector<std::string>& args) {
  ArgParser parser(
      "adept metrics",
      "Render a recorded metrics snapshot (the `{\"cmd\":\"metrics\"}` serve "
      "response, or its \"metrics\" payload, or a bench --metrics-out "
      "dump) as a table, JSON, or Prometheus text format.");
  parser.add_positional("file", "snapshot file, or '-' for stdin");
  parser.add_option("format", "output format: table | json | prom", "table");
  parser.parse(args);

  const std::string path = parser.get("file");
  std::string text;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    ADEPT_CHECK(in.good(), "cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  json::Value doc = json::parse(text);
  // Accept the serve response envelope ({"ok":true,"metrics":{...}}) as
  // well as a bare snapshot.
  if (const json::Value* inner = doc.find("metrics")) doc = *inner;
  const obs::RegistrySnapshot snapshot = obs::snapshot_from_json(doc);

  const std::string format = parser.get("format");
  if (format == "json") {
    std::cout << obs::to_json(snapshot).dump() << "\n";
    return 0;
  }
  if (format == "prom") {
    std::cout << obs::to_prometheus(snapshot);
    return 0;
  }
  ADEPT_CHECK(format == "table",
              "--format must be table, json or prom (got '" + format + "')");
  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    Table counters("Counters and gauges");
    counters.set_header({"name", "value"});
    for (const auto& [name, value] : snapshot.counters)
      counters.add_row({name, std::to_string(value)});
    for (const auto& [name, value] : snapshot.gauges)
      counters.add_row({name, Table::num(value, 3)});
    std::cout << counters;
  }
  if (!snapshot.histograms.empty()) {
    Table histograms("Latency histograms (ms unless noted)");
    histograms.set_header(
        {"name", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : snapshot.histograms)
      histograms.add_row({name, std::to_string(h.count),
                          Table::num(h.mean(), 3), Table::num(h.quantile(0.5), 3),
                          Table::num(h.quantile(0.95), 3),
                          Table::num(h.quantile(0.99), 3),
                          Table::num(h.max, 3)});
    std::cout << histograms;
  }
  return 0;
}

int cmd_calibrate(const std::vector<std::string>& args) {
  ArgParser parser("adept calibrate",
                   "Reproduce the Table 3 measurement procedure.");
  parser.parse(args);

  const auto report =
      workload::calibrate(MiddlewareParams::diet_grid5000(), true);
  Table table("Measured middleware parameters (Table 3 procedure)");
  table.set_header({"quantity", "measured", "paper (Table 3)"});
  table.add_row({"host power (MFlop/s)", Table::num(report.host_mflops, 0), "-"});
  table.add_row({"agent S_req (Mb)", Table::num(report.agent_sreq, 6), "5.3e-3"});
  table.add_row({"agent S_rep (Mb)", Table::num(report.agent_srep, 6), "5.4e-3"});
  table.add_row({"server S_req (Mb)", Table::num(report.server_sreq, 6), "5.3e-5"});
  table.add_row({"server S_rep (Mb)", Table::num(report.server_srep, 6), "6.4e-5"});
  table.add_row({"W_sel (MFlop)", Table::num(report.wrep.wsel_measured, 5), "5.4e-3"});
  table.add_row({"fit correlation", Table::num(report.wrep.fit.correlation, 4), "0.97"});
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string usage =
      "usage: adept "
      "<generate|plan|predict|simulate|repair|serve|metrics|calibrate> "
      "[options]\n"
      "run `adept <command> --help` for a command's options\n";
  if (args.empty()) {
    std::cerr << usage;
    return 2;
  }
  if (args.front() == "--help" || args.front() == "-h") {
    std::cout << usage;
    return 0;
  }
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "plan") return cmd_plan(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "repair") return cmd_repair(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "calibrate") return cmd_calibrate(args);
    std::cerr << "unknown command '" << command << "'\n" << usage;
    return 2;
  } catch (const adept::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
