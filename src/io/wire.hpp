#pragma once
/// \file wire.hpp
/// \brief The planning API's JSON wire format (serializers/deserializers).
///
/// Every value type a planning client exchanges with ADePT — Platform,
/// MiddlewareParams, ServiceSpec, PlanOptions, Hierarchy, PlanResult,
/// PlannerRun, PortfolioResult and the full PlanRequest — has a to_json /
/// *_from_json pair here with round-trip fidelity: for any value x,
/// from_json(to_json(x)) compares equal to x (tests/test_wire.cpp pins
/// this property, including infinity demand and excluded NodeSets).
///
/// Conventions:
///   - serializers always emit keys in one fixed order, so dump() of a
///     serialized value is a canonical byte string (the plan cache's
///     typed key, detail::request_key, is pinned to distinguish requests
///     exactly as these strings do);
///   - unlimited demand is encoded as the string "unlimited" (JSON has no
///     infinity); any finite demand is a plain number;
///   - PlanOptions' runtime-only fields (deadline, cancel token, pool) do
///     not travel: a deadline is an *instant* on the server's clock.
///     Clients send a relative "budget_ms" instead, which the serve layer
///     (io/serve.hpp) turns into a deadline at admission time;
///   - deserializers validate through the domain constructors (Platform's
///     positivity checks, Hierarchy::from_elements' linkage checks), so a
///     hostile document cannot materialise an invalid value.

#include <string>
#include <vector>

#include "common/json.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/evaluate.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/planner.hpp"
#include "planner/planning_service.hpp"
#include "planner/request.hpp"
#include "platform/platform.hpp"
#include "sim/scenario.hpp"

namespace adept::wire {

json::Value to_json(const Platform& platform);
Platform platform_from_json(const json::Value& value);

json::Value to_json(const MiddlewareParams& params);
MiddlewareParams params_from_json(const json::Value& value);

json::Value to_json(const ServiceSpec& service);
/// Accepts the canonical object form plus two client shorthands: the
/// string "dgemm-<n>" and a bare MFlop-per-request number.
ServiceSpec service_from_json(const json::Value& value);

json::Value to_json(const PlanOptions& options);
PlanOptions options_from_json(const json::Value& value);

/// Cache configuration (planner/cache_config.hpp): {"plan_capacity",
/// "shard_capacity", "coalesce"}. Travels inside serve handshakes and is
/// echoed by the serve `stats` response; every key is optional on input
/// (absent keys keep the CacheConfig default).
json::Value to_json(const CacheConfig& config);
CacheConfig cache_config_from_json(const json::Value& value);

json::Value to_json(const Hierarchy& hierarchy);
Hierarchy hierarchy_from_json(const json::Value& value);

json::Value to_json(const model::ThroughputReport& report);
model::ThroughputReport report_from_json(const json::Value& value);

json::Value to_json(const PlanResult& result);
PlanResult plan_result_from_json(const json::Value& value);

json::Value to_json(const PlannerRun& run);
PlannerRun planner_run_from_json(const json::Value& value);

json::Value to_json(const PortfolioResult& portfolio);
PortfolioResult portfolio_from_json(const json::Value& value);

/// The full request (platform embedded by value).
json::Value to_json(const PlanRequest& request);
/// Rebuilds a request that *owns* its platform (std::make_shared), so the
/// deserialized request is safe to submit() and outlive the call site.
PlanRequest request_from_json(const json::Value& value);

// Churn scenarios (sim/scenario.hpp): the scenario description, single
// mutation events, whole traces, and recordings (scenario + trace) all
// round-trip exactly — a replayed recording reproduces every platform
// state bit-for-bit. Demand values may be infinite and travel as
// "unlimited", like PlanOptions::demand.

json::Value to_json(const sim::MutationEvent& event);
sim::MutationEvent mutation_event_from_json(const json::Value& value);

json::Value trace_to_json(const std::vector<sim::MutationEvent>& trace);
std::vector<sim::MutationEvent> trace_from_json(const json::Value& value);

json::Value to_json(const sim::Scenario& scenario);
sim::Scenario scenario_from_json(const json::Value& value);

json::Value to_json(const sim::ScenarioRecording& recording);
sim::ScenarioRecording recording_from_json(const json::Value& value);

}  // namespace adept::wire
