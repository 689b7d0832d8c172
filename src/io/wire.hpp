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

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
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

// --------------------------------------------------- serve request lines --

/// The longest request or response line any framed reader accepts
/// (serve sessions on stdio and --listen, dist::receive_framed_line),
/// terminator excluded. A reader never holds more than this of one line:
/// past it, a serve session answers one error line and closes, and a
/// worker response marks the worker failed.
inline constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

/// One planning line of the serve protocol (io/serve.hpp): the request
/// plus the session-level fields that travel next to it.
struct ServeRequest {
  json::Value id;                     ///< Echoed back; null when absent.
  std::string planner = "heuristic";  ///< Registry name or "portfolio".
  PlanRequest request;                ///< Owns its platform.
  std::optional<double> budget_ms;    ///< Relative deadline, validated.

  /// Arms request.options.deadline budget_ms after `now` (no budget: no
  /// deadline).
  void arm_deadline(std::chrono::steady_clock::time_point now =
                        std::chrono::steady_clock::now());
};

/// Reads a parsed planning line (one without "cmd"). Throws adept::Error
/// with the text a serve session answers: request_from_json's first,
/// then "budget_ms" (a number in (0, 8.64e10]), then "planner" (a
/// string). Unknown members are ignored.
ServeRequest serve_request_from_json(const json::Value& line);

/// The same line decoded in one pass over the text: "platform" straight
/// into NodeSpecs and a Platform, every other member as a small subtree
/// through json::Reader. It covers only the common case and returns
/// nullopt for everything else (a control line, unknown or repeated
/// members, an escaped key or node name, and any syntax or schema
/// error); the caller then takes the json::parse + serve_request_from_json
/// path, which is the only source of error text. When it returns a
/// value, that value equals what the DOM path yields for the line.
std::optional<ServeRequest> decode_serve_request(std::string_view line);

/// One serve line read the way every serve front end reads it (serve
/// sessions and the in-process worker): decode_serve_request first, and
/// when it declines, json::parse, with the request then read by
/// serve_request_from_json. Error text therefore always comes from the
/// DOM path.
class ServeLine {
 public:
  /// Throws adept::Error with json::parse's text when the line is not
  /// one JSON document.
  explicit ServeLine(std::string_view line);

  /// The "cmd" member of a control line; nullptr on a planning line.
  const json::Value* command() const;
  /// The parsed line; null when it was decoded in one pass (a control
  /// line never is).
  const json::Value& document() const { return document_; }
  /// The line's "id", null when absent. Read it before request().
  const json::Value& id() const;
  /// The planning request; throws adept::Error with the text the line
  /// is answered with. Call at most once.
  ServeRequest request();

 private:
  std::optional<ServeRequest> decoded_;
  json::Value document_;
};

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
