#include "io/wire.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace adept::wire {

namespace {

/// Numbers that may legally be infinite on the wire travel as the string
/// "unlimited"; everything else is a plain JSON number.
json::Value encode_rate(RequestRate rate) {
  if (std::isinf(rate) && rate > 0.0) return json::Value("unlimited");
  return json::Value(rate);
}

RequestRate decode_rate(const json::Value& value) {
  if (value.is_string()) {
    ADEPT_CHECK(value.as_string() == "unlimited",
                "rate must be a number or the string \"unlimited\"");
    return kUnlimitedDemand;
  }
  return value.as_number();
}

json::Value costs_to_json(const ElementCosts& costs) {
  json::Value out = json::Value::object();
  out.set("wreq", costs.wreq);
  out.set("wfix", costs.wfix);
  out.set("wsel", costs.wsel);
  out.set("wpre", costs.wpre);
  out.set("sreq", costs.sreq);
  out.set("srep", costs.srep);
  return out;
}

ElementCosts costs_from_json(const json::Value& value) {
  ElementCosts out;
  out.wreq = value.at("wreq").as_number();
  out.wfix = value.at("wfix").as_number();
  out.wsel = value.at("wsel").as_number();
  out.wpre = value.at("wpre").as_number();
  out.sreq = value.at("sreq").as_number();
  out.srep = value.at("srep").as_number();
  return out;
}

const char* bottleneck_tag(model::Bottleneck bottleneck) {
  switch (bottleneck) {
    case model::Bottleneck::AgentScheduling: return "agent-scheduling";
    case model::Bottleneck::ServerPrediction: return "server-prediction";
    case model::Bottleneck::Service: return "service";
  }
  return "?";
}

model::Bottleneck bottleneck_from_tag(const std::string& tag) {
  if (tag == "agent-scheduling") return model::Bottleneck::AgentScheduling;
  if (tag == "server-prediction") return model::Bottleneck::ServerPrediction;
  if (tag == "service") return model::Bottleneck::Service;
  throw Error("unknown bottleneck '" + tag + "'");
}

}  // namespace

// ---------------------------------------------------------------- Platform --

json::Value to_json(const Platform& platform) {
  json::Value nodes = json::Value::array();
  for (const NodeSpec& node : platform.nodes()) {
    json::Value entry = json::Value::object();
    entry.set("name", node.name);
    entry.set("power", node.power);
    if (node.link != 0.0) entry.set("link", node.link);
    nodes.push_back(std::move(entry));
  }
  json::Value out = json::Value::object();
  out.set("bandwidth", platform.bandwidth());
  out.set("nodes", std::move(nodes));
  return out;
}

Platform platform_from_json(const json::Value& value) {
  std::vector<NodeSpec> nodes;
  for (const json::Value& entry : value.at("nodes").as_array()) {
    NodeSpec node;
    node.name = entry.at("name").as_string();
    node.power = entry.at("power").as_number();
    if (const json::Value* link = entry.find("link"))
      node.link = link->as_number();
    nodes.push_back(std::move(node));
  }
  // The Platform constructor re-validates (positive powers/bandwidth,
  // unique names), so malformed documents fail with a domain error.
  return Platform(std::move(nodes), value.at("bandwidth").as_number());
}

// -------------------------------------------------------- MiddlewareParams --

json::Value to_json(const MiddlewareParams& params) {
  json::Value out = json::Value::object();
  out.set("agent", costs_to_json(params.agent));
  out.set("server", costs_to_json(params.server));
  return out;
}

MiddlewareParams params_from_json(const json::Value& value) {
  MiddlewareParams out;
  out.agent = costs_from_json(value.at("agent"));
  out.server = costs_from_json(value.at("server"));
  out.validate();
  return out;
}

// ------------------------------------------------------------- ServiceSpec --

json::Value to_json(const ServiceSpec& service) {
  json::Value out = json::Value::object();
  out.set("name", service.name);
  out.set("wapp", service.wapp);
  return out;
}

ServiceSpec service_from_json(const json::Value& value) {
  // Serialization always emits the object form; deserialization also
  // accepts the two client shorthands ("dgemm-<n>", bare MFlop number),
  // so every wire consumer — serve included — speaks one schema.
  if (value.is_number()) {
    ADEPT_CHECK(value.as_number() > 0.0, "service MFlop must be positive");
    return ServiceSpec{"custom", value.as_number()};
  }
  if (value.is_string()) {
    const std::string& spec = value.as_string();
    ADEPT_CHECK(strings::starts_with(spec, "dgemm-"),
                "service must be a wire object, a number, or \"dgemm-<n>\"");
    const auto n = strings::parse_int(spec.substr(6));
    ADEPT_CHECK(n.has_value() && *n > 0, "bad DGEMM size in '" + spec + "'");
    return dgemm_service(static_cast<std::size_t>(*n));
  }
  ServiceSpec out;
  out.name = value.at("name").as_string();
  out.wapp = value.at("wapp").as_number();
  return out;
}

// ------------------------------------------------------------- PlanOptions --

json::Value to_json(const PlanOptions& options) {
  json::Value excluded = json::Value::array();
  for (const NodeId id : options.excluded) excluded.push_back(id);
  json::Value out = json::Value::object();
  out.set("demand", encode_rate(options.demand));
  out.set("degree", options.degree);
  out.set("shards", options.shards);
  out.set("excluded", std::move(excluded));
  out.set("verbose_trace", options.verbose_trace);
  return out;
}

PlanOptions options_from_json(const json::Value& value) {
  PlanOptions out;
  if (const json::Value* demand = value.find("demand"))
    out.demand = decode_rate(*demand);
  if (const json::Value* degree = value.find("degree"))
    out.degree = degree->as_index();
  if (const json::Value* shards = value.find("shards"))
    out.shards = shards->as_index();
  if (const json::Value* excluded = value.find("excluded"))
    for (const json::Value& id : excluded->as_array())
      out.excluded.insert(id.as_index());
  if (const json::Value* verbose = value.find("verbose_trace"))
    out.verbose_trace = verbose->as_bool();
  return out;
}

// -------------------------------------------------------------- CacheConfig --

json::Value to_json(const CacheConfig& config) {
  json::Value out = json::Value::object();
  out.set("plan_capacity", config.plan_capacity);
  out.set("shard_capacity", config.shard_capacity);
  out.set("coalesce", config.coalesce);
  return out;
}

CacheConfig cache_config_from_json(const json::Value& value) {
  CacheConfig out;
  if (const json::Value* plan = value.find("plan_capacity"))
    out.plan_capacity = plan->as_index();
  if (const json::Value* shard = value.find("shard_capacity"))
    out.shard_capacity = shard->as_index();
  if (const json::Value* coalesce = value.find("coalesce"))
    out.coalesce = coalesce->as_bool();
  return out;
}

// --------------------------------------------------------------- Hierarchy --

json::Value to_json(const Hierarchy& hierarchy) {
  json::Value elements = json::Value::array();
  for (Hierarchy::Index i = 0; i < hierarchy.size(); ++i) {
    const Hierarchy::Element& element = hierarchy.element(i);
    json::Value entry = json::Value::object();
    entry.set("node", element.node);
    entry.set("role", element.role == Role::Agent ? "agent" : "server");
    entry.set("parent", element.parent == Hierarchy::npos
                            ? json::Value(nullptr)
                            : json::Value(element.parent));
    json::Value children = json::Value::array();
    for (const Hierarchy::Index child : element.children)
      children.push_back(child);
    entry.set("children", std::move(children));
    elements.push_back(std::move(entry));
  }
  json::Value out = json::Value::object();
  out.set("elements", std::move(elements));
  return out;
}

Hierarchy hierarchy_from_json(const json::Value& value) {
  std::vector<Hierarchy::Element> elements;
  for (const json::Value& entry : value.at("elements").as_array()) {
    Hierarchy::Element element;
    element.node = entry.at("node").as_index();
    const std::string& role = entry.at("role").as_string();
    ADEPT_CHECK(role == "agent" || role == "server",
                "element role must be \"agent\" or \"server\"");
    element.role = role == "agent" ? Role::Agent : Role::Server;
    const json::Value& parent = entry.at("parent");
    element.parent = parent.is_null() ? Hierarchy::npos : parent.as_index();
    for (const json::Value& child : entry.at("children").as_array())
      element.children.push_back(child.as_index());
    elements.push_back(std::move(element));
  }
  return Hierarchy::from_elements(std::move(elements));
}

// -------------------------------------------------------- ThroughputReport --

json::Value to_json(const model::ThroughputReport& report) {
  json::Value shares = json::Value::array();
  for (const double share : report.server_shares) shares.push_back(share);
  json::Value out = json::Value::object();
  out.set("sched", report.sched);
  out.set("service", report.service);
  out.set("overall", report.overall);
  out.set("bottleneck", bottleneck_tag(report.bottleneck));
  out.set("limiting_element", report.limiting_element);
  out.set("server_shares", std::move(shares));
  return out;
}

model::ThroughputReport report_from_json(const json::Value& value) {
  model::ThroughputReport out;
  out.sched = value.at("sched").as_number();
  out.service = value.at("service").as_number();
  out.overall = value.at("overall").as_number();
  out.bottleneck = bottleneck_from_tag(value.at("bottleneck").as_string());
  out.limiting_element = value.at("limiting_element").as_index();
  for (const json::Value& share : value.at("server_shares").as_array())
    out.server_shares.push_back(share.as_number());
  return out;
}

// -------------------------------------------------------------- PlanResult --

json::Value to_json(const PlanResult& result) {
  json::Value trace = json::Value::array();
  for (const std::string& line : result.trace) trace.push_back(line);
  json::Value out = json::Value::object();
  out.set("hierarchy", to_json(result.hierarchy));
  out.set("report", to_json(result.report));
  out.set("trace", std::move(trace));
  return out;
}

PlanResult plan_result_from_json(const json::Value& value) {
  PlanResult out;
  out.hierarchy = hierarchy_from_json(value.at("hierarchy"));
  out.report = report_from_json(value.at("report"));
  for (const json::Value& line : value.at("trace").as_array())
    out.trace.push_back(line.as_string());
  return out;
}

// -------------------------------------------------------------- PlannerRun --

json::Value to_json(const PlannerRun& run) {
  json::Value out = json::Value::object();
  out.set("planner", run.planner);
  out.set("ok", run.ok);
  out.set("skipped", run.skipped);
  out.set("cached", run.cached);
  out.set("error", run.error);
  out.set("wall_ms", run.wall_ms);
  out.set("evaluations", run.evaluations);
  out.set("result", run.ok ? to_json(run.result) : json::Value(nullptr));
  return out;
}

PlannerRun planner_run_from_json(const json::Value& value) {
  PlannerRun out;
  out.planner = value.at("planner").as_string();
  out.ok = value.at("ok").as_bool();
  out.skipped = value.at("skipped").as_bool();
  out.cached = value.at("cached").as_bool();
  out.error = value.at("error").as_string();
  out.wall_ms = value.at("wall_ms").as_number();
  out.evaluations = static_cast<std::uint64_t>(
      value.at("evaluations").as_index());
  if (out.ok) out.result = plan_result_from_json(value.at("result"));
  return out;
}

// --------------------------------------------------------- PortfolioResult --

json::Value to_json(const PortfolioResult& portfolio) {
  json::Value runs = json::Value::array();
  for (const PlannerRun& run : portfolio.runs) runs.push_back(to_json(run));
  json::Value scores = json::Value::array();
  for (const RequestRate score : portfolio.scores)
    scores.push_back(encode_rate(score));
  json::Value out = json::Value::object();
  out.set("winner", portfolio.has_winner() ? json::Value(portfolio.winner)
                                           : json::Value(nullptr));
  out.set("runs", std::move(runs));
  out.set("scores", std::move(scores));
  return out;
}

PortfolioResult portfolio_from_json(const json::Value& value) {
  PortfolioResult out;
  const json::Value& winner = value.at("winner");
  out.winner = winner.is_null() ? PortfolioResult::npos : winner.as_index();
  for (const json::Value& run : value.at("runs").as_array())
    out.runs.push_back(planner_run_from_json(run));
  for (const json::Value& score : value.at("scores").as_array())
    out.scores.push_back(decode_rate(score));
  ADEPT_CHECK(out.winner == PortfolioResult::npos ||
                  out.winner < out.runs.size(),
              "portfolio winner index out of range");
  return out;
}

// ------------------------------------------------------------- PlanRequest --

json::Value to_json(const PlanRequest& request) {
  ADEPT_CHECK(request.platform != nullptr, "PlanRequest has no platform");
  json::Value out = json::Value::object();
  out.set("platform", to_json(*request.platform));
  out.set("params", to_json(request.params));
  out.set("service", to_json(request.service));
  out.set("options", to_json(request.options));
  return out;
}

PlanRequest request_from_json(const json::Value& value) {
  // Only the platform and the service are mandatory; params default to
  // the paper's Table-3 measurements and options to PlanOptions{}, so a
  // minimal client request is just {"platform": ..., "service": ...}.
  const json::Value* params = value.find("params");
  const json::Value* options = value.find("options");
  return PlanRequest(
      std::make_shared<const Platform>(platform_from_json(value.at("platform"))),
      params != nullptr ? params_from_json(*params)
                        : MiddlewareParams::diet_grid5000(),
      service_from_json(value.at("service")),
      options != nullptr ? options_from_json(*options) : PlanOptions{});
}

// ------------------------------------------------------ serve request lines --

namespace {

/// The serve budget range: the upper bound (~1000 days) keeps the
/// microsecond cast and the time_point addition inside their ranges.
bool valid_budget(double ms) { return ms > 0.0 && ms <= 8.64e10; }

/// Thrown inside decode_serve_request when the line leaves the common
/// case; the caller falls back to the DOM path.
struct Decline {};

[[noreturn]] void decline() { throw Decline{}; }

/// Records member `bit` in `seen`; a repeated member declines.
void mark(unsigned& seen, unsigned bit) {
  if ((seen & bit) != 0) decline();
  seen |= bit;
}

/// The next member's key (unescaped) and its ':'.
std::string_view member_key(json::Reader& in) {
  const std::optional<std::string_view> key = in.plain_string();
  if (!key) decline();
  in.expect(':');
  return *key;
}

/// {"name", "power", "link"?} in any order, name unescaped.
NodeSpec read_node(json::Reader& in) {
  NodeSpec node;
  unsigned seen = 0;
  in.expect('{');
  in.enter();
  if (!in.consume('}')) {
    do {
      const std::string_view key = member_key(in);
      if (key == "name") {
        mark(seen, 1);
        const std::optional<std::string_view> name = in.plain_string();
        if (!name) decline();
        node.name = *name;
      } else if (key == "power") {
        mark(seen, 2);
        node.power = in.number();
      } else if (key == "link") {
        mark(seen, 4);
        node.link = in.number();
      } else {
        decline();
      }
    } while (in.consume(','));
    in.expect('}');
  }
  in.leave();
  if ((seen & 3) != 3) decline();
  return node;
}

/// {"bandwidth", "nodes"} in any order, read without a JSON tree.
Platform read_platform(json::Reader& in) {
  std::vector<NodeSpec> nodes;
  double bandwidth = 0.0;
  unsigned seen = 0;
  in.expect('{');
  in.enter();
  if (!in.consume('}')) {
    do {
      const std::string_view key = member_key(in);
      if (key == "bandwidth") {
        mark(seen, 1);
        bandwidth = in.number();
      } else if (key == "nodes") {
        mark(seen, 2);
        in.expect('[');
        in.enter();
        if (!in.consume(']')) {
          do nodes.push_back(read_node(in));
          while (in.consume(','));
          in.expect(']');
        }
        in.leave();
      } else {
        decline();
      }
    } while (in.consume(','));
    in.expect('}');
  }
  in.leave();
  if (seen != 3) decline();
  return Platform(std::move(nodes), bandwidth);
}

}  // namespace

void ServeRequest::arm_deadline(std::chrono::steady_clock::time_point now) {
  if (!budget_ms) return;
  request.options.deadline =
      now + std::chrono::microseconds(
                static_cast<long long>(*budget_ms * 1000.0));
}

ServeRequest serve_request_from_json(const json::Value& line) {
  ServeRequest out;
  if (const json::Value* id = line.find("id")) out.id = *id;
  out.request = request_from_json(line);
  if (const json::Value* budget = line.find("budget_ms")) {
    const double ms = budget->as_number();
    ADEPT_CHECK(valid_budget(ms), "budget_ms must be in (0, 8.64e10]");
    out.budget_ms = ms;
  }
  if (const json::Value* planner = line.find("planner"))
    out.planner = planner->as_string();
  return out;
}

std::optional<ServeRequest> decode_serve_request(std::string_view line) {
  enum : unsigned {
    kPlatform = 1, kService = 2, kParams = 4, kOptions = 8,
    kId = 16, kPlanner = 32, kBudget = 64,
  };
  try {
    json::Reader in(line);
    ServeRequest out;
    std::optional<Platform> platform;
    json::Value service, params, options;
    unsigned seen = 0;
    in.expect('{');
    in.enter();
    if (!in.consume('}')) {
      do {
        const std::string_view key = member_key(in);
        if (key == "platform") {
          mark(seen, kPlatform);
          platform.emplace(read_platform(in));
        } else if (key == "service") {
          mark(seen, kService);
          service = in.value();
        } else if (key == "params") {
          mark(seen, kParams);
          params = in.value();
        } else if (key == "options") {
          mark(seen, kOptions);
          options = in.value();
        } else if (key == "id") {
          mark(seen, kId);
          out.id = in.value();
        } else if (key == "planner") {
          mark(seen, kPlanner);
          const json::Value planner = in.value();
          if (!planner.is_string()) decline();
          out.planner = planner.as_string();
        } else if (key == "budget_ms") {
          mark(seen, kBudget);
          const json::Value budget = in.value();
          if (!budget.is_number() || !valid_budget(budget.as_number()))
            decline();
          out.budget_ms = budget.as_number();
        } else {
          decline();  // "cmd" (a control line) or a member serve ignores
        }
      } while (in.consume(','));
      in.expect('}');
    }
    in.leave();
    in.finish();
    if ((seen & kPlatform) == 0 || (seen & kService) == 0) decline();
    out.request = PlanRequest(
        std::make_shared<const Platform>(std::move(*platform)),
        (seen & kParams) != 0 ? params_from_json(params)
                              : MiddlewareParams::diet_grid5000(),
        service_from_json(service),
        (seen & kOptions) != 0 ? options_from_json(options) : PlanOptions{});
    return out;
  } catch (const Decline&) {
    return std::nullopt;
  } catch (const Error&) {
    return std::nullopt;
  }
}

ServeLine::ServeLine(std::string_view line)
    : decoded_(decode_serve_request(line)) {
  if (!decoded_) document_ = json::parse(line);
}

const json::Value* ServeLine::command() const {
  return decoded_ ? nullptr : document_.find("cmd");
}

const json::Value& ServeLine::id() const {
  static const json::Value kNoId;
  if (decoded_) return decoded_->id;
  const json::Value* id = document_.find("id");
  return id != nullptr ? *id : kNoId;
}

ServeRequest ServeLine::request() {
  if (decoded_) return std::move(*decoded_);
  return serve_request_from_json(document_);
}

// ---------------------------------------------------------- churn scenarios --

json::Value to_json(const sim::MutationEvent& event) {
  json::Value out = json::Value::object();
  out.set("time", event.time);
  out.set("kind", sim::mutation_kind_name(event.kind));
  out.set("node", event.node == sim::kNoNode ? json::Value(nullptr)
                                             : json::Value(event.node));
  out.set("value", encode_rate(event.value));
  if (event.link != 0.0) out.set("link", event.link);
  if (!event.name.empty()) out.set("name", event.name);
  return out;
}

sim::MutationEvent mutation_event_from_json(const json::Value& value) {
  sim::MutationEvent out;
  out.time = value.at("time").as_number();
  out.kind = sim::mutation_kind_from_name(value.at("kind").as_string());
  const json::Value& node = value.at("node");
  out.node = node.is_null() ? sim::kNoNode : node.as_index();
  out.value = decode_rate(value.at("value"));
  if (const json::Value* link = value.find("link")) out.link = link->as_number();
  if (const json::Value* name = value.find("name"))
    out.name = name->as_string();
  return out;
}

json::Value trace_to_json(const std::vector<sim::MutationEvent>& trace) {
  json::Value out = json::Value::array();
  for (const sim::MutationEvent& event : trace) out.push_back(to_json(event));
  return out;
}

std::vector<sim::MutationEvent> trace_from_json(const json::Value& value) {
  std::vector<sim::MutationEvent> out;
  for (const json::Value& event : value.as_array())
    out.push_back(mutation_event_from_json(event));
  return out;
}

namespace {

json::Value churn_to_json(const sim::ChurnSpec& churn) {
  json::Value out = json::Value::object();
  out.set("crash_rate", churn.crash_rate);
  out.set("rejoin_after_lo", churn.rejoin_after_lo);
  out.set("rejoin_after_hi", churn.rejoin_after_hi);
  out.set("leave_rate", churn.leave_rate);
  out.set("join_rate", churn.join_rate);
  out.set("join_power_lo", churn.join_power_lo);
  out.set("join_power_hi", churn.join_power_hi);
  out.set("degrade_rate", churn.degrade_rate);
  out.set("degrade_scale_lo", churn.degrade_scale_lo);
  out.set("degrade_scale_hi", churn.degrade_scale_hi);
  out.set("degrade_for_lo", churn.degrade_for_lo);
  out.set("degrade_for_hi", churn.degrade_for_hi);
  out.set("link_drop_rate", churn.link_drop_rate);
  out.set("link_scale_lo", churn.link_scale_lo);
  out.set("link_scale_hi", churn.link_scale_hi);
  out.set("link_drop_for_lo", churn.link_drop_for_lo);
  out.set("link_drop_for_hi", churn.link_drop_for_hi);
  return out;
}

sim::ChurnSpec churn_from_json(const json::Value& value) {
  sim::ChurnSpec out;
  out.crash_rate = value.at("crash_rate").as_number();
  out.rejoin_after_lo = value.at("rejoin_after_lo").as_number();
  out.rejoin_after_hi = value.at("rejoin_after_hi").as_number();
  out.leave_rate = value.at("leave_rate").as_number();
  out.join_rate = value.at("join_rate").as_number();
  out.join_power_lo = value.at("join_power_lo").as_number();
  out.join_power_hi = value.at("join_power_hi").as_number();
  out.degrade_rate = value.at("degrade_rate").as_number();
  out.degrade_scale_lo = value.at("degrade_scale_lo").as_number();
  out.degrade_scale_hi = value.at("degrade_scale_hi").as_number();
  out.degrade_for_lo = value.at("degrade_for_lo").as_number();
  out.degrade_for_hi = value.at("degrade_for_hi").as_number();
  out.link_drop_rate = value.at("link_drop_rate").as_number();
  out.link_scale_lo = value.at("link_scale_lo").as_number();
  out.link_scale_hi = value.at("link_scale_hi").as_number();
  out.link_drop_for_lo = value.at("link_drop_for_lo").as_number();
  out.link_drop_for_hi = value.at("link_drop_for_hi").as_number();
  return out;
}

}  // namespace

json::Value to_json(const sim::Scenario& scenario) {
  json::Value platform = json::Value::object();
  if (scenario.platform.inline_platform.has_value()) {
    platform.set("inline", to_json(*scenario.platform.inline_platform));
  } else {
    platform.set("preset", scenario.platform.preset);
    platform.set("count", scenario.platform.count);
    platform.set("seed", scenario.platform.seed);
  }
  json::Value demand = json::Value::object();
  demand.set("base", scenario.demand.base);
  demand.set("amplitude", scenario.demand.amplitude);
  demand.set("period", scenario.demand.period);
  demand.set("step", scenario.demand.step);

  json::Value out = json::Value::object();
  out.set("name", scenario.name);
  out.set("seed", scenario.seed);
  out.set("duration", scenario.duration);
  out.set("platform", std::move(platform));
  out.set("churn", churn_to_json(scenario.churn));
  out.set("demand", std::move(demand));
  out.set("scripted", trace_to_json(scenario.scripted));
  return out;
}

sim::Scenario scenario_from_json(const json::Value& value) {
  sim::Scenario out;
  out.name = value.at("name").as_string();
  // as_index validates non-negative integrality and range: a negative or
  // fractional seed is a domain error, not a silent (or UB) cast. Seeds
  // are capped at 2^53 by JSON's number type either way.
  out.seed = value.at("seed").as_index();
  out.duration = value.at("duration").as_number();
  const json::Value& platform = value.at("platform");
  if (const json::Value* inlined = platform.find("inline")) {
    out.platform.inline_platform = platform_from_json(*inlined);
  } else {
    out.platform.preset = platform.at("preset").as_string();
    out.platform.count = platform.at("count").as_index();
    out.platform.seed = platform.at("seed").as_index();
  }
  out.churn = churn_from_json(value.at("churn"));
  const json::Value& demand = value.at("demand");
  out.demand.base = demand.at("base").as_number();
  out.demand.amplitude = demand.at("amplitude").as_number();
  out.demand.period = demand.at("period").as_number();
  out.demand.step = demand.at("step").as_number();
  out.scripted = trace_from_json(value.at("scripted"));
  return out;
}

json::Value to_json(const sim::ScenarioRecording& recording) {
  json::Value out = json::Value::object();
  out.set("scenario", to_json(recording.scenario));
  out.set("trace", trace_to_json(recording.trace));
  return out;
}

sim::ScenarioRecording recording_from_json(const json::Value& value) {
  sim::ScenarioRecording out;
  out.scenario = scenario_from_json(value.at("scenario"));
  out.trace = trace_from_json(value.at("trace"));
  return out;
}

}  // namespace adept::wire
