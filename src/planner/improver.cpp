/// \file improver.cpp
/// \brief Iterative bottleneck removal (the approach of the authors'
/// earlier HCW'04 work, ref [7]), kept in ADePT as a refinement stage for
/// deployments that were defined by other means.
///
/// Each round reads Eq 16 off the incremental engine, identifies the
/// binding term, and applies the matching local fix:
///   - service-limited → deploy the strongest unused node as a server
///     under the agent with the most scheduling headroom;
///   - agent-limited at a non-root agent with more than the minimum
///     children → move one of its server children to the agent that stays
///     fastest after adoption;
/// stopping as soon as a fix fails to improve throughput (the fix is then
/// rolled back) or no fix applies (e.g. the root itself binds).
///
/// The hierarchy under refinement and a model::IncrementalEvaluator are
/// kept in lock-step: a trial edit re-prices in O(log n) on the engine
/// (which also answers "which term binds" and "best adopter" from its
/// heaps) instead of the former from-scratch model::evaluate per round,
/// and a rejected edit rolls back to the exact prior state. The engine's
/// values are bit-identical to evaluate()'s, so every accept/stop
/// decision matches the historical behaviour.


#include "common/error.hpp"
#include "common/flat_set.hpp"
#include "model/incremental.hpp"
#include "planner/planner.hpp"

namespace adept {

PlanResult improve_deployment(Hierarchy start, const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service,
                              const PlanOptions& options) {
  start.validate_or_throw(&platform);
  ADEPT_CHECK(options.demand > 0.0, "client demand must be positive");

  PlanResult result;
  const NodeSet used(start.used_nodes());
  std::vector<NodeId> unused;
  unused.reserve(platform.size());
  for (NodeId id : platform.ids_by_power_desc())
    if (!used.contains(id) && !options.excluded.contains(id))
      unused.push_back(id);
  std::size_t next_unused = 0;

  Hierarchy current = std::move(start);
  model::IncrementalEvaluator engine(platform, params, service);
  engine.init_from(current);

  // A cancelled or late run aborts between rounds (the service reports
  // it skipped); the guard coarsens the deadline's clock reads.
  StopGuard stop(&options);
  for (std::size_t round = 0; round < platform.size(); ++round) {
    stop.check();
    const RequestRate overall = engine.throughput();
    if (overall >= options.demand) {
      result.trace.push_back("stop: client demand is met");
      break;
    }
    const model::Bottleneck bottleneck = engine.bottleneck();
    if (bottleneck == model::Bottleneck::Service &&
        next_unused < unused.size()) {
      const NodeId recruit = unused[next_unused];
      const Hierarchy::Index adopter = engine.best_adopter();
      ADEPT_ASSERT(adopter != Hierarchy::npos, "no agent to adopt a server");
      current.add_server(adopter, recruit);
      engine.add_server(adopter, recruit);
      if (engine.throughput() <= overall) {
        current.remove_last_child(adopter);
        engine.remove_last();
        result.trace.push_back("stop: adding a server no longer helps");
        break;
      }
      result.trace.push_back("service-limited: added server on node " +
                             platform.node(recruit).name);
      ++next_unused;
      continue;
    }

    if (bottleneck == model::Bottleneck::AgentScheduling &&
        engine.limiting_element() != current.root() &&
        current.degree(engine.limiting_element()) > 2) {
      const Hierarchy::Index saturated = engine.limiting_element();
      // Move the saturated agent's last *server* child to the best adopter.
      const auto& children = current.element(saturated).children;
      Hierarchy::Index moved = Hierarchy::npos;
      for (auto it = children.rbegin(); it != children.rend(); ++it)
        if (!current.is_agent(*it)) {
          moved = *it;
          break;
        }
      if (moved == Hierarchy::npos) {
        result.trace.push_back("stop: saturated agent has only agent children");
        break;
      }
      const Hierarchy::Index adopter = engine.best_adopter(saturated);
      if (adopter == Hierarchy::npos) {
        result.trace.push_back("stop: no alternative agent to adopt a child");
        break;
      }
      const Hierarchy::Index old_parent = saturated;
      current.reparent(moved, adopter);
      engine.move_server(moved, adopter);
      if (engine.throughput() <= overall) {
        current.reparent(moved, old_parent);
        engine.move_server(moved, old_parent);
        result.trace.push_back("stop: rebalancing children no longer helps");
        break;
      }
      result.trace.push_back("agent-limited: moved a server child off a "
                             "saturated agent");
      continue;
    }

    result.trace.push_back(
        std::string("stop: bottleneck '") + model::bottleneck_name(bottleneck) +
        "' has no applicable local fix");
    break;
  }

  // The edit sequence preserves structural validity by construction, so
  // the final pricing can skip the re-walk.
  result.report = model::evaluate_unchecked(current, platform, params, service);
  result.hierarchy = std::move(current);
  if (!options.verbose_trace) result.trace.clear();
  return result;
}

}  // namespace adept
