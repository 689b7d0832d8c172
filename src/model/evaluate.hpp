#pragma once
/// \file evaluate.hpp
/// \brief Whole-hierarchy throughput prediction (the paper's Eq 16).
///
/// The completed-request throughput of a deployment is
///   ρ = min( ρ_sched , ρ_service )
/// where ρ_sched is the minimum over every agent's scheduling throughput
/// and every server's prediction throughput (Eq 14), and ρ_service is the
/// collective service throughput of the server set (Eq 15). evaluate()
/// computes all three and reports which element binds.

#include <cstdint>
#include <vector>

#include "hierarchy/hierarchy.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "model/throughput.hpp"
#include "platform/platform.hpp"

namespace adept::model {

/// Which term of Eq 16 binds the deployment.
enum class Bottleneck {
  AgentScheduling,   ///< Some agent's Eq-14 term is the minimum.
  ServerPrediction,  ///< Some server's prediction term is the minimum.
  Service,           ///< The collective Eq-15 service term is the minimum.
};

/// Returns a short human-readable name for a bottleneck.
const char* bottleneck_name(Bottleneck bottleneck);

/// Full prediction for one deployment.
struct ThroughputReport {
  RequestRate sched = 0.0;    ///< Eq 14: scheduling-phase throughput.
  RequestRate service = 0.0;  ///< Eq 15: service-phase throughput.
  RequestRate overall = 0.0;  ///< Eq 16: min of the two.
  Bottleneck bottleneck = Bottleneck::Service;
  /// Element whose term binds (meaningful for agent/prediction
  /// bottlenecks; for Service it is the hierarchy's first server).
  Hierarchy::Index limiting_element = 0;
  /// Steady-state share of completed requests per server (Eq 8), aligned
  /// with Hierarchy::servers().
  std::vector<double> server_shares;

  bool operator==(const ThroughputReport&) const = default;
};

/// Predicts the steady-state throughput of `hierarchy` deployed on
/// `platform` serving `service`. The hierarchy must pass
/// validate(&platform); throws adept::Error otherwise.
ThroughputReport evaluate(const Hierarchy& hierarchy, const Platform& platform,
                          const MiddlewareParams& params,
                          const ServiceSpec& service);

/// As evaluate(), but skips structural validation — for planners that
/// evaluate many intermediate candidates they construct themselves.
ThroughputReport evaluate_unchecked(const Hierarchy& hierarchy,
                                    const Platform& platform,
                                    const MiddlewareParams& params,
                                    const ServiceSpec& service);

/// Number of whole-hierarchy evaluations (evaluate, evaluate_unchecked,
/// evaluate_hetero) counted on the calling thread since it started,
/// including those ThreadPool::for_each ran on helper threads for it.
/// run_planner (planner/planning_service.hpp) differences this around
/// each planner call, so a run counts its work on every pool thread.
/// Threads outside a for_each — the distributed tier's drain threads and
/// worker processes — are not folded in.
std::uint64_t evaluations_on_this_thread();

namespace detail {
void count_evaluation();
}  // namespace detail

}  // namespace adept::model
