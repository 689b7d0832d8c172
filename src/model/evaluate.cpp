#include "model/evaluate.hpp"

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace adept::model {

std::uint64_t evaluations_on_this_thread() {
  return adept::detail::thread_evaluations;
}

namespace detail {
void count_evaluation() { ++adept::detail::thread_evaluations; }
}  // namespace detail

const char* bottleneck_name(Bottleneck bottleneck) {
  switch (bottleneck) {
    case Bottleneck::AgentScheduling: return "agent-scheduling";
    case Bottleneck::ServerPrediction: return "server-prediction";
    case Bottleneck::Service: return "service";
  }
  return "?";
}

ThroughputReport evaluate_unchecked(const Hierarchy& hierarchy,
                                    const Platform& platform,
                                    const MiddlewareParams& params,
                                    const ServiceSpec& service) {
  ADEPT_CHECK(!hierarchy.empty(), "cannot evaluate an empty hierarchy");
  detail::count_evaluation();
  const MbitRate B = platform.bandwidth();

  ThroughputReport report;
  report.sched = 0.0;
  bool first = true;
  Hierarchy::Index first_server = Hierarchy::npos;

  std::vector<MFlopRate> server_powers;
  for (Hierarchy::Index i = 0; i < hierarchy.size(); ++i) {
    const auto& element = hierarchy.element(i);
    const MFlopRate w = platform.power(element.node);
    RequestRate element_rate = 0.0;
    if (element.role == Role::Agent) {
      ADEPT_CHECK(!element.children.empty(),
                  "agent without children cannot be evaluated");
      element_rate =
          agent_sched_throughput(params, w, element.children.size(), B);
    } else {
      element_rate = server_sched_throughput(params, w, B);
      if (first_server == Hierarchy::npos) first_server = i;
      server_powers.push_back(w);
    }
    if (first || element_rate < report.sched) {
      report.sched = element_rate;
      report.limiting_element = i;
      report.bottleneck = element.role == Role::Agent
                              ? Bottleneck::AgentScheduling
                              : Bottleneck::ServerPrediction;
      first = false;
    }
  }
  ADEPT_CHECK(!server_powers.empty(), "hierarchy has no servers");

  report.service = service_throughput(params, server_powers, service, B);
  report.server_shares = service_fractions(params, server_powers, service);

  if (report.service < report.sched) {
    report.overall = report.service;
    report.bottleneck = Bottleneck::Service;
    report.limiting_element = first_server;
  } else {
    report.overall = report.sched;
    // bottleneck/limiting_element already describe the scheduling minimum.
  }
  return report;
}

ThroughputReport evaluate(const Hierarchy& hierarchy, const Platform& platform,
                          const MiddlewareParams& params,
                          const ServiceSpec& service) {
  hierarchy.validate_or_throw(&platform);
  params.validate();
  return evaluate_unchecked(hierarchy, platform, params, service);
}

}  // namespace adept::model
