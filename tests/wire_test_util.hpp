#pragma once
/// \file wire_test_util.hpp
/// \brief The randomized wire corpus shared by the wire suites: seeded
/// PlanRequests over small random platforms, some nodes with their own
/// link, with random demand, exclusions, shard counts and trace flags.

#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/request.hpp"
#include "platform/generator.hpp"

namespace adept::test_util {

/// One request of the randomized wire corpus: a random uniform platform
/// (some nodes with their own link), random demand/excluded/shards/trace.
inline PlanRequest random_wire_request(std::mt19937& seeds) {
  constexpr MbitRate kBandwidth = 1000.0;
  Rng rng(seeds());
  const std::size_t count = 2 + (seeds() % 30);
  std::vector<NodeSpec> nodes =
      gen::uniform(count, 100.0, 1500.0, kBandwidth, rng).nodes();
  for (NodeSpec& node : nodes)
    if (seeds() % 4 == 0) node.link = 10.0 + (seeds() % 2000);
  PlanRequest request(
      std::make_shared<const Platform>(std::move(nodes), kBandwidth),
      MiddlewareParams::diet_grid5000(), dgemm_service(310));
  if (seeds() % 2 == 0) request.options.demand = 1.0 + (seeds() % 1000);
  if (seeds() % 3 == 0) request.options.excluded = {0};
  request.options.shards = seeds() % 5;
  request.options.verbose_trace = seeds() % 2 == 0;
  return request;
}

}  // namespace adept::test_util
