/// \file test_deploy.cpp
/// \brief Tests for the GoDIET-style launcher: launch ordering, failure
/// injection, pruning invariants, and repair with spares.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "deploy/launcher.hpp"
#include "model/evaluate.hpp"
#include "planner/planner.hpp"
#include "platform/generator.hpp"

namespace adept {
namespace {

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();

/// root → {LA(2 servers), LA(3 servers), server}.
Hierarchy sample() {
  Hierarchy h;
  const auto root = h.add_root(0);
  const auto la1 = h.add_agent(root, 1);
  h.add_server(la1, 2);
  h.add_server(la1, 3);
  const auto la2 = h.add_agent(root, 4);
  h.add_server(la2, 5);
  h.add_server(la2, 6);
  h.add_server(la2, 7);
  h.add_server(root, 8);
  return h;
}

// ------------------------------------------------------------ launch plan --

TEST(LaunchPlan, CoversEveryElementOnce) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  const auto plan = deploy::build_launch_plan(sample(), platform);
  EXPECT_EQ(plan.size(), 9u);
  std::set<Hierarchy::Index> seen;
  for (const auto& step : plan) EXPECT_TRUE(seen.insert(step.element).second);
}

TEST(LaunchPlan, ParentsLaunchBeforeChildren) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  const Hierarchy h = sample();
  const auto plan = deploy::build_launch_plan(h, platform);
  std::map<Hierarchy::Index, std::size_t> position;
  for (std::size_t i = 0; i < plan.size(); ++i) position[plan[i].element] = i;
  for (Hierarchy::Index e = 0; e < h.size(); ++e) {
    const auto parent = h.element(e).parent;
    if (parent != Hierarchy::npos) EXPECT_LT(position[parent], position[e]);
  }
}

TEST(LaunchPlan, CommandsNameBinaryHostAndParent) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  const auto plan = deploy::build_launch_plan(sample(), platform);
  EXPECT_NE(plan[0].command.find("dietAgent"), std::string::npos);
  EXPECT_NE(plan[0].command.find("--master"), std::string::npos);
  bool saw_server = false;
  for (const auto& step : plan) {
    if (step.command.find("dietServer") != std::string::npos) {
      saw_server = true;
      EXPECT_NE(step.command.find("--parent"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_server);
}

TEST(LaunchPlan, RejectsInvalidHierarchy) {
  const Platform platform = gen::homogeneous(2, 200.0, 1000.0);
  Hierarchy bad;
  bad.add_root(0);
  EXPECT_THROW(deploy::build_launch_plan(bad, platform), Error);
}

// ---------------------------------------------------------------- pruning --

/// Parent-of relation over nodes, independent of element numbering.
std::map<NodeId, NodeId> parent_map(const Hierarchy& h) {
  std::map<NodeId, NodeId> out;
  for (Hierarchy::Index e = 0; e < h.size(); ++e) {
    const auto parent = h.element(e).parent;
    if (parent != Hierarchy::npos) out[h.node_of(e)] = h.node_of(parent);
  }
  return out;
}

TEST(Prune, NoFailuresIsIdentity) {
  const auto pruned = deploy::prune_failures(sample(), {});
  ASSERT_TRUE(pruned.has_value());
  // Same structure up to element renumbering (the rebuild is BFS-ordered).
  EXPECT_EQ(parent_map(*pruned), parent_map(sample()));
  EXPECT_EQ(pruned->agent_count(), sample().agent_count());
}

TEST(Prune, RootFailureKillsEverything) {
  EXPECT_FALSE(deploy::prune_failures(sample(), {0}).has_value());
}

TEST(Prune, FailedServerJustDisappears) {
  const auto pruned = deploy::prune_failures(sample(), {5});
  ASSERT_TRUE(pruned.has_value());
  EXPECT_TRUE(pruned->validate().empty());
  EXPECT_EQ(pruned->size(), 8u);
  const auto used = pruned->used_nodes();
  EXPECT_EQ(std::count(used.begin(), used.end(), 5u), 0);
}

TEST(Prune, FailedAgentDropsItsSubtree) {
  // Node 4 is an agent with servers 5,6,7: all four disappear.
  const auto pruned = deploy::prune_failures(sample(), {4});
  ASSERT_TRUE(pruned.has_value());
  EXPECT_TRUE(pruned->validate().empty());
  EXPECT_EQ(pruned->size(), 5u);
  for (NodeId dead : {4u, 5u, 6u, 7u}) {
    const auto used = pruned->used_nodes();
    EXPECT_EQ(std::count(used.begin(), used.end(), dead), 0) << dead;
  }
}

TEST(Prune, SingleChildAgentSplicesAndDemotes) {
  // Kill server 2: agent 1 is left with one child (3), which must splice
  // to the root while node 1 demotes to a server.
  const auto pruned = deploy::prune_failures(sample(), {2});
  ASSERT_TRUE(pruned.has_value());
  EXPECT_TRUE(pruned->validate().empty());
  EXPECT_EQ(pruned->size(), 8u);
  // Node 1 is now a server; node 3 hangs off the root.
  for (Hierarchy::Index e = 0; e < pruned->size(); ++e) {
    if (pruned->node_of(e) == 1u) EXPECT_FALSE(pruned->is_agent(e));
    if (pruned->node_of(e) == 3u)
      EXPECT_EQ(pruned->element(e).parent, pruned->root());
  }
}

TEST(Prune, ChildlessAgentDemotesToServer) {
  // Kill both servers of agent 1: it keeps its slot but serves.
  const auto pruned = deploy::prune_failures(sample(), {2, 3});
  ASSERT_TRUE(pruned.has_value());
  EXPECT_TRUE(pruned->validate().empty());
  for (Hierarchy::Index e = 0; e < pruned->size(); ++e)
    if (pruned->node_of(e) == 1u) EXPECT_FALSE(pruned->is_agent(e));
}

TEST(Prune, AllServersGoneMeansNoDeployment) {
  Hierarchy pair;
  const auto root = pair.add_root(0);
  pair.add_server(root, 1);
  EXPECT_FALSE(deploy::prune_failures(pair, {1}).has_value());
}

// Edge cases surfaced while wiring the shard-local replan path: the
// orchestrator's masks can exclude *every* host of a plan, just the
// root, or everything but one node — pruning must degrade to "no
// deployment", never to an invalid hierarchy or a crash.

TEST(Prune, AllHostsExcludedMeansNoDeployment) {
  NodeSet all;
  for (NodeId id = 0; id <= 8; ++id) all.insert(id);
  EXPECT_FALSE(deploy::prune_failures(sample(), all).has_value());
}

TEST(Prune, RootExcludedAloneKillsEverythingEvenWithHealthySubtrees) {
  // Only the root is failed; every subtree below it is healthy, but a
  // DIET hierarchy cannot re-root itself (children register upwards).
  const auto pruned = deploy::prune_failures(sample(), {0});
  EXPECT_FALSE(pruned.has_value());
}

TEST(Prune, SingleNodePlatformPlanHasNothingToPruneTo) {
  // A one-element "hierarchy" (bare root, as a single-node platform
  // would host) has no server, so any failure — and even no failure —
  // cannot yield a deployable remainder.
  Hierarchy bare;
  bare.add_root(0);
  EXPECT_FALSE(deploy::prune_failures(bare, {0}).has_value());
  EXPECT_FALSE(deploy::prune_failures(bare, {5}).has_value());
  EXPECT_FALSE(deploy::prune_failures(bare, {}).has_value());
}

TEST(Prune, FailuresOutsideThePlanAreIgnored) {
  const auto pruned = deploy::prune_failures(sample(), {100, 200, 300});
  ASSERT_TRUE(pruned.has_value());
  EXPECT_EQ(parent_map(*pruned), parent_map(sample()));
}

/// Property sweep: pruning any random failure set yields either nullopt
/// or a valid hierarchy that avoids every failed node and never grows.
class PruneSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneSweep, AlwaysValidMonotoneAndFailureFree) {
  Rng rng(GetParam());
  const Platform platform = gen::homogeneous(40, 200.0, 1000.0);
  const auto plan = plan_heterogeneous(platform, kParams, dgemm_service(310));
  const Hierarchy& h = plan.hierarchy;

  NodeSet failed;
  for (NodeId id = 0; id < platform.size(); ++id)
    if (rng.uniform() < 0.25) failed.insert(id);

  const auto pruned = deploy::prune_failures(h, failed);
  if (!pruned.has_value()) return;  // root failed or nothing usable: fine
  EXPECT_TRUE(pruned->validate(&platform).empty());
  EXPECT_LE(pruned->size(), h.size());
  for (NodeId node : pruned->used_nodes()) EXPECT_EQ(failed.count(node), 0u);
  // Monotonicity: failing one more node never enlarges the survivor.
  NodeSet more = failed;
  more.insert(pruned->used_nodes().back());
  const auto pruned_more = deploy::prune_failures(h, more);
  if (pruned_more.has_value())
    EXPECT_LT(pruned_more->size(), pruned->size() + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneSweep,
                         ::testing::Range<std::uint64_t>(1, 17));

// --------------------------------------------------------- launch simulation --

TEST(SimulatedLaunch, ZeroFailureRateLaunchesEverything) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  Rng rng(3);
  const auto report = deploy::simulate_launch(sample(), platform, 0.0, rng);
  EXPECT_EQ(report.launched.size(), 9u);
  EXPECT_TRUE(report.failed.empty());
  EXPECT_TRUE(report.skipped.empty());
  ASSERT_TRUE(report.surviving.has_value());
  EXPECT_EQ(parent_map(*report.surviving), parent_map(sample()));
}

TEST(SimulatedLaunch, PartitionsElementsExactly) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  Rng rng(11);
  const auto report = deploy::simulate_launch(sample(), platform, 0.3, rng);
  EXPECT_EQ(report.launched.size() + report.failed.size() +
                report.skipped.size(),
            9u);
  // Skipped elements sit under a failed or skipped ancestor.
  const Hierarchy h = sample();
  std::set<Hierarchy::Index> dead(report.failed.begin(), report.failed.end());
  dead.insert(report.skipped.begin(), report.skipped.end());
  for (Hierarchy::Index e : report.skipped)
    EXPECT_TRUE(dead.count(h.element(e).parent));
}

TEST(SimulatedLaunch, DeterministicPerSeed) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  Rng rng1(21), rng2(21);
  const auto a = deploy::simulate_launch(sample(), platform, 0.4, rng1);
  const auto b = deploy::simulate_launch(sample(), platform, 0.4, rng2);
  EXPECT_EQ(a.launched, b.launched);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.surviving.has_value(), b.surviving.has_value());
}

TEST(SimulatedLaunch, RejectsBadFailureRate) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  Rng rng(1);
  EXPECT_THROW(deploy::simulate_launch(sample(), platform, 1.0, rng), Error);
  EXPECT_THROW(deploy::simulate_launch(sample(), platform, -0.1, rng), Error);
}

// ------------------------------------------------------------------ repair --

TEST(Repair, RecruitSparesAfterFailures) {
  // Plan on 12 of 24 nodes (demand-capped), fail two servers, repair: the
  // repaired deployment must avoid failed nodes, be valid, and recover
  // throughput using spares.
  const Platform platform = gen::homogeneous(24, 200.0, 1000.0);
  const ServiceSpec service = dgemm_service(500);
  const auto plan = plan_heterogeneous(platform, kParams, service,
                                       /*demand=*/8.0);
  ASSERT_GT(plan.nodes_used(), 4u);
  ASSERT_LT(plan.nodes_used(), platform.size());

  const auto servers = plan.hierarchy.servers();
  const NodeSet failed{plan.hierarchy.node_of(servers[0]),
                       plan.hierarchy.node_of(servers[1])};
  const auto pruned = deploy::prune_failures(plan.hierarchy, failed);
  ASSERT_TRUE(pruned.has_value());
  const auto degraded = model::evaluate(*pruned, platform, kParams, service);

  const auto repaired =
      deploy::repair(plan.hierarchy, platform, failed, kParams, service);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_TRUE(repaired->validate(&platform).empty());
  for (NodeId node : repaired->used_nodes()) EXPECT_EQ(failed.count(node), 0u);
  const auto recovered = model::evaluate(*repaired, platform, kParams, service);
  EXPECT_GT(recovered.overall, degraded.overall);
}

TEST(Repair, RootFailureIsUnrepairable) {
  const Platform platform = gen::homogeneous(9, 200.0, 1000.0);
  const Hierarchy h = sample();
  const NodeSet failed{h.node_of(h.root())};
  EXPECT_FALSE(
      deploy::repair(h, platform, failed, kParams, dgemm_service(310)).has_value());
}

}  // namespace
}  // namespace adept
