/// \file test_service_async.cpp
/// \brief Async planning API v2: tickets (submit / wait / poll / cancel /
/// progress), shared platform ownership, mid-flight deadline and
/// cancellation (StopGuard checkpoints inside the planners), and the
/// plan cache (hit / miss / eviction counters, cached-result identity).
///
/// Cancellation tests use a registered "test-blocker" planner that spins
/// on a StopGuard until cancelled or late — deterministic, no timing
/// assumptions. Portfolio tests in this binary therefore always pass
/// explicit planner lists (the blocker would hang a default portfolio).

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "planner/planning_service.hpp"
#include "planner/registry.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"

namespace adept {
namespace {

using test_util::run_planner;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();
constexpr MbitRate kB = 1000.0;

/// Spins on its StopGuard until the request is cancelled or past its
/// deadline — the deterministic stand-in for a long-running planner.
/// Tests must always arm a cancel token or a deadline.
class BlockerPlanner final : public IPlanner {
 public:
  const PlannerInfo& info() const override {
    static const PlannerInfo info{
        "test-blocker", "spins until cancelled or past the deadline", {}};
    return info;
  }
  PlanResult plan(const PlanRequest& request) const override {
    StopGuard stop(&request.options);
    while (true) {
      stop.check();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
};

void ensure_blocker_registered() {
  static const bool registered = [] {
    PlannerRegistry::instance().add(std::make_unique<BlockerPlanner>());
    return true;
  }();
  (void)registered;
}

Platform small_platform(std::uint64_t seed = 17) {
  Rng rng(seed);
  return gen::uniform(18, 300.0, 1200.0, kB, rng);
}

void expect_identical(const PlanResult& a, const PlanResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.hierarchy, b.hierarchy) << what;
  EXPECT_EQ(a.report, b.report) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
}

// ----------------------------------------------------------------- tickets --

TEST(Tickets, SubmitMatchesSynchronousRun) {
  const Platform platform = small_platform();
  PlanningService service(2);
  PlanTicket ticket = service.submit(
      PlanRequest(platform, kParams, dgemm_service(310)), "heuristic");
  ASSERT_TRUE(ticket.valid());
  const PlannerRun& run = ticket.wait();
  ASSERT_TRUE(run.ok) << run.error;
  expect_identical(run.result,
                   run_planner("heuristic", platform, dgemm_service(310)),
                   "submit vs registry");
  EXPECT_TRUE(ticket.poll());
  const auto progress = ticket.progress();
  EXPECT_TRUE(progress.started);
  EXPECT_TRUE(progress.done);
  EXPECT_FALSE(progress.cancel_requested);
  EXPECT_GE(progress.waited_ms, 0.0);
  // wait() is idempotent.
  EXPECT_TRUE(ticket.wait().ok);
}

TEST(Tickets, WaitOnATemporaryTicketReturnsByValue) {
  // `submit(...).wait()` is natural client code; the rvalue overload
  // must copy the result out instead of handing back a reference into
  // the destroyed temporary's state (ASan guards the difference).
  const Platform platform = small_platform(61);
  PlanningService service(2);
  const PlannerRun run =
      service.submit(PlanRequest(platform, kParams, dgemm_service(310)),
                     "heuristic")
          .wait();
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.result.nodes_used(), 0u);
  EXPECT_TRUE(run.result.hierarchy.validate(&platform).empty());
}

TEST(Tickets, EmptyTicketThrows) {
  PlanTicket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.poll(), Error);
  EXPECT_THROW(empty.wait(), Error);
}

TEST(Tickets, SubmittedRequestOwnsItsPlatform) {
  ensure_blocker_registered();
  // The platform's last external reference dies before the job runs; the
  // request's shared ownership keeps it alive (ASan would flag a dangle).
  PlanningService service(1);
  PlanTicket blocked;
  PlanTicket ticket;
  CancelToken unblock;
  {
    auto platform = std::make_shared<const Platform>(small_platform(23));
    // Occupy the only worker so the owning request sits in the queue
    // while its call-site scope (this block) is unwound.
    PlanRequest blocker(platform, kParams, dgemm_service(310));
    blocker.options.cancel = &unblock;
    blocked = service.submit(std::move(blocker), "test-blocker");
    ticket = service.submit(PlanRequest(platform, kParams, dgemm_service(310)),
                            "heuristic");
  }
  unblock.cancel();
  EXPECT_FALSE(blocked.wait().ok);
  const PlannerRun& run = ticket.wait();
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.result.nodes_used(), 0u);
}

// ----------------------------------------------- cancellation & deadlines --

TEST(Cancellation, QueuedAndRunningJobsBothCancel) {
  ensure_blocker_registered();
  const Platform platform = small_platform();
  PlanningService service(1);  // one worker → the blocker serialises jobs
  PlanTicket running = service.submit(
      PlanRequest(platform, kParams, dgemm_service(310)), "test-blocker");
  PlanTicket queued = service.submit(
      PlanRequest(platform, kParams, dgemm_service(310)), "star");
  // The queued job is skipped at admission; the running blocker stops at
  // its next StopGuard checkpoint.
  queued.cancel();
  running.cancel();
  const PlannerRun& queued_run = queued.wait();
  EXPECT_FALSE(queued_run.ok);
  EXPECT_TRUE(queued_run.skipped);
  EXPECT_EQ(queued_run.error, "cancelled");
  const PlannerRun& running_run = running.wait();
  EXPECT_FALSE(running_run.ok);
  EXPECT_TRUE(running_run.skipped);
  EXPECT_NE(running_run.error.find("cancel"), std::string::npos)
      << running_run.error;
  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_TRUE(running.progress().cancel_requested);
}

TEST(Cancellation, TicketTokenLayersOverTheCallersToken) {
  ensure_blocker_registered();
  const Platform platform = small_platform();
  PlanningService service(1);
  CancelToken caller;
  PlanRequest request(platform, kParams, dgemm_service(310));
  request.options.cancel = &caller;
  PlanTicket ticket = service.submit(std::move(request), "test-blocker");
  // Cancelling the *caller's* token (not the ticket's) must also stop
  // the job: the per-ticket token links to it.
  caller.cancel();
  const PlannerRun& run = ticket.wait();
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.skipped);
}

TEST(Deadlines, LateJobStopsMidFlight) {
  ensure_blocker_registered();
  const Platform platform = small_platform();
  PlanningService service(1);
  PlanRequest request(platform, kParams, dgemm_service(310));
  request.options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  PlanTicket ticket = service.submit(std::move(request), "test-blocker");
  const PlannerRun& run = ticket.wait();  // returns: the blocker stops itself
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.skipped);
  EXPECT_NE(run.error.find("deadline"), std::string::npos) << run.error;
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(Deadlines, HeuristicHonoursAnAlreadyPassedDeadline) {
  const Platform platform = small_platform();
  PlanningService service(1);
  PlanRequest request(platform, kParams, dgemm_service(310));
  request.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const PlannerRun run = service.run(request, "heuristic");
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.skipped);
  EXPECT_EQ(run.error, "deadline exceeded");
}

TEST(Cancellation, MidPortfolioCancelSkipsTheBlockedMember) {
  ensure_blocker_registered();
  const Platform platform = small_platform();
  PlanningService service(1);
  PortfolioTicket ticket = service.submit_portfolio(
      PlanRequest(platform, kParams, dgemm_service(310)),
      {"star", "test-blocker"});
  // On a one-worker pool the portfolio's batch runs inline in list
  // order: star completes first. Wait for its record, then cancel the
  // still-spinning blocker through the portfolio ticket.
  while (service.stats().jobs < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ticket.cancel();
  const PortfolioResult& portfolio = ticket.wait();
  ASSERT_EQ(portfolio.runs.size(), 2u);
  EXPECT_TRUE(portfolio.runs[0].ok) << portfolio.runs[0].error;
  EXPECT_FALSE(portfolio.runs[1].ok);
  EXPECT_TRUE(portfolio.runs[1].skipped);
  ASSERT_TRUE(portfolio.has_winner());
  EXPECT_EQ(portfolio.best().planner, "star");
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(Portfolios, SubmitPortfolioMatchesSynchronousPortfolio) {
  const Platform platform = small_platform(29);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  PlanningService service(2);
  PortfolioTicket ticket =
      service.submit_portfolio(request, {"star", "balanced", "heuristic"});
  const PortfolioResult& async_result = ticket.wait();
  PlanningService reference(2);
  const PortfolioResult sync_result =
      reference.run_portfolio(request, {"star", "balanced", "heuristic"});
  ASSERT_TRUE(async_result.has_winner());
  ASSERT_TRUE(sync_result.has_winner());
  EXPECT_EQ(async_result.winner, sync_result.winner);
  EXPECT_EQ(async_result.scores, sync_result.scores);
  expect_identical(async_result.best().result, sync_result.best().result,
                   "async vs sync portfolio");
}

// -------------------------------------------------------------- plan cache --

TEST(PlanCache, HitReturnsTheIdenticalResult) {
  const Platform platform = small_platform(31);
  PlanningService service(2, PlannerRegistry::instance(), CacheConfig{8});
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const PlannerRun first = service.run(request, "heuristic");
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cached);
  const PlannerRun second = service.run(request, "heuristic");
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.evaluations, 0u);
  expect_identical(second.result, first.result, "cached vs fresh");
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.jobs, 2u);
}

TEST(PlanCache, DistinctProblemsMissAndLruEvicts) {
  const Platform platform = small_platform(37);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{1});
  const PlanRequest a(platform, kParams, dgemm_service(100));
  const PlanRequest b(platform, kParams, dgemm_service(310));
  service.run(a, "star");  // miss, cached
  service.run(b, "star");  // miss, evicts a
  service.run(a, "star");  // miss again (evicted), evicts b
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_evictions, 2u);
}

TEST(PlanCache, PlatformContentChangesInvalidate) {
  // "Invalidation on platform identity": the key covers platform
  // content, so an edited platform can never be served a stale plan.
  Platform platform = small_platform(41);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  const PlannerRun before =
      service.run(PlanRequest(platform, kParams, dgemm_service(310)), "star");
  platform.set_link(0, 25.0);
  const PlannerRun after =
      service.run(PlanRequest(platform, kParams, dgemm_service(310)), "star");
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().cache_misses, 2u);
  EXPECT_TRUE(before.ok);
  EXPECT_TRUE(after.ok);
}

TEST(PlanCache, CapacityZeroDisables) {
  const Platform platform = small_platform(43);
  PlanningService service(1);  // default: cache off
  const PlanRequest request(platform, kParams, dgemm_service(310));
  service.run(request, "star");
  service.run(request, "star");
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(PlanCache, SetCapacityShrinksAndDisables) {
  const Platform platform = small_platform(47);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  EXPECT_EQ(service.cache_config().plan_capacity, 8u);
  service.run(PlanRequest(platform, kParams, dgemm_service(100)), "star");
  service.run(PlanRequest(platform, kParams, dgemm_service(200)), "star");
  service.set_cache_config(CacheConfig{1});  // evicts one entry
  EXPECT_EQ(service.cache_config().plan_capacity, 1u);
  EXPECT_EQ(service.stats().cache_evictions, 1u);
  service.set_cache_config(CacheConfig{0});  // evicts the rest, disables
  EXPECT_EQ(service.stats().cache_evictions, 2u);
  const std::uint64_t misses = service.stats().cache_misses;
  service.run(PlanRequest(platform, kParams, dgemm_service(100)), "star");
  EXPECT_EQ(service.stats().cache_misses, misses);  // cache not consulted
}

TEST(PlanCache, InvalidRequestsFailTheRunNotTheProcess) {
  // With the cache on, the request is keyed before planning; a null
  // platform (or NaN demand) must surface as run.error
  // — on the submit() path an escaping throw would terminate() the pool.
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  const PlannerRun direct = service.run(PlanRequest{}, "heuristic");
  EXPECT_FALSE(direct.ok);
  EXPECT_NE(direct.error.find("platform"), std::string::npos) << direct.error;
  const PlannerRun async =
      service.submit(PlanRequest{}, "heuristic").wait();
  EXPECT_FALSE(async.ok);
  EXPECT_EQ(service.stats().failures, 2u);
}

TEST(PlanCache, UnencodableNumbersFailTheRunWithTheWireError) {
  // The typed cache key applies the wire encoder's finiteness check: a
  // NaN or -inf demand, or a NaN wapp, fails the run with the encoder's
  // error on both the synchronous and the ticket path.
  const Platform platform = small_platform(61);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  PlanRequest nan_demand(platform, kParams, dgemm_service(310));
  nan_demand.options.demand = std::numeric_limits<double>::quiet_NaN();
  PlanRequest negative_infinite_demand(platform, kParams, dgemm_service(310));
  negative_infinite_demand.options.demand = -kUnlimitedDemand;
  PlanRequest nan_wapp(platform, kParams, dgemm_service(310));
  nan_wapp.service.wapp = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t failures = 0;
  for (const PlanRequest& request :
       {nan_demand, negative_infinite_demand, nan_wapp}) {
    const PlannerRun direct = service.run(request, "heuristic");
    const PlannerRun async = service.submit(request, "heuristic").wait();
    failures += 2;
    for (const PlannerRun& run : {direct, async}) {
      EXPECT_FALSE(run.ok);
      EXPECT_FALSE(run.skipped);
      EXPECT_NE(run.error.find("JSON cannot represent a non-finite number"),
                std::string::npos)
          << run.error;
    }
  }
  EXPECT_EQ(service.stats().failures, failures);
  EXPECT_EQ(service.stats().cache_misses, 0u);  // never got as far as a probe
}

TEST(PlanCache, VerboseAndQuietTraceAreDistinctEntries) {
  const Platform platform = small_platform(53);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  PlanRequest verbose(platform, kParams, dgemm_service(310));
  PlanRequest quiet(platform, kParams, dgemm_service(310));
  quiet.options.verbose_trace = false;
  const PlannerRun loud = service.run(verbose, "heuristic");
  const PlannerRun silent = service.run(quiet, "heuristic");
  EXPECT_FALSE(silent.cached);  // different cache key
  EXPECT_FALSE(loud.result.trace.empty());
  EXPECT_TRUE(silent.result.trace.empty());
  // And each repeat hits its own entry with the right trace shape.
  EXPECT_TRUE(service.run(verbose, "heuristic").cached);
  EXPECT_TRUE(service.run(quiet, "heuristic").result.trace.empty());
}

TEST(PlanCache, RuntimeCacheConfigMatchesConstructorConfig) {
  // A CacheConfig applied at runtime through set_cache_config() must
  // behave exactly like the same value passed to the constructor: same
  // effective policy, same hit behaviour, same plans.
  const Platform platform = small_platform(59);
  const CacheConfig expected{/*plan_capacity=*/8, /*shard_capacity=*/0,
                             /*coalesce=*/true};
  PlanningService runtime(1);
  runtime.set_cache_config(expected);
  EXPECT_EQ(runtime.cache_config(), expected);
  EXPECT_EQ(runtime.cache_config().plan_capacity, 8u);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  EXPECT_FALSE(runtime.run(request, "heuristic").cached);
  EXPECT_TRUE(runtime.run(request, "heuristic").cached);

  PlanningService constructed(1, PlannerRegistry::instance(), expected);
  EXPECT_EQ(constructed.cache_config(), runtime.cache_config());
  expect_identical(constructed.run(request, "heuristic").result,
                   runtime.run(request, "heuristic").result,
                   "constructor CacheConfig vs set_cache_config");
}

TEST(PlanCache, CoalesceOffPlansEveryMissIndependently) {
  // CacheConfig::coalesce = false turns off single-flight: a job that
  // misses plans for itself instead of waiting on an identical leader.
  // Under every scheduling: no coalesced waits, every job is either a
  // plain hit or a self-planned miss, and all answers stay identical.
  const Platform platform = small_platform(61);
  PlanningService service(4, PlannerRegistry::instance(),
                          CacheConfig{/*plan_capacity=*/8,
                                      /*shard_capacity=*/0,
                                      /*coalesce=*/false});
  EXPECT_FALSE(service.cache_config().coalesce);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  constexpr std::size_t kJobs = 8;
  std::vector<PlanTicket> tickets;
  tickets.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i)
    tickets.push_back(service.submit(request, "heuristic"));
  const PlannerRun first = tickets.front().wait();
  ASSERT_TRUE(first.ok);
  for (auto& ticket : tickets) {
    const PlannerRun& run = ticket.wait();
    ASSERT_TRUE(run.ok);
    expect_identical(run.result, first.result, "coalesce-off run");
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_coalesced, 0u);
  EXPECT_GE(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kJobs);
  // A later sequential repeat still finds the finished entry: turning
  // coalescing off does not turn the LRU off.
  EXPECT_TRUE(service.run(request, "heuristic").cached);
}

}  // namespace
}  // namespace adept
