#pragma once
/// \file cache_config.hpp
/// \brief The unified cache configuration of the planning stack.
///
/// One value type describes every caching knob a PlanningService has:
/// the whole-request plan cache, the shard-level sub-plan cache, and the
/// single-flight coalescing front. It is the one cache-configuration
/// surface and travels everywhere a cache is configured — the
/// PlanningService constructor and set_cache_config(), ServeConfig,
/// ReplanConfig, the `adept serve`/`plan`/`simulate` CLI flags, and the
/// wire format (wire::to_json / wire::cache_config_from_json round-trip
/// it; the serve `stats` response echoes the session's effective value).
///
/// Deliberately a plain aggregate in a header with no dependencies
/// beyond <cstddef>: the serve tier's public header stays lightweight.

#include <cstddef>

namespace adept {

/// Caching configuration of a PlanningService (see planning_service.hpp
/// for the cache contracts). Both caches are content-addressed through
/// the typed request key (detail::request_key), so a hit is
/// bit-identical to a recompute; capacities of 0 disable the respective
/// cache.
struct CacheConfig {
  /// Whole-request plan cache: bounded LRU keyed by the typed
  /// (planner, request) key. 0 disables it.
  std::size_t plan_capacity = 0;
  /// Shard-level sub-plan cache (planner/shard_cache.hpp): bounded LRU
  /// of per-shard leaf plans, consulted inside the sharded/distributed
  /// planners' leaf path. 0 disables it.
  std::size_t shard_capacity = 0;
  /// Single-flight coalescing: identical concurrent requests share one
  /// planning job instead of planning the same problem on two cores.
  /// Only meaningful while the plan cache is enabled.
  bool coalesce = true;

  friend bool operator==(const CacheConfig& a, const CacheConfig& b) {
    return a.plan_capacity == b.plan_capacity &&
           a.shard_capacity == b.shard_capacity && a.coalesce == b.coalesce;
  }
  friend bool operator!=(const CacheConfig& a, const CacheConfig& b) {
    return !(a == b);
  }
};

}  // namespace adept
