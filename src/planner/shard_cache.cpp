#include "planner/shard_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "planner/sharded.hpp"

namespace adept {

namespace detail {

namespace {

/// Two independent FNV-1a streams over the key's byte encoding. Every
/// field is fixed-width or length-prefixed, so the encoding is
/// injective: no two distinct field sequences feed the same bytes.
class KeyHasher {
 public:
  void bytes(const void* data, std::size_t size) {
    constexpr std::uint64_t kPrime = 1099511628211ull;
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h1_ = (h1_ ^ p[i]) * kPrime;
      h2_ = (h2_ ^ (p[i] ^ 0x5bu)) * kPrime;
    }
  }

  void tag(unsigned char value) { bytes(&value, 1); }

  void integer(std::uint64_t value) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i)
      le[i] = static_cast<unsigned char>(value >> (8 * i));
    bytes(le, sizeof le);
  }

  /// The exact bits, so -0.0 and 0.0 differ like their wire dumps do.
  /// Non-finite numbers fail with the wire encoder's error.
  void number(double value) {
    ADEPT_CHECK(std::isfinite(value),
                "JSON cannot represent a non-finite number");
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    integer(bits);
  }

  void text(std::string_view value) {
    integer(value.size());
    bytes(value.data(), value.size());
  }

  void costs(const ElementCosts& row) {
    for (const double value :
         {row.wreq, row.wfix, row.wsel, row.wpre, row.sreq, row.srep})
      number(value);
  }

  std::string digest() const {
    std::string key(16, '\0');
    for (int i = 0; i < 8; ++i) {
      key[i] = static_cast<char>(h1_ >> (8 * i));
      key[8 + i] = static_cast<char>(h2_ >> (8 * i));
    }
    return key;
  }

 private:
  std::uint64_t h1_ = 14695981039346656037ull;  // FNV offset basis
  std::uint64_t h2_ = 0x9e3779b97f4a7c15ull;    // independent basis
};

}  // namespace

std::string request_key(const PlanRequest& request,
                        const std::string& planner) {
  ADEPT_CHECK(request.platform != nullptr, "PlanRequest has no platform");
  const Platform& platform = *request.platform;
  KeyHasher hash;
  hash.text(planner);
  hash.number(platform.bandwidth());
  hash.integer(platform.size());
  for (const NodeSpec& node : platform.nodes()) {
    hash.text(node.name);
    hash.number(node.power);
    // The wire omits a zero link, so -0.0 and 0.0 are both "no link".
    hash.number(node.link != 0.0 ? node.link : 0.0);
  }
  hash.costs(request.params.agent);
  hash.costs(request.params.server);
  hash.text(request.service.name);
  hash.number(request.service.wapp);
  const PlanOptions& options = request.options;
  // +inf travels as "unlimited"; -inf and NaN are unencodable.
  if (std::isinf(options.demand) && options.demand > 0.0) {
    hash.tag(1);
  } else {
    hash.tag(0);
    hash.number(options.demand);
  }
  hash.integer(options.degree);
  hash.integer(options.shards);
  hash.integer(options.excluded.size());
  for (const NodeId id : options.excluded) hash.integer(id);
  hash.tag(options.verbose_trace ? 1 : 0);
  return hash.digest();
}

}  // namespace detail

ShardPlanCache::ShardPlanCache(std::size_t capacity) : capacity_(capacity) {}

std::string ShardPlanCache::key(const Platform& shard_platform,
                                const MiddlewareParams& params,
                                const ServiceSpec& service,
                                const PlanOptions& options,
                                const std::string& leaf_planner) {
  // Borrows the platform (aliasing shared_ptr): the request dies here.
  return detail::request_key(
      shard_leaf_request(
          std::shared_ptr<const Platform>(std::shared_ptr<const Platform>(),
                                          &shard_platform),
          params, service, options),
      leaf_planner);
}

std::optional<PlanResult> ShardPlanCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return std::nullopt;
  const auto found = map_.find(key);
  if (found == map_.end()) {
    ++stats_.misses;
    if (c_misses_ != nullptr) c_misses_->inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++stats_.hits;
  if (c_hits_ != nullptr) c_hits_->inc();
  return found->second->plan;
}

void ShardPlanCache::insert(const std::string& key,
                            const Platform& shard_platform,
                            const PlanResult& plan) {
  std::vector<std::string> names;
  names.reserve(shard_platform.size());
  for (NodeId id = 0; id < shard_platform.size(); ++id)
    names.push_back(shard_platform.node(id).name);
  std::sort(names.begin(), names.end());

  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0 || map_.find(key) != map_.end()) return;
    lru_.push_front(Entry{key, std::move(names), plan});
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
    evicted = evict_to_capacity_locked();
  }
  if (evicted != 0 && c_evictions_ != nullptr) c_evictions_->inc(evicted);
}

std::uint64_t ShardPlanCache::evict_to_capacity_locked() {
  std::uint64_t evicted = 0;
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evicted;
  }
  stats_.evictions += evicted;
  return evicted;
}

std::size_t ShardPlanCache::invalidate_node(const std::string& node_name) {
  std::size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (std::binary_search(it->names.begin(), it->names.end(), node_name)) {
        map_.erase(it->key);
        it = lru_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    stats_.invalidations += erased;
  }
  if (erased != 0 && c_invalidations_ != nullptr)
    c_invalidations_->inc(erased);
  return erased;
}

std::size_t ShardPlanCache::clear() {
  std::size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    erased = map_.size();
    lru_.clear();
    map_.clear();
    if (erased != 0) ++stats_.flushes;
  }
  if (erased != 0 && c_flushes_ != nullptr) c_flushes_->inc();
  return erased;
}

void ShardPlanCache::set_capacity(std::size_t capacity) {
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    evicted = evict_to_capacity_locked();
  }
  if (evicted != 0 && c_evictions_ != nullptr) c_evictions_->inc(evicted);
}

std::size_t ShardPlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::size_t ShardPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

ShardPlanCache::Stats ShardPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ShardPlanCache::bind_metrics(obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  c_hits_ = &registry.counter("service.shard_cache.hits");
  c_misses_ = &registry.counter("service.shard_cache.misses");
  c_evictions_ = &registry.counter("service.shard_cache.evictions");
  c_invalidations_ = &registry.counter("service.shard_cache.invalidations");
  c_flushes_ = &registry.counter("service.shard_cache.flushes");
}

}  // namespace adept
