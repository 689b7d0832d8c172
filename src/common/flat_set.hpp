#pragma once
/// \file flat_set.hpp
/// \brief Sorted-vector set of platform node ids.
///
/// Planner hot paths test membership ("is this node excluded / already
/// used?") far more often than they mutate, and the sets are small and
/// built once per run. A sorted std::vector beats std::set here: one
/// contiguous allocation instead of one node allocation per id, and
/// binary search over cache-resident memory instead of pointer chasing.
/// NodeSet keeps the subset of the std::set interface the planning code
/// uses (insert / count / contains / iteration in ascending order), so
/// PlanOptions::excluded call sites read unchanged.

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "platform/platform.hpp"

namespace adept {

/// Set of NodeIds backed by a sorted vector.
class NodeSet {
 public:
  using const_iterator = std::vector<NodeId>::const_iterator;

  NodeSet() = default;
  NodeSet(std::initializer_list<NodeId> ids) : ids_(ids) { normalise(); }
  /// Takes any vector of ids (sorted + deduplicated internally).
  explicit NodeSet(std::vector<NodeId> ids) : ids_(std::move(ids)) {
    normalise();
  }

  bool contains(NodeId id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  /// std::set-style membership count (0 or 1).
  std::size_t count(NodeId id) const { return contains(id) ? 1 : 0; }

  void insert(NodeId id) {
    const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (at == ids_.end() || *at != id) ids_.insert(at, id);
  }
  void erase(NodeId id) {
    const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (at != ids_.end() && *at == id) ids_.erase(at);
  }
  void clear() { ids_.clear(); }

  bool empty() const { return ids_.empty(); }
  std::size_t size() const { return ids_.size(); }
  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }

  bool operator==(const NodeSet& other) const = default;

 private:
  void normalise() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  std::vector<NodeId> ids_;
};

}  // namespace adept
