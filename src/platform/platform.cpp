#include "platform/platform.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>

#include "common/error.hpp"

namespace adept {

namespace {

/// The first node (input order) whose name an earlier node already has,
/// or nodes.size() when every name is unique. Open addressing over node
/// indices with linear probing, at most half full; tables of up to
/// kStackSlots slots (platforms of up to 2048 nodes) live on the stack,
/// so validating such a platform allocates nothing.
std::size_t first_repeated_name(const std::vector<NodeSpec>& nodes) {
  constexpr std::size_t kStackSlots = 4096;
  constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  ADEPT_CHECK(nodes.size() < kEmpty, "platform has too many nodes");
  std::size_t slots = 16;
  while (slots < 2 * nodes.size()) slots *= 2;
  std::array<std::uint32_t, kStackSlots> stack_table;
  std::vector<std::uint32_t> heap_table;
  std::uint32_t* table = stack_table.data();
  if (slots > kStackSlots) {
    heap_table.resize(slots);
    table = heap_table.data();
  }
  std::fill(table, table + slots, kEmpty);
  const std::size_t mask = slots - 1;
  const std::hash<std::string_view> hash;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string_view name = nodes[i].name;
    for (std::size_t slot = hash(name) & mask;; slot = (slot + 1) & mask) {
      if (table[slot] == kEmpty) {
        table[slot] = static_cast<std::uint32_t>(i);
        break;
      }
      if (nodes[table[slot]].name == name) return i;
    }
  }
  return nodes.size();
}

}  // namespace

Platform::Platform(std::vector<NodeSpec> nodes, MbitRate bandwidth)
    : nodes_(std::move(nodes)), bandwidth_(bandwidth) {
  ADEPT_CHECK(bandwidth_ > 0.0, "platform bandwidth must be positive");
  // The first failure in input order is reported: nodes up to and
  // including the first repeat are validated before the repeat is.
  const std::size_t repeat = first_repeated_name(nodes_);
  for (std::size_t i = 0; i < nodes_.size() && i <= repeat; ++i)
    validate_node(nodes_[i]);
  ADEPT_CHECK(repeat == nodes_.size(),
              "duplicate node name '" + nodes_[repeat].name + "'");
  rebuild_caches();
}

void Platform::rebuild_caches() {
  powers_.resize(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) powers_[i] = nodes_[i].power;
  order_desc_.resize(nodes_.size());
  for (NodeId i = 0; i < order_desc_.size(); ++i) order_desc_[i] = i;
  // (power desc, id asc) is a total order over distinct ids, so the
  // unstable sort yields the one permutation a stable sort would.
  std::sort(order_desc_.begin(), order_desc_.end(),
            [this](NodeId a, NodeId b) {
              if (powers_[a] != powers_[b]) return powers_[a] > powers_[b];
              return a < b;
            });
}

void Platform::validate_node(const NodeSpec& node) const {
  ADEPT_CHECK(!node.name.empty(), "node name must be non-empty");
  ADEPT_CHECK(node.power > 0.0,
              "node '" + node.name + "' must have positive power");
  ADEPT_CHECK(node.link >= 0.0,
              "node '" + node.name + "' link bandwidth must be non-negative");
}

MbitRate Platform::link_bandwidth(NodeId id) const {
  const NodeSpec& spec = node(id);
  return spec.link > 0.0 ? spec.link : bandwidth_;
}

MbitRate Platform::edge_bandwidth(NodeId a, NodeId b) const {
  return std::min(link_bandwidth(a), link_bandwidth(b));
}

bool Platform::has_homogeneous_links() const {
  for (const auto& spec : nodes_)
    if (spec.link > 0.0 && spec.link != bandwidth_) return false;
  return true;
}

void Platform::set_link(NodeId id, MbitRate link) {
  ADEPT_CHECK(id < nodes_.size(), "node id out of range");
  ADEPT_CHECK(link > 0.0, "link bandwidth must be positive");
  nodes_[id].link = link;
}

void Platform::set_power(NodeId id, MFlopRate power) {
  ADEPT_CHECK(id < nodes_.size(), "node id out of range");
  ADEPT_CHECK(power > 0.0, "node power must be positive");
  nodes_[id].power = power;
  rebuild_caches();
}

const NodeSpec& Platform::node(NodeId id) const {
  ADEPT_CHECK(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

NodeId Platform::add_node(NodeSpec node) {
  validate_node(node);
  for (const auto& existing : nodes_)
    ADEPT_CHECK(existing.name != node.name,
                "duplicate node name '" + node.name + "'");
  nodes_.push_back(std::move(node));
  rebuild_caches();
  return nodes_.size() - 1;
}

MFlopRate Platform::total_power() const {
  MFlopRate total = 0.0;
  for (const auto& node : nodes_) total += node.power;
  return total;
}

MFlopRate Platform::min_power() const {
  ADEPT_CHECK(!nodes_.empty(), "min_power of empty platform");
  MFlopRate lo = nodes_.front().power;
  for (const auto& node : nodes_) lo = std::min(lo, node.power);
  return lo;
}

MFlopRate Platform::max_power() const {
  ADEPT_CHECK(!nodes_.empty(), "max_power of empty platform");
  MFlopRate hi = nodes_.front().power;
  for (const auto& node : nodes_) hi = std::max(hi, node.power);
  return hi;
}

double Platform::heterogeneity_ratio() const { return max_power() / min_power(); }

bool Platform::is_homogeneous() const {
  if (nodes_.size() < 2) return true;
  const double lo = min_power();
  const double hi = max_power();
  return (hi - lo) <= 1e-12 * hi;
}

Platform Platform::subset(const std::vector<NodeId>& ids) const {
  std::vector<NodeSpec> chosen;
  chosen.reserve(ids.size());
  for (NodeId id : ids) chosen.push_back(node(id));
  return Platform(std::move(chosen), bandwidth_);
}

}  // namespace adept
