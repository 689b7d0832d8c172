#pragma once
/// \file trace.hpp
/// \brief The traced run's span recorder.
///
/// A span is one call into a layer of the system: its layer, start, end,
/// parent span and the id of the end-to-end operation (request) it
/// belongs to. The benchmark records spans around the public entry
/// points it calls; nothing inside the system under test is
/// instrumented. Spans are kept in memory and written out at exit.
///
/// A layer's self time is its spans' durations minus the part of each
/// span that its children cover (children may overlap one another, as
/// concurrent shard dispatches do; the covered part is their union).
/// The root span of an operation is the operation as the client sees
/// it, so the root's self time is the time no layer span explains.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace adeptbench {

/// The closed set of layers a span can name.
enum class Layer : std::uint8_t {
  Op,               ///< Root: one end-to-end operation.
  Platform,         ///< plat::partition_platform.
  Heuristic,        ///< planner.heuristic: the paper's Algorithm 1.
  Sharded,          ///< planner.sharded: plan_sharded_with (stitch + repair).
  ShardCache,       ///< planner.shard_cache: ShardPlanCache key + probe.
  PlanningService,  ///< planner.planning_service: PlanningService run/submit.
  Replan,           ///< planner.replan: ReplanOrchestrator::on_event.
  Wire,             ///< io.wire: JSON encode/decode.
  Serve,            ///< io.serve: the serve session.
  Dist,             ///< dist: coordinator dispatch and shard round trips.
  Count
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

/// Dotted layer name ("planner.heuristic", "io.wire", ...).
const char* layer_name(Layer layer);

/// Sentinel parent of a root span.
inline constexpr std::int64_t kNoParent = -1;

struct Span {
  Layer layer = Layer::Op;
  double start_ms = 0.0;  ///< Since the recorder's epoch.
  double end_ms = 0.0;
  std::int64_t parent = kNoParent;  ///< Index of the parent span.
  std::uint64_t request = 0;        ///< End-to-end operation id.
};

/// Thread-safe in-memory span store.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Milliseconds since the recorder's epoch (steady clock).
  double now_ms() const;
  /// Opens a span starting now; returns its index.
  std::int64_t open(Layer layer, std::uint64_t request,
                    std::int64_t parent = kNoParent);
  /// Closes span `id` now.
  void close(std::int64_t id);
  /// Records a finished span; returns its index.
  std::int64_t add(Layer layer, std::uint64_t request, std::int64_t parent,
                   double start_ms, double end_ms);

  std::vector<Span> snapshot() const;
  /// One JSON object per line: layer, start_ms, end_ms, parent, request.
  void write_jsonl(const std::string& path) const;

 private:
  std::int64_t epoch_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, std::uint64_t request,
             std::int64_t parent = kNoParent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(layer, request, parent)
                                : kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t id_;
};

/// Self time of every span (aligned with `spans`): its duration minus
/// the union of its children's intervals clipped to it.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Per-layer totals over a span set.
struct LayerSummary {
  double self_ms[kLayerCount] = {};
  double total_ms[kLayerCount] = {};
  std::size_t count[kLayerCount] = {};
  /// Summed duration of the root (Op) spans: the traced wall.
  double root_ms = 0.0;
  /// Summed self time of the root spans: time no layer span covers.
  double uncovered_ms = 0.0;
};

LayerSummary summarize(const std::vector<Span>& spans);

}  // namespace adeptbench
