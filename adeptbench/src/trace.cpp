#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace adeptbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Op: return "op";
    case Layer::Platform: return "platform";
    case Layer::Heuristic: return "planner.heuristic";
    case Layer::Sharded: return "planner.sharded";
    case Layer::ShardCache: return "planner.shard_cache";
    case Layer::PlanningService: return "planner.planning_service";
    case Layer::Replan: return "planner.replan";
    case Layer::Wire: return "io.wire";
    case Layer::Serve: return "io.serve";
    case Layer::Dist: return "dist";
    case Layer::Count: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

double SpanRecorder::now_ms() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1e6;
}

std::int64_t SpanRecorder::open(Layer layer, std::uint64_t request,
                                std::int64_t parent) {
  const double start = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({layer, start, start, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t id) {
  const double end = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_ms = end;
}

std::int64_t SpanRecorder::add(Layer layer, std::uint64_t request,
                               std::int64_t parent, double start_ms,
                               double end_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({layer, start_ms, end_ms, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : snapshot())
    out << "{\"layer\":\"" << layer_name(s.layer) << "\",\"start_ms\":"
        << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = std::max(lo, spans[i].end_ms);
    intervals.clear();
    for (std::size_t c : children[i]) {
      const double a = std::max(lo, spans[c].start_ms);
      const double b = std::min(hi, spans[c].end_ms);
      if (b > a) intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open_run = false;
    for (const auto& [a, b] : intervals) {
      if (open_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open_run) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open_run = true;
    }
    if (open_run) covered += run_end - run_start;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

LayerSummary summarize(const std::vector<Span>& spans) {
  LayerSummary out;
  const std::vector<double> self = self_times_ms(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto l = static_cast<std::size_t>(spans[i].layer);
    const double total = std::max(0.0, spans[i].end_ms - spans[i].start_ms);
    out.self_ms[l] += self[i];
    out.total_ms[l] += total;
    ++out.count[l];
    if (spans[i].layer == Layer::Op) {
      out.root_ms += total;
      out.uncovered_ms += self[i];
    }
  }
  return out;
}

}  // namespace adeptbench
