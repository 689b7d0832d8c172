/// \file test_stats.cpp
/// \brief Unit tests of the benchmark's own helpers: the percentile
/// choice under the ten-samples-beyond rule, goodput under a latency
/// limit, span self time with nested and overlapping children, and
/// failure accounting. Plain checks that stay on in every build type.
///
///   python3 adeptbench/run.py --unit-tests

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace adeptbench;

void percentile_rule() {
  EXPECT(percentile_rank(100, 90.0) == 90);
  EXPECT(samples_beyond(100, 90.0) == 10);
  EXPECT(percentile_supported(100, 90.0));
  EXPECT(!percentile_supported(100, 99.0));
  EXPECT(!percentile_supported(99, 90.0));  // rank 90, only 9 beyond
  EXPECT(percentile_supported(1000, 99.0));
  EXPECT(!percentile_supported(1000, 99.9));
  EXPECT(percentile_supported(20, 50.0));
  EXPECT(!percentile_supported(19, 50.0));
  EXPECT(!percentile_supported(0, 50.0));
  const std::vector<double> candidates = {50.0, 90.0, 99.0};
  EXPECT(near(highest_supported_percentile(100, candidates), 90.0));
  EXPECT(near(highest_supported_percentile(99, candidates), 50.0));
  EXPECT(near(highest_supported_percentile(1000, candidates), 99.0));
  EXPECT(near(highest_supported_percentile(15, candidates), 0.0));

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // any order
  EXPECT(near(percentile(values, 50.0), 50.0));
  EXPECT(near(percentile(values, 90.0), 90.0));
  EXPECT(near(percentile(values, 100.0), 100.0));
  EXPECT(near(percentile({}, 50.0), 0.0));
  EXPECT(near(percentile({7.0}, 99.0), 7.0));
  EXPECT(near(mean({1.0, 2.0, 6.0}), 3.0));
}

void goodput() {
  const std::vector<Response> responses = {
      {100.0, true}, {600.0, true}, {50.0, false}, {500.0, true}, {499.0, false}};
  // Ok and within the limit: 100 and 500 (the limit is inclusive).
  EXPECT(near(goodput_rps(responses, 500.0, 2.0), 1.0));
  EXPECT(near(goodput_rps(responses, 1000.0, 2.0), 1.5));
  EXPECT(near(goodput_rps(responses, 10.0, 2.0), 0.0));
  EXPECT(near(goodput_rps(responses, 500.0, 0.0), 0.0));
  EXPECT(near(goodput_rps({}, 500.0, 1.0), 0.0));
}

void span_self_time() {
  std::vector<Span> spans = {
      {Layer::Op, 0.0, 100.0, kNoParent, 1},     // 0: root
      {Layer::Sharded, 10.0, 40.0, 0, 1},        // 1: child
      {Layer::Dist, 30.0, 70.0, 0, 1},           // 2: child overlapping 1
      {Layer::Heuristic, 15.0, 20.0, 1, 1},      // 3: grandchild under 1
      {Layer::Dist, 90.0, 120.0, 0, 1},          // 4: child past the root's end
      {Layer::Op, 200.0, 210.0, kNoParent, 2},   // 5: second root, no children
  };
  const std::vector<double> self = self_times_ms(spans);
  // Root: 100 minus the union of [10,70] and [90,100] = 100 - 60 - 10.
  EXPECT(near(self[0], 30.0));
  EXPECT(near(self[1], 25.0));  // 30 minus its grandchild's 5
  EXPECT(near(self[2], 40.0));
  EXPECT(near(self[3], 5.0));
  EXPECT(near(self[4], 30.0));
  EXPECT(near(self[5], 10.0));

  // Two identical concurrent children cover their interval once.
  const std::vector<Span> twins = {{Layer::Op, 0.0, 10.0, kNoParent, 0},
                                   {Layer::Dist, 2.0, 6.0, 0, 0},
                                   {Layer::Dist, 2.0, 6.0, 0, 0}};
  EXPECT(near(self_times_ms(twins)[0], 6.0));

  const LayerSummary summary = summarize(spans);
  EXPECT(near(summary.root_ms, 110.0));
  EXPECT(near(summary.uncovered_ms, 40.0));
  EXPECT(near(summary.self_ms[static_cast<std::size_t>(Layer::Dist)], 70.0));
  EXPECT(near(summary.total_ms[static_cast<std::size_t>(Layer::Dist)], 70.0));
  EXPECT(summary.count[static_cast<std::size_t>(Layer::Op)] == 2);

  SpanRecorder recorder;
  const std::int64_t root = recorder.add(Layer::Op, 3, kNoParent, 0.0, 0.0);
  {
    ScopedSpan child(&recorder, Layer::Wire, 3, root);
    EXPECT(child.id() == 1);
  }
  recorder.close(root);
  const std::vector<Span> recorded = recorder.snapshot();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == root);
  EXPECT(recorded[1].end_ms >= recorded[1].start_ms);
  ScopedSpan untraced(nullptr, Layer::Wire, 0);
  EXPECT(untraced.id() == kNoParent);
}

void accounting() {
  Accounting a;
  a.add(Outcome::Ok);
  a.add(Outcome::Ok);
  a.add(Outcome::Error);
  a.add(Outcome::Refused);
  a.add(Outcome::Late);
  EXPECT(a.attempted == 5);
  EXPECT(a.ok == 2);
  EXPECT(a.failed() == 3);
  EXPECT(a.failed(false) == 2);  // refusals counted against goodput only
  Accounting b;
  EXPECT(b.failed() == 0);
  b.add(Outcome::Refused);
  b += a;
  EXPECT(b.attempted == 6);
  EXPECT(b.refused == 2);
  EXPECT(b.failed() == 4);
}

}  // namespace

int main() {
  percentile_rule();
  goodput();
  span_self_time();
  accounting();
  if (failures == 0) std::printf("adeptbench unit tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
