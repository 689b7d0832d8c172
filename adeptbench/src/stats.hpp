#pragma once
/// \file stats.hpp
/// \brief The benchmark's statistics helpers: percentiles under the
/// "at least ten samples beyond" rule, goodput under a latency limit and
/// failure accounting. Dependency-free so tests/test_stats.cpp can pin
/// them without building the system under test.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adeptbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the p-th percentile among `n` samples:
/// ceil(p/100 * n), clamped to [1, n]. `n` >= 1, p in (0, 100].
std::size_t percentile_rank(std::size_t n, double p);

/// Samples strictly above the p-th percentile's rank: n - rank.
std::size_t samples_beyond(std::size_t n, double p);

/// True when the p-th percentile of `n` samples has at least
/// `min_beyond` samples beyond it.
bool percentile_supported(std::size_t n, double p,
                          std::size_t min_beyond = kMinBeyond);

/// The highest of `candidates` that percentile_supported() accepts for
/// `n` samples; 0 when none is.
double highest_supported_percentile(std::size_t n,
                                    const std::vector<double>& candidates,
                                    std::size_t min_beyond = kMinBeyond);

/// Nearest-rank p-th percentile of `samples` (any order); 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);

/// One answered (or refused / failed) request as the client saw it.
struct Response {
  double latency_ms = 0.0;  ///< From the request's scheduled send time.
  bool ok = false;          ///< Came back with a usable result.
};

/// Responses per second that came back ok within `limit_ms` over a
/// window of `window_s` seconds. Refused and failed responses, and ok
/// responses later than the limit, are misses.
double goodput_rps(const std::vector<Response>& responses, double limit_ms,
                   double window_s);

/// How one attempted operation ended.
enum class Outcome { Ok, Error, Refused, Late };

/// Counts operations by outcome. `failed()` is what the benchmark
/// reports against `attempted`: errors and deadline misses always count;
/// refusals count unless the phase deliberately overloads the system
/// (there they count only against goodput).
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t refused = 0;
  std::uint64_t late = 0;

  void add(Outcome outcome);
  std::uint64_t failed(bool count_refusals = true) const;
  Accounting& operator+=(const Accounting& other);
};

}  // namespace adeptbench
