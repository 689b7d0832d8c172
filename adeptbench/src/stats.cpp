#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace adeptbench {

std::size_t percentile_rank(std::size_t n, double p) {
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, exact));
  return std::min(rank, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - percentile_rank(n, p);
}

bool percentile_supported(std::size_t n, double p, std::size_t min_beyond) {
  return n > 0 && samples_beyond(n, p) >= min_beyond;
}

double highest_supported_percentile(std::size_t n,
                                    const std::vector<double>& candidates,
                                    std::size_t min_beyond) {
  double best = 0.0;
  for (double p : candidates)
    if (percentile_supported(n, p, min_beyond)) best = std::max(best, p);
  return best;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = percentile_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double goodput_rps(const std::vector<Response>& responses, double limit_ms,
                   double window_s) {
  if (window_s <= 0.0) return 0.0;
  const auto good = std::count_if(
      responses.begin(), responses.end(), [limit_ms](const Response& r) {
        return r.ok && r.latency_ms <= limit_ms;
      });
  return static_cast<double>(good) / window_s;
}

void Accounting::add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::Ok: ++ok; break;
    case Outcome::Error: ++errors; break;
    case Outcome::Refused: ++refused; break;
    case Outcome::Late: ++late; break;
  }
}

std::uint64_t Accounting::failed(bool count_refusals) const {
  return errors + late + (count_refusals ? refused : 0);
}

Accounting& Accounting::operator+=(const Accounting& other) {
  attempted += other.attempted;
  ok += other.ok;
  errors += other.errors;
  refused += other.refused;
  late += other.late;
  return *this;
}

}  // namespace adeptbench
