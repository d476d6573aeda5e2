#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace ironsafe::perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

// 1-based nearest rank of percentile p in a sample of n.
size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

Tail TailPercentile(const std::vector<double>& v) {
  static constexpr double kLadder[] = {50, 60, 70, 75, 80, 90, 95, 99, 99.9};
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  for (double p : kLadder) {
    size_t rank = NearestRank(n, p);
    size_t beyond = n - rank;
    if (p != kLadder[0] && beyond < kTailMinBeyond) break;
    tail.percentile = p;
    tail.value = sorted[rank - 1];
    tail.beyond = beyond;
  }
  return tail;
}

Zipf::Zipf(int n, double s) : cdf_(static_cast<size_t>(n)) {
  double total = 0;
  for (int k = 0; k < n; ++k) total += 1.0 / std::pow(k + 1, s);
  double acc = 0;
  for (int k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(k + 1, s);
    cdf_[static_cast<size_t>(k)] = acc / total;
  }
}

int Zipf::Sample(Random* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? static_cast<int>(cdf_.size()) - 1
                          : static_cast<int>(it - cdf_.begin());
}

std::vector<int> Permutation(int n, Random* rng) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    auto j = static_cast<size_t>(rng->Uniform(static_cast<uint64_t>(i) + 1));
    std::swap(p[static_cast<size_t>(i)], p[j]);
  }
  return p;
}

std::vector<int> PassOrder(uint64_t seed, uint64_t pass, int n) {
  Random rng(seed * 0x9e3779b97f4a7c15ull + pass + 1);
  return Permutation(n, &rng);
}

ServeSchedule::ServeSchedule(uint64_t seed)
    : zipf_(kServeRows, kServeZipfS) {
  // The hot keys differ per seed: Zipf rank r maps to id_of_rank_[r].
  Random perm_rng(seed ^ 0x5e7ebabe5e7ebabeull);
  id_of_rank_ = Permutation(kServeRows, &perm_rng);
  for (int s = 0; s < kServeSessions; ++s) {
    rngs_.emplace_back(seed * 1000003ull + static_cast<uint64_t>(s) + 17);
  }
  reads_.assign(static_cast<size_t>(kServeSessions), 0);
}

ServeOp ServeSchedule::Next(int session) {
  auto idx = static_cast<size_t>(session);
  Random& rng = rngs_[idx];
  ServeOp op;
  if (session == 0 &&
      producer_statements_++ % kServeInsertCycle < kServeInsertSlots) {
    op.kind = OpKind::kInsert;
    return op;
  }
  ++reads_[idx];
  if (reads_[idx] % kServeRangeEvery == 0) {
    op.kind = OpKind::kRangeRead;
    // Range starts on a 10-row grid, so range texts repeat and can hit
    // the plan cache.
    int slots = (kServeRows - kServeRangeRows) / 10 + 1;
    op.key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(slots))) * 10;
    return op;
  }
  op.kind = OpKind::kPointRead;
  op.key = id_of_rank_[static_cast<size_t>(zipf_.Sample(&rng))];
  return op;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace ironsafe::perfbench
