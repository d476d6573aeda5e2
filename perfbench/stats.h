#ifndef IRONSAFE_PERFBENCH_STATS_H_
#define IRONSAFE_PERFBENCH_STATS_H_

// Sample statistics and seeded schedules shared by every workload of the
// benchmark. Everything here is pure: no clocks, no global state, so the
// unit tests pin it exactly.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ironsafe::perfbench {

/// Median of `v` (mean of the middle pair for an even count); 0 if empty.
double Median(std::vector<double> v);

/// Geometric mean of strictly positive values; 0 if `v` is empty or any
/// value is not positive.
double GeoMean(const std::vector<double>& v);

/// The tail-latency rule: the highest percentile of a fixed ladder
/// (50, 60, 70, 75, 80, 90, 95, 99, 99.9) that still leaves at least
/// kTailMinBeyond samples strictly above its nearest rank (the smallest
/// sample with at least p% of the sample at or below it). Samples too
/// small for even p50 report p50 with `percentile` = 50 and
/// `beyond` < kTailMinBeyond, so the caller can flag it.
inline constexpr size_t kTailMinBeyond = 10;
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples ranked above the reported one
  /// > 1 when the value is the median of the tails of this many equal
  /// parts of the sample (then `samples`/`beyond` describe one part).
  size_t parts = 1;
};
Tail TailPercentile(const std::vector<double>& v);

/// Inverse-CDF Zipf sampler over ranks [0, n): P(k) ~ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Sample(Random* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Seeded permutation of [0, n) (Fisher-Yates over `rng`).
std::vector<int> Permutation(int n, Random* rng);

/// Per-pass query order of the TPC-H workloads: pass `pass` of seed
/// `seed` runs the `n` queries in this permutation of [0, n).
std::vector<int> PassOrder(uint64_t seed, uint64_t pass, int n);

/// One statement of the serve-mixed schedule.
enum class OpKind { kPointRead, kRangeRead, kInsert };
struct ServeOp {
  OpKind kind = OpKind::kPointRead;
  int64_t key = 0;  ///< id (point), range start (range), unused (insert)
};

/// Shape of the serve-mixed traffic (see README.md, "serve-mixed").
inline constexpr int kServeSessions = 4;    ///< session 0 is the producer
inline constexpr int kServeRows = 2000;     ///< rows in the protected read table
inline constexpr int kServeRangeRows = 200;  ///< rows a range read returns
inline constexpr int kServeRangeEvery = 8;  ///< every n-th read of a session
inline constexpr double kServeZipfS = 1.1;
/// The producer's statements i with i % kServeInsertCycle <
/// kServeInsertSlots are INSERTs: 2 of 5, i.e. 10% of all statements.
inline constexpr int kServeInsertCycle = 5;
inline constexpr int kServeInsertSlots = 2;

/// Deterministic per-seed generator of the serve-mixed statements: the
/// same seed yields the same sequence for every session, independent of
/// timing (each session draws from its own stream). The statement kinds
/// sit at fixed positions, so every seed does the same amount of work;
/// the seed picks which keys are hot and where range reads start.
class ServeSchedule {
 public:
  explicit ServeSchedule(uint64_t seed);
  ServeOp Next(int session);

 private:
  Zipf zipf_;
  std::vector<int> id_of_rank_;
  std::vector<Random> rngs_;
  std::vector<uint64_t> reads_;
  uint64_t producer_statements_ = 0;
};

/// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace ironsafe::perfbench

#endif  // IRONSAFE_PERFBENCH_STATS_H_
