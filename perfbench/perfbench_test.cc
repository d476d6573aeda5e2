// Unit tests of the benchmark's own statistics, schedules and
// determinism contract. Run with `python3 perfbench/run.py --test`.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/thread_pool.h"
#include "stats.h"
#include "workloads.h"

namespace ironsafe::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(StatsTest, GeoMeanWeighsEveryValueEqually) {
  EXPECT_DOUBLE_EQ(GeoMean({1, 100}), 10);
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(GeoMean({5}), 5);
  EXPECT_EQ(GeoMean({}), 0);
  EXPECT_EQ(GeoMean({1, 0}), 0);
}

TEST(StatsTest, TailLeavesAtLeastTenSamplesBeyond) {
  // 100 samples: p90 leaves 10 above it, p95 only 5.
  Tail t = TailPercentile(OneTo(100));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  // 1000 samples: p99 leaves 10, p99.9 only 1.
  t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.beyond, 10u);

  // 48 samples (three TPC-H passes): p75 leaves 12, p80 only 9.
  t = TailPercentile(OneTo(48));
  EXPECT_EQ(t.percentile, 75);
  EXPECT_EQ(t.value, 36);
  EXPECT_EQ(t.beyond, 12u);

  // Order of the input does not matter.
  std::vector<double> shuffled = OneTo(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(TailPercentile(shuffled).value, 90);
}

TEST(StatsTest, TailOfATinySampleFallsBackToP50AndSaysSo) {
  Tail t = TailPercentile(OneTo(5));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 3);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
}

TEST(StatsTest, ServeTailIsTheMedianOfEachPassTail) {
  // Three passes of 100 reads: per-pass p90 = 90, 190, 290 (each pass's
  // values offset by 100 * pass), so the median of the pass tails is 190
  // while the pooled tail of the 300 samples would be p95 = 285.
  Observed observed;
  for (int pass = 0; pass < 3; ++pass) {
    for (double v : OneTo(100)) observed.read_ms.push_back(v + 100 * pass);
    observed.pass_read_ends.push_back(observed.read_ms.size());
  }
  std::unique_ptr<Workload> serve = MakeWorkload("serve-mixed", 0);
  Tail t = serve->ReadTail(observed);
  EXPECT_EQ(t.value, 190);
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.parts, 3u);
  std::unique_ptr<Workload> tpch = MakeWorkload("tpch-plain", 0);
  EXPECT_EQ(tpch->ReadTail(observed).value, 285);
}

TEST(ScheduleTest, PassOrderIsASeededPermutation) {
  std::vector<int> a = PassOrder(7, 0, 16);
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
  EXPECT_EQ(a, PassOrder(7, 0, 16));
  EXPECT_NE(a, PassOrder(8, 0, 16));
  EXPECT_NE(a, PassOrder(7, 1, 16));
}

std::vector<std::pair<int, int64_t>> Draw(uint64_t seed, int per_session) {
  ServeSchedule schedule(seed);
  std::vector<std::pair<int, int64_t>> out;
  for (int i = 0; i < per_session; ++i) {
    for (int s = 0; s < kServeSessions; ++s) {
      ServeOp op = schedule.Next(s);
      out.emplace_back(static_cast<int>(op.kind), op.key);
    }
  }
  return out;
}

TEST(ScheduleTest, ServeScheduleRepeatsPerSeedAndDiffersAcrossSeeds) {
  EXPECT_EQ(Draw(1, 200), Draw(1, 200));
  EXPECT_NE(Draw(1, 200), Draw(2, 200));
}

TEST(ScheduleTest, ServeMixHasTheDocumentedShape) {
  ServeSchedule schedule(3);
  int inserts = 0, ranges = 0, total = 0;
  std::set<int64_t> point_keys;
  for (int i = 0; i < 2000; ++i) {
    for (int s = 0; s < kServeSessions; ++s) {
      ServeOp op = schedule.Next(s);
      ++total;
      switch (op.kind) {
        case OpKind::kInsert:
          EXPECT_EQ(s, 0) << "only the producer writes";
          ++inserts;
          break;
        case OpKind::kRangeRead:
          ++ranges;
          EXPECT_GE(op.key, 0);
          EXPECT_LE(op.key + kServeRangeRows, kServeRows);
          break;
        case OpKind::kPointRead:
          EXPECT_GE(op.key, 0);
          EXPECT_LT(op.key, kServeRows);
          point_keys.insert(op.key);
          break;
      }
    }
  }
  double insert_share = static_cast<double>(inserts) / total;
  EXPECT_GT(insert_share, 0.08);
  EXPECT_LT(insert_share, 0.12);
  // Every 8th read of a session is a range read.
  EXPECT_NEAR(static_cast<double>(ranges) / (total - inserts), 1.0 / 8, 0.01);
  // Zipf(1.1) over 2,000 ids touches far more distinct texts than the
  // default plan cache holds (128), so the hit rate stays below 1.
  EXPECT_GT(point_keys.size(), 256u);
}

TEST(WorkloadTest, UnknownNameIsRejected) {
  EXPECT_EQ(MakeWorkload("no-such-workload", 0), nullptr);
  for (const std::string& name : WorkloadNames()) {
    EXPECT_NE(MakeWorkload(name, 0), nullptr) << name;
  }
}

Observed RunOnePass(const std::string& name, uint64_t seed,
                    OutcomeSums* sums) {
  std::unique_ptr<Workload> w = MakeWorkload(name, seed);
  SetupTimes times;
  Status st = w->Setup(&times);
  EXPECT_TRUE(st.ok()) << st.ToString();
  Observed observed;
  if (st.ok()) w->RunPass(0, &observed, sums);
  EXPECT_EQ(observed.failed, 0u);
  for (const std::string& e : observed.errors) ADD_FAILURE() << e;
  return observed;
}

TEST(WorkloadTest, ServeSimCyclesRepeatPerSeedAndFollowTheSchedule) {
  OutcomeSums sums;
  Observed a = RunOnePass("serve-mixed", 1, &sums);
  Observed b = RunOnePass("serve-mixed", 1, &sums);
  Observed c = RunOnePass("serve-mixed", 2, &sums);
  ASSERT_EQ(a.pass_sim_cycles.size(), 1u);
  EXPECT_GT(a.pass_sim_cycles[0], 0u);
  EXPECT_EQ(a.pass_sim_cycles, b.pass_sim_cycles);
  EXPECT_NE(a.pass_sim_cycles, c.pass_sim_cycles);
  EXPECT_GT(a.ops, 0u);
}

TEST(WorkloadTest, FleetSimCyclesIgnoreWorkerCountAndSeed) {
  OutcomeSums sums;
  common::ThreadPool::set_max_workers(1);
  Observed one = RunOnePass("fleet-scs", 1, &sums);
  common::ThreadPool::set_max_workers(4);
  Observed four = RunOnePass("fleet-scs", 1, &sums);
  Observed other_seed = RunOnePass("fleet-scs", 5, &sums);
  common::ThreadPool::set_max_workers(0);
  ASSERT_EQ(one.pass_sim_cycles.size(), 1u);
  EXPECT_EQ(one.pass_sim_cycles, four.pass_sim_cycles);
  // The seed reorders the queries; each query's cost does not depend on
  // its position (the page cache is cleared per query).
  EXPECT_EQ(one.pass_sim_cycles, other_seed.pass_sim_cycles);
  EXPECT_EQ(one.ops, 5u);
}

}  // namespace
}  // namespace ironsafe::perfbench
