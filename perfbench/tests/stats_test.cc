// Tests of the benchmark's statistics and input generators. Build and run:
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test

#include <algorithm>
#include <cstddef>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileRankTest, NearestRankRule) {
  EXPECT_EQ(PercentileRank(4, 0.5), 2u);
  EXPECT_EQ(PercentileRank(5, 0.5), 3u);
  EXPECT_EQ(PercentileRank(100, 0.99), 99u);
  EXPECT_EQ(PercentileRank(101, 0.99), 100u);
  EXPECT_EQ(PercentileRank(1000, 0.99), 990u);
  EXPECT_EQ(PercentileRank(1, 0.99), 1u);
  EXPECT_EQ(PercentileRank(10, 0.0), 1u);
  EXPECT_EQ(PercentileRank(10, 1.0), 10u);
  EXPECT_EQ(PercentileRank(0, 0.5), 0u);
}

TEST(PercentileTest, ReturnsAnObservedValue) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 4, 2, 3}, 0.99), 5.0);
  // A 2x-bucket histogram would report a bucket edge (4 or 8) here.
  EXPECT_DOUBLE_EQ(Percentile({5.3, 5.3, 6.1, 7.9}, 0.5), 5.3);
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(ramp, 0.5), 500.0);
  EXPECT_DOUBLE_EQ(Percentile(ramp, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

/// A clock that moves only when told: sleeping jumps to the wake-up time,
/// and a stub append advances it by its service time.
struct FakeClock {
  double now = 0.0;
  double Now() const { return now; }
  void SleepUntil(double t) { now = std::max(now, t); }
};

/// Runs the writer's schedule over stub appends taking `service[i]`;
/// batches listed in `failing` fail.
std::vector<double> StubWriter(double interval,
                               const std::vector<double>& service,
                               const std::set<size_t>& failing = {}) {
  FakeClock clock;
  return RunOpenLoop(clock, service.size(), interval, [&](size_t i) {
    clock.now += service[i];
    return failing.count(i) == 0;
  });
}

TEST(RunOpenLoopTest, OnTimeBatchesLagByTheirServiceTime) {
  EXPECT_EQ(StubWriter(10.0, {2.0, 3.0, 1.0}),
            (std::vector<double>{2.0, 3.0, 1.0}));
}

TEST(RunOpenLoopTest, OneStalledBatchChargesTheBatchesBehindIt) {
  // Due at 0, 10, ..., 60. Batch 1 stalls for 35 and ends at 45, so
  // batches 2..5 start late (done at 47, 49, 51, 53) until the schedule
  // catches up at batch 6.
  EXPECT_EQ(StubWriter(10.0, {2.0, 35.0, 2.0, 2.0, 2.0, 2.0, 2.0}),
            (std::vector<double>{2.0, 35.0, 27.0, 19.0, 11.0, 3.0, 2.0}));
}

TEST(RunOpenLoopTest, FailedBatchesKeepTheirTimeButReportNoLag) {
  // Batch 1 fails at 35, so batches 2 and 3 (due at 20 and 30) still
  // start late and end at 37 and 39.
  EXPECT_EQ(StubWriter(10.0, {2.0, 25.0, 2.0, 2.0}, {1}),
            (std::vector<double>{2.0, 17.0, 9.0}));
}

TEST(SplitMix64Test, MatchesTheReferenceSequence) {
  SplitMix64 rng(0);
  EXPECT_EQ(rng.Next(), 0xE220A8397B1DCDAFull);
}

std::vector<size_t> Draws(ZipfGenerator generator, int n) {
  std::vector<size_t> out;
  for (int i = 0; i < n; ++i) out.push_back(generator.Next());
  return out;
}

TEST(ZipfGeneratorTest, SameSeedSameSequence) {
  EXPECT_EQ(Draws(ZipfGenerator(1000, 1.0, 42), 5000),
            Draws(ZipfGenerator(1000, 1.0, 42), 5000));
  EXPECT_NE(Draws(ZipfGenerator(1000, 1.0, 42), 5000),
            Draws(ZipfGenerator(1000, 1.0, 43), 5000));
}

TEST(ZipfGeneratorTest, FrequencyFallsAsOneOverRank) {
  ZipfGenerator generator(100, 1.0, 7);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) {
    const size_t rank = generator.Next();
    ASSERT_LT(rank, 100u);
    ++counts[rank];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 1.0);
}

TEST(ViewportWalkTest, SameSeedSameSequence) {
  ViewportWalk a(9, 1, 5, 8), b(9, 1, 5, 8), other(10, 1, 5, 8);
  bool differs = false;
  for (int i = 0; i < 500; ++i) {
    const Viewport v = a.Next();
    EXPECT_EQ(v, b.Next());
    differs |= !(v == other.Next());
  }
  EXPECT_TRUE(differs);
}

TEST(ViewportWalkTest, FramesStaySnappedInsideTheMap) {
  ViewportWalk walk(3, 1, 5, 8);
  std::set<std::tuple<int, int, int>> distinct;
  for (int i = 0; i < 2000; ++i) {
    const Viewport v = walk.Next();
    ASSERT_GE(v.zoom, 1);
    ASSERT_LE(v.zoom, 5);
    ASSERT_GE(v.x, 0);
    ASSERT_GE(v.y, 0);
    ASSERT_LE(v.x + v.width(), Viewport::kLattice);
    ASSERT_LE(v.y + v.width(), Viewport::kLattice);
    EXPECT_EQ(v.filter >= 0, i % 4 == 3);
    EXPECT_LT(v.filter, 8);
    distinct.emplace(v.zoom, v.x, v.y);
  }
  // Revisited viewports are what lets the result cache hit.
  EXPECT_LT(distinct.size(), 1500u);
  const Viewport quarter{2, 32, 64, -1};
  EXPECT_DOUBLE_EQ(quarter.lo_x(), 0.25);
  EXPECT_DOUBLE_EQ(quarter.hi_x(), 0.5);
  EXPECT_DOUBLE_EQ(quarter.hi_y(), 0.75);
}

}  // namespace
}  // namespace perfbench
