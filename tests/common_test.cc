#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>

#include "common/binary_io.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace tabula {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(9);
  std::vector<double> weights{0.9, 0.1};
  size_t zeros = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Discrete(weights) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 1600u);
  EXPECT_LT(zeros, 1990u);
}

TEST(RngTest, SampleWithoutReplacementSparse) {
  Rng rng(5);
  auto picks = rng.SampleWithoutReplacement(1000000, 50);
  std::set<uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 50u);
  for (uint32_t p : picks) EXPECT_LT(p, 1000000u);
}

TEST(RngTest, SampleWithoutReplacementDense) {
  Rng rng(5);
  auto picks = rng.SampleWithoutReplacement(100, 80);
  std::set<uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 80u);
}

TEST(RngTest, SampleAllWhenKExceedsN) {
  Rng rng(5);
  auto picks = rng.SampleWithoutReplacement(10, 100);
  EXPECT_EQ(picks.size(), 10u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkIndicesDisjoint) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<size_t> chunks;
  pool.ParallelForChunked(100, [&](size_t chunk, size_t, size_t) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.insert(chunk);
  });
  EXPECT_GE(chunks.size(), 1u);
  EXPECT_LE(chunks.size(), 5u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a worker must not deadlock.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ThreadPool::Global().ParallelFor(10, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 40);
}

TEST(ThreadPoolTest, SubmitReturnsCompletableFuture) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto fut = pool.Submit([&] { ran = true; });
  fut.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, EmptyChunkedRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelForChunked(0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SubmittedExceptionPropagatesViaFuture) {
  ThreadPool pool(2);
  auto fut = pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The worker that ran the throwing task is still alive.
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ParallelForSurvivesThrowingChunk) {
  ThreadPool pool(4);
  // One chunk throws; every other chunk must still run to completion
  // (the pool must not abandon tasks referencing the caller's lambda),
  // the first exception resurfaces, and the pool stays usable.
  std::atomic<size_t> visited{0};
  auto run = [&] {
    pool.ParallelFor(1000, [&](size_t begin, size_t end) {
      if (begin == 0) throw std::runtime_error("chunk boom");
      visited += end - begin;
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  EXPECT_EQ(visited.load(), 1000 - 250u);  // all chunks but the thrower

  std::atomic<size_t> total{0};
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    total += end - begin;
  });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPoolTest, ParallelForGrainsReturnsWhileEveryWorkerIsBlocked) {
  // Both workers block behind a gate, so the helpers a dispatch queues
  // cannot start; the caller drains every grain itself and must return
  // without waiting for them (a caller holding a lock the workers wait
  // on would otherwise deadlock).
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([opened] { opened.wait(); });
  }
  std::atomic<size_t> covered{0};
  auto dispatch = std::async(std::launch::async, [&] {
    pool.ParallelForGrains(70000, [&](size_t, size_t begin, size_t end) {
      covered += end - begin;
    });
  });
  const bool returned = dispatch.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  // Open the gate after the check, so a pool that does wait for its
  // helpers fails this test instead of hanging it.
  gate.set_value();
  dispatch.get();
  EXPECT_TRUE(returned)
      << "ParallelForGrains waited for helpers no worker could start";
  EXPECT_EQ(covered.load(), 70000u);
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, TrimView) {
  EXPECT_EQ(TrimView("  hi \t\n"), "hi");
  EXPECT_EQ(TrimView(""), "");
  EXPECT_EQ(TrimView("   "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUP", "groups"));
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(3u * 1024 * 1024), "3.00 MB");
}

TEST(StringUtilTest, HumanMillis) {
  EXPECT_EQ(HumanMillis(2500.0), "2.50 s");
  EXPECT_EQ(HumanMillis(42.0), "42.0 ms");
  EXPECT_EQ(HumanMillis(0.5), "0.500 ms");
}

// ---------- env ----------

TEST(EnvTest, FallbacksAndParses) {
  unsetenv("TABULA_TEST_ENV");
  EXPECT_EQ(EnvInt64("TABULA_TEST_ENV", 42), 42);
  EXPECT_DOUBLE_EQ(EnvDouble("TABULA_TEST_ENV", 1.5), 1.5);
  EXPECT_EQ(EnvString("TABULA_TEST_ENV", "x"), "x");
  setenv("TABULA_TEST_ENV", "123", 1);
  EXPECT_EQ(EnvInt64("TABULA_TEST_ENV", 42), 123);
  setenv("TABULA_TEST_ENV", "2.25", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("TABULA_TEST_ENV", 1.5), 2.25);
  setenv("TABULA_TEST_ENV", "garbage", 1);
  EXPECT_EQ(EnvInt64("TABULA_TEST_ENV", 42), 42);
  unsetenv("TABULA_TEST_ENV");
}

// ---------- Stopwatch ----------

TEST(StopwatchTest, MonotoneAndRestartable) {
  Stopwatch sw;
  double t1 = sw.ElapsedMillis();
  double t2 = sw.ElapsedMillis();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMillis(), 1000.0);
  EXPECT_NEAR(sw.ElapsedSeconds() * 1000.0, sw.ElapsedMillis(), 1.0);
}

// ---------- binary_io ----------

TEST(BinaryIoTest, RoundTripAllTypes) {
  BufferWriter w;
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x1122334455667788ull);
  w.WriteDouble(3.14159);
  w.WriteString("hello cube");
  w.WriteVector(std::vector<uint32_t>{1, 2, 3});

  BufferReader r(w.data(), w.size());
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x1122334455667788ull);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.14159);
  EXPECT_EQ(r.ReadString().value(), "hello cube");
  EXPECT_EQ(r.ReadVector<uint32_t>().value(),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIoTest, TruncatedReadFails) {
  BufferWriter w;
  w.WriteU32(7);
  BufferReader r(w.data(), w.size());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(BinaryIoTest, HostileLengthRejected) {
  BufferWriter w;
  w.WriteU64(~0ull);  // absurd string length
  BufferReader r(w.data(), w.size());
  EXPECT_FALSE(r.ReadString().ok());
}

/// A checked record reads back its payload; every truncation and every
/// single-bit flip of it is kDataLoss before a payload byte is decoded.
TEST(BinaryIoTest, CheckedRecordRejectsTornAndFlippedBytes) {
  BufferWriter payload;
  payload.WriteU64(42);
  payload.WriteString("cold sample");
  BufferWriter w;
  w.WriteRecord(payload);
  const std::string record(w.data(), w.size());
  ASSERT_EQ(record.size(), kRecordHeaderBytes + payload.size());

  BufferReader r(record);
  Result<BufferReader> read = r.ReadRecord();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(read->ReadU64().value(), 42u);
  EXPECT_EQ(read->ReadString().value(), "cold sample");
  EXPECT_TRUE(read->exhausted());

  for (size_t cut = 0; cut < record.size(); ++cut) {
    BufferReader torn(record.data(), cut);
    EXPECT_EQ(torn.ReadRecord().status().code(), StatusCode::kDataLoss)
        << "cut at " << cut;
  }
  for (size_t bit = 0; bit < 8 * record.size(); ++bit) {
    std::string flipped = record;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    BufferReader bad(flipped);
    EXPECT_EQ(bad.ReadRecord().status().code(), StatusCode::kDataLoss)
        << "bit " << bit;
  }
  // Eight zero bytes announce an empty payload whose CRC32C (0) matches;
  // no writer writes one, so it is kDataLoss too.
  const std::string zeros(kRecordHeaderBytes, '\0');
  BufferReader zeroed(zeros);
  EXPECT_EQ(zeroed.ReadRecord().status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace tabula
