/// SampleStore unit tests, run under `ctest -L store`: the CLOCK over
/// resident records against the sweep over every id it replaced, and the
/// spill file's one descriptor shared by two stores.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "cube/cube_table.h"
#include "store/sample_store.h"

namespace tabula {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The CLOCK as a sweep over every id ever tracked, kept as the test's
/// reference: the hand steps through ids [0, n) in a ring, passing by
/// untracked, cold and empty records, and a pass stops after 66 laps
/// (by then every counter has halved to zero). It mirrors the store's
/// bookkeeping of the four fields the policy reads.
class FullSweepClock {
 public:
  struct Rec {
    bool tracked = false;
    bool cold = false;
    uint64_t bytes = 0;
    uint64_t hits = 0;
  };

  void Track(uint32_t id, uint64_t bytes, SampleTier tier) {
    Rec& rec = Grow(id);
    rec.tracked = true;
    rec.cold = tier == SampleTier::kCold;
    rec.bytes = rec.cold ? 0 : bytes;
  }
  void MarkResident(uint32_t id, uint64_t bytes) {
    Rec& rec = Grow(id);
    rec.tracked = true;
    rec.cold = false;
    rec.bytes = bytes;
  }
  void Demote(uint32_t id) {
    if (id >= recs.size() || !recs[id].tracked || recs[id].cold) return;
    recs[id].cold = true;
    recs[id].bytes = 0;
  }
  void Untrack(uint32_t id) {
    if (id >= recs.size() || !recs[id].tracked) return;
    recs[id] = Rec();
  }
  void RecordHit(uint32_t id) {
    if (id < recs.size()) ++recs[id].hits;
  }

  std::vector<uint32_t> PlanEvictions(uint64_t needed, uint32_t protect) {
    std::vector<uint32_t> victims;
    const size_t n = recs.size();
    if (n == 0 || needed == 0) return victims;
    std::vector<char> picked(n, 0);
    uint64_t freed = 0;
    size_t scanned = 0;
    while (freed < needed && scanned < 66 * n) {
      const uint32_t id = static_cast<uint32_t>(hand);
      hand = (hand + 1) % n;
      ++scanned;
      Rec& rec = recs[id];
      if (!rec.tracked || rec.cold || rec.bytes == 0 || id == protect ||
          picked[id]) {
        continue;
      }
      if (rec.hits == 0) {
        picked[id] = 1;
        victims.push_back(id);
        freed += rec.bytes;
      } else {
        rec.hits >>= 1;
      }
    }
    return victims;
  }

  uint64_t Bytes() const {
    uint64_t total = 0;
    for (const Rec& rec : recs) total += rec.bytes;
    return total;
  }

  std::vector<Rec> recs;
  size_t hand = 0;

 private:
  Rec& Grow(uint32_t id) {
    if (recs.size() <= id) recs.resize(id + 1);
    return recs[id];
  }
};

/// One seeded history applied to the store and to the reference: ids
/// grow (sometimes past gaps), samples are tracked warm, cold or with
/// zero bytes, hits follow a skewed draw, cells promote, demote and
/// leave the cube, and every few steps both plan evictions, sometimes
/// protecting an id. Phases demote everything, so the store also sweeps
/// while all-cold. Victims, hit counters and resident bytes must agree
/// after every plan.
void RunClockHistory(uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  SampleStoreOptions options;
  options.budget_bytes = uint64_t{1} << 40;
  SampleStore store;
  store.Configure(options);
  FullSweepClock ref;
  uint32_t next_id = 0;
  size_t plans = 0, victims_seen = 0, all_cold_plans = 0;

  auto some_id = [&]() -> uint32_t {
    if (next_id == 0) return 0;
    // Skewed towards low ids, so a few records stay hot.
    const uint64_t a = rng() % next_id;
    return static_cast<uint32_t>(rng() % 2 == 0 ? a : a * a / next_id);
  };
  auto compare = [&](const std::string& where) {
    ASSERT_EQ(store.bytes(), ref.Bytes()) << where;
    for (uint32_t id = 0; id < ref.recs.size(); ++id) {
      ASSERT_EQ(store.hits(id), ref.recs[id].hits)
          << where << " id=" << id;
    }
  };

  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
    const uint64_t op = rng() % 100;
    if (op < 12 || next_id == 0) {
      // A new sample: warm, cold or empty, sometimes past a gap of
      // never-tracked ids.
      const uint32_t id = next_id + static_cast<uint32_t>(
                                        rng() % 8 == 0 ? rng() % 4 : 0);
      next_id = id + 1;
      const uint64_t kind = rng() % 10;
      const SampleTier tier =
          kind == 0 ? SampleTier::kCold : SampleTier::kWarm;
      const uint64_t bytes = kind == 1 ? 0 : 4 + rng() % 60;
      store.Track(id, bytes, tier);
      ref.Track(id, bytes, tier);
    } else if (op < 55) {
      const uint32_t id = some_id();
      const int hits = 1 + static_cast<int>(rng() % 3);
      for (int h = 0; h < hits; ++h) {
        store.RecordHit(id);
        ref.RecordHit(id);
      }
    } else if (op < 65) {
      const uint32_t id = some_id();
      store.Demote(id, {});
      ref.Demote(id);
    } else if (op < 75) {
      // A promote: a cold (or resident) tracked sample comes back.
      const uint32_t id = some_id();
      if (!store.tracked(id)) continue;
      const uint64_t bytes = rng() % 7 == 0 ? 0 : 4 + rng() % 60;
      const SampleTier tier =
          rng() % 2 == 0 ? SampleTier::kHot : SampleTier::kWarm;
      store.MarkResident(id, bytes, tier);
      ref.MarkResident(id, bytes);
    } else if (op < 79) {
      const uint32_t id = some_id();
      store.Untrack(id);
      ref.Untrack(id);
    } else if (op < 80) {
      // Everything goes cold; the next plans find nothing to evict.
      for (uint32_t id = 0; id < next_id; ++id) {
        store.Demote(id, {});
        ref.Demote(id);
      }
    } else {
      const uint64_t needed = 1 + rng() % (rng() % 4 == 0 ? 2000 : 120);
      uint32_t protect = kInvalidSampleId;
      const uint64_t p = rng() % 4;
      if (p == 0) protect = some_id();
      if (p == 1) protect = next_id + 5;  // an id the store never saw
      const std::vector<uint32_t> want = ref.PlanEvictions(needed, protect);
      const std::vector<uint32_t> got = store.PlanEvictions(needed, protect);
      ASSERT_EQ(got, want) << where << " needed=" << needed
                           << " protect=" << protect;
      compare(where);
      ++plans;
      victims_seen += got.size();
      if (store.bytes() == 0) ++all_cold_plans;
      // What EnforceBudget does next.
      for (uint32_t id : got) {
        store.Demote(id, {});
        ref.Demote(id);
      }
      compare(where + " after demotes");
    }
  }
  // The history reached every branch it is meant to cover.
  EXPECT_GT(plans, 100u) << "seed=" << seed;
  EXPECT_GT(victims_seen, 50u) << "seed=" << seed;
  EXPECT_GT(all_cold_plans, 0u) << "seed=" << seed;
}

TEST(SampleStoreClock, PicksTheFullSweepsVictimsAndHalvesItsCounters) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    RunClockHistory(seed, 4000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// A full rebuild's fresh store appends to the serving store's spill
/// file through a descriptor of its own: interleaved demotions of the
/// same ids must each restore their own store's bytes.
TEST(SampleStoreSpill, TwoStoresOnOneSpillPathEachRestoreTheirOwnRecords) {
  const std::string path = TempPath("tabula_store_test_shared.spill");
  std::remove(path.c_str());
  SampleStoreOptions options;
  options.budget_bytes = uint64_t{1} << 30;
  options.spill_path = path;
  SampleStore serving;
  SampleStore fresh;
  serving.Configure(options);
  fresh.Configure(options);

  constexpr uint32_t kSamples = 40;
  auto rows_of = [](uint32_t store, uint32_t id) {
    std::vector<RowId> rows(1 + (id * 7 + store * 3) % 11);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<RowId>(store * 100000 + id * 100 + i);
    }
    return rows;
  };
  for (uint32_t id = 0; id < kSamples; ++id) {
    serving.Track(id, 16, SampleTier::kWarm);
    fresh.Track(id, 16, SampleTier::kWarm);
  }
  for (uint32_t id = 0; id < kSamples; ++id) {
    // Alternate which store appends first, so records interleave.
    if (id % 2 == 0) {
      serving.Demote(id, rows_of(0, id));
      fresh.Demote(id, rows_of(1, id));
    } else {
      fresh.Demote(id, rows_of(1, id));
      serving.Demote(id, rows_of(0, id));
    }
  }
  EXPECT_EQ(serving.Stats().spill_writes, kSamples);
  EXPECT_EQ(fresh.Stats().spill_writes, kSamples);
  for (uint32_t id = 0; id < kSamples; ++id) {
    auto a = serving.ReadSpilled(id);
    ASSERT_TRUE(a.ok()) << id << ": " << a.status().ToString();
    EXPECT_EQ(a.value(), rows_of(0, id)) << id;
    auto b = fresh.ReadSpilled(id);
    ASSERT_TRUE(b.ok()) << id << ": " << b.status().ToString();
    EXPECT_EQ(b.value(), rows_of(1, id)) << id;
  }
  EXPECT_TRUE(serving.ValidateSpill().ok());
  EXPECT_TRUE(fresh.ValidateSpill().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tabula
