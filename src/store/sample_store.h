#ifndef TABULA_STORE_SAMPLE_STORE_H_
#define TABULA_STORE_SAMPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/cube_table.h"
#include "storage/table.h"

namespace tabula {

/// Residency tier of one materialized sample (see DESIGN.md §12).
/// kHot holds a tighter-θ sample for frequently hit cells, kWarm the
/// standard build-time sample, kCold keeps only the cell's loss state —
/// the sample bytes are dropped (or spilled to the side file) and are
/// lazily re-verified / re-sampled on the cell's next hit.
enum class SampleTier : uint8_t { kHot = 0, kWarm = 1, kCold = 2 };

const char* SampleTierName(SampleTier tier);

/// Knobs of the tiered sample store. `budget_bytes == 0` disables the
/// store entirely: no tracking and no locking — served answers are
/// byte-identical to an unbounded store's.
struct SampleStoreOptions {
  /// Resident-sample byte budget; `SampleStore::bytes() <= budget_bytes`
  /// holds after every build / query / refresh / ingest step. 0 means
  /// unbounded (store disabled).
  uint64_t budget_bytes = 0;
  /// kHot samples are drawn at θ × hot_theta_factor (tighter bound for
  /// the cells users actually look at).
  double hot_theta_factor = 0.5;
  /// A lazy promote upgrades straight to kHot once the cell has been
  /// hit at least this many times; below it, promotes land on kWarm.
  uint64_t hot_promote_hits = 4;
  /// When non-empty, demoted samples are appended to this side file
  /// (CRC32C-checked records) instead of being dropped, so a later
  /// promote restores them without re-sampling. Single-instance engines
  /// only; shard units demote in drop mode.
  std::string spill_path;
};

/// Point-in-time counters of the store.
struct SampleStoreStats {
  uint64_t budget_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t hot_samples = 0;
  uint64_t warm_samples = 0;
  uint64_t cold_samples = 0;
  uint64_t hits = 0;
  uint64_t promotes = 0;
  uint64_t demotes = 0;
  uint64_t spill_writes = 0;
  uint64_t spill_reads = 0;
  /// Spill writes that failed (injected or real I/O error); the victim
  /// was demoted in drop mode instead — the loss state is never lost.
  uint64_t spill_write_failures = 0;
  /// Lazy promotes that failed; the answer degraded to the global
  /// sample (and was flagged `store_degraded`).
  uint64_t promote_failures = 0;
};

/// \brief Tier/residency bookkeeping for a SampleTable under an explicit
/// byte budget.
///
/// The store never owns sample bytes — those stay in the engine's
/// SampleTable — it tracks, per sample id, the tier, the resident byte
/// charge, a per-sample hit counter (fed by the serve path), and the
/// spill-file record of cold samples. Victim selection is CLOCK over the
/// hit counters of the records holding resident bytes: a full pass
/// halves survivors' counts, so burst-hot cells age out
/// deterministically.
///
/// Concurrency contract (mirrors the engine's): RecordHit(), bytes(),
/// tier() and Stats() are safe under the engine's shared store lock
/// (atomics only); every other method mutates bookkeeping — the CLOCK's
/// id set and the spill descriptor included — and follows the engine's
/// exclusive-section discipline. The store itself carries no mutex —
/// the engine's store_mu_ is the single lock.
class SampleStore {
 public:
  SampleStore() = default;
  ~SampleStore();
  SampleStore(SampleStore&& other) noexcept { *this = std::move(other); }
  SampleStore& operator=(SampleStore&& other) noexcept;
  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

  /// Installs options and forgets every record. The spill file is never
  /// truncated: its records are append-only for the life of the file.
  /// The store opens it once, on first use, and keeps it open.
  void Configure(SampleStoreOptions options);

  bool enabled() const { return options_.budget_bytes > 0; }
  uint64_t budget() const { return options_.budget_bytes; }
  const SampleStoreOptions& options() const { return options_; }

  /// Resident sample bytes (the budget invariant's left-hand side).
  uint64_t bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  /// Registers sample `id` with its resident byte charge and tier.
  /// `refs` is the number of cube cells linking to the slot
  /// (representative-sample sharing); a shared slot demotes all sharers
  /// at once and each promotes into a fresh private slot.
  void Track(uint32_t id, uint64_t sample_bytes, SampleTier tier,
             uint32_t refs = 1);

  /// Forgets `id` (its cell was removed); releases the resident charge.
  void Untrack(uint32_t id);

  size_t size() const { return recs_.size(); }
  bool tracked(uint32_t id) const {
    return id < recs_.size() && recs_[id].tracked;
  }
  SampleTier tier(uint32_t id) const;
  bool resident(uint32_t id) const {
    return tracked(id) && recs_[id].tier != SampleTier::kCold;
  }
  uint64_t sample_bytes(uint32_t id) const {
    return tracked(id) ? recs_[id].bytes : 0;
  }
  uint64_t hits(uint32_t id) const {
    return id < recs_.size()
               ? recs_[id].hits.load(std::memory_order_relaxed)
               : 0;
  }
  uint32_t refs(uint32_t id) const {
    return tracked(id) ? recs_[id].refs : 0;
  }
  /// Drops one reference; returns the count left (0 ⇒ orphaned slot,
  /// the caller reclaims its bytes via Untrack or Demote).
  uint32_t ReleaseRef(uint32_t id);

  /// Serve-path hit accounting (relaxed atomic; shared-lock safe).
  void RecordHit(uint32_t id);

  /// CLOCK victim selection: resident ids whose demotion frees at least
  /// `needed` bytes, skipping `protect`. The hand visits the records
  /// holding resident bytes, in id order from where the last sweep
  /// stopped; a visited record with no hits is a victim and any other
  /// halves its counter. May free less when everything else is already
  /// cold; the hand then stays where it started.
  std::vector<uint32_t> PlanEvictions(uint64_t needed, uint32_t protect);

  /// One demotion to kCold: releases the resident charge and, when a
  /// spill path is configured, appends `rows` to the side file. A spill
  /// write failure (the `store.spill.write` seam, or real I/O) degrades
  /// to drop mode — the demotion itself NEVER fails, so budget
  /// enforcement at commit points stays infallible and the cell's loss
  /// state is never lost. Fires the `store.evict` delay seam.
  void Demote(uint32_t id, const std::vector<RowId>& rows);

  /// Budget enforcement: demotes CLOCK victims until resident bytes plus
  /// `incoming` fit the budget, moving each victim's rows out of
  /// `samples` (the table this store's ids index). `protect` is never
  /// victimized. Infallible — spill-write failures degrade to drop mode —
  /// so commit points may call it. May leave the store over `budget −
  /// incoming` when everything else is already cold.
  void EnforceBudget(SampleTable* samples, uint64_t incoming = 0,
                     uint32_t protect = kInvalidSampleId);

  /// Promotion bookkeeping after the caller restored the sample bytes
  /// into the SampleTable slot.
  void MarkResident(uint32_t id, uint64_t sample_bytes, SampleTier tier);

  bool has_spill(uint32_t id) const {
    return tracked(id) && recs_[id].spilled;
  }

  /// Reads sample `id` back from the spill file with one pread,
  /// verifying the record's length and checksum (`store.spill.read`
  /// seam). kDataLoss on a torn or flipped record.
  Result<std::vector<RowId>> ReadSpilled(uint32_t id);

  /// Load-time integrity pass over every spill record: a missing,
  /// truncated or corrupted side file surfaces as kDataLoss before any
  /// answer is served from it. Never creates the file.
  Status ValidateSpill();

  /// Persisted tier record of one sample (cube body, see Tabula::Save).
  struct TierRecord {
    SampleTier tier = SampleTier::kWarm;
    uint64_t spill_offset = 0;
    uint64_t spill_len = 0;
  };
  TierRecord record(uint32_t id) const;

  /// Adopts a persisted tier word (Load path). `sample_bytes` is the
  /// resident charge when the tier is not kCold.
  void Adopt(uint32_t id, TierRecord rec, uint64_t sample_bytes,
             uint32_t refs);

  /// Stats hooks for the engine's promote path.
  void CountPromote() { ++promotes_; }
  void CountPromoteFailure() { ++promote_failures_; }

  SampleStoreStats Stats() const;

 private:
  struct Rec {
    std::atomic<uint64_t> hits{0};
    uint64_t bytes = 0;  ///< resident charge (0 while kCold)
    uint64_t spill_offset = 0;
    uint64_t spill_len = 0;
    uint32_t refs = 0;
    SampleTier tier = SampleTier::kWarm;
    bool tracked = false;
    bool spilled = false;
  };

  /// Record for `id`, growing the deque (deque: growth never moves
  /// existing records, so concurrent RecordHit on other ids stays safe).
  Rec& GrowTo(uint32_t id);

  /// Sets `id`'s resident charge, keeping resident_bytes_ and the
  /// CLOCK's id set in step with it.
  void Charge(uint32_t id, uint64_t bytes);

  /// Opens the spill file once (O_APPEND); only a write may create it.
  Status OpenSpill(bool create);

  /// Appends one checked record; fills offset/len on success.
  Status SpillWrite(uint32_t id, const std::vector<RowId>& rows,
                    uint64_t* offset, uint64_t* len);

  SampleStoreOptions options_;
  std::deque<Rec> recs_;
  std::atomic<uint64_t> resident_bytes_{0};
  /// The ids whose records hold resident bytes (bytes > 0), ascending:
  /// the only records the CLOCK hand can demote.
  std::set<uint32_t> charged_;
  /// The next id the CLOCK hand visits.
  size_t clock_hand_ = 0;
  /// The spill file's descriptor, -1 until first use.
  int spill_fd_ = -1;

  std::atomic<uint64_t> hits_total_{0};
  uint64_t promotes_ = 0;
  uint64_t demotes_ = 0;
  uint64_t spill_writes_ = 0;
  uint64_t spill_reads_ = 0;
  uint64_t spill_write_failures_ = 0;
  uint64_t promote_failures_ = 0;
};

}  // namespace tabula

#endif  // TABULA_STORE_SAMPLE_STORE_H_
