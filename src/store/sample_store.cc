/// Tier/residency bookkeeping for materialized samples under a byte
/// budget (see DESIGN.md §12). The store holds no sample bytes itself:
/// the engine's SampleTable keeps those; this class decides WHICH slots
/// stay resident (CLOCK over serve-path hit counters) and owns the cold
/// spill side file (append-only, FNV-checksummed records).

#include "store/sample_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/binary_io.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

/// FNV-1a over a spill record's logical content; written after the rows
/// so a torn tail (truncated file, partial write) can never verify.
uint64_t SpillChecksum(uint32_t id, const std::vector<RowId>& rows) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(id);
  mix(rows.size());
  for (RowId r : rows) mix(r);
  return h;
}

/// On-disk size of one spill record: id, row count, rows, checksum.
uint64_t SpillRecordLen(size_t rows) {
  return sizeof(uint64_t) * 3 + rows * sizeof(RowId);
}

}  // namespace

const char* SampleTierName(SampleTier tier) {
  switch (tier) {
    case SampleTier::kHot:
      return "hot";
    case SampleTier::kWarm:
      return "warm";
    case SampleTier::kCold:
      return "cold";
  }
  return "unknown";
}

SampleStore& SampleStore::operator=(SampleStore&& other) noexcept {
  if (this == &other) return *this;
  options_ = std::move(other.options_);
  recs_ = std::move(other.recs_);
  resident_bytes_.store(other.resident_bytes_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  clock_hand_ = other.clock_hand_;
  spill_end_ = other.spill_end_;
  hits_total_.store(other.hits_total_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  promotes_ = other.promotes_;
  demotes_ = other.demotes_;
  spill_writes_ = other.spill_writes_;
  spill_reads_ = other.spill_reads_;
  spill_write_failures_ = other.spill_write_failures_;
  promote_failures_ = other.promote_failures_;
  return *this;
}

Status SampleStore::Configure(SampleStoreOptions options,
                              bool truncate_spill) {
  options_ = std::move(options);
  recs_.clear();
  resident_bytes_.store(0, std::memory_order_relaxed);
  clock_hand_ = 0;
  spill_end_ = 0;
  hits_total_.store(0, std::memory_order_relaxed);
  promotes_ = demotes_ = spill_writes_ = spill_reads_ = 0;
  spill_write_failures_ = promote_failures_ = 0;
  if (enabled() && !options_.spill_path.empty()) {
    if (truncate_spill) {
      std::ofstream out(options_.spill_path,
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        return Status::IOError("cannot create spill file '" +
                               options_.spill_path + "'");
      }
    } else {
      std::error_code ec;
      uint64_t size = std::filesystem::file_size(options_.spill_path, ec);
      spill_end_ = ec ? 0 : size;
    }
  }
  return Status::OK();
}

SampleStore::Rec& SampleStore::GrowTo(uint32_t id) {
  while (recs_.size() <= id) recs_.emplace_back();
  return recs_[id];
}

void SampleStore::Track(uint32_t id, uint64_t sample_bytes, SampleTier tier,
                        uint32_t refs) {
  Rec& rec = GrowTo(id);
  if (rec.tracked && rec.tier != SampleTier::kCold) {
    resident_bytes_.fetch_sub(rec.bytes, std::memory_order_relaxed);
  }
  rec.tracked = true;
  rec.tier = tier;
  rec.refs = refs;
  rec.spilled = false;
  rec.spill_offset = rec.spill_len = 0;
  rec.bytes = tier == SampleTier::kCold ? 0 : sample_bytes;
  if (rec.bytes > 0) {
    resident_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
  }
}

void SampleStore::Untrack(uint32_t id) {
  if (!tracked(id)) return;
  Rec& rec = recs_[id];
  if (rec.tier != SampleTier::kCold) {
    resident_bytes_.fetch_sub(rec.bytes, std::memory_order_relaxed);
  }
  rec.tracked = false;
  rec.spilled = false;
  rec.bytes = 0;
  rec.refs = 0;
  rec.hits.store(0, std::memory_order_relaxed);
}

SampleTier SampleStore::tier(uint32_t id) const {
  return tracked(id) ? recs_[id].tier : SampleTier::kWarm;
}

void SampleStore::AddRef(uint32_t id) {
  if (tracked(id)) ++recs_[id].refs;
}

uint32_t SampleStore::ReleaseRef(uint32_t id) {
  if (!tracked(id)) return 0;
  Rec& rec = recs_[id];
  if (rec.refs > 0) --rec.refs;
  return rec.refs;
}

void SampleStore::RecordHit(uint32_t id) {
  if (id < recs_.size()) {
    recs_[id].hits.fetch_add(1, std::memory_order_relaxed);
    hits_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SampleStore::EnforceBudget(SampleTable* samples, uint64_t incoming,
                                uint32_t protect) {
  const uint64_t target = budget() > incoming ? budget() - incoming : 0;
  const uint64_t current = bytes();
  if (current <= target) return;
  for (uint32_t id : PlanEvictions(current - target, protect)) {
    Demote(id, samples->TakeSample(id));
  }
}

std::vector<uint32_t> SampleStore::PlanEvictions(uint64_t needed,
                                                 uint32_t protect) {
  std::vector<uint32_t> victims;
  const size_t n = recs_.size();
  if (n == 0 || needed == 0) return victims;
  std::vector<char> picked(n, 0);
  uint64_t freed = 0;
  // A pass halves every survivor's counter, so after at most 64 full
  // passes every candidate reads zero — the scan provably terminates.
  size_t scanned = 0;
  const size_t scan_limit = 66 * n;
  while (freed < needed && scanned < scan_limit) {
    const uint32_t id = static_cast<uint32_t>(clock_hand_);
    clock_hand_ = (clock_hand_ + 1) % n;
    ++scanned;
    Rec& rec = recs_[id];
    if (!rec.tracked || rec.tier == SampleTier::kCold || rec.bytes == 0 ||
        id == protect || picked[id]) {
      continue;
    }
    uint64_t h = rec.hits.load(std::memory_order_relaxed);
    if (h == 0) {
      picked[id] = 1;
      victims.push_back(id);
      freed += rec.bytes;
    } else {
      rec.hits.store(h >> 1, std::memory_order_relaxed);
    }
  }
  return victims;
}

Status SampleStore::SpillWrite(uint32_t id, const std::vector<RowId>& rows,
                               uint64_t* offset, uint64_t* len) {
  TABULA_FAULT_POINT("store.spill.write");
  // Append mode: records only ever land at the tail and the file
  // springs into existence on the first demotion. The offset is read
  // from the file itself (not a cached cursor) so a full-rebuild's
  // fresh store appending to the same side file cannot make this
  // store's record pointers stale.
  std::error_code ec;
  uint64_t at = std::filesystem::file_size(options_.spill_path, ec);
  if (ec) at = 0;  // not created yet; the append below creates it
  std::ofstream out(options_.spill_path, std::ios::binary | std::ios::app);
  if (!out) return Status::IOError("cannot open spill file for writing");
  BufferWriter buf;
  buf.WriteU64(id);
  buf.WriteU64(rows.size());
  for (RowId r : rows) buf.WriteU32(r);
  buf.WriteU64(SpillChecksum(id, rows));
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) return Status::IOError("spill write failed");
  *offset = at;
  *len = buf.size();
  spill_end_ = at + buf.size();
  return Status::OK();
}

void SampleStore::Demote(uint32_t id, const std::vector<RowId>& rows) {
  if (!tracked(id)) return;
  Rec& rec = recs_[id];
  if (rec.tier == SampleTier::kCold) return;
  TABULA_FAULT_DELAY("store.evict");
  resident_bytes_.fetch_sub(rec.bytes, std::memory_order_relaxed);
  rec.bytes = 0;
  rec.tier = SampleTier::kCold;
  rec.spilled = false;
  ++demotes_;
  if (!options_.spill_path.empty() && !rows.empty()) {
    uint64_t offset = 0, len = 0;
    Status spilled = SpillWrite(id, rows, &offset, &len);
    if (spilled.ok()) {
      rec.spilled = true;
      rec.spill_offset = offset;
      rec.spill_len = len;
      ++spill_writes_;
    } else {
      // Drop mode: the sample bytes are gone but the cell's loss state
      // is untouched — the next hit re-samples from the finest-row
      // index. The demotion itself never fails.
      ++spill_write_failures_;
    }
  }
}

void SampleStore::MarkResident(uint32_t id, uint64_t sample_bytes,
                               SampleTier tier) {
  Rec& rec = GrowTo(id);
  if (rec.tracked && rec.tier != SampleTier::kCold) {
    resident_bytes_.fetch_sub(rec.bytes, std::memory_order_relaxed);
  }
  if (!rec.tracked) {
    rec.tracked = true;
    rec.refs = 1;
  }
  rec.tier = tier;
  rec.bytes = sample_bytes;
  rec.spilled = false;
  rec.spill_offset = rec.spill_len = 0;
  resident_bytes_.fetch_add(sample_bytes, std::memory_order_relaxed);
}

Result<std::vector<RowId>> SampleStore::ReadSpilled(uint32_t id) {
  if (!has_spill(id)) {
    return Status::NotFound("sample " + std::to_string(id) +
                            " has no spill record");
  }
  TABULA_FAULT_POINT("store.spill.read");
  const Rec& rec = recs_[id];
  std::ifstream in(options_.spill_path, std::ios::binary);
  if (!in) return Status::IOError("cannot open spill file for reading");
  in.seekg(static_cast<std::streamoff>(rec.spill_offset));
  BinaryReader r(&in);
  TABULA_ASSIGN_OR_RETURN(uint64_t stored_id, r.ReadU64());
  TABULA_ASSIGN_OR_RETURN(uint64_t nrows, r.ReadU64());
  if (stored_id != id || SpillRecordLen(nrows) != rec.spill_len) {
    return Status::DataLoss("spill record for sample " + std::to_string(id) +
                            " is torn (header mismatch)");
  }
  std::vector<RowId> rows(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    TABULA_ASSIGN_OR_RETURN(rows[i], r.ReadU32());
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t checksum, r.ReadU64());
  if (checksum != SpillChecksum(id, rows)) {
    return Status::DataLoss("spill record for sample " + std::to_string(id) +
                            " failed its checksum");
  }
  ++spill_reads_;
  return rows;
}

Status SampleStore::ValidateSpill() const {
  if (options_.spill_path.empty()) return Status::OK();
  bool any = false;
  for (const Rec& rec : recs_) {
    if (rec.tracked && rec.spilled) {
      any = true;
      break;
    }
  }
  if (!any) return Status::OK();
  std::ifstream in(options_.spill_path, std::ios::binary);
  if (!in) {
    return Status::DataLoss("cold-spill file '" + options_.spill_path +
                            "' is missing");
  }
  for (uint32_t id = 0; id < recs_.size(); ++id) {
    const Rec& rec = recs_[id];
    if (!rec.tracked || !rec.spilled) continue;
    in.clear();
    in.seekg(static_cast<std::streamoff>(rec.spill_offset));
    BinaryReader r(&in);
    TABULA_ASSIGN_OR_RETURN(uint64_t stored_id, r.ReadU64());
    TABULA_ASSIGN_OR_RETURN(uint64_t nrows, r.ReadU64());
    if (stored_id != id || SpillRecordLen(nrows) != rec.spill_len) {
      return Status::DataLoss("cold-spill record for sample " +
                              std::to_string(id) + " is torn");
    }
    std::vector<RowId> rows(nrows);
    for (uint64_t i = 0; i < nrows; ++i) {
      TABULA_ASSIGN_OR_RETURN(rows[i], r.ReadU32());
    }
    TABULA_ASSIGN_OR_RETURN(uint64_t checksum, r.ReadU64());
    if (checksum != SpillChecksum(id, rows)) {
      return Status::DataLoss("cold-spill record for sample " +
                              std::to_string(id) + " failed its checksum");
    }
  }
  return Status::OK();
}

SampleStore::TierRecord SampleStore::record(uint32_t id) const {
  TierRecord out;
  if (!tracked(id)) return out;
  const Rec& rec = recs_[id];
  out.tier = rec.tier;
  if (rec.spilled) {
    out.spill_offset = rec.spill_offset;
    out.spill_len = rec.spill_len;
  }
  return out;
}

void SampleStore::Adopt(uint32_t id, TierRecord record,
                        uint64_t sample_bytes, uint32_t refs) {
  Rec& rec = GrowTo(id);
  rec.tracked = true;
  rec.refs = refs;
  rec.tier = record.tier;
  // A spill record is only usable when this configuration has the side
  // file; otherwise the cold sample degrades to drop mode (re-sampled
  // on its next hit — never served stale).
  rec.spilled = record.spill_len > 0 && !options_.spill_path.empty();
  rec.spill_offset = record.spill_offset;
  rec.spill_len = record.spill_len;
  rec.bytes = record.tier == SampleTier::kCold ? 0 : sample_bytes;
  if (rec.bytes > 0) {
    resident_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
  }
  if (rec.spilled) {
    spill_end_ = std::max(spill_end_, rec.spill_offset + rec.spill_len);
  }
}

SampleStoreStats SampleStore::Stats() const {
  SampleStoreStats stats;
  stats.budget_bytes = options_.budget_bytes;
  stats.resident_bytes = bytes();
  for (const Rec& rec : recs_) {
    if (!rec.tracked) continue;
    switch (rec.tier) {
      case SampleTier::kHot:
        ++stats.hot_samples;
        break;
      case SampleTier::kWarm:
        ++stats.warm_samples;
        break;
      case SampleTier::kCold:
        ++stats.cold_samples;
        break;
    }
  }
  stats.hits = hits_total_.load(std::memory_order_relaxed);
  stats.promotes = promotes_;
  stats.demotes = demotes_;
  stats.spill_writes = spill_writes_;
  stats.spill_reads = spill_reads_;
  stats.spill_write_failures = spill_write_failures_;
  stats.promote_failures = promote_failures_;
  return stats;
}

}  // namespace tabula
