/// Tier/residency bookkeeping for materialized samples under a byte
/// budget (see DESIGN.md §12). The store holds no sample bytes itself:
/// the engine's SampleTable keeps those; this class decides WHICH slots
/// stay resident (CLOCK over serve-path hit counters) and owns the cold
/// spill side file (append-only checked records, common/binary_io.h).

#include "store/sample_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/binary_io.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

Status TornRecord(uint32_t id, const std::string& why) {
  return Status::DataLoss("cold-spill record for sample " +
                          std::to_string(id) + " is torn: " + why);
}

/// Reads the spill record of sample `id` — `len` bytes at `offset` of
/// the file open on `fd` — with one pread and decodes its rows: the one
/// decoder of a spill record. kDataLoss when the bytes are not all
/// there, fail the record's length or checksum, or hold another sample
/// or trailing bytes. The caller bounds `len` by the file's size.
Result<std::vector<RowId>> ReadSpillRecord(int fd, uint32_t id,
                                           uint64_t offset, uint64_t len) {
  std::vector<RowId> rows;
  const Status read = [&]() -> Status {
    std::string bytes(len, '\0');
    const ssize_t got =
        ::pread(fd, bytes.data(), len, static_cast<off_t>(offset));
    if (got < 0 || static_cast<uint64_t>(got) != len) {
      return Status::DataLoss("it lies past the end of the file");
    }
    BufferReader file(bytes);
    TABULA_ASSIGN_OR_RETURN(BufferReader r, file.ReadRecord());
    TABULA_ASSIGN_OR_RETURN(uint64_t stored_id, r.ReadU64());
    TABULA_ASSIGN_OR_RETURN(rows, r.ReadVector<RowId>());
    if (stored_id != id || !r.exhausted() || !file.exhausted()) {
      return Status::DataLoss("it holds another record");
    }
    return Status::OK();
  }();
  if (!read.ok()) return TornRecord(id, read.message());
  return rows;
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

SampleStore::~SampleStore() {
  if (spill_fd_ >= 0) ::close(spill_fd_);
}

SampleStore& SampleStore::operator=(SampleStore&& other) noexcept {
  if (this == &other) return *this;
  options_ = std::move(other.options_);
  recs_ = std::move(other.recs_);
  resident_bytes_.store(other.resident_bytes_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  charged_ = std::move(other.charged_);
  clock_hand_ = other.clock_hand_;
  if (spill_fd_ >= 0) ::close(spill_fd_);
  spill_fd_ = std::exchange(other.spill_fd_, -1);
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

void SampleStore::Configure(SampleStoreOptions options) {
  options_ = std::move(options);
  recs_.clear();
  resident_bytes_.store(0, std::memory_order_relaxed);
  charged_.clear();
  clock_hand_ = 0;
  if (spill_fd_ >= 0) ::close(spill_fd_);
  spill_fd_ = -1;
  hits_total_.store(0, std::memory_order_relaxed);
  promotes_ = demotes_ = spill_writes_ = spill_reads_ = 0;
  spill_write_failures_ = promote_failures_ = 0;
}

SampleStore::Rec& SampleStore::GrowTo(uint32_t id) {
  while (recs_.size() <= id) recs_.emplace_back();
  return recs_[id];
}

void SampleStore::Charge(uint32_t id, uint64_t bytes) {
  Rec& rec = recs_[id];
  resident_bytes_.fetch_sub(rec.bytes, std::memory_order_relaxed);
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  rec.bytes = bytes;
  if (bytes > 0) {
    charged_.insert(id);
  } else {
    charged_.erase(id);
  }
}

void SampleStore::Track(uint32_t id, uint64_t sample_bytes, SampleTier tier,
                        uint32_t refs) {
  Rec& rec = GrowTo(id);
  rec.tracked = true;
  rec.tier = tier;
  rec.refs = refs;
  rec.spilled = false;
  rec.spill_offset = rec.spill_len = 0;
  Charge(id, tier == SampleTier::kCold ? 0 : sample_bytes);
}

void SampleStore::Untrack(uint32_t id) {
  if (!tracked(id)) return;
  Charge(id, 0);
  Rec& rec = recs_[id];
  rec.tracked = false;
  rec.spilled = false;
  rec.refs = 0;
  rec.hits.store(0, std::memory_order_relaxed);
}

SampleTier SampleStore::tier(uint32_t id) const {
  return tracked(id) ? recs_[id].tier : SampleTier::kWarm;
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
  if (recs_.empty() || needed == 0) return victims;
  // The hand visits the charged records only: every other id is cold,
  // untracked or empty, and a sweep over every id passes them by
  // without touching them. A victim leaves the set until the sweep
  // ends, so a later lap cannot pick it twice; Demote removes it.
  const size_t start = clock_hand_;
  size_t candidates = charged_.size() - charged_.count(protect);
  std::vector<std::set<uint32_t>::node_type> picked;
  uint64_t freed = 0;
  auto it = charged_.lower_bound(static_cast<uint32_t>(clock_hand_));
  // A lap halves every survivor's counter, so after at most 64 laps
  // every candidate reads zero — the sweep provably terminates.
  while (freed < needed && candidates > 0) {
    if (it == charged_.end()) it = charged_.begin();
    const uint32_t id = *it;
    clock_hand_ = (static_cast<size_t>(id) + 1) % recs_.size();
    if (id == protect) {
      ++it;
      continue;
    }
    Rec& rec = recs_[id];
    const uint64_t h = rec.hits.load(std::memory_order_relaxed);
    if (h > 0) {
      rec.hits.store(h >> 1, std::memory_order_relaxed);
      ++it;
      continue;
    }
    victims.push_back(id);
    freed += rec.bytes;
    --candidates;
    picked.push_back(charged_.extract(it++));
  }
  for (auto& node : picked) charged_.insert(std::move(node));
  // Out of candidates: a sweep over every id would have come full
  // circle, as many times as it takes, back to where it started.
  if (freed < needed) clock_hand_ = start;
  return victims;
}

Status SampleStore::OpenSpill(bool create) {
  if (spill_fd_ >= 0) return Status::OK();
  const int flags = O_RDWR | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0);
  spill_fd_ = ::open(options_.spill_path.c_str(), flags, 0644);
  if (spill_fd_ < 0) {
    return Status::IOError("cannot open spill file '" + options_.spill_path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

Status SampleStore::SpillWrite(uint32_t id, const std::vector<RowId>& rows,
                               uint64_t* offset, uint64_t* len) {
  TABULA_FAULT_POINT("store.spill.write");
  TABULA_RETURN_NOT_OK(OpenSpill(/*create=*/true));
  BufferWriter payload;
  payload.WriteU64(id);
  payload.WriteVector(rows);
  BufferWriter record;
  record.WriteRecord(payload);
  // O_APPEND moves the descriptor to the file's end and writes there in
  // one step, and leaves it just past the record — even while a full
  // rebuild's fresh store appends to the same file through a descriptor
  // of its own. So the offset read back, less the record, is exactly
  // where this record starts.
  const ssize_t wrote = ::write(spill_fd_, record.data(), record.size());
  if (wrote < 0 || static_cast<size_t>(wrote) != record.size()) {
    return Status::IOError("spill write failed");
  }
  const off_t end = ::lseek(spill_fd_, 0, SEEK_CUR);
  if (end < 0) return Status::IOError("spill file offset unknown");
  *offset = static_cast<uint64_t>(end) - record.size();
  *len = record.size();
  return Status::OK();
}

void SampleStore::Demote(uint32_t id, const std::vector<RowId>& rows) {
  if (!tracked(id)) return;
  Rec& rec = recs_[id];
  if (rec.tier == SampleTier::kCold) return;
  TABULA_FAULT_DELAY("store.evict");
  Charge(id, 0);
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
  if (!rec.tracked) {
    rec.tracked = true;
    rec.refs = 1;
  }
  rec.tier = tier;
  rec.spilled = false;
  rec.spill_offset = rec.spill_len = 0;
  Charge(id, sample_bytes);
}

Result<std::vector<RowId>> SampleStore::ReadSpilled(uint32_t id) {
  if (!has_spill(id)) {
    return Status::NotFound("sample " + std::to_string(id) +
                            " has no spill record");
  }
  TABULA_FAULT_POINT("store.spill.read");
  TABULA_RETURN_NOT_OK(OpenSpill(/*create=*/false));
  TABULA_ASSIGN_OR_RETURN(
      std::vector<RowId> rows,
      ReadSpillRecord(spill_fd_, id, recs_[id].spill_offset,
                      recs_[id].spill_len));
  ++spill_reads_;
  return rows;
}

Status SampleStore::ValidateSpill() {
  uint64_t size = 0;
  bool opened = false;
  for (uint32_t id = 0; id < recs_.size(); ++id) {
    if (!has_spill(id)) continue;
    if (!opened) {
      struct stat st;
      if (!OpenSpill(/*create=*/false).ok() || ::fstat(spill_fd_, &st) != 0) {
        return Status::DataLoss("cold-spill file '" + options_.spill_path +
                                "' is missing");
      }
      size = static_cast<uint64_t>(st.st_size);
      opened = true;
    }
    const Rec& rec = recs_[id];
    if (rec.spill_offset > size || rec.spill_len > size - rec.spill_offset) {
      return TornRecord(id, "it lies past the end of the file");
    }
    TABULA_RETURN_NOT_OK(
        ReadSpillRecord(spill_fd_, id, rec.spill_offset, rec.spill_len)
            .status());
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
  Charge(id, record.tier == SampleTier::kCold ? 0 : sample_bytes);
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
