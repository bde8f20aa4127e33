/// Shard-manifest persistence: one file holding the partition (per-shard
/// row lists with fingerprints), every shard unit in the cube file's body
/// codec, and the merged directory with its override samples, all after
/// the header in one checked body (Tabula::WriteBody). Written
/// temp-then-rename like the cube file, so a failure mid-write (full
/// disk, injected fault) never leaves a partial manifest at the
/// destination.

#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/fingerprint.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kShardMagic = 0x54424C53;  // "TBLS"
/// The one manifest version this build reads and writes. This
/// repository wrote every manifest there is, so an older one is
/// rejected (rebuild and save again) instead of migrated. Version 6
/// carries its body as one checked record.
constexpr uint32_t kShardVersion = 6;

}  // namespace

Status ShardedTabula::Save(const std::string& path) const {
  // With the store enabled, concurrent query promotes mutate the sample
  // tables under their stores' exclusive sections; the shared locks make
  // the manifest a consistent snapshot.
  const auto locks = LockStoresShared();
  return Tabula::WriteAtomically(path, [&](BufferWriter* file) -> Status {
    // The manifest describes exactly the rows the cube has folded in
    // (shard row lists never reference pending rows).
    Tabula::WriteHeader(file, kShardMagic, kShardVersion, *table_,
                        refreshed_rows_, options_.base);
    BufferWriter body;
    BufferWriter* w = &body;
    w->WriteU64(options_.num_shards);
    w->WriteU32(static_cast<uint32_t>(options_.partition));
    w->WriteVector(global_sample_rows_);
    TABULA_FAULT_POINT("persistence.write");

    for (const Shard& shard : shards_) {
      w->WriteVector(shard.rows);
      w->WriteU64(RowListFingerprint(shard.rows));
      TABULA_RETURN_NOT_OK(shard.unit->EncodeBody(w));
    }

    // The merged directory in ascending key order, so the manifest
    // bytes are a pure function of the cube (determinism tests compare
    // manifests byte-for-byte).
    w->WriteU64(merged_.size());
    for (uint64_t key : merged_.SortedKeys()) {
      const MergedCell* cell = merged_.Find(key);
      w->WriteU64(key);
      w->WriteU32(cell->cuboid);
      // Flags word: bit 0 = override sample, bit 1 = global-augmented.
      w->WriteU32((cell->has_override ? 1u : 0u) |
                  (cell->augment_global ? 2u : 0u));
      w->WriteU32(cell->override_id);
    }
    w->WriteU64(override_samples_.size());
    for (uint32_t id = 0; id < override_samples_.size(); ++id) {
      w->WriteVector(override_samples_.sample(id));
    }
    TABULA_FAULT_POINT("persistence.write");

    // One tier word per override sample (all kWarm with the store off;
    // cold samples saved empty above and re-derive on their next hit).
    w->WriteU64(override_samples_.size());
    for (uint32_t id = 0; id < override_samples_.size(); ++id) {
      w->WriteU32(static_cast<uint32_t>(override_store_.tier(id)));
    }
    TABULA_FAULT_POINT("persistence.write");
    return Tabula::WriteBody(file, body, "shard manifest");
  });
}

Result<std::unique_ptr<ShardedTabula>> ShardedTabula::Load(
    const Table& table, ShardedTabulaOptions options,
    const std::string& path, bool resume_partial) {
  TABULA_RETURN_NOT_OK(CheckShardCount(options.num_shards));
  if (options.base.effective_loss() == nullptr) {
    return Status::InvalidArgument("TabulaOptions.loss must be set");
  }
  auto sharded = std::unique_ptr<ShardedTabula>(new ShardedTabula());
  sharded->options_ = std::move(options);
  TABULA_RETURN_NOT_OK(sharded->CheckStoreOptions());
  const ShardedTabulaOptions& opts = sharded->options_;

  TABULA_FAULT_POINT("persistence.read");
  TABULA_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  BufferReader file(bytes);
  TABULA_ASSIGN_OR_RETURN(
      uint64_t saved_rows,
      Tabula::ReadHeader(&file, kShardMagic, kShardVersion, "shard manifest",
                         path, table, opts.base, resume_partial));
  TABULA_ASSIGN_OR_RETURN(BufferReader r,
                          Tabula::ReadBody(&file, "shard manifest"));
  TABULA_ASSIGN_OR_RETURN(uint64_t num_shards, r.ReadU64());
  if (num_shards != opts.num_shards) {
    return Status::InvalidArgument(
        "manifest holds " + std::to_string(num_shards) +
        " shards, options specify " + std::to_string(opts.num_shards));
  }
  TABULA_ASSIGN_OR_RETURN(uint32_t partition, r.ReadU32());
  if (partition != static_cast<uint32_t>(opts.partition)) {
    return Status::InvalidArgument(
        "manifest partitioning differs from options");
  }

  TABULA_ASSIGN_OR_RETURN(KeyEncoder encoder,
                          KeyEncoder::Make(table, opts.base.cubed_attributes));
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> global_rows,
                          r.ReadVector<RowId>());
  TABULA_RETURN_NOT_OK(Tabula::CheckRowsBelow(global_rows, saved_rows,
                                              "manifest's global sample"));
  TABULA_RETURN_NOT_OK(sharded->InstallFront(table, std::move(encoder),
                                             std::move(global_rows)));
  sharded->lattice_ = Lattice(opts.base.cubed_attributes.size());

  // The persisted row lists must partition [0, saved_rows) exactly —
  // every row in one shard, no row in two — before a unit indexes them.
  sharded->shards_.resize(num_shards);
  std::vector<uint8_t> seen(saved_rows, 0);
  size_t assigned = 0;
  const TabulaOptions unit_options = sharded->UnitOptions();
  for (Shard& shard : sharded->shards_) {
    TABULA_ASSIGN_OR_RETURN(shard.rows, r.ReadVector<RowId>());
    TABULA_ASSIGN_OR_RETURN(uint64_t row_fp, r.ReadU64());
    if (row_fp != RowListFingerprint(shard.rows)) {
      return Status::DataLoss(
          "shard row-list fingerprint mismatch; manifest is corrupt");
    }
    for (RowId row : shard.rows) {
      if (row >= saved_rows) {
        return Status::DataLoss("shard row " + std::to_string(row) +
                                " lies beyond the manifest's row horizon");
      }
      if (seen[row]) {
        return Status::DataLoss("row " + std::to_string(row) +
                                " assigned to two shards");
      }
      seen[row] = 1;
      ++assigned;
    }
    Tabula::UnitInput input{&sharded->encoder_,
                            &sharded->global_sample_rows_, &shard.rows};
    TABULA_ASSIGN_OR_RETURN(
        shard.unit,
        Tabula::LoadUnit(&r, table, unit_options, input, saved_rows));
  }
  if (assigned != saved_rows) {
    return Status::DataLoss(
        "shard row lists do not cover the manifest's row horizon");
  }

  TABULA_ASSIGN_OR_RETURN(uint64_t num_merged, r.ReadU64());
  // Each merged cell is a key, a cuboid, a flags word and an override id.
  constexpr uint64_t kMergedCellBytes = 8 + 4 + 4 + 4;
  if (num_merged > r.remaining() / kMergedCellBytes) {
    return Status::DataLoss("manifest claims " + std::to_string(num_merged) +
                            " merged cells; it is corrupt");
  }
  sharded->merged_.reserve(num_merged);
  for (uint64_t i = 0; i < num_merged; ++i) {
    TABULA_ASSIGN_OR_RETURN(uint64_t key, r.ReadU64());
    MergedCell cell;
    TABULA_ASSIGN_OR_RETURN(cell.cuboid, r.ReadU32());
    TABULA_ASSIGN_OR_RETURN(uint32_t flags, r.ReadU32());
    if ((flags & ~3u) != 0) {
      return Status::DataLoss("unknown merged-cell flags " +
                              std::to_string(flags));
    }
    cell.has_override = (flags & 1u) != 0;
    cell.augment_global = (flags & 2u) != 0;
    TABULA_ASSIGN_OR_RETURN(cell.override_id, r.ReadU32());
    auto [slot, inserted] = sharded->merged_.TryEmplace(key, cell);
    (void)slot;
    if (!inserted) {
      return Status::DataLoss("manifest repeats merged cell key " +
                              std::to_string(key));
    }
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t num_overrides, r.ReadU64());
  for (uint64_t i = 0; i < num_overrides; ++i) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows, r.ReadVector<RowId>());
    TABULA_RETURN_NOT_OK(
        Tabula::CheckRowsBelow(rows, saved_rows, "manifest"));
    sharded->override_samples_.Add(std::move(rows));
  }
  Status override_status = Status::OK();
  sharded->merged_.ForEach([&](uint64_t, const MergedCell& cell) {
    if (cell.has_override &&
        cell.override_id >= sharded->override_samples_.size()) {
      override_status =
          Status::DataLoss("manifest has a dangling override-sample link");
    }
  });
  TABULA_RETURN_NOT_OK(override_status);

  // Override tier words. Cold samples were persisted as empty row lists,
  // so loading them without a store to lazily re-derive them would serve
  // empty (θ-violating) answers — hence the hard error.
  TABULA_ASSIGN_OR_RETURN(uint64_t tier_count, r.ReadU64());
  if (tier_count != sharded->override_samples_.size()) {
    return Status::DataLoss(
        "manifest tier records disagree with the override sample count");
  }
  std::vector<SampleTier> tiers(tier_count, SampleTier::kWarm);
  bool any_cold = false;
  for (SampleTier& tier : tiers) {
    TABULA_ASSIGN_OR_RETURN(uint32_t word, r.ReadU32());
    if (word != static_cast<uint32_t>(SampleTier::kWarm) &&
        word != static_cast<uint32_t>(SampleTier::kCold)) {
      return Status::ParseError(
          "override samples carry kWarm/kCold tiers only (got " +
          std::to_string(word) + ")");
    }
    tier = static_cast<SampleTier>(word);
    any_cold |= tier == SampleTier::kCold;
  }
  if (any_cold && !sharded->store_enabled()) {
    return Status::InvalidArgument(
        "manifest carries demoted (kCold) samples whose bytes are not in "
        "the file; loading it requires store.budget_bytes > 0");
  }
  sharded->override_store_.Configure(sharded->OverrideStoreOptions());
  if (sharded->store_enabled()) {
    std::vector<uint32_t> refs(tier_count, 0);
    sharded->merged_.ForEach([&](uint64_t, const MergedCell& cell) {
      if (cell.has_override) ++refs[cell.override_id];
    });
    const uint64_t tuple_bytes = sharded->shards_[0].unit->BytesPerTuple();
    for (uint32_t id = 0; id < tier_count; ++id) {
      SampleStore::TierRecord rec;
      rec.tier = tiers[id];
      sharded->override_store_.Adopt(
          id, rec, sharded->override_samples_.sample(id).size() * tuple_bytes,
          refs[id]);
    }
  }

  sharded->refreshed_rows_ = saved_rows;
  sharded->stats_.num_shards = num_shards;
  sharded->stats_.global_sample_tuples = sharded->global_sample_.size();
  sharded->stats_.merged_iceberg_cells = sharded->merged_.size();
  sharded->stats_.shard_build_millis.assign(num_shards, 0.0);
  for (const Shard& shard : sharded->shards_) {
    sharded->stats_.shard_iceberg_cells.push_back(
        shard.unit->cube_table().size());
  }
  // Replica liveness is runtime state, so a load always starts with
  // every replica up. The override store enforces its (possibly smaller)
  // budget over the adopted tiers.
  sharded->TrackOverridesLocked();
  sharded->InitServing();
  return sharded;
}

}  // namespace tabula
