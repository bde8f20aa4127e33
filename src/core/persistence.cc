#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "core/fingerprint.h"
#include "core/tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kMagic = 0x54424C43;  // "TBLC"
/// The one cube-file version this build reads and writes. This
/// repository wrote every cube file there is, so an older file is
/// rejected (rebuild and save again) instead of migrated.
constexpr uint32_t kVersion = 5;

}  // namespace

uint64_t TableFingerprint(const Table& table, size_t limit_rows) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(limit_rows);
  mix(table.num_columns());
  if (limit_rows == 0) return h;
  for (size_t probe = 0; probe < 16; ++probe) {
    RowId row = static_cast<RowId>((probe * 2654435761ull) % limit_rows);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      Value v = table.GetValue(c, row);
      if (v.is_string()) {
        for (char ch : v.AsString()) mix(static_cast<uint64_t>(ch));
      } else if (v.is_int64()) {
        mix(static_cast<uint64_t>(v.AsInt64()));
      } else if (v.is_double()) {
        double d = v.AsDouble();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
      }
    }
  }
  return h;
}

uint64_t TableFingerprint(const Table& table) {
  return TableFingerprint(table, table.num_rows());
}

uint64_t RowListFingerprint(const std::vector<RowId>& rows) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(rows.size());
  for (RowId r : rows) mix(r);
  return h;
}

Status Tabula::CheckRowsBelow(const std::vector<RowId>& rows, uint64_t limit,
                              const std::string& what) {
  for (RowId row : rows) {
    if (row >= limit) {
      return Status::DataLoss(what + " references row " +
                              std::to_string(row) + " beyond the table");
    }
  }
  return Status::OK();
}

void Tabula::WriteHeader(BinaryWriter* w, uint32_t magic, uint32_t version,
                         const Table& table, size_t rows,
                         const TabulaOptions& options) {
  w->WriteU32(magic);
  w->WriteU32(version);
  // The file describes exactly the rows the cube has folded in;
  // fingerprint that prefix so pending (appended-but-unfolded) rows don't
  // tie the file to a table state the cube never saw.
  w->WriteU64(rows);
  w->WriteU64(TableFingerprint(table, rows));
  w->WriteString(options.effective_loss()->name());
  w->WriteDouble(options.threshold);
  w->WriteU64(options.cubed_attributes.size());
  for (const auto& attr : options.cubed_attributes) w->WriteString(attr);
}

Result<uint64_t> Tabula::ReadHeader(BinaryReader* r, uint32_t magic,
                                    uint32_t version, const std::string& what,
                                    const std::string& path,
                                    const Table& table,
                                    const TabulaOptions& options,
                                    bool resume_partial) {
  TABULA_ASSIGN_OR_RETURN(uint32_t got_magic, r->ReadU32());
  TABULA_ASSIGN_OR_RETURN(uint32_t got_version, r->ReadU32());
  if (got_magic != magic) {
    return Status::ParseError("'" + path + "' is not a Tabula " + what);
  }
  if (got_version != version) {
    return Status::ParseError(
        "unsupported " + what + " version " + std::to_string(got_version) +
        " (this build reads version " + std::to_string(version) +
        " only; rebuild the cube and save it again)");
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t saved_rows, r->ReadU64());
  if (saved_rows > table.num_rows()) {
    return Status::InvalidArgument(
        what + " covers " + std::to_string(saved_rows) +
        " rows but the table only has " + std::to_string(table.num_rows()));
  }
  if (saved_rows != table.num_rows() && !resume_partial) {
    return Status::InvalidArgument(
        what + " covers only " + std::to_string(saved_rows) + " of " +
        std::to_string(table.num_rows()) +
        " rows (stale cube); pass resume_partial to load it and Refresh() "
        "to catch up");
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t fingerprint, r->ReadU64());
  if (fingerprint != TableFingerprint(table, saved_rows)) {
    return Status::InvalidArgument(
        what +
        " was built on a different table (fingerprint mismatch); re-run "
        "Initialize()");
  }
  const LossFunction* loss = options.effective_loss();
  TABULA_ASSIGN_OR_RETURN(std::string loss_name, r->ReadString());
  if (loss_name != loss->name()) {
    return Status::InvalidArgument(what + " was built with loss '" +
                                   loss_name + "', options specify '" +
                                   loss->name() + "'");
  }
  TABULA_ASSIGN_OR_RETURN(double threshold, r->ReadDouble());
  if (threshold != options.threshold) {
    return Status::InvalidArgument(
        what + " was built with threshold " + std::to_string(threshold) +
        ", options specify " + std::to_string(options.threshold));
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t num_attrs, r->ReadU64());
  std::vector<std::string> attrs(num_attrs);
  for (auto& attr : attrs) {
    TABULA_ASSIGN_OR_RETURN(attr, r->ReadString());
  }
  if (attrs != options.cubed_attributes) {
    return Status::InvalidArgument(what +
                                   "'s cubed attributes differ from options");
  }
  return saved_rows;
}

Status Tabula::WriteAtomically(
    const std::string& path,
    const std::function<Status(BinaryWriter*)>& write) {
  // Write-temp-then-rename: the destination is replaced atomically only
  // after every byte landed, so a failure mid-write (a full disk, an
  // injected "persistence.write" fault) leaves any prior file at `path`
  // intact instead of half-overwritten.
  const std::string tmp = path + ".tmp";
  Status written = [&]() -> Status {
    TABULA_FAULT_POINT("persistence.open");
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open '" + tmp + "' for writing");
    }
    BinaryWriter w(&out);
    TABULA_RETURN_NOT_OK(write(&w));
    out.flush();
    if (!w.ok() || !out) {
      return Status::IOError("write failed for '" + tmp + "'");
    }
    return Status::OK();
  }();
  std::error_code ec;
  if (!written.ok()) {
    std::filesystem::remove(tmp, ec);  // best effort; ignore errors
    return written;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::string reason = ec.message();
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot move '" + tmp + "' over '" + path +
                           "': " + reason);
  }
  return Status::OK();
}

Status Tabula::EncodeBody(BinaryWriter* w) const {
  w->WriteU64(cube_.size());
  for (const auto& cell : cube_.cells()) {
    w->WriteU64(cell.key);
    w->WriteU32(cell.cuboid);
    w->WriteU32(cell.sample_id);
  }
  TABULA_FAULT_POINT("persistence.write");
  w->WriteU64(samples_.size());
  for (uint32_t id = 0; id < samples_.size(); ++id) {
    w->WriteVector(samples_.sample(id));
  }

  // Stats snapshot so a loaded cube still reports its build costs.
  w->WriteDouble(stats_.dry_run_millis);
  w->WriteDouble(stats_.real_run_millis);
  w->WriteDouble(stats_.selection_millis);
  w->WriteU64(stats_.total_cells);
  w->WriteU64(stats_.iceberg_cells);
  w->WriteU64(stats_.iceberg_cuboids);
  w->WriteU64(stats_.cells_sharing_samples);
  TABULA_FAULT_POINT("persistence.write");

  // The spatial grid travels as one length-prefixed blob (samples +
  // counts; row lists and loss states are rebuilt at load).
  w->WriteU32(grid_.present() ? 1u : 0u);
  if (grid_.present()) {
    BufferWriter gw;
    grid_.EncodeTo(&gw);
    w->WriteString(std::string(gw.data(), gw.size()));
  }
  TABULA_FAULT_POINT("persistence.write");

  // One tier record per sample slot (all kWarm with the store off). Cold
  // slots saved their (empty) sample above; the spill pointer lets a
  // load restore the demoted bytes without re-sampling.
  w->WriteU64(samples_.size());
  for (uint32_t id = 0; id < samples_.size(); ++id) {
    SampleStore::TierRecord rec = store_.record(id);
    w->WriteU32(static_cast<uint32_t>(rec.tier));
    w->WriteU64(rec.spill_offset);
    w->WriteU64(rec.spill_len);
  }
  TABULA_FAULT_POINT("persistence.write");
  return Status::OK();
}

Status Tabula::Save(const std::string& path) const {
  // Tier records and sample slots must snapshot consistently against
  // concurrent lazy promotes.
  std::shared_lock<std::shared_mutex> store_lock;
  if (store_enabled()) {
    store_lock = std::shared_lock<std::shared_mutex>(*store_mu_);
  }
  return WriteAtomically(path, [&](BinaryWriter* w) -> Status {
    WriteHeader(w, kMagic, kVersion, *table_, refreshed_rows_, options_);
    w->WriteVector(global_sample_rows_);
    TABULA_FAULT_POINT("persistence.write");
    return EncodeBody(w);
  });
}

Status Tabula::DecodeBody(BinaryReader* r, uint64_t saved_rows,
                          const std::vector<RowId>* grid_rows) {
  TABULA_ASSIGN_OR_RETURN(uint64_t num_cells, r->ReadU64());
  for (uint64_t i = 0; i < num_cells; ++i) {
    IcebergCell cell;
    TABULA_ASSIGN_OR_RETURN(cell.key, r->ReadU64());
    TABULA_ASSIGN_OR_RETURN(cell.cuboid, r->ReadU32());
    TABULA_ASSIGN_OR_RETURN(cell.sample_id, r->ReadU32());
    cube_.Add(std::move(cell));
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t num_samples, r->ReadU64());
  for (uint64_t i = 0; i < num_samples; ++i) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows, r->ReadVector<RowId>());
    TABULA_RETURN_NOT_OK(CheckRowsBelow(rows, saved_rows, "cube file"));
    samples_.Add(std::move(rows));
  }
  for (const auto& cell : cube_.cells()) {
    if (cell.sample_id != kInvalidSampleId &&
        cell.sample_id >= samples_.size()) {
      return Status::DataLoss("cube file has a dangling sample link");
    }
  }

  TabulaInitStats& stats = stats_;
  TABULA_ASSIGN_OR_RETURN(stats.dry_run_millis, r->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(stats.real_run_millis, r->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(stats.selection_millis, r->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(stats.total_cells, r->ReadU64());
  TABULA_ASSIGN_OR_RETURN(stats.iceberg_cells, r->ReadU64());
  TABULA_ASSIGN_OR_RETURN(stats.iceberg_cuboids, r->ReadU64());
  TABULA_ASSIGN_OR_RETURN(stats.cells_sharing_samples, r->ReadU64());

  // Spatial grid: adopt the persisted samples when the file carries a
  // grid matching the configured geometry; otherwise (the options
  // changed the grid shape) rebuild it — Build is deterministic, so the
  // result equals what a save-side engine with these options held.
  SpatialGrid saved_grid;
  TABULA_ASSIGN_OR_RETURN(uint32_t has_grid, r->ReadU32());
  if (has_grid != 0) {
    TABULA_ASSIGN_OR_RETURN(std::string blob, r->ReadString());
    BufferReader gr(blob);
    TABULA_ASSIGN_OR_RETURN(saved_grid, SpatialGrid::DecodeFrom(&gr));
  }
  if (options_.spatial.levels > 0) {
    SpatialGrid::Context ctx = SpatialContext();
    const SpatialGridOptions& want = options_.spatial;
    const SpatialGridOptions& got = saved_grid.options();
    if (has_grid != 0 && got.levels == want.levels &&
        got.x_column == want.x_column && got.y_column == want.y_column) {
      for (uint32_t l = 0; l < saved_grid.num_levels(); ++l) {
        uint32_t cells = (1u << l) * (1u << l);
        for (uint32_t i = 0; i < cells; ++i) {
          TABULA_RETURN_NOT_OK(CheckRowsBelow(saved_grid.cell(l, i).sample,
                                              saved_rows,
                                              "cube file's spatial grid"));
        }
      }
      grid_ = std::move(saved_grid);
      TABULA_RETURN_NOT_OK(grid_.RebuildTransient(ctx, grid_rows));
    } else {
      TABULA_ASSIGN_OR_RETURN(grid_, SpatialGrid::Build(ctx, want, grid_rows));
    }
    stats.spatial_cells = grid_.TotalCells();
    stats.spatial_sample_tuples = grid_.SampleTuples();
  }

  // Tier records. A store-enabled engine adopts them (cold cells stay
  // cold, spill pointers restore without re-sampling); a disabled-store
  // engine accepts only all-kWarm records — anything else would
  // silently serve cold cells' empty slots.
  TABULA_ASSIGN_OR_RETURN(uint64_t num_recs, r->ReadU64());
  if (num_recs != samples_.size()) {
    return Status::DataLoss(
        "cube file's tier records do not match its sample table");
  }
  std::vector<SampleStore::TierRecord> tier_recs(num_recs);
  bool any_nonwarm = false;
  for (uint64_t i = 0; i < num_recs; ++i) {
    TABULA_ASSIGN_OR_RETURN(uint32_t tier_word, r->ReadU32());
    if (tier_word > static_cast<uint32_t>(SampleTier::kCold)) {
      return Status::ParseError("cube file has an unknown sample tier " +
                                std::to_string(tier_word));
    }
    tier_recs[i].tier = static_cast<SampleTier>(tier_word);
    TABULA_ASSIGN_OR_RETURN(tier_recs[i].spill_offset, r->ReadU64());
    TABULA_ASSIGN_OR_RETURN(tier_recs[i].spill_len, r->ReadU64());
    any_nonwarm |= tier_recs[i].tier != SampleTier::kWarm;
  }
  if (!store_enabled()) {
    if (any_nonwarm) {
      return Status::InvalidArgument(
          "cube file carries demoted/hot sample tiers; loading it "
          "requires TabulaOptions.store.budget_bytes > 0");
    }
  } else {
    TABULA_RETURN_NOT_OK(
        store_.Configure(options_.store, /*truncate_spill=*/false));
    std::vector<uint32_t> refs(samples_.size(), 0);
    for (const auto& cell : cube_.cells()) {
      if (cell.sample_id != kInvalidSampleId) ++refs[cell.sample_id];
    }
    const uint64_t tuple_bytes = BytesPerTuple();
    for (uint32_t id = 0; id < samples_.size(); ++id) {
      store_.Adopt(id, tier_recs[id],
                   samples_.sample(id).size() * tuple_bytes, refs[id]);
    }
    // A torn / truncated cold-spill side file surfaces here, before any
    // answer could be served from it.
    TABULA_RETURN_NOT_OK(store_.ValidateSpill());
  }

  stats.representative_samples = samples_.size();
  const uint64_t tuple_bytes = BytesPerTuple();
  stats.global_sample_bytes = global_sample_.size() * tuple_bytes;
  stats.cube_table_bytes = cube_.MemoryBytes();
  stats.sample_table_bytes = samples_.MemoryBytes(tuple_bytes);
  return Status::OK();
}

Result<std::unique_ptr<Tabula>> Tabula::Load(const Table& table,
                                             TabulaOptions options,
                                             const std::string& path,
                                             bool resume_partial) {
  if (options.effective_loss() == nullptr) {
    return Status::InvalidArgument("TabulaOptions.loss must be set");
  }
  Stopwatch timer;
  TABULA_FAULT_POINT("persistence.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  BinaryReader r(&in);
  TABULA_ASSIGN_OR_RETURN(uint64_t saved_rows,
                          ReadHeader(&r, kMagic, kVersion, "cube file", path,
                                     table, options, resume_partial));
  TABULA_ASSIGN_OR_RETURN(KeyEncoder encoder,
                          KeyEncoder::Make(table, options.cubed_attributes));
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> global_rows,
                          r.ReadVector<RowId>());
  TABULA_RETURN_NOT_OK(
      CheckRowsBelow(global_rows, saved_rows, "cube file's global sample"));
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<Tabula> tabula,
      MakeInstance(table, std::move(options), std::move(encoder),
                   std::move(global_rows)));
  // The grid describes exactly the covered prefix, like the cube.
  std::vector<RowId> prefix;
  if (saved_rows != table.num_rows()) {
    prefix.resize(saved_rows);
    for (RowId row = 0; row < saved_rows; ++row) prefix[row] = row;
  }
  TABULA_RETURN_NOT_OK(tabula->DecodeBody(
      &r, saved_rows, saved_rows != table.num_rows() ? &prefix : nullptr));
  tabula->stats_.total_millis = timer.ElapsedMillis();  // load, not build
  // The cube answers for exactly the rows the file covered; a resumed
  // load leaves the tail pending for the next Refresh()/ingest cycle
  // (and tags answers stale until it runs).
  tabula->refreshed_rows_ = saved_rows;
  // Tiered store: track any samples the tier records did not adopt,
  // build the finest-row index lazy promotes gather through, and
  // enforce the (possibly smaller) budget.
  TABULA_RETURN_NOT_OK(tabula->AssignInitialTiers(nullptr));
  return tabula;
}

Result<std::unique_ptr<Tabula>> Tabula::LoadUnit(BinaryReader* r,
                                                 const Table& table,
                                                 TabulaOptions options,
                                                 const UnitInput& unit,
                                                 uint64_t saved_rows) {
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<Tabula> tabula,
      MakeInstance(table, std::move(options), *unit.encoder,
                   *unit.global_rows));
  TABULA_RETURN_NOT_OK(tabula->DecodeBody(r, saved_rows, unit.rows));
  tabula->refreshed_rows_ = saved_rows;
  TABULA_RETURN_NOT_OK(tabula->AssignInitialTiers(unit.rows));
  return tabula;
}

}  // namespace tabula
