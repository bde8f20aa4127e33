#ifndef TABULA_CORE_TABULA_H_
#define TABULA_CORE_TABULA_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "core/engine_front.h"
#include "core/query_engine.h"
#include "core/query_request.h"
#include "cube/cube_table.h"
#include "cube/dry_run.h"
#include "cube/finest_index.h"
#include "cube/real_run.h"
#include "loss/loss_function.h"
#include "obs/trace.h"
#include "sampling/greedy_sampler.h"
#include "sampling/theta_restore.h"
#include "selection/rep_selection.h"
#include "spatial/spatial_grid.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "store/sample_store.h"

namespace tabula {

/// Parameters of the initialization query (Section II): loss function,
/// threshold, cubed attributes, plus engine knobs.
struct TabulaOptions {
  /// Cubed attributes — the columns future WHERE clauses may filter on.
  std::vector<std::string> cubed_attributes;
  /// User-defined accuracy loss function (not owned; must outlive
  /// Tabula). Prefer `owned_loss`, which removes the lifetime footgun.
  const LossFunction* loss = nullptr;
  /// Owning variant of `loss` (e.g. from MakeLossFunction in
  /// loss/loss_registry.h). When both are set, `loss` wins — it is the
  /// explicit override. Shared so copies of the options (and the cube
  /// rebuilt by Refresh) keep the loss alive.
  std::shared_ptr<const LossFunction> owned_loss;
  /// The loss Initialize()/Refresh() actually use.
  const LossFunction* effective_loss() const {
    return loss != nullptr ? loss : owned_loss.get();
  }
  /// Accuracy loss threshold θ: the deterministic bound every returned
  /// sample satisfies.
  double threshold = 0.1;
  /// Serfling global-sample parameters (Section III-B1).
  double serfling_epsilon = 0.05;
  double serfling_delta = 0.01;
  /// SAMPLING(*, θ) engine knobs.
  GreedySamplerOptions sampler;
  /// Real-run data-fetch path (kAuto = the paper's cost model).
  RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto;
  /// Representative-sample-selection knobs.
  SelectionOptions selection;
  /// When false, every local sample is persisted individually — the
  /// paper's Tabula* ablation (Section V, compared approach 6).
  bool enable_sample_selection = true;
  /// Keep the finest-cell index (the dry run's per-finest-cell loss
  /// states plus each cell's row ids) between Refresh() calls, so an
  /// incremental refresh avoids one full-table accumulation pass. Costs
  /// O(#finest cells) states and one RowId per row of memory; an engine
  /// with the tiered store enabled keeps the index either way.
  bool keep_maintenance_state = false;
  /// Hierarchical spatial grid for bbox (pan/zoom) queries. Disabled by
  /// default (`spatial.levels == 0`): the engine then behaves bit for
  /// bit like the pre-spatial build and range requests are rejected.
  /// Enabling requires both grid columns to exist as DOUBLE columns.
  SpatialGridOptions spatial;
  /// Tracing sink (not owned; may be null). Initialize(), Query() and
  /// Refresh() emit spans into it; a null or kDisabled tracer costs one
  /// branch per call. Initialize() always produces spans — when this is
  /// unusable it records them into a private per-instance tracer so
  /// init_stats() stage timings are span-derived either way.
  Tracer* tracer = nullptr;
  /// Tiered sample store under a byte budget (DESIGN.md §12). The
  /// default (`store.budget_bytes == 0`) disables the store entirely:
  /// no tier tracking and no store locking; saved files carry all-kWarm
  /// tier records.
  SampleStoreOptions store;
  uint64_t seed = 42;
};

/// Timing/size breakdown of Initialize(), matching the components the
/// paper plots (Figures 8–10). Stage timings are derived from the init
/// spans (see Tabula::init_trace()), not hand-timed, so the trace and
/// the stats cannot disagree.
struct TabulaInitStats {
  double global_sample_millis = 0.0;
  double dry_run_millis = 0.0;
  double real_run_millis = 0.0;
  double selection_millis = 0.0;
  double spatial_millis = 0.0;
  double total_millis = 0.0;

  size_t global_sample_tuples = 0;
  size_t total_cells = 0;
  size_t iceberg_cells = 0;
  size_t iceberg_cuboids = 0;
  size_t representative_samples = 0;
  size_t cells_sharing_samples = 0;
  /// Spatial grid (0s when the grid is disabled).
  size_t spatial_cells = 0;
  size_t spatial_sample_tuples = 0;

  /// Memory components (Figure 9): global sample / cube table / sample
  /// table, in bytes, with tuples costed at the base table's row width.
  uint64_t global_sample_bytes = 0;
  uint64_t cube_table_bytes = 0;
  uint64_t sample_table_bytes = 0;
  uint64_t TotalBytes() const {
    return global_sample_bytes + cube_table_bytes + sample_table_bytes;
  }

  std::vector<CuboidRealRunInfo> real_run_cuboids;
};

/// Answer to a dashboard query.
struct TabulaQueryResult {
  /// The pre-materialized sample (rows of the base table).
  DatasetView sample;
  /// True when an iceberg cell's representative local sample was
  /// returned; false when the global sample sufficed (non-iceberg cell)
  /// or the cell is provably empty.
  bool from_local_sample = false;
  /// True when the queried cell provably holds no rows (a filter value
  /// that never occurs); the returned sample is empty.
  bool empty_cell = false;
  /// Middleware lookup latency (the data-system time of Tabula).
  double data_system_millis = 0.0;
  /// Shards that could not be reached while gathering this answer
  /// (sharded engine only; always empty for single-instance answers).
  /// When non-empty, the sample stands in the global sample for the
  /// missing slices, so the deterministic θ bound no longer holds — the
  /// dashboard should mark the tile provisional.
  std::vector<uint32_t> unavailable_shards;
  /// kUnavailable detail describing the first shard failure (OK when
  /// `unavailable_shards` is empty).
  Status shard_error = Status::OK();
  /// Cube-content generation this answer was computed at (the engine's
  /// generation() at lookup time). Dashboards use it to order
  /// progressively refined answers for the same tile.
  uint64_t generation = 0;
  /// True when appended rows are still being folded into the cube AND
  /// this cell's answer is scheduled to change (the cell is in the
  /// in-flight dirty set, or the pending rows have not been classified
  /// yet, so every cell is conservatively stale). A stale answer still
  /// satisfies θ against the rows the cube has folded in — it just
  /// predates the freshest appends.
  bool stale = false;
  /// True when a cold-tier cell's lazy promote failed (injected fault
  /// or torn spill record) and the answer fell back to the global
  /// sample — the deterministic θ bound no longer holds for this tile,
  /// exactly like a dead shard. Always false when the sample store is
  /// disabled.
  bool store_degraded = false;
};

/// Answer to a QueryRequest: the query result plus the id of the span
/// that timed it (0 when the request was not traced), so callers can
/// parent their own spans under it or pull the span tree out of the
/// tracer.
struct QueryResponse {
  TabulaQueryResult result;
  uint64_t span_id = 0;
};

class ShardedTabula;

/// \brief The Tabula middleware (the paper's primary contribution).
///
/// Sits between the SQL data system (`storage`/`exec`) and the
/// visualization dashboard (`viz`). Initialize() executes the paper's
/// CREATE TABLE ... SAMPLING(*, θ) ... GROUP BY CUBE ... HAVING loss(...)
/// > θ pipeline: global sample → dry run → real run → representative
/// sample selection. Query() then answers
/// SELECT sample FROM cube WHERE <equality predicates on cubed attrs>
/// with a readily materialized sample whose accuracy loss w.r.t. the true
/// query answer never exceeds θ (100% confidence).
///
/// The query, refresh and listener front is EngineFront's, shared with
/// the sharded engine (`ShardedTabula`, src/shard/), so the two are
/// interchangeable behind a QueryServer. A sharded engine is itself
/// built from `Tabula` instances, one per shard (its shard units).
///
/// Query() — every `request.where` term must be an equality predicate on
/// a cubed attribute (the paper's WHERE-clause contract); attributes not
/// mentioned roll up to '*'. `request.deadline_ms` and
/// `request.consistency` are serving-layer knobs and are ignored here;
/// `request.trace`/`request.parent_span` drive the "tabula.query" span
/// emitted into the attached tracer. Query() reads only state that is
/// immutable after Initialize()/Load() — the key encoder/packer, cube
/// table, sample table, and global-sample row list — through genuinely
/// const paths with no hidden caches, so any number of threads may call
/// it concurrently (the Tracer is internally synchronized; with the
/// store enabled, promotes synchronize on the store's own lock). The
/// mutating entry points (Refresh(), the ingest phases' Begin/Commit,
/// and replacing the instance via Load()) are NOT safe against
/// in-flight Query() calls; callers must serialize them externally —
/// QueryServer in src/serve/ does so with a shared/exclusive lock.
///
/// Refresh() is incremental maintenance after the base table grew (an
/// extension beyond the paper, which builds the cube once): it
/// re-derives every cube cell's loss state from the maintained
/// finest-cuboid states (no 2^n GroupBys), then restores the
/// deterministic guarantee — newly-iceberg cells get fresh local
/// samples, cells whose raw data changed re-verify their representative
/// sample (re-sampling on violation), and cells that dropped below θ
/// fall back to the global sample. An appended row with a previously
/// unseen cubed attribute value changes the key layout, and a full
/// re-initialization runs instead (RefreshStats::full_rebuild).
/// Representative-sample sharing is not re-optimized here — memory may
/// drift above optimal until the next full initialization. The ingest
/// phases' Plan/Execute mutate only plan-staged state plus
/// maintenance-only members no Query() path reads (the finest-cell
/// index's rows, maintenance_bound_).
class Tabula : public EngineFront {
 public:
  /// Builds the partially materialized sampling cube over `table`.
  /// `table` must outlive the returned instance.
  static Result<std::unique_ptr<Tabula>> Initialize(const Table& table,
                                                    TabulaOptions options);

  const TabulaInitStats& init_stats() const { return stats_; }
  /// The spans of the last Initialize() (or full rebuild), root first:
  /// tabula.init → {global_sample, dry_run, real_run, selection}.
  /// init_stats() stage timings are these spans' durations.
  const std::vector<SpanRecord>& init_trace() const { return init_trace_; }
  const TabulaOptions& options() const { return options_; }
  const CubeTable& cube_table() const { return cube_; }
  const SampleTable& sample_table() const { return samples_; }
  /// The tiered sample store (enabled() is false when budget_bytes==0).
  const SampleStore& sample_store() const { return store_; }

  /// Maintenance sweep of the tiered store: upgrades single-reference
  /// resident cells whose hit count crossed `store.hot_promote_hits` to
  /// kHot (a fresh draw at θ × hot_theta_factor), then re-enforces the
  /// byte budget. Follows the same external-serialization contract as
  /// Refresh(). No-op when the store is disabled.
  Status MaintainStoreTiers();
  /// The spatial grid (present() is false when disabled).
  const SpatialGrid& spatial_grid() const { return grid_; }

  /// Average bytes per materialized tuple of the base schema (used to
  /// cost sample memory like the paper's materialized tuples).
  uint64_t BytesPerTuple() const;

  /// \brief Persists the initialized sampling cube (global sample rows,
  /// cube table, sample table) to a binary file so subsequent sessions
  /// skip initialization entirely — the middleware restarts in
  /// milliseconds. Samples reference base-table row ids, so a saved cube
  /// is only valid for the exact table it was built on; Load verifies a
  /// fingerprint (cardinality + content probes) and the loss/threshold
  /// configuration before accepting the file.
  Status Save(const std::string& path) const override;

  /// Restores a cube saved with Save(). `options` must name the same
  /// loss function, threshold, and cubed attributes used at build time.
  /// By default the file must cover exactly `table.num_rows()` rows
  /// (a cube saved before the table grew is rejected as stale). With
  /// `resume_partial = true` a file saved at fewer rows is accepted as
  /// long as it matches the table prefix it was built on — the
  /// crash-recovery path for streaming ingestion, where the journal
  /// replays rows the cube has not folded yet and a Refresh() (or the
  /// ingest cycle) catches the cube up afterwards.
  static Result<std::unique_ptr<Tabula>> Load(const Table& table,
                                              TabulaOptions options,
                                              const std::string& path,
                                              bool resume_partial = false);

  // RefreshStats is inherited from QueryEngine; `Tabula::RefreshStats`
  // keeps naming it for existing callers.

 protected:
  const TabulaOptions& cube_options() const override { return options_; }
  void ServeCell(uint64_t key, const Span& span,
                 TabulaQueryResult* result) const override;
  Status QueryRange(const QueryRequest& request, bool has_pending,
                    TabulaQueryResult* result) const override;
  std::unique_ptr<StagedIngest> NewIngestPlan() const override;
  Status PlanChanges(StagedIngest* plan) override;
  Status ExecuteChanges(StagedIngest* plan) override;
  void CommitChanges(StagedIngest* plan) override;
  Result<std::unique_ptr<EngineFront>> Rebuild() const override;
  void AdoptRebuild(EngineFront&& fresh) override;

 private:
  /// The sharded engine builds, serves, and persists its shard units
  /// through the private entry points below.
  friend class ShardedTabula;

  /// Staged state of one in-flight ingest cycle (defined in refresh.cc).
  struct IngestState;

  /// What a sharded coordinator hands one shard unit: the key encoder
  /// and global sample every unit shares, and the unit's ascending rows.
  struct UnitInput {
    const KeyEncoder* encoder = nullptr;
    const std::vector<RowId>* global_rows = nullptr;
    const std::vector<RowId>* rows = nullptr;
  };

  Tabula() = default;

  /// Initialize()'s argument checks.
  static Status ValidateOptions(const Table& table,
                                const TabulaOptions& options);

  /// The build pipeline: global sample → dry run → real run → selection
  /// (or persist-all) → spatial grid → initial tiers, each stage a span
  /// in `tracer` (a private tracer when null, so init_stats() is
  /// span-derived either way). With `unit` null this is Initialize()
  /// over every row. Otherwise it builds a shard unit over unit->rows
  /// with the coordinator's encoder and global sample, and keeps the
  /// finest-cell index the coordinator's merge reads.
  static Result<std::unique_ptr<Tabula>> Build(const Table& table,
                                               TabulaOptions options,
                                               const UnitInput* unit,
                                               Tracer* tracer);

  /// A fresh instance over `table` with `encoder` and the global sample
  /// `global_rows` installed (the common prefix of every build and load).
  static Result<std::unique_ptr<Tabula>> MakeInstance(
      const Table& table, TabulaOptions options, KeyEncoder encoder,
      std::vector<RowId> global_rows);

  // --- Persistence (src/core/persistence.cc) --------------------------
  /// Header shared by the cube file and the shard manifest: magic,
  /// format version, the covered row count and its table fingerprint,
  /// and the build configuration a Load must match.
  static void WriteHeader(BufferWriter* w, uint32_t magic, uint32_t version,
                          const Table& table, size_t rows,
                          const TabulaOptions& options);
  /// Checks a header written by WriteHeader and returns the covered row
  /// count. `what` names the format in errors; a file of any version but
  /// `version` is kParseError.
  static Result<uint64_t> ReadHeader(BufferReader* r, uint32_t magic,
                                     uint32_t version,
                                     const std::string& what,
                                     const std::string& path,
                                     const Table& table,
                                     const TabulaOptions& options,
                                     bool resume_partial);
  /// Appends `body`, everything a file holds after its header, as one
  /// checked record (BufferWriter::WriteRecord): its CRC32C covers every
  /// body byte. kInvalidArgument past the record's 4 GiB − 1 bytes.
  static Status WriteBody(BufferWriter* w, const BufferWriter& body,
                          const std::string& what);
  /// Reads a body written by WriteBody and returns a reader over it,
  /// checked before a byte of it is decoded: kDataLoss when it is torn
  /// or fails its checksum.
  static Result<BufferReader> ReadBody(BufferReader* r,
                                       const std::string& what);
  /// kDataLoss unless every id in `rows` lies below `limit` — a file may
  /// only reference rows the cube had folded in.
  static Status CheckRowsBelow(const std::vector<RowId>& rows,
                               uint64_t limit, const std::string& what);
  /// Writes `path` temp-then-rename: `write` encodes the whole file into
  /// memory, one write puts it in the temp file, and only a complete
  /// write replaces the destination, so a failure mid-encode or
  /// mid-write never leaves a partial file there.
  static Status WriteAtomically(
      const std::string& path,
      const std::function<Status(BufferWriter*)>& write);
  /// The cube body: cube cells, sample table, build stats, spatial grid,
  /// and one tier record per sample (all kWarm when the store is off).
  /// The cube file holds one body; the shard manifest one per unit.
  /// Both files carry it inside their checked body (WriteBody).
  Status EncodeBody(BufferWriter* w) const;
  /// Reads a body written by EncodeBody into an instance made by
  /// MakeInstance. Row ids must lie below `saved_rows`; a rebuilt
  /// spatial grid covers `grid_rows` (nullptr = every table row).
  Status DecodeBody(BufferReader* r, uint64_t saved_rows,
                    const std::vector<RowId>* grid_rows);
  /// A shard unit restored from its manifest body.
  static Result<std::unique_ptr<Tabula>> LoadUnit(BufferReader* r,
                                                  const Table& table,
                                                  TabulaOptions options,
                                                  const UnitInput& unit,
                                                  uint64_t saved_rows);

  /// Whether finest_ outlives a build, load or ingest cycle of a
  /// single-instance engine (shard units always keep it): lazy promotes
  /// read it with the store enabled, and keep_maintenance_state asks for
  /// it.
  bool keeps_finest_index() const {
    return store_enabled() || options_.keep_maintenance_state;
  }
  /// Rebuilds finest_ over a shard unit's `rows` (nullptr = the
  /// committed prefix [0, refreshed_rows_)) with the dry run's fold
  /// (files do not persist the index): after a Load, and in the first
  /// PlanIngest of an engine that does not keep it.
  Status RebuildFinestIndex(const KeyEncoder& encoder,
                            const std::vector<RowId>* rows);

  /// The bound loss (options_.effective_loss(), cached at Initialize).
  const LossFunction* loss_fn() const { return options_.effective_loss(); }

  // --- Tiered sample store (src/core/store_tier.cc) -----------------
  /// Whether the tiered store is active for this instance.
  bool store_enabled() const { return options_.store.budget_bytes > 0; }
  /// Configures the store, registers every sample at kWarm with its
  /// cube refcount, and enforces the budget. Called at the end of a
  /// build and (with adopted tier records already in place) by a load.
  Status AssignInitialTiers();
  /// Cell `key`'s rows of this instance — ascending, capped at
  /// refreshed_rows_, possibly none — gathered from the finest-cell
  /// index (GatherCellRows).
  std::vector<RowId> CellRows(uint64_t key) const;
  /// Restores a cold cell's sample: spill read + lazy re-verify when a
  /// record exists (off the cell's folded state, FoldCellState, for a
  /// reference-free loss; against its gathered rows for any other),
  /// deterministic re-sample otherwise (seeded like the build, so
  /// promote→demote→promote reproduces the original bytes).
  /// Upgrades straight to kHot past the hit threshold. When the sample
  /// alone cannot fit the budget it is handed back via `transient`
  /// (served θ-bounded but not retained). Caller holds store_mu_
  /// exclusively; fires the `store.promote` seam.
  Status PromoteLocked(IcebergCell* cell,
                       std::vector<RowId>* transient) const;
  /// Serve path for an iceberg-cell hit: appends `cell`'s local sample
  /// to `out` — straight from the sample table with the store disabled;
  /// otherwise hit accounting under the shared lock and a lazy
  /// promote-on-miss under the exclusive lock (with a `store.promote`
  /// span). False when a cold cell failed to promote (nothing appended;
  /// the caller degrades to the global sample).
  bool AppendLocalSample(const IcebergCell& cell, uint64_t parent_span,
                         std::vector<RowId>* out) const;

  TabulaOptions options_;
  std::vector<SpanRecord> init_trace_;
  /// Mutable: with the store enabled, const Query() promotes cold cells
  /// in place under store_mu_'s exclusive section. With the store
  /// disabled both are immutable after Initialize()/Load(), preserving
  /// the pre-tiering const contract.
  mutable CubeTable cube_;
  mutable SampleTable samples_;
  /// Tier/residency bookkeeping (inert when store_enabled() is false).
  mutable SampleStore store_;
  /// Guards cube_/samples_/store_ once the store is enabled: Query()
  /// takes it shared for lookups + hit accounting and exclusive for the
  /// lazy promote; the ingest phases that touch samples take it
  /// exclusive. Heap-allocated so Tabula stays move-assignable (the
  /// full-rebuild commit moves a fresh instance over *this).
  mutable std::unique_ptr<std::shared_mutex> store_mu_ =
      std::make_unique<std::shared_mutex>();
  /// Hierarchical spatial grid (absent unless options_.spatial enables
  /// it). Immutable between mutating entry points, like the cube.
  SpatialGrid grid_;
  TabulaInitStats stats_;

  /// The finest-cell index (cube/finest_index.h): the dry run's states
  /// and every finest cell's rows. Kept after a build or a load exactly
  /// when something reads it later — a shard unit (the coordinator's
  /// merge and promotes), an enabled store (lazy promotes), or
  /// keep_maintenance_state; otherwise the first PlanIngest rebuilds it
  /// and CommitIngest drops it again. PlanIngest appends rows in place
  /// and stages the states; CommitIngest adopts them.
  FinestIndex finest_;
  /// The loss bound to global_sample_ for incremental maintenance.
  std::unique_ptr<BoundLoss> maintenance_bound_;
};

}  // namespace tabula

#endif  // TABULA_CORE_TABULA_H_
