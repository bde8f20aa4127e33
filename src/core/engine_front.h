#ifndef TABULA_CORE_ENGINE_FRONT_H_
#define TABULA_CORE_ENGINE_FRONT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "core/query_engine.h"
#include "exec/group_by.h"
#include "exec/key_encoder.h"
#include "obs/trace.h"
#include "sampling/theta_restore.h"
#include "spatial/spatial_grid.h"
#include "storage/table.h"

namespace tabula {

struct TabulaOptions;
struct TabulaQueryResult;

/// \brief The QueryEngine front both sampling-cube engines share
/// (DESIGN.md §7).
///
/// A `Tabula` keeps one cube; a `ShardedTabula` merges K shard units.
/// Everything else a caller sees is the same and lives here once: the
/// Query() prologue (span, range dispatch, WHERE validation, the
/// provably-empty cell, generation and staleness tagging), Refresh() as
/// Plan → Begin → Execute → Commit under one `tabula.refresh` span, the
/// ingest plan's prologue (append-only check, no-op, `refresh.begin`
/// seam, encoder-layout check, global-sample redraw) and the commit
/// tail (committed rows, dirty set cleared, ++generation, listeners
/// fired), and the refresh-listener registry. Each engine supplies the
/// hooks below: its cell lookup, its range path, the bodies of its
/// ingest phases, and its full rebuild.
class EngineFront : public QueryEngine {
 public:
  Result<QueryResponse> Query(const QueryRequest& request) const override;
  Status Refresh(RefreshStats* stats = nullptr) override;
  Result<std::unique_ptr<IngestPlan>> PlanIngest() override;
  void BeginIngest(IngestPlan* plan) override;
  Status ExecuteIngest(IngestPlan* plan) override;
  Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                      RefreshStats* stats = nullptr) override;
  size_t PendingIngestRows() const override {
    return table_->num_rows() - refreshed_rows_;
  }

  /// Monotone cube-content version, bumped by every committed ingest
  /// cycle that saw appended rows (full rebuilds included). Caches
  /// layered above the engine key their coherence off this counter.
  uint64_t generation() const override { return generation_; }

  /// Registers `listener` to run after every committed cycle (in the
  /// committing thread, once the cube has mutated) — the invalidation
  /// hook serve/ResultCache fences itself with. Returns a handle for
  /// RemoveRefreshListener(). Registration follows the same
  /// external-serialization contract as Refresh() itself.
  uint64_t AddRefreshListener(std::function<void()> listener) override;
  void RemoveRefreshListener(uint64_t id) override;

  const DatasetView& global_sample() const override { return global_sample_; }
  const Table& base_table() const override { return *table_; }

 protected:
  /// What every engine's ingest plan stages beside its own cells. All of
  /// it is private to the cycle until CommitIngest adopts it.
  struct StagedIngest : IngestPlan {
    KeyEncoder new_encoder;
    /// Redrawn global sample over [0, target_rows) — byte for byte the
    /// one a from-scratch build over the grown table draws. Adopted
    /// when the loss's state is reference-independent (the retained
    /// states stay valid under the new binding, so the maintained
    /// iceberg set converges to the from-scratch one); otherwise the
    /// original sample stays and `adopt_global` is false.
    bool adopt_global = false;
    std::vector<RowId> staged_global_rows;
    DatasetView staged_global;
    /// The `tabula.refresh` span the phases' own spans parent under
    /// (0 outside Refresh()).
    uint64_t parent_span = 0;
    bool executed = false;
    /// Full-rebuild path: the from-scratch replacement engine.
    std::unique_ptr<EngineFront> fresh;
  };

  EngineFront() = default;
  /// Moves `other`'s content over this engine's — how a full rebuild's
  /// commit adopts the fresh build. The listener registry and the
  /// generation stay: they belong to the engine the layers above hold,
  /// not to the cube it currently serves.
  EngineFront& operator=(EngineFront&& other);

  // ---- Hooks each engine implements ---------------------------------
  /// The build parameters: loss, θ, cubed attributes, seed, tracer.
  virtual const TabulaOptions& cube_options() const = 0;
  /// Answers the validated equality cell `key` (`span` is the query's).
  virtual void ServeCell(uint64_t key, const Span& span,
                         TabulaQueryResult* result) const = 0;
  /// Answers a request with a non-empty `range` (bbox); fields other
  /// than the generation are filled here.
  virtual Status QueryRange(const QueryRequest& request, bool has_pending,
                            TabulaQueryResult* result) const = 0;
  /// An empty plan of the engine's own type.
  virtual std::unique_ptr<StagedIngest> NewIngestPlan() const = 0;
  /// The rest of PlanIngest for an incremental cycle: runs after the
  /// prologue staged the encoder and the global sample; must publish
  /// `dirty_keys`.
  virtual Status PlanChanges(StagedIngest* plan) = 0;
  /// ExecuteIngest of an incremental cycle.
  virtual Status ExecuteChanges(StagedIngest* plan) = 0;
  /// Adopts an executed incremental cycle; the new encoder and global
  /// sample are already in place. Runs in the commit's infallible block.
  virtual void CommitChanges(StagedIngest* plan) = 0;
  /// A from-scratch build over the current table (a layout change).
  virtual Result<std::unique_ptr<EngineFront>> Rebuild() const = 0;
  /// Adopts a Rebuild() result, keeping the listeners and generation.
  virtual void AdoptRebuild(EngineFront&& fresh) = 0;

  // ---- Shared pieces --------------------------------------------------
  /// Installs the table, the key encoder with its all-columns packer,
  /// and the global sample — the common prefix of every build and load.
  Status InstallFront(const Table& table, KeyEncoder encoder,
                      std::vector<RowId> global_rows);

  /// The loss machinery every θ restoration reads: the build's loss at
  /// its threshold, the sampler seeded with the build seed (so re-draws
  /// reproduce the build's bytes), and the global sample.
  ThetaContext theta_context() const;

  /// The WHERE validation of the equality query surface, shared by the
  /// pure-equality and hybrid range paths: codes of `encoder`'s
  /// columns, kNullCode for rolled-up ones. On return `*provably_empty`
  /// marks a literal absent from its dictionary (empty cell); later
  /// terms are then left unchecked.
  static Status ValidateEqualityTerms(const KeyEncoder& encoder,
                                      const std::vector<PredicateTerm>& where,
                                      std::vector<uint32_t>* codes,
                                      bool* provably_empty);

  /// The range-request checks: `grid` is present, the box resolves
  /// against its columns, no equality term names a grid column, and the
  /// terms pass ValidateEqualityTerms against `encoder`
  /// (`*provably_empty` as there).
  static Result<SpatialGrid::ResolvedBBox> ValidateRange(
      const SpatialGrid& grid, const KeyEncoder& encoder,
      const QueryRequest& request, bool* provably_empty);

  /// The hybrid (range + equality) answer from `matching`, the ascending
  /// rows in the box that match the terms: an empty cell, the rows
  /// themselves up to `cap` (0 = no cap), or a re-draw above it — within
  /// θ and deterministic either way.
  static Status ServeHybrid(const ThetaContext& ctx, size_t cap,
                            std::vector<RowId> matching,
                            TabulaQueryResult* result);

  const Table* table_ = nullptr;
  KeyEncoder encoder_;
  KeyPacker packer_;
  std::vector<RowId> global_sample_rows_;
  DatasetView global_sample_;
  /// Rows the cube has folded in; the rest of the table is pending.
  size_t refreshed_rows_ = 0;
  /// Cells the in-flight ingest cycle will change (packed keys across
  /// all cuboids), published by BeginIngest and cleared at commit.
  /// Query() reads it for precise staleness tagging; empty while rows
  /// are pending means "not classified yet" → every cell is
  /// conservatively stale.
  FlatHashSet pending_dirty_;

 private:
  uint64_t generation_ = 0;
  uint64_t next_listener_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void()>>> refresh_listeners_;
};

}  // namespace tabula

#endif  // TABULA_CORE_ENGINE_FRONT_H_
