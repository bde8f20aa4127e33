#ifndef TABULA_SPATIAL_SPATIAL_GRID_H_
#define TABULA_SPATIAL_SPATIAL_GRID_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "core/query_request.h"
#include "loss/loss_function.h"
#include "sampling/theta_restore.h"
#include "storage/table.h"

namespace tabula {

/// Configuration of the hierarchical spatial grid (DESIGN.md §10).
struct SpatialGridOptions {
  /// Double columns the grid spans. The defaults match the taxi schema;
  /// the soak harness overrides them to its synthetic `x`/`y`.
  std::string x_column = "pickup_x";
  std::string y_column = "pickup_y";

  /// Number of levels, power-of-4 refinement: level l is a 2^l × 2^l
  /// partition of the build-time extent, so level 0 is one root cell and
  /// level L-1 is the finest grid. 0 disables the grid entirely (the
  /// pre-spatial engine, bit for bit).
  size_t levels = 0;

  /// A cell with at most this many rows keeps ALL of them as its sample
  /// (loss 0) instead of running the greedy sampler.
  size_t exact_sample_cap = 16;

  /// When a coarse cell's union-of-children sample exceeds this, the
  /// cell is re-sampled from its raw rows so zoomed-out answers stay
  /// dashboard-sized instead of growing linearly with the cell count.
  /// 0 disables thinning.
  size_t resample_cap = 256;
};

/// \brief Hierarchical sampling grid over two double columns.
///
/// Materialized alongside the cube: every cell of every level carries a
/// θ-valid local sample and the algebraic LossState of its raw rows;
/// finest cells additionally keep their ascending row-id lists (the
/// spatial analogue of the cube's finest-cell index). A bbox query
/// decomposes into interior cells (answered from materialized samples /
/// merged states) and boundary finest cells (answered by targeted
/// re-filter scans), and every composed sample — a coarse cell, a grown
/// finest cell, a bbox answer — has its θ bound restored by RestoreTheta
/// (src/sampling/theta_restore.h), whose check and re-draw the shard
/// merge uses too.
///
/// The grid is a plain value: copyable (shards embed one by value),
/// default-constructed means "absent". All operations take the base
/// table and loss machinery as arguments so the persisted form stays
/// small (samples + counts; row lists and states are rebuilt by one
/// scan at load).
class SpatialGrid {
 public:
  /// One grid cell. `rows` is populated at the finest level only.
  struct Cell {
    LossState state;
    std::vector<RowId> sample;
    std::vector<RowId> rows;
    uint32_t row_count = 0;
  };

  /// Loss machinery threaded through build / append / query calls;
  /// cell and boundary states accumulate against `ref`.
  using Context = ThetaContext;

  /// Inclusive, fully resolved bbox. Unconstrained sides are ±infinity.
  struct ResolvedBBox {
    double x_lo, x_hi, y_lo, y_hi;
  };

  /// A bbox decomposed against the grid: `interior` cells (level, index)
  /// lie entirely inside the box — every row they hold matches — while
  /// `boundary` finest cells straddle an edge and need an exact
  /// re-filter scan. Together they cover the box exactly and disjointly.
  struct Decomposition {
    std::vector<std::pair<uint32_t, uint32_t>> interior;
    std::vector<uint32_t> boundary;
  };

  /// Composed answer for one bbox.
  struct RangeAnswer {
    std::vector<RowId> sample;
    LossState state;
    size_t raw_count = 0;
    /// The sample IS every matching row (loss 0).
    bool exact = false;
    /// θ restoration had to re-draw the sample from raw rows.
    bool resampled = false;
    size_t interior_cells = 0;
    size_t boundary_cells = 0;
    size_t scanned_rows = 0;
  };

  /// Staged outcome of classifying appended rows, adopted by
  /// CommitAppend under the engine's exclusive lock. Cheap to stage,
  /// trivially discardable on failure.
  struct AppendDelta {
    RowId from_row = 0;
    RowId to_row = 0;
    /// Replacement cells, bottom-up; finest entries carry extended row
    /// lists, coarser entries re-merged states/samples.
    std::vector<std::tuple<uint32_t, uint32_t, Cell>> updated;
    double data_min_x = 0.0, data_max_x = 0.0;
    double data_min_y = 0.0, data_max_y = 0.0;
    size_t resampled_cells = 0;
  };

  SpatialGrid() = default;

  /// Builds the grid over `rows` (nullptr → all rows of ctx.table).
  /// Fully deterministic: same table, rows, and options produce
  /// byte-identical grids regardless of thread count.
  static Result<SpatialGrid> Build(const Context& ctx,
                                   const SpatialGridOptions& options,
                                   const std::vector<RowId>* rows);

  bool present() const { return !levels_.empty(); }
  const SpatialGridOptions& options() const { return options_; }
  size_t num_levels() const { return levels_.size(); }
  /// Cells per axis at the finest level (2^(L-1)).
  uint32_t finest_dim() const { return dim_at(levels_.size() - 1); }
  const Cell& cell(uint32_t level, uint32_t index) const {
    return levels_[level][index];
  }
  size_t total_rows() const { return levels_.empty() ? 0 : levels_[0][0].row_count; }
  /// Total sample tuples materialized across every level.
  size_t SampleTuples() const;
  /// Total cells across every level ((4^L - 1) / 3).
  size_t TotalCells() const {
    size_t total = 0;
    for (const auto& level : levels_) total += level.size();
    return total;
  }

  /// Finest-cell index of a coordinate pair (clamped into the extent,
  /// monotone in both arguments — the decomposition proof leans on
  /// this).
  uint32_t FinestCellFor(double x, double y) const;

  /// Resolves a request-level range (named or positional bounds) against
  /// this grid's columns. kInvalidArgument on >2 bounds, duplicate or
  /// unknown columns, NaN endpoints, or reversed bounds.
  Result<ResolvedBBox> Resolve(const SpatialRange& range) const;

  /// Deterministic interior/boundary decomposition of `box`.
  Decomposition Decompose(const ResolvedBBox& box) const;

  /// Composes the θ-valid answer for `box`. Carries the `spatial.plan`
  /// and `spatial.scan` fault seams; a failure leaves no trace (const).
  Result<RangeAnswer> RangeQuery(const Context& ctx,
                                 const ResolvedBBox& box) const;

  /// Every row matching `box`, ascending. The brute-force-adjacent path
  /// used by hybrid (range + equality) queries and coordinator
  /// re-sampling; still index-assisted (interior cells are taken
  /// wholesale, only boundary cells re-filter).
  Result<std::vector<RowId>> GatherRangeRows(const Context& ctx,
                                             const ResolvedBBox& box) const;

  /// Stages the grid maintenance for rows [from_row, to_row) of
  /// ctx.table (shared lock; does not mutate). Rows outside the build
  /// extent clamp into edge cells, which keeps cell assignment monotone;
  /// the true data min/max travel in the delta so virtually-unbounded
  /// bbox sides stay correct.
  Result<AppendDelta> PlanAppend(const Context& ctx, RowId from_row,
                                 RowId to_row) const;

  /// Adopts a staged delta (exclusive lock).
  void CommitAppend(AppendDelta delta);

  /// Serializes config, extent, data min/max, and per-cell
  /// samples/counts. Row lists and LossStates are NOT written — they are
  /// rebuilt by RebuildTransient after decode.
  void EncodeTo(BufferWriter* out) const;
  static Result<SpatialGrid> DecodeFrom(BufferReader* in);

  /// Rebuilds finest row lists and all LossStates with one scan over
  /// `rows` (nullptr → all of ctx.table), cross-checking persisted
  /// row counts (kDataLoss on mismatch). Samples are trusted as
  /// persisted: they were θ-valid for exactly these rows when saved.
  Status RebuildTransient(const Context& ctx, const std::vector<RowId>* rows);

  double data_min_x() const { return data_min_x_; }
  double data_max_x() const { return data_max_x_; }
  double data_min_y() const { return data_min_y_; }
  double data_max_y() const { return data_max_y_; }

 private:
  static uint32_t dim_at(size_t level) { return 1u << level; }

  /// Index of `v` along one axis at the finest level (clamped).
  uint32_t AxisIndex(double v, double lo, double inv_width) const;

  /// Replacement cells PlanAppend stages per level, keyed by index.
  using StagedCells = std::vector<std::map<uint32_t, Cell>>;

  /// Cell (level, index) as `staged` replaces it (nullptr → live).
  const Cell& CellAt(uint32_t level, uint32_t index,
                     const StagedCells* staged) const;

  /// Appends the row lists of every finest cell under cell (level,
  /// index), as `staged` has them, in finest-cell order (unsorted).
  void AppendFinestRows(uint32_t level, uint32_t index,
                        const StagedCells* staged,
                        std::vector<RowId>* out) const;

  /// The rows of `d`'s boundary cells inside `box`, firing the
  /// `spatial.scan` seam once per cell; `*scanned` counts the rows read.
  Result<std::vector<RowId>> ScanBoundary(const Context& ctx,
                                          const Decomposition& d,
                                          const ResolvedBBox& box,
                                          size_t* scanned) const;

  /// Every row of `d`'s box, ascending: the interior cells' rows plus
  /// `boundary_rows`, the boundary cells' rows ScanBoundary kept.
  std::vector<RowId> RangeRows(const Decomposition& d,
                               const std::vector<RowId>& boundary_rows) const;

  /// Sets the data extrema to those of `rows` (nullptr → every row of
  /// ctx.table; ±infinity when there are none).
  Status SetDataExtrema(const Context& ctx, const std::vector<RowId>* rows);

  /// Resets every cell's rows and state, assigns `rows` (as above;
  /// ascending) to finest cells, and accumulates each finest cell's
  /// state against ctx.ref.
  Status IndexRows(const Context& ctx, const std::vector<RowId>* rows);

  /// The fold from four children to their parent: the children of cell
  /// (level, index), as `staged` has them, merge their states and sum
  /// their row counts into `parent`; returns their samples concatenated
  /// in (dy, dx) order.
  std::vector<RowId> FoldChildren(uint32_t level, uint32_t index,
                                  const StagedCells* staged,
                                  Cell* parent) const;

  /// FoldChildren, then θ restored on the children's union under the
  /// thin cap. True when the sample was re-drawn.
  Result<bool> ComposeParent(const Context& ctx, uint32_t level,
                             uint32_t index, const StagedCells* staged,
                             Cell* parent) const;

  Status BuildCellSample(const Context& ctx, Cell* cell) const;

  SpatialGridOptions options_;
  /// levels_[l] has 2^l × 2^l cells, row-major (iy * dim + ix).
  std::vector<std::vector<Cell>> levels_;
  /// Build-time extent: the fixed geometry of the grid.
  double ext_x_lo_ = 0.0, ext_x_hi_ = 1.0;
  double ext_y_lo_ = 0.0, ext_y_hi_ = 1.0;
  /// True running data extrema (appends may exceed the extent; they
  /// clamp into edge cells but still move these).
  double data_min_x_ = 0.0, data_max_x_ = 0.0;
  double data_min_y_ = 0.0, data_max_y_ = 0.0;
};

/// Resolves the grid's two columns from `table` as double columns.
/// kNotFound when a column is absent, kTypeMismatch when not DOUBLE.
Result<std::pair<const DoubleColumn*, const DoubleColumn*>>
ResolveSpatialColumns(const Table& table, const SpatialGridOptions& options);

}  // namespace tabula

#endif  // TABULA_SPATIAL_SPATIAL_GRID_H_
