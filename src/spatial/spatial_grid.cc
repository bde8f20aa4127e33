#include "spatial/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kGridFormatVersion = 1;
constexpr size_t kMaxLevels = 8;  // finest 256×256 = 64Ki cells

constexpr double kInf = std::numeric_limits<double>::infinity();

bool InBox(double x, double y, const SpatialGrid::ResolvedBBox& box) {
  return x >= box.x_lo && x <= box.x_hi && y >= box.y_lo && y <= box.y_hi;
}

}  // namespace

Result<std::pair<const DoubleColumn*, const DoubleColumn*>>
ResolveSpatialColumns(const Table& table, const SpatialGridOptions& options) {
  TABULA_ASSIGN_OR_RETURN(const Column* xc,
                          table.ColumnByName(options.x_column));
  TABULA_ASSIGN_OR_RETURN(const Column* yc,
                          table.ColumnByName(options.y_column));
  const DoubleColumn* xd = xc->As<DoubleColumn>();
  const DoubleColumn* yd = yc->As<DoubleColumn>();
  if (xd == nullptr) {
    return Status::TypeMismatch("spatial grid column '" + options.x_column +
                                "' must be DOUBLE");
  }
  if (yd == nullptr) {
    return Status::TypeMismatch("spatial grid column '" + options.y_column +
                                "' must be DOUBLE");
  }
  return std::make_pair(xd, yd);
}

uint32_t SpatialGrid::AxisIndex(double v, double lo, double inv_width) const {
  uint32_t n = finest_dim();
  // Clamped floor of a monotone affine map: rows past either edge land
  // in the edge cell, and the assignment stays monotone in v — the
  // index-space interior/boundary classification depends on exactly
  // this property (NaN and ±inf also take the clamp branches).
  if (!(v > lo)) return 0;
  double f = (v - lo) * inv_width;
  if (!(f < static_cast<double>(n))) return n - 1;
  uint32_t i = static_cast<uint32_t>(f);
  return i >= n ? n - 1 : i;
}

uint32_t SpatialGrid::FinestCellFor(double x, double y) const {
  uint32_t n = finest_dim();
  double wx = ext_x_hi_ - ext_x_lo_;
  double wy = ext_y_hi_ - ext_y_lo_;
  double inv_x = wx > 0 ? static_cast<double>(n) / wx : 0.0;
  double inv_y = wy > 0 ? static_cast<double>(n) / wy : 0.0;
  return AxisIndex(y, ext_y_lo_, inv_y) * n + AxisIndex(x, ext_x_lo_, inv_x);
}

size_t SpatialGrid::SampleTuples() const {
  size_t total = 0;
  for (const auto& level : levels_) {
    for (const Cell& c : level) total += c.sample.size();
  }
  return total;
}

Status SpatialGrid::BuildCellSample(const Context& ctx, Cell* cell) const {
  if (cell->rows.empty()) return Status::OK();
  if (cell->rows.size() <= options_.exact_sample_cap) {
    cell->sample = cell->rows;
    return Status::OK();
  }
  TABULA_ASSIGN_OR_RETURN(cell->sample,
                          Redraw(ctx, DatasetView(ctx.table, cell->rows)));
  return Status::OK();
}

const SpatialGrid::Cell& SpatialGrid::CellAt(uint32_t level, uint32_t index,
                                             const StagedCells* staged) const {
  if (staged != nullptr) {
    auto it = (*staged)[level].find(index);
    if (it != (*staged)[level].end()) return it->second;
  }
  return levels_[level][index];
}

void SpatialGrid::AppendFinestRows(uint32_t level, uint32_t index,
                                   const StagedCells* staged,
                                   std::vector<RowId>* out) const {
  const uint32_t finest = static_cast<uint32_t>(levels_.size() - 1);
  const uint32_t dim = dim_at(level);
  const uint32_t n = finest_dim();
  const uint32_t scale = n / dim;
  const uint32_t ix = index % dim;
  const uint32_t iy = index / dim;
  for (uint32_t fy = iy * scale; fy < (iy + 1) * scale; ++fy) {
    for (uint32_t fx = ix * scale; fx < (ix + 1) * scale; ++fx) {
      const std::vector<RowId>& rows = CellAt(finest, fy * n + fx, staged).rows;
      out->insert(out->end(), rows.begin(), rows.end());
    }
  }
}

std::vector<RowId> SpatialGrid::FoldChildren(uint32_t level, uint32_t index,
                                             const StagedCells* staged,
                                             Cell* parent) const {
  const uint32_t dim = dim_at(level);
  const uint32_t cdim = dim_at(level + 1);
  const uint32_t ix = index % dim;
  const uint32_t iy = index / dim;
  std::vector<RowId> candidate;
  for (uint32_t dy = 0; dy < 2; ++dy) {
    for (uint32_t dx = 0; dx < 2; ++dx) {
      const Cell& ch =
          CellAt(level + 1, (2 * iy + dy) * cdim + (2 * ix + dx), staged);
      parent->state.Merge(ch.state);
      parent->row_count += ch.row_count;
      candidate.insert(candidate.end(), ch.sample.begin(), ch.sample.end());
    }
  }
  return candidate;
}

Result<bool> SpatialGrid::ComposeParent(const Context& ctx, uint32_t level,
                                        uint32_t index,
                                        const StagedCells* staged,
                                        Cell* parent) const {
  std::vector<RowId> candidate = FoldChildren(level, index, staged, parent);
  // Every child is θ-valid for its rows, so their union is a composed
  // sample; the thin cap keeps zoomed-out cells dashboard-sized.
  TABULA_ASSIGN_OR_RETURN(
      RestoredSample restored,
      RestoreTheta(ctx,
                   {std::move(candidate), &parent->state, parent->row_count,
                    /*pieces_valid=*/true, options_.resample_cap},
                   [&]() -> Result<std::vector<RowId>> {
                     std::vector<RowId> raw;
                     AppendFinestRows(level, index, staged, &raw);
                     std::sort(raw.begin(), raw.end());
                     return raw;
                   }));
  parent->sample = std::move(restored.sample);
  return restored.redrawn;
}

Result<SpatialGrid> SpatialGrid::Build(const Context& ctx,
                                       const SpatialGridOptions& options,
                                       const std::vector<RowId>* rows) {
  if (options.levels == 0) {
    return Status::InvalidArgument("spatial grid needs at least one level");
  }
  if (options.levels > kMaxLevels) {
    return Status::InvalidArgument("spatial grid supports at most 8 levels");
  }
  SpatialGrid g;
  g.options_ = options;
  TABULA_RETURN_NOT_OK(g.SetDataExtrema(ctx, rows));
  const size_t n_rows = rows != nullptr ? rows->size() : ctx.table->num_rows();
  if (n_rows > 0) {
    g.ext_x_lo_ = g.data_min_x_;
    g.ext_x_hi_ = g.data_max_x_;
    g.ext_y_lo_ = g.data_min_y_;
    g.ext_y_hi_ = g.data_max_y_;
  }  // else keep the default [0,1]² so the geometry is well-defined

  g.levels_.resize(options.levels);
  for (size_t l = 0; l < options.levels; ++l) {
    uint32_t dim = dim_at(l);
    g.levels_[l].assign(static_cast<size_t>(dim) * dim, Cell{});
  }
  TABULA_RETURN_NOT_OK(g.IndexRows(ctx, rows));
  for (Cell& cell : g.levels_.back()) {
    cell.row_count = static_cast<uint32_t>(cell.rows.size());
    TABULA_RETURN_NOT_OK(g.BuildCellSample(ctx, &cell));
  }

  // Coarser levels bottom-up, each cell composed from its children.
  for (size_t l = options.levels - 1; l-- > 0;) {
    std::vector<Cell>& level = g.levels_[l];
    for (uint32_t index = 0; index < level.size(); ++index) {
      TABULA_RETURN_NOT_OK(g.ComposeParent(ctx, static_cast<uint32_t>(l),
                                           index, nullptr, &level[index])
                               .status());
    }
  }
  return g;
}

Result<SpatialGrid::ResolvedBBox> SpatialGrid::Resolve(
    const SpatialRange& range) const {
  if (range.bounds.empty()) {
    return Status::InvalidArgument("spatial range has no bounds");
  }
  if (range.bounds.size() > 2) {
    return Status::InvalidArgument(
        "spatial range supports at most one bound per grid axis");
  }
  ResolvedBBox box{-kInf, kInf, -kInf, kInf};
  bool has_x = false;
  bool has_y = false;
  for (size_t i = 0; i < range.bounds.size(); ++i) {
    const SpatialBound& b = range.bounds[i];
    if (std::isnan(b.lo) || std::isnan(b.hi)) {
      return Status::InvalidArgument("spatial bound endpoint is NaN");
    }
    if (b.lo > b.hi) {
      return Status::InvalidArgument(
          "reversed spatial bound (lo > hi) on '" +
          (b.column.empty() ? std::string("<positional>") : b.column) + "'");
    }
    int axis;
    if (b.column.empty()) {
      axis = i == 0 ? 0 : 1;  // BBOX positional order: x first, then y
    } else if (b.column == options_.x_column) {
      axis = 0;
    } else if (b.column == options_.y_column) {
      axis = 1;
    } else {
      return Status::InvalidArgument(
          "'" + b.column + "' is not a spatial grid column (grid spans '" +
          options_.x_column + "', '" + options_.y_column + "')");
    }
    bool& seen = axis == 0 ? has_x : has_y;
    if (seen) {
      return Status::InvalidArgument(
          "duplicate spatial bound on '" +
          (axis == 0 ? options_.x_column : options_.y_column) + "'");
    }
    seen = true;
    if (axis == 0) {
      box.x_lo = b.lo;
      box.x_hi = b.hi;
    } else {
      box.y_lo = b.lo;
      box.y_hi = b.hi;
    }
  }
  return box;
}

SpatialGrid::Decomposition SpatialGrid::Decompose(
    const ResolvedBBox& box) const {
  Decomposition d;
  if (!present()) return d;
  uint32_t n = finest_dim();
  double wx = ext_x_hi_ - ext_x_lo_;
  double wy = ext_y_hi_ - ext_y_lo_;
  double inv_x = wx > 0 ? static_cast<double>(n) / wx : 0.0;
  double inv_y = wy > 0 ? static_cast<double>(n) / wy : 0.0;

  // Index-space endpoints at the finest level. A side that cannot
  // exclude any data point (checked against the TRUE data extrema, which
  // appends keep current — the extent alone would be stale) gets a
  // sentinel outside [0, n), making every cell strictly inside it.
  int64_t x_lo_ix = box.x_lo <= data_min_x_
                        ? int64_t{-1}
                        : AxisIndex(box.x_lo, ext_x_lo_, inv_x);
  int64_t x_hi_ix = box.x_hi >= data_max_x_
                        ? static_cast<int64_t>(n)
                        : AxisIndex(box.x_hi, ext_x_lo_, inv_x);
  int64_t y_lo_ix = box.y_lo <= data_min_y_
                        ? int64_t{-1}
                        : AxisIndex(box.y_lo, ext_y_lo_, inv_y);
  int64_t y_hi_ix = box.y_hi >= data_max_y_
                        ? static_cast<int64_t>(n)
                        : AxisIndex(box.y_hi, ext_y_lo_, inv_y);

  // Depth-first descent in a fixed child order → deterministic lists.
  struct Frame {
    uint32_t level, ix, iy;
  };
  std::vector<Frame> stack{{0, 0, 0}};
  size_t L = levels_.size();
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    uint32_t scale = n >> f.level;  // finest cells per side of this cell
    int64_t ax = static_cast<int64_t>(f.ix) * scale;
    int64_t bx = ax + scale - 1;
    int64_t ay = static_cast<int64_t>(f.iy) * scale;
    int64_t by = ay + scale - 1;
    bool disjoint = bx < x_lo_ix || ax > x_hi_ix || by < y_lo_ix ||
                    ay > y_hi_ix;
    if (disjoint) continue;
    // Strictly between the endpoint columns/rows in BOTH dims: every row
    // in this cell matches the (inclusive) box, by monotonicity of the
    // index assignment — no floating-point re-derivation needed.
    bool interior = ax > x_lo_ix && bx < x_hi_ix && ay > y_lo_ix &&
                    by < y_hi_ix;
    uint32_t dim = dim_at(f.level);
    if (interior) {
      d.interior.emplace_back(f.level, f.iy * dim + f.ix);
      continue;
    }
    if (f.level + 1 == L) {
      d.boundary.push_back(f.iy * n + f.ix);
      continue;
    }
    // Push in reverse so pops visit (dy, dx) in ascending order.
    for (int dy = 1; dy >= 0; --dy) {
      for (int dx = 1; dx >= 0; --dx) {
        stack.push_back({f.level + 1, 2 * f.ix + static_cast<uint32_t>(dx),
                         2 * f.iy + static_cast<uint32_t>(dy)});
      }
    }
  }
  return d;
}

Result<SpatialGrid::RangeAnswer> SpatialGrid::RangeQuery(
    const Context& ctx, const ResolvedBBox& box) const {
  TABULA_FAULT_POINT("spatial.plan");
  Decomposition d = Decompose(box);

  RangeAnswer out;
  out.interior_cells = d.interior.size();
  out.boundary_cells = d.boundary.size();

  std::vector<RowId> candidate;
  for (const auto& [level, index] : d.interior) {
    const Cell& c = levels_[level][index];
    if (c.row_count == 0) continue;
    candidate.insert(candidate.end(), c.sample.begin(), c.sample.end());
    out.state.Merge(c.state);
    out.raw_count += c.row_count;
  }

  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> boundary_rows,
                          ScanBoundary(ctx, d, box, &out.scanned_rows));
  if (!boundary_rows.empty()) {
    TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                            ctx.loss->Bind(*ctx.table, ctx.ref));
    for (RowId r : boundary_rows) bound->Accumulate(&out.state, r);
    out.raw_count += boundary_rows.size();
    candidate.insert(candidate.end(), boundary_rows.begin(),
                     boundary_rows.end());
  }

  // Every slice is within θ: interior cells by construction, boundary
  // rows exactly. The gather reuses the boundary rows filtered above.
  TABULA_ASSIGN_OR_RETURN(
      RestoredSample restored,
      RestoreTheta(ctx, {std::move(candidate), &out.state, out.raw_count},
                   [&]() -> Result<std::vector<RowId>> {
                     return RangeRows(d, boundary_rows);
                   }));
  out.sample = std::move(restored.sample);
  out.exact = restored.exact;
  out.resampled = restored.redrawn;
  return out;
}

Result<std::vector<RowId>> SpatialGrid::GatherRangeRows(
    const Context& ctx, const ResolvedBBox& box) const {
  Decomposition d = Decompose(box);
  size_t scanned = 0;
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> boundary_rows,
                          ScanBoundary(ctx, d, box, &scanned));
  return RangeRows(d, boundary_rows);
}

Result<std::vector<RowId>> SpatialGrid::ScanBoundary(const Context& ctx,
                                                     const Decomposition& d,
                                                     const ResolvedBBox& box,
                                                     size_t* scanned) const {
  TABULA_ASSIGN_OR_RETURN(auto cols,
                          ResolveSpatialColumns(*ctx.table, options_));
  const DoubleColumn* xc = cols.first;
  const DoubleColumn* yc = cols.second;
  std::vector<RowId> rows;
  for (uint32_t cell : d.boundary) {
    TABULA_FAULT_POINT("spatial.scan");
    for (RowId r : levels_.back()[cell].rows) {
      if (InBox(xc->At(r), yc->At(r), box)) rows.push_back(r);
    }
    *scanned += levels_.back()[cell].rows.size();
  }
  return rows;
}

std::vector<RowId> SpatialGrid::RangeRows(
    const Decomposition& d, const std::vector<RowId>& boundary_rows) const {
  std::vector<RowId> rows;
  for (const auto& [level, index] : d.interior) {
    AppendFinestRows(level, index, nullptr, &rows);
  }
  rows.insert(rows.end(), boundary_rows.begin(), boundary_rows.end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

Result<SpatialGrid::AppendDelta> SpatialGrid::PlanAppend(const Context& ctx,
                                                         RowId from_row,
                                                         RowId to_row) const {
  AppendDelta delta;
  delta.from_row = from_row;
  delta.to_row = to_row;
  delta.data_min_x = data_min_x_;
  delta.data_max_x = data_max_x_;
  delta.data_min_y = data_min_y_;
  delta.data_max_y = data_max_y_;
  if (from_row >= to_row) return delta;
  TABULA_ASSIGN_OR_RETURN(auto cols,
                          ResolveSpatialColumns(*ctx.table, options_));
  const DoubleColumn* xc = cols.first;
  const DoubleColumn* yc = cols.second;

  // Ascending cell order end to end → deterministic sampling decisions.
  std::map<uint32_t, std::vector<RowId>> touched;
  for (RowId r = from_row; r < to_row; ++r) {
    double x = xc->At(r);
    double y = yc->At(r);
    delta.data_min_x = std::min(delta.data_min_x, x);
    delta.data_max_x = std::max(delta.data_max_x, x);
    delta.data_min_y = std::min(delta.data_min_y, y);
    delta.data_max_y = std::max(delta.data_max_y, y);
    touched[FinestCellFor(x, y)].push_back(r);
  }

  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          ctx.loss->Bind(*ctx.table, ctx.ref));
  size_t L = levels_.size();
  StagedCells staged(L);
  for (const auto& [cell_id, new_rows] : touched) {
    Cell c = levels_.back()[cell_id];
    const bool was_exact = !c.rows.empty() && c.sample.size() == c.rows.size();
    for (RowId r : new_rows) bound->Accumulate(&c.state, r);
    c.rows.insert(c.rows.end(), new_rows.begin(), new_rows.end());
    c.row_count = static_cast<uint32_t>(c.rows.size());
    if (c.sample.empty() || c.rows.size() <= options_.exact_sample_cap) {
      TABULA_RETURN_NOT_OK(BuildCellSample(ctx, &c));
    } else {
      // The old sample covers only the pre-append slice and the appended
      // rows contributed no piece, so union closure cannot vouch for it.
      // A cell that was exact offers every row it now holds.
      std::vector<RowId> candidate = std::move(c.sample);
      if (was_exact) candidate = c.rows;
      TABULA_ASSIGN_OR_RETURN(
          RestoredSample restored,
          RestoreTheta(ctx,
                       {std::move(candidate), &c.state, c.rows.size(),
                        /*pieces_valid=*/false},
                       [&]() -> Result<std::vector<RowId>> { return c.rows; }));
      c.sample = std::move(restored.sample);
      if (restored.redrawn) ++delta.resampled_cells;
    }
    staged.back().emplace(cell_id, std::move(c));
  }

  // Re-compose the touched ancestors bottom-up from (staged or live)
  // children.
  for (size_t l = L - 1; l-- > 0;) {
    uint32_t dim = dim_at(l);
    uint32_t cdim = dim_at(l + 1);
    for (const auto& [child_id, unused] : staged[l + 1]) {
      (void)unused;
      uint32_t cix = child_id % cdim;
      uint32_t ciy = child_id / cdim;
      uint32_t parent = (ciy / 2) * dim + (cix / 2);
      if (staged[l].count(parent) > 0) continue;
      Cell cell;
      TABULA_ASSIGN_OR_RETURN(bool redrawn,
                              ComposeParent(ctx, static_cast<uint32_t>(l),
                                            parent, &staged, &cell));
      if (redrawn) ++delta.resampled_cells;
      staged[l].emplace(parent, std::move(cell));
    }
  }

  for (size_t l = L; l-- > 0;) {
    for (auto& [index, cell] : staged[l]) {
      delta.updated.emplace_back(static_cast<uint32_t>(l), index,
                                 std::move(cell));
    }
  }
  return delta;
}

void SpatialGrid::CommitAppend(AppendDelta delta) {
  for (auto& [level, index, cell] : delta.updated) {
    levels_[level][index] = std::move(cell);
  }
  data_min_x_ = delta.data_min_x;
  data_max_x_ = delta.data_max_x;
  data_min_y_ = delta.data_min_y;
  data_max_y_ = delta.data_max_y;
}

void SpatialGrid::EncodeTo(BufferWriter* out) const {
  out->WriteU32(kGridFormatVersion);
  out->WriteString(options_.x_column);
  out->WriteString(options_.y_column);
  out->WriteU32(static_cast<uint32_t>(options_.levels));
  out->WriteU64(options_.exact_sample_cap);
  out->WriteU64(options_.resample_cap);
  out->WriteDouble(ext_x_lo_);
  out->WriteDouble(ext_x_hi_);
  out->WriteDouble(ext_y_lo_);
  out->WriteDouble(ext_y_hi_);
  out->WriteDouble(data_min_x_);
  out->WriteDouble(data_max_x_);
  out->WriteDouble(data_min_y_);
  out->WriteDouble(data_max_y_);
  for (const auto& level : levels_) {
    for (const Cell& c : level) {
      out->WriteU32(c.row_count);
      out->WriteVector(c.sample);
    }
  }
}

Result<SpatialGrid> SpatialGrid::DecodeFrom(BufferReader* in) {
  TABULA_ASSIGN_OR_RETURN(uint32_t version, in->ReadU32());
  if (version != kGridFormatVersion) {
    return Status::DataLoss("unknown spatial grid format version");
  }
  SpatialGrid g;
  TABULA_ASSIGN_OR_RETURN(g.options_.x_column, in->ReadString());
  TABULA_ASSIGN_OR_RETURN(g.options_.y_column, in->ReadString());
  TABULA_ASSIGN_OR_RETURN(uint32_t levels, in->ReadU32());
  if (levels == 0 || levels > kMaxLevels) {
    return Status::DataLoss("corrupt spatial grid level count");
  }
  g.options_.levels = levels;
  TABULA_ASSIGN_OR_RETURN(uint64_t exact_cap, in->ReadU64());
  TABULA_ASSIGN_OR_RETURN(uint64_t resample_cap, in->ReadU64());
  g.options_.exact_sample_cap = static_cast<size_t>(exact_cap);
  g.options_.resample_cap = static_cast<size_t>(resample_cap);
  TABULA_ASSIGN_OR_RETURN(g.ext_x_lo_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.ext_x_hi_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.ext_y_lo_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.ext_y_hi_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.data_min_x_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.data_max_x_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.data_min_y_, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(g.data_max_y_, in->ReadDouble());
  g.levels_.resize(levels);
  for (size_t l = 0; l < levels; ++l) {
    uint32_t dim = dim_at(l);
    g.levels_[l].assign(static_cast<size_t>(dim) * dim, Cell{});
    for (Cell& c : g.levels_[l]) {
      TABULA_ASSIGN_OR_RETURN(c.row_count, in->ReadU32());
      TABULA_ASSIGN_OR_RETURN(c.sample, in->ReadVector<RowId>());
    }
  }
  return g;
}

Status SpatialGrid::SetDataExtrema(const Context& ctx,
                                   const std::vector<RowId>* rows) {
  TABULA_ASSIGN_OR_RETURN(auto cols,
                          ResolveSpatialColumns(*ctx.table, options_));
  data_min_x_ = kInf;
  data_max_x_ = -kInf;
  data_min_y_ = kInf;
  data_max_y_ = -kInf;
  const size_t n_rows = rows != nullptr ? rows->size() : ctx.table->num_rows();
  for (size_t i = 0; i < n_rows; ++i) {
    const RowId r = rows != nullptr ? (*rows)[i] : static_cast<RowId>(i);
    data_min_x_ = std::min(data_min_x_, cols.first->At(r));
    data_max_x_ = std::max(data_max_x_, cols.first->At(r));
    data_min_y_ = std::min(data_min_y_, cols.second->At(r));
    data_max_y_ = std::max(data_max_y_, cols.second->At(r));
  }
  return Status::OK();
}

Status SpatialGrid::IndexRows(const Context& ctx,
                              const std::vector<RowId>* rows) {
  TABULA_ASSIGN_OR_RETURN(auto cols,
                          ResolveSpatialColumns(*ctx.table, options_));
  for (auto& level : levels_) {
    for (Cell& c : level) {
      c.rows.clear();
      c.state = LossState{};
    }
  }
  // Assignment in ascending row order keeps every cell's row list
  // ascending (callers pass ascending `rows`).
  std::vector<Cell>& finest = levels_.back();
  const size_t n_rows = rows != nullptr ? rows->size() : ctx.table->num_rows();
  for (size_t i = 0; i < n_rows; ++i) {
    const RowId r = rows != nullptr ? (*rows)[i] : static_cast<RowId>(i);
    const uint32_t cell = FinestCellFor(cols.first->At(r), cols.second->At(r));
    finest[cell].rows.push_back(r);
  }
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          ctx.loss->Bind(*ctx.table, ctx.ref));
  for (Cell& c : finest) {
    for (RowId r : c.rows) bound->Accumulate(&c.state, r);
  }
  return Status::OK();
}

Status SpatialGrid::RebuildTransient(const Context& ctx,
                                     const std::vector<RowId>* rows) {
  if (!present()) return Status::OK();
  TABULA_RETURN_NOT_OK(SetDataExtrema(ctx, rows));
  TABULA_RETURN_NOT_OK(IndexRows(ctx, rows));
  for (const Cell& c : levels_.back()) {
    if (c.rows.size() != c.row_count) {
      return Status::DataLoss(
          "spatial grid row counts do not match the table (grid/table "
          "mismatch after load)");
    }
  }
  for (size_t l = levels_.size() - 1; l-- > 0;) {
    for (uint32_t index = 0; index < levels_[l].size(); ++index) {
      Cell folded;
      FoldChildren(static_cast<uint32_t>(l), index, nullptr, &folded);
      Cell& cell = levels_[l][index];
      if (folded.row_count != cell.row_count) {
        return Status::DataLoss("spatial grid level roll-up mismatch");
      }
      cell.state = std::move(folded.state);
    }
  }
  return Status::OK();
}

}  // namespace tabula
