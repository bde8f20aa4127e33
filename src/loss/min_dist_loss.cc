#include "loss/min_dist_loss.h"

#include <algorithm>

#include "exec/vector_ops.h"

namespace tabula {

namespace {

class MinDistBoundLoss final : public BoundLoss {
 public:
  MinDistBoundLoss(const DoubleColumn* x_col, const DoubleColumn* y_col,
                   std::unique_ptr<PointGrid> ref_index)
      : x_col_(x_col), y_col_(y_col), ref_index_(std::move(ref_index)) {}

  void Accumulate(LossState* state, RowId row) const override {
    Point p{x_col_->At(row), y_col_ != nullptr ? y_col_->At(row) : 0.0};
    state->num.Add(p.x);  // count tracking rides along num.count
    if (ref_index_ != nullptr) {
      state->ref_dist_sum += ref_index_->NearestDistance(p);
    } else {
      state->ref_dist_sum = kInfiniteLoss;  // empty reference sample
    }
  }

  double Finalize(const LossState& state) const override {
    if (state.num.count == 0) return 0.0;  // empty cell: nothing to lose
    return state.ref_dist_sum / state.num.count;
  }

  /// Every row adds a non-negative distance, so a prefix's sum never
  /// exceeds the full sum, nor does it divided by the full row count.
  double FinalLossLowerBound(const LossState& prefix,
                             uint64_t total_rows) const override {
    if (total_rows == 0) return 0.0;
    return prefix.ref_dist_sum / static_cast<double>(total_rows);
  }

 private:
  const DoubleColumn* x_col_;
  const DoubleColumn* y_col_;
  std::unique_ptr<PointGrid> ref_index_;
};

/// Cells per run. The evaluator keeps each run's largest cell bound, so
/// a walk can pass over a whole run of well-covered cells in one test.
constexpr int kRunCells = 8;

/// Incremental facility-location evaluator with a spatial-grid pruning
/// index: a candidate c can only improve raw tuples whose current
/// min-distance exceeds dist(tuple, c), and every current min-distance is
/// bounded by radius_bound_, so evaluations only visit grid cells within
/// that (monotonically shrinking) radius of the candidate. Early rounds
/// touch everything; once the sample covers the cell, each round touches
/// a tiny neighborhood — the difference between O(k·N) and ~O(N) total.
///
/// Points are stored cell by cell in row-major cell order (ascending raw
/// index inside a cell) as x, y and current-min-distance arrays, so a
/// cell is a [begin, end) range the gain kernel (vec::MinDistGain) scans
/// contiguously. A gain is the sum of the same terms, in the same order,
/// as a walk testing every cell of the window: the run skip and the flat
/// first pass leave out only cells that walk's per-cell test skips.
class MinDistGreedyEvaluator final : public GreedyLossEvaluator {
 public:
  MinDistGreedyEvaluator(std::vector<Point> raw_points, DistanceMetric metric)
      : points_(std::move(raw_points)), metric_(metric) {
    // Initialize every tuple's min-distance to a value dominating all real
    // distances (bounding-box "diagonal") so the facility-location gain is
    // finite and submodular from the empty sample onward.
    min_x_ = min_y_ = kInfiniteLoss;
    double max_x = -kInfiniteLoss, max_y = -kInfiniteLoss;
    for (const auto& p : points_) {
      min_x_ = std::min(min_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    const size_t n = points_.size();
    double diag = points_.empty()
                      ? 1.0
                      : (max_x - min_x_) + (max_y - min_y_) + 1.0;
    cur_sum_ = diag * static_cast<double>(n);
    radius_bound_ = diag;

    // Uniform grid over the bounding box (~1 point/cell, clamped).
    int target = static_cast<int>(std::sqrt(static_cast<double>(n)));
    nx_ = ny_ = std::clamp(target, 1, 512);
    double w = max_x - min_x_;
    double h = max_y - min_y_;
    cell_w_ = w > 0 ? w / nx_ : 1.0;
    cell_h_ = h > 0 ? h / ny_ : 1.0;
    runs_per_row_ = (nx_ + kRunCells - 1) / kRunCells;

    // Counting sort into cells; stable, so a cell's points stay in
    // ascending raw index. `end` serves as the fill cursor.
    cells_.resize(static_cast<size_t>(nx_) * ny_);
    std::vector<uint32_t> cell_of(n);
    for (size_t i = 0; i < n; ++i) {
      cell_of[i] = static_cast<uint32_t>(CellOf(points_[i]));
      ++cells_[cell_of[i]].end;
    }
    uint32_t begin = 0;
    for (auto& cell : cells_) {
      uint32_t count = cell.end;
      cell.begin = cell.end = begin;
      begin += count;
    }
    xs_.resize(n);
    ys_.resize(n);
    cur_min_.assign(n, diag);
    for (size_t i = 0; i < n; ++i) {
      uint32_t slot = cells_[cell_of[i]].end++;
      xs_[slot] = points_[i].x;
      ys_[slot] = points_[i].y;
    }
    run_bound_.assign(static_cast<size_t>(ny_) * runs_per_row_, 0.0);
    for (int cy = 0; cy < ny_; ++cy) {
      for (int cx = 0; cx < nx_; ++cx) {
        GridCell& cell = cells_[static_cast<size_t>(cy) * nx_ + cx];
        cell.bound = cell.begin == cell.end ? 0.0 : diag;
        double& run = run_bound_[RunOf(cx, cy)];
        run = std::max(run, cell.bound);
      }
    }

    // Before the first Add every non-empty cell's bound is diag, which
    // exceeds any distance inside the box, so the walk visits every
    // non-empty cell. The window edges and a cell's distance to the
    // candidate are monotone in the candidate's coordinates, so the box's
    // extreme coordinates confirm it for every candidate at once; only
    // coordinates so far from zero that rounding swallows diag fail it.
    auto axis_covered = [&](double lo, double hi, double width, int cells) {
      return WindowLo(hi, diag, lo, width, cells) == 0 &&
             WindowHi(lo, diag, lo, width, cells) == cells - 1 &&
             std::max(SpanGap(lo, lo, width, cells - 1, cells - 1),
                      SpanGap(hi, lo, width, 0, 0)) < diag;
    };
    first_walk_visits_all_ = !points_.empty() &&
                             axis_covered(min_x_, max_x, cell_w_, nx_) &&
                             axis_covered(min_y_, max_y, cell_h_, ny_);
  }

  double CurrentLoss() const override {
    if (chosen_count_ == 0) return kInfiniteLoss;
    return cur_sum_ / static_cast<double>(points_.size());
  }

  double InternalLoss() const override {
    if (points_.empty()) return 0.0;
    return cur_sum_ / static_cast<double>(points_.size());
  }

  double LossWithCandidate(size_t candidate) const override {
    const Point& c = points_[candidate];
    const bool manhattan = metric_ == DistanceMetric::kManhattan;
    auto gain_over = [&](uint32_t begin, uint32_t end, double gain) {
      return vec::MinDistGain(xs_.data() + begin, ys_.data() + begin,
                              cur_min_.data() + begin, end - begin, c.x, c.y,
                              manhattan, gain);
    };
    double gain = 0.0;
    if (chosen_count_ == 0 && first_walk_visits_all_) {
      gain = gain_over(0, static_cast<uint32_t>(xs_.size()), gain);
    } else {
      // Visited cells that follow each other in storage are scanned as
      // one range: the terms and their order stay the same.
      uint32_t begin = 0, end = 0;
      VisitNeighborhood(c, [&](size_t cell_index, size_t) {
        const GridCell& cell = cells_[cell_index];
        if (cell.begin != end) {
          gain = gain_over(begin, end, gain);
          begin = cell.begin;
        }
        end = cell.end;
      });
      gain = gain_over(begin, end, gain);
    }
    return (cur_sum_ - gain) / static_cast<double>(points_.size());
  }

  void Add(size_t candidate) override {
    const Point& c = points_[candidate];
    double gain = 0.0;
    VisitNeighborhood(c, [&](size_t cell_index, size_t run) {
      GridCell& cell = cells_[cell_index];
      double new_bound = 0.0;
      for (uint32_t i = cell.begin; i < cell.end; ++i) {
        double d = Distance(metric_, Point{xs_[i], ys_[i]}, c);
        if (d < cur_min_[i]) {
          gain += cur_min_[i] - d;
          cur_min_[i] = d;
        }
        new_bound = std::max(new_bound, cur_min_[i]);
      }
      cell.bound = new_bound;
      RefreshRunBound(run);
    });
    cur_sum_ -= gain;
    ++chosen_count_;
    if (++adds_since_refresh_ >= 16) RefreshRadiusBound();
  }

  size_t raw_size() const override { return points_.size(); }

 private:
  struct GridCell {
    /// The cell's points: [begin, end) of xs_ / ys_ / cur_min_.
    uint32_t begin = 0;
    uint32_t end = 0;
    /// Max cur_min_ among this cell's points (an upper bound maintained
    /// exactly on every Add that touches the cell).
    double bound = 0.0;
  };

  /// First and last cell, on one axis, that may hold a point within r of
  /// coordinate v.
  static int WindowLo(double v, double r, double lo, double width,
                      int cells) {
    return ClampedCellIndex((v - r - lo) / width, cells);
  }
  static int WindowHi(double v, double r, double lo, double width,
                      int cells) {
    return ClampedCellIndex((v + r - lo) / width, cells);
  }

  /// Distance, on one axis, from v to the span of cells [first, last].
  /// A span's gap never exceeds the gap of a cell inside it.
  static double SpanGap(double v, double lo, double width, int first,
                        int last) {
    double span_lo = lo + first * width;
    double span_hi = lo + last * width + width;
    return std::max({span_lo - v, v - span_hi, 0.0});
  }

  size_t CellOf(const Point& p) const {
    int cx = ClampedCellIndex((p.x - min_x_) / cell_w_, nx_);
    int cy = ClampedCellIndex((p.y - min_y_) / cell_h_, ny_);
    return static_cast<size_t>(cy) * nx_ + cx;
  }

  size_t RunOf(int cx, int cy) const {
    return static_cast<size_t>(cy) * runs_per_row_ + cx / kRunCells;
  }

  /// Invokes fn(cell index, run index) for every non-empty grid cell, in
  /// row-major order, that could contain a point gaining from a facility
  /// at c. Three prunes stack: the global radius_bound_ (no cur_min_
  /// exceeds it) trims the window, a run of cells is passed over when its
  /// largest bound is within its distance to c, and each cell's own bound
  /// vs. its distance to c decides the rest. Every bound dominates
  /// Chebyshev distance, which lower-bounds every supported metric.
  template <typename Fn>
  void VisitNeighborhood(const Point& c, const Fn& fn) const {
    int x0 = WindowLo(c.x, radius_bound_, min_x_, cell_w_, nx_);
    int x1 = WindowHi(c.x, radius_bound_, min_x_, cell_w_, nx_);
    int y0 = WindowLo(c.y, radius_bound_, min_y_, cell_h_, ny_);
    int y1 = WindowHi(c.y, radius_bound_, min_y_, cell_h_, ny_);
    for (int cy = y0; cy <= y1; ++cy) {
      double dy = SpanGap(c.y, min_y_, cell_h_, cy, cy);
      const size_t row = static_cast<size_t>(cy) * nx_;
      for (int run_lo = x0 - x0 % kRunCells; run_lo <= x1;
           run_lo += kRunCells) {
        const int run_hi = std::min(run_lo + kRunCells, nx_) - 1;
        const size_t run = RunOf(run_lo, cy);
        if (std::max(SpanGap(c.x, min_x_, cell_w_, run_lo, run_hi), dy) >=
            run_bound_[run]) {
          continue;
        }
        for (int cx = std::max(x0, run_lo); cx <= std::min(x1, run_hi);
             ++cx) {
          const GridCell& cell = cells_[row + cx];
          if (cell.begin == cell.end) continue;
          double dx = SpanGap(c.x, min_x_, cell_w_, cx, cx);
          // No point in the cell can improve if even the closest corner
          // is beyond every point's current min-distance.
          if (std::max(dx, dy) >= cell.bound) continue;
          fn(row + cx, run);
        }
      }
    }
  }

  /// Recomputes a run's bound after Add lowered the bound of one of its
  /// cells.
  void RefreshRunBound(size_t run) {
    const size_t cy = run / runs_per_row_;
    const size_t first = cy * nx_ + (run % runs_per_row_) * kRunCells;
    const size_t last = std::min(first + kRunCells, (cy + 1) * nx_);
    double bound = 0.0;
    for (size_t i = first; i < last; ++i) {
      bound = std::max(bound, cells_[i].bound);
    }
    run_bound_[run] = bound;
  }

  void RefreshRadiusBound() {
    adds_since_refresh_ = 0;
    double r = 0.0;
    for (double bound : run_bound_) r = std::max(r, bound);
    radius_bound_ = r;
  }

  std::vector<Point> points_;  // raw order: candidate coordinates
  DistanceMetric metric_;
  // Cell-ordered point storage.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> cur_min_;
  double cur_sum_ = 0.0;
  size_t chosen_count_ = 0;
  double radius_bound_ = 0.0;
  size_t adds_since_refresh_ = 0;
  bool first_walk_visits_all_ = false;

  double min_x_ = 0.0, min_y_ = 0.0, cell_w_ = 1.0, cell_h_ = 1.0;
  int nx_ = 1, ny_ = 1;
  int runs_per_row_ = 1;
  std::vector<GridCell> cells_;
  /// Max bound over each run of kRunCells cells in a grid row.
  std::vector<double> run_bound_;
};

}  // namespace

MinDistLoss::MinDistLoss(std::string name,
                         std::vector<std::string> coord_columns,
                         DistanceMetric metric)
    : name_(std::move(name)),
      columns_(std::move(coord_columns)),
      metric_(metric) {
  TABULA_CHECK(columns_.size() == 1 || columns_.size() == 2);
}

Result<std::vector<Point>> MinDistLoss::ExtractPoints(
    const DatasetView& view) const {
  if (view.table() == nullptr) {
    return Status::InvalidArgument("view has no table");
  }
  const Table& table = *view.table();
  TABULA_ASSIGN_OR_RETURN(const Column* xc, table.ColumnByName(columns_[0]));
  const auto* x_col = xc->As<DoubleColumn>();
  if (x_col == nullptr) {
    return Status::TypeMismatch(name_ + " coordinate '" + columns_[0] +
                                "' must be DOUBLE");
  }
  const DoubleColumn* y_col = nullptr;
  if (columns_.size() == 2) {
    TABULA_ASSIGN_OR_RETURN(const Column* yc, table.ColumnByName(columns_[1]));
    y_col = yc->As<DoubleColumn>();
    if (y_col == nullptr) {
      return Status::TypeMismatch(name_ + " coordinate '" + columns_[1] +
                                  "' must be DOUBLE");
    }
  }
  std::vector<Point> points(view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    RowId r = view.row(i);
    points[i] = {x_col->At(r), y_col != nullptr ? y_col->At(r) : 0.0};
  }
  return points;
}

Result<std::unique_ptr<BoundLoss>> MinDistLoss::Bind(
    const Table& table, const DatasetView& ref) const {
  TABULA_ASSIGN_OR_RETURN(const Column* xc, table.ColumnByName(columns_[0]));
  const auto* x_col = xc->As<DoubleColumn>();
  if (x_col == nullptr) {
    return Status::TypeMismatch(name_ + " coordinate '" + columns_[0] +
                                "' must be DOUBLE");
  }
  const DoubleColumn* y_col = nullptr;
  if (columns_.size() == 2) {
    TABULA_ASSIGN_OR_RETURN(const Column* yc, table.ColumnByName(columns_[1]));
    y_col = yc->As<DoubleColumn>();
    if (y_col == nullptr) {
      return Status::TypeMismatch(name_ + " coordinate '" + columns_[1] +
                                  "' must be DOUBLE");
    }
  }
  std::unique_ptr<PointGrid> index;
  if (!ref.empty()) {
    TABULA_ASSIGN_OR_RETURN(std::vector<Point> ref_points,
                            ExtractPoints(ref));
    index = std::make_unique<PointGrid>(std::move(ref_points), metric_);
  }
  return std::unique_ptr<BoundLoss>(
      std::make_unique<MinDistBoundLoss>(x_col, y_col, std::move(index)));
}

Result<double> MinDistLoss::Loss(const DatasetView& raw,
                                 const DatasetView& sample) const {
  if (raw.empty()) return 0.0;
  if (sample.empty()) return kInfiniteLoss;
  TABULA_ASSIGN_OR_RETURN(std::vector<Point> sam_points,
                          ExtractPoints(sample));
  PointGrid index(std::move(sam_points), metric_);
  TABULA_ASSIGN_OR_RETURN(std::vector<Point> raw_points, ExtractPoints(raw));
  double sum = 0.0;
  for (const auto& p : raw_points) sum += index.NearestDistance(p);
  return sum / static_cast<double>(raw_points.size());
}

std::vector<double> MinDistLoss::Signature(const DatasetView& view) const {
  auto points = ExtractPoints(view);
  if (!points.ok() || points.value().empty()) return {0.0, 0.0};
  double sx = 0.0, sy = 0.0;
  for (const auto& p : points.value()) {
    sx += p.x;
    sy += p.y;
  }
  double n = static_cast<double>(points.value().size());
  return {sx / n, sy / n};
}

Result<std::unique_ptr<GreedyLossEvaluator>> MinDistLoss::MakeGreedyEvaluator(
    const DatasetView& raw) const {
  TABULA_ASSIGN_OR_RETURN(std::vector<Point> points, ExtractPoints(raw));
  return std::unique_ptr<GreedyLossEvaluator>(
      std::make_unique<MinDistGreedyEvaluator>(std::move(points), metric_));
}

std::unique_ptr<LossFunction> MakeHeatmapLoss(const std::string& x_column,
                                              const std::string& y_column,
                                              DistanceMetric metric) {
  return std::make_unique<MinDistLoss>(
      "heatmap_loss", std::vector<std::string>{x_column, y_column}, metric);
}

std::unique_ptr<LossFunction> MakeHistogramLoss(const std::string& column) {
  return std::make_unique<MinDistLoss>("histogram_loss",
                                       std::vector<std::string>{column},
                                       DistanceMetric::kEuclidean);
}

}  // namespace tabula
