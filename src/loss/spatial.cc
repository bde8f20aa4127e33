#include "loss/spatial.h"

#include <algorithm>

#include "common/logging.h"

namespace tabula {

PointGrid::PointGrid(std::vector<Point> points, DistanceMetric metric)
    : points_(std::move(points)), metric_(metric) {
  TABULA_CHECK(!points_.empty());
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  min_x_ = std::numeric_limits<double>::infinity();
  min_y_ = std::numeric_limits<double>::infinity();
  for (const auto& p : points_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  // Aim for ~1 point per cell on average, clamped to a sane range.
  int target = static_cast<int>(std::sqrt(static_cast<double>(points_.size())));
  nx_ = ny_ = std::clamp(target, 1, 256);
  double w = max_x - min_x_;
  double h = max_y - min_y_;
  cell_w_ = w > 0 ? w / nx_ : 1.0;
  cell_h_ = h > 0 ? h / ny_ : 1.0;

  // Counting sort of points into cells.
  std::vector<uint32_t> counts(static_cast<size_t>(nx_) * ny_ + 1, 0);
  std::vector<int> cell_of(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    int cx = CellX(points_[i].x);
    int cy = CellY(points_[i].y);
    cell_of[i] = cy * nx_ + cx;
    ++counts[cell_of[i] + 1];
  }
  for (size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  order_.resize(points_.size());
  std::vector<uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (size_t i = 0; i < points_.size(); ++i) {
    order_[cursor[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
  cells_.resize(static_cast<size_t>(nx_) * ny_);
  for (int c = 0; c < nx_ * ny_; ++c) {
    cells_[c] = {counts[c], counts[c + 1]};
  }
}

int PointGrid::CellX(double x) const {
  return ClampedCellIndex((x - min_x_) / cell_w_, nx_);
}

int PointGrid::CellY(double y) const {
  return ClampedCellIndex((y - min_y_) / cell_h_, ny_);
}

double PointGrid::NearestDistance(const Point& q) const {
  int qx = CellX(q.x);
  int qy = CellY(q.y);
  double best = std::numeric_limits<double>::infinity();
  int max_ring = std::max(nx_, ny_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    // Once a candidate is found, we must still search rings whose nearest
    // boundary could beat `best`; min cell size bounds the gain per ring.
    if (best < std::numeric_limits<double>::infinity()) {
      double ring_min_dist =
          (ring - 1) * std::min(cell_w_, cell_h_);
      if (ring_min_dist > best) break;
    }
    int x0 = qx - ring, x1 = qx + ring;
    int y0 = qy - ring, y1 = qy + ring;
    for (int cy = y0; cy <= y1; ++cy) {
      if (cy < 0 || cy >= ny_) continue;
      for (int cx = x0; cx <= x1; ++cx) {
        if (cx < 0 || cx >= nx_) continue;
        // Only the ring's border cells (interior scanned by earlier rings).
        if (ring > 0 && cx != x0 && cx != x1 && cy != y0 && cy != y1) continue;
        const CellRange& range = cells_[cy * nx_ + cx];
        for (uint32_t i = range.begin; i < range.end; ++i) {
          best = std::min(best, Distance(metric_, q, points_[order_[i]]));
        }
      }
    }
  }
  return best;
}

}  // namespace tabula
