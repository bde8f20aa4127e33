#ifndef TABULA_LOSS_SPATIAL_H_
#define TABULA_LOSS_SPATIAL_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace tabula {

/// 2-D point (normalized dashboard coordinates).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Distance metric for the visualization-aware loss (Section II lets the
/// user pick "Euclidean distance, Manhattan distance or any distance
/// metric").
enum class DistanceMetric { kEuclidean, kManhattan };

inline double Distance(DistanceMetric m, const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  if (m == DistanceMetric::kManhattan) return std::abs(dx) + std::abs(dy);
  return std::sqrt(dx * dx + dy * dy);
}

/// Index of the cell holding grid coordinate q = (v - lo) / width on an
/// axis of n cells, clamped to [0, n). The clamp happens in double before
/// the cast, so a far point or a near-zero extent never converts an
/// out-of-range value to int (undefined behaviour); NaN maps to 0. In
/// range it equals the truncating cast.
inline int ClampedCellIndex(double q, int n) {
  if (!(q >= 1.0)) return 0;
  if (!(q < static_cast<double>(n))) return n - 1;
  return static_cast<int>(q);
}

/// \brief Uniform-grid nearest-neighbor index over a point set.
///
/// The avg-min-distance loss evaluates min_{s in Sam} dist(x, s) for every
/// raw tuple x; a ring-expanding grid search makes that ~O(1) per query
/// for typical sample sizes instead of O(|Sam|).
class PointGrid {
 public:
  /// Builds an index over `points` (non-empty).
  PointGrid(std::vector<Point> points, DistanceMetric metric);

  /// Distance from q to the nearest indexed point.
  double NearestDistance(const Point& q) const;

  size_t size() const { return points_.size(); }

 private:
  struct CellRange {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  int CellX(double x) const;
  int CellY(double y) const;

  std::vector<Point> points_;
  DistanceMetric metric_;
  double min_x_, min_y_, cell_w_, cell_h_;
  int nx_, ny_;
  std::vector<uint32_t> order_;      // point indices sorted by cell
  std::vector<CellRange> cells_;     // per-cell slice of order_
};

}  // namespace tabula

#endif  // TABULA_LOSS_SPATIAL_H_
