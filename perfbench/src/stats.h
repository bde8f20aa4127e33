#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics and input generators of the benchmark. Header-only and free
// of any Tabula dependency, so tests/stats_test.cc can pin them alone.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-quantile of n samples: the smallest rank
/// k with k >= q * n, clamped to [1, n]. p50 of {1,2,3,4} is rank 2 (the
/// value 2), p99 of 100 samples is rank 99 — one sample lies beyond it.
inline size_t PercentileRank(size_t n, double q) {
  if (n == 0) return 0;
  double exact = q * static_cast<double>(n);
  // Guard against 0.99 * 100 evaluating to 99.00000000000001.
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Exact nearest-rank percentile of an ascending vector (0 when empty).
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[PercentileRank(sorted.size(), q) - 1];
}

/// Exact nearest-rank percentile; sorts its own copy.
inline double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, q);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Runs one writer on an open-loop schedule: batch i is due
/// `i * interval` after the start however long earlier batches took. The
/// writer waits for each due time (a late batch goes at once), calls
/// `send(i)`, and charges the batch from its due time to the return of
/// `send`, so a stalled batch also charges every batch queued behind it.
/// `clock` gives `double Now()` and `void SleepUntil(double)` in seconds
/// from the start; `send(i)` returns whether batch i succeeded. Returns
/// the lag of each batch that succeeded, in seconds.
template <typename ClockT, typename Send>
std::vector<double> RunOpenLoop(ClockT& clock, size_t batches,
                                double interval, Send&& send) {
  std::vector<double> lags;
  for (size_t i = 0; i < batches; ++i) {
    const double due = static_cast<double>(i) * interval;
    clock.SleepUntil(due);
    if (send(i)) lags.push_back(clock.Now() - due);
  }
  return lags;
}

/// SplitMix64: a tiny, fully specified PRNG, so a seed names the same
/// sequence on every compiler and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform01() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a stream tag.
inline uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 mix(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return mix.Next();
}

/// Zipf(s) ranks over [0, n): rank r is drawn with weight 1 / (r + 1)^s,
/// by inverse CDF over a precomputed table.
class ZipfGenerator {
 public:
  ZipfGenerator(size_t n, double s, uint64_t seed) : rng_(seed), cdf_(n) {
    double acc = 0.0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
  }

  size_t Next() {
    double u = rng_.Uniform01() * cdf_.back();
    size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  SplitMix64 rng_;
  std::vector<double> cdf_;
};

/// One dashboard map frame on a 128 x 128 lattice over the unit square:
/// the viewport spans [x, x + width] x [y, y + width] in 1/128 units,
/// width = 128 >> zoom. `filter` is -1 for a pure bbox frame, else the
/// index of the equality filter the frame adds (a hybrid query).
struct Viewport {
  static constexpr int kLattice = 128;

  int zoom = 1;
  int x = 0;
  int y = 0;
  int filter = -1;

  int width() const { return kLattice >> zoom; }
  double lo_x() const { return x / static_cast<double>(kLattice); }
  double hi_x() const { return (x + width()) / static_cast<double>(kLattice); }
  double lo_y() const { return y / static_cast<double>(kLattice); }
  double hi_y() const { return (y + width()) / static_cast<double>(kLattice); }

  bool operator==(const Viewport& o) const {
    return zoom == o.zoom && x == o.x && y == o.y && filter == o.filter;
  }
};

/// Random walk of one dashboard user over zoom levels [min_zoom,
/// max_zoom]: each frame zooms in (20%) or out (20%) about the viewport
/// centre, or pans a quarter viewport in one of four directions. Every
/// viewport stays snapped to the 1/128 lattice and inside the unit
/// square, so revisited viewports repeat exactly. Every fourth frame
/// carries one of `num_filters` equality filters.
class ViewportWalk {
 public:
  ViewportWalk(uint64_t seed, int min_zoom, int max_zoom, int num_filters)
      : rng_(seed),
        min_zoom_(min_zoom),
        max_zoom_(max_zoom),
        num_filters_(num_filters) {
    current_.zoom = min_zoom_;
    int w = current_.width();
    current_.x = static_cast<int>(rng_.Below(Viewport::kLattice - w + 1));
    current_.y = static_cast<int>(rng_.Below(Viewport::kLattice - w + 1));
  }

  Viewport Next() {
    if (frame_ > 0) Step();
    Viewport out = current_;
    out.filter = (frame_ % 4 == 3 && num_filters_ > 0)
                     ? static_cast<int>(rng_.Below(num_filters_))
                     : -1;
    ++frame_;
    return out;
  }

 private:
  void Step() {
    double r = rng_.Uniform01();
    Viewport& v = current_;
    int w = v.width();
    if (r < 0.2 && v.zoom < max_zoom_) {
      v.zoom += 1;
      v.x += w / 4;
      v.y += w / 4;
    } else if (r < 0.4 && v.zoom > min_zoom_) {
      v.zoom -= 1;
      v.x -= w / 2;
      v.y -= w / 2;
    } else {
      int step = std::max(1, w / 4);
      switch (rng_.Below(4)) {
        case 0: v.x += step; break;
        case 1: v.x -= step; break;
        case 2: v.y += step; break;
        default: v.y -= step; break;
      }
    }
    int max_origin = Viewport::kLattice - v.width();
    v.x = std::clamp(v.x, 0, max_origin);
    v.y = std::clamp(v.y, 0, max_origin);
  }

  SplitMix64 rng_;
  int min_zoom_;
  int max_zoom_;
  int num_filters_;
  Viewport current_;
  uint64_t frame_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
