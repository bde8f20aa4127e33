#include "sampling/random_sampler.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tabula {

std::vector<RowId> RandomSample(const DatasetView& view, size_t k, Rng* rng) {
  size_t n = view.size();
  if (k >= n) return view.ToRowIds();
  std::vector<uint32_t> picks = rng->SampleWithoutReplacement(
      static_cast<uint32_t>(n), static_cast<uint32_t>(k));
  std::vector<RowId> out;
  out.reserve(picks.size());
  for (uint32_t i : picks) out.push_back(view.row(i));
  return out;
}

namespace {

/// SplitMix64 finalizer — a stateless 64-bit mixer with good avalanche;
/// the priority order it induces on row ids is the fixed "random
/// permutation" consistent sampling selects from.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<RowId> ConsistentBottomKSample(const DatasetView& view, size_t k,
                                           uint64_t seed) {
  size_t n = view.size();
  if (k >= n) return view.ToRowIds();
  std::vector<std::pair<uint64_t, RowId>> prio;
  prio.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RowId r = view.row(i);
    prio.emplace_back(Mix64(seed ^ Mix64(r)), r);
  }
  std::nth_element(prio.begin(), prio.begin() + k, prio.end());
  std::vector<RowId> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) out.push_back(prio[i].second);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RowId> ExtendBottomKSample(const Table& table,
                                       const std::vector<RowId>& sample,
                                       size_t n0, size_t n1, size_t k,
                                       uint64_t seed) {
  std::vector<RowId> candidates = sample;
  candidates.reserve(sample.size() + (n1 - n0));
  for (size_t r = n0; r < n1; ++r) candidates.push_back(static_cast<RowId>(r));
  return ConsistentBottomKSample(DatasetView(&table, std::move(candidates)), k,
                                 seed);
}

size_t SerflingSampleSize(double epsilon, double delta) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) return 1;
  double k = std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<size_t>(std::ceil(k));
}

}  // namespace tabula
