#include "cube/real_run.h"

#include <algorithm>
#include <mutex>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "cube/cost_model.h"
#include "exec/vector_ops.h"

namespace tabula {

namespace {

using CellRowsMap = FlatHashMap<std::vector<RowId>>;

/// Merges per-grain maps in ascending grain order; each cell's rows end
/// up in ascending order because grains are contiguous ascending ranges.
/// Grain boundaries are a pure function of n, so the merged map is a pure
/// function of the data.
CellRowsMap MergeGrainMaps(std::vector<CellRowsMap> partials,
                           size_t expected_cells) {
  if (partials.empty()) return CellRowsMap();
  CellRowsMap merged = std::move(partials[0]);
  merged.reserve(expected_cells);
  for (size_t c = 1; c < partials.size(); ++c) {
    partials[c].ForEach([&](uint64_t key, std::vector<RowId>& rows) {
      auto [slot, inserted] = merged.TryEmplace(key);
      if (inserted) {
        *slot = std::move(rows);
      } else {
        slot->insert(slot->end(), rows.begin(), rows.end());
      }
    });
  }
  return merged;
}

/// Semi-join path: one scan; only rows whose cell key is an iceberg key
/// are collected (paper's "equi-join with the iceberg cell table").
CellRowsMap CollectJoinPath(const DatasetView& rows, const KeyEncoder& enc,
                            const KeyPacker& packer, CuboidMask mask,
                            const FlatHashSet& iceberg) {
  auto& pool = ThreadPool::Global();
  std::vector<CellRowsMap> partials(ThreadPool::GrainCount(rows.size()));
  pool.ParallelForGrains(
      rows.size(), [&](size_t grain, size_t begin, size_t end) {
        auto& map = partials[grain];
        map.reserve(iceberg.size());
        for (size_t r = begin; r < end; ++r) {
          uint64_t key = packer.PackRowMasked(enc, rows.row(r), mask);
          if (iceberg.Contains(key)) {
            map[key].push_back(static_cast<RowId>(r));
          }
        }
      });
  return MergeGrainMaps(std::move(partials), iceberg.size());
}

/// Full-GroupBy path: group *all* rows of the cuboid, then keep iceberg
/// groups only.
CellRowsMap CollectGroupByPath(const DatasetView& rows, const KeyEncoder& enc,
                               const KeyPacker& packer, CuboidMask mask,
                               const FlatHashSet& iceberg,
                               size_t total_cells) {
  auto& pool = ThreadPool::Global();
  std::vector<CellRowsMap> partials(ThreadPool::GrainCount(rows.size()));
  pool.ParallelForGrains(
      rows.size(), [&](size_t grain, size_t begin, size_t end) {
        auto& map = partials[grain];
        map.reserve(std::min(total_cells, end - begin));
        for (size_t r = begin; r < end; ++r) {
          uint64_t key = packer.PackRowMasked(enc, rows.row(r), mask);
          map[key].push_back(static_cast<RowId>(r));
        }
      });
  CellRowsMap merged = MergeGrainMaps(std::move(partials), total_cells);
  // Filter to iceberg cells.
  CellRowsMap filtered(iceberg.size());
  merged.ForEach([&](uint64_t key, std::vector<RowId>& cell_rows) {
    if (iceberg.Contains(key)) filtered[key] = std::move(cell_rows);
  });
  return filtered;
}

/// Vectorized collectors: both derive the cuboid's cell keys from the
/// precomputed finest-cuboid row keys with the two-op mask transform —
/// batched (key & keep) | set over whole morsels — instead of
/// re-gathering every key column per cuboid. Grain boundaries are pure
/// f(n) and partials merge in ascending grain order, so each cell's row
/// list is ascending and the merged map is byte-identical to the scalar
/// reference engine.

CellRowsMap CollectJoinPathVec(const std::vector<uint64_t>& row_keys,
                               const KeyPacker& packer, CuboidMask mask,
                               const std::vector<uint64_t>& iceberg_keys) {
  auto& pool = ThreadPool::Global();
  const size_t n = row_keys.size();
  const KeyPacker::MaskTransform t = packer.TransformFor(mask);
  // One probe per row instead of two: the iceberg set is folded into a
  // key -> dense-cell-index map up front (ascending key order, so cell
  // index i is the i-th smallest iceberg key), and matching rows append
  // straight into a dense per-grain row list — no second hash for the
  // per-grain map insert, no mid-scan map growth.
  std::vector<uint64_t> sorted_keys = iceberg_keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  const size_t cells = sorted_keys.size();
  FlatHashMap<uint32_t> index(cells);
  for (size_t i = 0; i < cells; ++i) {
    index[sorted_keys[i]] = static_cast<uint32_t>(i);
  }
  std::vector<std::vector<std::vector<RowId>>> partials(
      ThreadPool::GrainCount(n));
  pool.ParallelForGrains(n, [&](size_t grain, size_t begin, size_t end) {
    auto& rows = partials[grain];
    rows.resize(cells);
    uint64_t keys[kMorselRows];
    for (size_t mb = begin; mb < end; mb += kMorselRows) {
      const size_t me = std::min(end, mb + kMorselRows);
      vec::MaskRollKeys(row_keys.data() + mb, me - mb, t.keep, t.set, keys);
      for (size_t r = mb; r < me; ++r) {
        const uint32_t* idx = index.Find(keys[r - mb]);
        if (idx != nullptr) rows[*idx].push_back(static_cast<RowId>(r));
      }
    }
  });
  // Concatenating per-grain lists in ascending grain order keeps each
  // cell's rows ascending — byte-identical to the scalar reference. Cells
  // no row matched are skipped, matching the reference map's key set.
  CellRowsMap out(cells);
  for (size_t c = 0; c < cells; ++c) {
    size_t total = 0;
    for (const auto& p : partials) {
      if (c < p.size()) total += p[c].size();
    }
    if (total == 0) continue;
    std::vector<RowId> merged;
    merged.reserve(total);
    for (auto& p : partials) {
      if (c < p.size()) {
        merged.insert(merged.end(), p[c].begin(), p[c].end());
      }
    }
    out[sorted_keys[c]] = std::move(merged);
  }
  return out;
}

/// Finest-cuboid grouping shared by every cuboid of one real run: distinct
/// finest keys in first-appearance (row) order plus each row's group index.
/// Rolling a cuboid key is a pure function of the finest key, so per cuboid
/// only the |groups| distinct keys need transforming and hashing — rows are
/// then placed with a counting sort over precomputed group indices, no
/// per-row hash work at all.
struct FinestGroups {
  std::vector<uint32_t> row_group;  // row -> finest group index
  std::vector<uint64_t> group_key;  // group index -> finest key
};

FinestGroups BuildFinestGroups(const std::vector<uint64_t>& row_keys) {
  FinestGroups fg;
  const size_t n = row_keys.size();
  fg.row_group.resize(n);
  FlatHashMap<uint32_t> index(1024);
  for (size_t r = 0; r < n; ++r) {
    auto [slot, inserted] = index.TryEmplace(row_keys[r]);
    if (inserted) {
      *slot = static_cast<uint32_t>(fg.group_key.size());
      fg.group_key.push_back(row_keys[r]);
    }
    fg.row_group[r] = *slot;
  }
  return fg;
}

/// When the distinct-cell count of a cuboid exceeds this, the per-grain
/// counting-sort arrays stop being cheap and the hashed group-by collector
/// takes over.
constexpr size_t kDenseCellLimit = 1u << 16;

/// Grouped-dense collector: rolls the |groups| distinct finest keys (one
/// SIMD batch), assigns cuboid cell ids by first appearance in group order
/// (pure f(data)), then counting-sorts each grain's rows by cell id.
/// Grain slices concatenate in ascending grain order and the sort is
/// stable, so each cell's row list is ascending — byte-identical to the
/// scalar reference engine.
CellRowsMap CollectGroupedVec(const FinestGroups& fg, const KeyPacker& packer,
                              CuboidMask mask, const FlatHashSet& iceberg) {
  auto& pool = ThreadPool::Global();
  const size_t n = fg.row_group.size();
  const size_t groups = fg.group_key.size();
  const KeyPacker::MaskTransform t = packer.TransformFor(mask);
  std::vector<uint64_t> rolled(groups);
  vec::MaskRollKeys(fg.group_key.data(), groups, t.keep, t.set,
                    rolled.data());
  FlatHashMap<uint32_t> cell_of_key(groups);
  std::vector<uint32_t> g2c(groups);
  std::vector<uint64_t> cell_keys;
  cell_keys.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    auto [slot, inserted] = cell_of_key.TryEmplace(rolled[g]);
    if (inserted) {
      *slot = static_cast<uint32_t>(cell_keys.size());
      cell_keys.push_back(rolled[g]);
    }
    g2c[g] = *slot;
  }
  const size_t cells = cell_keys.size();

  struct GrainSort {
    std::vector<uint32_t> offsets;  // cells + 1 prefix sums
    std::vector<RowId> rows;        // grain rows grouped by cell id
  };
  std::vector<GrainSort> partials(ThreadPool::GrainCount(n));
  pool.ParallelForGrains(n, [&](size_t grain, size_t begin, size_t end) {
    GrainSort& gs = partials[grain];
    gs.offsets.assign(cells + 1, 0);
    gs.rows.resize(end - begin);
    for (size_t r = begin; r < end; ++r) {
      ++gs.offsets[g2c[fg.row_group[r]] + 1];
    }
    for (size_t c = 0; c < cells; ++c) gs.offsets[c + 1] += gs.offsets[c];
    std::vector<uint32_t> cursor(gs.offsets.begin(), gs.offsets.end() - 1);
    for (size_t r = begin; r < end; ++r) {
      gs.rows[cursor[g2c[fg.row_group[r]]]++] = static_cast<RowId>(r);
    }
  });

  CellRowsMap out(iceberg.size());
  for (size_t c = 0; c < cells; ++c) {
    if (!iceberg.Contains(cell_keys[c])) continue;
    size_t total = 0;
    for (const GrainSort& gs : partials) {
      if (!gs.offsets.empty()) total += gs.offsets[c + 1] - gs.offsets[c];
    }
    if (total == 0) continue;
    std::vector<RowId> merged;
    merged.reserve(total);
    for (const GrainSort& gs : partials) {
      if (gs.offsets.empty()) continue;
      merged.insert(merged.end(), gs.rows.begin() + gs.offsets[c],
                    gs.rows.begin() + gs.offsets[c + 1]);
    }
    out[cell_keys[c]] = std::move(merged);
  }
  return out;
}

CellRowsMap CollectGroupByPathVec(const std::vector<uint64_t>& row_keys,
                                  const KeyPacker& packer, CuboidMask mask,
                                  const FlatHashSet& iceberg,
                                  size_t total_cells) {
  auto& pool = ThreadPool::Global();
  const size_t n = row_keys.size();
  const KeyPacker::MaskTransform t = packer.TransformFor(mask);
  std::vector<CellRowsMap> partials(ThreadPool::GrainCount(n));
  pool.ParallelForGrains(n, [&](size_t grain, size_t begin, size_t end) {
    auto& map = partials[grain];
    map.reserve(std::min(total_cells, end - begin));
    uint64_t keys[kMorselRows];
    for (size_t mb = begin; mb < end; mb += kMorselRows) {
      const size_t me = std::min(end, mb + kMorselRows);
      vec::MaskRollKeys(row_keys.data() + mb, me - mb, t.keep, t.set, keys);
      for (size_t r = mb; r < me; ++r) {
        map[keys[r - mb]].push_back(static_cast<RowId>(r));
      }
    }
  });
  CellRowsMap merged = MergeGrainMaps(std::move(partials), total_cells);
  CellRowsMap filtered(iceberg.size());
  merged.ForEach([&](uint64_t key, std::vector<RowId>& rows) {
    if (iceberg.Contains(key)) filtered[key] = std::move(rows);
  });
  return filtered;
}

}  // namespace

Result<RealRunResult> RunRealRun(
    const DatasetView& rows, const KeyEncoder& encoder,
    const KeyPacker& packer, const Lattice& lattice,
    const DryRunResult& dry_run, const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy, RealRunEngine engine) {
  Stopwatch total;
  RealRunResult result;
  GreedySampler sampler(&loss, theta, sampler_options);
  auto& pool = ThreadPool::Global();
  const Table& table = *rows.table();
  const size_t num_rows = rows.size();
  // Explicit row ids of a sub-view (nullptr when the view covers every
  // row, where a position already is the row id).
  const RowId* row_ids = rows.raw_rows();
  result.cube.Reserve(dry_run.total_iceberg_cells);

  // One batched columnar packing pass over the rows amortizes key
  // construction across every iceberg cuboid: each cuboid's keys are then
  // two bitwise ops per row away (see CollectJoinPathVec).
  std::vector<uint64_t> row_keys;
  FinestGroups finest_groups;
  if (engine == RealRunEngine::kVectorized && dry_run.iceberg_cuboids > 0) {
    Stopwatch pack_timer;
    row_keys.resize(num_rows);
    pool.ParallelForGrains(num_rows, [&](size_t, size_t begin, size_t end) {
      packer.PackRows(encoder, rows, begin, end, row_keys.data() + begin);
    });
    finest_groups = BuildFinestGroups(row_keys);
    result.pack_millis = pack_timer.ElapsedMillis();
  }

  for (const CuboidDryRunInfo& info : dry_run.cuboids) {
    if (info.iceberg_keys.empty()) continue;  // skip non-iceberg cuboids
    Stopwatch cuboid_timer;

    FlatHashSet iceberg(info.iceberg_keys.size());
    for (uint64_t key : info.iceberg_keys) iceberg.Insert(key);
    bool join_path;
    switch (path_policy) {
      case RealRunPathPolicy::kAlwaysJoin:
        join_path = true;
        break;
      case RealRunPathPolicy::kAlwaysGroupBy:
        join_path = false;
        break;
      case RealRunPathPolicy::kAuto:
      default:
        join_path =
            PreferJoinPath(static_cast<double>(num_rows),
                           static_cast<double>(info.iceberg_keys.size()),
                           static_cast<double>(info.total_cells));
        break;
    }
    CellRowsMap cell_rows;
    if (engine == RealRunEngine::kVectorized) {
      // Under kAuto the grouped-dense collector beats either scalar-shaped
      // plan whenever the finest grouping is selective: every per-row hash
      // is replaced by an array gather, and per-cuboid hash work shrinks
      // from |rows| to |distinct finest keys|. Explicit path policies (and
      // cuboids too wide for counting-sort arrays) keep the vectorized
      // join/group-by collectors, which mirror the reference plans.
      if (path_policy == RealRunPathPolicy::kAuto &&
          finest_groups.group_key.size() <= kDenseCellLimit) {
        cell_rows = CollectGroupedVec(finest_groups, packer, info.mask,
                                      iceberg);
      } else {
        cell_rows =
            join_path
                ? CollectJoinPathVec(row_keys, packer, info.mask,
                                     info.iceberg_keys)
                : CollectGroupByPathVec(row_keys, packer, info.mask, iceberg,
                                        info.total_cells);
      }
    } else {
      cell_rows =
          join_path
              ? CollectJoinPath(rows, encoder, packer, info.mask, iceberg)
              : CollectGroupByPath(rows, encoder, packer, info.mask, iceberg,
                                   info.total_cells);
    }

    // Draw a local sample for each iceberg cell. Cells are laid out in
    // ascending key order so cube insertion order — and every downstream
    // ordering derived from it — is deterministic; sampling cost tracks
    // each cell's raw-row count, which is badly skewed, so cells are
    // stolen one at a time rather than pre-chunked across workers.
    std::vector<IcebergCell> cells;
    cells.reserve(cell_rows.size());
    for (auto& [key, positions] : cell_rows.ExtractSorted()) {
      IcebergCell cell;
      cell.key = key;
      cell.cuboid = info.mask;
      cell.raw_rows = std::move(positions);
      if (row_ids != nullptr) {
        for (RowId& r : cell.raw_rows) r = row_ids[r];
      }
      cells.push_back(std::move(cell));
    }
    const double collected_ms = cuboid_timer.ElapsedMillis();
    result.collect_millis += collected_ms;
    Status first_error = Status::OK();
    std::mutex error_mu;
    pool.ParallelForGrains(
        cells.size(),
        [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            DatasetView raw(&table, cells[i].raw_rows);
            auto sample = sampler.Sample(raw);
            if (!sample.ok()) {
              std::lock_guard<std::mutex> lock(error_mu);
              if (first_error.ok()) first_error = sample.status();
              continue;
            }
            cells[i].local_sample = std::move(sample).value();
          }
        },
        /*grain_rows=*/1);
    TABULA_RETURN_NOT_OK(first_error);
    result.sample_millis += cuboid_timer.ElapsedMillis() - collected_ms;

    for (auto& cell : cells) {
      result.local_sample_tuples += cell.local_sample.size();
      result.cube.Add(std::move(cell));
    }

    CuboidRealRunInfo cuboid_info;
    cuboid_info.mask = info.mask;
    cuboid_info.iceberg_cells = info.iceberg_keys.size();
    cuboid_info.used_join_path = join_path;
    cuboid_info.millis = cuboid_timer.ElapsedMillis();
    result.per_cuboid.push_back(cuboid_info);
  }

  (void)lattice;
  result.millis = total.ElapsedMillis();
  return result;
}

}  // namespace tabula
