#include "testing/reference_engines.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "cube/cost_model.h"

namespace tabula {

namespace {

using CellRowsMap = FlatHashMap<std::vector<RowId>>;

/// Merges per-grain maps in ascending grain order; each cell's rows end
/// up in ascending order because grains are contiguous ascending ranges.
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

}  // namespace

Result<DryRunResult> RunDryRunLegacy(const Table& table,
                                     const KeyEncoder& encoder,
                                     const KeyPacker& packer,
                                     const Lattice& lattice,
                                     const LossFunction& loss,
                                     const DatasetView& global_sample,
                                     double theta) {
  Stopwatch timer;
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss.Bind(table, global_sample));

  // Thread-chunked fold into per-chunk std::unordered_maps, merged in
  // chunk order — the pre-flat-hash engine, preserved verbatim.
  auto& pool = ThreadPool::Global();
  DatasetView all(&table);
  size_t num_rows = all.size();
  std::vector<std::unordered_map<uint64_t, LossState>> partials(
      pool.num_threads() + 1);
  pool.ParallelForChunked(num_rows, [&](size_t chunk, size_t begin,
                                        size_t end) {
    auto& map = partials[chunk];
    for (size_t i = begin; i < end; ++i) {
      RowId r = all.row(i);
      bound->Accumulate(&map[packer.PackRow(encoder, r)], r);
    }
  });
  std::unordered_map<uint64_t, LossState> finest;
  for (auto& partial : partials) {
    if (finest.empty()) {
      finest = std::move(partial);
      continue;
    }
    for (auto& [key, state] : partial) {
      auto [it, inserted] = finest.try_emplace(key, std::move(state));
      if (!inserted) it->second.Merge(state);
    }
  }

  const size_t n = lattice.num_attributes();
  std::vector<std::unordered_map<uint64_t, LossState>> maps(
      lattice.num_cuboids());
  maps[lattice.finest()] = std::move(finest);

  // Serial roll-up, coarsest-last.
  for (CuboidMask mask : lattice.TopDownOrder()) {
    if (mask == lattice.finest()) continue;
    size_t j = 0;
    while (j < n && (mask & (CuboidMask{1} << j))) ++j;
    CuboidMask parent = mask | (CuboidMask{1} << j);
    const auto& parent_map = maps[parent];
    auto& my_map = maps[mask];
    my_map.reserve(parent_map.size());
    for (const auto& [key, state] : parent_map) {
      uint64_t rolled = packer.WithNull(key, j);
      auto [it, inserted] = my_map.try_emplace(rolled, state);
      if (!inserted) it->second.Merge(state);
    }
  }

  DryRunResult result;
  result.cuboids.resize(lattice.num_cuboids());
  for (size_t m = 0; m < lattice.num_cuboids(); ++m) {
    CuboidMask mask = static_cast<CuboidMask>(m);
    CuboidDryRunInfo& info = result.cuboids[m];
    info.mask = mask;
    info.total_cells = maps[m].size();
    for (const auto& [key, state] : maps[m]) {
      if (bound->Finalize(state) > theta) {
        info.iceberg_keys.push_back(key);
      }
    }
    result.total_cells += info.total_cells;
    result.total_iceberg_cells += info.iceberg_keys.size();
    if (!info.iceberg_keys.empty()) ++result.iceberg_cuboids;
  }
  result.millis = timer.ElapsedMillis();
  return result;
}

Result<RealRunResult> RunRealRunScalarReference(
    const Table& table, const KeyEncoder& encoder, const KeyPacker& packer,
    const DryRunResult& dry_run, const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy) {
  Stopwatch total;
  RealRunResult result;
  GreedySampler sampler(&loss, theta, sampler_options);
  auto& pool = ThreadPool::Global();
  const DatasetView rows(&table);
  result.cube.Reserve(dry_run.total_iceberg_cells);
  for (const CuboidDryRunInfo& info : dry_run.cuboids) {
    if (info.iceberg_keys.empty()) continue;
    Stopwatch cuboid_timer;
    FlatHashSet iceberg(info.iceberg_keys.size());
    for (uint64_t key : info.iceberg_keys) iceberg.Insert(key);
    const bool join_path =
        path_policy == RealRunPathPolicy::kAlwaysJoin ||
        (path_policy == RealRunPathPolicy::kAuto &&
         PreferJoinPath(static_cast<double>(rows.size()),
                        static_cast<double>(info.iceberg_keys.size()),
                        static_cast<double>(info.total_cells)));
    CellRowsMap cell_rows =
        join_path ? CollectJoinPath(rows, encoder, packer, info.mask, iceberg)
                  : CollectGroupByPath(rows, encoder, packer, info.mask,
                                       iceberg, info.total_cells);
    std::vector<IcebergCell> cells;
    cells.reserve(cell_rows.size());
    for (auto& [key, cell_row_ids] : cell_rows.ExtractSorted()) {
      IcebergCell cell;
      cell.key = key;
      cell.cuboid = info.mask;
      cell.raw_rows = std::move(cell_row_ids);
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
  result.millis = total.ElapsedMillis();
  return result;
}

}  // namespace tabula
