#include "cube/finest_index.h"

#include <algorithm>
#include <utility>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "cube/lattice.h"

namespace tabula {

FinestIndex IndexFinestRows(GroupedStates<LossState> finest,
                            const KeyEncoder& encoder,
                            const KeyPacker& packer, const DatasetView& view) {
  GroupedRows grouped = GroupRows(encoder, packer, view);
  // Both group the same rows by the same packer, ascending by key.
  TABULA_CHECK(grouped.keys.size() == finest.keys.size());
  FinestIndex index;
  index.keys = std::move(finest.keys);
  index.states = std::move(finest.states);
  index.rows = std::move(grouped.rows);
  index.num_rows = view.size();
  return index;
}

size_t FindFinestCell(const FinestIndex& index, uint64_t key) {
  auto it = std::lower_bound(index.keys.begin(), index.keys.end(), key);
  if (it == index.keys.end() || *it != key) return index.keys.size();
  return static_cast<size_t>(it - index.keys.begin());
}

void AppendFinestRows(const KeyEncoder& encoder, const KeyPacker& packer,
                      size_t end, FinestIndex* index) {
  FlatHashMap<std::vector<RowId>> added;
  for (size_t r = index->num_rows; r < end; ++r) {
    const RowId row = static_cast<RowId>(r);
    const uint64_t key = packer.PackRow(encoder, row);
    const size_t pos = FindFinestCell(*index, key);
    std::vector<RowId>& cell = pos < index->keys.size() ? index->rows[pos]
                                                        : added[key];
    cell.push_back(row);
  }
  index->num_rows = std::max(index->num_rows, end);
  // Splice the new cells in at their key positions, merging from the back.
  std::vector<std::pair<uint64_t, std::vector<RowId>>> fresh =
      added.ExtractSorted();
  size_t old = index->keys.size();
  size_t out = old + fresh.size();
  index->keys.resize(out);
  index->states.resize(out);
  index->rows.resize(out);
  while (!fresh.empty()) {
    --out;
    if (old > 0 && index->keys[old - 1] > fresh.back().first) {
      --old;
      index->keys[out] = index->keys[old];
      index->states[out] = std::move(index->states[old]);
      index->rows[out] = std::move(index->rows[old]);
    } else {
      index->keys[out] = fresh.back().first;
      index->states[out] = LossState();
      index->rows[out] = std::move(fresh.back().second);
      fresh.pop_back();
    }
  }
}

namespace {

/// A cell's cuboid: the columns its key does not roll up. A finest key
/// rolls up to exactly one cell per cuboid.
CuboidMask CuboidOf(const KeyPacker& packer, uint64_t cell) {
  CuboidMask mask = 0;
  for (size_t i = 0; i < packer.num_cols(); ++i) {
    if (packer.CodeAt(cell, i) != kNullCode) mask |= CuboidMask{1} << i;
  }
  return mask;
}

}  // namespace

LossState FoldCellState(const FinestIndex& index, const KeyPacker& packer,
                        uint64_t cell) {
  const KeyPacker::MaskTransform t =
      packer.TransformFor(CuboidOf(packer, cell));
  LossState state;
  for (size_t f = 0; f < index.keys.size(); ++f) {
    if (((index.keys[f] & t.keep) | t.set) == cell) {
      state.Merge(index.states[f]);
    }
  }
  return state;
}

std::vector<std::vector<RowId>> GatherCellRows(
    const std::vector<const FinestIndex*>& indexes, const KeyPacker& packer,
    const std::vector<uint64_t>& cells, RowId limit) {
  std::vector<std::vector<RowId>> out(cells.size());
  FlatHashMap<uint32_t> slot_of(cells.size());
  std::vector<CuboidMask> cuboids;
  for (size_t c = 0; c < cells.size(); ++c) {
    slot_of[cells[c]] = static_cast<uint32_t>(c);
    cuboids.push_back(CuboidOf(packer, cells[c]));
  }
  std::sort(cuboids.begin(), cuboids.end());
  cuboids.erase(std::unique(cuboids.begin(), cuboids.end()), cuboids.end());
  for (CuboidMask mask : cuboids) {
    const KeyPacker::MaskTransform t = packer.TransformFor(mask);
    for (const FinestIndex* index : indexes) {
      for (size_t f = 0; f < index->keys.size(); ++f) {
        const uint32_t* slot = slot_of.Find((index->keys[f] & t.keep) | t.set);
        if (slot == nullptr) continue;
        const std::vector<RowId>& rows = index->rows[f];
        std::vector<RowId>& dst = out[*slot];
        dst.insert(dst.end(), rows.begin(),
                   std::lower_bound(rows.begin(), rows.end(), limit));
      }
    }
  }
  // Finest cells interleave; ascending order is the build-time gather
  // order, so re-draws over the rows are byte-deterministic.
  for (std::vector<RowId>& rows : out) std::sort(rows.begin(), rows.end());
  return out;
}

}  // namespace tabula
