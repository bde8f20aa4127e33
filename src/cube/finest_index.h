#ifndef TABULA_CUBE_FINEST_INDEX_H_
#define TABULA_CUBE_FINEST_INDEX_H_

#include <cstdint>
#include <vector>

#include "exec/group_by.h"
#include "loss/loss_function.h"
#include "storage/table.h"

namespace tabula {

/// \brief An engine's one record of its finest-cuboid cells: the
/// ascending packed keys, and for each key its LossState and its
/// ascending row ids.
///
/// The dry run folds every row into these states and derives every
/// coarser cuboid by rolling them up the lattice (§III-B1), so the index
/// starts from the dry run's own states. Afterwards it serves every
/// reader of finest cells: refresh folds appended rows into a staged copy
/// of `states` and rolls it up with RollUpCuboids, the shard merge k-way
/// merges the units' states, and GatherCellRows assembles any coarser
/// cell's rows from the finest rows that roll up into it.
///
/// Rows are append-only (AppendFinestRows), so an index may hold rows a
/// refresh has not committed yet; readers cap them at the committed
/// prefix. A cell those rows add carries an empty state until a refresh
/// that folds them commits its staged states.
struct FinestIndex {
  std::vector<uint64_t> keys;
  std::vector<LossState> states;
  std::vector<std::vector<RowId>> rows;
  /// Row ids held across `rows`. A single-instance index covers table
  /// rows [0, num_rows), so this is also where AppendFinestRows resumes.
  size_t num_rows = 0;
};

/// Attaches one row grouping of `view` to `finest`, the dry run's states
/// (FoldFinestStates) over the same rows.
FinestIndex IndexFinestRows(GroupedStates<LossState> finest,
                            const KeyEncoder& encoder,
                            const KeyPacker& packer, const DatasetView& view);

/// Appends table rows [index->num_rows, end) to their cells. A key the
/// index lacks becomes a new cell, in key order, with an empty state.
void AppendFinestRows(const KeyEncoder& encoder, const KeyPacker& packer,
                      size_t end, FinestIndex* index);

/// Position of `key` in `index.keys`; index.keys.size() when absent.
size_t FindFinestCell(const FinestIndex& index, uint64_t key);

/// The folded state of `cell` (a packed key of any cuboid): the merge,
/// in key order, of the state of every finest cell of `index` that rolls
/// up into it. The states cover the rows a refresh has committed, so for
/// a loss whose state does not depend on the reference this decides the
/// cell's loss against any sample (WithinTheta) without a row read: one
/// pass over the keys, never more work than GatherCellRows for the cell.
LossState FoldCellState(const FinestIndex& index, const KeyPacker& packer,
                        uint64_t cell);

/// The one gather of raw rows: for each cell in `cells` (distinct packed
/// keys of any cuboids), the ascending ids below `limit` of every row in
/// `indexes` that rolls up into it. The indexes must hold disjoint rows
/// (an engine's own index, or every shard unit's). Output is parallel to
/// `cells`.
std::vector<std::vector<RowId>> GatherCellRows(
    const std::vector<const FinestIndex*>& indexes, const KeyPacker& packer,
    const std::vector<uint64_t>& cells, RowId limit);

}  // namespace tabula

#endif  // TABULA_CUBE_FINEST_INDEX_H_
