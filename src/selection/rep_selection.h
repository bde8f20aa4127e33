#ifndef TABULA_SELECTION_REP_SELECTION_H_
#define TABULA_SELECTION_REP_SELECTION_H_

#include <vector>

#include "common/status.h"
#include "cube/cube_table.h"
#include "selection/samgraph.h"

namespace tabula {

/// Knobs for representative sample selection.
struct SelectionOptions {
  SamGraphOptions graph;
};

/// Diagnostics from the selection stage.
struct SelectionResult {
  /// Representatives persisted (== resulting sample-table size).
  size_t representatives = 0;
  /// Iceberg cells whose own local sample was dropped in favor of a
  /// representative.
  size_t cells_sharing = 0;
  size_t graph_edges = 0;
  size_t loss_evaluations = 0;
  double millis = 0.0;
};

/// \brief Representative sample selection (Section IV, Algorithm 3).
///
/// Builds the SamGraph, greedily solves the NP-hard RepSamSel problem
/// (vertices sorted by out-degree; repeatedly persist the most
/// representative remaining sample and discard every sample it
/// represents), fills `sample_table` with the chosen representatives,
/// links every iceberg cell in `cube` to a representative sample id, and
/// normalizes the cube table by dropping per-cell raw data.
Result<SelectionResult> SelectRepresentativeSamples(
    const Table& base, const LossFunction& loss, double theta,
    const SelectionOptions& options, CubeTable* cube,
    SampleTable* sample_table);

/// \brief The no-selection variant (the paper's Tabula*): persists every
/// local sample individually. Same linking/normalization contract.
Result<SelectionResult> PersistAllSamples(CubeTable* cube,
                                          SampleTable* sample_table);

}  // namespace tabula

#endif  // TABULA_SELECTION_REP_SELECTION_H_
