#ifndef TABULA_LOSS_LOSS_FUNCTION_H_
#define TABULA_LOSS_LOSS_FUNCTION_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <vector>
#include <string>

#include "common/status.h"
#include "exec/aggregate.h"
#include "storage/table.h"

namespace tabula {

/// \brief Per-cell algebraic accumulator state for a loss function.
///
/// The paper requires accuracy loss functions to be *algebraic* (Section
/// II): the loss of any cube cell must be computable from a fixed-size,
/// mergeable state. This struct is the union of the states needed by the
/// built-in losses; each loss fills only the parts it reads. Merging is
/// what enables the dry-run stage to roll a single finest-cuboid GroupBy
/// up through the entire lattice.
struct LossState {
  /// Stats of the target attribute (mean / histogram losses).
  NumericAggState num;
  /// Stats of the (x, y) pair (regression loss).
  RegressionAggState reg;
  /// Σ over tuples of min-distance to the *fixed* reference sample
  /// (visualization-aware losses; distributive because the reference
  /// sample is constant during the dry run).
  double ref_dist_sum = 0.0;
  /// Largest values of the target attribute, descending, bounded by the
  /// loss's k (TOP-K losses; distributive: merging keeps the k largest).
  std::vector<double> topk;
  /// The k the accumulating loss uses (0 when unused); carried in the
  /// state so merges can cap correctly.
  uint32_t topk_k = 0;

  void Merge(const LossState& o) {
    num.Merge(o.num);
    reg.Merge(o.reg);
    ref_dist_sum += o.ref_dist_sum;
    topk_k = std::max(topk_k, o.topk_k);
    if (!o.topk.empty() || !topk.empty()) {
      std::vector<double> merged;
      merged.reserve(topk.size() + o.topk.size());
      merged.insert(merged.end(), topk.begin(), topk.end());
      merged.insert(merged.end(), o.topk.begin(), o.topk.end());
      std::sort(merged.begin(), merged.end(), std::greater<double>());
      if (topk_k > 0 && merged.size() > topk_k) merged.resize(topk_k);
      topk = std::move(merged);
    }
  }
};

/// \brief Loss function bound to a base table and a fixed reference sample.
///
/// Used by the dry-run stage: `Accumulate` folds one raw tuple into a
/// cell's LossState (thread-compatible: const, no shared mutation), and
/// `Finalize` yields loss(cell raw data, reference sample).
class BoundLoss {
 public:
  virtual ~BoundLoss() = default;
  virtual void Accumulate(LossState* state, RowId row) const = 0;
  virtual double Finalize(const LossState& state) const = 0;

  /// A lower bound on Finalize() of a cell's full state, given `prefix`,
  /// the state accumulated over some of its `total_rows` rows. A caller
  /// that only asks whether the loss is within θ can stop accumulating
  /// once this exceeds θ. The default knows no bound.
  virtual double FinalLossLowerBound(const LossState& prefix,
                                     uint64_t total_rows) const {
    (void)prefix;
    (void)total_rows;
    return -std::numeric_limits<double>::infinity();
  }
};

/// \brief Incremental evaluator driving Algorithm 1 over one cell.
///
/// Candidates are indices into the raw DatasetView the evaluator was
/// created for. Implementations keep whatever running state makes
/// LossWithCandidate cheap (O(1) for mean/regression, O(|raw|) with a
/// cached min-distance array for visualization losses).
class GreedyLossEvaluator {
 public:
  virtual ~GreedyLossEvaluator() = default;

  /// loss(raw, chosen sample); +inf while the sample is empty and the loss
  /// is undefined for empty samples.
  virtual double CurrentLoss() const = 0;

  /// loss(raw, chosen sample + candidate) without committing.
  virtual double LossWithCandidate(size_t candidate) const = 0;

  /// Commits the candidate into the chosen sample.
  virtual void Add(size_t candidate) = 0;

  /// Number of raw tuples (== candidate id space).
  virtual size_t raw_size() const = 0;

  /// Loss value consistent with LossWithCandidate arithmetic. Equal to
  /// CurrentLoss() once the sample is non-empty; submodular losses return
  /// a *finite* surrogate for the empty sample (e.g. the bounding-box
  /// diagonal for min-distance losses) so that greedy gains
  /// (InternalLoss − LossWithCandidate) are well-defined from round one —
  /// a prerequisite for the lazy-forward heap.
  virtual double InternalLoss() const { return CurrentLoss(); }
};

/// \brief User-defined accuracy loss function (Section II).
///
/// A loss function is stateless and thread-safe; all evaluation state
/// lives in the objects it creates. Implementations must be algebraic in
/// the paper's sense — `Bind` + LossState::Merge encode exactly that
/// property.
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  /// Loss function name used in the SQL HAVING clause.
  virtual std::string name() const = 0;

  /// Binds to `table` with `ref` as the fixed reference sample (the global
  /// sample during cube initialization, a candidate representative sample
  /// during SamGraph construction).
  virtual Result<std::unique_ptr<BoundLoss>> Bind(
      const Table& table, const DatasetView& ref) const = 0;

  /// Direct evaluation of loss(raw, sample). Both views must be over the
  /// same base table.
  virtual Result<double> Loss(const DatasetView& raw,
                              const DatasetView& sample) const = 0;

  /// Creates the incremental evaluator for Algorithm 1 over `raw`.
  virtual Result<std::unique_ptr<GreedyLossEvaluator>> MakeGreedyEvaluator(
      const DatasetView& raw) const = 0;

  /// True when the greedy gain (CurrentLoss − LossWithCandidate) is
  /// monotone non-increasing as the sample grows, enabling POIsam's
  /// lazy-forward acceleration.
  virtual bool SubmodularGain() const { return false; }

  /// True when the loss is *union-closed*: for any partition of a cell's
  /// raw data into slices, loss(∪ slices, ∪ per-slice samples) ≤
  /// max over slices of loss(slice, its sample). Holds for losses that
  /// average a per-tuple penalty depending only on the tuple and the
  /// sample (e.g. avg-min-distance: each tuple's min-distance can only
  /// shrink when the sample grows, and the total is a row-weighted
  /// average of the per-slice averages). The sharded engine
  /// (src/shard/) then accepts a merged union sample without
  /// re-verification when every slice met θ locally. Ratio-of-aggregates
  /// losses (relative mean error) are NOT union-closed — a union of
  /// slice-accurate samples can misweight the slices.
  virtual bool UnionClosed() const { return false; }

  /// True when the LossState `Bind` accumulates depends on the bound
  /// reference sample (e.g. min-distance's ref_dist_sum). When false,
  /// the state summarizes the raw data alone, so
  /// Bind(table, candidate)->Finalize(state(raw)) equals
  /// Loss(raw, candidate) exactly — the sharded merge pass exploits
  /// this to re-verify merged samples from rolled-up states without
  /// re-scanning raw rows.
  virtual bool StateDependsOnReference() const { return false; }

  /// Columns this loss reads (target attribute(s)); used for validation.
  virtual std::vector<std::string> InputColumns() const = 0;

  /// \brief Cheap fixed-length summary of a dataset under this loss.
  ///
  /// The representative-sample-selection join (Section IV) ranks candidate
  /// representatives by signature proximity before running the exact loss
  /// check — the paper's "this join can be accelerated by any existing
  /// data similarity join algorithms". An empty signature disables
  /// ranking. Signatures are a pruning heuristic only; edges are always
  /// validated with the exact loss.
  virtual std::vector<double> Signature(const DatasetView& view) const {
    (void)view;
    return {};
  }
};

inline constexpr double kInfiniteLoss = std::numeric_limits<double>::infinity();

}  // namespace tabula

#endif  // TABULA_LOSS_LOSS_FUNCTION_H_
