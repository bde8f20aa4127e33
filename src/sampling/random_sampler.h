#ifndef TABULA_SAMPLING_RANDOM_SAMPLER_H_
#define TABULA_SAMPLING_RANDOM_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"

namespace tabula {

/// Draws `k` rows uniformly without replacement from `view`; returns
/// base-table row ids. Returns all rows when k >= |view|.
std::vector<RowId> RandomSample(const DatasetView& view, size_t k, Rng* rng);

/// \brief Deterministic uniform sample that is *consistent under appends*.
///
/// Assigns every row the priority hash(seed, row-id) and keeps the k
/// smallest (ties broken by row id), returned in ascending row-id order.
/// A fixed hash of the row id is an exchangeable random order, so the
/// result is a uniform k-subset just like RandomSample — Serfling's
/// bound applies unchanged — but unlike a permutation draw the selection
/// is stable as the table grows: appending rows only displaces members
/// whose priority is beaten, so bottom-k(A ∪ B) shares almost all of
/// bottom-k(A). Incremental cube maintenance (core/refresh.cc) redraws
/// the global sample every cycle to converge on exactly the cube a
/// from-scratch build over the grown table produces; with this sampler
/// consecutive redraws barely differ, so borderline cells do not churn
/// in and out of the iceberg set at every batch.
std::vector<RowId> ConsistentBottomKSample(const DatasetView& view, size_t k,
                                           uint64_t seed);

/// ConsistentBottomKSample over rows [0, n1) of `table`, given `sample` —
/// the same draw (same k and seed) over rows [0, n0). Bottom-k is
/// decomposable: every row of [0, n0) outside `sample` was already beaten
/// by a member's priority and can never re-enter, so drawing from
/// `sample` ∪ [n0, n1) reproduces the full-table draw exactly in
/// O(k + n1 − n0). Incremental maintenance redraws the global sample
/// after appends this way.
std::vector<RowId> ExtendBottomKSample(const Table& table,
                                       const std::vector<RowId>& sample,
                                       size_t n0, size_t n1, size_t k,
                                       uint64_t seed);

/// \brief Global-sample size from Serfling's inequality (Section III-B1).
///
/// Given relative error eps of the mean and confidence delta,
///   k ≈ ln(2/δ) / (2 ε²).
/// Tabula's defaults (ε=0.05, δ=0.01) give ~1060 tuples — the paper's
/// "around 1000 tuples" for the 700M-row NYCtaxi table. The size is
/// independent of the dataset's cardinality, which is why the global
/// sample's memory footprint is flat across experiments.
size_t SerflingSampleSize(double epsilon = 0.05, double delta = 0.01);

}  // namespace tabula

#endif  // TABULA_SAMPLING_RANDOM_SAMPLER_H_
