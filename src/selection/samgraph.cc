#include "selection/samgraph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>

#include "common/thread_pool.h"

namespace tabula {

namespace {

/// Rows an edge test accumulates between checks of the loss's lower
/// bound; a test whose bound already exceeds θ stops there.
constexpr size_t kBoundCheckRows = 16;

double SignatureDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double sum = 0.0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}
}  // namespace

Result<SamGraph> SamGraph::Build(const Table& base, const CubeTable& cube,
                                 const LossFunction& loss, double theta,
                                 const SamGraphOptions& options) {
  const size_t m = cube.size();
  SamGraph graph;
  graph.out_.resize(m);
  graph.in_.resize(m);
  if (m == 0) return graph;

  // Signatures of each cell's raw data and each cell's local sample, used
  // to rank candidate (representative, cell) pairs before the exact test.
  std::vector<std::vector<double>> raw_sig(m), sample_sig(m);
  auto& pool = ThreadPool::Global();
  pool.ParallelFor(m, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const IcebergCell& cell = cube.cells()[i];
      raw_sig[i] = loss.Signature(DatasetView(&base, cell.raw_rows));
      sample_sig[i] = loss.Signature(DatasetView(&base, cell.local_sample));
    }
  });
  const bool have_signatures = !raw_sig[0].empty();

  // For each representative candidate u, bind the loss to sample(u) once
  // (amortizing per-sample indexes) and test its closest cells. Each
  // worker writes only its own found_per_u slots; the adjacency lists are
  // assembled serially afterwards in ascending-u order so InEdges/OutEdges
  // ordering — which rep_selection uses to break representative-link ties
  // — is independent of worker scheduling.
  std::vector<std::vector<uint32_t>> found_per_u(m);
  std::atomic<size_t> evals{0};
  Status first_error = Status::OK();
  std::mutex error_mu;

  pool.ParallelFor(m, [&](size_t begin, size_t end) {
    std::vector<double> sig_dist(m);
    for (size_t u = begin; u < end; ++u) {
      const IcebergCell& rep = cube.cells()[u];
      // Candidate targets: all other vertices, ranked by signature
      // proximity of sample(u) to raw(v) when signatures exist.
      std::vector<uint32_t> candidates;
      candidates.reserve(m - 1);
      for (size_t v = 0; v < m; ++v) {
        if (v != u) candidates.push_back(static_cast<uint32_t>(v));
      }
      if (options.max_candidates_per_vertex > 0 &&
          candidates.size() > options.max_candidates_per_vertex) {
        if (have_signatures) {
          // Each distance once, read by the comparator: the same
          // comparisons over the same initial order pick the same set.
          for (size_t v = 0; v < m; ++v) {
            sig_dist[v] = SignatureDistance(sample_sig[u], raw_sig[v]);
          }
          std::nth_element(
              candidates.begin(),
              candidates.begin() + options.max_candidates_per_vertex,
              candidates.end(), [&](uint32_t a, uint32_t b) {
                return sig_dist[a] < sig_dist[b];
              });
        }
        candidates.resize(options.max_candidates_per_vertex);
      }

      auto bound = loss.Bind(base, DatasetView(&base, rep.local_sample));
      if (!bound.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = bound.status();
        return;
      }

      std::vector<uint32_t> found;
      found.push_back(static_cast<uint32_t>(u));  // self-edge
      const BoundLoss& bound_loss = *bound.value();
      for (uint32_t v : candidates) {
        const std::vector<RowId>& rows = cube.cells()[v].raw_rows;
        LossState state;
        bool may_pass = true;
        for (size_t done = 0; done < rows.size() && may_pass;) {
          const size_t stop = std::min(rows.size(), done + kBoundCheckRows);
          for (; done < stop; ++done) bound_loss.Accumulate(&state, rows[done]);
          may_pass = !(bound_loss.FinalLossLowerBound(state, rows.size()) >
                       theta);
        }
        evals.fetch_add(1, std::memory_order_relaxed);
        if (may_pass && bound_loss.Finalize(state) <= theta) {
          found.push_back(v);
        }
      }

      found_per_u[u] = std::move(found);
    }
  });
  TABULA_RETURN_NOT_OK(first_error);
  for (size_t u = 0; u < m; ++u) {
    for (uint32_t v : found_per_u[u]) {
      graph.out_[u].push_back(v);
      graph.in_[v].push_back(static_cast<uint32_t>(u));
      ++graph.num_edges_;
    }
  }
  graph.loss_evaluations_ = evals.load();
  return graph;
}

}  // namespace tabula
