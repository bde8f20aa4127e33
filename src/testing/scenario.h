#ifndef TABULA_TESTING_SCENARIO_H_
#define TABULA_TESTING_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tabula {

/// \brief Configuration of one soak run (see RunSoak below).
///
/// Everything stochastic in a run — the schema, the table contents, the
/// op sequence, the queries, the fault schedule — derives from `seed`
/// alone, so `{seed, steps}` fully names a scenario and two runs with
/// the same options produce byte-identical scenario traces.
struct SoakOptions {
  uint64_t seed = 1;
  /// Number of interleaved ops (Query / BatchQuery / Refresh / Save /
  /// Load / fault toggles).
  size_t steps = 200;
  /// Arm/disarm fault points during the run. When false the run still
  /// exercises the same op mix, just without injection (useful for
  /// isolating a failure to the faults themselves).
  bool faults = true;
  /// Rows of the initial table; more rows appended over the run come
  /// from a same-schema donor table of `append_pool` rows.
  size_t base_rows = 3000;
  size_t append_pool = 2000;
  /// Where Save/Load ops place the cube file ("" → a file named after
  /// the seed and the process in the system temp directory, removed at
  /// the end of the run; the process id keeps concurrent test processes
  /// soaking the same seed off each other's files).
  std::string scratch_path;
  /// Check loss(raw, sample) <= θ on every Nth served answer (1 = all).
  /// Raising it trades invariant coverage for speed on big runs; which
  /// answers get checked stays deterministic.
  size_t check_every = 1;
  /// Engine under test: 0 (default) = the plain single-instance Tabula,
  /// K >= 1 = a ShardedTabula with K shards behind the same QueryServer.
  /// K = 1 is the strict pass-through, so its scenario trace is
  /// byte-identical to shards = 0 with the same options. K > 1 runs add
  /// the shard.build / shard.merge error seams and the shard.query
  /// delay seam to the fault-toggle menu.
  size_t shards = 0;
  /// Streaming-ingestion mode: appends flow through a synchronous
  /// Ingestor (journaled into a WAL next to the scratch cube file)
  /// instead of direct table appends + server Refresh. Adds the
  /// ingest.route / ingest.merge / ingest.resample /
  /// ingest.journal.write error seams to the fault-toggle menu, and
  /// checks the progressive-answer invariants: a failed mid-batch
  /// cycle leaves the generation untouched with answers honestly
  /// tagged stale, and a post-disarm Drain() always converges.
  bool ingest = false;
  /// Spatial mode: materialize the hierarchical grid over the synthetic
  /// x/y columns (3 levels) and mix in sequential range-query ops —
  /// seed-derived bboxes, sometimes hybrid with an equality conjunct,
  /// θ-checked against a direct inclusive x/y scan. Adds the
  /// spatial.plan / spatial.scan error seams to the fault-toggle menu;
  /// both sit on the sequential range-query path only (batches never
  /// carry ranges), so error injection stays deterministic. An injected
  /// range-query failure must leave the engine untouched
  /// (boundary-scan atomicity) and the retry after disarm must succeed.
  bool spatial = false;
  /// Networked serving mode: every Query/BatchQuery op travels through
  /// a loopback TabulaNetServer + TabulaClient pair (real sockets, the
  /// full wire codec) instead of calling the QueryServer directly. The
  /// client runs with one pooled connection and hedging off, so the
  /// server executes requests in op order and the scenario trace stays
  /// byte-identical to the in-process run — any divergence is a wire
  /// codec bug. Refresh/Save/Load/ingest ops stay in-process (the
  /// protocol has no mutation RPCs by design).
  bool net = false;
  /// Tiered-store mode: every synthetic column draws Zipf-skewed values
  /// (skew 1.0), so the workload hammers a few hot cells, and the cube
  /// runs under a byte budget sized to ~50% of a probe build's resident
  /// sample bytes. After every op the run asserts the budget invariant
  /// `store bytes <= budget`, and any `store_degraded` answer is a
  /// violation (no store fault in the soak menu may fail a promote).
  /// Adds the store.promote / store.evict delay seams — and, single
  /// instance only, the store.spill.write / store.spill.read delay
  /// seams — to the fault-toggle menu. All four are delay-only: they
  /// sit on the concurrent batch path, where which request absorbs an
  /// injection depends on scheduling, and a dropped spill record makes
  /// the next promote legitimately re-draw over the grown row set
  /// (different bytes than the stale-but-valid spilled sample). Error
  /// injection on all four seams is covered by fault_injection_test.
  /// Runs with sample selection off and the hot tier
  /// pinned off, so every lazy re-sample is byte-identical to the
  /// original draw and the trace stays thread-count invariant.
  bool store_budget = false;
  /// Stream trace lines to stderr as they are produced.
  bool verbose = false;
};

/// Outcome of a soak run. `trace` is the deterministic scenario trace:
/// one line per op recording the op, its inputs, and every
/// timing-independent outcome (status codes, cache hits, sample sizes,
/// generations). Identical options ⇒ identical trace, even with delay
/// faults armed and batch items racing on the thread pool — nothing
/// timing-dependent is recorded.
struct SoakReport {
  std::vector<std::string> trace;
  /// Invariant violations, empty on a clean run. A violation names the
  /// step, the invariant, and the observed/expected values.
  std::vector<std::string> violations;

  size_t steps_run = 0;
  size_t queries = 0;        ///< single Query ops (incl. post-refresh probes)
  size_t batches = 0;        ///< BatchQuery ops
  size_t batch_items = 0;    ///< items across all batches
  size_t refreshes = 0;      ///< successful Refresh ops
  size_t injected_refresh_failures = 0;
  size_t ingests = 0;        ///< Ingestor Append ops (--ingest mode)
  size_t injected_ingest_failures = 0;
  size_t spatial_queries = 0;  ///< range-query ops (--spatial mode)
  size_t injected_spatial_failures = 0;
  size_t saves = 0;          ///< successful Save ops
  size_t injected_save_failures = 0;
  size_t loads = 0;          ///< Load attempts
  size_t fault_toggles = 0;  ///< arm/disarm ops executed
  size_t theta_checks = 0;   ///< answers verified against ground truth
  /// --store-budget mode: per-step `store bytes <= budget` assertions
  /// executed (one per op), and the probe-derived budget itself.
  size_t store_checks = 0;
  uint64_t store_budget_bytes = 0;
  uint64_t final_generation = 0;

  bool ok() const { return violations.empty(); }
};

/// \brief Seed-reproducible stress/soak driver (the harness behind
/// tools/soak_runner and tests/soak_test.cc).
///
/// Builds a randomized table + schema from the seed, initializes a
/// Tabula cube behind a QueryServer, then interleaves `steps` ops:
/// single queries, batched multi-cell queries, appends+Refresh, Save,
/// Load-and-compare, and (when enabled) arming/disarming fault points.
/// After every op it asserts the system's core invariants:
///
///  - θ bound: every non-degraded answer's sample has
///    loss(truth, sample) <= θ against the ground-truth rows of its
///    cell (direct BoundPredicate scan — no cube code involved).
///  - Coherence: a served answer (cached or not) equals a direct
///    Tabula::Query of the live cube — no stale generation survives a
///    Refresh.
///  - Failure atomicity: an injected fault surfaces as a non-OK Status;
///    a failed Refresh leaves the generation (and every answer)
///    unchanged; a failed Save leaves the previous file intact and
///    never leaves a .tmp behind; Load never yields a half-built cube.
///  - Accounting: serve-layer metrics and recorded trace spans agree
///    exactly with the number of issued requests.
///
/// Returns the report even when invariants fail (callers inspect
/// `violations`); a non-OK Status means the harness itself could not
/// run (e.g. initialization failed), not that an invariant broke.
Result<SoakReport> RunSoak(const SoakOptions& options);

}  // namespace tabula

#endif  // TABULA_TESTING_SCENARIO_H_
