#ifndef TABULA_COMMON_THREAD_POOL_H_
#define TABULA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tabula {

/// \brief Fixed-size worker pool used to parallelize scans and GroupBys.
///
/// Plays the role that Spark's executors play in the paper's testbed: the
/// embedded data system splits every full-table pass into per-worker chunks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 → hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules a task; returns a future for its completion. An
  /// exception thrown by the task does not kill the worker — it is
  /// captured into the future and rethrown from future::get().
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(chunk_begin, chunk_end) over [0, n) split into roughly equal
  /// contiguous chunks, one per worker, and blocks until all complete.
  /// n == 0 returns immediately without invoking fn.
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t)>& fn);

  /// Like ParallelFor but also passes the chunk index, for per-chunk
  /// accumulator state: fn(chunk_index, begin, end). If any chunk
  /// throws, every chunk still runs to completion (they reference the
  /// caller's fn, which must stay alive) and the first exception is
  /// rethrown afterwards.
  ///
  /// Chunk boundaries depend on num_threads(), so per-chunk floating-point
  /// accumulation merged across chunks is NOT reproducible across thread
  /// counts — aggregation paths that must be use ParallelForGrains.
  void ParallelForChunked(
      size_t n, const std::function<void(size_t, size_t, size_t)>& fn);

  /// Minimum items per grain in ParallelForGrains' auto mode. Grained
  /// aggregation pays a merge cost proportional to grains × groups (every
  /// grain rediscovers roughly the same group set and its partial states
  /// must be folded together), so a grain has to hold enough rows to
  /// amortize its share of the merge; small inputs use fewer grains
  /// rather than slower ones.
  static constexpr size_t kDeterministicChunkFloor = 32768;

  /// Maximum grain fan-out of ParallelForGrains in auto mode: enough steal
  /// units for load balancing on big inputs, but a fixed constant — grain
  /// boundaries stay a pure function of n.
  static constexpr size_t kMaxStealGrains = 64;

  /// Number of grains ParallelForGrains uses for `n` items in auto mode:
  /// clamp(n / kDeterministicChunkFloor, 1, kMaxStealGrains), 0 for n==0.
  /// A pure function of n (never of the worker count), which is the
  /// cross-thread-count determinism contract.
  static size_t GrainCount(size_t n) {
    if (n == 0) return 0;
    size_t by_floor = n / kDeterministicChunkFloor;
    if (by_floor == 0) return 1;
    return by_floor < kMaxStealGrains ? by_floor : kMaxStealGrains;
  }

  /// Morsel-driven work stealing over [0, n): the range splits into grains
  /// whose boundaries are a pure function of (n, grain_rows) — never of
  /// the worker count — and idle workers (plus the calling thread) claim
  /// the next unclaimed grain from a shared atomic cursor. Stealing
  /// reorders *execution* only: fn(grain, begin, end) must write into
  /// per-grain state, and callers merging those partials in ascending
  /// grain order get byte-identical output at any TABULA_THREADS setting
  /// (the determinism contract the soak replay tests pin down), and a
  /// skewed grain never gates the whole dispatch the way static
  /// per-worker chunking would. grain_rows == 0 picks
  /// ceil(n / GrainCount(n)) rows per grain;
  /// pass an explicit grain_rows (e.g. 1 for per-item stealing across
  /// cuboids or cells) when items are few but individually heavy. Error
  /// semantics match ParallelForChunked (every grain runs; first exception
  /// rethrown).
  void ParallelForGrains(size_t n,
                         const std::function<void(size_t, size_t, size_t)>& fn,
                         size_t grain_rows = 0);

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide pool sized from TABULA_THREADS (default: hw concurrency).
  static ThreadPool& Global();

  /// Test-only: redirects Global() to `pool` (nullptr restores the real
  /// global). Lets determinism tests run the same workload under pools of
  /// different widths inside one process. Not for production use.
  static void SetGlobalForTest(ThreadPool* pool);

 private:
  void WorkerLoop();
  /// Runs `count` units of `unit` rows each over [0, n) via the shared
  /// atomic-cursor steal loop; the calling thread participates and
  /// returns once every unit has run, whether or not its helper tasks
  /// have started.
  void RunStealing(size_t n, size_t count, size_t unit,
                   const std::function<void(size_t, size_t, size_t)>& fn);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tabula

#endif  // TABULA_COMMON_THREAD_POOL_H_
