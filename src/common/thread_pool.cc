#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <latch>
#include <memory>

#include "testing/fault_injection.h"

namespace tabula {

namespace {
/// Set while a pool worker runs a task, or a caller drains grains of its
/// own dispatch; nested ParallelFor calls from such threads execute
/// inline, so every grain is a self-contained sequential computation
/// and no worker blocks waiting on tasks that can never be scheduled.
thread_local bool t_inside_worker = false;

/// RAII flag so the marker resets even if a task unwinds.
struct InsideWorkerScope {
  InsideWorkerScope() { t_inside_worker = true; }
  ~InsideWorkerScope() { t_inside_worker = false; }
};
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Delay-only fault seam: lets tests stretch the window between task
    // dequeue and execution (refresh racing queries, deadline expiry
    // mid-dispatch). One relaxed load when nothing is armed.
    TABULA_FAULT_DELAY("threadpool.dispatch");
    InsideWorkerScope scope;
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = packaged->get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.emplace([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  ParallelForChunked(n, [&fn](size_t, size_t b, size_t e) { fn(b, e); });
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t chunks = std::min(n, num_threads());
  if (t_inside_worker) chunks = 1;  // nested call: run inline
  if (chunks <= 1) {
    fn(0, 0, n);
    return;
  }
  RunStealing(n, chunks, (n + chunks - 1) / chunks, fn);
}

void ThreadPool::ParallelForGrains(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn,
    size_t grain_rows) {
  if (n == 0) return;
  size_t count;
  if (grain_rows == 0) {
    count = GrainCount(n);
    grain_rows = (n + count - 1) / count;
  } else {
    count = (n + grain_rows - 1) / grain_rows;
  }
  if (t_inside_worker || count <= 1 || num_threads() <= 1) {
    // Inline: same grains, ascending order, current thread.
    for (size_t g = 0; g < count; ++g) {
      size_t begin = g * grain_rows;
      size_t end = std::min(n, begin + grain_rows);
      if (begin >= end) break;
      fn(g, begin, end);
    }
    return;
  }
  RunStealing(n, count, grain_rows, fn);
}

void ThreadPool::RunStealing(
    size_t n, size_t count, size_t unit,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  // Work stealing via a shared claim cursor: which thread runs which unit
  // is scheduling-dependent, but the unit boundaries themselves are fixed
  // by (n, count, unit), so callers that keep per-unit state and merge it
  // in ascending unit order are unaffected by the stealing.
  //
  // The caller waits for its units, never for its helpers: a helper
  // queued behind busy workers may start only after every unit has run
  // (or never, while those workers block on a lock the caller holds).
  // The job state lives on the heap, shared with every helper, so a late
  // helper finds the cursor exhausted and touches nothing else — `fn`
  // is only called for a claimed unit, which the caller waits for.
  struct Job {
    explicit Job(size_t units)
        : unfinished(static_cast<std::ptrdiff_t>(units)) {}
    std::atomic<size_t> cursor{0};
    std::latch unfinished;
    std::mutex error_mu;
    std::exception_ptr first_error;  // guarded by error_mu
  };
  auto job = std::make_shared<Job>(count);
  const auto* body = &fn;
  auto drain = [job, body, n, count, unit] {
    for (;;) {
      size_t g = job->cursor.fetch_add(1, std::memory_order_relaxed);
      if (g >= count) return;
      size_t begin = g * unit;
      size_t end = std::min(n, begin + unit);
      // Capture instead of unwinding: every unit must run (sibling units
      // reference caller-frame state), and the drain loops in workers
      // must never leak an exception into the pool's task plumbing.
      try {
        if (begin < end) (*body)(g, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job->error_mu);
        if (job->first_error == nullptr) {
          job->first_error = std::current_exception();
        }
      }
      job->unfinished.count_down();
    }
  };
  size_t helpers = std::min(num_threads(), count);
  for (size_t i = 0; i < helpers; ++i) Submit(drain);
  // The calling thread steals too: progress is guaranteed even when every
  // pool worker is stuck behind unrelated long-running tasks. Like a
  // worker, it runs the nested parallel calls of its units inline.
  {
    InsideWorkerScope scope;
    drain();
  }
  job->unfinished.wait();
  // Take the exception out of the job before rethrowing: a late helper
  // may hold the last reference to the job, and the pool thread that
  // drops it must not free the exception the caller is handling.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(job->error_mu);
    error = std::move(job->first_error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

namespace {
std::atomic<ThreadPool*> g_pool_override{nullptr};
}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire);
  if (override_pool != nullptr) return *override_pool;
  static ThreadPool pool([] {
    const char* env = std::getenv("TABULA_THREADS");
    if (env != nullptr) {
      long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<size_t>(v);
    }
    return static_cast<size_t>(0);
  }());
  return pool;
}

void ThreadPool::SetGlobalForTest(ThreadPool* pool) {
  g_pool_override.store(pool, std::memory_order_release);
}

}  // namespace tabula
