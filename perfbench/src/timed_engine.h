#ifndef PERFBENCH_TIMED_ENGINE_H_
#define PERFBENCH_TIMED_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/query_engine.h"
#include "core/tabula.h"

namespace perfbench {

/// Call count and summed wall time of one call site. Thread-safe: the
/// serve path calls the engine from every server worker at once.
class CallTimer {
 public:
  void Add(std::chrono::steady_clock::duration d) {
    nanos_.fetch_add(static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                             .count()),
                     std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  double MeanMicros() const {
    uint64_t n = calls();
    return n == 0 ? 0.0
                  : static_cast<double>(nanos_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n) / 1e3;
  }
  double MeanMillis() const { return MeanMicros() / 1e3; }

 private:
  std::atomic<uint64_t> nanos_{0};
  std::atomic<uint64_t> calls_{0};
};

/// QueryEngine decorator handed to QueryServer and Ingestor in traced
/// runs: it times the engine calls those layers make (the cube lookup on
/// a cache miss and the four ingest phases) from outside the engine.
/// Timing stays off until set_enabled(true), so one serving stack can run
/// an untimed phase and then a timed one.
class TimedEngine final : public tabula::QueryEngine {
 public:
  struct Timers {
    CallTimer query;
    CallTimer plan;
    CallTimer begin;
    CallTimer execute;
    CallTimer commit;
  };

  explicit TimedEngine(tabula::QueryEngine* inner) : inner_(inner) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  const Timers& timers() const { return timers_; }

  tabula::Result<tabula::QueryResponse> Query(
      const tabula::QueryRequest& request) const override {
    return Timed(&timers_.query, [&] { return inner_->Query(request); });
  }
  tabula::Result<std::unique_ptr<IngestPlan>> PlanIngest() override {
    return Timed(&timers_.plan, [&] { return inner_->PlanIngest(); });
  }
  void BeginIngest(IngestPlan* plan) override {
    Timed(&timers_.begin, [&] {
      inner_->BeginIngest(plan);
      return 0;
    });
  }
  tabula::Status ExecuteIngest(IngestPlan* plan) override {
    return Timed(&timers_.execute, [&] { return inner_->ExecuteIngest(plan); });
  }
  tabula::Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                              RefreshStats* stats) override {
    return Timed(&timers_.commit, [&] {
      return inner_->CommitIngest(std::move(plan), stats);
    });
  }

  size_t PendingIngestRows() const override {
    return inner_->PendingIngestRows();
  }
  tabula::Status Refresh(RefreshStats* stats) override {
    return inner_->Refresh(stats);
  }
  tabula::Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }
  uint64_t generation() const override { return inner_->generation(); }
  uint64_t AddRefreshListener(std::function<void()> listener) override {
    return inner_->AddRefreshListener(std::move(listener));
  }
  void RemoveRefreshListener(uint64_t id) override {
    inner_->RemoveRefreshListener(id);
  }
  const tabula::DatasetView& global_sample() const override {
    return inner_->global_sample();
  }
  const tabula::Table& base_table() const override {
    return inner_->base_table();
  }

 private:
  template <typename Fn>
  auto Timed(CallTimer* timer, Fn&& fn) const -> decltype(fn()) {
    if (!enabled_.load(std::memory_order_relaxed)) return fn();
    auto start = std::chrono::steady_clock::now();
    auto result = fn();
    timer->Add(std::chrono::steady_clock::now() - start);
    return result;
  }

  tabula::QueryEngine* inner_;
  std::atomic<bool> enabled_{false};
  mutable Timers timers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_ENGINE_H_
