/// Seed-reproducible stress/soak driver for the Tabula stack.
///
/// Runs RunSoak (src/testing/scenario.h): a randomized table + schema
/// derived from one seed, an interleaved op mix (Query / BatchQuery /
/// Refresh / Save / Load) under injected faults and delays, with the
/// core invariants checked after every op. Exit code 0 means every
/// invariant held.
///
///   soak_runner --seed 1 --steps 200            # the CI smoke run
///   soak_runner --seed 7 --steps 2000 --trace   # long run, full trace
///   soak_runner --seed 7 --steps 2000 --no-faults
///
/// A failing run prints its seed; replaying with the same --seed
/// --steps reproduces the identical scenario trace (the fault schedule
/// included), so every soak failure is a deterministic repro.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testing/scenario.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--steps N] [--no-faults] [--check-every N]\n"
      "          [--rows N] [--shards K] [--ingest] [--net] [--spatial]\n"
      "          [--store-budget] [--trace] [--verbose]\n"
      "  --seed N         scenario seed (default 1)\n"
      "  --steps N        ops to run (default 200)\n"
      "  --no-faults      same op mix without fault injection\n"
      "  --check-every N  theta-check every Nth answer (default 1)\n"
      "  --rows N         initial table rows (default 3000)\n"
      "  --shards K       run a ShardedTabula with K >= 2 shards (default:\n"
      "                   plain single-instance engine, as is K = 1;\n"
      "                   K>1 adds shard fault seams to the toggle mix)\n"
      "  --ingest         route appends through the streaming Ingestor\n"
      "                   (WAL + incremental maintenance) instead of\n"
      "                   Refresh; adds the ingest.* fault seams and the\n"
      "                   progressive-answer invariants to the run\n"
      "  --spatial        materialize the hierarchical grid over the\n"
      "                   synthetic x/y columns and mix in sequential\n"
      "                   bbox range-query ops, theta-checked against a\n"
      "                   direct x/y scan; adds the spatial.plan /\n"
      "                   spatial.scan fault seams to the toggle mix\n"
      "  --store-budget   run the tiered sample store under a byte\n"
      "                   budget sized to ~50%% of a probe build, with\n"
      "                   Zipf-skewed queries hammering a few hot cells;\n"
      "                   asserts resident bytes <= budget after every\n"
      "                   op and flags any store-degraded answer; adds\n"
      "                   the store.* delay seams (plus the spill seams\n"
      "                   when single-instance) to the toggle mix\n"
      "  --net            serve every Query/BatchQuery op through a\n"
      "                   loopback TabulaNetServer + TabulaClient pair\n"
      "                   (real sockets, full wire codec); the trace\n"
      "                   must stay byte-identical to the in-process\n"
      "                   run\n"
      "  --trace          print the full scenario trace at the end\n"
      "  --verbose        stream trace lines as they happen\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  tabula::SoakOptions options;
  bool print_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_u64 = [&](uint64_t* out) {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      *out = std::strtoull(argv[++i], nullptr, 10);
    };
    uint64_t v = 0;
    if (arg == "--seed") {
      next_u64(&options.seed);
    } else if (arg == "--steps") {
      next_u64(&v);
      options.steps = static_cast<size_t>(v);
    } else if (arg == "--rows") {
      next_u64(&v);
      options.base_rows = static_cast<size_t>(v);
    } else if (arg == "--shards") {
      next_u64(&v);
      options.shards = static_cast<size_t>(v);
    } else if (arg == "--check-every") {
      next_u64(&v);
      options.check_every = std::max<size_t>(1, static_cast<size_t>(v));
    } else if (arg == "--ingest") {
      options.ingest = true;
    } else if (arg == "--spatial") {
      options.spatial = true;
    } else if (arg == "--net") {
      options.net = true;
    } else if (arg == "--store-budget") {
      options.store_budget = true;
    } else if (arg == "--no-faults") {
      options.faults = false;
    } else if (arg == "--trace") {
      print_trace = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  tabula::Result<tabula::SoakReport> run = tabula::RunSoak(options);
  if (!run.ok()) {
    std::fprintf(stderr, "soak harness failed to run (seed=%llu): %s\n",
                 static_cast<unsigned long long>(options.seed),
                 run.status().ToString().c_str());
    return 2;
  }
  const tabula::SoakReport& report = run.value();

  if (print_trace) {
    for (const std::string& line : report.trace) {
      std::printf("%s\n", line.c_str());
    }
  }
  std::printf(
      "soak seed=%llu steps=%zu faults=%s: %zu queries, %zu batches "
      "(%zu items), %zu range queries (%zu injected failures), "
      "%zu refreshes (%zu injected failures), "
      "%zu ingests (%zu injected failures), %zu saves "
      "(%zu injected failures), %zu loads, %zu fault toggles, "
      "%zu theta checks, %zu store budget checks (budget %llu), "
      "final generation %llu\n",
      static_cast<unsigned long long>(options.seed), report.steps_run,
      options.faults ? "on" : "off", report.queries, report.batches,
      report.batch_items, report.spatial_queries,
      report.injected_spatial_failures, report.refreshes,
      report.injected_refresh_failures, report.ingests,
      report.injected_ingest_failures, report.saves,
      report.injected_save_failures, report.loads, report.fault_toggles,
      report.theta_checks, report.store_checks,
      static_cast<unsigned long long>(report.store_budget_bytes),
      static_cast<unsigned long long>(report.final_generation));

  if (!report.ok()) {
    std::fprintf(stderr, "%zu INVARIANT VIOLATION(S) — replay with "
                         "--seed %llu --steps %zu --trace:\n",
                 report.violations.size(),
                 static_cast<unsigned long long>(options.seed),
                 report.steps_run);
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "  %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("all invariants held\n");
  return 0;
}
