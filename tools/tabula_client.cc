/// \file
/// Command-line client for tabula_server — one query, ping, or admin
/// command over the wire, plus the acceptance check behind
/// `--compare-local`: rebuild the server's deterministic deployment in
/// process and verify the wire answer is row-for-row identical to the
/// in-process one.
///
///   tabula_client --port 4321 --where payment_type=Cash
///   tabula_client --port 4321 --where payment_type=Cash
///                 --where rate_code=JFK --deadline 50
///   tabula_client --port 4321 --where "pickup_x BETWEEN 0.3 AND 0.6"
///                 --where "pickup_y BETWEEN 0.4 AND 0.7"
///   tabula_client --port 4321 --admin "kill 2 0"
///   tabula_client --port 4321 --ping
///   tabula_client --port 4321 --compare-local --rows 20000 --seed 61
///                 --shards 4 --replicas 2
///
/// Exit code 0 on success; 1 on any transport/serving error, and on
/// `--compare-local` mismatch (the CI smoke treats non-zero as a
/// broken deployment).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "serve/query_server.h"
#include "net_demo_common.h"

namespace tabula {
namespace tools {
namespace {

/// Parses one `col BETWEEN lo AND hi` spec (already known to contain
/// the word BETWEEN) into a named spatial bound.
Status ParseBetween(const std::string& spec, size_t between_at,
                    SpatialRange* range) {
  const std::string usage =
      "--where expects 'col BETWEEN lo AND hi', got '" + spec + "'";
  std::string column = spec.substr(0, between_at);
  while (!column.empty() && column.back() == ' ') column.pop_back();
  if (column.empty()) return Status::InvalidArgument(usage);
  const char* rest = spec.c_str() + between_at + 8;  // past "BETWEEN "
  char* end = nullptr;
  double lo = std::strtod(rest, &end);
  if (end == rest) return Status::InvalidArgument(usage);
  while (*end == ' ') ++end;
  if (std::strncmp(end, "AND", 3) != 0) return Status::InvalidArgument(usage);
  const char* hi_text = end + 3;
  double hi = std::strtod(hi_text, &end);
  if (end == hi_text) return Status::InvalidArgument(usage);
  while (*end == ' ') ++end;
  if (*end != '\0') return Status::InvalidArgument(usage);
  if (lo > hi) {
    return Status::InvalidArgument("reversed BETWEEN bounds on '" + column +
                                   "' (lo > hi)");
  }
  range->bounds.push_back({column, lo, hi});
  return Status::OK();
}

/// Every `--where` flag, in order. `col=value` becomes an equality
/// predicate; `"col BETWEEN lo AND hi"` becomes a named spatial bound
/// (quote the spec so the shell keeps it one argument).
Status ParseWhere(int argc, char** argv, std::vector<PredicateTerm>* out,
                  SpatialRange* range) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--where") continue;
    std::string spec = argv[i + 1];
    auto between = spec.find(" BETWEEN ");
    if (between != std::string::npos) {
      TABULA_RETURN_NOT_OK(ParseBetween(spec, between + 1, range));
      continue;
    }
    auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return Status::InvalidArgument("--where expects col=value, got '" +
                                     spec + "'");
    }
    out->push_back({spec.substr(0, eq), CompareOp::kEq,
                    Value(spec.substr(eq + 1))});
  }
  return Status::OK();
}

void PrintAnswer(const ServeAnswer& answer) {
  const TabulaQueryResult& r = *answer.result;
  std::printf("rows=%zu from_local_sample=%d empty_cell=%d cache_hit=%d\n",
              r.sample.size(), r.from_local_sample ? 1 : 0,
              r.empty_cell ? 1 : 0, answer.cache_hit ? 1 : 0);
  std::printf("degraded=%d stale=%d generation=%llu total_millis=%.3f\n",
              answer.degraded ? 1 : 0, r.stale ? 1 : 0,
              static_cast<unsigned long long>(r.generation),
              answer.total_millis);
  if (!r.unavailable_shards.empty()) {
    std::printf("unavailable_shards=");
    for (size_t i = 0; i < r.unavailable_shards.size(); ++i) {
      std::printf("%s%u", i ? "," : "", r.unavailable_shards[i]);
    }
    std::printf(" shard_error=%s\n", r.shard_error.ToString().c_str());
  }
}

int Run(int argc, char** argv) {
  NetClientOptions options;
  NetEndpoint endpoint;
  std::string host;
  if (FlagValue(argc, argv, "--host", &host)) endpoint.host = host;
  endpoint.port = static_cast<uint16_t>(FlagSize(argc, argv, "--port", 0));
  if (endpoint.port == 0) {
    std::fprintf(stderr,
                 "usage: tabula_client --port <port> "
                 "[--host H] [--where col=value]... "
                 "[--where \"col BETWEEN lo AND hi\"]... [--deadline MS] "
                 "[--ping | --admin CMD | --compare-local]\n");
    return 1;
  }
  options.endpoints.push_back(endpoint);
  TabulaClient client(options);

  if (HasFlag(argc, argv, "--ping")) {
    Status ping = client.Ping();
    if (!ping.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", ping.ToString().c_str());
      return 1;
    }
    std::printf("pong (wire version %u)\n", kWireVersion);
    return 0;
  }

  std::string admin;
  if (FlagValue(argc, argv, "--admin", &admin)) {
    auto reply = client.Admin(admin);
    if (!reply.ok()) {
      std::fprintf(stderr, "admin failed: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", reply->c_str());
    return 0;
  }

  QueryRequest request;
  Status parsed = ParseWhere(argc, argv, &request.where, &request.range);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 1;
  }
  request.deadline_ms = FlagDouble(argc, argv, "--deadline", -1.0);

  if (!HasFlag(argc, argv, "--compare-local")) {
    auto answer = client.Query(request);
    if (!answer.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answer.status().ToString().c_str());
      return 1;
    }
    PrintAnswer(*answer);
    return 0;
  }

  // --compare-local: rebuild the server's deployment (same rows, seed,
  // shards, replicas → same cube) and require the wire answer to match
  // the in-process answer row for row.
  DemoDeployment deployment;
  deployment.rows = FlagSize(argc, argv, "--rows", deployment.rows);
  deployment.seed = FlagSize(argc, argv, "--seed", deployment.seed);
  deployment.shards = FlagSize(argc, argv, "--shards", deployment.shards);
  deployment.replicas =
      FlagSize(argc, argv, "--replicas", deployment.replicas);
  deployment.spatial_levels =
      FlagSize(argc, argv, "--spatial-levels", deployment.spatial_levels);
  Status built = deployment.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "local build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  client.set_table(deployment.table.get());

  auto wire = client.Query(request);
  if (!wire.ok()) {
    std::fprintf(stderr, "wire query failed: %s\n",
                 wire.status().ToString().c_str());
    return 1;
  }
  QueryServer local_server(deployment.engine.get());
  auto local = local_server.Query(request);
  if (!local.ok()) {
    std::fprintf(stderr, "local query failed: %s\n",
                 local.status().ToString().c_str());
    return 1;
  }

  const TabulaQueryResult& w = *wire->result;
  const TabulaQueryResult& l = *local->result;
  bool match = w.sample.ToRowIds() == l.sample.ToRowIds() &&
               w.from_local_sample == l.from_local_sample &&
               w.empty_cell == l.empty_cell &&
               w.unavailable_shards == l.unavailable_shards;
  std::printf("wire:  ");
  PrintAnswer(*wire);
  std::printf("local: ");
  PrintAnswer(*local);
  if (!match) {
    std::fprintf(stderr, "MISMATCH: wire answer differs from in-process "
                         "answer for the same deployment\n");
    return 1;
  }
  std::printf("MATCH: wire answer identical to in-process answer (%zu "
              "rows)\n",
              w.sample.size());
  return 0;
}

}  // namespace
}  // namespace tools
}  // namespace tabula

int main(int argc, char** argv) { return tabula::tools::Run(argc, argv); }
