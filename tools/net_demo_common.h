#ifndef TABULA_TOOLS_NET_DEMO_COMMON_H_
#define TABULA_TOOLS_NET_DEMO_COMMON_H_

#include <cstdlib>
#include <memory>
#include <string>

#include "common/status.h"
#include "data/taxi_gen.h"
#include "loss/mean_loss.h"
#include "shard/sharded_tabula.h"
#include "storage/table.h"

namespace tabula {
namespace tools {

/// The deterministic synthetic deployment tabula_server serves and
/// tabula_client --compare-local rebuilds: same (rows, seed, shards,
/// replicas) on both sides means the same table, the same cube, and —
/// because both engines' answers are deterministic — byte-identical
/// answers whether asked over the wire or in process. One shard (or
/// zero) is a plain Tabula; two or more a ShardedTabula.
struct DemoDeployment {
  size_t rows = 20000;
  uint64_t seed = 61;
  size_t shards = 4;
  size_t replicas = 2;
  /// Hierarchical-grid depth over pickup_x/pickup_y (0 disables the
  /// grid and with it spatial range queries). Equality-only answers are
  /// pinned identical with or without the grid, so enabling it by
  /// default changes nothing for legacy clients.
  size_t spatial_levels = 4;

  std::unique_ptr<Table> table;
  std::unique_ptr<MeanLoss> loss;
  std::unique_ptr<QueryEngine> engine;
  /// The engine as a ShardedTabula (replica control); null at K <= 1.
  ShardedTabula* sharded = nullptr;

  Status Build() {
    TaxiGeneratorOptions gen;
    gen.num_rows = rows;
    gen.seed = seed;
    table = TaxiGenerator(gen).Generate();
    loss = std::make_unique<MeanLoss>("fare_amount");
    ShardedTabulaOptions options;
    options.base.cubed_attributes = {"payment_type", "rate_code"};
    options.base.loss = loss.get();
    options.base.threshold = 0.05;
    options.base.spatial.levels = spatial_levels;
    options.num_shards = shards;
    options.replicas_per_shard = replicas;
    if (shards <= 1) {
      TABULA_ASSIGN_OR_RETURN(engine,
                              Tabula::Initialize(*table, options.base));
      return Status::OK();
    }
    TABULA_ASSIGN_OR_RETURN(std::unique_ptr<ShardedTabula> built,
                            ShardedTabula::Initialize(*table, options));
    sharded = built.get();
    engine = std::move(built);
    return Status::OK();
  }
};

/// `--flag value` scanner shared by the two binaries.
inline bool FlagValue(int argc, char** argv, const std::string& flag,
                      std::string* out) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) {
      *out = argv[i + 1];
      return true;
    }
  }
  return false;
}

inline size_t FlagSize(int argc, char** argv, const std::string& flag,
                       size_t fallback) {
  std::string v;
  if (!FlagValue(argc, argv, flag, &v)) return fallback;
  return static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
}

inline double FlagDouble(int argc, char** argv, const std::string& flag,
                         double fallback) {
  std::string v;
  if (!FlagValue(argc, argv, flag, &v)) return fallback;
  return std::strtod(v.c_str(), nullptr);
}

inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace tools
}  // namespace tabula

#endif  // TABULA_TOOLS_NET_DEMO_COMMON_H_
