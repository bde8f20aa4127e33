/// \file
/// Standalone networked Tabula server over a deterministic synthetic
/// deployment — the serving half of the multi-process smoke test and
/// of `tabula_client --compare-local`.
///
///   tabula_server --rows 20000 --seed 61 --shards 4 --replicas 2
///                 --port 0 --threads 8 [--arm-delay 0.05 40]
///
/// `--shards K` serves a ShardedTabula of K shards (`--replicas` R per
/// shard) at K >= 2 and a plain Tabula at K <= 1, which has no replicas
/// to control.
///
/// Prints `LISTENING <port>` once the socket is bound (parents that
/// fork/exec this binary scan stdout for that line), then serves until
/// stdin reaches EOF or a `quit` admin command arrives — tying the
/// server's lifetime to the parent's pipe means a dying test harness
/// can never leak a listener.
///
/// Admin commands (via `tabula_client --admin`; the first three need
/// K >= 2):
///   kill <shard> <replica>     mark one replica down
///   revive <shard> <replica>   bring it back
///   healthy <shard>            number of healthy replicas
///   arm-delay <seam> <p> <ms>  probabilistic delay fault (e.g. on
///                              net.write to fatten the tail for the
///                              hedging bench)
///   disarm                     clear every armed fault
///   quit                       stop serving
/// `--arm-delay P MS` arms net.write at startup with the same spec.

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "net/server.h"
#include "serve/query_server.h"
#include "testing/fault_injection.h"
#include "net_demo_common.h"

namespace tabula {
namespace tools {
namespace {

int Run(int argc, char** argv) {
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
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return 1;
  }

  QueryServer server(deployment.engine.get());
  NetServerOptions net_options;
  net_options.port =
      static_cast<uint16_t>(FlagSize(argc, argv, "--port", 0));
  net_options.num_workers = FlagSize(argc, argv, "--threads", 8);

  // Optional startup tail-fattener for the hedging bench: every reply
  // write stalls `ms` with probability `p` (delay-only, deterministic
  // per hit index).
  if (HasFlag(argc, argv, "--arm-delay")) {
    double p = 0.05, ms = 40.0;
    for (int i = 1; i + 2 < argc; ++i) {
      if (std::strcmp(argv[i], "--arm-delay") == 0) {
        p = std::strtod(argv[i + 1], nullptr);
        ms = std::strtod(argv[i + 2], nullptr);
      }
    }
    FaultSpec slow;
    slow.probability = p;
    slow.delay_ms = ms;
    slow.fail = false;
    FaultInjector::Global().Arm("net.write", slow);
  }

  // Set from a net-server worker thread, read by the main loop.
  std::atomic<bool> quit_requested{false};
  TabulaNetServer net_server(&server, net_options);
  net_server.set_admin_handler(
      [&deployment, &quit_requested](
          const std::string& command) -> Result<std::string> {
        std::istringstream in(command);
        std::string verb;
        in >> verb;
        if ((verb == "kill" || verb == "revive" || verb == "healthy") &&
            deployment.sharded == nullptr) {
          return Status::InvalidArgument(
              "replica control requires a sharded deployment (--shards 2 "
              "or more)");
        }
        if (verb == "kill" || verb == "revive") {
          size_t shard = 0, replica = 0;
          if (!(in >> shard >> replica)) {
            return Status::InvalidArgument("usage: " + verb +
                                           " <shard> <replica>");
          }
          TABULA_RETURN_NOT_OK(deployment.sharded->SetReplicaDown(
              shard, replica, verb == "kill"));
          return std::string("ok");
        }
        if (verb == "healthy") {
          size_t shard = 0;
          if (!(in >> shard)) {
            return Status::InvalidArgument("usage: healthy <shard>");
          }
          return std::to_string(
              deployment.sharded->HealthyReplicaCount(shard));
        }
        if (verb == "arm-delay") {
          std::string seam;
          double p = 0.0, ms = 0.0;
          if (!(in >> seam >> p >> ms)) {
            return Status::InvalidArgument(
                "usage: arm-delay <seam> <probability> <ms>");
          }
          FaultSpec slow;
          slow.probability = p;
          slow.delay_ms = ms;
          slow.fail = false;
          FaultInjector::Global().Arm(seam, slow);
          return std::string("ok");
        }
        if (verb == "disarm") {
          FaultInjector::Global().DisarmAll();
          return std::string("ok");
        }
        if (verb == "quit") {
          quit_requested = true;  // checked after the reply is written
          return std::string("bye");
        }
        return Status::NotFound("");  // fall through to built-ins
      });

  Status started = net_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", net_server.port());
  std::fflush(stdout);

  // Serve until the parent closes our stdin (fork/exec harnesses hold
  // the write end of a pipe here, so a dying parent tears us down) or
  // a `quit` admin command lands.
  char buf[256];
  while (!quit_requested) {
    pollfd pfd{0 /* stdin */, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    ssize_t n = ::read(0, buf, sizeof(buf));
    if (n <= 0) break;  // EOF or error: the parent is gone
  }
  net_server.Stop();
  return 0;
}

}  // namespace
}  // namespace tools
}  // namespace tabula

int main(int argc, char** argv) { return tabula::tools::Run(argc, argv); }
