// sweep_worker: one worker process for the sweepd coordinator.
//
// Expands the same grid from the same flags as its coordinator (the hello
// handshake proves it via the grid fingerprint), then executes leased
// points and streams results back until the coordinator says shutdown.
// Reconnects with capped exponential backoff + jitter after any transport
// failure; --fault mounts the deterministic fault shim on this worker's
// sends, including the kill-after-N-points hook the CI smoke uses to
// simulate a worker dying mid-grid (kill_after=N,hard => _Exit(137)).
//
// Exit codes: 0 coordinator finished the grid (shutdown), 2 usage,
// 5 reconnect attempts exhausted, 6 rejected (grid fingerprint mismatch),
// 7 soft kill hook fired, 137 hard kill hook (_Exit, like SIGKILL).
#include <cstdio>
#include <string>

#include "run/cli_flags.h"
#include "run/service.h"

namespace {

using namespace bdg;

void usage(std::FILE* to) {
  std::fputs("usage: sweep_worker --connect=HOST:PORT [flags]\n", to);
  run::print_grid_flag_help(to);
  std::fputs(
      "service:\n"
      "  --connect=HOST:PORT    coordinator address (required; PORT alone\n"
      "                         means 127.0.0.1:PORT)\n"
      "  --name=NAME            worker name reported in the hello\n"
      "  --dial-attempts=N      dials before giving up, per reconnect\n"
      "                         (default 30, backoff 10ms..1s + jitter)\n"
      "  --jitter-seed=S        backoff jitter stream (default 1)\n"
      "  --fault=SPEC           deterministic fault shim on worker sends\n"
      "                         (seed=S,drop=P,delay=P,delay_ms=N,\n"
      "                         close_after=N,kill_after=N[,hard])\n"
      "A worker runs its leased points one at a time: --threads is\n"
      "accepted so a worker can share the coordinator's flags, and ignored.\n"
      "Run more workers to use more cores.\n",
      to);
  run::print_grid_name_lists(to);
}

}  // namespace

int main(int argc, char** argv) {
  run::WorkerConfig cfg;
  bool have_connect = false;

  run::GridFlagsResult grid = run::parse_grid_flags(argc, argv);
  if (!grid.ok) {
    std::fprintf(stderr, "sweep_worker: %s\n", grid.error.c_str());
    return 2;
  }
  run::SweepSpec& spec = grid.spec;
  for (int i = 1; i < argc; ++i) {
    if (run::flag_value(argv[i], "--threads")) {
      std::fputs(
          "sweep_worker: --threads is ignored; leased points run one at a "
          "time (run more workers to use more cores)\n",
          stderr);
      break;
    }
  }
  try {
    for (const std::string& arg : grid.leftover) {
      if (arg == "--help" || arg == "-h") {
        usage(stdout);
        return 0;
      } else if (auto v = run::flag_value(arg, "--connect")) {
        if (!run::parse_host_port(*v, cfg.host, cfg.port)) {
          std::fprintf(stderr, "sweep_worker: bad --connect '%s'\n",
                       v->c_str());
          return 2;
        }
        have_connect = true;
      } else if (auto v = run::flag_value(arg, "--name")) {
        cfg.name = *v;
      } else if (auto v = run::flag_value(arg, "--dial-attempts")) {
        cfg.backoff.attempts =
            run::parse_flag_number<std::uint32_t>(*v, "--dial-attempts");
      } else if (auto v = run::flag_value(arg, "--jitter-seed")) {
        cfg.jitter_seed =
            run::parse_flag_number<std::uint64_t>(*v, "--jitter-seed");
      } else if (auto v = run::flag_value(arg, "--fault")) {
        const auto fault = net::parse_fault_config(*v);
        if (!fault) {
          std::fprintf(stderr, "sweep_worker: bad --fault spec '%s'\n",
                       v->c_str());
          return 2;
        }
        cfg.fault = *fault;
      } else {
        std::fprintf(stderr, "sweep_worker: unknown flag '%s'\n\n",
                     arg.c_str());
        usage(stderr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 2;
  }
  if (!have_connect) {
    std::fprintf(stderr, "sweep_worker: --connect=HOST:PORT is required\n");
    return 2;
  }

  run::WorkerExit exit_reason;
  try {
    exit_reason = run::run_sweep_worker(spec, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "[sweep_worker %s: %s]\n", cfg.name.c_str(),
               run::to_string(exit_reason).c_str());
  switch (exit_reason) {
    case run::WorkerExit::kShutdown: return 0;
    case run::WorkerExit::kLostCoordinator: return 5;
    case run::WorkerExit::kRejected: return 6;
    case run::WorkerExit::kKilled: return 7;
  }
  return 2;
}
