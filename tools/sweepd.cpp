// sweepd: the fault-tolerant sweep coordinator.
//
// Owns the expanded grid, leases batches of points to sweep_worker
// processes over localhost TCP, merges their streamed results through the
// run_sweep checkpoint path, and writes the same reports sweep_cli does —
// byte-identical to a single-shot run of the same flags:
//
//   sweepd --listen=39173 --resume=ck.jsonl --no-timing
//          --algorithms=three-group --sizes=6 --seeds=1,2 &
//   sweep_worker --connect=127.0.0.1:39173 --no-timing
//          --algorithms=three-group --sizes=6 --seeds=1,2 &
//   sweep_worker --connect=127.0.0.1:39173 ... &
//   wait %1
//
// The grid flags MUST match across coordinator and workers (the hello
// handshake rejects any drift via the grid fingerprint). Workers may come,
// go and die mid-lease: deadlines reassign their points, and with no
// reachable worker at all the coordinator runs the remainder in-process
// rather than hang. SIGTERM/SIGINT flush the checkpoint and exit 3
// (aborted), so a restart with the same --resume picks up where it
// stopped.
//
// Reports and exit codes come from the same run/cli_flags tail as
// sweep_cli: 0 all dispersed, 1 failures, 2 usage, 3 aborted, 4 round
// accounting saturated (the first offending (algorithm, n, f) is named on
// stderr).
#include <csignal>
#include <cstdio>
#include <string>

#include "run/cli_flags.h"
#include "run/service.h"

namespace {

using namespace bdg;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage(std::FILE* to) {
  std::fputs("usage: sweepd [flags]\n", to);
  run::print_grid_flag_help(to);
  std::fputs(
      "service:\n"
      "  --listen=PORT          TCP port on 127.0.0.1 (0 = ephemeral; the\n"
      "                         bound port is printed to stderr either way)\n"
      "  --lease-points=N       points per lease (default 8)\n"
      "  --lease-timeout-ms=N   lease deadline; extended by every frame\n"
      "                         from the holder (default 3000)\n"
      "  --idle-grace-ms=N      no live worker for this long => run the\n"
      "                         remainder in-process (default 2000)\n"
      "  --no-local-fallback    hang instead of degrading to in-process\n"
      "  --serve                keep answering sweep_query clients after\n"
      "                         the grid completes (workers are shut down\n"
      "                         immediately); SIGTERM ends serving, and the\n"
      "                         exit code still reflects the sweep itself.\n"
      "                         With --resume over a finished checkpoint\n"
      "                         this is a standalone query server.\n"
      "  --fault=SPEC           deterministic fault shim on coordinator\n"
      "                         sends (seed=S,drop=P,delay=P,delay_ms=N,\n"
      "                         close_after=N)\n",
      to);
  run::print_report_flag_help(to);
  run::print_grid_name_lists(to);
}

}  // namespace

int main(int argc, char** argv) {
  run::ServiceConfig svc;
  run::ReportFlags report;

  run::GridFlagsResult grid = run::parse_grid_flags(argc, argv);
  if (!grid.ok) {
    std::fprintf(stderr, "sweepd: %s\n", grid.error.c_str());
    return 2;
  }
  run::SweepSpec& spec = grid.spec;
  try {
    for (const std::string& arg : grid.leftover) {
      if (arg == "--help" || arg == "-h") {
        usage(stdout);
        return 0;
      } else if (auto v = run::flag_value(arg, "--listen")) {
        svc.port = run::parse_flag_number<std::uint16_t>(*v, "--listen");
      } else if (auto v = run::flag_value(arg, "--lease-points")) {
        svc.lease_points =
            run::parse_flag_number<std::uint32_t>(*v, "--lease-points", 1);
      } else if (auto v = run::flag_value(arg, "--lease-timeout-ms")) {
        svc.lease_timeout_ms =
            run::parse_flag_number<std::uint32_t>(*v, "--lease-timeout-ms");
      } else if (auto v = run::flag_value(arg, "--idle-grace-ms")) {
        svc.idle_grace_ms =
            run::parse_flag_number<std::uint32_t>(*v, "--idle-grace-ms");
      } else if (arg == "--no-local-fallback") {
        svc.local_fallback = false;
      } else if (arg == "--serve") {
        svc.serve_after_finish = true;
      } else if (auto v = run::flag_value(arg, "--fault")) {
        const auto fault = net::parse_fault_config(*v);
        if (!fault) {
          std::fprintf(stderr, "sweepd: bad --fault spec '%s'\n", v->c_str());
          return 2;
        }
        svc.fault = *fault;
      } else if (!run::parse_report_flag(arg, report)) {
        std::fprintf(stderr, "sweepd: unknown flag '%s'\n\n", arg.c_str());
        usage(stderr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepd: %s\n", e.what());
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  run::SweepResult result;
  run::CoordinatorStats stats;
  try {
    run::Coordinator coordinator(spec, svc);
    std::fprintf(stderr, "[sweepd: listening on 127.0.0.1:%u]\n",
                 coordinator.port());
    result = coordinator.serve(&g_stop);
    stats = coordinator.stats();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepd: %s\n", e.what());
    return 2;
  }

  char extra[320];
  std::snprintf(extra, sizeof extra,
                "; %zu workers, %zu leases (%zu reassigned), %zu duplicate "
                "results, %zu local-fallback points, %zu clients, %zu queries",
                stats.workers_seen, stats.leases_granted,
                stats.leases_reassigned, stats.duplicate_results,
                stats.local_fallback_points, stats.clients_seen,
                stats.queries_answered);
  return run::write_sweep_outputs("sweepd", result, report, extra);
}
