// sweep_cli: the run/ scenario-sweep runner on the command line.
//
// Exposes the full (algorithm x graph-family x n x f x seed) grid that the
// benches drive programmatically, and reuses the run/ report writers, so a
// shell loop can produce the same JSON/CSV artifacts CI consumes:
//
//   sweep_cli --algorithms=quotient,three-group --families=er,ring
//             --sizes=8,12,16 --seeds=1,2,3 --points-csv=points.csv
//
// Production-sweep features ride the same grid: --k sweeps the Theorem 8
// robot-count axis, --mix pits heterogeneous adversary mixes, and
// --shard/--resume/--abort-after drive resumable sharded sweeps through a
// JSON-lines checkpoint:
//
//   sweep_cli --shard=0/2 --resume=ck.jsonl --no-timing ... &
//   sweep_cli --shard=1/2 --resume=ck.jsonl --no-timing ... &
//   wait; sweep_cli --resume=ck.jsonl --no-timing --points-csv=merged.csv ...
//
// The grid flags, report writing and exit codes are shared with the
// distributed front-ends (sweepd, sweep_worker) via run/cli_flags, so the
// same flag set drives single-shot and coordinator/worker sweeps
// interchangeably.
//
// Run with --help for the full flag list. Exit code: 0 when every
// non-skipped point disperses, 1 otherwise, 2 on usage errors, 3 when the
// sweep was aborted (--abort-after) before finishing, 4 when a grid point's
// round bound saturates 128-bit accounting (the offending (algorithm, n, f)
// is named on stderr — such grids are rejected, not silently skipped).
#include <cstdio>
#include <string>

#include "run/cli_flags.h"
#include "run/sweep.h"

namespace {

using namespace bdg;

void usage(std::FILE* to) {
  std::fputs("usage: sweep_cli [flags]\n", to);
  run::print_grid_flag_help(to);
  std::fputs(
      "  --abort-after=N        abort after N newly-run points (testing and\n"
      "                         CI resume smoke; exit code 3)\n"
      "  --progress             print one line per completed point to stderr\n",
      to);
  run::print_report_flag_help(to);
  run::print_grid_name_lists(to);
}

}  // namespace

int main(int argc, char** argv) {
  run::ReportFlags report;
  bool progress = false;
  unsigned long abort_after = 0;  // 0 = never abort

  run::GridFlagsResult grid = run::parse_grid_flags(argc, argv);
  if (!grid.ok) {
    std::fprintf(stderr, "sweep_cli: %s\n", grid.error.c_str());
    return 2;
  }
  run::SweepSpec& spec = grid.spec;
  try {
    for (const std::string& arg : grid.leftover) {
      if (arg == "--help" || arg == "-h") {
        usage(stdout);
        return 0;
      } else if (auto v = run::flag_value(arg, "--abort-after")) {
        abort_after =
            run::parse_flag_number<unsigned long>(*v, "--abort-after");
      } else if (arg == "--progress") {
        progress = true;
      } else if (!run::parse_report_flag(arg, report)) {
        std::fprintf(stderr, "sweep_cli: unknown flag '%s'\n\n", arg.c_str());
        usage(stderr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_cli: %s\n", e.what());
    return 2;
  }

  // Progress/abort callback: live per-point lines and the forced
  // mid-sweep abort the CI resume smoke exercises. `completed` counts
  // checkpoint hits too, so --abort-after bounds *newly run* points.
  unsigned long fresh_points = 0;
  if (progress || abort_after != 0) {
    spec.progress = [&](const run::PointResult& p, std::size_t completed,
                        std::size_t total) {
      ++fresh_points;
      if (progress)
        std::fprintf(stderr, "[%zu/%zu] %s %s n=%u k=%u f=%u seed=%llu %s\n",
                     completed, total,
                     core::to_string(p.point.algorithm).c_str(),
                     p.point.family.c_str(), p.point.n, p.point.k, p.point.f,
                     static_cast<unsigned long long>(p.point.seed),
                     p.skipped ? "skipped" : (p.ok ? "ok" : "FAILED"));
      return abort_after == 0 || fresh_points < abort_after;
    };
  }

  run::SweepResult result;
  try {
    result = run::run_sweep(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_cli: %s\n", e.what());
    return 2;
  }
  return run::write_sweep_outputs("sweep_cli", result, report);
}
