// sweep_query: a query client for the sweepd coordinator.
//
// Dials a running (or --serve-ing) sweepd and asks for live aggregate
// state over the same framed-JSON wire the workers use:
//
//   sweep_query --connect=39173 --progress
//   sweep_query --connect=39173 --cells '--algorithm=three-group(T4)' --f=1
//   sweep_query --connect=39173 --point --derived-seed=1234567
//   sweep_query --connect=39173 --cells --csv > cells.csv
//
// Answers come from the coordinator's incrementally maintained
// CellAggregator, so querying never pauses the sweep or rebuilds a
// report; the JSON bodies printed here are byte-identical to the
// corresponding objects of sweep_cli's --json report, and --csv rows are
// byte-identical to the --cells-csv/--points-csv rows (raw-token
// passthrough, no number re-formatting). Failed attempts redial on a
// fresh connection, so seeded fault shims on either side cannot wedge a
// query — they only cost retries.
//
// Exit codes: 0 answered, 1 coordinator rejected the query (or the point
// has no result yet), 2 usage, 5 coordinator unreachable.
#include <cstdio>
#include <iostream>
#include <string>

#include "run/cli_flags.h"
#include "run/report.h"
#include "run/service.h"

namespace {

using namespace bdg;

void usage(std::FILE* to) {
  std::fputs(
      "usage: sweep_query --connect=HOST:PORT [--progress | --cells | "
      "--point] [selectors]\n"
      "queries (default --progress):\n"
      "  --progress             sweep totals, completion and coordinator\n"
      "                         counters, as one flat JSON object\n"
      "  --cells                matching live cell aggregates, one report\n"
      "                         JSON object per line\n"
      "  --point                one point's result, by --derived-seed or\n"
      "                         --index (exit 1 while it has no result)\n"
      "cell selectors (unset = wildcard):\n"
      "  --algorithm=NAME --family=NAME --mix=MIX  report spellings\n"
      "                         (mix: 'a+b' canonical sorted, '-' = none)\n"
      "  --n=N --k=K --f=F      resolved coordinates (k = n points match n)\n"
      "point lookup:\n"
      "  --derived-seed=S       the derived seed reports key points by\n"
      "  --index=I              grid index (the lease currency)\n"
      "output / transport:\n"
      "  --csv                  CSV with the report header instead of JSON\n"
      "                         lines (cells or a completed, non-skipped\n"
      "                         point; byte-identical to report CSV rows)\n"
      "  --timeout-ms=N         per-frame receive deadline (default 2000)\n"
      "  --attempts=N           full-query retries, fresh connection each\n"
      "                         (default 5)\n"
      "  --jitter-seed=S        dial backoff jitter stream (default 1)\n",
      to);
}

}  // namespace

int main(int argc, char** argv) {
  run::QueryRequest req;
  run::QueryClientConfig cfg;
  bool have_connect = false;
  bool have_what = false;
  bool csv = false;

  const auto set_what = [&](const char* what) {
    if (have_what && req.what != what) {
      std::fprintf(stderr, "sweep_query: pick ONE of --progress / --cells / "
                           "--point\n");
      return false;
    }
    req.what = what;
    have_what = true;
    return true;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(stdout);
        return 0;
      } else if (auto v = run::flag_value(arg, "--connect")) {
        if (!run::parse_host_port(*v, cfg.host, cfg.port)) {
          std::fprintf(stderr, "sweep_query: bad --connect '%s'\n",
                       v->c_str());
          return 2;
        }
        have_connect = true;
      } else if (arg == "--progress") {
        if (!set_what("progress")) return 2;
      } else if (arg == "--cells") {
        if (!set_what("cells")) return 2;
      } else if (arg == "--point") {
        if (!set_what("point")) return 2;
      } else if (auto v = run::flag_value(arg, "--algorithm")) {
        req.algorithm = *v;
      } else if (auto v = run::flag_value(arg, "--family")) {
        req.family = *v;
      } else if (auto v = run::flag_value(arg, "--mix")) {
        req.mix = *v;
      } else if (auto v = run::flag_value(arg, "--n")) {
        req.n = run::parse_flag_number<std::uint32_t>(*v, "--n");
      } else if (auto v = run::flag_value(arg, "--k")) {
        req.k = run::parse_flag_number<std::uint32_t>(*v, "--k");
      } else if (auto v = run::flag_value(arg, "--f")) {
        req.f = run::parse_flag_number<std::uint32_t>(*v, "--f");
      } else if (auto v = run::flag_value(arg, "--derived-seed")) {
        req.derived_seed =
            run::parse_flag_number<std::uint64_t>(*v, "--derived-seed");
      } else if (auto v = run::flag_value(arg, "--index")) {
        req.index = run::parse_flag_number<std::uint64_t>(*v, "--index");
      } else if (arg == "--csv") {
        csv = true;
      } else if (auto v = run::flag_value(arg, "--timeout-ms")) {
        cfg.timeout_ms =
            run::parse_flag_number<std::uint32_t>(*v, "--timeout-ms");
      } else if (auto v = run::flag_value(arg, "--attempts")) {
        cfg.attempts =
            run::parse_flag_number<std::uint32_t>(*v, "--attempts", 1);
      } else if (auto v = run::flag_value(arg, "--jitter-seed")) {
        cfg.jitter_seed =
            run::parse_flag_number<std::uint64_t>(*v, "--jitter-seed");
      } else {
        std::fprintf(stderr, "sweep_query: unknown flag '%s'\n\n",
                     arg.c_str());
        usage(stderr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_query: %s\n", e.what());
    return 2;
  }
  if (!have_connect) {
    std::fprintf(stderr, "sweep_query: --connect=HOST:PORT is required\n");
    return 2;
  }
  if (req.what == "point" &&
      req.derived_seed.has_value() == req.index.has_value()) {
    std::fprintf(stderr,
                 "sweep_query: --point needs exactly one of --derived-seed "
                 "/ --index\n");
    return 2;
  }

  const auto reply = run::run_query(req, cfg);
  if (!reply) {
    std::fprintf(stderr, "sweep_query: coordinator unreachable (or kept "
                         "dropping the response)\n");
    return 5;
  }
  if (!reply->error.empty()) {
    std::fprintf(stderr, "sweep_query: %s\n", reply->error.c_str());
    return 1;
  }

  if (req.what == "progress") {
    std::cout << "{\"total\": " << reply->total
              << ", \"completed\": " << reply->completed
              << ", \"restored\": " << reply->restored
              << ", \"cells\": " << reply->cells
              << ", \"done\": " << (reply->done ? "true" : "false");
    for (const run::CoordinatorStatField& f : run::kCoordinatorStatFields)
      std::cout << ", \"" << f.name << "\": " << reply->stats.*f.member;
    std::cout << "}\n";
    return 0;
  }
  if (req.what == "point" && reply->pending) {
    std::fprintf(stderr, "sweep_query: point has no result yet\n");
    return 1;
  }
  if (csv) {
    run::write_csv_from_json(std::cout,
                             req.what == "cells" ? run::ReportRecord::kCell
                                                 : run::ReportRecord::kPoint,
                             reply->bodies);
  } else {
    for (const std::string& body : reply->bodies) std::cout << body << '\n';
  }
  return 0;
}
