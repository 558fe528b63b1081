#pragma once
// Shared command-line plumbing for the sweep front-ends (sweep_cli, sweepd,
// sweep_worker, sweep_query). The coordinator and its workers must expand
// the SAME grid from the same flags — grid_fingerprint rejects drift at the
// hello handshake, but sharing the parser removes the temptation to drift
// in the first place. sweep_cli and sweepd also share their output tail
// here: report writing, the summary and the one exit-code policy.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "run/sweep.h"

namespace bdg::run {

/// The value of `arg` when it spells `flag=value`, else nullopt.
[[nodiscard]] std::optional<std::string> flag_value(const std::string& arg,
                                                    const char* flag);

/// `text`, the value of `flag`, as a whole-string decimal in [min, max]:
/// digits only, no sign, blank or suffix. Otherwise throws
/// std::invalid_argument naming the flag and the range.
[[nodiscard]] std::uint64_t parse_flag_uint(const std::string& text,
                                            const char* flag,
                                            std::uint64_t max,
                                            std::uint64_t min = 0);
template <typename T>
[[nodiscard]] T parse_flag_number(const std::string& text, const char* flag,
                                  T min = 0) {
  return static_cast<T>(
      parse_flag_uint(text, flag, std::numeric_limits<T>::max(), min));
}

/// Outcome of parse_grid_flags: either ok (with any unrecognized argv
/// entries — including --help — in `leftover`, in order, for the caller's
/// own flags), or !ok with a printable error (no program-name prefix).
struct GridFlagsResult {
  bool ok = true;
  std::string error;
  std::vector<std::string> leftover;
  SweepSpec spec;  ///< the flags over the CLI defaults (er, n = 8,12,16)
};

/// Parse the shared grid/scenario/execution flags (--algorithms,
/// --families, --sizes, --k, --byz, --seeds, --strategy, --mix,
/// --no-clamp, --require-trivial-quotient, --common-graphs, --er-p,
/// --base-seed, --threads, --shard, --resume, --no-timing); without
/// --algorithms, every algorithm row that needs no ring.
/// Malformed values (unknown names, numbers parse_flag_number rejects,
/// i >= m shards) fail the parse; unknown flags are returned, not
/// rejected, so each front-end can layer its own flags on top.
[[nodiscard]] GridFlagsResult parse_grid_flags(int argc, char** argv);

/// Print the shared flags' help sections (grid, scenario, shared
/// execution flags). Name lists are separate so front-ends can append
/// their own sections in between.
void print_grid_flag_help(std::FILE* to);

/// Print the accepted algorithm, family and strategy name lists.
void print_grid_name_lists(std::FILE* to);

/// Parse a "HOST:PORT" (or bare "PORT", meaning 127.0.0.1) connection
/// flag value into host/port. false on a malformed or zero port — shared
/// by sweep_worker's and sweep_query's --connect so the two front-ends
/// cannot drift in address spelling.
[[nodiscard]] bool parse_host_port(const std::string& text, std::string& host,
                                   std::uint16_t& port);

// Output tail shared by sweep_cli and sweepd.

/// Report destinations ('-' = stdout, empty = not requested).
struct ReportFlags {
  std::string points_csv, cells_csv, json;
  bool quiet = false;  ///< no summary lines
};
/// Consume `arg` if it is --points-csv=, --cells-csv=, --json= or --quiet.
[[nodiscard]] bool parse_report_flag(const std::string& arg,
                                     ReportFlags& flags);
void print_report_flag_help(std::FILE* to);

/// The one exit-code policy of the sweep front-ends: 4 when a point
/// saturated 128-bit round accounting, else 1 on failed points or a report
/// that could not be written, else 3 when the sweep aborted, else 0.
[[nodiscard]] inline int sweep_exit_code(std::size_t saturated,
                                         std::size_t failed, bool write_ok,
                                         bool aborted) {
  if (saturated != 0) return 4;
  if (failed != 0 || !write_ok) return 1;
  return aborted ? 3 : 0;
}

/// Write the requested reports (the points CSV to stdout when none is);
/// print to stderr, prefixed with `prog`, the summary (unless quiet;
/// `summary_extra` goes before its seconds), the torn-line notice, one
/// bound line per (algorithm, family) whose k = n cells span at least
/// three sizes (max_bound_ratio range and fitted growth exponent; unless
/// quiet) and the saturation rejection naming the first offender; return
/// sweep_exit_code.
[[nodiscard]] int write_sweep_outputs(const char* prog,
                                      const SweepResult& result,
                                      const ReportFlags& flags,
                                      const std::string& summary_extra = {});

}  // namespace bdg::run
