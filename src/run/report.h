#pragma once
// Render SweepResult as machine-readable CSV / JSON (per-point and
// per-cell), for EXPERIMENTS.md tables, plotting scripts and CI artifacts —
// plus the JSON-lines checkpoint format resumable sweeps persist per-point
// results through.
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "run/sweep.h"
#include "util/flat_hash.h"

namespace bdg::run {

/// Adversary mix as a stable string: strategy names joined by '+'
/// ("map_liar+crash"); empty mix = "-". Round-trips via mix_from_string.
[[nodiscard]] std::string mix_to_string(
    const std::vector<core::ByzStrategy>& mix);

/// Inverse of mix_to_string; nullopt if any component name is unknown.
[[nodiscard]] std::optional<std::vector<core::ByzStrategy>> mix_from_string(
    const std::string& text);

// Report columns are declared once, as ordered tables in report.cpp (one
// row per column: name, kind, value printer); every writer below walks
// them, so a new column is one new row.

/// One CSV row per non-skipped point, under a header of the point
/// columns: the coordinates algorithm ... derived_seed, then the outcome
/// ok ... seconds.
void write_points_csv(std::ostream& os, const SweepResult& result);

/// One CSV row per (algorithm, family, n, k, f, mix) cell aggregate.
void write_cells_csv(std::ostream& os, const SweepResult& result);

/// The cell's max_bound_ratio column: max_rounds over its algorithm row's
/// claimed round bound at n (core::AlgorithmInfo::round_bound).
[[nodiscard]] double max_bound_ratio(const CellAggregate& c);

/// One point as a flat JSON object (no surrounding whitespace) — the
/// exact per-point object write_json emits, shared with the sweepd query
/// wire so query responses are byte-identical to report fragments.
/// Skipped points carry skipped/skip_reason (and saturated) instead of
/// the outcome columns; failed points add their verifier detail.
void write_point_json(std::ostream& os, const PointResult& p);

/// One cell aggregate as a flat JSON object — same sharing contract.
void write_cell_json(std::ostream& os, const CellAggregate& c);

/// Which record a report body holds.
enum class ReportRecord : std::uint8_t { kPoint, kCell };

/// The CSV write_points_csv / write_cells_csv would print for the records
/// behind `bodies` (write_point_json / write_cell_json objects): the
/// header, then one row per body by raw-token passthrough — numbers are
/// copied verbatim (no parse/re-print drift), strings unescaped and
/// CSV-quoted. A body lacking a column (a skipped point) has no row.
void write_csv_from_json(std::ostream& os, ReportRecord record,
                         const std::vector<std::string>& bodies);

/// Full result (points incl. skips, cells, wall time) as a JSON document.
void write_json(std::ostream& os, const SweepResult& result);

// ---------------------------------------------------------------------------
// Resumable-sweep checkpoints (JSON lines, one self-contained object per
// completed point). The record's keys are declared once, as an ordered
// table in report.cpp (kCheckpointColumns: key, printer and parser per
// row) that both the writer and the parser walk. The parser accepts a line
// only if re-emitting what it parsed reproduces the line byte for byte
// (trailing spaces and '\r' aside), so it accepts exactly what the writer
// emits: a torn tail, two records spliced into one line, or reordered,
// duplicated or extra keys are malformed. Every field of PointResult —
// including RunStats and wall seconds — round-trips bit-exactly.
// ---------------------------------------------------------------------------

/// One parsed checkpoint line: the point's result plus the
/// run::spec_fingerprint of the sweep that produced it.
struct CheckpointEntry {
  PointResult result;
  std::uint64_t spec = 0;
};

/// Append one checkpoint line for a completed (or structurally skipped)
/// point, stamped with the producing spec's fingerprint.
/// Newline-terminated; the caller flushes.
void write_checkpoint_line(std::ostream& os, const PointResult& p,
                           std::uint64_t spec_fingerprint);

/// Parse one checkpoint line; nullopt on malformed/foreign lines (a
/// truncated tail line from a crashed run is ignored, not fatal) and on
/// any line the writer would not have emitted byte for byte.
[[nodiscard]] std::optional<CheckpointEntry> parse_checkpoint_line(
    const std::string& line);

/// Tally of what load_checkpoint saw, so callers can surface torn tails
/// loudly instead of relying on parse_checkpoint_line's silent nullopt.
struct CheckpointLoadStats {
  std::size_t loaded = 0;     ///< usable entries returned
  std::size_t malformed = 0;  ///< torn/truncated/garbage lines skipped
  std::size_t foreign = 0;    ///< well-formed, but different spec fingerprint
};

/// Read a whole checkpoint stream into derived_seed -> PointResult,
/// keeping only entries whose spec fingerprint matches — results recorded
/// under different sweep knobs must re-run, not resurface. Later
/// duplicates win (append-only files may re-record a point). A truncated
/// final line (crash mid-append) is skipped and counted in
/// `stats->malformed`; run_sweep surfaces that count in the report.
/// Returns a util::FlatMap — lookup-only by design: restore matches grid
/// points against it by derived seed; nothing may iterate a checkpoint
/// load (grid order is the only order).
[[nodiscard]] util::FlatMap<std::uint64_t, PointResult> load_checkpoint(
    std::istream& is, std::uint64_t spec_fingerprint,
    CheckpointLoadStats* stats = nullptr);

/// Append one checkpoint line and flush, then verify the stream is still
/// good: a full disk or closed descriptor becomes a thrown error naming
/// `path`, never a silently lost point. Shared by run_sweep and the sweepd
/// coordinator's merge path.
void append_checkpoint_line(std::ostream& os, const std::string& path,
                            const PointResult& p,
                            std::uint64_t spec_fingerprint);

}  // namespace bdg::run
