#include "run/report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "util/json_mini.h"

namespace bdg::run {
namespace {

/// Doubles that must survive a write -> parse -> write cycle bit-exactly
/// (checkpoint seconds) print with max_digits10 significant digits.
std::string exact_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  return buf;
}

/// Round counts are exact decimal magnitudes up to 2^128-1; a malformed or
/// overflowing token fails the whole line (foreign data must re-run).
bool find_round(const std::string& line, const char* key, core::Round& out) {
  std::string raw;
  if (!json::find_raw(line, key, raw)) return false;
  const auto parsed = core::Round::from_string(raw);
  if (!parsed) return false;
  out = *parsed;
  return true;
}

/// Quote a field when it contains CSV metacharacters (the ring-baseline
/// algorithm name carries a literal comma in its citation brackets).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// How a column's value is spelled: text is CSV-quoted / JSON-escaped, a
/// number prints as the stream formats it, and a flag is 1/0 in CSV and
/// true/false in JSON.
enum class ColumnKind : std::uint8_t { kText, kNumber, kFlag };
using enum ColumnKind;

/// Where a column value is written, and in which format. The value's type
/// picks its spelling; a row's kind names the same one.
struct Out {
  std::ostream& os;
  bool json;
  void operator()(const std::string& text) const {
    if (json)
      os << '"' << json::escape(text) << '"';
    else
      os << csv_field(text);
  }
  void operator()(bool flag) const {
    os << (json ? (flag ? "true" : "false") : (flag ? "1" : "0"));
  }
  template <typename Number>
  void operator()(const Number& number) const {
    os << number;
  }
};

template <typename Record>
struct Column {
  const char* name;
  ColumnKind kind;
  void (*print)(Out, const Record&);
};

template <typename Record>
using Columns = std::span<const Column<Record>>;

/// Prints the field at a member path, e.g. field<&P::point, &S::n>.
template <auto... path, typename Record>
void field(Out out, const Record& r) {
  out((r .* ... .* path));
}

using P = PointResult;
using S = SweepPoint;
using R = sim::RunStats;
using C = CellAggregate;

/// Point columns: the coordinates (the first kPointCoordinates rows), then
/// the outcome, which skipped points do not have. k is reported resolved:
/// a hand-built point may spell k = n as 0.
constexpr Column<P> kPointColumns[] = {
    {"algorithm", kText,
     [](Out o, const P& p) { o(core::to_string(p.point.algorithm)); }},
    {"family", kText, field<&P::point, &S::family>},
    {"n", kNumber, field<&P::point, &S::n>},
    {"k", kNumber,
     [](Out o, const P& p) { o(p.point.k == 0 ? p.point.n : p.point.k); }},
    {"f", kNumber, field<&P::point, &S::f>},
    {"seed", kNumber, field<&P::point, &S::seed>},
    {"strategy", kText,
     [](Out o, const P& p) { o(core::to_string(p.point.strategy)); }},
    {"mix", kText, [](Out o, const P& p) { o(mix_to_string(p.point.mix)); }},
    {"derived_seed", kNumber, field<&P::derived_seed>},
    {"ok", kFlag, field<&P::ok>},
    {"rounds", kNumber, field<&P::stats, &R::rounds>},
    {"simulated_rounds", kNumber, field<&P::stats, &R::simulated_rounds>},
    {"moves", kNumber, field<&P::stats, &R::moves>},
    {"messages", kNumber, field<&P::stats, &R::messages>},
    {"planned_rounds", kNumber, field<&P::planned_rounds>},
    {"seconds", kNumber, field<&P::seconds>},
};
constexpr std::size_t kPointCoordinates = 9;

/// Cell columns: the cell coordinates, then the aggregates over its seeds
/// and the worst seed's rounds over the row's claimed bound.
constexpr Column<C> kCellColumns[] = {
    {"algorithm", kText,
     [](Out o, const C& c) { o(core::to_string(c.algorithm)); }},
    {"family", kText, field<&C::family>},
    {"n", kNumber, field<&C::n>},
    {"k", kNumber, [](Out o, const C& c) { o(c.k == 0 ? c.n : c.k); }},
    {"f", kNumber, field<&C::f>},
    {"mix", kText, [](Out o, const C& c) { o(mix_to_string(c.mix)); }},
    {"runs", kNumber, field<&C::runs>},
    {"dispersed", kNumber, field<&C::dispersed>},
    {"min_rounds", kNumber, field<&C::min_rounds>},
    {"max_rounds", kNumber, field<&C::max_rounds>},
    {"mean_rounds", kNumber, field<&C::mean_rounds>},
    {"mean_simulated", kNumber, field<&C::mean_simulated>},
    {"mean_moves", kNumber, field<&C::mean_moves>},
    {"mean_messages", kNumber, field<&C::mean_messages>},
    {"mean_seconds", kNumber, field<&C::mean_seconds>},
    {"max_bound_ratio", kNumber,
     [](Out o, const C& c) { o(max_bound_ratio(c)); }},
};

template <typename Record>
void write_csv_header(std::ostream& os, Columns<Record> columns) {
  for (const Column<Record>& c : columns)
    os << (&c == columns.data() ? "" : ",") << c.name;
  os << '\n';
}

/// Each column's value after `sep`: comma-separated in CSV; in JSON after
/// its `"name": ` key, where a first sep of "{" opens the object.
template <typename Record>
void write_fields(Out out, Columns<Record> columns, const Record& r,
                  const char* sep) {
  for (const Column<Record>& c : columns) {
    out.os << sep;
    sep = out.json ? ", " : ",";
    if (out.json) out.os << '"' << c.name << "\": ";
    c.print(out, r);
  }
}

/// One report-JSON body's CSV row: each column's raw token, re-spelled by
/// its kind. Empty when the body lacks a column (a skipped point).
template <typename Record>
std::string csv_row_from_json(Columns<Record> columns,
                              const std::string& body) {
  std::ostringstream row;
  const Out csv{row, false};
  std::string raw;
  for (const Column<Record>& c : columns) {
    if (!json::find_raw(body, c.name, raw)) return "";
    if (&c != columns.data()) row << ',';
    switch (c.kind) {
      case kText: csv(json::unescape(raw)); break;
      case kNumber: row << raw; break;
      case kFlag: csv(raw == "true"); break;
    }
  }
  return row.str();
}

template <typename Record>
void csv_from_json(std::ostream& os, Columns<Record> columns,
                   const std::vector<std::string>& bodies) {
  write_csv_header(os, columns);
  for (const std::string& body : bodies) {
    const std::string row = csv_row_from_json(columns, body);
    if (!row.empty()) os << row << '\n';
  }
}

}  // namespace

double max_bound_ratio(const CellAggregate& c) {
  return c.max_rounds.to_double() /
         core::algorithm_info(c.algorithm).round_bound(c.n);
}

std::string mix_to_string(const std::vector<core::ByzStrategy>& mix) {
  if (mix.empty()) return "-";
  std::string out;
  for (const core::ByzStrategy s : mix) {
    if (!out.empty()) out += '+';
    out += core::to_string(s);
  }
  return out;
}

std::optional<std::vector<core::ByzStrategy>> mix_from_string(
    const std::string& text) {
  std::vector<core::ByzStrategy> mix;
  if (text == "-" || text.empty()) return mix;
  std::stringstream ss(text);
  std::string name;
  while (std::getline(ss, name, '+')) {
    const auto s = core::strategy_from_string(name);
    if (!s) return std::nullopt;
    mix.push_back(*s);
  }
  return mix;
}

void write_points_csv(std::ostream& os, const SweepResult& result) {
  write_csv_header<P>(os, kPointColumns);
  for (const PointResult& p : result.points) {
    if (p.skipped) continue;
    write_fields<P>({os, false}, kPointColumns, p, "");
    os << '\n';
  }
}

void write_cells_csv(std::ostream& os, const SweepResult& result) {
  write_csv_header<C>(os, kCellColumns);
  for (const CellAggregate& c : result.cells) {
    write_fields<C>({os, false}, kCellColumns, c, "");
    os << '\n';
  }
}

void write_point_json(std::ostream& os, const PointResult& p) {
  const Columns<P> columns = kPointColumns;
  write_fields({os, true}, columns.first(kPointCoordinates), p, "{");
  if (p.skipped) {
    os << ", \"skipped\": true, \"skip_reason\": \""
       << json::escape(p.skip_reason) << "\"";
    if (p.saturated) os << ", \"saturated\": true";
  } else {
    write_fields({os, true}, columns.subspan(kPointCoordinates), p, ", ");
    if (!p.ok) os << ", \"detail\": \"" << json::escape(p.detail) << "\"";
  }
  os << '}';
}

void write_cell_json(std::ostream& os, const CellAggregate& c) {
  write_fields<C>({os, true}, kCellColumns, c, "{");
  os << '}';
}

void write_csv_from_json(std::ostream& os, ReportRecord record,
                         const std::vector<std::string>& bodies) {
  if (record == ReportRecord::kCell)
    csv_from_json<C>(os, kCellColumns, bodies);
  else
    csv_from_json<P>(os, kPointColumns, bodies);
}

void write_json(std::ostream& os, const SweepResult& result) {
  os << "{\n  \"wall_seconds\": " << result.wall_seconds
     << ",\n  \"torn_checkpoint_lines\": " << result.torn_checkpoint_lines
     << ",\n  \"points\": [";
  bool first = true;
  for (const PointResult& p : result.points) {
    os << (first ? "\n" : ",\n") << "    ";
    write_point_json(os, p);
    first = false;
  }
  os << "\n  ],\n  \"cells\": [";
  first = true;
  for (const CellAggregate& c : result.cells) {
    os << (first ? "\n" : ",\n") << "    ";
    write_cell_json(os, c);
    first = false;
  }
  os << "\n  ]\n}\n";
}

void write_checkpoint_line(std::ostream& os, const PointResult& p,
                           std::uint64_t spec_fingerprint) {
  // v2: `rounds`/`planned_rounds` are exact 128-bit decimals and the
  // `saturated` flag is recorded. v1 lines (64-bit rounds) parse to
  // nullopt on load, so checkpoints written before the Round widening
  // re-run instead of silently importing possibly-capped counts.
  os << "{\"v\": 2, \"spec\": " << spec_fingerprint << ", \"algorithm\": \""
     << json::escape(core::to_string(p.point.algorithm)) << "\", \"family\": \""
     << json::escape(p.point.family) << "\", \"n\": " << p.point.n
     << ", \"k\": " << p.point.k << ", \"f\": " << p.point.f
     << ", \"seed\": " << p.point.seed << ", \"strategy\": \""
     << json::escape(core::to_string(p.point.strategy)) << "\", \"mix\": \""
     << json::escape(mix_to_string(p.point.mix))
     << "\", \"derived_seed\": " << p.derived_seed
     << ", \"skipped\": " << (p.skipped ? "true" : "false")
     << ", \"skip_reason\": \"" << json::escape(p.skip_reason)
     << "\", \"saturated\": " << (p.saturated ? "true" : "false")
     << ", \"ok\": " << (p.ok ? "true" : "false") << ", \"detail\": \""
     << json::escape(p.detail) << "\", \"rounds\": " << p.stats.rounds
     << ", \"simulated_rounds\": " << p.stats.simulated_rounds
     << ", \"resumes\": " << p.stats.resumes
     << ", \"moves\": " << p.stats.moves
     << ", \"messages\": " << p.stats.messages << ", \"all_honest_done\": "
     << (p.stats.all_honest_done ? "true" : "false")
     << ", \"planned_rounds\": " << p.planned_rounds << ", \"seconds\": "
     << exact_double(p.seconds) << "}\n";
}

void append_checkpoint_line(std::ostream& os, const std::string& path,
                            const PointResult& p,
                            std::uint64_t spec_fingerprint) {
  write_checkpoint_line(os, p, spec_fingerprint);
  os.flush();
  if (!os.good())
    throw std::runtime_error(
        "checkpoint append failed (disk full or descriptor closed?): " +
        path);
}

std::optional<CheckpointEntry> parse_checkpoint_line(const std::string& line) {
  // A complete record is one whole object: it must both open with '{' and
  // end with '}' (modulo trailing whitespace). A torn tail from a crash
  // mid-write fails here even when the truncated prefix happens to contain
  // every key and a '}' inside an escaped string — prefix parses must never
  // resurface as results.
  std::size_t end = line.size();
  while (end > 0 && (line[end - 1] == ' ' || line[end - 1] == '\r')) --end;
  if (end == 0 || line.front() != '{' || line[end - 1] != '}')
    return std::nullopt;
  std::uint64_t version = 0;
  if (!json::find_u64(line, "v", version) || version != 2) return std::nullopt;

  CheckpointEntry entry;
  PointResult& p = entry.result;
  std::string algorithm, strategy, mix_text;
  if (!json::find_u64(line, "spec", entry.spec) ||
      !json::find_string(line, "algorithm", algorithm) ||
      !json::find_string(line, "family", p.point.family) ||
      !json::find_u32(line, "n", p.point.n) ||
      !json::find_u32(line, "k", p.point.k) ||
      !json::find_u32(line, "f", p.point.f) ||
      !json::find_u64(line, "seed", p.point.seed) ||
      !json::find_string(line, "strategy", strategy) ||
      !json::find_string(line, "mix", mix_text) ||
      !json::find_u64(line, "derived_seed", p.derived_seed) ||
      !json::find_bool(line, "skipped", p.skipped) ||
      !json::find_string(line, "skip_reason", p.skip_reason) ||
      !json::find_bool(line, "saturated", p.saturated) ||
      !json::find_bool(line, "ok", p.ok) ||
      !json::find_string(line, "detail", p.detail) ||
      !find_round(line, "rounds", p.stats.rounds) ||
      !json::find_u64(line, "simulated_rounds", p.stats.simulated_rounds) ||
      !json::find_u64(line, "resumes", p.stats.resumes) ||
      !json::find_u64(line, "moves", p.stats.moves) ||
      !json::find_u64(line, "messages", p.stats.messages) ||
      !json::find_bool(line, "all_honest_done", p.stats.all_honest_done) ||
      !find_round(line, "planned_rounds", p.planned_rounds) ||
      !json::find_double(line, "seconds", p.seconds))
    return std::nullopt;

  const auto a = core::algorithm_from_string(algorithm);
  const auto s = core::strategy_from_string(strategy);
  const auto mix = mix_from_string(mix_text);
  if (!a || !s || !mix) return std::nullopt;
  p.point.algorithm = *a;
  p.point.strategy = *s;
  p.point.mix = *mix;
  return entry;
}

util::FlatMap<std::uint64_t, PointResult> load_checkpoint(
    std::istream& is, std::uint64_t spec_fingerprint,
    CheckpointLoadStats* stats) {
  util::FlatMap<std::uint64_t, PointResult> out;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank separators are not torn records
    auto entry = parse_checkpoint_line(line);
    if (!entry) {
      // A torn tail (crash mid-write_checkpoint_line) or garbage: the point
      // re-runs, and the caller surfaces the count — silent nullopt must
      // not be the only witness of a truncated record.
      if (stats != nullptr) ++stats->malformed;
      continue;
    }
    if (entry->spec != spec_fingerprint) {
      if (stats != nullptr) ++stats->foreign;
      continue;  // other sweep knobs: must re-run, not resurface
    }
    if (stats != nullptr) ++stats->loaded;
    out[entry->result.derived_seed] = std::move(entry->result);
  }
  return out;
}

}  // namespace bdg::run
