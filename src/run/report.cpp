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
#include <string_view>
#include <type_traits>

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
/// picks its spelling; a row's kind names the same one. Algorithms,
/// strategies and mixes are text under their report names.
struct Out {
  std::ostream& os;
  bool json;
  void operator()(const std::string& text) const {
    if (json)
      os << '"' << json::escape(text) << '"';
    else
      os << csv_field(text);
  }
  void operator()(core::Algorithm a) const { (*this)(core::to_string(a)); }
  void operator()(core::ByzStrategy s) const { (*this)(core::to_string(s)); }
  void operator()(const std::vector<core::ByzStrategy>& mix) const {
    (*this)(mix_to_string(mix));
  }
  void operator()(bool flag) const {
    os << (json ? (flag ? "true" : "false") : (flag ? "1" : "0"));
  }
  template <typename Number>
  void operator()(const Number& number) const {
    os << number;
  }
};

/// A column: its name, kind and value printer, plus (checkpoint rows only)
/// the strict parser that reads the value at its key back into a record.
template <typename Record>
struct Column {
  const char* name;
  ColumnKind kind;
  void (*print)(Out, const Record&);
  bool (*read)(const std::string& line, const char* key, Record&) = nullptr;
};

template <typename Record>
using Columns = std::span<const Column<Record>>;

/// Prints the field at a member path, e.g. field<&P::point, &S::n>.
template <auto... path, typename Record>
void field(Out out, const Record& r) {
  out((r .* ... .* path));
}

/// find_string through a from-string parser (a round count, algorithm,
/// strategy or mix): an unparseable value fails the whole line.
template <auto from_string>
bool find_named(const std::string& line, const char* key,
                std::remove_cvref_t<decltype(*from_string({}))>& out) {
  std::string text;
  if (!json::find_string(line, key, text)) return false;
  const auto value = from_string(text);
  if (value) out = *value;
  return value.has_value();
}

using json::find_bool, json::find_double, json::find_string, json::find_u32,
    json::find_u64;
constexpr auto find_round = find_named<core::Round::from_string>;

using P = PointResult;
using S = SweepPoint;
using R = sim::RunStats;
using C = CellAggregate;

/// Point columns: the coordinates (the first kPointCoordinates rows), then
/// the outcome, which skipped points do not have. k is reported resolved:
/// a hand-built point may spell k = n as 0.
constexpr Column<P> kPointColumns[] = {
    {"algorithm", kText, field<&P::point, &S::algorithm>},
    {"family", kText, field<&P::point, &S::family>},
    {"n", kNumber, field<&P::point, &S::n>},
    {"k", kNumber,
     [](Out o, const P& p) { o(p.point.k == 0 ? p.point.n : p.point.k); }},
    {"f", kNumber, field<&P::point, &S::f>},
    {"seed", kNumber, field<&P::point, &S::seed>},
    {"strategy", kText, field<&P::point, &S::strategy>},
    {"mix", kText, field<&P::point, &S::mix>},
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
    {"algorithm", kText, field<&C::algorithm>},
    {"family", kText, field<&C::family>},
    {"n", kNumber, field<&C::n>},
    {"k", kNumber, [](Out o, const C& c) { o(c.k == 0 ? c.n : c.k); }},
    {"f", kNumber, field<&C::f>},
    {"mix", kText, field<&C::mix>},
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

/// A checkpoint row: the member at a path, printed by its type (unless
/// `print` says otherwise) and read back by `find`, that type's strict
/// parser.
template <auto find, auto... path>
constexpr Column<P> stored(const char* name, ColumnKind kind,
                           void (*print)(Out, const P&) = field<path...>) {
  return {name, kind, print,
          [](const std::string& line, const char* key, P& p) {
            return find(line, key, (p .* ... .* path));
          }};
}

/// Checkpoint body columns (v2), after the `"v"`/`"spec"` head. Separate
/// from the point table on purpose: k is stored raw, skipped points keep
/// every outcome field, resumes/all_honest_done are recorded, and seconds
/// print at max_digits10 so they round-trip bit-exactly.
constexpr Column<P> kCheckpointColumns[] = {
    stored<find_named<core::algorithm_from_string>, &P::point,
           &S::algorithm>("algorithm", kText),
    stored<find_string, &P::point, &S::family>("family", kText),
    stored<find_u32, &P::point, &S::n>("n", kNumber),
    stored<find_u32, &P::point, &S::k>("k", kNumber),
    stored<find_u32, &P::point, &S::f>("f", kNumber),
    stored<find_u64, &P::point, &S::seed>("seed", kNumber),
    stored<find_named<core::strategy_from_string>, &P::point,
           &S::strategy>("strategy", kText),
    stored<find_named<mix_from_string>, &P::point, &S::mix>("mix", kText),
    stored<find_u64, &P::derived_seed>("derived_seed", kNumber),
    stored<find_bool, &P::skipped>("skipped", kFlag),
    stored<find_string, &P::skip_reason>("skip_reason", kText),
    stored<find_bool, &P::saturated>("saturated", kFlag),
    stored<find_bool, &P::ok>("ok", kFlag),
    stored<find_string, &P::detail>("detail", kText),
    stored<find_round, &P::stats, &R::rounds>("rounds", kNumber),
    stored<find_u64, &P::stats, &R::simulated_rounds>("simulated_rounds",
                                                      kNumber),
    stored<find_u64, &P::stats, &R::resumes>("resumes", kNumber),
    stored<find_u64, &P::stats, &R::moves>("moves", kNumber),
    stored<find_u64, &P::stats, &R::messages>("messages", kNumber),
    stored<find_bool, &P::stats, &R::all_honest_done>("all_honest_done",
                                                      kFlag),
    stored<find_round, &P::planned_rounds>("planned_rounds", kNumber),
    stored<find_double, &P::seconds>(
        "seconds", kNumber,
        [](Out o, const P& p) { o.os << exact_double(p.seconds); }),
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
  os << "{\"v\": 2, \"spec\": " << spec_fingerprint;
  write_fields<P>({os, true}, kCheckpointColumns, p, ", ");
  os << "}\n";
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
  CheckpointEntry entry;
  std::uint64_t version = 0;
  if (!json::find_u64(line, "v", version) || version != 2 ||
      !json::find_u64(line, "spec", entry.spec))
    return std::nullopt;
  for (const Column<P>& c : kCheckpointColumns)
    if (!c.read(line, c.name, entry.result)) return std::nullopt;

  // Canonical rule: the line must be exactly what the writer emits for the
  // parsed entry (trailing spaces and '\r' aside). A torn tail, two
  // records spliced into one line, reordered, duplicated or extra keys and
  // altered spacing all fail here, so a parse never mixes two points.
  std::string_view body = line;
  while (!body.empty() && (body.back() == ' ' || body.back() == '\r'))
    body.remove_suffix(1);
  std::ostringstream canonical;
  write_checkpoint_line(canonical, entry.result, entry.spec);
  std::string_view expected = canonical.view();
  expected.remove_suffix(1);  // the writer's '\n'
  if (body != expected) return std::nullopt;
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
