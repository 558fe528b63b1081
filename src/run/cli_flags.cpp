#include "run/cli_flags.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "run/report.h"
#include "util/json_mini.h"
#include "util/stats.h"

namespace bdg::run {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

double parse_flag_double(const std::string& text, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    throw std::invalid_argument("bad value '" + text + "' for " + flag);
  return value;
}

bool write_report(const char* prog, const std::string& path,
                  const SweepResult& result,
                  void (*write)(std::ostream&, const SweepResult&)) {
  if (path.empty()) return true;  // not requested
  if (path == "-") {
    write(std::cout, result);
    return true;
  }
  std::ofstream os(path);
  write(os, result);
  os.flush();
  if (!os) std::fprintf(stderr, "%s: cannot write %s\n", prog, path.c_str());
  return static_cast<bool>(os);
}

/// One stderr line per (algorithm, family) whose k = n cells span at least
/// three sizes: the range of their max_bound_ratio, and the growth exponent
/// of max_rounds in n beside the row's claimed bound.
void print_bound_fits(const char* prog, const SweepResult& result) {
  struct Series {
    std::vector<double> n, rounds, ratios;
  };
  std::map<std::pair<core::Algorithm, std::string>, Series> rows;
  for (const CellAggregate& c : result.cells) {
    if (c.k != 0 && c.k != c.n) continue;
    Series& s = rows[{c.algorithm, c.family}];
    s.n.push_back(c.n);
    s.rounds.push_back(c.max_rounds.to_double());
    s.ratios.push_back(max_bound_ratio(c));
  }
  for (const auto& [row, s] : rows) {
    std::set<double> sizes(s.n.begin(), s.n.end());
    if (sizes.size() < 3) continue;
    const auto [lo, hi] = std::minmax_element(s.ratios.begin(), s.ratios.end());
    const PowerFit fit = fit_power_law(s.n, s.rounds);
    std::fprintf(stderr,
                 "[%s: %s on %s: max_rounds/%s in %.4g..%.4g, fitted "
                 "rounds ~ n^%.2f (R^2 = %.3f) over %zu sizes]\n",
                 prog, core::to_string(row.first).c_str(), row.second.c_str(),
                 core::algorithm_info(row.first).bound_name, *lo, *hi,
                 fit.exponent, fit.r2, sizes.size());
  }
}

}  // namespace

std::optional<std::string> flag_value(const std::string& arg,
                                      const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (arg.compare(0, len, flag) == 0 && arg.size() > len && arg[len] == '=')
    return arg.substr(len + 1);
  return std::nullopt;
}

std::uint64_t parse_flag_uint(const std::string& text, const char* flag,
                              std::uint64_t max, std::uint64_t min) {
  const std::optional<std::uint64_t> value = json::parse_decimal(text);
  if (!value || *value < min || *value > max)
    throw std::invalid_argument("bad value '" + text + "' for " + flag +
                                " (want an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "])");
  return *value;
}

GridFlagsResult parse_grid_flags(int argc, char** argv) {
  GridFlagsResult res;
  SweepSpec& spec = res.spec;
  spec.families = {"er"};  // the CLI defaults, not the library's
  spec.sizes = {8, 12, 16};
  const auto fail = [&res](std::string message) {
    res.ok = false;
    res.error = std::move(message);
    return res;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (auto v = flag_value(arg, "--algorithms")) {
        for (const std::string& name : split(*v, ',')) {
          const std::size_t before = spec.algorithms.size();
          for (const core::AlgorithmInfo& row : core::algorithm_table())
            if (name == "all" || name == row.cli_name)
              spec.algorithms.push_back(row.algorithm);
          if (spec.algorithms.size() == before)
            return fail("unknown algorithm '" + name + "'");
        }
      } else if (auto v = flag_value(arg, "--families")) {
        spec.families.clear();
        for (const std::string& name : split(*v, ',')) {
          if (name == "all") {
            const auto& known = known_families();
            spec.families.insert(spec.families.end(), known.begin(),
                                 known.end());
          } else {
            spec.families.push_back(name);  // expand_grid validates
          }
        }
      } else if (auto v = flag_value(arg, "--sizes")) {
        spec.sizes.clear();
        for (const std::string& n : split(*v, ','))
          spec.sizes.push_back(parse_flag_number<std::uint32_t>(n, "--sizes"));
      } else if (auto v = flag_value(arg, "--k")) {
        for (const std::string& k : split(*v, ','))
          spec.robot_counts.push_back(
              parse_flag_number<std::uint32_t>(k, "--k"));
      } else if (auto v = flag_value(arg, "--byz")) {
        for (const std::string& f : split(*v, ','))
          spec.byzantine_counts.push_back(
              parse_flag_number<std::uint32_t>(f, "--byz"));
      } else if (auto v = flag_value(arg, "--seeds")) {
        spec.seeds.clear();
        for (const std::string& s : split(*v, ','))
          spec.seeds.push_back(parse_flag_number<std::uint64_t>(s, "--seeds"));
      } else if (auto v = flag_value(arg, "--strategy")) {
        const auto s = core::strategy_from_string(*v);
        if (!s) return fail("unknown strategy '" + *v + "'");
        spec.strategy = *s;
        spec.strategy_follows_algorithm = false;
      } else if (auto v = flag_value(arg, "--mix")) {
        for (const std::string& text : split(*v, ',')) {
          const auto mix = mix_from_string(text);
          if (!mix) return fail("unknown strategy in mix '" + text + "'");
          spec.strategy_mixes.push_back(*mix);
        }
      } else if (auto v = flag_value(arg, "--shard")) {
        const std::size_t slash = v->find('/');
        if (slash == std::string::npos)
          return fail("--shard wants i/m, got '" + *v + "'");
        spec.shard_index =
            parse_flag_number<unsigned>(v->substr(0, slash), "--shard");
        spec.shard_count =
            parse_flag_number<unsigned>(v->substr(slash + 1), "--shard");
        if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count)
          return fail("--shard needs i < m, got '" + *v + "'");
      } else if (auto v = flag_value(arg, "--resume")) {
        spec.checkpoint_path = *v;
      } else if (arg == "--no-timing") {
        spec.measure_seconds = false;
      } else if (arg == "--no-clamp") {
        spec.clamp_f_to_tolerance = false;
      } else if (arg == "--require-trivial-quotient") {
        spec.require_trivial_quotient = true;
      } else if (arg == "--common-graphs") {
        spec.common_graphs = true;
      } else if (auto v = flag_value(arg, "--er-p")) {
        // A probability; <= 0 asks for the connectivity threshold.
        const double p = parse_flag_double(*v, "--er-p");
        if (!std::isfinite(p) || p > 1)
          return fail("bad value '" + *v +
                      "' for --er-p (want a probability <= 1; <= 0 means "
                      "the connectivity threshold)");
        spec.er_edge_probability = p;
      } else if (auto v = flag_value(arg, "--base-seed")) {
        spec.base_seed = parse_flag_number<std::uint64_t>(*v, "--base-seed");
      } else if (auto v = flag_value(arg, "--threads")) {
        spec.threads = parse_flag_number<unsigned>(*v, "--threads");
      } else {
        res.leftover.push_back(arg);
      }
    }
  } catch (const std::exception& e) {
    return fail(e.what());  // a malformed number, naming its flag
  }
  if (spec.algorithms.empty())  // the general-graph default
    for (const core::AlgorithmInfo& row : core::algorithm_table())
      if (row.graph != core::GraphNeed::kRing)
        spec.algorithms.push_back(row.algorithm);
  return res;
}

void print_grid_flag_help(std::FILE* to) {
  std::fputs(
      "grid:\n"
      "  --algorithms=a,b,...   algorithms to sweep, or 'all' (default: all\n"
      "                         general-graph algorithms, no ring-baseline)\n"
      "  --families=f,g,...     graph families, or 'all' (default: er)\n"
      "  --sizes=n1,n2,...      node counts (default: 8,12,16)\n"
      "  --k=k1,k2,...          robot counts (Theorem 8 axis; default: k=n;\n"
      "                         0 means k=n; infeasible (k,n,f) points are\n"
      "                         recorded as structured skips)\n"
      "  --byz=f1,f2,...        Byzantine counts (default: per-algorithm\n"
      "                         maximum claimed tolerance)\n"
      "  --seeds=s1,s2,...      grid seeds, one repetition each (default: 1)\n"
      "scenario:\n"
      "  --strategy=name        fixed adversary for all algorithms (default:\n"
      "                         per-algorithm as the e2e suite chooses)\n"
      "  --mix=a+b,c+d,...      heterogeneous adversary mixes ('+'-joined\n"
      "                         strategy names; each mix adds a grid axis).\n"
      "                         A mix is a multiset: it is canonicalized\n"
      "                         (sorted), then Byzantine robot i runs\n"
      "                         mix[i % len] of the canonical order\n"
      "  --no-clamp             keep f values beyond an algorithm's tolerance\n"
      "  --require-trivial-quotient  restrict graphs to all-distinct views\n"
      "  --common-graphs        share the graph across algorithms and f per\n"
      "                         (family, n, seed) cell\n"
      "  --er-p=P               ER edge probability, at most 1 (<=0:\n"
      "                         connectivity threshold; default 0.45)\n"
      "  --base-seed=S          reseed the whole sweep\n"
      "execution:\n"
      "  --threads=N            worker threads (default: hardware)\n"
      "  --shard=i/m            run only stripe i of m of the grid (union\n"
      "                         of all stripes = the full grid)\n"
      "  --resume=PATH          JSON-lines checkpoint: completed points are\n"
      "                         loaded instead of re-run, new ones appended\n"
      "  --no-timing            zero all seconds fields: reports become a\n"
      "                         pure function of the grid (resume/shard and\n"
      "                         distributed conformance diffs run in this\n"
      "                         mode)\n",
      to);
}

void print_grid_name_lists(std::FILE* to) {
  std::fputs("algorithm names:\n", to);
  for (const core::AlgorithmInfo& row : core::algorithm_table())
    std::fprintf(to, "  %s\n", row.cli_name);
  std::fputs("family names:\n", to);
  for (const std::string& family : known_families())
    std::fprintf(to, "  %s\n", family.c_str());
  std::fputs("strategy names:\n", to);
  std::vector<core::ByzStrategy> strategies = core::weak_strategies();
  strategies.push_back(core::ByzStrategy::kSpoofer);
  for (const core::ByzStrategy s : strategies)
    std::fprintf(to, "  %s\n", core::to_string(s).c_str());
}

bool parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port) {
  std::string host_part = "127.0.0.1";
  std::string port_part = text;
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    host_part = text.substr(0, colon);
    port_part = text.substr(colon + 1);
    if (host_part.empty()) return false;
  }
  const std::optional<std::uint64_t> value = json::parse_decimal(port_part);
  if (!value || *value == 0 || *value > 65535) return false;
  host = host_part;
  port = static_cast<std::uint16_t>(*value);
  return true;
}

bool parse_report_flag(const std::string& arg, ReportFlags& flags) {
  for (const auto& [flag, path] : {std::pair{"--points-csv", &flags.points_csv},
                                   std::pair{"--cells-csv", &flags.cells_csv},
                                   std::pair{"--json", &flags.json}})
    if (auto v = flag_value(arg, flag)) {
      *path = *v;
      return true;
    }
  if (arg != "--quiet") return false;
  flags.quiet = true;
  return true;
}

void print_report_flag_help(std::FILE* to) {
  std::fputs(
      "output:\n"
      "  --points-csv=PATH      per-point CSV ('-' = stdout)\n"
      "  --cells-csv=PATH       per-cell aggregate CSV ('-' = stdout)\n"
      "  --json=PATH            full JSON report ('-' = stdout)\n"
      "  --quiet                suppress the summary lines\n",
      to);
}

int write_sweep_outputs(const char* prog, const SweepResult& result,
                        const ReportFlags& flags,
                        const std::string& summary_extra) {
  bool write_ok =
      write_report(prog, flags.points_csv, result, write_points_csv);
  write_ok &= write_report(prog, flags.cells_csv, result, write_cells_csv);
  write_ok &= write_report(prog, flags.json, result, write_json);
  if (flags.points_csv.empty() && flags.cells_csv.empty() && flags.json.empty())
    write_points_csv(std::cout, result);

  std::size_t failed = 0;
  std::size_t saturated = 0;
  const PointResult* first_saturated = nullptr;
  for (const PointResult& p : result.points) {
    if (!p.skipped && !p.ok) ++failed;
    if (p.saturated && saturated++ == 0) first_saturated = &p;
  }
  if (!flags.quiet) {
    std::fprintf(stderr,
                 "[%s: %zu points, %zu skipped, %zu failed, "
                 "%zu from checkpoint%s%s, %.2fs]\n",
                 prog, result.points.size(), result.skipped(), failed,
                 result.from_checkpoint, result.aborted ? ", ABORTED" : "",
                 summary_extra.c_str(), result.wall_seconds);
    if (result.torn_checkpoint_lines != 0)
      std::fprintf(stderr,
                   "[%s: %zu torn checkpoint line(s) skipped and "
                   "re-run — a previous run crashed mid-append]\n",
                   prog, result.torn_checkpoint_lines);
    print_bound_fits(prog, result);
  }
  if (saturated != 0) {
    // Reject the grid loudly, before any other verdict: a bound past
    // 2^128-1 cannot be swept, and a skip row alone is invisible when
    // --progress is off.
    const SweepPoint& p = first_saturated->point;
    std::fprintf(stderr,
                 "%s: %zu grid point(s) exceed 128-bit round "
                 "accounting; first offender: (%s, n=%u, f=%u). Shrink the "
                 "grid (or the cost model) below the saturation frontier.\n",
                 prog, saturated, core::to_string(p.algorithm).c_str(), p.n,
                 p.f);
  }
  return sweep_exit_code(saturated, failed, write_ok, result.aborted);
}

}  // namespace bdg::run
