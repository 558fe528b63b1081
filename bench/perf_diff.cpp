// perf_diff: compare a fresh benchmark CSV against a committed baseline.
//
// Works on any CSV whose header names its columns (the run/ points schema
// and the bench_hotpaths quotient schema alike). Columns split three ways:
//
//  * deterministic metrics (ok, rounds, simulated_rounds, moves, messages,
//    planned_rounds, derived_seed, num_classes): must match the baseline
//    EXACTLY — any drift means the simulation behaves differently and
//    fails regardless of tolerance;
//  * work (coroutine_resumes, iterated_rounds, visited_rounds: the engine
//    work a speedup removed, deterministic but allowed to shrink):
//    one-sided. More than the baseline fails; less passes and is printed,
//    so a change that saves more work shows it and re-records the baseline;
//  * wall-clock (seconds): gated by ratio. current > tolerance * baseline
//    fails, but only when the baseline is at least --min-seconds (tiny
//    points measure scheduler noise, not the code under test);
//  * everything else: part of the row key. Baseline and current must
//    contain exactly the same key set, so a silently changed grid cannot
//    masquerade as a pass — re-record baselines when a bench changes.
//
// Several current CSVs (repeated runs of one bench) may follow the
// baseline. Each must pass the key and exact-column checks on its own; the
// wall-clock gate applies to each row's median seconds across them, so one
// sample slowed by machine load does not fail a point near --min-seconds.
//
// Usage:
//   perf_diff <baseline.csv> <current.csv> [<current.csv> ...]
//             [--tolerance R] [--min-seconds S]
// Exit code: 0 = pass, 1 = regression/drift, 2 = usage/parse error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

const char* const kExactColumns[] = {
    "ok",       "rounds",       "simulated_rounds", "moves",
    "messages", "planned_rounds", "derived_seed",   "num_classes"};

const char* const kWorkColumns[] = {"coroutine_resumes", "iterated_rounds",
                                    "visited_rounds"};

bool is_exact_column(const std::string& name) {
  for (const char* c : kExactColumns)
    if (name == c) return true;
  return false;
}

bool is_work_column(const std::string& name) {
  for (const char* c : kWorkColumns)
    if (name == c) return true;
  return false;
}

/// Split one CSV line honoring double-quoted fields (algorithm names carry
/// commas in their citation brackets).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

struct Table {
  std::vector<std::string> columns;
  // key (joined key fields) -> column -> value
  std::map<std::string, std::map<std::string, std::string>> rows;
};

bool load(const char* path, Table& out) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "perf_diff: cannot open %s\n", path);
    return false;
  }
  std::string line;
  if (!std::getline(is, line)) {
    std::fprintf(stderr, "perf_diff: %s is empty\n", path);
    return false;
  }
  out.columns = split_csv(line);
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv(line);
    if (fields.size() != out.columns.size()) {
      std::fprintf(stderr, "perf_diff: %s: row has %zu fields, header %zu\n",
                   path, fields.size(), out.columns.size());
      return false;
    }
    std::string key;
    std::map<std::string, std::string> row;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::string& col = out.columns[i];
      if (col == "seconds" || is_exact_column(col) || is_work_column(col)) {
        row[col] = fields[i];
      } else {
        if (!key.empty()) key += '|';
        key += fields[i];
      }
    }
    if (!out.rows.emplace(std::move(key), std::move(row)).second) {
      std::fprintf(stderr, "perf_diff: %s: duplicate key\n", path);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  std::vector<const char*> current_paths;
  double tolerance = 2.0;
  double min_seconds = 0.01;
  // Accepts both "--flag value" and "--flag=value"; a malformed or missing
  // number is a usage error, never a silently-zero gate.
  const auto parse_double = [&](const char* flag, const char* text,
                                double& out) {
    char* end = nullptr;
    out = std::strtod(text, &end);
    if (end == text || *end != '\0' || out < 0) {
      std::fprintf(stderr, "perf_diff: bad value for %s: '%s'\n", flag, text);
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    double* target = nullptr;
    const char* flag = nullptr;
    if (std::strncmp(arg, "--tolerance", 11) == 0) {
      target = &tolerance;
      flag = "--tolerance";
    } else if (std::strncmp(arg, "--min-seconds", 13) == 0) {
      target = &min_seconds;
      flag = "--min-seconds";
    }
    if (target != nullptr) {
      const char* rest = arg + std::strlen(flag);
      const char* value = nullptr;
      if (*rest == '=') {
        value = rest + 1;
      } else if (*rest == '\0' && i + 1 < argc) {
        value = argv[++i];
      } else if (*rest != '\0') {
        target = nullptr;  // e.g. --tolerancex: not this flag after all
      } else {
        std::fprintf(stderr, "perf_diff: %s needs a value\n", flag);
        return 2;
      }
      if (target != nullptr) {
        if (!parse_double(flag, value, *target)) return 2;
        continue;
      }
    }
    if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "perf_diff: unknown flag %s\n", arg);
      return 2;
    } else if (baseline_path == nullptr) {
      baseline_path = arg;
    } else {
      current_paths.push_back(arg);
    }
  }
  if (baseline_path == nullptr || current_paths.empty()) {
    std::fprintf(stderr,
                 "usage: perf_diff <baseline.csv> <current.csv>"
                 " [<current.csv> ...] [--tolerance R] [--min-seconds S]\n");
    return 2;
  }

  Table base;
  if (!load(baseline_path, base)) return 2;
  std::vector<Table> runs(current_paths.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!load(current_paths[i], runs[i])) return 2;
    if (base.columns != runs[i].columns) {
      std::fprintf(stderr,
                   "FAIL: %s: column sets differ (bench schema changed?"
                   " re-record baselines)\n", current_paths[i]);
      return 1;
    }
  }
  // Names the run in a message when there are several.
  const auto run_tag = [&](std::size_t i) {
    return runs.size() == 1 ? std::string()
                            : std::string(" in ") + current_paths[i];
  };

  int failures = 0;
  for (const auto& [key, brow] : base.rows) {
    std::vector<double> seconds;
    bool drift = false;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto it = runs[i].rows.find(key);
      if (it == runs[i].rows.end()) {
        std::printf("FAIL [%s]: missing from current run%s (grid changed?"
                    " re-record baselines)\n", key.c_str(), run_tag(i).c_str());
        drift = true;
        continue;
      }
      const auto& crow = it->second;
      for (const auto& [col, bval] : brow) {
        if (col == "seconds") continue;
        const std::string& cval = crow.at(col);
        if (is_work_column(col) && bval != cval) {
          const unsigned long long b = std::strtoull(bval.c_str(), nullptr, 10);
          const unsigned long long c = std::strtoull(cval.c_str(), nullptr, 10);
          std::printf("%s [%s]: %s %s -> %s%s (%s)\n", c > b ? "FAIL" : "  ok",
                      key.c_str(), col.c_str(), bval.c_str(), cval.c_str(),
                      run_tag(i).c_str(),
                      c > b ? "more work" : "less work: re-record");
          drift |= c > b;
        } else if (bval != cval) {
          std::printf("FAIL [%s]: %s changed %s -> %s%s (deterministic"
                      " metric drifted)\n", key.c_str(), col.c_str(),
                      bval.c_str(), cval.c_str(), run_tag(i).c_str());
          drift = true;
        }
      }
      if (const auto sec = crow.find("seconds"); sec != crow.end())
        seconds.push_back(std::atof(sec->second.c_str()));
    }
    if (drift) ++failures;
    const auto bsec_it = brow.find("seconds");
    if (bsec_it == brow.end() || seconds.empty()) continue;
    const double bsec = std::atof(bsec_it->second.c_str());
    // Median of the runs (the upper middle one for an even count).
    std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2,
                     seconds.end());
    const double csec = seconds[seconds.size() / 2];
    const double ratio = bsec > 0 ? csec / bsec : 0.0;
    const bool gated = bsec >= min_seconds;
    const bool slow = gated && ratio > tolerance;
    std::printf("%s [%s]: %.6fs -> %.6fs%s (%.2fx %s)%s\n",
                slow ? "FAIL" : "  ok", key.c_str(), bsec, csec,
                runs.size() == 1 ? "" : " median",
                ratio > 0 && ratio < 1 ? 1.0 / ratio : ratio,
                ratio <= 1 ? "speedup" : "slowdown",
                gated ? "" : " [untimed: below --min-seconds]");
    if (slow) ++failures;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const auto& [key, crow] : runs[i].rows) {
      (void)crow;
      if (base.rows.find(key) == base.rows.end()) {
        std::printf("FAIL [%s]: not in baseline%s (grid changed?"
                    " re-record baselines)\n", key.c_str(), run_tag(i).c_str());
        ++failures;
      }
    }
  }

  if (failures != 0) {
    std::printf("perf_diff: %d failure(s) vs %s\n", failures, baseline_path);
    return 1;
  }
  std::printf("perf_diff: OK (%zu points, tolerance %.2fx, min %.3fs)\n",
              base.rows.size(), tolerance, min_seconds);
  return 0;
}
