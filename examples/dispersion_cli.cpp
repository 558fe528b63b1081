// dispersion_cli — run any scenario from the command line.
//
//   dispersion_cli [--algo=NAME] [--graph=FAMILY] [--n=12] [--f=F]
//                  [--strategy=NAME] [--seed=1] [--theory-cost] [--trace]
//                  [--graph-file=path.bdg1] [--help]
//
// --algo and --graph take sweep_cli's --algorithms and --families names
// (defaults: three-group, the first family; --help lists them), and the
// graph has exactly --n nodes. Without --f the algorithm's maximum claimed
// tolerance is used; f must be < n.
// --theory-cost charges the paper's cited bounds verbatim (X(n) = n^5)
// instead of the scaled covering-walk model. A bad flag or value exits 2,
// naming the flag.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/scenario.h"
#include "graph/quotient.h"
#include "graph/serialize.h"
#include "run/cli_flags.h"
#include "run/sweep.h"
#include "sim/trace.h"

namespace {

using namespace bdg;

struct Options {
  std::string algo = "three-group";
  std::string graph = run::known_families().front();
  std::string strategy = "fake_settler";
  std::uint32_t n = 12;
  std::optional<std::uint32_t> f;  // unset: maximum claimed tolerance
  std::uint64_t seed = 1;
  bool theory_cost = false;
  bool trace = false;
  bool help = false;
  std::string graph_file;  // bdg1 file overriding --graph/--n
};

/// Parse argv into opt; throws std::invalid_argument naming the bad flag.
void parse_args(Options& opt, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = run::flag_value(arg, "--algo")) {
      opt.algo = *v;
    } else if (auto v = run::flag_value(arg, "--graph-file")) {
      opt.graph_file = *v;
    } else if (auto v = run::flag_value(arg, "--graph")) {
      opt.graph = *v;
      const auto& known = run::known_families();
      if (std::find(known.begin(), known.end(), opt.graph) == known.end())
        throw std::invalid_argument("unknown --graph '" + *v + "'");
    } else if (auto v = run::flag_value(arg, "--strategy")) {
      opt.strategy = *v;
    } else if (auto v = run::flag_value(arg, "--n")) {
      opt.n = run::parse_flag_number<std::uint32_t>(*v, "--n", 1);
    } else if (auto v = run::flag_value(arg, "--f")) {
      opt.f = run::parse_flag_number<std::uint32_t>(*v, "--f");
    } else if (auto v = run::flag_value(arg, "--seed")) {
      opt.seed = run::parse_flag_number<std::uint64_t>(*v, "--seed");
    } else if (arg == "--theory-cost") {
      opt.theory_cost = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--help") {
      opt.help = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
}

void print_usage(std::FILE* to) {
  std::fputs(
      "usage: dispersion_cli [flags]\n"
      "  --algo=NAME        algorithm (default: three-group)\n"
      "  --graph=FAMILY     graph family (default: first family name)\n"
      "  --n=N              node count, exact (default: 12)\n"
      "  --graph-file=PATH  read a bdg1 graph instead of --graph/--n\n"
      "  --f=F              Byzantine robots, F < n (default: the\n"
      "                     algorithm's maximum claimed tolerance)\n"
      "  --strategy=NAME    adversary (default: fake_settler)\n"
      "  --seed=S           scenario seed (default: 1)\n"
      "  --theory-cost      charge the paper's cited bounds verbatim\n"
      "                     (X(n) = n^5) instead of the scaled model\n"
      "  --trace            print per-robot activity after the run\n"
      "  --help             this text\n",
      to);
}

Graph build_graph(const Options& opt) {
  if (!opt.graph_file.empty()) {
    std::ifstream in(opt.graph_file);
    if (!in) throw std::invalid_argument("cannot open " + opt.graph_file);
    return read_graph(in);
  }
  std::optional<Graph> g = run::build_family_graph(
      opt.graph, opt.n, opt.seed * 77 + 1, false, /*er_edge_probability=*/0.0);
  if (!g)
    throw std::invalid_argument("no " + opt.graph + " graph has exactly n=" +
                                std::to_string(opt.n) + " nodes");
  return std::move(*g);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  core::ScenarioConfig cfg;
  try {
    parse_args(opt, argc, argv);
    bool known = false;
    for (const core::AlgorithmInfo& row : core::algorithm_table()) {
      if (opt.algo != row.cli_name) continue;
      cfg.algorithm = row.algorithm;
      known = true;
    }
    if (!known) throw std::invalid_argument("unknown --algo '" + opt.algo + "'");
    const auto strategy = core::strategy_from_string(opt.strategy);
    if (!strategy)
      throw std::invalid_argument("unknown --strategy '" + opt.strategy + "'");
    cfg.strategy = *strategy;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "dispersion_cli: %s (see --help)\n", e.what());
    return 2;
  }
  if (opt.help) {
    print_usage(stdout);
    run::print_grid_name_lists(stdout);
    return 0;
  }

  Graph g;
  try {
    g = build_graph(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dispersion_cli: cannot build the graph (%s): %s\n",
                 opt.graph_file.empty() ? "--graph, --n" : "--graph-file",
                 e.what());
    return 2;
  }

  const auto n = static_cast<std::uint32_t>(g.n());
  cfg.seed = opt.seed;
  cfg.cost = gather::CostModel{!opt.theory_cost};
  cfg.num_byzantine = opt.f.value_or(core::max_tolerated_f(cfg.algorithm, n));
  if (cfg.num_byzantine >= n) {
    std::fprintf(stderr,
                 "dispersion_cli: --f=%u must be < n=%u (at least one honest "
                 "robot)\n",
                 cfg.num_byzantine, n);
    return 2;
  }

  sim::TraceRecorder trace;
  if (opt.trace) cfg.observer = &trace;

  std::printf("graph: %s n=%u m=%zu (trivial quotient: %s)\n",
              opt.graph.c_str(), n, g.m(),
              has_trivial_quotient(g) ? "yes" : "no");
  std::printf("algorithm: %s   f=%u   strategy=%s   cost=%s\n",
              core::to_string(cfg.algorithm).c_str(), cfg.num_byzantine,
              core::to_string(cfg.strategy).c_str(),
              opt.theory_cost ? "theory" : "scaled");

  const core::ScenarioResult res = core::run_scenario(g, cfg);
  std::printf("rounds=%s simulated=%llu moves=%llu messages=%llu\n",
              res.stats.rounds.to_string().c_str(),
              static_cast<unsigned long long>(res.stats.simulated_rounds),
              static_cast<unsigned long long>(res.stats.moves),
              static_cast<unsigned long long>(res.stats.messages));
  std::printf("dispersed: %s%s%s\n", res.verify.ok() ? "YES" : "NO",
              res.verify.detail.empty() ? "" : "  — ",
              res.verify.detail.c_str());

  if (opt.trace) {
    std::printf("\nper-robot activity (true IDs; message counts are per "
                "claimed ID):\n");
    for (const auto& [id, a] : trace.per_robot()) {
      std::printf("  robot %-6llu moves=%-7llu msgs=%-8llu done@%s\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(a.moves),
                  static_cast<unsigned long long>(a.messages),
                  a.done_round.to_string().c_str());
    }
  }
  return res.verify.ok() ? 0 : 1;
}
