// Adversary playground: pit every Byzantine strategy in the library
// against every algorithm at its maximum claimed tolerance and print the
// outcome matrix. A downstream user extending the adversary library can
// use this binary to sanity-check new attacks quickly.
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/scenario.h"
#include "graph/generators.h"
#include "graph/quotient.h"
#include "util/table.h"

int main() {
  using namespace bdg;
  using core::Algorithm;

  // A random graph with all-distinct views so Theorem 1 applies too.
  Rng rng(77);
  Graph g = shuffle_ports(make_connected_er(8, 0.45, rng), rng);
  for (int i = 0; i < 64 && !has_trivial_quotient(g); ++i)
    g = shuffle_ports(make_connected_er(8, 0.45, rng), rng);
  const auto n = static_cast<std::uint32_t>(g.n());
  std::printf("arena: n=%u m=%zu (trivial quotient: %s)\n\n", n, g.m(),
              has_trivial_quotient(g) ? "yes" : "no");

  const std::vector<Algorithm> algos{
      Algorithm::kQuotient,           Algorithm::kTournamentGathered,
      Algorithm::kThreeGroupGathered, Algorithm::kSqrtArbitrary,
      Algorithm::kStrongGathered,
  };

  Table table({"strategy \\ algorithm", "T1", "T3", "T4", "T5", "T6"});
  for (const core::ByzStrategy s : core::weak_strategies()) {
    std::vector<std::string> row{core::to_string(s)};
    for (const Algorithm a : algos) {
      core::ScenarioConfig cfg;
      cfg.algorithm = a;
      cfg.num_byzantine = core::max_tolerated_f(a, n);
      cfg.strategy = s;
      cfg.seed = 42;
      const auto res = core::run_scenario(g, cfg);
      row.push_back(res.verify.ok() ? "ok" : "FAIL");
    }
    table.add_row(std::move(row));
  }
  // The spoofer needs strong robots; only the strong algorithm claims it.
  {
    std::vector<std::string> row{"spoofer(strong)"};
    for (const Algorithm a : algos) {
      if (!core::algorithm_info(a).handles_strong) {
        row.push_back("n/a");
        continue;
      }
      core::ScenarioConfig cfg;
      cfg.algorithm = a;
      cfg.num_byzantine = core::max_tolerated_f(a, n);
      cfg.strategy = core::ByzStrategy::kSpoofer;
      cfg.seed = 42;
      const auto res = core::run_scenario(g, cfg);
      row.push_back(res.verify.ok() ? "ok" : "FAIL");
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  return 0;
}
