// Scenario harness metadata + Theorem 1 (quotient algorithm) end-to-end.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/quotient.h"
#include "run/cli_flags.h"

namespace bdg::core {
namespace {

TEST(ScenarioMeta, ToleranceTable) {
  // Table 1's Byzantine-tolerance column.
  EXPECT_EQ(max_tolerated_f(Algorithm::kQuotient, 12), 11u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kTournamentArbitrary, 12), 5u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kTournamentGathered, 12), 5u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kThreeGroupGathered, 12), 3u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kStrongGathered, 12), 2u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kStrongArbitrary, 12), 2u);
  // sqrt(16) = 4, but the two-group honest-majority regime caps f at
  // ceil(8/2)-1 = 3 for n = 16 (the paper's O(sqrt n) claim is asymptotic;
  // at n >= 25 the sqrt term is the binding one).
  EXPECT_EQ(max_tolerated_f(Algorithm::kSqrtArbitrary, 16), 3u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kSqrtArbitrary, 25), 5u);
  EXPECT_EQ(max_tolerated_f(Algorithm::kSqrtArbitrary, 100), 10u);
}

TEST(ScenarioMeta, StartingConfigurations) {
  const auto gathered = [](Algorithm a) {
    return algorithm_info(a).starts_gathered;
  };
  EXPECT_FALSE(gathered(Algorithm::kQuotient));
  EXPECT_FALSE(gathered(Algorithm::kTournamentArbitrary));
  EXPECT_FALSE(gathered(Algorithm::kSqrtArbitrary));
  EXPECT_FALSE(gathered(Algorithm::kStrongArbitrary));
  EXPECT_TRUE(gathered(Algorithm::kTournamentGathered));
  EXPECT_TRUE(gathered(Algorithm::kThreeGroupGathered));
  EXPECT_TRUE(gathered(Algorithm::kStrongGathered));
}

TEST(ScenarioMeta, StrongHandling) {
  EXPECT_TRUE(algorithm_info(Algorithm::kStrongGathered).handles_strong);
  EXPECT_TRUE(algorithm_info(Algorithm::kStrongArbitrary).handles_strong);
  EXPECT_FALSE(algorithm_info(Algorithm::kTournamentGathered).handles_strong);
}

TEST(ScenarioMeta, AlgorithmNamesRoundTrip) {
  // One row per enumerator, in enum order.
  const auto table = algorithm_table();
  ASSERT_EQ(table.size(), static_cast<std::size_t>(Algorithm::kRingBaseline) + 1);
  std::set<std::string> report_names, cli_names;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto a = static_cast<Algorithm>(i);
    EXPECT_EQ(table[i].algorithm, a);
    EXPECT_EQ(&algorithm_info(a), &table[i]);
    // Report names round-trip through algorithm_from_string.
    const auto back = algorithm_from_string(to_string(a));
    ASSERT_TRUE(back.has_value()) << to_string(a);
    EXPECT_EQ(*back, a);
    EXPECT_EQ(to_string(a), table[i].report_name);
    EXPECT_TRUE(report_names.insert(table[i].report_name).second)
        << table[i].report_name;
    EXPECT_TRUE(cli_names.insert(table[i].cli_name).second)
        << table[i].cli_name;
  }
  // CLI names round-trip through the sweep front-ends' --algorithms flag.
  for (const AlgorithmInfo& row : table) {
    std::string arg = std::string("--algorithms=") + row.cli_name;
    char prog[] = "sweep_cli";
    char* argv[] = {prog, arg.data()};
    const run::GridFlagsResult res = run::parse_grid_flags(2, argv);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.spec.algorithms, std::vector<Algorithm>{row.algorithm});
  }
  // A corrupted value has no row.
  EXPECT_THROW((void)algorithm_info(static_cast<Algorithm>(table.size())),
               std::invalid_argument);
  EXPECT_THROW((void)algorithm_info(static_cast<Algorithm>(-1)),
               std::invalid_argument);
}

TEST(ScenarioMeta, ToStringThrowsOnCorruptEnumValue) {
  // A checkpoint record holding a corrupted/future algorithm value must
  // fail loudly at serialization time, not round-trip through "unknown".
  EXPECT_THROW(to_string(static_cast<Algorithm>(255)), std::invalid_argument);
  EXPECT_THROW(to_string(static_cast<Algorithm>(-1)), std::invalid_argument);
}

Graph trivial_quotient_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Graph g = shuffle_ports(make_connected_er(n, 0.45, rng), rng);
    if (has_trivial_quotient(g)) return g;
  }
  throw std::runtime_error("no trivial-quotient graph found");
}

TEST(QuotientScenario, Row1MaxByzantineTolerance) {
  // Theorem 1: up to n-1 weak Byzantine robots on a trivial-quotient graph.
  const Graph g = trivial_quotient_graph(8, 17);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kQuotient;
  cfg.num_byzantine = static_cast<std::uint32_t>(g.n()) - 1;
  cfg.strategy = ByzStrategy::kFakeSettler;
  cfg.seed = 3;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
}

TEST(QuotientScenario, EveryWeakStrategyAtHalfByzantine) {
  const Graph g = trivial_quotient_graph(9, 23);
  for (const ByzStrategy s : weak_strategies()) {
    SCOPED_TRACE(to_string(s));
    ScenarioConfig cfg;
    cfg.algorithm = Algorithm::kQuotient;
    cfg.num_byzantine = 4;
    cfg.strategy = s;
    cfg.seed = 11;
    const ScenarioResult res = run_scenario(g, cfg);
    EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
  }
}

TEST(QuotientScenario, RoundsDominatedByFindMapCharge) {
  const Graph g = trivial_quotient_graph(8, 29);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kQuotient;
  cfg.num_byzantine = 0;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok());
  const std::uint64_t n = g.n();
  EXPECT_GE(res.stats.rounds, n * n * n);  // Find-Map charge: n^3
  EXPECT_LE(res.stats.rounds, n * n * n + 20 * n + 64);
}

TEST(Scenario, RejectsAllByzantine) {
  const Graph g = make_ring(5);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kStrongGathered;
  cfg.num_byzantine = 5;
  EXPECT_THROW((void)run_scenario(g, cfg), std::invalid_argument);
}

TEST(Scenario, DeterministicUnderSeed) {
  const Graph g = trivial_quotient_graph(7, 31);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kQuotient;
  cfg.num_byzantine = 3;
  cfg.strategy = ByzStrategy::kRandomWalker;
  cfg.seed = 77;
  const ScenarioResult a = run_scenario(g, cfg);
  const ScenarioResult b = run_scenario(g, cfg);
  EXPECT_EQ(a.stats.moves, b.stats.moves);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.verify.ok(), b.verify.ok());
}

}  // namespace
}  // namespace bdg::core
