// Crash-fault extension: fully simulated pipeline (real bit-epoch
// gathering, no charged oracle rounds) + Theorem 4 phases.
#include "core/crash_dispersion.h"

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/tournament_dispersion.h"
#include "graph/generators.h"

namespace bdg::core {
namespace {

TEST(CrashReal, DispersesWithNoFaults) {
  Rng rng(5);
  const Graph g = shuffle_ports(make_connected_er(7, 0.5, rng), rng);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kCrashRealGathering;
  cfg.num_byzantine = 0;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
  // The gathering phase is genuinely simulated round by round (only idle
  // window tails get fast-forwarded): the bit-epoch phase alone accounts
  // for (id_bits + 1) * 2n simulated rounds.
  EXPECT_GT(res.stats.simulated_rounds, 2ULL * g.n() * 4);
}

class CrashSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(CrashSweep, DispersesWithCrashedRobots) {
  const auto [f, seed] = GetParam();
  Rng rng(seed);
  const Graph g = shuffle_ports(make_connected_er(9, 0.45, rng), rng);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kCrashRealGathering;
  cfg.num_byzantine = f;  // crash strategy: faulty robots are just absent
  cfg.strategy = ByzStrategy::kCrash;
  cfg.seed = seed;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Faults, CrashSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u),  // up to n/3-1 for n=9
                       ::testing::Values(1u, 2u, 3u)));

TEST(CrashReal, WorksOnStructuredFamilies) {
  for (const auto& [name, g] : standard_menagerie(6, 15)) {
    SCOPED_TRACE(name);
    ScenarioConfig cfg;
    cfg.algorithm = Algorithm::kCrashRealGathering;
    cfg.num_byzantine = 1;
    cfg.strategy = ByzStrategy::kCrash;
    cfg.seed = 8;
    const ScenarioResult res = run_scenario(g, cfg);
    EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
  }
}

TEST(CrashReal, CheaperThanChargedTheorem2Bound) {
  // The point of the extension: with the weaker fault model, the REAL
  // end-to-end round count undercuts even the scaled Theorem 2 charge.
  Rng rng(9);
  const Graph g = shuffle_ports(make_connected_er(10, 0.4, rng), rng);
  std::vector<sim::RobotId> ids;
  for (std::size_t i = 0; i < g.n(); ++i) ids.push_back(20 + 2 * i);
  const gather::CostModel cm{true};
  const auto crash = plan_crash_real_dispersion(g, ids, cm);
  const auto thm2 = plan_tournament_dispersion(g, ids, false, 4, cm);
  EXPECT_LT(crash.total_rounds, thm2.total_rounds);
}

TEST(CrashReal, MetadataRegistered) {
  EXPECT_EQ(to_string(Algorithm::kCrashRealGathering),
            "crash-real-gathering(ext)");
  EXPECT_FALSE(algorithm_info(Algorithm::kCrashRealGathering).starts_gathered);
  EXPECT_FALSE(algorithm_info(Algorithm::kCrashRealGathering).handles_strong);
  EXPECT_EQ(max_tolerated_f(Algorithm::kCrashRealGathering, 9), 2u);
}

}  // namespace
}  // namespace bdg::core
