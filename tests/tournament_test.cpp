// Theorems 2 and 3 end-to-end: all-pairs tournament map finding with
// majority voting, then dispersion. Includes the pairing-schedule unit
// tests (all pairs covered, at most one pairing per robot per window),
// the sentinel/slack bug-cluster regressions (RobotId 0 rejection,
// schedule-derived window counts, majority fault budget) and the
// batched-vs-unbatched pairing conformance grid.
#include "core/tournament_dispersion.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/algorithm_common.h"
#include "core/dispersion_using_map.h"
#include "core/protocol_slack.h"
#include "core/scenario.h"
#include "explore/engine_map.h"
#include "graph/generators.h"

namespace bdg::core {
namespace {

TEST(RoundRobin, CoversAllPairsExactlyOnce) {
  for (const std::size_t k : {2u, 3u, 4u, 7u, 8u, 11u}) {
    std::vector<sim::RobotId> ids;
    for (std::size_t i = 0; i < k; ++i) ids.push_back(100 + 7 * i);
    const auto windows = round_robin_schedule(ids);
    EXPECT_EQ(windows.size(), (k % 2 == 0 ? k - 1 : k));
    std::set<std::pair<sim::RobotId, sim::RobotId>> seen;
    for (const auto& win : windows) {
      std::set<sim::RobotId> in_window;
      for (const auto& [a, b] : win) {
        EXPECT_LT(a, b);
        EXPECT_TRUE(in_window.insert(a).second) << "robot paired twice";
        EXPECT_TRUE(in_window.insert(b).second);
        EXPECT_TRUE(seen.insert({a, b}).second) << "pair repeated";
      }
    }
    EXPECT_EQ(seen.size(), k * (k - 1) / 2);
  }
}

TEST(RoundRobin, EmptyAndSingleton) {
  EXPECT_TRUE(round_robin_schedule({}).empty());
  const auto w = round_robin_schedule({5});
  for (const auto& win : w) EXPECT_TRUE(win.empty());
}

// Regression: RobotId 0 is the schedule's internal dummy-bye marker and
// the window protocol's "no partner" case. It used to be accepted
// silently — a caller passing ID 0 got a robot that slept every window
// and a schedule pairing the dummy — so it must be rejected loudly at
// plan time, mirroring the engine's add_robot check.
TEST(RoundRobin, RejectsReservedRobotIdZero) {
  EXPECT_THROW((void)round_robin_schedule({0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)round_robin_schedule({0}), std::invalid_argument);
  const Graph g = make_ring(4);
  const gather::CostModel cost{true};
  EXPECT_THROW((void)plan_tournament_dispersion(g, {0, 7, 9, 12},
                                                /*gathered=*/true, 0, cost),
               std::invalid_argument);
  // Nonzero IDs keep planning fine.
  EXPECT_NO_THROW((void)plan_tournament_dispersion(g, {3, 7, 9, 12},
                                                   /*gathered=*/true, 0,
                                                   cost));
}

// Regression: the planner derives the pairing-phase length from
// round_robin_schedule(ids).size() itself — never from its own padding
// arithmetic, which could drift from the coroutine's schedule and desync
// plan.total_rounds from the run. Pinned against the schedule for odd
// and even k (gathered, so the plan is schedule + dispersion + slack).
TEST(TournamentPlan, WindowCountSingleSourcedFromSchedule) {
  const Graph g = make_ring(6);
  const gather::CostModel cost{true};
  const Round t2 = explore::default_map_window(6);
  const Round phase = dispersion_phase_rounds(6);
  for (const std::size_t k : {2u, 3u, 5u, 8u, 9u}) {
    std::vector<sim::RobotId> ids;
    for (std::size_t i = 0; i < k; ++i) ids.push_back(11 + 3 * i);
    const auto plan =
        plan_tournament_dispersion(g, ids, /*gathered=*/true, 0, cost);
    const Round pairing = Round(round_robin_schedule(ids).size()) * 2 * t2;
    EXPECT_EQ(plan.total_rounds, pairing + phase + kPlanCloseSlack)
        << "k=" << k;
  }
}

TEST(MajorityCode, PicksMostFrequent) {
  const CanonicalCode a{1, 2}, b{3, 4};
  EXPECT_EQ(majority_code({a, b, a}), a);
  EXPECT_EQ(majority_code({b}), b);
  EXPECT_FALSE(majority_code({}).has_value());
}

// Regression: at the exact tolerance frontier an adversarial code tying
// the honest count used to win deterministically whenever it was the
// lexicographically smaller canonical code. With the fault budget the
// winner must STRICTLY beat the possible-faulty count, so the tie (and
// anything below the budget) becomes a loud no-map abort instead.
TEST(MajorityCode, FaultBudgetBreaksFrontierTies) {
  const CanonicalCode honest{9, 9}, evil{1, 1};  // evil is the smaller code
  // f = 2 liars coordinating on one code, tying the two honest votes.
  const std::vector<CanonicalCode> tied{honest, evil, honest, evil};
  EXPECT_EQ(majority_code(tied), evil);  // plurality: the documented hazard
  EXPECT_FALSE(majority_code(tied, 2).has_value());  // budget: loud abort
  // One honest vote above the budget restores the honest winner.
  const std::vector<CanonicalCode> clear{honest, evil, honest, evil, honest};
  EXPECT_EQ(majority_code(clear, 2), honest);
  // Everything at or below the budget is filtered, not elected.
  EXPECT_FALSE(majority_code({evil, evil}, 2).has_value());
}

TEST(DecodeMap, RejectsWrongSizeAndGarbage) {
  const Graph g = make_ring(5);
  const CanonicalCode code = rooted_code(g, 0);
  EXPECT_TRUE(decode_map(code, 5).has_value());
  EXPECT_FALSE(decode_map(code, 6).has_value());
  EXPECT_FALSE(decode_map({1, 0}, 5).has_value());
  EXPECT_FALSE(decode_map({99, 1, 2}, 99).has_value());
}

class TournamentGathered
    : public ::testing::TestWithParam<std::tuple<ByzStrategy, std::uint32_t>> {
};

TEST_P(TournamentGathered, Row4DispersesUnderAdversary) {
  const auto [strategy, f] = GetParam();
  Rng rng(41);
  const Graph g = shuffle_ports(make_connected_er(8, 0.45, rng), rng);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kTournamentGathered;
  cfg.num_byzantine = f;
  cfg.strategy = strategy;
  cfg.seed = 5;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, TournamentGathered,
    ::testing::Combine(::testing::Values(ByzStrategy::kMapLiar,
                                         ByzStrategy::kFakeSettler,
                                         ByzStrategy::kCrash,
                                         ByzStrategy::kIntentSpammer),
                       ::testing::Values(1u, 3u)),  // f up to n/2-1 = 3
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

TEST(TournamentGathered, MaxToleranceOnRing) {
  const Graph g = make_ring(8);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kTournamentGathered;
  cfg.num_byzantine = 3;  // floor(8/2) - 1
  cfg.strategy = ByzStrategy::kMapLiar;
  cfg.seed = 9;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
}

TEST(TournamentArbitrary, Row2GatherThenDisperse) {
  Rng rng(43);
  const Graph g = shuffle_ports(make_connected_er(7, 0.5, rng), rng);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kTournamentArbitrary;
  cfg.num_byzantine = 2;  // floor(7/2) - 1
  cfg.strategy = ByzStrategy::kFakeSettler;
  cfg.seed = 21;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
  // Phase 1's charged gathering bound dominates the round count (the
  // Theorem 2 shape), even in the scaled cost model.
  const gather::CostModel cm{true};
  EXPECT_GE(res.stats.rounds,
            cm.rounds(gather::GatherKind::kWeakDPP, 7, 2,
                      gather::CostModel::id_bits(49)));
}

TEST(TournamentGathered, AllHonestSmall) {
  const Graph g = make_grid(2, 3);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kTournamentGathered;
  cfg.num_byzantine = 0;
  const ScenarioResult res = run_scenario(g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
}

// Conformance grid for the batched pairing windows (map-cache, verify
// walk, early window close): across a mixed-adversary grid, the batched
// and unbatched paths must produce bit-identical sweep verdicts and
// charged round totals — only the ACTIVE metrics (simulated rounds,
// moves, messages) may drop. Every scenario also exercises the runtime
// window-synchrony invariant in tournament_robot across all seeds and
// mixes: a desynced window boundary throws out of run_scenario and fails
// the test loudly.
TEST(TournamentBatched, ConformsToUnbatchedOnMixedAdversaryGrid) {
  const std::vector<std::vector<ByzStrategy>> mixes = {
      {},  // scalar kMapLiar
      {ByzStrategy::kMapLiar, ByzStrategy::kCrash},
      {ByzStrategy::kFakeSettler, ByzStrategy::kIntentSpammer,
       ByzStrategy::kMapLiar},
  };
  for (const Algorithm alg :
       {Algorithm::kTournamentGathered, Algorithm::kTournamentArbitrary}) {
    for (const std::uint32_t f : {0u, 1u, 3u}) {
      for (const std::uint64_t seed : {1ULL, 5ULL, 23ULL}) {
        for (const auto& mix : mixes) {
          Rng rng(seed);
          const Graph g =
              shuffle_ports(make_connected_er(8, 0.45, rng), rng);
          ScenarioConfig cfg;
          cfg.algorithm = alg;
          cfg.num_byzantine = f;
          cfg.strategy = ByzStrategy::kMapLiar;
          cfg.strategies = mix;
          cfg.seed = seed;
          cfg.batched_pairing = true;
          const ScenarioResult batched = run_scenario(g, cfg);
          cfg.batched_pairing = false;
          const ScenarioResult plain = run_scenario(g, cfg);
          const auto ctx = to_string(alg) + " f=" + std::to_string(f) +
                           " seed=" + std::to_string(seed) + " mix=" +
                           std::to_string(mix.size());
          EXPECT_EQ(batched.verify.ok(), plain.verify.ok()) << ctx;
          EXPECT_TRUE(batched.verify.ok()) << ctx << ": "
                                           << batched.verify.detail;
          EXPECT_EQ(batched.stats.rounds, plain.stats.rounds) << ctx;
          EXPECT_EQ(batched.planned_rounds, plain.planned_rounds) << ctx;
          EXPECT_LE(batched.stats.simulated_rounds,
                    plain.stats.simulated_rounds)
              << ctx;
        }
      }
    }
  }
}

// Live-vs-bulk mirror of the grid above: attaching ONLY a no-op observer
// (which keeps the adversary interpreter live in every round instead of
// parked and replayed in bulk) must leave every observable result
// bit-identical — verdicts, rounds, planned bound, moves AND messages
// (the adversary's own traffic is part of the accounting contract) — while
// the bulk path simulates no more rounds than the live one.
TEST(CompiledAdversary, LiveMatchesBulkOnMixedAdversaryGrid) {
  const std::vector<std::vector<ByzStrategy>> mixes = {
      {},  // scalar kMapLiar
      {ByzStrategy::kMapLiar, ByzStrategy::kCrash},
      {ByzStrategy::kFakeSettler, ByzStrategy::kIntentSpammer,
       ByzStrategy::kMapLiar},
  };
  sim::Observer noop;
  for (const Algorithm alg :
       {Algorithm::kTournamentGathered, Algorithm::kTournamentArbitrary}) {
    for (const std::uint32_t f : {0u, 1u, 3u}) {
      for (const std::uint64_t seed : {1ULL, 5ULL, 23ULL}) {
        for (const auto& mix : mixes) {
          Rng rng(seed);
          const Graph g =
              shuffle_ports(make_connected_er(8, 0.45, rng), rng);
          ScenarioConfig cfg;
          cfg.algorithm = alg;
          cfg.num_byzantine = f;
          cfg.strategy = ByzStrategy::kMapLiar;
          cfg.strategies = mix;
          cfg.seed = seed;
          const ScenarioResult bulk = run_scenario(g, cfg);
          cfg.observer = &noop;
          const ScenarioResult live = run_scenario(g, cfg);
          const auto ctx = to_string(alg) + " f=" + std::to_string(f) +
                           " seed=" + std::to_string(seed) + " mix=" +
                           std::to_string(mix.size());
          EXPECT_EQ(bulk.verify.ok(), live.verify.ok()) << ctx;
          EXPECT_TRUE(bulk.verify.ok()) << ctx << ": " << bulk.verify.detail;
          EXPECT_EQ(bulk.stats.rounds, live.stats.rounds) << ctx;
          EXPECT_EQ(bulk.planned_rounds, live.planned_rounds) << ctx;
          EXPECT_EQ(bulk.stats.moves, live.stats.moves) << ctx;
          EXPECT_EQ(bulk.stats.messages, live.stats.messages) << ctx;
          EXPECT_LE(bulk.stats.simulated_rounds, live.stats.simulated_rounds)
              << ctx;
        }
      }
    }
  }
}

// The adversarial-batching win itself: with an always-broadcasting
// squatter at f > 0, the live adversary keeps the engine awake in every
// honest sleep window, while the bulk one parks and replays — the
// simulated-round count collapses with identical verdict and totals.
TEST(CompiledAdversary, CollapsesSimulatedRoundsUnderSquatter) {
  const Graph g = make_ring(12);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kTournamentGathered;
  cfg.num_byzantine = 2;
  cfg.strategy = ByzStrategy::kSquatter;
  cfg.seed = 3;
  const ScenarioResult bulk = run_scenario(g, cfg);
  sim::Observer noop;
  cfg.observer = &noop;
  const ScenarioResult live = run_scenario(g, cfg);
  EXPECT_EQ(bulk.verify.ok(), live.verify.ok());
  EXPECT_EQ(bulk.stats.rounds, live.stats.rounds);
  EXPECT_EQ(bulk.stats.moves, live.stats.moves);
  EXPECT_EQ(bulk.stats.messages, live.stats.messages);
  EXPECT_LT(bulk.stats.simulated_rounds * 5, live.stats.simulated_rounds);
}

// The batching win itself, pinned at a size small enough for a test: with
// f = 0 every robot confirms its map after the first window, so all later
// windows collapse to publish-and-sleep and the active metrics drop by an
// order of magnitude while verdict and charged rounds stay identical.
TEST(TournamentBatched, CollapsesActiveRoundsWhenConfirmed) {
  const Graph g = make_ring(12);
  ScenarioConfig cfg;
  cfg.algorithm = Algorithm::kTournamentGathered;
  cfg.num_byzantine = 0;
  cfg.seed = 3;
  cfg.batched_pairing = true;
  const ScenarioResult batched = run_scenario(g, cfg);
  cfg.batched_pairing = false;
  const ScenarioResult plain = run_scenario(g, cfg);
  ASSERT_TRUE(batched.verify.ok()) << batched.verify.detail;
  ASSERT_TRUE(plain.verify.ok()) << plain.verify.detail;
  EXPECT_EQ(batched.stats.rounds, plain.stats.rounds);
  EXPECT_LT(batched.stats.simulated_rounds * 5, plain.stats.simulated_rounds);
  EXPECT_LT(batched.stats.moves, plain.stats.moves);
  EXPECT_LT(batched.stats.messages, plain.stats.messages);
}

}  // namespace
}  // namespace bdg::core
