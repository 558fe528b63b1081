// Scenario-level conformance tier for the adversary interpreter: attaching
// ONLY a no-op observer (live: the engine resumes every Byzantine robot in
// every round) instead of none (bulk: robots park ambient and replay the
// rounds the engine fast-forwarded) across a grid of every strategy x
// {tournament, group, crash-real} x {single-wave k = n, multi-wave k > n}
// x adversary mixes must leave every result bit-identical — verdict,
// rounds, planned_rounds, moves, messages — because the bulk replay
// digest draws and counts exactly what the live op walk does. Runs at
// run_scenario level (a sweep spec carries no observer). Scenarios run on
// parallel threads, and the tsan preset job in CI runs this tier, so both
// engine paths (ambient parking and the observer's live rounds) are raced
// there too.
#include <gtest/gtest.h>

#include <string>

#include "core/byzantine.h"
#include "core/scenario.h"
#include "run/sweep.h"
#include "util/parallel.h"

namespace bdg::core {
namespace {

struct GridCase {
  Algorithm algorithm{};
  std::string family = "er";
  std::uint32_t n = 8;
  std::uint32_t k = 0;  ///< 0 = k = n
  std::vector<ByzStrategy> mix;
  ByzStrategy strategy = ByzStrategy::kFakeSettler;
};

/// Run every case at its claimed tolerance over two seeds, bulk and live,
/// and require all observable fields to match. Scenarios run across four
/// threads (each in its own Engine), so the TSan job races both execution
/// modes against each other. Returns the number of scenarios compared.
std::size_t expect_live_matches_bulk(const std::vector<GridCase>& cases) {
  struct Scenario {
    const GridCase* c = nullptr;
    Graph g;
    ScenarioConfig cfg;
    ScenarioResult bulk, live;
  };
  std::vector<Scenario> runs;
  for (const GridCase& c : cases) {
    const std::uint32_t k = c.k == 0 ? c.n : c.k;
    if (!run::algorithm_supports_k(c.algorithm, k, c.n)) continue;
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      std::optional<Graph> g = run::build_family_graph(c.family, c.n, seed);
      if (!g) continue;
      Scenario sc;
      sc.c = &c;
      sc.g = std::move(*g);
      sc.cfg.algorithm = c.algorithm;
      sc.cfg.num_robots = c.k;
      sc.cfg.num_byzantine = max_tolerated_f_k(c.algorithm, c.n, k);
      sc.cfg.strategy = c.strategy;
      sc.cfg.strategies = c.mix;
      sc.cfg.seed = seed;
      runs.push_back(std::move(sc));
    }
  }
  parallel_for_index(
      runs.size(),
      [&](std::size_t i) {
        Scenario& sc = runs[i];
        sc.bulk = run_scenario(sc.g, sc.cfg);
        sim::Observer noop;
        ScenarioConfig live_cfg = sc.cfg;
        live_cfg.observer = &noop;
        sc.live = run_scenario(sc.g, live_cfg);
      },
      /*threads=*/4);
  for (const Scenario& sc : runs) {
    SCOPED_TRACE(to_string(sc.c->algorithm) + " on " + sc.c->family +
                 " n=" + std::to_string(sc.c->n) +
                 " k=" + std::to_string(sc.c->k) +
                 " f=" + std::to_string(sc.cfg.num_byzantine) +
                 " strategy=" + to_string(sc.c->strategy) +
                 " mix=" + std::to_string(sc.c->mix.size()) +
                 " seed=" + std::to_string(sc.cfg.seed));
    EXPECT_EQ(sc.bulk.verify.ok(), sc.live.verify.ok())
        << sc.bulk.verify.detail << " vs " << sc.live.verify.detail;
    EXPECT_EQ(sc.bulk.stats.rounds, sc.live.stats.rounds);
    EXPECT_EQ(sc.bulk.planned_rounds, sc.live.planned_rounds);
    EXPECT_EQ(sc.bulk.stats.moves, sc.live.stats.moves);
    EXPECT_EQ(sc.bulk.stats.messages, sc.live.stats.messages);
    EXPECT_LE(sc.bulk.stats.simulated_rounds, sc.live.stats.simulated_rounds);
  }
  return runs.size();
}

// Every weak strategy against the tournament and group algorithms at
// their claimed tolerance, single wave.
TEST(CompiledAdversaryScenario, WeakStrategiesSingleWave) {
  std::vector<GridCase> cases;
  for (const ByzStrategy s : weak_strategies())
    for (const Algorithm a :
         {Algorithm::kTournamentGathered, Algorithm::kThreeGroupGathered})
      cases.push_back({a, "er", 8, 0, {}, s});
  EXPECT_EQ(expect_live_matches_bulk(cases), cases.size() * 2);
}

// The same at n = 12 and 16, where the adversaries spread out over more
// nodes than the honest robots cover: most of their bulk rounds are then
// stepped by the engine (no robot at their node can hear them) rather
// than resumed, and live execution must still agree. The tournament's
// live runs simulate every one of its ~n^5 rounds, so it joins at n = 12.
TEST(CompiledAdversaryScenario, WeakStrategiesSpreadOut) {
  std::vector<GridCase> cases;
  for (const ByzStrategy s : weak_strategies()) {
    for (const std::uint32_t n : {12u, 16u})
      cases.push_back({Algorithm::kThreeGroupGathered, "er", n, 0, {}, s});
    cases.push_back({Algorithm::kTournamentGathered, "ring", 12, 0, {}, s});
  }
  for (const std::uint32_t n : {12u, 16u})
    cases.push_back({Algorithm::kStrongGathered, "ring", n, 0, {},
                     ByzStrategy::kSpoofer});
  EXPECT_EQ(expect_live_matches_bulk(cases), cases.size() * 2);
}

// The strong spoofer against both strong algorithms (its victim draws and
// victim-gated spoof payloads replay through the kernel), and crash faults
// against the REAL (fully simulated) gathering extension — the two
// per-algorithm default adversaries the weak grid above doesn't reach.
TEST(CompiledAdversaryScenario, SpooferAndCrashDefaults) {
  std::vector<GridCase> cases;
  for (const char* family : {"er", "ring"}) {
    for (const Algorithm a :
         {Algorithm::kStrongGathered, Algorithm::kStrongArbitrary})
      cases.push_back({a, family, 8, 0, {}, ByzStrategy::kSpoofer});
    cases.push_back({Algorithm::kCrashRealGathering, family, 8, 0, {},
                     ByzStrategy::kCrash});
  }
  EXPECT_EQ(expect_live_matches_bulk(cases), cases.size() * 2);
}

// Multi-wave k > n points: the Byzantine schedule gains charged windows
// from every later wave, so bulk execution's ChargeGate jumps, range
// effects (the squatter) and replay-kernel stretches bounded by the next
// charged window or the phase budget (the drawing strategies) are
// exercised against live execution's sleep pattern.
TEST(CompiledAdversaryScenario, MultiWaveChargedWindows) {
  // (n, k): one wave; ceil(13/6) = 3 waves; then 2 and 3 waves at n = 8,
  // where both algorithms tolerate f > 0, so Byzantine robots of the
  // early waves really sleep through the later waves' charged windows.
  const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
      {6, 6}, {6, 13}, {8, 13}, {8, 19}};
  std::vector<GridCase> cases;
  for (const Algorithm a :
       {Algorithm::kTournamentGathered, Algorithm::kThreeGroupGathered}) {
    EXPECT_GT(max_tolerated_f_k(a, 8, 13), 0u);
    EXPECT_GT(max_tolerated_f_k(a, 8, 19), 0u);
    for (const auto& [n, k] : sizes)
      for (const ByzStrategy s :
           {ByzStrategy::kSquatter, ByzStrategy::kMapLiar,
            ByzStrategy::kFakeSettler, ByzStrategy::kRandomWalker,
            ByzStrategy::kIntentSpammer})
        cases.push_back({a, "er", n, k, {}, s});
  }
  EXPECT_GT(expect_live_matches_bulk(cases), 0u);
}

// Heterogeneous mixes, including crash members (empty programs) inside an
// otherwise broadcasting adversary.
TEST(CompiledAdversaryScenario, MixedAdversaries) {
  std::vector<GridCase> cases;
  for (const char* family : {"er", "grid"}) {
    cases.push_back({Algorithm::kTournamentGathered, family, 8, 0,
                     {ByzStrategy::kSquatter, ByzStrategy::kCrash}});
    cases.push_back({Algorithm::kTournamentGathered, family, 8, 0,
                     {ByzStrategy::kMapLiar, ByzStrategy::kIntentSpammer,
                      ByzStrategy::kFakeSettler}});
  }
  EXPECT_GT(expect_live_matches_bulk(cases), 0u);
}

}  // namespace
}  // namespace bdg::core
