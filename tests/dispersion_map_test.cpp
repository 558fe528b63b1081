// Dispersion-Using-Map (paper Section 2.2): Lemma 2 (honest robots never
// blacklist honest robots — verified indirectly: honest dispersion
// succeeds), Lemma 3 (no two honest robots settle on one node) and Lemma 4
// (termination within the tour) under every adversary strategy.
#include "core/dispersion_using_map.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/byzantine.h"
#include "core/protocol_msgs.h"
#include "core/verifier.h"
#include "graph/generators.h"

namespace bdg::core {
namespace {

sim::Proc disperse_robot(sim::Ctx c, DispersionParams params,
                         std::shared_ptr<DispersionOutcome> out) {
  *out = co_await run_dispersion_using_map(c, std::move(params));
}

struct CaseSetup {
  std::vector<sim::RobotId> ids;
  std::vector<NodeId> starts;             // same length as ids
  std::vector<ByzStrategy> byz;           // strategies for first byz.size() ids
};

struct Outcome {
  VerifyResult verify;
  std::vector<std::shared_ptr<DispersionOutcome>> honest_outs;
  core::Round rounds;
};

/// Run Dispersion-Using-Map with every honest robot holding the TRUE map
/// (identity copy) rooted at its start node.
Outcome run_case(const Graph& g, const CaseSetup& setup) {
  sim::Engine eng(g);
  const core::Round phase =
      dispersion_phase_rounds(static_cast<std::uint32_t>(g.n()));
  Outcome out;
  for (std::size_t i = 0; i < setup.ids.size(); ++i) {
    if (i < setup.byz.size()) {
      eng.add_robot(setup.ids[i], sim::Faultiness::kWeakByzantine,
                    setup.starts[i],
                    make_byzantine_program(setup.byz[i], setup.ids,
                                           1000 + setup.ids[i]));
      continue;
    }
    DispersionParams params;
    params.map = g;  // identity map: map coordinates == real coordinates
    params.map_root = setup.starts[i];
    params.phase_rounds = phase;
    auto slot = std::make_shared<DispersionOutcome>();
    out.honest_outs.push_back(slot);
    eng.add_robot(setup.ids[i], sim::Faultiness::kHonest, setup.starts[i],
                  [params, slot](sim::Ctx c) {
                    return disperse_robot(c, params, slot);
                  });
  }
  const sim::RunStats st = eng.run(phase + 8);
  out.verify = verify_dispersion(eng);
  out.rounds = st.rounds;
  return out;
}

CaseSetup all_honest(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  CaseSetup s;
  for (std::size_t i = 0; i < g.n(); ++i) {
    s.ids.push_back(10 + 3 * i);
    s.starts.push_back(static_cast<NodeId>(rng.below(g.n())));
  }
  return s;
}

TEST(DispersionUsingMap, AllHonestDisperseOnEveryFamily) {
  for (const auto& [name, g] : standard_menagerie(8, 50)) {
    SCOPED_TRACE(name);
    const Outcome out = run_case(g, all_honest(g, 5));
    EXPECT_TRUE(out.verify.ok()) << out.verify.detail;
    for (const auto& o : out.honest_outs) EXPECT_TRUE(o->settled);
  }
}

TEST(DispersionUsingMap, AllHonestGatheredStart) {
  const Graph g = make_grid(3, 3);
  CaseSetup s = all_honest(g, 1);
  for (auto& st : s.starts) st = 4;  // all at the center
  const Outcome out = run_case(g, s);
  EXPECT_TRUE(out.verify.ok()) << out.verify.detail;
}

TEST(DispersionUsingMap, SingleRobotSettlesImmediately) {
  const Graph g = make_ring(5);
  CaseSetup s;
  s.ids = {7};
  s.starts = {2};
  const Outcome out = run_case(g, s);
  EXPECT_TRUE(out.verify.ok());
  EXPECT_TRUE(out.honest_outs[0]->settled);
  EXPECT_EQ(out.honest_outs[0]->settled_map_node, 2u);
  EXPECT_EQ(out.honest_outs[0]->nodes_skipped, 0u);  // Observation 1
}

TEST(DispersionUsingMap, TwoHonestAtSameNodeSplit) {
  const Graph g = make_path(4);
  CaseSetup s;
  s.ids = {5, 9};
  s.starts = {1, 1};
  const Outcome out = run_case(g, s);
  EXPECT_TRUE(out.verify.ok()) << out.verify.detail;
  // The smaller ID settles at the shared start (rank preference).
  EXPECT_EQ(out.honest_outs[0]->settled_map_node, 1u);
  EXPECT_NE(out.honest_outs[1]->settled_map_node, 1u);
}

// Lemma 3 under each adversary strategy, at maximal honest density
// (n - f honest robots, f Byzantine with the smallest IDs => they win all
// rank preferences they contest).
class AdversarySweep : public ::testing::TestWithParam<ByzStrategy> {};

TEST_P(AdversarySweep, HonestAlwaysDisperse) {
  const ByzStrategy strategy = GetParam();
  Rng rng(99);
  for (const auto& [name, g] : standard_menagerie(8, 60)) {
    SCOPED_TRACE(name + "/" + to_string(strategy));
    CaseSetup s;
    const std::size_t n = g.n();
    const std::size_t f = n - 1;  // Theorem 1 tolerance: up to n-1 Byzantine
    for (std::size_t i = 0; i < n; ++i) {
      s.ids.push_back(2 + 2 * i);
      s.starts.push_back(static_cast<NodeId>(rng.below(n)));
    }
    // Sweep several f values including the extreme.
    for (const std::size_t fs : {std::size_t{1}, n / 2, f}) {
      CaseSetup cur = s;
      cur.byz.assign(fs, strategy);
      const Outcome out = run_case(g, cur);
      EXPECT_TRUE(out.verify.ok())
          << "f=" << fs << ": " << out.verify.detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, AdversarySweep,
                         ::testing::ValuesIn(weak_strategies()),
                         [](const auto& info) { return to_string(info.param); });

/// Deterministic relocating settler: claims Settled every round while
/// shadowing the honest robot's tour direction, so the honest robot is
/// guaranteed to see the same "settled" ID at two different nodes.
sim::Proc shadow_settler(sim::Ctx ctx) {
  for (;;) {
    const std::int64_t status[] = {kStateSettled};
    ctx.broadcast(kMsgStatus, status);
    co_await ctx.end_round(Port{0});
  }
}

TEST(DispersionUsingMap, FakeSettlerGetsBlacklisted) {
  // One honest robot on an oriented ring with a shadowing fake settler:
  // round 1 it records the liar settled at its node and skips; the liar
  // moves along with it, so round 2 exhibits the same ID "settled" at a
  // different node => blacklist (paper step 4), and the honest robot then
  // settles because the only settled claim in sight is blacklisted.
  const Graph g = make_oriented_ring(5);
  const core::Round phase =
      dispersion_phase_rounds(static_cast<std::uint32_t>(g.n()));
  sim::Engine eng(g);
  eng.add_robot(3, sim::Faultiness::kWeakByzantine, 0,
                [](sim::Ctx c) { return shadow_settler(c); });
  DispersionParams params;
  params.map = g;
  params.map_root = 0;
  params.phase_rounds = phase;
  auto slot = std::make_shared<DispersionOutcome>();
  eng.add_robot(7, sim::Faultiness::kHonest, 0,
                [params, slot](sim::Ctx c) {
                  return disperse_robot(c, params, slot);
                });
  eng.run(phase + 8);
  EXPECT_TRUE(slot->settled);
  EXPECT_GE(slot->blacklisted, 1u);
  EXPECT_GE(slot->nodes_skipped, 1u);
}

TEST(DispersionUsingMap, SettleWithinOneTourBound) {
  // Lemma 4: honest robots settle within O(n) rounds of the phase.
  const Graph g = make_grid(3, 3);
  const Outcome out = run_case(g, all_honest(g, 2));
  for (const auto& o : out.honest_outs) {
    EXPECT_TRUE(o->settled);
    EXPECT_LE(o->settle_round, 2 * g.n() + 2);
  }
}

TEST(DispersionUsingMap, HonestNeverBlacklistsHonestAllHonestRun) {
  // Lemma 2, directly observable: with no Byzantine robots, every
  // blacklist stays empty.
  const Graph g = make_complete(6);
  const Outcome out = run_case(g, all_honest(g, 3));
  for (const auto& o : out.honest_outs) EXPECT_EQ(o->blacklisted, 0u);
}

TEST(DispersionUsingMap, PhaseLengthExact) {
  const Graph g = make_ring(5);
  const core::Round phase =
      dispersion_phase_rounds(static_cast<std::uint32_t>(g.n()));
  const Outcome out = run_case(g, all_honest(g, 4));
  // Every robot consumes exactly the phase budget; the engine detects
  // completion at the top of the following round.
  EXPECT_GE(out.rounds, phase);
  EXPECT_LE(out.rounds, phase + 1);
}

}  // namespace
}  // namespace bdg::core
