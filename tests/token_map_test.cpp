// Map construction with a movable token: the reference honest run must
// produce a rooted map isomorphic to the real graph from every start node,
// and the Byzantine-facing engine version must stay safe under lying
// partners (abort, return home, stay synchronized).
#include "explore/engine_map.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/byzantine.h"
#include "explore/covering_walk.h"
#include "explore/token_map.h"
#include "graph/generators.h"
#include "graph/quotient.h"

namespace bdg {
namespace {

using explore::MapFindConfig;
using explore::MapFindOutcome;

TEST(PartialMap, ConnectAndRoute) {
  PartialMap pm(2);
  const NodeId a = pm.add_node(2);
  pm.connect(0, 0, a, 1);
  EXPECT_TRUE(pm.explored(0, 0));
  EXPECT_FALSE(pm.explored(0, 1));
  std::vector<Port> route;
  pm.route_into(0, a, route);
  EXPECT_EQ(route, (std::vector<Port>{0}));
  pm.route_into(a, 0, route);
  EXPECT_EQ(route, (std::vector<Port>{1}));
  EXPECT_FALSE(pm.complete());
  EXPECT_THROW(pm.connect(0, 0, a, 0), std::logic_error);
}

TEST(PartialMap, CandidatesFilterDegreeAndSlot) {
  PartialMap pm(2);
  const NodeId a = pm.add_node(2);
  const NodeId b = pm.add_node(3);
  pm.connect(0, 0, a, 1);
  // Degree-2 nodes with port 0 unexplored: node `a` only (0's port 0 used).
  std::vector<NodeId> cands;
  pm.candidates_into(2, 0, cands);
  EXPECT_EQ(cands, (std::vector<NodeId>{a}));
  pm.candidates_into(3, 2, cands);
  EXPECT_EQ(cands, (std::vector<NodeId>{b}));
  pm.candidates_into(5, 0, cands);
  EXPECT_TRUE(cands.empty());
}

TEST(PartialMap, IntoVariantsClearReusedBuffers) {
  // Path 0 -(0,1)- a -(0,1)- b: every call refills a buffer that already
  // holds the previous answer.
  PartialMap pm(2);
  const NodeId a = pm.add_node(2);
  const NodeId b = pm.add_node(2);
  pm.connect(0, 0, a, 1);
  pm.connect(a, 0, b, 1);
  std::vector<Port> route;
  std::vector<NodeId> cands;
  pm.route_into(0, b, route);
  EXPECT_EQ(route, (std::vector<Port>{0, 0}));
  pm.route_into(b, 0, route);
  EXPECT_EQ(route, (std::vector<Port>{1, 1}));
  pm.route_into(a, a, route);
  EXPECT_TRUE(route.empty());
  pm.candidates_into(2, 0, cands);
  EXPECT_EQ(cands, (std::vector<NodeId>{b}));
  pm.candidates_into(7, 0, cands);
  EXPECT_TRUE(cands.empty());
}

TEST(PartialMap, FirstUnexploredCursorIsMonotone) {
  // The cursor-backed scan must return exactly the lexicographically first
  // unexplored slot at every step of an incremental build, including after
  // completion and after adding fresh (all-unexplored) nodes.
  PartialMap pm(1);
  ASSERT_EQ(pm.first_unexplored(), std::make_pair(NodeId{0}, Port{0}));
  const NodeId a = pm.add_node(2);
  pm.connect(0, 0, a, 0);
  ASSERT_EQ(pm.first_unexplored(), std::make_pair(a, Port{1}));
  const NodeId b = pm.add_node(1);
  pm.connect(a, 1, b, 0);
  EXPECT_FALSE(pm.first_unexplored().has_value());
  EXPECT_TRUE(pm.complete());
  const NodeId c = pm.add_node(1);
  ASSERT_EQ(pm.first_unexplored(), std::make_pair(c, Port{0}));
  EXPECT_FALSE(pm.complete());
}

TEST(CoveringWalk, ToursVisitAllAndReturn) {
  for (const auto& [name, g] : standard_menagerie(9, 5)) {
    SCOPED_TRACE(name);
    for (NodeId s = 0; s < g.n(); s += 3) {
      const auto ports = covering_walk_ports(g, s);
      EXPECT_EQ(ports.size(), 2 * (g.n() - 1));
      std::vector<bool> seen(g.n(), false);
      NodeId v = s;
      seen[v] = true;
      for (const Port p : ports) {
        v = g.hop(v, p).to;
        seen[v] = true;
      }
      EXPECT_EQ(v, s);  // Euler tour returns to the start
      for (NodeId u = 0; u < g.n(); ++u) EXPECT_TRUE(seen[u]);
    }
  }
}

TEST(ReferenceMap, HonestPairBuildsIsomorphicMap) {
  for (const auto& [name, g] : standard_menagerie(8, 21)) {
    SCOPED_TRACE(name);
    const auto res = explore::build_map_with_token(g, 0);
    EXPECT_EQ(res.map.n(), g.n());
    EXPECT_TRUE(rooted_isomorphic(res.map, 0, g, 0));
  }
}

TEST(ReferenceMap, WorksFromEveryStartNode) {
  Rng rng(4);
  const Graph g = shuffle_ports(make_connected_er(8, 0.4, rng), rng);
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto res = explore::build_map_with_token(g, s);
    EXPECT_TRUE(rooted_isomorphic(res.map, 0, g, s)) << "start " << s;
  }
}

TEST(ReferenceMap, HandlesHighlySymmetricGraphs) {
  // Identity resolution must work even when every node looks alike.
  const auto res = explore::build_map_with_token(make_oriented_ring(7), 2);
  EXPECT_TRUE(rooted_isomorphic(res.map, 0, make_oriented_ring(7), 2));
  const auto res2 = explore::build_map_with_token(make_hypercube(3), 0);
  EXPECT_EQ(res2.map.n(), 8u);
  EXPECT_TRUE(isomorphic(res2.map, make_hypercube(3)));
}

TEST(ReferenceMap, SingleNodeGraphDegenerate) {
  const auto res = explore::build_map_with_token(make_path(1), 0);
  EXPECT_EQ(res.map.n(), 1u);
}

TEST(ReferenceMap, ActiveRoundsWithinWindow) {
  const Graph g = make_grid(3, 3);
  const auto res = explore::build_map_with_token(g, 0);
  EXPECT_LT(res.active_rounds,
            explore::default_map_window(static_cast<std::uint32_t>(g.n())));
}

// --- Byzantine-facing behavior -------------------------------------------

struct EngineMapFixture {
  Graph g;
  sim::Engine eng;
  std::shared_ptr<MapFindOutcome> honest_out =
      std::make_shared<MapFindOutcome>();

  explicit EngineMapFixture(Graph graph) : g(std::move(graph)), eng(g) {}
};

sim::Proc agent_wrapper(sim::Ctx c, MapFindConfig cfg,
                        std::shared_ptr<MapFindOutcome> out) {
  *out = co_await explore::run_map_agent(c, cfg);
}

sim::Proc token_wrapper(sim::Ctx c, MapFindConfig cfg,
                        std::shared_ptr<MapFindOutcome> out) {
  *out = co_await explore::run_map_token(c, cfg);
}

TEST(EngineMap, HonestAgentWithByzantineTokenReturnsHomeAndAborts) {
  const Graph g = make_grid(3, 3);
  const auto n = static_cast<std::uint32_t>(g.n());
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = n;
  cfg.round_budget = explore::default_map_window(n);
  auto out = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return agent_wrapper(c, cfg, out); });
  eng.add_robot(2, sim::Faultiness::kWeakByzantine, 0,
                core::make_byzantine_program(core::ByzStrategy::kMapLiar, {1, 2},
                                             99));
  eng.run(cfg.round_budget + 8);
  // The lying token makes the map inconsistent; the honest agent must
  // abort or produce *something*, and must be physically back at node 0.
  EXPECT_EQ(eng.position_of(1), 0u);
}

TEST(EngineMap, HonestTokenWithByzantineAgentReturnsHome) {
  const Graph g = make_ring(6);
  const auto n = static_cast<std::uint32_t>(g.n());
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = n;
  cfg.round_budget = explore::default_map_window(n);
  auto out = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kWeakByzantine, 0,
                core::make_byzantine_program(core::ByzStrategy::kMapLiar, {1, 2},
                                             7));
  eng.add_robot(2, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return token_wrapper(c, cfg, out); });
  eng.run(cfg.round_budget + 8);
  EXPECT_EQ(eng.position_of(2), 0u);  // dragged around, but walked home
}

TEST(EngineMap, AbsentTokenAborts) {
  const Graph g = make_ring(5);
  const auto n = static_cast<std::uint32_t>(g.n());
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = n;
  cfg.round_budget = explore::default_map_window(n);
  auto out = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return agent_wrapper(c, cfg, out); });
  // Robot 2 exists but crashes elsewhere: never answers queries.
  eng.add_robot(2, sim::Faultiness::kWeakByzantine, 3,
                core::make_byzantine_program(core::ByzStrategy::kCrash, {}, 1));
  eng.run(cfg.round_budget + 8);
  EXPECT_TRUE(out->aborted);
  EXPECT_FALSE(out->code.has_value());
  EXPECT_EQ(eng.position_of(1), 0u);
}

sim::Proc cached_agent_wrapper(sim::Ctx ctx, MapFindConfig cfg, Graph cached,
                               CanonicalCode code,
                               std::shared_ptr<MapFindOutcome> out) {
  *out = co_await explore::run_map_agent_cached(ctx, cfg, cached,
                                                std::move(code));
}

sim::Proc plain_token_wrapper(sim::Ctx ctx, MapFindConfig cfg,
                              std::shared_ptr<MapFindOutcome> out) {
  *out = co_await explore::run_map_token(ctx, cfg);
}

/// Drive one cached-agent window against an honest token on `real`, with
/// `cached` as the map the agent trusts.
MapFindOutcome run_cached_window(const Graph& real, const Graph& cached,
                                 bool token_early_close) {
  const auto n = static_cast<std::uint32_t>(real.n());
  sim::Engine eng(real);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = n;
  cfg.round_budget = explore::default_map_window(n);
  MapFindConfig tcfg = cfg;
  tcfg.early_close = token_early_close;
  const CanonicalCode code = rooted_code(cached, 0);
  auto aout = std::make_shared<MapFindOutcome>();
  auto tout = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kHonest, 0, [=](sim::Ctx c) {
    return cached_agent_wrapper(c, cfg, cached, code, aout);
  });
  eng.add_robot(2, sim::Faultiness::kHonest, 0, [=](sim::Ctx c) {
    return plain_token_wrapper(c, tcfg, tout);
  });
  eng.run(cfg.round_budget + 8);
  return *aout;
}

TEST(EngineMap, CachedAgentVerifiesTrueMapWithoutRebuilding) {
  const Graph g = make_ring(6);
  const auto ref = explore::build_map_with_token(g, 0);
  const MapFindOutcome out = run_cached_window(g, ref.map, true);
  EXPECT_TRUE(out.verified_cache);
  ASSERT_TRUE(out.code.has_value());
  EXPECT_TRUE(rooted_isomorphic(graph_from_code(*out.code), 0, g, 0));
  // The verify-only walk is ~2|E| rounds, far below a full build.
  EXPECT_LE(out.active_rounds, 2u * 6u + 4u);
}

TEST(EngineMap, CachedAgentMismatchFallsBackToFullRebuild) {
  // A poisoned cache (the map of a DIFFERENT graph with the same root
  // degree) must fail the physical walk, and — with the token partner
  // still listening — the same window recovers the true map via a full
  // rebuild. verified_cache stays false: the caller knows this vote came
  // from a fresh build, not the cache.
  const Graph real = make_ring(6);
  const Graph wrong =
      explore::build_map_with_token(make_grid(2, 3), 0).map;
  ASSERT_EQ(wrong.degree(0), real.degree(0));  // root check alone won't catch
  const MapFindOutcome out = run_cached_window(real, wrong, false);
  EXPECT_FALSE(out.verified_cache);
  ASSERT_TRUE(out.code.has_value());
  EXPECT_TRUE(rooted_isomorphic(graph_from_code(*out.code), 0, real, 0));
}

TEST(EngineMap, CachedAgentMismatchWithClosedTokenBurnsWindowSafely) {
  // Same poisoned cache, but the token runs the batched early-close: it
  // leaves after the silent verify walk begins, so the in-window rebuild
  // has no token service and must abort — a burned window (no vote), never
  // an unverified map handed to the caller.
  const Graph real = make_ring(6);
  const Graph wrong =
      explore::build_map_with_token(make_grid(2, 3), 0).map;
  const MapFindOutcome out = run_cached_window(real, wrong, true);
  EXPECT_FALSE(out.verified_cache);
  EXPECT_FALSE(out.code.has_value());
  EXPECT_TRUE(out.aborted);
}

TEST(EngineMap, GroupRunWithQuorumsBuildsMap) {
  // 3 agents + 3 tokens, quorum 2/2, one Byzantine member on each side:
  // honest majorities keep the run correct.
  Rng rng(12);
  const Graph g = shuffle_ports(make_connected_er(7, 0.5, rng), rng);
  const auto n = static_cast<std::uint32_t>(g.n());
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1, 2, 3};
  cfg.tokens = {4, 5, 6};
  cfg.agent_quorum = 2;
  cfg.token_quorum = 2;
  cfg.n = n;
  cfg.round_budget = explore::default_map_window(n);
  std::vector<std::shared_ptr<MapFindOutcome>> outs;
  for (sim::RobotId id = 1; id <= 6; ++id) {
    auto out = std::make_shared<MapFindOutcome>();
    outs.push_back(out);
    if (id == 3 || id == 6) {
      eng.add_robot(id, sim::Faultiness::kWeakByzantine, 0,
                    core::make_byzantine_program(core::ByzStrategy::kMapLiar,
                                                 {1, 2, 3, 4, 5, 6}, id));
    } else if (id <= 3) {
      eng.add_robot(id, sim::Faultiness::kHonest, 0,
                    [=](sim::Ctx c) { return agent_wrapper(c, cfg, out); });
    } else {
      eng.add_robot(id, sim::Faultiness::kHonest, 0,
                    [=](sim::Ctx c) { return token_wrapper(c, cfg, out); });
    }
  }
  eng.run(cfg.round_budget + 8);
  // Honest agents 1,2 and honest tokens 4,5 all end with the true map.
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    ASSERT_TRUE(outs[i]->code.has_value()) << "robot " << i + 1;
    const Graph m = graph_from_code(*outs[i]->code);
    EXPECT_TRUE(rooted_isomorphic(m, 0, g, 0));
  }
}

}  // namespace
}  // namespace bdg
