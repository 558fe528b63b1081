// Edge cases and adversarial corners of the in-engine map finding:
// quorum forgery with strong spoofers, Byzantine-majority agent groups,
// tight budgets, and window synchronization under every combination.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/byzantine.h"
#include "core/protocol_slack.h"
#include "core/scenario.h"
#include "explore/engine_map.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "run/sweep.h"

namespace bdg::explore {
namespace {

using core::ByzStrategy;

sim::Proc agent_wrap(sim::Ctx c, MapFindConfig cfg,
                     std::shared_ptr<MapFindOutcome> out) {
  *out = co_await run_map_agent(c, cfg);
}

sim::Proc token_wrap(sim::Ctx c, MapFindConfig cfg,
                     std::shared_ptr<MapFindOutcome> out) {
  *out = co_await run_map_token(c, cfg);
}

struct GroupFixture {
  Graph g;
  MapFindConfig cfg;
  std::map<sim::RobotId, std::shared_ptr<MapFindOutcome>> outs;

  explicit GroupFixture(Graph graph, std::vector<sim::RobotId> agents,
                        std::vector<sim::RobotId> tokens,
                        std::uint32_t agent_q, std::uint32_t token_q)
      : g(std::move(graph)) {
    cfg.agents = std::move(agents);
    cfg.tokens = std::move(tokens);
    cfg.agent_quorum = agent_q;
    cfg.token_quorum = token_q;
    cfg.n = static_cast<std::uint32_t>(g.n());
    cfg.round_budget = default_map_window(cfg.n);
  }

  /// byz maps robot id -> strategy; everyone else is honest.
  void run(const std::map<sim::RobotId, ByzStrategy>& byz, bool strong) {
    sim::Engine eng(g);
    std::vector<sim::RobotId> all = cfg.agents;
    all.insert(all.end(), cfg.tokens.begin(), cfg.tokens.end());
    for (const sim::RobotId id : all) {
      const auto it = byz.find(id);
      if (it != byz.end()) {
        eng.add_robot(id,
                      strong ? sim::Faultiness::kStrongByzantine
                             : sim::Faultiness::kWeakByzantine,
                      0, core::make_byzantine_program(it->second, all, id));
        continue;
      }
      auto out = std::make_shared<MapFindOutcome>();
      outs[id] = out;
      const bool is_agent = std::find(cfg.agents.begin(), cfg.agents.end(),
                                      id) != cfg.agents.end();
      if (is_agent) {
        eng.add_robot(id, sim::Faultiness::kHonest, 0,
                      [this, out](sim::Ctx c) { return agent_wrap(c, cfg, out); });
      } else {
        eng.add_robot(id, sim::Faultiness::kHonest, 0,
                      [this, out](sim::Ctx c) { return token_wrap(c, cfg, out); });
      }
    }
    eng.run(cfg.round_budget + 8);
    // Window contract: every honest participant is back at the rally node.
    for (const auto& [id, out] : outs) EXPECT_EQ(eng.position_of(id), 0u);
  }

  void expect_correct(sim::RobotId id) {
    ASSERT_TRUE(outs.at(id)->code.has_value()) << "robot " << id;
    EXPECT_TRUE(rooted_isomorphic(graph_from_code(*outs.at(id)->code), 0, g, 0))
        << "robot " << id;
  }
};

TEST(EngineMapEdge, StrongSpooferBelowQuorumCannotForge) {
  // 4 agents (1 strong spoofer) + 4 tokens, quorum 2: the spoofer forges
  // agent IDs but is one physical source; honest agents and tokens still
  // produce the true map.
  Rng rng(6);
  GroupFixture fx(shuffle_ports(make_connected_er(7, 0.5, rng), rng),
                  {1, 2, 3, 4}, {5, 6, 7, 8}, 2, 2);
  fx.run({{4, ByzStrategy::kSpoofer}}, /*strong=*/true);
  for (const sim::RobotId id : {1u, 2u, 3u, 5u, 6u, 7u, 8u})
    fx.expect_correct(id);
}

TEST(EngineMapEdge, ByzantineMajorityAgentGroupPoisonsRun) {
  // 3 agents, 2 Byzantine liars with quorum 2: the run may produce garbage
  // or nothing — but honest participants must still be home on schedule
  // (asserted inside run()) and the honest agent must not crash.
  const Graph g = make_ring(6);
  GroupFixture fx(g, {1, 2, 3}, {4, 5, 6}, 2, 2);
  fx.run({{1, ByzStrategy::kMapLiar}, {2, ByzStrategy::kMapLiar}},
         /*strong=*/false);
  // No assertion on the code: with a lying quorum the token side may be
  // fed garbage. The contract is liveness + synchronization only.
  SUCCEED();
}

TEST(EngineMapEdge, TokensMajorityLyingStillSafeForAgent) {
  // 3 tokens, 2 liars, token quorum 2: presence lies can corrupt the map,
  // but the honest agent detects inconsistencies (degree/arrival checks)
  // or caps the node count and aborts rather than misbehaving.
  const Graph g = make_grid(2, 3);
  GroupFixture fx(g, {1, 2, 3}, {4, 5, 6}, 2, 2);
  fx.run({{4, ByzStrategy::kMapLiar}, {5, ByzStrategy::kMapLiar}},
         /*strong=*/false);
  SUCCEED();
}

TEST(EngineMapEdge, TinyBudgetAbortsButReturnsHome) {
  const Graph g = make_complete(6);
  const auto n = static_cast<std::uint32_t>(g.n());
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = n;
  cfg.round_budget = 24;  // nowhere near enough for K6
  auto aout = std::make_shared<MapFindOutcome>();
  auto tout = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return agent_wrap(c, cfg, aout); });
  eng.add_robot(2, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return token_wrap(c, cfg, tout); });
  const sim::RunStats st = eng.run(cfg.round_budget + 4);
  EXPECT_TRUE(aout->aborted);
  EXPECT_EQ(eng.position_of(1), 0u);
  EXPECT_EQ(eng.position_of(2), 0u);
  EXPECT_LE(st.rounds, cfg.round_budget + 2);
}

TEST(EngineMapEdge, WindowConsumesExactBudget) {
  const Graph g = make_ring(5);
  const auto n = static_cast<std::uint32_t>(g.n());
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = n;
  cfg.round_budget = default_map_window(n);
  auto aout = std::make_shared<MapFindOutcome>();
  auto tout = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return agent_wrap(c, cfg, aout); });
  eng.add_robot(2, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return token_wrap(c, cfg, tout); });
  const sim::RunStats st = eng.run(cfg.round_budget + 64);
  // Both robots consume the whole window, then terminate together.
  EXPECT_GE(st.rounds, cfg.round_budget);
  EXPECT_LE(st.rounds, cfg.round_budget + 1);
  EXPECT_TRUE(aout->code.has_value());
  EXPECT_TRUE(tout->code.has_value());
  EXPECT_EQ(*aout->code, *tout->code);  // token learned the identical map
}

TEST(EngineMapEdge, TokenLearnsAgentMapViaDoneBroadcast) {
  Rng rng(14);
  const Graph g = shuffle_ports(make_connected_er(6, 0.5, rng), rng);
  GroupFixture fx(g, {1, 2}, {3, 4}, 1, 1);
  fx.run({}, false);
  for (const sim::RobotId id : {1u, 2u, 3u, 4u}) fx.expect_correct(id);
  EXPECT_EQ(*fx.outs.at(1)->code, *fx.outs.at(3)->code);
}

TEST(EngineMapEdge, ActiveRoundsReportedBelowBudget) {
  const Graph g = make_grid(2, 3);
  const auto res = build_map_with_token(g, 2);
  EXPECT_GT(res.active_rounds, 0u);
  EXPECT_LT(core::Round(res.active_rounds) * 2,
            default_map_window(static_cast<std::uint32_t>(g.n())));
}

// ---------------------------------------------------------------------------
// The token's listen step sleeps in the engine (Ctx::await_delivery) through
// rounds without instructions. A no-op observer turns it back into the
// per-round listen loop, so observed runs are the oracle.
// ---------------------------------------------------------------------------

/// A pair-setting agent that speaks only its script: one instruction at
/// sub-round 0 of each listed round, silent otherwise.
sim::Proc scripted_agent(sim::Ctx c,
                         std::vector<std::pair<std::uint64_t, MapOp>> script) {
  for (const auto& [round, op] : script) {
    if (c.round() < round) co_await c.sleep_rounds(round - c.round());
    const std::int64_t instr[] = {static_cast<std::int64_t>(op), 0};
    c.broadcast(kMsgInstr, instr);
    std::optional<Port> move;
    if (op == MapOp::kTMove) move = 0;
    co_await c.end_round(move);
  }
}

struct PairEnd {
  sim::RunStats stats;
  MapFindOutcome token;
  NodeId token_pos = kNoNode;
};

using AgentScript = std::vector<std::pair<std::uint64_t, MapOp>>;

/// Agents 1, 3, 5, ... each speak one script at the rally node of a
/// 6-ring; token 2 believes an instruction from `quorum` of them.
PairEnd run_scripted_agents(const std::vector<AgentScript>& scripts,
                            std::uint32_t quorum, bool early_close,
                            sim::Observer* observer) {
  const Graph g = make_ring(6);
  MapFindConfig cfg;
  for (std::size_t i = 0; i < scripts.size(); ++i)
    cfg.agents.push_back(2 * i + 1);
  cfg.tokens = {2};
  cfg.agent_quorum = quorum;
  cfg.n = 6;
  cfg.round_budget = default_map_window(cfg.n);
  cfg.early_close = early_close;
  sim::Engine eng(g);
  eng.set_observer(observer);
  auto tout = std::make_shared<MapFindOutcome>();
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    eng.add_robot(cfg.agents[i], sim::Faultiness::kHonest, 0,
                  [&, i](sim::Ctx c) { return scripted_agent(c, scripts[i]); });
  }
  eng.add_robot(2, sim::Faultiness::kHonest, 0,
                [=](sim::Ctx c) { return token_wrap(c, cfg, tout); });
  PairEnd end;
  end.stats = eng.run(cfg.round_budget + 8);
  end.token = *tout;
  end.token_pos = eng.position_of(2);
  return end;
}

/// Runs the scripts with and without an observer; every count must agree.
PairEnd expect_observed_matches(const std::vector<AgentScript>& scripts,
                                std::uint32_t quorum, bool early_close) {
  const PairEnd wait =
      run_scripted_agents(scripts, quorum, early_close, nullptr);
  sim::Observer noop;
  const PairEnd live = run_scripted_agents(scripts, quorum, early_close, &noop);
  EXPECT_EQ(wait.stats.rounds, live.stats.rounds);
  EXPECT_EQ(wait.stats.simulated_rounds, live.stats.simulated_rounds);
  EXPECT_EQ(wait.stats.resumes, live.stats.resumes);
  EXPECT_EQ(wait.stats.moves, live.stats.moves);
  EXPECT_EQ(wait.stats.messages, live.stats.messages);
  EXPECT_EQ(wait.stats.all_honest_done, live.stats.all_honest_done);
  EXPECT_EQ(wait.token.active_rounds, live.token.active_rounds);
  EXPECT_EQ(wait.token.aborted, live.token.aborted);
  EXPECT_EQ(wait.token_pos, live.token_pos);
  EXPECT_EQ(live.stats.coroutine_resumes, live.stats.resumes);
  EXPECT_LT(wait.stats.coroutine_resumes, live.stats.coroutine_resumes);
  EXPECT_EQ(live.stats.iterated_rounds, live.stats.simulated_rounds);
  return wait;
}

/// The pair setting: agent 1 alone, quorum 1.
PairEnd expect_observed_pair_matches(const AgentScript& script,
                                     bool early_close) {
  return expect_observed_matches({script}, 1, early_close);
}

TEST(TokenListen, ParkedEarlyCloseTokenClosesAtTheSilenceBound) {
  // The agent parks the token and falls silent: the token sleeps through
  // exactly the probing bound, closes on the next silent round and goes
  // home. Sleeping to the budget instead would miss the close.
  const std::uint64_t bound = 6 * 6 + 2 * 6 + core::kAgentOpReserve;
  const PairEnd silent =
      expect_observed_pair_matches({{0, MapOp::kPark}}, /*early_close=*/true);
  EXPECT_EQ(silent.token.active_rounds, bound + 2);
  // An instruction after bound - 1 silent rounds restarts the count.
  const PairEnd noop = expect_observed_pair_matches(
      {{0, MapOp::kPark}, {bound, MapOp::kNoop}}, /*early_close=*/true);
  EXPECT_EQ(noop.token.active_rounds, 2 * bound + 2);
  // Exactly `bound` silent rounds are in-protocol: an attach right after
  // still reaches the token, whose next silent round then closes it, one
  // move away from the rally node.
  const PairEnd attach = expect_observed_pair_matches(
      {{0, MapOp::kTMove}, {1, MapOp::kPark}, {bound + 2, MapOp::kAttach}},
      /*early_close=*/true);
  EXPECT_EQ(attach.token.active_rounds, bound + 4);
  EXPECT_EQ(attach.token_pos, 0u);
}

TEST(TokenListen, GroupTokenListensToTheBudget) {
  // Without early close a silent agent leaves the token listening until
  // only its walk-home reserve is left.
  const PairEnd end = expect_observed_pair_matches(
      {{0, MapOp::kTMove}, {1, MapOp::kPark}}, /*early_close=*/false);
  EXPECT_EQ(core::Round(end.token.active_rounds + 1 + core::kTokenStepReserve),
            default_map_window(6));
  EXPECT_EQ(end.token_pos, 0u);
}

TEST(TokenListen, GroupTokenSleepsThroughALoneLiar) {
  // Quorum 2 of agents 1, 3 and 5. Agent 1 lies alone in rounds 0..29,
  // asking for TOKEN_HERE; agents 3 and 5 agree on a no-op in round 10, a
  // token move in round 20 and a query at the new node in round 21, then
  // fall silent. Only those three rounds reach the quorum, so the token
  // sleeps through the liar's rounds and answers just the one query.
  AgentScript liar;
  for (std::uint64_t r = 0; r < 30; ++r) liar.push_back({r, MapOp::kQuery});
  const AgentScript honest = {
      {10, MapOp::kNoop}, {20, MapOp::kTMove}, {21, MapOp::kQuery}};
  const PairEnd end =
      expect_observed_matches({liar, honest, honest}, 2, /*early_close=*/false);
  EXPECT_EQ(core::Round(end.token.active_rounds + 1 + core::kTokenStepReserve),
            default_map_window(6));
  EXPECT_EQ(end.token_pos, 0u);
  // 30 liar broadcasts, 6 honest ones, one TOKEN_HERE.
  EXPECT_EQ(end.stats.messages, 37u);
  // The run takes 54 real switches. Woken by the liar too, the token would
  // add two for each of the 18 liar-only rounds it spent beside it.
  EXPECT_LE(end.stats.coroutine_resumes, 60u);
}

/// A scenario point and the unobserved simulated_rounds and resumes the
/// per-round token loop produced on it (recorded before the token slept
/// in the engine).
struct ListenPoint {
  core::Algorithm algorithm;
  std::uint32_t n;
  std::uint32_t f;
  ByzStrategy strategy;
  std::uint64_t simulated_rounds;
  std::uint64_t resumes;
};

TEST(TokenListen, ScenariosKeepThePerRoundCounts) {
  // Smallest-ID Byzantines make most agents Byzantine, so honest tokens
  // mostly listen to silence. Crash robots never run again, so there the
  // observed run matches in every count. The squatter and the map-liar
  // park ambient, and an observer unparks them too, which adds live
  // adversary rounds and resumes; there the unobserved counts are pinned.
  using core::Algorithm;
  const ListenPoint points[] = {
      {Algorithm::kThreeGroupGathered, 16, 4, ByzStrategy::kCrash, 35345,
       776163},
      {Algorithm::kThreeGroupGathered, 16, 4, ByzStrategy::kSquatter, 35345,
       917657},
      {Algorithm::kThreeGroupGathered, 16, 4, ByzStrategy::kMapLiar, 35345,
       1324640},
      {Algorithm::kTournamentGathered, 12, 5, ByzStrategy::kMapLiar, 9747,
       1741517},
  };
  for (const ListenPoint& p : points) {
    SCOPED_TRACE(core::to_string(p.algorithm) + " " +
                 core::to_string(p.strategy));
    const auto g = run::build_family_graph("er", p.n, 1,
                                           /*need_trivial_quotient=*/true,
                                           /*er_edge_probability=*/0.0);
    ASSERT_TRUE(g.has_value());
    core::ScenarioConfig cfg;
    cfg.algorithm = p.algorithm;
    cfg.num_byzantine = p.f;
    cfg.strategy = p.strategy;
    const core::ScenarioResult wait = core::run_scenario(*g, cfg);
    sim::Observer noop;
    cfg.observer = &noop;
    const core::ScenarioResult live = core::run_scenario(*g, cfg);
    EXPECT_TRUE(wait.verify.ok()) << wait.verify.detail;
    EXPECT_EQ(wait.verify.ok(), live.verify.ok());
    EXPECT_EQ(wait.stats.rounds, live.stats.rounds);
    EXPECT_EQ(wait.stats.moves, live.stats.moves);
    EXPECT_EQ(wait.stats.messages, live.stats.messages);
    EXPECT_EQ(wait.stats.all_honest_done, live.stats.all_honest_done);
    EXPECT_EQ(wait.stats.simulated_rounds, p.simulated_rounds);
    EXPECT_EQ(wait.stats.resumes, p.resumes);
    if (p.strategy == ByzStrategy::kCrash) {
      EXPECT_EQ(wait.stats.simulated_rounds, live.stats.simulated_rounds);
      EXPECT_EQ(wait.stats.resumes, live.stats.resumes);
    }
    // Most activations of the listening tokens were accounted, not run.
    EXPECT_LT(2 * wait.stats.coroutine_resumes, wait.stats.resumes);
  }
}

}  // namespace
}  // namespace bdg::explore
