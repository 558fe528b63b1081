// Engine edge semantics: sub-round budget exhaustion, message drops at
// round boundaries, livelock guards, and multi-call run() behavior.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sim/engine.h"

namespace bdg::sim {
namespace {

Proc late_broadcaster(Ctx ctx, std::uint32_t at_subround) {
  while (ctx.subround() < at_subround) co_await ctx.next_subround();
  ctx.broadcast(9, {1});
  co_await ctx.end_round(std::nullopt);
  co_await ctx.end_round(std::nullopt);
}

Proc every_subround_listener(Ctx ctx, std::vector<Msg>* heard,
                             std::uint32_t subs) {
  for (std::uint32_t round = 0; round < 2; ++round) {
    for (std::uint32_t s = 0; s + 1 < subs; ++s) {
      co_await ctx.next_subround();
      for (const Msg& m : ctx.inbox()) heard->push_back(m);
    }
    co_await ctx.end_round(std::nullopt);
  }
}

TEST(EngineEdge, BroadcastInFinalSubroundIsDropped) {
  // Messages sent in the last sub-round have no delivery slot: the paper's
  // sub-round device always leaves a listening slot after a speaking one,
  // and the engine documents the drop.
  const Graph g = make_path(2);
  EngineConfig cfg;
  cfg.subrounds = 4;
  Engine eng(g, cfg);
  std::vector<Msg> heard;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return late_broadcaster(c, 3); });  // last sub
  eng.add_robot(2, Faultiness::kHonest, 0,
                [&](Ctx c) { return every_subround_listener(c, &heard, 4); });
  eng.run(8);
  EXPECT_TRUE(heard.empty());
}

Proc pooled_broadcaster(Ctx ctx) {
  // Same payload through both paths across two rounds: receivers must not
  // be able to tell broadcast_pooled (arena-backed) from broadcast.
  static constexpr std::int64_t kPayload[] = {7, -3, 42};
  for (int round = 0; round < 2; ++round) {
    ctx.broadcast(11, {7, -3, 42});
    ctx.broadcast_pooled(12, kPayload);
    co_await ctx.end_round(std::nullopt);
  }
}

TEST(EngineEdge, PooledBroadcastDeliversIdenticalPayloads) {
  const Graph g = make_path(2);
  EngineConfig cfg;
  cfg.subrounds = 4;
  Engine eng(g, cfg);
  std::vector<Msg> heard;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return pooled_broadcaster(c); });
  eng.add_robot(2, Faultiness::kHonest, 0,
                [&](Ctx c) { return every_subround_listener(c, &heard, 4); });
  eng.run(8);
  ASSERT_EQ(heard.size(), 4u);  // 2 rounds x 2 kinds
  for (const Msg& m : heard) {
    EXPECT_TRUE(m.kind == 11 || m.kind == 12);
    EXPECT_EQ(m.data, (std::vector<std::int64_t>{7, -3, 42}));
  }
}

TEST(EngineEdge, BroadcastBeforeFinalSubroundIsDelivered) {
  const Graph g = make_path(2);
  EngineConfig cfg;
  cfg.subrounds = 4;
  Engine eng(g, cfg);
  std::vector<Msg> heard;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return late_broadcaster(c, 2); });
  eng.add_robot(2, Faultiness::kHonest, 0,
                [&](Ctx c) { return every_subround_listener(c, &heard, 4); });
  eng.run(8);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0].kind, 9u);
}

Proc subround_hog(Ctx ctx) {
  for (;;) co_await ctx.next_subround();  // never ends the round voluntarily
}

TEST(EngineEdge, SubroundBudgetForcesRoundEnd) {
  // A robot that keeps awaiting sub-rounds is carried to the next round by
  // the engine when the budget runs out — the round counter still advances.
  const Graph g = make_path(2);
  EngineConfig cfg;
  cfg.subrounds = 3;
  cfg.max_resumes = 100'000;
  Engine eng(g, cfg);
  eng.add_robot(1, Faultiness::kWeakByzantine, 0,
                [](Ctx c) { return subround_hog(c); });
  Proc (*two_rounds)(Ctx) = [](Ctx c) -> Proc {
    co_await c.end_round(std::nullopt);
    co_await c.end_round(std::nullopt);
  };
  eng.add_robot(2, Faultiness::kHonest, 1, two_rounds);
  const RunStats st = eng.run(10);
  EXPECT_TRUE(st.all_honest_done);
  EXPECT_GE(st.rounds, 2u);
}

Proc infinite_spinner(Ctx ctx) {
  for (;;) co_await ctx.end_round(std::nullopt);
}

TEST(EngineEdge, ResumeBudgetGuardsLivelock) {
  const Graph g = make_path(2);
  EngineConfig cfg;
  cfg.max_resumes = 50;
  Engine eng(g, cfg);
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return infinite_spinner(c); });
  EXPECT_THROW(eng.run(1'000'000), std::runtime_error);
}

TEST(EngineEdge, RunStopsAtMaxRounds) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return infinite_spinner(c); });
  const RunStats st = eng.run(25);
  EXPECT_EQ(st.rounds, 25u);
  EXPECT_FALSE(st.all_honest_done);
}

TEST(EngineEdge, SecondRunContinuesFromWhereItStopped) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return infinite_spinner(c); });
  (void)eng.run(10);
  const RunStats st2 = eng.run(20);
  EXPECT_EQ(st2.rounds, 20u);
  EXPECT_EQ(eng.current_round(), 20u);
}

TEST(EngineEdge, AddRobotAfterRunThrows) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return infinite_spinner(c); });
  (void)eng.run(2);
  EXPECT_THROW(eng.add_robot(2, Faultiness::kHonest, 0,
                             [](Ctx c) { return infinite_spinner(c); }),
               std::logic_error);
}

TEST(EngineEdge, EmptyGraphRejected) {
  const Graph g;
  EXPECT_THROW(Engine eng(g), std::invalid_argument);
}

TEST(EngineEdge, PositionOfUnknownIdThrows) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kHonest, 0,
                [](Ctx c) { return infinite_spinner(c); });
  EXPECT_THROW((void)eng.position_of(99), std::invalid_argument);
}

Proc self_hearing(Ctx ctx, bool* heard_self) {
  ctx.broadcast(5);
  co_await ctx.next_subround();
  for (const Msg& m : ctx.inbox())
    if (m.claimed == ctx.self()) *heard_self = true;
  co_await ctx.end_round(std::nullopt);
}

TEST(EngineEdge, SenderHearsItsOwnBroadcast) {
  // Co-located delivery includes the sender (the paper's robots observe
  // all messages at their node, including their own status beacons).
  const Graph g = make_path(2);
  Engine eng(g);
  bool heard_self = false;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [&](Ctx c) { return self_hearing(c, &heard_self); });
  eng.run(5);
  EXPECT_TRUE(heard_self);
}

/// Parks ambient forever, logging every round it acts in and whether the
/// engine ever resumed it for the post-run drain.
Proc ambient_parker(Ctx ctx, std::vector<Round>* acted, bool* drained) {
  for (;;) {
    if (ctx.draining()) *drained = true;
    acted->push_back(ctx.round());
    co_await ctx.end_round_ambient(std::nullopt);
  }
}

struct RoundLog final : Observer {
  std::vector<Round> rounds;
  void on_round(Round r) override { rounds.push_back(r); }
};

TEST(EngineEdge, ObserverKeepsAmbientRobotLiveEveryRound) {
  // Unobserved, an ambient robot never holds the engine awake: the honest
  // robot's 50-round sleep fast-forwards and the parked robot is drained
  // once after the run. With an observer attached the park is a plain
  // end_round: the robot acts in every round, every round is simulated,
  // and nothing is left to drain.
  const Graph g = make_path(2);
  Proc (*long_sleep)(Ctx) = [](Ctx c) -> Proc {
    co_await c.sleep_rounds(50);
  };
  const auto run = [&](Observer* obs, std::vector<Round>* acted,
                       bool* drained) {
    Engine eng(g);
    eng.set_observer(obs);
    eng.add_robot(1, Faultiness::kWeakByzantine, 0, [=](Ctx c) {
      return ambient_parker(c, acted, drained);
    });
    eng.add_robot(2, Faultiness::kHonest, 1, long_sleep);
    return eng.run(1000);
  };

  std::vector<Round> bulk_acted;
  bool bulk_drained = false;
  const RunStats bulk = run(nullptr, &bulk_acted, &bulk_drained);
  EXPECT_TRUE(bulk_drained);
  EXPECT_LT(bulk.simulated_rounds, 5u);

  RoundLog log;
  std::vector<Round> live_acted;
  bool live_drained = false;
  const RunStats live = run(&log, &live_acted, &live_drained);
  EXPECT_TRUE(live.all_honest_done);
  EXPECT_EQ(live.rounds, bulk.rounds);
  EXPECT_EQ(live.rounds, Round(live.simulated_rounds));
  EXPECT_FALSE(live_drained);
  ASSERT_EQ(log.rounds.size(), live.simulated_rounds);
  ASSERT_EQ(live_acted.size(), live.simulated_rounds);
  for (std::size_t r = 0; r < log.rounds.size(); ++r) {
    EXPECT_EQ(log.rounds[r], Round(r));
    EXPECT_EQ(live_acted[r], Round(r));
  }
}

}  // namespace
}  // namespace bdg::sim
