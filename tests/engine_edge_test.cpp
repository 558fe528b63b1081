// Engine edge semantics: sub-round budget exhaustion, message drops at
// round boundaries, livelock guards, multi-call run() behavior, and the
// batched ambient replay kernel against its per-round definition.
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

/// One fast-forwarded stretch to replay (see Ctx::ambient_walk).
struct WalkCase {
  std::uint64_t steps = 0;
  std::vector<std::uint64_t> draws;
  WalkMove move = WalkMove::kStay;
  std::uint64_t emitted = 0;
};

/// Replays `wc` at its first resume, then records its arrival port and
/// finishes. kernel = one ambient_walk call; otherwise the per-round loop
/// that call batches: the draws, the move, one ambient_round per step.
Proc walker(Ctx ctx, const WalkCase* wc, bool kernel, Rng* rng,
            Port* arrival) {
  if (kernel) {
    ctx.ambient_walk(wc->steps, wc->draws, wc->move, wc->emitted, *rng);
  } else {
    for (std::uint64_t s = 0; s < wc->steps; ++s) {
      for (const std::uint64_t bound : wc->draws) (void)rng->below(bound);
      bool hop = wc->move == WalkMove::kRandomPort;
      if (wc->move == WalkMove::kChancePort) hop = rng->chance(1, 2);
      std::optional<Port> port;
      if (hop && ctx.degree() != 0)
        port = static_cast<Port>(rng->below(ctx.degree()));
      ctx.ambient_round(port, wc->emitted);
    }
  }
  *arrival = ctx.arrival_port();
  co_return;
}

struct WalkEnd {
  RunStats stats;
  bool threw = false;
  NodeId pos = kNoNode;
  Port arrival = kNoPort;
  std::uint64_t next_draw = 0;  ///< the generator's next value afterwards
};

WalkEnd run_walker(const Graph& g, const WalkCase& wc, bool kernel,
                   std::uint64_t max_resumes) {
  EngineConfig cfg;
  cfg.max_resumes = max_resumes;
  Engine eng(g, cfg);
  Rng rng(4242);
  WalkEnd end;
  eng.add_robot(1, Faultiness::kHonest, 0, [&](Ctx c) {
    return walker(c, &wc, kernel, &rng, &end.arrival);
  });
  try {
    end.stats = eng.run(10);
  } catch (const std::runtime_error&) {
    end.threw = true;
  }
  end.pos = eng.robot_position(0);
  end.next_draw = rng.next();
  return end;
}

void expect_kernel_matches_loop(const Graph& g, const WalkCase& wc,
                                std::uint64_t max_resumes = 1'000'000) {
  const WalkEnd loop = run_walker(g, wc, /*kernel=*/false, max_resumes);
  const WalkEnd kernel = run_walker(g, wc, /*kernel=*/true, max_resumes);
  EXPECT_EQ(kernel.threw, loop.threw);
  EXPECT_EQ(kernel.pos, loop.pos);
  EXPECT_EQ(kernel.arrival, loop.arrival);
  EXPECT_EQ(kernel.next_draw, loop.next_draw);
  EXPECT_EQ(kernel.stats.moves, loop.stats.moves);
  EXPECT_EQ(kernel.stats.messages, loop.stats.messages);
  EXPECT_EQ(kernel.stats.resumes, loop.stats.resumes);
  EXPECT_EQ(kernel.stats.rounds, loop.stats.rounds);
}

TEST(EngineEdge, AmbientWalkMatchesPerRoundReplay) {
  Rng grng(5);
  const Graph g = make_connected_er(12, 0.3, grng);
  // Victim-style bound 7 (not a power of two: Lemire's rejection branch is
  // live) and payload-style bound 4, under every move rule.
  const std::vector<std::uint64_t> spoofer_draws = {7, 4, 7, 4, 7, 7};
  for (const WalkMove move :
       {WalkMove::kStay, WalkMove::kRandomPort, WalkMove::kChancePort}) {
    SCOPED_TRACE(static_cast<int>(move));
    expect_kernel_matches_loop(g, {1000, spoofer_draws, move, 17});
    expect_kernel_matches_loop(g, {1000, {4}, move, 4});
    expect_kernel_matches_loop(g, {1000, {}, move, 1});
    expect_kernel_matches_loop(g, {1, {7}, move, 0});
  }
  // The walk really moved, and counted one resume per step.
  const WalkEnd moved = run_walker(g, {1000, {}, WalkMove::kRandomPort, 3},
                                   /*kernel=*/true, 1'000'000);
  EXPECT_EQ(moved.stats.moves, 1000u);
  EXPECT_EQ(moved.stats.messages, 3000u);
  EXPECT_EQ(moved.stats.resumes, 1001u);  // + the program's own resume
  EXPECT_NE(moved.arrival, kNoPort);
}

TEST(EngineEdge, AmbientWalkOnOneNodeGraphDrawsNoPort) {
  // Degree 0: a random move stays put without a port draw; the chance
  // move still draws its coin.
  const Graph g(1);
  for (const WalkMove move : {WalkMove::kRandomPort, WalkMove::kChancePort}) {
    SCOPED_TRACE(static_cast<int>(move));
    expect_kernel_matches_loop(g, {500, {7, 4}, move, 2});
    const WalkEnd end =
        run_walker(g, {500, {}, move, 0}, /*kernel=*/true, 1'000'000);
    EXPECT_EQ(end.stats.moves, 0u);
    EXPECT_EQ(end.arrival, kNoPort);
  }
}

TEST(EngineEdge, AmbientWalkThrowsAtTheSameStepAsThePerRoundLoop) {
  // The program's first resume is 1 of the budget, so the resume budget
  // runs out at replay step 37 of 1000: both paths throw there, after the
  // same draws and moves.
  Rng grng(9);
  const Graph g = make_connected_er(10, 0.4, grng);
  for (const WalkMove move :
       {WalkMove::kStay, WalkMove::kRandomPort, WalkMove::kChancePort}) {
    SCOPED_TRACE(static_cast<int>(move));
    const WalkCase wc{1000, {7, 4}, move, 5};
    expect_kernel_matches_loop(g, wc, /*max_resumes=*/38);
    EXPECT_TRUE(run_walker(g, wc, /*kernel=*/true, 38).threw);
    // A budget that covers the stretch exactly does not throw.
    const WalkEnd exact = run_walker(g, wc, /*kernel=*/true, 1001);
    EXPECT_FALSE(exact.threw);
    EXPECT_EQ(exact.stats.resumes, 1001u);
  }
}

}  // namespace
}  // namespace bdg::sim
