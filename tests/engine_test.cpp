// Simulator engine semantics: sub-round messaging, simultaneous movement,
// weak/strong spoofing enforcement, sleeping and fast-forwarding,
// determinism.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "graph/generators.h"
#include "sim/task.h"

namespace bdg::sim {
namespace {

constexpr std::uint32_t kPing = 1;

Proc move_once(Ctx ctx, Port p, NodeId* where, Port* arrived) {
  co_await ctx.end_round(p);
  *arrived = ctx.arrival_port();
  *where = 0;  // marker that we ran
}

TEST(Engine, MoveUpdatesPositionAndArrivalPort) {
  const Graph g = make_path(3);
  Engine eng(g);
  NodeId marker = kNoNode;
  Port arrived = kNoPort;
  eng.add_robot(1, Faultiness::kHonest, 0, [&](Ctx c) {
    return move_once(c, 0, &marker, &arrived);
  });
  const RunStats st = eng.run(10);
  EXPECT_EQ(eng.position_of(1), 1u);
  EXPECT_EQ(arrived, 0u);  // entered node 1 through its port 0
  EXPECT_EQ(st.moves, 1u);
  EXPECT_TRUE(st.all_honest_done);
}

Proc broadcaster(Ctx ctx) {
  const std::int64_t words[] = {42};
  ctx.broadcast(kPing, words);
  co_await ctx.end_round(std::nullopt);
}

Proc listener(Ctx ctx, std::vector<Msg>* heard) {
  co_await ctx.next_subround();  // sub 1: messages from sub 0
  const auto box = ctx.inbox();
  heard->assign(box.begin(), box.end());
  co_await ctx.end_round(std::nullopt);
}

TEST(Engine, BroadcastDeliveredNextSubroundToColocated) {
  const Graph g = make_path(2);
  Engine eng(g);
  std::vector<Msg> heard;
  eng.add_robot(1, Faultiness::kHonest, 0, [](Ctx c) { return broadcaster(c); });
  eng.add_robot(2, Faultiness::kHonest, 0,
                [&](Ctx c) { return listener(c, &heard); });
  eng.run(5);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0].claimed, 1u);
  EXPECT_EQ(heard[0].kind, kPing);
  EXPECT_EQ(heard[0].data, (std::vector<std::int64_t>{42}));
}

TEST(Engine, BroadcastNotHeardAcrossNodes) {
  const Graph g = make_path(2);
  Engine eng(g);
  std::vector<Msg> heard;
  eng.add_robot(1, Faultiness::kHonest, 0, [](Ctx c) { return broadcaster(c); });
  eng.add_robot(2, Faultiness::kHonest, 1,
                [&](Ctx c) { return listener(c, &heard); });
  eng.run(5);
  EXPECT_TRUE(heard.empty());
}

Proc weak_spoofer(Ctx ctx) {
  ctx.spoof_broadcast(99, kPing);  // must throw for weak robots
  co_await ctx.end_round(std::nullopt);
}

Proc idle_two_rounds(Ctx ctx) {
  co_await ctx.end_round(std::nullopt);
  co_await ctx.end_round(std::nullopt);
}

TEST(Engine, WeakRobotCannotSpoof) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kWeakByzantine, 0,
                [](Ctx c) { return weak_spoofer(c); });
  // An honest bystander keeps the run alive (the engine stops as soon as
  // every honest robot has finished).
  eng.add_robot(2, Faultiness::kHonest, 1,
                [](Ctx c) { return idle_two_rounds(c); });
  EXPECT_THROW(eng.run(5), std::logic_error);
}

Proc strong_spoofer(Ctx ctx) {
  ctx.spoof_broadcast(99, kPing);
  co_await ctx.end_round(std::nullopt);
}

TEST(Engine, StrongRobotSpoofsClaimedIdButNotSource) {
  const Graph g = make_path(2);
  Engine eng(g);
  std::vector<Msg> heard;
  eng.add_robot(1, Faultiness::kStrongByzantine, 0,
                [](Ctx c) { return strong_spoofer(c); });
  eng.add_robot(2, Faultiness::kHonest, 0,
                [&](Ctx c) { return listener(c, &heard); });
  eng.run(5);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0].claimed, 99u);  // forged ID visible
  EXPECT_EQ(heard[0].source, 0u);    // but still one physical source slot
}

Proc sleeper(Ctx ctx, std::uint64_t rounds, core::Round* woke_at) {
  co_await ctx.sleep_rounds(rounds);
  *woke_at = ctx.round();
}

TEST(Engine, SleepFastForwardsIdleRounds) {
  const Graph g = make_path(2);
  Engine eng(g);
  core::Round woke_at = 0;
  eng.add_robot(1, Faultiness::kHonest, 0, [&](Ctx c) {
    return sleeper(c, 1'000'000, &woke_at);
  });
  const RunStats st = eng.run(2'000'000);
  EXPECT_EQ(woke_at, 1'000'000u);
  // The million idle rounds must not have been simulated one by one.
  EXPECT_LE(st.simulated_rounds, 4u);
}

Proc two_phase(Ctx ctx, std::vector<core::Round>* rounds_seen) {
  rounds_seen->push_back(ctx.round());
  co_await ctx.sleep_rounds(10);
  rounds_seen->push_back(ctx.round());
  co_await ctx.end_round(std::nullopt);
  rounds_seen->push_back(ctx.round());
}

TEST(Engine, RoundCounterAdvancesThroughSleepAndMoves) {
  const Graph g = make_path(2);
  Engine eng(g);
  std::vector<core::Round> seen;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [&](Ctx c) { return two_phase(c, &seen); });
  eng.run(100);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 0u);
  EXPECT_EQ(seen[1], 10u);
  EXPECT_EQ(seen[2], 11u);
}

TEST(Engine, RejectsDuplicateIdsAndBadStarts) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kHonest, 0, [](Ctx c) { return broadcaster(c); });
  EXPECT_THROW(eng.add_robot(1, Faultiness::kHonest, 0,
                             [](Ctx c) { return broadcaster(c); }),
               std::invalid_argument);
  EXPECT_THROW(eng.add_robot(0, Faultiness::kHonest, 0,
                             [](Ctx c) { return broadcaster(c); }),
               std::invalid_argument);
  EXPECT_THROW(eng.add_robot(2, Faultiness::kHonest, 9,
                             [](Ctx c) { return broadcaster(c); }),
               std::invalid_argument);
}

Proc bad_mover(Ctx ctx) { co_await ctx.end_round(Port{7}); }

TEST(Engine, InvalidPortThrows) {
  const Graph g = make_path(2);
  Engine eng(g);
  eng.add_robot(1, Faultiness::kHonest, 0, [](Ctx c) { return bad_mover(c); });
  EXPECT_THROW(eng.run(5), std::logic_error);
}

// Nested Task composition: a parent awaiting a child that moves.
Task<int> child_moves(Ctx ctx, Port p) {
  co_await ctx.end_round(p);
  co_return 7;
}

Proc parent(Ctx ctx, int* got) {
  const int v = co_await child_moves(ctx, 0);
  *got = v;
  co_await ctx.end_round(std::nullopt);
}

TEST(Engine, NestedTasksResumeAtLeaf) {
  const Graph g = make_path(3);
  Engine eng(g);
  int got = 0;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [&](Ctx c) { return parent(c, &got); });
  eng.run(10);
  EXPECT_EQ(got, 7);
  EXPECT_EQ(eng.position_of(1), 1u);
}

Proc racer(Ctx ctx, int hops) {
  for (int i = 0; i < hops; ++i)
    co_await ctx.end_round(ctx.degree() > 1 ? Port{1} : Port{0});
}

TEST(Engine, DeterministicTrace) {
  auto run_once = [] {
    const Graph g = make_ring(6);
    Engine eng(g);
    for (RobotId id = 1; id <= 4; ++id)
      eng.add_robot(id, Faultiness::kHonest, static_cast<NodeId>(id - 1),
                    [](Ctx c) { return racer(c, 9); });
    const RunStats st = eng.run(50);
    std::vector<NodeId> pos;
    for (std::size_t i = 0; i < eng.num_robots(); ++i)
      pos.push_back(eng.robot_position(i));
    return std::make_pair(st.moves, pos);
  };
  EXPECT_EQ(run_once(), run_once());
}

Proc subround_counter(Ctx ctx, std::vector<std::uint32_t>* subs) {
  for (int i = 0; i < 3; ++i) {
    subs->push_back(ctx.subround());
    co_await ctx.next_subround();
  }
  co_await ctx.end_round(std::nullopt);
}

TEST(Engine, SubroundsIncreaseWithinRound) {
  const Graph g = make_path(2);
  Engine eng(g);
  std::vector<std::uint32_t> subs;
  eng.add_robot(1, Faultiness::kHonest, 0,
                [&](Ctx c) { return subround_counter(c, &subs); });
  eng.run(5);
  EXPECT_EQ(subs, (std::vector<std::uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace bdg::sim
