// Engine edge semantics: sub-round budget exhaustion, message drops at
// round boundaries, livelock guards, multi-call run() behavior, the
// batched ambient replay kernel against its per-round definition, and
// await_delivery against the per-round listen loop it replaces, and the
// rounds only listeners hold against engines that iterate every round, and
// the engine's quiet stretches against live twins.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace bdg::sim {
namespace {

Proc late_broadcaster(Ctx ctx, std::uint32_t at_subround) {
  while (ctx.subround() < at_subround) co_await ctx.next_subround();
  const std::int64_t words[] = {1};
  ctx.broadcast(9, words);
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

Proc span_and_shared_broadcaster(Ctx ctx) {
  // Same payload through both paths across two rounds: receivers must not
  // be able to tell broadcast (one copy per send) from broadcast_shared of
  // a block built once.
  static constexpr std::int64_t kPayload[] = {7, -3, 42};
  const util::PayloadRef shared = ctx.make_payload(kPayload);
  for (int round = 0; round < 2; ++round) {
    ctx.broadcast(11, kPayload);
    ctx.broadcast_shared(12, shared);
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
                [](Ctx c) { return span_and_shared_broadcaster(c); });
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
  Rng::Words words{};  ///< the generator's state afterwards
};

/// The generator every walker starts from unless a test gives its words.
Rng::Words default_words() {
  Rng rng(4242);
  return Rng::words(rng);
}

WalkEnd run_walker(const Graph& g, const WalkCase& wc, bool kernel,
                   std::uint64_t max_resumes,
                   const Rng::Words& start = default_words()) {
  EngineConfig cfg;
  cfg.max_resumes = max_resumes;
  Engine eng(g, cfg);
  Rng rng(1);
  Rng::words(rng) = start;
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
  end.words = Rng::words(rng);
  return end;
}

void expect_kernel_matches_loop(const Graph& g, const WalkCase& wc,
                                std::uint64_t max_resumes = 1'000'000,
                                const Rng::Words& start = default_words()) {
  const WalkEnd loop = run_walker(g, wc, /*kernel=*/false, max_resumes, start);
  const WalkEnd kernel = run_walker(g, wc, /*kernel=*/true, max_resumes, start);
  EXPECT_EQ(kernel.threw, loop.threw);
  EXPECT_EQ(kernel.pos, loop.pos);
  EXPECT_EQ(kernel.arrival, loop.arrival);
  EXPECT_EQ(kernel.words, loop.words);
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

// ---------------------------------------------------------------------------
// The kernel's fused path (chance walks of at least kWalkFusedMin steps
// whose draws have power-of-two bounds, run in blocks of kWalkFusedBlock)
// against the per-round loop: stretch lengths around the threshold and the
// block edges, every graph shape the sweeps use, the budget rule, and a
// generator state whose port draw rejects inside a block.
// ---------------------------------------------------------------------------

TEST(EngineEdge, AmbientWalkFusedPathMatchesPerRoundReplay) {
  Rng grng(11);
  struct Shape {
    const char* name;
    Graph g;
  };
  const Shape shapes[] = {
      {"ring", make_ring(9)},
      {"tree", make_random_tree(13, grng)},
      {"er", make_connected_er(12, 0.3, grng)},
      {"star", make_star(7)},
      {"one node", Graph(1)},
  };
  constexpr std::uint64_t kB = kWalkFusedBlock;
  const std::uint64_t lengths[] = {kWalkFusedMin - 1, kWalkFusedMin,
                                   3 * kB - 1,        3 * kB,
                                   3 * kB + 1,        7 * kB + 1};
  const std::vector<std::vector<std::uint64_t>> draw_sets = {
      {}, {4}, {4, 4}, {4, 7}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    for (const WalkMove move :
         {WalkMove::kStay, WalkMove::kRandomPort, WalkMove::kChancePort}) {
      SCOPED_TRACE(static_cast<int>(move));
      for (const auto& draws : draw_sets) {
        SCOPED_TRACE(draws.size());
        for (const std::uint64_t steps : lengths) {
          SCOPED_TRACE(steps);
          expect_kernel_matches_loop(shape.g, {steps, draws, move, 3});
        }
      }
    }
    // One long stretch per draw set on the fused path's own move rule.
    for (const auto& draws : draw_sets)
      expect_kernel_matches_loop(
          shape.g, {100'000, draws, WalkMove::kChancePort, 2}, 10'000'000);
  }
}

TEST(EngineEdge, AmbientWalkBudgetInsideALongStretchTakesTheExactLoop) {
  // The budget runs out at step 700 of 2000, or at the last step (the
  // program's own resume is 1): the stretch would cross it, so it runs the
  // per-step loop and throws there. A budget that covers the stretch
  // exactly takes the fused path and does not throw.
  Rng grng(3);
  const Graph g = make_connected_er(12, 0.3, grng);
  for (const std::vector<std::uint64_t>& draws :
       {std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{4}}) {
    const WalkCase wc{2000, draws, WalkMove::kChancePort, 5};
    for (const std::uint64_t budget : {701u, 2000u}) {
      expect_kernel_matches_loop(g, wc, budget);
      EXPECT_TRUE(run_walker(g, wc, /*kernel=*/true, budget).threw);
    }
    expect_kernel_matches_loop(g, wc, /*max_resumes=*/2001);
    const WalkEnd exact = run_walker(g, wc, /*kernel=*/true, 2001);
    EXPECT_FALSE(exact.threw);
    EXPECT_EQ(exact.stats.resumes, 2001u);
    EXPECT_EQ(exact.stats.messages, 10000u);
  }
}

/// xoshiro256**'s state step run backwards: the words whose next() call
/// leaves `s`.
Rng::Words previous_words(const Rng::Words& s) {
  const auto rotr = [](std::uint64_t x, int k) {
    return (x >> k) | (x << (64 - k));
  };
  // Forward, from (a, b, c, d): s0 = a^d^b, s1 = a^b^c, s2 = a^c^(b<<17),
  // s3 = rotl(d^b, 45).
  const std::uint64_t d_b = rotr(s[3], 45);
  const std::uint64_t a = s[0] ^ d_b;
  const std::uint64_t y = s[1] ^ s[2];  // b ^ (b << 17)
  std::uint64_t b = y;
  for (int i = 0; i < 4; ++i) b = y ^ (b << 17);
  return {a, b, s[1] ^ b ^ a, d_b ^ b};
}

/// The step (0-based) of a chance walk from node 0 of `g`, replayed by the
/// per-round definition from `start`, whose port draw is made from the
/// generator state `target`; `steps` when no port draw is.
std::uint64_t port_draw_step(const Graph& g, Rng::Words start,
                             const std::vector<std::uint64_t>& draws,
                             const Rng::Words& target, std::uint64_t steps) {
  NodeId pos = 0;
  for (std::uint64_t s = 0; s < steps; ++s) {
    for (const std::uint64_t bound : draws)
      (void)Rng::below_inline(start, bound);
    if (Rng::below_inline(start, 2) != 0) continue;
    if (start == target) return s;
    pos = g.hop(pos, static_cast<Port>(
                         Rng::below_inline(start, g.degree(pos))))
              .to;
  }
  return steps;
}

TEST(EngineEdge, AmbientWalkRedoesABlockWhosePortDrawRejects) {
  // Every node of K4 has degree 3, and a draw of 0 leaves a low product
  // word of 0 < 2^64 mod 3 = 1: Lemire's method draws again. State words
  // with s[1] = 0 make next() return 0, so run the generator backwards
  // from such a state until it is a port draw of the walk, in the first,
  // a middle and the last block of an 8-block stretch: the fused path
  // must hand each of them to the exact loop from the start of its block.
  const Graph g = make_complete(4);
  constexpr std::uint64_t kSteps = 8 * kWalkFusedBlock;
  const std::vector<std::uint64_t> draws = {4};
  // The call before a port draw is a coin that said hop (a clear top bit).
  Rng seed(99);
  Rng::Words target{};
  for (;;) {
    target = Rng::words(seed);
    target[1] = 0;
    Rng::Words coin = previous_words(target);
    if (Rng::below_inline(coin, 2) == 0) break;
    (void)seed.next();
  }
  {
    // The inverse really inverts, and the target's draw really is 0.
    Rng::Words back = previous_words(target);
    (void)Rng::next_inline(back);
    ASSERT_EQ(back, target);
    Rng::Words zero = target;
    ASSERT_EQ(Rng::next_inline(zero), 0u);
  }
  // A step of this walk makes 2.5 next() calls on average: start about
  // that many calls before the middle of each wanted block and step back
  // until the target is one of the walk's port draws in that block.
  std::size_t found = 0;
  for (const std::uint64_t block : {0u, 3u, 7u}) {
    SCOPED_TRACE(block);
    Rng::Words start = target;
    const std::uint64_t lead = 5 * (2 * block + 1) * kWalkFusedBlock / 4;
    for (std::uint64_t c = 0; c < lead; ++c) start = previous_words(start);
    for (int tries = 0; tries < 500; ++tries) {
      start = previous_words(start);
      const std::uint64_t at = port_draw_step(g, start, draws, target, kSteps);
      if (at == kSteps || at / kWalkFusedBlock != block) continue;
      ++found;
      expect_kernel_matches_loop(g, {kSteps, draws, WalkMove::kChancePort, 1},
                                 1'000'000, start);
      break;
    }
  }
  EXPECT_EQ(found, 3u);
}

// ---------------------------------------------------------------------------
// Ctx::await_delivery against its definition: twin engines, one listener
// sleeping in the engine, the other polling every round (next_subround,
// inbox scan, end_round). Every RunStats count, every position and every
// wake must match, and a resume budget must throw in exactly the same runs.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kWatched = 40;
constexpr std::uint32_t kOther = 41;

/// Distinct physical senders (Msg::source) of `kind` messages in `inbox`.
std::size_t sources_of(std::span<const Msg> inbox, std::uint32_t kind) {
  std::vector<std::uint32_t> seen;
  for (const Msg& m : inbox)
    if (m.kind == kind) seen.push_back(m.source);
  std::sort(seen.begin(), seen.end());
  return static_cast<std::size_t>(
      std::unique(seen.begin(), seen.end()) - seen.begin());
}

/// Called at sub-round 0: returns at sub-round 1 of the first round whose
/// inbox holds kWatched messages from `quorum` distinct senders, or of the
/// round `max_silent` rounds on, with the silent rounds before it counted.
/// engine_wait sleeps in await_delivery (looping, as its callers must, when
/// an observer turns it into a plain next_subround, and counting those
/// loops in `early_wakes`); otherwise the per-round loop polls, counting
/// the senders itself.
Task<std::uint64_t> listen(Ctx ctx, bool engine_wait, std::uint64_t max_silent,
                           std::uint32_t quorum, std::uint64_t* early_wakes) {
  std::uint64_t silent = 0;
  for (;;) {
    if (engine_wait) {
      silent +=
          co_await ctx.await_delivery(kWatched, max_silent - silent, quorum);
    } else {
      co_await ctx.next_subround();
    }
    if (silent == max_silent || sources_of(ctx.inbox(), kWatched) >= quorum)
      co_return silent;
    if (engine_wait) ++*early_wakes;
    co_await ctx.end_round(std::nullopt);
    ++silent;
  }
}

/// What the listener saw at one wake: the round, the silent rounds before
/// it, the kinds at sub-round 1 and the sources at sub-round 2 (after its
/// own sub-round 1 reply, so the order pins who ran first at sub-round 1).
struct Wake {
  Round round = 0;
  std::uint64_t silent = 0;
  std::vector<std::uint32_t> kinds;
  std::vector<std::uint32_t> sources;
  bool operator==(const Wake&) const = default;
};

Proc listener(Ctx ctx, bool engine_wait, std::vector<std::uint64_t> waits,
              std::uint32_t quorum, std::vector<Wake>* log,
              std::uint64_t* early_wakes) {
  for (const std::uint64_t max_silent : waits) {
    Wake w;
    w.silent =
        co_await listen(ctx, engine_wait, max_silent, quorum, early_wakes);
    w.round = ctx.round();
    for (const Msg& m : ctx.inbox()) w.kinds.push_back(m.kind);
    ctx.broadcast(kOther);
    co_await ctx.next_subround();
    for (const Msg& m : ctx.inbox()) w.sources.push_back(m.source);
    log->push_back(std::move(w));
    co_await ctx.end_round(std::nullopt);
  }
}

/// One broadcast of a talker: at `round`, sub-round `sub`, then the round
/// ends with `move`.
struct Say {
  Round round = 0;
  std::uint32_t sub = 0;
  std::uint32_t kind = kWatched;
  std::optional<Port> move;
};

/// Speaks each Say `copies` times, or, with `spoof` set, once per forged
/// claimed ID in it.
Proc talker(Ctx ctx, std::vector<Say> script, std::uint32_t copies = 1,
            std::vector<RobotId> spoof = {}) {
  for (const Say& s : script) {
    if (ctx.round() < s.round) co_await ctx.sleep_rounds(s.round - ctx.round());
    while (ctx.subround() < s.sub) co_await ctx.next_subround();
    for (std::uint32_t i = 0; i < copies && spoof.empty(); ++i)
      ctx.broadcast(s.kind);
    for (const RobotId claimed : spoof) ctx.spoof_broadcast(claimed, s.kind);
    co_await ctx.end_round(s.move);
  }
}

/// Robots on make_path(3): talker 1 and talker 3 share node 0 with the
/// listener (ID 2), talker 4 starts at node 2. The listener wakes on
/// `quorum` distinct senders; talker 1 speaks `t1_copies` times a round,
/// talker 3 (strong Byzantine then) forges the IDs in `t3_spoof`.
struct ListenCase {
  std::vector<std::uint64_t> waits;
  std::uint32_t quorum = 1;
  std::vector<Say> t1, t3, t4;
  std::uint32_t t1_copies = 1;
  std::vector<RobotId> t3_spoof;
  std::vector<Round> run_to = {400};  ///< one run() per entry
  std::uint64_t max_resumes = 1'000'000;
};

struct ListenEnd {
  std::vector<RunStats> stats;  ///< one per completed run()
  bool threw = false;
  std::vector<NodeId> pos;
  std::vector<Wake> log;
  /// Unobserved await_delivery returns without a quorum or the deadline:
  /// the engine woke the listener for nothing.
  std::uint64_t early_wakes = 0;
};

ListenEnd run_listen(const ListenCase& c, bool engine_wait,
                     Observer* observer = nullptr) {
  const Graph g = make_path(3);
  EngineConfig cfg;
  cfg.max_resumes = c.max_resumes;
  Engine eng(g, cfg);
  eng.set_observer(observer);
  ListenEnd end;
  eng.add_robot(2, Faultiness::kHonest, 0, [&](Ctx x) {
    return listener(x, engine_wait, c.waits, c.quorum, &end.log,
                    &end.early_wakes);
  });
  eng.add_robot(1, Faultiness::kHonest, 0,
                [&](Ctx x) { return talker(x, c.t1, c.t1_copies); });
  eng.add_robot(3,
                c.t3_spoof.empty() ? Faultiness::kHonest
                                   : Faultiness::kStrongByzantine,
                0, [&](Ctx x) { return talker(x, c.t3, 1, c.t3_spoof); });
  eng.add_robot(4, Faultiness::kHonest, 2, [&](Ctx x) { return talker(x, c.t4); });
  try {
    for (const Round r : c.run_to) end.stats.push_back(eng.run(r));
  } catch (const std::runtime_error&) {
    end.threw = true;
  }
  for (std::size_t i = 0; i < eng.num_robots(); ++i)
    end.pos.push_back(eng.robot_position(i));
  return end;
}

void expect_same_run(const ListenEnd& wait, const ListenEnd& poll) {
  EXPECT_EQ(wait.threw, poll.threw);
  EXPECT_EQ(wait.pos, poll.pos);
  EXPECT_EQ(wait.log, poll.log);
  ASSERT_EQ(wait.stats.size(), poll.stats.size());
  for (std::size_t i = 0; i < poll.stats.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const RunStats& a = wait.stats[i];
    const RunStats& b = poll.stats[i];
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.simulated_rounds, b.simulated_rounds);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.all_honest_done, b.all_honest_done);
    EXPECT_LE(a.coroutine_resumes, b.coroutine_resumes);
    EXPECT_EQ(b.coroutine_resumes, b.resumes);
    EXPECT_LE(a.iterated_rounds, a.simulated_rounds);
    EXPECT_EQ(b.iterated_rounds, b.simulated_rounds);
  }
}

/// The twin comparison, plus: an observed await_delivery is the polling
/// loop itself (every resume real), and a resume budget one short of the
/// polling run's total throws in both engines while the exact total does
/// not. Returns the unobserved await_delivery run.
ListenEnd expect_await_matches_poll(const ListenCase& c) {
  const ListenEnd poll = run_listen(c, /*engine_wait=*/false);
  const ListenEnd wait = run_listen(c, /*engine_wait=*/true);
  expect_same_run(wait, poll);
  EXPECT_EQ(wait.early_wakes, 0u);
  Observer noop;
  const ListenEnd live = run_listen(c, /*engine_wait=*/true, &noop);
  expect_same_run(live, poll);
  if (!live.stats.empty()) {
    EXPECT_EQ(live.stats.back().coroutine_resumes,
              poll.stats.back().coroutine_resumes);
  }
  if (poll.threw || poll.stats.size() != 1) return wait;
  for (const std::uint64_t budget :
       {poll.stats[0].resumes - 1, poll.stats[0].resumes}) {
    SCOPED_TRACE("max_resumes " + std::to_string(budget));
    ListenCase tight = c;
    tight.max_resumes = budget;
    const ListenEnd tight_poll = run_listen(tight, /*engine_wait=*/false);
    EXPECT_EQ(tight_poll.threw, budget < poll.stats[0].resumes);
    expect_same_run(run_listen(tight, /*engine_wait=*/true), tight_poll);
  }
  return wait;
}

TEST(AwaitDelivery, SilentStretchRunsToTheDeadline) {
  // Nobody talks: the listener wakes at each deadline. Talker 4 sleeps
  // until round 30, so with the listener asleep in the engine no robot is
  // scheduled for rounds 1..29; the rounds the listener holds must still
  // count as simulated.
  ListenCase c;
  c.waits = {5, 0, 12};
  c.t4 = {{30, 0, kOther, std::nullopt}};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 3u);
  EXPECT_EQ(wait.log[0].round, Round(5));
  EXPECT_EQ(wait.log[0].silent, 5u);
  EXPECT_EQ(wait.log[1].round, Round(6));
  EXPECT_EQ(wait.log[2].round, Round(19));
  // Rounds 0..20 are simulated (the listener finishes at 20), though the
  // await_delivery engine jumps the ones only the listener holds; 21..29
  // fast-forward, talker 4 speaks at 30 and finishes at 31.
  EXPECT_EQ(wait.stats[0].rounds, Round(32));
  EXPECT_EQ(wait.stats[0].simulated_rounds, 23u);
  // 5 + 12 slept rounds, two resumes each, were accounted, not run.
  EXPECT_EQ(wait.stats[0].resumes - wait.stats[0].coroutine_resumes, 34u);
}

TEST(AwaitDelivery, WakesWhenTheWatchedKindArrives) {
  // Talker 1 (a lower ID) sleeps to round 7 and speaks at sub-round 0;
  // talker 3 (a higher ID) replies at sub-round 1 of the same round, so
  // the woken listener must run between them.
  ListenCase c;
  c.waits = {50, 50};
  c.t1 = {{7, 0, kWatched, std::nullopt}, {9, 0, kWatched, std::nullopt}};
  c.t3 = {{7, 1, kOther, std::nullopt}};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 2u);
  EXPECT_EQ(wait.log[0].round, Round(7));
  EXPECT_EQ(wait.log[0].silent, 7u);
  EXPECT_EQ(wait.log[0].kinds, std::vector<std::uint32_t>{kWatched});
  EXPECT_EQ(wait.log[0].sources, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(wait.log[1].round, Round(9));
  EXPECT_EQ(wait.log[1].silent, 1u);
}

TEST(AwaitDelivery, IgnoresOtherKindsLateBroadcastsAndOtherNodes) {
  // Round 3: another kind at the node. Round 4: the watched kind, but at
  // sub-round 1 (delivered at sub-round 2). Round 5: the watched kind at
  // node 2. Talker 4 then walks to node 1 and speaks there in round 8;
  // talker 1 finally speaks at the listener's node in round 12.
  ListenCase c;
  c.waits = {40};
  c.t1 = {{3, 0, kOther, std::nullopt},
          {4, 1, kWatched, std::nullopt},
          {12, 0, kWatched, std::nullopt}};
  c.t4 = {{5, 0, kWatched, Port{0}}, {8, 0, kWatched, std::nullopt}};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 1u);
  EXPECT_EQ(wait.log[0].round, Round(12));
  EXPECT_EQ(wait.log[0].silent, 12u);
  EXPECT_EQ(wait.pos[3], NodeId{1});
}

TEST(AwaitDelivery, MaxRoundsCutMidWaitAndSecondRun) {
  // The first run() ends while the listener sleeps: its rounds are
  // accounted at run end. The second run() continues the same wait, which
  // a watched message ends in round 45, and accounts only its own rounds.
  ListenCase c;
  c.waits = {100, 3};
  c.t1 = {{45, 0, kWatched, std::nullopt}};
  c.run_to = {30, 60, 80};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.stats.size(), 3u);
  EXPECT_EQ(wait.stats[0].rounds, Round(30));
  EXPECT_FALSE(wait.stats[0].all_honest_done);
  ASSERT_EQ(wait.log.size(), 2u);
  EXPECT_EQ(wait.log[0].round, Round(45));
  EXPECT_EQ(wait.log[1].round, Round(49));
  EXPECT_TRUE(wait.stats[2].all_honest_done);
}

TEST(AwaitDelivery, ResumeBudgetRunsOutMidWait) {
  // 100 silent rounds need ~200 resumes: a budget of 60 runs out while
  // the listener sleeps. Both engines throw, cut by max_rounds or not
  // (the cut run throws from the run-end accounting).
  for (const Round cut : {Round(400), Round(50)}) {
    ListenCase c;
    c.waits = {100};
    c.run_to = {cut};
    c.max_resumes = 60;
    const ListenEnd poll = run_listen(c, /*engine_wait=*/false);
    EXPECT_TRUE(poll.threw);
    expect_same_run(run_listen(c, /*engine_wait=*/true), poll);
  }
}

TEST(AwaitDelivery, QuorumOneShortThenReached) {
  // Quorum 2: talker 1 alone in round 4 is one sender short; talkers 1
  // and 3 together in round 9 make the quorum.
  ListenCase c;
  c.waits = {50};
  c.quorum = 2;
  c.t1 = {{4, 0, kWatched, std::nullopt}, {9, 0, kWatched, std::nullopt}};
  c.t3 = {{9, 0, kWatched, std::nullopt}};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 1u);
  EXPECT_EQ(wait.log[0].round, Round(9));
  EXPECT_EQ(wait.log[0].silent, 9u);
  EXPECT_EQ(wait.log[0].kinds,
            (std::vector<std::uint32_t>{kWatched, kWatched}));
}

TEST(AwaitDelivery, MinSourcesOneWakesOnTheFirstSender) {
  // The same traffic with quorum 1 (the default): today's wake on any
  // message of the kind, in round 4.
  ListenCase c;
  c.waits = {50};
  c.t1 = {{4, 0, kWatched, std::nullopt}, {9, 0, kWatched, std::nullopt}};
  c.t3 = {{9, 0, kWatched, std::nullopt}};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 1u);
  EXPECT_EQ(wait.log[0].round, Round(4));
  EXPECT_EQ(wait.log[0].silent, 4u);
}

TEST(AwaitDelivery, OneSenderTwiceIsOneSource) {
  // Talker 1 sends the watched kind twice in round 3: two messages, one
  // sender. The quorum of 2 is met only when talker 3 joins in round 6.
  ListenCase c;
  c.waits = {20};
  c.quorum = 2;
  c.t1 = {{3, 0, kWatched, std::nullopt}, {6, 0, kWatched, std::nullopt}};
  c.t1_copies = 2;
  c.t3 = {{6, 0, kWatched, std::nullopt}};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 1u);
  EXPECT_EQ(wait.log[0].round, Round(6));
}

TEST(AwaitDelivery, SpoofedIdsFromOneSourceDoNotWake) {
  // A strong Byzantine talker forges four claimed IDs in round 5: four
  // messages, one physical sender, so a quorum of 2 sleeps on to the
  // deadline.
  ListenCase c;
  c.waits = {12};
  c.quorum = 2;
  c.t3 = {{5, 0, kWatched, std::nullopt}};
  c.t3_spoof = {1, 2, 3, 7};
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 1u);
  EXPECT_EQ(wait.log[0].round, Round(12));
  EXPECT_EQ(wait.log[0].silent, 12u);
}

TEST(AwaitDelivery, DeadlineUnderSubQuorumTraffic) {
  // Talkers 1 and 3 speak together in rounds 2..10: two senders, a quorum
  // of 3 never met, so the listener wakes at its deadline, round 8, with
  // the sub-quorum traffic in its inbox.
  ListenCase c;
  c.waits = {8};
  c.quorum = 3;
  for (std::uint64_t r = 2; r <= 10; ++r) {
    c.t1.push_back({r, 0, kWatched, std::nullopt});
    c.t3.push_back({r, 0, kWatched, std::nullopt});
  }
  const ListenEnd wait = expect_await_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 1u);
  EXPECT_EQ(wait.log[0].round, Round(8));
  EXPECT_EQ(wait.log[0].kinds,
            (std::vector<std::uint32_t>{kWatched, kWatched}));
}

// ---------------------------------------------------------------------------
// Deferred ambient rounds (an AmbientPlan passed to Ctx::end_round_ambient)
// against their definition: twin engines run the same oblivious script, one
// parking with a plan after each live round, the other without, so it is
// resumed in every simulated round.
// Every count but coroutine_resumes, every position and arrival port, the
// script's generator state afterwards and every inbox the other robots read
// must match, and a resume budget must throw in exactly the same runs.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kScripted = 60;

/// A compiled-adversary-shaped program. It runs in phases of
/// phase_base + below(phase_bound) rounds, drawn at each phase entry
/// (phase_base 0: one endless phase). A live round draws `draws`,
/// broadcasts the values at sub-round 0 and again at each of `extra_subs`
/// later sub-rounds, then moves by `move`. It sleeps through the charged
/// window [charged_begin, charged_end) and replays fast-forwarded rounds
/// through ambient_walk, or with `replay_per_round` through one
/// ambient_round per round. Its sub-round 0 broadcast is of `kind`.
struct Script {
  std::uint32_t kind = kScripted;
  std::vector<std::uint64_t> draws = {4, 7};
  WalkMove move = WalkMove::kChancePort;
  std::uint32_t extra_subs = 1;
  std::uint64_t phase_base = 0;
  std::uint64_t phase_bound = 0;
  Round charged_begin = 0;
  Round charged_end = 0;
  bool replay_per_round = false;
};

/// One replayed round the way ambient_walk makes it, through ambient_round.
void replay_one_round(Ctx& ctx, const Script& s, std::uint64_t emitted,
                      Rng& rng) {
  for (const std::uint64_t bound : s.draws) (void)rng.below(bound);
  bool hop = s.move == WalkMove::kRandomPort;
  if (s.move == WalkMove::kChancePort) hop = rng.chance(1, 2);
  std::optional<Port> port;
  if (hop && ctx.degree() != 0)
    port = static_cast<Port>(rng.below(ctx.degree()));
  ctx.ambient_round(port, emitted);
}

/// What a robot read: one entry per message in an inbox it looked at.
struct Heard {
  Round round = 0;
  std::uint32_t sub = 0;
  RobotId claimed = 0;
  std::uint32_t kind = 0;
  std::vector<std::int64_t> data;
  bool operator==(const Heard&) const = default;
};

void log_inbox(const Ctx& ctx, std::vector<Heard>* log) {
  for (const Msg& m : ctx.inbox())
    log->push_back({ctx.round(), ctx.subround(), m.claimed, m.kind,
                    {m.data.begin(), m.data.end()}});
}

/// Runs `s`. With `arm` it passes a plan to each live park (its horizon:
/// the phase's remaining rounds and the rounds before the charged window);
/// with `heard` (planless only) it reads its inbox at every sub-round it
/// runs live. Records its arrival port at every drain and, with `live`
/// set, every round it runs live.
Proc scripted(Ctx ctx, const Script* s, bool arm, Rng* rng,
              std::vector<Heard>* heard, std::vector<Port>* drained,
              std::vector<Round>* live = nullptr) {
  const auto phase_len = [&]() -> std::uint64_t {
    std::uint64_t jitter = 0;
    if (s->phase_bound != 0) jitter = rng->below(s->phase_bound);
    return s->phase_base + jitter;
  };
  const auto in_window = [&](Round r) {
    return r >= s->charged_begin && r < s->charged_end;
  };
  const std::uint64_t emitted = 1 + s->extra_subs;
  std::uint64_t left = phase_len();  // 0: endless
  Round now = ctx.round();
  for (;;) {
    if (now < ctx.round()) {
      if (in_window(now)) {
        now = std::min(ctx.round(), s->charged_end);
        continue;
      }
      Round span = ctx.round() - now;
      if (now < s->charged_begin) span = std::min(span, s->charged_begin - now);
      if (left != 0) span = std::min(span, Round(left));
      const std::uint64_t steps = span.low_u64();
      if (s->replay_per_round) {
        for (std::uint64_t i = 0; i < steps; ++i)
          replay_one_round(ctx, *s, emitted, *rng);
      } else {
        ctx.ambient_walk(steps, s->draws, s->move, emitted, *rng);
      }
      now += Round(steps);
      if (left != 0 && (left -= steps) == 0) left = phase_len();
      continue;
    }
    if (ctx.draining()) {
      drained->push_back(ctx.arrival_port());
      co_await ctx.end_round_ambient(std::nullopt);
      now = ctx.round();
      continue;
    }
    if (in_window(now)) {
      co_await ctx.sleep_rounds(s->charged_end - now);
      now = ctx.round();
      continue;
    }
    if (live != nullptr) live->push_back(now);
    std::vector<std::int64_t> words;
    for (const std::uint64_t bound : s->draws)
      words.push_back(static_cast<std::int64_t>(rng->below(bound)));
    if (heard != nullptr) log_inbox(ctx, heard);
    ctx.broadcast(s->kind, words);
    for (std::uint32_t i = 0; i < s->extra_subs; ++i) {
      co_await ctx.next_subround();
      if (heard != nullptr) log_inbox(ctx, heard);
      ctx.broadcast(kScripted + 1 + i, words);
    }
    std::uint64_t horizon =
        left != 0 ? left - 1 : std::numeric_limits<std::uint64_t>::max();
    if (now < s->charged_begin)
      horizon = std::min(horizon, (s->charged_begin - now).low_u64() - 1);
    const AmbientPlan plan{s->draws, s->move, emitted, 1 + s->extra_subs,
                           rng,      horizon};
    bool hop = s->move == WalkMove::kRandomPort;
    if (s->move == WalkMove::kChancePort) hop = rng->chance(1, 2);
    std::optional<Port> port;
    if (hop && ctx.degree() != 0)
      port = static_cast<Port>(rng->below(ctx.degree()));
    const AmbientPlan* const passed = arm ? &plan : nullptr;
    const std::uint64_t rounds =
        1 + co_await ctx.end_round_ambient(port, passed);
    now += Round(rounds);
    if (left != 0 && (left -= rounds) == 0) left = phase_len();
  }
}

/// One round of a walker: move through `move` (nullopt: stay) reading its
/// inbox at every sub-round, or sleep `sleep` rounds without reading.
struct Step {
  std::optional<Port> move;
  Round sleep = 0;
};

Proc walker_reader(Ctx ctx, std::vector<Step> steps, std::uint32_t subs,
                   std::vector<Heard>* heard) {
  for (const Step& st : steps) {
    if (st.sleep != Round(0)) {
      co_await ctx.sleep_rounds(st.sleep);
      continue;
    }
    log_inbox(ctx, heard);
    for (std::uint32_t sub = 1; sub < subs; ++sub) {
      co_await ctx.next_subround();
      log_inbox(ctx, heard);
    }
    co_await ctx.end_round(st.move);
  }
}

std::vector<Step> stay(std::size_t rounds) { return std::vector<Step>(rounds); }

std::vector<Step> operator+(std::vector<Step> a, const std::vector<Step>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Robot 1 runs the script from `adv_start`; robot 2 walks `walk` from
/// `walk_start` reading every inbox; with `replayer` set, robot 3 runs that
/// script planless from `replayer_start`, reading its inbox as it goes;
/// with `clock_rounds` set, honest robot 4 idles that long at node 3 (the
/// run needs an honest robot when the walker is Byzantine).
struct DeferCase {
  Graph g = make_oriented_ring(6);
  std::uint32_t subrounds = 3;
  Script adv;
  NodeId adv_start = 0;
  std::vector<Step> walk;
  NodeId walk_start = 3;
  Faultiness walk_faultiness = Faultiness::kHonest;
  std::optional<Script> replayer;
  NodeId replayer_start = 3;
  std::size_t clock_rounds = 0;
  std::vector<Round> run_to = {400};  ///< one run() per entry
  std::uint64_t max_resumes = 1'000'000;
};

struct DeferEnd {
  std::vector<RunStats> stats;  ///< one per completed run()
  bool threw = false;
  std::vector<NodeId> pos;
  std::vector<Port> adv_drained;  ///< robot 1's arrival port at each drain
  std::uint64_t adv_next_draw = 0;
  std::vector<Heard> walker_heard, replayer_heard, clock_heard;
};

DeferEnd run_defer(const DeferCase& c, bool arm, Observer* observer = nullptr) {
  EngineConfig cfg;
  cfg.subrounds = c.subrounds;
  cfg.max_resumes = c.max_resumes;
  Engine eng(c.g, cfg);
  eng.set_observer(observer);
  DeferEnd end;
  std::vector<Port> replayer_drained;
  Rng adv_rng(77);
  Rng replayer_rng(78);
  eng.add_robot(1, Faultiness::kWeakByzantine, c.adv_start, [&](Ctx x) {
    return scripted(x, &c.adv, arm, &adv_rng, nullptr, &end.adv_drained);
  });
  eng.add_robot(2, c.walk_faultiness, c.walk_start, [&](Ctx x) {
    return walker_reader(x, c.walk, c.subrounds, &end.walker_heard);
  });
  if (c.replayer) {
    eng.add_robot(3, Faultiness::kWeakByzantine, c.replayer_start, [&](Ctx x) {
      return scripted(x, &*c.replayer, /*arm=*/false, &replayer_rng,
                      &end.replayer_heard, &replayer_drained);
    });
  }
  if (c.clock_rounds != 0) {
    eng.add_robot(4, Faultiness::kHonest, 3, [&](Ctx x) {
      return walker_reader(x, stay(c.clock_rounds), c.subrounds,
                           &end.clock_heard);
    });
  }
  try {
    for (const Round r : c.run_to) end.stats.push_back(eng.run(r));
  } catch (const std::runtime_error&) {
    end.threw = true;
  }
  for (std::size_t i = 0; i < eng.num_robots(); ++i)
    end.pos.push_back(eng.robot_position(i));
  end.adv_next_draw = adv_rng.next();
  return end;
}

void expect_same_defer_run(const DeferEnd& a, const DeferEnd& b) {
  EXPECT_EQ(a.threw, b.threw);
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.adv_drained, b.adv_drained);
  EXPECT_EQ(a.adv_next_draw, b.adv_next_draw);
  EXPECT_EQ(a.walker_heard, b.walker_heard);
  EXPECT_EQ(a.replayer_heard, b.replayer_heard);
  EXPECT_EQ(a.clock_heard, b.clock_heard);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < b.stats.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(a.stats[i].rounds, b.stats[i].rounds);
    EXPECT_EQ(a.stats[i].simulated_rounds, b.stats[i].simulated_rounds);
    EXPECT_EQ(a.stats[i].resumes, b.stats[i].resumes);
    EXPECT_EQ(a.stats[i].moves, b.stats[i].moves);
    EXPECT_EQ(a.stats[i].messages, b.stats[i].messages);
    EXPECT_EQ(a.stats[i].all_honest_done, b.stats[i].all_honest_done);
  }
}

std::uint64_t total_coroutine_resumes(const DeferEnd& e) {
  std::uint64_t sum = 0;
  for (const RunStats& st : e.stats) sum += st.coroutine_resumes;
  return sum;
}

/// The twin comparison plus resume budgets one short of the planless
/// run's total and exactly it. Returns {armed run, planless run}.
std::pair<DeferEnd, DeferEnd> expect_defer_matches_live(const DeferCase& c) {
  const DeferEnd live = run_defer(c, /*arm=*/false);
  const DeferEnd armed = run_defer(c, /*arm=*/true);
  expect_same_defer_run(armed, live);
  EXPECT_LE(total_coroutine_resumes(armed), total_coroutine_resumes(live));
  if (!live.threw && live.stats.size() == 1) {
    for (const std::uint64_t budget :
         {live.stats[0].resumes - 1, live.stats[0].resumes}) {
      SCOPED_TRACE("max_resumes " + std::to_string(budget));
      DeferCase tight = c;
      tight.max_resumes = budget;
      const DeferEnd tight_live = run_defer(tight, /*arm=*/false);
      EXPECT_EQ(tight_live.threw, budget < live.stats[0].resumes);
      const DeferEnd tight_armed = run_defer(tight, /*arm=*/true);
      EXPECT_EQ(tight_armed.threw, tight_live.threw);
      if (!tight_live.threw) expect_same_defer_run(tight_armed, tight_live);
    }
  }
  return {armed, live};
}

/// Rounds 0..9 away from the adversary, 10..19 beside it, 20..29 away.
std::vector<Step> visit_node0() {
  const std::vector<Step> ccw(3, Step{Port{1}, 0});
  const std::vector<Step> cw(3, Step{Port{0}, 0});
  return stay(7) + ccw + stay(7) + cw + stay(10);
}

TEST(AmbientDefer, AloneThenColocatedThenAlone) {
  // A stationary adversary at node 0 and a walker that comes over from
  // node 3, stays, and leaves: deferred while alone, live while the
  // walker can hear it, deferred again after.
  DeferCase c;
  c.adv.move = WalkMove::kStay;
  c.walk = visit_node0();
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_FALSE(armed.walker_heard.empty());
  // Live, each of the adversary's 31 rounds costs two coroutine switches;
  // armed, only the ones beside the walker (and its first) do.
  EXPECT_LT(total_coroutine_resumes(armed) + 30,
            total_coroutine_resumes(live));
}

TEST(AmbientDefer, WanderingAdversaryMeetsTheWalker) {
  // A random walk on the ring meets the walker now and then, under every
  // move rule, with and without extra sub-rounds.
  for (const WalkMove move :
       {WalkMove::kStay, WalkMove::kRandomPort, WalkMove::kChancePort}) {
    for (const std::uint32_t extra : {0u, 1u, 2u}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(move)) + " extra " +
                   std::to_string(extra));
      DeferCase c;
      c.subrounds = 4;
      c.adv.move = move;
      c.adv.extra_subs = extra;
      c.walk = visit_node0() + visit_node0() + visit_node0();
      expect_defer_matches_live(c);
    }
  }
}

TEST(AmbientDefer, PhaseEndDrawsTheNextLength) {
  // Phases of 2 + below(5) rounds, each drawn at entry: the plan's
  // horizon ends at the phase end, and the entry draw lands after the
  // stepped rounds' draws exactly as in the live loop.
  DeferCase c;
  c.adv.phase_base = 2;
  c.adv.phase_bound = 5;
  c.walk = visit_node0() + visit_node0();
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_LT(total_coroutine_resumes(armed), total_coroutine_resumes(live));
}

TEST(AmbientDefer, ChargedWindowStartsAfterDeferredRounds) {
  // The script sleeps through [21, 33): the horizon stops deferral at 20,
  // so the robot runs live at 21 to start its sleep.
  DeferCase c;
  c.adv.charged_begin = 21;
  c.adv.charged_end = 33;
  c.adv.move = WalkMove::kRandomPort;
  c.walk = visit_node0() + visit_node0();
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_LT(total_coroutine_resumes(armed), total_coroutine_resumes(live));
}

TEST(AmbientDefer, FastForwardGapRightAfterDeferredRounds) {
  // The walker sleeps 40 rounds at node 3 after 8 active ones: the engine
  // fast-forwards, and the adversary, stepped up to then, replays the gap
  // itself on its next resume.
  DeferCase c;
  c.adv.phase_base = 3;
  c.adv.phase_bound = 4;
  c.walk = stay(8) + std::vector<Step>{Step{std::nullopt, 40}} + visit_node0();
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_LT(armed.stats[0].simulated_rounds, 50u);
  EXPECT_LT(total_coroutine_resumes(armed), total_coroutine_resumes(live));
}

TEST(AmbientDefer, DrainInTheMiddleOfADeferredStretch) {
  // The walker finishes in round 12 while the adversary is being stepped
  // in a long phase: the drain's resume accounts the stepped rounds.
  DeferCase c;
  c.adv.phase_base = 50;
  c.walk = stay(12);
  const auto [armed, live] = expect_defer_matches_live(c);
  ASSERT_EQ(armed.adv_drained.size(), 1u);
  EXPECT_EQ(armed.stats[0].rounds, Round(13));
  EXPECT_LT(total_coroutine_resumes(armed), total_coroutine_resumes(live));
}

TEST(AmbientDefer, MaxRoundsCutThenTwoMoreRuns) {
  // Cut mid-stretch twice; each later run() continues the same phases.
  DeferCase c;
  c.adv.phase_base = 4;
  c.adv.phase_bound = 9;
  c.walk = visit_node0() + visit_node0() + visit_node0();
  c.run_to = {13, 41, 200};
  const auto [armed, live] = expect_defer_matches_live(c);
  ASSERT_EQ(armed.stats.size(), 3u);
  EXPECT_EQ(armed.adv_drained.size(), 3u);
  EXPECT_TRUE(armed.stats[2].all_honest_done);
}

TEST(AmbientDefer, TooFewSubroundsIgnoresThePlan) {
  // Three sub-rounds of broadcasts in a two-sub-round engine: a live round
  // spills into the next round, so the engine must never step it.
  DeferCase c;
  c.subrounds = 2;
  c.adv.extra_subs = 2;
  c.walk = visit_node0();
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_EQ(total_coroutine_resumes(armed), total_coroutine_resumes(live));
}

TEST(AmbientDefer, DoneRobotsAreNotReaders) {
  // The walker finishes beside the adversary after 5 rounds; the honest
  // clock robot keeps the run going, and the adversary is stepped again.
  DeferCase c;
  c.adv.move = WalkMove::kStay;
  c.walk_start = 0;
  c.walk = stay(5);
  c.clock_rounds = 30;
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_FALSE(armed.walker_heard.empty());
  EXPECT_LT(total_coroutine_resumes(armed) + 40,
            total_coroutine_resumes(live));
}

TEST(AmbientDefer, ObserverNeverDefers) {
  // Observed, the park is a plain end_round: every activation is a real
  // resume, armed or not.
  DeferCase c;
  c.walk = visit_node0();
  Observer noop;
  const DeferEnd live = run_defer(c, /*arm=*/false, &noop);
  const DeferEnd armed = run_defer(c, /*arm=*/true, &noop);
  expect_same_defer_run(armed, live);
  EXPECT_EQ(armed.stats[0].coroutine_resumes, armed.stats[0].resumes);
  EXPECT_TRUE(armed.adv_drained.empty());  // live every round: no drain
}

TEST(AmbientDefer, ColocatedReadingByzantineHearsEverything) {
  // A Byzantine robot that reads (like the mirrored robots of
  // core/impossibility.cpp) is a reader too: sitting beside the
  // adversary for the whole run it keeps every round live.
  DeferCase c;
  c.adv.move = WalkMove::kStay;
  c.walk_start = 0;
  c.walk_faultiness = Faultiness::kWeakByzantine;
  c.walk = stay(25);
  c.clock_rounds = 25;
  const auto [armed, live] = expect_defer_matches_live(c);
  EXPECT_EQ(total_coroutine_resumes(armed), total_coroutine_resumes(live));
  EXPECT_EQ(armed.walker_heard.size(), 25u * 2);  // two messages a round
}

/// Parks with a plan at round 0, then parks ambient every round without
/// one, logging each round it is resumed in.
Proc arm_once(Ctx ctx, Rng* rng, std::vector<Round>* resumed) {
  const std::uint64_t draws[] = {4};
  const AmbientPlan plan{draws, WalkMove::kStay, 1, 1, rng,
                         std::numeric_limits<std::uint64_t>::max()};
  co_await ctx.end_round_ambient(std::nullopt, &plan);
  for (;;) {
    resumed->push_back(ctx.round());
    co_await ctx.end_round_ambient(std::nullopt);
  }
}

TEST(AmbientDefer, APlanCoversOnlyTheParkThatFollowsIt) {
  // Stepped while alone, resumed once the walker arrives; from then on it
  // parks without a plan, so it must be resumed in every round, also
  // after the walker has left.
  Engine eng(make_oriented_ring(6), EngineConfig{.subrounds = 3});
  Rng rng(5);
  std::vector<Round> resumed;
  std::vector<Heard> heard;
  eng.add_robot(1, Faultiness::kWeakByzantine, 0,
                [&](Ctx x) { return arm_once(x, &rng, &resumed); });
  eng.add_robot(2, Faultiness::kHonest, 3, [&](Ctx x) {
    return walker_reader(x, visit_node0(), 3, &heard);
  });
  const RunStats st = eng.run(400);
  ASSERT_FALSE(resumed.empty());
  EXPECT_GT(resumed.front(), Round(1));  // rounds 1.. were stepped
  for (std::size_t i = 1; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], resumed[i - 1] + Round(1));
  EXPECT_EQ(resumed.back(), st.rounds);  // the drain
}

TEST(AmbientDefer, PlanlessReplayerKeepsTheReaderCountsRight) {
  // A planless ambient robot that reads and moves through ambient_walk
  // (or ambient_round) replays: the walker's 30-round sleeps fast-forward,
  // so it owes gaps, and ends them wherever its replay took it. Its reader
  // count must follow it there, or the adversary would be stepped beside
  // it.
  for (const auto& [lead, per_round] :
       {std::pair{5u, false}, std::pair{9u, false}, std::pair{5u, true},
        std::pair{9u, true}}) {
    SCOPED_TRACE(std::to_string(lead) + (per_round ? " per round" : ""));
    DeferCase c;
    c.adv.move = WalkMove::kRandomPort;
    c.replayer = Script{};
    c.replayer->move = WalkMove::kRandomPort;
    c.replayer->extra_subs = 1;
    c.replayer->replay_per_round = per_round;
    c.walk = stay(lead) +
             std::vector<Step>{Step{std::nullopt, 30}} + visit_node0() +
             std::vector<Step>{Step{std::nullopt, 30}} + visit_node0();
    const auto [armed, live] = expect_defer_matches_live(c);
    EXPECT_FALSE(armed.replayer_heard.empty());
  }
}

// ---------------------------------------------------------------------------
// Rounds only listeners hold, against engines that iterate them: the same
// listener sleeps in await_delivery in one engine and polls every round in
// the other, beside an armed scripted adversary (robot 1) and a talker
// (robot 3). Polling keeps every round iterated; the await engine jumps
// listener-only stretches and skips rounds in which it stepped every
// adversary. Every count but coroutine_resumes and iterated_rounds, every
// position, wake, adversary drain and generator state must match.
// ---------------------------------------------------------------------------

struct FreeCase {
  std::vector<std::uint64_t> waits;  ///< listener 2, at node 0
  std::uint32_t quorum = 1;
  std::optional<Script> adv;  ///< robot 1, armed
  NodeId adv_start = 3;
  std::vector<Say> talk;  ///< robot 3
  NodeId talk_start = 2;
  std::vector<Round> run_to = {400};  ///< one run() per entry
  std::size_t observe_from = 0;  ///< first run() the observer watches
  std::uint64_t max_resumes = 1'000'000;
};

struct FreeEnd {
  std::vector<RunStats> stats;  ///< one per completed run()
  bool threw = false;
  std::vector<NodeId> pos;
  std::vector<Wake> log;
  /// Unobserved await_delivery returns without a quorum or the deadline:
  /// the engine woke the listener for nothing.
  std::uint64_t early_wakes = 0;
  std::vector<Port> adv_drained;
  std::uint64_t adv_next_draw = 0;
};

FreeEnd run_free(const FreeCase& c, bool engine_wait,
                 Observer* observer = nullptr) {
  EngineConfig cfg;
  cfg.subrounds = 3;
  cfg.max_resumes = c.max_resumes;
  Engine eng(make_oriented_ring(6), cfg);
  FreeEnd end;
  Rng adv_rng(91);
  if (c.adv) {
    eng.add_robot(1, Faultiness::kWeakByzantine, c.adv_start, [&](Ctx x) {
      return scripted(x, &*c.adv, /*arm=*/true, &adv_rng, nullptr,
                      &end.adv_drained);
    });
  }
  eng.add_robot(2, Faultiness::kHonest, 0, [&](Ctx x) {
    return listener(x, engine_wait, c.waits, c.quorum, &end.log,
                    &end.early_wakes);
  });
  eng.add_robot(3, Faultiness::kHonest, c.talk_start,
                [&](Ctx x) { return talker(x, c.talk); });
  try {
    for (std::size_t i = 0; i < c.run_to.size(); ++i) {
      if (i == c.observe_from) eng.set_observer(observer);
      end.stats.push_back(eng.run(c.run_to[i]));
    }
  } catch (const std::runtime_error&) {
    end.threw = true;
  }
  for (std::size_t i = 0; i < eng.num_robots(); ++i)
    end.pos.push_back(eng.robot_position(i));
  end.adv_next_draw = adv_rng.next();
  return end;
}

void expect_same_free_run(const FreeEnd& wait, const FreeEnd& poll) {
  EXPECT_EQ(wait.threw, poll.threw);
  EXPECT_EQ(wait.pos, poll.pos);
  EXPECT_EQ(wait.log, poll.log);
  EXPECT_EQ(wait.adv_drained, poll.adv_drained);
  EXPECT_EQ(wait.adv_next_draw, poll.adv_next_draw);
  ASSERT_EQ(wait.stats.size(), poll.stats.size());
  for (std::size_t i = 0; i < poll.stats.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const RunStats& a = wait.stats[i];
    const RunStats& b = poll.stats[i];
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.simulated_rounds, b.simulated_rounds);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.all_honest_done, b.all_honest_done);
    EXPECT_LE(a.iterated_rounds, a.simulated_rounds);
    EXPECT_EQ(b.iterated_rounds, b.simulated_rounds);
  }
}

std::uint64_t total_iterated(const FreeEnd& e) {
  std::uint64_t sum = 0;
  for (const RunStats& st : e.stats) sum += st.iterated_rounds;
  return sum;
}

std::uint64_t total_simulated(const FreeEnd& e) {
  std::uint64_t sum = 0;
  for (const RunStats& st : e.stats) sum += st.simulated_rounds;
  return sum;
}

/// The twin comparison plus resume budgets one short of the polling run's
/// total and exactly it. Returns the await_delivery run.
FreeEnd expect_free_matches_poll(const FreeCase& c) {
  const FreeEnd poll = run_free(c, /*engine_wait=*/false);
  const FreeEnd wait = run_free(c, /*engine_wait=*/true);
  expect_same_free_run(wait, poll);
  EXPECT_EQ(wait.early_wakes, 0u);
  if (!poll.threw && poll.stats.size() == 1) {
    for (const std::uint64_t budget :
         {poll.stats[0].resumes - 1, poll.stats[0].resumes}) {
      SCOPED_TRACE("max_resumes " + std::to_string(budget));
      FreeCase tight = c;
      tight.max_resumes = budget;
      const FreeEnd tight_poll = run_free(tight, /*engine_wait=*/false);
      EXPECT_EQ(tight_poll.threw, budget < poll.stats[0].resumes);
      const FreeEnd tight_wait = run_free(tight, /*engine_wait=*/true);
      EXPECT_EQ(tight_wait.threw, tight_poll.threw);
      if (!tight_poll.threw) expect_same_free_run(tight_wait, tight_poll);
    }
  }
  return wait;
}

TEST(FreeRounds, ListenerAloneJumpsToItsDeadlines) {
  // Only the listener and a talker asleep to round 90: the await engine
  // iterates just the rounds the listener acts in.
  FreeCase c;
  c.waits = {20, 30, 5};
  c.talk = {{90, 0, kOther, std::nullopt}};
  const FreeEnd wait = expect_free_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 3u);
  EXPECT_EQ(wait.log[2].round, Round(57));
  EXPECT_LT(total_iterated(wait) + 50, total_simulated(wait));
}

TEST(FreeRounds, SleeperWakesMidStretch) {
  // The talker wakes at round 13, walks from node 2 over node 1 to the
  // listener's node and speaks there in round 16: the jump must stop at
  // its wake, not at the listener's deadline.
  FreeCase c;
  c.waits = {40, 40};
  c.talk = {{13, 0, kOther, Port{1}},
            {14, 0, kOther, Port{1}},
            {16, 0, kWatched, std::nullopt}};
  const FreeEnd wait = expect_free_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 2u);
  EXPECT_EQ(wait.log[0].round, Round(16));
  EXPECT_EQ(wait.pos[1], NodeId{0});
}

TEST(FreeRounds, AmbientAdversaryAloneThenColocated) {
  // A stationary adversary away from the listener is stepped in every
  // round, so those rounds are skipped; one on the listener's node runs
  // live and talks into its inbox (another kind: no wake). A wandering
  // one does both.
  for (const auto& [start, move] :
       {std::pair{NodeId{3}, WalkMove::kStay},
        std::pair{NodeId{0}, WalkMove::kStay},
        std::pair{NodeId{2}, WalkMove::kRandomPort},
        std::pair{NodeId{2}, WalkMove::kChancePort}}) {
    SCOPED_TRACE("start " + std::to_string(start) + " move " +
                 std::to_string(static_cast<int>(move)));
    FreeCase c;
    c.waits = {25, 25, 25};
    c.adv = Script{};
    c.adv->move = move;
    c.adv_start = start;
    c.talk = {{31, 0, kOther, Port{1}}, {32, 0, kOther, Port{1}},
              {33, 0, kWatched, std::nullopt}};
    const FreeEnd wait = expect_free_matches_poll(c);
    EXPECT_FALSE(wait.log.empty());
    if (start == NodeId{3}) {
      EXPECT_LT(total_iterated(wait) + 40, total_simulated(wait));
    }
  }
}

TEST(FreeRounds, MaxRoundsCutInsideAJumpThenTwoMoreRuns) {
  // The first run() ends at round 30, inside the jump to the listener's
  // deadline at 70; the second ends at 60, still inside it; the third
  // reaches the deadline and the talker's round-75 message.
  FreeCase c;
  c.waits = {70, 40};
  c.talk = {{75, 0, kOther, Port{1}},
            {76, 0, kOther, Port{1}},
            {77, 0, kWatched, std::nullopt}};
  c.run_to = {30, 60, 400};
  const FreeEnd wait = expect_free_matches_poll(c);
  ASSERT_EQ(wait.stats.size(), 3u);
  EXPECT_EQ(wait.stats[0].rounds, Round(30));
  EXPECT_EQ(wait.stats[0].iterated_rounds, 1u);  // round 0 only
  EXPECT_EQ(wait.stats[1].iterated_rounds, 0u);
  ASSERT_EQ(wait.log.size(), 2u);
  EXPECT_EQ(wait.log[0].round, Round(70));
  EXPECT_EQ(wait.log[1].round, Round(77));
  EXPECT_TRUE(wait.stats[2].all_honest_done);
}

TEST(FreeRounds, QuorumListenerBesideAnAdversary) {
  // A quorum-2 listener next to a co-located adversary and a lone talker:
  // no round reaches the quorum, so it sleeps to each deadline.
  FreeCase c;
  c.waits = {30, 30};
  c.quorum = 2;
  c.adv = Script{};
  c.adv->move = WalkMove::kRandomPort;
  c.adv_start = 1;
  c.talk = {{3, 0, kOther, Port{1}}, {4, 0, kOther, Port{1}}};
  for (std::uint64_t r = 5; r < 50; r += 4)
    c.talk.push_back({r, 0, kWatched, std::nullopt});
  const FreeEnd wait = expect_free_matches_poll(c);
  ASSERT_EQ(wait.log.size(), 2u);
  EXPECT_EQ(wait.log[0].round, Round(30));
  EXPECT_EQ(wait.log[1].round, Round(61));
}

TEST(FreeRounds, ObserverIteratesEveryRound) {
  // With an observer attached await_delivery is the polling loop and the
  // adversary runs live: nothing is jumped or skipped.
  FreeCase c;
  c.waits = {20, 30};
  c.adv = Script{};
  c.adv->move = WalkMove::kRandomPort;
  c.talk = {{60, 0, kOther, std::nullopt}};
  RoundLog wait_rounds, poll_rounds;
  const FreeEnd wait = run_free(c, /*engine_wait=*/true, &wait_rounds);
  const FreeEnd poll = run_free(c, /*engine_wait=*/false, &poll_rounds);
  expect_same_free_run(wait, poll);
  ASSERT_EQ(wait.stats.size(), 1u);
  EXPECT_EQ(wait.stats[0].iterated_rounds, wait.stats[0].simulated_rounds);
  EXPECT_EQ(wait.stats[0].coroutine_resumes, poll.stats[0].coroutine_resumes);
  EXPECT_EQ(wait_rounds.rounds.size(), wait.stats[0].simulated_rounds);
}

TEST(FreeRounds, ObserverAttachedWhileAListenerSleeps) {
  // The listener parks unobserved; an observer attached for the second
  // run() finds it still asleep in the engine. From then on every round is
  // iterated and reported, though only the listener holds it.
  FreeCase c;
  c.waits = {50, 20};
  c.talk = {{90, 0, kOther, std::nullopt}};
  c.run_to = {10, 400};
  c.observe_from = 1;
  RoundLog wait_rounds, poll_rounds;
  const FreeEnd wait = run_free(c, /*engine_wait=*/true, &wait_rounds);
  const FreeEnd poll = run_free(c, /*engine_wait=*/false, &poll_rounds);
  expect_same_free_run(wait, poll);
  ASSERT_EQ(wait.stats.size(), 2u);
  EXPECT_EQ(wait.stats[0].iterated_rounds, 1u);
  EXPECT_EQ(wait.stats[1].iterated_rounds, wait.stats[1].simulated_rounds);
  EXPECT_EQ(wait_rounds.rounds, poll_rounds.rounds);
  EXPECT_EQ(wait_rounds.rounds.size(), wait.stats[1].simulated_rounds);
}


// ---------------------------------------------------------------------------
// Quiet stretches against live twins: the same robots run unobserved and
// with a no-op observer attached, which resumes every adversary in every
// round and turns every listener into its polling loop. Unobserved, the
// engine steps an adversary whom no robot that can read this round hears
// (a sleeper, a robot not started yet and a listener short of its quorum
// read nothing), and in a skipped round walks each one on a reader-free
// node ahead to its next reader, rewinding those walked past a round in
// which a reader ran. Every count but coroutine_resumes and
// iterated_rounds must match (resumes up to the one each drain adds: the
// observed adversary never parks), and so must every position, generator
// state and inbox read, and a resume budget must throw in exactly the runs
// the per-round path throws in.
// ---------------------------------------------------------------------------

/// One act of an honest robot: listen for up to `listen` silent rounds
/// (woken by `quorum` kWatched senders) and read the rest of the wake
/// round, sleep `sleep` rounds, or read every inbox of a round and move
/// through `move`.
struct Act {
  std::uint64_t listen = 0;
  std::uint32_t quorum = 1;
  Round sleep = 0;
  std::optional<Port> move;
};

std::vector<Act> reads(std::size_t rounds) { return std::vector<Act>(rounds); }

std::vector<Act> operator+(std::vector<Act> a, const std::vector<Act>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

Act listen_for(std::uint64_t rounds, std::uint32_t quorum) {
  return {rounds, quorum, Round(0), std::nullopt};
}

Act sleep_for(Round rounds) { return {0, 1, rounds, std::nullopt}; }

Act step(Port port) { return {0, 1, Round(0), port}; }

Proc honest(Ctx ctx, std::vector<Act> acts, std::uint32_t subs,
            std::vector<Wake>* wakes, std::vector<Heard>* heard,
            std::uint64_t* early_wakes) {
  for (const Act& a : acts) {
    if (a.sleep != Round(0)) {
      co_await ctx.sleep_rounds(a.sleep);
      continue;
    }
    std::uint32_t sub = 0;
    if (a.listen != 0) {
      Wake w;
      w.silent = co_await listen(ctx, /*engine_wait=*/true, a.listen,
                                 a.quorum, early_wakes);
      w.round = ctx.round();
      wakes->push_back(std::move(w));
      sub = 1;
    }
    log_inbox(ctx, heard);
    for (++sub; sub < subs; ++sub) {
      co_await ctx.next_subround();
      log_inbox(ctx, heard);
    }
    co_await ctx.end_round(a.move);
  }
}

struct QuietAdv {
  NodeId start = 0;
  Script script;
  bool arm = true;  ///< false: planless, reading every inbox it runs in
};

struct QuietHonest {
  NodeId start = 0;
  std::vector<Act> acts;
  Round start_round = 0;
};

/// Adversaries take IDs 1, 2, ..., the honest robots the IDs after them.
struct QuietCase {
  Graph g = make_oriented_ring(6);  // port 0: v -> v + 1, port 1: v -> v - 1
  std::uint32_t subrounds = 3;
  std::vector<QuietAdv> advs;
  std::vector<QuietHonest> honest;
  std::vector<Round> run_to = {400};  ///< one run() per entry
  std::uint64_t max_resumes = 1'000'000;
};

struct QuietEnd {
  std::vector<RunStats> stats;        ///< one per completed run()
  std::vector<std::uint64_t> drains;  ///< adversary drains, per run()
  bool threw = false;
  std::vector<NodeId> pos;
  std::vector<Rng::Words> words;              ///< per adversary
  std::vector<std::vector<Round>> live;       ///< per adversary
  std::vector<std::vector<Heard>> adv_heard;  ///< per planless adversary
  std::vector<std::vector<Wake>> wakes;       ///< per honest robot
  std::vector<std::vector<Heard>> heard;      ///< per honest robot
  std::uint64_t early_wakes = 0;
};

QuietEnd run_quiet(const QuietCase& c, Observer* observer) {
  Engine eng(c.g, EngineConfig{.subrounds = c.subrounds,
                               .max_resumes = c.max_resumes});
  eng.set_observer(observer);
  const std::size_t advs = c.advs.size();
  QuietEnd end;
  end.live.resize(advs);
  end.adv_heard.resize(advs);
  end.wakes.resize(c.honest.size());
  end.heard.resize(c.honest.size());
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < advs; ++i) rngs.emplace_back(100 + i);
  std::vector<std::vector<Port>> drained(advs);
  RobotId id = 1;
  for (std::size_t i = 0; i < advs; ++i) {
    eng.add_robot(id++, Faultiness::kWeakByzantine, c.advs[i].start,
                  [&, i](Ctx x) {
                    const QuietAdv& a = c.advs[i];
                    return scripted(x, &a.script, a.arm, &rngs[i],
                                    a.arm ? nullptr : &end.adv_heard[i],
                                    &drained[i], &end.live[i]);
                  });
  }
  for (std::size_t j = 0; j < c.honest.size(); ++j) {
    eng.add_robot(
        id++, Faultiness::kHonest, c.honest[j].start,
        [&, j](Ctx x) {
          return honest(x, c.honest[j].acts, c.subrounds, &end.wakes[j],
                        &end.heard[j], &end.early_wakes);
        },
        c.honest[j].start_round);
  }
  std::uint64_t counted = 0;
  try {
    for (const Round r : c.run_to) {
      end.stats.push_back(eng.run(r));
      std::uint64_t total = 0;
      for (const std::vector<Port>& d : drained) total += d.size();
      end.drains.push_back(total - counted);
      counted = total;
    }
  } catch (const std::runtime_error&) {
    end.threw = true;
  }
  for (std::size_t i = 0; i < eng.num_robots(); ++i)
    end.pos.push_back(eng.robot_position(i));
  for (Rng& rng : rngs) end.words.push_back(Rng::words(rng));
  return end;
}

void expect_same_quiet_run(const QuietEnd& quiet, const QuietEnd& live) {
  EXPECT_EQ(quiet.threw, live.threw);
  EXPECT_EQ(quiet.pos, live.pos);
  EXPECT_EQ(quiet.words, live.words);
  EXPECT_EQ(quiet.adv_heard, live.adv_heard);
  EXPECT_EQ(quiet.wakes, live.wakes);
  EXPECT_EQ(quiet.heard, live.heard);
  EXPECT_EQ(quiet.early_wakes, 0u);
  ASSERT_EQ(quiet.stats.size(), live.stats.size());
  for (std::size_t i = 0; i < live.stats.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const RunStats& a = quiet.stats[i];
    const RunStats& b = live.stats[i];
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.simulated_rounds, b.simulated_rounds);
    EXPECT_EQ(a.resumes, b.resumes + quiet.drains[i]);
    EXPECT_EQ(live.drains[i], 0u);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.all_honest_done, b.all_honest_done);
    EXPECT_LE(a.iterated_rounds, a.simulated_rounds);
  }
}

/// The twin comparison plus resume budgets one short of the unobserved
/// run's total and exactly it. Returns {unobserved run, observed run}.
std::pair<QuietEnd, QuietEnd> expect_quiet_matches_live(const QuietCase& c) {
  Observer noop;
  const QuietEnd live = run_quiet(c, &noop);
  const QuietEnd quiet = run_quiet(c, nullptr);
  expect_same_quiet_run(quiet, live);
  if (!quiet.threw && quiet.stats.size() == 1) {
    const std::uint64_t total = quiet.stats[0].resumes;
    for (const std::uint64_t budget : {total - 1, total}) {
      SCOPED_TRACE("max_resumes " + std::to_string(budget));
      QuietCase tight = c;
      tight.max_resumes = budget;
      const QuietEnd t = run_quiet(tight, nullptr);
      EXPECT_EQ(t.threw, budget < total);
      if (!t.threw) expect_same_quiet_run(t, live);
    }
  }
  return {quiet, live};
}

std::vector<Round> rounds_of(std::initializer_list<std::uint64_t> rs) {
  std::vector<Round> out;
  for (const std::uint64_t r : rs) out.emplace_back(r);
  return out;
}

Script stays() {
  Script s;
  s.move = WalkMove::kStay;
  return s;
}

TEST(QuietStretch, SleepersAndLateStartersAreNoReaders) {
  // A stationary adversary at node 0 with a robot that reads, sleeps 40
  // rounds and reads again, and one that starts at round 25: it runs live
  // only while one of them can read. The listener at node 3 holds every
  // round.
  QuietCase c;
  c.advs = {{.start = 0, .script = stays()}};
  c.honest = {{.start = 0, .acts = reads(3) + std::vector<Act>{sleep_for(40)} +
                                   reads(3)},
              {.start = 0, .acts = reads(2), .start_round = 25},
              {.start = 3, .acts = {listen_for(30, 1), listen_for(40, 1)}}};
  const auto [quiet, live] = expect_quiet_matches_live(c);
  // Round 3: the sleeper still counts (it falls asleep in it); rounds 27
  // and 46: the readers finish in them.
  EXPECT_EQ(quiet.live[0], rounds_of({0, 1, 2, 3, 25, 26, 27, 43, 44, 45, 46}));
  EXPECT_LT(quiet.stats[0].iterated_rounds + 50, quiet.stats[0].simulated_rounds);
}

TEST(QuietStretch, ListenerQuorumNeedsTheArmedRobotsThere) {
  // A quorum-2 listener beside one adversary: that one is stepped. A
  // second one walks over from node 3; walked ahead, it joins the count
  // only once it stands there, and then both run live and wake the
  // listener.
  QuietCase c;
  Script walks;
  walks.kind = kWatched;
  walks.move = WalkMove::kRandomPort;
  Script watched = stays();
  watched.kind = kWatched;
  c.advs = {{.start = 0, .script = watched}, {.start = 3, .script = walks}};
  c.honest = {{.start = 0, .acts = {listen_for(60, 2), listen_for(60, 2)}}};
  const auto [quiet, live] = expect_quiet_matches_live(c);
  ASSERT_FALSE(quiet.wakes[0].empty());
  const Wake& first = quiet.wakes[0][0];
  EXPECT_LT(first.silent, 60u);  // the quorum woke it
  ASSERT_GE(quiet.live[0].size(), 2u);
  EXPECT_EQ(quiet.live[0][1], first.round);
  EXPECT_NE(std::find(quiet.live[1].begin(), quiet.live[1].end(), first.round),
            quiet.live[1].end());
}

TEST(QuietStretch, DeadlineDueListenerHearsTheAdversary) {
  // One adversary cannot make the quorum of 2, but at each deadline the
  // listener reads its inbox anyway: the adversary runs live then, and in
  // the round after, when the listener runs to listen again.
  QuietCase c;
  c.advs = {{.start = 0, .script = stays()}};
  c.honest = {{.start = 0, .acts = {listen_for(15, 2), listen_for(15, 2)}}};
  const auto [quiet, live] = expect_quiet_matches_live(c);
  EXPECT_EQ(quiet.live[0], rounds_of({0, 15, 16, 31, 32}));
  EXPECT_EQ(quiet.heard[0].size(), 4u);  // two messages at each deadline
}

TEST(QuietStretch, PlanlessByzantineIsAReader) {
  // A planless Byzantine robot reading beside an armed one keeps it live in
  // every round.
  QuietCase c;
  c.advs = {{.start = 0, .script = stays()},
            {.start = 0, .script = stays(), .arm = false}};
  c.honest = {{.start = 3, .acts = {listen_for(20, 1), listen_for(20, 1)}}};
  const auto [quiet, live] = expect_quiet_matches_live(c);
  EXPECT_EQ(quiet.live[0], live.live[0]);
  EXPECT_FALSE(quiet.adv_heard[1].empty());
}

TEST(QuietStretch, WalkAheadStopsAtWakesDeadlinesAndCuts) {
  // A stationary adversary beside a robot asleep from round 1 to 31, and a
  // chance walker that stops wherever it meets the listener at node 3.
  // Walks ahead end at the cuts at rounds 13 and 37, the listener's
  // deadline at 20 and the sleeper's wake at 31.
  QuietCase c;
  Script chance;
  chance.move = WalkMove::kChancePort;
  c.advs = {{.start = 1, .script = stays()}, {.start = 4, .script = chance}};
  c.honest = {
      {.start = 1, .acts = reads(1) + std::vector<Act>{sleep_for(30)} + reads(2)},
      {.start = 3, .acts = {listen_for(20, 2), listen_for(50, 2)}}};
  c.run_to = rounds_of({13, 37, 400});
  const auto [quiet, live] = expect_quiet_matches_live(c);
  ASSERT_EQ(quiet.stats.size(), 3u);
  EXPECT_EQ(quiet.stats[0].rounds, Round(13));
  EXPECT_EQ(quiet.stats[1].rounds, Round(37));
  EXPECT_TRUE(quiet.stats[2].all_honest_done);
  // Each later run() resumes the drained robot once, planless.
  EXPECT_EQ(quiet.live[0], rounds_of({0, 1, 13, 31, 32, 33, 37}));
  ASSERT_EQ(quiet.wakes[1].size(), 2u);
  EXPECT_EQ(quiet.wakes[1][0].round, Round(20));
}

/// A quorum-2 listener at node 0 beside a stationary adversary; a chance
/// walker from node 3 wakes it by quorum when it arrives (in round 16). A
/// third adversary, stationary at node 1 and three activations a round, is
/// walked ahead meanwhile to the listener's deadline at 80.
QuietCase quorum_wake_mid_stretch(std::vector<Act> after) {
  QuietCase c;
  Script walks;
  walks.kind = kWatched;
  walks.move = WalkMove::kChancePort;
  Script watched = stays();
  watched.kind = kWatched;
  Script busy = stays();
  busy.extra_subs = 2;
  c.advs = {{.start = 0, .script = watched},
            {.start = 3, .script = walks},
            {.start = 1, .script = busy}};
  c.honest = {{.start = 0,
               .acts = std::vector<Act>{listen_for(80, 2)} + after}};
  return c;
}

TEST(QuietStretch, QuorumWakeMidStretchRewindsTheWalkers) {
  // Woken, the listener steps to node 1 and reads there for three rounds:
  // the adversary walked ahead there must be rewound and heard.
  const QuietCase c = quorum_wake_mid_stretch(
      std::vector<Act>{step(Port{0})} + reads(3) +
      std::vector<Act>{listen_for(30, 2)});
  const auto [quiet, live] = expect_quiet_matches_live(c);
  ASSERT_FALSE(quiet.wakes[0].empty());
  const Round woke = quiet.wakes[0][0].round;
  EXPECT_LT(woke, Round(80));
  const std::vector<Round> beside = {woke + Round(2), woke + Round(3),
                                     woke + Round(4)};
  EXPECT_TRUE(std::includes(quiet.live[2].begin(), quiet.live[2].end(),
                            beside.begin(), beside.end()));
  ASSERT_GE(quiet.live[2].size(), 2u);
  EXPECT_GT(quiet.live[2][1], woke);  // walked ahead until then
}

TEST(QuietStretch, RewindWhenTheRunEndsKeepsTheBudget) {
  // The listener finishes right after its quorum wake, ending the run with
  // the busy adversary walked up to 80 rounds past it: a budget of the
  // run's exact total must not throw (expect_quiet_matches_live).
  const QuietCase c = quorum_wake_mid_stretch({});
  const auto [quiet, live] = expect_quiet_matches_live(c);
  ASSERT_EQ(quiet.wakes[0].size(), 1u);
  EXPECT_LT(quiet.stats[0].rounds + Round(40), Round(80));
}

/// A random quiet case: a ring, path or star; 1-3 adversaries, armed or
/// planless readers, with random scripts; 1-4 honest robots with random
/// start rounds mixing reads, listens, sleeps and steps; 1-3 run() cuts.
/// Each robot changes wait kind many times, so a park that keeps a stale
/// field of the one before it shows up as a count or read that differs
/// from the live twin. The first honest robot never sleeps and ends in a
/// listen no quorum can wake: it holds every round, as the twin comparison
/// needs (a round nobody holds is fast-forwarded, and the adversaries
/// replay it at one resume a round, unobserved only). Phases have fixed
/// lengths and a live round fits in a round: a phase's length draw and the
/// replay of a spilled round come at the adversary's next resume, which
/// the final drain makes and the live twin never does.
QuietCase generated_case(std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng.below(hi - lo + 1);
  };
  QuietCase c;
  const std::size_t n = pick(3, 7);
  const std::uint64_t shape = rng.below(3);
  c.g = shape == 0 ? make_oriented_ring(n)
                   : shape == 1 ? make_path(n) : make_star(n);
  // Port 0 exists at every node of the three shapes.
  const std::uint32_t ports = shape == 0 ? 2 : 1;
  c.subrounds = static_cast<std::uint32_t>(pick(2, 4));
  const auto node = [&] { return static_cast<NodeId>(rng.below(n)); };
  for (std::uint64_t i = pick(1, 3); i > 0; --i) {
    QuietAdv a;
    a.start = node();
    a.arm = rng.below(4) != 0;
    Script& s = a.script;
    s.kind = rng.chance(1, 2) ? kWatched : kScripted;
    s.draws.clear();
    for (std::uint64_t d = rng.below(3); d > 0; --d)
      s.draws.push_back(pick(2, 9));
    s.move = static_cast<WalkMove>(rng.below(3));
    s.extra_subs = static_cast<std::uint32_t>(rng.below(c.subrounds));
    if (rng.chance(1, 2)) s.phase_base = pick(1, 30);
    if (rng.chance(1, 2)) {
      s.charged_begin = Round(pick(1, 80));
      s.charged_end = s.charged_begin + Round(pick(1, 40));
    }
    s.replay_per_round = rng.chance(1, 4);
    c.advs.push_back(std::move(a));
  }
  for (std::uint64_t j = pick(1, 4); j > 0; --j) {
    const bool holder = c.honest.empty();
    QuietHonest h;
    h.start = node();
    if (!holder && rng.chance(1, 3)) h.start_round = Round(pick(1, 40));
    for (std::uint64_t k = pick(1, 8); k > 0; --k) {
      switch (rng.below(holder ? 3 : 4)) {
        case 0:
          h.acts = h.acts + reads(pick(1, 3));
          break;
        case 1:
          h.acts.push_back(listen_for(pick(1, 60),
                                      static_cast<std::uint32_t>(pick(1, 3))));
          break;
        case 2:
          h.acts.push_back(step(static_cast<Port>(rng.below(ports))));
          break;
        default:
          h.acts.push_back(sleep_for(Round(pick(1, 40))));
          break;
      }
    }
    if (holder) h.acts.push_back(listen_for(1'000'000, 4));
    c.honest.push_back(std::move(h));
  }
  c.run_to.clear();
  std::uint64_t cut = 0;
  for (std::uint64_t k = pick(1, 3); k > 1; --k) {
    cut += pick(1, 120);
    c.run_to.emplace_back(cut);
  }
  c.run_to.emplace_back(cut + 400);
  return c;
}

TEST(QuietStretch, GeneratedCases) {
  constexpr std::uint64_t kSeeds = 400;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_quiet_matches_live(generated_case(seed));
    if (HasFailure()) break;  // one seed's report is enough
  }
}

}  // namespace
}  // namespace bdg::sim
