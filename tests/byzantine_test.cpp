// Adversary library mechanics: each strategy produces the messages and
// movement it promises, the spoofer requires a strong robot, wake rounds
// delay activity, and behaviors are deterministic per seed.
#include "core/byzantine.h"

#include <gtest/gtest.h>

#include "core/protocol_msgs.h"
#include "explore/engine_map.h"
#include "graph/generators.h"
#include "sim/trace.h"

namespace bdg::core {
namespace {

/// Honest listener that records everything it hears for `rounds` rounds.
sim::Proc listen_robot(sim::Ctx ctx, std::uint64_t rounds,
                       std::vector<sim::Msg>* heard) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.end_round(std::nullopt);
  }
}

struct Heard {
  std::vector<sim::Msg> msgs;
  sim::RunStats stats;
  NodeId byz_end = kNoNode;
};

Heard observe(ByzStrategy strategy, sim::Faultiness fault,
              std::uint64_t rounds = 12, std::uint64_t wake = 0) {
  const Graph g = make_complete(4);  // byz random walks stay observable
  sim::Engine eng(g);
  Heard h;
  eng.add_robot(5, fault, 0,
                make_byzantine_program(strategy, {5, 9}, 42, wake));
  eng.add_robot(9, sim::Faultiness::kHonest, 0,
                [&](sim::Ctx c) { return listen_robot(c, rounds, &h.msgs); });
  h.stats = eng.run(rounds + 4);
  h.byz_end = eng.position_of(5);
  return h;
}

std::size_t count_kind(const Heard& h, std::uint32_t kind) {
  std::size_t c = 0;
  for (const auto& m : h.msgs) c += (m.kind == kind);
  return c;
}

TEST(Byzantine, CrashIsSilent) {
  const Heard h = observe(ByzStrategy::kCrash, sim::Faultiness::kWeakByzantine);
  std::size_t from_byz = 0;
  for (const auto& m : h.msgs) from_byz += (m.claimed == 5);
  EXPECT_EQ(from_byz, 0u);
  EXPECT_EQ(h.byz_end, 0u);
}

TEST(Byzantine, CrashFinishesBeforeItsWakeRound) {
  // Crash is the empty program: it finishes at its first resume and never
  // sleeps out its wake round, so a wake round costs it nothing.
  const Heard now = observe(ByzStrategy::kCrash,
                            sim::Faultiness::kWeakByzantine, 12, 0);
  const Heard later = observe(ByzStrategy::kCrash,
                              sim::Faultiness::kWeakByzantine, 12, 8);
  EXPECT_EQ(now.stats.resumes, later.stats.resumes);
  EXPECT_EQ(now.stats.simulated_rounds, later.stats.simulated_rounds);
}

TEST(Byzantine, SquatterClaimsSettledAndStays) {
  const Heard h =
      observe(ByzStrategy::kSquatter, sim::Faultiness::kWeakByzantine);
  EXPECT_GT(count_kind(h, kMsgStatus), 5u);
  EXPECT_EQ(h.byz_end, 0u);
}

TEST(Byzantine, SilentSettlerStopsTransmitting) {
  const Heard h =
      observe(ByzStrategy::kSilentSettler, sim::Faultiness::kWeakByzantine);
  // Exactly 3 settled beacons, then silence.
  EXPECT_EQ(count_kind(h, kMsgStatus), 3u);
}

TEST(Byzantine, IntentSpammerAnnouncesEverything) {
  const Heard h =
      observe(ByzStrategy::kIntentSpammer, sim::Faultiness::kWeakByzantine);
  EXPECT_GT(count_kind(h, kMsgIntent), 0u);
  EXPECT_GT(count_kind(h, kMsgSettled), 0u);
}

TEST(Byzantine, MapLiarFloodsMapChannels) {
  const Heard h =
      observe(ByzStrategy::kMapLiar, sim::Faultiness::kWeakByzantine);
  EXPECT_GT(count_kind(h, explore::kMsgTokenHere), 0u);
  EXPECT_GT(count_kind(h, explore::kMsgInstr), 0u);
  EXPECT_GT(count_kind(h, explore::kMsgMapCode), 0u);
}

TEST(Byzantine, SpooferForgesPeerIds) {
  const Heard h =
      observe(ByzStrategy::kSpoofer, sim::Faultiness::kStrongByzantine);
  bool forged = false;
  for (const auto& m : h.msgs)
    if (m.claimed == 9 && m.source == 0) forged = true;  // robot 5 is idx 0
  EXPECT_TRUE(forged);
}

TEST(Byzantine, SpooferRequiresStrongRobot) {
  // A weak robot running the spoofer program hits the engine's transport
  // enforcement and the run aborts.
  EXPECT_THROW(observe(ByzStrategy::kSpoofer, sim::Faultiness::kWeakByzantine),
               std::logic_error);
}

TEST(Byzantine, WakeRoundDelaysActivity) {
  const Heard active = observe(ByzStrategy::kSquatter,
                               sim::Faultiness::kWeakByzantine, 12, 0);
  const Heard delayed = observe(ByzStrategy::kSquatter,
                                sim::Faultiness::kWeakByzantine, 12, 8);
  EXPECT_GT(count_kind(active, kMsgStatus), count_kind(delayed, kMsgStatus));
  EXPECT_GT(count_kind(delayed, kMsgStatus), 0u);  // wakes before the end
}

TEST(Byzantine, DeterministicPerSeed) {
  auto run = [] {
    const Graph g = make_complete(4);
    sim::Engine eng(g);
    eng.add_robot(5, sim::Faultiness::kWeakByzantine, 0,
                  make_byzantine_program(ByzStrategy::kRandomWalker, {5}, 7));
    std::vector<sim::Msg> heard;
    eng.add_robot(9, sim::Faultiness::kHonest, 0,
                  [&](sim::Ctx c) { return listen_robot(c, 10, &heard); });
    eng.run(14);
    return eng.position_of(5);
  };
  EXPECT_EQ(run(), run());
}

TEST(Byzantine, StrategyNamesRoundTripExhaustively) {
  std::vector<ByzStrategy> all = weak_strategies();
  all.push_back(ByzStrategy::kSpoofer);
  for (const auto s : all) {
    const auto back = strategy_from_string(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s);
  }
}

TEST(Byzantine, ToStringThrowsOnCorruptEnumValue) {
  // A checkpoint record holding a corrupted/future strategy value must fail
  // loudly at serialization time, not round-trip through "unknown".
  EXPECT_THROW(to_string(static_cast<ByzStrategy>(255)), std::invalid_argument);
  EXPECT_THROW(to_string(static_cast<ByzStrategy>(-1)), std::invalid_argument);
}

TEST(Byzantine, SpooferOnWeakRobotThrowsBeforeWake) {
  // Regression: the faultiness check used to sit after sleep_rounds(wake),
  // so a weak robot handed the spoofer with a huge charged prefix ran
  // silently for the whole experiment instead of aborting at round 0.
  const Graph g = make_complete(4);
  sim::Engine eng(g);
  eng.add_robot(5, sim::Faultiness::kWeakByzantine, 0,
                make_byzantine_program(ByzStrategy::kSpoofer, {5, 9}, 42,
                                       std::uint64_t{1} << 40));
  std::vector<sim::Msg> heard;
  eng.add_robot(9, sim::Faultiness::kHonest, 0,
                [&](sim::Ctx c) { return listen_robot(c, 4, &heard); });
  EXPECT_THROW(eng.run(8), std::logic_error);
}

TEST(Byzantine, EmptyChargedWindowIsRejected) {
  // ChargeGate only skips an [a, a) window by accident of its >= compare;
  // schedule validation pins the invariant at construction instead.
  ByzSchedule sched{2};
  sched.charged = {{5, 5}};
  EXPECT_THROW(
      make_byzantine_program(ByzStrategy::kSquatter, {5}, 1, sched),
      std::invalid_argument);
  // Unsorted / overlapping / pre-wake windows are rejected too.
  ByzSchedule bad{4};
  bad.charged = {{2, 6}};  // starts before wake
  EXPECT_THROW(make_byzantine_program(ByzStrategy::kSquatter, {5}, 1, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Live-vs-bulk conformance of the one adversary interpreter: with a no-op
// observer attached the engine resumes the adversary in every round
// (live); without one it parks ambient and replays skipped rounds (bulk).
// Both must produce the same messages (kind, claimed, source, payload,
// order), final position and move/message/round totals — with the
// listener awake every round and across engine fast-forwards (listener
// asleep, forcing the bulk program to replay the gap).
// ---------------------------------------------------------------------------

sim::Proc listen_after(sim::Ctx ctx, std::uint64_t sleep_first,
                       std::uint64_t rounds, std::vector<sim::Msg>* heard) {
  if (sleep_first != 0) co_await ctx.sleep_rounds(sleep_first);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.end_round(std::nullopt);
  }
}

Heard observe_program(ByzStrategy strategy, sim::Faultiness fault, bool live,
                      std::uint64_t sleep_first, std::uint64_t rounds,
                      const ByzSchedule& sched, NodeId byz_start = 0) {
  const Graph g = make_complete(4);
  sim::Engine eng(g);
  sim::Observer noop;
  if (live) eng.set_observer(&noop);
  Heard h;
  eng.add_robot(5, fault, byz_start,
                make_byzantine_program(strategy, {5, 9}, 42, sched));
  eng.add_robot(9, sim::Faultiness::kHonest, 0, [&](sim::Ctx c) {
    return listen_after(c, sleep_first, rounds, &h.msgs);
  });
  h.stats = eng.run(sleep_first + rounds + 4);
  h.byz_end = eng.position_of(5);
  return h;
}

void expect_identical_observation(const Heard& live, const Heard& bulk,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(live.msgs.size(), bulk.msgs.size());
  for (std::size_t i = 0; i < live.msgs.size(); ++i) {
    EXPECT_EQ(live.msgs[i].claimed, bulk.msgs[i].claimed) << i;
    EXPECT_EQ(live.msgs[i].source, bulk.msgs[i].source) << i;
    EXPECT_EQ(live.msgs[i].kind, bulk.msgs[i].kind) << i;
    EXPECT_EQ(live.msgs[i].data, bulk.msgs[i].data) << i;
  }
  EXPECT_EQ(live.byz_end, bulk.byz_end);
  EXPECT_EQ(live.stats.rounds, bulk.stats.rounds);
  EXPECT_EQ(live.stats.moves, bulk.stats.moves);
  EXPECT_EQ(live.stats.messages, bulk.stats.messages);
  EXPECT_LE(bulk.stats.simulated_rounds, live.stats.simulated_rounds);
}

std::vector<std::pair<ByzStrategy, sim::Faultiness>> conformance_cases() {
  std::vector<std::pair<ByzStrategy, sim::Faultiness>> cases;
  for (const auto s : weak_strategies())
    cases.emplace_back(s, sim::Faultiness::kWeakByzantine);
  cases.emplace_back(ByzStrategy::kSpoofer,
                     sim::Faultiness::kStrongByzantine);
  return cases;
}

TEST(CompiledStrategy, LiveMatchesBulkWithListenerAwake) {
  for (const auto& [s, fault] : conformance_cases()) {
    const Heard live = observe_program(s, fault, true, 0, 14, ByzSchedule{0});
    const Heard bulk = observe_program(s, fault, false, 0, 14, ByzSchedule{0});
    expect_identical_observation(live, bulk, to_string(s) + " awake");
  }
}

TEST(CompiledStrategy, LiveMatchesBulkAcrossFastForward) {
  // Listener sleeps 9 rounds first. Bulk: the adversary is the only
  // ambient robot, the engine fast-forwards the gap, and the interpreter
  // must replay it (draws, suppressed messages, immediate hops) so the
  // listener wakes to a bit-identical world. Live: every round runs.
  for (const auto& [s, fault] : conformance_cases()) {
    const Heard live = observe_program(s, fault, true, 9, 10, ByzSchedule{0});
    const Heard bulk = observe_program(s, fault, false, 9, 10, ByzSchedule{0});
    expect_identical_observation(live, bulk, to_string(s) + " fast-forward");
    // Only the crash program (finished at round 0) leaves nothing to run
    // live through the listener's sleep.
    if (s != ByzStrategy::kCrash) {
      EXPECT_LT(bulk.stats.simulated_rounds, live.stats.simulated_rounds)
          << to_string(s);
    }
  }
}

TEST(CompiledStrategy, LiveMatchesBulkWithChargedWindows) {
  ByzSchedule sched{3};
  sched.charged = {{5, 8}, {11, 13}};
  for (const auto& [s, fault] : conformance_cases()) {
    const Heard live = observe_program(s, fault, true, 7, 12, sched);
    const Heard bulk = observe_program(s, fault, false, 7, 12, sched);
    expect_identical_observation(live, bulk, to_string(s) + " charged");
  }
}

TEST(CompiledStrategy, DeferredRoundsStopAtChargedWindows) {
  // The adversary starts away from the listener, which keeps every round
  // simulated, so bulk execution has the engine step its unheard rounds.
  // The plan's horizon ends each stepped stretch before a charged window:
  // the robot must be resumed to sleep through it, not be stepped into it.
  ByzSchedule sched{2};
  sched.charged = {{10, 14}, {20, 23}};
  for (const auto& [s, fault] : conformance_cases()) {
    const Heard live = observe_program(s, fault, true, 0, 30, sched, 2);
    const Heard bulk = observe_program(s, fault, false, 0, 30, sched, 2);
    expect_identical_observation(live, bulk, to_string(s) + " deferred");
    if (s != ByzStrategy::kCrash) {  // finished at round 0: nothing to step
      EXPECT_LT(bulk.stats.coroutine_resumes, live.stats.coroutine_resumes)
          << to_string(s);
    }
  }
}

TEST(Byzantine, StrategyNamesAreUniqueAndComplete) {
  std::set<std::string> names;
  for (const auto s : weak_strategies()) names.insert(to_string(s));
  EXPECT_EQ(names.size(), weak_strategies().size());
  EXPECT_EQ(to_string(ByzStrategy::kSpoofer), "spoofer");
  // The spoofer is deliberately NOT in the weak list.
  for (const auto s : weak_strategies()) EXPECT_NE(s, ByzStrategy::kSpoofer);
}

}  // namespace
}  // namespace bdg::core
