// TraceRecorder / Observer tests: event capture, per-robot accounting,
// and the behavioral property "a settled robot never moves again".
#include "sim/trace.h"

#include <gtest/gtest.h>

#include "core/dispersion_using_map.h"
#include "core/scenario.h"
#include "graph/generators.h"

namespace bdg::sim {
namespace {

Proc hop_and_talk(Ctx ctx, int hops) {
  for (int i = 0; i < hops; ++i) {
    const std::int64_t words[] = {i};
    ctx.broadcast(1, words);
    co_await ctx.end_round(Port{0});
  }
}

TEST(Trace, CountsMovesAndMessages) {
  const Graph g = make_ring(5);
  Engine eng(g);
  TraceRecorder trace;
  eng.set_observer(&trace);
  eng.add_robot(3, Faultiness::kHonest, 0,
                [](Ctx c) { return hop_and_talk(c, 4); });
  const RunStats st = eng.run(10);
  const auto& a = trace.per_robot().at(3);
  EXPECT_EQ(a.moves, 4u);
  EXPECT_EQ(a.messages, 4u);
  EXPECT_TRUE(a.done);
  EXPECT_EQ(trace.total_moves(), st.moves);
}

TEST(Trace, EventLogOrderedAndBounded) {
  const Graph g = make_ring(5);
  Engine eng(g);
  TraceRecorder trace(/*max_events=*/3);
  eng.set_observer(&trace);
  eng.add_robot(3, Faultiness::kHonest, 0,
                [](Ctx c) { return hop_and_talk(c, 5); });
  eng.run(10);
  EXPECT_EQ(trace.events().size(), 3u);  // bounded ring
  core::Round prev = 0;
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.round, prev);
    prev = e.round;
  }
}

TEST(Trace, NodeVisitHistogram) {
  const Graph g = make_oriented_ring(4);  // port 0 = clockwise everywhere
  Engine eng(g);
  TraceRecorder trace;
  eng.set_observer(&trace);
  eng.add_robot(3, Faultiness::kHonest, 0,
                [](Ctx c) { return hop_and_talk(c, 4); });  // full loop
  eng.run(10);
  // Visits nodes 1, 2, 3, 0 once each.
  EXPECT_EQ(trace.node_visits().size(), 4u);
  for (const auto& [node, count] : trace.node_visits()) EXPECT_EQ(count, 1u);
}

TEST(Trace, SettledRobotsNeverMoveAgain) {
  // Behavioral property of Dispersion-Using-Map, checked via the trace:
  // after a robot's last move it stays put until it terminates, and no
  // move may happen at or after its done round minus the beacon tail.
  Rng rng(3);
  const Graph g = shuffle_ports(make_connected_er(8, 0.45, rng), rng);
  core::ScenarioConfig cfg;
  cfg.algorithm = core::Algorithm::kThreeGroupGathered;
  cfg.num_byzantine = 2;
  cfg.strategy = core::ByzStrategy::kFakeSettler;
  TraceRecorder trace(0);  // stats only
  cfg.observer = &trace;
  const auto res = core::run_scenario(g, cfg);
  ASSERT_TRUE(res.verify.ok()) << res.verify.detail;
  const core::Round phase = core::dispersion_phase_rounds(8);
  for (const auto& [id, a] : trace.per_robot()) {
    if (!a.done) continue;  // Byzantine robots never finish
    // An honest robot's last move precedes the dispersion-phase tail: it
    // settles and then only beacons for the rest of the phase.
    EXPECT_LT(a.done_round - a.last_move_round, phase + 16)
        << "robot " << id;
    EXPECT_GT(a.done_round, a.last_move_round) << "robot " << id;
  }
}

TEST(Trace, ObservedAdversaryMatchesUnobservedRun) {
  // Attaching a recorder runs the same adversary interpreter as production,
  // only live in every round: verdict and totals match the unobserved
  // (bulk) run, and the Byzantine robots' own moves show up in the trace.
  Rng rng(5);
  const Graph g = shuffle_ports(make_connected_er(8, 0.45, rng), rng);
  for (const core::ByzStrategy s :
       {core::ByzStrategy::kRandomWalker, core::ByzStrategy::kMapLiar}) {
    SCOPED_TRACE(core::to_string(s));
    core::ScenarioConfig cfg;
    cfg.algorithm = core::Algorithm::kThreeGroupGathered;
    cfg.num_byzantine = 2;
    cfg.strategy = s;
    const core::ScenarioResult bulk = core::run_scenario(g, cfg);
    TraceRecorder trace(0);
    cfg.observer = &trace;
    const core::ScenarioResult live = core::run_scenario(g, cfg);
    EXPECT_EQ(live.verify.ok(), bulk.verify.ok());
    EXPECT_EQ(live.stats.rounds, bulk.stats.rounds);
    EXPECT_EQ(live.stats.moves, bulk.stats.moves);
    EXPECT_EQ(live.stats.messages, bulk.stats.messages);
    EXPECT_EQ(trace.total_moves(), live.stats.moves);
    // byz_smallest_ids: the Byzantine robots hold the two smallest IDs.
    const std::vector<RobotId> ids = core::draw_robot_ids(8, 8, cfg.seed);
    std::uint64_t byz_moves = 0;
    for (std::size_t i = 0; i < cfg.num_byzantine; ++i)
      if (const auto it = trace.per_robot().find(ids[i]);
          it != trace.per_robot().end())
        byz_moves += it->second.moves;
    EXPECT_GT(byz_moves, 0u);
  }
}

TEST(Trace, DetachingObserverStopsRecording) {
  const Graph g = make_ring(4);
  Engine eng(g);
  TraceRecorder trace;
  eng.set_observer(&trace);
  eng.set_observer(nullptr);
  eng.add_robot(3, Faultiness::kHonest, 0,
                [](Ctx c) { return hop_and_talk(c, 3); });
  eng.run(10);
  EXPECT_TRUE(trace.per_robot().empty());
}

}  // namespace
}  // namespace bdg::sim
