// Report writers: every CSV writer and the JSON->CSV passthrough walk the
// same column tables, so the passthrough of a record's report JSON must
// equal the CSV writer's output for it, byte for byte — including
// skipped points (no row), failed points (detail is JSON-only), a
// hand-built k = 0 point (reported as k = n) and the ring baseline, whose
// name carries a comma and must come out quoted.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/scenario.h"
#include "run/report.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;
using core::ByzStrategy;

/// write_points_csv over just `p`, and the passthrough of its JSON.
void expect_point_passthrough(const PointResult& p, const std::string& csv) {
  SweepResult r;
  r.points = {p};
  std::ostringstream direct, json, passed;
  write_points_csv(direct, r);
  write_point_json(json, p);
  write_csv_from_json(passed, ReportRecord::kPoint, {json.str()});
  EXPECT_EQ(passed.str(), direct.str()) << json.str();
  EXPECT_EQ(direct.str(),
            "algorithm,family,n,k,f,seed,strategy,mix,derived_seed,ok,"
            "rounds,simulated_rounds,moves,messages,planned_rounds,seconds\n" +
                csv);
}

PointResult sample_point() {
  PointResult p;
  p.point = {Algorithm::kThreeGroupGathered, "er", 8, 8, 1, 3,
             ByzStrategy::kMapLiar,
             {ByzStrategy::kCrash, ByzStrategy::kMapLiar}};
  p.derived_seed = 18446744073709551557ULL;
  p.ok = true;
  p.stats.rounds = core::Round::from_string("36893488147419103232").value();
  p.stats.simulated_rounds = 41;
  p.stats.moves = 9;
  p.stats.messages = 310;
  p.planned_rounds = core::Round::from_string("36893488147419103300").value();
  p.seconds = 0.1234567;
  return p;
}

TEST(Report, PointJsonPassesThroughToTheCsvRow) {
  const PointResult ok = sample_point();
  expect_point_passthrough(
      ok,
      "three-group(T4),er,8,8,1,3,map_liar,crash+map_liar,"
      "18446744073709551557,1,36893488147419103232,41,9,310,"
      "36893488147419103300,0.123457\n");

  PointResult failed = sample_point();
  failed.ok = false;
  failed.detail = "node 3 holds 2 honest robots; \"quoted\", comma";
  expect_point_passthrough(
      failed,
      "three-group(T4),er,8,8,1,3,map_liar,crash+map_liar,"
      "18446744073709551557,0,36893488147419103232,41,9,310,"
      "36893488147419103300,0.123457\n");

  PointResult saturated = sample_point();
  saturated.skipped = true;
  saturated.saturated = true;
  saturated.skip_reason = "planned round bound saturates 128 bits";
  expect_point_passthrough(saturated, "");

  PointResult k0 = sample_point();
  k0.point.k = 0;
  k0.point.mix = {};
  expect_point_passthrough(
      k0,
      "three-group(T4),er,8,8,1,3,map_liar,-,18446744073709551557,1,"
      "36893488147419103232,41,9,310,36893488147419103300,0.123457\n");

  PointResult ring = sample_point();
  ring.point.algorithm = Algorithm::kRingBaseline;
  ring.point.family = "ring";
  expect_point_passthrough(
      ring,
      "\"" + core::to_string(Algorithm::kRingBaseline) +
          "\",ring,8,8,1,3,map_liar,crash+map_liar,18446744073709551557,1,"
          "36893488147419103232,41,9,310,36893488147419103300,0.123457\n");
}

TEST(Report, CellJsonPassesThroughToTheCsvRow) {
  CellAggregate c;
  c.algorithm = Algorithm::kRingBaseline;
  c.family = "ring";
  c.n = 6;
  c.k = 0;
  c.f = 1;
  c.mix = {ByzStrategy::kCrash, ByzStrategy::kMapLiar};
  c.runs = 2;
  c.dispersed = 1;
  c.min_rounds = 59;
  c.max_rounds = 61;
  c.mean_rounds = 60;
  c.mean_simulated = 59.5;
  c.mean_moves = 32.25;
  c.mean_messages = 271.125;
  c.mean_seconds = 1e-05;
  SweepResult r;
  r.cells = {c};
  std::ostringstream direct, json, passed;
  write_cells_csv(direct, r);
  write_cell_json(json, c);
  write_csv_from_json(passed, ReportRecord::kCell, {json.str()});
  EXPECT_EQ(passed.str(), direct.str()) << json.str();
  EXPECT_EQ(direct.str(),
            "algorithm,family,n,k,f,mix,runs,dispersed,min_rounds,max_rounds,"
            "mean_rounds,mean_simulated,mean_moves,mean_messages,"
            "mean_seconds,max_bound_ratio\n\"" +
                core::to_string(Algorithm::kRingBaseline) +
                "\",ring,6,6,1,crash+map_liar,2,1,59,61,60,59.5,32.25,"
                "271.125,1e-05,10.1667\n");
}

}  // namespace
}  // namespace bdg::run
