// Golden conformance tier: every row of the algorithm table, asserted on
// small n through the run/ sweep runner. Each row must (a) disperse at its
// maximum claimed Byzantine tolerance against its golden adversary, (b)
// stay within a fixed multiple of the row's claimed round bound
// (core::AlgorithmInfo::round_bound) but within 4x of that limit, and (c)
// stay within the plan's own termination bound; the bound itself must be
// finite and positive from n = 1. The golden n, adversary and margin are
// test calibration against the deterministic sweep seeding
// (SweepSpec::base_seed default), not paper facts; they are goldens — a
// change that moves a row past its margin is a behavioral regression (or
// an intentional reseeding, which should update this file). A table row
// without a golden entry fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>

#include "core/scenario.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;
using core::ByzStrategy;

struct Golden {
  Algorithm algorithm;
  ByzStrategy strategy;
  std::uint32_t n;
  double margin;  ///< measured/bound headroom at this n
};

// Margins calibrated against the default sweep seeding: measured/bound was
// 1.13, 1.04, 1.15, 16.1, 26.9, 18.9 and 9.2 for rows 1-7, 27.1 for
// crash-real-gathering and 9.1 for ring-baseline.
constexpr Golden kGoldens[] = {
    {Algorithm::kQuotient, ByzStrategy::kFakeSettler, 8, 1.5},
    {Algorithm::kTournamentArbitrary, ByzStrategy::kFakeSettler, 8, 1.5},
    {Algorithm::kSqrtArbitrary, ByzStrategy::kFakeSettler, 9, 1.5},
    {Algorithm::kTournamentGathered, ByzStrategy::kMapLiar, 8, 24.0},
    {Algorithm::kThreeGroupGathered, ByzStrategy::kMapLiar, 9, 40.0},
    {Algorithm::kStrongArbitrary, ByzStrategy::kSpoofer, 8, 30.0},
    {Algorithm::kStrongGathered, ByzStrategy::kSpoofer, 8, 14.0},
    {Algorithm::kCrashRealGathering, ByzStrategy::kCrash, 9, 40.0},
    {Algorithm::kRingBaseline, ByzStrategy::kFakeSettler, 8, 12.0},
};

class GoldenRows : public ::testing::TestWithParam<core::AlgorithmInfo> {};

TEST_P(GoldenRows, RoundBoundHolds) {
  const core::AlgorithmInfo& row = GetParam();
  const auto* golden = std::find_if(
      std::begin(kGoldens), std::end(kGoldens),
      [&](const Golden& g) { return g.algorithm == row.algorithm; });
  ASSERT_NE(golden, std::end(kGoldens))
      << row.report_name << " has no golden entry";

  // Every row runs on the same sparse family as the Table 1 grids, except
  // the ring baseline, which needs a ring.
  const bool ring = row.graph == core::GraphNeed::kRing;
  SweepSpec spec;
  spec.algorithms = {row.algorithm};
  spec.families = {ring ? "ring" : "er"};
  spec.require_trivial_quotient = !ring;
  spec.er_edge_probability = 0.0;
  spec.sizes = {golden->n};
  spec.strategy = golden->strategy;
  spec.strategy_follows_algorithm = false;

  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.points.size(), 1u);
  const PointResult& p = result.points[0];
  ASSERT_FALSE(p.skipped) << p.skip_reason;

  EXPECT_EQ(p.point.f, row.max_f(golden->n));
  EXPECT_TRUE(p.ok) << p.detail;
  EXPECT_LE(p.stats.rounds, p.planned_rounds + 16);
  const double bound = row.round_bound(golden->n);
  const double limit = golden->margin * bound;
  EXPECT_LE(p.stats.rounds.to_double(), limit)
      << "measured " << p.stats.rounds << " rounds vs bound " << bound << " ("
      << row.bound_name << ") * margin " << golden->margin;
  // The margin must stay meaningful: if measurements drift far below it,
  // tighten the golden rather than letting it rot. Together the two checks
  // fail any change of the table's bound by a factor above about 3 (every
  // margin is 1.3-1.6x its measured ratio).
  EXPECT_GE(p.stats.rounds.to_double() * 4.0, limit)
      << "measured " << p.stats.rounds
      << " rounds; margin is > 4x too loose, tighten it";
  // The cells report divides by the bound, down to one-node graphs.
  for (std::uint32_t m = 1; m <= 512; ++m) {
    const double b = row.round_bound(m);
    EXPECT_TRUE(std::isfinite(b) && b > 0) << row.bound_name << " at n = " << m;
  }
}

std::string row_name(
    const ::testing::TestParamInfo<core::AlgorithmInfo>& info) {
  std::string name = info.param.cli_name;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Table1, GoldenRows,
                         ::testing::ValuesIn(core::algorithm_table().begin(),
                                             core::algorithm_table().end()),
                         row_name);

}  // namespace
}  // namespace bdg::run
