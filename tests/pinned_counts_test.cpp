// Pinned counts: small sweep grids whose checkpoint lines (every RunStats
// count a point reports, simulated_rounds and resumes included) are hashed
// and compared with digests recorded before the engine learned to defer
// unheard adversary rounds. Every strategy, the spoofer and a mix run at
// n = 12 and 16 against the three gathered algorithms, smallest-ID
// Byzantines on sparse graphs, where the adversaries spread out and the
// engine steps most of their rounds itself. The arbitrary-start grids
// (sqrt-arbitrary, strong-arbitrary) were recorded before token listeners
// woke only on a quorum of senders: their token groups believe an
// instruction from more than one agent. A change that moves any count of
// any point fails here, in tier 1, not only in perfbench's digests.
//
// When a change moves counts on purpose, re-record: the failure message
// prints the new digest and line count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/byzantine.h"
#include "run/report.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;
using core::ByzStrategy;

/// FNV-1a (64-bit) over the grid's checkpoint lines, sorted so the digest
/// does not depend on the order threads finish points in.
std::uint64_t checkpoint_digest(const SweepSpec& spec, std::size_t* lines) {
  const SweepResult result = run_sweep(spec);
  const std::uint64_t fingerprint = spec_fingerprint(spec);
  std::vector<std::string> sorted;
  for (const PointResult& p : result.points) {
    std::ostringstream os;
    write_checkpoint_line(os, p, fingerprint);
    sorted.push_back(os.str());
  }
  std::sort(sorted.begin(), sorted.end());
  *lines = sorted.size();
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::string& line : sorted) {
    for (const char ch : line) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

SweepSpec gathered_grid() {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered,
                     Algorithm::kTournamentGathered,
                     Algorithm::kStrongGathered};
  spec.families = {"er", "ring"};
  spec.sizes = {12, 16};
  spec.seeds = {1, 2};
  spec.er_edge_probability = 0.0;  // connectivity threshold: sparse
  spec.strategy_follows_algorithm = false;
  spec.measure_seconds = false;  // --no-timing: lines are pure functions
  spec.threads = 4;
  return spec;
}

struct Pinned {
  const char* name;
  std::uint64_t digest;
  std::size_t lines;
};

void expect_pinned(const SweepSpec& spec, const Pinned& pin) {
  SCOPED_TRACE(pin.name);
  std::size_t lines = 0;
  const std::uint64_t digest = checkpoint_digest(spec, &lines);
  EXPECT_EQ(lines, pin.lines);
  EXPECT_EQ(digest, pin.digest)
      << pin.name << ": digest 0x" << std::hex << digest << std::dec
      << " over " << lines << " lines";
}

/// One pin per weak strategy, in core::weak_strategies() order, each over
/// `grid` with that strategy.
void expect_weak_strategies_pinned(const SweepSpec& grid,
                                   std::span<const Pinned> pins) {
  ASSERT_EQ(pins.size(), core::weak_strategies().size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SweepSpec spec = grid;
    spec.strategy = core::weak_strategies()[i];
    ASSERT_EQ(core::to_string(spec.strategy), pins[i].name);
    expect_pinned(spec, pins[i]);
  }
}

TEST(PinnedCounts, EveryWeakStrategy) {
  const Pinned pins[] = {
      {"crash", 0xf0cd8bffec897820ULL, 24},
      {"random_walker", 0x4f8b65be0b442c49ULL, 24},
      {"squatter", 0xe951560f173ef0c2ULL, 24},
      {"fake_settler", 0x0afb95d57683ea80ULL, 24},
      {"silent_settler", 0x758aa7f56996adedULL, 24},
      {"intent_spammer", 0xdfd9d73658617d9aULL, 24},
      {"map_liar", 0xd808f4b64eab3289ULL, 24},
  };
  expect_weak_strategies_pinned(gathered_grid(), pins);
}

TEST(PinnedCounts, SpooferAgainstStrongGathered) {
  SweepSpec spec = gathered_grid();
  spec.algorithms = {Algorithm::kStrongGathered};
  spec.strategy = ByzStrategy::kSpoofer;
  expect_pinned(spec, {"spoofer", 0x6fc7adc9b29a1f90ULL, 8});
}

SweepSpec arbitrary_grid() {
  SweepSpec spec = gathered_grid();
  spec.algorithms = {Algorithm::kSqrtArbitrary, Algorithm::kStrongArbitrary};
  return spec;
}

TEST(PinnedCounts, ArbitraryStartQuorumTokens) {
  const Pinned pins[] = {
      {"crash", 0x0617076b72423379ULL, 16},
      {"random_walker", 0x1523de99874ea23cULL, 16},
      {"squatter", 0x9a86abb40c52d322ULL, 16},
      {"fake_settler", 0x4e1f2a9cb230f1caULL, 16},
      {"silent_settler", 0xee3d375e75870f9cULL, 16},
      {"intent_spammer", 0x9beb28939d934cefULL, 16},
      {"map_liar", 0x697cce84d562fa4cULL, 16},
  };
  expect_weak_strategies_pinned(arbitrary_grid(), pins);
  SweepSpec spoofed = arbitrary_grid();
  spoofed.algorithms = {Algorithm::kStrongArbitrary};
  spoofed.strategy = ByzStrategy::kSpoofer;
  expect_pinned(spoofed, {"spoofer", 0x66d8d6a4410bedb7ULL, 8});
  SweepSpec mixed = arbitrary_grid();
  mixed.strategy_mixes = {{ByzStrategy::kFakeSettler, ByzStrategy::kMapLiar,
                           ByzStrategy::kSquatter}};
  expect_pinned(mixed,
                {"fake_settler+map_liar+squatter", 0xddb7ce1ee563e67eULL, 16});
}

TEST(PinnedCounts, Mix) {
  SweepSpec spec = gathered_grid();
  spec.strategy_mixes = {{ByzStrategy::kFakeSettler, ByzStrategy::kMapLiar,
                          ByzStrategy::kSquatter,
                          ByzStrategy::kRandomWalker}};
  expect_pinned(spec, {"fake_settler+map_liar+squatter+random_walker",
                       0xfe5c147802902e80ULL, 24});
}

/// Quiet stretches (README, "How the engine parks robots"), recorded
/// before the engine walked adversaries ahead. A slice of perfbench's
/// sweepd_live grid: cheap points of five algorithms against their own
/// adversaries, with short walks between listener deadlines. And
/// three-group map-liars at n = 8..16, where liars gathering on the rally
/// node wake its token listeners by quorum while other liars are walked
/// ahead, so the engine rewinds those and walks them again.
TEST(PinnedCounts, QuietStretches) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kQuotient, Algorithm::kSqrtArbitrary,
                     Algorithm::kStrongArbitrary, Algorithm::kStrongGathered,
                     Algorithm::kThreeGroupGathered};
  spec.families = {"er", "tree"};
  spec.sizes = {8, 12};
  spec.byzantine_counts = {0, 1, 2};
  spec.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.measure_seconds = false;
  spec.threads = 4;
  expect_pinned(spec, {"sweepd_live slice", 0x05f81e86ef3ba574ULL, 416});
  SweepSpec liars = gathered_grid();
  liars.algorithms = {Algorithm::kThreeGroupGathered};
  liars.families = {"er", "ring", "tree"};
  liars.sizes = {8, 12, 16};
  liars.seeds = {1, 2, 3};
  liars.strategy = ByzStrategy::kMapLiar;
  expect_pinned(liars,
                {"three-group map_liar rewinds", 0x5f721419a36ffb3aULL, 27});
}

/// Every family's sampler, on its own graphs and through the
/// trivial-quotient redraw with shared graphs (the port reshuffle of the
/// deterministic families, oriented_ring's never-satisfiable rule), at
/// sizes some families cannot build (their skip lines are pinned too).
TEST(PinnedCounts, EveryFamily) {
  SweepSpec spec = gathered_grid();
  spec.algorithms = {Algorithm::kQuotient, Algorithm::kThreeGroupGathered,
                     Algorithm::kRingBaseline};
  spec.families = known_families();
  spec.sizes = {8, 9, 12, 16};
  expect_pinned(spec, {"every family", 0xb11aa6328f49059bULL, 264});
  spec.require_trivial_quotient = true;
  spec.common_graphs = true;
  expect_pinned(spec,
                {"every family, trivial quotient", 0x6fde584b698eec0fULL, 264});
}

}  // namespace
}  // namespace bdg::run
