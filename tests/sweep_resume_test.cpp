// Conformance tier for resumable / sharded sweeps: an interrupted sweep
// resumed from its checkpoint, and a sharded sweep merged through a shared
// checkpoint, must reproduce the single-shot SweepResult byte-identically —
// JSON and CSV reports included — at 1 and 8 worker threads. Also the
// regression tier for grid dedupe (clamped duplicate f values must not
// double-count seeds).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/impossibility.h"
#include "core/scenario.h"
#include "run/report.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;
using core::ByzStrategy;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Render every report of a result into one string for byte comparison.
std::string all_reports(const SweepResult& r) {
  std::ostringstream os;
  write_points_csv(os, r);
  os << "\n--\n";
  write_cells_csv(os, r);
  os << "\n--\n";
  write_json(os, r);
  return os.str();
}

/// The mixed-adversary, k-axis grid the conformance statement runs on.
/// >= 500 points: 2 algorithms x 2 families x 1 size x 4 k x 2 f x 2 mixes
/// x 8 seeds = 512. f is unclamped on purpose so the grid reaches the
/// Theorem 8-infeasible region (k=7, f=1): those points must surface as
/// structured skips in the very same reports the byte-compare covers.
SweepSpec conformance_spec(unsigned threads) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered,
                     Algorithm::kTournamentGathered};
  spec.families = {"er", "complete"};
  spec.sizes = {6};
  spec.robot_counts = {4, 6, 7, 12};
  spec.byzantine_counts = {0, 1};
  spec.clamp_f_to_tolerance = false;
  spec.strategy_mixes = {{ByzStrategy::kMapLiar, ByzStrategy::kCrash},
                         {ByzStrategy::kFakeSettler,
                          ByzStrategy::kSilentSettler,
                          ByzStrategy::kSquatter}};
  spec.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.threads = threads;
  spec.measure_seconds = false;  // reports = pure function of the grid
  return spec;
}

/// Every PointResult field, compared one by one.
void expect_same_result(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.point.algorithm, b.point.algorithm);
  EXPECT_EQ(a.point.family, b.point.family);
  EXPECT_EQ(a.point.n, b.point.n);
  EXPECT_EQ(a.point.k, b.point.k);
  EXPECT_EQ(a.point.f, b.point.f);
  EXPECT_EQ(a.point.seed, b.point.seed);
  EXPECT_EQ(a.point.strategy, b.point.strategy);
  EXPECT_EQ(a.point.mix, b.point.mix);
  EXPECT_EQ(a.derived_seed, b.derived_seed);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.skip_reason, b.skip_reason);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.simulated_rounds, b.stats.simulated_rounds);
  EXPECT_EQ(a.stats.resumes, b.stats.resumes);
  EXPECT_EQ(a.stats.moves, b.stats.moves);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.all_honest_done, b.stats.all_honest_done);
  EXPECT_EQ(a.planned_rounds, b.planned_rounds);
  EXPECT_EQ(a.seconds, b.seconds);  // bit-exact double
}

void expect_identical_results(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_same_result(a.points[i], b.points[i]);
  }
  EXPECT_EQ(all_reports(a), all_reports(b));
}

// The acceptance statement: a checkpointed sweep aborted after p points,
// resumed from the checkpoint, reproduces the uninterrupted result
// byte-identically (reports included), at 1 and 8 threads.
TEST(SweepResume, AbortedThenResumedIsByteIdentical) {
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult single = run_sweep(conformance_spec(threads));
    ASSERT_GE(single.points.size(), 500u);
    ASSERT_FALSE(single.aborted);
    // The grid deliberately crosses the Theorem 8 frontier: every
    // infeasible (k, n, f) point must be a structured skip, never a
    // failure.
    std::size_t infeasible = 0;
    for (const PointResult& p : single.points) {
      if (p.point.f < p.point.k &&
          !core::k_dispersion_feasible(p.point.k, p.point.n, p.point.f)) {
        EXPECT_TRUE(p.skipped) << p.detail;
        EXPECT_NE(p.skip_reason.find("Theorem 8"), std::string::npos);
        ++infeasible;
      }
    }
    EXPECT_GT(infeasible, 0u);

    const std::string ck =
        temp_path("resume_t" + std::to_string(threads) + ".jsonl");
    std::remove(ck.c_str());

    SweepSpec interrupted = conformance_spec(threads);
    interrupted.checkpoint_path = ck;
    std::size_t fresh = 0;
    interrupted.progress = [&fresh](const PointResult&, std::size_t,
                                    std::size_t) {
      return ++fresh < 40;  // abort mid-sweep
    };
    const SweepResult partial = run_sweep(interrupted);
    EXPECT_TRUE(partial.aborted);
    EXPECT_GT(partial.skipped(), single.skipped())
        << "abort should leave unrun points behind";

    SweepSpec resumed = conformance_spec(threads);
    resumed.checkpoint_path = ck;
    const SweepResult full = run_sweep(resumed);
    EXPECT_FALSE(full.aborted);
    EXPECT_GE(full.from_checkpoint, 40u - 1u);
    expect_identical_results(single, full);
    std::remove(ck.c_str());
  }
}

// Sharding: the union of the m stripes is exactly the unsharded grid, and
// a merged (checkpoint-fed) unsharded run is byte-identical to single-shot.
TEST(SweepResume, ShardedUnionEqualsUnshardedGrid) {
  const SweepSpec base = conformance_spec(4);
  const std::vector<SweepPoint> grid = expand_grid(base);

  std::vector<SweepPoint> reunion;
  for (unsigned shard = 0; shard < 2; ++shard) {
    SweepSpec s = base;
    s.shard_index = shard;
    s.shard_count = 2;
    for (const SweepPoint& p : expand_grid(s)) reunion.push_back(p);
  }
  ASSERT_EQ(reunion.size(), grid.size());
  // Striped expansion: shard 0 holds indices 0,2,4..., shard 1 the rest.
  std::size_t matched = 0;
  for (const SweepPoint& p : grid) {
    for (const SweepPoint& q : reunion)
      if (same_point(p, q)) {
        ++matched;
        break;
      }
  }
  EXPECT_EQ(matched, grid.size());

  const std::string ck = temp_path("shards.jsonl");
  std::remove(ck.c_str());
  const SweepResult single = run_sweep(base);
  for (unsigned shard = 0; shard < 2; ++shard) {
    SweepSpec s = base;
    s.shard_index = shard;
    s.shard_count = 2;
    s.checkpoint_path = ck;
    const SweepResult slice = run_sweep(s);
    EXPECT_FALSE(slice.aborted);
    EXPECT_EQ(slice.points.size(), (grid.size() + 1 - shard) / 2);
  }
  SweepSpec merged = base;
  merged.checkpoint_path = ck;
  const SweepResult full = run_sweep(merged);
  EXPECT_EQ(full.from_checkpoint, grid.size())
      << "merge run should re-run nothing";
  expect_identical_results(single, full);
  std::remove(ck.c_str());
}

// The checkpoint's on-disk ORDER must be irrelevant: load_checkpoint
// returns a lookup-only util::FlatMap matched against the grid by derived
// seed, so a permuted (here: fully reversed) checkpoint file must restore
// to byte-identical reports. This is the regression test behind the PR 10
// unordered-map audit — report bytes may depend on grid order only, never
// on checkpoint/container iteration order.
TEST(SweepResume, CheckpointOrderIndependence) {
  SweepSpec base = conformance_spec(1);
  base.seeds = {1, 2};  // 128 points is plenty to permute
  const std::string ck = temp_path("permuted.jsonl");
  std::remove(ck.c_str());

  SweepSpec recording = base;
  recording.checkpoint_path = ck;
  const SweepResult single = run_sweep(recording);
  ASSERT_FALSE(single.aborted);

  // Reverse the checkpoint's lines in place.
  std::vector<std::string> lines;
  {
    std::ifstream in(ck);
    ASSERT_TRUE(in);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  {
    std::ofstream out(ck, std::ios::trunc);
    for (auto it = lines.rbegin(); it != lines.rend(); ++it)
      out << *it << "\n";
  }

  SweepSpec merged = base;
  merged.checkpoint_path = ck;
  const SweepResult full = run_sweep(merged);
  EXPECT_EQ(full.from_checkpoint, single.points.size())
      << "reversed checkpoint should restore every point";
  expect_identical_results(single, full);
  std::remove(ck.c_str());
}

// Checkpoint lines round-trip every PointResult field bit-exactly,
// including doubles, escaped strings and the mix. Every number and string
// is distinct and non-default, and across the three points no two flags
// agree throughout, so a table row reading into the wrong member fails.
TEST(SweepResume, CheckpointLinesRoundTrip) {
  PointResult ran;
  ran.point = {Algorithm::kRingBaseline, "ring", 8, 12, 3, 7,
               ByzStrategy::kMapLiar,
               {ByzStrategy::kCrash, ByzStrategy::kMapLiar}};
  ran.derived_seed = 0xDEADBEEFCAFEF00DULL;
  ran.skip_reason = "recorded, though the point ran";
  ran.ok = true;
  ran.detail = "node 3 holds 2 honest robots; \"quoted\"\n\ttabbed";
  ran.stats.rounds = 123456789012345ULL;
  ran.stats.simulated_rounds = 42;
  ran.stats.resumes = 99;
  ran.stats.moves = 1001;
  ran.stats.messages = 2002;
  ran.stats.all_honest_done = true;
  ran.planned_rounds = 777777;
  ran.seconds = 0.12345678901234567;
  PointResult saturated = ran;
  saturated.skipped = true;
  saturated.saturated = true;
  saturated.ok = false;
  saturated.stats.all_honest_done = false;
  saturated.skip_reason = "round bound saturated 128-bit accounting";
  saturated.planned_rounds = core::Round::saturated();
  PointResult skipped = ran;
  skipped.skipped = true;
  skipped.ok = false;
  skipped.skip_reason = "k=7, f=1 infeasible";

  const std::uint64_t fp = 0x5EEDFACE5EEDFACEULL;
  for (const PointResult& p : {ran, saturated, skipped}) {
    SCOPED_TRACE(p.skip_reason);
    std::ostringstream os;
    write_checkpoint_line(os, p, fp);
    std::string line = os.str();
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    const auto entry = parse_checkpoint_line(line);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->spec, fp);
    expect_same_result(p, entry->result);
  }

  // The v2 bytes are pinned: any drift in the checkpoint table fails here.
  const std::string pinned =
      "{\"v\": 2, \"spec\": 6840399173308512974, \"algorithm\": "
      "\"ring-baseline[34,36]\", \"family\": \"ring\", \"n\": 8, \"k\": 12, "
      "\"f\": 3, \"seed\": 7, \"strategy\": \"map_liar\", \"mix\": "
      "\"crash+map_liar\", \"derived_seed\": 16045690984503111693, "
      "\"skipped\": false, \"skip_reason\": \"recorded, though the point "
      "ran\", \"saturated\": false, \"ok\": true, \"detail\": \"node 3 "
      "holds 2 honest robots; \\\"quoted\\\"\\n\\ttabbed\", \"rounds\": "
      "123456789012345, \"simulated_rounds\": 42, \"resumes\": 99, "
      "\"moves\": 1001, \"messages\": 2002, \"all_honest_done\": true, "
      "\"planned_rounds\": 777777, \"seconds\": 0.12345678901234566}";
  std::ostringstream os;
  write_checkpoint_line(os, ran, fp);
  EXPECT_EQ(os.str(), pinned + "\n");
  ASSERT_TRUE(parse_checkpoint_line(pinned).has_value());
  // Deleting any one key (with its value) makes the line malformed.
  std::vector<std::size_t> starts = {1};  // each key's opening quote
  for (std::size_t at = pinned.find(", \""); at != std::string::npos;
       at = pinned.find(", \"", at + 1))
    starts.push_back(at + 2);
  ASSERT_EQ(starts.size(), 24u);  // v, spec and the 22 body keys
  for (std::size_t i = 0; i < starts.size(); ++i) {
    // The key, its value and one ", " separator (the one before it for
    // the last key, so the closing brace stays).
    const bool last = i + 1 == starts.size();
    const std::size_t from = last ? starts[i] - 2 : starts[i];
    const std::size_t to = last ? pinned.size() - 1 : starts[i + 1];
    std::string without = pinned;
    without.erase(from, to - from);
    SCOPED_TRACE(without);
    EXPECT_FALSE(parse_checkpoint_line(without).has_value());
  }

  // A truncated tail (crashed writer) parses as nothing, not garbage.
  EXPECT_FALSE(parse_checkpoint_line(pinned.substr(0, pinned.size() / 2))
                   .has_value());
  EXPECT_FALSE(parse_checkpoint_line("").has_value());
  std::istringstream stream(os.str() + "half a line {\"v\": 1");
  const auto loaded = load_checkpoint(stream, fp);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.contains(ran.derived_seed));
  // Entries from a sweep with different spec knobs are filtered out.
  std::istringstream other(os.str());
  EXPECT_TRUE(load_checkpoint(other, fp + 1).empty());
}

// Checkpoint numbers parse as whole tokens: digits only and within the
// field's range. A sign, trailing junk or a value past 32 bits makes the
// line malformed, never a wrapped, truncated or prefix-parsed value.
TEST(SweepResume, LenientCheckpointNumbersAreMalformed) {
  PointResult p;
  p.point = {Algorithm::kThreeGroupGathered, "er", 8, 8, 1, 3,
             ByzStrategy::kCrash, {}};
  p.derived_seed = 42;
  p.ok = true;
  p.stats.rounds = 100;
  p.planned_rounds = 120;
  p.seconds = 0.5;
  const std::uint64_t fp = 7;
  std::ostringstream os;
  write_checkpoint_line(os, p, fp);
  std::string line = os.str();
  line.pop_back();
  ASSERT_TRUE(parse_checkpoint_line(line).has_value());

  const auto with = [&line](const std::string& from, const std::string& to) {
    std::string out = line;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  const std::vector<std::string> bad = {
      with("\"n\": 8", "\"n\": 4294967304"),  // 2^32 + 8: no truncation
      with("\"n\": 8", "\"n\": -1"),          // no sign wrap-around
      with("\"n\": 8", "\"n\": 8x"),          // no trailing junk
      with("\"derived_seed\": 42", "\"derived_seed\": -42"),
      with("\"seconds\": 0.5", "\"seconds\": 0.5s"),
  };
  std::string stream_text = line + "\n";
  for (const std::string& b : bad) {
    EXPECT_FALSE(parse_checkpoint_line(b).has_value()) << b;
    stream_text += b + "\n";
  }
  std::istringstream stream(stream_text);
  CheckpointLoadStats stats;
  const auto loaded = load_checkpoint(stream, fp, &stats);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.malformed, bad.size());
  ASSERT_TRUE(loaded.contains(42));
  EXPECT_EQ(loaded.find(42)->point.n, 8u);
}

// A checkpoint entry whose coordinates do not match the grid point (stale
// file from another grid, or a derived-seed collision) is ignored — the
// point re-runs instead of importing foreign results.
TEST(SweepResume, MismatchedCheckpointEntriesAreIgnored) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {8};
  spec.seeds = {1};
  spec.measure_seconds = false;
  const std::vector<SweepPoint> grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 1u);

  // Forge an entry with the right derived seed but wrong coordinates.
  PointResult forged;
  forged.point = grid[0];
  forged.point.family = "ring";
  forged.derived_seed = point_seed(spec.base_seed, grid[0]);
  forged.ok = true;
  forged.stats.rounds = 1;

  const std::string ck = temp_path("stale.jsonl");
  {
    std::ofstream os(ck);
    write_checkpoint_line(os, forged, spec_fingerprint(spec));
  }
  SweepSpec with_ck = spec;
  with_ck.checkpoint_path = ck;
  const SweepResult result = run_sweep(with_ck);
  EXPECT_EQ(result.from_checkpoint, 0u) << "forged entry must not be reused";
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_FALSE(result.points[0].skipped);
  EXPECT_GT(result.points[0].stats.rounds, 1u);
  std::remove(ck.c_str());
}

// Regression: a checkpoint written under different spec-level knobs
// (common_graphs here — same coordinates, same derived seed, different
// execution) must not be imported; the fingerprint forces a re-run.
TEST(SweepResume, DifferentSpecKnobsInvalidateCheckpoint) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {8};
  spec.seeds = {1};
  spec.measure_seconds = false;
  spec.checkpoint_path = temp_path("knobs.jsonl");
  std::remove(spec.checkpoint_path.c_str());

  const SweepResult first = run_sweep(spec);
  ASSERT_EQ(first.points.size(), 1u);
  ASSERT_FALSE(first.points[0].skipped);

  SweepSpec other = spec;
  other.common_graphs = true;  // same grid, different graph sampling
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));
  const SweepResult second = run_sweep(other);
  EXPECT_EQ(second.from_checkpoint, 0u)
      << "checkpoint from different knobs must not be reused";
  ASSERT_EQ(second.points.size(), 1u);
  EXPECT_NE(first.points[0].stats.moves, second.points[0].stats.moves);

  // The matching spec still resumes from its own entries.
  const SweepResult again = run_sweep(spec);
  EXPECT_EQ(again.from_checkpoint, 1u);
  std::remove(spec.checkpoint_path.c_str());
}

// Checkpoint compatibility pin: every checkpoint ever written records
// spec_fingerprint, and resume only reuses entries whose fingerprint
// matches. The default spec's value must never drift, or every existing
// checkpoint silently re-runs from scratch.
TEST(SweepResume, DefaultSpecFingerprintIsStable) {
  EXPECT_EQ(spec_fingerprint(SweepSpec{}), 0xC9C9A69691981A17ULL);
}

// Regression (grid dedupe): byzantine_counts that clamp onto the same
// tolerance, robot_counts listing both 0 and n, and repeated unclamped f
// values must all collapse to unique points — aggregates never
// double-count a derived seed.
TEST(SweepResume, ExpandedGridNeverDuplicatesPoints) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {9};
  spec.robot_counts = {0, 9};       // both mean k = n = 9
  spec.byzantine_counts = {5, 9};   // both clamp to the tolerance (2)
  spec.seeds = {1, 2};
  spec.measure_seconds = false;
  const std::vector<SweepPoint> clamped = expand_grid(spec);
  EXPECT_EQ(clamped.size(), 2u);  // one (a, family, n, k, f) x two seeds
  for (const SweepPoint& p : clamped) {
    EXPECT_EQ(p.k, 9u);
    EXPECT_EQ(p.f, 2u);
  }

  SweepSpec unclamped = spec;
  unclamped.clamp_f_to_tolerance = false;
  unclamped.byzantine_counts = {2, 2, 2};
  const std::vector<SweepPoint> uniq = expand_grid(unclamped);
  EXPECT_EQ(uniq.size(), 2u);

  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].runs, 2u) << "duplicate seeds double-counted";
}

// Abort without a checkpoint still yields a complete, well-formed result:
// unrun points are structured skips, not absent rows.
TEST(SweepResume, AbortMarksUnrunPointsAsSkips) {
  SweepSpec spec = conformance_spec(1);
  std::size_t seen = 0;
  spec.progress = [&seen](const PointResult&, std::size_t, std::size_t) {
    return ++seen < 10;
  };
  const SweepResult result = run_sweep(spec);
  EXPECT_TRUE(result.aborted);
  ASSERT_EQ(result.points.size(), expand_grid(conformance_spec(1)).size());
  std::size_t aborted_points = 0;
  for (const PointResult& p : result.points)
    if (p.skipped && p.skip_reason.find("aborted") != std::string::npos)
      ++aborted_points;
  EXPECT_GT(aborted_points, 0u);
}

}  // namespace
}  // namespace bdg::run
