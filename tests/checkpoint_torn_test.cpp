// Crash-consistency tier for the JSON-lines checkpoint: a checkpoint
// truncated at EVERY byte offset of its final record (what a crash or full
// disk mid-append leaves behind) must load all preceding records, skip the
// torn tail loudly (counted, surfaced in the report), and never fabricate
// a result from a prefix — nor from a torn record spliced onto the next
// one. Plus the append-side guarantees: a resume terminates a torn tail
// before appending, and a failed write (full disk, closed descriptor)
// throws an error naming the path instead of silently losing the point.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "run/report.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {6};
  spec.seeds = {1, 2, 3};
  spec.threads = 1;
  spec.measure_seconds = false;
  return spec;
}

// Truncate a real 3-record checkpoint at every byte offset of its last
// record: every cut must yield exactly the two intact records — except
// cutting only the final newline, which leaves a complete record — and
// the torn line must be counted in stats.malformed, never parsed.
TEST(CheckpointTorn, EveryTruncationOffsetOfLastRecordIsSkippedLoudly) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("torn_full.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  const SweepResult full = run_sweep(spec);
  ASSERT_EQ(full.points.size(), 3u);
  const std::uint64_t fp = spec_fingerprint(spec);

  const std::string content = slurp(spec.checkpoint_path);
  ASSERT_FALSE(content.empty());
  ASSERT_EQ(content.back(), '\n');
  // Start of the last record: byte after the second-to-last newline.
  const std::size_t last_start = content.rfind('\n', content.size() - 2) + 1;
  ASSERT_GT(last_start, 0u);
  ASSERT_LT(last_start, content.size() - 1);

  for (std::size_t cut = last_start; cut < content.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::istringstream truncated(content.substr(0, cut));
    CheckpointLoadStats stats;
    const auto loaded = load_checkpoint(truncated, fp, &stats);
    EXPECT_EQ(stats.foreign, 0u);
    if (cut == last_start) {
      // Clean cut right after the previous newline: two whole records, no
      // torn line at all.
      EXPECT_EQ(stats.loaded, 2u);
      EXPECT_EQ(stats.malformed, 0u);
    } else if (cut == content.size() - 1) {
      // Only the trailing newline is missing: the record is complete and
      // must load (a writer killed between write and newline loses
      // nothing).
      EXPECT_EQ(stats.loaded, 3u);
      EXPECT_EQ(stats.malformed, 0u);
    } else {
      // A genuinely torn tail: skipped AND counted.
      EXPECT_EQ(stats.loaded, 2u);
      EXPECT_EQ(stats.malformed, 1u);
    }
    // Whatever loaded must bit-match a real completed point — a prefix
    // must never resurface as a (wrong) result.
    EXPECT_EQ(loaded.size(), stats.loaded);
    loaded.for_each([&](const std::uint64_t seed, const PointResult& result) {
      bool matches = false;
      for (const PointResult& p : full.points)
        if (p.derived_seed == seed && p.stats.moves == result.stats.moves &&
            p.detail == result.detail && same_point(p.point, result.point))
          matches = true;
      EXPECT_TRUE(matches) << "derived seed " << seed;
    });
  }
  std::remove(spec.checkpoint_path.c_str());
}

// End-to-end: resuming from a checkpoint with a torn tail re-runs the torn
// point, surfaces the count in SweepResult and the JSON report, and the
// final reports match the untruncated sweep.
TEST(CheckpointTorn, ResumeFromTornTailReRunsAndSurfacesCount) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("torn_resume.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  const SweepResult full = run_sweep(spec);
  ASSERT_EQ(full.torn_checkpoint_lines, 0u);

  const std::string content = slurp(spec.checkpoint_path);
  const std::size_t last_start = content.rfind('\n', content.size() - 2) + 1;
  const std::size_t cut = last_start + (content.size() - 1 - last_start) / 2;
  {
    std::ofstream os(spec.checkpoint_path,
                     std::ios::binary | std::ios::trunc);
    os << content.substr(0, cut);
  }

  const SweepResult resumed = run_sweep(spec);
  EXPECT_EQ(resumed.torn_checkpoint_lines, 1u);
  EXPECT_EQ(resumed.from_checkpoint, 2u);

  std::ostringstream a, b;
  write_points_csv(a, full);
  write_points_csv(b, resumed);
  EXPECT_EQ(a.str(), b.str());
  std::ostringstream json;
  write_json(json, resumed);
  EXPECT_NE(json.str().find("\"torn_checkpoint_lines\": 1"),
            std::string::npos)
      << "the loss must be loud in the report";
  std::remove(spec.checkpoint_path.c_str());
}

// Resuming from a torn tail appends the re-run point on a line of its own:
// the torn fragment is terminated first, so a reload sees the two intact
// records, the fragment (malformed) and the re-run record. A clean
// checkpoint gains no bytes.
TEST(CheckpointTorn, ResumeFromTornTailAppendsOnItsOwnLine) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("torn_append.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  (void)run_sweep(spec);
  const std::uint64_t fp = spec_fingerprint(spec);
  const std::string content = slurp(spec.checkpoint_path);
  const std::size_t last_start = content.rfind('\n', content.size() - 2) + 1;
  const auto rewrite = [&](const std::string& text) {
    std::ofstream os(spec.checkpoint_path,
                     std::ios::binary | std::ios::trunc);
    os << text;
  };

  rewrite(content.substr(0, last_start + (content.size() - last_start) / 2));
  EXPECT_EQ(run_sweep(spec).torn_checkpoint_lines, 1u);
  std::istringstream reloaded(slurp(spec.checkpoint_path));
  CheckpointLoadStats stats;
  (void)load_checkpoint(reloaded, fp, &stats);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.malformed, 1u);

  // A clean cut between records: the re-run point is the only new bytes.
  rewrite(content.substr(0, last_start));
  EXPECT_EQ(run_sweep(spec).torn_checkpoint_lines, 0u);
  EXPECT_EQ(slurp(spec.checkpoint_path), content);
  std::remove(spec.checkpoint_path.c_str());
}

// Splice tier: a torn record X with the next record Y appended onto it
// (shard files concatenated after a crash, or an append after a torn
// tail) is one line X[:cut] + Y. For every cut it must never load an entry
// with X's derived seed, and for every cut > 0 it is malformed — never a
// clean entry mixing the two points' fields.
TEST(CheckpointTorn, SplicedRecordsNeverLoadAsOne) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("torn_splice.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  (void)run_sweep(spec);
  const std::uint64_t fp = spec_fingerprint(spec);
  std::istringstream records(slurp(spec.checkpoint_path));
  std::string x, y;
  ASSERT_TRUE(std::getline(records, x));
  ASSERT_TRUE(std::getline(records, y));
  const auto x_entry = parse_checkpoint_line(x);
  const auto y_entry = parse_checkpoint_line(y);
  ASSERT_TRUE(x_entry && y_entry);
  const std::uint64_t x_seed = x_entry->result.derived_seed;
  ASSERT_NE(x_seed, y_entry->result.derived_seed);

  for (std::size_t cut = 0; cut <= x.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::istringstream spliced(x.substr(0, cut) + y + "\n");
    CheckpointLoadStats stats;
    const auto loaded = load_checkpoint(spliced, fp, &stats);
    EXPECT_FALSE(loaded.contains(x_seed));
    EXPECT_EQ(stats.foreign, 0u);
    EXPECT_EQ(stats.malformed, cut > 0 ? 1u : 0u);
    EXPECT_EQ(stats.loaded, cut > 0 ? 0u : 1u);
  }
  std::remove(spec.checkpoint_path.c_str());
}

// Crash-consistent appends: when the stream goes bad (closed descriptor
// here, full disk below) append_checkpoint_line throws an error naming
// the checkpoint path — a lost point is never silent.
TEST(CheckpointTorn, AppendToDeadStreamThrowsNamingThePath) {
  PointResult p;
  p.point.family = "er";
  std::ofstream never_opened;  // first write fails => stream goes bad
  try {
    append_checkpoint_line(never_opened, "/somewhere/ck.jsonl", p, 1);
    FAIL() << "expected append_checkpoint_line to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/somewhere/ck.jsonl"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTorn, AppendToFullDiskThrowsNamingThePath) {
  std::ofstream full_disk("/dev/full");
  if (!full_disk.is_open()) GTEST_SKIP() << "/dev/full not available";
  PointResult p;
  p.point.family = "er";
  try {
    // One record is smaller than the stream buffer, so the write itself
    // succeeds; the flush inside append must surface ENOSPC.
    append_checkpoint_line(full_disk, "/dev/full", p, 1);
    FAIL() << "expected append_checkpoint_line to throw on ENOSPC";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bdg::run
