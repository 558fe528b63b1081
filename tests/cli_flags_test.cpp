// Unit tier for run/cli_flags, the command-line plumbing every sweep
// front-end shares: grid flag parsing with checked numbers (junk,
// negative and out-of-range values are usage errors naming the flag, not
// silently truncated), --connect address bounds, the one exit-code
// policy sweep_cli and sweepd both return, and the shared help text.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "run/cli_flags.h"

namespace bdg::run {
namespace {

/// parse_grid_flags over `args` (argv[0] is supplied).
GridFlagsResult parse(std::vector<std::string> args) {
  args.insert(args.begin(), "sweep_cli");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_grid_flags(static_cast<int>(argv.size()), argv.data());
}

std::string error_of(const std::vector<std::string>& args) {
  const GridFlagsResult res = parse(args);
  EXPECT_FALSE(res.ok);
  return res.error;
}

TEST(CliFlags, AcceptsTheReadmeGrid) {
  const GridFlagsResult res =
      parse({"--algorithms=quotient,three-group", "--families=er,torus",
             "--sizes=8,12,16", "--seeds=1,2,3", "--k=0,8", "--byz=0,1",
             "--shard=1/2", "--threads=4", "--base-seed=18446744073709551615",
             "--er-p=0.3", "--json=sweep.json", "--no-timing"});
  ASSERT_TRUE(res.ok) << res.error;
  const SweepSpec& spec = res.spec;
  EXPECT_EQ(spec.algorithms,
            (std::vector<core::Algorithm>{core::Algorithm::kQuotient,
                                          core::Algorithm::kThreeGroupGathered}));
  EXPECT_EQ(spec.families, (std::vector<std::string>{"er", "torus"}));
  EXPECT_EQ(spec.sizes, (std::vector<std::uint32_t>{8, 12, 16}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.robot_counts, (std::vector<std::uint32_t>{0, 8}));
  EXPECT_EQ(spec.byzantine_counts, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(spec.shard_index, 1u);
  EXPECT_EQ(spec.shard_count, 2u);
  EXPECT_EQ(spec.threads, 4u);
  EXPECT_EQ(spec.base_seed, 18446744073709551615ULL);
  EXPECT_EQ(spec.er_edge_probability, 0.3);
  EXPECT_FALSE(spec.measure_seconds);
  // Output flags belong to the front-end: returned, in order.
  EXPECT_EQ(res.leftover, (std::vector<std::string>{"--json=sweep.json"}));
}

TEST(CliFlags, DefaultsToTheCliGrid) {
  const GridFlagsResult res = parse({});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.spec.families, (std::vector<std::string>{"er"}));
  EXPECT_EQ(res.spec.sizes, (std::vector<std::uint32_t>{8, 12, 16}));
  // Every row but the ring baseline, in table order.
  std::vector<core::Algorithm> expected;
  for (const core::AlgorithmInfo& row : core::algorithm_table())
    if (row.algorithm != core::Algorithm::kRingBaseline)
      expected.push_back(row.algorithm);
  EXPECT_EQ(expected.size(), 8u);
  EXPECT_EQ(res.spec.algorithms, expected);
}

TEST(CliFlags, RejectsJunkNegativeAndOutOfRangeNumbers) {
  // Each of these used to parse (std::stoul stops at the junk and wraps
  // negatives): --sizes=8x ran n=8, --threads=-1 became 4294967295.
  for (const std::string bad :
       {"--sizes=8x", "--sizes=8,x", "--sizes=4294967296", "--sizes= 8",
        "--sizes=+8", "--threads=-1", "--threads=4294967296", "--k=-1",
        "--byz=1.5", "--seeds=18446744073709551616", "--base-seed=0x10",
        "--shard=0/2x", "--shard=-1/2", "--er-p=0.3x", "--er-p=x"}) {
    SCOPED_TRACE(bad);
    const std::string flag = bad.substr(0, bad.find('='));
    const std::string error = error_of({bad});
    EXPECT_NE(error.find(flag), std::string::npos)
        << "the error must name the flag: " << error;
  }
  EXPECT_NE(error_of({"--shard=2/2"}).find("i < m"), std::string::npos);
}

TEST(CliFlags, ErPMustBeAFiniteProbability) {
  // --er-p=nan used to spend 4096 x n^2 draws per point before failing
  // without naming the flag; inf, 1e400 (strtod's inf) and 7 ran silently.
  for (const std::string bad :
       {"--er-p=nan", "--er-p=-nan", "--er-p=inf", "--er-p=-inf",
        "--er-p=1e400", "--er-p=7", "--er-p=1.0000001"}) {
    SCOPED_TRACE(bad);
    const std::string error = error_of({bad});
    EXPECT_NE(error.find("--er-p"), std::string::npos)
        << "the error must name the flag: " << error;
  }
  // <= 0 still asks for the connectivity threshold, and 1 is complete.
  for (const std::string good : {"--er-p=0", "--er-p=-0.5", "--er-p=1"}) {
    SCOPED_TRACE(good);
    EXPECT_TRUE(parse({good}).ok);
  }
}

TEST(CliFlags, CheckedNumbersAreRangeCheckedToTheirType) {
  EXPECT_EQ(parse_flag_number<std::uint16_t>("65535", "--listen"), 65535u);
  EXPECT_EQ(parse_flag_number<std::uint16_t>("0", "--listen"), 0u);
  EXPECT_EQ(parse_flag_number<std::uint32_t>("1", "--lease-points", 1), 1u);
  EXPECT_EQ(parse_flag_number<std::uint64_t>("18446744073709551615", "--s"),
            18446744073709551615ULL);
  // sweepd's --listen=70000 used to bind port 4464 (70000 mod 65536), and
  // --lease-points=-1 slipped past the == 0 guard as 4294967295.
  EXPECT_THROW((void)parse_flag_number<std::uint16_t>("70000", "--listen"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_flag_number<std::uint32_t>("-1", "--lease-points", 1),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_flag_number<std::uint32_t>("0", "--lease-points", 1),
      std::invalid_argument);
  EXPECT_THROW((void)parse_flag_number<std::uint32_t>("", "--n"),
               std::invalid_argument);
  try {
    (void)parse_flag_number<std::uint16_t>("70000", "--listen");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--listen"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos);
  }
}

TEST(CliFlags, FlagValueMatchesOnlyTheWholeFlagName) {
  EXPECT_EQ(flag_value("--k=4", "--k"), std::optional<std::string>("4"));
  EXPECT_EQ(flag_value("--k=", "--k"), std::optional<std::string>(""));
  EXPECT_FALSE(flag_value("--k", "--k").has_value());
  EXPECT_FALSE(flag_value("--kk=4", "--k").has_value());
  EXPECT_FALSE(flag_value("--", "--k").has_value());
}

TEST(CliFlags, HostPortBounds) {
  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_host_port("1", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 1u);
  ASSERT_TRUE(parse_host_port("65535", host, port));
  EXPECT_EQ(port, 65535u);
  ASSERT_TRUE(parse_host_port("localhost:39173", host, port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 39173u);
  for (const char* bad : {"", "0", "65536", "99999999999999999999", "-1",
                          "+80", "80x", " 80", ":80", "host:", "host:0"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_host_port(bad, host, port));
  }
}

TEST(CliFlags, ExitCodePrecedence) {
  // sweep_exit_code(saturated, failed, write_ok, aborted)
  EXPECT_EQ(sweep_exit_code(0, 0, true, false), 0);
  EXPECT_EQ(sweep_exit_code(0, 0, true, true), 3);
  // Failures or an unwritable report outrank an abort...
  EXPECT_EQ(sweep_exit_code(0, 2, true, true), 1);
  EXPECT_EQ(sweep_exit_code(0, 0, false, true), 1);
  EXPECT_EQ(sweep_exit_code(0, 2, false, false), 1);
  // ...and saturation outranks everything.
  EXPECT_EQ(sweep_exit_code(1, 0, true, false), 4);
  EXPECT_EQ(sweep_exit_code(1, 2, false, true), 4);
}

TEST(CliFlags, ReportFlagsAreConsumed) {
  ReportFlags flags;
  EXPECT_TRUE(parse_report_flag("--points-csv=-", flags));
  EXPECT_TRUE(parse_report_flag("--cells-csv=c.csv", flags));
  EXPECT_TRUE(parse_report_flag("--json=r.json", flags));
  EXPECT_TRUE(parse_report_flag("--quiet", flags));
  EXPECT_FALSE(parse_report_flag("--progress", flags));
  EXPECT_FALSE(parse_report_flag("--json", flags));
  EXPECT_EQ(flags.points_csv, "-");
  EXPECT_EQ(flags.cells_csv, "c.csv");
  EXPECT_EQ(flags.json, "r.json");
  EXPECT_TRUE(flags.quiet);
}

TEST(CliFlags, GridHelpPrintsAPlainPercent) {
  // fputs prints the help verbatim: a printf-style "%%" would show up
  // doubled in every front-end's --help.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  print_grid_flag_help(tmp);
  std::rewind(tmp);
  std::string help;
  for (int c = std::fgetc(tmp); c != EOF; c = std::fgetc(tmp))
    help += static_cast<char>(c);
  std::fclose(tmp);
  EXPECT_NE(help.find("mix[i % len]"), std::string::npos) << help;
  EXPECT_EQ(help.find("%%"), std::string::npos) << help;
}

}  // namespace
}  // namespace bdg::run
