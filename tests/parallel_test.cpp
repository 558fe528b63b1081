// parallel_for_index: coverage, exception propagation, and determinism of
// parallel scenario sweeps (each point owns its engine).
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "core/scenario.h"
#include "graph/generators.h"

namespace bdg {
namespace {

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for_index(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ZeroCountIsNoop) {
  parallel_for_index(0, [](std::size_t) { FAIL(); });
}

TEST(Parallel, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for_index(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
                     /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for_index(64,
                         [](std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                         },
                         4),
      std::runtime_error);
}

// Cancellation-responsiveness contract (see util/parallel.h): `cancelled`
// is polled at claim time, so once a cancel is observed no further bodies
// start — at most one in-flight body per worker can still complete. This
// is what bounds the sweep runner's abort latency by a single point, not
// the remaining grid.
TEST(Parallel, CancelMidSweepStopsBeforeNextIndex) {
  constexpr unsigned kThreads = 4;
  std::atomic<bool> cancel{false};
  std::atomic<int> started{0};
  parallel_for_index(
      100000,
      [&](std::size_t) {
        ++started;
        cancel.store(true);  // the very first body cancels the sweep
      },
      kThreads, [&] { return cancel.load(); });
  EXPECT_GE(started.load(), 1);
  EXPECT_LE(started.load(), static_cast<int>(kThreads))
      << "bodies claimed after the cancel was observable";
}

// All spawned threads are joined before parallel_for_index returns on the
// cancellation path: captured state is safe to touch immediately after.
TEST(Parallel, CancelJoinsAllThreadsBeforeReturning) {
  std::atomic<bool> cancel{false};
  std::atomic<int> in_flight{0};
  parallel_for_index(
      10000,
      [&](std::size_t) {
        ++in_flight;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        cancel.store(true);
        --in_flight;
      },
      4, [&] { return cancel.load(); });
  EXPECT_EQ(in_flight.load(), 0)
      << "a body was still running after parallel_for_index returned";
}

// ... and on the exception path: the first exception is rethrown only
// after every worker joined, so no body outlives the call.
TEST(Parallel, ExceptionJoinsAllThreadsBeforeRethrow) {
  std::atomic<int> in_flight{0};
  bool threw = false;
  try {
    parallel_for_index(
        256,
        [&](std::size_t i) {
          ++in_flight;
          if (i == 0) {
            --in_flight;
            throw std::runtime_error("boom");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          --in_flight;
        },
        8);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(in_flight.load(), 0)
      << "a body was still running when the exception surfaced";
}

TEST(Parallel, ScenarioSweepMatchesSerialResults) {
  // Bit-reproducibility across threading: the same (seed, point) grid
  // computed serially and in parallel must agree move-for-move.
  Rng rng(6);
  const Graph g = shuffle_ports(make_connected_er(8, 0.45, rng), rng);
  auto run_point = [&](std::size_t i) {
    core::ScenarioConfig cfg;
    cfg.algorithm = core::Algorithm::kThreeGroupGathered;
    cfg.num_byzantine = static_cast<std::uint32_t>(i % 3);
    cfg.strategy = core::ByzStrategy::kFakeSettler;
    cfg.seed = 100 + i;
    return core::run_scenario(g, cfg);
  };
  constexpr std::size_t kPoints = 6;
  std::vector<std::uint64_t> serial(kPoints), parallel(kPoints);
  // char, not bool: vector<bool> packs neighbouring flags into one word,
  // so writes from different threads would race.
  std::vector<char> serial_ok(kPoints), parallel_ok(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto r = run_point(i);
    serial[i] = r.stats.moves;
    serial_ok[i] = r.verify.ok();
  }
  parallel_for_index(kPoints, [&](std::size_t i) {
    const auto r = run_point(i);
    parallel[i] = r.stats.moves;
    parallel_ok[i] = r.verify.ok();
  });
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_ok, parallel_ok);
}

}  // namespace
}  // namespace bdg
