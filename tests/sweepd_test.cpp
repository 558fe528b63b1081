// Conformance tier for the sweepd coordinator/worker service: a
// distributed sweep over the PR 3 512-point mixed-adversary grid must
// reproduce the single-shot SweepResult byte-identically (reports
// included), survive a worker dying mid-grid (leases reassigned and
// re-run), stay byte-identical under seeded drop/delay fault schedules,
// degrade to in-process execution with zero reachable workers, and reject
// workers that expanded a different grid.
//
// Query tier: the incrementally maintained CellAggregator must be
// bit-identical to rebuild_cell_aggregates in ANY arrival order; live
// `query` frames — mid-sweep, after completion (serve-after-finish), over
// a finished checkpoint, and under fault schedules — must answer with
// bodies byte-identical to the corresponding report JSON fragments. Plus
// merge-path regressions: restored-point re-streams count as duplicates
// (not protocol errors) and workers reject leases with unparseable ids.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/transport.h"
#include "run/report.h"
#include "run/service.h"
#include "run/sweep.h"
#include "util/json_mini.h"

namespace bdg::run {
namespace {

using core::Algorithm;
using core::ByzStrategy;

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

std::string cell_json(const CellAggregate& c) {
  std::ostringstream os;
  write_cell_json(os, c);
  return os.str();
}

std::string point_json(const PointResult& p) {
  std::ostringstream os;
  write_point_json(os, p);
  return os.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Truncate a checkpoint file to its first `count` lines (simulating a
/// sweep frozen mid-grid, or a coordinator restart that missed later
/// results).
void keep_first_lines(const std::string& path, std::size_t count) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), count);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < count; ++i) out << lines[i] << '\n';
}

/// Field-exact CellAggregate comparison — EXPECT_EQ on the means on
/// purpose: the aggregator contract is BIT identity, not tolerance.
void expect_cells_equal(const std::vector<CellAggregate>& a,
                        const std::vector<CellAggregate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].k, b[i].k);
    EXPECT_EQ(a[i].f, b[i].f);
    EXPECT_EQ(a[i].mix, b[i].mix);
    EXPECT_EQ(a[i].runs, b[i].runs);
    EXPECT_EQ(a[i].dispersed, b[i].dispersed);
    EXPECT_EQ(a[i].min_rounds, b[i].min_rounds);
    EXPECT_EQ(a[i].max_rounds, b[i].max_rounds);
    EXPECT_EQ(a[i].mean_rounds, b[i].mean_rounds);
    EXPECT_EQ(a[i].mean_simulated, b[i].mean_simulated);
    EXPECT_EQ(a[i].mean_moves, b[i].mean_moves);
    EXPECT_EQ(a[i].mean_messages, b[i].mean_messages);
    EXPECT_EQ(a[i].mean_seconds, b[i].mean_seconds);
  }
}

/// Query the coordinator's live cells and assert the bodies are
/// byte-identical to the expected cells' report JSON.
void expect_queried_cells(std::uint16_t port,
                          const std::vector<CellAggregate>& expected) {
  QueryClientConfig qc;
  qc.port = port;
  QueryRequest cq;
  cq.what = "cells";
  const auto cells = run_query(cq, qc);
  ASSERT_TRUE(cells.has_value());
  EXPECT_TRUE(cells->error.empty());
  ASSERT_EQ(cells->bodies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(cells->bodies[i], cell_json(expected[i]));
  }
}

/// The same 512-point mixed-adversary, k-axis grid the resume conformance
/// tier pins (sweep_resume_test): 2 algorithms x 2 families x 1 size x
/// 4 k x 2 unclamped f x 2 mixes x 8 seeds, timing off so reports are a
/// pure function of the grid.
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
  spec.measure_seconds = false;
  return spec;
}

/// A small grid (8 points) for the fault-schedule tests, where drops force
/// lease expiries and the test runs the sweep several times.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {6};
  spec.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.threads = 2;
  spec.measure_seconds = false;
  return spec;
}

void expect_identical_results(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const PointResult& pa = a.points[i];
    const PointResult& pb = b.points[i];
    EXPECT_TRUE(same_point(pa.point, pb.point));
    EXPECT_EQ(pa.derived_seed, pb.derived_seed);
    EXPECT_EQ(pa.skipped, pb.skipped);
    EXPECT_EQ(pa.skip_reason, pb.skip_reason);
    EXPECT_EQ(pa.ok, pb.ok);
    EXPECT_EQ(pa.detail, pb.detail);
    EXPECT_EQ(pa.stats.rounds, pb.stats.rounds);
    EXPECT_EQ(pa.stats.moves, pb.stats.moves);
    EXPECT_EQ(pa.stats.messages, pb.stats.messages);
    EXPECT_EQ(pa.planned_rounds, pb.planned_rounds);
    EXPECT_EQ(pa.seconds, pb.seconds);
  }
  EXPECT_EQ(all_reports(a), all_reports(b));
}

/// Run a coordinator plus `workers` in-process worker threads over `spec`,
/// returning the merged result (and each worker's exit reason). With
/// svc.serve_after_finish the coordinator outlives its workers: the
/// `while_serving` hook runs against the finished-but-serving coordinator
/// (issue queries there), after which the stop flag ends serving.
SweepResult run_distributed(
    const SweepSpec& spec, ServiceConfig svc,
    std::vector<WorkerConfig> workers,
    std::vector<WorkerExit>* exits = nullptr,
    CoordinatorStats* stats = nullptr,
    const std::function<void(std::uint16_t)>& while_serving = {}) {
  Coordinator coordinator(spec, svc);
  const std::uint16_t port = coordinator.port();

  std::atomic<bool> stop{false};
  SweepResult result;
  std::thread serve_thread([&] { result = coordinator.serve(&stop); });

  std::vector<WorkerExit> reasons(workers.size(), WorkerExit::kShutdown);
  std::vector<std::thread> fleet;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    workers[w].port = port;
    fleet.emplace_back([&, w] {
      reasons[w] = run_sweep_worker(spec, workers[w]);
    });
  }
  for (auto& t : fleet) t.join();
  if (while_serving) while_serving(port);
  stop.store(true);
  serve_thread.join();
  if (exits) *exits = reasons;
  if (stats) *stats = coordinator.stats();
  return result;
}

WorkerConfig worker(const std::string& name, std::uint64_t jitter_seed) {
  WorkerConfig cfg;
  cfg.name = name;
  cfg.jitter_seed = jitter_seed;
  cfg.idle_recv_ms = 50;
  cfg.hello_timeout_ms = 1000;
  // Short reconnect budget: a worker that loses a shutdown race gives up
  // quickly instead of stalling the test on a vanished coordinator.
  cfg.backoff.attempts = 6;
  cfg.backoff.base_ms = 5;
  cfg.backoff.max_ms = 50;
  return cfg;
}

// The acceptance statement: a 3-worker distributed sweep over the
// 512-point conformance grid is byte-identical to single-shot run_sweep.
TEST(Sweepd, ThreeWorkerSweepIsByteIdenticalToSingleShot) {
  const SweepSpec spec = conformance_spec(2);
  const SweepResult single = run_sweep(spec);
  ASSERT_GE(single.points.size(), 500u);

  ServiceConfig svc;
  svc.lease_points = 8;
  svc.lease_timeout_ms = 10000;
  svc.serve_after_finish = true;
  std::vector<WorkerExit> exits;
  CoordinatorStats stats;
  const SweepResult dist = run_distributed(
      spec, svc, {worker("w0", 1), worker("w1", 2), worker("w2", 3)}, &exits,
      &stats, [&](std::uint16_t port) {
        // The finished-but-serving coordinator must answer queries with
        // the exact aggregates the merged report will carry.
        expect_queried_cells(port, single.cells);
        QueryClientConfig qc;
        qc.port = port;
        QueryRequest pq;  // what defaults to "progress"
        const auto progress = run_query(pq, qc);
        ASSERT_TRUE(progress.has_value());
        EXPECT_TRUE(progress->done);
        EXPECT_EQ(progress->total, single.points.size());
        EXPECT_EQ(progress->completed, single.points.size());
        QueryRequest point;
        point.what = "point";
        point.derived_seed = single.points[0].derived_seed;
        const auto reply = run_query(point, qc);
        ASSERT_TRUE(reply.has_value());
        EXPECT_FALSE(reply->pending);
        ASSERT_EQ(reply->bodies.size(), 1u);
        EXPECT_EQ(reply->bodies[0], point_json(single.points[0]));
      });

  for (const WorkerExit e : exits) EXPECT_EQ(e, WorkerExit::kShutdown);
  EXPECT_GE(stats.workers_seen, 3u);
  EXPECT_GT(stats.leases_granted, 0u);
  EXPECT_EQ(stats.leases_reassigned, 0u);
  EXPECT_EQ(stats.duplicate_results, 0u);
  EXPECT_EQ(stats.local_fallback_points, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GE(stats.clients_seen, 1u);
  EXPECT_GE(stats.queries_answered, 3u);
  EXPECT_FALSE(dist.aborted);
  expect_identical_results(single, dist);
}

// Robustness statement: killing a worker mid-grid (soft kill hook — the
// thread analogue of SIGKILL; the CI smoke covers the hard _Exit variant)
// reassigns its leased points and the merged result is still
// byte-identical.
TEST(Sweepd, SurvivesWorkerKilledMidGrid) {
  const SweepSpec spec = conformance_spec(2);
  const SweepResult single = run_sweep(spec);

  ServiceConfig svc;
  svc.lease_points = 8;
  svc.lease_timeout_ms = 10000;
  svc.serve_after_finish = true;
  WorkerConfig victim = worker("victim", 4);
  victim.fault.enabled = true;
  victim.fault.kill_after_points = 50;  // dies well inside the grid
  victim.fault.kill_hard = false;

  std::vector<WorkerExit> exits;
  CoordinatorStats stats;
  const SweepResult dist = run_distributed(
      spec, svc, {victim, worker("w1", 5), worker("w2", 6)}, &exits, &stats,
      [&](std::uint16_t port) {
        // Reassigned + re-run points must aggregate exactly once: the
        // live cells still match the single-shot report after the kill.
        expect_queried_cells(port, single.cells);
      });

  EXPECT_EQ(exits[0], WorkerExit::kKilled);
  EXPECT_EQ(exits[1], WorkerExit::kShutdown);
  EXPECT_EQ(exits[2], WorkerExit::kShutdown);
  EXPECT_GE(stats.leases_reassigned, 1u)
      << "the victim died mid-lease; its points must be re-queued";
  EXPECT_FALSE(dist.aborted);
  expect_identical_results(single, dist);
}

// Seeded drop/delay schedules lose results and heartbeats on purpose;
// lease expiry re-runs the points, duplicates are discarded, and the
// merged report must not change by a byte. Run twice to pin that the
// fault schedule itself is deterministic end-to-end.
TEST(Sweepd, FaultScheduleKeepsReportByteIdentical) {
  const SweepSpec spec = small_spec();
  const SweepResult single = run_sweep(spec);

  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    ServiceConfig svc;
    svc.lease_points = 2;
    svc.lease_timeout_ms = 300;  // expire dropped results quickly
    WorkerConfig lossy = worker("lossy", 7);
    lossy.fault.enabled = true;
    lossy.fault.seed = 9;
    lossy.fault.drop = 0.2;
    lossy.fault.delay = 0.1;
    lossy.fault.delay_ms = 1;

    std::vector<WorkerExit> exits;
    const SweepResult dist =
        run_distributed(spec, svc, {lossy, worker("clean", 8)}, &exits);
    EXPECT_FALSE(dist.aborted);
    expect_identical_results(single, dist);
  }
}

// Zero reachable workers: after idle_grace_ms the coordinator runs the
// remaining stripe in-process through the same merge path — graceful
// degradation, not a hang.
TEST(Sweepd, ZeroWorkersFallsBackToInProcessExecution) {
  const SweepSpec spec = small_spec();
  const SweepResult single = run_sweep(spec);

  ServiceConfig svc;
  svc.idle_grace_ms = 50;
  Coordinator coordinator(spec, svc);
  const SweepResult dist = coordinator.serve();
  EXPECT_EQ(coordinator.stats().local_fallback_points, single.points.size());
  EXPECT_EQ(coordinator.stats().workers_seen, 0u);
  expect_identical_results(single, dist);
}

// A worker whose flags expand a different grid must be rejected at the
// hello handshake — leases reference grid indices, so index agreement is
// a correctness precondition, not an optimization.
TEST(Sweepd, RejectsWorkerWithMismatchedGrid) {
  const SweepSpec spec = small_spec();
  SweepSpec other = spec;
  other.seeds = {1, 2, 3};  // different grid => different fingerprint

  ServiceConfig svc;
  svc.idle_grace_ms = 300;  // finish in-process after the rejection
  Coordinator coordinator(spec, svc);
  const std::uint16_t port = coordinator.port();

  SweepResult dist;
  std::thread serve_thread([&] { dist = coordinator.serve(); });
  WorkerConfig cfg = worker("foreign", 9);
  cfg.port = port;
  const WorkerExit e = run_sweep_worker(other, cfg);
  serve_thread.join();

  EXPECT_EQ(e, WorkerExit::kRejected);
  EXPECT_GE(coordinator.stats().workers_rejected, 1u);
  expect_identical_results(run_sweep(spec), dist);
}

// The stop flag (sweepd wires SIGTERM to it) aborts exactly like
// run_sweep's progress-abort: unrun points become structured skips and
// the result is flagged aborted.
TEST(Sweepd, StopFlagAbortsWithStructuredSkips) {
  const SweepSpec spec = small_spec();
  ServiceConfig svc;
  Coordinator coordinator(spec, svc);
  std::atomic<bool> stop{true};
  const SweepResult dist = coordinator.serve(&stop);
  EXPECT_TRUE(dist.aborted);
  ASSERT_EQ(dist.points.size(), expand_grid(spec).size());
  for (const PointResult& p : dist.points) {
    EXPECT_TRUE(p.skipped);
    EXPECT_NE(p.skip_reason.find("aborted"), std::string::npos);
  }
}

// The shared executor through the coordinator: a spec.progress abort on
// the zero-worker path stops where run_sweep stops under the same
// callback (threads = 1 makes the stopping point deterministic), so the
// two reports are byte-identical, aborted skips included.
TEST(Sweepd, ProgressAbortMatchesRunSweep) {
  constexpr std::size_t kStopAfter = 3;
  SweepSpec spec = small_spec();
  spec.threads = 1;
  const auto stop_after_n = [] {
    return [seen = std::size_t{0}](const PointResult&, std::size_t,
                                   std::size_t) mutable {
      return ++seen < kStopAfter;
    };
  };

  spec.progress = stop_after_n();
  const SweepResult single = run_sweep(spec);
  ASSERT_TRUE(single.aborted);
  EXPECT_EQ(single.skipped(), single.points.size() - kStopAfter);

  spec.progress = stop_after_n();
  ServiceConfig svc;
  svc.idle_grace_ms = 0;
  Coordinator coordinator(spec, svc);
  const SweepResult dist = coordinator.serve();
  EXPECT_TRUE(dist.aborted);
  EXPECT_EQ(coordinator.stats().local_fallback_points, kStopAfter);
  expect_identical_results(single, dist);
}

// A checkpoint that cannot be opened for appending is an error naming its
// path, raised by the one executor both paths share.
TEST(Sweepd, UnopenableCheckpointNamesThePathInBothExecutors) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("sweepd_no_such_dir/ck.jsonl");
  const auto message_of = [](const std::function<void()>& run) {
    try {
      run();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected a std::runtime_error";
    return std::string();
  };

  const std::string single = message_of([&] { (void)run_sweep(spec); });
  Coordinator coordinator(spec, ServiceConfig{});
  const std::string dist = message_of([&] { (void)coordinator.serve(); });
  EXPECT_NE(single.find(spec.checkpoint_path), std::string::npos) << single;
  EXPECT_EQ(single, dist);
}

// The fault injector's schedule is a pure function of (seed, frame
// index): same config => identical action sequences, different seed =>
// a different one, and the CLI spec round-trips through to_string.
TEST(Sweepd, FaultScheduleIsSeedDeterministic) {
  net::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.drop = 0.3;
  cfg.delay = 0.2;
  cfg.delay_ms = 3;
  net::FaultInjector a(cfg);
  net::FaultInjector b(cfg);
  net::FaultConfig reseeded = cfg;
  reseeded.seed = 43;
  net::FaultInjector c(reseeded);

  bool any_drop = false;
  bool any_delay = false;
  bool differs = false;
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.next_send();
    const auto fb = b.next_send();
    const auto fc = c.next_send();
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.delay_ms, fb.delay_ms);
    EXPECT_EQ(fa.close, fb.close);
    any_drop |= fa.drop;
    any_delay |= fa.delay_ms != 0;
    differs |= fa.drop != fc.drop || fa.delay_ms != fc.delay_ms;
  }
  EXPECT_TRUE(any_drop);
  EXPECT_TRUE(any_delay);
  EXPECT_TRUE(differs) << "different seeds should give different schedules";

  const auto parsed = net::parse_fault_config(
      "seed=7,drop=0.25,delay=0.125,delay_ms=3,close_after=20,kill_after=9,"
      "hard");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(net::to_string(*parsed),
            "seed=7,drop=0.25,delay=0.125,delay_ms=3,close_after=20,"
            "kill_after=9,hard");
  EXPECT_FALSE(net::parse_fault_config("").has_value());
  EXPECT_FALSE(net::parse_fault_config("bogus=1").has_value());
  EXPECT_FALSE(net::parse_fault_config("drop=1.5").has_value());
  EXPECT_FALSE(net::parse_fault_config("drop=x").has_value());
}

// The incremental-aggregation statement: CellAggregator is a pure
// function of the SET of (index, result) pairs, not of their arrival
// order — any permutation folds to cells bit-identical to the in-order
// rebuild_cell_aggregates pass over the 512-point conformance grid.
TEST(Sweepd, CellAggregatorIsArrivalOrderInvariant) {
  const SweepResult single = run_sweep(conformance_spec(2));
  const std::size_t n = single.points.size();

  CellAggregator in_order;
  for (std::size_t i = 0; i < n; ++i) in_order.add(i, single.points[i]);
  expect_cells_equal(single.cells, in_order.cells());

  // A stride walk coprime with the grid size visits every index exactly
  // once in a heavily scrambled order — the arrival pattern of a sweep
  // full of lease reassignments.
  const std::size_t stride = 211;
  ASSERT_EQ(std::gcd(stride, n), 1u) << "stride must generate the full walk";
  CellAggregator scrambled;
  std::size_t idx = 0;
  for (std::size_t step = 0; step < n; ++step) {
    scrambled.add(idx, single.points[idx]);
    idx = (idx + stride) % n;
  }
  expect_cells_equal(single.cells, scrambled.cells());
}

// --serve over a FINISHED checkpoint: the coordinator restores every
// point, never leases anything, and acts as a standalone query server
// whose answers are byte-identical fragments of the written report.
TEST(Sweepd, ServeModeAnswersFromFinishedCheckpoint) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("sweepd_serve_finished.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  const SweepResult full = run_sweep(spec);
  ASSERT_EQ(full.points.size(), 8u);

  ServiceConfig svc;
  svc.serve_after_finish = true;
  Coordinator coordinator(spec, svc);
  const std::uint16_t port = coordinator.port();
  std::atomic<bool> stop{false};
  SweepResult served;
  std::thread serve_thread([&] { served = coordinator.serve(&stop); });

  QueryClientConfig qc;
  qc.port = port;
  QueryRequest pq;  // progress
  const auto progress = run_query(pq, qc);
  ASSERT_TRUE(progress.has_value());
  EXPECT_TRUE(progress->done);
  EXPECT_EQ(progress->total, full.points.size());
  EXPECT_EQ(progress->completed, full.points.size());
  EXPECT_EQ(progress->restored, full.points.size());
  EXPECT_EQ(progress->cells, full.cells.size());

  expect_queried_cells(port, full.cells);

  // Selector query, spelled exactly as the report spells the cell. All
  // coordinates pinned => exactly that cell; a foreign f => nothing.
  ASSERT_FALSE(full.cells.empty());
  const CellAggregate& c0 = full.cells[0];
  const std::string body0 = cell_json(c0);
  QueryRequest sel;
  sel.what = "cells";
  std::string alg, fam, mix;
  ASSERT_TRUE(json::find_string(body0, "algorithm", alg));
  ASSERT_TRUE(json::find_string(body0, "family", fam));
  ASSERT_TRUE(json::find_string(body0, "mix", mix));
  sel.algorithm = alg;
  sel.family = fam;
  sel.mix = mix;
  sel.n = c0.n;
  sel.k = c0.k;
  sel.f = c0.f;
  const auto selected = run_query(sel, qc);
  ASSERT_TRUE(selected.has_value());
  ASSERT_EQ(selected->bodies.size(), 1u);
  EXPECT_EQ(selected->bodies[0], body0);
  sel.f = 99;
  const auto none = run_query(sel, qc);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->error.empty());
  EXPECT_TRUE(none->bodies.empty());

  // Every point is addressable by derived seed, and the body is the
  // verbatim report fragment (also literally a substring of --json).
  std::ostringstream json_report;
  write_json(json_report, full);
  const std::string report = json_report.str();
  for (const PointResult& p : full.points) {
    QueryRequest point;
    point.what = "point";
    point.derived_seed = p.derived_seed;
    const auto reply = run_query(point, qc);
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->pending);
    ASSERT_EQ(reply->bodies.size(), 1u);
    EXPECT_EQ(reply->bodies[0], point_json(p));
    EXPECT_NE(report.find(reply->bodies[0]), std::string::npos)
        << "query bodies must be verbatim report fragments";
  }

  stop.store(true);
  serve_thread.join();
  EXPECT_FALSE(served.aborted)
      << "ending --serve is not an abort: the sweep itself finished";
  expect_identical_results(full, served);
}

// A numeric selector that is present but malformed or out of range is an
// error naming it — never a wildcard, never silently truncated — and the
// connection keeps answering well-formed queries. Raw frames, because
// QueryRequest cannot spell a malformed value.
TEST(Sweepd, MalformedSelectorsAreRejectedNamingThem) {
  SweepSpec spec = small_spec();
  spec.checkpoint_path = temp_path("sweepd_bad_selectors.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  const SweepResult full = run_sweep(spec);

  ServiceConfig svc;
  svc.serve_after_finish = true;
  Coordinator coordinator(spec, svc);
  std::atomic<bool> stop{false};
  std::thread serve_thread([&] { (void)coordinator.serve(&stop); });

  auto conn = net::dial("127.0.0.1", coordinator.port());
  ASSERT_TRUE(conn != nullptr);
  // Send one query and read its header; returns the header's error and
  // collects its body frames.
  const auto query = [&](const std::string& frame,
                         std::vector<std::string>& bodies) {
    bodies.clear();
    std::string header, error, body;
    std::uint64_t count = 0;
    EXPECT_TRUE(conn->send_frame(frame));
    EXPECT_EQ(conn->recv_frame(header, 2000), net::RecvStatus::kFrame);
    json::find_string(header, "error", error);
    EXPECT_TRUE(json::find_u64(header, "count", count)) << header;
    for (std::uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(conn->recv_frame(body, 2000), net::RecvStatus::kFrame);
      bodies.push_back(body);
    }
    return error;
  };
  const std::string n = std::to_string(full.cells[0].n);
  std::vector<std::string> bodies;
  for (const std::string& bad :
       std::vector<std::string>{"\"x\"", "4294967304", "-1", n + "x"}) {
    SCOPED_TRACE("n = " + bad);
    const std::string error = query(
        "{\"type\": \"query\", \"id\": 1, \"what\": \"cells\", \"n\": " +
            bad + "}",
        bodies);
    EXPECT_NE(error.find("selector n"), std::string::npos) << error;
    EXPECT_TRUE(bodies.empty());
  }
  EXPECT_NE(query("{\"type\": \"query\", \"id\": 2, \"what\": \"point\", "
                  "\"derived_seed\": -42}",
                  bodies)
                .find("selector derived_seed"),
            std::string::npos);

  // Well-formed: every cell of this grid has this n.
  EXPECT_EQ(query("{\"type\": \"query\", \"id\": 3, \"what\": \"cells\", "
                  "\"n\": " + n + "}",
                  bodies),
            "");
  ASSERT_EQ(bodies.size(), full.cells.size());
  for (std::size_t i = 0; i < bodies.size(); ++i)
    EXPECT_EQ(bodies[i], cell_json(full.cells[i]));

  conn.reset();
  stop.store(true);
  serve_thread.join();
}

// Mid-sweep queries: freeze a coordinator with a half-restored
// checkpoint and no way to advance (no workers, no fallback). Its
// answers must equal rebuild_cell_aggregates over exactly the completed
// points, pending points must say so, and bad queries must be rejected
// with errors rather than dropped connections.
TEST(Sweepd, MidSweepQueriesMatchRebuildOverCompletedPoints) {
  SweepSpec spec = small_spec();
  spec.threads = 1;  // sequential => checkpoint lines in grid order
  spec.checkpoint_path = temp_path("sweepd_mid_sweep.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  const SweepResult full = run_sweep(spec);
  keep_first_lines(spec.checkpoint_path, 3);

  ServiceConfig svc;
  svc.local_fallback = false;  // frozen: completion state cannot move
  Coordinator coordinator(spec, svc);
  const std::uint16_t port = coordinator.port();
  std::atomic<bool> stop{false};
  SweepResult served;
  std::thread serve_thread([&] { served = coordinator.serve(&stop); });

  QueryClientConfig qc;
  qc.port = port;
  QueryRequest pq;  // progress
  const auto progress = run_query(pq, qc);
  ASSERT_TRUE(progress.has_value());
  EXPECT_FALSE(progress->done);
  EXPECT_EQ(progress->total, 8u);
  EXPECT_EQ(progress->completed, 3u);
  EXPECT_EQ(progress->restored, 3u);

  // Expected mid-sweep cells: the batch rebuild over the completed
  // prefix, with the rest explicitly skipped.
  SweepResult partial = full;
  for (std::size_t i = 3; i < partial.points.size(); ++i) {
    partial.points[i] = PointResult{};
    partial.points[i].point = full.points[i].point;
    partial.points[i].skipped = true;
  }
  rebuild_cell_aggregates(partial);
  expect_queried_cells(port, partial.cells);

  QueryRequest done_point;
  done_point.what = "point";
  done_point.derived_seed = full.points[0].derived_seed;
  const auto got = run_query(done_point, qc);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->pending);
  ASSERT_EQ(got->bodies.size(), 1u);
  EXPECT_EQ(got->bodies[0], point_json(full.points[0]));

  QueryRequest todo_point;
  todo_point.what = "point";
  todo_point.index = 7;
  const auto pending = run_query(todo_point, qc);
  ASSERT_TRUE(pending.has_value());
  EXPECT_TRUE(pending->error.empty());
  EXPECT_TRUE(pending->pending);
  EXPECT_TRUE(pending->bodies.empty());

  QueryRequest bad_what;
  bad_what.what = "bogus";
  const auto rejected = run_query(bad_what, qc);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->error.empty());

  QueryRequest bad_index;
  bad_index.what = "point";
  bad_index.index = 99;
  const auto out_of_range = run_query(bad_index, qc);
  ASSERT_TRUE(out_of_range.has_value());
  EXPECT_FALSE(out_of_range->error.empty());

  stop.store(true);
  serve_thread.join();
  EXPECT_TRUE(served.aborted) << "stopping an unfinished sweep is an abort";
}

// Queries under fire: seeded drop/delay schedules on BOTH the
// coordinator's sends and a lossy worker, with progress polled live
// while the sweep runs. Every query must eventually answer (retries, not
// wedges), completion must be monotone, and the final cells and report
// must still be byte-identical to single-shot.
TEST(Sweepd, QueriesSurviveFaultSchedulesMidSweep) {
  const SweepSpec spec = small_spec();
  const SweepResult single = run_sweep(spec);

  ServiceConfig svc;
  svc.lease_points = 2;
  svc.lease_timeout_ms = 300;
  svc.serve_after_finish = true;
  svc.fault.enabled = true;
  svc.fault.seed = 21;
  svc.fault.drop = 0.15;
  svc.fault.delay = 0.1;
  svc.fault.delay_ms = 1;
  Coordinator coordinator(spec, svc);
  const std::uint16_t port = coordinator.port();
  std::atomic<bool> stop{false};
  SweepResult dist;
  std::thread serve_thread([&] { dist = coordinator.serve(&stop); });

  WorkerConfig lossy = worker("lossy", 13);
  lossy.port = port;
  lossy.fault.enabled = true;
  lossy.fault.seed = 13;
  lossy.fault.drop = 0.2;
  std::atomic<bool> worker_done{false};
  WorkerExit exit_reason = WorkerExit::kLostCoordinator;
  std::thread fleet([&] {
    exit_reason = run_sweep_worker(spec, lossy);
    worker_done.store(true);
  });

  QueryClientConfig qc;
  qc.port = port;
  qc.timeout_ms = 300;
  qc.attempts = 8;
  std::uint64_t last_completed = 0;
  do {
    QueryRequest pq;  // progress
    const auto reply = run_query(pq, qc);
    ASSERT_TRUE(reply.has_value()) << "faults cost retries, never answers";
    EXPECT_LE(reply->completed, reply->total);
    EXPECT_GE(reply->completed, last_completed) << "completion is monotone";
    last_completed = reply->completed;
  } while (!worker_done.load());
  fleet.join();
  EXPECT_EQ(exit_reason, WorkerExit::kShutdown);

  expect_queried_cells(port, single.cells);
  stop.store(true);
  serve_thread.join();
  EXPECT_FALSE(dist.aborted);
  expect_identical_results(single, dist);
}

// Merge-path regression: a reconnecting worker re-streaming a point that
// was RESTORED from the checkpoint (not merged live) must be classified
// as a duplicate, not a protocol error — the coordinator indexes the
// whole grid by derived seed, not just the unfinished remainder.
TEST(Sweepd, RestreamedRestoredResultCountsAsDuplicate) {
  SweepSpec spec = small_spec();
  spec.threads = 1;
  spec.checkpoint_path = temp_path("sweepd_restream.jsonl");
  std::remove(spec.checkpoint_path.c_str());
  const SweepResult full = run_sweep(spec);
  keep_first_lines(spec.checkpoint_path, 4);

  ServiceConfig svc;
  svc.idle_grace_ms = 100;  // finish in-process once we disconnect
  Coordinator coordinator(spec, svc);
  const std::uint16_t port = coordinator.port();
  SweepResult merged;
  std::thread serve_thread([&] { merged = coordinator.serve(); });

  // Hand-rolled worker: a valid hello, then a verbatim re-stream of a
  // restored point's checkpoint record — a worker that died mid-flush
  // and re-sent its queue after the coordinator restarted.
  auto conn = net::dial("127.0.0.1", port);
  ASSERT_TRUE(conn != nullptr);
  std::ostringstream hello;
  hello << "{\"type\": \"hello\", \"name\": \"restreamer\", \"spec\": "
        << spec_fingerprint(spec)
        << ", \"grid\": " << grid_fingerprint(spec, expand_grid(spec)) << "}";
  ASSERT_TRUE(conn->send_frame(hello.str()));
  std::string payload, type;
  ASSERT_EQ(conn->recv_frame(payload, 2000), net::RecvStatus::kFrame);
  ASSERT_TRUE(json::find_string(payload, "type", type));
  ASSERT_EQ(type, "hello_ok");

  std::ostringstream line;
  write_checkpoint_line(line, full.points[0], spec_fingerprint(spec));
  std::string record = line.str();
  ASSERT_EQ(record.back(), '\n');
  record.pop_back();  // frames carry no trailing newline
  ASSERT_TRUE(conn->send_frame(record));

  // A progress query on the SAME connection: frames are processed in
  // order, so the reply's counter snapshot pins how the duplicate was
  // classified before any lease-expiry noise can muddy it.
  ASSERT_TRUE(conn->send_frame(
      "{\"type\": \"query\", \"id\": 1, \"what\": \"progress\"}"));
  for (;;) {  // skip the lease this "worker" was granted
    ASSERT_EQ(conn->recv_frame(payload, 2000), net::RecvStatus::kFrame);
    ASSERT_TRUE(json::find_string(payload, "type", type));
    if (type == "result") break;
  }
  std::uint64_t duplicates = 99, proto_errors = 99;
  ASSERT_TRUE(json::find_u64(payload, "duplicate_results", duplicates));
  ASSERT_TRUE(json::find_u64(payload, "protocol_errors", proto_errors));
  EXPECT_EQ(duplicates, 1u);
  EXPECT_EQ(proto_errors, 0u);
  conn.reset();  // disconnect: our lease re-queues, fallback finishes

  serve_thread.join();
  EXPECT_EQ(coordinator.stats().duplicate_results, 1u);
  EXPECT_EQ(coordinator.stats().protocol_errors, 0u);
  EXPECT_FALSE(merged.aborted);
  expect_identical_results(full, merged);
}

// Worker-side regression: leases whose id is missing or the reserved 0
// must be ignored outright. A worker that ran one anyway would stream
// its batch under lease 0 (id-0 heartbeats, extra results) — observable
// right here on the wire.
TEST(Sweepd, WorkerRejectsLeaseWithUnparseableId) {
  const SweepSpec spec = small_spec();

  net::Listener listener(0);
  WorkerConfig cfg = worker("leasee", 11);
  cfg.port = listener.port();
  cfg.idle_recv_ms = 2000;  // no idle heartbeat(0) noise mid-drain
  WorkerExit exit_reason = WorkerExit::kLostCoordinator;
  std::thread worker_thread(
      [&] { exit_reason = run_sweep_worker(spec, cfg); });

  std::unique_ptr<net::Connection> conn;
  while (!conn) {
    conn = listener.accept();
    if (!conn) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string payload, type;
  ASSERT_EQ(conn->recv_frame(payload, 2000), net::RecvStatus::kFrame);
  ASSERT_TRUE(json::find_string(payload, "type", type));
  ASSERT_EQ(type, "hello");
  ASSERT_TRUE(conn->send_frame(
      "{\"type\": \"hello_ok\", \"lease_timeout_ms\": 3000}"));

  // Two corrupted leases, then a good one for a single point.
  ASSERT_TRUE(conn->send_frame("{\"type\": \"lease\", \"points\": \"0 1\"}"));
  ASSERT_TRUE(
      conn->send_frame("{\"type\": \"lease\", \"id\": 0, \"points\": \"0 1\"}"));
  ASSERT_TRUE(
      conn->send_frame("{\"type\": \"lease\", \"id\": 5, \"points\": \"0\"}"));

  // Only lease 5 may produce traffic: one heartbeat per point, one
  // result (a frame with no "type"), then its lease_done.
  std::size_t results = 0;
  for (;;) {
    ASSERT_EQ(conn->recv_frame(payload, 5000), net::RecvStatus::kFrame);
    if (!json::find_string(payload, "type", type)) {
      ++results;
      continue;
    }
    std::uint64_t id = 0;
    EXPECT_TRUE(json::find_u64(payload, "id", id));
    EXPECT_EQ(id, 5u) << "corrupted leases must never reach the wire";
    if (type == "lease_done") break;
    EXPECT_EQ(type, "heartbeat");
  }
  EXPECT_EQ(results, 1u) << "exactly the good lease's single point";
  ASSERT_TRUE(conn->send_frame("{\"type\": \"shutdown\"}"));
  worker_thread.join();
  EXPECT_EQ(exit_reason, WorkerExit::kShutdown);
}

}  // namespace
}  // namespace bdg::run
