// Hot-path wall-clock benchmark: the two sweep-time dominators called out
// by the ROADMAP, measured in isolation so baselines/perf_diff can gate
// them directly.
//
//  * quotient refinement (graph/quotient.cpp) on graphs chosen to stress
//    both regimes: near-symmetric graphs where refinement needs many
//    passes (path/ring: the single port "defect" propagates one hop per
//    pass) and random graphs that shatter into singletons quickly;
//  * engine sub-round scheduling (sim/engine.cpp) via mid-size scenario
//    points, where per-round work — not the protocol — dominates, plus
//    two smallest-ID three-group points (crash, squatter) whose honest
//    tokens mostly sleep in sim::Ctx::await_delivery;
//  * tournament pairing windows (core/tournament_dispersion.cpp), batched
//    and unbatched, so the map-cache/early-close speedup is timed in
//    isolation and its active-round collapse is gated exactly — plus the
//    f > 0 adversary pairs (core/byzantine.cpp): an always-broadcasting
//    squatter (range effects) and a map-liar (the replay kernel,
//    sim::Ctx::ambient_walk) each run in bulk (compiled=1, no observer)
//    vs. live (compiled=0, a no-op observer attached), gating the
//    adversarial-batching speedup the same way.
//
// A fourth section pins the flat-container/pooled-payload claim at the
// allocator seam: with the bench-local operator-new hook (alloc_hook.cpp,
// linked only into this binary) counting every allocation, a steady-state
// messaging loop must perform ZERO allocations per round once pools and
// spill capacities are warm. A nonzero count fails the binary directly
// AND lands in the CSV, whose rows perf_diff compares as key columns.
//
// Output: five CSVs (quotient rows: name,n,num_classes,reps,seconds;
// engine rows: the run/ points schema; pairing rows:
// algorithm,n,f,strategy,batched,compiled,reps,ok,rounds,simulated_rounds,
// moves,messages,planned_rounds,seconds; alloc rows:
// name,robots,payload_words,rounds,window_rounds,steady_allocs,messages;
// work rows, one per engine row: algorithm,family,n,f,seed,strategy,
// derived_seed,coroutine_resumes,iterated_rounds,visited_rounds). The work
// columns count what the engine did not skip (sim::RunStats), in no report
// or checkpoint: perf_diff fails a row whose work grew, so a speedup they
// explain cannot silently come undone.
// Usage:
//   bench_hotpaths [quotient_csv [engine_csv [pairing_csv [alloc_csv
//                  [work_csv]]]]]
// Paths default to stdout; "-" also means stdout. `seconds` is the
// minimum over reps; every other column is deterministic and compared
// exactly by perf_diff.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <ostream>

#include "alloc_hook.h"
#include "bench_common.h"
#include "sim/engine.h"

namespace {

using namespace bdg;

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void quotient_rows(std::ostream& os) {
  struct Case {
    std::string name;
    Graph g;
  };
  Rng rng(7);
  const Case cases[] = {
      {"path", make_path(1024)},
      {"ring", make_ring(512)},
      {"ring", make_ring(1024)},
      {"er_shuffled", shuffle_ports(make_connected_er(512, 0.0, rng), rng)},
      {"er_shuffled", shuffle_ports(make_connected_er(1024, 0.0, rng), rng)},
      {"torus", make_torus(32, 32)},
      {"hypercube", make_hypercube(10)},
  };
  os << "name,n,num_classes,reps,seconds\n";
  for (const Case& c : cases) {
    constexpr int kReps = 3;
    std::uint32_t classes = 0;
    double best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double s =
          time_once([&] { classes = quotient_graph(c.g).num_classes; });
      best = rep == 0 ? s : std::min(best, s);
    }
    os << c.name << ',' << c.g.n() << ',' << classes << ',' << kReps << ','
       << best << '\n';
    std::fprintf(stderr, "[quotient %s n=%zu: %u classes, %.4fs]\n",
                 c.name.c_str(), c.g.n(), classes, best);
  }
}

/// Set false by pairing_rows if the bulk-adversary speedup claim
/// fails; main() turns it into a nonzero exit so CI perf-smoke catches a
/// regression even before perf_diff sees the baselines.
bool g_pairing_speedup_ok = true;

void pairing_rows(std::ostream& os) {
  // Row 4 (tournament-gathered) isolates Phase 2: no gathering prefix, so
  // the timer measures the pairing windows plus the short dispersion
  // phase. The f > 0 crash cases time the PR 5 early close (Byzantine
  // silence is the window tail it removes); the f > 0 squatter pair times
  // bulk adversary execution itself — an always-broadcasting squatter
  // keeps the engine awake every round when an observer holds it live,
  // while unobserved it parks as a range effect, so compiled=1 (bulk) vs
  // compiled=0 (live) isolates exactly that. The map-liar pair does the
  // same for a drawing, moving adversary, whose parked stretches replay
  // through the engine's ambient_walk kernel.
  os << "algorithm,n,f,strategy,batched,compiled,reps,ok,rounds,"
        "simulated_rounds,moves,messages,planned_rounds,seconds\n";
  Rng rng(19);
  const Graph g24 = shuffle_ports(make_connected_er(24, 0.3, rng), rng);
  const Graph g48 = shuffle_ports(make_connected_er(48, 0.2, rng), rng);
  const Graph g64 = shuffle_ports(make_connected_er(64, 0.2, rng), rng);
  struct Case {
    const Graph* g;
    std::uint32_t f;
    core::ByzStrategy strategy;
    bool batched;
    bool compiled;  ///< bulk; false attaches a no-op observer (live)
  };
  // Crash faults at n = 24 for the unbatched pair: unbatched, every crash
  // window costs the honest token a full t2 of active listening (at
  // n >= 48 that exceeds any sane bench budget).
  const Case cases[] = {
      {&g48, 0, core::ByzStrategy::kCrash, true, true},
      {&g48, 0, core::ByzStrategy::kCrash, false, true},
      {&g24, 5, core::ByzStrategy::kCrash, true, true},
      {&g24, 5, core::ByzStrategy::kCrash, false, true},
      {&g64, 0, core::ByzStrategy::kCrash, true, true},
      {&g64, 0, core::ByzStrategy::kCrash, false, true},
      {&g24, 5, core::ByzStrategy::kSquatter, true, true},
      {&g24, 5, core::ByzStrategy::kSquatter, true, false},
      {&g24, 5, core::ByzStrategy::kMapLiar, true, true},
      {&g24, 5, core::ByzStrategy::kMapLiar, true, false},
  };
  double squatter_bulk = 0, squatter_live = 0;
  double liar_bulk = 0, liar_live = 0;
  sim::Observer noop;
  for (const Case& c : cases) {
    core::ScenarioConfig cfg;
    cfg.algorithm = core::Algorithm::kTournamentGathered;
    cfg.num_byzantine = c.f;
    cfg.strategy = c.strategy;
    cfg.seed = 17;
    cfg.batched_pairing = c.batched;
    cfg.observer = c.compiled ? nullptr : &noop;
    constexpr int kReps = 3;
    core::ScenarioResult res;
    double best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double s = time_once([&] { res = core::run_scenario(*c.g, cfg); });
      best = rep == 0 ? s : std::min(best, s);
    }
    if (c.strategy == core::ByzStrategy::kSquatter)
      (c.compiled ? squatter_bulk : squatter_live) = best;
    if (c.strategy == core::ByzStrategy::kMapLiar)
      (c.compiled ? liar_bulk : liar_live) = best;
    os << core::to_string(cfg.algorithm) << ',' << c.g->n() << ',' << c.f
       << ',' << core::to_string(c.strategy) << ',' << (c.batched ? 1 : 0)
       << ',' << (c.compiled ? 1 : 0) << ',' << kReps << ','
       << (res.verify.ok() ? 1 : 0) << ',' << res.stats.rounds << ','
       << res.stats.simulated_rounds << ',' << res.stats.moves << ','
       << res.stats.messages << ',' << res.planned_rounds << ',' << best
       << '\n';
    std::fprintf(stderr, "[pairing n=%zu f=%u %s batched=%d compiled=%d: %.4fs]\n",
                 c.g->n(), c.f, core::to_string(c.strategy).c_str(),
                 c.batched ? 1 : 0, c.compiled ? 1 : 0, best);
  }
  // Acceptance bar: bulk adversary execution must at least halve the
  // live wall clock on the squatter point.
  if (squatter_bulk * 2 > squatter_live) {
    std::fprintf(stderr,
                 "pairing: bulk adversary too slow: %.4fs vs %.4fs live "
                 "(need >= 2x)\n",
                 squatter_bulk, squatter_live);
    g_pairing_speedup_ok = false;
  }
  // The map-liar pair gates the replay kernel the same way, timed in one
  // process so machine drift cancels: its bulk row replays the long
  // unheard stretches through the fused chance walk, and must run at least
  // kLiarSpeedup times faster than the live row (measured on a 4-core x86
  // VM: 11x before the fused path, 18-20x with it).
  constexpr double kLiarSpeedup = 14;
  if (liar_bulk * kLiarSpeedup > liar_live) {
    std::fprintf(stderr,
                 "pairing: replay kernel too slow: map_liar %.4fs bulk vs "
                 "%.4fs live (need >= %.0fx)\n",
                 liar_bulk, liar_live, kLiarSpeedup);
    g_pairing_speedup_ok = false;
  }
}

/// Set false by alloc_rows if the steady-state window allocated at all.
bool g_alloc_steady_ok = true;

constexpr std::uint32_t kChatterKind = 77;

/// Messaging hot loop: broadcast a pooled payload, read the co-located
/// inbox, repeat. Exercises exactly the engine paths the flat-container
/// work de-allocated: push_msg, pool recycle, inbox spill reuse.
sim::Proc chatter(sim::Ctx ctx, std::uint64_t rounds, std::uint64_t* sink) {
  const std::int64_t words[6] = {1, 2, 3, 4, 5,
                                 static_cast<std::int64_t>(ctx.self())};
  for (std::uint64_t r = 0; r < rounds; ++r) {
    ctx.broadcast(kChatterKind, words);
    co_await ctx.next_subround();
    std::uint64_t sum = 0;
    for (const sim::Msg& m : ctx.inbox())
      sum += m.data.size() + static_cast<std::uint64_t>(m.data[0]);
    *sink += sum;
    co_await ctx.end_round(std::nullopt);
  }
}

/// Records the allocation counter at every simulated round boundary.
struct AllocProbe final : sim::Observer {
  std::vector<std::uint64_t> counts;
  void on_round(core::Round) override {
    counts.push_back(bdg::bench::alloc_count());
  }
};

void alloc_rows(std::ostream& os) {
  constexpr std::uint64_t kRounds = 4096;
  constexpr std::uint32_t kRobots = 8;
  const Graph g = make_path(2);
  sim::Engine eng(g);
  std::uint64_t sink = 0;
  for (std::uint32_t i = 1; i <= kRobots; ++i)
    eng.add_robot(i, sim::Faultiness::kHonest, 0,
                  [&](sim::Ctx c) { return chatter(c, kRounds, &sink); });
  AllocProbe probe;
  probe.counts.reserve(kRounds + 8);  // the probe itself must not allocate
  eng.set_observer(&probe);
  const sim::RunStats st = eng.run(kRounds + 4);
  eng.set_observer(nullptr);
  // Allocations during round r land between on_round(r) and on_round(r+1);
  // the second half of the run is the steady-state window (pools warm,
  // inboxes spilled to their final capacity).
  const std::size_t lo = probe.counts.size() / 2;
  const std::size_t hi = probe.counts.size() - 1;
  const std::uint64_t steady = probe.counts[hi] - probe.counts[lo];
  os << "name,robots,payload_words,rounds,window_rounds,steady_allocs,"
        "messages\n";
  os << "engine_chatter," << kRobots << ",6," << kRounds << ',' << (hi - lo)
     << ',' << steady << ',' << st.messages << '\n';
  std::fprintf(stderr,
               "[alloc engine_chatter: %llu allocs over %zu steady rounds, "
               "%llu msgs, sink=%llu]\n",
               static_cast<unsigned long long>(steady), hi - lo,
               static_cast<unsigned long long>(st.messages),
               static_cast<unsigned long long>(sink));
  if (steady != 0) {
    std::fprintf(stderr,
                 "alloc: steady-state rounds allocated (%llu over %zu "
                 "rounds); the zero-allocation hot path regressed\n",
                 static_cast<unsigned long long>(steady), hi - lo);
    g_alloc_steady_ok = false;
  }
}

run::SweepResult engine_points() {
  run::SweepSpec spec = bench::sweep_base();
  spec.algorithms = {core::Algorithm::kQuotient,
                     core::Algorithm::kThreeGroupGathered};
  spec.strategy_overrides[core::Algorithm::kThreeGroupGathered] =
      core::ByzStrategy::kMapLiar;
  spec.sizes = {48, 64};
  run::SweepResult result = run::run_sweep(spec);
  // Token-listen rows: with the smallest IDs Byzantine, most three-group
  // agents are Byzantine, so honest tokens mostly sleep in the engine
  // (sim::Ctx::await_delivery) instead of listening to silence. The
  // squatter point uses seed 2: the strategy is not part of the derived
  // seed, and perfbench looks up the n = 48 map-liar row by that seed.
  struct Listen {
    core::ByzStrategy strategy;
    std::uint32_t n, f;
    std::uint64_t seed;
  };
  for (const Listen& l : {Listen{core::ByzStrategy::kCrash, 64, 20, 1},
                          Listen{core::ByzStrategy::kSquatter, 48, 15, 2}}) {
    run::SweepSpec listen = bench::sweep_base();
    listen.algorithms = {core::Algorithm::kThreeGroupGathered};
    listen.strategy = l.strategy;
    listen.sizes = {l.n};
    listen.byzantine_counts = {l.f};
    listen.seeds = {l.seed};
    run::SweepResult r = run::run_sweep(listen);
    result.points.insert(result.points.end(), r.points.begin(),
                         r.points.end());
  }
  return result;
}

void work_rows(std::ostream& os, const run::SweepResult& engine) {
  os << "algorithm,family,n,f,seed,strategy,derived_seed,coroutine_resumes,"
        "iterated_rounds,visited_rounds\n";
  for (const run::PointResult& p : engine.points) {
    if (p.skipped) continue;
    os << core::to_string(p.point.algorithm) << ',' << p.point.family << ','
       << p.point.n << ',' << p.point.f << ',' << p.point.seed << ','
       << core::to_string(p.point.strategy) << ',' << p.derived_seed << ','
       << p.stats.coroutine_resumes << ',' << p.stats.iterated_rounds << ','
       << p.stats.visited_rounds << '\n';
  }
}

bool write_to(const char* path, const std::function<void(std::ostream&)>& fn) {
  if (path == nullptr || std::string(path) == "-") {
    fn(std::cout);
    return true;
  }
  std::ofstream os(path);
  fn(os);
  os.flush();
  std::fprintf(stderr, os ? "[hotpaths -> %s]\n" : "[hotpaths: cannot write %s]\n",
               path);
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  bool ok = write_to(argc > 1 ? argv[1] : nullptr, quotient_rows);
  const run::SweepResult engine = engine_points();
  ok &= write_to(argc > 2 ? argv[2] : nullptr, [&](std::ostream& os) {
    run::write_points_csv(os, engine);
  });
  ok &= write_to(argc > 3 ? argv[3] : nullptr, pairing_rows);
  ok &= write_to(argc > 4 ? argv[4] : nullptr, alloc_rows);
  ok &= write_to(argc > 5 ? argv[5] : nullptr,
                 [&](std::ostream& os) { work_rows(os, engine); });
  for (const run::PointResult& p : engine.points)
    if (!p.skipped && !p.ok) {
      std::fprintf(stderr, "engine point failed: %s\n", p.detail.c_str());
      ok = false;
    }
  ok &= g_pairing_speedup_ok;
  ok &= g_alloc_steady_ok;
  return ok ? 0 : 1;
}
