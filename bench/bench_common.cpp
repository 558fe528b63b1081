#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <fstream>

namespace bdg::bench {

run::SweepSpec sweep_base() {
  run::SweepSpec spec;
  spec.families = {"er"};
  spec.require_trivial_quotient = true;
  spec.er_edge_probability = 0.0;  // near the connectivity threshold
  spec.strategy_follows_algorithm = false;
  // Controlled comparison: every algorithm and every f at a given (n,
  // seed) measure the same graph, as the paper's tables compare rows.
  spec.common_graphs = true;
  // Result caching across bench invocations: point a JSON-lines
  // checkpoint at a path and re-runs reuse every completed point (their
  // recorded wall seconds included — don't gate perf on cached runs).
  if (const char* ck = std::getenv("BDG_SWEEP_CHECKPOINT"))
    spec.checkpoint_path = ck;
  return spec;
}

Graph sweep_graph(std::uint32_t n, std::uint64_t seed) {
  auto g = run::build_family_graph("er", n, seed,
                                   /*need_trivial_quotient=*/true,
                                   /*er_edge_probability=*/0.0);
  if (!g) throw std::runtime_error("sweep_graph: no trivial-quotient sample");
  return *std::move(g);
}

RowPoint run_point(core::Algorithm algo, const Graph& g, std::uint32_t f,
                   core::ByzStrategy strategy, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.algorithm = algo;
  cfg.num_byzantine = f;
  cfg.strategy = strategy;
  cfg.seed = seed;
  const auto t0 = std::chrono::steady_clock::now();
  const core::ScenarioResult res = core::run_scenario(g, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  RowPoint p;
  p.n = static_cast<std::uint32_t>(g.n());
  p.f = f;
  p.rounds = res.stats.rounds;
  p.simulated = res.stats.simulated_rounds;
  p.dispersed = res.verify.ok();
  p.seconds = std::chrono::duration<double>(t1 - t0).count();
  return p;
}

void maybe_dump_sweep(const run::SweepResult& result) {
  const auto dump = [&](const char* env, const char* what,
                        void (*write)(std::ostream&, const run::SweepResult&)) {
    const char* path = std::getenv(env);
    if (path == nullptr) return;
    std::ofstream os(path);
    write(os, result);
    os.flush();  // surface buffered write errors before claiming success
    std::fprintf(stderr, os ? "[sweep %s -> %s]\n" : "[sweep %s: cannot write %s]\n",
                 what, path);
  };
  dump("BDG_SWEEP_JSON", "json", run::write_json);
  dump("BDG_SWEEP_CSV", "csv", run::write_points_csv);
}

}  // namespace bdg::bench
