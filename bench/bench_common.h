#pragma once
// Shared harness for the figure, ablation and hot-path benchmarks, built on
// the run/ sweep subsystem: the base sweep spec, ad-hoc scenario probes and
// the raw-sweep dump (set BDG_SWEEP_JSON / BDG_SWEEP_CSV to a path to also
// dump a bench's sweep for plotting). The Table 1 rows are sweep_cli grids
// (README, "Benchmarks and examples"). Wall-clock timing of the substrate
// operations is handled separately by google-benchmark in bench_substrates.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "graph/generators.h"
#include "graph/quotient.h"
#include "run/report.h"
#include "run/sweep.h"
#include "util/stats.h"
#include "util/table.h"

namespace bdg::bench {

struct RowPoint {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  core::Round rounds = 0;
  std::uint64_t simulated = 0;
  bool dispersed = false;
  double seconds = 0.0;
};

/// Base sweep spec shared by the figure benches: the sparse ER family
/// restricted to all-distinct views (so every algorithm, including
/// Theorem 1, applies to the same graphs). sweep_cli's
/// --families=er --require-trivial-quotient --common-graphs --er-p=0 is
/// the same spec.
[[nodiscard]] run::SweepSpec sweep_base();

/// Graph used by ad-hoc bench probes: a port-shuffled connected ER graph
/// with all-distinct views, via the run/ registry.
[[nodiscard]] Graph sweep_graph(std::uint32_t n, std::uint64_t seed);

/// Run one (algorithm, graph, f) probe through core::run_scenario.
[[nodiscard]] RowPoint run_point(core::Algorithm algo, const Graph& g,
                                 std::uint32_t f, core::ByzStrategy strategy,
                                 std::uint64_t seed);

/// Honor BDG_SWEEP_JSON / BDG_SWEEP_CSV: dump the raw sweep result to the
/// given paths (no-op when unset). Each binary should issue one sweep and
/// dump once — a second dump truncate-overwrites the file.
void maybe_dump_sweep(const run::SweepResult& result);

}  // namespace bdg::bench
