#pragma once
// Scenario harness: one call builds the robots (IDs, placements, Byzantine
// assignment and strategies), plans the chosen algorithm, runs the engine,
// and verifies Definition 1. Used by integration tests, benchmarks and
// examples alike.
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/algorithm_common.h"
#include "core/byzantine.h"
#include "core/verifier.h"
#include "gather/gathering.h"
#include "graph/graph.h"

namespace bdg::core {

enum class Algorithm {
  kQuotient,             ///< Theorem 1 (Table 1 row 1)
  kTournamentArbitrary,  ///< Theorem 2 (row 2)
  kSqrtArbitrary,        ///< Theorem 5 (row 3)
  kTournamentGathered,   ///< Theorem 3 (row 4)
  kThreeGroupGathered,   ///< Theorem 4 (row 5)
  kStrongArbitrary,      ///< Theorem 7 (row 6)
  kStrongGathered,       ///< Theorem 6 (row 7)
  /// Extension: REAL (fully simulated) bit-epoch gathering + Theorem 4
  /// phases; crash faults only. See core/crash_dispersion.h.
  kCrashRealGathering,
  /// Baseline: ring-specialized O(n) algorithm of the paper's predecessors
  /// [34, 36]; requires the graph to be a ring. See core/ring_dispersion.h.
  kRingBaseline,
};

/// What an algorithm needs of the graph beyond connectivity.
enum class GraphNeed {
  kAny,
  kRing,             ///< a ring family (the ring baseline's O(n) schedule)
  kTrivialQuotient,  ///< all views distinct (Theorem 1's Find-Map)
};

/// The inputs of one wave's plan; see AlgorithmInfo::plan.
struct PlanArgs {
  const Graph& g;
  const std::vector<sim::RobotId>& ids;  ///< this wave's robots
  std::uint32_t f;                       ///< this wave's Byzantine count
  const gather::CostModel& cost;
  bool batched_pairing;  ///< ScenarioConfig::batched_pairing
};

/// One Table 1 row: every per-algorithm fact the harness, the sweep runner
/// and the front-ends use, declared once.
struct AlgorithmInfo {
  Algorithm algorithm;
  const char* report_name;  ///< to_string(): reports and checkpoints
  const char* cli_name;     ///< the --algorithms / --algo spelling
  bool starts_gathered;     ///< robots start at the rally node 0
  bool handles_strong;      ///< claims tolerance of strong Byzantine robots
  /// Claimed weak-Byzantine tolerance (Table 1), given n.
  std::uint32_t (*max_f)(std::uint32_t n);
  /// Claimed round bound (Table 1), given n, under the scaled cost model
  /// (covering-walk length X(n) = 2n+2), and its printable name. Reports
  /// divide measured rounds by it (max_bound_ratio).
  double (*round_bound)(std::uint32_t n);
  const char* bound_name;
  /// The adversary a sweep runs against this row when its strategy follows
  /// the algorithm; nullopt = the sweep's own strategy.
  std::optional<ByzStrategy> own_adversary;
  /// Smallest robot count k != n the algorithm supports (Theorem 8's axis);
  /// nullopt when only the paper's k = n setting is sound.
  std::optional<std::uint32_t> min_k;
  GraphNeed graph;
  /// Plans one wave: the row's plan_* entry point.
  AlgorithmPlan (*plan)(const PlanArgs& args);
};

/// Every row, one per Algorithm enumerator, in enum order.
[[nodiscard]] std::span<const AlgorithmInfo> algorithm_table();

/// The row of `a`. An out-of-range value is corrupted or foreign data (a
/// checkpoint record, say) and throws std::invalid_argument.
[[nodiscard]] const AlgorithmInfo& algorithm_info(Algorithm a);

[[nodiscard]] std::string to_string(Algorithm a);  ///< the row's report name

/// Inverse of to_string(Algorithm); nullopt for unknown names. Used by the
/// sweep checkpoint reader to reconstruct points from JSON-lines.
[[nodiscard]] std::optional<Algorithm> algorithm_from_string(
    const std::string& name);

/// Claimed weak-Byzantine tolerance of each algorithm (Table 1), given n.
[[nodiscard]] std::uint32_t max_tolerated_f(Algorithm a, std::uint32_t n);

/// Generalized tolerance for the k-robot setting (Theorem 8): k robots on
/// an n-node graph run in ceil(k/n) waves of at most n robots each (robots
/// striped across waves by ID rank), so the binding instance is the
/// smallest wave and — with byz_smallest_ids striping — each wave absorbs
/// at most ceil(f / waves) Byzantine robots. k == n reduces to
/// max_tolerated_f(a, n). Also capped by Theorem 8 feasibility
/// (ceil(k/n) == ceil((k-f)/n)), by the multi-wave settlement capacity
/// f <= (ceil(k/n)*n - k) / (ceil(k/n) - 1) (a node-denying adversary
/// costs every wave a slot), and by f <= k - 1.
[[nodiscard]] std::uint32_t max_tolerated_f_k(Algorithm a, std::uint32_t n,
                                              std::uint32_t k);

struct ScenarioConfig {
  Algorithm algorithm = Algorithm::kStrongGathered;
  /// Number of robots k (Theorem 8's generalized setting); 0 = one robot
  /// per node (k = n), the paper's Table 1 setting. k < n runs a single
  /// undersubscribed instance; k > n runs ceil(k/n) waves of at most n
  /// robots each, scheduled back to back (robots striped across waves by
  /// ID rank), which meets the generalized Definition 1 cap of
  /// ceil((k - f)/n) per node exactly when Theorem 8 says dispersion is
  /// feasible.
  std::uint32_t num_robots = 0;
  std::uint32_t num_byzantine = 0;
  ByzStrategy strategy = ByzStrategy::kRandomWalker;
  /// Optional heterogeneous adversary: when non-empty, the i-th Byzantine
  /// robot runs strategies[i % strategies.size()] instead of `strategy`.
  std::vector<ByzStrategy> strategies;
  /// Give the f smallest IDs to Byzantine robots (worst case for the
  /// rank-preference rules) instead of a random subset.
  bool byz_smallest_ids = true;
  std::uint64_t seed = 1;
  gather::CostModel cost{/*scaled=*/true};
  /// Batched pairing windows for the tournament algorithms (map-cache,
  /// verify-only walk, early window close — see
  /// plan_tournament_dispersion). On by default; the conformance tests
  /// turn it off to pin that verdicts and charged round totals are
  /// bit-identical to the original rebuild-every-window protocol.
  bool batched_pairing = true;
  /// Optional engine instrumentation (see sim::TraceRecorder); not owned.
  /// The adversary runs the same interpreter either way; attached, it acts
  /// live in every round so the observer sees all of its traffic (see
  /// core/byzantine.h), with identical verdicts, rounds, moves and messages.
  sim::Observer* observer = nullptr;
};

struct ScenarioResult {
  VerifyResult verify;
  sim::RunStats stats;
  Round planned_rounds = 0;  ///< the plan's termination bound
  /// The planned bound overflowed 128-bit round accounting. The engine was
  /// never run: verify reports a loud failure and sweeps turn this into a
  /// structured skip (mirroring the Theorem 8 infeasibility machinery).
  bool saturated = false;
};

/// Distinct robot IDs from [1, max(k, n)^2] (paper: IDs from [1, n^c],
/// c > 1), in increasing order — the exact draw run_scenario performs
/// first with Rng(seed). Exposed so oracle tests can reconstruct a
/// scenario's plan bounds (which depend on the drawn IDs through
/// |Lambda|) without re-running it.
[[nodiscard]] std::vector<sim::RobotId> draw_robot_ids(std::uint32_t k,
                                                       std::uint32_t n,
                                                       std::uint64_t seed);

/// Build, run and verify one scenario on `g` (with n = g.n() robots).
[[nodiscard]] ScenarioResult run_scenario(const Graph& g,
                                          const ScenarioConfig& cfg);

}  // namespace bdg::core
