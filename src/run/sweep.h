#pragma once
// Deterministic parallel scenario-sweep runner.
//
// A sweep expands an (algorithm x graph-family x n x k x f x adversary-mix
// x seed) grid into points, runs every point in its own Engine + Rng
// (bit-reproducible: the per-point seed is derived by hashing the point's
// coordinates into the spec's base seed, never by position in a shared
// generator — the deterministic per-point seeding idiom of the
// exposed-memory model literature), and aggregates RunStats per
// (algorithm, family, n, k, f, mix) cell. Points run across hardware
// threads via util/parallel.h; results land in grid order, so output is
// identical for every thread count, including 1.
//
// Production-sweep machinery on top of the grid:
//  * k-robots axis (Theorem 8): robot_counts sweeps k != n; infeasible
//    (k, n, f) points become structured skips, feasible ones run through
//    the wave scheduler in core/scenario and verify the generalized
//    Definition 1 cap;
//  * heterogeneous adversaries: strategy_mixes assigns each Byzantine
//    robot a strategy from a mix, hashed reorder-invariantly into the
//    per-point seed;
//  * resumable + sharded execution: a JSON-lines checkpoint (run/report)
//    persists per-point results keyed by derived seed, completed points
//    are skipped on re-run, `shard i of m` expands only a stripe of the
//    grid, and a progress callback can abort mid-sweep without losing
//    finished work.
//
// This is the one harness behind the Table 1 row benches, the figure
// sweeps and the e2e conformance tests; report.h renders results as
// JSON/CSV for downstream tooling.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "graph/graph.h"
#include "util/flat_hash.h"
#include "util/rng.h"

namespace bdg::run {

// ---------------------------------------------------------------------------
// Graph-family registry
// ---------------------------------------------------------------------------

/// Names accepted by SweepSpec::families and every front-end's family
/// flag, in registry order (print_grid_name_lists lists them).
[[nodiscard]] const std::vector<std::string>& known_families();

/// Whether `family` can produce a graph on exactly n nodes (e.g. "torus"
/// needs a rows x cols factorization with both sides >= 3, "hypercube"
/// needs n to be a power of two).
[[nodiscard]] bool family_supports(const std::string& family, std::uint32_t n);

/// Build a graph of `family` on n nodes from `seed` (deterministic). When
/// `need_trivial_quotient` is set (Theorem 1), resamples until all views
/// are distinct; returns nullopt if the family cannot satisfy the request
/// (unsupported n, or no trivial-quotient sample found). A sampler that
/// gives up throws std::runtime_error naming the family, n and (for "er")
/// the edge probability.
[[nodiscard]] std::optional<Graph> build_family_graph(
    const std::string& family, std::uint32_t n, std::uint64_t seed,
    bool need_trivial_quotient = false, double er_edge_probability = 0.45);

// ---------------------------------------------------------------------------
// Sweep specification and results
// ---------------------------------------------------------------------------

struct PointResult;

struct SweepSpec {
  std::vector<core::Algorithm> algorithms;
  std::vector<std::string> families;
  std::vector<std::uint32_t> sizes;  ///< n values
  /// Robot counts k to sweep (Theorem 8's generalized setting). Empty =
  /// one point per n at k = n (the Table 1 setting). Values are taken
  /// verbatim: k < n runs an undersubscribed instance, k > n runs the
  /// wave scheduler; (k, n, f) combinations that Theorem 8 rules out are
  /// recorded as structured skips, never failures.
  std::vector<std::uint32_t> robot_counts;
  /// Byzantine counts to sweep. Empty = one point per (algorithm, n, k) at
  /// the algorithm's maximum claimed tolerance (Table 1, generalized by
  /// max_tolerated_f_k for k != n). Values exceeding the tolerance for
  /// some algorithm are clamped to it unless `clamp_f_to_tolerance` is off
  /// (tolerance-frontier sweeps probe past the claim on purpose).
  std::vector<std::uint32_t> byzantine_counts;
  bool clamp_f_to_tolerance = true;
  /// Require every graph to have all views distinct (G ~ Q_G), not just the
  /// Theorem 1 points — the Table 1 row benches share one family across all
  /// algorithms so that every theorem applies to the same graphs.
  bool require_trivial_quotient = false;
  /// Edge probability for the "er" family (<= 0 = near the connectivity
  /// threshold, the sparse regime the row benches sweep).
  double er_edge_probability = 0.45;
  /// Grid seeds (each is an independent repetition of every cell).
  std::vector<std::uint64_t> seeds = {1};
  /// Adversary. When `strategy_follows_algorithm` is set the strategy is
  /// the algorithm row's own adversary (core::AlgorithmInfo::own_adversary:
  /// spoofer for the strong algorithms, crash for crash-real gathering),
  /// else `strategy`.
  /// `strategy_overrides` wins over both for the listed algorithms, so one
  /// sweep can pit each algorithm against its own adversary (the figure
  /// benches sweep all algorithms in a single parallel grid this way).
  core::ByzStrategy strategy = core::ByzStrategy::kFakeSettler;
  bool strategy_follows_algorithm = true;
  std::map<core::Algorithm, core::ByzStrategy> strategy_overrides;
  /// Heterogeneous adversary mixes: when non-empty the grid gains a mix
  /// axis and the i-th Byzantine robot of a point runs mix[i % mix.size()]
  /// (core::ScenarioConfig::strategies). Each mix is canonicalized (sorted)
  /// at expansion and hashed commutatively into the derived seed, so a mix
  /// is a multiset: reordering it changes neither seeds nor results. An
  /// empty mix inside the list means "the scalar strategy" for that point.
  std::vector<std::vector<core::ByzStrategy>> strategy_mixes;
  /// Mixed into every per-point seed; change it to resample the whole sweep.
  std::uint64_t base_seed = 0x9E3779B97F4A7C15ULL;
  /// Derive the *graph* seed from (family, n, seed) only, so every
  /// algorithm and every f of a cell run on the same graph — the
  /// controlled-comparison mode the figure/row benches use (scenario
  /// randomness still differs per point). Off by default: independent
  /// graphs per point give sweeps more scenario diversity.
  bool common_graphs = false;
  /// Worker threads for the sweep (0 = hardware concurrency). Results do
  /// not depend on this value.
  unsigned threads = 0;
  gather::CostModel cost{/*scaled=*/true};
  /// Give the f smallest IDs to Byzantine robots (worst case).
  bool byz_smallest_ids = true;
  /// Shard selection: expand_grid keeps only points whose index in the
  /// full (deduplicated) grid satisfies index % shard_count == shard_index.
  /// The union of the m stripes is exactly the unsharded grid, so m
  /// machines can split one sweep and merge via a shared checkpoint.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// JSON-lines checkpoint file (empty = no checkpointing). Existing
  /// entries whose coordinates match a grid point are reused instead of
  /// re-run; every newly finished point is appended and flushed, so an
  /// aborted or crashed sweep resumes where it stopped.
  std::string checkpoint_path;
  /// Record wall-clock per point / per sweep. Off = all `seconds` fields
  /// are 0, making reports a pure function of the spec (byte-identical
  /// across runs, resumes, shards and thread counts) — the conformance
  /// tests and the CI resume-smoke diff run in this mode.
  bool measure_seconds = true;
  /// Called after every completed point (under a lock, with the number of
  /// completed points including checkpoint hits and the grid total).
  /// Return false to abort: no further points start, finished ones are
  /// checkpointed, and the unrun remainder is marked as aborted skips.
  std::function<bool(const PointResult&, std::size_t completed,
                     std::size_t total)>
      progress;
};

/// One expanded grid point.
struct SweepPoint {
  core::Algorithm algorithm{};
  std::string family;
  std::uint32_t n = 0;
  std::uint32_t k = 0;  ///< robot count; 0 is accepted and means k = n
                        ///< (expand_grid always stores the resolved count)
  std::uint32_t f = 0;
  std::uint64_t seed = 0;  ///< grid seed (repetition index), not the derived one
  core::ByzStrategy strategy{};
  /// Heterogeneous adversary mix (empty = the scalar strategy). Kept in
  /// canonical (sorted) order by expand_grid.
  std::vector<core::ByzStrategy> mix;
};

/// Full coordinate equality (including strategy and mix) — the checkpoint
/// reader uses it to reject stale entries whose derived seed collides.
[[nodiscard]] bool same_point(const SweepPoint& a, const SweepPoint& b);

struct PointResult {
  SweepPoint point;
  std::uint64_t derived_seed = 0;  ///< actual graph/scenario seed used
  /// Point could not run: family unsupported at this n, the algorithm's
  /// preconditions don't hold there (quotient/ring requirements), the
  /// (k, n, f) combination is infeasible per Theorem 8, the planned round
  /// bound saturated 128-bit accounting, or the sweep was aborted before
  /// the point started.
  bool skipped = false;
  std::string skip_reason;
  /// The plan's round bound overflowed 128-bit accounting (implies
  /// skipped). sweep_cli and sweepd reject such grids loudly (exit code 4,
  /// naming the first offender) instead of emitting a silent skip row.
  bool saturated = false;
  bool ok = false;  ///< Definition 1 verified (generalized cap when k != n)
  std::string detail;
  sim::RunStats stats;
  core::Round planned_rounds = 0;
  double seconds = 0.0;
};

/// Per-cell aggregate over seeds: (algorithm, family, n, k, f, mix).
struct CellAggregate {
  core::Algorithm algorithm{};
  std::string family;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint32_t f = 0;
  std::vector<core::ByzStrategy> mix;
  std::size_t runs = 0;       ///< non-skipped points
  std::size_t dispersed = 0;  ///< points with ok == true
  core::Round min_rounds = 0;
  core::Round max_rounds = 0;
  double mean_rounds = 0.0;
  double mean_simulated = 0.0;
  double mean_moves = 0.0;
  double mean_messages = 0.0;
  double mean_seconds = 0.0;
};

struct SweepResult {
  std::vector<PointResult> points;  ///< grid order, independent of threads
  std::vector<CellAggregate> cells;
  double wall_seconds = 0.0;
  bool aborted = false;      ///< progress callback stopped the sweep early
  std::size_t from_checkpoint = 0;  ///< points restored, not re-run
  /// Torn (truncated) checkpoint lines skipped while restoring — a crash
  /// mid-append leaves one; it re-runs, and the count is surfaced here and
  /// in the JSON report so the loss is loud.
  std::size_t torn_checkpoint_lines = 0;

  [[nodiscard]] bool all_dispersed() const;
  [[nodiscard]] std::size_t skipped() const;
};

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// Whether the scenario harness can actually execute algorithm `a` with k
/// robots on an n-node graph (independent of Theorem 8 feasibility, which
/// run_point checks separately). k == n is always supported; otherwise the
/// algorithm's row (core::AlgorithmInfo::min_k) decides. The k-axis
/// algorithms are validated by the k-robots conformance tier.
[[nodiscard]] bool algorithm_supports_k(core::Algorithm a, std::uint32_t k,
                                        std::uint32_t n);

/// Expand the grid in deterministic order: algorithm-major, then family,
/// n, k, f, mix, seed — exact duplicate points (e.g. after f clamping, or
/// robot_counts listing both 0 and n) are dropped so aggregates never
/// double-count a derived seed, and only the spec's shard stripe is kept.
/// Throws std::invalid_argument on a family name that is not in
/// known_families() (a typo'd family must not silently skip its coverage)
/// or on shard_index >= shard_count.
[[nodiscard]] std::vector<SweepPoint> expand_grid(const SweepSpec& spec);

/// Fingerprint of every spec knob that changes what a point *computes*
/// beyond its own coordinates: base_seed, common_graphs,
/// require_trivial_quotient (and whether an algorithm that needs a trivial
/// quotient is in the sweep, which tightens graph sampling under
/// common_graphs), er_edge_probability, the cost model, byz_smallest_ids
/// and measure_seconds (cached wall seconds must not leak into a
/// deterministic-report run). Checkpoint entries record it, and resume
/// only reuses entries whose fingerprint matches —
/// a checkpoint written under different knobs re-runs instead of silently
/// importing foreign results. Execution-shape knobs (threads, shards,
/// progress) are deliberately excluded: they never change point results.
[[nodiscard]] std::uint64_t spec_fingerprint(const SweepSpec& spec);

/// Fingerprint of the fully expanded grid PLUS the spec knobs
/// (spec_fingerprint): folds every point's derived seed and strategy in
/// grid order. The sweep service leases points by grid INDEX, so a
/// coordinator and a worker must prove they expanded the same grid before
/// any lease is honored — same flags => same fingerprint, any drift
/// (different axes, shard stripe, base seed, clamping) => rejected hello.
[[nodiscard]] std::uint64_t grid_fingerprint(
    const SweepSpec& spec, const std::vector<SweepPoint>& grid);

/// Seed for one point: splitmix-style hash of the coordinates into
/// base_seed. Stable across platforms and sweep composition (adding more
/// sizes/algorithms never changes another point's seed; points with k = n
/// and no mix hash exactly as the pre-k-axis grid did, so committed
/// baselines stay valid). The mix is hashed commutatively: permuting it
/// never changes the seed.
[[nodiscard]] std::uint64_t point_seed(std::uint64_t base_seed,
                                       const SweepPoint& p);

/// Seed the point's graph is built from: point_seed, or (with
/// spec.common_graphs) the hash of (family, n, seed) only, shared across
/// the algorithm, k, f and mix axes.
[[nodiscard]] std::uint64_t point_graph_seed(const SweepSpec& spec,
                                             const SweepPoint& p);

/// Run one point in its own Engine + Rng; fills everything but `seconds`'
/// surroundings deterministically (and `seconds` itself is 0 when the spec
/// disables wall-clock measurement).
[[nodiscard]] PointResult run_point(const SweepSpec& spec,
                                    const SweepPoint& p);

/// Expand, run (in parallel), aggregate. Honors the spec's checkpoint
/// (reuse + append), shard stripe and progress/abort callback.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

// ---------------------------------------------------------------------------
// Shared internals of run_sweep and the sweepd coordinator (run/service).
// Both run on one SweepExecutor, which restores, places (checkpoint append,
// aggregate fold, progress/abort), runs in process and closes the sweep,
// so a distributed sweep is byte-identical to single-shot by construction,
// not by parallel maintenance.
// ---------------------------------------------------------------------------

/// What restoring spec.checkpoint_path yielded for one expanded grid.
struct RestoredCheckpoint {
  std::vector<std::size_t> todo;  ///< grid indices still to run, grid order
  std::size_t restored = 0;       ///< points placed from the checkpoint
  std::size_t torn = 0;           ///< truncated lines skipped (surfaced)
};

/// Load spec.checkpoint_path (when set), place every matching completed
/// point at its grid index in `out` (resized to the grid), and list the
/// rest as todo. Entries match on spec fingerprint, derived seed AND full
/// coordinates, exactly as run_sweep resumes.
[[nodiscard]] RestoredCheckpoint restore_checkpoint(
    const SweepSpec& spec, const std::vector<SweepPoint>& grid,
    std::vector<PointResult>& out);

/// Incrementally maintained (algorithm, family, n, k, f, mix) cell
/// aggregates: every placed point folds in live, so sweepd answers queries
/// without rebuilding a report.
///
/// Bit-identity contract: cells() is bit-identical (including the
/// order-sensitive floating-point running means) to rebuild_cell_aggregates
/// over the same set of points, REGARDLESS of the order add() saw them in.
/// Each cell keeps its member points sorted by grid index; an in-order add
/// folds in O(1) (the recurrence is incremental), an out-of-order add
/// replays only that cell's members (bounded by the seeds-per-cell count,
/// not the grid) so arrival order — lease reassignment, duplicate racing,
/// local fallback — can never leak into the aggregates.
class CellAggregator {
 public:
  /// Fold one completed point, identified by its grid index, into its
  /// cell. Skipped points are ignored (they never aggregate). Call at most
  /// once per grid index.
  void add(std::size_t grid_index, const PointResult& p);

  /// Distinct cells seen so far.
  [[nodiscard]] std::size_t cell_count() const { return states_.size(); }

  /// Snapshot of every cell, ordered by first (grid-order) appearance —
  /// exactly rebuild_cell_aggregates' output over the same points.
  [[nodiscard]] std::vector<CellAggregate> cells() const;

 private:
  /// The per-point contribution, small enough to copy so replay never
  /// needs the full PointResult back.
  struct Member {
    std::size_t index = 0;
    bool ok = false;
    core::Round rounds = 0;
    std::uint64_t simulated = 0;
    std::uint64_t moves = 0;
    std::uint64_t messages = 0;
    double seconds = 0.0;
  };
  struct State {
    CellAggregate agg;
    std::vector<Member> members;  ///< sorted by grid index
  };

  static void fold(CellAggregate& cell, const Member& m);
  void replay(State& st);

  std::vector<State> states_;
  /// Coordinate-hash buckets (collisions resolved by exact match) so
  /// million-point sweeps aggregate in O(points). Lookup-only — cell
  /// ordering comes from states_ (first-appearance grid order), never from
  /// this map — and util::FlatMap makes the no-iteration property
  /// structural: there is no begin()/end() to accidentally walk.
  util::FlatMap<std::uint64_t, std::vector<std::size_t>> index_;
};

/// Rebuild result.cells from result.points: first-appearance (grid) order,
/// skips excluded — the one aggregation routine behind every report
/// (implemented as an in-order CellAggregator pass, so the batch and
/// incremental paths cannot drift).
void rebuild_cell_aggregates(SweepResult& result);

/// One sweep in flight, the executor behind run_sweep and the coordinator:
/// the grid, which points have a result, the checkpoint append stream, the
/// live aggregates and the abort flag. The accessors are unsynchronized:
/// read them from the thread that calls run_local, not during it.
class SweepExecutor {
 public:
  /// Expand the grid, restore the checkpoint (restored points fold into the
  /// aggregates) and, when points remain, open it for appending — throws
  /// naming the path when that fails. `spec` must outlive the executor.
  explicit SweepExecutor(const SweepSpec& spec);

  const std::vector<SweepPoint>& grid() const { return grid_; }
  /// Grid indices the checkpoint did not restore, in grid order.
  const std::vector<std::size_t>& todo() const { return todo_; }
  std::size_t restored() const { return result_.from_checkpoint; }
  bool has(std::size_t i) const { return have_[i] != 0; }
  const PointResult& point(std::size_t i) const { return result_.points[i]; }
  std::size_t completed() const { return completed_; }  ///< restored + placed
  bool finished() const { return completed_ == grid_.size(); }
  const CellAggregator& aggregates() const { return agg_; }
  bool aborted() const { return aborted_.load(); }
  void abort() { aborted_.store(true); }

  /// Under a lock: place a result at grid index i, append it to the
  /// checkpoint, fold it into the aggregates and pass it to spec.progress
  /// (false aborts). Returns false, changing nothing, if i already has one.
  bool place(std::size_t i, PointResult&& r);

  /// Run `indices` in process on spec.threads threads through place(); no
  /// point starts once aborted() or `cancel()`. Returns the points placed.
  std::size_t run_local(const std::vector<std::size_t>& indices,
                        const std::function<bool()>& cancel = {});

  /// Once placing has stopped: points without a result become aborted
  /// skips (never checkpointed, so a resume re-runs them), then wall
  /// seconds and cells are filled in.
  [[nodiscard]] SweepResult finish();

 private:
  const SweepSpec& spec_;
  const std::vector<SweepPoint> grid_;
  const std::uint64_t fingerprint_;
  const std::chrono::steady_clock::time_point t0_;
  SweepResult result_;
  std::vector<std::size_t> todo_;
  std::vector<char> have_;
  std::size_t completed_ = 0;
  CellAggregator agg_;
  std::ofstream checkpoint_;
  std::mutex mu_;
  std::atomic<bool> aborted_{false};
};

}  // namespace bdg::run
