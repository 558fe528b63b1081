#include "run/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/impossibility.h"
#include "graph/generators.h"
#include "graph/quotient.h"
#include "run/report.h"
#include "util/parallel.h"

namespace bdg::run {
namespace {

// splitmix64 step — the same finalizer Rng seeds with, reused here so a
// point's seed is a platform-stable function of its coordinates only.
std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  std::uint64_t z = state + 0x9E3779B97F4A7C15ULL + value;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Domain tags so the optional axes can never alias a coordinate of the
// legacy (algorithm, family, n, f, seed) hash chain.
constexpr std::uint64_t kTagRobots = 0x6B2DAD0B075A11EDULL;
constexpr std::uint64_t kTagMix = 0xAD5E125A12B0C0DEULL;

/// Largest divisor of n that is <= sqrt(n) (>= 1).
std::uint32_t balanced_rows(std::uint32_t n) {
  std::uint32_t best = 1;
  for (std::uint32_t r = 1; r * r <= n; ++r)
    if (n % r == 0) best = r;
  return best;
}

/// Divisor r of n with 3 <= r and 3 <= n/r, closest to sqrt(n); 0 if none.
std::uint32_t torus_rows(std::uint32_t n) {
  std::uint32_t best = 0;
  for (std::uint32_t r = 3; r * r <= n; ++r)
    if (n % r == 0 && n / r >= 3) best = r;
  return best;
}

bool is_power_of_two(std::uint32_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// One sample of the family (no quotient requirement yet).
Graph sample(const std::string& family, std::uint32_t n, Rng& rng,
             double er_p) {
  if (family == "er")
    return shuffle_ports(make_connected_er(n, er_p, rng), rng);
  if (family == "ring") return shuffle_ports(make_ring(n), rng);
  if (family == "oriented_ring") return make_oriented_ring(n);
  if (family == "grid") {
    const std::uint32_t r = balanced_rows(n);
    return make_grid(r, n / r);
  }
  if (family == "tree") return make_random_tree(n, rng);
  if (family == "complete") return make_complete(n);
  if (family == "star") return make_star(n);
  if (family == "lollipop") return make_lollipop(n);
  if (family == "torus") {
    const std::uint32_t r = torus_rows(n);
    return make_torus(r, n / r);
  }
  if (family == "hypercube") {
    std::uint32_t dim = 0;
    while ((1U << dim) < n) ++dim;
    return make_hypercube(dim);
  }
  if (family == "regular") return shuffle_ports(make_random_regular(n, 3, rng), rng);
  throw std::invalid_argument("unknown graph family: " + family);
}

core::ByzStrategy strategy_for(const SweepSpec& spec, core::Algorithm a) {
  const auto it = spec.strategy_overrides.find(a);
  if (it != spec.strategy_overrides.end()) return it->second;
  if (!spec.strategy_follows_algorithm) return spec.strategy;
  return core::algorithm_info(a).own_adversary.value_or(spec.strategy);
}

/// With common_graphs, an algorithm that needs a trivial quotient imposes
/// it on every point, or its points would resample onto other graphs than
/// their cell mates.
bool common_graphs_need_trivial_quotient(const SweepSpec& spec) {
  return spec.common_graphs &&
         std::any_of(spec.algorithms.begin(), spec.algorithms.end(),
                     [](core::Algorithm a) {
                       return core::algorithm_info(a).graph ==
                              core::GraphNeed::kTrivialQuotient;
                     });
}

/// True when the file is non-empty and its last byte is not a newline: a
/// record torn by a crash mid-append.
bool ends_mid_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in || in.tellg() <= 0) return false;
  in.seekg(-1, std::ios::end);
  return in.get() != '\n';
}

}  // namespace

const std::vector<std::string>& known_families() {
  static const std::vector<std::string> kFamilies = {
      "er",   "ring",     "oriented_ring", "grid",  "tree",    "complete",
      "star", "lollipop", "torus",         "hypercube", "regular"};
  return kFamilies;
}

bool family_supports(const std::string& family, std::uint32_t n) {
  if (family == "er") return n >= 2;  // make_connected_er rejects n < 2
  if (family == "tree" || family == "grid") return n >= 1;
  if (family == "ring" || family == "oriented_ring") return n >= 3;
  if (family == "complete" || family == "star") return n >= 2;
  if (family == "lollipop") return n >= 4;
  if (family == "torus") return torus_rows(n) != 0;
  if (family == "hypercube") return n >= 2 && is_power_of_two(n);
  if (family == "regular") return n >= 4 && n % 2 == 0;
  return false;
}

std::optional<Graph> build_family_graph(const std::string& family,
                                        std::uint32_t n, std::uint64_t seed,
                                        bool need_trivial_quotient,
                                        double er_edge_probability) {
  if (!family_supports(family, n)) return std::nullopt;
  Rng rng(seed);
  try {
    if (!need_trivial_quotient)
      return sample(family, n, rng, er_edge_probability);
    // Theorem 1 needs all views distinct; resample until the quotient is
    // trivial. Families with random structure re-roll on their own; the
    // deterministic ones get fresh port shuffles instead — except
    // oriented_ring, whose port orientation IS the family (and whose
    // quotient is a single node by construction, so it can never satisfy
    // the request).
    const bool reshuffle = family == "grid" || family == "complete" ||
                           family == "star" || family == "lollipop" ||
                           family == "torus" || family == "hypercube";
    if (family == "oriented_ring") return std::nullopt;
    for (int attempt = 0; attempt < 128; ++attempt) {
      Graph g = sample(family, n, rng, er_edge_probability);
      if (reshuffle) g = shuffle_ports(g, rng);
      if (has_trivial_quotient(g)) return g;
    }
    return std::nullopt;
  } catch (const std::runtime_error& e) {  // a sampler gave up: name the point
    char p[48] = "";
    if (family == "er")
      std::snprintf(p, sizeof p, " (er edge probability %g)",
                    er_edge_probability);
    throw std::runtime_error(family + " graph on n=" + std::to_string(n) + p +
                             ": " + e.what());
  }
}

bool same_point(const SweepPoint& a, const SweepPoint& b) {
  return a.algorithm == b.algorithm && a.family == b.family && a.n == b.n &&
         a.k == b.k && a.f == b.f && a.seed == b.seed &&
         a.strategy == b.strategy && a.mix == b.mix;
}

bool algorithm_supports_k(core::Algorithm a, std::uint32_t k,
                          std::uint32_t n) {
  const std::optional<std::uint32_t> min_k = core::algorithm_info(a).min_k;
  return k == 0 || k == n || (min_k.has_value() && k >= *min_k);
}

std::vector<SweepPoint> expand_grid(const SweepSpec& spec) {
  const std::vector<std::string>& known = known_families();
  for (const std::string& family : spec.families) {
    if (std::find(known.begin(), known.end(), family) == known.end())
      throw std::invalid_argument("unknown graph family: " + family);
  }
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count)
    throw std::invalid_argument("expand_grid: shard_index must be < shard_count");

  // Canonicalize mixes once: a mix is a multiset, so sorting makes both
  // execution and hashing reorder-invariant. No mixes = one scalar point.
  std::vector<std::vector<core::ByzStrategy>> mixes = spec.strategy_mixes;
  if (mixes.empty()) mixes.push_back({});
  for (auto& m : mixes) std::sort(m.begin(), m.end());

  std::vector<SweepPoint> points;
  for (const core::Algorithm a : spec.algorithms) {
    for (const std::string& family : spec.families) {
      for (const std::uint32_t n : spec.sizes) {
        std::vector<std::uint32_t> ks = spec.robot_counts;
        if (ks.empty()) ks.push_back(n);
        for (std::uint32_t k : ks) {
          if (k == 0) k = n;  // 0 = the Table 1 setting
          const std::uint32_t max_f = core::max_tolerated_f_k(a, n, k);
          std::vector<std::uint32_t> fs;
          if (spec.byzantine_counts.empty()) {
            fs.push_back(max_f);
          } else if (spec.clamp_f_to_tolerance) {
            for (const std::uint32_t f : spec.byzantine_counts)
              fs.push_back(std::min(f, max_f));
            std::sort(fs.begin(), fs.end());
            fs.erase(std::unique(fs.begin(), fs.end()), fs.end());
          } else {
            fs = spec.byzantine_counts;
          }
          for (const std::uint32_t f : fs) {
            for (const auto& mix_set : mixes) {
              for (const std::uint64_t seed : spec.seeds) {
                points.push_back(
                    {a, family, n, k, f, seed, strategy_for(spec, a),
                     mix_set});
              }
            }
          }
        }
      }
    }
  }

  // Exact-duplicate points (clamping collisions the per-(a,n,k) unique
  // above cannot see, unclamped duplicate f inputs, robot_counts listing
  // both 0 and n, repeated seeds/mixes) would double-count their derived
  // seed in every aggregate and collide in the checkpoint; drop all but
  // the first occurrence, preserving grid order.
  std::vector<SweepPoint> unique_points;
  unique_points.reserve(points.size());
  // FlatMap: dedup is lookup-only (bucket probe + exact match), so the
  // container's lack of iterators is a structural no-order-leak guarantee.
  util::FlatMap<std::uint64_t, std::vector<std::size_t>> seen;
  for (SweepPoint& p : points) {
    // Bucket by the coordinate hash (strategy folded in, since same_point
    // compares it), verify exactly within the bucket.
    const std::uint64_t key =
        mix(point_seed(0, p), static_cast<std::uint64_t>(p.strategy));
    auto& bucket = seen[key];
    bool dup = false;
    for (const std::size_t idx : bucket) {
      if (same_point(p, unique_points[idx])) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    bucket.push_back(unique_points.size());
    unique_points.push_back(std::move(p));
  }

  if (spec.shard_count <= 1) return unique_points;
  std::vector<SweepPoint> shard;
  for (std::size_t i = spec.shard_index; i < unique_points.size();
       i += spec.shard_count)
    shard.push_back(std::move(unique_points[i]));
  return shard;
}

std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  std::uint64_t h = mix(0x5FEC0FF5EEDC0DE5ULL, spec.base_seed);
  h = mix(h, spec.common_graphs ? 1 : 0);
  h = mix(h, spec.require_trivial_quotient ? 1 : 0);
  h = mix(h, common_graphs_need_trivial_quotient(spec) ? 1 : 0);
  std::uint64_t er_bits = 0;
  static_assert(sizeof er_bits == sizeof spec.er_edge_probability);
  std::memcpy(&er_bits, &spec.er_edge_probability, sizeof er_bits);
  h = mix(h, er_bits);
  h = mix(h, spec.cost.scaled ? 1 : 0);
  h = mix(h, spec.byz_smallest_ids ? 1 : 0);
  h = mix(h, spec.measure_seconds ? 1 : 0);
  // Former adversary-path flag, always 1 in practice: kept so checkpoints
  // written before its removal keep resuming.
  h = mix(h, 1);
  return h;
}

std::uint64_t grid_fingerprint(const SweepSpec& spec,
                               const std::vector<SweepPoint>& grid) {
  std::uint64_t h = mix(spec_fingerprint(spec), 0x9D1DF1A6E57A11EDULL);
  h = mix(h, grid.size());
  for (const SweepPoint& p : grid) {
    h = mix(h, point_seed(spec.base_seed, p));
    h = mix(h, static_cast<std::uint64_t>(p.strategy));
  }
  return h;
}

std::uint64_t point_seed(std::uint64_t base_seed, const SweepPoint& p) {
  std::uint64_t s = mix(base_seed, static_cast<std::uint64_t>(p.algorithm));
  s = mix(s, fnv1a(p.family));
  s = mix(s, p.n);
  s = mix(s, p.f);
  s = mix(s, p.seed);
  // Optional axes fold in only when they deviate from the legacy grid, so
  // pre-k-axis derived seeds (committed baselines, golden rows) survive.
  if (p.k != 0 && p.k != p.n) s = mix(mix(s, kTagRobots), p.k);
  if (!p.mix.empty()) {
    // Commutative accumulation: the mix is a multiset, permutations hash
    // identically (duplicates still count).
    std::uint64_t h = 0;
    for (const core::ByzStrategy strat : p.mix)
      h += mix(kTagMix, static_cast<std::uint64_t>(strat));
    s = mix(mix(s, kTagMix), h);
  }
  return s;
}

std::uint64_t point_graph_seed(const SweepSpec& spec, const SweepPoint& p) {
  if (!spec.common_graphs) return point_seed(spec.base_seed, p);
  std::uint64_t s = mix(spec.base_seed, fnv1a(p.family));
  s = mix(s, p.n);
  s = mix(s, p.seed);
  return s;
}

PointResult run_point(const SweepSpec& spec, const SweepPoint& p) {
  PointResult r;
  r.point = p;
  r.derived_seed = point_seed(spec.base_seed, p);
  const std::uint32_t k = p.k == 0 ? p.n : p.k;

  const core::AlgorithmInfo& info = core::algorithm_info(p.algorithm);
  if (info.graph == core::GraphNeed::kRing && p.family != "ring" &&
      p.family != "oriented_ring") {
    r.skipped = true;
    r.skip_reason = "ring baseline requires a ring family";
    return r;
  }
  if (p.n == 0 || k == 0) {
    // Guard the Theorem 8 arithmetic (ceil divisions by n) below.
    r.skipped = true;
    r.skip_reason = "family does not support this n";
    return r;
  }
  if (p.f >= k) {
    r.skipped = true;
    r.skip_reason = k == p.n ? "f must be < n" : "f must be < k";
    return r;
  }
  // Theorem 8: with ceil(k/n) > ceil((k-f)/n) no deterministic algorithm
  // can solve generalized dispersion — a structured skip, never a failure.
  if (!core::k_dispersion_feasible(k, p.n, p.f)) {
    r.skipped = true;
    r.skip_reason =
        "infeasible per Theorem 8: ceil(k/n) > ceil((k-f)/n) for k=" +
        std::to_string(k) + " n=" + std::to_string(p.n) +
        " f=" + std::to_string(p.f);
    return r;
  }
  if (!algorithm_supports_k(p.algorithm, k, p.n)) {
    r.skipped = true;
    r.skip_reason = "algorithm does not support the k=" + std::to_string(k) +
                    " robots setting on n=" + std::to_string(p.n);
    return r;
  }
  const bool need_trivial = spec.require_trivial_quotient ||
                            info.graph == core::GraphNeed::kTrivialQuotient ||
                            common_graphs_need_trivial_quotient(spec);
  const std::optional<Graph> g =
      build_family_graph(p.family, p.n, point_graph_seed(spec, p),
                         need_trivial, spec.er_edge_probability);
  if (!g) {
    r.skipped = true;
    r.skip_reason = family_supports(p.family, p.n)
                        ? "no trivial-quotient sample"
                        : "family does not support this n";
    return r;
  }

  core::ScenarioConfig cfg;
  cfg.algorithm = p.algorithm;
  cfg.num_robots = k == p.n ? 0 : k;
  cfg.num_byzantine = p.f;
  cfg.strategy = p.strategy;
  cfg.strategies = p.mix;
  cfg.byz_smallest_ids = spec.byz_smallest_ids;
  cfg.seed = mix(r.derived_seed, 0x5CE42AE05C0F5AB1ULL);
  cfg.cost = spec.cost;

  const auto t0 = std::chrono::steady_clock::now();
  try {
    const core::ScenarioResult res = core::run_scenario(*g, cfg);
    if (res.saturated) {
      // The plan's bound overflowed 128-bit round accounting: a structured
      // skip naming the offending coordinates (mirroring the Theorem 8
      // machinery), never a fictitious capped round count.
      r.skipped = true;
      r.saturated = true;
      r.planned_rounds = res.planned_rounds;
      r.skip_reason = "round bound saturated 128-bit accounting for (" +
                      core::to_string(p.algorithm) +
                      ", n=" + std::to_string(p.n) +
                      ", f=" + std::to_string(p.f) + ")";
      return r;
    }
    r.ok = res.verify.ok();
    r.detail = res.verify.detail;
    r.stats = res.stats;
    r.planned_rounds = res.planned_rounds;
  } catch (const std::bad_alloc&) {
    throw;  // OOM is an infrastructure failure, never a per-point result
  } catch (const std::exception& e) {
    // A protocol blow-up is a *failed* point, not a crashed sweep: record
    // it (detail names the exception) so million-point production sweeps
    // keep going and the row stays diagnosable in the reports.
    r.ok = false;
    r.detail = std::string("exception: ") + e.what();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (spec.measure_seconds)
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

bool SweepResult::all_dispersed() const {
  for (const PointResult& p : points)
    if (!p.skipped && !p.ok) return false;
  return true;
}

std::size_t SweepResult::skipped() const {
  std::size_t count = 0;
  for (const PointResult& p : points)
    if (p.skipped) ++count;
  return count;
}

RestoredCheckpoint restore_checkpoint(const SweepSpec& spec,
                                      const std::vector<SweepPoint>& grid,
                                      std::vector<PointResult>& out) {
  // A checkpoint written under different spec knobs (common_graphs, cost
  // model, ...) is ignored, not imported: load_checkpoint filters it.
  RestoredCheckpoint r;
  r.todo.reserve(grid.size());
  out.resize(grid.size());
  util::FlatMap<std::uint64_t, PointResult> cache;
  if (!spec.checkpoint_path.empty()) {
    std::ifstream in(spec.checkpoint_path);
    CheckpointLoadStats stats;
    if (in) cache = load_checkpoint(in, spec_fingerprint(spec), &stats);
    r.torn = stats.malformed;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::uint64_t ds = point_seed(spec.base_seed, grid[i]);
    const PointResult* hit = cache.find(ds);
    if (hit != nullptr && same_point(hit->point, grid[i])) {
      out[i] = *hit;
      ++r.restored;
    } else {
      r.todo.push_back(i);
    }
  }
  return r;
}

SweepResult run_sweep(const SweepSpec& spec) {
  SweepExecutor ex(spec);
  ex.run_local(ex.todo());
  return ex.finish();
}

SweepExecutor::SweepExecutor(const SweepSpec& spec)
    : spec_(spec),
      grid_(expand_grid(spec)),
      fingerprint_(spec_fingerprint(spec)),
      t0_(std::chrono::steady_clock::now()) {
  const RestoredCheckpoint restored =
      restore_checkpoint(spec_, grid_, result_.points);
  result_.from_checkpoint = restored.restored;
  result_.torn_checkpoint_lines = restored.torn;
  todo_ = restored.todo;
  completed_ = restored.restored;
  have_.assign(grid_.size(), 1);
  for (const std::size_t i : todo_) have_[i] = 0;
  for (std::size_t i = 0; i < grid_.size(); ++i)
    if (have_[i]) agg_.add(i, result_.points[i]);

  if (!spec_.checkpoint_path.empty() && !todo_.empty()) {
    // Terminate a torn tail first, so the next record starts its own line
    // instead of splicing onto the fragment (which then fails to parse).
    const bool torn_tail = ends_mid_line(spec_.checkpoint_path);
    checkpoint_.open(spec_.checkpoint_path, std::ios::app);
    if (!checkpoint_)
      throw std::runtime_error("cannot open checkpoint " +
                               spec_.checkpoint_path);
    if (torn_tail) checkpoint_ << '\n';
  }
}

bool SweepExecutor::place(std::size_t i, PointResult&& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (have_[i]) return false;
  PointResult& slot = result_.points[i];
  slot = std::move(r);
  have_[i] = 1;
  ++completed_;
  if (checkpoint_.is_open())
    append_checkpoint_line(checkpoint_, spec_.checkpoint_path, slot,
                           fingerprint_);
  agg_.add(i, slot);
  if (spec_.progress && !spec_.progress(slot, completed_, grid_.size()))
    aborted_.store(true);
  return true;
}

std::size_t SweepExecutor::run_local(const std::vector<std::size_t>& indices,
                                     const std::function<bool()>& cancel) {
  // Each point owns its Engine and Rng; results land at their grid index,
  // so the output is byte-identical for every thread count.
  std::atomic<std::size_t> placed{0};
  parallel_for_index(
      indices.size(),
      [&](std::size_t j) {
        const std::size_t i = indices[j];
        if (place(i, run_point(spec_, grid_[i]))) ++placed;
      },
      spec_.threads, [&] { return aborted() || (cancel && cancel()); });
  return placed.load();
}

SweepResult SweepExecutor::finish() {
  result_.aborted = aborted();
  // Unrun remainder of an aborted sweep: structured skips, never silently
  // absent rows — and never checkpointed, so a resume re-runs them.
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (have_[i]) continue;
    PointResult& r = result_.points[i];
    r.point = grid_[i];
    r.derived_seed = point_seed(spec_.base_seed, grid_[i]);
    r.skipped = true;
    r.skip_reason = "aborted before running (resume from checkpoint)";
  }
  if (spec_.measure_seconds)
    result_.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0_)
                               .count();
  result_.cells = agg_.cells();
  return std::move(result_);
}

void CellAggregator::fold(CellAggregate& cell, const Member& m) {
  if (cell.runs == 0) {
    cell.min_rounds = m.rounds;
    cell.max_rounds = m.rounds;
  }
  const double kprev = static_cast<double>(cell.runs);
  ++cell.runs;
  if (m.ok) ++cell.dispersed;
  cell.min_rounds = std::min(cell.min_rounds, m.rounds);
  cell.max_rounds = std::max(cell.max_rounds, m.rounds);
  const double w = 1.0 / static_cast<double>(cell.runs);
  cell.mean_rounds = (cell.mean_rounds * kprev + m.rounds.to_double()) * w;
  cell.mean_simulated =
      (cell.mean_simulated * kprev + static_cast<double>(m.simulated)) * w;
  cell.mean_moves = (cell.mean_moves * kprev + static_cast<double>(m.moves)) * w;
  cell.mean_messages =
      (cell.mean_messages * kprev + static_cast<double>(m.messages)) * w;
  cell.mean_seconds = (cell.mean_seconds * kprev + m.seconds) * w;
}

void CellAggregator::replay(State& st) {
  // An out-of-order arrival changes the running-mean evaluation order, so
  // re-fold this one cell's members in grid-index order — the exact
  // sequence the batch rebuild applies, hence bit-identical means.
  const CellAggregate& a = st.agg;
  st.agg = CellAggregate{a.algorithm, a.family, a.n, a.k, a.f, a.mix};
  for (const Member& m : st.members) fold(st.agg, m);
}

void CellAggregator::add(std::size_t grid_index, const PointResult& p) {
  if (p.skipped) return;
  // Cells are located through a hash of the cell coordinates, with an
  // exact-match walk inside each bucket (hash collisions must not merge
  // cells).
  SweepPoint coords = p.point;
  coords.seed = 0;  // cells aggregate over seeds
  const std::uint64_t key =
      mix(point_seed(0, coords), static_cast<std::uint64_t>(p.point.strategy));
  auto& bucket = index_[key];
  State* st = nullptr;
  for (const std::size_t idx : bucket) {
    const CellAggregate& c = states_[idx].agg;
    if (c.algorithm == p.point.algorithm && c.family == p.point.family &&
        c.n == p.point.n && c.k == p.point.k && c.f == p.point.f &&
        c.mix == p.point.mix) {
      st = &states_[idx];
      break;
    }
  }
  if (st == nullptr) {
    bucket.push_back(states_.size());
    const SweepPoint& c = p.point;
    states_.push_back(
        {CellAggregate{c.algorithm, c.family, c.n, c.k, c.f, c.mix}, {}});
    st = &states_.back();
  }
  Member m;
  m.index = grid_index;
  m.ok = p.ok;
  m.rounds = p.stats.rounds;
  m.simulated = p.stats.simulated_rounds;
  m.moves = p.stats.moves;
  m.messages = p.stats.messages;
  m.seconds = p.seconds;
  if (st->members.empty() || st->members.back().index < grid_index) {
    st->members.push_back(m);
    fold(st->agg, m);  // in-order: the O(1) incremental recurrence
    return;
  }
  const auto pos = std::lower_bound(
      st->members.begin(), st->members.end(), grid_index,
      [](const Member& a, std::size_t idx) { return a.index < idx; });
  st->members.insert(pos, m);
  replay(*st);
}

std::vector<CellAggregate> CellAggregator::cells() const {
  // First-appearance (grid) order = ascending first member index. Members
  // are sorted, so members.front() is each cell's first grid appearance.
  std::vector<std::size_t> order(states_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return states_[a].members.front().index < states_[b].members.front().index;
  });
  std::vector<CellAggregate> out;
  out.reserve(states_.size());
  for (const std::size_t i : order) out.push_back(states_[i].agg);
  return out;
}

void rebuild_cell_aggregates(SweepResult& result) {
  CellAggregator agg;
  for (std::size_t i = 0; i < result.points.size(); ++i)
    agg.add(i, result.points[i]);
  result.cells = agg.cells();
}

}  // namespace bdg::run
