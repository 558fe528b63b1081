#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "core/crash_dispersion.h"
#include "core/ring_dispersion.h"
#include "core/group_dispersion.h"
#include "core/quotient_dispersion.h"
#include "core/strong_dispersion.h"
#include "core/tournament_dispersion.h"
#include "util/rng.h"

namespace bdg::core {

namespace {

/// floor(n/D) - 1, floored at 0: the "fewer than a D-th" tolerances.
template <std::uint32_t D>
std::uint32_t below_share(std::uint32_t n) {
  return n / D >= 1 ? n / D - 1 : 0;
}

std::uint32_t sqrt_tolerance(std::uint32_t n) {
  // The paper's f = O(sqrt n) claim is asymptotic: the two-group run
  // needs honest majorities in BOTH halves, i.e. f <= ceil(|A|/2)-1
  // with |A| = floor(n/2). At small n that bound is the binding one.
  const auto sqrtn =
      static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
  const std::uint32_t half = n / 2;
  const std::uint32_t group_safe = half >= 1 ? (half + 1) / 2 - 1 : 0;
  return std::min(sqrtn, group_safe);
}

/// n^P: the polynomial round bounds.
template <int P>
double power(std::uint32_t n) {
  double x = 1.0;
  for (int i = 0; i < P; ++i) x *= n;
  return x;
}
/// Row 2: the charged [24] gathering, 4 n^4 |Lambda| X(n), with
/// |Lambda| = ceil(log2 n^2) ID bits, at least one (n = 1 has an ID too).
double gathering_bound(std::uint32_t n) {
  const double id_bits = std::max(1.0, std::ceil(std::log2(power<2>(n))));
  return 4.0 * power<4>(n) * id_bits * (2.0 * n + 2.0);
}
/// Row 3: dominated by its single T2 = 8n^3 map-finding window.
double window_bound(std::uint32_t n) { return 8.0 * power<3>(n); }
/// Row 6: the charged exponential strong-Byzantine gathering.
double exponential(std::uint32_t n) { return std::exp2(n); }

constexpr std::optional<std::uint32_t> kOnlyKEqualsN = std::nullopt;

// Columns: enumerator, report name, CLI name, starts gathered, handles
// strong, tolerance, round bound and its name, own adversary, min k
// (k != n), graph need, planner. The min k comments give each row's
// reason. crash-real-gathering's n^3 and ring-baseline's n are the shapes
// of their measured rounds (24-32 n^3 and 7n+17), not paper claims.
constexpr AlgorithmInfo kTable[] = {
    // Map-based pipelines: Find-Map is per-robot (quotient) or a
    // tournament/vote among the actual participants, and
    // Dispersion-Using-Map settles any number of robots <= n per wave.
    {Algorithm::kQuotient, "quotient(T1)", "quotient", false, false,
     &below_share<1>, &power<3>, "n^3", std::nullopt, 1,
     GraphNeed::kTrivialQuotient,
     [](const PlanArgs& r) { return plan_quotient_dispersion(r.g, r.cost); }},
    {Algorithm::kTournamentArbitrary, "tournament-arbitrary(T2)",
     "tournament-arbitrary", false, false, &below_share<2>, &gathering_bound,
     "4n^4*ceil(log2(n^2))*(2n+2)", std::nullopt, 1, GraphNeed::kAny,
     [](const PlanArgs& r) {
       return plan_tournament_dispersion(r.g, r.ids, /*gathered=*/false, r.f,
                                         r.cost, r.batched_pairing);
     }},
    // The two-group split needs both halves to hold honest majorities of
    // the *robot* population; undersubscribed halves below 2 robots
    // degenerate. Supported for k >= 4.
    {Algorithm::kSqrtArbitrary, "sqrt-arbitrary(T5)", "sqrt-arbitrary", false,
     false, &sqrt_tolerance, &window_bound, "8n^3", std::nullopt, 4,
     GraphNeed::kAny, [](const PlanArgs& r) {
       return plan_sqrt_dispersion(r.g, r.ids, r.f, r.cost);
     }},
    // Map-based, as the quotient row.
    {Algorithm::kTournamentGathered, "tournament-gathered(T3)",
     "tournament-gathered", true, false, &below_share<2>, &power<4>, "n^4",
     std::nullopt, 1, GraphNeed::kAny, [](const PlanArgs& r) {
       return plan_tournament_dispersion(r.g, r.ids, /*gathered=*/true, r.f,
                                         r.cost, r.batched_pairing);
     }},
    // The three-group rotation needs at least one robot per role; with
    // k < 3 the A/B thirds are empty and the map vote degenerates.
    {Algorithm::kThreeGroupGathered, "three-group(T4)", "three-group", true,
     false, &below_share<3>, &power<3>, "n^3", std::nullopt, 3, GraphNeed::kAny,
     [](const PlanArgs& r) {
       return plan_three_group_dispersion(r.g, r.ids, r.cost);
     }},
    // The strong algorithms' floor(n/4)-quorum argument assumes all k
    // robots share one instance: with k < n the agent half can be smaller
    // than one quorum, and across k > n waves the spoofers of one wave can
    // impersonate another wave's participants and forge its quorums. Only
    // the paper's k = n setting is sound.
    {Algorithm::kStrongArbitrary, "strong-arbitrary(T7)", "strong-arbitrary",
     false, true, &below_share<4>, &exponential, "2^n", ByzStrategy::kSpoofer,
     kOnlyKEqualsN, GraphNeed::kAny, [](const PlanArgs& r) {
       return plan_strong_arbitrary_dispersion(r.g, r.ids, r.f, r.cost);
     }},
    {Algorithm::kStrongGathered, "strong-gathered(T6)", "strong-gathered",
     true, true, &below_share<4>, &power<3>, "n^3", ByzStrategy::kSpoofer,
     kOnlyKEqualsN, GraphNeed::kAny, [](const PlanArgs& r) {
       return plan_strong_gathered_dispersion(r.g, r.ids, r.cost);
     }},
    // Theorem 4's phases after real gathering: as the three-group row.
    {Algorithm::kCrashRealGathering, "crash-real-gathering(ext)",
     "crash-real-gathering", false, false, &below_share<3>, &power<3>, "n^3",
     ByzStrategy::kCrash, 3, GraphNeed::kAny, [](const PlanArgs& r) {
       return plan_crash_real_dispersion(r.g, r.ids, r.cost);
     }},
    // The ring baseline's O(n) schedule assumes one robot per ring node.
    {Algorithm::kRingBaseline, "ring-baseline[34,36]", "ring-baseline", false,
     false, &below_share<1>, &power<1>, "n", std::nullopt, kOnlyKEqualsN,
     GraphNeed::kRing,
     [](const PlanArgs& r) { return plan_ring_dispersion(r.g, r.cost); }},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kTable); ++i)
    if (kTable[i].algorithm != static_cast<Algorithm>(i)) return false;
  return std::size(kTable) ==
         static_cast<std::size_t>(Algorithm::kRingBaseline) + 1;
}
static_assert(rows_in_enum_order(), "one row per Algorithm, in enum order");

/// Distinct robot IDs from [1, max(k, n)^2] (paper: IDs from [1, n^c],
/// c > 1). For k == n this is the seed-stable [1, n^2] draw.
std::vector<sim::RobotId> draw_ids(std::uint32_t k, std::uint32_t n,
                                   Rng& rng) {
  const std::uint64_t m = std::max(k, n);
  const std::uint64_t space =
      std::max<std::uint64_t>(m * m, static_cast<std::uint64_t>(k) + 1);
  std::set<sim::RobotId> ids;
  while (ids.size() < k) ids.insert(1 + rng.below(space));
  return {ids.begin(), ids.end()};
}

}  // namespace

std::span<const AlgorithmInfo> algorithm_table() { return kTable; }

const AlgorithmInfo& algorithm_info(Algorithm a) {
  // An out-of-range value is corrupted or foreign data: a silent "unknown"
  // would round-trip through algorithm_from_string to nullopt and quietly
  // re-run the checkpoint record. Fail.
  const auto i = static_cast<std::size_t>(a);
  if (i >= std::size(kTable))
    throw std::invalid_argument("invalid algorithm value " +
                                std::to_string(static_cast<int>(a)));
  return kTable[i];
}

std::string to_string(Algorithm a) { return algorithm_info(a).report_name; }

std::optional<Algorithm> algorithm_from_string(const std::string& name) {
  for (const AlgorithmInfo& row : kTable)
    if (name == row.report_name) return row.algorithm;
  return std::nullopt;
}

std::uint32_t max_tolerated_f(Algorithm a, std::uint32_t n) {
  return algorithm_info(a).max_f(n);
}

std::uint32_t max_tolerated_f_k(Algorithm a, std::uint32_t n,
                                std::uint32_t k) {
  if (k == 0) k = n;
  if (k == 0 || n == 0) return 0;  // no graph / no robots: nothing tolerated
  const std::uint32_t waves = (k + n - 1) / n;
  // Per-wave tolerance of the smallest wave; striping puts at most
  // ceil(f / waves) Byzantine robots in any wave.
  const std::uint32_t per_wave = max_tolerated_f(a, k / waves);
  std::uint32_t f = waves * per_wave;
  // Theorem 8 feasibility: ceil((k - f)/n) must stay equal to ceil(k/n),
  // i.e. f < k - (waves - 1) * n.
  const std::uint32_t residue = k - (waves - 1) * n;
  f = std::min(f, residue >= 1 ? residue - 1 : 0);
  // Wave capacity: a node-denying adversary (squatter) costs every wave a
  // settlement slot, so W waves place at most W * (n - f) honest robots;
  // W * (n - f) >= k - f gives f <= (W*n - k) / (W - 1). Full waves
  // (k = W * n) therefore tolerate no faults — the price of meeting the
  // exact ceil((k - f)/n) cap with per-wave 1-per-node instances.
  if (waves > 1) f = std::min(f, (waves * n - k) / (waves - 1));
  return std::min(f, k - 1);
}

std::vector<sim::RobotId> draw_robot_ids(std::uint32_t k, std::uint32_t n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  return draw_ids(k, n, rng);
}

ScenarioResult run_scenario(const Graph& g, const ScenarioConfig& cfg) {
  const auto n = static_cast<std::uint32_t>(g.n());
  const std::uint32_t k = cfg.num_robots == 0 ? n : cfg.num_robots;
  if (cfg.num_byzantine >= k)
    throw std::invalid_argument("run_scenario: need at least one honest robot");
  Rng rng(cfg.seed);
  const std::vector<sim::RobotId> ids =
      draw_ids(k, n, rng);  // sorted (std::set)

  // Byzantine subset: smallest IDs (worst case for rank preference) or a
  // random subset.
  std::vector<bool> is_byz(k, false);
  if (cfg.byz_smallest_ids) {
    for (std::uint32_t i = 0; i < cfg.num_byzantine; ++i) is_byz[i] = true;
  } else {
    std::vector<std::uint32_t> idx(k);
    for (std::uint32_t i = 0; i < k; ++i) idx[i] = i;
    rng.shuffle(idx);
    for (std::uint32_t i = 0; i < cfg.num_byzantine; ++i) is_byz[idx[i]] = true;
  }

  // Placements: gathered algorithms put everyone at the rally node 0;
  // otherwise robots are scattered uniformly (Byzantine anywhere).
  std::vector<NodeId> starts(k, 0);
  const AlgorithmInfo& info = algorithm_info(cfg.algorithm);
  if (!info.starts_gathered) {
    for (auto& s : starts) s = static_cast<NodeId>(rng.below(g.n()));
  }

  // Wave scheduling (Theorem 8's k-robot setting): robots are striped
  // across ceil(k/n) waves by ID rank (wave of rank i = i mod waves), each
  // wave runs its own instance of the algorithm, and wave w's programs
  // start only after waves 0..w-1 exhausted their round budgets. Each wave
  // settles at most one honest robot per node, so the final load is at most
  // ceil(k/n) = ceil((k-f)/n) per node whenever Theorem 8 says dispersion
  // is feasible. k <= n is the degenerate single-wave case and runs
  // exactly the paper's Table 1 pipeline.
  const std::uint32_t waves = (k + n - 1) / n;
  std::vector<std::vector<sim::RobotId>> wave_ids(waves);
  std::vector<std::uint32_t> wave_byz(waves, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    wave_ids[i % waves].push_back(ids[i]);
    if (is_byz[i]) ++wave_byz[i % waves];
  }

  const bool strong = info.handles_strong;
  std::vector<AlgorithmPlan> plans;
  std::vector<Round> offsets(waves, Round(0));
  Round total_rounds = 0;
  plans.reserve(waves);
  for (std::uint32_t w = 0; w < waves; ++w) {
    plans.push_back(info.plan(
        {g, wave_ids[w], wave_byz[w], cfg.cost, cfg.batched_pairing}));
    offsets[w] = total_rounds;
    total_rounds += plans[w].total_rounds;
  }

  ScenarioResult res;
  res.planned_rounds = total_rounds;
  // A bound past 2^128-1 cannot be run OR verified: fail loudly before
  // touching the engine instead of capping silently (the pre-Round code
  // clamped at 2^62 and reported fictitious round counts).
  if (total_rounds.is_saturated()) {
    res.saturated = true;
    res.verify = verify_round_bound(total_rounds);
    return res;
  }

  // Charged oracle windows [begin, end) per wave, in global rounds. Every
  // Byzantine robot sleeps through each window at or after its own wake
  // round (nothing can be attacked there — honest robots are walking or
  // sleeping out an imported bound — and staying awake would defeat the
  // engine's fast-forwarding for every later wave).
  std::vector<std::pair<Round, Round>> charged;
  for (std::uint32_t w = 0; w < waves; ++w) {
    // Explicit non-empty guard: a zero-length wave prefix must not emit an
    // [a, a) window (ByzSchedule validation rejects it; ChargeGate would
    // only skip it by accident of its >= comparison).
    const std::pair<Round, Round> win{offsets[w],
                                      offsets[w] + plans[w].byz_wake_round};
    if (win.second > win.first) charged.push_back(win);
  }

  sim::Engine eng(g);
  eng.set_observer(cfg.observer);
  std::uint32_t byz_index = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint32_t w = i % waves;
    if (is_byz[i]) {
      const ByzStrategy strategy =
          cfg.strategies.empty()
              ? cfg.strategy
              : cfg.strategies[byz_index % cfg.strategies.size()];
      ++byz_index;
      ByzSchedule sched;
      sched.wake = offsets[w] + plans[w].byz_wake_round;
      for (const auto& win : charged)
        if (win.first >= sched.wake) sched.charged.push_back(win);
      const std::uint64_t byz_seed = rng.next();
      eng.add_robot(ids[i],
                    strong ? sim::Faultiness::kStrongByzantine
                           : sim::Faultiness::kWeakByzantine,
                    starts[i],
                    make_byzantine_program(strategy, ids, byz_seed,
                                           std::move(sched)));
    } else {
      eng.add_robot(ids[i], sim::Faultiness::kHonest, starts[i],
                    plans[w].honest(ids[i], starts[i]), offsets[w]);
    }
  }

  res.stats = eng.run(total_rounds + 16);
  res.verify = k == n ? verify_dispersion(eng)
                      : verify_k_dispersion(eng, k, cfg.num_byzantine);
  return res;
}

}  // namespace bdg::core
