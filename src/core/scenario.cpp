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

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kQuotient: return "quotient(T1)";
    case Algorithm::kTournamentArbitrary: return "tournament-arbitrary(T2)";
    case Algorithm::kSqrtArbitrary: return "sqrt-arbitrary(T5)";
    case Algorithm::kTournamentGathered: return "tournament-gathered(T3)";
    case Algorithm::kThreeGroupGathered: return "three-group(T4)";
    case Algorithm::kStrongArbitrary: return "strong-arbitrary(T7)";
    case Algorithm::kStrongGathered: return "strong-gathered(T6)";
    case Algorithm::kCrashRealGathering: return "crash-real-gathering(ext)";
    case Algorithm::kRingBaseline: return "ring-baseline[34,36]";
  }
  // An out-of-range value is corrupted or foreign data: a silent "unknown"
  // would round-trip through algorithm_from_string to nullopt and quietly
  // re-run the checkpoint record. Fail.
  throw std::invalid_argument("to_string(Algorithm): invalid algorithm value " +
                              std::to_string(static_cast<int>(a)));
}

std::optional<Algorithm> algorithm_from_string(const std::string& name) {
  // Keep this list in sync with the Algorithm enum (the to_string switch
  // warns on a missing case; this list is the matching inverse). A missed
  // entry degrades safely: checkpoint lines for that algorithm parse to
  // nullopt and the points re-run instead of resuming.
  for (const Algorithm a :
       {Algorithm::kQuotient, Algorithm::kTournamentArbitrary,
        Algorithm::kSqrtArbitrary, Algorithm::kTournamentGathered,
        Algorithm::kThreeGroupGathered, Algorithm::kStrongArbitrary,
        Algorithm::kStrongGathered, Algorithm::kCrashRealGathering,
        Algorithm::kRingBaseline}) {
    if (to_string(a) == name) return a;
  }
  return std::nullopt;
}

std::uint32_t max_tolerated_f(Algorithm a, std::uint32_t n) {
  switch (a) {
    case Algorithm::kQuotient:
    case Algorithm::kRingBaseline:
      return n >= 1 ? n - 1 : 0;
    case Algorithm::kTournamentArbitrary:
    case Algorithm::kTournamentGathered:
      return n / 2 >= 1 ? n / 2 - 1 : 0;
    case Algorithm::kThreeGroupGathered:
    case Algorithm::kCrashRealGathering:
      return n / 3 >= 1 ? n / 3 - 1 : 0;
    case Algorithm::kSqrtArbitrary: {
      // The paper's f = O(sqrt n) claim is asymptotic: the two-group run
      // needs honest majorities in BOTH halves, i.e. f <= ceil(|A|/2)-1
      // with |A| = floor(n/2). At small n that bound is the binding one.
      const auto sqrtn =
          static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
      const std::uint32_t half = n / 2;
      const std::uint32_t group_safe = half >= 1 ? (half + 1) / 2 - 1 : 0;
      return std::min(sqrtn, group_safe);
    }
    case Algorithm::kStrongArbitrary:
    case Algorithm::kStrongGathered:
      return n / 4 >= 1 ? n / 4 - 1 : 0;
  }
  return 0;
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

bool starts_gathered(Algorithm a) {
  switch (a) {
    case Algorithm::kQuotient:
    case Algorithm::kTournamentArbitrary:
    case Algorithm::kSqrtArbitrary:
    case Algorithm::kStrongArbitrary:
    case Algorithm::kCrashRealGathering:
    case Algorithm::kRingBaseline:
      return false;
    case Algorithm::kTournamentGathered:
    case Algorithm::kThreeGroupGathered:
    case Algorithm::kStrongGathered:
      return true;
  }
  return true;
}

bool handles_strong(Algorithm a) {
  return a == Algorithm::kStrongGathered || a == Algorithm::kStrongArbitrary;
}

namespace {

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

AlgorithmPlan make_plan(Algorithm a, const Graph& g,
                        const std::vector<sim::RobotId>& ids, std::uint32_t f,
                        const gather::CostModel& cost, bool batched_pairing) {
  switch (a) {
    case Algorithm::kQuotient:
      return plan_quotient_dispersion(g, cost);
    case Algorithm::kTournamentArbitrary:
      return plan_tournament_dispersion(g, ids, /*gathered=*/false, f, cost,
                                        batched_pairing);
    case Algorithm::kTournamentGathered:
      return plan_tournament_dispersion(g, ids, /*gathered=*/true, f, cost,
                                        batched_pairing);
    case Algorithm::kThreeGroupGathered:
      return plan_three_group_dispersion(g, ids, cost);
    case Algorithm::kSqrtArbitrary:
      return plan_sqrt_dispersion(g, ids, f, cost);
    case Algorithm::kStrongGathered:
      return plan_strong_gathered_dispersion(g, ids, cost);
    case Algorithm::kStrongArbitrary:
      return plan_strong_arbitrary_dispersion(g, ids, f, cost);
    case Algorithm::kCrashRealGathering:
      return plan_crash_real_dispersion(g, ids, cost);
    case Algorithm::kRingBaseline:
      return plan_ring_dispersion(g, cost);
  }
  throw std::invalid_argument("make_plan: bad algorithm");
}

}  // namespace

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
  if (!starts_gathered(cfg.algorithm)) {
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

  const bool strong = cfg.strong_byzantine || handles_strong(cfg.algorithm);
  std::vector<AlgorithmPlan> plans;
  std::vector<Round> offsets(waves, Round(0));
  Round total_rounds = 0;
  plans.reserve(waves);
  for (std::uint32_t w = 0; w < waves; ++w) {
    plans.push_back(make_plan(cfg.algorithm, g, wave_ids[w], wave_byz[w],
                              cfg.cost, cfg.batched_pairing));
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
