#include "core/tournament_dispersion.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "util/flat_hash.h"

#include "core/dispersion_using_map.h"
#include "core/protocol_slack.h"
#include "explore/engine_map.h"

namespace bdg::core {
namespace {

using explore::MapFindConfig;
using explore::MapFindOutcome;

struct TournamentConfig {
  /// The pairing schedule, built ONCE by the planner from the sorted ids
  /// (single source of truth: the plan's window count is derived from
  /// windows->size(), so the coroutine and the round bound cannot drift)
  /// and shared by every robot of the instance.
  std::shared_ptr<const std::vector<PairingWindow>> windows;
  std::uint32_t n = 0;
  std::uint32_t f = 0;           ///< adversary budget (vote thresholds)
  Round t2 = 0;                  ///< one map-finding window
  Round gather_rounds = 0;       ///< 0 when initially gathered
  std::vector<Port> rally_path;  ///< robot's own path to the rally node
  Round phase_rounds = 0;        ///< dispersion phase length
  bool batched = true;           ///< map-cache + fast-path pairing windows
};

/// Per-robot Phase 2 state threaded through the window halves.
struct Phase2State {
  std::vector<CanonicalCode> votes;
  /// How many distinct windows fully built each code (batched mode only).
  /// Flat open-addressing: only counted lookups and one erase, no ordered
  /// iteration, so table order never reaches an outcome.
  util::FlatMap<CanonicalCode, std::uint32_t> build_counts;
  /// Code self-built in f+1 distinct windows. At most f partners can lie
  /// and every partner appears in exactly one window, so at least one of
  /// those f+1 builds ran against an honest token — and a build with an
  /// honest token provably yields the true map. Sound for any f that
  /// really bounds the liars; the verify walk below catches the rest.
  std::optional<CanonicalCode> confirmed_code;
  std::optional<Graph> confirmed_map;
  /// The confirmed map also passed a physical verify-only walk.
  bool self_checked = false;
};

void note_build(Phase2State& st, const CanonicalCode& code,
                const TournamentConfig& cfg) {
  if (st.confirmed_code.has_value()) return;
  if (++st.build_counts[code] < cfg.f + 1) return;
  auto map = decode_map(code, cfg.n);
  if (!map.has_value()) return;  // unreachable for self-built codes
  st.confirmed_code = code;
  st.confirmed_map = std::move(map);
}

/// One window half with this robot as the agent. Unbatched (or before a
/// code is confirmed): full build, exactly the original protocol. After
/// confirmation: one verify-only walk cross-checks the cache against the
/// physical graph (any mismatch drops the cache and rebuilds in-window),
/// then every later agent half publishes in its first round and sleeps.
sim::Task<void> agent_half(sim::Ctx ctx, const TournamentConfig& cfg,
                           const MapFindConfig& mine, Phase2State& st) {
  if (!cfg.batched || !st.confirmed_code.has_value()) {
    const MapFindOutcome out = co_await explore::run_map_agent(ctx, mine);
    if (out.code.has_value()) {
      st.votes.push_back(*out.code);
      if (cfg.batched) note_build(st, *out.code, cfg);
    }
    co_return;
  }
  if (!st.self_checked) {
    const MapFindOutcome out = co_await explore::run_map_agent_cached(
        ctx, mine, *st.confirmed_map, *st.confirmed_code);
    if (out.verified_cache) {
      st.self_checked = true;
      st.votes.push_back(*out.code);
    } else {
      // The walk contradicted the confirmed map — only reachable when the
      // adversary exceeds the declared budget f. Drop the poisoned cache;
      // the window already fell back to a full rebuild.
      st.build_counts.erase(*st.confirmed_code);
      st.confirmed_code.reset();
      st.confirmed_map.reset();
      if (out.code.has_value()) {
        st.votes.push_back(*out.code);
        note_build(st, *out.code, cfg);
      }
    }
    co_return;
  }
  const MapFindOutcome out =
      co_await explore::run_map_publish(ctx, mine, *st.confirmed_code);
  st.votes.push_back(*out.code);
}

sim::Proc tournament_robot(sim::Ctx ctx, TournamentConfig cfg) {
  // Phase 1: gathering (oracle-charged; see DESIGN.md substitution 2).
  if (cfg.gather_rounds > 0) {
    gather::GatheringSpec spec{cfg.rally_path, cfg.gather_rounds};
    co_await gather::run_oracle_gathering(ctx, std::move(spec));
  }

  // Phase 2: all-pairs map finding. Every window is exactly 2*t2 rounds
  // for every robot, so the fleet stays synchronized whatever happens.
  const Round phase2_start = ctx.round();
  Phase2State st;
  std::size_t w = 0;
  for (const PairingWindow& win : *cfg.windows) {
    ++w;
    std::optional<sim::RobotId> partner;
    for (const auto& [a, b] : win) {
      if (a == ctx.self()) partner = b;
      if (b == ctx.self()) partner = a;
    }
    if (!partner.has_value()) {
      co_await ctx.sleep_rounds(2 * cfg.t2);
    } else {
      MapFindConfig mine, theirs;
      mine.agents = {ctx.self()};
      mine.tokens = {*partner};
      mine.round_budget = cfg.t2;
      mine.n = cfg.n;
      theirs.agents = {*partner};
      theirs.tokens = {ctx.self()};
      theirs.round_budget = cfg.t2;
      theirs.n = cfg.n;
      // In the pair setting the token may close its half on the first
      // instruction-less round (see MapFindConfig::early_close).
      theirs.early_close = cfg.batched;
      // The smaller ID explores first; then the roles swap. Only the maps a
      // robot built ITSELF as the agent enter its majority vote — it never
      // trusts a partner's claims.
      if (ctx.self() < *partner) {
        co_await agent_half(ctx, cfg, mine, st);
        (void)co_await explore::run_map_token(ctx, theirs);
      } else {
        (void)co_await explore::run_map_token(ctx, theirs);
        co_await agent_half(ctx, cfg, mine, st);
      }
    }
    // Window-synchrony invariant: every honest robot ends window w at
    // exactly phase2_start + w * 2*t2 (idle halves are padded by
    // idle_rest, overspending is prevented by the kAgentOpReserve /
    // kTokenStepReserve margins), so both partners of every pair agree on
    // every window boundary. A violation is an internal protocol bug —
    // Byzantine behavior cannot cause it — so fail loudly.
    if (ctx.round() != phase2_start + Round(w) * (2 * cfg.t2))
      throw std::logic_error(
          "tournament_robot: pairing-window desync (protocol slack "
          "constants out of step with the window protocol?)");
  }

  // Phase 3: disperse from the rally node (map node 0).
  (void)co_await disperse_from_vote(ctx, majority_code(st.votes, cfg.f),
                                    cfg.n, cfg.phase_rounds);
}

}  // namespace

AlgorithmPlan plan_tournament_dispersion(const Graph& g,
                                         std::vector<sim::RobotId> ids,
                                         bool gathered, std::uint32_t f,
                                         const gather::CostModel& cost,
                                         bool batched) {
  std::sort(ids.begin(), ids.end());
  if (!ids.empty() && ids.front() == 0)
    throw std::invalid_argument(
        "plan_tournament_dispersion: robot id 0 is reserved (the pairing "
        "schedule uses it as the dummy-bye marker)");
  const auto n = static_cast<std::uint32_t>(g.n());
  const Round t2 = explore::default_map_window(n);
  const Round phase = dispersion_phase_rounds(n);
  const std::uint32_t lambda =
      gather::CostModel::id_bits(ids.empty() ? 1 : ids.back());
  const Round gather_rounds =
      gathered ? Round(0)
               : std::max<Round>(
                     cost.rounds(gather::GatherKind::kWeakDPP, n, f, lambda),
                     2 * g.n());  // at least enough to physically walk
  // Single source of truth for the pairing phase length: the schedule the
  // robots will actually run. (The planner used to recompute the window
  // count with its own k-padding arithmetic, which could drift from the
  // coroutine's schedule and desync plan.total_rounds from the run.)
  auto windows = std::make_shared<const std::vector<PairingWindow>>(
      round_robin_schedule(ids));
  const Round pairing_rounds = Round(windows->size()) * 2 * t2;

  AlgorithmPlan plan;
  plan.total_rounds = gather_rounds + pairing_rounds + phase + kPlanCloseSlack;
  plan.byz_wake_round = gather_rounds;
  plan.honest = [=, g = &g](sim::RobotId, NodeId start) -> sim::ProgramFactory {
    TournamentConfig cfg;
    cfg.windows = windows;
    cfg.n = n;
    cfg.f = f;
    cfg.t2 = t2;
    cfg.gather_rounds = gather_rounds;
    cfg.phase_rounds = phase;
    cfg.batched = batched;
    if (gather_rounds > 0) {
      auto path = g->shortest_path_ports(start, 0);
      cfg.rally_path = path.value_or(std::vector<Port>{});
    }
    return [cfg = std::move(cfg)](sim::Ctx c) {
      return tournament_robot(c, cfg);
    };
  };
  return plan;
}

}  // namespace bdg::core
