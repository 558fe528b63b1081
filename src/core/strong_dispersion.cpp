#include "core/strong_dispersion.h"

#include <algorithm>

#include "core/protocol_slack.h"
#include "explore/engine_map.h"

namespace bdg::core {
namespace {

struct StrongPlanConfig {
  std::vector<sim::RobotId> ids;  // sorted; the gathered-set common knowledge
  std::uint32_t n = 0;
  Round t2 = 0;
  Round gather_rounds = 0;
  std::vector<Port> rally_path;
  Round assign_rounds = 0;  ///< fixed length of the assignment phase
};

sim::Proc strong_robot(sim::Ctx ctx, StrongPlanConfig cfg) {
  if (cfg.gather_rounds > 0) {
    gather::GatheringSpec spec{cfg.rally_path, cfg.gather_rounds};
    co_await gather::run_oracle_gathering(ctx, std::move(spec));
  }

  // Phase 1: one group map-finding run, halves by sorted ID, absolute
  // floor(n/4) quorums (paper Section 4).
  const std::size_t half = cfg.ids.size() / 2;
  explore::MapFindConfig mf;
  mf.agents.assign(cfg.ids.begin(), cfg.ids.begin() + half);
  mf.tokens.assign(cfg.ids.begin() + half, cfg.ids.end());
  mf.agent_quorum = std::max<std::uint32_t>(1, cfg.n / 4);
  mf.token_quorum = std::max<std::uint32_t>(1, cfg.n / 4);
  mf.round_budget = cfg.t2;
  mf.n = cfg.n;
  const explore::MapFindOutcome out =
      co_await explore::run_map_member(ctx, std::move(mf));
  const auto map =
      out.code.has_value() ? decode_map(*out.code, cfg.n) : std::nullopt;
  if (!map.has_value()) co_return;

  // Phase 2: deterministic assignment, no communication. The robot whose
  // rank in the agreed ID order is i settles at map node v(i) (the map's
  // construction order is canonical and identical for every honest robot).
  const auto rank = static_cast<std::uint32_t>(
      std::lower_bound(cfg.ids.begin(), cfg.ids.end(), ctx.self()) -
      cfg.ids.begin());
  std::uint64_t used = 0;
  if (rank < map->n()) {
    const auto path = map->shortest_path_ports(0, rank);
    if (path.has_value()) {
      for (const Port p : *path) {
        co_await ctx.end_round(p);
        ++used;
      }
    }
  }
  if (Round(used) < cfg.assign_rounds)
    co_await ctx.sleep_rounds(cfg.assign_rounds - used);
}

AlgorithmPlan plan_strong(const Graph& g, std::vector<sim::RobotId> ids,
                          Round gather_rounds,
                          const gather::CostModel& cost) {
  (void)cost;
  std::sort(ids.begin(), ids.end());
  const auto n = static_cast<std::uint32_t>(g.n());
  const Round t2 = explore::default_map_window(n);
  const Round assign = Round(n) + 8;

  AlgorithmPlan plan;
  plan.total_rounds = gather_rounds + t2 + assign + kPlanCloseSlack;
  plan.byz_wake_round = gather_rounds;
  plan.honest = [=, g = &g](sim::RobotId, NodeId start) -> sim::ProgramFactory {
    StrongPlanConfig cfg;
    cfg.ids = ids;
    cfg.n = n;
    cfg.t2 = t2;
    cfg.gather_rounds = gather_rounds;
    cfg.assign_rounds = assign;
    if (gather_rounds > 0) {
      auto path = g->shortest_path_ports(start, 0);
      cfg.rally_path = path.value_or(std::vector<Port>{});
    }
    return [cfg = std::move(cfg)](sim::Ctx c) { return strong_robot(c, cfg); };
  };
  return plan;
}

}  // namespace

AlgorithmPlan plan_strong_gathered_dispersion(const Graph& g,
                                              std::vector<sim::RobotId> ids,
                                              const gather::CostModel& cost) {
  return plan_strong(g, std::move(ids), 0, cost);
}

AlgorithmPlan plan_strong_arbitrary_dispersion(const Graph& g,
                                               std::vector<sim::RobotId> ids,
                                               std::uint32_t f,
                                               const gather::CostModel& cost) {
  const auto n = static_cast<std::uint32_t>(g.n());
  const std::uint32_t lambda =
      gather::CostModel::id_bits(ids.empty() ? 1 : *std::max_element(
                                                       ids.begin(), ids.end()));
  const Round gather_rounds = std::max<Round>(
      cost.rounds(gather::GatherKind::kStrongExp, n, f, lambda), 2 * g.n());
  return plan_strong(g, std::move(ids), gather_rounds, cost);
}

}  // namespace bdg::core
