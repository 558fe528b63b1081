#include "core/group_dispersion.h"

#include <algorithm>
#include <array>

#include "core/dispersion_using_map.h"
#include "core/protocol_slack.h"
#include "explore/engine_map.h"

namespace bdg::core {
namespace {

/// One group-run of map finding. Returns the code this member obtained
/// (own construction or quorum-believed broadcast).
sim::Task<std::optional<CanonicalCode>> group_run(
    sim::Ctx ctx, std::vector<sim::RobotId> agents,
    std::vector<sim::RobotId> tokens, std::uint32_t agent_quorum,
    std::uint32_t token_quorum, Round t2, std::uint32_t n) {
  std::sort(agents.begin(), agents.end());
  std::sort(tokens.begin(), tokens.end());
  explore::MapFindConfig cfg;
  cfg.agents = std::move(agents);
  cfg.tokens = std::move(tokens);
  cfg.agent_quorum = agent_quorum;
  cfg.token_quorum = token_quorum;
  cfg.round_budget = t2;
  cfg.n = n;
  const explore::MapFindOutcome out =
      co_await explore::run_map_member(ctx, std::move(cfg));
  co_return out.code;
}

struct GroupPlanConfig {
  std::vector<sim::RobotId> ids;  // sorted
  std::uint32_t n = 0;
  Round t2 = 0;
  Round gather_rounds = 0;
  std::vector<Port> rally_path;
  Round phase_rounds = 0;
};

/// Split sorted ids into three groups: the smallest floor(k/3) IDs form A,
/// the next floor(k/3) form B, the rest form C (paper Section 3.2).
std::array<std::vector<sim::RobotId>, 3> three_groups(
    const std::vector<sim::RobotId>& ids) {
  const std::size_t k = ids.size();
  const std::size_t third = k / 3;
  std::array<std::vector<sim::RobotId>, 3> g;
  g[0].assign(ids.begin(), ids.begin() + third);
  g[1].assign(ids.begin() + third, ids.begin() + 2 * third);
  g[2].assign(ids.begin() + 2 * third, ids.end());
  return g;
}

std::vector<sim::RobotId> concat(const std::vector<sim::RobotId>& a,
                                 const std::vector<sim::RobotId>& b) {
  std::vector<sim::RobotId> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

sim::Proc three_group_robot(sim::Ctx ctx, GroupPlanConfig cfg) {
  (void)co_await run_three_group_phase(ctx, cfg.ids, cfg.n, cfg.t2,
                                       cfg.phase_rounds);
}

sim::Proc sqrt_robot(sim::Ctx ctx, GroupPlanConfig cfg) {
  if (cfg.gather_rounds > 0) {
    gather::GatheringSpec spec{cfg.rally_path, cfg.gather_rounds};
    co_await gather::run_oracle_gathering(ctx, std::move(spec));
  }
  // Two halves; each side has an honest majority when f = O(sqrt n).
  const std::size_t half = cfg.ids.size() / 2;
  std::vector<sim::RobotId> agents(cfg.ids.begin(), cfg.ids.begin() + half);
  std::vector<sim::RobotId> tokens(cfg.ids.begin() + half, cfg.ids.end());
  const auto agent_q = static_cast<std::uint32_t>(agents.size() / 2 + 1);
  const auto token_q = static_cast<std::uint32_t>(tokens.size() / 2 + 1);

  auto code = co_await group_run(ctx, std::move(agents), std::move(tokens),
                                 agent_q, token_q, cfg.t2, cfg.n);
  (void)co_await disperse_from_vote(ctx, std::move(code), cfg.n,
                                    cfg.phase_rounds);
}

}  // namespace

sim::Task<bool> run_three_group_phase(sim::Ctx ctx,
                                      std::vector<sim::RobotId> ids,
                                      std::uint32_t n, Round t2,
                                      Round phase_rounds) {
  std::sort(ids.begin(), ids.end());
  const auto groups = three_groups(ids);
  const auto k = static_cast<std::uint32_t>(ids.size());
  const std::uint32_t agent_q = k / 6 + 1;
  const std::uint32_t token_q = k / 3 + 1;

  std::vector<CanonicalCode> votes;
  // Run 1: A explores, B u C is the token; then rotate (paper Sec. 3.2).
  const std::array<std::pair<int, std::pair<int, int>>, 3> runs{
      {{0, {1, 2}}, {1, {0, 2}}, {2, {1, 0}}}};
  for (const auto& [agent_g, token_gs] : runs) {
    auto code = co_await group_run(
        ctx, groups[static_cast<std::size_t>(agent_g)],
        concat(groups[static_cast<std::size_t>(token_gs.first)],
               groups[static_cast<std::size_t>(token_gs.second)]),
        agent_q, token_q, t2, n);
    if (code.has_value()) votes.push_back(*code);
  }

  const DispersionOutcome out =
      co_await disperse_from_vote(ctx, majority_code(votes), n, phase_rounds);
  co_return out.settled;
}

AlgorithmPlan plan_three_group_dispersion(const Graph& g,
                                          std::vector<sim::RobotId> ids,
                                          const gather::CostModel& cost) {
  (void)cost;
  std::sort(ids.begin(), ids.end());
  const auto n = static_cast<std::uint32_t>(g.n());
  const Round t2 = explore::default_map_window(n);
  const Round phase = dispersion_phase_rounds(n);

  AlgorithmPlan plan;
  plan.total_rounds = 3 * t2 + phase + kPlanCloseSlack;
  plan.byz_wake_round = 0;
  plan.honest = [=](sim::RobotId, NodeId) -> sim::ProgramFactory {
    GroupPlanConfig cfg;
    cfg.ids = ids;
    cfg.n = n;
    cfg.t2 = t2;
    cfg.phase_rounds = phase;
    return [cfg = std::move(cfg)](sim::Ctx c) {
      return three_group_robot(c, cfg);
    };
  };
  return plan;
}

AlgorithmPlan plan_sqrt_dispersion(const Graph& g,
                                   std::vector<sim::RobotId> ids,
                                   std::uint32_t f,
                                   const gather::CostModel& cost) {
  std::sort(ids.begin(), ids.end());
  const auto n = static_cast<std::uint32_t>(g.n());
  const Round t2 = explore::default_map_window(n);
  const Round phase = dispersion_phase_rounds(n);
  const std::uint32_t lambda =
      gather::CostModel::id_bits(ids.empty() ? 1 : ids.back());
  const Round gather_rounds = std::max<Round>(
      cost.rounds(gather::GatherKind::kSqrtHirose, n, f, lambda), 2 * g.n());

  AlgorithmPlan plan;
  plan.total_rounds = gather_rounds + t2 + phase + kPlanCloseSlack;
  plan.byz_wake_round = gather_rounds;
  plan.honest = [=, g = &g](sim::RobotId, NodeId start) -> sim::ProgramFactory {
    GroupPlanConfig cfg;
    cfg.ids = ids;
    cfg.n = n;
    cfg.t2 = t2;
    cfg.gather_rounds = gather_rounds;
    cfg.phase_rounds = phase;
    auto path = g->shortest_path_ports(start, 0);
    cfg.rally_path = path.value_or(std::vector<Port>{});
    return [cfg = std::move(cfg)](sim::Ctx c) { return sqrt_robot(c, cfg); };
  };
  return plan;
}

}  // namespace bdg::core
