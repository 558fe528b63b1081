#include "core/crash_dispersion.h"

#include <algorithm>

#include "core/dispersion_using_map.h"
#include "core/group_dispersion.h"
#include "core/protocol_slack.h"
#include "explore/covering_walk.h"
#include "explore/engine_map.h"
#include "gather/bit_epoch.h"

namespace bdg::core {
namespace {

struct CrashPlanConfig {
  std::vector<sim::RobotId> ids;
  std::uint32_t n = 0;
  Round t2 = 0;
  Round phase_rounds = 0;
  gather::BitEpochSpec gather_spec;  // per-robot tour filled in honest()
};

sim::Proc crash_real_robot(sim::Ctx ctx, CrashPlanConfig cfg) {
  // Phase 1: REAL gathering — every round simulated, crash-tolerant.
  co_await gather::run_bit_epoch_gathering(ctx, cfg.gather_spec);
  // Phases 2+3: Theorem 4's machinery from the (arbitrary) rally node.
  // Crashed robots are simply silent group members; the quorum analysis
  // treats silence no worse than lies.
  (void)co_await run_three_group_phase(ctx, cfg.ids, cfg.n, cfg.t2,
                                       cfg.phase_rounds);
}

}  // namespace

AlgorithmPlan plan_crash_real_dispersion(const Graph& g,
                                         std::vector<sim::RobotId> ids,
                                         const gather::CostModel& cost) {
  (void)cost;
  std::sort(ids.begin(), ids.end());
  const auto n = static_cast<std::uint32_t>(g.n());
  const Round t2 = explore::default_map_window(n);
  const Round phase = dispersion_phase_rounds(n);
  std::uint32_t bits = 1;
  if (!ids.empty()) bits = gather::CostModel::id_bits(ids.back());
  const auto epoch = static_cast<std::uint32_t>(2 * g.n());

  gather::BitEpochSpec proto;
  proto.epoch_len = epoch;
  proto.id_bits = bits;
  const Round gather_rounds = gather::bit_epoch_total_rounds(proto);

  AlgorithmPlan plan;
  plan.total_rounds = gather_rounds + 3 * t2 + phase + kPlanCloseSlack;
  plan.byz_wake_round = 0;  // nothing is charged; crashers are silent anyway
  plan.honest = [=, g = &g](sim::RobotId, NodeId start) -> sim::ProgramFactory {
    CrashPlanConfig cfg;
    cfg.ids = ids;
    cfg.n = n;
    cfg.t2 = t2;
    cfg.phase_rounds = phase;
    cfg.gather_spec = proto;
    cfg.gather_spec.tour = covering_walk_ports(*g, start);
    return [cfg = std::move(cfg)](sim::Ctx c) {
      return crash_real_robot(c, cfg);
    };
  };
  return plan;
}

}  // namespace bdg::core
