#include "core/dispersion_using_map.h"

#include <algorithm>
#include <vector>

#include "core/algorithm_common.h"
#include "core/protocol_msgs.h"
#include "explore/covering_walk.h"
#include "util/flat_hash.h"
#include "util/smallvec.h"

namespace bdg::core {
namespace {

using sim::Ctx;
using sim::RobotId;
using sim::Task;

/// Per-round status payloads. Built once per run as pooled shared blocks:
/// the phase-3 hot path (every settled robot beacons every round) then
/// broadcasts at zero copies — each send is a refcount bump on one block.
constexpr std::int64_t kSettledPayload[] = {kStateSettled};
constexpr std::int64_t kToBeSettledPayload[] = {kStateToBeSettled};

/// Sorted-unique inline id set: the per-round claim sets are tiny (co-
/// located robots), so sort+dedup on an inline buffer replaces std::set.
using IdVec = bdg::util::SmallVec<RobotId, 16>;

void sort_unique(IdVec& v) {
  std::sort(v.begin(), v.end());
  const auto it = std::unique(v.begin(), v.end());
  while (v.end() != it) v.pop_back();
}

bool contains(const IdVec& v, RobotId id) {
  return std::binary_search(v.begin(), v.end(), id);
}

/// Settled loop: beacon STATUS(Settled) every round until the phase ends.
Task<void> settled_beacon(Ctx ctx, Round remaining) {
  const util::PayloadRef beacon = ctx.make_payload(kSettledPayload);
  for (Round i = 0; i < remaining; i += 1) {
    ctx.broadcast_shared(kMsgStatus, beacon);
    co_await ctx.end_round(std::nullopt);
  }
}

}  // namespace

Round dispersion_phase_rounds(std::uint32_t n) {
  return 6 * Round(n) + 16;
}

Task<DispersionOutcome> run_dispersion_using_map(Ctx ctx,
                                                 DispersionParams params) {
  if (params.phase_rounds == 0)
    params.phase_rounds = dispersion_phase_rounds(ctx.n());
  const RobotId self = ctx.self();

  // A_r: per map node, the settled IDs recorded there; plus the reverse
  // index "where was this ID first recorded" used for blacklisting. Flat
  // open-addressing tables: only insert/contains/size are consumed, never
  // an ordered walk.
  std::vector<util::FlatSet<RobotId>> A(params.map.n());
  util::FlatMap<RobotId, NodeId> recorded_at;
  util::FlatSet<RobotId> B;  // blacklist B_r

  const auto tour = dfs_tour(params.map, params.map_root);
  std::size_t tour_i = 0;
  NodeId v = params.map_root;
  std::uint64_t used = 0;

  // Round-scratch id sets; coroutine-frame locals, so capacity persists
  // across rounds and the decision loop stops allocating after warmup.
  IdVec settled_claims, tbs_claims, heard, valid_settlers, announced, visible;
  const util::PayloadRef tbs_beacon = ctx.make_payload(kToBeSettledPayload);
  const util::PayloadRef intent_beacon = ctx.make_payload({});

  DispersionOutcome out;
  while (used < params.phase_rounds) {
    // ---- one decision round at map node v -------------------------------
    // Sub-round 0: status beacons.
    ctx.broadcast_shared(kMsgStatus, tbs_beacon);
    co_await ctx.next_subround();  // sub 1: read status

    settled_claims.clear();
    tbs_claims.clear();
    heard.clear();
    for (const sim::Msg& m : ctx.inbox()) {
      if (m.kind != kMsgStatus || m.data.size() != 1) continue;
      heard.push_back(m.claimed);
      if (m.data[0] == kStateSettled)
        settled_claims.push_back(m.claimed);
      else
        tbs_claims.push_back(m.claimed);
    }
    sort_unique(heard);
    sort_unique(settled_claims);
    sort_unique(tbs_claims);
    // Step 4a: a robot recorded settled elsewhere that is heard here moved;
    // blacklist it. (A settled robot never changes position or state.)
    for (const RobotId id : heard) {
      const NodeId* at = recorded_at.find(id);
      if (at != nullptr && *at != v) B.insert(id);
    }
    // Recorded settlers claiming tobeSettled changed state: blacklist.
    for (const RobotId id : tbs_claims)
      if (recorded_at.contains(id)) B.insert(id);
    // Step 4b: recorded settlers of v that failed to beacon are Byzantine.
    // Visit order cannot leak: B is only ever queried via contains(). An
    // ordered_keys() snapshot here would allocate per round and trip the
    // PR 9 zero-alloc gate (baselines/hotpaths_alloc.csv).
    // detlint: allow(unordered-iter) order-insensitive fold, see above
    A[v].for_each([&](const RobotId id) {
      if (!contains(heard, id)) B.insert(id);
    });

    // A conflicted beacon (both states) counts as a settled claim only.
    for (std::size_t i = 0; i < tbs_claims.size();) {
      if (contains(settled_claims, tbs_claims[i]))
        tbs_claims.erase(tbs_claims.begin() + i);
      else
        ++i;
    }

    // Valid settlers currently visible at v.
    valid_settlers.clear();
    for (const RobotId id : settled_claims)
      if (!B.contains(id)) valid_settlers.push_back(id);

    // Sub-round 1: announce intent (flag = 1) if we might settle here.
    if (valid_settlers.empty()) ctx.broadcast_shared(kMsgIntent, intent_beacon);

    // Rank over the *unfiltered* tobeSettled set (identical for every
    // honest observer; filtering by private blacklists could collide two
    // honest decision sub-rounds).
    if (!contains(tbs_claims, self))
      tbs_claims.insert(
          std::lower_bound(tbs_claims.begin(), tbs_claims.end(), self), self);
    const std::uint32_t rank = static_cast<std::uint32_t>(std::distance(
        tbs_claims.begin(),
        std::lower_bound(tbs_claims.begin(), tbs_claims.end(), self)));

    // Collect SETTLED announcements from smaller ranks while waiting for
    // sub-round 3 + rank. (We are at sub-round 1; announcements made in
    // sub-round s are readable from s+1 on.)
    announced.clear();
    while (ctx.subround() < 3 + rank) {
      co_await ctx.next_subround();
      for (const sim::Msg& m : ctx.inbox())
        if (m.kind == kMsgSettled) announced.push_back(m.claimed);
    }
    sort_unique(announced);

    // Decision: settle unless a non-blacklisted settler is visible.
    visible.clear();
    visible.assign(valid_settlers.begin(), valid_settlers.end());
    for (const RobotId id : announced)
      if (!B.contains(id) && id != self) visible.push_back(id);
    sort_unique(visible);

    if (visible.empty()) {
      ctx.broadcast(kMsgSettled);
      co_await ctx.end_round(std::nullopt);
      ++used;
      out.settled = true;
      out.settled_map_node = v;
      out.settle_round = used;
      out.blacklisted = static_cast<std::uint32_t>(B.size());
      co_await settled_beacon(ctx, params.phase_rounds - used);
      co_return out;
    }

    // Record the settlers that justified skipping (the paper's A_r[v]).
    for (const RobotId id : visible) {
      A[v].insert(id);
      const auto [at, inserted] = recorded_at.try_emplace(id);
      if (inserted) at = v;  // keep the FIRST node the id was recorded at
    }
    ++out.nodes_skipped;

    // Move along the Euler tour; wrap defensively (Lemma 4 makes one tour
    // sufficient, the wrap only matters under adversarial surprises).
    std::optional<Port> mv;
    if (!tour.empty()) {
      const TourStep step = tour[tour_i];
      tour_i = (tour_i + 1) % tour.size();
      mv = step.port;
      v = step.node;
    }
    co_await ctx.end_round(mv);
    ++used;
  }

  out.blacklisted = static_cast<std::uint32_t>(B.size());
  co_return out;
}

Task<DispersionOutcome> disperse_from_vote(Ctx ctx,
                                           std::optional<CanonicalCode> code,
                                           std::uint32_t n,
                                           Round phase_rounds) {
  auto map = code.has_value() ? decode_map(*code, n) : std::nullopt;
  if (!map.has_value()) co_return DispersionOutcome{};
  DispersionParams params{std::move(*map), 0, phase_rounds};
  const DispersionOutcome out =
      co_await run_dispersion_using_map(ctx, std::move(params));
  co_return out;
}

}  // namespace bdg::core
