#pragma once
// Procedure Dispersion-Using-Map (paper Section 2.2).
//
// Each robot holds a map isomorphic to the graph and its own position on
// it. It walks the Euler tour of a DFS spanning tree of its map and, at
// every node it enters, runs the paper's rank-ordered settle decision:
//
//   * sub-round 0: everyone broadcasts STATUS(state);
//   * sub-round 1: robots with no valid settler in sight broadcast INTENT
//     (the paper's flag = 1);
//   * sub-round 3 + rank (rank = position of the robot's ID in the total
//     order over all claimed-tobeSettled IDs present — a common set for
//     every honest observer, which is what makes the device sound): the
//     robot settles unless it has seen a non-blacklisted settled claim at
//     this node (prior STATUS or a SETTLED announcement by a smaller rank
//     this round), in which case it records those IDs in A_r[v] and moves
//     on (steps 1-3 of the paper collapse into this rule).
//
// Blacklist maintenance (paper step 4): a robot recorded settled at one
// node that is ever heard at another node, or that stays silent or claims
// tobeSettled where it was recorded, is blacklisted. Lemma 2 (an honest
// robot never blacklists another honest robot) holds because honest
// settlers never move and never miss a beacon; Lemma 3 (no two honest
// robots settle on the same node) holds by the rank order; Lemma 4
// (termination within the tour) holds by the pigeonhole argument.
#include <cstdint>
#include <optional>
#include <set>

#include "core/round.h"
#include "graph/canonical.h"
#include "graph/graph.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace bdg::core {

struct DispersionParams {
  Graph map;          ///< isomorphic copy of the graph
  NodeId map_root;    ///< the robot's current node, in map coordinates
  /// Fixed phase length in rounds; every participant must use the same
  /// value (the protocol is synchronous). See dispersion_phase_rounds().
  Round phase_rounds = 0;
};

/// Default phase budget: three Euler tours plus slack (one tour suffices by
/// Lemma 4; the margin absorbs adversarial edge cases defensively).
[[nodiscard]] Round dispersion_phase_rounds(std::uint32_t n);

struct DispersionOutcome {
  bool settled = false;
  NodeId settled_map_node = kNoNode;  ///< in the robot's map coordinates
  std::uint64_t settle_round = 0;     ///< rounds into the phase
  std::uint32_t blacklisted = 0;      ///< |B_r| at the end
  std::uint32_t nodes_skipped = 0;    ///< settle opportunities passed up
};

/// Runs the procedure; consumes exactly params.phase_rounds rounds. On
/// success the robot physically sits on the node it settled at.
[[nodiscard]] sim::Task<DispersionOutcome> run_dispersion_using_map(
    sim::Ctx ctx, DispersionParams params);

/// Disperse from the rally node (map node 0) with the map code a robot's
/// vote produced. The code may be Byzantine garbage: when it is absent or
/// is not an n-node map (tolerance exceeded; the verifier flags it), the
/// robot returns unsettled at once, consuming no rounds.
[[nodiscard]] sim::Task<DispersionOutcome> disperse_from_vote(
    sim::Ctx ctx, std::optional<CanonicalCode> code, std::uint32_t n,
    Round phase_rounds);

}  // namespace bdg::core
