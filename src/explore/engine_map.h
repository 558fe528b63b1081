#pragma once
// In-engine map finding with a movable token ([24], used by Theorems 2-7).
//
// One subroutine covers every variant in the paper:
//  * a robot PAIR (Theorems 2/3): agents = {R}, tokens = {R'}, quorums 1/1;
//  * three groups A/B/C (Theorem 4): agents = A, tokens = B u C,
//    agent quorum floor(k/6)+1, token quorum floor(k/3)+1;
//  * two halves (Theorem 5): majority quorums on each side;
//  * two halves with absolute floor(n/4) quorums (Theorems 6/7, strong
//    Byzantine robots that may fake IDs — quorums count distinct claimed
//    IDs inside the expected group, so forging needs quorum-many liars).
//
// Protocol (per round, three sub-rounds):
//   sub 0  every agent-group member broadcasts the next deterministic
//          instruction INSTR[op, port] of the shared map-building algorithm;
//   sub 1  token-group members tally instructions (>= agent_quorum distinct
//          claimed agent IDs with identical payload), obey the winner; a
//          QUERY is answered by broadcasting TOKEN_HERE;
//   sub 2  agent members tally TOKEN_HERE (>= token_quorum distinct claimed
//          token IDs); everyone commits its move for the round boundary.
//
// Safety against abandonment: every participant logs the arrival port of
// each move; when the window budget runs low it walks the reversed log,
// which provably returns it to the rally node no matter what Byzantine
// partners did. So honest robots are always back at the rally when the
// fixed-length window ends, keeping the outer protocol synchronized.
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/canonical.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace bdg::explore {

/// Message kinds (engine-global namespace: map finding owns 100..199).
enum MapMsgKind : std::uint32_t {
  kMsgInstr = 100,      ///< data = [op, port]
  kMsgTokenHere = 101,  ///< data = []
  kMsgMapCode = 102,    ///< data = canonical code of the finished map
};

/// Instruction opcodes, carried in kMsgInstr payloads.
enum class MapOp : std::int64_t {
  kTMove = 1,   ///< agents and token move through `port` together
  kAMove = 2,   ///< agents move alone (token parked elsewhere)
  kPark = 3,    ///< token parks at the current node
  kAttach = 4,  ///< token resumes traveling with the agents
  kQuery = 5,   ///< token answers TOKEN_HERE if present
  kNoop = 6,    ///< keep the round cadence without acting
  kDone = 7,    ///< map finished; MAP_CODE carries the result
};

struct MapFindConfig {
  std::vector<sim::RobotId> agents;  ///< agent-group member IDs (sorted)
  std::vector<sim::RobotId> tokens;  ///< token-group member IDs (sorted)
  std::uint32_t agent_quorum = 1;    ///< instructions believed at this count
  std::uint32_t token_quorum = 1;    ///< presence believed at this count
  core::Round round_budget = 0;      ///< fixed window length (rounds)
  std::uint32_t n = 0;               ///< known node count (map size cap)
  /// Token-side fast path for the PAIR setting (one agent, one token):
  /// close the window on the first OUT-OF-PROTOCOL silent round. Silence
  /// is in-protocol only while the token is parked (broadcasts are
  /// node-local and the agent is off probing candidates — at most ~n^2
  /// rounds for an honest agent), so the token closes immediately on
  /// unparked silence and after the probing bound on parked silence.
  /// Sound in the pair setting: silence then proves the single agent is
  /// done, aborted or Byzantine, and nothing later in the window can
  /// affect this robot's vote (tokens never vote their partner's window)
  /// or its rally-return contract (it walks its move log home and sleeps
  /// out the window). MUST stay off for the group settings: there a
  /// quorum can dip below threshold while honest agents still need token
  /// service.
  bool early_close = false;
};

/// Window length ample for an honest run on any simple n-node graph,
/// including the unconditional walk-home reserve. This is the paper's T2
/// (an O(n^3) bound for exploration with a movable token). Returned as a
/// saturating Round so the window formula itself can never wrap at large n
/// — the outer plan bounds multiply it further.
[[nodiscard]] core::Round default_map_window(std::uint32_t n);

struct MapFindOutcome {
  /// Canonical code of the constructed map, rooted at the rally node;
  /// nullopt when the run aborted (budget, inconsistency, no quorum).
  std::optional<CanonicalCode> code;
  bool aborted = false;
  std::uint64_t active_rounds = 0;  ///< rounds before going idle
  /// Set by run_map_agent_cached alone: the cached map passed every
  /// physical check of the verify-only walk (code echoes the cache).
  /// False from run_map_agent_cached means the walk hit a mismatch and
  /// the window fell back to a full rebuild (code, if any, is then a
  /// fresh self-built map); run_map_publish and the build/token runs
  /// perform no walk and always leave it false.
  bool verified_cache = false;
};

/// Agent-group member program. Must start at the rally node at the first
/// round of the window; returns after exactly cfg.round_budget rounds with
/// the robot back at the rally node.
[[nodiscard]] sim::Task<MapFindOutcome> run_map_agent(sim::Ctx ctx,
                                                      MapFindConfig cfg);

/// Token-group member program (same window contract). The returned code is
/// the one the agent group broadcast with >= agent_quorum support.
[[nodiscard]] sim::Task<MapFindOutcome> run_map_token(sim::Ctx ctx,
                                                      MapFindConfig cfg);

/// Group-run member program: run_map_agent when the robot is in
/// cfg.agents, else run_map_token (same window contract).
[[nodiscard]] sim::Task<MapFindOutcome> run_map_member(sim::Ctx ctx,
                                                       MapFindConfig cfg);

/// Agent-side window that reuses a previously self-built map instead of
/// exploring from scratch: a silent verify-only walk covers every edge of
/// `cached_map` (DFS tree advances/retreats plus out-and-back probes of
/// the non-tree edges, ~2|E| rounds instead of the full identity-test
/// build), cross-checking the physically observed arrival port and degree
/// of every move against the cache. On a clean pass the agent publishes
/// Done + the cached code exactly like a fresh build and sleeps out the
/// window (outcome.verified_cache = true). On ANY mismatch the cache is
/// untrusted: the agent walks its move log back to the rally node and
/// runs a full run_map_agent rebuild in the remaining budget — a poisoned
/// cache burns the window but can never put an unverified map into the
/// caller's vote. Same fixed-window contract as run_map_agent. NOTE: the
/// walk alone does not prove the cache correct on adversarially symmetric
/// graphs (local port/degree checks cannot always distinguish a map from
/// a consistent pseudo-cover); callers must gate caching on independent
/// evidence — the tournament only caches a code it fully built in f+1
/// distinct windows.
[[nodiscard]] sim::Task<MapFindOutcome> run_map_agent_cached(
    sim::Ctx ctx, MapFindConfig cfg, const Graph& cached_map,
    const CanonicalCode& cached_code);

/// Agent-side window fast path for a map that is already confirmed AND
/// physically self-checked: broadcast Done + `code` in the first round
/// (so an honest token partner finishes immediately too) and sleep the
/// rest of the window in one jump. Same fixed-window contract; the robot
/// never leaves the rally node.
[[nodiscard]] sim::Task<MapFindOutcome> run_map_publish(
    sim::Ctx ctx, MapFindConfig cfg, const CanonicalCode& code);

/// Convenience: offline honest two-robot map construction (agent id 1,
/// token id 2) on `g` from `start`; used by tests and by harnesses needing
/// ground-truth maps. Returns the map (isomorphic to g, node 0 = start).
struct ReferenceMapResult {
  Graph map;
  std::uint64_t active_rounds = 0;
};
[[nodiscard]] ReferenceMapResult build_map_with_token(const Graph& g,
                                                      NodeId start);

}  // namespace bdg::explore
