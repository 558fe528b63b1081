#include "explore/engine_map.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/protocol_slack.h"
#include "explore/group_map.h"
#include "explore/token_map.h"

namespace bdg::explore {
namespace {

using sim::Ctx;
using sim::Task;

/// Shared state of one agent-side window run.
struct AgentRun {
  Ctx ctx;
  MapFindConfig cfg;
  PartialMap pm;
  NodeId map_pos = 0;          ///< agent's node in the partial map
  std::uint64_t used = 0;      ///< rounds consumed inside the window
  std::vector<Port> home;      ///< arrival ports of every move (walk-home log)
  bool failed = false;         ///< inconsistency detected -> abort
  // Reusable per-window buffers: route/candidate computation in the hot
  // exploration loop stops allocating after warmup. travel_buf serves the
  // non-nested travel legs; probe_route_buf the routes inside the
  // candidate loop, which iterates cands_buf concurrently.
  std::vector<Port> travel_buf, probe_route_buf;
  std::vector<NodeId> cands_buf;

  AgentRun(Ctx c, MapFindConfig f) : ctx(c), cfg(std::move(f)), pm(c.degree()) {}

  /// Rounds still guaranteed to suffice for one more op plus walking home.
  [[nodiscard]] bool can_spend() const {
    return core::Round(used + home.size() + core::kAgentOpReserve) <=
           cfg.round_budget;
  }
};

/// One protocol round from the agent side: instruct at sub 0, collect token
/// presence votes at sub 2, move at the round boundary. Returns whether the
/// token group attested presence with quorum support.
Task<bool> a_round(AgentRun& r, MapOp op, Port port) {
  const std::int64_t instr[2] = {static_cast<std::int64_t>(op),
                                 static_cast<std::int64_t>(port)};
  r.ctx.broadcast(kMsgInstr, instr);
  co_await r.ctx.next_subround();  // sub 1: token side acts
  co_await r.ctx.next_subround();  // sub 2: read presence votes
  const bool here =
      presence_support(r.ctx.inbox(), kMsgTokenHere, r.cfg.tokens) >=
      r.cfg.token_quorum;
  std::optional<Port> mv;
  if (op == MapOp::kTMove || op == MapOp::kAMove) mv = port;
  co_await r.ctx.end_round(mv);
  ++r.used;
  if (mv.has_value()) r.home.push_back(r.ctx.arrival_port());
  co_return here;
}

/// Move along an already-explored map edge, cross-checking the observed
/// arrival port and degree against the map; any mismatch proves a past lie
/// by the token group and aborts the run.
Task<void> a_move_known(AgentRun& r, Port s, bool with_token) {
  const HalfEdge expect = r.pm.hop(r.map_pos, s);
  (void)co_await a_round(r, with_token ? MapOp::kTMove : MapOp::kAMove, s);
  if (r.ctx.arrival_port() != expect.reverse ||
      r.ctx.degree() != r.pm.degree(expect.to)) {
    r.failed = true;
    co_return;
  }
  r.map_pos = expect.to;
}

/// Unconditional return to the rally node: replay the reversed move log.
/// Works regardless of how corrupted the map is, because the log records
/// physically performed moves.
Task<void> walk_home(Ctx ctx, std::vector<Port>& home, std::uint64_t& used) {
  while (!home.empty()) {
    const Port p = home.back();
    home.pop_back();
    co_await ctx.end_round(p);
    ++used;
  }
}

Task<void> idle_rest(Ctx ctx, std::uint64_t used, core::Round budget) {
  if (core::Round(used) < budget) co_await ctx.sleep_rounds(budget - used);
}

/// The one-round Done handshake every agent-side window ends with: publish
/// Done + the map code in the same sub-round 0 (token-group members read
/// both from one inbox), then finish the round. Consumes exactly one round.
Task<void> publish_done(Ctx ctx, const CanonicalCode& code) {
  const std::int64_t done[2] = {static_cast<std::int64_t>(MapOp::kDone), 0};
  const std::vector<std::int64_t> words(code.begin(), code.end());
  ctx.broadcast(kMsgInstr, done);
  ctx.broadcast(kMsgMapCode, words);
  co_await ctx.next_subround();
  co_await ctx.next_subround();
  co_await ctx.end_round(std::nullopt);
}

std::optional<CanonicalCode> code_from_payload(
    std::span<const std::int64_t> data) {
  CanonicalCode code;
  code.reserve(data.size());
  for (std::int64_t v : data) {
    if (v < 0 || v > static_cast<std::int64_t>(UINT32_MAX)) return std::nullopt;
    code.push_back(static_cast<std::uint32_t>(v));
  }
  return code;
}

/// One round of the verify-only walk: move through `out`, expecting to
/// arrive through `arrive` at a node of degree `far_deg`.
struct VerifyStep {
  Port out;
  Port arrive;
  std::uint32_t far_deg;
};

/// Closed walk from `root` covering every edge of `m`: DFS tree edges are
/// advanced and retreated (checked in both directions), non-tree edges
/// probed out-and-back — ~2|E| steps total, ending back at `root`.
std::vector<VerifyStep> verify_walk_plan(const Graph& m, NodeId root) {
  std::vector<VerifyStep> steps;
  std::vector<std::vector<char>> covered(m.n());
  for (NodeId v = 0; v < m.n(); ++v) covered[v].assign(m.degree(v), 0);
  std::vector<char> visited(m.n(), 0);
  visited[root] = 1;
  struct Frame {
    NodeId node;
    Port next;         ///< next port of `node` to consider
    Port parent_port;  ///< port leading back to the DFS parent
  };
  std::vector<Frame> stack{{root, 0, kNoPort}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next >= m.degree(f.node)) {
      if (f.parent_port != kNoPort) {  // retreat to the DFS parent
        const HalfEdge up = m.hop(f.node, f.parent_port);
        steps.push_back({f.parent_port, up.reverse, m.degree(up.to)});
      }
      stack.pop_back();
      continue;
    }
    const Port p = f.next++;
    if (covered[f.node][p] != 0) continue;
    const HalfEdge he = m.hop(f.node, p);
    covered[f.node][p] = 1;
    covered[he.to][he.reverse] = 1;
    steps.push_back({p, he.reverse, m.degree(he.to)});
    if (visited[he.to] == 0) {  // tree edge: descend (invalidates f)
      visited[he.to] = 1;
      stack.push_back({he.to, 0, he.reverse});
    } else {  // non-tree edge: step straight back
      steps.push_back({he.reverse, p, m.degree(f.node)});
    }
  }
  return steps;
}

}  // namespace

core::Round default_map_window(std::uint32_t n) {
  const core::Round nn = n;
  return 8 * nn * nn * nn + 64 * nn + 96;
}

Task<MapFindOutcome> run_map_agent(Ctx ctx, MapFindConfig cfg) {
  if (cfg.round_budget == 0) cfg.round_budget = default_map_window(cfg.n);
  AgentRun r(ctx, cfg);

  // Main exploration loop: resolve frontier ports one at a time.
  while (!r.failed) {
    const auto frontier = r.pm.first_unexplored();
    if (!frontier.has_value()) break;
    const auto [u, p] = *frontier;

    // 1. Travel (with the token) to the frontier node u.
    r.pm.route_into(r.map_pos, u, r.travel_buf);
    for (std::size_t i = 0; i < r.travel_buf.size(); ++i) {
      if (!r.can_spend()) r.failed = true;
      if (r.failed) break;
      co_await a_move_known(r, r.travel_buf[i], /*with_token=*/true);
    }
    if (r.failed) break;

    // 2. Step through the frontier port; observe the far endpoint.
    if (!r.can_spend()) break;
    (void)co_await a_round(r, MapOp::kTMove, p);
    const std::uint32_t wdeg = r.ctx.degree();
    const Port q = r.ctx.arrival_port();

    r.pm.candidates_into(wdeg, q, r.cands_buf);
    if (r.cands_buf.empty()) {
      // Certainly a new node: no known node could be its far side.
      if (r.pm.size() >= cfg.n) {  // token group lied somewhere
        r.failed = true;
        break;
      }
      const NodeId w = r.pm.add_node(wdeg);
      r.pm.connect(u, p, w, q);
      r.map_pos = w;
      continue;
    }

    // 3. Identity test: park the token at the far endpoint, walk back, and
    //    probe each candidate for its presence.
    if (!r.can_spend()) break;
    (void)co_await a_round(r, MapOp::kPark, 0);
    if (!r.can_spend()) break;
    (void)co_await a_round(r, MapOp::kAMove, q);  // back over the same edge
    if (r.ctx.arrival_port() != p || r.ctx.degree() != r.pm.degree(u)) {
      r.failed = true;
      break;
    }
    r.map_pos = u;

    NodeId found = kNoNode;
    for (std::size_t ci = 0; ci < r.cands_buf.size(); ++ci) {
      const NodeId x = r.cands_buf[ci];
      r.pm.route_into(r.map_pos, x, r.probe_route_buf);
      for (std::size_t i = 0; i < r.probe_route_buf.size(); ++i) {
        if (!r.can_spend()) r.failed = true;
        if (r.failed) break;
        co_await a_move_known(r, r.probe_route_buf[i], /*with_token=*/false);
      }
      if (r.failed || !r.can_spend()) break;
      if (co_await a_round(r, MapOp::kQuery, 0)) {
        found = x;
        break;
      }
    }
    if (r.failed) break;

    if (found != kNoNode) {
      r.pm.connect(u, p, found, q);
      r.map_pos = found;
      if (!r.can_spend()) break;
      (void)co_await a_round(r, MapOp::kAttach, 0);
      continue;
    }

    // 4. No candidate held the token: the far endpoint is new. Return to u,
    //    re-enter it, and pick the token back up.
    r.pm.route_into(r.map_pos, u, r.travel_buf);
    for (std::size_t i = 0; i < r.travel_buf.size(); ++i) {
      if (!r.can_spend()) r.failed = true;
      if (r.failed) break;
      co_await a_move_known(r, r.travel_buf[i], /*with_token=*/false);
    }
    if (r.failed || !r.can_spend()) break;
    (void)co_await a_round(r, MapOp::kAMove, p);
    if (r.ctx.arrival_port() != q || r.ctx.degree() != wdeg) {
      r.failed = true;
      break;
    }
    if (r.pm.size() >= cfg.n) {
      r.failed = true;
      break;
    }
    const NodeId w = r.pm.add_node(wdeg);
    r.pm.connect(u, p, w, q);
    r.map_pos = w;
    (void)co_await a_round(r, MapOp::kAttach, 0);
  }

  MapFindOutcome out;
  if (!r.failed && r.pm.complete()) {
    const CanonicalCode code = rooted_code(r.pm.to_graph(), 0);
    // Publish the result so token-group members learn the map too.
    co_await publish_done(r.ctx, code);
    ++r.used;
    out.code = code;
  } else {
    out.aborted = true;
  }
  out.active_rounds = r.used;
  co_await walk_home(ctx, r.home, r.used);
  co_await idle_rest(ctx, r.used, cfg.round_budget);
  co_return out;
}

Task<MapFindOutcome> run_map_token(Ctx ctx, MapFindConfig cfg) {
  if (cfg.round_budget == 0) cfg.round_budget = default_map_window(cfg.n);
  std::uint64_t used = 0;
  std::vector<Port> home;
  std::optional<CanonicalCode> code;
  bool finished = false;
  // Early-close bookkeeping (pair setting only). Broadcasts are node-local,
  // so silence is expected exactly while the token is PARKED (the agent is
  // off probing candidates, at most ~n^2 rounds for an honest agent); any
  // other silent round proves the pair-agent is done, aborted or Byzantine.
  bool parked = false;
  std::uint64_t parked_silence = 0;
  const core::Round parked_silence_bound =
      core::Round(cfg.n) * cfg.n + 2 * core::Round(cfg.n) +
      core::kAgentOpReserve;
  // Round-invariant presence beacon, pooled once and re-sent shared.
  const util::PayloadRef token_here = ctx.make_payload({});

  while (core::Round(used) < cfg.round_budget) {
    // Leave exactly enough rounds to walk the reversed move log back to the
    // rally node, whatever Byzantine agents did.
    if (finished || cfg.round_budget - used <=
                        core::Round(home.size() + core::kTokenStepReserve))
      break;
    // Sub 1: read instructions from sub 0. Rounds without any instruction
    // at this node are silent rounds the loop would only count, so sleep
    // through them in the engine up to the last one that cannot end the
    // window: the budget's, or while parked early-close, the probing
    // bound's. An unparked early-close token listens one round, as its
    // first silent round closes the window. Rounds whose instructions come
    // from fewer than agent_quorum distinct senders are silent too:
    // believed_payload needs that many sources behind one payload, so it
    // returns nullopt, and the code below handles a nullopt round exactly
    // like a silent one.
    core::Round max_silent =
        cfg.round_budget - used -
        core::Round(home.size() + core::kTokenStepReserve) - 1;
    if (cfg.early_close)
      max_silent = parked ? std::min(max_silent, parked_silence_bound -
                                                     parked_silence)
                          : core::Round(0);
    const std::uint64_t slept =
        co_await ctx.await_delivery(kMsgInstr, max_silent, cfg.agent_quorum);
    used += slept;
    parked_silence += slept;
    const auto instr =
        believed_payload(ctx.inbox(), kMsgInstr, cfg.agents, cfg.agent_quorum);
    if (!instr.has_value() && cfg.early_close) {
      // An honest pair-agent is co-located and instructing every round
      // except while it parked us: close the window on the first
      // out-of-protocol silent round (immediately when unparked; after
      // the honest probing bound when parked), walk home and sleep the
      // idle tail in one jump instead of listening round by round.
      ++parked_silence;
      if (!parked || core::Round(parked_silence) > parked_silence_bound) {
        co_await ctx.end_round(std::nullopt);
        ++used;
        break;
      }
    } else {
      parked_silence = 0;
    }
    std::optional<Port> mv;
    if (instr.has_value() && instr->size() == 2) {
      const auto op = static_cast<MapOp>((*instr)[0]);
      const auto port = static_cast<std::uint64_t>((*instr)[1]);
      switch (op) {
        case MapOp::kTMove:
          if (port < ctx.degree()) mv = static_cast<Port>(port);
          break;
        case MapOp::kQuery:
          ctx.broadcast_shared(kMsgTokenHere, token_here);
          break;
        case MapOp::kDone: {
          const auto payload = believed_payload(ctx.inbox(), kMsgMapCode,
                                                cfg.agents, cfg.agent_quorum);
          if (payload.has_value()) code = code_from_payload(*payload);
          finished = true;
          break;
        }
        case MapOp::kPark:
          parked = true;  // agent excursions ahead: silence is in-protocol
          break;
        case MapOp::kAttach:
          parked = false;
          break;
        case MapOp::kAMove:
        case MapOp::kNoop:
          break;  // the token only moves on TMove
      }
    }
    co_await ctx.end_round(mv);
    ++used;
    if (mv.has_value()) home.push_back(ctx.arrival_port());
  }

  MapFindOutcome out;
  out.code = code;
  out.aborted = !code.has_value();
  out.active_rounds = used;
  co_await walk_home(ctx, home, used);
  co_await idle_rest(ctx, used, cfg.round_budget);
  co_return out;
}

Task<MapFindOutcome> run_map_member(Ctx ctx, MapFindConfig cfg) {
  // A plain function handing back the chosen task: no co_await inside a
  // conditional expression, which GCC miscompiles (it frees the temporary
  // task frame early).
  if (std::binary_search(cfg.agents.begin(), cfg.agents.end(), ctx.self()))
    return run_map_agent(ctx, std::move(cfg));
  return run_map_token(ctx, std::move(cfg));
}

Task<MapFindOutcome> run_map_agent_cached(Ctx ctx, MapFindConfig cfg,
                                          const Graph& cached_map,
                                          const CanonicalCode& cached_code) {
  if (cfg.round_budget == 0) cfg.round_budget = default_map_window(cfg.n);
  std::uint64_t used = 0;
  std::vector<Port> home;
  const auto can_spend = [&] {
    return core::Round(used + home.size() + core::kAgentOpReserve) <=
           cfg.round_budget;
  };
  bool mismatch =
      cached_map.n() != cfg.n || ctx.degree() != cached_map.degree(0);
  if (!mismatch) {
    const std::vector<VerifyStep> plan = verify_walk_plan(cached_map, 0);
    for (const VerifyStep& s : plan) {
      if (!can_spend()) {
        mismatch = true;
        break;
      }
      // The walk is silent: its moves are checked against physical ground
      // truth alone, and broadcasts are node-local so instructions could
      // not reach the rally-parked token partner anyway (which, in the
      // batched pair setting, early-closes its half on the first silent
      // round and sleeps).
      co_await ctx.end_round(s.out);
      ++used;
      home.push_back(ctx.arrival_port());
      if (ctx.arrival_port() != s.arrive || ctx.degree() != s.far_deg) {
        mismatch = true;
        break;
      }
    }
  }
  MapFindOutcome out;
  if (!mismatch) {
    // The closed walk ended back at the rally node with every cache edge
    // physically re-checked: publish exactly like a fresh build.
    co_await publish_done(ctx, cached_code);
    ++used;
    out.code = cached_code;
    out.verified_cache = true;
    out.active_rounds = used;
    co_await idle_rest(ctx, used, cfg.round_budget);
    co_return out;
  }
  // Mismatch (or no budget for the walk): the cache is untrusted. Replay
  // the move log back to the rally node, then rebuild from scratch in the
  // remaining budget. Within the declared adversary budget this path is
  // unreachable (only a code built in f+1 distinct windows is ever
  // cached); beyond it the rebuild runs against a token that may already
  // have closed its window, so it can abort — burning the window, which
  // is exactly the contract: a poisoned cache never reaches the vote
  // unchecked.
  co_await walk_home(ctx, home, used);
  MapFindConfig rest = cfg;
  rest.round_budget = cfg.round_budget - used;
  if (rest.round_budget <= core::Round(core::kAgentOpReserve)) {
    // Cannot happen under the default window (the walk is ~2|E| <= n^2
    // rounds of an 8n^3 budget), but a caller-shrunk budget degrades to a
    // burned window, never an unpadded one.
    out.aborted = true;
    out.active_rounds = used;
    co_await idle_rest(ctx, used, cfg.round_budget);
    co_return out;
  }
  out = co_await run_map_agent(ctx, rest);
  out.active_rounds += used;
  out.verified_cache = false;
  co_return out;
}

Task<MapFindOutcome> run_map_publish(Ctx ctx, MapFindConfig cfg,
                                     const CanonicalCode& code) {
  if (cfg.round_budget == 0) cfg.round_budget = default_map_window(cfg.n);
  co_await publish_done(ctx, code);
  MapFindOutcome out;
  out.code = code;
  out.active_rounds = 1;
  co_await idle_rest(ctx, 1, cfg.round_budget);
  co_return out;
}

namespace {

sim::Proc reference_member(Ctx ctx, MapFindConfig cfg,
                           std::shared_ptr<MapFindOutcome> out) {
  *out = co_await run_map_member(ctx, std::move(cfg));
}

}  // namespace

ReferenceMapResult build_map_with_token(const Graph& g, NodeId start) {
  sim::Engine eng(g);
  MapFindConfig cfg;
  cfg.agents = {1};
  cfg.tokens = {2};
  cfg.n = static_cast<std::uint32_t>(g.n());
  cfg.round_budget = default_map_window(cfg.n);
  auto agent_out = std::make_shared<MapFindOutcome>();
  auto token_out = std::make_shared<MapFindOutcome>();
  eng.add_robot(1, sim::Faultiness::kHonest, start,
                [=](Ctx c) { return reference_member(c, cfg, agent_out); });
  eng.add_robot(2, sim::Faultiness::kHonest, start,
                [=](Ctx c) { return reference_member(c, cfg, token_out); });
  eng.run(cfg.round_budget + core::kPlanCloseSlack);
  if (!agent_out->code.has_value())
    throw std::runtime_error("build_map_with_token: honest run failed");
  ReferenceMapResult res{graph_from_code(*agent_out->code),
                         agent_out->active_rounds};
  return res;
}

}  // namespace bdg::explore
