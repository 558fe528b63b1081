#include "core/byzantine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/protocol_msgs.h"
#include "explore/engine_map.h"
#include "util/smallvec.h"

namespace bdg::core {

Round ChargeGate::pending(Round now) {
  while (next < sched.charged.size() && now >= sched.charged[next].second)
    ++next;
  if (next < sched.charged.size() && now >= sched.charged[next].first)
    return sched.charged[next].second - now;
  return 0;
}

Round ChargeGate::until_next(Round now) const {
  if (next >= sched.charged.size()) return Round::saturated();
  return sched.charged[next].first - now;
}

namespace {

using sim::Ctx;
using sim::Proc;

std::optional<Port> random_port(Ctx& ctx, Rng& rng) {
  if (ctx.degree() == 0) return std::nullopt;
  return static_cast<Port>(rng.below(ctx.degree()));
}

/// The schedule contract every adversary program relies on:
/// windows nonempty, sorted, disjoint, and not before the wake round. A
/// malformed schedule would silently skew sleep accounting (ChargeGate's
/// >= advance happens to swallow empty [a, a) windows, for instance), so
/// reject it loudly at construction.
void validate_schedule(const ByzSchedule& sched) {
  Round prev_end = sched.wake;
  for (const auto& [begin, end] : sched.charged) {
    if (end <= begin)
      throw std::invalid_argument(
          "ByzSchedule: charged window must be nonempty [begin, end)");
    if (begin < prev_end)
      throw std::invalid_argument(
          "ByzSchedule: charged windows must be sorted, disjoint and not "
          "before the wake round");
    prev_end = end;
  }
}

// ---------------------------------------------------------------------------
// Compiled-strategy interpreter
// ---------------------------------------------------------------------------

/// Phase length at (re-)entry. Live and bulk execution call this at the
/// same point of the op walk, so the draw (if any) lands at the same place
/// in the RNG stream either way.
std::uint64_t draw_phase_len(const CompiledStrategy::Phase& p, std::uint32_t n,
                             Rng& rng) {
  const std::uint64_t bound = p.n_scaled ? p.bound * n : p.bound;
  // Draw hoisted out of the conditional expression (detlint unsequenced-rng,
  // the PR 6 class); same draw iff bound != 0, so the sequence is unchanged.
  std::uint64_t jitter = 0;
  if (bound != 0) jitter = rng.below(bound);
  return p.base + jitter;
}

/// Payload scratch reused across every broadcast of one compiled robot:
/// the interpreter fills it in place and hands the engine a span, so the
/// live path performs no per-message allocation (the engine copies the
/// words once into a pooled block).
using PayloadBuf = util::SmallVec<std::int64_t, 8>;

void fill_payload(const std::vector<CompiledStrategy::PayloadElem>& elems,
                  Rng& rng, PayloadBuf& out) {
  out.clear();
  // Draw hoisted out of the conditional expression (detlint unsequenced-rng);
  // one below(4) per draw_below4 element, in element order, as before.
  for (const auto& e : elems) {
    std::int64_t word = e.literal;
    if (e.draw_below4) word = static_cast<std::int64_t>(rng.below(4));
    out.push_back(word);
  }
}

std::optional<Port> draw_move(CompiledStrategy::MoveRule rule, Ctx& ctx,
                              Rng& rng) {
  switch (rule) {
    case CompiledStrategy::MoveRule::kStay:
      return std::nullopt;
    case CompiledStrategy::MoveRule::kRandomPort:
      return random_port(ctx, rng);
    case CompiledStrategy::MoveRule::kChancePort:
      // Draw hoisted out of the conditional expression (detlint
      // unsequenced-rng); chance() then (iff true) random_port(), as before.
      if (rng.chance(1, 2)) return random_port(ctx, rng);
      return std::nullopt;
  }
  return std::nullopt;
}

/// The one interpreter behind every adversary. Live rounds walk the op
/// list; replayed (fast-forwarded) rounds run its per-phase digest, which
/// draws and counts exactly what one walk does, and so do the rounds the
/// engine steps under the plan each live round parks with (rounds in which
/// no robot at the adversary's node can hear it; the interpreter never
/// reads its inbox). So bulk execution (parked via end_round_ambient,
/// replaying the rounds the engine skipped, stepped by the engine where
/// unheard) and live execution (an observer is attached, so the engine
/// resumes the robot in every round) agree bit-for-bit on RNG draw order,
/// message contents and order, move timing and charged-window sleeps; only
/// simulated_rounds, resumes and wall clock differ (and an engine-stepped
/// round counts the resumes of the live round it stands for).
Proc run_compiled(Ctx ctx, CompiledStrategy cs, ByzSchedule sched,
                  std::vector<sim::RobotId> peers, Rng rng) {
  using LenRule = CompiledStrategy::LenRule;
  using OpKind = CompiledStrategy::OpKind;
  // An empty program (crash) finishes at its first resume, before the
  // wake sleep: it never wakes the engine again.
  if (cs.phases.empty()) co_return;
  ChargeGate gate{std::move(sched)};
  if (gate.sched.wake != 0) co_await ctx.sleep_rounds(gate.sched.wake);

  // kDrawOnce lengths are drawn once, right after the wake sleep and
  // before the first active round, in live and bulk execution alike.
  std::vector<std::uint64_t> once_len(cs.phases.size(), 0);
  for (std::size_t i = 0; i < cs.phases.size(); ++i)
    if (cs.phases[i].len == LenRule::kDrawOnce)
      once_len[i] = draw_phase_len(cs.phases[i], ctx.n(), rng);

  // Broadcast payloads have a tiny value space: literal-only payloads are
  // round-invariant, and a payload with ONE draw_below4 element takes just
  // 4 values. Pool every such variant ONCE and re-broadcast the shared
  // block, so each send is a refcount bump instead of a block build and
  // the receiver-side content fingerprint is memoized for the strategy's
  // whole lifetime. Indexed [phase][op]: 1 block = literal-only, 4 blocks
  // = single-draw (indexed by the drawn value), empty = multi-draw ops,
  // which keep the fill-and-copy path. The RNG stream is bit-identical:
  // the live path draws below(4) exactly where fill_payload would.
  std::vector<std::vector<util::SmallVec<util::PayloadRef, 4>>>
      shared_payloads(cs.phases.size());
  // Replay digest per phase: one round of the op walk as the below()
  // bounds it draws, in order, plus the broadcasts it emits. A victim draw
  // is below(|peers|) and needs a peer; a spoof fires (drawing its payload
  // and counting) only once a victim was drawn this round. Fast-forwarded
  // rounds replay from it (one range effect when it draws nothing and the
  // phase stays put, else through Ctx::ambient_walk), and the engine steps
  // unheard rounds from it (activations: the resumes of one live round,
  // one per sub-round it runs in).
  struct ReplayDigest {
    std::vector<std::uint64_t> draws;
    std::uint64_t emitted = 0;
    std::uint32_t activations = 1;
  };
  std::vector<ReplayDigest> replay_digest(cs.phases.size());
  {
    PayloadBuf lit;
    for (std::size_t pi = 0; pi < cs.phases.size(); ++pi) {
      const auto& ops = cs.phases[pi].ops;
      shared_payloads[pi].resize(ops.size());
      ReplayDigest& rd = replay_digest[pi];
      bool have_victim = false;
      for (std::size_t oi = 0; oi < ops.size(); ++oi) {
        const CompiledStrategy::Op& op = ops[oi];
        if (op.kind == OpKind::kNextSubround) ++rd.activations;
        if (op.kind == OpKind::kDrawVictim && !peers.empty()) {
          rd.draws.push_back(peers.size());
          have_victim = true;
        }
        if (op.kind != OpKind::kBroadcast && op.kind != OpKind::kSpoofBroadcast)
          continue;
        const std::size_t draws = static_cast<std::size_t>(
            std::count_if(op.payload.begin(), op.payload.end(),
                          [](const auto& e) { return e.draw_below4; }));
        if (op.kind == OpKind::kBroadcast || have_victim) {
          rd.draws.insert(rd.draws.end(), draws, 4);
          ++rd.emitted;
        }
        if (draws > 1) continue;
        for (std::int64_t v = 0; v < (draws == 0 ? 1 : 4); ++v) {
          lit.clear();
          for (const auto& e : op.payload)
            lit.push_back(e.draw_below4 ? v : e.literal);
          shared_payloads[pi][oi].push_back(
              ctx.make_payload({lit.data(), lit.size()}));
        }
      }
    }
  }

  std::size_t phase = 0;
  std::uint64_t left = 0;  // rounds left in the phase (kForever: unused)
  bool finished = false;

  // Enter phases from `phase` on until one grants a nonzero budget.
  // kDrawEachEntry draws here. Live and bulk rounds both end by calling
  // this, and no draw can intervene between a phase's final round and the
  // next phase's entry, so the draw lands at the same point either way.
  const auto enter_phase = [&](bool advance) {
    if (finished) return;
    if (advance) ++phase;
    for (std::size_t tries = 0; tries <= cs.phases.size(); ++tries) {
      if (phase >= cs.phases.size()) {
        if (!cs.loop) {
          finished = true;
          return;
        }
        phase = 0;
      }
      const CompiledStrategy::Phase& p = cs.phases[phase];
      switch (p.len) {
        case LenRule::kForever:
          left = 0;
          return;
        case LenRule::kFixed:
          left = p.base;
          break;
        case LenRule::kDrawOnce:
          left = once_len[phase];
          break;
        case LenRule::kDrawEachEntry:
          left = draw_phase_len(p, ctx.n(), rng);
          break;
      }
      if (left != 0) return;
      ++phase;  // zero-length phase: skip
    }
    finished = true;  // every phase empty: nothing to ever do
  };
  enter_phase(/*advance=*/false);

  Round now = ctx.round();  // next round this robot owes an action for
  for (;;) {
    if (finished) co_return;
    if (now < ctx.round()) {
      // ----- replay: `now` was fast-forwarded past while parked -------
      if (const Round d = gate.pending(now); d != Round(0)) {
        // Live execution sleeps out this charged stretch: no draws,
        // no messages, no moves. Jump the cursor.
        const Round horizon = ctx.round() - now;
        now += d < horizon ? d : horizon;
        continue;
      }
      // Replay the stretch up to the gap's end, the next charged window
      // and the phase budget, whichever comes first.
      const CompiledStrategy::Phase& p = cs.phases[phase];
      Round span = ctx.round() - now;
      if (const Round c = gate.until_next(now); c < span) span = c;
      if (p.len != LenRule::kForever && Round(left) < span) span = Round(left);
      std::uint64_t steps = span.fits_u64()
                                ? span.low_u64()
                                : std::numeric_limits<std::uint64_t>::max();
      const ReplayDigest& rd = replay_digest[phase];
      if (rd.draws.empty() && p.move == CompiledStrategy::MoveRule::kStay) {
        // Draw-free stationary phase: the stretch is ONE range effect,
        // chunked so the message product stays in 64 bits while the
        // resume budget still bounds pathological gaps.
        steps = std::min<std::uint64_t>(steps, 1ULL << 32);
        ctx.ambient_round(std::nullopt, steps * rd.emitted);
      } else {
        ctx.ambient_walk(steps, rd.draws, p.move, rd.emitted, rng);
      }
      now += Round(steps);
      if (p.len != LenRule::kForever && (left -= steps) == 0)
        enter_phase(/*advance=*/true);
      continue;
    }
    // ----- live: the engine is simulating round `now` -----------------
    if (ctx.draining()) {
      co_await ctx.end_round_ambient(std::nullopt);
      now = ctx.round();
      continue;
    }
    if (const Round d = gate.pending(now); d != Round(0)) {
      co_await ctx.sleep_rounds(d);
      now = ctx.round();
      continue;
    }
    {
      const CompiledStrategy::Phase& p = cs.phases[phase];
      sim::RobotId victim = 0;
      bool have_victim = false;
      PayloadBuf words;  // refilled per op; draws happen in fill order
      const auto& shared = shared_payloads[phase];
      for (std::size_t oi = 0; oi < p.ops.size(); ++oi) {
        const CompiledStrategy::Op& op = p.ops[oi];
        switch (op.kind) {
          case OpKind::kDrawVictim:
            if (!peers.empty()) {
              victim = peers[rng.below(peers.size())];
              have_victim = true;
            }
            break;
          case OpKind::kBroadcast:
            if (const auto& blocks = shared[oi]; blocks.size() == 1) {
              ctx.broadcast_shared(op.msg_kind, blocks[0]);
            } else if (blocks.size() == 4) {
              ctx.broadcast_shared(op.msg_kind, blocks[rng.below(4)]);
            } else {
              fill_payload(op.payload, rng, words);
              ctx.broadcast(op.msg_kind, {words.data(), words.size()});
            }
            break;
          case OpKind::kSpoofBroadcast:
            if (have_victim) {
              if (const auto& blocks = shared[oi]; blocks.size() == 1) {
                ctx.spoof_broadcast_shared(victim, op.msg_kind, blocks[0]);
              } else if (blocks.size() == 4) {
                ctx.spoof_broadcast_shared(victim, op.msg_kind,
                                           blocks[rng.below(4)]);
              } else {
                fill_payload(op.payload, rng, words);
                ctx.spoof_broadcast(victim, op.msg_kind,
                                    {words.data(), words.size()});
              }
            }
            break;
          case OpKind::kNextSubround:
            co_await ctx.next_subround();
            break;
        }
      }
      // Let the engine step the following rounds while nobody can hear
      // this robot, up to the phase's end and the next charged window
      // (at least one round away: gate.pending(now) was 0).
      const ReplayDigest& rd = replay_digest[phase];
      const Round c = gate.until_next(now) - Round(1);
      std::uint64_t horizon = c.fits_u64()
                                  ? c.low_u64()
                                  : std::numeric_limits<std::uint64_t>::max();
      if (p.len != LenRule::kForever) horizon = std::min(horizon, left - 1);
      const sim::AmbientPlan plan{rd.draws,       p.move, rd.emitted,
                                  rd.activations, &rng,   horizon};
      // Draw hoisted out of the co_await (detlint unsequenced-rng).
      const std::optional<Port> move = draw_move(p.move, ctx, rng);
      // This round plus the ones stepped for it; a phase that ran out is
      // entered here, before any later draw, as in per-round execution.
      const std::uint64_t rounds =
          1 + co_await ctx.end_round_ambient(move, &plan);
      now += Round(rounds);
      if (p.len != LenRule::kForever && (left -= rounds) == 0)
        enter_phase(/*advance=*/true);
    }
  }
}

}  // namespace

std::string to_string(ByzStrategy s) {
  switch (s) {
    case ByzStrategy::kCrash: return "crash";
    case ByzStrategy::kRandomWalker: return "random_walker";
    case ByzStrategy::kSquatter: return "squatter";
    case ByzStrategy::kFakeSettler: return "fake_settler";
    case ByzStrategy::kSilentSettler: return "silent_settler";
    case ByzStrategy::kIntentSpammer: return "intent_spammer";
    case ByzStrategy::kMapLiar: return "map_liar";
    case ByzStrategy::kSpoofer: return "spoofer";
  }
  // An out-of-range value is corrupted or foreign data (a checkpoint from
  // a future strategy set): a silent "unknown" would round-trip through
  // strategy_from_string to nullopt and quietly drop the record. Fail.
  throw std::invalid_argument(
      "to_string(ByzStrategy): invalid strategy value " +
      std::to_string(static_cast<int>(s)));
}

std::optional<ByzStrategy> strategy_from_string(const std::string& name) {
  // Iterate the shared registry (all weak strategies + the strong spoofer)
  // so a newly added strategy cannot fall out of sync with to_string.
  for (const ByzStrategy s : weak_strategies())
    if (to_string(s) == name) return s;
  if (to_string(ByzStrategy::kSpoofer) == name) return ByzStrategy::kSpoofer;
  return std::nullopt;
}

const std::vector<ByzStrategy>& weak_strategies() {
  static const std::vector<ByzStrategy> kAll{
      ByzStrategy::kCrash,         ByzStrategy::kRandomWalker,
      ByzStrategy::kSquatter,      ByzStrategy::kFakeSettler,
      ByzStrategy::kSilentSettler, ByzStrategy::kIntentSpammer,
      ByzStrategy::kMapLiar,
  };
  return kAll;
}

CompiledStrategy compile_strategy(ByzStrategy s) {
  using CS = CompiledStrategy;
  const auto lit = [](std::int64_t v) { return CS::PayloadElem{v, false}; };
  const CS::PayloadElem draw4{0, true};
  const auto bcast = [](std::uint32_t kind,
                        std::vector<CS::PayloadElem> payload = {}) {
    return CS::Op{CS::OpKind::kBroadcast, kind, std::move(payload)};
  };
  const auto spoof = [](std::uint32_t kind,
                        std::vector<CS::PayloadElem> payload = {}) {
    return CS::Op{CS::OpKind::kSpoofBroadcast, kind, std::move(payload)};
  };
  const CS::Op victim{CS::OpKind::kDrawVictim, 0, {}};
  const CS::Op subround{CS::OpKind::kNextSubround, 0, {}};

  CS cs;
  switch (s) {
    case ByzStrategy::kCrash:
      cs.loop = false;  // no phases: finishes at round 0, never speaks
      return cs;
    case ByzStrategy::kRandomWalker:
      cs.phases.push_back({CS::LenRule::kForever,
                           0,
                           0,
                           false,
                           {bcast(kMsgStatus, {lit(kStateToBeSettled)})},
                           CS::MoveRule::kRandomPort});
      return cs;
    case ByzStrategy::kSquatter:
      cs.phases.push_back({CS::LenRule::kForever,
                           0,
                           0,
                           false,
                           {bcast(kMsgStatus, {lit(kStateSettled)})},
                           CS::MoveRule::kStay});
      return cs;
    case ByzStrategy::kFakeSettler:
      // Claim Settled for squat_len = 2 + below(2n) rounds (drawn once),
      // then sneak hops = 1 + below(3) hops away (drawn at each entry) and
      // claim again: classic A_r bait.
      cs.phases.push_back({CS::LenRule::kDrawOnce,
                           2,
                           2,
                           /*n_scaled=*/true,
                           {bcast(kMsgStatus, {lit(kStateSettled)})},
                           CS::MoveRule::kStay});
      cs.phases.push_back({CS::LenRule::kDrawEachEntry,
                           1,
                           3,
                           false,
                           {},
                           CS::MoveRule::kRandomPort});
      return cs;
    case ByzStrategy::kSilentSettler:
      cs.phases.push_back({CS::LenRule::kFixed,
                           3,
                           0,
                           false,
                           {bcast(kMsgStatus, {lit(kStateSettled)})},
                           CS::MoveRule::kStay});
      // Then vanish from the airwaves for good: visitors that recorded us
      // must blacklist us for the missing beacon (paper step 4).
      cs.loop = false;
      return cs;
    case ByzStrategy::kIntentSpammer:
      // Announce settling without ever staying put: honest robots must
      // record us and exercise the relocation blacklist rule.
      cs.phases.push_back({CS::LenRule::kForever,
                           0,
                           0,
                           false,
                           {bcast(kMsgStatus, {lit(kStateToBeSettled)}),
                            bcast(kMsgIntent), bcast(kMsgSettled)},
                           CS::MoveRule::kRandomPort});
      return cs;
    case ByzStrategy::kMapLiar:
      // Lie on every map-finding channel at once: fake token presence,
      // fake instructions, garbage map codes.
      cs.phases.push_back(
          {CS::LenRule::kForever,
           0,
           0,
           false,
           {bcast(explore::kMsgTokenHere),
            bcast(explore::kMsgInstr,
                  {lit(static_cast<std::int64_t>(explore::MapOp::kTMove)),
                   draw4}),
            bcast(explore::kMsgMapCode, {lit(1), lit(0)}), subround,
            bcast(explore::kMsgTokenHere)},
           CS::MoveRule::kChancePort});
      return cs;
    case ByzStrategy::kSpoofer: {
      // Forge votes under several peers' identities on all channels.
      CS::Phase p;
      p.len = CS::LenRule::kForever;
      p.move = CS::MoveRule::kChancePort;
      for (int i = 0; i < 3; ++i) {
        p.ops.push_back(victim);
        p.ops.push_back(spoof(kMsgStatus, {lit(kStateSettled)}));
        p.ops.push_back(spoof(explore::kMsgTokenHere));
        p.ops.push_back(spoof(
            explore::kMsgInstr,
            {lit(static_cast<std::int64_t>(explore::MapOp::kTMove)), draw4}));
        p.ops.push_back(spoof(explore::kMsgMapCode, {lit(1), lit(0)}));
        p.ops.push_back(spoof(kMsgSettled));
      }
      p.ops.push_back(subround);
      for (int i = 0; i < 2; ++i) {
        p.ops.push_back(victim);
        p.ops.push_back(spoof(explore::kMsgTokenHere));
      }
      cs.phases.push_back(std::move(p));
      cs.spoofing = true;
      return cs;
    }
  }
  throw std::invalid_argument("compile_strategy: bad strategy");
}

sim::ProgramFactory make_byzantine_program(ByzStrategy strategy,
                                           std::vector<sim::RobotId> peer_ids,
                                           std::uint64_t seed,
                                           ByzSchedule schedule) {
  validate_schedule(schedule);
  return [cs = compile_strategy(strategy), schedule = std::move(schedule),
          peers = std::move(peer_ids), seed](Ctx c) {
    // Validate at program start, before any sleep: the factory body runs
    // synchronously when the engine starts the program, so a weak robot
    // handed the spoofer aborts the run at round 0 instead of failing only
    // once its charged prefix (possibly > 2^64 rounds) finally ends.
    if (cs.spoofing && c.faultiness() != sim::Faultiness::kStrongByzantine)
      throw std::logic_error("spoofer strategy requires a strong robot");
    return run_compiled(c, cs, schedule, peers, Rng(seed));
  };
}

}  // namespace bdg::core
