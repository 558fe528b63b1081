#pragma once
// Byzantine behavior library — the adversary strategies the test suite and
// benchmarks pit against the honest protocols. A weak Byzantine robot may
// lie arbitrarily in message *payloads* and deviate from the protocol, but
// its messages always carry its true ID (engine-enforced); a strong one
// additionally forges sender IDs via Ctx::spoof_broadcast.
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/round.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace bdg::core {

enum class ByzStrategy {
  kCrash,          ///< never communicates, never moves
  kRandomWalker,   ///< wanders, beacons tobeSettled, never settles
  kSquatter,       ///< sits at its start node claiming Settled forever
  kFakeSettler,    ///< claims Settled, relocates periodically, claims again
  kSilentSettler,  ///< claims Settled once, then goes silent (step-4 bait)
  kIntentSpammer,  ///< always flags intent/settle announcements, never stays
  kMapLiar,        ///< in map finding: garbage instructions / presence lies
  kSpoofer,        ///< strong only: forges honest IDs and quorum votes
};

[[nodiscard]] std::string to_string(ByzStrategy s);

/// Inverse of to_string(ByzStrategy); nullopt for unknown names. Used by
/// the sweep checkpoint reader and the CLI mix parser.
[[nodiscard]] std::optional<ByzStrategy> strategy_from_string(
    const std::string& name);

/// All weak-compatible strategies (everything but kSpoofer).
[[nodiscard]] const std::vector<ByzStrategy>& weak_strategies();

/// When a Byzantine robot is allowed to act. During a charged oracle phase
/// (gathering / Find-Map) every honest robot is walking or sleeping out an
/// imported round bound: there is nothing to attack, and a Byzantine robot
/// that stays awake only defeats the engine's round fast-forwarding. The
/// scenario harness therefore hands each Byzantine robot its wave's wake
/// round plus the charged windows of every LATER wave (Theorem 8 wave
/// scheduling), and the program sleeps through all of them — so
/// multi-wave k > n sweeps fast-forward their oracle prefixes exactly like
/// single-wave runs.
struct ByzSchedule {
  /// First active round (end of the robot's own wave's charged prefix).
  Round wake = 0;
  /// Charged windows [begin, end) at or after `wake`, sorted and disjoint;
  /// the robot sleeps through each.
  std::vector<std::pair<Round, Round>> charged;

  ByzSchedule() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a bare wake round is a
  // schedule (the single-wave case every test and bench uses).
  ByzSchedule(Round wake_round) : wake(wake_round) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  ByzSchedule(std::uint64_t wake_round) : wake(wake_round) {}
};

/// Cursor over a schedule's charged windows. pending() returns how long to
/// sleep from `now` to clear the window containing it (0 = outside every
/// window). Windows are sorted, so the cursor only ever advances —
/// checking costs O(1) per awake round. The compiled-strategy interpreter
/// consults it in live rounds and replayed rounds alike, and uses
/// until_next to bound bulk range effects.
struct ChargeGate {
  ByzSchedule sched;
  std::size_t next = 0;

  [[nodiscard]] Round pending(Round now);
  /// Rounds from `now` until the next charged window begins; saturated
  /// when no window remains. Requires a preceding pending(now) == 0 call
  /// (the cursor must already sit on the first window at or after now).
  [[nodiscard]] Round until_next(Round now) const;
};

// ---------------------------------------------------------------------------
// Compiled strategies (range-effect IR)
// ---------------------------------------------------------------------------
//
// Every strategy is a tiny loop: emit a fixed op list each round, draw a
// move, occasionally switch phase. CompiledStrategy captures that loop as
// data — phases of round-ranges with per-round ops — and ONE interpreter
// coroutine (behind make_byzantine_program) runs it in one of two modes,
// chosen by the engine rather than by any option:
//  * bulk (no observer): the interpreter parks via Ctx::end_round_ambient
//    between rounds, so an always-broadcasting adversary never blocks the
//    engine's O(1) fast-forward over honest sleep windows. A round it does
//    not walk live is one of two kinds, both run from a per-phase digest
//    of the op list (its draws, broadcast count and resumes per round):
//     - fast-forwarded: the engine skipped the round, and the interpreter
//       replays the stretch on its next resume, as one range effect when
//       the digest draws nothing and the phase stays put, otherwise one
//       Ctx::ambient_walk call that makes the draws, counts the broadcasts
//       (suppressed) and applies the moves immediately;
//     - engine-stepped: the engine simulates the round, but no robot at
//       the adversary's node can hear it (the interpreter never reads its
//       inbox), so the engine steps the round through the same kernel
//       under the digest each live round's park passes as its AmbientPlan,
//       up to the phase's end and the next charged window, instead of
//       resuming the coroutine;
//  * live (an observer is attached): the engine turns the ambient park
//    into a plain end_round, so the robot walks the op list in every
//    round and the observer sees each of its messages and moves.
// The digest draws and counts exactly what the op walk does, so verdicts,
// rounds, moves, messages, message contents and order, RNG draw order and
// move timing are bit-identical; only simulated_rounds, resumes (a
// replayed round counts one, a live one one per sub-round it runs in),
// coroutine_resumes and wall clock differ. An engine-stepped round counts
// exactly the resumes of the live round it stands for.
struct CompiledStrategy {
  /// Payload element: a literal, or one rng.below(4) draw at emission
  /// time (draw order = element order within the op list).
  struct PayloadElem {
    std::int64_t literal = 0;
    bool draw_below4 = false;
  };
  enum class OpKind : std::uint8_t {
    kBroadcast,       ///< broadcast(msg_kind, payload)
    kSpoofBroadcast,  ///< spoof_broadcast(current victim, msg_kind, payload)
    kDrawVictim,      ///< victim = peers[below(|peers|)] (no-op if none)
    kNextSubround,    ///< advance to the next sub-round (live rounds only)
  };
  struct Op {
    OpKind kind = OpKind::kBroadcast;
    std::uint32_t msg_kind = 0;
    std::vector<PayloadElem> payload;
  };
  /// How many rounds a phase lasts when (re-)entered.
  enum class LenRule : std::uint8_t {
    kForever,        ///< never leaves the phase
    kFixed,          ///< base rounds
    kDrawOnce,       ///< base + below(bound) drawn once at program start
    kDrawEachEntry,  ///< base + below(bound) drawn at every phase entry
  };
  /// Move drawn at each round boundary of the phase (the engine's replay
  /// kernel, Ctx::ambient_walk, takes the same enum).
  using MoveRule = sim::WalkMove;
  struct Phase {
    LenRule len = LenRule::kForever;
    std::uint64_t base = 0;   ///< fixed length / draw offset
    std::uint64_t bound = 0;  ///< draw bound (0 = no draw)
    bool n_scaled = false;    ///< multiply bound by ctx.n() (fake settler)
    std::vector<Op> ops;      ///< per-round ops in emission order
    MoveRule move = MoveRule::kStay;
  };
  std::vector<Phase> phases;
  bool loop = true;      ///< cycle phases forever; false = run once, finish
  bool spoofing = false; ///< requires a strong robot (kSpoofer)
};

/// Range-effect form of `s`. kCrash compiles to an empty program
/// (loop = false): it finishes at its first resume and never wakes the
/// engine again.
[[nodiscard]] CompiledStrategy compile_strategy(ByzStrategy s);

/// Build the engine program for a Byzantine robot: compile_strategy(strategy)
/// run by the interpreter. `peer_ids` lists all robot IDs (used for
/// spoofing and targeted lies); `seed` derives the robot's private
/// randomness. The robot sleeps until schedule.wake first and stays asleep
/// through every later charged window. Throws std::invalid_argument on a
/// malformed schedule (an empty [a, a) window, unsorted/overlapping
/// windows, or a window starting before wake).
[[nodiscard]] sim::ProgramFactory make_byzantine_program(
    ByzStrategy strategy, std::vector<sim::RobotId> peer_ids,
    std::uint64_t seed, ByzSchedule schedule = {});

}  // namespace bdg::core
