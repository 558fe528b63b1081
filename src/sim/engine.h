#pragma once
// Synchronous round/sub-round simulator for mobile robots on an anonymous
// port-labeled graph, implementing the paper's model (Section 1.1):
//
//  * each round, co-located robots exchange messages and compute, then all
//    robots move simultaneously along a chosen port (or stay);
//  * a round is divided into sub-rounds used only for communication and
//    local computation (the paper's synchronization device for
//    Dispersion-Using-Map); movement happens only at the round boundary;
//  * robots are anonymous to the *nodes* (nodes have no IDs), but robots
//    carry unique IDs attached to their messages; the engine enforces that
//    honest and WEAK Byzantine robots cannot fake the sender ID, while
//    STRONG Byzantine robots may claim any ID (Dieudonne-Pelc-Peleg [24]
//    strong/weak distinction);
//  * presence is observable only through messages: a silent robot is
//    invisible to co-located robots.
//
// Efficiency: scheduling is event-driven. Sleeping robots wait in a
// min-heap wake queue keyed by wake round, so stretches where every robot
// sleeps fast-forward in O(1) and each simulated round touches only the
// robots that actually run (a runnable list per sub-round, a movers list
// at the round boundary) — never the whole population. Message inboxes
// are inline-small vectors maintained with dirty-node lists, and payloads
// are refcounted pooled blocks shared by every recipient, so delivering
// and clearing costs O(active nodes), not O(n), per sub-round, with no
// allocator traffic. This lets benchmarks charge the paper's imported round
// bounds (gathering, Find-Map) without paying per-round simulation cost,
// while round accounting stays exact.
//
// Robots waiting for a quorum of messages (Ctx::await_delivery) sleep
// outside the wake queues too. They hold every round as simulated, as their
// per-round loop would, but such a round costs nothing unless something
// can reach them: with no robot due and no ambient robot parked the engine
// jumps to the earliest listener deadline or scheduled wake, a round in
// which every parked adversary was stepped (below) skips its sub-rounds,
// and per-node listener counts let a sub-round with no delivery at a
// listener's node skip the listener scan.
//
// Robots that never read their inbox can go further. A robot that parks
// ambient with an AmbientPlan (Ctx::end_round_ambient) declares what one of
// its live rounds does; in every simulated round where no robot at its node
// can hear it, the engine steps that round itself through the replay kernel
// instead of resuming the coroutine. Per-node counts decide: of readers
// (robots not done, not asleep in the wake queue and never parked with a
// plan), of parked listeners with their smallest quorum, and of armed
// robots, which bound the senders a listener can hear. So the step is
// invisible to every robot that reads, and all counts stay those of the
// per-round execution. In a round where every adversary was stepped and
// nobody else runs, each one on a reader-free node walks on, in one kernel
// call, to the first round it stands beside a reader; the engine jumps to
// the earliest such round (README, "Hearing rule and quiet stretches").
//
// Every wait is one awaitable that takes its inputs and returns what the
// engine did for the robot meanwhile: end_round_ambient the rounds it
// stepped under the plan, await_delivery the rounds the robot slept.
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "core/round.h"  // header-only, no bdg_core link dependency
#include "graph/graph.h"
#include "sim/proc.h"
#include "util/flat_hash.h"
#include "util/pool.h"
#include "util/rng.h"
#include "util/smallvec.h"

namespace bdg::sim {

using RobotId = std::uint64_t;
/// Round counts are saturating 128-bit everywhere: the charged bounds the
/// engine fast-forwards (exponential gathering, theory-model charges)
/// exceed 64 bits long before the sweep grids' largest n.
using core::Round;

enum class Faultiness : std::uint8_t {
  kHonest,
  kWeakByzantine,
  kStrongByzantine,
};

/// Message broadcast to co-located robots; delivered in the next sub-round
/// to every robot present at the same node (including the sender).
struct Msg {
  RobotId claimed;  ///< sender ID as receivers see it (engine-enforced for
                    ///< honest/weak robots)
  /// Anonymous physical-sender tag. The paper inherits the exposed-memory
  /// communication model of [24]: a strong Byzantine robot can fake the ID
  /// written in its memory, but it still presents exactly one memory to
  /// co-located readers. Quorum counts are therefore per physical robot
  /// ("even if Byzantine robots duplicate IDs, still as a group they can
  /// not make it equal to floor(n/4)", Theorem 6). Protocols may use this
  /// tag ONLY to count distinct sources within a single inbox — never to
  /// identify or track a robot across rounds.
  std::uint32_t source = 0;
  std::uint32_t kind = 0;
  /// Shared refcounted payload: all recipients of one broadcast (and a
  /// sender re-broadcasting across rounds via broadcast_shared) hold
  /// references to ONE pooled block. Compares by contents like the
  /// std::vector it replaced; view() yields the words as a span.
  util::PayloadRef data;
};

/// A node's delivered inbox as Ctx::inbox returns it: the messages, and
/// the delivery that put them there. `delivery` is engine-assigned: a number
/// no other sub-round delivery of any engine on this thread shares, and 0
/// for an inbox no engine delivered (a hand-built one). Within one delivery
/// an inbox's address, length and contents are fixed, so (delivery,
/// address) keys memoized inbox-derived computations exactly
/// (explore/group_map.cpp's vote tallies), which never memoize delivery 0.
struct InboxView : std::span<const Msg> {
  InboxView(std::span<const Msg> msgs, std::uint64_t from = 0)
      : std::span<const Msg>(msgs), delivery(from) {}
  std::uint64_t delivery = 0;
};

class Engine;

/// Move drawn at each round of a replayed stretch (Ctx::ambient_walk); the
/// compiled adversaries' per-phase move rule is this same enum.
enum class WalkMove : std::uint8_t {
  kStay,
  kRandomPort,  ///< below(degree); stays (and draws nothing) at degree 0
  kChancePort,  ///< chance(1,2), then kRandomPort on success
};

/// The replay kernel's fused path (Ctx::ambient_walk) takes chance walks
/// of at least kWalkFusedMin steps, in blocks of kWalkFusedBlock; shorter
/// stretches would spend most of it filling and draining its pipeline.
inline constexpr std::uint32_t kWalkFusedBlock = 256;
inline constexpr std::uint64_t kWalkFusedMin = 2 * kWalkFusedBlock;

/// One live round of a parked ambient robot, declared so the engine can
/// step the round itself while no robot at the robot's node can hear it
/// (passed to Ctx::end_round_ambient). A stepped round makes the draws,
/// move and message count of one ambient_walk step and adds `activations`
/// resumes.
struct AmbientPlan {
  std::span<const std::uint64_t> draws;  ///< below() bounds, in draw order
  WalkMove move = WalkMove::kStay;
  std::uint64_t emitted = 0;  ///< broadcasts per live round
  /// Resumes one live round costs: 1 plus its next_subround() calls.
  std::uint32_t activations = 1;
  Rng* rng = nullptr;  ///< the generator the live round draws from
  /// Most rounds the engine may step before the robot must run again (its
  /// phase's remaining budget, the start of a charged window).
  std::uint64_t horizon = 0;
};

/// Capability handle passed to a robot program. Valid only while its
/// coroutine is being resumed by the engine.
class Ctx {
 public:
  // --- identity & model constants -------------------------------------
  [[nodiscard]] RobotId self() const;
  [[nodiscard]] Faultiness faultiness() const;
  /// Number of graph nodes (robots know n; paper model).
  [[nodiscard]] std::uint32_t n() const;

  // --- local observation ------------------------------------------------
  /// Degree of the current node (a robot always knows the ports 0..deg-1).
  [[nodiscard]] std::uint32_t degree() const;
  /// Port of the current node through which the robot entered on its last
  /// move; kNoPort if it has not moved yet or stayed.
  [[nodiscard]] Port arrival_port() const;
  [[nodiscard]] Round round() const;
  [[nodiscard]] std::uint32_t subround() const;
  /// Messages broadcast at this node in the previous sub-round. The view
  /// is valid for the current sub-round only (delivery recycles buffers).
  /// A robot that ever parked with an AmbientPlan must never call it: the
  /// engine stopped counting it as a reader.
  [[nodiscard]] InboxView inbox() const;

  // --- actions ------------------------------------------------------------
  /// Broadcast to co-located robots; delivered next sub-round. The sender
  /// ID is the robot's true ID (enforced). The words are copied once into
  /// a pooled block shared by every recipient.
  void broadcast(std::uint32_t kind, std::span<const std::int64_t> data = {});
  /// Build a pooled payload once; re-broadcast it any number of times with
  /// broadcast_shared at zero copies (each send is a refcount bump). The
  /// beacon loops (settled robots announcing every round) are the intended
  /// callers.
  [[nodiscard]] util::PayloadRef make_payload(
      std::span<const std::int64_t> data);
  /// Broadcast an already-built pooled payload; copy-free. Receivers cannot
  /// tell it from broadcast() of the same words.
  void broadcast_shared(std::uint32_t kind, const util::PayloadRef& payload);
  /// Broadcast with a forged sender ID. Only strong Byzantine robots may
  /// call this; the engine throws std::logic_error otherwise.
  void spoof_broadcast(RobotId claimed, std::uint32_t kind,
                       std::span<const std::int64_t> data = {});
  /// Spoof an already-built pooled payload; copy-free (the shared analogue
  /// of broadcast_shared, for round-invariant forged payloads). Same check.
  void spoof_broadcast_shared(RobotId claimed, std::uint32_t kind,
                              const util::PayloadRef& payload);

  // --- awaitables ----------------------------------------------------------
  /// Suspend until the next sub-round of the same round. If the current
  /// sub-round is the last, the robot stays put this round and resumes at
  /// sub-round 0 of the next round.
  [[nodiscard]] auto next_subround();
  /// Finish this round, moving through `port` at the round boundary
  /// (std::nullopt = stay). Resumes at sub-round 0 of the next round.
  [[nodiscard]] auto end_round(std::optional<Port> port);
  /// Stay put and skip `rounds` full rounds (counting the current one);
  /// resumes at sub-round 0. sleep_rounds(1) == end_round(nullopt) with no
  /// further sub-round participation this round. A saturated duration
  /// sleeps past any feasible run budget (the robot never runs again).
  [[nodiscard]] auto sleep_rounds(Round rounds);
  /// Finish this round like end_round, but park "ambient": the robot is
  /// re-run in EVERY simulated round — whatever its number — instead of
  /// holding the engine awake each round. Parked robots live outside both
  /// wake queues, so stretches where every queued robot sleeps still
  /// fast-forward in O(1); on resume ctx.round() may have jumped, and the
  /// program is responsible for replaying the skipped rounds (see
  /// ambient_round and ambient_walk) so its RNG draws, moves and message
  /// totals stay bit-identical to the per-round execution. Compiled
  /// Byzantine strategies (core/byzantine.h) are the intended caller.
  /// Ambient robots never keep the run alive by themselves (matching the
  /// rule that Byzantine programs that never finish do not block
  /// completion).
  /// While an observer is attached the park is a plain end_round(port):
  /// the robot runs live in every round, so the observer sees all of its
  /// messages and moves, and it never has a gap to replay or a drain.
  ///
  /// With a `plan` (nullptr: none) the robot declares what one of its live
  /// rounds does, and from then on it is not a reader: it must never call
  /// inbox() again. While it stays parked and caught up (no fast-forward
  /// gap pending), each simulated round in which no robot at its node is a
  /// reader — one that is not done and never parked with a plan — is
  /// stepped by the engine: the plan's draws and move are made from
  /// `*plan->rng` at once, its `emitted` broadcasts are counted and its
  /// `activations` resumes accounted (budgeted), at most `plan->horizon`
  /// rounds in a row. The engine copies the plan, which covers this park
  /// only; `plan->draws` and `plan->rng` must outlive it. The plan is
  /// ignored with an observer attached and when a live round needs more
  /// sub-rounds than a round has. The co_await yields the rounds stepped
  /// under it (0 without a plan): the program advances its own round
  /// cursor and phase budget by them.
  [[nodiscard]] auto end_round_ambient(std::optional<Port> port,
                                       const AmbientPlan* plan = nullptr);
  /// Called at sub-round 0: behaves like next_subround(), but the robot
  /// sleeps, staying put, through every round in which messages of `kind`
  /// from at least `min_sources` (0 counts as 1) distinct physical senders
  /// (Msg::source) do not reach its node in sub-round 0. It resumes at
  /// sub-round 1 of the first round whose sub-round 1 inbox at its node
  /// holds such a quorum, and at the latest at sub-round 1 of round
  /// ctx.round() + max_silent, whatever the inbox holds. A caller that
  /// treats a round with fewer sources like a silent one (a quorum tally
  /// that finds no winner) thus sees exactly the rounds its per-round loop
  /// would act on. The co_await yields the whole rounds slept through (0
  /// when it acted as a plain next_subround()). Those rounds count toward
  /// RunStats::resumes exactly as the per-round loop (next_subround, inbox
  /// scan, end_round) would have counted them, two per round, also when
  /// the run ends mid-wait. While any robot sleeps here the engine does not
  /// end the run for lack of scheduled robots, and rounds it jumps count as
  /// simulated (RunStats). With an observer attached, with max_silent == 0,
  /// anywhere but sub-round 0, or with fewer than two sub-rounds it is a
  /// plain next_subround().
  [[nodiscard]] auto await_delivery(std::uint32_t kind, Round max_silent,
                                    std::uint32_t min_sources = 1);

  // --- ambient replay accounting ---------------------------------------
  /// Account one fast-forwarded round on behalf of a parked ambient
  /// robot: apply an immediate hop through `port` (nullopt = stay,
  /// invalid port throws exactly like a live move) and add `messages`
  /// suppressed broadcasts to the run totals — nobody was awake to hear
  /// them, but the per-round path would still have counted them. Each
  /// call also counts toward the resume budget, so a runaway replay is
  /// caught like a livelocked coroutine. Only meaningful while the
  /// calling robot is catching up rounds strictly before ctx.round().
  void ambient_round(std::optional<Port> port, std::uint64_t messages);
  /// Batched ambient_round, the replay kernel: replay `steps`
  /// fast-forwarded rounds in one call. Each round draws rng.below(b) for
  /// every b in `draws`, in order, then draws its move by `move` from the
  /// current node and counts `emitted` suppressed broadcasts — exactly
  /// what `steps` calls of ambient_round fed by those draws would do, so
  /// the RNG stream, position, arrival port, moves, messages and resumes
  /// (one per round) all come out bit-identical. Position, arrival port
  /// and generator state stay in locals over a flat copy of the graph,
  /// and the counters are committed once per call; long chance walks take
  /// a fused path with the same result (Engine::walk). If the resume budget
  /// runs out mid-stretch it throws at the same step the per-round loop
  /// would, after that step's draws. The engine steps the rounds of an
  /// AmbientPlan (end_round_ambient) through the same kernel.
  void ambient_walk(std::uint64_t steps, std::span<const std::uint64_t> draws,
                    WalkMove move, std::uint64_t emitted, Rng& rng);
  /// True while the engine is draining parked ambient robots after the
  /// run loop ended: the program must replay up to (not including)
  /// ctx.round(), then park again without acting.
  [[nodiscard]] bool draining() const;

 private:
  friend class Engine;
  Ctx(Engine* e, std::uint32_t idx) : engine_(e), idx_(idx) {}
  Engine* engine_;
  std::uint32_t idx_;
};

namespace detail {
struct WakeAwaiter;
}

/// Optional engine instrumentation: register with Engine::set_observer to
/// receive model-level events (used by the trace recorder, the CLI and
/// debugging sessions; zero cost when unset). Attaching one keeps
/// end_round_ambient robots live in every round (no fast-forward replay,
/// no rounds stepped under a plan) and turns await_delivery into a plain
/// next_subround, so their events are reported like everyone else's; for
/// the compiled adversary only simulated_rounds, resumes and
/// coroutine_resumes change.
class Observer {
 public:
  virtual ~Observer() = default;
  /// A round is about to be simulated (fast-forwarded rounds don't fire).
  virtual void on_round(Round /*round*/) {}
  virtual void on_move(RobotId /*id*/, NodeId /*from*/, NodeId /*to*/,
                       Port /*via*/) {}
  virtual void on_message(const Msg& /*msg*/, NodeId /*at*/,
                          Round /*round*/) {}
  virtual void on_done(RobotId /*id*/, Round /*round*/) {}
};

using ProgramFactory = std::function<Proc(Ctx)>;

struct EngineConfig {
  /// Sub-rounds per round; must exceed the ranks used by protocols
  /// (Dispersion-Using-Map uses ranks up to #robots). 0 = #robots + 6.
  std::uint32_t subrounds = 0;
  /// Throw if the run exceeds this many robot resumptions (guards against
  /// livelocked protocols in tests).
  std::uint64_t max_resumes = 500'000'000ULL;
};

struct RunStats {
  Round rounds = 0;  ///< rounds elapsed (incl. fast-forwarded)
  /// Rounds not fast-forwarded because every robot slept: the rounds the
  /// per-round schedule iterates, including those a robot sleeping in
  /// Ctx::await_delivery holds but in which nobody could act.
  std::uint64_t simulated_rounds = 0;
  /// The simulated rounds whose sub-rounds actually ran; the others were
  /// jumped or skipped while only listeners waited, including the quiet
  /// stretches the engine walked parked adversaries through. Like
  /// coroutine_resumes and visited_rounds it depends on how the engine
  /// skipped work, so no report carries it (bench_hotpaths' work CSV
  /// gates the three).
  std::uint64_t iterated_rounds = 0;
  /// The simulated rounds the run loop took one at a time: the iterated
  /// ones and those skipped after stepping every parked adversary. The
  /// rest were jumped a stretch at a time.
  std::uint64_t visited_rounds = 0;
  /// Robot activations of the per-round schedule: coroutine resumptions
  /// plus the rounds accounted on a robot's behalf instead (ambient
  /// replay, deferred ambient rounds, await_delivery sleeps), so it does
  /// not depend on how the engine skipped them. Counts toward
  /// EngineConfig::max_resumes.
  std::uint64_t resumes = 0;
  /// Coroutine resumptions actually performed (resume_robot calls); the
  /// part of `resumes` that cost a context switch.
  std::uint64_t coroutine_resumes = 0;
  std::uint64_t moves = 0;             ///< edge traversals performed
  std::uint64_t messages = 0;          ///< broadcasts delivered
  bool all_honest_done = false;
};

/// The simulator. Add robots, then run().
class Engine {
 public:
  Engine(const Graph& g, EngineConfig cfg = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a robot. IDs must be unique and nonzero. Robots are scheduled
  /// each sub-round in increasing ID order. A robot with `start_round` > 0
  /// idles silently at its start node until that round: its program's first
  /// resume happens there (the k-robots wave scheduler stages cohorts this
  /// way). Presence is observable only through messages, so a not-yet-started
  /// robot is invisible to co-located protocols.
  void add_robot(RobotId id, Faultiness f, NodeId start,
                 ProgramFactory factory, Round start_round = 0);

  /// Run until every honest robot's program finished or `max_rounds`
  /// elapsed. Byzantine programs that never finish do not block completion.
  RunStats run(Round max_rounds);

  /// Attach an observer (nullptr detaches). Not owned; must outlive run().
  void set_observer(Observer* observer) { observer_ = observer; }

  // --- inspection (for verifiers, tests and benches) ----------------------
  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] std::size_t num_robots() const;
  [[nodiscard]] RobotId robot_id(std::size_t idx) const;
  [[nodiscard]] Faultiness robot_faultiness(std::size_t idx) const;
  [[nodiscard]] NodeId robot_position(std::size_t idx) const;
  [[nodiscard]] bool robot_done(std::size_t idx) const;
  [[nodiscard]] NodeId position_of(RobotId id) const;
  [[nodiscard]] Round current_round() const { return round_; }

 private:
  friend class Ctx;
  friend struct detail::WakeAwaiter;

  enum class WakeKind : std::uint8_t {
    kSubround,
    kEndRound,
    kSleep,
    kAmbient,
    kListen,
  };

  /// Engine-side per-robot state. The program coroutine is resumed only via
  /// resume_robot(); between resumptions the queue that holds it (runnable,
  /// next round, wake queue, ambient or listeners) is its wake condition.
  /// Robots live contiguously in Engine::robots_; the vector never grows
  /// after start_programs(), so handles created then stay valid. Defined in
  /// the header so the Ctx accessors protocol coroutines hit every
  /// sub-round (inbox/degree/self) inline into their call sites.
  struct Robot {
    RobotId id = 0;
    Faultiness faultiness = Faultiness::kHonest;
    NodeId pos = kNoNode;
    Port arrival = kNoPort;
    ProgramFactory factory;
    Proc proc;
    Round start_round = 0;  ///< first round the program runs
    bool done = false;

    // Park parameters, written by WakeAwaiter via set_command().
    std::optional<Port> move;  // for kEndRound
    Round wake_round = 0;      // for kSleep / kEndRound: first round in
                               // which the robot runs again
    // Innermost suspended coroutine; the engine resumes this, not the
    // root, so protocols can nest phases as Task<T> children.
    std::coroutine_handle<> leaf;
    // kListen: the watched message kind and the distinct senders that
    // wake the robot, the round it parked in, the last round it may sleep
    // through, and the resumes accounted for it so far (run end accounts
    // the rounds already passed).
    std::uint32_t listen_kind = 0;
    std::uint32_t listen_quorum = 1;
    Round listen_start = 0;
    Round listen_deadline = 0;
    std::uint64_t listen_accounted = 0;
    // kAmbient: the plan passed with the current park (horizon 0 without
    // one, so it is never stepped), whether the robot ever passed one (it
    // then counts toward armed_at_, not readers_), and whether the engine
    // walked it past the next round (it is then in ahead_, not armed_at_).
    AmbientPlan plan;
    bool armed = false;
    bool ahead = false;
    /// Rounds the engine covered for the robot during its current wait
    /// (stepped under its plan, or slept in await_delivery); reset by
    /// set_command, returned by the awaiter on resume.
    std::uint64_t covered = 0;
  };
  void set_command(std::uint32_t idx, const detail::WakeAwaiter& wish,
                   std::coroutine_handle<> leaf);

  /// Per-node inbox. Co-location counts are tiny on dispersive paths, so a
  /// few inline slots cover the common case; gathered-phase rally nodes
  /// spill once and keep their spill capacity for the run.
  using Inbox = util::SmallVec<Msg, 4>;

  [[nodiscard]] std::uint32_t subround_count() const;
  void start_programs();
  void run_subrounds();
  void apply_moves();
  [[nodiscard]] bool honest_all_done() const { return honest_live_ == 0; }
  void resume_robot(Robot& r);
  /// Add `count` resumes accounted on a robot's behalf, throwing like
  /// resume_robot when they exhaust the budget.
  void account_resumes(std::uint64_t count);
  /// Resumes left in the budget for `need` more: when they do not fit,
  /// robots walked ahead first give back the rounds after this one, so a
  /// throw comes exactly when the per-round path's would.
  [[nodiscard]] std::uint64_t budget_for(std::uint64_t need);
  /// The replay kernel behind Ctx::ambient_walk and plan-stepped rounds: walk
  /// `r` through `steps` rounds of `draws` + `move`, counting `emitted`
  /// messages and `activations` resumes per round, and return the rounds
  /// walked. With `stop_at` set it stops before the first round in which
  /// the robot stands on a node v with stop_at[v] != 0 (walk_ahead passes
  /// readers_). The per-step loop keeps the generator's words
  /// (Rng::words), position and arrival port in locals. A kChancePort
  /// stretch of at least kWalkFusedMin steps without `stop_at` that stays
  /// within the resume budget, from a node with a port, whose draws all
  /// have power-of-two bounds, first runs its whole kWalkFusedBlock
  /// blocks through the fused path (engine.cpp, walk_chance_blocks): there
  /// the stream alone fixes each step's next() calls, so one block's
  /// stream runs branch-free while the position chain follows the block
  /// before. A port draw that would be redrawn sends its block back to the
  /// per-step loop, which also takes every other stretch and the tail.
  std::uint64_t walk(Robot& r, std::uint64_t steps,
                     std::span<const std::uint64_t> draws, WalkMove move,
                     std::uint64_t emitted, std::uint32_t activations,
                     Rng& rng, const std::uint32_t* stop_at = nullptr);
  /// Move `r` to `to` outside apply_moves, keeping readers_ and armed_at_
  /// right.
  void relocate(Robot& r, NodeId to);
  /// Whether a robot parked at `v` is heard this round: some reader there
  /// can read, i.e. one that is not a parked listener, or a listener that
  /// may wake (the armed robots there could make its quorum, or a listener
  /// deadline is due).
  [[nodiscard]] bool heard(NodeId v) const {
    const std::uint32_t readers = readers_[v];
    return readers != 0 && (readers != listening_[v] ||
                            armed_at_[v] >= quorum_at_[v] ||
                            round_ >= listen_due_);
  }
  /// Robots walked ahead to this round or before stand at their node from
  /// now on: they leave ahead_ and join armed_at_.
  void join_ahead();
  /// Start of a simulated round: join_ahead, then step every parked ambient
  /// robot whose plan allows it and whom nobody hears, keep those walked
  /// ahead past it, and move the rest into runnable_.
  void wake_ambient();
  /// End of a skipped round (every parked ambient robot stepped, nobody
  /// else ran): walk each one on a reader-free node ahead to the first
  /// round it stands on a node with a reader, within its horizon, the
  /// budget and the cap (the earliest wake, listener deadline and
  /// `max_rounds`). Returns the next round anything can happen in.
  [[nodiscard]] Round walk_ahead(Round max_rounds);
  /// Restore every robot walked past the next round to where its walk
  /// started, taking back its counts, and walk it to the next round only.
  /// Called after an iterated round in which a reader ran (it may read
  /// elsewhere from then on) and by budget_for.
  void rewind_ahead();
  /// Sub-round 1: move every listener that hears its kind from its quorum
  /// of senders, or reached its deadline, into runnable_ (ID order) with
  /// its slept rounds accounted. Returns at once when no listener is due
  /// and no delivery landed on a listener's node.
  void wake_listeners();
  /// Distinct physical senders of `kind` messages in `box`.
  [[nodiscard]] std::uint32_t distinct_sources(const Inbox& box,
                                               std::uint32_t kind);
  /// Clear an inbox, recycling unique payload blocks into the pool.
  void release_inbox(Inbox& box);
  void push_msg(std::uint32_t idx, RobotId claimed, std::uint32_t kind,
                util::PayloadRef payload, bool notify_observer);
  /// push_msg under a forged ID, after the one strong-robot check.
  void push_spoof(std::uint32_t idx, RobotId claimed, std::uint32_t kind,
                  util::PayloadRef payload);

  Graph graph_;
  /// Flat (CSR) copy of graph_ for Ctx::ambient_walk: node v's half-edges
  /// are csr_edges_[csr_begin_[v] .. csr_begin_[v + 1]), port order.
  std::vector<std::uint32_t> csr_begin_;
  std::vector<HalfEdge> csr_edges_;
  EngineConfig cfg_;
  std::vector<Robot> robots_;  // contiguous, sorted by ID after start
  /// id -> index into robots_ (insertion index before start_programs,
  /// sorted index after). The single place duplicate IDs are caught.
  util::FlatMap<RobotId, std::uint32_t> index_of_;
  bool started_ = false;
  Round round_ = 0;
  std::uint32_t subround_ = 0;
  RunStats stats_;
  std::uint32_t honest_live_ = 0;  ///< honest robots not yet done

  /// Wake queue, split by horizon. Robots waking next round (end_round,
  /// sleep_rounds(1), sub-round budget exhaustion — the overwhelmingly
  /// common case) go to the next_round_ bucket: a plain vector, no heap
  /// toll per suspension. Longer sleeps go to the (wake_round, robot
  /// index) min-heap, which also drives the O(1) fast-forward over rounds
  /// where everybody sleeps. At every round boundary each live robot is in
  /// exactly one of the two; the merged wake set is sorted so robots run
  /// in index (= ID) order, preserving the deterministic schedule.
  std::vector<std::uint32_t> next_round_;
  using WakeEntry = std::pair<Round, std::uint32_t>;
  std::priority_queue<WakeEntry, std::vector<WakeEntry>,
                      std::greater<WakeEntry>>
      wake_queue_;
  /// Robots parked via end_round_ambient: merged into runnable_ at every
  /// simulated round unless stepped or walked past it (Robot::ahead),
  /// never consulted by the fast-forward logic. Drained
  /// (one final resume each, with draining_ set) after the run loop so
  /// their replay accounting covers rounds cut off by max_rounds or by
  /// the honest robots finishing.
  std::vector<std::uint32_t> ambient_;
  bool draining_ = false;
  /// Per node: robots there that are not done, not asleep in wake_queue_
  /// (sleep_rounds past the next round, or a start_round still ahead: they
  /// count again once popped) and never parked with an AmbientPlan, i.e.
  /// every robot that might read the node's inbox this round. Exact at the
  /// start of each simulated round as long as planless robots replay moves
  /// (ambient_round, ambient_walk) only for rounds fast-forwarded while
  /// they were parked ambient: every robot parked beside them then owes
  /// the same gap, and a robot owing a gap is resumed, never stepped.
  std::vector<std::uint32_t> readers_;
  /// Per node: robots there that are not done, ever parked with a plan
  /// and not walked ahead (those join at their due round). They bound the
  /// distinct senders a parked listener there can hear.
  std::vector<std::uint32_t> armed_at_;
  /// Robots sleeping in await_delivery. Nonempty, they keep every round
  /// simulated, as the per-round loop's next_round_ entries would; the
  /// rounds are iterated only when a robot runs or a deadline is due.
  std::vector<std::uint32_t> listeners_;
  /// Per node: listeners parked there (they never move while parked), and
  /// the smallest quorum among those parked since the node last had none
  /// (a lower bound once some left, which only makes heard() true more
  /// often).
  std::vector<std::uint32_t> listening_;
  std::vector<std::uint32_t> quorum_at_;
  /// Parked ambient robots walk_ahead walked past the next round, with
  /// where each walk started: the first round it stepped, the generator
  /// words, node, arrival port and covered count then, and the hops it
  /// made. Reserved to the robot count, so walking never allocates.
  struct Ahead {
    std::uint32_t idx;
    Round from;
    Rng::Words rng;
    NodeId pos;
    Port arrival;
    std::uint64_t covered;
    std::uint64_t moved;
  };
  std::vector<Ahead> ahead_;
  /// A robot that is not armed ran this round (it may have changed who
  /// reads where): robots walked ahead are rewound after the round.
  bool reader_ran_ = false;
  /// Earliest listen_deadline among listeners_ (saturated when none).
  Round listen_due_ = Round::saturated();
  /// wake_listeners scratch: distinct sources seen in one inbox (reserved
  /// to the robot count, so counting never allocates).
  std::vector<std::uint32_t> seen_sources_;
  /// Robots participating in the current / next sub-round, in ID order.
  std::vector<std::uint32_t> runnable_, next_runnable_;
  /// Robots that chose a port this round (sorted before applying).
  std::vector<std::uint32_t> movers_;

  // Per-node message buffers: delivered[v] = broadcasts from the previous
  // sub-round, pending[v] = broadcasts accumulated in the current one.
  // Only nodes on the dirty lists hold messages. Each node keeps its own
  // inline-small buffer (clear() retains spill capacity), so delivering
  // and clearing costs O(active nodes) with no arena shuffling.
  std::vector<Inbox> delivered_, pending_;
  std::vector<NodeId> delivered_dirty_, pending_dirty_;
  /// The delivery the current delivered_ came in (InboxView::delivery).
  std::uint64_t delivery_ = 0;
  /// Pooled payload blocks (the PR 5 payload arena, generalized): cleared
  /// inboxes recycle uniquely held blocks into the pool's bounded free
  /// list, so steady-state payload construction performs no allocation.
  /// Blocks never point back at the pool, so Msgs copied out of the
  /// engine (tests, observers) outlive it safely.
  util::PayloadPool pool_;
  Observer* observer_ = nullptr;
};

namespace detail {
/// Shared awaiter for every suspension kind; records the robot's wish in
/// the engine, yields control back to the scheduler and, on resume, hands
/// the program the rounds the engine covered for it meanwhile (0 for the
/// plain waits).
struct WakeAwaiter {
  Engine* engine;
  std::uint32_t idx;
  Engine::WakeKind kind;
  std::optional<Port> port;
  Round rounds;
  std::uint32_t listen_kind = 0;
  std::uint32_t listen_quorum = 1;
  const AmbientPlan* plan = nullptr;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine->set_command(idx, *this, h);
  }
  std::uint64_t await_resume() const noexcept {
    return engine->robots_[idx].covered;
  }
};
}  // namespace detail

inline void Engine::set_command(std::uint32_t idx,
                                const detail::WakeAwaiter& wish,
                                std::coroutine_handle<> leaf) {
  Robot& r = robots_[idx];
  WakeKind kind = wish.kind;
  r.covered = 0;
  if (kind == WakeKind::kAmbient) {
    assert((wish.plan == nullptr || wish.plan->activations >= 1) &&
           "a live round is at least one resume");
    if (wish.plan != nullptr && !r.armed) {
      r.armed = true;
      --readers_[r.pos];
      ++armed_at_[r.pos];
    }
    r.plan = wish.plan != nullptr ? *wish.plan : AmbientPlan{};
    // Observed runs keep ambient robots live (see Ctx::end_round_ambient).
    if (observer_ != nullptr) kind = WakeKind::kEndRound;
  }
  // Ctx::await_delivery's plain-next_subround cases.
  if (kind == WakeKind::kListen &&
      (observer_ != nullptr || wish.rounds == 0 || subround_ != 0 ||
       subround_count() < 2))
    kind = WakeKind::kSubround;
  r.leaf = leaf;
  r.move = std::nullopt;
  switch (kind) {
    case WakeKind::kSubround:
      next_runnable_.push_back(idx);
      break;
    case WakeKind::kEndRound:
      r.move = wish.port;
      r.wake_round = round_ + 1;
      next_round_.push_back(idx);
      if (wish.port.has_value()) movers_.push_back(idx);
      break;
    case WakeKind::kSleep:
      r.wake_round = round_ + std::max<Round>(wish.rounds, 1);
      if (r.wake_round == round_ + 1) {
        next_round_.push_back(idx);
      } else {
        // Reads nothing before its wake round: a reader again once popped.
        wake_queue_.push({r.wake_round, idx});
        if (!r.armed) --readers_[r.pos];
      }
      break;
    case WakeKind::kAmbient:
      // Park outside both wake queues: the robot moves this round like
      // end_round, then waits to be merged into whichever round the
      // engine simulates next (possibly far ahead).
      r.move = wish.port;
      r.wake_round = round_ + 1;
      ambient_.push_back(idx);
      if (wish.port.has_value()) movers_.push_back(idx);
      break;
    case WakeKind::kListen:
      // Park outside every wake queue until wake_listeners() finds a
      // quorum of `listen_kind` senders at the robot's node or the deadline.
      r.listen_kind = wish.listen_kind;
      r.listen_quorum = std::max<std::uint32_t>(wish.listen_quorum, 1);
      r.listen_start = round_;
      r.listen_deadline = round_ + wish.rounds;
      r.listen_accounted = 0;
      assert(!r.armed && "a robot with a plan never reads");
      listeners_.push_back(idx);
      if (listening_[r.pos]++ == 0 || r.listen_quorum < quorum_at_[r.pos])
        quorum_at_[r.pos] = r.listen_quorum;
      listen_due_ = std::min(listen_due_, r.listen_deadline);
      break;
  }
}

// Hot per-sub-round observations, inline: every protocol coroutine calls
// these between suspensions, and an out-of-line hop per inbox()/degree()
// dominates their cost.
inline RobotId Ctx::self() const { return engine_->robots_[idx_].id; }
inline Faultiness Ctx::faultiness() const {
  return engine_->robots_[idx_].faultiness;
}
inline std::uint32_t Ctx::n() const {
  return static_cast<std::uint32_t>(engine_->graph_.n());
}
inline std::uint32_t Ctx::degree() const {
  return engine_->graph_.degree(engine_->robots_[idx_].pos);
}
inline Port Ctx::arrival_port() const { return engine_->robots_[idx_].arrival; }
inline Round Ctx::round() const { return engine_->round_; }
inline std::uint32_t Ctx::subround() const { return engine_->subround_; }

inline InboxView Ctx::inbox() const {
  assert(!engine_->robots_[idx_].armed && "a robot with a plan never reads");
  const Engine::Inbox& box = engine_->delivered_[engine_->robots_[idx_].pos];
  return {{box.data(), box.size()}, engine_->delivery_};
}

inline auto Ctx::next_subround() {
  return detail::WakeAwaiter{engine_, idx_, Engine::WakeKind::kSubround,
                             std::nullopt, 0};
}

inline auto Ctx::end_round(std::optional<Port> port) {
  return detail::WakeAwaiter{engine_, idx_, Engine::WakeKind::kEndRound, port,
                             0};
}

inline auto Ctx::sleep_rounds(Round rounds) {
  return detail::WakeAwaiter{engine_, idx_, Engine::WakeKind::kSleep,
                             std::nullopt, rounds};
}

inline auto Ctx::end_round_ambient(std::optional<Port> port,
                                   const AmbientPlan* plan) {
  return detail::WakeAwaiter{.engine = engine_,
                             .idx = idx_,
                             .kind = Engine::WakeKind::kAmbient,
                             .port = port,
                             .rounds = 0,
                             .plan = plan};
}

inline auto Ctx::await_delivery(std::uint32_t kind, Round max_silent,
                                std::uint32_t min_sources) {
  return detail::WakeAwaiter{engine_,    idx_, Engine::WakeKind::kListen,
                             std::nullopt, max_silent, kind, min_sources};
}

}  // namespace bdg::sim
