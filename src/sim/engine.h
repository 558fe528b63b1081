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
// Scheduling is event-driven, and every wait is one Park record: a due
// round, an optional early-wake condition (a message kind and a quorum of
// distinct senders), an optional step rule (an AmbientPlan) and the rounds
// the engine covered for the robot meanwhile. Each Ctx awaitable builds
// one, and Engine::set_command files it where the robot waits:
//
//  * due in the next sub-round (next_subround): the next runnable list;
//  * due next round (end_round, sleep_rounds(1), ambient parks with an
//    observer attached): the next-round bucket;
//  * due later (sleep_rounds): a min-heap keyed by due round, so stretches
//    where every robot sleeps fast-forward in O(1);
//  * ambient (end_round_ambient): merged into whichever round the engine
//    simulates next; the robot holds no round and replays any gap itself;
//  * with a wake condition (await_delivery): the listeners, who hold every
//    round as simulated but cost nothing in a round no quorum can reach.
//
// Per-node counts (NodeCount) decide whether a robot parked ambient is
// heard. One nobody hears is stepped through the replay kernel instead of
// resumed; in a round nobody else runs it walks ahead to its next reader,
// and is rewound if a reader runs first. Covered rounds count toward
// RunStats::resumes as the per-round loop would have counted them, so only
// coroutine_resumes, iterated_rounds and visited_rounds show the skipped
// work (README, "How the engine parks robots").
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
  // Each builds the robot's Park (engine.h header) and yields, on resume,
  // the rounds the engine covered for it meanwhile (0 for the plain waits).
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
  /// Finish this round like end_round, but park "ambient": the robot runs
  /// again in whichever round the engine simulates next, and never holds a
  /// round or keeps the run alive by itself. On resume ctx.round() may have
  /// jumped: the program replays the skipped rounds (ambient_round,
  /// ambient_walk) so its draws, moves and message totals stay those of
  /// the per-round execution. Compiled Byzantine strategies
  /// (core/byzantine.h) are the intended caller. With an observer attached
  /// it is a plain end_round(port), so the observer sees everything.
  /// With a `plan` (nullptr: none) the robot declares what one of its live
  /// rounds does, and from then on it is not a reader: it must never call
  /// inbox() again. While it stays parked and caught up, the engine steps
  /// each round in which nobody at its node can read, at most
  /// `plan->horizon` rounds in a row: the plan's draws and move are made
  /// from `*plan->rng`, its `emitted` broadcasts counted and its
  /// `activations` resumes accounted (budgeted). The plan is copied and
  /// covers this park only; `plan->draws` and `plan->rng` must outlive it.
  /// It is ignored when a live round needs more sub-rounds than a round
  /// has. The co_await yields the rounds stepped.
  [[nodiscard]] auto end_round_ambient(std::optional<Port> port,
                                       const AmbientPlan* plan = nullptr);
  /// Called at sub-round 0: behaves like next_subround(), but the robot
  /// sleeps, staying put, through every round in which messages of `kind`
  /// from at least `min_sources` (0 counts as 1) distinct physical senders
  /// (Msg::source) do not reach its node in sub-round 0, resuming at
  /// sub-round 1 of the first round that brings them, or of round
  /// ctx.round() + max_silent at the latest. A caller that treats a round
  /// with fewer sources like a silent one thus sees exactly the rounds its
  /// per-round loop would act on. The co_await yields the whole rounds
  /// slept through, simulated and counted toward RunStats::resumes as that
  /// loop (next_subround, inbox scan, end_round) would have, two a round,
  /// also when the run ends mid-wait. With an observer attached, with
  /// max_silent == 0, anywhere but sub-round 0, or with fewer than two
  /// sub-rounds it is a plain next_subround().
  [[nodiscard]] auto await_delivery(std::uint32_t kind, Round max_silent,
                                    std::uint32_t min_sources = 1);

  // --- ambient replay accounting ---------------------------------------
  /// Account one fast-forwarded round of a parked ambient robot, catching
  /// up rounds strictly before ctx.round(): hop through `port` at once
  /// (nullopt = stay; an invalid port throws like a live move), count
  /// `messages` suppressed broadcasts, as the per-round path would, and
  /// one resume, budgeted, so a runaway replay fails like a livelock.
  void ambient_round(std::optional<Port> port, std::uint64_t messages);
  /// Batched ambient_round, the replay kernel (Engine::walk, which also
  /// steps plans): replay `steps` fast-forwarded rounds in one call, each
  /// drawing rng.below(b) for every b in `draws`, in order, then its move
  /// by `move`, and counting `emitted` suppressed broadcasts. The RNG
  /// stream, position, arrival port and every count (one resume a round)
  /// come out as from `steps` calls of ambient_round fed by those draws,
  /// and a budget that runs out mid-stretch throws at the same step.
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
/// debugging sessions; zero cost when unset). Attaching one makes every
/// park plain (end_round_ambient an end_round, await_delivery a
/// next_subround), so every event is reported; for the compiled adversary
/// only simulated_rounds, resumes and coroutine_resumes change.
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
  /// jumped, skipped or walked through while only listeners waited. Like
  /// coroutine_resumes and visited_rounds it depends on how the engine
  /// skipped work, so no report carries it (bench_hotpaths' work CSV
  /// gates the three).
  std::uint64_t iterated_rounds = 0;
  /// The simulated rounds the run loop took one at a time: the iterated
  /// ones and the skipped ones. The rest were jumped a stretch at a time.
  std::uint64_t visited_rounds = 0;
  /// Robot activations of the per-round schedule: coroutine resumptions
  /// plus the rounds accounted on a robot's behalf instead (replayed,
  /// stepped and slept rounds), whatever the engine skipped. Counts toward
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

  /// How a robot waits between two resumes (engine.h header): built by
  /// each Ctx awaitable, filed by set_command.
  struct Park {
    /// The engine covers the rounds from `from` up to `due` for the robot,
    /// and it runs again in `due`. Parked ambient, due is the round it
    /// would run live next, and each round stepped moves it on; listening,
    /// due is the deadline until a wake sets it to the wake round.
    Round from = 0;
    Round due = 0;
    std::optional<Port> move = std::nullopt;  ///< hop at the round's end
    /// Wake condition: `quorum` distinct senders of `kind` (0: none).
    std::uint32_t kind = 0;
    std::uint32_t quorum = 0;
    bool ambient = false;  ///< runs in whichever round is simulated next
    std::optional<AmbientPlan> plan = std::nullopt;  ///< step rule
    /// Resumes accounted for a listener's covered rounds so far (a run
    /// that ends mid-wait accounts those already passed).
    std::uint64_t accounted = 0;
    [[nodiscard]] std::uint64_t covered() const {
      return (due - from).low_u64();
    }
  };

  /// Engine-side per-robot state, resumed only via resume_robot(). Robots
  /// live contiguously in robots_, which never grows after
  /// start_programs(), so handles created then stay valid. Defined here so
  /// the Ctx accessors (inbox/degree/self) inline.
  struct Robot {
    RobotId id = 0;
    Faultiness faultiness = Faultiness::kHonest;
    NodeId pos = kNoNode;
    Port arrival = kNoPort;
    ProgramFactory factory;
    Proc proc;
    bool done = false;
    /// Ever parked with a plan: counted in NodeCount::armed, not readers.
    bool armed = false;
    /// Walked past the next round: in ahead_, counted nowhere until due.
    bool ahead = false;
    // Innermost suspended coroutine; the engine resumes this, not the
    // root, so protocols can nest phases as Task<T> children.
    std::coroutine_handle<> leaf;
    Park park;  ///< before start_programs: due at the robot's start_round
  };
  /// Write robot `idx`'s park `p` without its ambient flag and plan (only
  /// end_round_ambient sets them, after); the awaiter returned files it.
  detail::WakeAwaiter park(std::uint32_t idx, const Park& p);
  /// File suspended robot `idx` where its park says it waits: the one
  /// place that decides which list, bucket or heap holds it.
  void set_command(std::uint32_t idx, std::coroutine_handle<> leaf);

  /// Per node, what decides whether a robot parked ambient there is heard
  /// (README, "How the engine parks robots").
  struct NodeCount {
    /// Robots not done, not asleep past the next round (sleep_rounds or a
    /// start_round ahead) and never armed: those that might read. Exact at
    /// each round start while planless robots replay moves only for rounds
    /// fast-forwarded while parked ambient (everyone beside them owes it).
    std::uint32_t readers = 0;
    /// Armed robots not done, not walked ahead: senders a listener can hear.
    std::uint32_t armed = 0;
    /// Parked listeners (they never move while parked), and the smallest
    /// quorum among those parked since the node last had none (a lower
    /// bound once some left, which only makes a node heard more often).
    std::uint32_t listeners = 0;
    std::uint32_t quorum = 0;
  };

  /// Per-node inbox. Co-location counts are tiny on dispersive paths, so a
  /// few inline slots cover the common case; gathered-phase rally nodes
  /// spill once and keep their spill capacity for the run.
  using Inbox = util::SmallVec<Msg, 4>;

  [[nodiscard]] std::uint32_t subround_count() const {
    return cfg_.subrounds != 0
               ? cfg_.subrounds
               : static_cast<std::uint32_t>(robots_.size()) + 6;
  }
  void start_programs();
  void run_subrounds();
  void apply_moves();
  [[nodiscard]] bool honest_all_done() const { return honest_live_ == 0; }
  void resume_robot(Robot& r);
  /// Add `count` resumes accounted on a robot's behalf, throwing like
  /// resume_robot when they exhaust the budget.
  void account_resumes(std::uint64_t count);
  /// Resumes left in the budget for `need` more; when they do not fit,
  /// robots walked ahead first give back the rounds after this one.
  [[nodiscard]] std::uint64_t budget_for(std::uint64_t need);
  /// The replay kernel behind Ctx::ambient_walk and stepped rounds: walk
  /// `r` through `steps` rounds of `p` and return the rounds walked; with
  /// `stop_at` set it stops before the first round the robot stands on a
  /// node with readers. A long kChancePort stretch without `stop_at` runs
  /// its whole blocks through the fused path when it can (README, "The
  /// fused chance walk").
  std::uint64_t walk(Robot& r, std::uint64_t steps, const AmbientPlan& p,
                     const NodeCount* stop_at = nullptr);
  /// Move `r` to `to` through `arrival`, keeping the node counts right.
  void relocate(Robot& r, NodeId to, Port arrival);
  /// Start of a simulated round: robots walked ahead to it join their
  /// node, those its plan lets the engine step unheard are stepped, and
  /// the rest not walked past it move into runnable_.
  void wake_ambient();
  /// End of a skipped round (every parked ambient robot stepped, nobody
  /// else ran): walk each one on a reader-free node ahead to its first
  /// round beside a reader, within its horizon, the budget and the cap
  /// (earliest wake and listener deadline, `max_rounds`). Returns the next
  /// round anything can happen in.
  [[nodiscard]] Round walk_ahead(Round max_rounds);
  /// Walk every robot walked past the next round to the next round only,
  /// from where its walk started, taking back its counts: after a round a
  /// reader ran in (it may read elsewhere now), and for budget_for.
  void rewind_ahead();
  /// Sub-round 1: move every listener whose quorum or deadline came into
  /// runnable_ (ID order), its rounds accounted. Returns at once when no
  /// deadline is due and no delivery landed on a listener's node.
  void wake_listeners();
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

  /// Where parked robots wait (set_command, engine.h header); the merged
  /// wake set is sorted, so robots run in index (= ID) order.
  std::vector<std::uint32_t> next_round_;
  using WakeEntry = std::pair<Round, std::uint32_t>;
  std::priority_queue<WakeEntry, std::vector<WakeEntry>,
                      std::greater<WakeEntry>>
      wake_queue_;
  /// Robots parked ambient: run at every simulated round unless stepped or
  /// walked past it, ignored by the fast-forward, drained at run end.
  std::vector<std::uint32_t> ambient_;
  bool draining_ = false;
  /// Robots parked with a wake condition: nonempty, they keep every round
  /// simulated, as their per-round loops would.
  std::vector<std::uint32_t> listeners_;
  /// Earliest due round among listeners_ (saturated when none).
  Round listen_due_ = Round::saturated();
  std::vector<NodeCount> nodes_;
  /// Robots walked past the next round, with where each walk started (its
  /// first round, generator words, node and arrival port) and the hops it
  /// made. Reserved to the robot count, so walking never allocates.
  struct Ahead {
    std::uint32_t idx;
    Round from;
    Rng::Words rng;
    NodeId pos;
    Port arrival;
    std::uint64_t moved;
  };
  std::vector<Ahead> ahead_;
  /// A robot that is not armed ran this round (it may have changed who
  /// reads where): robots walked ahead are rewound after the round.
  bool reader_ran_ = false;
  /// wake_listeners scratch: distinct senders seen in one inbox (reserved
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
/// The one awaiter behind every Ctx awaitable: files the robot's park and,
/// on resume, hands the program the rounds the engine covered meanwhile.
struct WakeAwaiter {
  Engine* engine;
  std::uint32_t idx;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine->set_command(idx, h);
  }
  std::uint64_t await_resume() const noexcept {
    return engine->robots_[idx].park.covered();
  }
};
}  // namespace detail

inline detail::WakeAwaiter Engine::park(std::uint32_t idx, const Park& p) {
  // Field by field: copying the whole record (plan storage included) goes
  // through a stack temporary on every wait.
  Park& q = robots_[idx].park;
  q.from = p.from;
  q.due = p.due;
  q.move = p.move;
  q.kind = p.kind;
  q.quorum = p.quorum;
  q.ambient = false;
  q.plan.reset();
  q.accounted = 0;
  return {this, idx};
}

inline void Engine::set_command(std::uint32_t idx,
                                std::coroutine_handle<> leaf) {
  Robot& r = robots_[idx];
  const Park& p = r.park;
  assert((!p.plan || p.plan->activations >= 1) &&
         "a live round is at least one resume");
  r.leaf = leaf;
  if (p.due == round_) {
    // A sub-round wait (no move, plan or wake condition); in the round's
    // last sub-round it ends the round.
    (subround_ + 1 < subround_count() ? next_runnable_ : next_round_)
        .push_back(idx);
    return;
  }
  NodeCount& at = nodes_[r.pos];
  if (p.plan && !r.armed) {
    r.armed = true;
    --at.readers;
    ++at.armed;
  }
  if (p.move) movers_.push_back(idx);
  if (p.quorum != 0) {
    assert(!r.armed && "a robot with a plan never reads");
    listeners_.push_back(idx);
    if (at.listeners++ == 0 || p.quorum < at.quorum) at.quorum = p.quorum;
    listen_due_ = std::min(listen_due_, p.due);
  } else if (p.ambient) {
    ambient_.push_back(idx);
  } else if (p.due == round_ + 1) {
    next_round_.push_back(idx);
  } else {
    // Reads nothing before its due round: a reader again once popped.
    wake_queue_.push({p.due, idx});
    if (!r.armed) --at.readers;
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
  return engine_->park(idx_, {.from = round(), .due = round()});
}

inline auto Ctx::end_round(std::optional<Port> port) {
  const Round next = round() + 1;
  return engine_->park(idx_, {.from = next, .due = next, .move = port});
}

inline auto Ctx::sleep_rounds(Round rounds) {
  const Round due = round() + std::max<Round>(rounds, 1);
  return engine_->park(idx_, {.from = due, .due = due});
}

inline auto Ctx::end_round_ambient(std::optional<Port> port,
                                   const AmbientPlan* plan) {
  detail::WakeAwaiter wait = end_round(port);
  Engine::Park& p = engine_->robots_[idx_].park;
  p.ambient = engine_->observer_ == nullptr;
  if (plan != nullptr) p.plan = *plan;
  return wait;
}

inline auto Ctx::await_delivery(std::uint32_t kind, Round max_silent,
                                std::uint32_t min_sources) {
  const Engine& e = *engine_;
  if (e.observer_ != nullptr || max_silent == Round(0) || e.subround_ != 0 ||
      e.subround_count() < 2)
    return next_subround();
  return engine_->park(idx_,
                       {.from = round(),
                        .due = round() + max_silent,
                        .kind = kind,
                        .quorum = std::max<std::uint32_t>(min_sources, 1)});
}

}  // namespace bdg::sim
