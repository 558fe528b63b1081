#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace bdg::sim {

namespace {
/// Numbers every delivery (InboxView::delivery): one counter per thread,
/// as engines are thread-confined.
thread_local std::uint64_t t_deliveries = 0;

/// Where a replayed walk stands: generator words, node, arrival port, and
/// the steps made and hops taken so far.
struct WalkCursor {
  Rng::Words rng_s;
  NodeId pos;
  Port arrival;
  std::uint64_t done;
  std::uint64_t moved;
};

/// The fused path of Engine::walk (README, "The fused chance walk"):
/// `blocks` blocks of kWalkFusedBlock steps of a chance walk from a node
/// with a port, whose `draws` discarded draws all have power-of-two
/// bounds. Each step's next() calls are then the stream's alone: one per
/// discarded draw, one coin, and one port draw iff the coin's top bit is
/// clear (ports are paired: every hop draws and moves). So block b's
/// stream runs branch-free, recording its hops' draws, while the position
/// chain follows block b - 1's in the same loop. A port draw that would be
/// redrawn leaves `c` at the start of its block for the exact loop;
/// otherwise `c` advances by blocks * kWalkFusedBlock steps.
[[gnu::noinline]] void walk_chance_blocks(const std::uint32_t* begin,
                                          const HalfEdge* edges,
                                          std::size_t draws,
                                          std::uint64_t blocks,
                                          WalkCursor& c) {
  std::uint64_t hop_x[2][kWalkFusedBlock];
  std::uint32_t hop_n[2] = {0, 0};
  Rng::Words block_start[2];
  Rng::Words rng_s = c.rng_s;
  // One step of the stream: append its port draw to `out` iff it hops; the
  // conditional next() is a masked select of the four state words.
  const auto draw = [&](std::uint64_t* out, std::uint32_t& made) {
    for (std::size_t k = 0; k < draws; ++k) (void)Rng::next_inline(rng_s);
    const std::uint64_t coin = Rng::next_inline(rng_s);
    Rng::Words hopped = rng_s;
    out[made] = Rng::next_inline(hopped);
    const std::uint64_t hop = (coin >> 63) - 1;  // all ones iff it hops
    for (std::size_t k = 0; k < 4; ++k)
      rng_s[k] ^= (rng_s[k] ^ hopped[k]) & hop;
    made += static_cast<std::uint32_t>(hop & 1);
  };
  for (std::uint64_t b = 0; b <= blocks; ++b) {
    // Follow block b - 1's hops from c.pos; the arrival port is read from
    // the last edge taken.
    const std::uint64_t* in = hop_x[(b + 1) & 1];
    const std::uint32_t hops = hop_n[(b + 1) & 1];
    NodeId pos = c.pos;
    std::uint32_t edge = 0;
    const auto follow = [&](std::uint32_t i) {
      const std::uint32_t first = begin[pos];
      const std::uint32_t degree = begin[pos + 1] - first;
      const __uint128_t m = static_cast<__uint128_t>(in[i]) * degree;
      const auto lo = static_cast<std::uint64_t>(m);
      if (lo < degree && lo < -std::uint64_t{degree} % degree) [[unlikely]]
        return false;
      edge = first + static_cast<std::uint32_t>(m >> 64);
      pos = edges[edge].to;
      return true;
    };
    std::uint32_t i = 0;
    if (b < blocks) {
      std::uint64_t* out = hop_x[b & 1];
      std::uint32_t made = 0;
      block_start[b & 1] = rng_s;
      for (; i < hops; ++i) {
        draw(out, made);
        if (!follow(i)) break;
      }
      if (i == hops)
        for (; i < kWalkFusedBlock; ++i) draw(out, made);
      hop_n[b & 1] = made;
    } else {
      while (i < hops && follow(i)) ++i;
    }
    if (i < hops) {  // block b - 1 holds a port draw that is redrawn
      c.rng_s = block_start[(b + 1) & 1];
      return;
    }
    c.pos = pos;
    if (hops != 0) c.arrival = edges[edge].reverse;
    if (b != 0) {
      c.done += kWalkFusedBlock;
      c.moved += hops;
    }
  }
  c.rng_s = rng_s;
}
}  // namespace

Engine::Engine(const Graph& g, EngineConfig cfg) : graph_(g), cfg_(cfg) {
  if (graph_.n() == 0) throw std::invalid_argument("Engine: empty graph");
  csr_begin_.reserve(graph_.n() + 1);
  csr_begin_.push_back(0);
  for (NodeId v = 0; v < graph_.n(); ++v) {
    const std::vector<HalfEdge>& edges = graph_.edges_of(v);
    csr_edges_.insert(csr_edges_.end(), edges.begin(), edges.end());
    csr_begin_.push_back(static_cast<std::uint32_t>(csr_edges_.size()));
  }
  delivered_.resize(graph_.n());
  pending_.resize(graph_.n());
  delivery_ = ++t_deliveries;
}

void Engine::add_robot(RobotId id, Faultiness f, NodeId start,
                       ProgramFactory factory, Round start_round) {
  if (started_) throw std::logic_error("Engine: add_robot after run()");
  if (id == 0) throw std::invalid_argument("Engine: robot id must be nonzero");
  if (start >= graph_.n()) throw std::invalid_argument("Engine: bad start");
  const auto [slot, inserted] = index_of_.try_emplace(id);
  if (!inserted) throw std::invalid_argument("Engine: duplicate robot id");
  slot = static_cast<std::uint32_t>(robots_.size());
  Robot r;
  r.id = id;
  r.faultiness = f;
  r.pos = start;
  r.factory = std::move(factory);
  r.start_round = start_round;
  robots_.push_back(std::move(r));
}

std::uint32_t Engine::subround_count() const {
  return cfg_.subrounds != 0
             ? cfg_.subrounds
             : static_cast<std::uint32_t>(robots_.size()) + 6;
}

void Engine::start_programs() {
  // Deterministic scheduling order: increasing robot ID.
  std::sort(robots_.begin(), robots_.end(),
            [](const Robot& a, const Robot& b) { return a.id < b.id; });
  honest_live_ = 0;
  readers_.assign(graph_.n(), 0);
  armed_at_.assign(graph_.n(), 0);
  listening_.assign(graph_.n(), 0);
  quorum_at_.assign(graph_.n(), 0);
  seen_sources_.reserve(robots_.size());
  ahead_.reserve(robots_.size());
  for (std::uint32_t i = 0; i < robots_.size(); ++i) {
    Robot& r = robots_[i];
    index_of_[r.id] = i;
    r.proc = r.factory(Ctx(this, i));
    r.leaf = r.proc.handle();
    r.wake_round = r.start_round;
    if (r.start_round == 0) {
      next_round_.push_back(i);
      ++readers_[r.pos];
    } else {
      wake_queue_.push({r.start_round, i});  // a reader once popped
    }
    if (r.faultiness == Faultiness::kHonest) ++honest_live_;
  }
  started_ = true;
}

void Engine::resume_robot(Robot& r) {
  if (r.done) return;
  account_resumes(1);
  ++stats_.coroutine_resumes;
  reader_ran_ |= !r.armed;
  r.leaf.resume();
  if (r.proc.done()) {
    r.done = true;
    --(r.armed ? armed_at_ : readers_)[r.pos];
    if (r.faultiness == Faultiness::kHonest) --honest_live_;
    if (observer_ != nullptr) observer_->on_done(r.id, round_);
    r.proc.rethrow_if_failed();
  }
}

void Engine::account_resumes(std::uint64_t count) {
  if (count > budget_for(count))
    throw std::runtime_error("Engine: resume budget exceeded (livelock?)");
  stats_.resumes += count;
}

std::uint64_t Engine::budget_for(std::uint64_t need) {
  // A running robot always has stats_.resumes <= max_resumes. Rounds
  // walked ahead past this one are not spent yet on the per-round path.
  if (need > cfg_.max_resumes - stats_.resumes && !ahead_.empty())
    rewind_ahead();
  return cfg_.max_resumes - stats_.resumes;
}

void Engine::relocate(Robot& r, NodeId to) {
  if (r.armed) {
    if (!r.ahead) {
      --armed_at_[r.pos];
      ++armed_at_[to];
    }
  } else {
    --readers_[r.pos];
    ++readers_[to];
  }
  r.pos = to;
}

std::uint64_t Engine::walk(Robot& r, std::uint64_t steps,
                           std::span<const std::uint64_t> draws, WalkMove move,
                           std::uint64_t emitted, std::uint32_t activations,
                           Rng& rng, const std::uint32_t* stop_at) {
  // Step `last` (0-based) is the one whose resumes would exceed the
  // budget.
  std::uint64_t need = 0;
  if (__builtin_mul_overflow(steps, activations, &need))
    need = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t last = budget_for(need) / activations;
  const std::uint32_t* begin = csr_begin_.data();
  const HalfEdge* edges = csr_edges_.data();
  Rng::Words rng_s = Rng::words(rng);
  NodeId pos = r.pos;
  Port arrival = r.arrival;
  std::uint64_t moved = 0;
  std::uint64_t done = 0;
  // A long chance walk within the budget, from a node with a port, whose
  // draws are powers of two: whole blocks go through the fused path, the
  // rest (and everything after a redrawn port draw) through the loop.
  if (move == WalkMove::kChancePort && steps >= kWalkFusedMin &&
      steps <= last && stop_at == nullptr && begin[pos + 1] != begin[pos] &&
      std::all_of(draws.begin(), draws.end(),
                  [](std::uint64_t b) { return (b & (b - 1)) == 0; })) {
    WalkCursor c{rng_s, pos, arrival, 0, 0};
    walk_chance_blocks(begin, edges, draws.size(), steps / kWalkFusedBlock, c);
    rng_s = c.rng_s;
    pos = c.pos;
    arrival = c.arrival;
    moved = c.moved;
    done = c.done;
  }
  for (; done < steps; ++done) {
    if (stop_at != nullptr && stop_at[pos] != 0) break;
    for (const std::uint64_t bound : draws)
      (void)Rng::below_inline(rng_s, bound);
    bool hop = move == WalkMove::kRandomPort;
    if (move == WalkMove::kChancePort)
      hop = Rng::below_inline(rng_s, 2) < 1;  // chance(1, 2)
    const std::uint32_t first = begin[pos];
    const std::uint32_t degree = begin[pos + 1] - first;
    Port port = kNoPort;
    if (hop && degree != 0)
      port = static_cast<Port>(Rng::below_inline(rng_s, degree));
    if (done == last) break;
    if (port != kNoPort) {
      const HalfEdge he = edges[first + port];
      pos = he.to;
      arrival = he.reverse;
      ++moved;
    }
  }
  Rng::words(rng) = rng_s;
  relocate(r, pos);
  r.arrival = arrival;
  stats_.moves += moved;
  stats_.messages += done * emitted;
  stats_.resumes += done * activations;  // within budget by `last`
  if (done == last && done < steps) account_resumes(activations);  // throws
  return done;
}

void Engine::join_ahead() {
  std::erase_if(ahead_, [&](const Ahead& a) {
    Robot& r = robots_[a.idx];
    if (r.wake_round > round_) return false;
    r.ahead = false;
    ++armed_at_[r.pos];
    return true;
  });
}

void Engine::wake_ambient() {
  if (!ahead_.empty()) join_ahead();
  // A live round that outlasts the round's sub-rounds spills into the
  // next round: one engine step cannot stand for it.
  const std::uint32_t subs = subround_count();
  std::size_t kept = 0;
  for (const std::uint32_t idx : ambient_) {
    Robot& r = robots_[idx];
    if (r.ahead) {  // walked ahead past this round
      ambient_[kept++] = idx;
      continue;
    }
    // Within its horizon, unheard, caught up (it acted in the previous
    // round): step the round it would have run live.
    if (r.covered < r.plan.horizon && r.wake_round == round_ &&
        r.plan.activations <= subs && observer_ == nullptr && !heard(r.pos)) {
      walk(r, 1, r.plan.draws, r.plan.move, r.plan.emitted,
           r.plan.activations, *r.plan.rng);
      ++r.covered;
      r.wake_round = round_ + 1;
      ambient_[kept++] = idx;
    } else {
      runnable_.push_back(idx);
    }
  }
  ambient_.resize(kept);
}

Round Engine::walk_ahead(Round max_rounds) {
  // Until the cap only a robot that is not armed running can change who
  // reads where (a listener woken by quorum); rewind_ahead covers that.
  Round cap = std::min(max_rounds, listen_due_);
  if (!wake_queue_.empty()) cap = std::min(cap, wake_queue_.top().first);
  const Round from = round_ + 1;
  const std::uint64_t span =
      (cap - from).fits_u64() ? (cap - from).low_u64()
                              : std::numeric_limits<std::uint64_t>::max();
  Round next = cap;
  for (const std::uint32_t idx : ambient_) {
    Robot& r = robots_[idx];
    // Skipped round: every parked robot was stepped in it or walked past it.
    if (r.ahead || readers_[r.pos] != 0) {
      next = std::min(next, r.wake_round);
      continue;
    }
    const AmbientPlan& p = r.plan;
    // The walk never throws: the budget left bounds it like the horizon.
    std::uint64_t steps = std::min(span, p.horizon - r.covered);
    std::uint64_t need = 0;
    const std::uint64_t left = cfg_.max_resumes - stats_.resumes;
    if (__builtin_mul_overflow(steps, p.activations, &need) || need > left)
      steps = left / p.activations;
    if (steps == 0) {
      next = from;
      continue;
    }
    // It stands elsewhere before its due round: counted nowhere.
    Ahead a{idx, from, Rng::words(*p.rng), r.pos, r.arrival, r.covered, 0};
    --armed_at_[r.pos];
    r.ahead = true;
    const std::uint64_t moves = stats_.moves;
    const std::uint64_t walked =
        walk(r, steps, p.draws, p.move, p.emitted, p.activations, *p.rng,
             readers_.data());
    a.moved = stats_.moves - moves;
    r.covered += walked;
    r.wake_round = from + Round(walked);
    ahead_.push_back(a);
    next = std::min(next, r.wake_round);
  }
  return next;
}

void Engine::rewind_ahead() {
  const Round next = round_ + 1;
  // Restore every walk past the next round first, so no re-walk below can
  // run out of budget.
  for (const Ahead& a : ahead_) {
    Robot& r = robots_[a.idx];
    if (r.wake_round <= next) continue;
    const AmbientPlan& p = r.plan;
    const std::uint64_t steps = (r.wake_round - a.from).low_u64();
    stats_.moves -= a.moved;
    stats_.messages -= steps * p.emitted;
    stats_.resumes -= steps * p.activations;
    Rng::words(*p.rng) = a.rng;
    r.pos = a.pos;
    r.arrival = a.arrival;
    r.covered = a.covered;
  }
  for (const Ahead& a : ahead_) {
    Robot& r = robots_[a.idx];
    if (r.wake_round <= next) continue;
    const AmbientPlan& p = r.plan;
    const std::uint64_t steps = (next - a.from).low_u64();
    walk(r, steps, p.draws, p.move, p.emitted, p.activations, *p.rng);
    r.covered += steps;
    r.wake_round = next;
  }
}

std::uint32_t Engine::distinct_sources(const Inbox& box, std::uint32_t kind) {
  seen_sources_.clear();
  for (const Msg& m : box) {
    if (m.kind == kind && std::find(seen_sources_.begin(), seen_sources_.end(),
                                    m.source) == seen_sources_.end())
      seen_sources_.push_back(m.source);
  }
  return static_cast<std::uint32_t>(seen_sources_.size());
}

void Engine::wake_listeners() {
  if (round_ < listen_due_ &&
      std::none_of(delivered_dirty_.begin(), delivered_dirty_.end(),
                   [&](NodeId v) { return listening_[v] != 0; }))
    return;
  // Listeners crowd a few rally nodes: count each (node, kind) once.
  NodeId counted_at = kNoNode;
  std::uint32_t counted_kind = 0;
  std::uint32_t sources = 0;
  std::size_t kept = 0;
  listen_due_ = Round::saturated();
  for (const std::uint32_t idx : listeners_) {
    Robot& r = robots_[idx];
    if (r.pos != counted_at || r.listen_kind != counted_kind) {
      counted_at = r.pos;
      counted_kind = r.listen_kind;
      sources = distinct_sources(delivered_[r.pos], r.listen_kind);
    }
    if (sources < r.listen_quorum && round_ < r.listen_deadline) {
      listeners_[kept++] = idx;
      listen_due_ = std::min(listen_due_, r.listen_deadline);
      continue;
    }
    // Parked at sub-round 0 of round S, woken at sub-round 1 of round W:
    // the per-round loop would have resumed it at S's sub-round 1, at both
    // sub-rounds of S+1 .. W-1 and at W's sub-round 0.
    r.covered = (round_ - r.listen_start).low_u64();
    account_resumes(2 * r.covered - r.listen_accounted);
    --listening_[r.pos];
    runnable_.push_back(idx);
  }
  listeners_.resize(kept);
  // Woken robots run among this sub-round's others in ID order.
  if (!std::is_sorted(runnable_.begin(), runnable_.end()))
    std::sort(runnable_.begin(), runnable_.end());
}

void Engine::release_inbox(Inbox& box) {
  // Recycle uniquely held payload blocks into the pool before the Msgs
  // die; blocks still referenced elsewhere (shared beacons, stashed
  // copies) just drop this reference. clear() keeps the box's capacity.
  for (Msg& m : box) pool_.recycle(std::move(m.data));
  box.clear();
}

void Engine::run_subrounds() {
  const std::uint32_t subs = subround_count();
  for (subround_ = 0; subround_ < subs; ++subround_) {
    // Deliver last sub-round's broadcasts: recycle the previous inboxes,
    // promote pending buffers, swap the dirty lists, under a new delivery
    // number.
    delivery_ = ++t_deliveries;
    for (const NodeId v : delivered_dirty_) release_inbox(delivered_[v]);
    delivered_dirty_.clear();
    for (const NodeId v : pending_dirty_) delivered_[v].swap(pending_[v]);
    delivered_dirty_.swap(pending_dirty_);

    const bool had_messages = !delivered_dirty_.empty();
    if (subround_ == 1 && !listeners_.empty()) wake_listeners();
    const bool anyone = !runnable_.empty();
    for (const std::uint32_t idx : runnable_) resume_robot(robots_[idx]);
    runnable_.swap(next_runnable_);
    next_runnable_.clear();
    // Nothing scheduled for later sub-rounds and no information in flight:
    // the rest of the round is empty. Listeners are checked at sub-round 1
    // of every round, so sub-round 0 never ends a round they sleep in.
    if (!anyone && !had_messages && pending_dirty_.empty() &&
        (subround_ != 0 || listeners_.empty()))
      break;
  }
  // Broadcasts from the final sub-round have no next sub-round to land in;
  // they are dropped (protocols know the sub-round budget).
  for (const NodeId v : delivered_dirty_) release_inbox(delivered_[v]);
  for (const NodeId v : pending_dirty_) release_inbox(pending_[v]);
  delivered_dirty_.clear();
  pending_dirty_.clear();
  // Robots still awaiting a sub-round when the round ends stay put and
  // resume at sub-round 0 of the next round.
  for (const std::uint32_t idx : runnable_) {
    Robot& r = robots_[idx];
    r.move = std::nullopt;
    r.wake_round = round_ + 1;
    next_round_.push_back(idx);
  }
  runnable_.clear();
}

void Engine::apply_moves() {
  // set_command order interleaves sub-rounds; restore ID order so moves
  // (and their observer events) apply exactly as the per-robot scan did.
  // Single-suspension rounds leave the list already ordered — check first.
  if (!std::is_sorted(movers_.begin(), movers_.end()))
    std::sort(movers_.begin(), movers_.end());
  for (const std::uint32_t idx : movers_) {
    Robot& r = robots_[idx];
    if (r.done || !r.move.has_value()) continue;
    const Port p = *r.move;
    if (p >= graph_.degree(r.pos))
      throw std::logic_error("Engine: robot moved through invalid port");
    const HalfEdge he = graph_.hop(r.pos, p);
    if (observer_ != nullptr) observer_->on_move(r.id, r.pos, he.to, p);
    relocate(r, he.to);
    r.arrival = he.reverse;
    r.move = std::nullopt;
    ++stats_.moves;
  }
  movers_.clear();
}

RunStats Engine::run(Round max_rounds) {
  if (!started_) start_programs();
  stats_ = RunStats{};
  while (round_ < max_rounds) {
    if (honest_all_done()) break;
    // Listeners hold every round, as their per-round loop would.
    if (next_round_.empty() && listeners_.empty() && wake_queue_.empty())
      break;
    // Nobody is scheduled next round: nothing is delivered before the
    // earliest scheduled wake or listener deadline, so jump there. Rounds
    // a listener holds are simulated ones: they count as such, and they
    // are jumped only when no parked ambient robot must run in them and no
    // observer must see them.
    if (next_round_.empty() &&
        (listeners_.empty() || (ambient_.empty() && observer_ == nullptr))) {
      Round to = max_rounds;
      if (!wake_queue_.empty()) to = std::min(to, wake_queue_.top().first);
      if (!listeners_.empty()) to = std::min(to, listen_due_);
      if (to > round_) {
        if (!listeners_.empty())
          stats_.simulated_rounds += (to - round_).low_u64();
        round_ = to;
        if (round_ >= max_rounds) break;
      }
    }
    // Wake the robots whose time has come: the next-round bucket plus due
    // heap entries, sorted so robots run in ID order.
    runnable_.swap(next_round_);
    while (!wake_queue_.empty() && wake_queue_.top().first <= round_) {
      const std::uint32_t idx = wake_queue_.top().second;
      if (!robots_[idx].armed) ++readers_[robots_[idx].pos];
      runnable_.push_back(idx);
      wake_queue_.pop();
    }
    // Parked ambient robots run in every simulated round: merged here (and
    // ID-sorted below with everyone else) their live broadcasts land in
    // exactly the rounds — and the inbox order — the per-round path would
    // produce, while skipped rounds are theirs to replay. Those nobody can
    // hear are stepped under their plan instead and stay parked.
    if (!ambient_.empty()) wake_ambient();
    // The bucket is usually filled in ID order already (robots suspend in
    // the sorted order they ran); is_sorted is O(k) vs the sort's k log k.
    if (!std::is_sorted(runnable_.begin(), runnable_.end()))
      std::sort(runnable_.begin(), runnable_.end());
    ++stats_.simulated_rounds;
    ++stats_.visited_rounds;
    if (observer_ != nullptr) observer_->on_round(round_);
    // Every parked adversary was stepped and only listeners wait: with no
    // deadline due, no robot can act or hear anything this round, nor in
    // the rounds the adversaries are walked through next.
    if (runnable_.empty() && round_ < listen_due_ && observer_ == nullptr) {
      const Round next = walk_ahead(max_rounds);
      stats_.simulated_rounds += (next - round_).low_u64() - 1;
      round_ = next;
      continue;
    }
    ++stats_.iterated_rounds;
    run_subrounds();
    apply_moves();
    if (reader_ran_ && !ahead_.empty()) rewind_ahead();
    reader_ran_ = false;
    round_ += 1;
  }
  join_ahead();  // all due by now
  assert(ahead_.empty());
  // Listeners still asleep owe the resumes of the rounds run since they
  // parked: their per-round loop would have run S's sub-round 1 and both
  // sub-rounds of S+1 .. round_-1. Accounted before the ambient drain,
  // whose resumes come after the loop's on the per-round path too.
  for (const std::uint32_t idx : listeners_) {
    Robot& r = robots_[idx];
    const std::uint64_t owed = 2 * (round_ - r.listen_start).low_u64() - 1;
    account_resumes(owed - r.listen_accounted);
    r.listen_accounted = owed;
  }
  // Drain parked ambient robots: one final resume each (with draining_
  // set) replays any rounds fast-forwarded past after their last live
  // action, so moves and message totals match the per-round path exactly
  // even when the run was cut off by max_rounds or by the honest robots
  // finishing before the adversary's tail.
  if (!ambient_.empty()) {
    draining_ = true;
    std::vector<std::uint32_t> parked;
    parked.swap(ambient_);
    std::sort(parked.begin(), parked.end());
    for (const std::uint32_t idx : parked) resume_robot(robots_[idx]);
    draining_ = false;
  }
  stats_.rounds = round_;
  stats_.all_honest_done = honest_all_done();
  return stats_;
}

std::size_t Engine::num_robots() const { return robots_.size(); }
RobotId Engine::robot_id(std::size_t idx) const { return robots_[idx].id; }
Faultiness Engine::robot_faultiness(std::size_t idx) const {
  return robots_[idx].faultiness;
}
NodeId Engine::robot_position(std::size_t idx) const {
  return robots_[idx].pos;
}
bool Engine::robot_done(std::size_t idx) const { return robots_[idx].done; }

NodeId Engine::position_of(RobotId id) const {
  const std::uint32_t* idx = index_of_.find(id);
  if (idx == nullptr) throw std::invalid_argument("Engine: unknown robot id");
  return robots_[*idx].pos;
}

// ---- Ctx ------------------------------------------------------------------
// (hot observation accessors are inline in engine.h)

void Engine::push_msg(std::uint32_t idx, RobotId claimed, std::uint32_t kind,
                      util::PayloadRef payload, bool notify_observer) {
  const auto& r = robots_[idx];
  Inbox& box = pending_[r.pos];
  if (box.empty()) pending_dirty_.push_back(r.pos);
  box.push_back(Msg{claimed, idx, kind, std::move(payload)});
  ++stats_.messages;
  if (notify_observer && observer_ != nullptr)
    observer_->on_message(box.back(), r.pos, round_);
}

void Ctx::broadcast(std::uint32_t kind, std::span<const std::int64_t> data) {
  Engine& e = *engine_;
  e.push_msg(idx_, e.robots_[idx_].id, kind, e.pool_.make(data),
             /*notify_observer=*/true);
}

util::PayloadRef Ctx::make_payload(std::span<const std::int64_t> data) {
  return engine_->pool_.make(data);
}

void Ctx::broadcast_shared(std::uint32_t kind,
                           const util::PayloadRef& payload) {
  Engine& e = *engine_;
  e.push_msg(idx_, e.robots_[idx_].id, kind, payload,
             /*notify_observer=*/true);
}

void Ctx::ambient_round(std::optional<Port> port, std::uint64_t messages) {
  Engine& e = *engine_;
  // Replay is adversary work like any resume: budget it so a runaway
  // catch-up loop fails the same way a livelocked coroutine does.
  e.account_resumes(1);
  e.stats_.messages += messages;
  if (!port.has_value()) return;
  auto& r = e.robots_[idx_];
  if (*port >= e.graph_.degree(r.pos))
    throw std::logic_error("Engine: robot moved through invalid port");
  const HalfEdge he = e.graph_.hop(r.pos, *port);
  e.relocate(r, he.to);
  r.arrival = he.reverse;
  ++e.stats_.moves;
}

void Ctx::ambient_walk(std::uint64_t steps,
                       std::span<const std::uint64_t> draws, WalkMove move,
                       std::uint64_t emitted, Rng& rng) {
  engine_->walk(engine_->robots_[idx_], steps, draws, move, emitted,
                /*activations=*/1, rng);
}

bool Ctx::draining() const { return engine_->draining_; }

void Engine::push_spoof(std::uint32_t idx, RobotId claimed,
                        std::uint32_t kind, util::PayloadRef payload) {
  if (robots_[idx].faultiness != Faultiness::kStrongByzantine)
    throw std::logic_error(
        "Ctx: only strong Byzantine robots can fake sender IDs");
  // Spoofed messages never fired the observer hook; preserved exactly so
  // trace streams stay bit-identical.
  push_msg(idx, claimed, kind, std::move(payload), /*notify_observer=*/false);
}

void Ctx::spoof_broadcast(RobotId claimed, std::uint32_t kind,
                          std::span<const std::int64_t> data) {
  engine_->push_spoof(idx_, claimed, kind, engine_->pool_.make(data));
}

void Ctx::spoof_broadcast_shared(RobotId claimed, std::uint32_t kind,
                                 const util::PayloadRef& payload) {
  engine_->push_spoof(idx_, claimed, kind, payload);
}

}  // namespace bdg::sim
