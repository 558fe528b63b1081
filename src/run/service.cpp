#include "run/service.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "run/report.h"
#include "util/json_mini.h"

namespace bdg::run {
namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Control messages. Flat JSON like the checkpoint records; a frame whose
// "type" field is absent is a result (a verbatim checkpoint line).
// ---------------------------------------------------------------------------

std::string msg_hello(const std::string& name, std::uint64_t spec_fp,
                      std::uint64_t grid_fp) {
  return "{\"type\": \"hello\", \"name\": \"" + json::escape(name) +
         "\", \"spec\": " + std::to_string(spec_fp) +
         ", \"grid\": " + std::to_string(grid_fp) + "}";
}

std::string msg_hello_ok(std::uint32_t lease_timeout_ms) {
  return "{\"type\": \"hello_ok\", \"lease_timeout_ms\": " +
         std::to_string(lease_timeout_ms) + "}";
}

std::string msg_reject(const std::string& reason) {
  return "{\"type\": \"reject\", \"reason\": \"" + json::escape(reason) +
         "\"}";
}

std::string msg_lease(std::uint64_t id,
                      const std::vector<std::size_t>& indices) {
  std::ostringstream os;
  os << "{\"type\": \"lease\", \"id\": " << id << ", \"points\": \"";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i != 0) os << ' ';
    os << indices[i];
  }
  os << "\"}";
  return os.str();
}

/// `heartbeat` and `lease_done`: a type and a lease id.
std::string msg_lease_id(const char* type, std::uint64_t lease_id) {
  return std::string("{\"type\": \"") + type +
         "\", \"id\": " + std::to_string(lease_id) + "}";
}

std::string msg_shutdown() { return "{\"type\": \"shutdown\"}"; }

// Each shimmed connection uses schedule seed (base seed + connection
// index): still a pure function of the config, but a schedule that eats
// the handshake frame cannot livelock reconnects by eating it identically
// on every redial.
net::FaultConfig offset_fault(net::FaultConfig cfg, std::uint64_t index) {
  cfg.seed += index;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

Coordinator::Coordinator(SweepSpec spec, ServiceConfig svc)
    : spec_(std::move(spec)), svc_(svc), listener_(svc_.port) {}

SweepResult Coordinator::serve(const std::atomic<bool>* stop) {
  const Ms lease_timeout(svc_.lease_timeout_ms);

  SweepExecutor ex(spec_);
  const std::vector<SweepPoint>& grid = ex.grid();
  const std::uint64_t fp = spec_fingerprint(spec_);
  const std::uint64_t gfp = grid_fingerprint(spec_, grid);

  // Results are keyed by derived seed on the wire (they ARE checkpoint
  // records); map them back to their grid index. The WHOLE grid is indexed:
  // a worker surviving a coordinator restart + --resume may re-stream
  // restored results, which are duplicates, not protocol errors. Point
  // queries resolve through the same lookup-only (un-iterable) map.
  util::FlatMap<std::uint64_t, std::size_t> seed_to_index;
  seed_to_index.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    seed_to_index[point_seed(spec_.base_seed, grid[i])] = i;

  // Per-grid-index merge bookkeeping: the lease currently owning each
  // index (0 = none). With it, retiring a merged result is O(lease size)
  // instead of a scan over every lease and the whole pending deque;
  // pending membership is implicit (not owned, no result yet) and stale
  // entries are skipped lazily at grant/fallback time.
  std::vector<std::uint64_t> owner(grid.size(), 0);

  std::deque<std::size_t> pending(ex.todo().begin(), ex.todo().end());

  struct WorkerSlot {
    std::unique_ptr<net::Channel> ch;
    bool greeted = false;
    bool is_client = false;  ///< sent a query: never leased, never reaped
    std::uint64_t lease_id = 0;  ///< 0 = idle
    Clock::time_point connected_at;
  };
  struct LeaseState {
    std::vector<std::size_t> remaining;  ///< indices without a result yet
    int slot = -1;
    Clock::time_point deadline;
  };
  std::map<int, WorkerSlot> slots;
  std::map<std::uint64_t, LeaseState> leases;
  int next_slot = 0;
  std::uint64_t next_lease = 1;
  Clock::time_point last_live = Clock::now();

  // Revoke a lease, re-queueing what it still owed at the FRONT
  // (preserving near-grid-order dispatch).
  const auto revoke = [&](std::uint64_t id) {
    const auto lit = leases.find(id);
    if (lit == leases.end()) return;
    const std::vector<std::size_t>& owed = lit->second.remaining;
    if (!owed.empty()) {
      ++stats_.leases_reassigned;
      for (const std::size_t idx : owed) owner[idx] = 0;
      pending.insert(pending.begin(), owed.begin(), owed.end());
    }
    leases.erase(lit);
  };
  const auto extend = [&](std::uint64_t id) {
    const auto lit = leases.find(id);
    if (lit != leases.end())
      lit->second.deadline = Clock::now() + lease_timeout;
  };

  // Revoke a worker's lease and drop its connection.
  const auto drop_worker = [&](int sid) {
    const auto it = slots.find(sid);
    if (it == slots.end()) return;
    revoke(it->second.lease_id);
    it->second.ch->shutdown();
    slots.erase(it);
  };

  // Merge one streamed result: place it through the executor, then retire
  // it from whichever lease still lists it. Duplicates (a re-run after
  // reassignment racing the original delivery) are counted and dropped.
  const auto merge_result = [&](PointResult&& pr) {
    const std::size_t* found = seed_to_index.find(pr.derived_seed);
    if (found == nullptr || !same_point(pr.point, grid[*found])) {
      ++stats_.protocol_errors;
      return;
    }
    const std::size_t idx = *found;
    if (!ex.place(idx, std::move(pr))) {
      ++stats_.duplicate_results;
      return;
    }
    // O(1) retirement via the owner map: only the owning lease (if any)
    // is touched; a pending entry for this index (duplicate racing a
    // reassignment) is skipped lazily when the queue is next drained.
    if (owner[idx] != 0) {
      const auto lit = leases.find(owner[idx]);
      if (lit != leases.end()) {
        auto& rem = lit->second.remaining;
        const auto rit = std::find(rem.begin(), rem.end(), idx);
        if (rit != rem.end()) rem.erase(rit);
      }
      owner[idx] = 0;
    }
  };

  // Answer one query frame: a flat `result` header echoing the query id,
  // then `count` body frames that are byte-identical to the report's
  // per-cell / per-point JSON objects. Reads the executor unlocked: only
  // run_local places from other threads, and it blocks this loop.
  // false = client connection broken; drop it.
  const auto answer_query = [&](WorkerSlot& w,
                                const std::string& payload) -> bool {
    std::uint64_t qid = 0;
    json::find_u64(payload, "id", qid);
    std::string what;
    json::find_string(payload, "what", what);

    std::string error;
    bool pending_point = false;
    std::vector<std::string> bodies;
    // A numeric selector that is present must parse and fit: a malformed
    // one rejects the query naming it, never widens it to a wildcard.
    const auto number_selector =
        [&](const char* key,
            std::uint64_t max) -> std::optional<std::uint64_t> {
      std::string raw;
      if (!json::find_raw(payload, key, raw)) return std::nullopt;
      const std::optional<std::uint64_t> v = json::parse_decimal(raw);
      if (v && *v <= max) return v;
      if (error.empty())
        error = "bad selector " + std::string(key) + ": " + raw;
      return std::nullopt;
    };
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
    if (what == "cells") {
      std::optional<std::string> algorithm, family, mix;
      std::string s;
      if (json::find_string(payload, "algorithm", s)) algorithm = s;
      if (json::find_string(payload, "family", s)) family = s;
      if (json::find_string(payload, "mix", s)) mix = s;
      const auto n = number_selector("n", kU32);
      const auto k = number_selector("k", kU32);
      const auto f = number_selector("f", kU32);
      for (const CellAggregate& c : ex.aggregates().cells()) {
        if (!error.empty()) break;  // a malformed selector matches nothing
        if (algorithm && *algorithm != core::to_string(c.algorithm)) continue;
        if (family && *family != c.family) continue;
        if (mix && *mix != mix_to_string(c.mix)) continue;
        if (n && *n != c.n) continue;
        if (k && *k != c.k) continue;  // expand_grid stores k resolved
        if (f && *f != c.f) continue;
        std::ostringstream os;
        write_cell_json(os, c);
        bodies.push_back(os.str());
      }
    } else if (what == "point") {
      const auto index = number_selector("index", kU64);
      const auto derived_seed = number_selector("derived_seed", kU64);
      std::size_t idx = grid.size();
      if (!error.empty()) {
        // a malformed selector: rejected above
      } else if (index) {
        if (*index < grid.size())
          idx = static_cast<std::size_t>(*index);
        else
          error = "index out of range";
      } else if (derived_seed) {
        const std::size_t* found = seed_to_index.find(*derived_seed);
        if (found != nullptr)
          idx = *found;
        else
          error = "unknown derived seed";
      } else {
        error = "point query needs derived_seed or index";
      }
      if (idx < grid.size()) {
        if (ex.has(idx)) {
          std::ostringstream os;
          write_point_json(os, ex.point(idx));
          bodies.push_back(os.str());
        } else {
          pending_point = true;  // known point, no result yet
        }
      }
    } else if (what != "progress") {
      error = "unknown query what";
    }

    std::ostringstream h;
    h << "{\"type\": \"result\", \"id\": " << qid << ", \"what\": \""
      << json::escape(what) << "\", \"count\": " << bodies.size();
    if (!error.empty()) h << ", \"error\": \"" << json::escape(error) << "\"";
    if (pending_point) h << ", \"pending\": true";
    if (what == "progress") {
      h << ", \"total\": " << grid.size()
        << ", \"completed\": " << ex.completed()
        << ", \"restored\": " << ex.restored()
        << ", \"cells\": " << ex.aggregates().cell_count()
        << ", \"done\": " << (ex.finished() ? "true" : "false");
      for (const CoordinatorStatField& f : kCoordinatorStatFields)
        h << ", \"" << f.name << "\": " << stats_.*f.member;
    }
    h << "}";
    if (!w.ch->send_frame(h.str())) return false;
    for (const std::string& body : bodies)
      if (!w.ch->send_frame(body)) return false;
    ++stats_.queries_answered;
    return true;
  };

  // Handle one frame from slot `sid`; false = drop the connection.
  const auto handle_frame = [&](int sid, const std::string& payload) -> bool {
    WorkerSlot& w = slots.at(sid);
    std::string type;
    if (json::find_string(payload, "type", type)) {
      if (type == "query") {
        if (!w.is_client) {
          w.is_client = true;
          ++stats_.clients_seen;
        }
        return answer_query(w, payload);
      }
      if (type == "hello") {
        if (ex.finished()) {
          // The grid finished while we kept serving queries: a worker
          // (re)dialing in gets its shutdown at the handshake and exits
          // cleanly instead of waiting for leases that will never come.
          w.ch->send_frame(msg_shutdown());
          return false;
        }
        std::uint64_t wspec = 0;
        std::uint64_t wgrid = 0;
        if (json::find_u64(payload, "spec", wspec) &&
            json::find_u64(payload, "grid", wgrid) && wspec == fp &&
            wgrid == gfp) {
          w.greeted = true;
          return w.ch->send_frame(msg_hello_ok(svc_.lease_timeout_ms));
        }
        ++stats_.workers_rejected;
        w.ch->send_frame(msg_reject("grid/spec fingerprint mismatch"));
        return false;
      }
      if (type == "heartbeat") {
        // Only a heartbeat carrying the slot's LIVE lease id extends its
        // deadline. The idle ping (id 0) a leaseless worker emits every
        // idle_recv_ms must not: after a lease_done is lost in transit,
        // the stale lease would otherwise be re-extended forever by idle
        // pings — a livelock where the worker waits for a lease and the
        // coordinator waits for a deadline that never comes.
        std::uint64_t id = 0;
        if (json::find_u64(payload, "id", id) && id != 0 && id == w.lease_id)
          extend(id);
        return true;
      }
      if (type == "lease_done") {
        std::uint64_t id = 0;
        if (json::find_u64(payload, "id", id) && id != 0 && id == w.lease_id) {
          // Results still owed were lost in transit: the worker claims it
          // ran them, but they never arrived. Re-run them — idempotence
          // makes that safe, and the checkpoint never saw them.
          revoke(id);
          w.lease_id = 0;
        }
        return true;
      }
      ++stats_.protocol_errors;
      return true;
    }
    // No "type": a result — a verbatim checkpoint record.
    auto entry = parse_checkpoint_line(payload);
    if (!entry || entry->spec != fp) {
      ++stats_.protocol_errors;
      return true;
    }
    extend(w.lease_id);
    merge_result(std::move(entry->result));
    return true;
  };

  // serve_after_finish keeps the loop answering queries once the grid is
  // done; the stop flag then ends serving WITHOUT marking the sweep
  // aborted (it did finish). Workers are dismissed the moment the grid
  // completes so only client connections outlive it.
  bool serving = svc_.serve_after_finish;
  bool workers_dismissed = false;
  while (true) {
    if (stop && stop->load()) {
      if (!ex.finished()) ex.abort();
      serving = false;
    }
    if (ex.aborted()) break;
    if (ex.finished() && !serving) break;

    // Accept every pending connection (shimmed when fault injection is on).
    while (auto conn = listener_.accept()) {
      ++stats_.workers_seen;
      WorkerSlot w;
      w.ch = net::maybe_shim(std::move(conn),
                             offset_fault(svc_.fault, stats_.workers_seen - 1));
      w.connected_at = Clock::now();
      slots.emplace(next_slot++, std::move(w));
    }

    // Drain buffered frames from every worker.
    std::vector<int> dead;
    for (auto& [sid, w] : slots) {
      for (;;) {
        std::string payload;
        net::RecvStatus st;
        try {
          st = w.ch->recv_frame(payload, 0);
        } catch (const std::exception&) {
          ++stats_.protocol_errors;  // oversized frame: not one of ours
          dead.push_back(sid);
          break;
        }
        if (st == net::RecvStatus::kFrame) {
          if (!handle_frame(sid, payload)) {
            dead.push_back(sid);
            break;
          }
          if (ex.aborted()) break;
          continue;
        }
        if (st != net::RecvStatus::kTimeout) dead.push_back(sid);
        break;
      }
      if (ex.aborted()) break;
    }
    for (const int sid : dead) drop_worker(sid);
    dead.clear();  // grant-phase failures below must not re-drop these
    if (ex.aborted()) break;
    if (ex.finished() && !serving) break;

    const auto now = Clock::now();

    // Expire leases whose holder went silent past the deadline, and reap
    // connections that never completed the hello (their hello or our
    // hello_ok may have been dropped; the worker will redial). Clients
    // never greet: they are exempt.
    std::vector<int> expired;
    for (const auto& [id, ls] : leases)
      if (now >= ls.deadline) expired.push_back(ls.slot);
    for (const auto& [sid, w] : slots)
      if (!w.greeted && !w.is_client && now - w.connected_at > lease_timeout)
        expired.push_back(sid);
    for (const int sid : expired) drop_worker(sid);

    if (ex.finished()) {
      // Grid complete, still serving queries: dismiss the workers once —
      // they exit kShutdown instead of idling against a finished sweep —
      // and keep polling for clients until the stop flag ends serving.
      if (!workers_dismissed) {
        std::vector<int> goodbye;
        for (const auto& [sid, w] : slots)
          if (!w.is_client) goodbye.push_back(sid);
        for (const int sid : goodbye) {
          slots.at(sid).ch->send_frame(msg_shutdown());
          drop_worker(sid);
        }
        workers_dismissed = true;
      }
    } else {
      // Grant leases to idle greeted workers, front of the queue first.
      // Entries merged while queued (duplicate deliveries racing a
      // reassignment) were deleted lazily: skip them here.
      for (auto& [sid, w] : slots) {
        if (!w.greeted || w.lease_id != 0 || pending.empty()) continue;
        std::vector<std::size_t> batch;
        while (!pending.empty() && batch.size() < svc_.lease_points) {
          const std::size_t idx = pending.front();
          pending.pop_front();
          if (ex.has(idx)) continue;  // lazily deleted: already merged
          batch.push_back(idx);
        }
        if (batch.empty()) continue;
        const std::uint64_t id = next_lease++;
        if (!w.ch->send_frame(msg_lease(id, batch))) {
          pending.insert(pending.begin(), batch.begin(), batch.end());
          dead.push_back(sid);  // reuse: drained below
          continue;
        }
        for (const std::size_t idx : batch) owner[idx] = id;
        leases.emplace(id,
                       LeaseState{std::move(batch), sid, now + lease_timeout});
        w.lease_id = id;
        ++stats_.leases_granted;
      }
      for (const int sid : dead) drop_worker(sid);
      dead.clear();

      // Graceful degradation: no WORKER reachable for idle_grace_ms with
      // work still pending => run the remainder in-process through
      // run_sweep's own loop (SweepExecutor::run_local) instead of hanging
      // on an empty fleet. Clients don't run points, so a connected query
      // client must not keep a workerless sweep waiting.
      const bool worker_live = std::any_of(
          slots.begin(), slots.end(),
          [](const auto& slot) { return !slot.second.is_client; });
      if (worker_live) {
        last_live = now;
      } else if (svc_.local_fallback && !pending.empty() && leases.empty() &&
                 now - last_live >= Ms(svc_.idle_grace_ms)) {
        std::vector<std::size_t> batch;
        batch.reserve(pending.size());
        for (const std::size_t idx : pending)
          if (!ex.has(idx)) batch.push_back(idx);  // skip lazily-deleted
        pending.clear();
        stats_.local_fallback_points +=
            ex.run_local(batch, [stop] { return stop && stop->load(); });
        continue;  // re-evaluate: a late worker may have connected meanwhile
      }
    }

    // Wait for traffic (or a new connection) with a bounded nap so stop
    // flags and lease deadlines are honored promptly.
    std::vector<pollfd> fds;
    fds.reserve(slots.size() + 1);
    if (listener_.fd() >= 0) fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& [sid, w] : slots)
      if (w.ch->fd() >= 0) fds.push_back({w.ch->fd(), POLLIN, 0});
    ::poll(fds.empty() ? nullptr : fds.data(),
           static_cast<nfds_t>(fds.size()), 20);
  }

  // Orderly goodbye: workers still connected exit kShutdown instead of
  // burning their reconnect budget against a vanished coordinator — and
  // the listener closes so a worker redialing a finished sweep is refused
  // instead of queued in a backlog nobody will accept.
  for (auto& [sid, w] : slots) {
    w.ch->send_frame(msg_shutdown());
    w.ch->shutdown();
  }
  listener_.close();
  return ex.finish();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

std::string to_string(WorkerExit e) {
  switch (e) {
    case WorkerExit::kShutdown: return "shutdown";
    case WorkerExit::kLostCoordinator: return "lost_coordinator";
    case WorkerExit::kRejected: return "rejected";
    case WorkerExit::kKilled: return "killed";
  }
  return "unknown";
}

WorkerExit run_sweep_worker(const SweepSpec& spec, const WorkerConfig& cfg) {
  const std::vector<SweepPoint> grid = expand_grid(spec);
  const std::uint64_t fp = spec_fingerprint(spec);
  const std::uint64_t gfp = grid_fingerprint(spec, grid);
  Rng jitter(cfg.jitter_seed);

  // The kill hook counts EXECUTED points across reconnects: die after the
  // N-th run_point, before its result leaves, so that point is provably
  // lost with us and the coordinator must reassign it.
  std::uint64_t points_run = 0;
  const auto kill_due = [&] {
    return cfg.fault.enabled && cfg.fault.kill_after_points != 0 &&
           points_run >= cfg.fault.kill_after_points;
  };

  std::uint64_t conn_index = 0;
  for (;;) {  // reconnect loop
    auto conn = net::dial_with_backoff(cfg.host, cfg.port, cfg.backoff, jitter);
    if (!conn) return WorkerExit::kLostCoordinator;
    std::unique_ptr<net::Channel> ch =
        net::maybe_shim(std::move(conn), offset_fault(cfg.fault, conn_index++));

    if (!ch->send_frame(msg_hello(cfg.name, fp, gfp))) continue;
    std::string payload;
    if (ch->recv_frame(payload, static_cast<int>(cfg.hello_timeout_ms)) !=
        net::RecvStatus::kFrame)
      continue;  // hello or hello_ok lost in transit: redial
    std::string type;
    if (!json::find_string(payload, "type", type)) continue;
    if (type == "reject") return WorkerExit::kRejected;
    if (type == "shutdown") return WorkerExit::kShutdown;  // sweep finished
    if (type != "hello_ok") continue;

    for (;;) {  // session loop
      const net::RecvStatus st =
          ch->recv_frame(payload, static_cast<int>(cfg.idle_recv_ms));
      if (st == net::RecvStatus::kTimeout) {
        // Idle: ping so a long gap between leases never reads as death.
        if (!ch->send_frame(msg_lease_id("heartbeat", 0))) break;
        continue;
      }
      if (st != net::RecvStatus::kFrame) break;  // reconnect
      if (!json::find_string(payload, "type", type)) continue;
      if (type == "shutdown") return WorkerExit::kShutdown;
      if (type != "lease") continue;

      std::uint64_t lease_id = 0;
      std::string points;
      // A lease whose id does not parse (or is the reserved 0) must be
      // rejected outright: running it would stream the batch under lease
      // 0, whose lease_done the coordinator discards — the real lease
      // would then expire spuriously and re-run everything. Ignoring the
      // frame lets the coordinator's deadline reassign the batch cleanly.
      if (!json::find_u64(payload, "id", lease_id) || lease_id == 0 ||
          !json::find_string(payload, "points", points))
        continue;
      std::stringstream ss(points);
      std::size_t idx = 0;
      bool conn_lost = false;
      while (ss >> idx) {
        if (idx >= grid.size()) return WorkerExit::kRejected;
        // Heartbeat before each point: extends the lease deadline so it
        // only needs to outlast ONE point's runtime, not the whole batch.
        if (!ch->send_frame(msg_lease_id("heartbeat", lease_id))) {
          conn_lost = true;
          break;
        }
        PointResult r = run_point(spec, grid[idx]);
        ++points_run;
        if (kill_due()) {
          if (cfg.fault.kill_hard) std::_Exit(137);  // simulated SIGKILL
          ch->shutdown();
          return WorkerExit::kKilled;
        }
        std::ostringstream line;
        write_checkpoint_line(line, r, fp);
        std::string record = line.str();
        if (!record.empty() && record.back() == '\n') record.pop_back();
        if (!ch->send_frame(record)) {
          conn_lost = true;
          break;
        }
      }
      if (conn_lost) break;
      if (!ch->send_frame(msg_lease_id("lease_done", lease_id))) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Query client
// ---------------------------------------------------------------------------

std::optional<QueryReply> run_query(const QueryRequest& req,
                                    const QueryClientConfig& cfg) {
  Rng jitter(cfg.jitter_seed);
  std::uint64_t conn_index = 0;
  std::uint64_t qid = 0;
  for (std::uint32_t attempt = 0; attempt < cfg.attempts; ++attempt) {
    // Every attempt runs on a FRESH connection: a shim schedule that ate
    // part of the response gets a new (offset) schedule on redial, and no
    // stale frame from a timed-out attempt can alias the new response.
    auto conn = net::dial_with_backoff(cfg.host, cfg.port, cfg.backoff, jitter);
    if (!conn) continue;
    std::unique_ptr<net::Channel> ch =
        net::maybe_shim(std::move(conn), offset_fault(cfg.fault, conn_index++));

    const std::uint64_t id = ++qid;
    std::ostringstream os;
    os << "{\"type\": \"query\", \"id\": " << id << ", \"what\": \""
       << json::escape(req.what) << "\"";
    if (req.algorithm)
      os << ", \"algorithm\": \"" << json::escape(*req.algorithm) << "\"";
    if (req.family)
      os << ", \"family\": \"" << json::escape(*req.family) << "\"";
    if (req.mix) os << ", \"mix\": \"" << json::escape(*req.mix) << "\"";
    if (req.n) os << ", \"n\": " << *req.n;
    if (req.k) os << ", \"k\": " << *req.k;
    if (req.f) os << ", \"f\": " << *req.f;
    if (req.derived_seed) os << ", \"derived_seed\": " << *req.derived_seed;
    if (req.index) os << ", \"index\": " << *req.index;
    os << "}";
    if (!ch->send_frame(os.str())) continue;

    std::string payload;
    net::RecvStatus st;
    try {
      st = ch->recv_frame(payload, static_cast<int>(cfg.timeout_ms));
    } catch (const std::exception&) {
      continue;
    }
    if (st != net::RecvStatus::kFrame) continue;
    std::string type;
    std::uint64_t rid = 0;
    if (!json::find_string(payload, "type", type) || type != "result" ||
        !json::find_u64(payload, "id", rid) || rid != id)
      continue;  // not our header (e.g. a shutdown frame): retry afresh

    QueryReply reply;
    json::find_string(payload, "what", reply.what);
    json::find_string(payload, "error", reply.error);
    json::find_bool(payload, "pending", reply.pending);
    std::uint64_t count = 0;
    json::find_u64(payload, "count", count);
    json::find_u64(payload, "total", reply.total);
    json::find_u64(payload, "completed", reply.completed);
    json::find_u64(payload, "restored", reply.restored);
    json::find_u64(payload, "cells", reply.cells);
    json::find_bool(payload, "done", reply.done);
    for (const CoordinatorStatField& f : kCoordinatorStatFields) {
      std::uint64_t v = 0;
      if (json::find_u64(payload, f.name, v)) reply.stats.*f.member = v;
    }

    bool lost_body = false;
    reply.bodies.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string body;
      try {
        if (ch->recv_frame(body, static_cast<int>(cfg.timeout_ms)) !=
            net::RecvStatus::kFrame) {
          lost_body = true;
          break;
        }
      } catch (const std::exception&) {
        lost_body = true;
        break;
      }
      reply.bodies.push_back(std::move(body));
    }
    if (lost_body) continue;  // a dropped body frame: retry the whole query
    return reply;
  }
  return std::nullopt;
}

}  // namespace bdg::run
