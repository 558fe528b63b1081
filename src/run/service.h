#pragma once
// sweepd: a fault-tolerant coordinator/worker sweep service.
//
// The coordinator owns the expanded grid and leases batches of point
// indices to workers over localhost TCP (net/: length-prefixed frames whose
// payloads are flat JSON — result frames are verbatim run/report.h
// checkpoint records, so the wire format IS the on-disk resume format).
// Workers run their leased points through the exact run_point the
// single-process runner uses and stream the results back; the coordinator
// places them through the same SweepExecutor run_sweep runs on (grid
// index, checkpoint append, aggregates, progress/abort), so crash-recovery
// and byte-identical resume carry over from run_sweep for free.
//
// Robustness model:
//  * Leases carry deadlines, extended by results and by heartbeats naming
//    the live lease; a missed deadline presumes the worker dead, and the
//    indices it still owed return to the front of the queue.
//  * Workers redial with capped exponential backoff and jitter. Results are
//    deterministic per derived seed, so re-runs and duplicate deliveries
//    never change the merged report.
//  * A hello handshake proves both sides expanded the SAME grid
//    (grid_fingerprint) before any lease is honored.
//  * With no live worker for idle_grace_ms the coordinator runs the rest
//    in process (SweepExecutor::run_local, run_sweep's own loop).
//  * A stop flag (sweepd wires SIGTERM to it) aborts like run_sweep's
//    progress abort: finished points are in the checkpoint, the rest become
//    aborted skips, and workers are told to shut down.
//  * The seeded fault shim (net/fault.h) can drop/delay/close frames on
//    either side; the conformance tier pins byte-identical reports under it.
//  * Clients query live aggregates on the same listener (see "Query
//    protocol" below); with serve_after_finish that outlives the grid.
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/transport.h"
#include "run/sweep.h"

namespace bdg::run {

struct ServiceConfig {
  std::uint16_t port = 0;  ///< listen port on 127.0.0.1 (0 = ephemeral)
  /// Max points per lease. Small leases reassign cheaply after a worker
  /// death; large leases amortize framing. Grid order is preserved within
  /// the queue, so lease size never affects the merged report.
  std::uint32_t lease_points = 8;
  /// Deadline granted per lease and extended by every frame from its
  /// holder. Must exceed the longest single-point runtime plus a
  /// heartbeat interval, or healthy workers get their leases revoked.
  std::uint32_t lease_timeout_ms = 3000;
  /// Coordinator: no live worker for this long => run the remaining
  /// stripe in-process instead of hanging (0 = fall back immediately).
  std::uint32_t idle_grace_ms = 2000;
  bool local_fallback = true;
  /// Keep serving queries after every grid point has a result: workers get
  /// their shutdown as soon as the grid completes, clients keep getting
  /// answers until the stop flag is raised (which then leaves `aborted`
  /// false — the sweep DID finish). With a checkpoint that restores the
  /// whole grid this is a standalone query server over finished results.
  bool serve_after_finish = false;
  net::FaultConfig fault;  ///< shim mounted on this side's sends
};

struct CoordinatorStats {
  std::size_t workers_seen = 0;       ///< connections accepted
  std::size_t workers_rejected = 0;   ///< hellos with a foreign grid
  std::size_t leases_granted = 0;
  /// Leases revoked and re-queued: deadline missed, worker connection
  /// died, or a lease_done arrived with results still missing (dropped in
  /// transit). The conformance tier asserts this is > 0 when a worker is
  /// killed mid-grid.
  std::size_t leases_reassigned = 0;
  std::size_t duplicate_results = 0;  ///< re-delivered/re-run, ignored
  std::size_t local_fallback_points = 0;
  std::size_t protocol_errors = 0;    ///< malformed/mismatched frames
  std::size_t clients_seen = 0;       ///< connections that sent a query
  std::size_t queries_answered = 0;   ///< complete responses sent
};

/// Every CoordinatorStats counter with its wire name, in wire order. The
/// progress header is written from this table and run_query parses it
/// back from it, so a counter cannot be sent without also being parsed.
struct CoordinatorStatField {
  const char* name;
  std::size_t CoordinatorStats::*member;
};
inline constexpr CoordinatorStatField kCoordinatorStatFields[] = {
    {"workers_seen", &CoordinatorStats::workers_seen},
    {"workers_rejected", &CoordinatorStats::workers_rejected},
    {"leases_granted", &CoordinatorStats::leases_granted},
    {"leases_reassigned", &CoordinatorStats::leases_reassigned},
    {"duplicate_results", &CoordinatorStats::duplicate_results},
    {"local_fallback_points", &CoordinatorStats::local_fallback_points},
    {"protocol_errors", &CoordinatorStats::protocol_errors},
    {"clients_seen", &CoordinatorStats::clients_seen},
    {"queries_answered", &CoordinatorStats::queries_answered},
};

/// The sweepd coordinator. Construction binds the listener (throws when
/// the port is taken) so callers can read port() before spawning workers;
/// serve() runs the event loop to completion and returns the merged
/// result, byte-identical to run_sweep(spec) on the same grid.
class Coordinator {
 public:
  Coordinator(SweepSpec spec, ServiceConfig svc);

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Serve until every grid point has a result (or the sweep aborts via
  /// spec.progress / `stop`). Not reentrant; call once.
  [[nodiscard]] SweepResult serve(const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }

 private:
  SweepSpec spec_;
  ServiceConfig svc_;
  net::Listener listener_;
  CoordinatorStats stats_;
};

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "worker";
  net::BackoffConfig backoff;
  std::uint32_t idle_recv_ms = 500;
  std::uint32_t hello_timeout_ms = 5000;
  std::uint64_t jitter_seed = 1;  ///< backoff jitter stream
  net::FaultConfig fault;  ///< worker-side shim + kill-after-N-points hook
};

enum class WorkerExit {
  kShutdown,         ///< coordinator said shutdown: the grid is done
  kLostCoordinator,  ///< reconnect attempts exhausted
  kRejected,         ///< grid fingerprint mismatch (or protocol error)
  kKilled,           ///< fault shim kill hook fired (soft mode)
};

[[nodiscard]] std::string to_string(WorkerExit e);

/// Run one worker against the coordinator at cfg.host:cfg.port. The spec
/// must be flag-identical to the coordinator's (the hello handshake
/// enforces it via grid_fingerprint). Blocks until shutdown or failure.
/// With cfg.fault.kill_after_points set and kill_hard, this calls
/// std::_Exit(137) — simulating SIGKILL for the CI process smoke — and
/// never returns.
[[nodiscard]] WorkerExit run_sweep_worker(const SweepSpec& spec,
                                          const WorkerConfig& cfg);

// ---------------------------------------------------------------------------
// Query protocol. A client dials the coordinator's listener and sends a
// flat-JSON `query` frame; the coordinator replies with one flat `result`
// header frame (echoing the query id) followed by `count` body frames,
// each a verbatim report-JSON cell/point object (run/report.h's
// write_cell_json / write_point_json). Unlike leases, queries need no
// hello: the first query frame marks the connection as a client.
// ---------------------------------------------------------------------------

/// One query. `what` selects the answer shape:
///  * "progress": no bodies; the header carries grid totals, completion
///    and the coordinator's live ServiceStats counters.
///  * "cells": every live cell aggregate matching the set selectors
///    (unset = wildcard). Strings match the report's spelling —
///    core::to_string names, mix_to_string mixes ("-" = no mix); k
///    matches the resolved robot count (k == n points match their n).
///  * "point": exactly one of derived_seed / index must be set; answers
///    the completed point's report JSON, or pending=true when the point
///    exists but has no result yet.
struct QueryRequest {
  std::string what = "progress";
  std::optional<std::string> algorithm;
  std::optional<std::string> family;
  std::optional<std::string> mix;
  std::optional<std::uint32_t> n;
  std::optional<std::uint32_t> k;
  std::optional<std::uint32_t> f;
  std::optional<std::uint64_t> derived_seed;
  std::optional<std::uint64_t> index;
};

/// A parsed response: header fields plus the verbatim body frames.
struct QueryReply {
  std::string what;
  std::string error;     ///< coordinator-side rejection ("" = answered)
  bool pending = false;  ///< point exists but has not completed yet
  std::vector<std::string> bodies;  ///< verbatim report JSON objects
  // Progress fields (what == "progress"):
  std::uint64_t total = 0;      ///< grid points
  std::uint64_t completed = 0;  ///< restored + merged so far
  std::uint64_t restored = 0;   ///< placed from the checkpoint
  std::uint64_t cells = 0;      ///< distinct live cells
  bool done = false;            ///< every grid point has a result
  CoordinatorStats stats;       ///< live counters snapshot
};

struct QueryClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t timeout_ms = 2000;  ///< per-frame receive deadline
  /// Full-query retries. Each failed attempt redials on a fresh
  /// connection (fresh fault-shim schedule), so a seeded drop schedule
  /// can eat a response without wedging the client.
  std::uint32_t attempts = 5;
  net::BackoffConfig backoff;
  std::uint64_t jitter_seed = 1;
  net::FaultConfig fault;  ///< client-side shim (conformance tests)
};

/// Issue one query, retrying per cfg. nullopt = the coordinator could not
/// be reached (or kept dropping the response) within cfg.attempts; a
/// reply with a non-empty `error` means it answered and rejected the
/// query (unknown `what`, bad selector).
[[nodiscard]] std::optional<QueryReply> run_query(const QueryRequest& req,
                                                  const QueryClientConfig& cfg);

}  // namespace bdg::run
