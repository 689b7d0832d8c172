#pragma once
/// \file serve.hpp
/// \brief JSON-lines planning sessions over the async PlanningService —
/// the traffic entry point behind `adept serve`.
///
/// A session reads one JSON document per input line and writes one JSON
/// document per response line, in request order. The session pipelines:
/// every request is submit()ted to the service immediately (tickets), so
/// planning overlaps both with reading further requests and with other
/// in-flight plans; responses are flushed as soon as they are ready *and*
/// every earlier response has been written.
///
/// Request lines:
///   {"id": <any JSON, echoed back>,          // optional
///    "planner": "heuristic" | ... | "portfolio",  // default "heuristic"
///    "platform": <wire platform>,            // required
///    "service": <wire service> | "dgemm-<n>" | <MFlop number>,
///    "params": <wire params>,                // default: Table 3
///    "options": <wire options>,              // default: PlanOptions{}
///    "budget_ms": <number>}                  // deadline, relative
/// Control lines:
///   {"cmd": "stats"}             → one response carrying the service's stats
///   {"cmd": "metrics"}           → one response carrying the metrics
///                                  registry snapshot (latency histograms
///                                  with quantiles, cache/serve/dist counters)
///   {"cmd": "cancel", "id": X}   → cancel queued requests whose id equals X
///   {"cmd": "quit"}              → drain in-flight work and end the session
///
/// Response lines (one per request, same order):
///   {"id": ..., "ok": true,  "run": <wire PlannerRun>}
///   {"id": ..., "ok": true,  "portfolio": <wire PortfolioResult>}
///   {"id": ..., "ok": true,  "degraded": true, "run": ...}  // see degrade
///   {"id": ..., "ok": false, "error": "..."}         // incl. parse errors
///   {"id": ..., "ok": false, "status": "overloaded",
///    "error": "...", "retry_after_ms": <number>}     // admission refusal
///   {"ok": true, "stats": {...}}                     // for "stats"
///   {"ok": true, "metrics": {...}}                   // for "metrics"
///   {"ok": true, "cancelled": <count>}               // for "cancel"
///
/// Admission control: with `max_pending > 0` the session bounds the
/// number of admitted-but-unanswered planning requests. A request
/// arriving at a full queue is refused with an `overloaded` response
/// (including a `retry_after_ms` estimate from the service's observed
/// per-job wall time; before any job has completed the estimate is a
/// documented default of 100 ms) — or, with `degrade` set, answered
/// immediately on
/// the reader thread by the cheap `homogeneous` planner and marked
/// `"degraded": true`. Degrade also rescues over-budget requests: a job
/// whose deadline expired before a full-quality plan completed is
/// re-answered with a budget-free homogeneous plan instead of a
/// deadline error.
///
/// Each request's platform is deserialized into owning shared storage
/// (wire::ServeLine), so an in-flight job can never outlive its
/// platform — the ownership model PlanRequest v2 exists for.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "planner/cache_config.hpp"

namespace adept::io {

/// Tuning for one serve session.
struct ServeConfig {
  /// Worker threads of the underlying PlanningService; 0 = all cores.
  std::size_t threads = 0;
  /// Cache configuration of the session's PlanningService: whole-request
  /// plan cache, worker-side shard-level sub-plan cache, single-flight
  /// coalescing. The serve default enables both caches at 256 entries;
  /// the `stats` response reports the effective value plus shard-cache
  /// traffic under "shard_cache".
  CacheConfig cache{256, 256, true};
  /// Admission bound: maximum planning requests admitted but not yet
  /// answered before new ones are refused as `overloaded` (or degraded).
  /// 0 (default) keeps the historical unbounded behaviour.
  std::size_t max_pending = 0;
  /// Graceful degradation: answer refused-at-admission and over-budget
  /// requests with the cheap `homogeneous` planner (marked
  /// `"degraded": true`) instead of erroring.
  bool degrade = false;
};

/// Runs one session until "quit" or end of input; returns the number of
/// planning requests answered (control/parse-error lines not counted).
/// Never throws on malformed request lines — those produce error
/// responses — only on unrecoverable stream failures.
std::size_t serve_session(std::istream& in, std::ostream& out,
                          const ServeConfig& config = {});

/// First words of the one line serve_listen() announces its bound
/// endpoint with (`listening on <host>:<port>`); dist::ServeListener
/// scrapes the endpoint from behind it.
inline constexpr std::string_view kListenAnnounce = "listening on ";

/// Splits "host:port" on the *last* ':', so IPv6-style hosts with
/// embedded colons stay intact. Throws adept::Error
/// "<kind> endpoint must be host:port, got '<endpoint>'" when either
/// part is missing or empty.
void split_endpoint(const std::string& endpoint, const char* kind,
                    std::string& host, std::string& port);

/// Ignores SIGPIPE, once per process: a peer that dies mid-write then
/// surfaces as an EPIPE/ECONNRESET errno on write(), not as a
/// process-killing signal. serve_listen() and the dist pipe and socket
/// transports arm it.
void ignore_sigpipe_once();

/// TCP serve: binds `endpoint` ("host:port"; port 0 picks an ephemeral
/// port), announces the bound endpoint on `announce` as exactly one line
/// `listening on <host>:<port>` (flushed — process supervisors and
/// dist::ServeListener scrape it), then runs one JSON-lines session per
/// accepted connection, concurrently. All sessions share ONE warm
/// PlanningService, so plan/shard caches stay hot across the many
/// coordinators a single serve process backs; a session ends when its
/// client disconnects or sends `quit` (the process keeps serving).
/// `max_sessions` > 0 returns after that many sessions have *completed*
/// (deterministic teardown for tests and benches); 0 accepts until the
/// process dies. Returns the total planning requests answered across
/// sessions. Throws adept::Error when the endpoint cannot be bound.
std::size_t serve_listen(const std::string& endpoint,
                         const ServeConfig& config, std::ostream& announce,
                         std::size_t max_sessions = 0);

}  // namespace adept::io
