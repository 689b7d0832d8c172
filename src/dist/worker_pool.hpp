#pragma once
/// \file worker_pool.hpp
/// \brief Supervised fleet of serve workers with retry, respawn and
/// fallback.
///
/// The WorkerPool runs batches of shard jobs over a set of Workers. Each
/// worker follows an explicit phase machine:
///
///     Idle ──► Dispatched ──► Responded ──► Idle      (healthy round)
///                   │                         ▲
///                   └───────► Failed ─────────┘
///                              (respawn after backoff, when enabled)
///
/// A worker fails when a send breaks, a receive times out or hits EOF,
/// or a response line is malformed / out of order. The failing *process*
/// is always terminal: it is hard-killed and never reused (a wedged
/// worker could otherwise emit a stale response into a later round). The
/// *slot* is not: with `respawn` enabled and a spawning transport, a
/// failed slot is refilled with a fresh worker once its capped
/// exponential backoff has elapsed — at the start of every dispatch
/// round, and whenever the owner runs an explicit supervision pass
/// (respawn_due() then health_check()). The jobs a failed worker left
/// unanswered are re-dispatched to the remaining healthy workers —
/// bounded by `max_retries` rounds — and whatever still has no answer is
/// planned in-process through the caller's fallback, so a batch never
/// fails because of worker loss. Results are delivered tagged with their job
/// index, and failed jobs are re-dispatched and fallen back in ascending
/// job order, so the output is deterministic whatever the
/// failure/respawn timing.
///
/// Jobs carrying a deadline are drained against it: the per-response
/// receive timeout is the *minimum* of `shard_timeout_ms` and the job's
/// remaining budget, and jobs whose deadline already passed skip
/// dispatch entirely — a hung worker can never blow a caller's deadline.
///
/// One pool can back many coordinators at once (the `distributed`
/// registry planner shares one process-wide respawning pool): an
/// internal mutex serialises run(), the supervision pass and the
/// introspection calls, so a batch always has the whole fleet to itself
/// and a supervision pass never interleaves with a dispatch round.
/// Determinism (rule #7, docs/ARCHITECTURE.md): respawn changes *which
/// process* answers a shard, never the answer — workers are stateless
/// and leaf planners are deterministic in platform content.

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/transport.hpp"
#include "planner/planning_service.hpp"
#include "planner/request.hpp"

namespace adept::dist {

/// Phase of one worker's dispatch state machine.
enum class WorkerPhase { Idle, Dispatched, Responded, Failed };

/// Human-readable phase name ("idle", "dispatched", ...).
const char* worker_phase_name(WorkerPhase phase);

/// One shard planning job: a self-contained request plus the registry
/// planner to run it with.
struct ShardJob {
  PlanRequest request;
  std::string planner = "heuristic";
};

/// Pool tuning knobs.
struct WorkerPoolConfig {
  /// Per-response receive timeout; a worker that exceeds it is failed.
  /// Jobs with a deadline use min(this, remaining budget) instead.
  double shard_timeout_ms = 120000.0;
  /// Health-check ping timeout. Deliberately much shorter than the
  /// shard timeout: a ping answers in microseconds, so dead-worker
  /// detection should not wait out a planning budget.
  double health_timeout_ms = 2000.0;
  /// Re-dispatch rounds after the initial one before giving up on
  /// workers and planning the leftovers in-process.
  int max_retries = 1;
  /// Refill failed slots with freshly spawned workers (transport-spawned
  /// pools only). Off by default: an unsupervised pool keeps the
  /// historical failure-is-terminal behaviour.
  bool respawn = false;
  /// Backoff before the first respawn attempt of a slot; doubles per
  /// consecutive failure. 0 respawns immediately (tests).
  double respawn_backoff_ms = 100.0;
  /// Cap on the exponential respawn backoff.
  double respawn_backoff_max_ms = 5000.0;
};

/// Runs shard-job batches over a worker fleet (see the file comment).
/// Thread-safe: concurrent run() calls and supervision passes take
/// turns on the pool's mutex.
class WorkerPool {
 public:
  /// Spawns `workers` workers from `transport` (>= 1). A worker whose
  /// spawn throws starts in the Failed phase; the pool is still usable
  /// as long as run()'s fallback can plan. The transport reference is
  /// kept for respawning and must outlive the pool.
  WorkerPool(Transport& transport, std::size_t workers,
             WorkerPoolConfig config = {});

  /// Adopts pre-spawned workers — fault-injection tests mix healthy and
  /// rigged workers in one fleet this way. No transport: respawn is
  /// unavailable, failure stays terminal.
  explicit WorkerPool(std::vector<std::unique_ptr<Worker>> workers,
                      WorkerPoolConfig config = {});

  WorkerPool(const WorkerPool&) = delete;             ///< Non-copyable.
  WorkerPool& operator=(const WorkerPool&) = delete;  ///< Non-copyable.

  /// Plans every shard locally when no worker can: called for each job
  /// that exhausted dispatch; must not throw (capture errors in the
  /// returned PlannerRun, like PlanningService::execute does).
  using LocalPlanFn = std::function<PlannerRun(const ShardJob&)>;

  /// Delivery hook of run(): called exactly once per job with the job's
  /// index and its final run — from a drain thread the moment a worker's
  /// ok response is parsed (concurrently across workers; the callee
  /// synchronises), or from the calling thread for fallback results
  /// after the dispatch rounds. A throw from the drain-thread path is
  /// treated as a worker failure (the job is re-dispatched or falls
  /// back — it has NOT been delivered); a throw from the fallback path
  /// propagates to the caller.
  using StreamResultFn = std::function<void(std::size_t, PlannerRun&&)>;

  /// Runs every job and hands each job's run to `on_result` as soon as
  /// it exists — worker responses straight off their drain threads,
  /// while other workers are still planning. Worker loss never surfaces
  /// as a failure here — exhausted jobs go through `local_fallback`
  /// (required non-null), and fallback results are delivered in
  /// ascending job order from the calling thread after the dispatch
  /// rounds. A run with healthy workers pipelines each worker's share
  /// and drains the workers concurrently, one thread per dispatched
  /// worker. With respawn enabled, each dispatch round starts by
  /// refilling failed slots whose backoff has elapsed. Holds the pool's
  /// mutex for the whole batch, so `on_result` must not call back into
  /// this pool.
  void run(const std::vector<ShardJob>& jobs, const LocalPlanFn& local_fallback,
           const StreamResultFn& on_result);

  /// Pings every non-failed worker with a `stats` command and fails the
  /// ones that do not answer ok within `health_timeout_ms`. A worker
  /// that answers has its failure streak cleared. Returns true when
  /// every worker in the pool is healthy.
  bool health_check();

  /// Respawns every Failed slot whose backoff has elapsed (no-op unless
  /// the pool was transport-spawned and `respawn` is enabled). A spawn
  /// that throws escalates the slot's backoff. Returns the number of
  /// workers respawned.
  std::size_t respawn_due();

  std::size_t size() const { return slots_.size(); }
  /// Workers not (yet) failed.
  std::size_t healthy_count() const;
  /// Current phase of worker `index`. Between run() calls this is Idle
  /// or Failed; Dispatched/Responded are transient in-run states.
  WorkerPhase phase(std::size_t index) const;

 private:
  struct Slot {
    std::unique_ptr<Worker> worker;
    WorkerPhase phase = WorkerPhase::Idle;
    /// Consecutive failures since the slot last behaved (drives the
    /// exponential backoff); cleared by a healthy round or ping.
    int failures = 0;
    /// Earliest instant respawn_due() may refill this slot.
    std::chrono::steady_clock::time_point retry_at{};
  };

  /// Worker indices able to take jobs. Callers hold mutex_.
  std::vector<std::size_t> healthy_indices() const;
  /// respawn_due() with mutex_ already held.
  std::size_t respawn_due_locked();
  /// Fails `slot`: phase, counter, hard-kill, backoff bookkeeping.
  void fail(Slot& slot);
  /// Capped exponential backoff for a slot's `failures` streak.
  std::chrono::steady_clock::duration backoff_delay(int failures) const;
  /// Receive timeout for `job`: the shard timeout, clamped to the job's
  /// remaining deadline budget when it has one.
  double receive_timeout_ms(const ShardJob& job) const;
  /// Sends `job_ids` through `slot` pipelined, drains the responses, and
  /// sorts the outcomes: answered jobs are streamed to `on_result`, jobs
  /// the worker answered with ok=false go to `remote_failed`
  /// (deterministically re-planned locally), everything unanswered at
  /// failure goes to `unanswered`.
  void drain(Slot& slot, const std::vector<ShardJob>& jobs,
             const std::vector<std::size_t>& job_ids,
             const StreamResultFn& on_result,
             std::vector<std::size_t>& unanswered,
             std::vector<std::size_t>& remote_failed);

  mutable std::mutex mutex_;  ///< Serialises batches, supervision, reads.
  std::vector<Slot> slots_;   ///< Guarded by mutex_ (size fixed).
  WorkerPoolConfig config_;
  Transport* transport_ = nullptr;  ///< Respawn source; null if adopted.
};

}  // namespace adept::dist
