#pragma once
/// \file transport.hpp
/// \brief Worker transports of the distributed planning tier.
///
/// A Worker is one endpoint speaking the `adept serve` JSON-lines
/// protocol: send() a request line, receive() the matching response line
/// (responses arrive in request order — the serve contract). A Transport
/// spawns workers. Three implementations:
///
///   - InProcessTransport — answers each line by running the registry
///     planner on the calling thread. No serialization is skipped: the
///     request line is deserialized through io/wire exactly as a real
///     server would, so the in-process path exercises — and guarantees —
///     the same round-trip-exact wire behaviour the pipe path relies on
///     for bit-identity. This is also the Coordinator's fallback when a
///     worker fleet dies: a request never fails because of worker loss.
///
///   - PipeTransport — fork/execs a subprocess per worker (by default
///     this very binary, `adept serve`) and speaks the protocol over
///     stdin/stdout pipes. receive() enforces a timeout via poll(), so a
///     hung worker is detected, and the destructor supervises shutdown:
///     closing the worker's stdin makes serve quit on EOF, with a
///     bounded wait before SIGKILL.
///
///   - SocketTransport — each worker is one TCP connection to an
///     `adept serve --listen host:port` process (possibly on another
///     machine), same line framing and receive discipline as the pipe
///     path. The serve process is *not* supervised by this transport —
///     it is a long-lived service shared by many coordinators; worker
///     "respawn" is simply a reconnect.
///
/// Workers are single-owner: the WorkerPool drives each worker from one
/// drain thread at a time, so implementations need no internal locking.

#include <cstddef>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace adept::dist {

/// One serve-protocol endpoint (see the file comment for the contract).
class Worker {
 public:
  virtual ~Worker() = default;

  /// Ships one request line (newline appended by the transport). False
  /// when the worker is unusable (died, pipe closed); the pool marks the
  /// worker failed and re-dispatches elsewhere.
  virtual bool send(const std::string& line) = 0;

  /// Receives the next response line, waiting at most `timeout_ms`.
  /// False on timeout, EOF, or a dead worker — the caller cannot tell
  /// which, and does not need to: any false is a worker failure.
  virtual bool receive(std::string& line, double timeout_ms) = 0;

  /// True until the worker is known dead (send/receive failed, kill()).
  virtual bool alive() const = 0;

  /// Hard-kills the worker (SIGKILL for subprocesses). Idempotent; used
  /// on failure paths and by fault-injection tests.
  virtual void kill() = 0;
};

/// Spawns workers for a WorkerPool.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Transport name for logs/stats ("in-process", "pipe").
  virtual const char* name() const = 0;
  /// Spawns one worker; throws adept::Error when spawning itself fails
  /// (a worker that dies *after* spawning is detected on first use).
  virtual std::unique_ptr<Worker> spawn() = 0;
};

/// Same-process transport: every spawned worker answers request lines by
/// running the named registry planner directly — serially, on the
/// receiving thread, which makes leaf plans bit-identical to the local
/// sharded planner's serial path by construction. Parallelism comes from
/// the pool driving several workers from separate drain threads.
class InProcessTransport final : public Transport {
 public:
  const char* name() const final { return "in-process"; }
  std::unique_ptr<Worker> spawn() final;
};

/// Subprocess transport: each worker is `argv` fork/exec'd with its
/// stdin/stdout connected to the coordinator by pipes. The default argv
/// (see self_serve_command) runs this very binary's serve mode; tests
/// substitute shell one-liners to inject crashes, garbage and hangs.
class PipeTransport final : public Transport {
 public:
  /// `argv[0]` is the program (PATH-resolved via execvp); must be
  /// non-empty.
  explicit PipeTransport(std::vector<std::string> argv);

  const char* name() const final { return "pipe"; }
  std::unique_ptr<Worker> spawn() final;

 private:
  std::vector<std::string> argv_;
};

/// TCP transport: each worker is one connection to an `adept serve
/// --listen` endpoint, speaking the serve JSON-lines protocol over the
/// socket instead of stdio. spawn() connects eagerly — round-robin over
/// `endpoints`, so N workers against one endpoint open N independent
/// sessions on the same warm process — using a non-blocking connect
/// under an absolute deadline (EINTR-retried poll slices, exactly the
/// pipe receive discipline); a refused or timed-out connect throws,
/// which the pool turns into a Failed slot and the coordinator into an
/// in-process fallback. receive() shares the pipe worker's framing loop,
/// with the timeout already clipped to the request's remaining
/// `budget_ms` by the WorkerPool. kill() shuts the connection down both
/// ways (the serve session ends on EOF); there is no subprocess to
/// signal.
class SocketTransport final : public Transport {
 public:
  /// `endpoints` are "host:port" strings (names resolved via
  /// getaddrinfo); must be non-empty. `connect_timeout_ms` bounds each
  /// spawn()'s connect attempt.
  explicit SocketTransport(std::vector<std::string> endpoints,
                           double connect_timeout_ms = 5000.0);

  const char* name() const final { return "socket"; }
  std::unique_ptr<Worker> spawn() final;

 private:
  std::vector<std::string> endpoints_;
  double connect_timeout_ms_;
  std::size_t next_ = 0;
};

/// A supervised `adept serve --listen` subprocess for tests and benches:
/// forks `argv` with stdout piped back, waits for the child to announce
/// its bound endpoint ("listening on <host:port>" — the serve_listen
/// contract, which resolves port 0 to the kernel-picked ephemeral port),
/// and kills + reaps the child on destruction. This is process
/// *hosting*, deliberately separate from SocketTransport, which only
/// ever connects: production serve processes outlive any coordinator.
class ServeListener {
 public:
  /// Throws adept::Error when the child cannot be spawned or does not
  /// announce an endpoint within `announce_timeout_ms`.
  explicit ServeListener(std::vector<std::string> argv,
                         double announce_timeout_ms = 15000.0);
  ~ServeListener();

  ServeListener(const ServeListener&) = delete;
  ServeListener& operator=(const ServeListener&) = delete;

  /// The announced "host:port" (ephemeral port already resolved).
  const std::string& endpoint() const { return endpoint_; }
  pid_t pid() const { return pid_; }

  /// SIGKILLs the listener now (fault injection: every connected worker
  /// sees EOF). Idempotent; the destructor then only reaps.
  void kill_now();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string endpoint_;
};

/// The standard worker command for this process: {self, "serve",
/// "--jobs", jobs, "--cache", "0"} with `self` read from /proc/self/exe.
/// `jobs` = 0 lets each worker size its own pool. Throws adept::Error
/// when the executable path cannot be resolved (non-Linux without
/// procfs); callers may then fall back to the in-process transport.
std::vector<std::string> self_serve_command(std::size_t jobs = 1);

/// The standard listener command for this process: self_serve_command
/// plus {"--listen", "127.0.0.1:0"} and, when `max_sessions` > 0,
/// {"--max-sessions", max_sessions} so the listener exits cleanly after
/// a known number of sessions (sanitizer-friendly tests).
std::vector<std::string> self_serve_listen_command(
    std::size_t jobs = 1, std::size_t max_sessions = 0);

/// The shared receive loop of the pipe and socket workers: moves the
/// next '\n'-terminated line (terminator stripped) from `buffer` + reads
/// of `fd` into `line`, leaving any bytes after it in `buffer` for the
/// next call. One absolute deadline for the whole receive: every retry —
/// poll() slices, EINTR on poll() or read(), partial-line reads from a
/// dribbling writer — re-checks this instant; nothing restarts the
/// budget, so a receive(t) returns within ~t no matter how the bytes
/// arrive. Each read scans only the bytes it appended, so a line of L
/// bytes costs O(L). EOF and read errors clear `alive`; a timeout leaves
/// it set (the pool decides the peer is hung and kills it).
bool receive_framed_line(int fd, std::string& buffer, std::string& line,
                         double timeout_ms, bool& alive);

}  // namespace adept::dist
