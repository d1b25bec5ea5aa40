// ScheduleServer: the long-lived schedule-serving front end.
//
// The paper's claim is that once the diagonal precompute is amortized,
// QAOA schedule evaluation is cheap enough to serve at scale. This is the
// subsystem that serves it: a fixed pool of worker threads draining a
// bounded MPMC work queue of (problem, schedule-batch) requests, each
// worker checking the problem's ProblemSession out of a shared
// SessionCache (exclusive lease; LRU under a byte budget) and routing the
// batch through the session's evaluate_batch -- the PR 4/5 pipeline, batch
// scratch pool, and obs instrumentation all ride along unchanged, so a
// cache-hit request pays zero precompute and zero steady-state statevector
// allocations.
//
// Two request paths share the queue and workers:
//  - submit(): the in-process path (tests, the load bench, embedding apps)
//    returning a std::future<Response>. Never blocks: a full queue
//    resolves the future immediately with Status::Overloaded.
//  - an optional AF_UNIX socket front end (ServerConfig::listen_path)
//    speaking the length-prefixed binary protocol of serve/protocol.hpp;
//    one thread per connection decodes frames, submits, and writes the
//    response back. Malformed frames get a final error response and the
//    connection is closed (the stream is no longer frame-aligned);
//    semantically bad requests get Status::BadRequest and the connection
//    stays open.
//
// Queue depth, request/reject/malformed counters, and request latency
// histograms flow into the obs registry (qokit_serve_*); cache_stats()
// exposes the cache's counters without observability enabled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "serve/protocol.hpp"
#include "serve/session_cache.hpp"
#include "serve/work_queue.hpp"

namespace qokit::serve {

struct ServerConfig {
  /// Worker threads draining the queue. 0 is allowed (nothing drains --
  /// a deterministic way to observe queue-full backpressure in tests;
  /// pending requests are failed with ShuttingDown at shutdown).
  int workers = 2;
  std::size_t queue_capacity = 256;  ///< pending requests before Overloaded
  std::uint64_t cache_bytes = std::uint64_t{1} << 32;  ///< session budget
  /// Non-empty: also listen on this AF_UNIX socket path (unlinked and
  /// re-bound at construction).
  std::string listen_path;
  int listen_backlog = 64;
};

class ScheduleServer {
 public:
  /// Starts the workers (and, with a listen_path, the accept loop).
  /// Throws std::system_error when the socket cannot be bound.
  explicit ScheduleServer(ServerConfig config = {});
  ~ScheduleServer();  // shutdown()

  ScheduleServer(const ScheduleServer&) = delete;
  ScheduleServer& operator=(const ScheduleServer&) = delete;

  /// Enqueue a request; the future resolves when a worker has evaluated it
  /// (or immediately with Overloaded / ShuttingDown when it cannot be
  /// queued). Never blocks.
  std::future<Response> submit(Request request);

  /// submit() + wait. The convenience path for sequential clients.
  Response submit_blocking(Request request);

  /// Stop accepting work, drain the queue through the workers, join every
  /// thread, and fail still-unqueued/undrained requests with ShuttingDown.
  /// Idempotent; also run by the destructor.
  void shutdown();

  std::size_t queue_depth() const { return queue_.depth(); }
  SessionCache::Stats cache_stats() const { return cache_.stats(); }
  const ServerConfig& config() const { return config_; }

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  void accept_loop();
  /// Join the connection threads listed in conn_done_ (acceptor only).
  void reap_finished_connections();
  void connection_loop(int fd);
  Response handle(Request& request,
                  std::chrono::steady_clock::time_point enqueued);

  ServerConfig config_;
  SessionCache cache_;
  WorkQueue<Job> queue_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;

  // Socket front end (idle when listen_path is empty). conn_mu_ guards
  // the connection registry: the open fds (so shutdown() can SHUT_RDWR
  // exactly the descriptors still owned by connection threads -- see the
  // deregister-before-close comment in connection_loop) and the
  // connection threads themselves (swapped out and joined in batches by
  // shutdown()). A connection thread records its id in conn_done_ as its
  // last registry action; the acceptor joins those threads on the next
  // accept, so a long-lived server holds at most the live connections
  // plus the ones that ended since the last accept.
  int listen_fd_ = -1;
  std::thread acceptor_;
  Mutex conn_mu_;
  std::vector<int> conn_fds_ QOKIT_GUARDED_BY(conn_mu_);
  std::vector<std::thread> conn_threads_ QOKIT_GUARDED_BY(conn_mu_);
  std::vector<std::thread::id> conn_done_ QOKIT_GUARDED_BY(conn_mu_);
};

/// Minimal blocking client for the socket front end (tests, the load
/// bench, and the serve_quickstart example). One connection per instance;
/// call() frames the request, writes it, and blocks for the response.
class Client {
 public:
  /// Connects immediately; throws std::system_error on failure.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Round-trip one request. Throws ProtocolError on a malformed reply and
  /// std::runtime_error when the connection drops mid-exchange.
  Response call(const Request& request);

 private:
  int fd_ = -1;
};

}  // namespace qokit::serve
