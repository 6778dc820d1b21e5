// TcpServer, the server end of the TCP transport (net/tcp.hpp holds the
// client end): an epoll reactor plus a small elastic worker pool.
//
// Threading model (three roles):
//
//   * The reactor thread owns epoll, the listening socket, and every
//     connection's *read* side. Connections are registered edge-triggered
//     (EPOLLET): one wakeup per readiness transition, with reads drained
//     to EAGAIN — a burst of frames costs one epoll_wait return, not one
//     per level-triggered poll while bytes sit buffered. It accepts, reads
//     into per-connection ring buffers, decodes complete frames, and
//     schedules the connection onto the worker pool. It never calls into
//     the ServerCore, so a slow or blocking request handler can never
//     stall accept/read progress.
//   * Worker threads pop scheduled connections and drain their decoded
//     frame queues through ServerCore::handle (whose per-segment locking
//     makes concurrent workers safe). One connection is processed by at
//     most one worker at a time, preserving each session's frame order.
//     Because handle() may block (a writer waiting on a contended lock),
//     the pool grows elastically up to `max_workers` whenever frames are
//     queued and every existing worker is busy — so a pile-up of blocked
//     writers cannot starve the release that would unblock them.
//   * Any thread (a worker producing a response, a core pushing a
//     notification) appends frames to the connection's outbox and flushes:
//     every frame pending for that connection rides one sendmsg as an
//     iovec chain (frame coalescing). On EAGAIN the flusher arms EPOLLOUT
//     and the reactor thread finishes the job when the socket drains.
//
// Receive copies: frames arrive through a 64 KiB read chunk and a per-
// connection buffer, except the rest of a frame whose payload outgrows one
// chunk: once its header is in, it is received straight into its payload
// buffer. That buffer grows as bytes arrive, to at most 8x the frame's
// bytes received so far and never past its declared size, so a header that
// lies cannot make the server reserve memory the peer has not sent.
//
// Backpressure: when a connection's outbox exceeds `write_high_watermark`
// (a slow reader), the reactor stops *reading* from that connection until
// the outbox drains below `write_low_watermark` — the peer's TCP window
// then throttles it, and the server's memory stays bounded.
//
// Accept robustness: EMFILE/ENFILE pauses the listener and retries on a
// timerfd backoff instead of spinning or silently dropping the listener.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/counters.hpp"

namespace iw {

/// Counters the reactor maintains as relaxed atomics and snapshots on
/// demand (util/counters.hpp).
#define IW_REACTOR_COUNTERS(X)                                                \
  X(connections_accepted)                                                     \
  X(connections_closed)                                                       \
  X(epoll_wakeups)          /* epoll_wait returns */                          \
  X(frames_received)        /* request frames decoded */                      \
  X(frames_sent)            /* response/notification frames sent */           \
  X(frames_batched)         /* frames that shared a sendmsg with >=1 other */ \
  X(sendmsg_calls)          /* flush syscalls (sendmsg) */                    \
  X(recv_calls)             /* read syscalls (recv) */                        \
  X(worker_queue_depth_max) /* high-water mark of ready queue */              \
  X(workers_spawned)        /* pool threads ever created */                   \
  X(backpressure_stalls)    /* reads paused on a full outbox */               \
  X(accept_backoffs)        /* EMFILE/ENFILE listener pauses */              \
  X(recv_reserved_max)      /* largest payload buffer a large frame got */

struct ReactorStats {
  IW_REACTOR_COUNTERS(IW_COUNTER_FIELD)
};

class TcpServer {
 public:
  struct Options {
    /// Worker threads started eagerly. 0 = auto (min(4, hardware threads)).
    int workers = 0;
    /// Elastic ceiling: extra workers are spawned while frames are queued
    /// and every worker is busy (typically blocked in a lock acquire).
    int max_workers = 128;
    /// Outbox size beyond which reading from the connection is paused.
    size_t write_high_watermark = 8u << 20;
    /// Outbox size below which a paused connection resumes reading.
    size_t write_low_watermark = 1u << 20;
    /// Milliseconds to pause the listener after EMFILE/ENFILE.
    uint32_t accept_backoff_ms = 100;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the reactor thread
  /// plus the core worker pool. Throws Error(kIo) when the socket cannot
  /// be bound.
  TcpServer(ServerCore& core, uint16_t port) : TcpServer(core, port, {}) {}
  TcpServer(ServerCore& core, uint16_t port, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual bound port (useful with port 0).
  uint16_t port() const noexcept { return port_; }

  /// Stops accepting, closes every connection (running their
  /// on_disconnect), and joins all threads. Idempotent.
  void shutdown();

  /// Transport-level counters (epoll wakeups, frames per sendmsg,
  /// backpressure stalls, worker-pool high-water marks).
  ReactorStats stats() const;

 private:
  struct Conn;
  struct AtomicStats;

  void reactor_loop();
  void handle_accept();
  void handle_readable(const std::shared_ptr<Conn>& conn);
  /// Moves the complete frames at the front of the connection's read
  /// buffer into `decoded`, and starts a large frame (see Conn::large) when
  /// the partial tail is one. Throws Error(kProtocol) on a bad header.
  void decode_frames(Conn& conn, std::vector<Frame>& decoded);
  /// Sizes the large frame's payload buffer to its declared size, or to
  /// kRecvGrowth times the `received` bytes if that is less.
  void reserve_large(Conn& conn, size_t received);
  void handle_writable(const std::shared_ptr<Conn>& conn);
  void pause_listener();
  void resume_listener();

  // Worker pool.
  void worker_loop();
  void schedule(const std::shared_ptr<Conn>& conn);
  void process(const std::shared_ptr<Conn>& conn);

  // Write path. `flush` drains as much of the outbox as the socket takes,
  // coalescing all pending frames into one sendmsg per syscall; arms
  // EPOLLOUT when the socket is full. Safe from any thread.
  void enqueue_frame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void enqueue_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void flush(const std::shared_ptr<Conn>& conn);
  void update_read_interest(const std::shared_ptr<Conn>& conn);

  // Teardown. `retire` runs on the reactor thread (sole epoll owner).
  void request_retire(const std::shared_ptr<Conn>& conn);
  void retire(const std::shared_ptr<Conn>& conn);
  void wake_reactor();

  ServerCore& core_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: cross-thread wakeups
  int timer_fd_ = -1;  // accept backoff timer
  uint16_t port_ = 0;
  bool listener_paused_ = false;  // reactor thread only

  std::thread reactor_thread_;
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;

  // Registered connections, keyed by fd. Reactor thread inserts/erases;
  // shutdown reads under the same lock.
  std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Connections whose sockets died in a worker/notifier thread; the
  // reactor thread retires them (epoll_ctl + close need a single owner).
  std::mutex retire_mu_;
  std::vector<std::shared_ptr<Conn>> retire_queue_;

  // Worker pool state, all guarded by pool_mu_. `workers_` only grows
  // (exited elastic workers stay joinable until shutdown); `live_workers_`
  // tracks threads actually running.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::deque<std::shared_ptr<Conn>> ready_;
  std::vector<std::thread> workers_;
  int idle_workers_ = 0;
  int live_workers_ = 0;
  bool pool_stopping_ = false;

  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace iw
