// TcpServer, the server end of the TCP transport (net/tcp.hpp holds the
// client end): one leader/follower thread pool over an epoll set.
//
// Threading model (leader/follower):
//
//   * One thread at a time leads: it waits in epoll_wait and owns the
//     listening socket, every connection's *read* side and fd retirement.
//     Connections are registered edge-triggered (EPOLLET): one wakeup per
//     readiness transition, with reads drained to EAGAIN — a burst of
//     frames costs one epoll_wait return, not one per level-triggered poll
//     while bytes sit buffered. The leader accepts, reads into per-
//     connection buffers and decodes complete frames into the connection's
//     inbox.
//   * A leader that decoded frames for a connection no thread is running
//     first hands leadership on — to an idle follower, woken with one
//     notify_one, or to a thread it spawns (within `max_workers`) — and
//     then runs that connection's inbox itself through ServerCore::handle:
//     the thread that read a request answers it, so a request costs the
//     server one wake. A handler that blocks (a contended acquire, a
//     replicated release) therefore only ever blocks a thread that no
//     longer leads, and accept/read progress never waits on the core.
//     When it can neither wake nor spawn a thread, the leader queues the
//     connection and keeps leading; the next thread to finish its own
//     connection takes it.
//   * A connection is run by at most one thread at a time (its `scheduled`
//     flag), which drains its inbox in order, preserving each session's
//     frame order; frames the leader decodes meanwhile join that inbox.
//     A thread done with its connection takes a queued connection, the
//     vacant leadership, or waits as an idle follower; a follower idle for
//     2 s retires while `workers` others stay idle. A server starts with
//     one thread, the leader.
//   * Any thread (one producing a response, a core pushing a
//     notification) appends frames to the connection's outbox and flushes:
//     every frame pending for that connection rides one sendmsg as an
//     iovec chain (frame coalescing). On EAGAIN the flusher arms EPOLLOUT
//     and the leader finishes the job when the socket drains.
//
// Receive copies: frames arrive through a 64 KiB read chunk and a per-
// connection buffer, except the rest of a frame whose payload outgrows one
// chunk: once its header is in, it is received straight into its payload
// buffer. That buffer grows as bytes arrive, to at most 8x the frame's
// bytes received so far and never past its declared size, so a header that
// lies cannot make the server reserve memory the peer has not sent.
//
// Backpressure: when a connection's outbox exceeds `write_high_watermark`
// (a slow reader), the server stops *reading* from that connection until
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
#include <list>
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
  X(worker_queue_depth_max) /* high-water mark of connections queued with */ \
                            /* no thread free to run them */                  \
  X(workers_spawned)        /* pool threads ever created */                   \
  X(leader_handoffs)        /* leaderships passed on to run a connection */   \
  X(frames_run_by_reader)   /* frames handled by the thread that read them */ \
  X(backpressure_stalls)    /* reads paused on a full outbox */               \
  X(accept_backoffs)        /* EMFILE/ENFILE listener pauses */              \
  X(recv_reserved_max)      /* largest payload buffer a large frame got */

struct ReactorStats {
  IW_REACTOR_COUNTERS(IW_COUNTER_FIELD)
};

class TcpServer {
 public:
  struct Options {
    /// Idle followers kept beside the leader: a follower idle for 2 s
    /// retires while this many others are idle. The default keeps none, so
    /// an idle server runs one thread.
    int workers = 0;
    /// Ceiling on pool threads. A leader spawns a thread to take over
    /// leadership when none is idle (every other thread running a
    /// connection, typically blocked in a lock acquire). At least 2.
    int max_workers = 128;
    /// Outbox size beyond which reading from the connection is paused.
    size_t write_high_watermark = 8u << 20;
    /// Outbox size below which a paused connection resumes reading.
    size_t write_low_watermark = 1u << 20;
    /// Milliseconds to pause the listener after EMFILE/ENFILE.
    uint32_t accept_backoff_ms = 100;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the pool's first
  /// thread, the leader. Throws Error(kIo) when the socket cannot be bound.
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
  /// backpressure stalls, pool hand-offs and high-water marks).
  ReactorStats stats() const;

 private:
  struct Conn;
  struct AtomicStats;
  using ThreadList = std::list<std::thread>;

  // Pool. `thread_main` is every pool thread: it runs queued connections,
  // takes the vacant leadership, or waits as an idle follower.
  void thread_main(ThreadList::iterator self);
  /// The leader's epoll loop. Returns a connection to run once leadership
  /// has been handed on, or nullptr when the pool stops.
  std::shared_ptr<Conn> lead();
  /// Hands leadership on (to an idle follower or a new thread) and queues
  /// every connection of `to_run` but the first, which it returns for the
  /// leader to run. When no thread can take over it queues them all and
  /// returns nullptr: the caller keeps leading.
  std::shared_ptr<Conn> hand_off(std::vector<std::shared_ptr<Conn>>& to_run);
  /// Queues a connection for the next free thread (a fatal flush's
  /// teardown), waking or spawning one if it can.
  void schedule(const std::shared_ptr<Conn>& conn);
  /// schedule() with pool_mu_ held; adds to `notify` as recruit_locked.
  void queue_locked(std::shared_ptr<Conn> conn, int& notify);
  /// Finds a thread for one role: claims an idle follower (adding one to
  /// `notify`, the notify_one calls the caller owes pool_cv_ once it has
  /// unlocked) or spawns a thread within max_workers. Caller holds
  /// pool_mu_; false when neither is possible or the pool has stopped.
  bool recruit_locked(int& notify);
  bool spawn_locked();
  /// Drains the connection's inbox through the core; `reader` says the
  /// running thread decoded those frames itself.
  void process(const std::shared_ptr<Conn>& conn, bool reader);

  // Leader-only work.
  void handle_accept();
  /// Reads and decodes what the socket holds. Returns true when the
  /// connection now needs a thread to run its inbox.
  bool handle_readable(const std::shared_ptr<Conn>& conn);
  /// Moves the complete frames at the front of the connection's read
  /// buffer into `decoded`, and starts a large frame (see Conn::large) when
  /// the partial tail is one. Throws Error(kProtocol) on a bad header.
  void decode_frames(Conn& conn, std::vector<Frame>& decoded);
  /// Sizes the large frame's payload buffer to its declared size, or to
  /// kRecvGrowth times the `received` bytes if that is less.
  void reserve_large(Conn& conn, size_t received);
  void pause_listener();
  void resume_listener();
  /// Closes the listener and shuts every socket down (shutdown()).
  void start_drain();

  // Write path. `flush` drains as much of the outbox as the socket takes,
  // coalescing all pending frames into one sendmsg per syscall; arms
  // EPOLLOUT when the socket is full. Safe from any thread.
  void enqueue_frame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void enqueue_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void flush(const std::shared_ptr<Conn>& conn);
  void update_read_interest(const std::shared_ptr<Conn>& conn);

  // Teardown. `retire` runs on the leader (the one epoll owner).
  void request_retire(const std::shared_ptr<Conn>& conn);
  void retire(const std::shared_ptr<Conn>& conn);
  void wake_leader();

  ServerCore& core_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: cross-thread wakeups of the leader
  int timer_fd_ = -1;  // accept backoff timer
  uint16_t port_ = 0;
  // Leader only (leadership passes under pool_mu_, which orders them).
  bool listener_paused_ = false;
  bool draining_ = false;

  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;

  // Registered connections, keyed by fd. The leader inserts/erases;
  // the drain reads under the same lock.
  std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Connections whose sockets died on a non-leader thread; the leader
  // retires them (epoll_ctl + close need a single owner).
  std::mutex retire_mu_;
  std::vector<std::shared_ptr<Conn>> retire_queue_;

  // Pool state, all guarded by pool_mu_. Waiting followers number
  // `idle_ + claimed_`: a claimed one was notified to take a role and has
  // not woken yet. A thread that retires idle parks its own handle in
  // `retired_`, joined by the next one to retire or by shutdown.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::deque<std::shared_ptr<Conn>> ready_;
  ThreadList threads_;
  std::thread retired_;
  bool leader_present_ = false;
  int idle_ = 0;
  int claimed_ = 0;
  int live_ = 0;
  bool pool_stopping_ = false;

  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace iw
