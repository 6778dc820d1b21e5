// TCP transport: real sockets for running clients and servers as separate
// processes (or separate threads with genuine network framing).
//
// TcpServer fronts the epoll Reactor (net/reactor.hpp): nonblocking
// sockets, per-connection session state machines, a small elastic worker
// pool calling into the ServerCore, and response/notification frames
// coalesced into one sendmsg per flush. The constructor/shutdown API is
// unchanged from the thread-per-connection era, so every existing caller
// and test runs unmodified on the event-driven core.
//
// TcpClientChannel owns the client end: calls are multiplexed by request
// id and its one thread, the receiver, demultiplexes responses from
// notifications (request_id == 0), decoding every complete frame out of
// each recv. It runs the notify handler itself, so a handler must not call
// back into the channel (see ClientChannel::set_notify_handler).
// Concurrent callers' request frames are coalesced: whoever finds no flush
// in progress becomes the flusher and sends every queued frame in one
// syscall (optionally lingering `batch_window_us` to let a burst
// accumulate), so many small lock/commit RPCs from a busy process ride one
// send.
#pragma once

#include <sys/socket.h>

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.hpp"
#include "net/transport.hpp"

namespace iw {

class TcpServer {
 public:
  using Options = Reactor::Options;

  /// Starts listening on 127.0.0.1:`port` (0 = ephemeral) and serving
  /// `core`. Throws Error(kIo) when the socket cannot be bound.
  TcpServer(ServerCore& core, uint16_t port);
  TcpServer(ServerCore& core, uint16_t port, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual bound port (useful with port 0).
  uint16_t port() const noexcept { return reactor_->port(); }

  /// Stops accepting, closes all connections, joins threads.
  void shutdown();

  /// Transport-level counters (epoll wakeups, frames per sendmsg,
  /// backpressure stalls, worker-pool high-water marks) — the same
  /// atomic-snapshot idiom as SegmentServer::stats().
  ReactorStats stats() const { return reactor_->stats(); }

 private:
  std::unique_ptr<Reactor> reactor_;
};

/// TcpClientChannel's send-path counters (util/counters.hpp).
#define IW_TCP_BATCH_COUNTERS(X)                         \
  X(frames_sent)    /* request frames written */         \
  X(send_syscalls)  /* send() calls that carried them */ \
  X(frames_batched) /* frames that shared a syscall */

class TcpClientChannel final : public ClientChannel {
 public:
  struct Options {
    /// Deadline for one call() round trip, send to response. 0 disables
    /// (unbounded blocking — only for tests that explicitly want it).
    uint32_t call_timeout_ms = 30'000;
    /// Deadline for establishing the connection (poll-based non-blocking
    /// connect). 0 falls back to the OS default.
    uint32_t connect_timeout_ms = 5'000;
    /// Small-write aggregation window in microseconds. 0 (default) still
    /// coalesces naturally concurrent calls — frames queued while another
    /// thread is mid-send ride that thread's next syscall — but never
    /// delays a lone call. > 0 makes the flushing thread linger that long
    /// so bursts from many threads accumulate into one send (group
    /// commit); bounded by batch_max_bytes.
    uint32_t batch_window_us = 0;
    /// Pending bytes that cut a batch window short and force a flush.
    size_t batch_max_bytes = 64 * 1024;
  };

  /// Aggregation counters for the send path (relaxed-atomic snapshot).
  struct BatchStats {
    IW_TCP_BATCH_COUNTERS(IW_COUNTER_FIELD)
  };

  /// Connects to 127.0.0.1:`port`. Throws a transport Error on failure
  /// (kTimedOut when the connect deadline expires).
  explicit TcpClientChannel(uint16_t port)
      : TcpClientChannel(port, Options()) {}
  TcpClientChannel(uint16_t port, Options options);
  ~TcpClientChannel() override;

  using ClientChannel::call;
  Frame call(MsgType type, Buffer& payload) override;
  void set_notify_handler(std::function<void(const Frame&)> fn) override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(); }
  uint64_t bytes_received() const override { return bytes_received_.load(); }

  /// Half-closes the socket so the server sees EOF and reaps the session
  /// promptly, even while another thread's in-flight call still pins this
  /// object. The receiver thread winds down as on destruction; the
  /// destructor (which repeats the shutdown harmlessly) still joins it.
  void shutdown() noexcept override { ::shutdown(fd_, SHUT_RDWR); }
  ChannelFaultStats fault_stats() const override {
    ChannelFaultStats s;
    faults_.snapshot_into(s);
    return s;
  }
  BatchStats batch_stats() const {
    BatchStats s;
    batch_.snapshot_into(s);
    return s;
  }

 private:
  void receive_loop();
  /// Hands one received frame to its waiting caller, or to the notify
  /// handler when it is a notification (request id 0). The handler runs
  /// here, on the receiver, with no channel lock held; one that throws is
  /// logged and skipped, and the connection carries on.
  void deliver(Frame&& frame);
  /// Queues one encoded frame and sees it onto the wire: either becomes
  /// the flusher (sending every queued byte in one syscall) or waits for
  /// the active flusher to carry it. Throws the transport error that
  /// killed the send, to every affected caller.
  void send_frame_coalesced(const uint8_t* header, size_t header_len,
                            const Buffer& payload);
  /// Marks the channel dead with `reason` and wakes every waiter — callers
  /// blocked on responses and callers parked in the send path.
  void fail_channel(const Error& reason);

  Options options_;
  int fd_ = -1;
  std::thread receiver_;

  // Send-side aggregation. Absolute stream positions (bytes ever queued /
  // bytes ever flushed) let a caller wait precisely for its own frame.
  std::mutex send_mu_;
  std::condition_variable send_cv_;
  Buffer send_pending_;
  uint64_t send_queued_pos_ = 0;   ///< stream position after send_pending_
  uint64_t send_flushed_pos_ = 0;  ///< stream position on the wire
  uint64_t send_pending_frames_ = 0;
  bool send_flusher_active_ = false;
  std::optional<Error> send_error_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::string close_reason_;
  uint32_t next_request_id_ = 1;
  std::map<uint32_t, Frame> responses_;
  /// Request ids whose caller gave up (deadline); the receiver discards
  /// their late responses instead of parking them in `responses_` forever.
  std::set<uint32_t> abandoned_;

  std::mutex notify_mu_;
  std::function<void(const Frame&)> notify_;

  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  ChannelFaultCounters faults_;
  struct BatchCounters {
    IW_COUNTER_ATOMICS(IW_TCP_BATCH_COUNTERS)
  };
  BatchCounters batch_;
};

}  // namespace iw
