// TCP transport: real sockets for running clients and servers as separate
// processes (or separate threads with genuine network framing).
//
// The server end is TcpServer, the epoll reactor of net/reactor.hpp:
// nonblocking sockets, per-connection session state machines, a leader/
// follower thread pool in which the thread that reads a request runs it
// through the ServerCore, and response and notification frames coalesced
// into one sendmsg per flush.
//
// TcpClientChannel owns the client end. Calls are multiplexed by request
// id, and each call sends its frame, header and payload together, with one
// vectored sendmsg. The calling thread reads its own response: it polls the
// socket with the call's remaining deadline and receives without blocking,
// so a round trip costs the client one wake. One read token lets one thread
// read at a time; the frames it decodes are routed in stream order —
// notifications (request_id == 0) to the notify handler, run right there,
// and other callers' responses to them. The channel's one thread, the
// receiver, reads only while no call is outstanding (it waits in its own
// epoll set, whose interest in the socket is off while calls are), so
// notifications that arrive between calls are delivered too. A handler
// therefore runs on the receiver or on a calling thread, and must not call
// back into the channel (see ClientChannel::set_notify_handler). A frame
// larger than the 64 KiB receive buffer is received straight into its
// payload once its header is in.
#pragma once

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "net/reactor.hpp"
#include "net/transport.hpp"

namespace iw {

class TcpClientChannel final : public ClientChannel {
 public:
  struct Options {
    /// Deadline for one call() round trip, send to response. Must be
    /// positive: the constructor rejects 0 with kInvalidArgument.
    uint32_t call_timeout_ms = 30'000;
    /// Deadline for establishing the connection (poll-based non-blocking
    /// connect). Must be positive, like call_timeout_ms.
    uint32_t connect_timeout_ms = 5'000;
  };

  /// Connects to 127.0.0.1:`port`. Throws a transport Error on failure
  /// (kTimedOut when the connect deadline expires), and
  /// Error(kInvalidArgument) for a zero timeout.
  explicit TcpClientChannel(uint16_t port)
      : TcpClientChannel(port, Options()) {}
  TcpClientChannel(uint16_t port, Options options);
  ~TcpClientChannel() override;

  using ClientChannel::call;
  Frame call(MsgType type, Buffer& payload) override;
  void set_notify_handler(std::function<void(const Frame&)> fn) override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(); }
  uint64_t bytes_received() const override { return bytes_received_.load(); }

  /// Shuts the socket down so the server sees EOF and reaps the session
  /// promptly, even while another thread's in-flight call still pins this
  /// object. The receiver thread winds down as on destruction; the
  /// destructor (which repeats the shutdown harmlessly) still joins it.
  void shutdown() noexcept override { ::shutdown(fd_, SHUT_RDWR); }
  ChannelFaultStats fault_stats() const override {
    ChannelFaultStats s;
    faults_.snapshot_into(s);
    return s;
  }

 private:
  /// The receiver thread: waits for bytes that arrive while no call is
  /// outstanding and delivers them.
  void receive_loop();
  /// Waits for the response to `request_id` until `deadline`, reading the
  /// socket itself whenever the read token is free. Ends the call (see
  /// end_call_locked) and throws its transport error on timeout or close.
  Frame await_response(uint32_t request_id,
                       std::chrono::steady_clock::time_point deadline,
                       MsgType type, std::chrono::steady_clock::time_point start);
  /// Reads for a caller holding the read token: polls with the deadline and
  /// delivers every frame received, until `request_id`'s response is among
  /// them (returned) or the deadline passes (nullopt). A read failure fails
  /// the channel.
  std::optional<Frame> read_own(uint32_t request_id,
                                std::chrono::steady_clock::time_point deadline);
  /// Reads for the receiver holding the read token: delivers what the
  /// socket holds. Returns false once the channel has failed.
  bool read_idle();
  /// Receives once without blocking, into the large frame in progress or
  /// the buffer. Returns true when the read filled all the room it had, so
  /// the socket may hold more; false when it left the socket empty. Throws
  /// a transport Error on EOF or a socket failure.
  bool receive_some();
  /// Delivers every complete frame received so far, in stream order: the
  /// response to `want` into `*mine`, others through route(). Starts a
  /// large frame when the partial tail's header declares one.
  void deliver_buffered(uint32_t want, std::optional<Frame>* mine);
  /// Hands a frame that is not the reader's own to its waiting caller, or
  /// to the notify handler when it is a notification (request id 0). The
  /// handler runs on the reading thread with no channel lock held; one
  /// that throws is logged and skipped, and the connection carries on.
  void route(Frame&& frame);
  /// One call fewer outstanding; the last one hands the socket back to the
  /// receiver. Caller holds mu_.
  void end_call_locked();
  /// Sends one encoded frame, header and payload in one vectored sendmsg
  /// (repeated only after a partial write), under send_mu_. A failed send
  /// is sticky: this and every later caller throw the error that killed it.
  void send_frame(const uint8_t* header, size_t header_len,
                  const Buffer& payload);
  /// Marks the channel dead with `reason`, wakes every caller blocked on a
  /// response and shuts the socket down, which wakes the receiver.
  void fail_channel(const Error& reason);
  /// A read failed with `e` (EOF, a bad header, a socket error): logs it
  /// and fails the channel as a connection reset.
  void fail_read(const std::exception& e);

  Options options_;
  int fd_ = -1;
  /// The receiver's epoll set: the socket, with EPOLLIN while no call is
  /// outstanding and no interest (hang-ups only) while one is.
  int epoll_fd_ = -1;
  std::thread receiver_;

  std::mutex send_mu_;
  std::optional<Error> send_error_;

  std::mutex mu_;
  /// Callers waiting for their response or for the read token.
  std::condition_variable cv_;
  /// The receiver, woken from a hang-up while calls were outstanding,
  /// waiting for them to end.
  std::condition_variable receiver_cv_;
  bool receiver_parked_ = false;
  bool closed_ = false;
  std::string close_reason_;
  uint32_t next_request_id_ = 1;
  /// Calls sent (or being sent) whose caller has not returned.
  uint32_t outstanding_ = 0;
  /// The read token: a thread reads the socket only while holding it.
  bool reading_ = false;
  std::map<uint32_t, Frame> responses_;
  /// Request ids whose caller gave up (deadline); a reader discards their
  /// late responses instead of parking them in `responses_` forever.
  std::set<uint32_t> abandoned_;

  // Read side, used only by the thread holding the read token. Complete
  // frames are decoded out of rbuf_[rbegin_, rend_); a frame larger than
  // the buffer is received into `large_.payload`, `large_have_` of its
  // `large_size_` bytes so far (large_size_ 0: no such frame).
  std::unique_ptr<uint8_t[]> rbuf_;
  size_t rbegin_ = 0;
  size_t rend_ = 0;
  Frame large_;
  size_t large_header_ = 0;
  size_t large_have_ = 0;
  size_t large_size_ = 0;

  std::mutex notify_mu_;
  std::function<void(const Frame&)> notify_;

  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  ChannelFaultCounters faults_;
};

}  // namespace iw
