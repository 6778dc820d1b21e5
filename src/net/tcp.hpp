// TCP transport: real sockets for running clients and servers as separate
// processes (or separate threads with genuine network framing).
//
// The server end is TcpServer, the epoll reactor of net/reactor.hpp:
// nonblocking sockets, per-connection session state machines, a small
// elastic worker pool calling into the ServerCore, and response and
// notification frames coalesced into one sendmsg per flush.
//
// TcpClientChannel owns the client end: calls are multiplexed by request
// id and its one thread, the receiver, demultiplexes responses from
// notifications (request_id == 0), decoding every complete frame out of
// each recv. It runs the notify handler itself, so a handler must not call
// back into the channel (see ClientChannel::set_notify_handler). Each call
// sends its frame, header and payload together, with one vectored sendmsg.
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

 private:
  void receive_loop();
  /// Hands one received frame to its waiting caller, or to the notify
  /// handler when it is a notification (request id 0). The handler runs
  /// here, on the receiver, with no channel lock held; one that throws is
  /// logged and skipped, and the connection carries on.
  void deliver(Frame&& frame);
  /// Sends one encoded frame, header and payload in one vectored sendmsg
  /// (repeated only after a partial write), under send_mu_. A failed send
  /// is sticky: this and every later caller throw the error that killed it.
  void send_frame(const uint8_t* header, size_t header_len,
                  const Buffer& payload);
  /// Marks the channel dead with `reason` and wakes every caller blocked
  /// on a response.
  void fail_channel(const Error& reason);

  Options options_;
  int fd_ = -1;
  std::thread receiver_;

  std::mutex send_mu_;
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
};

}  // namespace iw
