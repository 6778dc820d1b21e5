// Decorators the benchmark slides into InterWeave's public seams. None of
// them changes behaviour: each forwards every call and only stamps spans
// (when the tracer is recording) and bumps per-message-type counters.
//
//   TimingChannel — wraps what a Client's ChannelFactory returns, i.e. it
//                   sits *below* the ReconnectingChannel, so the hello
//                   handshake, lock caching and compression negotiation are
//                   untouched. Also wraps the replicator's Dialer output.
//   TimingCore    — a ServerCore between a TcpServer and its SegmentServer
//                   (the same position as bench/server_scaling's
//                   GlobalLockCore).
//
// Request ids: a frame's id is only unique per connection, so the harness
// connects through connect_bound(), which serialises connects and learns
// which server session each new channel became. Client and server spans
// then share the key (session << 32 | frame id).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "trace.hpp"

namespace pb {

/// Calls per message type seen at one client seam.
struct RpcCounters {
  std::array<std::atomic<uint64_t>, 64> calls{};
};

class TimingChannel final : public iw::ClientChannel {
 public:
  /// `counters` may be null (nothing counted).
  TimingChannel(std::shared_ptr<iw::ClientChannel> inner, uint64_t session,
                RpcCounters* counters, const char* span_name)
      : inner_(std::move(inner)), session_(session), counters_(counters),
        span_name_(span_name) {}

  using iw::ClientChannel::call;
  iw::Frame call(iw::MsgType type, iw::Buffer& payload) override;
  void set_notify_handler(std::function<void(const iw::Frame&)> fn) override {
    inner_->set_notify_handler(std::move(fn));
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override { return inner_->bytes_received(); }
  uint64_t session_epoch() const override { return inner_->session_epoch(); }
  iw::ChannelFaultStats fault_stats() const override {
    return inner_->fault_stats();
  }
  bool supports_lock_caching() const override {
    return inner_->supports_lock_caching();
  }
  bool supports_payload_compression() const override {
    return inner_->supports_payload_compression();
  }
  void shutdown() noexcept override { inner_->shutdown(); }

 private:
  std::shared_ptr<iw::ClientChannel> inner_;
  uint64_t session_;
  RpcCounters* counters_;
  const char* span_name_;
};

class TimingCore final : public iw::ServerCore {
 public:
  TimingCore(iw::ServerCore& inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}

  void on_connect(iw::SessionId session, iw::Notifier notify) override;
  void on_disconnect(iw::SessionId session) override {
    inner_.on_disconnect(session);
  }
  iw::Frame handle(iw::SessionId session, const iw::Frame& request) override;

 private:
  friend std::shared_ptr<iw::ClientChannel> connect_bound(
      TimingCore&, uint16_t, RpcCounters*, const char*);

  iw::ServerCore& inner_;
  const char* span_name_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<iw::SessionId> connected_;
};

/// Opens a TCP channel to the server fronted by `core` on `port`, waits
/// until the server has registered the new session, and returns the
/// channel wrapped in a TimingChannel that knows that session. Throws like
/// TcpClientChannel when the server is unreachable.
std::shared_ptr<iw::ClientChannel> connect_bound(TimingCore& core, uint16_t port,
                                                 RpcCounters* counters,
                                                 const char* span_name);

}  // namespace pb
