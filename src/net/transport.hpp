// Transport abstraction between InterWeave clients and servers.
//
// The protocol is synchronous request/response initiated by the client,
// plus unsolicited server->client notifications (the "adaptive
// polling/notification" channel). Two implementations exist:
//
//   * InProc — client calls run the server handler directly in the calling
//     thread; notifications are direct callbacks. Zero I/O noise, which is
//     what the paper-shape benchmarks measure, and still byte-accounted as
//     if frames had crossed a wire.
//   * Tcp — real sockets: a calling thread reads its own response, and one
//     receiver thread per client channel reads what arrives between calls;
//     on the server an epoll leader/follower pool whose reading thread runs
//     the request (net/tcp.hpp, net/reactor.hpp).
//
// Byte counters on every channel feed the bandwidth experiments (Fig. 7).
#pragma once

#include <functional>
#include <memory>

#include "util/counters.hpp"
#include "wire/frame.hpp"

namespace iw {

/// Failure-handling counters a channel maintains (util/counters.hpp).
/// Plain channels time out calls; the reconnecting decorator additionally
/// reconnects and replays.
#define IW_CHANNEL_FAULT_COUNTERS(X)                              \
  X(reconnects)    /* successful re-establishments */             \
  X(retried_calls) /* calls replayed after a transport failure */ \
  X(call_timeouts) /* calls that hit their deadline */

struct ChannelFaultStats {
  IW_CHANNEL_FAULT_COUNTERS(IW_COUNTER_FIELD)
};

/// The relaxed atomics a channel keeps behind its ChannelFaultStats.
struct ChannelFaultCounters {
  IW_COUNTER_ATOMICS(IW_CHANNEL_FAULT_COUNTERS)
};

/// Client endpoint of a connection to one server.
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  /// Sends a request and blocks for its response. Throws Error on transport
  /// failure; a server-side kError response is surfaced as a thrown Error.
  /// The payload is consumed (left empty), but implementations keep or hand
  /// back its allocation where they can so a caller-owned buffer can be
  /// reused across calls without reallocating (the per-release collect
  /// buffer rides on this).
  virtual Frame call(MsgType type, Buffer& payload) = 0;

  /// Rvalue convenience: call sites that build a one-shot payload pass a
  /// temporary (or std::move a local) and don't care about reuse.
  Frame call(MsgType type, Buffer&& payload) {
    Buffer consumed = std::move(payload);
    return call(type, consumed);
  }

  /// Installs the handler invoked for unsolicited notifications. It runs on
  /// the thread that reads them: on TCP the channel's receiver thread, or a
  /// thread inside call() on this channel, which handles the notifications
  /// ahead of its response in stream order before it returns; in-proc the
  /// server thread that notifies (often inside another session's call()).
  /// So:
  ///   * A handler must not call this channel — on TCP its response would
  ///     wait behind the handler — and must not drop the last reference to
  ///     it, which would destroy the channel under its own reader. Work of
  ///     that kind goes to another thread, as the Client's revoke-ack
  ///     worker does.
  ///   * No thread may hold a lock the handler takes while it calls this
  ///     channel: the handler may run on that very thread. The Client's
  ///     handler takes `notify_mu_` and `lock_cache_mu_`, and the Client
  ///     never holds either across a call.
  ///   * Handlers should be quick: delivery is serialized with the
  ///     responses, so a slow handler delays every later frame.
  virtual void set_notify_handler(std::function<void(const Frame&)> fn) = 0;

  virtual uint64_t bytes_sent() const = 0;
  virtual uint64_t bytes_received() const = 0;

  /// Monotonic epoch of the underlying connection: starts at 1 and
  /// increments every time the channel reconnects. A caller that caches
  /// state derived from one connection (subscriptions, server-validated
  /// versions) compares epochs to detect that it must revalidate.
  virtual uint64_t session_epoch() const { return 1; }

  /// Failure-handling counters (zero for channels that never retry).
  virtual ChannelFaultStats fault_stats() const { return {}; }

  // No caller in src/: these two stay only because perfbench's
  // TimingChannel overrides them; delete both with those overrides.
  virtual bool supports_lock_caching() const { return false; }
  virtual bool supports_payload_compression() const { return false; }

  /// Severs the underlying connection *now*, independent of object
  /// lifetime: the server observes the disconnect before this returns (or
  /// as soon as its transport loop notices, for socket channels), and
  /// subsequent call()s fail as transport errors. Idempotent; the
  /// destructor implies it. Needed because a shared_ptr to a dead channel
  /// may be pinned by an in-flight call on another thread — teardown of
  /// server-side session state must not wait for the last reference.
  virtual void shutdown() noexcept {}
};

/// Identifies one client connection within a server.
using SessionId = uint64_t;

/// Pushes a notification frame toward one client.
using Notifier = std::function<void(const Frame&)>;

/// Transport-independent server logic. SegmentServer implements this; the
/// transports (in-proc, TCP) drive it.
class ServerCore {
 public:
  virtual ~ServerCore() = default;

  /// Registers a connection; `notify` delivers notifications to it. Every
  /// transport passes a callable notifier, so a core calls it unchecked.
  virtual void on_connect(SessionId session, Notifier notify) = 0;
  virtual void on_disconnect(SessionId session) = 0;

  /// Handles one request, returning the response frame (request_id is
  /// filled in by the transport). May block (e.g. waiting for a write lock).
  virtual Frame handle(SessionId session, const Frame& request) = 0;
};

/// Decodes a kError response payload and throws it as iw::Error.
[[noreturn]] void throw_error_frame(const Frame& frame);

/// Builds a kError frame from an exception.
Frame make_error_frame(const Error& error);

/// Helper for implementations: performs a call-and-check, throwing when the
/// response is kError.
Frame check_response(Frame response);

}  // namespace iw
