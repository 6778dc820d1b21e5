// ReconnectingChannel: the client-side fault-tolerance supervisor.
//
// A ClientChannel decorator that rebuilds its inner channel when a call
// fails with a retryable transport error (connection reset, broken pipe,
// I/O failure, call deadline). Recovery is teardown-then-reconnect:
// destroying the dead channel triggers the server's on_disconnect — which
// releases any writer lock the old session held — before a fresh channel
// (and fresh server session) is established with exponential backoff and
// jitter. Each successful reconnect starts a new *session epoch*; the
// owning Client compares epochs at lock acquisition to know its
// server-side session state (subscriptions, sent-type prefix) is gone and
// its notification-derived freshness can no longer be trusted. Every
// connection opens with kHello (protocol version, client id, epoch, and the
// segment handles bound so far); the server binds a segment handle only on
// a session that said hello, so every session is version-checked.
//
// Segment handles: the client names an open segment by a small handle that
// kOpenSegment or kSegmentInfo bound for the session. The channel records
// every binding its sessions confirmed (and drops it at kCloseSegment), and
// the hello of each new session rebinds them all, so a replayed acquire
// names its segment the same way on the new session.
//
// Idempotent calls are re-sent transparently on the new channel. The one
// exception is kReleaseWrite: when the transport dies mid-release it is
// unknowable whether the server applied the diff, and replaying it is
// wrong in either case (applied: the lock is gone and the base version has
// moved; not applied: the lock was released by the disconnect). The
// channel reconnects for the benefit of later calls but rethrows the
// failure; the Client recovers by invalidating its cached copy and the
// application retries the critical section.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/transport.hpp"
#include "util/rand.hpp"

namespace iw::client {

class ReconnectingChannel final : public ClientChannel {
 public:
  struct Options {
    /// Backoff before reconnect attempt N is roughly
    /// min(initial << (N-1), max), halved-to-full jittered.
    uint32_t initial_backoff_ms = 5;
    uint32_t max_backoff_ms = 500;
    /// Re-sends of one call across reconnects before giving up.
    uint32_t max_call_retries = 8;
    /// Jitter seed; 0 derives one from the channel's client id.
    uint64_t jitter_seed = 0;
  };

  /// Builds the underlying channel; called once at construction and again
  /// on every reconnect. Must throw (rather than return nullptr) when the
  /// server is unreachable.
  using Connector = std::function<std::shared_ptr<ClientChannel>()>;

  /// Connects eagerly: construction fails if the first connect does (no
  /// retries — an unreachable server at open time is an immediate error,
  /// exactly as with a raw channel).
  ReconnectingChannel(Connector connect, Options options);

  using ClientChannel::call;
  Frame call(MsgType type, Buffer& payload) override;
  void set_notify_handler(std::function<void(const Frame&)> fn) override;
  uint64_t bytes_sent() const override;
  uint64_t bytes_received() const override;
  uint64_t session_epoch() const override;
  ChannelFaultStats fault_stats() const override;

  /// Writer-lease duration announced by the server in kHelloResp.
  uint32_t server_lease_ms() const;

 private:
  /// Replaces inner_ with a fresh connection, bumps the epoch, replays the
  /// hello handshake and re-installs the notify handler. Caller holds mu_.
  void connect_locked();
  /// Records the handle binding of a kOpenSegment/kSegmentInfo that
  /// succeeded, or forgets it for a kCloseSegment. Caller holds mu_.
  void note_binding_locked(MsgType type, const Buffer& request);
  /// Tears down `failed` (if it is still current) and reconnects with
  /// backoff; throws the last connect error after kMaxReconnectAttempts.
  /// No-op when another thread already replaced the channel.
  void reconnect_locked(const std::shared_ptr<ClientChannel>& failed);

  mutable std::mutex mu_;
  Connector connect_;
  Options options_;
  std::shared_ptr<ClientChannel> inner_;
  uint64_t client_id_;
  uint64_t epoch_ = 0;  // connect_locked() makes the first connection epoch 1
  uint32_t server_lease_ms_ = 0;
  /// Segment handles bound on this channel, rebound by every hello.
  std::map<uint32_t, std::string> bindings_;
  /// Byte counters of dead channel incarnations, folded in at teardown so
  /// bandwidth accounting survives reconnects.
  uint64_t dead_bytes_sent_ = 0;
  uint64_t dead_bytes_received_ = 0;
  std::function<void(const Frame&)> notify_;
  SplitMix64 jitter_;

  ChannelFaultCounters faults_;
};

}  // namespace iw::client
