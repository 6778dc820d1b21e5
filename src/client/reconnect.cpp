#include "client/reconnect.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/logging.hpp"

namespace iw::client {

namespace {

std::atomic<uint64_t> g_next_client_id{1};

}  // namespace

ReconnectingChannel::ReconnectingChannel(Connector connect, Options options)
    : connect_(std::move(connect)),
      options_(options),
      client_id_(g_next_client_id.fetch_add(1)),
      jitter_(options.jitter_seed != 0 ? options.jitter_seed
                                       : 0x9e3779b97f4a7c15ull ^ client_id_) {
  std::lock_guard lock(mu_);
  connect_locked();
}

void ReconnectingChannel::connect_locked() {
  std::shared_ptr<ClientChannel> ch = connect_();
  if (ch == nullptr) {
    throw Error::transport(ErrorCode::kIo, "connector returned no channel");
  }
  if (notify_) ch->set_notify_handler(notify_);
  ++epoch_;
  // Every connection opens with the versioned hello; a server speaking
  // another protocol version answers kProtocol, which is not retryable.
  Frame resp =
      ch->call(MsgType::kHello, hello_payload(client_id_, epoch_, bindings_));
  BufReader r = resp.reader();
  server_lease_ms_ = r.read_varint32();
  inner_ = std::move(ch);
}

void ReconnectingChannel::reconnect_locked(
    const std::shared_ptr<ClientChannel>& failed) {
  if (inner_ != failed) return;  // someone else already replaced it
  if (inner_ != nullptr) {
    dead_bytes_sent_ += inner_->bytes_sent();
    dead_bytes_received_ += inner_->bytes_received();
    // shutdown() before dropping the reference: the server's on_disconnect
    // releases any writer lock the dead session held, which is what makes
    // re-sending an acquire on the new session safe — and it must happen
    // *now*, not when the last shared_ptr dies. The background revoke-ack
    // worker can pin the old channel with an in-flight call; deferring the
    // disconnect to its schedule would leave a zombie session holding
    // locks and receiving notifications for a scheduling-dependent while.
    inner_->shutdown();
    inner_.reset();
  }
  Error last = Error::transport(ErrorCode::kIo, "reconnect never attempted");
  uint32_t backoff = options_.initial_backoff_ms;
  for (uint32_t attempt = 0; attempt < options_.max_reconnect_attempts;
       ++attempt) {
    if (attempt > 0) {
      // Half-to-full jitter keeps a herd of clients from reconnecting in
      // lockstep after a shared outage.
      uint32_t ms = backoff / 2 +
                    static_cast<uint32_t>(jitter_.below(backoff / 2 + 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      backoff = std::min(backoff * 2, std::max(1u, options_.max_backoff_ms));
    }
    try {
      connect_locked();
      faults_.reconnects.fetch_add(1, std::memory_order_relaxed);
      return;
    } catch (const Error& e) {
      last = e;
      IW_LOG(kDebug) << "reconnect attempt " << (attempt + 1) << "/"
                     << options_.max_reconnect_attempts
                     << " failed: " << e.what();
    }
  }
  throw last;
}

Frame ReconnectingChannel::call(MsgType type, Buffer& payload) {
  // Revoke acks are fire-and-forget: one attempt on whatever channel is
  // live, no reconnect and no retry/timeout accounting. They run on the
  // client's background ack worker, so entering the reconnect machinery
  // here would bump the reconnect/retry counters at thread-scheduling whim —
  // and the chaos suite asserts those counters are bit-reproducible per
  // seed. Dropping the ack is safe: the server retires a cached-read
  // registration implicitly on disconnect, on a denied re-acquire, or at
  // the revocation deadline.
  if (type == MsgType::kRevokeAck) {
    std::shared_ptr<ClientChannel> inner;
    {
      std::lock_guard lock(mu_);
      inner = inner_;
    }
    if (inner == nullptr) {
      throw Error::transport(ErrorCode::kIo, "no channel for revoke ack");
    }
    return inner->call(type, payload);
  }
  // Replaying a release after a *transport* loss is unsafe: a response lost
  // after the server applied the diff would be re-applied against a moved
  // base version, and the disconnect already dropped the lock either way.
  // Everything else is idempotent once the old session is gone. (A
  // kStaleEpoch *response* is different — see below — so the snapshot is
  // captured for releases too.)
  const bool replayable = type != MsgType::kReleaseWrite;
  Buffer snapshot;
  snapshot.append(payload.data(), payload.size());

  for (uint32_t retry = 0;; ++retry) {
    std::shared_ptr<ClientChannel> inner;
    {
      std::lock_guard lock(mu_);
      if (inner_ == nullptr) reconnect_locked(nullptr);
      inner = inner_;
    }
    try {
      Frame response = inner->call(type, payload);
      if (type == MsgType::kOpenSegment || type == MsgType::kSegmentInfo ||
          type == MsgType::kCloseSegment) {
        std::lock_guard lock(mu_);
        note_binding_locked(type, snapshot);
      }
      return response;
    } catch (const Error& e) {
      // A kStaleEpoch response means the server has been deposed by a newer
      // placement epoch — and, crucially, that it did NOT apply the request
      // (the fence rejects before any effect). Reconnecting re-runs the
      // connector, which re-resolves the placement with failover and lands
      // on the promoted primary; the request is then safe to replay there,
      // releases included (unlike a transport loss, where a release's fate
      // is unknown).
      const bool stale =
          !e.is_transport() && e.code() == ErrorCode::kStaleEpoch;
      if (!stale && !is_retryable_transport(e)) throw;
      if (e.code() == ErrorCode::kTimedOut) {
        faults_.call_timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      {
        std::lock_guard lock(mu_);
        reconnect_locked(inner);  // throws when the server stays down
      }
      if ((!replayable && !stale) || retry + 1 >= options_.max_call_retries) {
        throw;
      }
      faults_.retried_calls.fetch_add(1, std::memory_order_relaxed);
      payload.clear();
      payload.append(snapshot.data(), snapshot.size());
    }
  }
}

void ReconnectingChannel::note_binding_locked(MsgType type,
                                              const Buffer& request) {
  BufReader r(request.data(), request.size());
  const uint32_t handle = r.read_varint32();
  if (type == MsgType::kCloseSegment) {
    bindings_.erase(handle);
  } else if (handle != 0) {
    bindings_[handle] = r.read_vstring();
  }
}

void ReconnectingChannel::set_notify_handler(
    std::function<void(const Frame&)> fn) {
  std::lock_guard lock(mu_);
  notify_ = std::move(fn);
  if (inner_ != nullptr) inner_->set_notify_handler(notify_);
}

uint64_t ReconnectingChannel::bytes_sent() const {
  std::lock_guard lock(mu_);
  return dead_bytes_sent_ + (inner_ ? inner_->bytes_sent() : 0);
}

uint64_t ReconnectingChannel::bytes_received() const {
  std::lock_guard lock(mu_);
  return dead_bytes_received_ + (inner_ ? inner_->bytes_received() : 0);
}

uint64_t ReconnectingChannel::session_epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

uint32_t ReconnectingChannel::server_lease_ms() const {
  std::lock_guard lock(mu_);
  return server_lease_ms_;
}

ChannelFaultStats ReconnectingChannel::fault_stats() const {
  // Timeouts are tallied here (one per caught kTimedOut) rather than summed
  // with the inner channel's own counter, which would double-count the
  // same events.
  ChannelFaultStats s;
  faults_.snapshot_into(s);
  return s;
}

}  // namespace iw::client
