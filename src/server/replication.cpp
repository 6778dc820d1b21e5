#include "server/replication.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"
#include "wire/payload.hpp"

namespace iw::server {

namespace {
using steady_clock = std::chrono::steady_clock;
/// Records per kWalAppend frame; a deeper backlog is sent as several
/// consecutive frames.
constexpr size_t kMaxBatchRecords = 256;
/// A sync-paused link whose backfill has not resumed within this long is
/// declared dead, as an unreachable one is after disconnect_grace_ms.
constexpr auto kSyncGrace = std::chrono::milliseconds(30'000);
}  // namespace

WalReplicator::WalReplicator(Options options) : options_(options) {
  if (options_.disconnect_grace_ms == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "disconnect_grace_ms must be positive");
  }
}

WalReplicator::~WalReplicator() { shutdown(); }

WalReplicator::Link* WalReplicator::find_link_locked(const std::string& id) {
  for (auto& link : links_) {
    if (link->id == id) return link.get();
  }
  return nullptr;
}

void WalReplicator::add_replica(std::string id, Dialer dial) {
  std::shared_ptr<ClientChannel> stale_channel;
  {
    std::unique_lock lock(mu_);
    if (stop_) throw Error(ErrorCode::kState, "replicator is shut down");
    if (Link* link = find_link_locked(id)) {
      // Revival: a restarted replica re-registers under its old id,
      // possibly at a new address. Its missed history is a sync transfer
      // (register_sync); from here it streams live again.
      stale_channel = std::move(link->channel);
      link->dial = std::move(dial);
      link->paused = false;
      link->dead = false;
      link->failures = 0;
      link->down_since = {};
      link->acked = log_.empty() ? next_seq_ : log_.front().seq - 1;
      send_cv_.notify_all();
      ack_cv_.notify_all();
    } else {
      auto fresh = std::make_unique<Link>();
      fresh->id = std::move(id);
      fresh->dial = std::move(dial);
      Link* raw = fresh.get();
      // A link added after records were trimmed can only stream from here
      // on; catching a fresh replica up to the past is a sync transfer
      // (register_sync + the server's kSyncRequest backfill).
      fresh->acked = log_.empty() ? next_seq_ : log_.front().seq - 1;
      links_.push_back(std::move(fresh));
      raw->worker = std::thread([this, raw] { link_loop(raw); });
    }
  }
  // Shut the replaced channel down outside the lock so a worker blocked in
  // call() on it fails over to the fresh dialer promptly.
  if (stale_channel != nullptr) stale_channel->shutdown();
}

bool WalReplicator::register_sync(const std::string& id, Dialer dial) {
  std::shared_ptr<ClientChannel> stale_channel;
  {
    std::unique_lock lock(mu_);
    if (stop_) throw Error(ErrorCode::kState, "replicator is shut down");
    Link* link = find_link_locked(id);
    if (link != nullptr && !link->dead && !link->paused &&
        link->channel != nullptr) {
      // Already streaming live: this sync is anti-entropy over a healthy
      // link. Leave it alone — pausing would dip the quorum — and let the
      // replica's idempotent apply absorb the overlap between the sync cut
      // and the concurrent stream.
      return false;
    }
    if (link == nullptr) {
      auto fresh = std::make_unique<Link>();
      fresh->id = id;
      Link* raw = fresh.get();
      links_.push_back(std::move(fresh));
      link = raw;
      link->worker = std::thread([this, raw] { link_loop(raw); });
    } else {
      stale_channel = std::move(link->channel);
    }
    link->dial = std::move(dial);
    link->paused = true;
    link->dead = false;
    link->failures = 0;
    link->down_since = {};
    link->paused_since = steady_clock::now();
    // Pin the cursor at the log head: everything at or below it is covered
    // by the snapshot/tail the caller is about to cut (it holds the
    // segment lock), everything after is retained and replayed on resume —
    // the no-gap handoff.
    link->acked = next_seq_;
    counters_.backfills_started.fetch_add(1, std::memory_order_relaxed);
  }
  if (stale_channel != nullptr) stale_channel->shutdown();
  return true;
}

bool WalReplicator::resume_replica(const std::string& id) {
  std::lock_guard lock(mu_);
  Link* link = find_link_locked(id);
  if (link == nullptr || link->dead) return false;
  if (link->paused) {
    link->paused = false;
    link->paused_since = {};
    counters_.backfills_completed.fetch_add(1, std::memory_order_relaxed);
    send_cv_.notify_all();
    ack_cv_.notify_all();
  }
  return true;
}

bool WalReplicator::quorum_reached_locked(uint64_t seq, uint32_t need) const {
  uint32_t acks = 0;
  for (const auto& link : links_) {
    if (link->dead || link->paused) continue;
    if (link->acked >= seq && ++acks >= need) return true;
  }
  return need == 0;
}

uint32_t WalReplicator::active_need_locked() const {
  uint32_t active = 0;
  for (const auto& link : links_) {
    if (!link->dead && !link->paused) ++active;
  }
  return std::min(options_.replication_factor, active);
}

void WalReplicator::advance_quorum_frontier_locked() {
  const uint32_t need = active_need_locked();
  uint64_t frontier = next_seq_;
  if (need > 0) {
    std::vector<uint64_t> acked;
    acked.reserve(links_.size());
    for (const auto& link : links_) {
      if (!link->dead && !link->paused) acked.push_back(link->acked);
    }
    std::nth_element(acked.begin(), acked.begin() + (need - 1), acked.end(),
                     std::greater<uint64_t>());
    frontier = acked[need - 1];
  }
  if (frontier > quorum_frontier_) {
    counters_.records_acked.fetch_add(frontier - quorum_frontier_,
                                      std::memory_order_relaxed);
    quorum_frontier_ = frontier;
  }
}

void WalReplicator::declare_dead_locked(Link& link, const char* why) {
  if (link.dead) return;
  link.dead = true;
  link.paused = false;
  IW_LOG(kWarn) << "replica link " << link.id << " declared dead (" << why
                << "); awaiting re-registration";
  trim_locked();  // a dead link no longer pins the retained log
  // The quorum need just shrank; blocked committers must re-evaluate, and
  // the link's own worker must park.
  ack_cv_.notify_all();
  send_cv_.notify_all();
}

void WalReplicator::reap_expired_locked() {
  const auto now = steady_clock::now();
  for (auto& link : links_) {
    if (link->paused && !link->dead && now - link->paused_since >= kSyncGrace) {
      declare_dead_locked(*link, "backfill abandoned past sync grace");
    }
  }
}

void WalReplicator::trim_locked() {
  uint64_t min_acked = next_seq_;
  bool any_alive = false;
  for (const auto& link : links_) {
    if (link->dead) continue;
    any_alive = true;
    min_acked = std::min(min_acked, link->acked);
  }
  if (!any_alive) {
    // Nobody left to drain the log; drop it so a dead fleet cannot pin
    // memory. Revived links stream from the new head (their missed history
    // is a sync transfer).
    log_.clear();
    return;
  }
  while (!log_.empty() && log_.front().seq <= min_acked) log_.pop_front();
}

void WalReplicator::replicate(const std::string& segment, uint32_t epoch,
                              WalRecordType type,
                              std::span<const uint8_t> head,
                              std::span<const uint8_t> body, bool compressed) {
  using clock = std::chrono::steady_clock;
  std::unique_lock lock(mu_);
  if (stop_) {
    throw Error(ErrorCode::kState, "replicator is shut down");
  }
  if (fenced_segments_.count(segment) != 0) {
    throw Error(ErrorCode::kStaleEpoch,
                "segment '" + segment + "' is owned by a newer primary");
  }
  reap_expired_locked();
  segments_seen_.insert(segment);
  Rec rec;
  rec.seq = ++next_seq_;
  rec.segment = segment;
  rec.epoch = epoch;
  rec.tag = static_cast<uint8_t>(type) |
            (compressed ? kPayloadCompressedTagBit : uint8_t{0});
  rec.payload.reserve(head.size() + body.size());
  rec.payload.insert(rec.payload.end(), head.begin(), head.end());
  rec.payload.insert(rec.payload.end(), body.begin(), body.end());
  const uint64_t seq = rec.seq;
  log_.push_back(std::move(rec));
  counters_.records_enqueued.fetch_add(1, std::memory_order_relaxed);
  bool any_alive = false;
  for (const auto& link : links_) {
    if (!link->dead) {
      any_alive = true;
      break;
    }
  }
  if (!any_alive) {
    // Nobody will ever drain the log; standalone operation stays O(1).
    log_.clear();
    return;
  }
  send_cv_.notify_all();

  if (active_need_locked() == 0) return;
  const auto deadline =
      clock::now() + std::chrono::milliseconds(options_.ack_timeout_ms);
  while (true) {
    if (fenced_segments_.count(segment) != 0) {
      // A replica running a newer placement epoch refused the record: this
      // server was deposed mid-commit and must not ack.
      throw Error(ErrorCode::kStaleEpoch,
                  "segment '" + segment + "' is owned by a newer primary");
    }
    // Recomputed every pass: links may pause (backfill) or die (grace)
    // while we wait, and the need shrinks with them.
    const uint32_t need = active_need_locked();
    if (quorum_reached_locked(seq, need)) return;
    if (stop_) {
      throw Error(ErrorCode::kState, "replicator is shut down");
    }
    if (ack_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        clock::now() >= deadline) {
      counters_.ack_timeouts.fetch_add(1, std::memory_order_relaxed);
      // The ack gate failed, not the delivery: the record stays queued and
      // the links keep sending, so the client's retry converges instead of
      // opening a version gap on the replicas.
      throw Error(ErrorCode::kTimedOut,
                  "replication factor " + std::to_string(need) +
                      " not reached for '" + segment + "'");
    }
  }
}

void WalReplicator::link_loop(Link* link) {
  std::unique_lock lock(mu_);
  bool ever_connected = false;
  // Per-link jitter stream so links that fail together do not redial in
  // lockstep; seeded from the id for reproducible interleavings in tests.
  uint64_t seed = 0xA0761D6478BD642FULL;
  for (const char c : link->id) {
    seed = seed * 1099511628211ULL + static_cast<uint8_t>(c);
  }
  SplitMix64 jitter(seed);
  while (true) {
    send_cv_.wait(lock, [&] {
      return stop_ ||
             (!link->paused && !link->dead && link->acked < next_seq_);
    });
    if (stop_) return;
    // Everything past this link's ack frontier, oldest first. Deque
    // pointers stay valid across the unlocked send: push_back never moves
    // elements and trim only pops records below every link's frontier.
    std::vector<const Rec*> batch;
    for (const Rec& r : log_) {
      if (r.seq <= link->acked) continue;
      batch.push_back(&r);
      if (batch.size() >= kMaxBatchRecords) break;
    }
    if (batch.empty()) continue;  // raced a trim; frontier already moved
    const uint64_t last_seq = batch.back()->seq;
    std::shared_ptr<ClientChannel> channel = link->channel;
    // Copy the dialer under the lock: register_sync/add_replica may re-aim
    // a link at a new address while its worker is unlocked.
    Dialer dial = channel == nullptr ? link->dial : Dialer{};
    lock.unlock();

    bool sent = false;
    uint32_t stale_count = 0;
    std::vector<std::string> stale;
    try {
      if (channel == nullptr) {
        channel = dial();
        if (ever_connected) {
          counters_.link_reconnects.fetch_add(1, std::memory_order_relaxed);
        }
        ever_connected = true;
        std::lock_guard g(mu_);
        link->channel = channel;  // shutdown() can now sever it
      }
      Buffer payload;
      payload.append_u32(static_cast<uint32_t>(batch.size()));
      for (const Rec* r : batch) {
        payload.append_lp_string(r->segment);
        payload.append_u32(r->epoch);
        payload.append_u8(r->tag);
        payload.append_u32(static_cast<uint32_t>(r->payload.size()));
        payload.append(r->payload.data(), r->payload.size());
      }
      Frame resp = channel->call(MsgType::kWalAppend, std::move(payload));
      BufReader in = resp.reader();
      in.read_u32();  // applied count (informational)
      stale_count = in.read_u32();
      for (uint32_t i = 0; i < stale_count; ++i) {
        stale.push_back(in.read_lp_string());
      }
      sent = true;
      counters_.batches_sent.fetch_add(1, std::memory_order_relaxed);
      counters_.records_sent.fetch_add(batch.size(), std::memory_order_relaxed);
    } catch (const std::exception& e) {
      counters_.link_errors.fetch_add(1, std::memory_order_relaxed);
      IW_LOG(kWarn) << "replica link " << link->id
                    << " append failed: " << e.what();
    }

    lock.lock();
    if (sent) {
      link->failures = 0;
      link->down_since = {};
      // Stale records count as settled for sequencing — the promoted
      // replica will never accept them and the committer is told via the
      // fence instead of hanging on an ack that cannot come.
      link->acked = std::max(link->acked, last_seq);
      for (std::string& s : stale) {
        if (fenced_segments_.insert(std::move(s)).second) {
          counters_.stale_epoch_fences.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reap_expired_locked();
      advance_quorum_frontier_locked();
      trim_locked();
      ack_cv_.notify_all();
    } else {
      // Failed send: drop the channel and redial after a jittered
      // exponential backoff (cut short by shutdown or a state flip). The
      // backlog stays in the retained log and replays in order once a
      // redial lands.
      link->channel.reset();
      channel.reset();
      ++link->failures;
      const auto now = steady_clock::now();
      if (link->down_since == steady_clock::time_point{}) {
        link->down_since = now;
      }
      if (!link->dead &&
          now - link->down_since >=
              std::chrono::milliseconds(options_.disconnect_grace_ms)) {
        declare_dead_locked(*link, "unreachable past disconnect grace");
        continue;  // park on the wait predicate until revived
      }
      const uint32_t shift = std::min<uint32_t>(link->failures - 1, 16);
      uint64_t cap = std::max<uint64_t>(options_.reconnect_backoff_ms, 1)
                     << shift;
      cap = std::min<uint64_t>(
          cap, std::max<uint32_t>(options_.reconnect_backoff_max_ms, 1));
      const uint64_t delay = cap / 2 + jitter.below(cap / 2 + 1);
      send_cv_.wait_for(lock, std::chrono::milliseconds(delay), [&] {
        return stop_ || link->dead || link->paused;
      });
      if (stop_) return;
    }
  }
}

bool WalReplicator::fenced(const std::string& segment) const {
  std::lock_guard lock(mu_);
  return fenced_segments_.count(segment) != 0;
}

void WalReplicator::unfence(const std::string& segment) {
  std::lock_guard lock(mu_);
  fenced_segments_.erase(segment);
}

void WalReplicator::shutdown() {
  std::vector<std::shared_ptr<ClientChannel>> channels;
  {
    std::lock_guard lock(mu_);
    if (stop_) return;
    stop_ = true;
    for (auto& link : links_) channels.push_back(link->channel);
    send_cv_.notify_all();
    ack_cv_.notify_all();
  }
  // Sever live channels so a worker blocked in call() fails promptly.
  for (auto& ch : channels) {
    if (ch != nullptr) ch->shutdown();
  }
  for (auto& link : links_) {
    if (link->worker.joinable()) link->worker.join();
  }
}

size_t WalReplicator::replica_count() const {
  std::lock_guard lock(mu_);
  return links_.size();
}

WalReplicator::Stats WalReplicator::stats() const {
  Stats s;
  counters_.snapshot_into(s);
  std::lock_guard lock(mu_);
  s.backlog_records = log_.size();
  uint32_t active = 0;
  for (const auto& link : links_) {
    LinkStats ls;
    ls.id = link->id;
    ls.acked_seq = link->acked;
    ls.replication_lag_records =
        next_seq_ - std::min(link->acked, next_seq_);
    ls.paused = link->paused;
    ls.dead = link->dead;
    if (link->dead) {
      ++s.dead_links;
    } else if (!link->paused) {
      ++active;
    }
    s.links.push_back(std::move(ls));
  }
  if (active < options_.replication_factor) {
    for (const auto& seg : segments_seen_) {
      if (fenced_segments_.count(seg) == 0) ++s.under_replicated_segments;
    }
  }
  return s;
}

}  // namespace iw::server
