// WalReplicator: chain-streams a primary's write-ahead records to replica
// servers and gates commit acknowledgement on a replication factor.
//
// The primary appends every journaled record (type registrations, commits)
// to an in-memory replication log; one worker thread per replica link
// drains that log into kWalAppend frames. Batching is implicit group
// commit: while one RPC is in flight, every record enqueued behind it rides
// the next frame, so a burst of commits across segments costs one round
// trip per link, mirroring the client-side send coalescing.
//
// replicate() blocks until `replication_factor` links have journaled the
// record (a replica acks only after applying it to its store *and*
// appending it to its own WAL), which is what lets the server ack a client
// commit with the zero-acked-loss guarantee: an acked commit exists in at
// least that many journals, so promoting the most-caught-up replica after
// a primary crash loses nothing that was acknowledged. A timeout fails the
// *acknowledgement*, never the delivery — the record stays queued and the
// links keep re-sending it in order, so a slow replica degrades commit
// latency, not replica consistency.
//
// Epoch fencing: every record carries the segment's placement epoch. A
// replica that has been promoted (or has seen a newer primary) reports
// older-epoch records as stale in its kWalAck instead of applying them;
// the replicator then fences that segment and every later replicate() for
// it throws kStaleEpoch. Because acks gate commit acknowledgement, a
// deposed primary can never again ack a commit — the ack gate doubles as
// the fence. unfence() clears the fence when the server is re-promoted.
//
// Link lifecycle (the self-healing half):
//
//   live ──error──▶ backoff (jittered exponential, backlog retained)
//     ▲                │ grace expired
//     │ redial ok      ▼
//     └────────────  dead  ──add_replica()/register_sync()──▶ revived
//
// A failed link redials with jittered exponential backoff and re-sends
// from its last acked record out of the retained log; replicas apply
// idempotently, so duplicated batches after a reconnect are harmless. A
// link that stays unreachable past the disconnect grace is declared dead:
// it stops pinning the retained log and stops counting toward the quorum,
// so a permanently lost replica degrades the factor instead of wedging
// trim. Re-registering the same id revives a dead link.
//
// Backfill pause: register_sync() parks a link with its ack cursor pinned
// at the current log head — everything at or below the pin is covered by
// the snapshot/tail the caller is cutting, everything after is retained
// and replayed when resume_replica() flips the link live. Paused links are
// excluded from the quorum need, so a bootstrap never blocks commits; the
// sync grace bounds how long an abandoned backfill may pin the log.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/transport.hpp"
#include "server/wal.hpp"
#include "util/counters.hpp"

namespace iw::server {

/// WalReplicator's counters (util/counters.hpp).
#define IW_REPLICATOR_COUNTERS(X)                                 \
  X(records_enqueued)    /* records offered for replication */    \
  X(records_acked)       /* records that reached the factor */    \
  X(batches_sent)        /* kWalAppend frames (all links) */      \
  X(records_sent)        /* records carried, re-sends included */ \
  X(link_reconnects)     /* link redials after a failure */       \
  X(link_errors)         /* failed kWalAppend calls */            \
  X(stale_epoch_fences)  /* segments fenced by a replica */       \
  X(ack_timeouts)        /* replicate() waits that expired */     \
  X(backfills_started)   /* paused sync registrations */          \
  X(backfills_completed) /* syncs flipped to live tailing */

class WalReplicator {
 public:
  /// Builds a fresh channel to one replica; called on link start and again
  /// after every transport failure. Must throw when the replica is
  /// unreachable.
  using Dialer = std::function<std::shared_ptr<ClientChannel>()>;

  struct Options {
    /// Links that must journal a record before replicate() returns
    /// (clamped to the number of live, unpaused links; 0 streams without
    /// gating acks).
    uint32_t replication_factor = 1;
    /// Bound on replicate()'s wait for the factor. Expiry throws kTimedOut
    /// to the committing client — the record itself stays queued.
    uint32_t ack_timeout_ms = 5'000;
    /// Initial backoff between link redial attempts; consecutive failures
    /// double it (with jitter) up to reconnect_backoff_max_ms.
    uint32_t reconnect_backoff_ms = 10;
    uint32_t reconnect_backoff_max_ms = 500;
    /// A link continuously unreachable for this long is declared dead: it
    /// no longer pins the retained log or counts toward the quorum until
    /// revived by add_replica()/register_sync(). Must be positive: the
    /// constructor rejects 0 with kInvalidArgument.
    uint32_t disconnect_grace_ms = 10'000;
  };

  /// Point-in-time view of one replica link.
  struct LinkStats {
    std::string id;
    uint64_t acked_seq = 0;
    uint64_t replication_lag_records = 0;  ///< records enqueued but unacked
    bool paused = false;                   ///< mid-backfill (register_sync)
    bool dead = false;                     ///< past grace; awaiting revival
  };

  struct Stats {
    IW_REPLICATOR_COUNTERS(IW_COUNTER_FIELD)
    uint64_t backlog_records = 0;    ///< records not yet acked by every link
    uint64_t dead_links = 0;         ///< links currently declared dead
    /// Segments journaled by this primary while fewer live, unpaused links
    /// exist than the replication factor (0 when the factor is met).
    uint64_t under_replicated_segments = 0;
    std::vector<LinkStats> links;    ///< one entry per registered link
  };

  explicit WalReplicator(Options options);
  ~WalReplicator();

  WalReplicator(const WalReplicator&) = delete;
  WalReplicator& operator=(const WalReplicator&) = delete;

  /// Registers a replica link and starts its worker, or revives an
  /// existing (possibly dead) link under the same id with a fresh dialer —
  /// a restarted replica re-registers here, typically at a new address.
  /// The link streams from the current log head; history it missed is a
  /// sync transfer (register_sync). `id` keys revival and labels logs.
  void add_replica(std::string id, Dialer dial);

  /// Registers (or re-aims) `id` as a *paused* link whose ack cursor is
  /// pinned at the current log head. The primary's sync serving calls this
  /// under the segment lock *before* cutting the snapshot/tail, which is
  /// what makes the handoff gap-free: records enqueued after the pin are
  /// retained and replayed on resume. A link that is already streaming
  /// live is left untouched (anti-entropy over a healthy link must not dip
  /// the quorum) and false is returned.
  bool register_sync(const std::string& id, Dialer dial);

  /// Flips a sync-paused link to live streaming (the kSyncDone edge).
  /// Returns false when no live link with that id exists (e.g. the sync
  /// grace already declared it dead).
  bool resume_replica(const std::string& id);

  /// Enqueues one WAL record (body = type byte | head | body, exactly as
  /// journaled locally) for every link and blocks until the replication
  /// factor has journaled it. `compressed` streams the local journal's
  /// compressed-envelope flag unchanged — replicas journal the encoding
  /// they receive, so compression is inherited down the chain, never
  /// re-done. Throws kTimedOut when the factor is not reached in time,
  /// kStaleEpoch when a replica reported this segment fenced (the caller
  /// has been deposed), kState after shutdown().
  void replicate(const std::string& segment, uint32_t epoch,
                 WalRecordType type, std::span<const uint8_t> head,
                 std::span<const uint8_t> body = {}, bool compressed = false);

  /// True when a replica reported this segment as owned by a newer epoch;
  /// replicate() for it fails until the server is re-promoted.
  bool fenced(const std::string& segment) const;

  /// Clears a segment's stale-epoch fence — the kPromote edge: this server
  /// now owns the segment's newest epoch, so its records are current again.
  void unfence(const std::string& segment);

  /// Stops the links and joins the workers. Unsent records are dropped —
  /// they were never acknowledged to any client. Idempotent; the
  /// destructor implies it.
  void shutdown();

  size_t replica_count() const;
  Stats stats() const;

 private:
  struct Rec {
    uint64_t seq;
    std::string segment;
    uint32_t epoch;
    /// WalRecordType, possibly ORed with kPayloadCompressedTagBit — the
    /// same tag byte the local WAL framed, carried verbatim on the wire.
    uint8_t tag;
    std::vector<uint8_t> payload;  // head | body (no tag byte)
  };
  struct Link {
    std::string id;
    Dialer dial;
    std::shared_ptr<ClientChannel> channel;  // worker-owned once started
    uint64_t acked = 0;   ///< highest seq this replica has journaled
    bool paused = false;  ///< parked mid-backfill; cursor pinned
    bool dead = false;    ///< grace expired; parked until revived
    uint32_t failures = 0;  ///< consecutive failed sends (backoff input)
    std::chrono::steady_clock::time_point down_since{};
    std::chrono::steady_clock::time_point paused_since{};
    std::thread worker;
  };

  void link_loop(Link* link);
  Link* find_link_locked(const std::string& id);
  /// Records acked by at least `need` live, unpaused links at/above `seq`.
  bool quorum_reached_locked(uint64_t seq, uint32_t need) const;
  /// Replication factor clamped to the live, unpaused link count.
  uint32_t active_need_locked() const;
  void advance_quorum_frontier_locked();
  void declare_dead_locked(Link& link, const char* why);
  /// Declares paused links dead once their sync grace expires.
  void reap_expired_locked();
  void trim_locked();

  Options options_;

  mutable std::mutex mu_;
  std::condition_variable send_cv_;  ///< workers: new records / stop
  std::condition_variable ack_cv_;   ///< committers: acks / fences / stop
  std::deque<Rec> log_;
  uint64_t next_seq_ = 0;  ///< seq of the most recently enqueued record
  uint64_t quorum_frontier_ = 0;  ///< highest seq at the replication factor
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_set<std::string> fenced_segments_;
  std::unordered_set<std::string> segments_seen_;  ///< ever replicated
  bool stop_ = false;

  // Counters not derivable from the log (relaxed; stats() snapshots).
  struct Counters {
    IW_COUNTER_ATOMICS(IW_REPLICATOR_COUNTERS)
  };
  Counters counters_;
};

}  // namespace iw::server
