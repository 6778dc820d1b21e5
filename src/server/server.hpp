// SegmentServer: the transport-independent InterWeave server.
//
// One server manages an arbitrary number of segments (§3.2): it stores the
// master copy of each in wire format (SegmentStore), runs each segment's
// reader-writer lock (LockTable), decides per-client whether a cached copy
// is "recent enough" under the client's coherence model, ships type
// definitions and diffs, pushes version notifications to subscribed
// clients, and periodically checkpoints segments to disk as partial
// protection against failure.
//
// Concurrency model (two-level locking): a read-mostly segment directory
// guarded by a shared_mutex maps names to heap-allocated SegmentEntry
// objects whose addresses never change; all per-segment state — the store,
// the writer lock, and every session's per-segment view of that segment —
// lives under the entry's own mutex. Requests for distinct segments only
// touch the directory lock in shared mode, so the per-connection transport
// threads proceed fully in parallel. Lock ordering: directory → entry →
// session table; see DESIGN.md "Server concurrency model".
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "net/transport.hpp"
#include "server/lock_table.hpp"
#include "server/replication.hpp"
#include "server/segment_store.hpp"
#include "server/wal.hpp"
#include "wire/coherence.hpp"

namespace iw::server {

/// SegmentServer's counters (util/counters.hpp), maintained as relaxed
/// atomics: the request hot path never takes a stats lock.
#define IW_SERVER_COUNTERS(X)                                            \
  X(requests)                                                            \
  X(updates_sent)                                                        \
  X(uptodate_responses)                                                  \
  X(notifications_sent)                                                  \
  X(checkpoints_written)                                                 \
  X(lease_expirations)       /* writer locks reclaimed */                \
  X(stale_releases_rejected) /* kLeaseExpired responses */               \
  /* Distributed lock caching (reader locks retained client-side). */    \
  X(cached_read_grants)      /* read acquires granted a cached lock */   \
  X(revokes_sent)            /* kRevokeRead notifications pushed */      \
  X(revokes_acked)           /* cached locks released by clients */      \
  X(revokes_expired)         /* cached locks reclaimed on deadline */    \
  /* Durability (write-ahead log + recovery). */                         \
  X(wal_replayed_records)    /* records applied by recover() */          \
  X(wal_truncated_bytes)     /* journal bytes cut at recover */          \
  X(recoveries_completed)    /* recover() invocations done */            \
  X(checkpoints_quarantined) /* corrupt .iwseg files set aside */       \
  X(checkpoints_incremental) /* always 0: kept only for perfbench */     \
  /* Payload pipeline: what the section envelope saved. */               \
  X(lz_passes)               /* compressions run: updates and WAL */     \
  X(updates_compressed)      /* update diffs sent compressed */          \
  X(update_raw_bytes)        /* diff bytes before the envelope */        \
  X(update_wire_bytes)       /* diff section bytes on the wire */        \
  X(commits_compressed)      /* commit records journaled packed */       \
  X(commit_raw_bytes)        /* commit payload bytes pre-envelope */     \
  X(commit_stored_bytes)     /* commit payload bytes journaled */        \
  /* Federation (replica role) and placement-epoch enforcement. */       \
  X(repl_records_applied)    /* kWalAppend records applied */            \
  X(repl_stale_rejected)     /* records refused by epoch fence */        \
  X(promotions_accepted)     /* kPromote epochs adopted */               \
  /* Self-healing replication (sync serving + backfill pulls). */        \
  X(sync_requests)           /* kSyncRequest frames served */            \
  X(sync_tails_served)       /* syncs answered with a WAL-tail fold */   \
  X(sync_snapshots_served)   /* syncs answered with a snapshot */        \
  X(backfills_completed)     /* backfill_segment() installs */           \
  X(recruits_rejected_stale) /* kRecruit refused by epoch fence */

/// The journal counters appear in SegmentServer::Stats as wal_<name>.
#define IW_SERVER_WAL_FIELD(name) uint64_t wal_##name = 0;

class SegmentServer : public ServerCore {
 public:
  struct Options {
    /// Directory for checkpoints; empty disables persistence.
    std::string checkpoint_dir;
    /// Checkpoint a segment every N versions (0 = only on demand).
    uint32_t checkpoint_every = 0;
    /// Writer lease duration: a writer that holds a segment's lock longer
    /// than this without renewing can be reclaimed by a waiting writer (the
    /// late holder's release is then rejected with kLeaseExpired). Must be
    /// positive: the constructor rejects 0 with kInvalidArgument.
    uint32_t writer_lease_ms = 10'000;
    /// Per-segment write-ahead log (requires checkpoint_dir): every
    /// committed diff is journaled before the commit is acknowledged, so
    /// recovery replays acknowledged versions past the last checkpoint
    /// instead of silently discarding them.
    bool wal_enabled = true;
    /// When the journal reaches the device (see WriteAheadLog::Sync):
    /// kNone / kBatch (group commit every WriteAheadLog::kBatchIntervalMs)
    /// / kCommit (fdatasync per release).
    WriteAheadLog::Sync wal_sync = WriteAheadLog::Sync::kBatch;
    /// Seeded crash injection inside WAL appends (crash-harness tests
    /// only); null in production.
    std::shared_ptr<WalCrashSchedule> wal_crash;
    /// How long a waiting writer gives clients holding cached read locks to
    /// ack a kRevokeRead before their cached locks are forcibly dropped
    /// (epoch bump, like a lease reclaim). Must be positive: every session
    /// caches read locks, so the constructor rejects 0 with
    /// kInvalidArgument.
    uint32_t revoke_deadline_ms = 2'000;
    /// Streams every journaled record to replica servers and gates commit
    /// acknowledgement on its replication factor (see replication.hpp);
    /// null runs standalone.
    std::shared_ptr<WalReplicator> replicator;
    /// Dials another segment server by address — the server-to-server leg
    /// of self-healing replication. A primary uses it to open the live
    /// link back to a replica that completed a sync (kSyncDone), and a
    /// recruited replica uses it to pull its backfill from the primary
    /// (kRecruit → backfill_segment). Null disables both: syncs are served
    /// but links are never (re-)established from this side.
    std::function<std::shared_ptr<ClientChannel>(const std::string&)>
        peer_dial;
    /// Snapshot bytes per kSyncChunk response when a sync falls back to a
    /// full snapshot; small values force multi-chunk streaming (tests).
    uint32_t sync_chunk_bytes = 1u << 20;
    /// Payload compression (wire/payload.hpp) of what this server encodes:
    /// update diff sections and journal and replication records, each when
    /// the sampled ratio pays. It never limits what the server accepts: a
    /// compressed commit is decoded either way.
    bool compress_payloads = true;
    /// Store tuning (diff cache).
    SegmentStore::Options store;
  };

  /// Snapshot of the server-wide counters, plus every segment journal's
  /// counters summed (wal_records_appended, wal_bytes_appended,
  /// wal_fsyncs).
  struct Stats {
    IW_SERVER_COUNTERS(IW_COUNTER_FIELD)
    IW_WAL_COUNTERS(IW_SERVER_WAL_FIELD)
  };

  SegmentServer();
  explicit SegmentServer(Options options);
  ~SegmentServer() override;

  // --- ServerCore ---
  void on_connect(SessionId session, Notifier notify) override;
  void on_disconnect(SessionId session) override;
  Frame handle(SessionId session, const Frame& request) override;

  // --- administration ---
  /// Writes every segment to the checkpoint directory (atomic per segment).
  /// Safe to call concurrently with request handling; each segment is
  /// checkpointed under its own lock.
  void checkpoint();
  /// Loads all segments found in the checkpoint directory: snapshots, then
  /// each journal's records on top. Call before serving; existing in-memory
  /// segments with the same name are replaced. A file in a format this
  /// build does not read (an older journal or snapshot, or any `.iwinc`
  /// checkpoint chain) is left in place and refused with kUnimplemented.
  void recover();

  Stats stats() const;
  /// Store-level stats for one segment (throws kNotFound).
  StoreStats segment_stats(const std::string& name) const;
  /// Current version of a segment (throws kNotFound).
  uint32_t segment_version(const std::string& name) const;
  /// Lock epoch of a segment: bumped by each writer lease reclaimed from a
  /// stalled holder and each drain that hit its revocation deadline
  /// (LockTable::epoch; throws kNotFound).
  uint32_t segment_epoch(const std::string& name) const;
  /// Placement epoch of a segment (bumped by kPromote; throws kNotFound).
  uint32_t segment_placement_epoch(const std::string& name) const;
  /// Lineage epoch of a segment: the placement epoch its applied version
  /// history was produced under — adopted at promotion, after a backfill
  /// install, or from a replayed kEpochAdopt record (throws kNotFound). A
  /// rejoining replica whose lineage matches the primary's may take a
  /// WAL-tail fold; a mismatch means its unacked suffix may diverge and it
  /// takes a snapshot instead.
  uint32_t segment_lineage_epoch(const std::string& name) const;

  /// This server's identity in the replication ring; stamped into
  /// kSyncRequest/kSyncDone so the primary can key the replica's link and
  /// dial it back. Safe to call again after a restart on a new address.
  void set_node_identity(std::string id, std::string address);

  /// Pulls `name` from the primary at `primary_address` (the kRecruit /
  /// rejoin path): drives the kSyncRequest chunk loop, installs the
  /// snapshot or applies the WAL-tail fold, adopts the sync's epoch, and
  /// completes the handshake with kSyncDone so the primary flips this
  /// server's link to live kWalAppend tailing. `want_epoch` is the
  /// placement epoch the caller believes (0 = any); the pull aborts with
  /// kStaleEpoch when either side has already seen a newer epoch — repair
  /// racing a newer failover resolves toward the newer lineage. Returns
  /// the segment version after install.
  uint32_t backfill_segment(const std::string& name,
                            const std::string& primary_address,
                            uint32_t want_epoch);

 private:
  /// One session's view of one segment. Guarded by the owning
  /// SegmentEntry's mutex, so bookkeeping for segment A (including
  /// notification fan-out) never blocks a writer on segment B.
  struct SegmentSession {
    uint32_t types_sent = 0;             // prefix of type serials known
    uint64_t modified_since_update = 0;  // for Diff coherence
    bool subscribed = false;
    /// Snapshot cut for an in-progress sync pull by this session
    /// (kSyncRequest in snapshot mode): serialized once at cursor 0 and
    /// sliced per chunk, so every chunk comes from one consistent cut even
    /// while commits keep landing. Cleared when the last chunk is served.
    std::shared_ptr<const std::vector<uint8_t>> sync_snapshot;
    uint32_t sync_version = 0;  ///< version the cached cut covers
    uint32_t sync_epoch = 0;    ///< placement epoch stamped on the cut
    Notifier notify;  // copied from the session record at first touch
  };
  /// One segment plus everything guarded by its lock. Heap-allocated and
  /// never removed from the directory, so raw pointers taken under the
  /// directory lock stay valid without holding it.
  struct SegmentEntry {
    SegmentEntry(const std::string& name, const Options& o)
        : store(std::make_unique<SegmentStore>(name, o.store)),
          locks({std::chrono::milliseconds(o.writer_lease_ms),
                 std::chrono::milliseconds(o.revoke_deadline_ms)}) {}
    mutable std::mutex mu;
    /// Write acquires in progress sleep here until their table decision's
    /// time, or until an event whose decision says wake.
    std::condition_variable writer_cv;
    std::unique_ptr<SegmentStore> store;
    /// The writer slot, writer leases and every session's cached read
    /// grant (see lock_table.hpp).
    LockTable locks;
    /// Placement epoch this server believes for the segment: stamped into
    /// every replicated record on a primary, enforced against incoming
    /// kWalAppend on a replica, bumped by kPromote. A record carrying an
    /// older epoch comes from a deposed primary and is refused.
    uint32_t repl_epoch = 1;
    /// Placement epoch the segment's applied history was produced under
    /// (see segment_lineage_epoch). Trails repl_epoch on a fenced replica
    /// that has heard of a newer primary but not yet synced from it;
    /// catches up at promotion or backfill install, persisted via
    /// WalRecordType::kEpochAdopt.
    uint32_t lineage_epoch = 1;
    uint32_t versions_since_checkpoint = 0;
    /// Append-only diff journal; null when persistence is disabled. Guarded
    /// by `mu` like the store, so append-before-ack and
    /// truncate-on-checkpoint serialize naturally with commits.
    std::unique_ptr<WriteAheadLog> wal;
    /// An append failed and may have left a torn record mid-journal: no
    /// append is attempted until checkpoint_segment_locked truncates the
    /// journal, and nothing is acked before it has (see journal_locked).
    bool wal_broken = false;
    std::unordered_map<SessionId, SegmentSession> sessions;
  };
  /// A segment one session bound to a handle (kOpenSegment, kSegmentInfo
  /// or kHello). `entry` stays null until the name is first resolved: a
  /// hello rebinds names this server may never have seen.
  struct HandleBinding {
    std::string name;
    SegmentEntry* entry = nullptr;
  };
  /// One connection: its notifier, whether it said kHello (the version
  /// check every session passes before it may bind a segment handle), and
  /// its segment handles.
  struct SessionRecord {
    Notifier notify;
    bool said_hello = false;
    std::unordered_map<uint32_t, HandleBinding> handles;
  };
  struct PendingNotify {
    Notifier notify;
    Frame frame;
  };
  struct AtomicStats {
    IW_COUNTER_ATOMICS(IW_SERVER_COUNTERS)
  };

  Frame dispatch(SessionId session, const Frame& request,
                 std::vector<PendingNotify>* notifies);
  /// Directory lookup (shared lock); inserts under the exclusive lock when
  /// `create`. Returns nullptr when absent and !create.
  SegmentEntry* find_segment(const std::string& name, bool create);
  /// Like find_segment(name, false) but throws kNotFound when absent.
  SegmentEntry& segment(const std::string& name);
  const SegmentEntry& segment(const std::string& name) const;
  /// Binds `handle` to `name` (and `entry`, when known) for `session`.
  /// Handle 0 binds nothing; rebinding a handle to another name is a
  /// kProtocol error.
  void bind_handle(SessionId session, uint32_t handle, const std::string& name,
                   SegmentEntry* entry);
  /// Reads a handle from `in` and returns what `session` bound it to,
  /// resolving the name on first use (kNotFound when this server has no
  /// such segment). A handle the session never bound is a kProtocol error.
  HandleBinding resolve_handle(SessionId session, BufReader& in);
  /// The record of a connected session; kState for an unknown one. Caller
  /// holds sessions_mu_.
  SessionRecord& session_locked(SessionId id);
  /// This session's state for `entry`'s segment, created on first touch
  /// (validating the session against the connection table). Caller holds
  /// entry.mu.
  SegmentSession& seg_session(SegmentEntry& entry, SessionId id);
  /// Appends status/type-table/diff to `payload` for a client at
  /// `client_version` under `policy`; returns true when an update was sent.
  /// Caller holds entry.mu.
  bool append_update(SegmentEntry& entry, SegmentSession& ss,
                     uint32_t client_version, CoherencePolicy policy,
                     Buffer& payload);
  bool is_stale(SegmentEntry& entry, const SegmentSession& ss,
                uint32_t client_version, CoherencePolicy policy) const;
  /// Carries out a lock decision: wakes waiting writers, counts and logs
  /// forced drops, pushes kRevokeRead to the sessions it names with `el`
  /// released, and throws the error a refusal answers. `el` holds
  /// entry.mu, and holds it again on return.
  void carry_out(SegmentEntry& entry, const LockTable::Decision& d,
                 std::unique_lock<std::mutex>& el);
  /// Checkpoints one segment: writes its durable `.iwseg` snapshot, then
  /// truncates the journal the snapshot supersedes (which also mends a
  /// broken journal) and re-journals the lineage; throws when any step
  /// fails. Caller holds entry.mu.
  void checkpoint_segment_locked(SegmentEntry& entry);
  /// The one journal path of a record the store just applied on this
  /// primary (a commit or a new type): encodes it once as `u32 head` and
  /// `body` in its section envelope, journals it, replicates it, and
  /// re-anchors a broken journal on a checkpoint, so the caller may ack on
  /// return. `envelope`, when not empty, is the writer's kLz envelope of
  /// `body`, journaled as it arrived instead of compressing `body` again.
  /// Throws when replication or the re-anchor fails. Caller holds entry.mu.
  void journal_locked(SegmentEntry& entry, const std::string& name,
                      WalRecordType type, uint32_t head,
                      std::span<const uint8_t> body,
                      std::span<const uint8_t> envelope = {});
  /// Whether to compress `n` bytes: compress_payloads is on and the input
  /// is one the codec takes. A yes counts one LZ pass.
  bool lz_pass(size_t n);
  /// Appends one record to the entry's journal unless there is none or it
  /// is broken; a failed append marks it broken instead of throwing.
  /// Caller holds entry.mu.
  void append_locked(SegmentEntry& entry, WalRecordType type,
                     std::span<const uint8_t> head,
                     std::span<const uint8_t> body = {});
  /// Applies one journal record to the entry's store, decoding its body's
  /// section envelope — the one record apply shared by journal replay and
  /// kWalAppend. Returns false when the store already holds it (a re-sent
  /// batch, or a record a checkpoint covers). A record that skips a
  /// version or a type serial, or whose envelope does not decode, throws
  /// and leaves the store unchanged. Caller holds entry.mu.
  bool apply_record_locked(SegmentEntry& entry, WalRecordType type,
                           std::span<const uint8_t> payload);

  // --- self-healing replication plumbing ---
  /// Serves one kSyncRequest: registers the requester's link paused (first
  /// chunk only), picks WAL-tail fold vs snapshot via the version/lineage
  /// handshake, and emits one kSyncChunk payload. Caller holds nothing.
  Frame serve_sync_request(SessionId session, BufReader& in);
  /// Adopts `epoch` as both the replication fence and the lineage of the
  /// applied history, journaling a kEpochAdopt record (local-only) so the
  /// lineage survives restart. Caller holds entry.mu.
  void adopt_epoch_locked(SegmentEntry& entry, uint32_t epoch);
  /// Re-appends the lineage marker to the journal (no-op at lineage 1 or
  /// without a journal) — called after every journal truncation/reopen so
  /// the lineage survives checkpoint retirement. Caller holds entry.mu.
  void journal_lineage_locked(SegmentEntry& entry);

  // --- durability plumbing ---
  /// True when commits are journaled (checkpoint_dir set + wal_enabled).
  bool wal_on() const noexcept;
  WriteAheadLog::Options wal_options();
  std::string wal_file_path(const std::string& name) const;
  /// Opens a brand-new journal for `entry` (discarding any stale log file
  /// left by an earlier incarnation) and records the segment's birth.
  void open_fresh_wal(SegmentEntry& entry, const std::string& name);
  /// Renames a corrupt checkpoint file to its first free `<path>.corrupt`
  /// name (`.corrupt`, `.corrupt.1`, ...) and counts it.
  void quarantine(const std::string& path, const std::string& why);

  Options options_;
  /// Aggregated append/fsync counters shared by every segment's journal.
  WalCounters wal_counters_;

  /// Level 1: the segment directory. Read-mostly — shared for lookup,
  /// exclusive only to insert a new segment.
  mutable std::shared_mutex dir_mu_;
  std::unordered_map<std::string, std::unique_ptr<SegmentEntry>> segments_;

  /// Connection table. Leaf lock: never held while acquiring the directory
  /// or an entry lock.
  mutable std::shared_mutex sessions_mu_;
  std::unordered_map<SessionId, SessionRecord> sessions_;

  /// Ring identity (set_node_identity); leaf lock like the session table.
  mutable std::mutex node_mu_;
  std::string node_id_;
  std::string node_address_;

  AtomicStats stats_;
};

}  // namespace iw::server
