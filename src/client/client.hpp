// The InterWeave client library.
//
// A Client is the per-process (or per-simulated-machine) runtime: it caches
// segments in local memory laid out for its Platform, synchronizes them
// with InterWeave servers under reader-writer locks and relaxed coherence,
// collects wire-format diffs of local modifications at write-lock release,
// applies incoming diffs at lock acquisition, and swizzles pointers between
// local addresses and machine-independent pointers (MIPs).
//
// Heterogeneity is first-class: two Clients in one process can be bound to
// different Platforms (say native x86-64 and big-endian 32-bit "sparc32")
// and share a segment through a server; each sees the data in its own
// byte order, alignment and pointer width.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/heap.hpp"
#include "client/lock_cache.hpp"
#include "client/reconnect.hpp"
#include "client/tracking.hpp"
#include "net/transport.hpp"
#include "types/registry.hpp"
#include "wire/coherence.hpp"
#include "wire/diff.hpp"

namespace iw::client {

/// How local modifications are detected during write critical sections.
enum class TrackingMode : uint8_t {
  kAuto = 0,      ///< VM diffing with adaptive switch to no-diff (§3.3)
  kVmDiff = 1,    ///< always mprotect + SIGSEGV twins + word diffing
  kSoftware = 2,  ///< eager page snapshots at lock acquire; same diffs
  kNoDiff = 3,    ///< always transmit whole blocks, no twins
};

/// Client counters kept as relaxed atomics (util/counters.hpp) rather than
/// under the client mutex: the lock-cache paths and the revoke handler bump
/// them without it. Distributed lock caching retains reader locks across
/// release.
#define IW_CLIENT_LOCK_CACHE_COUNTERS(X)                         \
  X(lock_cache_hits)   /* acquires satisfied by a cached lock */ \
  X(lock_cache_misses) /* acquires that paid the RPC anyway */   \
  X(revokes_acked)     /* kRevokeRead callbacks honoured */      \
  X(sublet_grants)     /* extra local threads under one lock */

/// Client-side instrumentation. Phase timers separate word diffing from
/// wire-format translation (the two curves of Fig. 5).
struct ClientStats {
  uint64_t read_lock_server_calls = 0;
  uint64_t read_lock_local_hits = 0;  ///< satisfied without communication

  IW_CLIENT_LOCK_CACHE_COUNTERS(IW_COUNTER_FIELD)
  uint64_t updates_applied = 0;
  uint64_t diffs_collected = 0;
  uint64_t diffs_compressed = 0;  ///< releases whose diff section shrank
  uint64_t word_diff_ns = 0;
  uint64_t translate_ns = 0;  ///< wire translation, whole blocks and diffs
  uint64_t compress_ns = 0;   ///< LZ over each release's diff section
  uint64_t collect_ns = 0;    ///< the whole release payload, both above too
  uint64_t apply_ns = 0;
  uint64_t swizzles_out = 0;
  uint64_t swizzles_in = 0;
  uint64_t prediction_hits = 0;
  uint64_t prediction_misses = 0;
  uint64_t units_sent = 0;
  uint64_t diff_releases = 0;
  uint64_t no_diff_releases = 0;
  uint64_t block_no_diff_emissions = 0;  ///< blocks sent whole by block mode

  // Plan-compiled translation counters, merged from the client's type
  // registry (see types/translation_plan.hpp).
  IW_TRANSLATION_COUNTERS(IW_COUNTER_FIELD)

  // Fault-tolerance counters, aggregated from the client's channels (the
  // reconnect supervisor maintains them; raw channels report zeros except
  // for TCP call deadlines).
  IW_CHANNEL_FAULT_COUNTERS(IW_COUNTER_FIELD)
  /// From-scratch diffs applied over an already-populated cache — the
  /// signature of converging on a server that recovered behind us.
  uint64_t full_resyncs = 0;
};

class Client;

/// A locally cached segment. Created via Client::open_segment; owned by the
/// Client. All mutation goes through Client methods.
class ClientSegment {
 public:
  const std::string& url() const noexcept { return url_; }
  uint32_t version() const noexcept { return version_; }
  bool write_locked() const noexcept { return write_locked_; }
  int read_locks() const noexcept { return read_locks_; }
  const SegmentHeap& heap() const noexcept { return heap_; }
  bool no_diff_active() const noexcept { return no_diff_active_; }

 private:
  friend class Client;
  friend class ClientHooks;
  ClientSegment(Client* client, std::string url, uint32_t handle,
                std::shared_ptr<ClientChannel> channel);

  Client* client_;
  std::string url_;
  /// Names the segment in every frame after the open (wire/frame.hpp).
  uint32_t handle_;
  std::shared_ptr<ClientChannel> channel_;
  SegmentHeap heap_;

  uint32_t version_ = 0;      // version of the locally cached copy
  uint32_t next_serial_ = 0;  // valid while write-locked
  /// Channel session epoch this segment's server-side state (subscription,
  /// sent-type prefix) belongs to; a mismatch at lock time means the
  /// connection was rebuilt and the state must be re-established.
  uint64_t channel_epoch_ = 0;
  /// Forces the next lock acquisition to consult the server even when the
  /// coherence model would not (set after reconnects and failed releases).
  bool needs_revalidation_ = false;
  int read_locks_ = 0;
  bool write_locked_ = false;
  CoherencePolicy policy_ = CoherencePolicy::full();
  int64_t last_update_ns_ = 0;

  std::vector<const TypeDescriptor*> types_;  // serial-1 -> descriptor
  std::unordered_map<const TypeDescriptor*, uint32_t> type_serials_;
  std::deque<std::string> name_arena_;

  /// Release-path collect buffer, reused across write-lock cycles (the
  /// channel consumes the bytes but leaves the allocation behind).
  Buffer collect_buf_;

  // Current write critical section.
  TrackingMode active_tracking_ = TrackingMode::kNoDiff;
  std::vector<BlockHeader*> new_blocks_;
  std::vector<uint32_t> freed_serials_;
  bool in_transaction_ = false;
  /// Blocks freed inside a transaction: unlinked from the trees but their
  /// storage is kept until commit (abort relinks them).
  std::vector<BlockHeader*> deferred_frees_;

  // No-diff adaptation (kAuto).
  bool no_diff_active_ = false;
  uint32_t no_diff_probe_countdown_ = 0;
};

class Client {
 public:
  struct Options {
    Platform platform = Platform::native();
    TrackingMode tracking = TrackingMode::kAuto;
    /// Unmodified-word gap spliced into a run (0 disables splicing, §3.3).
    uint32_t splice_gap_words = 2;
    /// Modified fraction above which kAuto switches to no-diff mode.
    double no_diff_threshold = 0.75;
    /// No-diff critical sections between diffing probes.
    uint32_t no_diff_probe_period = 8;
    /// Per-block no-diff mode: individual blocks that are repeatedly
    /// modified almost entirely travel whole and skip page protection.
    bool per_block_no_diff = true;
    /// Last-block prediction when applying diffs (§3.3).
    bool last_block_prediction = true;
    /// Backoff/retry tuning for the reconnect supervisor every channel is
    /// wrapped in (client/reconnect.hpp).
    ReconnectingChannel::Options reconnect;
    /// Isomorphic type descriptors etc.
    TypeRegistry::Options type_options;
  };

  /// Maps a host name (the part of a segment URL before the first '/') to a
  /// channel. Lets tests wire clients to in-process or TCP servers.
  using ChannelFactory =
      std::function<std::shared_ptr<ClientChannel>(const std::string& host)>;

  Client(ChannelFactory factory, Options options);
  explicit Client(ChannelFactory factory) : Client(std::move(factory), Options{}) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const Options& options() const noexcept { return options_; }
  /// The client's type registry (bound to its platform layout). Build or
  /// IDL-register shared types here.
  TypeRegistry& types() noexcept { return registry_; }

  /// Opens (and with `create`, possibly creates) the segment at `url`
  /// ("host/name"). Idempotent per client.
  ClientSegment* open_segment(const std::string& url, bool create = true);

  /// Drops the local cache of `segment` (the server copy is untouched).
  /// No locks may be held; every local pointer into the segment — including
  /// cross-segment pointers cached in other segments — becomes invalid,
  /// exactly as with a plain unmap. Reopening refetches on first lock.
  void close_segment(ClientSegment* segment);

  /// Sets the coherence policy governing this client's read locks.
  void set_coherence(ClientSegment* segment, CoherencePolicy policy);

  // --- reader/writer locks (paper §2.2) ---
  void read_lock(ClientSegment* segment);
  void read_unlock(ClientSegment* segment);
  void write_lock(ClientSegment* segment);
  void write_unlock(ClientSegment* segment);

  // --- transactions (paper §6 future work) ---
  // A transaction is a write critical section that can be rolled back:
  // twins hold the pre-images, so abort restores every modified byte,
  // discards blocks allocated inside the transaction, and resurrects
  // blocks freed inside it. Commit behaves exactly like write_unlock.
  // Twin-based tracking is forced for the duration (a no-diff client uses
  // the software backend), and frees are deferred until commit so their
  // storage stays intact for rollback.
  void begin_transaction(ClientSegment* segment);
  void commit_transaction(ClientSegment* segment);
  void abort_transaction(ClientSegment* segment);

  // --- allocation (requires write lock) ---
  /// Allocates a block of `type`; optional symbolic name (must not be all
  /// digits). Returns the block's data address, zero-initialized.
  void* malloc_block(ClientSegment* segment, const TypeDescriptor* type,
                     const std::string& name = {});
  void free_block(ClientSegment* segment, void* data);

  // --- machine-independent pointers ---
  /// Converts a local address (into any cached block of this client) to a
  /// MIP "url#block#unit".
  std::string ptr_to_mip(const void* ptr);
  /// Converts a MIP to a local address, reserving address space for the
  /// target segment if it is not yet cached. "" maps to nullptr.
  void* mip_to_ptr(const std::string& mip);

  // --- local pointer representation (platform-dependent) ---
  /// Reads/writes the pointer representation at `field` (a pointer unit in
  /// some block). On non-native platforms pointers are block-relative
  /// tokens (PointerTokens); these helpers are how tests and simulated apps
  /// dereference them. Reading a token whose block was freed throws
  /// Error(kNotFound); writing an address outside every block of this
  /// client throws Error(kInvalidArgument).
  void* read_pointer_field(const void* field) const;
  void write_pointer_field(void* field, void* addr);

  /// Snapshot of the client counters plus the registry's translation
  /// counters and the channels' fault counters (by value: the translation
  /// side is sampled from relaxed atomics at call time).
  ClientStats stats() const {
    std::lock_guard lock(mu_);
    ClientStats s = stats_;
    registry_.translation_counters().snapshot_into(s);
    cache_counters_.snapshot_into(s);
    for (const auto& [host, channel] : channels_) {
      ChannelFaultStats f = channel->fault_stats();
#define IW_CLIENT_SUM_FAULTS(name) s.name += f.name;
      IW_CHANNEL_FAULT_COUNTERS(IW_CLIENT_SUM_FAULTS)
#undef IW_CLIENT_SUM_FAULTS
    }
    return s;
  }
  void reset_stats() noexcept {
    stats_ = ClientStats{};
    registry_.reset_translation_stats();
    cache_counters_.reset();
  }
  /// Total bytes across all channels (bandwidth accounting).
  uint64_t bytes_sent() const;
  uint64_t bytes_received() const;

 private:
  friend class ClientHooks;
  friend class ClientSegment;

  std::shared_ptr<ClientChannel> channel_for(const std::string& url);
  ClientSegment* segment_for_url_locked(const std::string& url, bool create);
  ClientSegment* reserve_remote_segment_locked(const std::string& url);
  /// Creates the local segment for `url` once the server has bound
  /// `handle` to it on `channel`.
  ClientSegment* add_segment_locked(const std::string& url, uint32_t handle,
                                    std::shared_ptr<ClientChannel> channel,
                                    uint32_t server_version);
  /// Subscribes `seg`'s session to version notifications.
  void subscribe_locked(ClientSegment* seg);
  uint32_t ensure_type_registered_locked(ClientSegment* seg,
                                         const TypeDescriptor* type);
  /// Parses an update payload (status/types/diff) and applies it.
  bool apply_update_locked(ClientSegment* seg, BufReader& in);
  void apply_diff_locked(ClientSegment* seg, BufReader& diff);
  void collect_and_release_locked(ClientSegment* seg);
  /// Re-establishes server-side session state (subscription, freshness)
  /// when the segment's channel was rebuilt under a new session epoch.
  void revalidate_if_reconnected_locked(ClientSegment* seg);
  /// A kReleaseWrite failed (transport died or lease reclaimed): the
  /// outcome is unknown, so drop the critical-section state and force a
  /// from-0 resync on the next lock. The caller rethrows; the application
  /// retries the critical section.
  void recover_failed_release_locked(ClientSegment* seg);
  void begin_tracking_locked(ClientSegment* seg);
  void end_tracking_locked(ClientSegment* seg);
  bool read_needs_server_locked(ClientSegment* seg) const;
  std::string ptr_to_mip_locked(const void* ptr);
  /// Formats the MIP of `ptr` into `mip` (replacing its contents).
  void format_mip_locked(const void* ptr, std::string& mip);
  BlockHeader* resolve_ptr_locked(const void* ptr);
  /// The block of this client whose data holds `ptr`; throws
  /// Error(kInvalidArgument) for any other address.
  BlockHeader* block_at(const void* ptr) const;
  void* mip_to_ptr_locked(std::string_view mip);
  /// Emulated pointer fields, per platform width and byte order: the block
  /// and byte offset the token at `field` names (nullptr for null; throws
  /// Error(kNotFound) when the block is gone), and storing a token.
  BlockHeader* token_target(const void* field, uint32_t* offset) const;
  void store_token(void* field, uint32_t token) const;
  uint32_t latest_known_version(const std::string& url) const;
  void note_version(const std::string& url, uint32_t version);
  /// kRevokeRead arrived for `url`: surrender the cached lock immediately
  /// when no local reader holds it, else mark it for release (and ack) at
  /// critical-section exit. Runs on the notifying thread (a TCP channel's
  /// receiver or a thread inside a call on that channel, which may hold
  /// mu_; in-proc the writer's thread), so it must not take mu_, call the
  /// channel, or end up holding its last reference: it pins `ch` only to
  /// enqueue the ack for revoke_ack_loop(), the channel's sender.
  void handle_revoke(const std::string& url, uint32_t gen,
                     const std::weak_ptr<ClientChannel>& ch);
  /// Dedicated ack thread: sends kRevokeAck for each queued revoke,
  /// swallowing transport errors (a dead connection surrenders the cached
  /// lock via on_disconnect anyway). Acks are RPCs that can block and
  /// fail — neither of which may happen on the thread that delivers a
  /// channel's notifications, so this worker owns them all.
  void revoke_ack_loop();
  /// Drops any cached read lock state for `url` without acking (used when
  /// the server-side session is already gone: reconnect, close, recovery).
  void forget_cached_lock(const std::string& url);
  BlockHeader* next_block_in_memory(BlockHeader* block) const;
  const TypeDescriptor* type_by_serial(ClientSegment* seg,
                                       uint32_t serial) const;

  mutable std::mutex mu_;
  Options options_;
  bool native_pointers_;
  TypeRegistry registry_;
  ChannelFactory factory_;
  /// Emulated-pointer tokens (non-native platforms); declared before
  /// segments_, whose heaps retire ranges in it as they go.
  PointerTokens tokens_;
  std::unordered_map<std::string, std::shared_ptr<ClientChannel>> channels_;
  std::unordered_map<std::string, std::unique_ptr<ClientSegment>> segments_;
  /// Next segment handle; a handle is never reused within a client.
  uint32_t next_handle_ = 1;

  /// One-entry segment cache for MIP resolution (guarded by mu_; reset when
  /// segments are destroyed — they never are today).
  ClientSegment* mip_cache_seg_ = nullptr;
  /// One-entry block cache for swizzling both ways (the last block a
  /// pointer named); invalidated whenever any block is released.
  BlockHeader* mip_cache_block_ = nullptr;

  // Latest segment versions learned from notifications/responses; guarded
  // by notify_mu_ only (the notify handler must not take mu_).
  mutable std::mutex notify_mu_;
  std::unordered_map<std::string, uint32_t> latest_versions_;

  /// Leaf lock (after mu_ in the ordering; notify handlers take it alone).
  mutable std::mutex lock_cache_mu_;
  /// One cached reader lock per open segment, by URL: a kRevokeRead names
  /// its segment by URL, and the ack names it by handle.
  std::unordered_map<std::string, ReadLockCache> lock_cache_;
  struct CacheCounters {
    IW_COUNTER_ATOMICS(IW_CLIENT_LOCK_CACHE_COUNTERS)
    void reset() noexcept { IW_CLIENT_LOCK_CACHE_COUNTERS(IW_COUNTER_CLEAR) }
  };
  CacheCounters cache_counters_;
  /// Pending kRevokeAck sends, drained by revoke_ack_worker_. Guarded by
  /// lock_cache_mu_ (the enqueue sites already hold it). The shared_ptr
  /// keeps the channel alive until the ack lands; if the worker (or ~Client,
  /// dropping unsent acks) ends up holding the last reference, the channel
  /// is destroyed there — never on a thread that is reading it.
  struct RevokeAck {
    uint32_t handle = 0;
    uint32_t gen = 0;  ///< server's revocation generation, echoed back
    std::shared_ptr<ClientChannel> channel;
  };
  /// Queues an ack for revoke_ack_loop(), starting its thread at the first
  /// ack. Caller holds lock_cache_mu_ and notifies revoke_ack_cv_ after
  /// unlocking.
  void queue_revoke_ack_locked(RevokeAck ack);
  std::deque<RevokeAck> revoke_ack_queue_;
  std::condition_variable revoke_ack_cv_;
  bool revoke_ack_stop_ = false;
  /// Started at the first ack (guarded by lock_cache_mu_), so a client
  /// that is never revoked never runs it.
  std::thread revoke_ack_worker_;

  ClientStats stats_;
};

}  // namespace iw::client
