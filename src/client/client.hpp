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

#include <atomic>
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

/// Client-side instrumentation. Phase timers separate word diffing from
/// wire-format translation (the two curves of Fig. 5).
struct ClientStats {
  uint64_t read_lock_server_calls = 0;
  uint64_t read_lock_local_hits = 0;  ///< satisfied without communication

  // Distributed lock caching (reader locks retained across release).
  uint64_t lock_cache_hits = 0;    ///< acquires satisfied by a cached lock
  uint64_t lock_cache_misses = 0;  ///< acquires that paid the RPC anyway
  uint64_t revokes_acked = 0;      ///< kRevokeRead callbacks honoured
  uint64_t sublet_grants = 0;      ///< extra local threads under one lock
  uint64_t updates_applied = 0;
  uint64_t diffs_collected = 0;
  uint64_t diffs_compressed = 0;  ///< releases whose diff section shrank
  uint64_t word_diff_ns = 0;
  uint64_t translate_ns = 0;
  uint64_t collect_ns = 0;
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
  uint64_t bytes_encoded = 0;
  uint64_t bytes_decoded = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t isomorphic_fast_path_blocks = 0;

  // Fault-tolerance counters, aggregated from the client's channels (the
  // reconnect supervisor maintains them; raw channels report zeros except
  // for TCP call deadlines).
  uint64_t reconnects = 0;
  uint64_t retried_calls = 0;
  uint64_t call_timeouts = 0;
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
  ClientSegment(Client* client, std::string url,
                std::shared_ptr<ClientChannel> channel)
      : client_(client), url_(std::move(url)), channel_(std::move(channel)),
        heap_(this) {}

  Client* client_;
  std::string url_;
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
    /// Subscribe to server version notifications (adaptive polling).
    bool subscribe_notifications = true;
    /// Wrap every channel in a ReconnectingChannel: transport failures tear
    /// the connection down, reconnect with backoff under a new session
    /// epoch, and re-send idempotent calls. Disable for tests that drive
    /// raw channels or assert exact failure propagation. The supervisor's
    /// kHello also makes the session a lock-caching one: read locks are
    /// retained across read_unlock and repeat acquires are served from the
    /// cache with zero RPCs, honouring server kRevokeRead callbacks.
    bool auto_reconnect = true;
    /// Backoff/retry tuning for the reconnect supervisor.
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
  /// some block). On non-native platforms pointers are table tokens; these
  /// helpers are how tests and simulated apps dereference them.
  void* read_pointer_field(const void* field) const;
  void write_pointer_field(void* field, void* addr);

  /// Snapshot of the client counters plus the registry's translation
  /// counters and the channels' fault counters (by value: the translation
  /// side is sampled from relaxed atomics at call time).
  ClientStats stats() const {
    std::lock_guard lock(mu_);
    ClientStats s = stats_;
    TranslationStats t = registry_.translation_stats();
    s.bytes_encoded = t.bytes_encoded;
    s.bytes_decoded = t.bytes_decoded;
    s.plan_cache_hits = t.plan_cache_hits;
    s.plan_cache_misses = t.plan_cache_misses;
    s.isomorphic_fast_path_blocks = t.isomorphic_fast_path_blocks;
    for (const auto& [host, channel] : channels_) {
      ChannelFaultStats f = channel->fault_stats();
      s.reconnects += f.reconnects;
      s.retried_calls += f.retried_calls;
      s.call_timeouts += f.call_timeouts;
    }
    s.lock_cache_hits = lock_cache_hits_.load(std::memory_order_relaxed);
    s.lock_cache_misses = lock_cache_misses_.load(std::memory_order_relaxed);
    s.revokes_acked = revokes_acked_.load(std::memory_order_relaxed);
    s.sublet_grants = sublet_grants_.load(std::memory_order_relaxed);
    return s;
  }
  void reset_stats() noexcept {
    stats_ = ClientStats{};
    registry_.reset_translation_stats();
    lock_cache_hits_.store(0, std::memory_order_relaxed);
    lock_cache_misses_.store(0, std::memory_order_relaxed);
    revokes_acked_.store(0, std::memory_order_relaxed);
    sublet_grants_.store(0, std::memory_order_relaxed);
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
  void ptr_to_mip_append_locked(const void* ptr, Buffer& out);
  BlockHeader* resolve_ptr_locked(const void* ptr);
  void* mip_to_ptr_locked(std::string_view mip);
  uint32_t latest_known_version(const std::string& url) const;
  void note_version(const std::string& url, uint32_t version);
  /// kRevokeRead arrived for `url`: surrender the cached lock immediately
  /// when no local reader holds it, else mark it for release (and ack) at
  /// critical-section exit. Runs on notification threads — must not take
  /// mu_ and must not issue RPCs itself; it enqueues the ack for
  /// revoke_ack_loop(). `ch` is the channel the ack goes out on.
  void handle_revoke(const std::string& url, uint32_t gen,
                     const std::weak_ptr<ClientChannel>& ch);
  /// Dedicated ack thread: sends kRevokeAck for each queued revoke,
  /// swallowing transport errors (a dead connection surrenders the cached
  /// lock via on_disconnect anyway). Acks are RPCs that can block, fail,
  /// and tear the channel down for reconnection — none of which may happen
  /// on a channel's own notification thread, so this worker owns them all.
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
  std::unordered_map<std::string, std::shared_ptr<ClientChannel>> channels_;
  std::unordered_map<std::string, std::unique_ptr<ClientSegment>> segments_;

  // Pointer-token table for non-native platforms.
  std::vector<void*> ptr_tokens_;
  std::unordered_map<const void*, uint32_t> token_by_ptr_;
  /// One-entry segment cache for MIP resolution (guarded by mu_; reset when
  /// segments are destroyed — they never are today).
  ClientSegment* mip_cache_seg_ = nullptr;
  /// One-entry block cache for ptr->MIP swizzling; invalidated whenever any
  /// block is released.
  BlockHeader* mip_cache_block_ = nullptr;

  // Latest segment versions learned from notifications/responses; guarded
  // by notify_mu_ only (the notify handler must not take mu_).
  mutable std::mutex notify_mu_;
  std::unordered_map<std::string, uint32_t> latest_versions_;

  /// One cached reader lock per segment URL.
  struct LockCacheEntry {
    bool cached = false;   ///< server granted and has not revoked/expired
    bool revoked = false;  ///< revoke received while readers are inside
    int active = 0;        ///< local readers currently inside under it
    uint32_t revoke_gen = 0;  ///< generation of the deferred revoke, echoed
                              ///< in the ack sent at critical-section exit
  };
  /// Leaf lock (after mu_ in the ordering; notify handlers take it alone).
  mutable std::mutex lock_cache_mu_;
  std::unordered_map<std::string, LockCacheEntry> lock_cache_;
  /// kRevokeRead notifications received per URL (guarded by
  /// lock_cache_mu_). read_lock compares it across its acquire RPC: a
  /// revoke that lands while the RPC is in flight finds no cache entry and
  /// is acked at once, so the grant in the response may already be retired
  /// server-side and must not be cached.
  std::unordered_map<std::string, uint64_t> revoke_seq_;
  /// Read locks are cached: set from auto_reconnect (see Options).
  bool lock_cache_enabled_ = false;
  // Lock-cache counters are atomics, not ClientStats fields: the revoke
  // path bumps them without mu_.
  std::atomic<uint64_t> lock_cache_hits_{0};
  std::atomic<uint64_t> lock_cache_misses_{0};
  std::atomic<uint64_t> revokes_acked_{0};
  std::atomic<uint64_t> sublet_grants_{0};
  /// Pending kRevokeAck sends, drained by revoke_ack_worker_. Guarded by
  /// lock_cache_mu_ (the enqueue sites already hold it). The shared_ptr
  /// keeps the channel alive until the ack lands; if the worker ends up
  /// holding the last reference, the channel is destroyed on the worker
  /// thread — never on its own notification thread.
  struct RevokeAck {
    std::string url;
    uint32_t gen = 0;  ///< server's revocation generation, echoed back
    std::shared_ptr<ClientChannel> channel;
  };
  std::deque<RevokeAck> revoke_ack_queue_;
  std::condition_variable revoke_ack_cv_;
  bool revoke_ack_stop_ = false;
  std::thread revoke_ack_worker_;

  ClientStats stats_;
};

}  // namespace iw::client
