// Server-side segment storage — the paper's §3.2 data structures.
//
// The server keeps every segment's master copy *in wire format* (packed
// canonical layout): numeric units as canonical big-endian bytes, and each
// intra-segment pointer inline as a fixed-width (serial, unit) pair, so
// applying or collecting one is a copy. Strings and cross-segment MIPs are
// variable-length and live out-of-line in per-block slot tables (keeping
// them separate avoids data relocation — and is why server-side
// small-string handling is the costly case in §4.1).
//
// Change tracking is subblock-granular: every block carries one version
// number per 16 primitive data units. A client at version c receives, for
// each block newer than c, the full content of the subblocks newer than c.
//
// Blocks live in a serial-number AVL tree and on a version-ordered
// intrusive list (blk_version_list) segmented by Markers; markers also form
// a version AVL tree so "first change after version c" is O(log n).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "types/registry.hpp"
#include "util/avl_tree.hpp"
#include "util/counters.hpp"
#include "util/intrusive_list.hpp"
#include "wire/diff.hpp"

namespace iw::server {

/// Primitive data units per subblock (paper's value; gives the flat region
/// for change ratios 1–16 in Fig. 5).
inline constexpr uint32_t kSubblockUnits = 16;

/// Node in a segment's blk_version_list: either a block or a marker.
struct VersionNode {
  explicit VersionNode(bool marker) : is_marker(marker) {}
  bool is_marker;
  ListHook version_hook;
};

/// Version boundary in the blk_version_list: every block *after* a marker
/// with version v was (partially) modified at or after version v.
struct Marker : VersionNode {
  explicit Marker(uint32_t v) : VersionNode(true), version(v) {}
  uint32_t version;
  AvlHook tree_hook;
};

/// One block of a segment, stored in wire format.
struct SvrBlock : VersionNode {
  SvrBlock() : VersionNode(false) {}

  uint32_t serial = 0;
  std::string name;                      // optional symbolic name
  uint32_t type_serial = 0;              // segment-scoped type id
  const TypeDescriptor* type = nullptr;  // packed-canonical instantiation
  uint32_t created_version = 0;
  uint32_t version = 0;                  // last-modified segment version

  std::vector<uint8_t> data;             // fixed units, packed canonical
  /// Out-of-line values, numbered by the type's layout: string field n
  /// (in visit order) holds slot n, which every block has, and pointer
  /// field n slot string_units() + n, which a block grows into only when
  /// that field holds a cross-segment MIP.
  std::vector<std::string> vardata;
  std::vector<uint32_t> subblock_versions;

  AvlHook serial_hook;

  uint64_t prim_units() const noexcept { return type->prim_units(); }
  uint32_t subblock_count() const noexcept {
    return static_cast<uint32_t>(subblock_versions.size());
  }
};

/// A block freed at some version; stale clients must be told.
struct FreeRecord {
  uint32_t serial;
  uint32_t created_version;
  uint32_t freed_version;
};

/// Shared, immutable bytes: a diff or a wire section the cache hands out.
using SharedBytes = std::shared_ptr<const std::vector<uint8_t>>;

/// Cached wire diff between two segment versions (paper §3.3 diff caching),
/// with the wire section it is sent as, so each diff is compressed at most
/// once however many readers it serves.
struct CachedDiff {
  uint32_t from_version;
  uint32_t to_version;
  SharedBytes bytes;
  /// The wire section `bytes` are sent as: a whole kLz envelope (method
  /// byte, lengths, stream), or the lone kRaw method byte when compression
  /// does not pay and `bytes` follow it as they are. Null until the first
  /// reader needs it, unless a writer's commit brought it.
  SharedBytes section;

  size_t footprint() const noexcept {
    return bytes->size() + (section != nullptr ? section->size() : 0);
  }
};

/// Counters a SegmentStore accumulates (consumed by tests/benches), kept
/// as relaxed atomics so concurrent readers (stats scrapers, benches) never
/// make the mutation hot path take a lock.
#define IW_STORE_COUNTERS(X)                   \
  X(diffs_applied)                             \
  X(diffs_collected)                           \
  X(diff_cache_hits)                           \
  X(diff_cache_misses)                         \
  X(prediction_hits)                           \
  X(prediction_misses)                         \
  X(bytes_applied)                             \
  X(bytes_collected)                           \
  X(apply_ns)   /* time spent in apply_diff */ \
  X(collect_ns) /* time spent building diffs (cache hits free) */

/// Snapshot of the store counters, plus the plan-compiled translation
/// counters merged from the store's packed-canonical type registry (see
/// types/translation_plan.hpp).
struct StoreStats {
  IW_STORE_COUNTERS(IW_COUNTER_FIELD)
  IW_TRANSLATION_COUNTERS(IW_COUNTER_FIELD)
};

/// One segment's master copy plus all its metadata.
class SegmentStore {
 public:
  struct Options {
    bool enable_diff_cache = true;
  };

  SegmentStore(std::string name, Options options);
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  const std::string& name() const noexcept { return name_; }
  uint32_t version() const noexcept { return version_; }
  uint32_t next_block_serial() const noexcept { return next_block_serial_; }
  uint64_t block_count() const noexcept { return blocks_by_serial_.size(); }
  /// Approximate current wire size of the segment's data (for Diff
  /// coherence percentage tracking).
  uint64_t total_data_bytes() const noexcept { return total_data_bytes_; }
  /// Snapshot of the relaxed-atomic counters; safe without the owner's lock.
  StoreStats stats() const noexcept;

  /// Registers a type graph (encoded by TypeCodec) and returns its
  /// segment-scoped serial; identical graphs dedup to one serial.
  uint32_t register_type(std::span<const uint8_t> graph);

  uint32_t type_count() const noexcept {
    return static_cast<uint32_t>(types_.size());
  }
  /// Encoded graph for a type serial (1-based), for forwarding to clients.
  std::span<const uint8_t> type_graph(uint32_t serial) const;

  /// Diff-cache bounds: at most this many entries, and at most this many
  /// bytes of diffs and sections together, oldest evicted first. An entry
  /// larger than the byte bound is not kept at all.
  static constexpr size_t kDiffCacheEntries = 16;
  static constexpr size_t kDiffCacheBytes = size_t{16} << 20;

  /// Applies a client diff, advancing the segment one version. Returns the
  /// new version. Throws Error(kProtocol) on malformed input and
  /// Error(kState) when the diff's base version is not current.
  uint32_t apply_diff(std::span<const uint8_t> diff_bytes);

  /// As above for a diff the caller already owns (a commit it inflated):
  /// the cache keeps `diff` itself, not a copy, with `section` (see
  /// CachedDiff; may be null) as the wire section readers one version
  /// behind are sent.
  uint32_t apply_diff(SharedBytes diff, SharedBytes section);

  /// Builds (or reuses from cache) a diff bringing a client at
  /// `from_version` to the current version. Returns the bytes.
  SharedBytes collect_diff(uint32_t from_version);

  /// The wire section cached for the diff collect_diff(`from_version`)
  /// returns (see CachedDiff::section), or null.
  SharedBytes cached_section(uint32_t from_version) const;

  /// Records `section` for that same diff, if its entry is still cached.
  void cache_section(uint32_t from_version, SharedBytes section);

  /// Writes the history tables a WAL-tail sync needs to make its fold
  /// version-exact: the original created_version of every live block
  /// newer than `from_version`, and every free since `from_version` —
  /// including blocks created *and* freed inside the window, which the
  /// diff omits entirely. Without these a recovered server would misdate
  /// creations at the fold's landing version and suppress frees for
  /// clients whose cached version lies inside the folded window.
  void collect_fold_history(uint32_t from_version, Buffer& out) const;

  /// Applies one WAL-tail sync body: the tables written by
  /// collect_fold_history followed by a collect_diff(from_version) payload.
  /// Restores exact per-block creation dates and free history, then lands
  /// on `to_version` even when the window's only changes were create+free
  /// pairs (empty diff). Returns the new version.
  uint32_t apply_fold(uint32_t to_version, BufReader& in);

  /// Looks up a block; nullptr when absent.
  const SvrBlock* find_block(uint32_t serial) const;
  const SvrBlock* find_block_by_name(const std::string& name) const;

  /// Iterates blocks in serial order (directory for space reservation).
  template <typename F>
  void for_each_block(F&& fn) const {
    for (const SvrBlock* b = blocks_by_serial_.first(); b != nullptr;
         b = blocks_by_serial_.next(*b)) {
      fn(*b);
    }
  }

  // --- checkpoint support (the .iwseg snapshot) ---
  /// Serializes the full store state (not a diff) into `out`.
  void serialize(Buffer& out) const;
  /// Reconstructs a store from serialize() output.
  static std::unique_ptr<SegmentStore> deserialize(std::string name,
                                                   Options options,
                                                   BufReader& in);

 private:
  friend class ServerHooks;

  struct SerialOf {
    uint32_t operator()(const SvrBlock& b) const { return b.serial; }
  };
  struct MarkerVersionOf {
    uint32_t operator()(const Marker& m) const { return m.version; }
  };

  SvrBlock* create_block(uint32_t serial, uint32_t type_serial,
                         std::string name, uint32_t at_version);
  void destroy_block(SvrBlock* block, uint32_t at_version);
  /// destroy_block in two halves: unlink_block takes the block out of the
  /// segment, and release_block, once the diff freeing it is applied,
  /// drops its contents and pools it.
  void unlink_block(SvrBlock* block, uint32_t at_version);
  void release_block(SvrBlock* block);
  uint64_t block_bytes(const SvrBlock& block) const;
  void append_block_update(DiffWriter& writer, SvrBlock& block,
                           uint32_t from_version);
  void apply_entries(std::span<const uint8_t> diff_bytes);
  /// Fills new_blocks_ with the blocks `diff_bytes` creates.
  void scan_new_blocks(std::span<const uint8_t> diff_bytes);
  /// Checks the target of an intra-segment pointer before it is stored: a
  /// live block, or one the diff being applied creates (new_blocks_), must
  /// hold `unit`, and a serial this segment never allocated is kProtocol.
  /// A freed block's serial passes: a pointer may outlive its target
  /// (dangling). Returns the target's unit count, or 0 for a freed one.
  uint64_t check_pointer_target(uint32_t serial, uint32_t unit) const;
  /// Checks every pointer field of a block read from a checkpoint.
  void check_stored_pointers(const SvrBlock& block) const;
  void cache_insert(uint32_t from_version, uint32_t to_version,
                    SharedBytes bytes, SharedBytes section = nullptr);
  void cache_trim();

  std::string name_;
  Options options_;
  /// Starts at kEmptySegmentVersion, the empty segment. Every commit and
  /// fold lands at 2 or above (deserialize refuses anything else), so no
  /// block, subblock or free record is dated at or before 1, and
  /// collect_diff(0) and collect_diff(1) list the same entries; only their
  /// header base differs. So a version-0 fetch is sent the base-1 diff.
  uint32_t version_ = kEmptySegmentVersion;
  uint32_t next_block_serial_ = 1;
  uint64_t total_data_bytes_ = 0;

  TypeRegistry registry_{LayoutRules::packed_canonical()};
  std::vector<const TypeDescriptor*> types_;          // serial-1 -> type
  std::vector<std::vector<uint8_t>> type_graphs_;     // serial-1 -> encoding
  std::map<std::string, uint32_t> type_serial_by_key_;

  AvlTree<SvrBlock, &SvrBlock::serial_hook, SerialOf> blocks_by_serial_;
  IntrusiveList<VersionNode, &VersionNode::version_hook> version_list_;
  AvlTree<Marker, &Marker::tree_hook, MarkerVersionOf> markers_;
  std::deque<std::unique_ptr<Marker>> owned_markers_;
  std::deque<std::unique_ptr<SvrBlock>> owned_blocks_;
  std::vector<SvrBlock*> free_pool_;  // reusable destroyed blocks

  std::vector<FreeRecord> free_history_;

  /// One change apply_entries made to a block that existed before the
  /// diff, or the creation or unlinking of a block, so that a refused diff
  /// can be taken back (undo_entries, newest first). A new block's bytes
  /// need no undo: taking back its creation drops them.
  struct UndoStep {
    enum class Kind : uint8_t {
      kCreated,    ///< block created (and listed last)
      kUnlinked,   ///< block freed; `next` followed it in the version list
      kMoved,      ///< block moved to the list's back from before `next`
      kBytes,      ///< data bytes [at, at + len) were saved_[saved, +len)
      kSubblocks,  ///< subblock versions [at, at + len) were at saved_
      kVersion,    ///< block version was `at`
      kStrings,    ///< vardata slots [at, at + len) held the texts at saved
      kSlot,       ///< vardata slot `at` held the `len` bytes at saved
      kSlots,      ///< vardata had `at` slots
    };
    Kind kind;
    SvrBlock* block;
    VersionNode* next = nullptr;
    uint32_t at = 0;
    uint32_t len = 0;
    size_t saved = 0;
  };
  /// Save what a step overwrites into undo_saved_: block bytes [lo, hi),
  /// the texts of vardata slots [first, first + count), one slot's text.
  void save_bytes(SvrBlock* block, uint32_t lo, uint32_t hi);
  void save_strings(SvrBlock* block, uint32_t first, uint32_t count);
  void save_slot(SvrBlock* block, uint32_t slot);
  /// Takes back every step in undo_, newest first.
  void undo_entries();
  std::vector<UndoStep> undo_;
  /// What the steps saved: bytes, subblock versions, and texts (each a
  /// native u32 length, then its bytes).
  std::vector<uint8_t> undo_saved_;
  /// (serial, unit count) of each block the diff being applied creates,
  /// by serial.
  std::vector<std::pair<uint32_t, uint64_t>> new_blocks_;
  std::deque<CachedDiff> diff_cache_;
  size_t diff_cache_bytes_ = 0;  // sum of the entries' footprints

  struct AtomicStoreStats {
    IW_COUNTER_ATOMICS(IW_STORE_COUNTERS)
  };
  AtomicStoreStats stats_;
};

}  // namespace iw::server
