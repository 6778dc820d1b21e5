// Client-side segment heap: subsegments, blocks, and metadata trees.
//
// A cached segment need not be contiguous in the client's address space; it
// is a chain of page-aligned *subsegments* (mmap regions, any integral
// number of pages), each holding block headers + data and free space. This
// mirrors Figure 2 of the paper:
//
//   * per segment:  blk_number_tree, blk_name_tree, free list, subseg chain
//   * per subsegment: pagemap (twin pointers) and blk_addr_tree
//   * per client:   subseg_addr_tree (all segments, sorted by address)
//
// Any given page contains data from only one segment, which is what makes
// page-fault write tracking attribute faults correctly.
//
// The FaultRegistry is the process-global, async-signal-safe table the
// SIGSEGV handler uses to map a faulting address to its subsegment.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "types/type_desc.hpp"
#include "util/avl_tree.hpp"
#include "util/seqlock.hpp"

namespace iw::client {

inline constexpr size_t kPageSize = 4096;
/// Default subsegment size when a block fits (larger blocks get their own).
inline constexpr size_t kDefaultSubsegmentBytes = 64 * 1024;

class ClientSegment;  // defined in client.hpp
struct Subsegment;

/// Header preceding every block's data in heap memory. `data()` is aligned
/// to 16 bytes, enough for any primitive on any modelled platform.
struct BlockHeader {
  uint32_t magic = kMagic;
  uint32_t serial = 0;
  uint32_t data_size = 0;
  uint32_t token_base = 0;   ///< PointerTokens range start; 0 = none yet
  uint64_t chunk_bytes = 0;  ///< total heap chunk size incl header+footer
  bool created_this_cs = false;  ///< allocated under the current write lock

  /// Per-block no-diff mode (paper §3.3): a block repeatedly modified
  /// almost entirely is transmitted whole, skipping twins and diffing.
  bool block_no_diff = false;
  uint8_t nodiff_streak = 0;   ///< consecutive mostly-modified sections
  uint8_t nodiff_probe = 0;    ///< whole-block sections left until re-probe
  const TypeDescriptor* type = nullptr;
  Subsegment* subseg = nullptr;
  const std::string* name = nullptr;  ///< owned by the segment's name arena

  AvlHook number_hook;
  AvlHook name_hook;
  AvlHook addr_hook;

  static constexpr uint32_t kMagic = 0x49574231;  // "IWB1"
  static constexpr size_t kHeaderBytes = 160;     // data() offset; asserted

  uint8_t* data() noexcept {
    return reinterpret_cast<uint8_t*>(this) + kHeaderBytes;
  }
  const uint8_t* data() const noexcept {
    return reinterpret_cast<const uint8_t*>(this) + kHeaderBytes;
  }
  static BlockHeader* from_data(void* p) noexcept {
    return reinterpret_cast<BlockHeader*>(static_cast<uint8_t*>(p) -
                                          kHeaderBytes);
  }
};
static_assert(sizeof(BlockHeader) <= BlockHeader::kHeaderBytes);
static_assert(BlockHeader::kHeaderBytes % 16 == 0);

/// Free-space chunk threaded through heap memory. Every chunk — free or
/// allocated — also carries an 8-byte *footer* (its size, with bit 0 set
/// when free) so release() can coalesce with both neighbours in O(1), the
/// classic boundary-tag scheme (the paper's block/free-space footers).
struct FreeChunk {
  uint64_t magic = 0;  // kFreeMagic
  uint64_t size = 0;   // total bytes including header and footer
  FreeChunk* next = nullptr;
  FreeChunk* prev = nullptr;

  static constexpr uint64_t kFreeMagic = 0x49574652'45455F5FULL;  // IWFREE__
};
inline constexpr size_t kChunkFooterBytes = 16;  // 8 used, 16 kept for align
inline constexpr size_t kMinChunkBytes =
    sizeof(FreeChunk) + kChunkFooterBytes;

struct BlockAddrOf {
  uintptr_t operator()(const BlockHeader& b) const {
    return reinterpret_cast<uintptr_t>(&b);
  }
};
using BlockAddrTree = AvlTree<BlockHeader, &BlockHeader::addr_hook, BlockAddrOf>;

/// One contiguous page-aligned piece of a segment's local copy.
struct Subsegment {
  ClientSegment* segment = nullptr;
  uint8_t* base = nullptr;
  size_t bytes = 0;  // page multiple
  Subsegment* next = nullptr;

  /// Pagemap: twin pointer per page; written by the SIGSEGV handler.
  std::vector<uint8_t*> twins;
  /// Set by the handler so diff collection can skip clean subsegments.
  std::atomic<bool> any_twin{false};

  AvlHook addr_hook;  // in the client-global subseg_addr_tree
  BlockAddrTree blocks_by_addr;

  size_t page_count() const noexcept { return bytes / kPageSize; }
  bool contains(const void* p) const noexcept {
    auto a = reinterpret_cast<uintptr_t>(p);
    auto b = reinterpret_cast<uintptr_t>(base);
    return a >= b && a < b + bytes;
  }
};

struct SubsegAddrOf {
  uintptr_t operator()(const Subsegment& s) const {
    return reinterpret_cast<uintptr_t>(s.base);
  }
};
using SubsegAddrTree = AvlTree<Subsegment, &Subsegment::addr_hook, SubsegAddrOf>;

/// Process-global table mapping address ranges to subsegments, readable
/// from the SIGSEGV handler (seqlock + fixed-capacity storage: no
/// allocation, no locks on the read side).
class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// Registers/unregisters a subsegment's range. Normal-context only;
  /// writers on different threads (two clients mapping or unmapping) are
  /// serialized by a mutex that find() never takes.
  void add(Subsegment* subseg);
  void remove(Subsegment* subseg);

  /// Async-signal-safe: the subsegment spanning `addr`, or nullptr.
  Subsegment* find(const void* addr) const noexcept;

  /// Installs the process SIGSEGV handler (idempotent).
  static void ensure_handler_installed();

 private:
  FaultRegistry() = default;

  // Everything find() reads under the seqlock is a relaxed atomic: a read
  // that overlaps a writer is retried, but it must not be a data race.
  struct Range {
    std::atomic<uintptr_t> begin{0};
    std::atomic<uintptr_t> end{0};
    std::atomic<Subsegment*> subseg{nullptr};
  };
  static constexpr size_t kCapacity = 1 << 14;

  /// ranges_[to] = ranges_[from]. Caller holds writer_mu_.
  void copy_range(size_t to, size_t from) noexcept;

  std::mutex writer_mu_;
  mutable SeqLock seq_;
  std::atomic<size_t> count_{0};
  Range ranges_[kCapacity];  // sorted by begin
};

/// Tokens for emulated pointer fields. On a platform whose pointers are not
/// this process's (sparc32's 4-byte fields, say), a pointer field holds a
/// token instead of an address. Tokens are block-relative: the first time a
/// pointer into a block is stored, the block takes the next `data_size`
/// tokens, and a pointer to byte b of its data is `token_base + b`. Ranges
/// are handed out in ascending order, so the table stays sorted by
/// appending and a token resolves by binary search. Token 0 is null. A
/// reclaimed block's range is retired, never reused: a token into it reads
/// as dangling.
class PointerTokens {
 public:
  /// Token for byte `offset` of `block`'s data; gives the block its range
  /// on first use. Throws Error(kState) once 2^32 tokens are spent.
  uint32_t token_of(BlockHeader* block, uint32_t offset);
  /// The live block whose range holds nonzero `token`, with the byte
  /// offset into its data in `*offset`; nullptr when that block is gone.
  BlockHeader* resolve(uint32_t token, uint32_t* offset) const;
  /// Retires `block`'s range, if it has one.
  void retire(BlockHeader* block);

 private:
  struct Range {
    uint32_t base;
    BlockHeader* block;  ///< nullptr once retired
  };
  std::vector<Range> ranges_;  // ascending base
  uint64_t next_ = 1;
  size_t retired_ = 0;
};

/// Per-segment heap: allocation of typed blocks inside subsegments.
class SegmentHeap {
 public:
  /// `tokens` (the client's) has the ranges of reclaimed blocks retired.
  SegmentHeap(ClientSegment* segment, PointerTokens* tokens)
      : segment_(segment), tokens_(tokens) {}
  ~SegmentHeap();

  SegmentHeap(const SegmentHeap&) = delete;
  SegmentHeap& operator=(const SegmentHeap&) = delete;

  /// Allocates a block of `type` with the given serial and optional name.
  /// New subsegments are created as needed. Returns the header.
  BlockHeader* allocate(const TypeDescriptor* type, uint32_t serial,
                        const std::string* name);

  /// Frees a block's storage and removes it from the trees.
  void release(BlockHeader* block);

  /// Removes a block from all metadata trees without reclaiming its
  /// storage (deferred frees inside transactions).
  void unlink(BlockHeader* block);
  /// Reinserts a previously unlinked block (transaction abort).
  void relink(BlockHeader* block);
  /// Reclaims the storage of an unlinked block (transaction commit).
  void reclaim(BlockHeader* block);

  BlockHeader* find_by_serial(uint32_t serial) const;
  BlockHeader* find_by_name(const std::string& name) const;
  /// Block whose [data, data+size) contains `addr`; nullptr otherwise.
  BlockHeader* find_by_address(const void* addr) const;

  Subsegment* first_subsegment() const noexcept { return first_; }
  uint64_t block_count() const noexcept { return by_serial_.size(); }
  uint64_t total_prim_units() const noexcept { return total_units_; }

  /// In-serial-order iteration.
  template <typename F>
  void for_each_block(F&& fn) const {
    for (BlockHeader* b = by_serial_.first(); b != nullptr;
         b = by_serial_.next(*b)) {
      fn(b);
    }
  }

  /// Smallest-serial block (nullptr when empty) / successor, used by diff
  /// application sweeps.
  BlockHeader* first_block() const { return by_serial_.first(); }
  BlockHeader* next_block(BlockHeader* b) const { return by_serial_.next(*b); }

  /// Number of chunks on the free list (tests/diagnostics).
  size_t free_chunk_count() const noexcept;

  /// Walks every subsegment wall-to-wall validating boundary tags: chunks
  /// must tile each subsegment exactly, free chunks must be on the free
  /// list with matching footers, allocated chunks must carry live block
  /// headers. Throws Error(kInternal) on any violation. Test/debug aid.
  void check_heap() const;

 private:
  Subsegment* new_subsegment(size_t min_bytes);
  FreeChunk* add_free_chunk(uint8_t* at, uint64_t size);
  void remove_free_chunk(FreeChunk* chunk);
  static void write_footer(uint8_t* chunk_start, uint64_t size, bool is_free);

  struct SerialOf {
    uint32_t operator()(const BlockHeader& b) const { return b.serial; }
  };
  struct NameOf {
    const std::string& operator()(const BlockHeader& b) const {
      return *b.name;
    }
  };

  ClientSegment* segment_;
  PointerTokens* tokens_;
  Subsegment* first_ = nullptr;
  Subsegment* last_ = nullptr;
  FreeChunk* free_head_ = nullptr;
  uint64_t total_units_ = 0;
  AvlTree<BlockHeader, &BlockHeader::number_hook, SerialOf> by_serial_;
  AvlTree<BlockHeader, &BlockHeader::name_hook, NameOf> by_name_;
  std::vector<std::unique_ptr<Subsegment>> owned_;
};

}  // namespace iw::client
