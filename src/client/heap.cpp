#include "client/heap.hpp"

#include <signal.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>

#include "client/tracking.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace iw::client {

namespace {
size_t round_up(size_t v, size_t align) { return (v + align - 1) / align * align; }

// Pre-faulted: a fresh subsegment is about to be written whole (the
// allocator zeroes each block it carves, and a fetch then fills it), and
// one populating mmap costs less than a page fault per page.
void* map_pages(size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw_errno("mmap subsegment");
  return p;
}
}  // namespace

// ----------------------------------------------------------- FaultRegistry

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::copy_range(size_t to, size_t from) noexcept {
  constexpr auto relaxed = std::memory_order_relaxed;
  ranges_[to].begin.store(ranges_[from].begin.load(relaxed), relaxed);
  ranges_[to].end.store(ranges_[from].end.load(relaxed), relaxed);
  ranges_[to].subseg.store(ranges_[from].subseg.load(relaxed), relaxed);
}

void FaultRegistry::add(Subsegment* subseg) {
  constexpr auto relaxed = std::memory_order_relaxed;
  std::lock_guard lock(writer_mu_);
  const size_t count = count_.load(relaxed);
  check_internal(count < kCapacity, "fault registry full");
  auto begin = reinterpret_cast<uintptr_t>(subseg->base);
  // Insert keeping ranges_ sorted by begin.
  size_t pos = 0;
  while (pos < count && ranges_[pos].begin.load(relaxed) < begin) ++pos;
  seq_.write_begin();
  for (size_t i = count; i > pos; --i) copy_range(i, i - 1);
  ranges_[pos].begin.store(begin, relaxed);
  ranges_[pos].end.store(begin + subseg->bytes, relaxed);
  ranges_[pos].subseg.store(subseg, relaxed);
  count_.store(count + 1, relaxed);
  seq_.write_end();
}

void FaultRegistry::remove(Subsegment* subseg) {
  constexpr auto relaxed = std::memory_order_relaxed;
  std::lock_guard lock(writer_mu_);
  const size_t count = count_.load(relaxed);
  auto begin = reinterpret_cast<uintptr_t>(subseg->base);
  size_t pos = 0;
  while (pos < count && ranges_[pos].begin.load(relaxed) != begin) ++pos;
  if (pos == count) return;
  seq_.write_begin();
  for (size_t i = pos; i + 1 < count; ++i) copy_range(i, i + 1);
  count_.store(count - 1, relaxed);
  seq_.write_end();
}

Subsegment* FaultRegistry::find(const void* addr) const noexcept {
  constexpr auto relaxed = std::memory_order_relaxed;
  auto a = reinterpret_cast<uintptr_t>(addr);
  for (;;) {
    uint32_t s = seq_.read_begin();
    // Binary search over the sorted ranges (no allocation, no locking).
    size_t lo = 0, hi = count_.load(relaxed);
    Subsegment* result = nullptr;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (ranges_[mid].begin.load(relaxed) <= a) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > 0 && a < ranges_[lo - 1].end.load(relaxed)) {
      result = ranges_[lo - 1].subseg.load(relaxed);
    }
    if (!seq_.read_retry(s)) return result;
  }
}

void FaultRegistry::ensure_handler_installed() {
  static std::once_flag once;
  std::call_once(once, [] { install_sigsegv_handler(); });
}

// ----------------------------------------------------------- PointerTokens

uint32_t PointerTokens::token_of(BlockHeader* block, uint32_t offset) {
  if (block->token_base == 0) {
    const uint64_t size = std::max<uint32_t>(block->data_size, 1);
    if (next_ + size > UINT32_MAX) {
      throw Error(ErrorCode::kState, "emulated pointer tokens exhausted");
    }
    block->token_base = static_cast<uint32_t>(next_);
    ranges_.push_back({block->token_base, block});
    next_ += size;
  }
  return block->token_base + offset;
}

BlockHeader* PointerTokens::resolve(uint32_t token, uint32_t* offset) const {
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), token,
      [](uint32_t t, const Range& r) { return t < r.base; });
  if (it == ranges_.begin()) return nullptr;
  --it;
  if (it->block == nullptr || token - it->base >= it->block->data_size) {
    return nullptr;
  }
  *offset = token - it->base;
  return it->block;
}

void PointerTokens::retire(BlockHeader* block) {
  if (block->token_base == 0) return;
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), block->token_base,
      [](const Range& r, uint32_t base) { return r.base < base; });
  check_internal(it != ranges_.end() && it->block == block,
                 "pointer token range not found");
  it->block = nullptr;
  block->token_base = 0;
  // Drop retired entries once they are half the table; a token into a
  // dropped range then falls past the end of the live range before it.
  if (++retired_ * 2 > ranges_.size()) {
    std::erase_if(ranges_, [](const Range& r) { return r.block == nullptr; });
    retired_ = 0;
  }
}

// -------------------------------------------------------------- SegmentHeap

SegmentHeap::~SegmentHeap() {
  for_each_block([&](BlockHeader* b) { tokens_->retire(b); });
  for (auto& subseg : owned_) {
    FaultRegistry::instance().remove(subseg.get());
    drop_all_twins(*subseg);
    ::munmap(subseg->base, subseg->bytes);
  }
}

Subsegment* SegmentHeap::new_subsegment(size_t min_bytes) {
  size_t bytes = round_up(std::max(min_bytes, kDefaultSubsegmentBytes),
                          kPageSize);
  auto subseg = std::make_unique<Subsegment>();
  subseg->segment = segment_;
  subseg->base = static_cast<uint8_t*>(map_pages(bytes));
  subseg->bytes = bytes;
  subseg->twins.assign(bytes / kPageSize, nullptr);
  Subsegment* raw = subseg.get();
  owned_.push_back(std::move(subseg));

  if (last_ == nullptr) {
    first_ = last_ = raw;
  } else {
    last_->next = raw;
    last_ = raw;
  }
  FaultRegistry::instance().add(raw);
  add_free_chunk(raw->base, bytes);
  return raw;
}

void SegmentHeap::write_footer(uint8_t* chunk_start, uint64_t size,
                               bool is_free) {
  store_be64(chunk_start + size - 8, size | (is_free ? 1u : 0u));
}

FreeChunk* SegmentHeap::add_free_chunk(uint8_t* at, uint64_t size) {
  check_internal(size >= kMinChunkBytes && size % 16 == 0, "bad free chunk");
  auto* chunk = reinterpret_cast<FreeChunk*>(at);
  chunk->magic = FreeChunk::kFreeMagic;
  chunk->size = size;
  chunk->prev = nullptr;
  chunk->next = free_head_;
  if (free_head_ != nullptr) free_head_->prev = chunk;
  free_head_ = chunk;
  write_footer(at, size, /*is_free=*/true);
  return chunk;
}

void SegmentHeap::remove_free_chunk(FreeChunk* chunk) {
  if (chunk->prev != nullptr) {
    chunk->prev->next = chunk->next;
  } else {
    free_head_ = chunk->next;
  }
  if (chunk->next != nullptr) chunk->next->prev = chunk->prev;
  chunk->magic = 0;
}

size_t SegmentHeap::free_chunk_count() const noexcept {
  size_t count = 0;
  for (FreeChunk* c = free_head_; c != nullptr; c = c->next) ++count;
  return count;
}

BlockHeader* SegmentHeap::allocate(const TypeDescriptor* type, uint32_t serial,
                                   const std::string* name) {
  const uint64_t need = round_up(
      BlockHeader::kHeaderBytes + type->local_size() + kChunkFooterBytes, 16);

  // First-fit over the free list.
  uint8_t* at = nullptr;
  uint64_t granted = 0;
  for (FreeChunk* chunk = free_head_; chunk != nullptr; chunk = chunk->next) {
    if (chunk->size < need) continue;
    at = reinterpret_cast<uint8_t*>(chunk);
    uint64_t leftover = chunk->size - need;
    remove_free_chunk(chunk);
    if (leftover >= kMinChunkBytes) {
      granted = need;
      add_free_chunk(at + need, leftover);
    } else {
      // Absorb unusable slivers so boundary tags stay wall-to-wall.
      granted = chunk->size;
    }
    break;
  }
  if (at == nullptr) {
    new_subsegment(need);
    // The fresh chunk covering the new subsegment is at the head.
    FreeChunk* chunk = free_head_;
    check_internal(chunk != nullptr && chunk->size >= need,
                   "fresh subsegment too small");
    at = reinterpret_cast<uint8_t*>(chunk);
    uint64_t leftover = chunk->size - need;
    remove_free_chunk(chunk);
    if (leftover >= kMinChunkBytes) {
      granted = need;
      add_free_chunk(at + need, leftover);
    } else {
      granted = need + leftover;
    }
  }
  write_footer(at, granted, /*is_free=*/false);

  auto* block = new (at) BlockHeader();
  block->serial = serial;
  block->data_size = type->local_size();
  block->chunk_bytes = granted;
  block->type = type;
  block->name = name;
  block->subseg = FaultRegistry::instance().find(at);
  check_internal(block->subseg != nullptr, "block outside any subsegment");
  std::memset(block->data(), 0, block->data_size);

  if (!by_serial_.insert(*block)) {
    // Roll back: return the space.
    add_free_chunk(at, granted);
    throw Error(ErrorCode::kAlreadyExists,
                "block serial " + std::to_string(serial));
  }
  if (name != nullptr && !by_name_.insert(*block)) {
    by_serial_.erase(*block);
    add_free_chunk(at, granted);
    throw Error(ErrorCode::kAlreadyExists, "block name '" + *name + "'");
  }
  block->subseg->blocks_by_addr.insert(*block);
  total_units_ += type->prim_units();
  return block;
}

void SegmentHeap::unlink(BlockHeader* block) {
  check_internal(block->magic == BlockHeader::kMagic, "bad block magic");
  by_serial_.erase(*block);
  if (block->name != nullptr) by_name_.erase(*block);
  block->subseg->blocks_by_addr.erase(*block);
  total_units_ -= block->type->prim_units();
}

void SegmentHeap::relink(BlockHeader* block) {
  check_internal(block->magic == BlockHeader::kMagic, "bad block magic");
  check_internal(by_serial_.insert(*block), "relink: serial taken");
  if (block->name != nullptr) {
    check_internal(by_name_.insert(*block), "relink: name taken");
  }
  block->subseg->blocks_by_addr.insert(*block);
  total_units_ += block->type->prim_units();
}

void SegmentHeap::reclaim(BlockHeader* block) {
  tokens_->retire(block);
  Subsegment* subseg = block->subseg;
  auto* start = reinterpret_cast<uint8_t*>(block);
  uint64_t size = block->chunk_bytes;
  block->magic = 0;

  // Boundary-tag coalescing with both neighbours inside this subsegment.
  uint8_t* const seg_lo = subseg->base;
  uint8_t* const seg_hi = subseg->base + subseg->bytes;
  // Forward: is the next chunk a free chunk?
  uint8_t* next_start = start + size;
  if (next_start + kMinChunkBytes <= seg_hi) {
    auto* next = reinterpret_cast<FreeChunk*>(next_start);
    if (next->magic == FreeChunk::kFreeMagic) {
      remove_free_chunk(next);
      size += next->size;
    }
  }
  // Backward: does the previous chunk's footer mark it free?
  if (start - 8 >= seg_lo + 8) {
    uint64_t prev_tag = load_be64(start - 8);
    if (prev_tag & 1) {
      uint64_t prev_size = prev_tag & ~1ULL;
      uint8_t* prev_start = start - prev_size;
      if (prev_start >= seg_lo) {
        auto* prev = reinterpret_cast<FreeChunk*>(prev_start);
        check_internal(prev->magic == FreeChunk::kFreeMagic,
                       "corrupt boundary tag");
        remove_free_chunk(prev);
        start = prev_start;
        size += prev_size;
      }
    }
  }
  add_free_chunk(start, size);
}

void SegmentHeap::release(BlockHeader* block) {
  unlink(block);
  reclaim(block);
}

void SegmentHeap::check_heap() const {
  // Free-list membership count (and list-link sanity).
  size_t free_listed = 0;
  for (FreeChunk* c = free_head_; c != nullptr; c = c->next) {
    check_internal(c->magic == FreeChunk::kFreeMagic, "free list corrupt");
    check_internal(c->next == nullptr || c->next->prev == c,
                   "free list links broken");
    ++free_listed;
  }

  size_t free_walked = 0;
  size_t blocks_walked = 0;
  for (const Subsegment* s = first_; s != nullptr; s = s->next) {
    const uint8_t* p = s->base;
    const uint8_t* end = s->base + s->bytes;
    while (p < end) {
      uint64_t first_word;
      std::memcpy(&first_word, p, 8);
      uint64_t size;
      bool is_free;
      if (first_word == FreeChunk::kFreeMagic) {
        const auto* chunk = reinterpret_cast<const FreeChunk*>(p);
        size = chunk->size;
        is_free = true;
        ++free_walked;
      } else {
        const auto* block = reinterpret_cast<const BlockHeader*>(p);
        check_internal(block->magic == BlockHeader::kMagic,
                       "heap walk hit neither block nor free chunk");
        size = block->chunk_bytes;
        is_free = false;
        check_internal(by_serial_.find(block->serial) ==
                           const_cast<BlockHeader*>(block),
                       "walked block missing from serial tree");
        ++blocks_walked;
      }
      check_internal(size >= kMinChunkBytes && size % 16 == 0 &&
                         p + size <= end,
                     "chunk size corrupt");
      uint64_t tag = load_be64(p + size - 8);
      check_internal((tag & 1) == (is_free ? 1u : 0u), "footer flag wrong");
      check_internal((tag & ~1ULL) == size, "footer size wrong");
      p += size;
    }
    check_internal(p == end, "chunks do not tile the subsegment");
  }
  check_internal(free_walked == free_listed,
                 "free chunks in memory != free chunks on the list");
  check_internal(blocks_walked == by_serial_.size(),
                 "walked blocks != indexed blocks");
}

BlockHeader* SegmentHeap::find_by_serial(uint32_t serial) const {
  return by_serial_.find(serial);
}

BlockHeader* SegmentHeap::find_by_name(const std::string& name) const {
  return by_name_.find(name);
}

BlockHeader* SegmentHeap::find_by_address(const void* addr) const {
  Subsegment* subseg = FaultRegistry::instance().find(addr);
  if (subseg == nullptr || subseg->segment != segment_) return nullptr;
  BlockHeader* block = subseg->blocks_by_addr.floor(
      reinterpret_cast<uintptr_t>(addr));
  if (block == nullptr) return nullptr;
  const uint8_t* a = static_cast<const uint8_t*>(addr);
  if (a < block->data() || a >= block->data() + block->data_size) {
    return nullptr;
  }
  return block;
}

}  // namespace iw::client
