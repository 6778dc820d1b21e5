// Growable byte buffer and cursor used throughout the wire-format layer.
//
// Buffer is an append-oriented byte vector with primitive-typed append
// helpers in canonical (big-endian) order. BufReader is a bounds-checked
// cursor over immutable bytes; it throws Error(kProtocol) on overrun, which
// is the right behaviour when the bytes came off the network.
//
// Besides fixed-width integers both speak LEB128 varints: 7 value bits per
// byte, least significant group first, high bit set on every byte but the
// last. Small numbers — versions, serials, unit offsets, lengths — are the
// common case on the wire, and a varint spends one byte on each below 128.
// `vstring` is a byte string behind a varint length.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/endian.hpp"
#include "util/error.hpp"

namespace iw {

/// Most bytes a varint of a 64-bit value takes (10 x 7 >= 64).
inline constexpr size_t kMaxVarintBytes = 10;

/// Bytes the LEB128 encoding of `v` takes.
constexpr size_t varint_size(uint64_t v) noexcept {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Writes the LEB128 encoding of `v` to `out` (at least varint_size(v)
/// bytes of room) and returns the number of bytes written.
inline size_t encode_varint(uint64_t v, uint8_t* out) noexcept {
  size_t n = 0;
  for (; v >= 0x80; v >>= 7) out[n++] = static_cast<uint8_t>(v | 0x80);
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

/// One contiguous piece of an iovec-style scatter/gather chain. Borrowed:
/// the bytes must stay alive while the slice is in use.
struct IoSlice {
  const void* data = nullptr;
  size_t len = 0;
};

/// Append-oriented byte buffer used to build wire-format messages.
///
/// The bytes live in a vector that is grown ahead of use: `size_` counts the
/// bytes written, and the vector's own size is the room already made, so an
/// append that fits is a bounds check and a copy (wire encoders append a few
/// bytes at a time, and a vector insert per append cost more than the
/// encoding itself).
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t reserve) { bytes_.reserve(reserve); }
  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  // A moved-from Buffer is empty: its size must not outlive its storage.
  Buffer(Buffer&& other) noexcept
      : bytes_(std::move(other.bytes_)), size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    bytes_ = std::move(other.bytes_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  const uint8_t* data() const noexcept { return bytes_.data(); }
  uint8_t* data() noexcept { return bytes_.data(); }
  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  void clear() noexcept { size_ = 0; }
  void reserve(size_t n) { bytes_.reserve(n); }

  std::span<const uint8_t> span() const noexcept {
    return {bytes_.data(), size_};
  }

  /// Appends raw bytes verbatim.
  void append(const void* p, size_t n) {
    if (n > kGrowChunk && bytes_.size() - size_ < n) [[unlikely]] {
      return append_large(p, n);
    }
    if (n != 0) std::memcpy(extend(n), p, n);
  }
  void append(std::span<const uint8_t> s) { append(s.data(), s.size()); }

  void append_u8(uint8_t v) { *extend(1) = v; }
  void append_u16(uint16_t v) { store_be16(extend(2), v); }
  void append_u32(uint32_t v) { store_be32(extend(4), v); }
  void append_u64(uint64_t v) { store_be64(extend(8), v); }
  void append_i32(int32_t v) { append_u32(static_cast<uint32_t>(v)); }
  void append_i64(int64_t v) { append_u64(static_cast<uint64_t>(v)); }
  void append_f32(float v) { store_be_float(extend(4), v); }
  void append_f64(double v) { store_be_double(extend(8), v); }

  /// Appends a length-prefixed (u32) byte string.
  void append_lp_string(std::string_view s) {
    append_u32(static_cast<uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  /// Appends `v` as a LEB128 varint.
  void append_varint(uint64_t v) {
    uint8_t* p = extend(kMaxVarintBytes);
    size_ -= kMaxVarintBytes - encode_varint(v, p);
  }

  /// Appends a varint-length-prefixed byte string.
  void append_vstring(std::string_view s) {
    uint8_t* p = extend(varint_size(s.size()) + s.size());
    p += encode_varint(s.size(), p);
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
  }

  /// Reserves `width` bytes for a varint whose value is known only later,
  /// and returns their offset; fill them with patch_varint.
  size_t append_varint_placeholder(size_t width = 1) {
    size_t off = size_;
    std::memset(extend(width), 0, width);
    return off;
  }

  /// Stores `v` as a varint in the `width` bytes reserved at `offset`. When
  /// its encoding takes another number of bytes, everything after the
  /// placeholder moves to fit, so offsets taken past `offset` are stale
  /// afterwards; a writer that guesses the width right moves nothing.
  void patch_varint(size_t offset, size_t width, uint64_t v) {
    check_internal(offset + width <= size_, "patch_varint out of range");
    const size_t n = varint_size(v);
    if (n != width) {
      const size_t tail = size_ - offset - width;
      if (n > width) extend(n - width);
      else size_ -= width - n;
      std::memmove(bytes_.data() + offset + n,
                   bytes_.data() + offset + width, tail);
    }
    encode_varint(v, bytes_.data() + offset);
  }

  /// Grows by `n` bytes and returns a pointer to the new region, whose
  /// contents are unspecified (bulk writers fill it directly, avoiding
  /// per-element size checks).
  uint8_t* extend(size_t n) {
    if (bytes_.size() - size_ < n) [[unlikely]] grow(n);
    uint8_t* p = bytes_.data() + size_;
    size_ += n;
    return p;
  }

  /// Shrinks the buffer back to `n` bytes, keeping capacity. Lets a writer
  /// that appended a trial encoding (say, a compressed section that did not
  /// pay) discard it without reallocating.
  void truncate(size_t n) {
    check_internal(n <= size_, "truncate past end");
    size_ = n;
  }

  std::vector<uint8_t> take() noexcept {
    bytes_.resize(size_);
    size_ = 0;
    return std::move(bytes_);
  }

  /// Replaces the buffer's storage with `storage`, keeping its capacity.
  /// Pairs with take(): a transport that moved the bytes out can hand the
  /// (now otherwise dead) allocation back for the caller to reuse.
  void adopt(std::vector<uint8_t> storage) noexcept {
    bytes_ = std::move(storage);
    size_ = bytes_.size();
  }

  /// Whole-buffer view for scatter/gather I/O.
  IoSlice slice() const noexcept { return {bytes_.data(), size_}; }

 private:
  // Out of line so that the fitting paths inline. Room is made at most
  // kGrowChunk bytes past what is asked for, so zeroing new room costs
  // about what filling it does; capacity still doubles.
  static constexpr size_t kGrowChunk = 4096;
  [[gnu::noinline]] void grow(size_t n) {
    const size_t need = size_ + n;
    if (bytes_.capacity() < need) {
      bytes_.reserve(std::max(need, 2 * bytes_.capacity()));
    }
    bytes_.resize(std::min(bytes_.capacity(), need + kGrowChunk));
  }
  // A large append that does not fit copies straight into the grown
  // storage rather than zeroing room it is about to overwrite.
  [[gnu::noinline]] void append_large(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes_.resize(size_);
    bytes_.insert(bytes_.end(), b, b + n);
    size_ = bytes_.size();
  }

  std::vector<uint8_t> bytes_;  // bytes_.size() >= size_: room made so far
  size_t size_ = 0;
};

/// A fixed-capacity chain of borrowed byte ranges — the iovec view the
/// transports use to send a frame header and its payload in one vectored
/// syscall without gluing them into a fresh allocation.
class IoChain {
 public:
  static constexpr size_t kMaxSlices = 4;

  void add(const void* p, size_t n) {
    if (n == 0) return;
    check_internal(count_ < kMaxSlices, "IoChain overflow");
    slices_[count_++] = {p, n};
    total_ += n;
  }
  void add(const Buffer& buffer) { add(buffer.data(), buffer.size()); }
  void add(IoSlice s) { add(s.data, s.len); }

  const IoSlice* slices() const noexcept { return slices_; }
  size_t count() const noexcept { return count_; }
  size_t total_bytes() const noexcept { return total_; }

 private:
  IoSlice slices_[kMaxSlices] = {};
  size_t count_ = 0;
  size_t total_ = 0;
};

/// Bounds-checked forward cursor over immutable bytes (typically a message
/// received from the network). Overruns throw Error(kProtocol).
class BufReader {
 public:
  BufReader(const void* p, size_t n)
      : p_(static_cast<const uint8_t*>(p)), end_(p_ + n) {}
  explicit BufReader(std::span<const uint8_t> s) : BufReader(s.data(), s.size()) {}

  size_t remaining() const noexcept { return static_cast<size_t>(end_ - p_); }
  bool at_end() const noexcept { return p_ == end_; }
  const uint8_t* cursor() const noexcept { return p_; }

  uint8_t read_u8() { return *take(1); }
  uint16_t read_u16() { return load_be16(take(2)); }
  uint32_t read_u32() { return load_be32(take(4)); }
  uint64_t read_u64() { return load_be64(take(8)); }
  int32_t read_i32() { return static_cast<int32_t>(read_u32()); }
  int64_t read_i64() { return static_cast<int64_t>(read_u64()); }
  float read_f32() { return load_be_float(take(4)); }
  double read_f64() { return load_be_double(take(8)); }

  /// Reads a varint that must fit in 32 bits. Throws Error(kProtocol) when
  /// the input ends inside it, or when it is overlong: more than 5 bytes,
  /// a value past 32 bits, or a redundant zero-valued last byte.
  uint32_t read_varint32() {
    if (p_ != end_ && *p_ < 0x80) [[likely]] return *p_++;  // one byte
    if (uint32_t v; read_two_byte_varint(&v)) return v;
    return static_cast<uint32_t>(read_varint(5, UINT32_MAX));
  }

  /// Reads a varint of up to 64 bits (at most 10 bytes); errors as for
  /// read_varint32.
  uint64_t read_varint64() {
    if (p_ != end_ && *p_ < 0x80) [[likely]] return *p_++;  // one byte
    if (uint32_t v; read_two_byte_varint(&v)) return v;
    return read_varint(kMaxVarintBytes, UINT64_MAX);
  }

  /// Reads a varint-length-prefixed byte string as a view into the
  /// underlying storage (same lifetime rule as read_lp_view).
  std::string_view read_vstring_view() {
    auto s = read_bytes(read_varint32());
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// Reads a varint-length-prefixed byte string as a std::string.
  std::string read_vstring() { return std::string(read_vstring_view()); }

  /// Reads `n` raw bytes, returning a view into the underlying storage.
  std::span<const uint8_t> read_bytes(size_t n) {
    return {take(n), n};
  }

  /// Reads a u32-length-prefixed byte string as a std::string.
  std::string read_lp_string() {
    return std::string(read_lp_view());
  }

  /// Reads a u32-length-prefixed byte string as a view into the underlying
  /// storage — no allocation. The view is only valid while the buffer the
  /// reader was constructed over stays alive and unmodified.
  std::string_view read_lp_view() {
    uint32_t n = read_u32();
    auto s = read_bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// Skips `n` bytes.
  void skip(size_t n) { take(n); }

 private:
  // The inline two-byte case of the readers above, once the first byte is
  // known to continue: a second byte of 1..127 ends the varint (0 would be
  // a redundant, overlong last byte).
  bool read_two_byte_varint(uint32_t* v) {
    if (end_ - p_ < 2 || p_[1] == 0 || p_[1] >= 0x80) return false;
    *v = (p_[0] & 0x7Fu) | uint32_t{p_[1]} << 7;
    p_ += 2;
    return true;
  }

  // Out of line so that the readers' short paths inline.
  [[gnu::noinline]] uint64_t read_varint(size_t max_bytes,
                                         uint64_t max_value) {
    uint64_t v = 0;
    for (size_t i = 0;; ++i) {
      if (p_ == end_) throw Error(ErrorCode::kProtocol, "varint truncated");
      if (i == max_bytes) throw Error(ErrorCode::kProtocol, "varint overlong");
      const uint64_t group = *p_ & 0x7F;
      const bool more = (*p_++ & 0x80) != 0;
      // The last group a 64-bit value can use holds one bit.
      if (i == kMaxVarintBytes - 1 && group > 1) {
        throw Error(ErrorCode::kProtocol, "varint overlong");
      }
      v |= group << (7 * i);
      if (more) continue;
      if ((group == 0 && i > 0) || v > max_value) {
        throw Error(ErrorCode::kProtocol, "varint overlong");
      }
      return v;
    }
  }

  const uint8_t* take(size_t n) {
    if (remaining() < n) {
      throw Error(ErrorCode::kProtocol, "message truncated");
    }
    const uint8_t* p = p_;
    p_ += n;
    return p;
  }

  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace iw
