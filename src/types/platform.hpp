// Machine-architecture models ("platforms") and layout rules.
//
// The paper runs InterWeave across Alpha, Sparc, x86 and MIPS. This repo
// runs on one host, so heterogeneity is *simulated at the data level*: each
// client is bound to a Platform describing the byte order, primitive sizes
// and alignments of the architecture it pretends to be. The local copy of a
// segment is laid out and byte-ordered per that platform, so every
// translation, alignment-compensation and byte-swap path in the library is
// exercised exactly as it would be on real heterogeneous hardware.
//
// LayoutRules is the lower-level knob set shared by clients (platform
// layout) and the server (packed canonical layout, see server/).
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace iw {

/// The primitive data units of the paper: offsets inside blocks are counted
/// in these, never in bytes, which is what makes MIPs machine-independent.
enum class PrimitiveKind : uint8_t {
  kChar = 0,     ///< 1-byte character / int8
  kInt16 = 1,    ///< 16-bit signed integer
  kInt32 = 2,    ///< 32-bit signed integer
  kInt64 = 3,    ///< 64-bit signed integer
  kFloat32 = 4,  ///< IEEE-754 single
  kFloat64 = 5,  ///< IEEE-754 double
  kPointer = 6,  ///< machine pointer locally; tagged MIP unit on the wire
  kString = 7,   ///< fixed-capacity char array locally; variable on the wire
};
inline constexpr int kNumPrimitiveKinds = 8;

/// Name for diagnostics ("int32", "pointer", ...).
const char* primitive_kind_name(PrimitiveKind kind) noexcept;

/// Canonical (wire) byte size of one unit of `kind`. Pointer and string are
/// variable-length on the wire; this returns their *placeholder* cost used
/// for diff-length bookkeeping (they are length-prefixed separately).
constexpr uint32_t wire_size_of(PrimitiveKind kind) noexcept {
  // char, int16, int32, int64, float32, float64, then the placeholder
  // (slot) cost of pointer and string.
  constexpr uint8_t kSizes[kNumPrimitiveKinds] = {1, 2, 4, 8, 4, 8, 4, 4};
  return kSizes[static_cast<int>(kind)];
}

enum class ByteOrder : uint8_t { kLittle = 0, kBig = 1 };

/// Concrete layout knobs: how big and how aligned each primitive is in a
/// given memory representation, and how that representation orders bytes.
struct LayoutRules {
  ByteOrder byte_order = ByteOrder::kLittle;
  std::array<uint8_t, kNumPrimitiveKinds> size{};   // bytes per unit
  std::array<uint8_t, kNumPrimitiveKinds> align{};  // alignment per unit
  /// Client platforms store a string<N> as an inline NUL-padded char[N];
  /// the server's packed canonical layout stores a 4-byte out-of-line slot
  /// id instead (paper §3.2: variable-size data kept separate).
  bool inline_strings = true;

  /// Bytes of a pointer field in packed canonical layout: `u32 serial |
  /// u32 unit`, big-endian (server/segment_store.cpp gives serial 0 its
  /// meaning).
  static constexpr uint8_t kPackedPointerBytes = 8;

  /// Packed canonical layout: wire sizes, alignment 1, big-endian. The
  /// server stores block data this way: strings as 4-byte slot ids into an
  /// out-of-line table (paper §3.2), pointers as inline (serial, unit)
  /// pairs of kPackedPointerBytes.
  static LayoutRules packed_canonical() noexcept;
};

/// A (possibly simulated) machine architecture a client runs on.
struct Platform {
  std::string name;
  LayoutRules rules;

  /// The actual host ABI (x86-64 Linux in this repo's evaluation).
  static Platform native();
  /// Synthetic 32-bit big-endian machine (Sparc-like).
  static Platform sparc32();
  /// Synthetic 64-bit big-endian machine with strict alignment (Alpha-ish
  /// byte order aside; used to exercise 8-byte pointer + BE conversion).
  static Platform big64();
  /// Synthetic 32-bit little-endian machine with 2-byte alignment for
  /// everything wider than a byte (packed-ish, m68k-flavoured).
  static Platform packed_le32();
};

}  // namespace iw
