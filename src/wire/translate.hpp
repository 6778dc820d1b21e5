// Translation between a local memory representation and wire format.
//
// This is the paper's Figure-3 machinery: given a block's type descriptor
// (instantiated for some LayoutRules) and a range of *primitive data units*,
// encode_units converts local bytes to canonical wire bytes and decode_units
// does the inverse. Numeric units are byte-order-converted; strings travel
// behind a varint length; pointers are swizzled to and from the pointer-unit
// wire form below through the caller-supplied hooks (the client library
// implements them with its segment metadata, the server with its inline
// (serial, unit) fields, tests with fakes).
//
// Both directions execute the type's compiled TranslationPlan (see
// types/translation_plan.hpp): a flattened run program cached per
// (descriptor, LayoutRules), binary-searched to the first requested unit and
// then run as straight-line copy/swap loops. When the plan proves the local
// layout byte-identical to wire format (§3.3 isomorphism), any unit range
// encodes or decodes as a single memcpy. This is what makes InterWeave
// competitive with rpcgen-generated marshaling (Fig. 4).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "types/registry.hpp"
#include "util/buffer.hpp"

namespace iw {

// --- pointer units (docs/PROTOCOL.md, "Pointer units") -----------------
//
// A MIP names `segment#block#unit` (§2.1). On the wire a pointer unit is
//
//   null   := v 0
//   intra  := v (serial << 2 | 1), v unit   a block of the diff's own segment
//   cross  := v 2, vs mip                   "url#block#unit" text, non-empty
//
// An intra-segment pointer always names its block by serial, even when the
// block has a name. Any other head value is an unknown tag.

enum class PointerTag : uint8_t { kNull = 0, kIntra = 1, kCross = 2 };

/// One decoded pointer unit; `mip` views the reader's bytes.
struct PointerUnit {
  PointerTag tag = PointerTag::kNull;
  uint32_t serial = 0;  ///< kIntra: the target block's serial (never 0)
  uint32_t unit = 0;    ///< kIntra: primitive unit inside the target block
  std::string_view mip; ///< kCross
};

inline void append_null_pointer(Buffer& out) { out.append_u8(0); }

inline void append_intra_pointer(Buffer& out, uint32_t serial,
                                 uint32_t unit) {
  constexpr size_t kMax = 2 * kMaxVarintBytes;
  uint8_t* p = out.extend(kMax);
  size_t n = encode_varint(uint64_t{serial} << 2 | 1, p);
  n += encode_varint(unit, p + n);
  out.truncate(out.size() - (kMax - n));
}

/// Appends the cross-segment tag; the caller appends the `vs` MIP.
inline void append_cross_pointer_tag(Buffer& out) { out.append_u8(2); }

/// The pointer unit whose head varint `head` was just read from `in`, for
/// every head but a well-formed intra-segment one (read_pointer_unit).
PointerUnit read_pointer_unit_rest(uint64_t head, BufReader& in);

/// Reads one pointer unit. Throws Error(kProtocol) on an unknown tag, a
/// serial of 0 or past 32 bits, a unit past 32 bits, an empty cross MIP, or
/// truncated input. Whether the serial and unit name a block of the segment
/// is the caller's check.
inline PointerUnit read_pointer_unit(BufReader& in) {
  const uint64_t head = in.read_varint64();
  if ((head & 3) == 1 && head > 1 && (head >> 2) <= UINT32_MAX) [[likely]] {
    const auto serial = static_cast<uint32_t>(head >> 2);
    return {PointerTag::kIntra, serial, in.read_varint32(), {}};
  }
  return read_pointer_unit_rest(head, in);
}

/// Callbacks that localize the representation-specific pieces of
/// translation: pointer swizzling and string storage.
class TranslationHooks {
 public:
  virtual ~TranslationHooks() = default;

  /// Reads the local pointer representation at `field` and appends its
  /// pointer unit to `out`.
  virtual void swizzle_out(const void* field, Buffer& out) = 0;

  /// Reads one pointer unit from `in` and stores the local pointer
  /// representation at `field`.
  virtual void swizzle_in(BufReader& in, void* field) = 0;

  /// Reads the string unit stored at `field`.
  virtual std::string_view read_string(const void* field,
                                       uint32_t capacity) = 0;

  /// Stores `content` into the string unit at `field` (truncating to the
  /// representation's capacity where applicable).
  virtual void write_string(void* field, uint32_t capacity,
                            std::string_view content) = 0;
};

/// Hooks for the client-side inline representation: a string unit is a
/// NUL-padded char[capacity] stored directly in the block. Pointer ops are
/// left abstract.
class InlineStringHooks : public TranslationHooks {
 public:
  std::string_view read_string(const void* field, uint32_t capacity) override;
  void write_string(void* field, uint32_t capacity,
                    std::string_view content) override;
};

/// Hooks that reject pointers and strings outright; usable for purely
/// numeric types (and as a guard in tests).
class NumericOnlyHooks : public TranslationHooks {
 public:
  void swizzle_out(const void*, Buffer&) override;
  void swizzle_in(BufReader&, void*) override;
  std::string_view read_string(const void*, uint32_t) override;
  void write_string(void*, uint32_t, std::string_view) override;
};

/// Encodes primitive units [begin, end) of the value at `base` (laid out per
/// `type`, which was instantiated against `rules`) into wire format.
void encode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  const void* base, uint64_t begin, uint64_t end,
                  TranslationHooks& hooks, Buffer& out);

/// Decodes primitive units [begin, end) from wire format into the value at
/// `base`. Consumes exactly the bytes encode_units produced for that range.
void decode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  void* base, uint64_t begin, uint64_t end,
                  TranslationHooks& hooks, BufReader& in);

/// Wire size of units [begin, end) of `type` when it holds no strings or
/// pointers, computed from the plan alone (no data is read); nullopt for
/// types whose wire size depends on their contents.
std::optional<uint64_t> fixed_wire_size(const TypeDescriptor& type,
                                        const LayoutRules& rules,
                                        uint64_t begin, uint64_t end);

/// Wire size in bytes that units [begin, end) of `type` would occupy, given
/// the actual current contents at `base` (strings/pointers are variable).
/// Fixed-size runs are measured arithmetically from the plan — no hook is
/// invoked for them, only strings/pointers are read.
uint64_t measure_units(const TypeDescriptor& type, const LayoutRules& rules,
                       const void* base, uint64_t begin, uint64_t end,
                       TranslationHooks& hooks);

}  // namespace iw
