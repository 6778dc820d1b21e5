// Translation between a local memory representation and wire format.
//
// This is the paper's Figure-3 machinery: given a block's type descriptor
// (instantiated for some LayoutRules) and a range of *primitive data units*,
// encode_units converts local bytes to canonical wire bytes and decode_units
// does the inverse. Numeric units are byte-order-converted; strings travel
// behind a varint length; pointers are swizzled to and from the pointer-unit
// wire form below through the caller-supplied hooks (the client library
// implements them with its segment metadata, the server with its inline
// (serial, unit) fields, tests with fakes). The server's out-of-line
// strings go through the hooks too; a client's inline strings do not.
//
// Both directions execute the type's compiled TranslationPlan (see
// types/translation_plan.hpp): a flattened run program cached per
// (descriptor, LayoutRules), binary-searched to the first requested unit and
// then run as straight-line copy/swap loops. An array of aggregate elements
// runs as one element loop, strings and pointers included: each element's
// output is reserved once from the plan's bound, and each string or
// pointer unit is handed to the hooks with its position from the plan.
// When the plan proves the local layout byte-identical to wire format
// (§3.3 isomorphism), any unit range encodes or decodes as a single memcpy.
// This is what makes InterWeave competitive with rpcgen-generated
// marshaling (Fig. 4).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "types/registry.hpp"
#include "types/translation_plan.hpp"
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

/// Writes an intra-segment pointer unit at `dst`, which has room for
/// kMaxIntraPointerBytes (types/translation_plan.hpp); returns its end.
inline uint8_t* put_intra_pointer(uint8_t* dst, uint32_t serial,
                                  uint32_t unit) noexcept {
  dst += encode_varint(uint64_t{serial} << 2 | 1, dst);
  return dst + encode_varint(unit, dst);
}

inline void append_intra_pointer(Buffer& out, uint32_t serial,
                                 uint32_t unit) {
  uint8_t* p = out.extend(kMaxIntraPointerBytes);
  out.truncate(out.size() - kMaxIntraPointerBytes +
               static_cast<size_t>(put_intra_pointer(p, serial, unit) - p));
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
/// translation: pointer swizzling and out-of-line string storage. The
/// translator owns the wire form of both; a hook only maps a unit to and
/// from its local representation. A string of a layout with inline strings
/// (LayoutRules::inline_strings: a NUL-padded char[capacity] in the value)
/// is the translator's own business and never reaches the hooks.
///
/// Every call names its unit twice: by `field`, the unit's address, and by
/// `index`, its position among the value's units of its kind in visit
/// order (the n-th string, or the n-th pointer, of the block being
/// translated; TypeDescriptor::var_unit_index of the field's offset). The
/// compiled plan computes the index as it goes, so a hook that keeps
/// per-unit state out of line (the server's string slots) needs no type
/// walk to find it.
class TranslationHooks {
 public:
  virtual ~TranslationHooks() = default;

  /// The pointer unit for the local pointer at `field`. A kCross unit's
  /// `mip` must stay valid until the next call on this object.
  virtual PointerUnit swizzle_out(const void* field, uint32_t index) = 0;

  /// Reads one pointer unit from `in` (read_pointer_unit) and stores its
  /// local representation at `field`.
  virtual void swizzle_in(BufReader& in, void* field, uint32_t index) = 0;

  /// Reads the out-of-line string unit stored at `field`; the view must
  /// stay valid until the next call on this object. The default throws
  /// Error(kState): hooks for layouts with inline strings need none.
  virtual std::string_view read_string(const void* field, uint32_t capacity,
                                       uint32_t index);

  /// Stores `content` into the out-of-line string unit at `field`. The
  /// default throws Error(kState), as read_string.
  virtual void write_string(void* field, uint32_t capacity, uint32_t index,
                            std::string_view content);
};

/// Hooks that reject pointers (and out-of-line strings) outright; usable
/// for types without them (and as a guard in tests).
class NumericOnlyHooks : public TranslationHooks {
 public:
  PointerUnit swizzle_out(const void*, uint32_t) override;
  void swizzle_in(BufReader&, void*, uint32_t) override;
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
/// A fixed-size type is measured arithmetically from the plan, with no
/// hook call; any other range is measured by encoding it.
uint64_t measure_units(const TypeDescriptor& type, const LayoutRules& rules,
                       const void* base, uint64_t begin, uint64_t end,
                       TranslationHooks& hooks);

}  // namespace iw
