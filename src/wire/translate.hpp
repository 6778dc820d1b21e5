// Translation between a local memory representation and wire format.
//
// This is the paper's Figure-3 machinery: given a block's type descriptor
// (instantiated for some LayoutRules) and a range of *primitive data units*,
// encode_units converts local bytes to canonical wire bytes and decode_units
// does the inverse. Numeric units are byte-order-converted; strings travel
// behind a varint length; pointers are swizzled to/from MIP strings through the
// caller-supplied hooks (the client library implements them with its segment
// metadata, the server with its out-of-line slot tables, tests with fakes).
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

/// Callbacks that localize the representation-specific pieces of
/// translation: pointer swizzling and string storage.
class TranslationHooks {
 public:
  virtual ~TranslationHooks() = default;

  /// Reads the local pointer representation at `field` and returns the MIP
  /// naming what it points to ("" for null).
  virtual std::string swizzle_out(const void* field) = 0;

  /// Appends the MIP for `field`, behind its varint length, to `out`.
  /// Performance hook: the default routes through swizzle_out; the client
  /// overrides it to format without an intermediate allocation (pointer
  /// swizzling is the hot path for pointer-rich data, Fig. 4/6).
  virtual void swizzle_out_append(const void* field, Buffer& out) {
    out.append_vstring(swizzle_out(field));
  }

  /// Converts `mip` ("" for null) and stores the local pointer
  /// representation at `field`.
  virtual void swizzle_in(std::string_view mip, void* field) = 0;

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
  std::string swizzle_out(const void*) override;
  void swizzle_in(std::string_view, void*) override;
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

// --- legacy recursive reference implementation (test-only) ---------------
//
// The pre-plan translation path: recursive descent over the descriptor tree
// via visit_runs, with the flat-run struct-array fast path. Kept only as
// the reference oracle for the differential tests in wire_translate_test
// and the planned-vs-legacy comparison in bench/translate_plan; production
// code must call the plan-compiled entry points above.

void encode_units_legacy(const TypeDescriptor& type, const LayoutRules& rules,
                         const void* base, uint64_t begin, uint64_t end,
                         TranslationHooks& hooks, Buffer& out);

void decode_units_legacy(const TypeDescriptor& type, const LayoutRules& rules,
                         void* base, uint64_t begin, uint64_t end,
                         TranslationHooks& hooks, BufReader& in);

uint64_t measure_units_legacy(const TypeDescriptor& type,
                              const LayoutRules& rules, const void* base,
                              uint64_t begin, uint64_t end,
                              TranslationHooks& hooks);

}  // namespace iw
