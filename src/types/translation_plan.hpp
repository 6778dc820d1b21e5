// Plan-compiled translation: per-(TypeDescriptor, LayoutRules) run programs.
//
// A TranslationPlan is compiled once per descriptor instantiation and cached
// on the descriptor itself: a flattened, prefix-summed program of primitive
// runs (and loops over aggregate array elements) covering the whole value.
// Translation binary-searches to the op containing the first requested unit
// and executes straight-line copy/swap loops from there — no recursive
// descent over the descriptor tree per lock release.
//
// Every op also carries the position of its first string and first pointer
// unit among the value's units of that kind (prefix sums, like first_unit),
// and a bound on its wire bytes. An element loop over strings and pointers
// therefore reserves its output once per element and hands each unit's
// position to the translation hooks without walking the type.
//
// The compiler also proves (or refutes) the paper's §3.3 isomorphism: when
// the local layout is byte-identical to the canonical wire format (matching
// endianness and sizes, no padding, no strings or pointers), encoding or
// decoding any unit range degenerates to a single memcpy.
//
// Plans are immutable after compilation and live exactly as long as their
// descriptor; descriptors are themselves immutable, so there are no
// invalidation rules — the cache key is descriptor identity within its
// registry's LayoutRules.
#pragma once

#include <cstdint>
#include <vector>

#include "types/platform.hpp"
#include "util/counters.hpp"

namespace iw {

class TypeDescriptor;
class TranslationPlan;

/// Translation counters of one TypeRegistry, shared by all its descriptors.
#define IW_TRANSLATION_COUNTERS(X) \
  X(plan_cache_hits)               \
  X(plan_cache_misses)             \
  X(bytes_encoded)                 \
  X(bytes_decoded)                 \
  X(isomorphic_fast_path_blocks)

/// Snapshot of one registry's translation counters.
struct TranslationStats {
  IW_TRANSLATION_COUNTERS(IW_COUNTER_FIELD)
};

/// The live counters (util/counters.hpp: mutation paths never lock).
struct TranslationCounters {
  IW_COUNTER_ATOMICS(IW_TRANSLATION_COUNTERS)
  void reset() noexcept { IW_TRANSLATION_COUNTERS(IW_COUNTER_CLEAR) }
};

/// One instruction of a compiled plan. Ops are sorted by first_unit and
/// partition [0, prim_units) exactly.
struct PlanOp {
  enum class Kind : uint8_t {
    kRun,   ///< unit_count homogeneous primitive units at a fixed stride
    kLoop,  ///< elem_count aggregate elements, each executed via elem_plan
  };

  Kind op = Kind::kRun;
  PrimitiveKind prim = PrimitiveKind::kChar;  ///< valid for kRun
  uint64_t first_unit = 0;   ///< prefix-summed unit index of the op's start
  uint64_t unit_count = 0;   ///< total units the op covers
  uint32_t local_offset = 0; ///< byte offset of the first unit / element
  uint32_t local_stride = 0; ///< kRun: bytes between units; kLoop: element stride
  uint32_t string_capacity = 0;  ///< valid when prim == kString
  /// Fixed-wire bytes preceding this op within the value. Only meaningful
  /// while every preceding unit is fixed-size (always true when the whole
  /// plan is fixed, i.e. !variable()).
  uint64_t wire_offset = 0;
  /// String and pointer units preceding this op within the value: the
  /// visit-order position (TypeDescriptor::var_unit_index) of its first
  /// string or pointer unit.
  uint32_t strings_before = 0;
  uint32_t pointers_before = 0;

  // --- kLoop only ---
  const TranslationPlan* elem_plan = nullptr;
  uint64_t elem_count = 0;
  uint64_t units_per_elem = 0;
  uint64_t wire_per_elem = 0;  ///< valid when the element plan is fixed
};

/// Most bytes a null or intra-segment pointer unit takes on the wire: a
/// 34-bit head varint and a 32-bit unit varint (wire/translate.hpp). Only a
/// cross-segment unit, which carries its MIP text, is longer.
inline constexpr uint32_t kMaxIntraPointerBytes = 10;

class TranslationPlan {
 public:
  /// The cached plan for `type` (compiled against `rules` on first use).
  /// Lock-free after the first call; bumps the owning registry's
  /// plan_cache_hits/misses counters. `rules` must be the LayoutRules the
  /// descriptor was instantiated against (its registry's rules).
  static const TranslationPlan& of(const TypeDescriptor& type,
                                   const LayoutRules& rules);

  const std::vector<PlanOp>& ops() const noexcept { return ops_; }
  uint64_t prim_units() const noexcept { return prim_units_; }
  uint64_t fixed_wire_size() const noexcept { return fixed_wire_size_; }
  /// True when the wire encoding contains strings or pointers (variable
  /// length; fixed-wire offsets are not usable).
  bool variable() const noexcept { return variable_; }
  /// String and pointer units in one value.
  uint32_t string_units() const noexcept { return string_units_; }
  uint32_t pointer_units() const noexcept { return pointer_units_; }
  /// Most wire bytes one whole value encodes to while its strings fit their
  /// capacity and its pointers are null or intra-segment. Only a longer
  /// string (which a store can hold) or a cross-segment MIP exceeds it.
  uint64_t max_wire_size() const noexcept { return max_wire_size_; }
  /// True when local bytes [offset_of(b), offset_of(e)) are the wire
  /// encoding of units [b, e) verbatim — the §3.3 single-memcpy case.
  bool isomorphic() const noexcept { return isomorphic_; }
  /// True when local numeric byte order differs from the (big-endian) wire.
  bool swap() const noexcept { return swap_; }
  /// True when a string unit is a NUL-padded char[capacity] in the value
  /// itself (LayoutRules::inline_strings), which the translator copies
  /// with no hook call.
  bool inline_strings() const noexcept { return inline_strings_; }

  /// Index of the op whose unit range contains `unit` (< prim_units).
  size_t op_index(uint64_t unit) const noexcept;

  /// Wire byte offset of `unit` within the value's encoding; `unit` ==
  /// prim_units() yields the total size. Requires !variable(). For an
  /// isomorphic plan this is also the unit's local byte offset.
  uint64_t fixed_wire_offset_of(uint64_t unit) const noexcept;

  /// Local byte offset of `unit` (< prim_units()): TypeDescriptor::
  /// locate_prim from the plan, one op search per nesting level.
  uint32_t local_offset_of(uint64_t unit) const noexcept {
    if (run_shift_ != kNoShift) return static_cast<uint32_t>(unit) << run_shift_;
    return nested_offset_of(unit);
  }

  /// The unit that starts at local byte `offset`, or kNoUnit when no unit
  /// starts there (padding, the inside of a unit, past the end); the
  /// inverse of local_offset_of.
  uint64_t unit_at(uint32_t offset) const noexcept {
    if (run_shift_ != kNoShift) {
      const uint32_t unit = offset >> run_shift_;
      return unit << run_shift_ == offset && unit < prim_units_ ? unit
                                                                 : kNoUnit;
    }
    return nested_unit_at(offset);
  }
  static constexpr uint64_t kNoUnit = UINT64_MAX;

  /// String units among units [0, `unit`) (all of them for `unit` >=
  /// prim_units()): the position of the first string at or after `unit`.
  uint32_t strings_before(uint64_t unit) const noexcept;

  TranslationPlan(const TranslationPlan&) = delete;
  TranslationPlan& operator=(const TranslationPlan&) = delete;
  ~TranslationPlan();

 private:
  TranslationPlan(const TypeDescriptor& type, const LayoutRules& rules);

  void compile(const TypeDescriptor& type, uint64_t unit_base,
               uint32_t local_base, const LayoutRules& rules);
  void append_run(PrimitiveKind kind, uint64_t first_unit, uint64_t count,
                  uint32_t local_offset, uint32_t stride, uint32_t capacity);
  void finalize();
  uint32_t nested_offset_of(uint64_t unit) const noexcept;
  uint64_t nested_unit_at(uint32_t offset) const noexcept;

  std::vector<PlanOp> ops_;
  uint64_t prim_units_ = 0;
  uint64_t fixed_wire_size_ = 0;
  uint64_t max_wire_size_ = 0;
  uint32_t string_units_ = 0;
  uint32_t pointer_units_ = 0;
  bool variable_ = false;
  bool isomorphic_ = false;
  bool swap_ = false;
  bool inline_strings_ = true;
  /// For a value that is one run at a power-of-two stride (an array of
  /// scalars), log2 of the stride: units and offsets map by a shift.
  static constexpr uint8_t kNoShift = UINT8_MAX;
  uint8_t run_shift_ = kNoShift;
};

}  // namespace iw
