// Type descriptors: the reflection metadata that drives every translation.
//
// A TypeDescriptor describes one shared type as a tree of primitives,
// fixed-capacity strings, pointers, arrays and structs. Each descriptor is
// *instantiated against a LayoutRules* (a client's platform, or the server's
// packed canonical layout), which fixes:
//
//   * local_size / local_align — byte layout in that memory representation
//   * per-field local byte offsets (platform alignment applied)
//   * per-field machine-independent *primitive offsets*, counted in
//     primitive data units exactly as in the paper — these are identical on
//     every platform and are the coordinate system of MIPs and wire diffs.
//
// Descriptors are immutable after construction and owned by a TypeRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "types/platform.hpp"
#include "util/error.hpp"

namespace iw {

class TranslationPlan;
struct TranslationCounters;

enum class TypeKind : uint8_t {
  kPrimitive = 0,
  kString = 1,
  kPointer = 2,
  kArray = 3,
  kStruct = 4,
};

/// Location of one primitive data unit inside a block of some type.
struct PrimLocation {
  PrimitiveKind kind;
  uint32_t local_offset;     ///< byte offset of the unit in local format
  uint32_t string_capacity;  ///< valid when kind == kString
};

/// Result of mapping a local byte offset back to its primitive unit.
struct UnitAtOffset {
  uint64_t unit_index;    ///< primitive offset of the containing unit
  uint32_t local_offset;  ///< byte offset where that unit starts
};

/// A maximal homogeneous run of primitive units, yielded by visit_runs().
/// Translation loops over units within a run without re-walking the tree;
/// the isomorphic-descriptor optimization exists to make runs longer.
struct PrimRun {
  PrimitiveKind kind;
  uint64_t first_unit;       ///< primitive offset of the run's first unit
  uint64_t unit_count;
  uint32_t local_offset;     ///< byte offset of the first unit
  uint32_t local_stride;     ///< bytes between consecutive units
  uint32_t string_capacity;  ///< valid when kind == kString
};

class TypeRegistry;

class TypeDescriptor {
 public:
  ~TypeDescriptor();

  TypeKind kind() const noexcept { return kind_; }
  PrimitiveKind primitive() const noexcept { return prim_; }

  /// Byte size / alignment in the memory representation this descriptor was
  /// instantiated for.
  uint32_t local_size() const noexcept { return local_size_; }
  uint32_t local_align() const noexcept { return local_align_; }

  /// Machine-independent size in primitive data units.
  uint64_t prim_units() const noexcept { return prim_units_; }

  /// True when the wire encoding of a value of this type has variable length
  /// (contains strings or pointers/MIPs).
  bool has_variable_wire_size() const noexcept { return variable_wire_; }

  /// Total wire bytes of the fixed-size units (strings/pointers excluded;
  /// they are length-prefixed individually).
  uint64_t fixed_wire_size() const noexcept { return fixed_wire_size_; }

  /// String units, and pointer units, in one value of this type.
  uint32_t string_units() const noexcept { return string_units_; }
  uint32_t pointer_units() const noexcept { return pointer_units_; }

  // --- kString ---
  uint32_t string_capacity() const noexcept { return string_capacity_; }

  // --- kPointer ---
  /// Pointee type; may be nullptr for an opaque pointer.
  const TypeDescriptor* pointee() const noexcept { return pointee_; }

  // --- kArray ---
  const TypeDescriptor* element() const noexcept { return element_; }
  uint64_t count() const noexcept { return count_; }
  uint32_t element_stride() const noexcept { return element_stride_; }

  // --- kStruct ---
  struct Field {
    std::string name;
    const TypeDescriptor* type;
    uint32_t local_offset;  ///< platform-aligned byte offset
    uint64_t prim_offset;   ///< machine-independent unit offset
    uint32_t strings_before = 0;   ///< string units in earlier fields
    uint32_t pointers_before = 0;  ///< pointer units in earlier fields
  };
  const std::string& struct_name() const noexcept { return struct_name_; }
  const std::vector<Field>& fields() const noexcept { return fields_; }

  /// For fixed-wire-size structs of modest size: the precomputed run list
  /// covering one whole value (unit/local offsets relative to its start).
  /// Lets the translation engine iterate struct arrays without re-walking
  /// the descriptor tree per element. Empty when not precomputed.
  const std::vector<PrimRun>& flat_runs() const noexcept { return flat_runs_; }

  /// Maps a primitive offset to the unit's kind and local byte offset.
  /// Throws Error(kInvalidArgument) when `unit` >= prim_units().
  PrimLocation locate_prim(uint64_t unit) const;

  /// Maps a local byte offset to the primitive unit containing it (padding
  /// bytes map to the *next* unit; offsets past the last unit clamp to it).
  UnitAtOffset unit_at_local_offset(uint32_t offset) const;

  /// Visit-order index, among the units of `kind` (kString or kPointer) in
  /// one value, of the unit that starts at local byte `offset`: the n-th
  /// string (or pointer) visit_runs() meets is index n. Computed from the
  /// layout, one division per array level and one binary search per struct
  /// level. kNoVarUnit when no unit of that kind starts at `offset`.
  uint32_t var_unit_index(PrimitiveKind kind, uint32_t offset) const noexcept;
  static constexpr uint32_t kNoVarUnit = UINT32_MAX;

  /// Visits maximal homogeneous runs covering units [begin, end).
  /// Visitor signature: void(const PrimRun&).
  template <typename F>
  void visit_runs(uint64_t begin, uint64_t end, F&& fn) const {
    visit_runs_impl(begin, end, 0, 0, fn);
  }

  /// The owning registry's translation counters (null for descriptors built
  /// outside a registry, which does not happen in practice).
  TranslationCounters* translation_counters() const noexcept {
    return counters_;
  }

 private:
  friend class TypeRegistry;
  friend class TranslationPlan;
  TypeDescriptor() = default;

  template <typename F>
  void visit_runs_impl(uint64_t begin, uint64_t end, uint64_t unit_base,
                       uint32_t local_base, F&& fn) const {
    if (begin >= end) return;
    switch (kind_) {
      case TypeKind::kPrimitive:
      case TypeKind::kString:
      case TypeKind::kPointer: {
        PrimRun run;
        run.kind = prim_;
        run.first_unit = unit_base;
        run.unit_count = 1;
        run.local_offset = local_base;
        run.local_stride = local_size_;
        run.string_capacity = string_capacity_;
        fn(run);
        return;
      }
      case TypeKind::kArray: {
        uint64_t eu = element_->prim_units();
        uint64_t first_elem = begin / eu;
        uint64_t last_elem = (end - 1) / eu;
        if (element_->kind() == TypeKind::kPrimitive ||
            element_->kind() == TypeKind::kString ||
            element_->kind() == TypeKind::kPointer) {
          // Homogeneous element: one run for the whole visited range.
          PrimRun run;
          run.kind = element_->primitive();
          run.first_unit = unit_base + begin;
          run.unit_count = end - begin;
          run.local_offset =
              local_base + static_cast<uint32_t>(begin * element_stride_);
          run.local_stride = element_stride_;
          run.string_capacity = element_->string_capacity();
          fn(run);
          return;
        }
        for (uint64_t e = first_elem; e <= last_elem; ++e) {
          uint64_t elem_begin = e * eu;
          uint64_t b = (begin > elem_begin) ? begin - elem_begin : 0;
          uint64_t rel_end = end - elem_begin;
          uint64_t t = (rel_end < eu) ? rel_end : eu;
          element_->visit_runs_impl(
              b, t, unit_base + elem_begin,
              local_base + static_cast<uint32_t>(e * element_stride_), fn);
        }
        return;
      }
      case TypeKind::kStruct: {
        // Find the first field containing `begin` by prim_offset.
        size_t lo = field_index_for_unit(begin);
        for (size_t i = lo; i < fields_.size(); ++i) {
          const Field& f = fields_[i];
          if (f.prim_offset >= end) break;
          uint64_t fu = f.type->prim_units();
          uint64_t b = (begin > f.prim_offset) ? begin - f.prim_offset : 0;
          uint64_t rel_end = end - f.prim_offset;
          uint64_t t = (rel_end < fu) ? rel_end : fu;
          f.type->visit_runs_impl(b, t, unit_base + f.prim_offset,
                                  local_base + f.local_offset, fn);
        }
        return;
      }
    }
  }

  /// Index of the struct field whose unit range contains `unit`.
  size_t field_index_for_unit(uint64_t unit) const noexcept;
  /// Index of the struct field whose local byte range contains `offset`
  /// (padding maps to the following field).
  size_t field_index_for_local(uint32_t offset) const noexcept;

  TypeKind kind_ = TypeKind::kPrimitive;
  PrimitiveKind prim_ = PrimitiveKind::kChar;
  uint32_t string_capacity_ = 0;
  const TypeDescriptor* pointee_ = nullptr;
  const TypeDescriptor* element_ = nullptr;
  uint64_t count_ = 0;
  uint32_t element_stride_ = 0;
  std::string struct_name_;
  std::vector<Field> fields_;

  uint32_t local_size_ = 0;
  uint32_t local_align_ = 1;
  uint64_t prim_units_ = 0;
  uint64_t fixed_wire_size_ = 0;
  uint32_t string_units_ = 0;
  uint32_t pointer_units_ = 0;
  bool variable_wire_ = false;
  std::vector<PrimRun> flat_runs_;

  /// Compiled-once translation plan (see types/translation_plan.hpp); set
  /// lazily by TranslationPlan::of, owned by this descriptor.
  mutable std::atomic<TranslationPlan*> plan_{nullptr};
  /// Owning registry's counters; set at allocation, outlives the descriptor.
  TranslationCounters* counters_ = nullptr;
};

}  // namespace iw
