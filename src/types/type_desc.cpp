#include "types/type_desc.hpp"

#include <algorithm>

#include "types/translation_plan.hpp"

namespace iw {

TypeDescriptor::~TypeDescriptor() {
  delete plan_.load(std::memory_order_acquire);
}

size_t TypeDescriptor::field_index_for_unit(uint64_t unit) const noexcept {
  // Last field whose prim_offset <= unit.
  auto it = std::upper_bound(
      fields_.begin(), fields_.end(), unit,
      [](uint64_t u, const Field& f) { return u < f.prim_offset; });
  return static_cast<size_t>(it - fields_.begin()) - 1;
}

size_t TypeDescriptor::field_index_for_local(uint32_t offset) const noexcept {
  auto it = std::upper_bound(
      fields_.begin(), fields_.end(), offset,
      [](uint32_t o, const Field& f) { return o < f.local_offset; });
  size_t i = static_cast<size_t>(it - fields_.begin());
  if (i == 0) return 0;
  --i;
  // `offset` may land in padding after field i; treat as the next field.
  const Field& f = fields_[i];
  if (offset >= f.local_offset + f.type->local_size() &&
      i + 1 < fields_.size()) {
    return i + 1;
  }
  return i;
}

PrimLocation TypeDescriptor::locate_prim(uint64_t unit) const {
  if (unit >= prim_units_) {
    throw Error(ErrorCode::kInvalidArgument,
                "primitive offset out of range for type");
  }
  const TypeDescriptor* t = this;
  uint32_t local = 0;
  for (;;) {
    switch (t->kind_) {
      case TypeKind::kPrimitive:
      case TypeKind::kString:
      case TypeKind::kPointer:
        return {t->prim_, local, t->string_capacity_};
      case TypeKind::kArray: {
        uint64_t eu = t->element_->prim_units();
        uint64_t e = unit / eu;
        local += static_cast<uint32_t>(e * t->element_stride_);
        unit -= e * eu;
        t = t->element_;
        break;
      }
      case TypeKind::kStruct: {
        size_t i = t->field_index_for_unit(unit);
        const Field& f = t->fields_[i];
        local += f.local_offset;
        unit -= f.prim_offset;
        t = f.type;
        break;
      }
    }
  }
}

UnitAtOffset TypeDescriptor::unit_at_local_offset(uint32_t offset) const {
  if (offset >= local_size_) offset = local_size_ ? local_size_ - 1 : 0;
  // Each level narrows [base, base + t->local_size_) to the element or
  // field holding `offset`, which always stays inside it: an array needs
  // no clamp on its element index, only on an element's tail padding.
  const TypeDescriptor* t = this;
  uint64_t unit = 0;
  uint32_t base = 0;
  for (;;) {
    switch (t->kind_) {
      case TypeKind::kPrimitive:
      case TypeKind::kString:
      case TypeKind::kPointer:
        return {unit, base};
      case TypeKind::kArray: {
        const TypeDescriptor* e = t->element_;
        const uint32_t i = (offset - base) / t->element_stride_;
        base += i * t->element_stride_;
        unit += i * e->prim_units_;
        if (e->kind_ != TypeKind::kArray && e->kind_ != TypeKind::kStruct) {
          return {unit, base};  // a scalar element: its tail padding too
        }
        // Tail padding of an element maps to its last unit.
        if (offset - base >= e->local_size_) offset = base + e->local_size_ - 1;
        t = e;
        break;
      }
      case TypeKind::kStruct: {
        const Field& f = t->fields_[t->field_index_for_local(offset - base)];
        base += f.local_offset;
        unit += f.prim_offset;
        if (offset < base) offset = base;  // landed in inter-field padding
        if (offset - base >= f.type->local_size_) {
          offset = base + f.type->local_size_ - 1;  // tail padding
        }
        t = f.type;
        break;
      }
    }
  }
}

uint32_t TypeDescriptor::var_unit_index(PrimitiveKind kind,
                                        uint32_t offset) const noexcept {
  const bool strings = kind == PrimitiveKind::kString;
  const TypeDescriptor* t = this;
  uint32_t index = 0;
  for (;;) {
    switch (t->kind_) {
      case TypeKind::kPrimitive:
        return kNoVarUnit;
      case TypeKind::kString:
      case TypeKind::kPointer:
        if (t->prim_ != kind || offset != 0) return kNoVarUnit;
        return index;
      case TypeKind::kArray: {
        const uint32_t i = offset / t->element_stride_;
        if (i >= t->count_) return kNoVarUnit;
        offset -= i * t->element_stride_;
        t = t->element_;
        index += i * (strings ? t->string_units_ : t->pointer_units_);
        break;
      }
      case TypeKind::kStruct: {
        // The last field starting at or before `offset`.
        auto it = std::upper_bound(
            t->fields_.begin(), t->fields_.end(), offset,
            [](uint32_t o, const Field& f) { return o < f.local_offset; });
        if (it == t->fields_.begin()) return kNoVarUnit;
        --it;
        offset -= it->local_offset;
        index += strings ? it->strings_before : it->pointers_before;
        t = it->type;
        break;
      }
    }
  }
}

}  // namespace iw
