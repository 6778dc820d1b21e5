#include "types/translation_plan.hpp"

#include <bit>
#include <memory>

#include "types/type_desc.hpp"
#include "util/buffer.hpp"
#include "util/error.hpp"

namespace iw {

TranslationPlan::~TranslationPlan() = default;

const TranslationPlan& TranslationPlan::of(const TypeDescriptor& type,
                                           const LayoutRules& rules) {
  TranslationCounters* counters = type.translation_counters();
  TranslationPlan* plan = type.plan_.load(std::memory_order_acquire);
  if (plan == nullptr) {
    auto fresh =
        std::unique_ptr<TranslationPlan>(new TranslationPlan(type, rules));
    TranslationPlan* expected = nullptr;
    if (type.plan_.compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      plan = fresh.release();
      if (counters != nullptr) {
        counters->plan_cache_misses.fetch_add(1, std::memory_order_relaxed);
      }
      return *plan;
    }
    plan = expected;  // another thread compiled concurrently; use theirs
  }
  if (counters != nullptr) {
    counters->plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return *plan;
}

TranslationPlan::TranslationPlan(const TypeDescriptor& type,
                                 const LayoutRules& rules) {
  prim_units_ = type.prim_units();
  swap_ = rules.byte_order != ByteOrder::kBig;
  inline_strings_ = rules.inline_strings;
  compile(type, 0, 0, rules);
  finalize();
}

void TranslationPlan::append_run(PrimitiveKind kind, uint64_t first_unit,
                                 uint64_t count, uint32_t local_offset,
                                 uint32_t stride, uint32_t capacity) {
  if (count == 0) return;
  if (!ops_.empty()) {
    PlanOp& prev = ops_.back();
    if (prev.op == PlanOp::Kind::kRun && prev.prim == kind &&
        prev.string_capacity == capacity &&
        prev.first_unit + prev.unit_count == first_unit &&
        local_offset > prev.local_offset) {
      if (prev.unit_count == 1) {
        // A lone unit adopts whatever gap follows it as the run stride.
        uint32_t gap = local_offset - prev.local_offset;
        if (count == 1 || stride == gap) {
          prev.local_stride = gap;
          prev.unit_count += count;
          return;
        }
      } else if (local_offset ==
                     prev.local_offset + prev.unit_count * prev.local_stride &&
                 (count == 1 || stride == prev.local_stride)) {
        prev.unit_count += count;
        return;
      }
    }
  }
  PlanOp op;
  op.op = PlanOp::Kind::kRun;
  op.prim = kind;
  op.first_unit = first_unit;
  op.unit_count = count;
  op.local_offset = local_offset;
  op.local_stride = stride;
  op.string_capacity = capacity;
  ops_.push_back(op);
}

void TranslationPlan::compile(const TypeDescriptor& type, uint64_t unit_base,
                              uint32_t local_base, const LayoutRules& rules) {
  switch (type.kind()) {
    case TypeKind::kPrimitive:
    case TypeKind::kString:
    case TypeKind::kPointer:
      append_run(type.primitive(), unit_base, 1, local_base, type.local_size(),
                 type.string_capacity());
      return;
    case TypeKind::kArray: {
      const TypeDescriptor* elem = type.element();
      if (type.count() == 0) return;
      if (elem->kind() == TypeKind::kPrimitive ||
          elem->kind() == TypeKind::kString ||
          elem->kind() == TypeKind::kPointer) {
        append_run(elem->primitive(), unit_base, type.count(), local_base,
                   type.element_stride(), elem->string_capacity());
        return;
      }
      const TranslationPlan& ep = TranslationPlan::of(*elem, rules);
      uint64_t eu = elem->prim_units();
      if (ep.ops().size() == 1 && ep.ops()[0].op == PlanOp::Kind::kRun &&
          ep.ops()[0].unit_count == eu &&
          type.element_stride() == ep.ops()[0].local_stride * eu) {
        // Elements are one homogeneous run each and butt up against each
        // other at a uniform stride: collapse the whole array to one run.
        const PlanOp& r = ep.ops()[0];
        append_run(r.prim, unit_base, type.count() * eu,
                   local_base + r.local_offset, r.local_stride,
                   r.string_capacity);
        return;
      }
      PlanOp op;
      op.op = PlanOp::Kind::kLoop;
      op.first_unit = unit_base;
      op.unit_count = type.count() * eu;
      op.local_offset = local_base;
      op.local_stride = type.element_stride();
      op.elem_plan = &ep;
      op.elem_count = type.count();
      op.units_per_elem = eu;
      ops_.push_back(op);
      return;
    }
    case TypeKind::kStruct:
      for (const TypeDescriptor::Field& f : type.fields()) {
        compile(*f.type, unit_base + f.prim_offset,
                local_base + f.local_offset, rules);
      }
      return;
  }
}

void TranslationPlan::finalize() {
  uint64_t wire = 0;
  uint64_t bound = 0;
  uint64_t strings = 0;
  uint64_t pointers = 0;
  bool iso = true;
  for (PlanOp& op : ops_) {
    op.wire_offset = wire;
    op.strings_before = static_cast<uint32_t>(strings);
    op.pointers_before = static_cast<uint32_t>(pointers);
    if (op.op == PlanOp::Kind::kRun) {
      if (op.prim == PrimitiveKind::kString) {
        strings += op.unit_count;
        bound += op.unit_count * (varint_size(op.string_capacity) +
                                  op.string_capacity);
        variable_ = true;
        iso = false;
        continue;
      }
      if (op.prim == PrimitiveKind::kPointer) {
        pointers += op.unit_count;
        bound += op.unit_count * kMaxIntraPointerBytes;
        variable_ = true;
        iso = false;
        continue;
      }
      uint32_t ws = wire_size_of(op.prim);
      wire += op.unit_count * ws;
      bound += op.unit_count * ws;
      iso = iso && op.local_offset == op.wire_offset &&
            op.local_stride == ws && (ws == 1 || !swap_);
    } else {
      const TranslationPlan& ep = *op.elem_plan;
      strings += op.elem_count * ep.string_units();
      pointers += op.elem_count * ep.pointer_units();
      bound += op.elem_count * ep.max_wire_size();
      if (ep.variable()) {
        variable_ = true;
        iso = false;
        continue;
      }
      op.wire_per_elem = ep.fixed_wire_size();
      wire += op.elem_count * op.wire_per_elem;
      iso = iso && ep.isomorphic() && op.local_offset == op.wire_offset &&
            op.local_stride == op.wire_per_elem;
    }
  }
  fixed_wire_size_ = wire;
  max_wire_size_ = bound;
  string_units_ = static_cast<uint32_t>(strings);
  pointer_units_ = static_cast<uint32_t>(pointers);
  isomorphic_ = iso && !variable_;
  if (ops_.size() == 1 && ops_[0].op == PlanOp::Kind::kRun &&
      std::has_single_bit(ops_[0].local_stride)) {
    run_shift_ = static_cast<uint8_t>(std::countr_zero(ops_[0].local_stride));
  }
}

size_t TranslationPlan::op_index(uint64_t unit) const noexcept {
  size_t lo = 0;
  size_t hi = ops_.size();
  while (lo + 1 < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (ops_[mid].first_unit <= unit) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t TranslationPlan::fixed_wire_offset_of(uint64_t unit) const noexcept {
  if (unit >= prim_units_) return fixed_wire_size_;
  const PlanOp& op = ops_[op_index(unit)];
  uint64_t rel = unit - op.first_unit;
  if (op.op == PlanOp::Kind::kRun) {
    return op.wire_offset + rel * wire_size_of(op.prim);
  }
  uint64_t q = rel / op.units_per_elem;
  uint64_t r = rel % op.units_per_elem;
  return op.wire_offset + q * op.wire_per_elem +
         op.elem_plan->fixed_wire_offset_of(r);
}

uint32_t TranslationPlan::strings_before(uint64_t unit) const noexcept {
  if (unit >= prim_units_) return string_units_;
  const PlanOp& op = ops_[op_index(unit)];
  const uint64_t rel = unit - op.first_unit;
  if (op.op == PlanOp::Kind::kRun) {
    return op.strings_before +
           (op.prim == PrimitiveKind::kString ? static_cast<uint32_t>(rel) : 0);
  }
  const uint64_t q = rel / op.units_per_elem;
  return op.strings_before +
         static_cast<uint32_t>(q * op.elem_plan->string_units()) +
         op.elem_plan->strings_before(rel - q * op.units_per_elem);
}

uint32_t TranslationPlan::nested_offset_of(uint64_t unit) const noexcept {
  const PlanOp& op = ops_[op_index(unit)];
  const uint64_t rel = unit - op.first_unit;
  if (op.op == PlanOp::Kind::kRun) {
    return op.local_offset + static_cast<uint32_t>(rel * op.local_stride);
  }
  // Unit counts fit 32 bits (TypeRegistry checks): a 32-bit division.
  const auto upe = static_cast<uint32_t>(op.units_per_elem);
  const uint32_t q = static_cast<uint32_t>(rel) / upe;
  return op.local_offset + q * op.local_stride +
         op.elem_plan->local_offset_of(rel - uint64_t{q} * upe);
}

uint64_t TranslationPlan::nested_unit_at(uint32_t offset) const noexcept {
  // Ops lie in local-offset order too: the last one starting at or
  // before `offset` is the only one that can hold it.
  size_t lo = 0;
  size_t hi = ops_.size();
  while (lo + 1 < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (ops_[mid].local_offset <= offset) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const PlanOp& op = ops_[lo];
  if (offset < op.local_offset) return kNoUnit;
  const uint32_t rel = offset - op.local_offset;
  const uint32_t stride = op.local_stride;
  const uint32_t q = rel / stride;
  const uint32_t r = rel - q * stride;
  if (op.op == PlanOp::Kind::kRun) {
    return q < op.unit_count && r == 0 ? op.first_unit + q : kNoUnit;
  }
  if (q >= op.elem_count) return kNoUnit;
  const uint64_t u = op.elem_plan->unit_at(r);
  return u == kNoUnit ? kNoUnit : op.first_unit + q * op.units_per_elem + u;
}

}  // namespace iw
