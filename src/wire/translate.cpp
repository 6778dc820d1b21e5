#include "wire/translate.hpp"

#include <algorithm>
#include <cstring>

#include "types/translation_plan.hpp"
#include "util/endian.hpp"

namespace iw {

namespace {

// Bulk encode/decode of a homogeneous numeric run. This is the hot loop of
// Figure 4/5: one reservation for the whole run, then tight memcpy or
// byteswap loops (the type-descriptor runs are what let InterWeave beat
// rpcgen's per-element function-pointer dispatch).
template <typename U, bool kSwap>
void encode_numeric_run(const uint8_t* p, uint64_t count, uint32_t stride,
                        Buffer& out) {
  uint8_t* dst = out.extend(count * sizeof(U));
  if (!kSwap && stride == sizeof(U)) {
    std::memcpy(dst, p, count * sizeof(U));
    return;
  }
  for (uint64_t i = 0; i < count; ++i, p += stride, dst += sizeof(U)) {
    U v;
    std::memcpy(&v, p, sizeof(U));
    if constexpr (kSwap) {
      if constexpr (sizeof(U) == 2) v = byteswap16(v);
      if constexpr (sizeof(U) == 4) v = byteswap32(v);
      if constexpr (sizeof(U) == 8) v = byteswap64(v);
    }
    std::memcpy(dst, &v, sizeof(U));
  }
}

template <typename U, bool kSwap>
void decode_numeric_run(uint8_t* p, uint64_t count, uint32_t stride,
                        BufReader& in) {
  auto bytes = in.read_bytes(count * sizeof(U));
  const uint8_t* src = bytes.data();
  if (!kSwap && stride == sizeof(U)) {
    std::memcpy(p, src, count * sizeof(U));
    return;
  }
  for (uint64_t i = 0; i < count; ++i, p += stride, src += sizeof(U)) {
    U v;
    std::memcpy(&v, src, sizeof(U));
    if constexpr (kSwap) {
      if constexpr (sizeof(U) == 2) v = byteswap16(v);
      if constexpr (sizeof(U) == 4) v = byteswap32(v);
      if constexpr (sizeof(U) == 8) v = byteswap64(v);
    }
    std::memcpy(p, &v, sizeof(U));
  }
}

// Wire size of a string unit of `len` bytes: varint length + bytes.
inline uint64_t vstring_size(size_t len) { return varint_size(len) + len; }

}  // namespace

std::string_view InlineStringHooks::read_string(const void* field,
                                                uint32_t capacity) {
  const char* p = static_cast<const char*>(field);
  size_t len = strnlen(p, capacity);
  return {p, len};
}

void InlineStringHooks::write_string(void* field, uint32_t capacity,
                                     std::string_view content) {
  char* p = static_cast<char*>(field);
  size_t n = content.size() < capacity ? content.size() : capacity;
  std::memcpy(p, content.data(), n);
  if (n < capacity) std::memset(p + n, 0, capacity - n);
}

PointerUnit read_pointer_unit_rest(uint64_t head, BufReader& in) {
  PointerUnit p;
  if (head == 0) return p;
  if ((head & 3) == 1) {
    throw Error(ErrorCode::kProtocol,
                "pointer names block serial " + std::to_string(head >> 2));
  }
  if (head == 2) {
    p.tag = PointerTag::kCross;
    p.mip = in.read_vstring_view();
    if (p.mip.empty()) {
      throw Error(ErrorCode::kProtocol, "empty cross-segment pointer");
    }
    return p;
  }
  throw Error(ErrorCode::kProtocol,
              "unknown pointer tag " + std::to_string(head & 3));
}

void NumericOnlyHooks::swizzle_out(const void*, Buffer&) {
  throw Error(ErrorCode::kState, "pointer unit with NumericOnlyHooks");
}
void NumericOnlyHooks::swizzle_in(BufReader&, void*) {
  throw Error(ErrorCode::kState, "pointer unit with NumericOnlyHooks");
}
std::string_view NumericOnlyHooks::read_string(const void*, uint32_t) {
  throw Error(ErrorCode::kState, "string unit with NumericOnlyHooks");
}
void NumericOnlyHooks::write_string(void*, uint32_t, std::string_view) {
  throw Error(ErrorCode::kState, "string unit with NumericOnlyHooks");
}

// ------------------------------------------------ plan-compiled hot path

namespace {

/// Encodes `count` units of one kRun op starting at `p`.
void encode_run(const PlanOp& op, const uint8_t* p, uint64_t count, bool swap,
                TranslationHooks& hooks, Buffer& out) {
  switch (op.prim) {
    case PrimitiveKind::kChar:
      if (op.local_stride == 1) {
        out.append(p, count);
      } else {
        for (uint64_t i = 0; i < count; ++i, p += op.local_stride)
          out.append_u8(*p);
      }
      break;
    case PrimitiveKind::kInt16:
      if (swap) {
        encode_numeric_run<uint16_t, true>(p, count, op.local_stride, out);
      } else {
        encode_numeric_run<uint16_t, false>(p, count, op.local_stride, out);
      }
      break;
    case PrimitiveKind::kInt32:
    case PrimitiveKind::kFloat32:
      if (swap) {
        encode_numeric_run<uint32_t, true>(p, count, op.local_stride, out);
      } else {
        encode_numeric_run<uint32_t, false>(p, count, op.local_stride, out);
      }
      break;
    case PrimitiveKind::kInt64:
    case PrimitiveKind::kFloat64:
      if (swap) {
        encode_numeric_run<uint64_t, true>(p, count, op.local_stride, out);
      } else {
        encode_numeric_run<uint64_t, false>(p, count, op.local_stride, out);
      }
      break;
    case PrimitiveKind::kPointer:
      for (uint64_t i = 0; i < count; ++i, p += op.local_stride)
        hooks.swizzle_out(p, out);
      break;
    case PrimitiveKind::kString:
      for (uint64_t i = 0; i < count; ++i, p += op.local_stride)
        out.append_vstring(hooks.read_string(p, op.string_capacity));
      break;
  }
}

void decode_run(const PlanOp& op, uint8_t* p, uint64_t count, bool swap,
                TranslationHooks& hooks, BufReader& in) {
  switch (op.prim) {
    case PrimitiveKind::kChar:
      if (op.local_stride == 1) {
        auto bytes = in.read_bytes(count);
        std::memcpy(p, bytes.data(), bytes.size());
      } else {
        for (uint64_t i = 0; i < count; ++i, p += op.local_stride)
          *p = in.read_u8();
      }
      break;
    case PrimitiveKind::kInt16:
      if (swap) {
        decode_numeric_run<uint16_t, true>(p, count, op.local_stride, in);
      } else {
        decode_numeric_run<uint16_t, false>(p, count, op.local_stride, in);
      }
      break;
    case PrimitiveKind::kInt32:
    case PrimitiveKind::kFloat32:
      if (swap) {
        decode_numeric_run<uint32_t, true>(p, count, op.local_stride, in);
      } else {
        decode_numeric_run<uint32_t, false>(p, count, op.local_stride, in);
      }
      break;
    case PrimitiveKind::kInt64:
    case PrimitiveKind::kFloat64:
      if (swap) {
        decode_numeric_run<uint64_t, true>(p, count, op.local_stride, in);
      } else {
        decode_numeric_run<uint64_t, false>(p, count, op.local_stride, in);
      }
      break;
    case PrimitiveKind::kPointer:
      for (uint64_t i = 0; i < count; ++i, p += op.local_stride)
        hooks.swizzle_in(in, p);
      break;
    case PrimitiveKind::kString:
      // read_vstring_view: the hook copies the bytes before the next read,
      // so a view into the input buffer avoids one allocation per unit.
      for (uint64_t i = 0; i < count; ++i, p += op.local_stride)
        hooks.write_string(p, op.string_capacity, in.read_vstring_view());
      break;
  }
}

/// Straight-line encoder for `count` elements of a fixed-wire-size op list
/// (no strings or pointers anywhere below): writes through a marching
/// destination pointer; the caller reserves the whole output once. The
/// element loop lives *inside* this frame so the per-element cost is just
/// the op loop — recursion only happens per nested aggregate-array op.
/// Returns the advanced destination.
template <bool kSwap>
uint8_t* encode_fixed_elems(const std::vector<PlanOp>& ops,
                            const uint8_t* base, uint64_t count,
                            uint32_t stride, uint8_t* dst) {
  for (uint64_t elem = 0; elem < count; ++elem, base += stride) {
  for (const PlanOp& op : ops) {
    const uint8_t* p = base + op.local_offset;
    if (op.op == PlanOp::Kind::kLoop) {
      dst = encode_fixed_elems<kSwap>(op.elem_plan->ops(), p, op.elem_count,
                                      op.local_stride, dst);
      continue;
    }
    // Local copies: stores through dst alias the plan in the compiler's
    // eyes, and without these it reloads the op fields every iteration.
    const uint64_t n = op.unit_count;
    const uint32_t st = op.local_stride;
    switch (op.prim) {
      case PrimitiveKind::kChar:
        if (st == 1) {
          std::memcpy(dst, p, n);
          dst += n;
        } else {
          for (uint64_t i = 0; i < n; ++i, p += st)
            *dst++ = *p;
        }
        break;
      case PrimitiveKind::kInt16:
        if (!kSwap && st == 2) {
          std::memcpy(dst, p, n * 2);
          dst += n * 2;
        } else {
          for (uint64_t i = 0; i < n;
               ++i, p += st, dst += 2) {
            uint16_t v;
            std::memcpy(&v, p, 2);
            if constexpr (kSwap) v = byteswap16(v);
            std::memcpy(dst, &v, 2);
          }
        }
        break;
      case PrimitiveKind::kInt32:
      case PrimitiveKind::kFloat32:
        if (!kSwap && st == 4) {
          std::memcpy(dst, p, n * 4);
          dst += n * 4;
        } else {
          for (uint64_t i = 0; i < n;
               ++i, p += st, dst += 4) {
            uint32_t v;
            std::memcpy(&v, p, 4);
            if constexpr (kSwap) v = byteswap32(v);
            std::memcpy(dst, &v, 4);
          }
        }
        break;
      default:  // kInt64 / kFloat64 (variable kinds can't occur here)
        if (!kSwap && st == 8) {
          std::memcpy(dst, p, n * 8);
          dst += n * 8;
        } else {
          for (uint64_t i = 0; i < n;
               ++i, p += st, dst += 8) {
            uint64_t v;
            std::memcpy(&v, p, 8);
            if constexpr (kSwap) v = byteswap64(v);
            std::memcpy(dst, &v, 8);
          }
        }
        break;
    }
  }
  }
  return dst;
}

template <bool kSwap>
const uint8_t* decode_fixed_elems(const std::vector<PlanOp>& ops,
                                  uint8_t* base, uint64_t count,
                                  uint32_t stride, const uint8_t* src) {
  for (uint64_t elem = 0; elem < count; ++elem, base += stride) {
  for (const PlanOp& op : ops) {
    uint8_t* p = base + op.local_offset;
    if (op.op == PlanOp::Kind::kLoop) {
      src = decode_fixed_elems<kSwap>(op.elem_plan->ops(), p, op.elem_count,
                                      op.local_stride, src);
      continue;
    }
    const uint64_t n = op.unit_count;
    const uint32_t st = op.local_stride;
    switch (op.prim) {
      case PrimitiveKind::kChar:
        if (st == 1) {
          std::memcpy(p, src, n);
          src += n;
        } else {
          for (uint64_t i = 0; i < n; ++i, p += st)
            *p = *src++;
        }
        break;
      case PrimitiveKind::kInt16:
        if (!kSwap && st == 2) {
          std::memcpy(p, src, n * 2);
          src += n * 2;
        } else {
          for (uint64_t i = 0; i < n;
               ++i, p += st, src += 2) {
            uint16_t v;
            std::memcpy(&v, src, 2);
            if constexpr (kSwap) v = byteswap16(v);
            std::memcpy(p, &v, 2);
          }
        }
        break;
      case PrimitiveKind::kInt32:
      case PrimitiveKind::kFloat32:
        if (!kSwap && st == 4) {
          std::memcpy(p, src, n * 4);
          src += n * 4;
        } else {
          for (uint64_t i = 0; i < n;
               ++i, p += st, src += 4) {
            uint32_t v;
            std::memcpy(&v, src, 4);
            if constexpr (kSwap) v = byteswap32(v);
            std::memcpy(p, &v, 4);
          }
        }
        break;
      default:
        if (!kSwap && st == 8) {
          std::memcpy(p, src, n * 8);
          src += n * 8;
        } else {
          for (uint64_t i = 0; i < n;
               ++i, p += st, src += 8) {
            uint64_t v;
            std::memcpy(&v, src, 8);
            if constexpr (kSwap) v = byteswap64(v);
            std::memcpy(p, &v, 8);
          }
        }
        break;
    }
  }
  }
  return src;
}

void plan_encode(const TranslationPlan& plan, const uint8_t* base,
                 uint64_t begin, uint64_t end, TranslationHooks& hooks,
                 Buffer& out) {
  if (begin >= end) return;
  if (plan.isomorphic()) {
    uint64_t lo = plan.fixed_wire_offset_of(begin);
    uint64_t hi = plan.fixed_wire_offset_of(end);
    out.append(base + lo, hi - lo);
    return;
  }
  const bool swap = plan.swap();
  const std::vector<PlanOp>& ops = plan.ops();
  for (size_t i = plan.op_index(begin); i < ops.size() && begin < end; ++i) {
    const PlanOp& op = ops[i];
    uint64_t b = std::max(begin, op.first_unit);
    uint64_t e = std::min(end, op.first_unit + op.unit_count);
    if (b >= e) continue;
    uint64_t rel = b - op.first_unit;
    if (op.op == PlanOp::Kind::kRun) {
      encode_run(op, base + op.local_offset + rel * op.local_stride, e - b,
                 swap, hooks, out);
    } else {
      uint64_t upe = op.units_per_elem;
      uint64_t rel_end = e - op.first_unit;
      uint64_t el = rel / upe;
      if (rel % upe != 0) {  // ragged head element
        plan_encode(*op.elem_plan,
                    base + op.local_offset + el * op.local_stride,
                    rel - el * upe, std::min(rel_end - el * upe, upe), hooks,
                    out);
        ++el;
      }
      // Whole elements of a fixed-size loop: one reservation for the whole
      // span, then the straight-line compiled element program per element.
      uint64_t whole_end = rel_end / upe;
      if (el < whole_end && !op.elem_plan->variable()) {
        uint64_t count = whole_end - el;
        uint8_t* dst = out.extend(count * op.wire_per_elem);
        const uint8_t* p = base + op.local_offset + el * op.local_stride;
        if (swap) {
          encode_fixed_elems<true>(op.elem_plan->ops(), p, count,
                                   op.local_stride, dst);
        } else {
          encode_fixed_elems<false>(op.elem_plan->ops(), p, count,
                                    op.local_stride, dst);
        }
        el = whole_end;
      }
      for (; el * upe < rel_end; ++el) {  // variable elems / ragged tail
        plan_encode(*op.elem_plan,
                    base + op.local_offset + el * op.local_stride, 0,
                    std::min(rel_end - el * upe, upe), hooks, out);
      }
    }
    begin = e;
  }
}

void plan_decode(const TranslationPlan& plan, uint8_t* base, uint64_t begin,
                 uint64_t end, TranslationHooks& hooks, BufReader& in) {
  if (begin >= end) return;
  if (plan.isomorphic()) {
    uint64_t lo = plan.fixed_wire_offset_of(begin);
    uint64_t hi = plan.fixed_wire_offset_of(end);
    auto bytes = in.read_bytes(hi - lo);
    std::memcpy(base + lo, bytes.data(), bytes.size());
    return;
  }
  const bool swap = plan.swap();
  const std::vector<PlanOp>& ops = plan.ops();
  for (size_t i = plan.op_index(begin); i < ops.size() && begin < end; ++i) {
    const PlanOp& op = ops[i];
    uint64_t b = std::max(begin, op.first_unit);
    uint64_t e = std::min(end, op.first_unit + op.unit_count);
    if (b >= e) continue;
    uint64_t rel = b - op.first_unit;
    if (op.op == PlanOp::Kind::kRun) {
      decode_run(op, base + op.local_offset + rel * op.local_stride, e - b,
                 swap, hooks, in);
    } else {
      uint64_t upe = op.units_per_elem;
      uint64_t rel_end = e - op.first_unit;
      uint64_t el = rel / upe;
      if (rel % upe != 0) {  // ragged head element
        plan_decode(*op.elem_plan,
                    base + op.local_offset + el * op.local_stride,
                    rel - el * upe, std::min(rel_end - el * upe, upe), hooks,
                    in);
        ++el;
      }
      uint64_t whole_end = rel_end / upe;
      if (el < whole_end && !op.elem_plan->variable()) {
        uint64_t count = whole_end - el;
        const uint8_t* src = in.read_bytes(count * op.wire_per_elem).data();
        uint8_t* p = base + op.local_offset + el * op.local_stride;
        if (swap) {
          decode_fixed_elems<true>(op.elem_plan->ops(), p, count,
                                   op.local_stride, src);
        } else {
          decode_fixed_elems<false>(op.elem_plan->ops(), p, count,
                                    op.local_stride, src);
        }
        el = whole_end;
      }
      for (; el * upe < rel_end; ++el) {
        plan_decode(*op.elem_plan,
                    base + op.local_offset + el * op.local_stride, 0,
                    std::min(rel_end - el * upe, upe), hooks, in);
      }
    }
    begin = e;
  }
}

uint64_t plan_measure(const TranslationPlan& plan, const uint8_t* base,
                      uint64_t begin, uint64_t end, TranslationHooks& hooks) {
  if (begin >= end) return 0;
  if (!plan.variable()) {
    // Fixed-size plan: pure arithmetic, no hook calls, no data reads.
    return plan.fixed_wire_offset_of(end) - plan.fixed_wire_offset_of(begin);
  }
  uint64_t total = 0;
  const std::vector<PlanOp>& ops = plan.ops();
  for (size_t i = plan.op_index(begin); i < ops.size() && begin < end; ++i) {
    const PlanOp& op = ops[i];
    uint64_t b = std::max(begin, op.first_unit);
    uint64_t e = std::min(end, op.first_unit + op.unit_count);
    if (b >= e) continue;
    uint64_t rel = b - op.first_unit;
    if (op.op == PlanOp::Kind::kRun) {
      const uint8_t* p = base + op.local_offset + rel * op.local_stride;
      switch (op.prim) {
        case PrimitiveKind::kPointer: {
          Buffer unit;
          for (uint64_t u = b; u < e; ++u, p += op.local_stride) {
            unit.clear();
            hooks.swizzle_out(p, unit);
            total += unit.size();
          }
          break;
        }
        case PrimitiveKind::kString:
          for (uint64_t u = b; u < e; ++u, p += op.local_stride)
            total +=
                vstring_size(hooks.read_string(p, op.string_capacity).size());
          break;
        default:
          total += (e - b) * wire_size_of(op.prim);
          break;
      }
    } else {
      uint64_t upe = op.units_per_elem;
      uint64_t rel_end = e - op.first_unit;
      for (uint64_t el = rel / upe; el * upe < rel_end; ++el) {
        uint64_t eb = el * upe;
        uint64_t sub_b = rel > eb ? rel - eb : 0;
        uint64_t sub_e = std::min(rel_end - eb, upe);
        if (!op.elem_plan->variable() && sub_b == 0 && sub_e == upe) {
          // Whole element of a fixed-size loop: arithmetic, no recursion.
          total += op.wire_per_elem;
          continue;
        }
        total += plan_measure(*op.elem_plan,
                              base + op.local_offset + el * op.local_stride,
                              sub_b, sub_e, hooks);
      }
    }
    begin = e;
  }
  return total;
}

}  // namespace

void encode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  const void* base, uint64_t begin, uint64_t end,
                  TranslationHooks& hooks, Buffer& out) {
  if (begin >= end) return;
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  const size_t start = out.size();
  plan_encode(plan, static_cast<const uint8_t*>(base), begin, end, hooks, out);
#ifndef NDEBUG
  if (!plan.variable()) {
    check_internal(out.size() - start == plan.fixed_wire_offset_of(end) -
                                             plan.fixed_wire_offset_of(begin),
                   "plan encode emitted size != measured size");
  }
#endif
  if (TranslationCounters* c = type.translation_counters()) {
    c->bytes_encoded.fetch_add(out.size() - start, std::memory_order_relaxed);
    if (plan.isomorphic()) {
      c->isomorphic_fast_path_blocks.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void decode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  void* base, uint64_t begin, uint64_t end,
                  TranslationHooks& hooks, BufReader& in) {
  if (begin >= end) return;
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  const size_t before = in.remaining();
  plan_decode(plan, static_cast<uint8_t*>(base), begin, end, hooks, in);
  if (TranslationCounters* c = type.translation_counters()) {
    c->bytes_decoded.fetch_add(before - in.remaining(),
                               std::memory_order_relaxed);
    if (plan.isomorphic()) {
      c->isomorphic_fast_path_blocks.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::optional<uint64_t> fixed_wire_size(const TypeDescriptor& type,
                                        const LayoutRules& rules,
                                        uint64_t begin, uint64_t end) {
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  if (plan.variable()) return std::nullopt;
  if (begin >= end) return 0;
  return plan.fixed_wire_offset_of(end) - plan.fixed_wire_offset_of(begin);
}

uint64_t measure_units(const TypeDescriptor& type, const LayoutRules& rules,
                       const void* base, uint64_t begin, uint64_t end,
                       TranslationHooks& hooks) {
  if (begin >= end) return 0;
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  return plan_measure(plan, static_cast<const uint8_t*>(base), begin, end,
                      hooks);
}

}  // namespace iw
