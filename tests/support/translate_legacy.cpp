// The pre-plan translation path: recursive descent over the descriptor
// tree via visit_runs, with the flat-run struct-array fast path. It is the
// reference oracle for the differential tests in wire_translate_test and
// the planned-vs-legacy comparison in bench/translate_plan; the runtime
// only ships the plan-compiled engine (wire/translate.hpp).
#include "translate_legacy.hpp"

#include <algorithm>
#include <cstring>

#include "util/endian.hpp"

namespace iw {

namespace {

/// The position the hooks are handed for the unit at `p`: the legacy path
/// asks the type for it, unit by unit.
uint32_t var_index(const TypeDescriptor& type, PrimitiveKind kind,
                   const uint8_t* base, const uint8_t* p) {
  return type.var_unit_index(kind, static_cast<uint32_t>(p - base));
}

/// A string unit: inline, or through the hooks (the translation contract of
/// wire/translate.hpp).
std::string_view read_string(const TypeDescriptor& type,
                             const LayoutRules& rules, const uint8_t* base,
                             const uint8_t* p, uint32_t capacity,
                             TranslationHooks& hooks) {
  if (rules.inline_strings) {
    const char* s = reinterpret_cast<const char*>(p);
    return {s, strnlen(s, capacity)};
  }
  return hooks.read_string(p, capacity,
                           var_index(type, PrimitiveKind::kString, base, p));
}

void write_string(const TypeDescriptor& type, const LayoutRules& rules,
                  const uint8_t* base, uint8_t* p, uint32_t capacity,
                  std::string_view content, TranslationHooks& hooks) {
  if (rules.inline_strings) {
    const size_t n = std::min<size_t>(content.size(), capacity);
    std::memcpy(p, content.data(), n);
    std::memset(p + n, 0, capacity - n);
    return;
  }
  hooks.write_string(p, capacity,
                     var_index(type, PrimitiveKind::kString, base, p),
                     content);
}

void append_pointer(Buffer& out, const PointerUnit& u) {
  switch (u.tag) {
    case PointerTag::kNull:
      append_null_pointer(out);
      break;
    case PointerTag::kIntra:
      append_intra_pointer(out, u.serial, u.unit);
      break;
    case PointerTag::kCross:
      append_cross_pointer_tag(out);
      out.append_vstring(u.mip);
      break;
  }
}

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

inline uint64_t vstring_size(size_t len) { return varint_size(len) + len; }



/// Per-element encoder over a struct's precomputed flat runs: one buffer
/// reservation for all elements, then tight copy/swap loops. Only valid for
/// fixed-wire-size structs (no strings/pointers).
template <bool kSwap>
void encode_flat_elements(const std::vector<PrimRun>& runs,
                          const uint8_t* first_elem, uint64_t count,
                          uint32_t elem_stride, uint64_t elem_wire,
                          Buffer& out) {
  uint8_t* dst = out.extend(count * elem_wire);
  for (uint64_t e = 0; e < count; ++e, first_elem += elem_stride) {
    for (const PrimRun& run : runs) {
      const uint8_t* p = first_elem + run.local_offset;
      switch (run.kind) {
        case PrimitiveKind::kChar:
          std::memcpy(dst, p, run.unit_count);
          dst += run.unit_count;
          break;
        case PrimitiveKind::kInt16:
          for (uint64_t i = 0; i < run.unit_count;
               ++i, p += run.local_stride, dst += 2) {
            uint16_t v;
            std::memcpy(&v, p, 2);
            if constexpr (kSwap) v = byteswap16(v);
            std::memcpy(dst, &v, 2);
          }
          break;
        case PrimitiveKind::kInt32:
        case PrimitiveKind::kFloat32:
          for (uint64_t i = 0; i < run.unit_count;
               ++i, p += run.local_stride, dst += 4) {
            uint32_t v;
            std::memcpy(&v, p, 4);
            if constexpr (kSwap) v = byteswap32(v);
            std::memcpy(dst, &v, 4);
          }
          break;
        default:  // kInt64 / kFloat64 (variable kinds are excluded)
          for (uint64_t i = 0; i < run.unit_count;
               ++i, p += run.local_stride, dst += 8) {
            uint64_t v;
            std::memcpy(&v, p, 8);
            if constexpr (kSwap) v = byteswap64(v);
            std::memcpy(dst, &v, 8);
          }
          break;
      }
    }
  }
}

template <bool kSwap>
void decode_flat_elements(const std::vector<PrimRun>& runs,
                          uint8_t* first_elem, uint64_t count,
                          uint32_t elem_stride, uint64_t elem_wire,
                          BufReader& in) {
  const uint8_t* src = in.read_bytes(count * elem_wire).data();
  for (uint64_t e = 0; e < count; ++e, first_elem += elem_stride) {
    for (const PrimRun& run : runs) {
      uint8_t* p = first_elem + run.local_offset;
      switch (run.kind) {
        case PrimitiveKind::kChar:
          std::memcpy(p, src, run.unit_count);
          src += run.unit_count;
          break;
        case PrimitiveKind::kInt16:
          for (uint64_t i = 0; i < run.unit_count;
               ++i, p += run.local_stride, src += 2) {
            uint16_t v;
            std::memcpy(&v, src, 2);
            if constexpr (kSwap) v = byteswap16(v);
            std::memcpy(p, &v, 2);
          }
          break;
        case PrimitiveKind::kInt32:
        case PrimitiveKind::kFloat32:
          for (uint64_t i = 0; i < run.unit_count;
               ++i, p += run.local_stride, src += 4) {
            uint32_t v;
            std::memcpy(&v, src, 4);
            if constexpr (kSwap) v = byteswap32(v);
            std::memcpy(p, &v, 4);
          }
          break;
        default:
          for (uint64_t i = 0; i < run.unit_count;
               ++i, p += run.local_stride, src += 8) {
            uint64_t v;
            std::memcpy(&v, src, 8);
            if constexpr (kSwap) v = byteswap64(v);
            std::memcpy(p, &v, 8);
          }
          break;
      }
    }
  }
}

/// When `type` is an array of fast-encodable structs and [begin, end)
/// covers at least one whole element, returns that element range.
struct FlatSpan {
  uint64_t first_elem;
  uint64_t last_elem;  // exclusive
  const TypeDescriptor* elem;
};
bool flat_span(const TypeDescriptor& type, uint64_t begin, uint64_t end,
               FlatSpan* span) {
  if (type.kind() != TypeKind::kArray) return false;
  const TypeDescriptor* elem = type.element();
  if (elem->kind() != TypeKind::kStruct || elem->flat_runs().empty()) {
    return false;
  }
  uint64_t eu = elem->prim_units();
  uint64_t first = (begin + eu - 1) / eu;
  uint64_t last = end / eu;
  if (first >= last) return false;
  span->first_elem = first;
  span->last_elem = last;
  span->elem = elem;
  return true;
}

}  // namespace

void encode_units_legacy(const TypeDescriptor& type, const LayoutRules& rules,
                         const void* base, uint64_t begin, uint64_t end,
                         TranslationHooks& hooks, Buffer& out) {
  const auto* b = static_cast<const uint8_t*>(base);
  const bool local_is_wire_order = rules.byte_order == ByteOrder::kBig;

  FlatSpan span;
  if (flat_span(type, begin, end, &span)) {
    uint64_t eu = span.elem->prim_units();
    if (begin < span.first_elem * eu) {  // ragged head
      encode_units_legacy(type, rules, base, begin, span.first_elem * eu,
                          hooks, out);
    }
    const uint8_t* first = b + span.first_elem * type.element_stride();
    if (local_is_wire_order) {
      encode_flat_elements<false>(span.elem->flat_runs(), first,
                                  span.last_elem - span.first_elem,
                                  type.element_stride(),
                                  span.elem->fixed_wire_size(), out);
    } else {
      encode_flat_elements<true>(span.elem->flat_runs(), first,
                                 span.last_elem - span.first_elem,
                                 type.element_stride(),
                                 span.elem->fixed_wire_size(), out);
    }
    if (span.last_elem * eu < end) {  // ragged tail
      encode_units_legacy(type, rules, base, span.last_elem * eu, end, hooks,
                          out);
    }
    return;
  }

  type.visit_runs(begin, end, [&](const PrimRun& run) {
    const uint8_t* p = b + run.local_offset;
    switch (run.kind) {
      case PrimitiveKind::kChar:
        if (run.local_stride == 1) {
          out.append(p, run.unit_count);
        } else {
          for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride)
            out.append_u8(*p);
        }
        break;
      case PrimitiveKind::kInt16:
        if (local_is_wire_order) {
          encode_numeric_run<uint16_t, false>(p, run.unit_count,
                                              run.local_stride, out);
        } else {
          encode_numeric_run<uint16_t, true>(p, run.unit_count,
                                             run.local_stride, out);
        }
        break;
      case PrimitiveKind::kInt32:
      case PrimitiveKind::kFloat32:
        if (local_is_wire_order) {
          encode_numeric_run<uint32_t, false>(p, run.unit_count,
                                              run.local_stride, out);
        } else {
          encode_numeric_run<uint32_t, true>(p, run.unit_count,
                                             run.local_stride, out);
        }
        break;
      case PrimitiveKind::kInt64:
      case PrimitiveKind::kFloat64:
        if (local_is_wire_order) {
          encode_numeric_run<uint64_t, false>(p, run.unit_count,
                                              run.local_stride, out);
        } else {
          encode_numeric_run<uint64_t, true>(p, run.unit_count,
                                             run.local_stride, out);
        }
        break;
      case PrimitiveKind::kPointer:
        for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride)
          append_pointer(out, hooks.swizzle_out(
                                  p, var_index(type, run.kind, b, p)));
        break;
      case PrimitiveKind::kString:
        for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride)
          out.append_vstring(
              read_string(type, rules, b, p, run.string_capacity, hooks));
        break;
    }
  });
}

void decode_units_legacy(const TypeDescriptor& type, const LayoutRules& rules,
                         void* base, uint64_t begin, uint64_t end,
                         TranslationHooks& hooks, BufReader& in) {
  auto* b = static_cast<uint8_t*>(base);
  const bool local_is_wire_order = rules.byte_order == ByteOrder::kBig;

  FlatSpan span;
  if (flat_span(type, begin, end, &span)) {
    uint64_t eu = span.elem->prim_units();
    if (begin < span.first_elem * eu) {
      decode_units_legacy(type, rules, base, begin, span.first_elem * eu,
                          hooks, in);
    }
    uint8_t* first = b + span.first_elem * type.element_stride();
    if (local_is_wire_order) {
      decode_flat_elements<false>(span.elem->flat_runs(), first,
                                  span.last_elem - span.first_elem,
                                  type.element_stride(),
                                  span.elem->fixed_wire_size(), in);
    } else {
      decode_flat_elements<true>(span.elem->flat_runs(), first,
                                 span.last_elem - span.first_elem,
                                 type.element_stride(),
                                 span.elem->fixed_wire_size(), in);
    }
    if (span.last_elem * eu < end) {
      decode_units_legacy(type, rules, base, span.last_elem * eu, end, hooks,
                          in);
    }
    return;
  }

  type.visit_runs(begin, end, [&](const PrimRun& run) {
    uint8_t* p = b + run.local_offset;
    switch (run.kind) {
      case PrimitiveKind::kChar:
        if (run.local_stride == 1) {
          auto bytes = in.read_bytes(run.unit_count);
          std::memcpy(p, bytes.data(), bytes.size());
        } else {
          for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride)
            *p = in.read_u8();
        }
        break;
      case PrimitiveKind::kInt16:
        if (local_is_wire_order) {
          decode_numeric_run<uint16_t, false>(p, run.unit_count,
                                              run.local_stride, in);
        } else {
          decode_numeric_run<uint16_t, true>(p, run.unit_count,
                                             run.local_stride, in);
        }
        break;
      case PrimitiveKind::kInt32:
      case PrimitiveKind::kFloat32:
        if (local_is_wire_order) {
          decode_numeric_run<uint32_t, false>(p, run.unit_count,
                                              run.local_stride, in);
        } else {
          decode_numeric_run<uint32_t, true>(p, run.unit_count,
                                             run.local_stride, in);
        }
        break;
      case PrimitiveKind::kInt64:
      case PrimitiveKind::kFloat64:
        if (local_is_wire_order) {
          decode_numeric_run<uint64_t, false>(p, run.unit_count,
                                              run.local_stride, in);
        } else {
          decode_numeric_run<uint64_t, true>(p, run.unit_count,
                                             run.local_stride, in);
        }
        break;
      case PrimitiveKind::kPointer:
        for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride) {
          hooks.swizzle_in(in, p, var_index(type, run.kind, b, p));
        }
        break;
      case PrimitiveKind::kString:
        for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride) {
          write_string(type, rules, b, p, run.string_capacity,
                       in.read_vstring_view(), hooks);
        }
        break;
    }
  });
}

uint64_t measure_units_legacy(const TypeDescriptor& type,
                              const LayoutRules& rules, const void* base,
                              uint64_t begin, uint64_t end,
                              TranslationHooks& hooks) {
  const auto* b = static_cast<const uint8_t*>(base);
  uint64_t total = 0;
  type.visit_runs(begin, end, [&](const PrimRun& run) {
    switch (run.kind) {
      case PrimitiveKind::kPointer: {
        const uint8_t* p = b + run.local_offset;
        Buffer unit;
        for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride) {
          unit.clear();
          append_pointer(unit,
                         hooks.swizzle_out(p, var_index(type, run.kind, b, p)));
          total += unit.size();
        }
        break;
      }
      case PrimitiveKind::kString: {
        const uint8_t* p = b + run.local_offset;
        for (uint64_t i = 0; i < run.unit_count; ++i, p += run.local_stride)
          total += vstring_size(
              read_string(type, rules, b, p, run.string_capacity, hooks)
                  .size());
        break;
      }
      default:
        total += run.unit_count * wire_size_of(run.kind);
        break;
    }
  });
  return total;
}

}  // namespace iw
