// The translation engine behind encode_units / decode_units
// (wire/translate.hpp), templated on the hooks class.
//
// Instantiated with the TranslationHooks interface, every string or
// pointer unit costs a virtual call (wire/translate.cpp does this for
// callers whose hooks are not known at compile time). A caller whose hooks
// class is final includes this header and gets the encode_units /
// decode_units overloads at its end: the element loop then calls that
// class's hooks directly, and the compiler may inline them. The client
// library and the server store translate this way; the bytes are the same.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstring>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/endian.hpp"
#include "wire/translate.hpp"

namespace iw {
namespace translate_engine {

/// Position of a value's first string and first pointer unit within the
/// block being translated; a unit's hook index is this plus the plan's
/// prefix counts (PlanOp::strings_before / pointers_before).
struct VarPos {
  uint32_t str = 0;
  uint32_t ptr = 0;
};

/// The position of element `k` of loop `op` in a value at `pos`.
inline VarPos elem_pos(VarPos pos, const PlanOp& op, uint64_t k) {
  return {pos.str + op.strings_before +
              static_cast<uint32_t>(k * op.elem_plan->string_units()),
          pos.ptr + op.pointers_before +
              static_cast<uint32_t>(k * op.elem_plan->pointer_units())};
}

template <typename U, bool kSwap>
inline U to_wire(U v) {
  if constexpr (kSwap && sizeof(U) == 2) v = byteswap16(v);
  if constexpr (kSwap && sizeof(U) == 4) v = byteswap32(v);
  if constexpr (kSwap && sizeof(U) == 8) v = byteswap64(v);
  return v;
}

// Bulk encode/decode of a homogeneous numeric run: the hot loop of Figure
// 4/5, tight memcpy or byteswap loops over room reserved ahead (the
// type-descriptor runs are what let InterWeave beat rpcgen's per-element
// function-pointer dispatch).
template <typename U, bool kSwap>
inline uint8_t* put_numeric(const uint8_t* p, uint64_t n, uint32_t stride,
                            uint8_t* dst) {
  if (!kSwap && stride == sizeof(U)) {
    std::memcpy(dst, p, n * sizeof(U));
    return dst + n * sizeof(U);
  }
  for (uint64_t i = 0; i < n; ++i, p += stride, dst += sizeof(U)) {
    U v;
    std::memcpy(&v, p, sizeof(U));
    v = to_wire<U, kSwap>(v);
    std::memcpy(dst, &v, sizeof(U));
  }
  return dst;
}

template <typename U, bool kSwap>
inline const uint8_t* get_numeric(uint8_t* p, uint64_t n, uint32_t stride,
                                  const uint8_t* src) {
  if (!kSwap && stride == sizeof(U)) {
    std::memcpy(p, src, n * sizeof(U));
    return src + n * sizeof(U);
  }
  for (uint64_t i = 0; i < n; ++i, p += stride, src += sizeof(U)) {
    U v;
    std::memcpy(&v, src, sizeof(U));
    v = to_wire<U, kSwap>(v);
    std::memcpy(p, &v, sizeof(U));
  }
  return src;
}

template <bool kSwap>
inline const uint8_t* get_numeric_run(PrimitiveKind prim, uint8_t* p,
                                      uint64_t n, uint32_t stride,
                                      const uint8_t* src) {
  switch (prim) {
    case PrimitiveKind::kChar:
      return get_numeric<uint8_t, false>(p, n, stride, src);
    case PrimitiveKind::kInt16:
      return get_numeric<uint16_t, kSwap>(p, n, stride, src);
    case PrimitiveKind::kInt32:
    case PrimitiveKind::kFloat32:
      return get_numeric<uint32_t, kSwap>(p, n, stride, src);
    default:
      return get_numeric<uint64_t, kSwap>(p, n, stride, src);
  }
}

/// Copies `n` bytes. A record's strings are mostly short: copies of at most
/// 64 bytes take fixed-size moves here (the last one overlapping) instead
/// of a library call each.
inline void copy_bytes(uint8_t* dst, const void* src, size_t n) {
  const auto* s = static_cast<const uint8_t*>(src);
  if (n > 64) {
    std::memcpy(dst, s, n);
  } else if (n > 16) {
    for (size_t i = 0; i + 16 < n; i += 16) std::memcpy(dst + i, s + i, 16);
    std::memcpy(dst + n - 16, s + n - 16, 16);
  } else if (n >= 8) {
    uint64_t head, tail;
    std::memcpy(&head, s, 8);
    std::memcpy(&tail, s + n - 8, 8);
    std::memcpy(dst, &head, 8);
    std::memcpy(dst + n - 8, &tail, 8);
  } else if (n >= 4) {
    uint32_t head, tail;
    std::memcpy(&head, s, 4);
    std::memcpy(&tail, s + n - 4, 4);
    std::memcpy(dst, &head, 4);
    std::memcpy(dst + n - 4, &tail, 4);
  } else {
    for (size_t i = 0; i < n; ++i) dst[i] = s[i];
  }
}

/// Zeroes `n` bytes, as copy_bytes copies them.
inline void zero_bytes(uint8_t* dst, size_t n) {
  constexpr uint64_t kZero = 0;
  if (n > 64) {
    std::memset(dst, 0, n);
  } else if (n > 16) {
    constexpr uint8_t kZeros[16] = {};
    for (size_t i = 0; i + 16 < n; i += 16) std::memcpy(dst + i, kZeros, 16);
    std::memcpy(dst + n - 16, kZeros, 16);
  } else if (n >= 8) {
    std::memcpy(dst, &kZero, 8);
    std::memcpy(dst + n - 8, &kZero, 8);
  } else if (n >= 4) {
    std::memcpy(dst, &kZero, 4);
    std::memcpy(dst + n - 4, &kZero, 4);
  } else {
    for (size_t i = 0; i < n; ++i) dst[i] = 0;
  }
}

/// Copies the inline string unit at `s` (NUL-terminated, or filling its
/// `capacity`) to `dst`, which has room for `capacity` bytes, and returns
/// its length: one pass that finds the NUL 16 or 8 bytes at a time while
/// it copies them, instead of strnlen and then memcpy. Bytes past the NUL
/// may be copied too; the caller keeps only the length. Nothing outside
/// the `capacity` bytes of either side is touched.
inline size_t copy_cstring(uint8_t* dst, const char* s, uint32_t capacity) {
  uint32_t off = 0;
#if defined(__SSE2__)
  for (; off + 16 <= capacity; off += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + off));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + off), v);
    const auto zero = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128())));
    if (zero != 0) return off + std::countr_zero(zero);
  }
#endif
  if constexpr (kHostLittleEndian) {
    for (; off + 8 <= capacity; off += 8) {
      uint64_t v;
      std::memcpy(&v, s + off, 8);
      std::memcpy(dst + off, &v, 8);
      // The lowest set bit marks the first zero byte (bits above it may
      // be false positives, which countr_zero never sees).
      const uint64_t zero =
          (v - 0x0101010101010101u) & ~v & 0x8080808080808080u;
      if (zero != 0) return off + (std::countr_zero(zero) >> 3);
    }
  }
  for (; off < capacity; ++off) {
    if (s[off] == '\0') return off;
    dst[off] = static_cast<uint8_t>(s[off]);
  }
  return capacity;
}

/// Writes the string unit of the `len` bytes at `s` to `dst`, which has
/// room for it.
inline uint8_t* put_vstring(uint8_t* dst, const char* s, size_t len) {
  dst += encode_varint(len, dst);
  copy_bytes(dst, s, len);
  return dst + len;
}

/// What the encoder carries through the element loop. It writes through a
/// raw cursor into room reserved in `out` from the plan's bound. A unit
/// past the bound (an out-of-line string longer than its capacity, which a
/// store may hold, or a cross-segment MIP) is appended through the buffer
/// instead, and `bound` bytes are reserved afresh: no less than what the
/// reservation it interrupted had left to cover.
template <typename Hooks>
struct Encoder {
  Hooks& hooks;
  Buffer& out;
  uint64_t bound;
  bool inline_strings;

  [[gnu::noinline]] uint8_t* spill_vstring(uint8_t* dst, std::string_view s) {
    out.truncate(static_cast<size_t>(dst - out.data()));
    out.append_vstring(s);
    return out.extend(bound);
  }
  [[gnu::noinline]] uint8_t* spill_cross(uint8_t* dst, std::string_view mip) {
    out.truncate(static_cast<size_t>(dst - out.data()));
    append_cross_pointer_tag(out);
    out.append_vstring(mip);
    return out.extend(bound);
  }
};

template <bool kSwap, typename Hooks, bool kReserveEach = false>
uint8_t* encode_elems(const TranslationPlan& plan, const uint8_t* base,
                      uint64_t count, uint32_t stride, VarPos pos,
                      Encoder<Hooks>& enc, uint8_t* dst);

/// Encodes all of `op` (a run, or a loop over whole elements), whose first
/// unit is at `p`, at `dst`, which has room for the op's bound. `pos` is
/// the position of the value that holds the op.
template <bool kSwap, typename Hooks>
[[gnu::always_inline]] inline uint8_t* encode_op(const PlanOp& op,
                                                 const uint8_t* p, VarPos pos,
                                                 Encoder<Hooks>& enc, uint8_t* dst) {
  const uint64_t n = op.unit_count;
  const uint32_t st = op.local_stride;
  if (op.op == PlanOp::Kind::kLoop) {
    return encode_elems<kSwap, Hooks>(*op.elem_plan, p, op.elem_count, st,
                               elem_pos(pos, op, 0), enc, dst);
  }
  switch (op.prim) {
    case PrimitiveKind::kString: {
      const uint32_t cap = op.string_capacity;
      if (enc.inline_strings) {
        for (uint64_t i = 0; i < n; ++i, p += st) {
          const char* s = reinterpret_cast<const char*>(p);
          if (cap < 0x80) {  // a one-byte length: copy first, then set it
            const size_t len = copy_cstring(dst + 1, s, cap);
            *dst = static_cast<uint8_t>(len);
            dst += 1 + len;
          } else {
            dst = put_vstring(dst, s, strnlen(s, cap));
          }
        }
        return dst;
      }
      uint32_t index = pos.str + op.strings_before;
      for (uint64_t i = 0; i < n; ++i, p += st) {
        const std::string_view s = enc.hooks.read_string(p, cap, index++);
        if (s.size() > cap) [[unlikely]] {
          dst = enc.spill_vstring(dst, s);
        } else {
          dst = put_vstring(dst, s.data(), s.size());
        }
      }
      return dst;
    }
    case PrimitiveKind::kPointer: {
      uint32_t index = pos.ptr + op.pointers_before;
      for (uint64_t i = 0; i < n; ++i, p += st) {
        const PointerUnit u = enc.hooks.swizzle_out(p, index++);
        if (u.tag == PointerTag::kIntra) [[likely]] {
          dst = put_intra_pointer(dst, u.serial, u.unit);
        } else if (u.tag == PointerTag::kNull) {
          *dst++ = 0;
        } else {
          dst = enc.spill_cross(dst, u.mip);
        }
      }
      return dst;
    }
    // Numeric kinds, each in its own case: one dispatch per op.
    case PrimitiveKind::kChar:
      return put_numeric<uint8_t, false>(p, n, st, dst);
    case PrimitiveKind::kInt16:
      return put_numeric<uint16_t, kSwap>(p, n, st, dst);
    case PrimitiveKind::kInt32:
    case PrimitiveKind::kFloat32:
      return put_numeric<uint32_t, kSwap>(p, n, st, dst);
    case PrimitiveKind::kInt64:
    case PrimitiveKind::kFloat64:
      return put_numeric<uint64_t, kSwap>(p, n, st, dst);
  }
  return dst;
}

/// The element loop: encodes `count` whole elements of `plan` at `stride`,
/// every op of each in turn, with no per-element plan search. With
/// kReserveEach, each element first reserves room for its bound (and
/// `dst` is unused); otherwise `dst` already has room for all of them.
template <bool kSwap, typename Hooks, bool kReserveEach>
uint8_t* encode_elems(const TranslationPlan& plan, const uint8_t* base,
                      uint64_t count, uint32_t stride, VarPos pos,
                      Encoder<Hooks>& enc, uint8_t* dst) {
  const PlanOp* const ops = plan.ops().data();
  const size_t n_ops = plan.ops().size();
  const uint64_t bound = plan.max_wire_size();
  for (uint64_t el = 0; el < count; ++el, base += stride) {
    if constexpr (kReserveEach) dst = enc.out.extend(bound);
    for (size_t i = 0; i < n_ops; ++i) {
      dst = encode_op<kSwap, Hooks>(ops[i], base + ops[i].local_offset, pos,
                                    enc, dst);
    }
    if constexpr (kReserveEach) {
      enc.out.truncate(static_cast<size_t>(dst - enc.out.data()));
    }
    pos.str += plan.string_units();
    pos.ptr += plan.pointer_units();
  }
  return dst;
}

/// Units [from, from + count) of run `op`, as a run of their own.
inline PlanOp sub_run(const PlanOp& op, uint64_t from, uint64_t count) {
  PlanOp part = op;
  part.first_unit += from;
  part.unit_count = count;
  part.local_offset += static_cast<uint32_t>(from * op.local_stride);
  if (op.prim == PrimitiveKind::kString) {
    part.strings_before += static_cast<uint32_t>(from);
  } else if (op.prim == PrimitiveKind::kPointer) {
    part.pointers_before += static_cast<uint32_t>(from);
  }
  return part;
}

/// Most wire bytes one unit of run `op` takes (see Encoder).
inline uint64_t unit_bound(const PlanOp& op) {
  switch (op.prim) {
    case PrimitiveKind::kString:
      return varint_size(op.string_capacity) + op.string_capacity;
    case PrimitiveKind::kPointer:
      return kMaxIntraPointerBytes;
    default:
      return wire_size_of(op.prim);
  }
}

/// A run of strings or pointers is reserved in steps of at most this.
inline constexpr uint64_t kRunStepBytes = 16 * 1024;

/// Most bytes reserved ahead for a span of elements (see plan_encode).
inline constexpr uint64_t kMaxSpanReserve = 64 << 20;

/// Reserves `bound` bytes, runs `fn` (which encodes into them), and keeps
/// what it wrote.
template <typename Hooks, typename F>
void reserve_and_encode(Encoder<Hooks>& enc, uint64_t bound, F&& fn) {
  enc.bound = bound;
  uint8_t* dst = fn(enc.out.extend(bound));
  enc.out.truncate(static_cast<size_t>(dst - enc.out.data()));
}

/// Encodes units [begin, end) of the value of `plan` at `base`, whose
/// first string and pointer units are at `pos`.
template <bool kSwap, typename Hooks>
void plan_encode(const TranslationPlan& plan, const uint8_t* base,
                 uint64_t begin, uint64_t end, VarPos pos, Encoder<Hooks>& enc) {
  const std::vector<PlanOp>& ops = plan.ops();
  for (size_t i = plan.op_index(begin); i < ops.size() && begin < end; ++i) {
    const PlanOp& op = ops[i];
    const uint64_t b = std::max(begin, op.first_unit);
    const uint64_t e = std::min(end, op.first_unit + op.unit_count);
    if (b >= e) continue;
    begin = e;
    const uint64_t rel = b - op.first_unit;
    const uint64_t rel_end = e - op.first_unit;
    if (op.op == PlanOp::Kind::kRun) {
      const uint64_t ub = unit_bound(op);
      const uint64_t step = op.prim == PrimitiveKind::kString ||
                                    op.prim == PrimitiveKind::kPointer
                                ? std::max<uint64_t>(1, kRunStepBytes / ub)
                                : rel_end - rel;
      for (uint64_t u = rel; u < rel_end; u += step) {
        const PlanOp part = sub_run(op, u, std::min(step, rel_end - u));
        reserve_and_encode(enc, part.unit_count * ub, [&](uint8_t* dst) {
          return encode_op<kSwap, Hooks>(part, base + part.local_offset, pos, enc,
                                  dst);
        });
      }
      continue;
    }
    const TranslationPlan& ep = *op.elem_plan;
    const uint64_t upe = op.units_per_elem;
    auto elem_at = [&](uint64_t k) {
      return base + op.local_offset + k * op.local_stride;
    };
    uint64_t el = rel / upe;
    if (rel % upe != 0) {  // ragged head element
      plan_encode<kSwap, Hooks>(ep, elem_at(el), rel - el * upe,
                         std::min(rel_end - el * upe, upe),
                         elem_pos(pos, op, el), enc);
      ++el;
    }
    const uint64_t whole_end = rel_end / upe;
    if (el < whole_end && !ep.variable()) {
      // Fixed elements: one exact reservation for the whole span.
      const uint64_t count = whole_end - el;
      reserve_and_encode(enc, count * op.wire_per_elem, [&](uint8_t* dst) {
        return encode_elems<kSwap, Hooks>(ep, elem_at(el), count, op.local_stride,
                                   elem_pos(pos, op, el), enc, dst);
      });
      el = whole_end;
    }
    if (el < whole_end) {
      // Elements with strings or pointers: one reservation per element,
      // from its bound. The span's allocation is made up front (up to a
      // limit), so the buffer neither moves nor faults pages in twice.
      const uint64_t count = whole_end - el;
      const uint64_t span = count * ep.max_wire_size();
      if (span <= kMaxSpanReserve) enc.out.reserve(enc.out.size() + span);
      enc.bound = ep.max_wire_size();
      encode_elems<kSwap, Hooks, true>(ep, elem_at(el), count,
                                       op.local_stride, elem_pos(pos, op, el),
                                       enc, nullptr);
      el = whole_end;
    }
    if (el * upe < rel_end) {  // ragged tail element
      plan_encode<kSwap, Hooks>(ep, elem_at(el), 0, rel_end - el * upe,
                         elem_pos(pos, op, el), enc);
    }
  }
}

/// Decodes `count` whole elements of a fixed-wire plan from `src`, which
/// holds all of them.
template <bool kSwap>
const uint8_t* decode_fixed_elems(const TranslationPlan& plan, uint8_t* base,
                                  uint64_t count, uint32_t stride,
                                  const uint8_t* src) {
  const PlanOp* const ops = plan.ops().data();
  const size_t n_ops = plan.ops().size();
  for (uint64_t el = 0; el < count; ++el, base += stride) {
    for (size_t i = 0; i < n_ops; ++i) {
      const PlanOp& op = ops[i];
      uint8_t* p = base + op.local_offset;
      if (op.op == PlanOp::Kind::kLoop) {
        src = decode_fixed_elems<kSwap>(*op.elem_plan, p, op.elem_count,
                                        op.local_stride, src);
      } else {
        src = get_numeric_run<kSwap>(op.prim, p, op.unit_count,
                                     op.local_stride, src);
      }
    }
  }
  return src;
}

/// Reads through a BufReader over [p, end) for the cases the decoder's
/// own cursor leaves to it, and returns where that reader stopped.
template <typename T, typename F>
[[gnu::noinline]] const uint8_t* read_slow(const uint8_t* p,
                                           const uint8_t* end, T* value,
                                           F&& read) {
  BufReader r(p, static_cast<size_t>(end - p));
  *value = read(r);
  return r.cursor();
}

/// The decoder's input: the unread bytes, as a value. The loops pass it in
/// and return it, so it stays in registers: a BufReader in memory would be
/// reloaded after every store into the block, which may alias it. Reads
/// are bounds-checked; the rare cases go through a BufReader (read_slow).
struct Input {
  const uint8_t* p;
  const uint8_t* end;

  const uint8_t* take(size_t n) {
    if (static_cast<size_t>(end - p) < n) [[unlikely]] {
      BufReader(p, static_cast<size_t>(end - p)).skip(n);  // throws
    }
    const uint8_t* at = p;
    p += n;
    return at;
  }
  /// Reads a well-formed varint of at most three bytes (BufReader's rules:
  /// no zero last byte after the first); false, reading nothing, for any
  /// other, or with fewer than three bytes left.
  bool short_varint(uint32_t* v) {
    if (end - p < 3) return false;
    const uint32_t b0 = p[0];
    const uint32_t b1 = p[1];
    const uint32_t b2 = p[2];
    if (b0 < 0x80) {
      *v = b0;
      p += 1;
    } else if (b1 < 0x80) {
      if (b1 == 0) return false;
      *v = (b0 & 0x7F) | b1 << 7;
      p += 2;
    } else {
      if (b2 == 0 || b2 >= 0x80) return false;
      *v = (b0 & 0x7F) | (b1 & 0x7F) << 7 | b2 << 14;
      p += 3;
    }
    return true;
  }
  std::string_view vstring() {
    uint32_t len;
    if (!short_varint(&len)) [[unlikely]] {
      p = read_slow(p, end, &len,
                    [](BufReader& r) { return r.read_varint32(); });
    }
    return {reinterpret_cast<const char*>(take(len)), len};
  }
  /// read_pointer_unit: an intra-segment unit whose varints are short
  /// inline, any other through BufReader.
  PointerUnit pointer_unit() {
    const uint8_t* const at = p;
    uint32_t head;
    uint32_t unit;
    if (short_varint(&head) && (head & 3) == 1 && head > 1 &&
        short_varint(&unit)) [[likely]] {
      return {PointerTag::kIntra, head >> 2, unit, {}};
    }
    PointerUnit u;
    p = read_slow(at, end, &u, [](BufReader& r) { return read_pointer_unit(r); });
    return u;
  }
};

template <typename Hooks>
struct Decoder {
  Hooks& hooks;
  bool inline_strings;
};

template <bool kSwap, typename Hooks>
Input decode_elems(const TranslationPlan& plan, uint8_t* base, uint64_t count,
                   uint32_t stride, VarPos pos, Decoder<Hooks>& dec,
                   Input in);

/// Decodes all of `op`, whose first unit is at `p`, from `in`; `pos` as
/// for encode_op. Returns what is left of `in`.
template <bool kSwap, typename Hooks>
[[gnu::always_inline]] inline Input decode_op(const PlanOp& op, uint8_t* p,
                                              VarPos pos, Decoder<Hooks>& dec,
                                              Input in) {
  const uint64_t n = op.unit_count;
  const uint32_t st = op.local_stride;
  if (op.op == PlanOp::Kind::kLoop) {
    const TranslationPlan& ep = *op.elem_plan;
    if (ep.variable()) {
      return decode_elems<kSwap, Hooks>(ep, p, op.elem_count, st,
                                        elem_pos(pos, op, 0), dec, in);
    }
    decode_fixed_elems<kSwap>(ep, p, op.elem_count, st,
                              in.take(op.elem_count * op.wire_per_elem));
    return in;
  }
  switch (op.prim) {
    case PrimitiveKind::kString: {
      // The view into the input is copied before the next read, so no
      // string is allocated per unit.
      const uint32_t cap = op.string_capacity;
      if (dec.inline_strings) {
        for (uint64_t i = 0; i < n; ++i, p += st) {
          const std::string_view s = in.vstring();
          const size_t len = std::min<size_t>(s.size(), cap);
          copy_bytes(p, s.data(), len);
          zero_bytes(p + len, cap - len);
        }
        return in;
      }
      uint32_t index = pos.str + op.strings_before;
      for (uint64_t i = 0; i < n; ++i, p += st) {
        dec.hooks.write_string(p, cap, index++, in.vstring());
      }
      return in;
    }
    case PrimitiveKind::kPointer: {
      uint32_t index = pos.ptr + op.pointers_before;
      for (uint64_t i = 0; i < n; ++i, p += st) {
        BufReader r(in.p, static_cast<size_t>(in.end - in.p));
        dec.hooks.swizzle_in(r, p, index++);
        in.p = r.cursor();
      }
      return in;
    }
    case PrimitiveKind::kChar:
      get_numeric<uint8_t, false>(p, n, st, in.take(n));
      return in;
    case PrimitiveKind::kInt16:
      get_numeric<uint16_t, kSwap>(p, n, st, in.take(n * 2));
      return in;
    case PrimitiveKind::kInt32:
    case PrimitiveKind::kFloat32:
      get_numeric<uint32_t, kSwap>(p, n, st, in.take(n * 4));
      return in;
    case PrimitiveKind::kInt64:
    case PrimitiveKind::kFloat64:
      get_numeric<uint64_t, kSwap>(p, n, st, in.take(n * 8));
      return in;
  }
  return in;
}

/// The element loop of decoding (see encode_elems).
template <bool kSwap, typename Hooks>
Input decode_elems(const TranslationPlan& plan, uint8_t* base, uint64_t count,
                   uint32_t stride, VarPos pos, Decoder<Hooks>& dec,
                   Input in) {
  const PlanOp* const ops = plan.ops().data();
  const size_t n_ops = plan.ops().size();
  for (uint64_t el = 0; el < count; ++el, base += stride) {
    for (size_t i = 0; i < n_ops; ++i) {
      in = decode_op<kSwap, Hooks>(ops[i], base + ops[i].local_offset, pos,
                                   dec, in);
    }
    pos.str += plan.string_units();
    pos.ptr += plan.pointer_units();
  }
  return in;
}

template <bool kSwap, typename Hooks>
Input plan_decode(const TranslationPlan& plan, uint8_t* base, uint64_t begin,
                  uint64_t end, VarPos pos, Decoder<Hooks>& dec, Input in) {
  const std::vector<PlanOp>& ops = plan.ops();
  for (size_t i = plan.op_index(begin); i < ops.size() && begin < end; ++i) {
    const PlanOp& op = ops[i];
    const uint64_t b = std::max(begin, op.first_unit);
    const uint64_t e = std::min(end, op.first_unit + op.unit_count);
    if (b >= e) continue;
    begin = e;
    const uint64_t rel = b - op.first_unit;
    const uint64_t rel_end = e - op.first_unit;
    if (op.op == PlanOp::Kind::kRun) {
      const PlanOp part = sub_run(op, rel, rel_end - rel);
      in = decode_op<kSwap, Hooks>(part, base + part.local_offset, pos, dec,
                                   in);
      continue;
    }
    const TranslationPlan& ep = *op.elem_plan;
    const uint64_t upe = op.units_per_elem;
    auto elem_at = [&](uint64_t k) {
      return base + op.local_offset + k * op.local_stride;
    };
    uint64_t el = rel / upe;
    if (rel % upe != 0) {  // ragged head element
      in = plan_decode<kSwap, Hooks>(ep, elem_at(el), rel - el * upe,
                                     std::min(rel_end - el * upe, upe),
                                     elem_pos(pos, op, el), dec, in);
      ++el;
    }
    const uint64_t whole_end = rel_end / upe;
    if (el < whole_end) {
      const uint64_t count = whole_end - el;
      if (ep.variable()) {
        in = decode_elems<kSwap, Hooks>(ep, elem_at(el), count,
                                        op.local_stride, elem_pos(pos, op, el),
                                        dec, in);
      } else {
        decode_fixed_elems<kSwap>(ep, elem_at(el), count, op.local_stride,
                                  in.take(count * op.wire_per_elem));
      }
      el = whole_end;
    }
    if (el * upe < rel_end) {  // ragged tail element
      in = plan_decode<kSwap, Hooks>(ep, elem_at(el), 0, rel_end - el * upe,
                                     elem_pos(pos, op, el), dec, in);
    }
  }
  return in;
}

template <typename Hooks>
void encode_planned(const TranslationPlan& plan, const uint8_t* base,
                    uint64_t begin, uint64_t end, Hooks& hooks, Buffer& out) {
  if (plan.isomorphic()) {
    const uint64_t lo = plan.fixed_wire_offset_of(begin);
    const uint64_t hi = plan.fixed_wire_offset_of(end);
    out.append(base + lo, hi - lo);
    return;
  }
  Encoder<Hooks> enc{hooks, out, 0, plan.inline_strings()};
  if (plan.swap()) {
    plan_encode<true, Hooks>(plan, base, begin, end, {}, enc);
  } else {
    plan_encode<false, Hooks>(plan, base, begin, end, {}, enc);
  }
}

template <typename Hooks>
void encode(const TypeDescriptor& type, const LayoutRules& rules,
            const void* base, uint64_t begin, uint64_t end, Hooks& hooks,
            Buffer& out) {
  if (begin >= end) return;
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  const size_t start = out.size();
  encode_planned(plan, static_cast<const uint8_t*>(base), begin, end, hooks,
                 out);
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

template <typename Hooks>
void decode(const TypeDescriptor& type, const LayoutRules& rules, void* base,
            uint64_t begin, uint64_t end, Hooks& hooks, BufReader& in) {
  if (begin >= end) return;
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  const size_t before = in.remaining();
  auto* b = static_cast<uint8_t*>(base);
  if (plan.isomorphic()) {
    const uint64_t lo = plan.fixed_wire_offset_of(begin);
    const uint64_t hi = plan.fixed_wire_offset_of(end);
    auto bytes = in.read_bytes(hi - lo);
    std::memcpy(b + lo, bytes.data(), bytes.size());
  } else {
    Decoder<Hooks> dec{hooks, plan.inline_strings()};
    const Input whole{in.cursor(), in.cursor() + in.remaining()};
    const Input rest = plan.swap()
                           ? plan_decode<true, Hooks>(plan, b, begin, end, {},
                                                      dec, whole)
                           : plan_decode<false, Hooks>(plan, b, begin, end, {},
                                                       dec, whole);
    in.skip(static_cast<size_t>(rest.p - whole.p));
  }
  if (TranslationCounters* c = type.translation_counters()) {
    c->bytes_decoded.fetch_add(before - in.remaining(),
                               std::memory_order_relaxed);
    if (plan.isomorphic()) {
      c->isomorphic_fast_path_blocks.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace translate_engine

/// encode_units for a final hooks class: no virtual dispatch per unit.
template <typename Hooks>
  requires std::derived_from<Hooks, TranslationHooks> && std::is_final_v<Hooks>
void encode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  const void* base, uint64_t begin, uint64_t end,
                  Hooks& hooks, Buffer& out) {
  translate_engine::encode(type, rules, base, begin, end, hooks, out);
}

/// decode_units for a final hooks class: no virtual dispatch per unit.
template <typename Hooks>
  requires std::derived_from<Hooks, TranslationHooks> && std::is_final_v<Hooks>
void decode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  void* base, uint64_t begin, uint64_t end, Hooks& hooks,
                  BufReader& in) {
  translate_engine::decode(type, rules, base, begin, end, hooks, in);
}

}  // namespace iw
