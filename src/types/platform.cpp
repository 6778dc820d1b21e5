#include "types/platform.hpp"

#include "util/endian.hpp"

namespace iw {

const char* primitive_kind_name(PrimitiveKind kind) noexcept {
  switch (kind) {
    case PrimitiveKind::kChar: return "char";
    case PrimitiveKind::kInt16: return "int16";
    case PrimitiveKind::kInt32: return "int32";
    case PrimitiveKind::kInt64: return "int64";
    case PrimitiveKind::kFloat32: return "float32";
    case PrimitiveKind::kFloat64: return "float64";
    case PrimitiveKind::kPointer: return "pointer";
    case PrimitiveKind::kString: return "string";
  }
  return "?";
}

namespace {
constexpr int k(PrimitiveKind kind) { return static_cast<int>(kind); }

LayoutRules make_rules(ByteOrder order, uint8_t ptr_size, uint8_t ptr_align,
                       uint8_t max_align) {
  LayoutRules r;
  r.byte_order = order;
  auto set = [&](PrimitiveKind kind, uint8_t size, uint8_t align) {
    r.size[k(kind)] = size;
    r.align[k(kind)] = static_cast<uint8_t>(align > max_align ? max_align : align);
  };
  set(PrimitiveKind::kChar, 1, 1);
  set(PrimitiveKind::kInt16, 2, 2);
  set(PrimitiveKind::kInt32, 4, 4);
  set(PrimitiveKind::kInt64, 8, 8);
  set(PrimitiveKind::kFloat32, 4, 4);
  set(PrimitiveKind::kFloat64, 8, 8);
  set(PrimitiveKind::kPointer, ptr_size, ptr_align);
  // kString's size/align are per-type (capacity); the table stores the
  // element (char) properties used to scale it.
  set(PrimitiveKind::kString, 1, 1);
  return r;
}
}  // namespace

LayoutRules LayoutRules::packed_canonical() noexcept {
  LayoutRules r;
  r.byte_order = ByteOrder::kBig;
  for (int i = 0; i < kNumPrimitiveKinds; ++i) {
    r.size[i] = static_cast<uint8_t>(wire_size_of(static_cast<PrimitiveKind>(i)));
    r.align[i] = 1;
  }
  r.size[k(PrimitiveKind::kPointer)] = kPackedPointerBytes;
  r.inline_strings = false;
  return r;
}

Platform Platform::native() {
  Platform p;
  p.name = "native-x86_64";
  p.rules = make_rules(
      kHostLittleEndian ? ByteOrder::kLittle : ByteOrder::kBig, 8, 8, 8);
  return p;
}

Platform Platform::sparc32() {
  Platform p;
  p.name = "sparc32";
  p.rules = make_rules(ByteOrder::kBig, 4, 4, 8);
  return p;
}

Platform Platform::big64() {
  Platform p;
  p.name = "big64";
  p.rules = make_rules(ByteOrder::kBig, 8, 8, 8);
  return p;
}

Platform Platform::packed_le32() {
  Platform p;
  p.name = "packed-le32";
  p.rules = make_rules(ByteOrder::kLittle, 4, 2, 2);
  return p;
}

}  // namespace iw
