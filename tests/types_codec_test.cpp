// Tests for TypeCodec: serializing descriptor graphs to the wire and
// reconstructing them in a registry with different layout rules — the
// client-registers-types-with-server path.
#include <gtest/gtest.h>

#include <optional>

#include "types/registry.hpp"
#include "util/buffer.hpp"

namespace iw {
namespace {

/// Encodes on `src` rules, decodes into a registry with `dst` rules.
const TypeDescriptor* roundtrip(const TypeDescriptor* t, TypeRegistry& dst) {
  Buffer buf;
  TypeCodec::encode_graph(t, buf);
  BufReader r(buf.span());
  const TypeDescriptor* out = TypeCodec::decode_graph(r, dst);
  EXPECT_TRUE(r.at_end());
  return out;
}

TEST(TypeCodec, PrimitiveRoundTrip) {
  TypeRegistry src(Platform::native().rules);
  TypeRegistry dst(LayoutRules::packed_canonical());
  const TypeDescriptor* t = roundtrip(src.primitive(PrimitiveKind::kFloat64), dst);
  EXPECT_EQ(t->kind(), TypeKind::kPrimitive);
  EXPECT_EQ(t->primitive(), PrimitiveKind::kFloat64);
  EXPECT_EQ(t->local_size(), 8u);  // canonical
}

TEST(TypeCodec, StringRoundTripChangesLocalSize) {
  TypeRegistry src(Platform::native().rules);
  TypeRegistry dst(LayoutRules::packed_canonical());
  const TypeDescriptor* t = roundtrip(src.string_type(256), dst);
  EXPECT_EQ(t->kind(), TypeKind::kString);
  EXPECT_EQ(t->string_capacity(), 256u);
  // Packed canonical stores strings as 4-byte out-of-line slots.
  EXPECT_EQ(t->local_size(), 4u);
}

TEST(TypeCodec, StructPreservesPrimOffsetsAcrossRules) {
  TypeRegistry src(Platform::native().rules);
  TypeRegistry dst(LayoutRules::packed_canonical());
  const TypeDescriptor* s = src.struct_builder("rec")
      .field("c", src.primitive(PrimitiveKind::kChar))
      .field("d", src.primitive(PrimitiveKind::kFloat64))
      .field("s", src.string_type(16))
      .finish();
  const TypeDescriptor* out = roundtrip(s, dst);
  ASSERT_EQ(out->kind(), TypeKind::kStruct);
  ASSERT_EQ(out->fields().size(), s->fields().size());
  for (size_t i = 0; i < s->fields().size(); ++i) {
    EXPECT_EQ(out->fields()[i].prim_offset, s->fields()[i].prim_offset);
    EXPECT_EQ(out->fields()[i].name, s->fields()[i].name);
  }
  EXPECT_EQ(out->prim_units(), s->prim_units());
  // Packed layout: char@0, double@1, slot@9 — no padding.
  EXPECT_EQ(out->fields()[1].local_offset, 1u);
  EXPECT_EQ(out->fields()[2].local_offset, 9u);
  EXPECT_EQ(out->local_size(), 13u);
}

TEST(TypeCodec, RecursiveListNodeRoundTrip) {
  TypeRegistry src(Platform::native().rules);
  TypeRegistry dst(Platform::sparc32().rules);
  const TypeDescriptor* node = src.struct_builder("node")
      .field("key", src.primitive(PrimitiveKind::kInt32))
      .self_pointer_field("next")
      .finish();
  const TypeDescriptor* out = roundtrip(node, dst);
  ASSERT_EQ(out->kind(), TypeKind::kStruct);
  ASSERT_EQ(out->fields().size(), 2u);
  const TypeDescriptor* next = out->fields()[1].type;
  ASSERT_EQ(next->kind(), TypeKind::kPointer);
  EXPECT_EQ(next->pointee(), out) << "cycle must close on the decoded node";
  // sparc32: 4-byte pointers, so node = int32 + ptr32 = 8 bytes.
  EXPECT_EQ(out->local_size(), 8u);
}

TEST(TypeCodec, MutuallyRecursiveStructs) {
  TypeRegistry src(Platform::native().rules);
  // a { b* pb }; b { a* pa } — build b with an opaque-then-fixed pointer by
  // declaring a first with a self-ish shape: emulate mutual recursion via
  // two-step: a points to b, b points back to a.
  const TypeDescriptor* a = src.struct_builder("a")
      .field("x", src.primitive(PrimitiveKind::kInt32))
      .self_pointer_field("pa")
      .finish();
  const TypeDescriptor* b = src.struct_builder("b")
      .field("pa", src.pointer_to(a))
      .field("y", src.primitive(PrimitiveKind::kFloat64))
      .finish();
  TypeRegistry dst(LayoutRules::packed_canonical());
  const TypeDescriptor* out = roundtrip(b, dst);
  ASSERT_EQ(out->fields().size(), 2u);
  const TypeDescriptor* pa = out->fields()[0].type;
  ASSERT_EQ(pa->kind(), TypeKind::kPointer);
  ASSERT_NE(pa->pointee(), nullptr);
  EXPECT_EQ(pa->pointee()->struct_name(), "a");
  // And a's own self-cycle survived.
  EXPECT_EQ(pa->pointee()->fields()[1].type->pointee(), pa->pointee());
}

TEST(TypeCodec, OpaquePointerRoundTrip) {
  TypeRegistry src(Platform::native().rules);
  TypeRegistry dst(Platform::native().rules);
  const TypeDescriptor* t = roundtrip(src.pointer_to(nullptr), dst);
  EXPECT_EQ(t->kind(), TypeKind::kPointer);
  EXPECT_EQ(t->pointee(), nullptr);
}

TEST(TypeCodec, ArrayOfStructsRoundTrip) {
  TypeRegistry src(Platform::native().rules);
  TypeRegistry dst(LayoutRules::packed_canonical());
  const TypeDescriptor* pair = src.struct_builder("pair")
      .field("i", src.primitive(PrimitiveKind::kInt32))
      .field("d", src.primitive(PrimitiveKind::kFloat64))
      .finish();
  const TypeDescriptor* arr = src.array_of(pair, 50);
  const TypeDescriptor* out = roundtrip(arr, dst);
  ASSERT_EQ(out->kind(), TypeKind::kArray);
  EXPECT_EQ(out->count(), 50u);
  EXPECT_EQ(out->prim_units(), 100u);
  EXPECT_EQ(out->element_stride(), 12u);  // packed: 4 + 8
}

TEST(TypeCodec, GarbageInputThrowsProtocol) {
  TypeRegistry dst(Platform::native().rules);
  Buffer buf;
  buf.append_u32(1);
  buf.append_u8(99);  // bad tag
  BufReader r(buf.span());
  EXPECT_THROW(TypeCodec::decode_graph(r, dst), Error);

  Buffer empty;
  empty.append_u32(0);
  BufReader r2(empty.span());
  EXPECT_THROW(TypeCodec::decode_graph(r2, dst), Error);
}

TEST(TypeCodec, OutOfRangeIndexThrows) {
  TypeRegistry dst(Platform::native().rules);
  Buffer buf;
  buf.append_u32(1);
  buf.append_u8(3);       // array
  buf.append_u64(4);      // count
  buf.append_u32(7);      // element index out of range
  BufReader r(buf.span());
  EXPECT_THROW(TypeCodec::decode_graph(r, dst), Error);
}

/// A hand-built graph: entry 0 is a struct with one field of entry 1 per
/// element of `fields` (or, when `fields` is 0, an array of 2 of entry 1),
/// entry 1 is int32[`count`], entry 2 is int32.
Buffer big_graph(uint64_t count, uint32_t fields) {
  Buffer buf;
  buf.append_u32(3);
  if (fields == 0) {
    buf.append_u8(3);  // array
    buf.append_u64(2);
    buf.append_u32(1);
  } else {
    buf.append_u8(4);  // struct
    buf.append_lp_string("s");
    buf.append_u32(fields);
    for (uint32_t f = 0; f < fields; ++f) {
      buf.append_lp_string("f" + std::to_string(f));
      buf.append_u32(1);
    }
  }
  buf.append_u8(3);  // array
  buf.append_u64(count);
  buf.append_u32(2);
  buf.append_u8(0);  // primitive
  buf.append_u8(static_cast<uint8_t>(PrimitiveKind::kInt32));
  return buf;
}

/// Decodes `graph`; returns the error code, or none when it decoded.
std::optional<ErrorCode> decode_error(const Buffer& graph) {
  TypeRegistry dst(Platform::native().rules);
  BufReader r(graph.span());
  try {
    TypeCodec::decode_graph(r, dst);
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(TypeCodec, TypesTooLargeFor32BitsAreProtocolErrors) {
  // One 2 GiB field decodes; two sum to 2^32 bytes and do not.
  EXPECT_EQ(decode_error(big_graph(uint64_t{1} << 29, 1)), std::nullopt);
  EXPECT_EQ(decode_error(big_graph(uint64_t{1} << 29, 2)),
            ErrorCode::kProtocol);
  // int32[2^30 + 1] would wrap to a 4-byte local size.
  EXPECT_EQ(decode_error(big_graph((uint64_t{1} << 30) + 1, 1)),
            ErrorCode::kProtocol);
  // Each int32[2^30 - 1] fits; an array of two does not.
  EXPECT_EQ(decode_error(big_graph((uint64_t{1} << 30) - 1, 0)),
            ErrorCode::kProtocol);
}

TEST(TypeCodec, RefusedGraphsLeaveTheRegistryUnchanged) {
  TypeRegistry dst(Platform::native().rules);
  dst.array_of(dst.primitive(PrimitiveKind::kInt32), 3);
  const size_t before = dst.size();
  // Each graph is refused after some of its descriptors were built: a
  // struct whose two 2 GiB fields overflow, a struct whose array field
  // wraps 32 bits, and a struct whose second field names no entry.
  Buffer bad_index;
  bad_index.append_u32(2);
  bad_index.append_u8(4);  // struct
  bad_index.append_lp_string("s");
  bad_index.append_u32(2);
  bad_index.append_lp_string("a");
  bad_index.append_u32(1);
  bad_index.append_lp_string("b");
  bad_index.append_u32(9);  // out of range
  bad_index.append_u8(0);   // primitive
  bad_index.append_u8(static_cast<uint8_t>(PrimitiveKind::kInt64));
  for (const Buffer& graph :
       {big_graph(uint64_t{1} << 29, 2), big_graph((uint64_t{1} << 30) + 1, 1),
        bad_index}) {
    BufReader r(graph.span());
    EXPECT_THROW(TypeCodec::decode_graph(r, dst), Error);
    EXPECT_EQ(dst.size(), before);
  }
  // The registry still takes a good graph.
  Buffer good = big_graph(4, 1);
  BufReader r(good.span());
  EXPECT_EQ(TypeCodec::decode_graph(r, dst)->prim_units(), 4u);
  EXPECT_TRUE(r.at_end());
}

TEST(TypeCodec, EncodeIsDeterministic) {
  TypeRegistry src(Platform::native().rules);
  const TypeDescriptor* s = src.struct_builder("s")
      .field("a", src.array_of(src.primitive(PrimitiveKind::kInt16), 3))
      .field("b", src.string_type(9))
      .finish();
  Buffer b1, b2;
  TypeCodec::encode_graph(s, b1);
  TypeCodec::encode_graph(s, b2);
  ASSERT_EQ(b1.size(), b2.size());
  EXPECT_EQ(0, memcmp(b1.data(), b2.data(), b1.size()));
}

}  // namespace
}  // namespace iw
