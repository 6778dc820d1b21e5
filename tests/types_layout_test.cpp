// Layout tests: per-platform sizes/alignments, machine-independent primitive
// offsets, locate_prim/unit_at_local_offset consistency, run visitation, and
// the isomorphic-descriptor transform.
#include <gtest/gtest.h>

#include <functional>

#include "types/registry.hpp"
#include "util/rand.hpp"

namespace iw {
namespace {

TEST(Platform, NativeMatchesHostAbi) {
  Platform p = Platform::native();
  EXPECT_EQ(p.rules.size[static_cast<int>(PrimitiveKind::kInt32)], 4);
  EXPECT_EQ(p.rules.size[static_cast<int>(PrimitiveKind::kPointer)],
            sizeof(void*));
  EXPECT_EQ(p.rules.align[static_cast<int>(PrimitiveKind::kFloat64)],
            alignof(double));
}

TEST(Platform, PresetsDiffer) {
  EXPECT_EQ(Platform::sparc32().rules.byte_order, ByteOrder::kBig);
  EXPECT_EQ(Platform::sparc32().rules.size[static_cast<int>(PrimitiveKind::kPointer)], 4);
  EXPECT_EQ(Platform::packed_le32().rules.align[static_cast<int>(PrimitiveKind::kFloat64)], 2);
  EXPECT_EQ(LayoutRules::packed_canonical().byte_order, ByteOrder::kBig);
  for (int i = 0; i < kNumPrimitiveKinds; ++i) {
    EXPECT_EQ(LayoutRules::packed_canonical().align[i], 1);
  }
}

TEST(TypeRegistry, PrimitiveSingletonsInterned) {
  TypeRegistry reg(Platform::native().rules);
  EXPECT_EQ(reg.primitive(PrimitiveKind::kInt32),
            reg.primitive(PrimitiveKind::kInt32));
  EXPECT_NE(reg.primitive(PrimitiveKind::kInt32),
            reg.primitive(PrimitiveKind::kInt64));
  EXPECT_THROW(reg.primitive(PrimitiveKind::kPointer), Error);
  EXPECT_THROW(reg.primitive(PrimitiveKind::kString), Error);
}

TEST(TypeRegistry, ArrayLayout) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr = reg.array_of(reg.primitive(PrimitiveKind::kInt32), 10);
  EXPECT_EQ(arr->kind(), TypeKind::kArray);
  EXPECT_EQ(arr->local_size(), 40u);
  EXPECT_EQ(arr->prim_units(), 10u);
  EXPECT_EQ(arr->element_stride(), 4u);
  EXPECT_EQ(arr, reg.array_of(reg.primitive(PrimitiveKind::kInt32), 10));
}

TEST(TypeRegistry, StructLayoutWithPaddingNative) {
  // struct { char c; double d; int i; } — native x86-64: offsets 0, 8, 16,
  // size 24 (tail padded to 8).
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* s = reg.struct_builder("padded")
      .field("c", reg.primitive(PrimitiveKind::kChar))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .finish();
  ASSERT_EQ(s->fields().size(), 3u);
  EXPECT_EQ(s->fields()[0].local_offset, 0u);
  EXPECT_EQ(s->fields()[1].local_offset, 8u);
  EXPECT_EQ(s->fields()[2].local_offset, 16u);
  EXPECT_EQ(s->local_size(), 24u);
  EXPECT_EQ(s->local_align(), 8u);
  // Primitive offsets are machine-independent and dense: 0, 1, 2.
  EXPECT_EQ(s->fields()[0].prim_offset, 0u);
  EXPECT_EQ(s->fields()[1].prim_offset, 1u);
  EXPECT_EQ(s->fields()[2].prim_offset, 2u);
  EXPECT_EQ(s->prim_units(), 3u);
}

TEST(TypeRegistry, SameStructDifferentPlatformDifferentLocalSamePrim) {
  TypeRegistry native(Platform::native().rules);
  TypeRegistry packed(Platform::packed_le32().rules);
  auto build = [](TypeRegistry& reg) {
    return reg.struct_builder("mixed")
        .field("c", reg.primitive(PrimitiveKind::kChar))
        .field("d", reg.primitive(PrimitiveKind::kFloat64))
        .field("p", reg.pointer_to(reg.primitive(PrimitiveKind::kInt32)))
        .finish();
  };
  const TypeDescriptor* a = build(native);
  const TypeDescriptor* b = build(packed);
  EXPECT_NE(a->local_size(), b->local_size());       // 24 vs 2+8+4=14
  EXPECT_EQ(b->fields()[1].local_offset, 2u);        // align 2 on packed
  EXPECT_EQ(a->prim_units(), b->prim_units());       // identical unit space
  EXPECT_EQ(a->fields()[2].prim_offset, b->fields()[2].prim_offset);
}

TEST(TypeRegistry, StringTypeLayout) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* s = reg.string_type(256);
  EXPECT_EQ(s->local_size(), 256u);
  EXPECT_EQ(s->prim_units(), 1u);  // one primitive data unit, per the paper
  EXPECT_TRUE(s->has_variable_wire_size());
  EXPECT_THROW(reg.string_type(0), Error);
}

TEST(TypeRegistry, SelfReferentialStruct) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* node = reg.struct_builder("node")
      .field("key", reg.primitive(PrimitiveKind::kInt32))
      .self_pointer_field("next")
      .finish();
  ASSERT_EQ(node->fields().size(), 2u);
  const TypeDescriptor* next = node->fields()[1].type;
  EXPECT_EQ(next->kind(), TypeKind::kPointer);
  EXPECT_EQ(next->pointee(), node);
  EXPECT_EQ(node->local_size(), 16u);  // int + pad + 8-byte pointer
}

TEST(TypeRegistry, IsomorphicCollapsesConsecutiveSameKindFields) {
  TypeRegistry reg(Platform::native().rules);
  StructBuilder b = reg.struct_builder("int_struct");
  for (int i = 0; i < 32; ++i) {
    b.field("f" + std::to_string(i), reg.primitive(PrimitiveKind::kInt32));
  }
  const TypeDescriptor* s = b.finish();
  ASSERT_EQ(s->fields().size(), 1u);  // collapsed into one int[32]
  EXPECT_EQ(s->fields()[0].type->kind(), TypeKind::kArray);
  EXPECT_EQ(s->fields()[0].type->count(), 32u);
  EXPECT_EQ(s->prim_units(), 32u);
  EXPECT_EQ(s->local_size(), 128u);
}

TEST(TypeRegistry, IsomorphicDisabledKeepsFields) {
  TypeRegistry::Options opts;
  opts.isomorphic_descriptors = false;
  TypeRegistry reg(Platform::native().rules, opts);
  StructBuilder b = reg.struct_builder("int_struct");
  for (int i = 0; i < 32; ++i) {
    b.field("f" + std::to_string(i), reg.primitive(PrimitiveKind::kInt32));
  }
  const TypeDescriptor* s = b.finish();
  EXPECT_EQ(s->fields().size(), 32u);
  EXPECT_EQ(s->prim_units(), 32u);
  EXPECT_EQ(s->local_size(), 128u);  // layout identical either way
}

TEST(TypeRegistry, IsomorphicDoesNotCrossKindBoundaries) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* s = reg.struct_builder("mixed")
      .field("a", reg.primitive(PrimitiveKind::kInt32))
      .field("b", reg.primitive(PrimitiveKind::kInt32))
      .field("c", reg.primitive(PrimitiveKind::kFloat64))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .finish();
  ASSERT_EQ(s->fields().size(), 2u);
  EXPECT_EQ(s->fields()[0].type->count(), 2u);
  EXPECT_EQ(s->fields()[1].type->count(), 2u);
  EXPECT_EQ(s->fields()[1].prim_offset, 2u);
}

TEST(TypeDescriptor, LocatePrimWalksNestedTypes) {
  TypeRegistry reg(Platform::native().rules);
  // struct { int i; double d[2]; char name[8(string)]; }
  const TypeDescriptor* s = reg.struct_builder("rec")
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .field("d", reg.array_of(reg.primitive(PrimitiveKind::kFloat64), 2))
      .field("name", reg.string_type(8))
      .finish();
  // Units: 0 = i, 1..2 = d[0..1], 3 = name.
  EXPECT_EQ(s->prim_units(), 4u);
  PrimLocation u0 = s->locate_prim(0);
  EXPECT_EQ(u0.kind, PrimitiveKind::kInt32);
  EXPECT_EQ(u0.local_offset, 0u);
  PrimLocation u2 = s->locate_prim(2);
  EXPECT_EQ(u2.kind, PrimitiveKind::kFloat64);
  EXPECT_EQ(u2.local_offset, 16u);
  PrimLocation u3 = s->locate_prim(3);
  EXPECT_EQ(u3.kind, PrimitiveKind::kString);
  EXPECT_EQ(u3.local_offset, 24u);
  EXPECT_EQ(u3.string_capacity, 8u);
  EXPECT_THROW(s->locate_prim(4), Error);
}

TEST(TypeDescriptor, UnitAtLocalOffsetInverse) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* s = reg.struct_builder("rec")
      .field("c", reg.primitive(PrimitiveKind::kChar))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .field("i", reg.array_of(reg.primitive(PrimitiveKind::kInt32), 4))
      .finish();
  // Offsets: c@0, d@8, i@16..31; padding 1..7.
  EXPECT_EQ(s->unit_at_local_offset(0).unit_index, 0u);
  // Bytes inside padding map to the following unit.
  EXPECT_EQ(s->unit_at_local_offset(3).unit_index, 1u);
  EXPECT_EQ(s->unit_at_local_offset(8).unit_index, 1u);
  EXPECT_EQ(s->unit_at_local_offset(15).unit_index, 1u);
  EXPECT_EQ(s->unit_at_local_offset(16).unit_index, 2u);
  EXPECT_EQ(s->unit_at_local_offset(19).unit_index, 2u);
  EXPECT_EQ(s->unit_at_local_offset(20).unit_index, 3u);
  EXPECT_EQ(s->unit_at_local_offset(31).unit_index, 5u);
  EXPECT_EQ(s->unit_at_local_offset(31).local_offset, 28u);
}

// The unit-containing-offset walk as first written (per level: divide,
// clamp the element index, clamp into the element or field), kept here as
// the reference the direct arithmetic must agree with at every offset.
UnitAtOffset reference_unit_at(const TypeDescriptor* type, uint32_t offset) {
  const TypeDescriptor* t = type;
  uint64_t unit = 0;
  uint32_t base = 0;
  if (offset >= type->local_size()) {
    offset = type->local_size() ? type->local_size() - 1 : 0;
  }
  for (;;) {
    const uint32_t rel = offset - base;
    switch (t->kind()) {
      case TypeKind::kPrimitive:
      case TypeKind::kString:
      case TypeKind::kPointer:
        return {unit, base};
      case TypeKind::kArray: {
        uint64_t e = rel / t->element_stride();
        if (e >= t->count()) e = t->count() - 1;
        base += static_cast<uint32_t>(e * t->element_stride());
        unit += e * t->element()->prim_units();
        if (offset - base >= t->element()->local_size()) {
          offset = base + t->element()->local_size() - 1;
        }
        t = t->element();
        break;
      }
      case TypeKind::kStruct: {
        const auto& fields = t->fields();
        size_t i = 0;
        while (i + 1 < fields.size() && fields[i + 1].local_offset <= rel) ++i;
        if (rel >= fields[i].local_offset + fields[i].type->local_size() &&
            i + 1 < fields.size()) {
          ++i;
        }
        const auto& f = fields[i];
        base += f.local_offset;
        unit += f.prim_offset;
        if (offset < base) offset = base;
        if (offset - base >= f.type->local_size()) {
          offset = base + f.type->local_size() - 1;
        }
        t = f.type;
        break;
      }
    }
  }
}

TEST(TypeDescriptor, UnitAtLocalOffsetPaddingAndClamping) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* rec = reg.struct_builder("rec")
      .field("c", reg.primitive(PrimitiveKind::kChar))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .finish();
  // c@0, padding 1..7, d@8, i@16, tail padding 20..23; stride 24.
  ASSERT_EQ(rec->local_size(), 24u);
  const TypeDescriptor* recs = reg.array_of(rec, 3);
  auto unit = [&](uint32_t off) { return recs->unit_at_local_offset(off); };
  EXPECT_EQ(unit(0).unit_index, 0u);
  for (uint32_t off = 1; off <= 15; ++off) {
    EXPECT_EQ(unit(off).unit_index, 1u) << off;  // padding: the next unit
    EXPECT_EQ(unit(off).local_offset, 8u) << off;
  }
  for (uint32_t off = 16; off <= 23; ++off) {
    // An element's tail padding maps to its own last unit.
    EXPECT_EQ(unit(off).unit_index, 2u) << off;
    EXPECT_EQ(unit(off).local_offset, 16u) << off;
  }
  EXPECT_EQ(unit(24).unit_index, 3u);
  EXPECT_EQ(unit(24 + 5).unit_index, 4u);
  // Past the end clamps to the last unit.
  for (uint32_t off : {71u, 72u, 1000u, UINT32_MAX}) {
    EXPECT_EQ(unit(off).unit_index, 8u) << off;
    EXPECT_EQ(unit(off).local_offset, 64u) << off;
  }

  // Every offset of a family of nested shapes, on every platform, agrees
  // with the reference walk.
  for (const Platform& platform :
       {Platform::native(), Platform::sparc32(), Platform::big64(),
        Platform::packed_le32()}) {
    TypeRegistry r(platform.rules);
    const TypeDescriptor* inner = r.struct_builder("inner")
        .field("a", r.primitive(PrimitiveKind::kChar))
        .field("s", r.string_type(5))
        .field("b", r.primitive(PrimitiveKind::kInt64))
        .field("c", r.primitive(PrimitiveKind::kInt16))
        .finish();
    const TypeDescriptor* shapes[] = {
        r.array_of(inner, 4),
        r.array_of(r.array_of(inner, 2), 3),
        r.array_of(r.string_type(5), 6),
        r.struct_builder("outer")
            .field("x", r.primitive(PrimitiveKind::kInt16))
            .field("arr", r.array_of(inner, 3))
            .field("p", r.pointer_to(inner))
            .field("tail", r.array_of(r.primitive(PrimitiveKind::kChar), 3))
            .finish(),
        r.primitive(PrimitiveKind::kFloat64),
    };
    for (const TypeDescriptor* shape : shapes) {
      for (uint32_t off = 0; off < shape->local_size() + 9; ++off) {
        const UnitAtOffset got = shape->unit_at_local_offset(off);
        const UnitAtOffset want = reference_unit_at(shape, off);
        ASSERT_EQ(got.unit_index, want.unit_index) << off;
        ASSERT_EQ(got.local_offset, want.local_offset) << off;
      }
    }
  }
}

// Property: for every unit, unit_at_local_offset(locate_prim(u)) == u, on
// every platform, for a family of generated nested types.
class LocateRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(LocateRoundTrip, LocateAndUnitAtAgree) {
  Platform platform;
  std::string name = GetParam();
  if (name == "native") platform = Platform::native();
  else if (name == "sparc32") platform = Platform::sparc32();
  else if (name == "big64") platform = Platform::big64();
  else platform = Platform::packed_le32();

  TypeRegistry reg(platform.rules);
  const TypeDescriptor* inner = reg.struct_builder("inner")
      .field("a", reg.primitive(PrimitiveKind::kChar))
      .field("b", reg.primitive(PrimitiveKind::kInt64))
      .field("s", reg.string_type(5))
      .finish();
  const TypeDescriptor* outer = reg.struct_builder("outer")
      .field("x", reg.primitive(PrimitiveKind::kInt16))
      .field("arr", reg.array_of(inner, 7))
      .field("p", reg.pointer_to(inner))
      .field("tail", reg.array_of(reg.primitive(PrimitiveKind::kFloat32), 3))
      .finish();

  for (uint64_t u = 0; u < outer->prim_units(); ++u) {
    PrimLocation loc = outer->locate_prim(u);
    UnitAtOffset back = outer->unit_at_local_offset(loc.local_offset);
    EXPECT_EQ(back.unit_index, u) << "unit " << u;
    EXPECT_EQ(back.local_offset, loc.local_offset);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, LocateRoundTrip,
                         ::testing::Values("native", "sparc32", "big64",
                                           "packed_le32"));

TEST(TypeDescriptor, VisitRunsCoversExactlyRequestedUnits) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* elem = reg.struct_builder("pair")
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .finish();
  const TypeDescriptor* arr = reg.array_of(elem, 100);
  SplitMix64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t a = rng.below(arr->prim_units());
    uint64_t b = a + 1 + rng.below(arr->prim_units() - a);
    uint64_t covered = 0;
    uint64_t expect_next = a;
    arr->visit_runs(a, b, [&](const PrimRun& run) {
      EXPECT_EQ(run.first_unit, expect_next);
      covered += run.unit_count;
      expect_next = run.first_unit + run.unit_count;
    });
    EXPECT_EQ(covered, b - a);
  }
}

TEST(TypeDescriptor, VisitRunsMergesPrimitiveArray) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr = reg.array_of(reg.primitive(PrimitiveKind::kInt32), 1000);
  int runs = 0;
  arr->visit_runs(5, 900, [&](const PrimRun& run) {
    ++runs;
    EXPECT_EQ(run.unit_count, 895u);
    EXPECT_EQ(run.local_offset, 20u);
    EXPECT_EQ(run.local_stride, 4u);
  });
  EXPECT_EQ(runs, 1);
}

TEST(TypeRegistry, StructDedup) {
  TypeRegistry reg(Platform::native().rules);
  auto make = [&] {
    return reg.struct_builder("s")
        .field("a", reg.primitive(PrimitiveKind::kInt32))
        .field("b", reg.string_type(4))
        .finish();
  };
  EXPECT_EQ(make(), make());
}

TEST(TypeRegistry, EmptyStructRejected) {
  TypeRegistry reg(Platform::native().rules);
  EXPECT_THROW(reg.struct_builder("empty").finish(), Error);
}

TEST(TypeRegistry, ArrayValidation) {
  TypeRegistry reg(Platform::native().rules);
  EXPECT_THROW(reg.array_of(nullptr, 3), Error);
  EXPECT_THROW(reg.array_of(reg.primitive(PrimitiveKind::kChar), 0), Error);
}

ErrorCode error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected an error";
  return ErrorCode::kInternal;
}

TEST(TypeRegistry, ArraySizesMustFit32Bits) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* i32 = reg.primitive(PrimitiveKind::kInt32);
  const TypeDescriptor* chr = reg.primitive(PrimitiveKind::kChar);
  const size_t types = reg.size();
  // 4 * (2^30 + 1) bytes would wrap to a 4-byte local size.
  EXPECT_EQ(error_of([&] { reg.array_of(i32, (uint64_t{1} << 30) + 1); }),
            ErrorCode::kInvalidArgument);
  // 2^32 one-byte units: the local size and the unit count overflow.
  EXPECT_EQ(error_of([&] { reg.array_of(chr, uint64_t{1} << 32); }),
            ErrorCode::kInvalidArgument);
  // A count whose product wraps 64 bits as well.
  EXPECT_EQ(error_of([&] { reg.array_of(i32, UINT64_MAX / 2); }),
            ErrorCode::kInvalidArgument);
  // Nested: 2^14 + 1 rows of 2^16 ints.
  const TypeDescriptor* row = reg.array_of(i32, uint64_t{1} << 16);
  EXPECT_EQ(error_of([&] { reg.array_of(row, (uint64_t{1} << 14) + 1); }),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.size(), types + 1) << "a refused array left a descriptor";

  // The largest that fits is built, with its exact sizes.
  const TypeDescriptor* big = reg.array_of(i32, (uint64_t{1} << 30) - 1);
  EXPECT_EQ(big->local_size(), UINT32_MAX - 3);
  EXPECT_EQ(big->prim_units(), (uint64_t{1} << 30) - 1);
  const TypeDescriptor* strings =
      reg.array_of(reg.string_type(1), UINT32_MAX);
  EXPECT_EQ(strings->string_units(), UINT32_MAX);
}

TEST(TypeRegistry, StructSizesMustFit32Bits) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* i32 = reg.primitive(PrimitiveKind::kInt32);
  const TypeDescriptor* half = reg.array_of(i32, uint64_t{1} << 29);  // 2 GiB
  const size_t types = reg.size();
  // Two 2 GiB fields and one more int sum past 2^32.
  EXPECT_EQ(error_of([&] {
    reg.struct_builder("huge")
        .field("a", half)
        .field("b", half)
        .field("c", i32)
        .finish();
  }), ErrorCode::kInvalidArgument);
  // A self pointer is made beside the struct; it goes with it.
  EXPECT_EQ(error_of([&] {
    reg.struct_builder("huge_node")
        .field("a", half)
        .field("b", half)
        .self_pointer_field("next")
        .finish();
  }), ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.size(), types) << "a refused struct left a descriptor";

  // Just under 2^32 is built.
  const TypeDescriptor* fits = reg.struct_builder("fits")
      .field("a", half)
      .field("b", reg.array_of(i32, (uint64_t{1} << 29) - 1))
      .finish();
  EXPECT_EQ(fits->local_size(), UINT32_MAX - 3);
  EXPECT_EQ(fits->fields()[1].local_offset, uint32_t{1} << 31);
}

}  // namespace
}  // namespace iw
