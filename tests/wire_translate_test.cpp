// Translation tests: local <-> wire round trips across platforms, pointer
// and string hooks, padding preservation, and measure_units accounting.
#include "translate_legacy.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "util/rand.hpp"

namespace iw {
namespace {

/// Test pointer representation: a pointer field holds an integer token. On
/// the wire 0 is null, an even token an intra-segment pointer (serial
/// token / 2, unit 3) and an odd one a cross-segment MIP "mip:<token>", so
/// every round trip crosses all three pointer-unit forms. A cross unit's
/// MIP is formatted into `mip`.
PointerUnit unit_of_token(uint64_t token, std::string& mip) {
  if (token == 0) return {};
  if (token % 2 == 0) {
    return {PointerTag::kIntra, static_cast<uint32_t>(token / 2), 3, {}};
  }
  mip = "mip:" + std::to_string(token);
  return {PointerTag::kCross, 0, 0, mip};
}

uint64_t token_of_unit(const PointerUnit& p) {
  switch (p.tag) {
    case PointerTag::kNull:
      return 0;
    case PointerTag::kIntra:
      EXPECT_EQ(p.unit, 3u);
      return uint64_t{p.serial} * 2;
    case PointerTag::kCross:
      return std::stoull(std::string(p.mip.substr(4)));
  }
  return 0;
}

/// Stores `content` into the inline string unit at `field`: NUL-padded to
/// `capacity`, as a client platform lays it out.
void put_inline_string(void* field, uint32_t capacity,
                       std::string_view content) {
  auto* p = static_cast<char*>(field);
  const size_t n = std::min<size_t>(content.size(), capacity);
  std::memcpy(p, content.data(), n);
  std::memset(p + n, 0, capacity - n);
}

/// Fake swizzler over integer tokens (see unit_of_token).
class FakeHooks : public TranslationHooks {
 public:
  explicit FakeHooks(const LayoutRules& rules) : rules_(rules) {}

  PointerUnit swizzle_out(const void* field, uint32_t) override {
    uint64_t token = 0;
    std::memcpy(&token, field, rules_.size[static_cast<int>(PrimitiveKind::kPointer)]);
    ++swizzles_out;
    return unit_of_token(token, mip_);
  }

  void swizzle_in(BufReader& in, void* field, uint32_t) override {
    ++swizzles_in;
    uint64_t token = token_of_unit(read_pointer_unit(in));
    std::memcpy(field, &token, rules_.size[static_cast<int>(PrimitiveKind::kPointer)]);
  }

  int swizzles_out = 0;
  int swizzles_in = 0;

 private:
  LayoutRules rules_;
  std::string mip_;
};

TEST(Translate, IntArrayRoundTripNative) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr = reg.array_of(reg.primitive(PrimitiveKind::kInt32), 64);
  std::vector<int32_t> data(64);
  for (int i = 0; i < 64; ++i) data[i] = i * 1000 - 32000;

  NumericOnlyHooks hooks;
  Buffer wire;
  encode_units(*arr, reg.rules(), data.data(), 0, 64, hooks, wire);
  EXPECT_EQ(wire.size(), 256u);
  // Big-endian on the wire: first int is -32000.
  EXPECT_EQ(static_cast<int32_t>(load_be32(wire.data())), -32000);

  std::vector<int32_t> back(64, 0);
  BufReader r(wire.span());
  decode_units(*arr, reg.rules(), back.data(), 0, 64, hooks, r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, data);
}

TEST(Translate, PartialRangeTouchesOnlyThoseUnits) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr = reg.array_of(reg.primitive(PrimitiveKind::kInt32), 10);
  std::vector<int32_t> src(10, 7);
  NumericOnlyHooks hooks;
  Buffer wire;
  encode_units(*arr, reg.rules(), src.data(), 3, 6, hooks, wire);
  EXPECT_EQ(wire.size(), 12u);

  std::vector<int32_t> dst(10, -1);
  BufReader r(wire.span());
  decode_units(*arr, reg.rules(), dst.data(), 3, 6, hooks, r);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dst[i], (i >= 3 && i < 6) ? 7 : -1) << i;
  }
}

TEST(Translate, CrossPlatformNumericConversion) {
  // Encode from a big-endian 32-bit platform, decode into native (LE).
  TypeRegistry be(Platform::sparc32().rules);
  TypeRegistry le(Platform::native().rules);
  const TypeDescriptor* s_be = be.struct_builder("v")
      .field("i", be.primitive(PrimitiveKind::kInt32))
      .field("d", be.primitive(PrimitiveKind::kFloat64))
      .field("h", be.primitive(PrimitiveKind::kInt16))
      .finish();
  const TypeDescriptor* s_le = le.struct_builder("v")
      .field("i", le.primitive(PrimitiveKind::kInt32))
      .field("d", le.primitive(PrimitiveKind::kFloat64))
      .field("h", le.primitive(PrimitiveKind::kInt16))
      .finish();

  // Build the BE-local representation by hand: i=0x01020304 big-endian.
  std::vector<uint8_t> be_local(s_be->local_size(), 0);
  const uint8_t i_bytes[4] = {0x01, 0x02, 0x03, 0x04};
  std::memcpy(be_local.data() + s_be->fields()[0].local_offset, i_bytes, 4);
  uint64_t dbits = std::bit_cast<uint64_t>(3.25);
  store_be64(be_local.data() + s_be->fields()[1].local_offset, dbits);
  const uint8_t h_bytes[2] = {0xFF, 0xFE};  // -2 big-endian
  std::memcpy(be_local.data() + s_be->fields()[2].local_offset, h_bytes, 2);

  NumericOnlyHooks hooks;
  Buffer wire;
  encode_units(*s_be, be.rules(), be_local.data(), 0, 3, hooks, wire);

  struct Native { int32_t i; double d; int16_t h; } out{};
  BufReader r(wire.span());
  decode_units(*s_le, le.rules(), &out, 0, 3, hooks, r);
  EXPECT_EQ(out.i, 0x01020304);
  EXPECT_EQ(out.d, 3.25);
  EXPECT_EQ(out.h, -2);
}

TEST(Translate, StringsTravelLengthPrefixedAndNulPad) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr = reg.array_of(reg.string_type(8), 3);
  char local[24];
  std::memset(local, 'X', sizeof local);
  std::memcpy(local + 0, "ab\0XXXXX", 8);   // short string
  std::memcpy(local + 8, "12345678", 8);    // full capacity, no NUL
  std::memset(local + 16, 0, 8);            // empty

  FakeHooks hooks(reg.rules());
  Buffer wire;
  encode_units(*arr, reg.rules(), local, 0, 3, hooks, wire);
  // 3 strings behind varint lengths: (1+2) + (1+8) + (1+0) = 13 bytes.
  EXPECT_EQ(wire.size(), 13u);

  char back[24];
  std::memset(back, '?', sizeof back);
  BufReader r(wire.span());
  decode_units(*arr, reg.rules(), back, 0, 3, hooks, r);
  EXPECT_EQ(std::string(back, 2), "ab");
  EXPECT_EQ(back[2], '\0');  // NUL-padded to capacity
  EXPECT_EQ(back[7], '\0');
  EXPECT_EQ(std::string(back + 8, 8), "12345678");
  EXPECT_EQ(back[16], '\0');
}

TEST(Translate, PointersGoThroughSwizzleHooks) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* node = reg.struct_builder("n")
      .field("key", reg.primitive(PrimitiveKind::kInt32))
      .self_pointer_field("next")
      .finish();
  struct N { int32_t key; uint64_t next; } local{42, 0xBEEF};
  FakeHooks hooks(reg.rules());
  Buffer wire;
  encode_units(*node, reg.rules(), &local, 0, 2, hooks, wire);
  EXPECT_EQ(hooks.swizzles_out, 1);

  N back{0, 1};
  BufReader r(wire.span());
  decode_units(*node, reg.rules(), &back, 0, 2, hooks, r);
  EXPECT_EQ(hooks.swizzles_in, 1);
  EXPECT_EQ(back.key, 42);
  EXPECT_EQ(back.next, 0xBEEFu);
}

TEST(Translate, NullPointerIsEmptyMip) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* ptr = reg.pointer_to(reg.primitive(PrimitiveKind::kInt32));
  uint64_t local = 0;
  FakeHooks hooks(reg.rules());
  Buffer wire;
  encode_units(*ptr, reg.rules(), &local, 0, 1, hooks, wire);
  EXPECT_EQ(wire.size(), 1u);  // null is the single byte 0

  uint64_t back = 123;
  BufReader r(wire.span());
  decode_units(*ptr, reg.rules(), &back, 0, 1, hooks, r);
  EXPECT_EQ(back, 0u);
}

TEST(Translate, PointerWidthConversion32to64) {
  // A sparc32 client stores 4-byte pointer tokens; wire pointer units
  // re-expand to 8-byte tokens on native.
  TypeRegistry p32(Platform::sparc32().rules);
  TypeRegistry p64(Platform::native().rules);
  const TypeDescriptor* t32 = p32.pointer_to(nullptr);
  const TypeDescriptor* t64 = p64.pointer_to(nullptr);

  uint32_t local32 = 77;
  FakeHooks hooks32(p32.rules());
  Buffer wire;
  encode_units(*t32, p32.rules(), &local32, 0, 1, hooks32, wire);

  uint64_t local64 = 0;
  FakeHooks hooks64(p64.rules());
  BufReader r(wire.span());
  decode_units(*t64, p64.rules(), &local64, 0, 1, hooks64, r);
  EXPECT_EQ(local64, 77u);
}

TEST(Translate, PaddingBytesAreNotTransmitted) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* s = reg.struct_builder("pad")
      .field("c", reg.primitive(PrimitiveKind::kChar))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .finish();
  std::vector<uint8_t> local(s->local_size(), 0xAA);
  local[0] = 'z';
  double d = 1.5;
  std::memcpy(local.data() + 8, &d, 8);

  NumericOnlyHooks hooks;
  Buffer wire;
  encode_units(*s, reg.rules(), local.data(), 0, 2, hooks, wire);
  EXPECT_EQ(wire.size(), 9u);  // 1 char + 8 double; padding skipped

  std::vector<uint8_t> back(s->local_size(), 0x55);
  BufReader r(wire.span());
  decode_units(*s, reg.rules(), back.data(), 0, 2, hooks, r);
  EXPECT_EQ(back[0], 'z');
  EXPECT_EQ(back[1], 0x55);  // padding untouched
  double bd;
  std::memcpy(&bd, back.data() + 8, 8);
  EXPECT_EQ(bd, 1.5);
}

TEST(Translate, MeasureMatchesEncodeSize) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* mix = reg.struct_builder("mix")
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .field("s", reg.string_type(32))
      .field("p", reg.pointer_to(reg.primitive(PrimitiveKind::kInt32)))
      .field("d", reg.primitive(PrimitiveKind::kFloat64))
      .finish();
  const TypeDescriptor* arr = reg.array_of(mix, 10);
  std::vector<uint8_t> local(arr->local_size(), 0);
  FakeHooks hooks(reg.rules());
  // Put some strings/pointers in.
  for (int i = 0; i < 10; ++i) {
    uint8_t* base = local.data() + i * arr->element_stride();
    std::snprintf(reinterpret_cast<char*>(base + mix->fields()[1].local_offset),
                  32, "str-%d", i);
    uint64_t token = i % 3 == 0 ? 0 : 1000 + i;
    std::memcpy(base + mix->fields()[2].local_offset, &token, 8);
  }
  uint64_t measured =
      measure_units(*arr, reg.rules(), local.data(), 0, arr->prim_units(), hooks);
  Buffer wire;
  encode_units(*arr, reg.rules(), local.data(), 0, arr->prim_units(), hooks, wire);
  EXPECT_EQ(measured, wire.size());
}

// The flat-run fast path (arrays of fixed-wire-size structs) must agree
// with the generic path for arbitrary ragged ranges, on both byte orders.
TEST(Translate, FlatFastPathMatchesGenericPath) {
  for (const Platform& platform : {Platform::native(), Platform::sparc32()}) {
    TypeRegistry reg(platform.rules);
    const TypeDescriptor* elem = reg.struct_builder("cell")
        .field("c", reg.primitive(PrimitiveKind::kChar))
        .field("h", reg.primitive(PrimitiveKind::kInt16))
        .field("i", reg.primitive(PrimitiveKind::kInt32))
        .field("d", reg.primitive(PrimitiveKind::kFloat64))
        .finish();
    ASSERT_FALSE(elem->flat_runs().empty());
    const TypeDescriptor* arr = reg.array_of(elem, 50);

    std::vector<uint8_t> mem(arr->local_size());
    SplitMix64 rng(13);
    for (auto& b : mem) b = static_cast<uint8_t>(rng());

    NumericOnlyHooks hooks;
    for (int trial = 0; trial < 100; ++trial) {
      uint64_t a = rng.below(arr->prim_units());
      uint64_t b = a + 1 + rng.below(arr->prim_units() - a);

      // Fast path (array type dispatches through flat runs).
      Buffer fast;
      encode_units(*arr, reg.rules(), mem.data(), a, b, hooks, fast);

      // Generic path: visit each unit individually, which can never take
      // the whole-element shortcut.
      Buffer slow;
      for (uint64_t u = a; u < b; ++u) {
        encode_units(*arr, reg.rules(), mem.data(), u, u + 1, hooks, slow);
      }
      ASSERT_EQ(fast.size(), slow.size()) << platform.name << " " << a << ".." << b;
      ASSERT_EQ(0, std::memcmp(fast.data(), slow.data(), fast.size()))
          << platform.name << " range " << a << ".." << b;

      // And decode restores the identical bytes (padding aside).
      std::vector<uint8_t> back(arr->local_size(), 0);
      BufReader r(fast.span());
      decode_units(*arr, reg.rules(), back.data(), a, b, hooks, r);
      EXPECT_TRUE(r.at_end());
      Buffer re;
      encode_units(*arr, reg.rules(), back.data(), a, b, hooks, re);
      ASSERT_EQ(0, std::memcmp(fast.data(), re.data(), fast.size()));
    }
  }
}

TEST(Translate, FlatRunsSkippedForVariableStructs) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* with_string = reg.struct_builder("vs")
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .field("s", reg.string_type(8))
      .finish();
  EXPECT_TRUE(with_string->flat_runs().empty());
  const TypeDescriptor* with_ptr = reg.struct_builder("vp")
      .field("i", reg.primitive(PrimitiveKind::kInt32))
      .self_pointer_field("p")
      .finish();
  EXPECT_TRUE(with_ptr->flat_runs().empty());
}

// Property sweep: random ranges of a nested type round-trip across every
// platform pair through canonical wire format.
struct PlatformPair {
  const char* src;
  const char* dst;
};
// Without this gtest prints the two pointers' bytes, which ASLR changes on
// every run, so the listed test names would never be the same twice.
void PrintTo(const PlatformPair& p, std::ostream* os) {
  *os << '{' << p.src << ',' << p.dst << '}';
}
class CrossPlatformRoundTrip : public ::testing::TestWithParam<PlatformPair> {};

Platform by_name(const std::string& name) {
  if (name == "native") return Platform::native();
  if (name == "sparc32") return Platform::sparc32();
  if (name == "big64") return Platform::big64();
  return Platform::packed_le32();
}

const TypeDescriptor* build_nested(TypeRegistry& reg) {
  const TypeDescriptor* inner = reg.struct_builder("inner")
      .field("a", reg.primitive(PrimitiveKind::kInt16))
      .field("b", reg.primitive(PrimitiveKind::kFloat64))
      .field("s", reg.string_type(6))
      .finish();
  return reg.array_of(inner, 20);
}

TEST_P(CrossPlatformRoundTrip, RandomRanges) {
  TypeRegistry src_reg(by_name(GetParam().src).rules);
  TypeRegistry dst_reg(by_name(GetParam().dst).rules);
  const TypeDescriptor* src_t = build_nested(src_reg);
  const TypeDescriptor* dst_t = build_nested(dst_reg);
  ASSERT_EQ(src_t->prim_units(), dst_t->prim_units());

  // Fill source representation via per-unit stores using locate_prim.
  std::vector<uint8_t> src_mem(src_t->local_size(), 0);
  SplitMix64 rng(11);
  FakeHooks src_hooks(src_reg.rules());
  FakeHooks dst_hooks(dst_reg.rules());
  for (uint64_t u = 0; u < src_t->prim_units(); ++u) {
    PrimLocation loc = src_t->locate_prim(u);
    uint8_t* p = src_mem.data() + loc.local_offset;
    switch (loc.kind) {
      case PrimitiveKind::kInt16: {
        uint16_t v = static_cast<uint16_t>(rng());
        if (src_reg.rules().byte_order == ByteOrder::kBig) {
          store_be16(p, v);
        } else {
          std::memcpy(p, &v, 2);
        }
        break;
      }
      case PrimitiveKind::kFloat64: {
        double v = rng.uniform() * 100 - 50;
        if (src_reg.rules().byte_order == ByteOrder::kBig) {
          store_be_double(p, v);
        } else {
          std::memcpy(p, &v, 8);
        }
        break;
      }
      case PrimitiveKind::kString: {
        std::string s = "s" + std::to_string(rng.below(1000));
        put_inline_string(p, loc.string_capacity, s);
        break;
      }
      default:
        break;
    }
  }

  // Round trip random unit ranges.
  std::vector<uint8_t> dst_mem(dst_t->local_size(), 0);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t a = rng.below(src_t->prim_units());
    uint64_t b = a + 1 + rng.below(src_t->prim_units() - a);
    Buffer wire;
    encode_units(*src_t, src_reg.rules(), src_mem.data(), a, b, src_hooks, wire);
    BufReader r(wire.span());
    decode_units(*dst_t, dst_reg.rules(), dst_mem.data(), a, b, dst_hooks, r);
    EXPECT_TRUE(r.at_end());
    // Re-encode the received range from dst; wire bytes must be identical
    // (canonical form is unique).
    Buffer wire2;
    encode_units(*dst_t, dst_reg.rules(), dst_mem.data(), a, b, dst_hooks, wire2);
    ASSERT_EQ(wire.size(), wire2.size());
    EXPECT_EQ(0, std::memcmp(wire.data(), wire2.data(), wire.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CrossPlatformRoundTrip,
    ::testing::Values(PlatformPair{"native", "sparc32"},
                      PlatformPair{"sparc32", "native"},
                      PlatformPair{"big64", "packed_le32"},
                      PlatformPair{"packed_le32", "big64"},
                      PlatformPair{"native", "native"}),
    [](const auto& info) {
      return std::string(info.param.src) + "_to_" + info.param.dst;
    });

// ===========================================================================
// Differential tests: the plan-compiled engine (encode/decode/measure_units)
// must be byte-identical to the legacy recursive walk (*_legacy), for
// randomized types, every platform layout, and arbitrary unit subranges.
// ===========================================================================

/// Hooks usable under every layout: the strings of an out-of-line string
/// layout (packed_canonical) live in a side map keyed by field address,
/// pointers are integer tokens read straight from the field bytes. Both are
/// deterministic functions of the same inputs the legacy path sees. Inline
/// strings never reach the hooks.
class MapHooks : public TranslationHooks {
 public:
  explicit MapHooks(const LayoutRules& rules) : rules_(rules) {}

  PointerUnit swizzle_out(const void* field, uint32_t) override {
    uint64_t token = 0;
    std::memcpy(&token, field, ptr_size());
    return unit_of_token(token, mip_);
  }
  void swizzle_in(BufReader& in, void* field, uint32_t) override {
    uint64_t token = token_of_unit(read_pointer_unit(in));
    std::memcpy(field, &token, ptr_size());
  }
  std::string_view read_string(const void* field, uint32_t,
                               uint32_t) override {
    auto it = strings_.find(field);
    return it == strings_.end() ? std::string_view{} : std::string_view(it->second);
  }
  void write_string(void* field, uint32_t, uint32_t,
                    std::string_view content) override {
    strings_[field] = std::string(content);
  }

 private:
  size_t ptr_size() const {
    return rules_.size[static_cast<int>(PrimitiveKind::kPointer)];
  }
  LayoutRules rules_;
  std::map<const void*, std::string> strings_;
  std::string mip_;
};

struct NamedRules {
  const char* name;
  LayoutRules rules;
};

std::vector<NamedRules> all_layouts() {
  return {{"native", Platform::native().rules},
          {"sparc32", Platform::sparc32().rules},
          {"big64", Platform::big64().rules},
          {"packed_le32", Platform::packed_le32().rules},
          {"packed_canonical", LayoutRules::packed_canonical()}};
}

/// Grows a random type: leaves (all primitives, strings, pointers), structs
/// of 1-4 random fields, arrays of random elements. Aggregates stop at
/// depth 2 so generation terminates.
const TypeDescriptor* random_type(TypeRegistry& reg, SplitMix64& rng,
                                  int depth, int& name_counter) {
  uint64_t pick = rng.below(depth >= 2 ? 8 : 11);
  switch (pick) {
    case 0: return reg.primitive(PrimitiveKind::kChar);
    case 1: return reg.primitive(PrimitiveKind::kInt16);
    case 2: return reg.primitive(PrimitiveKind::kInt32);
    case 3: return reg.primitive(PrimitiveKind::kInt64);
    case 4: return reg.primitive(PrimitiveKind::kFloat32);
    case 5: return reg.primitive(PrimitiveKind::kFloat64);
    case 6:
      return reg.string_type(1 + static_cast<uint32_t>(rng.below(12)));
    case 7:
      return reg.pointer_to(nullptr);
    case 8:
      return reg.array_of(random_type(reg, rng, depth + 1, name_counter),
                          1 + rng.below(6));
    default: {
      auto b = reg.struct_builder("rt" + std::to_string(name_counter++));
      int fields = 1 + static_cast<int>(rng.below(4));
      for (int i = 0; i < fields; ++i) {
        b.field("f" + std::to_string(i),
                random_type(reg, rng, depth + 1, name_counter));
      }
      return b.finish();
    }
  }
}

/// Fills every unit of `mem` with valid random content: numeric units get
/// random bytes, pointers small random tokens, strings are stored inline or,
/// for an out-of-line string layout, through the hooks.
void random_fill(const TypeDescriptor& type, const LayoutRules& rules,
                 uint8_t* mem, MapHooks& hooks, SplitMix64& rng) {
  for (uint64_t u = 0; u < type.prim_units(); ++u) {
    PrimLocation loc = type.locate_prim(u);
    uint8_t* p = mem + loc.local_offset;
    switch (loc.kind) {
      case PrimitiveKind::kString: {
        std::string s;
        uint64_t len = rng.below(loc.string_capacity + 1);
        for (uint64_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>('a' + rng.below(26)));
        }
        if (rules.inline_strings) {
          put_inline_string(p, loc.string_capacity, s);
        } else {
          hooks.write_string(
              p, loc.string_capacity,
              type.var_unit_index(PrimitiveKind::kString, loc.local_offset),
              s);
        }
        break;
      }
      case PrimitiveKind::kPointer: {
        uint64_t token = rng.below(4) == 0 ? 0 : 1 + rng.below(999);
        std::memcpy(p, &token,
                    rules.size[static_cast<int>(PrimitiveKind::kPointer)]);
        break;
      }
      default: {
        uint32_t n = rules.size[static_cast<int>(loc.kind)];
        for (uint32_t i = 0; i < n; ++i) {
          p[i] = static_cast<uint8_t>(rng());
        }
        break;
      }
    }
  }
}

TEST(TranslatePlanDifferential, RandomTypesMatchLegacyByteForByte) {
  SplitMix64 rng(20260805);
  for (const NamedRules& layout : all_layouts()) {
    TypeRegistry reg(layout.rules);
    int name_counter = 0;
    for (int trial = 0; trial < 12; ++trial) {
      const TypeDescriptor* type = random_type(reg, rng, 0, name_counter);
      // Wrap half the trials in an array so whole-element loops and the
      // array-collapse plan paths get exercised on every layout.
      if (trial % 2 == 0) type = reg.array_of(type, 1 + rng.below(8));
      ASSERT_GT(type->prim_units(), 0u);

      std::vector<uint8_t> mem(std::max<size_t>(type->local_size(), 1), 0);
      MapHooks fill_hooks(layout.rules);
      random_fill(*type, layout.rules, mem.data(), fill_hooks, rng);

      for (int range_trial = 0; range_trial < 6; ++range_trial) {
        uint64_t a = rng.below(type->prim_units());
        uint64_t b = a + 1 + rng.below(type->prim_units() - a);
        SCOPED_TRACE(std::string(layout.name) + " trial " +
                     std::to_string(trial) + " units " + std::to_string(a) +
                     ".." + std::to_string(b));

        // Encode: planned output must equal the legacy reference exactly.
        Buffer planned, legacy;
        encode_units(*type, layout.rules, mem.data(), a, b, fill_hooks,
                     planned);
        encode_units_legacy(*type, layout.rules, mem.data(), a, b, fill_hooks,
                            legacy);
        ASSERT_EQ(planned.size(), legacy.size());
        ASSERT_EQ(0, std::memcmp(planned.data(), legacy.data(),
                                 planned.size()));

        // Measure: both engines agree with the actual encoded size.
        EXPECT_EQ(measure_units(*type, layout.rules, mem.data(), a, b,
                                fill_hooks),
                  planned.size());
        EXPECT_EQ(measure_units_legacy(*type, layout.rules, mem.data(), a, b,
                                       fill_hooks),
                  planned.size());

        // Decode: both engines produce identical local bytes (padding
        // untouched in both) and identical re-encodings (covers strings,
        // which live out-of-line in the hooks).
        std::vector<uint8_t> mem1(mem.size(), 0xCC), mem2(mem.size(), 0xCC);
        MapHooks hooks1(layout.rules), hooks2(layout.rules);
        BufReader r1(planned.span());
        decode_units(*type, layout.rules, mem1.data(), a, b, hooks1, r1);
        EXPECT_TRUE(r1.at_end());
        BufReader r2(planned.span());
        decode_units_legacy(*type, layout.rules, mem2.data(), a, b, hooks2,
                            r2);
        EXPECT_TRUE(r2.at_end());
        ASSERT_EQ(0, std::memcmp(mem1.data(), mem2.data(), mem1.size()));
        Buffer re1, re2;
        encode_units(*type, layout.rules, mem1.data(), a, b, hooks1, re1);
        encode_units_legacy(*type, layout.rules, mem2.data(), a, b, hooks2,
                            re2);
        ASSERT_EQ(re1.size(), re2.size());
        ASSERT_EQ(0, std::memcmp(re1.data(), re2.data(), re1.size()));
      }
    }
  }
}

/// Units [a, b) of `mem` (a value of `type`, filled through `fill_hooks`)
/// translate byte for byte as the legacy walk translates them: encoded,
/// measured, decoded and re-encoded.
void expect_range_matches_legacy(const TypeDescriptor& type,
                                 const LayoutRules& rules,
                                 const std::vector<uint8_t>& mem,
                                 MapHooks& fill_hooks, uint64_t a, uint64_t b) {
  SCOPED_TRACE("units " + std::to_string(a) + ".." + std::to_string(b));
  Buffer planned, legacy;
  encode_units(type, rules, mem.data(), a, b, fill_hooks, planned);
  encode_units_legacy(type, rules, mem.data(), a, b, fill_hooks, legacy);
  ASSERT_EQ(planned.size(), legacy.size());
  ASSERT_EQ(0, std::memcmp(planned.data(), legacy.data(), planned.size()));
  EXPECT_EQ(measure_units(type, rules, mem.data(), a, b, fill_hooks),
            planned.size());

  std::vector<uint8_t> mem1(mem.size(), 0xCC), mem2(mem.size(), 0xCC);
  MapHooks hooks1(rules), hooks2(rules);
  BufReader r1(planned.span());
  decode_units(type, rules, mem1.data(), a, b, hooks1, r1);
  EXPECT_TRUE(r1.at_end());
  BufReader r2(planned.span());
  decode_units_legacy(type, rules, mem2.data(), a, b, hooks2, r2);
  EXPECT_TRUE(r2.at_end());
  ASSERT_EQ(0, std::memcmp(mem1.data(), mem2.data(), mem1.size()));
  Buffer re1, re2;
  encode_units(type, rules, mem1.data(), a, b, hooks1, re1);
  encode_units_legacy(type, rules, mem2.data(), a, b, hooks2, re2);
  ASSERT_EQ(re1.size(), re2.size());
  ASSERT_EQ(0, std::memcmp(re1.data(), re2.data(), re1.size()));
}

TEST(TranslatePlanDifferential, NestedVariableArraysMatchLegacyInEveryRange) {
  // Hundreds of records whose strings and pointers sit two array levels
  // deep: the element loop's variable path, its nested loops, and ranges
  // that start and end inside an element (of either level).
  SplitMix64 rng(20261019);
  for (const NamedRules& layout : all_layouts()) {
    SCOPED_TRACE(layout.name);
    TypeRegistry reg(layout.rules);
    const TypeDescriptor* inner =
        reg.struct_builder("inner")
            .field("p", reg.pointer_to(nullptr))
            .field("d", reg.primitive(PrimitiveKind::kFloat64))
            .field("s", reg.string_type(7))
            .field("c", reg.primitive(PrimitiveKind::kChar))
            .finish();
    const TypeDescriptor* outer =
        reg.struct_builder("outer")
            .field("i", reg.primitive(PrimitiveKind::kInt16))
            .field("in", reg.array_of(inner, 3))
            .field("t", reg.string_type(20))
            .field("q", reg.pointer_to(nullptr))
            .finish();
    const TypeDescriptor* type = reg.array_of(outer, 300);
    const uint64_t upe = outer->prim_units();  // 15
    const uint64_t units = type->prim_units();
    std::vector<uint8_t> mem(type->local_size(), 0);
    MapHooks fill_hooks(layout.rules);
    random_fill(*type, layout.rules, mem.data(), fill_hooks, rng);

    expect_range_matches_legacy(*type, layout.rules, mem, fill_hooks, 0,
                                units);
    // Ranges inside one record, across a record boundary, and spanning
    // hundreds of records, each starting and ending mid-record.
    expect_range_matches_legacy(*type, layout.rules, mem, fill_hooks,
                                5 * upe + 2, 5 * upe + 9);
    expect_range_matches_legacy(*type, layout.rules, mem, fill_hooks,
                                7 * upe + 13, 8 * upe + 3);
    expect_range_matches_legacy(*type, layout.rules, mem, fill_hooks,
                                upe + 1, 290 * upe + 14);
    for (int trial = 0; trial < 20; ++trial) {
      const uint64_t a = rng.below(units);
      const uint64_t b = a + 1 + rng.below(units - a);
      expect_range_matches_legacy(*type, layout.rules, mem, fill_hooks, a, b);
    }
  }
}

/// Hooks that record, for every string and pointer unit they are handed,
/// its offset in the value and the position the translator gave it.
class PositionHooks : public TranslationHooks {
 public:
  explicit PositionHooks(const uint8_t* base) : base_(base) {}

  struct Call {
    PrimitiveKind kind;
    uint32_t offset;
    uint32_t index;
  };

  PointerUnit swizzle_out(const void* field, uint32_t index) override {
    record(PrimitiveKind::kPointer, field, index);
    return {};
  }
  void swizzle_in(BufReader& in, void* field, uint32_t index) override {
    read_pointer_unit(in);
    record(PrimitiveKind::kPointer, field, index);
  }
  std::string_view read_string(const void* field, uint32_t,
                               uint32_t index) override {
    record(PrimitiveKind::kString, field, index);
    return {};
  }
  void write_string(void* field, uint32_t, uint32_t index,
                    std::string_view) override {
    record(PrimitiveKind::kString, field, index);
  }

  std::vector<Call> calls;

 private:
  void record(PrimitiveKind kind, const void* field, uint32_t index) {
    calls.push_back(
        {kind,
         static_cast<uint32_t>(static_cast<const uint8_t*>(field) - base_),
         index});
  }
  const uint8_t* base_;
};

TEST(TranslatePlan, HookPositionsAreVarUnitIndexes) {
  // The position handed with each string and pointer unit is the one
  // TypeDescriptor::var_unit_index computes from the unit's offset, for
  // whole values and sub-ranges, encoding and decoding, on every layout
  // (strings reach the hooks only where they are stored out of line).
  SplitMix64 rng(1019);
  for (const NamedRules& layout : all_layouts()) {
    SCOPED_TRACE(layout.name);
    TypeRegistry reg(layout.rules);
    int name_counter = 0;
    size_t checked = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const TypeDescriptor* type = random_type(reg, rng, 0, name_counter);
      if (trial % 2 == 0) type = reg.array_of(type, 1 + rng.below(40));
      std::vector<uint8_t> mem(std::max<size_t>(type->local_size(), 1), 0);
      const uint64_t units = type->prim_units();
      const uint64_t a = trial % 3 == 0 ? 0 : rng.below(units);
      const uint64_t b = trial % 3 == 0 ? units : a + 1 + rng.below(units - a);
      PositionHooks hooks(mem.data());
      Buffer wire;
      encode_units(*type, layout.rules, mem.data(), a, b, hooks, wire);
      BufReader in(wire.span());
      decode_units(*type, layout.rules, mem.data(), a, b, hooks, in);
      EXPECT_TRUE(in.at_end());
      for (const PositionHooks::Call& call : hooks.calls) {
        ASSERT_EQ(call.index, type->var_unit_index(call.kind, call.offset))
            << "trial " << trial << " offset " << call.offset;
      }
      checked += hooks.calls.size();
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(TranslatePlan, IsomorphicFastPathCountsAndCaches) {
  // Packed canonical layout is byte-identical to wire format for numeric
  // types, so the whole-block memcpy path must engage and be counted.
  TypeRegistry reg(LayoutRules::packed_canonical());
  const TypeDescriptor* arr =
      reg.array_of(reg.primitive(PrimitiveKind::kInt32), 256);
  std::vector<uint8_t> mem(arr->local_size());
  SplitMix64 rng(7);
  for (auto& b : mem) b = static_cast<uint8_t>(rng());

  reg.reset_translation_stats();
  NumericOnlyHooks hooks;
  Buffer wire;
  encode_units(*arr, reg.rules(), mem.data(), 0, 256, hooks, wire);
  ASSERT_EQ(wire.size(), mem.size());
  EXPECT_EQ(0, std::memcmp(wire.data(), mem.data(), mem.size()));

  TranslationStats stats = reg.translation_stats();
  EXPECT_EQ(stats.isomorphic_fast_path_blocks, 1u);
  EXPECT_EQ(stats.bytes_encoded, wire.size());
  EXPECT_EQ(stats.plan_cache_misses, 1u);

  // Second use of the same descriptor hits the cached plan; decode also
  // takes the memcpy path.
  std::vector<uint8_t> back(mem.size(), 0);
  BufReader r(wire.span());
  decode_units(*arr, reg.rules(), back.data(), 0, 256, hooks, r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, mem);
  stats = reg.translation_stats();
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_GE(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.isomorphic_fast_path_blocks, 2u);
  EXPECT_EQ(stats.bytes_decoded, wire.size());
}

TEST(TranslatePlan, NativeLayoutIsNeverIsomorphic) {
  // Little-endian local layouts can never be byte-identical to the
  // big-endian wire for multi-byte numerics.
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr =
      reg.array_of(reg.primitive(PrimitiveKind::kInt32), 64);
  std::vector<int32_t> data(64, 0x01020304);
  reg.reset_translation_stats();
  NumericOnlyHooks hooks;
  Buffer wire;
  encode_units(*arr, reg.rules(), data.data(), 0, 64, hooks, wire);
  EXPECT_EQ(reg.translation_stats().isomorphic_fast_path_blocks, 0u);
  EXPECT_EQ(static_cast<int32_t>(load_be32(wire.data())), 0x01020304);
}

}  // namespace
}  // namespace iw
