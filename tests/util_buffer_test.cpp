// Tests for Buffer/BufReader and the endian helpers they are built on.
#include "util/buffer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/endian.hpp"

namespace iw {
namespace {

TEST(Endian, RoundTrips) {
  uint8_t buf[8];
  store_be16(buf, 0x1234);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
  EXPECT_EQ(load_be16(buf), 0x1234);

  store_be32(buf, 0xDEADBEEF);
  EXPECT_EQ(buf[0], 0xDE);
  EXPECT_EQ(buf[3], 0xEF);
  EXPECT_EQ(load_be32(buf), 0xDEADBEEFu);

  store_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ULL);
}

TEST(Endian, FloatBitPatternsSurviveRoundTrip) {
  uint8_t buf[8];
  for (double v : {0.0, -0.0, 1.5, -123.456, 1e300,
                   std::numeric_limits<double>::infinity()}) {
    store_be_double(buf, v);
    EXPECT_EQ(load_be_double(buf), v);
  }
  store_be_double(buf, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(load_be_double(buf)));
  for (float v : {0.0f, 3.14f, -1e-30f}) {
    store_be_float(buf, v);
    EXPECT_EQ(load_be_float(buf), v);
  }
}

TEST(Buffer, AppendAndReadBackAllTypes) {
  Buffer b;
  b.append_u8(0xAB);
  b.append_u16(0x1234);
  b.append_u32(0xCAFEBABE);
  b.append_u64(0x1122334455667788ULL);
  b.append_i32(-42);
  b.append_i64(-1e15);
  b.append_f32(2.5f);
  b.append_f64(-0.125);
  b.append_lp_string("hello");

  BufReader r(b.data(), b.size());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(), 0x1234);
  EXPECT_EQ(r.read_u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.read_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_i64(), -1000000000000000LL);
  EXPECT_EQ(r.read_f32(), 2.5f);
  EXPECT_EQ(r.read_f64(), -0.125);
  EXPECT_EQ(r.read_lp_string(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, EmptyLpString) {
  Buffer b;
  b.append_lp_string("");
  BufReader r(b.span());
  EXPECT_EQ(r.read_lp_string(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, PlaceholderPatching) {
  // A varint placeholder is patched in place when the value fits its
  // width; otherwise the bytes after it move up or down to fit.
  for (uint64_t v : {uint64_t{5}, uint64_t{777}, uint64_t{1} << 40}) {
    for (size_t width : {size_t{1}, size_t{2}, size_t{3}}) {
      Buffer b;
      b.append_u8(1);
      size_t off = b.append_varint_placeholder(width);
      b.append_lp_string("payload");
      b.patch_varint(off, width, v);
      EXPECT_EQ(b.size(), 1 + varint_size(v) + 4 + 7);
      BufReader r(b.span());
      EXPECT_EQ(r.read_u8(), 1);
      EXPECT_EQ(r.read_varint64(), v);
      EXPECT_EQ(r.read_lp_string(), "payload");
    }
  }
}

TEST(Buffer, PatchOutOfRangeThrows) {
  Buffer b;
  b.append_u8(1);
  EXPECT_THROW(b.patch_varint(0, 2, 1), Error);
  EXPECT_THROW(b.patch_varint(1, 1, 1), Error);
}

TEST(Buffer, VarintsRoundTripWithMinimalSize) {
  const uint64_t values[] = {0,           1,          127,
                             128,         16383,      16384,
                             UINT32_MAX,  uint64_t{UINT32_MAX} + 1,
                             UINT64_MAX};
  Buffer b;
  size_t expected = 0;
  for (uint64_t v : values) {
    b.append_varint(v);
    expected += varint_size(v);
  }
  b.append_vstring("");
  b.append_vstring(std::string(200, 'q'));
  EXPECT_EQ(b.size(), expected + 1 + 2 + 200);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(UINT32_MAX), 5u);
  EXPECT_EQ(varint_size(UINT64_MAX), 10u);

  BufReader r(b.span());
  for (uint64_t v : values) {
    if (v <= UINT32_MAX) {
      EXPECT_EQ(r.read_varint32(), v);
    } else {
      EXPECT_EQ(r.read_varint64(), v);
    }
  }
  EXPECT_EQ(r.read_vstring(), "");
  EXPECT_EQ(r.read_vstring_view(), std::string(200, 'q'));
  EXPECT_TRUE(r.at_end());
}

TEST(BufReader, MalformedVarintsThrowProtocolError) {
  const std::vector<std::vector<uint8_t>> bad = {
      {},                                  // empty
      {0x80},                              // truncated
      {0xFF, 0xFF, 0xFF, 0xFF, 0x10},      // 33 bits
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x00},  // six bytes
      {0x85, 0x00},                        // redundant zero last byte
  };
  for (const auto& bytes : bad) {
    BufReader r(bytes.data(), bytes.size());
    try {
      (void)r.read_varint32();
      ADD_FAILURE() << "accepted " << bytes.size() << " bytes";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol);
    }
  }
  // A vstring whose varint length overruns the input.
  const uint8_t overrun[] = {0x05, 'a', 'b'};
  BufReader r(overrun, sizeof overrun);
  EXPECT_THROW((void)r.read_vstring(), Error);
}

TEST(BufReader, OverrunThrowsProtocolError) {
  Buffer b;
  b.append_u16(7);
  BufReader r(b.span());
  EXPECT_EQ(r.read_u8(), 0);
  try {
    (void)r.read_u32();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

TEST(BufReader, TruncatedLpStringThrows) {
  Buffer b;
  b.append_u32(100);  // claims 100 bytes
  b.append_u8('x');
  BufReader r(b.span());
  EXPECT_THROW((void)r.read_lp_string(), Error);
}

TEST(BufReader, SkipAndRemaining) {
  Buffer b;
  b.append_u32(1);
  b.append_u32(2);
  BufReader r(b.span());
  EXPECT_EQ(r.remaining(), 8u);
  r.skip(4);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.read_u32(), 2u);
  EXPECT_THROW(r.skip(1), Error);
}

TEST(Buffer, LargeAppendKeepsContents) {
  Buffer b;
  std::vector<uint8_t> chunk(100000);
  for (size_t i = 0; i < chunk.size(); ++i) chunk[i] = static_cast<uint8_t>(i);
  b.append(chunk.data(), chunk.size());
  b.append(chunk.data(), chunk.size());
  ASSERT_EQ(b.size(), 200000u);
  EXPECT_EQ(b.data()[0], 0);
  EXPECT_EQ(b.data()[100000], 0);
  EXPECT_EQ(b.data()[99999], static_cast<uint8_t>(99999));
}

TEST(Buffer, TakeMovesStorage) {
  Buffer b;
  b.append_lp_string("abc");
  auto v = b.take();
  EXPECT_EQ(v.size(), 7u);
}

TEST(Buffer, MovedFromBufferIsEmptyAndReusable) {
  Buffer a;
  a.append_u32(0x01020304);
  Buffer b(std::move(a));
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  a.append_u8(9);           // must grow, not write past empty storage
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.data()[0], 9);

  Buffer c;
  c.append_u64(7);
  c = std::move(b);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(load_be32(c.data()), 0x01020304u);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  b.append_u16(0x0506);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(load_be16(b.data()), 0x0506u);
}

}  // namespace
}  // namespace iw
