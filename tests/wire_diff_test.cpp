// Tests for the segment-diff wire format (DiffWriter / DiffReader) and for
// frame encoding: round trips, exact encoded sizes, and typed errors for
// every malformed varint, run or header.
#include "wire/diff.hpp"

#include <gtest/gtest.h>

#include "wire/frame.hpp"
#include "wire/translate.hpp"

namespace iw {
namespace {

TEST(Frame, HeaderRoundTrip) {
  Frame f;
  f.type = MsgType::kAcquireRead;
  f.request_id = 0xABCD;
  f.payload = {1, 2, 3};
  Buffer out;
  encode_frame(f, out);
  // u8 type, 3-byte varint id, 1-byte varint length.
  ASSERT_EQ(out.size(), 5u + 3);
  FrameHeader h;
  ASSERT_TRUE(decode_frame_header(out.data(), out.size(), &h));
  EXPECT_EQ(h.type, MsgType::kAcquireRead);
  EXPECT_EQ(h.request_id, 0xABCDu);
  EXPECT_EQ(h.payload_size, 3u);
  EXPECT_EQ(h.size, 5u);
  EXPECT_EQ(frame_wire_size(f), out.size());
}

TEST(Frame, OversizedPayloadRejected) {
  Buffer hdr;
  hdr.append_u8(static_cast<uint8_t>(MsgType::kPing));
  hdr.append_varint(1);
  hdr.append_varint(uint64_t{kMaxFramePayload} + 1);
  FrameHeader h;
  EXPECT_THROW(decode_frame_header(hdr.data(), hdr.size(), &h), Error);
  uint8_t out[kMaxFrameHeaderSize];
  EXPECT_THROW(encode_frame_header(MsgType::kPing, 1, kMaxFramePayload + 1u,
                                   out),
               Error);
}

TEST(Frame, SteadyStateHeaderIsFiveBytesAndWidestIsEleven) {
  uint8_t out[kMaxFrameHeaderSize];
  EXPECT_EQ(encode_frame_header(MsgType::kAcquireWrite, 1000, 200, out), 5u);
  EXPECT_EQ(frame_header_size(1000, 200), 5u);
  EXPECT_EQ(encode_frame_header(MsgType::kAcquireWrite, UINT32_MAX,
                                kMaxFramePayload, out),
            kMaxFrameHeaderSize);
  FrameHeader h;
  ASSERT_TRUE(decode_frame_header(out, kMaxFrameHeaderSize, &h));
  EXPECT_EQ(h.request_id, UINT32_MAX);
  EXPECT_EQ(h.payload_size, kMaxFramePayload);
}

TEST(Frame, TruncatedHeaderWaitsForMoreBytes) {
  Frame f;
  f.type = MsgType::kReleaseWrite;
  f.request_id = 300;
  f.payload.assign(200, 7);
  Buffer out;
  encode_frame(f, out);
  // Every proper prefix is "not yet": no throw, no frame.
  for (size_t n = 0; n < out.size(); ++n) {
    Frame got;
    EXPECT_EQ(decode_frame({out.data(), n}, &got), 0u) << n;
  }
  Frame got;
  ASSERT_EQ(decode_frame(out.span(), &got), out.size());
  EXPECT_EQ(got.request_id, 300u);
  EXPECT_EQ(got.payload, f.payload);
}

TEST(Frame, OverlongHeaderVarintsRejected) {
  FrameHeader h;
  // Six continuation bytes of request id: longer than any u32.
  const uint8_t six[] = {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80};
  EXPECT_THROW(decode_frame_header(six, sizeof six, &h), Error);
  // Five bytes whose value exceeds 32 bits.
  const uint8_t wide[] = {1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0};
  EXPECT_THROW(decode_frame_header(wide, sizeof wide, &h), Error);
  // A non-minimal encoding (trailing zero group).
  const uint8_t padded[] = {1, 0x81, 0x00, 0};
  EXPECT_THROW(decode_frame_header(padded, sizeof padded, &h), Error);
}

TEST(Diff, EmptyDiff) {
  Buffer buf;
  DiffWriter w(buf, 3, 4);
  uint64_t size = w.finish();
  EXPECT_EQ(size, buf.size());

  BufReader in(buf.span());
  DiffReader r(in);
  EXPECT_EQ(r.from_version(), 3u);
  EXPECT_EQ(r.to_version(), 4u);
  EXPECT_EQ(r.entry_count(), 0u);
  DiffEntry e;
  EXPECT_FALSE(r.next(&e));
}

TEST(Diff, FreeEntries) {
  Buffer buf;
  DiffWriter w(buf, 0, 1);
  w.add_free(17);
  w.add_free(23);
  w.finish();

  BufReader in(buf.span());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  EXPECT_EQ(e.serial, 17u);
  EXPECT_TRUE(e.flags & diff_flags::kFree);
  ASSERT_TRUE(r.next(&e));
  EXPECT_EQ(e.serial, 23u);
  EXPECT_FALSE(r.next(&e));
}

TEST(Diff, ModifiedBlockWithRuns) {
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr = reg.array_of(reg.primitive(PrimitiveKind::kInt32), 100);
  std::vector<int32_t> data(100);
  for (int i = 0; i < 100; ++i) data[i] = i;
  NumericOnlyHooks hooks;

  Buffer buf;
  DiffWriter w(buf, 7, 8);
  w.begin_block(5, 0);
  w.begin_run(10, 3);
  encode_units(*arr, reg.rules(), data.data(), 10, 13, hooks, w.buffer());
  w.begin_run(50, 2);
  encode_units(*arr, reg.rules(), data.data(), 50, 52, hooks, w.buffer());
  w.end_block();
  w.finish();

  BufReader in(buf.span());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  EXPECT_EQ(e.serial, 5u);
  EXPECT_EQ(e.flags, 0);

  std::vector<int32_t> out(100, -1);
  DiffRun run = e.read_run();
  EXPECT_EQ(run.start_unit, 10u);
  EXPECT_EQ(run.unit_count, 3u);
  decode_units(*arr, reg.rules(), out.data(), run.start_unit,
               run.start_unit + run.unit_count, hooks, e.runs);
  run = e.read_run();
  EXPECT_EQ(run.start_unit, 50u);
  decode_units(*arr, reg.rules(), out.data(), run.start_unit,
               run.start_unit + run.unit_count, hooks, e.runs);
  EXPECT_TRUE(e.runs.at_end());
  EXPECT_EQ(out[10], 10);
  EXPECT_EQ(out[12], 12);
  EXPECT_EQ(out[50], 50);
  EXPECT_EQ(out[51], 51);
  EXPECT_EQ(out[9], -1);
  EXPECT_EQ(out[13], -1);
}

TEST(Diff, OneRecordDiffHasExactEncoding) {
  // One modified block, one run of three int32 units: every header field is
  // a one-byte varint and the run start is a gap, so the whole diff is 8
  // header bytes plus 12 data bytes (fixed-width fields would take 41).
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr =
      reg.array_of(reg.primitive(PrimitiveKind::kInt32), 100);
  std::vector<int32_t> data(100);
  for (int i = 0; i < 100; ++i) data[i] = i;
  NumericOnlyHooks hooks;

  Buffer buf;
  DiffWriter w(buf, 7, 8);
  w.begin_block(5, 0);
  w.begin_run(10, 3);
  encode_units(*arr, reg.rules(), data.data(), 10, 13, hooks, w.buffer());
  w.end_block();
  EXPECT_EQ(w.finish(), 20u);
  const std::vector<uint8_t> want = {
      7, 1, 1,    // from_version, to_version - from_version, n_entries
      5, 0, 14,   // serial, flags, diff_bytes
      10, 3,      // gap from unit 0, unit_count
      0, 0, 0, 10, 0, 0, 0, 11, 0, 0, 0, 12};
  EXPECT_EQ(std::vector<uint8_t>(buf.data(), buf.data() + buf.size()), want);
}

TEST(Diff, NewBlockAndStringUnitsHaveExactEncoding) {
  // A new named block whose one string unit travels behind a varint length.
  Buffer buf;
  DiffWriter w(buf, 0, 1);
  w.begin_block(300, diff_flags::kNew | diff_flags::kWhole, 2, "ab");
  w.begin_run(0, 1);
  w.buffer().append_vstring("xyz");
  w.end_block();
  w.finish();
  const std::vector<uint8_t> want = {
      0, 1, 1,           // from, delta, n_entries
      0xAC, 0x02,        // serial 300
      5,                 // kNew | kWhole
      2, 2, 'a', 'b',    // type_serial, name
      6,                 // diff_bytes
      0, 1,              // gap, unit_count
      3, 'x', 'y', 'z'};
  EXPECT_EQ(std::vector<uint8_t>(buf.data(), buf.data() + buf.size()), want);
}

TEST(Diff, LongSectionsAndManyEntriesWidenTheirLengths) {
  // diff_bytes and n_entries are patched after the fact; once they reach
  // 128 their varints need a second byte and the bytes behind them move.
  Buffer buf;
  buf.append_u8(0xEE);  // caller bytes ahead of the diff stay put
  DiffWriter w(buf, 1, 2);
  for (uint32_t serial = 1; serial <= 130; ++serial) {
    w.begin_block(serial, 0);
    w.begin_run(7, 50);
    for (int i = 0; i < 50; ++i) w.buffer().append_u32(serial * 1000 + i);
    w.end_block();
  }
  w.finish();
  EXPECT_EQ(buf.data()[0], 0xEE);

  BufReader in(buf.data() + 1, buf.size() - 1);
  DiffReader r(in);
  EXPECT_EQ(r.entry_count(), 130u);
  DiffEntry e;
  for (uint32_t serial = 1; serial <= 130; ++serial) {
    ASSERT_TRUE(r.next(&e));
    EXPECT_EQ(e.serial, serial);
    EXPECT_EQ(e.runs.remaining(), 2u + 200u);
    DiffRun run = e.read_run();
    EXPECT_EQ(run.start_unit, 7u);
    EXPECT_EQ(run.unit_count, 50u);
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(e.runs.read_u32(), serial * 1000 + i);
    }
    EXPECT_TRUE(e.runs.at_end());
  }
  EXPECT_FALSE(r.next(&e));
  EXPECT_TRUE(in.at_end());
}

TEST(Diff, RunsAreGapCodedWithinAnEntry) {
  Buffer buf;
  DiffWriter w(buf, 0, 1);
  w.begin_block(1, 0);
  w.begin_run(4, 2);
  w.begin_run(6, 1);    // adjacent: gap 0
  w.begin_run(1000, 1);
  w.end_block();
  w.begin_block(2, 0);  // a new entry restarts the gaps at unit 0
  w.begin_run(3, 1);
  w.end_block();
  w.finish();

  BufReader in(buf.span());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  DiffRun run = e.read_run();
  EXPECT_EQ(run.start_unit, 4u);
  run = e.read_run();
  EXPECT_EQ(run.start_unit, 6u);
  run = e.read_run();
  EXPECT_EQ(run.start_unit, 1000u);
  EXPECT_TRUE(e.runs.at_end());
  ASSERT_TRUE(r.next(&e));
  run = e.read_run();
  EXPECT_EQ(run.start_unit, 3u);
}

// --- decoder hardening: malformed input is a typed kProtocol error ---

template <typename F>
ErrorCode error_code_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "no error thrown";
  return ErrorCode::kInternal;
}

// Parses every entry and run header of `bytes`, skipping unit data (runs of
// one-byte units keep the skip exact).
void walk_diff(const std::vector<uint8_t>& bytes) {
  BufReader in(bytes.data(), bytes.size());
  DiffReader r(in);
  DiffEntry e;
  while (r.next(&e)) {
    while (!e.runs.at_end()) e.runs.skip(e.read_run().unit_count);
  }
}

TEST(DiffHardening, TruncatedVarintIsProtocolError) {
  // Input ends after a continuation byte, in the header and in a run.
  EXPECT_EQ(error_code_of([] { walk_diff({0x80}); }), ErrorCode::kProtocol);
  EXPECT_EQ(error_code_of([] { walk_diff({0, 0, 1, 1, 0, 1, 0x85}); }),
            ErrorCode::kProtocol);
}

TEST(DiffHardening, OverlongVarintIsProtocolError) {
  // Six bytes for a u32.
  EXPECT_EQ(error_code_of(
                [] { walk_diff({0x80, 0x80, 0x80, 0x80, 0x80, 0x01}); }),
            ErrorCode::kProtocol);
  // Five bytes whose value needs 33 bits.
  EXPECT_EQ(error_code_of(
                [] { walk_diff({0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 0, 0}); }),
            ErrorCode::kProtocol);
  // A redundant zero-valued last byte.
  EXPECT_EQ(error_code_of([] { walk_diff({0x81, 0x00, 0, 0}); }),
            ErrorCode::kProtocol);
  // The 64-bit reader caps at ten bytes.
  const std::vector<uint8_t> eleven = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                       0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  EXPECT_EQ(error_code_of([&] {
              BufReader r(eleven.data(), eleven.size());
              r.read_varint64();
            }),
            ErrorCode::kProtocol);
}

TEST(DiffHardening, RunGapPastU32IsProtocolError) {
  // One entry whose second run's gap lands its end past unit 2^32 - 1.
  Buffer b;
  b.append_varint(0);  // from
  b.append_varint(1);  // delta
  b.append_varint(1);  // n_entries
  b.append_varint(1);  // serial
  b.append_u8(0);
  Buffer runs;
  runs.append_varint(0);
  runs.append_varint(1);
  runs.append_u8(0xAB);
  runs.append_varint(UINT32_MAX - 1);  // gap
  runs.append_varint(2);
  b.append_varint(runs.size());
  b.append(runs.span());
  std::vector<uint8_t> bytes(b.data(), b.data() + b.size());
  EXPECT_EQ(error_code_of([&] { walk_diff(bytes); }), ErrorCode::kProtocol);
}

TEST(DiffHardening, ZeroCountRunIsProtocolError) {
  EXPECT_EQ(error_code_of([] { walk_diff({0, 1, 1, 1, 0, 2, 0, 0}); }),
            ErrorCode::kProtocol);
}

TEST(DiffHardening, ToVersionDeltaOverflowIsProtocolError) {
  Buffer b;
  b.append_varint(0xFFFFFFF0u);
  b.append_varint(0x20);
  b.append_varint(0);
  std::vector<uint8_t> bytes(b.data(), b.data() + b.size());
  EXPECT_EQ(error_code_of([&] { walk_diff(bytes); }), ErrorCode::kProtocol);
}

TEST(DiffHardening, WriterRejectsRunsItCannotEncode) {
  Buffer buf;
  DiffWriter w(buf, 0, 1);
  w.begin_block(1, 0);
  w.begin_run(10, 5);
  EXPECT_THROW(w.begin_run(12, 1), Error);  // overlaps [10, 15)
  EXPECT_THROW(w.begin_run(2, 1), Error);   // descending
  EXPECT_THROW(w.begin_run(20, 0), Error);  // empty
  w.begin_run(15, 1);
  w.end_block();
  w.finish();
  EXPECT_THROW(DiffWriter(buf, 5, 4), Error);
}

TEST(Diff, NewBlockCarriesTypeAndName) {
  Buffer buf;
  DiffWriter w(buf, 1, 2);
  w.begin_block(9, diff_flags::kNew | diff_flags::kWhole, 4, "head");
  w.begin_run(0, 1);
  w.buffer().append_u32(0xAA55AA55);
  w.end_block();
  w.finish();

  BufReader in(buf.span());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  EXPECT_EQ(e.serial, 9u);
  EXPECT_TRUE(e.flags & diff_flags::kNew);
  EXPECT_TRUE(e.flags & diff_flags::kWhole);
  EXPECT_EQ(e.type_serial, 4u);
  EXPECT_EQ(e.name, "head");
  DiffRun run = e.read_run();
  EXPECT_EQ(run.start_unit, 0u);
  EXPECT_EQ(e.runs.read_u32(), 0xAA55AA55u);
}

TEST(Diff, MultipleBlocksSequential) {
  Buffer buf;
  DiffWriter w(buf, 0, 5);
  for (uint32_t serial = 1; serial <= 10; ++serial) {
    w.begin_block(serial, 0);
    w.begin_run(0, 1);
    w.buffer().append_u32(serial * 100);
    w.end_block();
  }
  w.finish();

  BufReader in(buf.span());
  DiffReader r(in);
  EXPECT_EQ(r.entry_count(), 10u);
  DiffEntry e;
  for (uint32_t serial = 1; serial <= 10; ++serial) {
    ASSERT_TRUE(r.next(&e));
    EXPECT_EQ(e.serial, serial);
    e.read_run();
    EXPECT_EQ(e.runs.read_u32(), serial * 100);
  }
  EXPECT_FALSE(r.next(&e));
  EXPECT_TRUE(in.at_end());
}

TEST(Diff, TruncatedDiffThrows) {
  Buffer buf;
  DiffWriter w(buf, 0, 1);
  w.begin_block(1, 0);
  w.begin_run(0, 4);
  w.buffer().append_u32(1);
  w.end_block();
  w.finish();

  // Clip the buffer mid-entry.
  Buffer clipped;
  clipped.append(buf.data(), buf.size() - 3);
  BufReader in(clipped.span());
  DiffReader r(in);
  DiffEntry e;
  EXPECT_THROW(r.next(&e), Error);
}

TEST(Diff, WriterGuardsMisuse) {
  Buffer buf;
  DiffWriter w(buf, 0, 1);
  EXPECT_THROW(w.end_block(), Error);
  w.begin_block(1, 0);
  EXPECT_THROW(w.begin_block(2, 0), Error);
  EXPECT_THROW(w.add_free(3), Error);
  EXPECT_THROW(w.finish(), Error);
  w.end_block();
  w.finish();
}

}  // namespace
}  // namespace iw
