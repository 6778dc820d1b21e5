// Robustness fuzzing: random and truncated bytes fed to every decoder and
// to the server's protocol handler must produce clean errors, never crashes
// or hangs. Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "interweave/interweave.hpp"
#include "net/inproc.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "util/rand.hpp"
#include "wire/diff.hpp"
#include "wire/frame.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

std::vector<uint8_t> random_bytes(SplitMix64& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

TEST(FuzzDecode, TypeCodecNeverCrashes) {
  SplitMix64 rng(2026);
  TypeRegistry registry(Platform::native().rules);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = random_bytes(rng, 200);
    BufReader r(bytes.data(), bytes.size());
    try {
      TypeCodec::decode_graph(r, registry);
    } catch (const Error&) {
      // expected for garbage
    }
  }
}

TEST(FuzzDecode, MutatedValidTypeGraphs) {
  SplitMix64 rng(7);
  TypeRegistry source(Platform::native().rules);
  const TypeDescriptor* node = source.struct_builder("n")
      .field("k", source.primitive(PrimitiveKind::kInt32))
      .field("s", source.string_type(9))
      .self_pointer_field("next")
      .finish();
  Buffer valid;
  TypeCodec::encode_graph(node, valid);

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(valid.data(), valid.data() + valid.size());
    // Flip a few bytes / truncate.
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    TypeRegistry registry(Platform::native().rules);
    BufReader r(bytes.data(), bytes.size());
    try {
      const TypeDescriptor* t = TypeCodec::decode_graph(r, registry);
      // If it decoded, basic invariants must hold.
      ASSERT_NE(t, nullptr);
      (void)t->prim_units();
    } catch (const Error&) {
    }
  }
}

TEST(FuzzDecode, DiffReaderNeverCrashes) {
  SplitMix64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = random_bytes(rng, 300);
    BufReader in(bytes.data(), bytes.size());
    try {
      DiffReader reader(in);
      DiffEntry entry;
      int guard = 0;
      while (reader.next(&entry) && ++guard < 10000) {
        while (!entry.runs.at_end()) {
          DiffRun run = entry.read_run();
          entry.runs.skip(std::min<size_t>(entry.runs.remaining(),
                                           run.unit_count));
        }
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol);
    }
  }
}

TEST(FuzzDecode, MutatedValidDiffsAreProtocolErrors) {
  // Byte flips and truncations of a real diff hit every varint field,
  // gap and length; each must decode or fail with kProtocol, never UB.
  SplitMix64 rng(1234);
  Buffer valid;
  DiffWriter w(valid, 300, 301);
  w.add_free(70000);
  w.begin_block(9, diff_flags::kNew | diff_flags::kWhole, 3, "name");
  w.begin_run(0, 40);
  for (int i = 0; i < 40; ++i) w.buffer().append_u8(static_cast<uint8_t>(i));
  w.end_block();
  w.begin_block(200, 0);
  w.begin_run(5, 2);
  w.buffer().append_u16(0xBEEF);
  w.begin_run(1000, 150);
  for (int i = 0; i < 150; ++i) w.buffer().append_u8(7);
  w.end_block();
  w.finish();
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> bytes(valid.data(), valid.data() + valid.size());
    int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    BufReader in(bytes.data(), bytes.size());
    try {
      DiffReader reader(in);
      ASSERT_GE(reader.to_version(), reader.from_version());
      DiffEntry entry;
      while (reader.next(&entry)) {
        uint64_t prev_end = 0;
        while (!entry.runs.at_end()) {
          DiffRun run = entry.read_run();
          // Whatever decodes is ascending, disjoint, nonempty, in range.
          ASSERT_GE(run.start_unit, prev_end);
          ASSERT_GT(run.unit_count, 0u);
          prev_end = uint64_t{run.start_unit} + run.unit_count;
          ASSERT_LE(prev_end, UINT32_MAX);
          entry.runs.skip(std::min<size_t>(entry.runs.remaining(),
                                           run.unit_count));
        }
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol);
    }
  }
}

TEST(FuzzServer, MalformedVarintsAndRunsAreProtocolErrors) {
  server::SegmentServer server;
  InProcChannel ch(server);
  const std::string url = "host/varint";
  auto call = [&](MsgType type, const std::function<void(Buffer&)>& build) {
    Buffer p;
    build(p);
    return ch.call(type, std::move(p));
  };
  auto code_of = [&](MsgType type, const std::function<void(Buffer&)>& build) {
    try {
      call(type, build);
    } catch (const Error& e) {
      return e.code();
    }
    ADD_FAILURE() << "request was accepted";
    return ErrorCode::kInternal;
  };
  call(MsgType::kOpenSegment, [&](Buffer& p) {
    p.append_lp_string(url);
    p.append_u8(1);
  });
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr =
      reg.array_of(reg.primitive(PrimitiveKind::kInt32), 4);
  Frame t = call(MsgType::kRegisterType, [&](Buffer& p) {
    p.append_lp_string(url);
    TypeCodec::encode_graph(arr, p);
  });
  const uint32_t type_serial = t.reader().read_u32();

  // A new segment is at version 1; version 2 adds one four-unit block.
  auto acquire = [&](uint32_t version) {
    call(MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_vstring(url);
      p.append_varint(version);
    });
  };
  acquire(1);
  call(MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_vstring(url);
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial);
    w.begin_run(0, 4);
    for (uint32_t i = 0; i < 4; ++i) p.append_u32(i);
    w.end_block();
    w.finish();
  });

  // A release modifying block 1 with a hand-built run section.
  auto release_runs = [&](const std::function<void(Buffer&)>& runs) {
    acquire(2);
    return code_of(MsgType::kReleaseWrite, [&](Buffer& p) {
      p.append_vstring(url);
      p.append_u8(payload_method::kRaw);
      p.append_varint(2);  // from_version
      p.append_varint(1);  // to_version - from_version
      p.append_varint(1);  // n_entries
      p.append_varint(1);  // serial
      p.append_u8(0);      // flags
      Buffer section;
      runs(section);
      p.append_varint(section.size());
      p.append(section.span());
    });
  };
  // The gap pushes the run past the block's four units.
  EXPECT_EQ(release_runs([](Buffer& r) {
              r.append_varint(2);
              r.append_varint(3);
              for (int i = 0; i < 3; ++i) r.append_u32(9);
            }),
            ErrorCode::kProtocol);
  // The second run's gap pushes it past unit 2^32 - 1.
  EXPECT_EQ(release_runs([](Buffer& r) {
              r.append_varint(0);
              r.append_varint(1);
              r.append_u32(9);
              r.append_varint(UINT32_MAX);
              r.append_varint(1);
            }),
            ErrorCode::kProtocol);
  EXPECT_EQ(release_runs([](Buffer& r) {
              r.append_varint(1);
              r.append_varint(0);  // zero-count run
            }),
            ErrorCode::kProtocol);
  EXPECT_EQ(release_runs([](Buffer& r) {
              r.append_varint(1);
              r.append_u8(0x80);  // truncated unit_count
            }),
            ErrorCode::kProtocol);

  // Malformed scalars in the lock messages themselves.
  EXPECT_EQ(code_of(MsgType::kAcquireWrite,
                    [&](Buffer& p) {
                      p.append_vstring(url);
                      p.append_u8(0x81);  // truncated cached_version
                    }),
            ErrorCode::kProtocol);
  EXPECT_EQ(code_of(MsgType::kAcquireRead,
                    [&](Buffer& p) {
                      p.append_vstring(url);
                      p.append_varint(0);
                      p.append_u8(0);
                      for (int i = 0; i < 11; ++i) p.append_u8(0x80);
                    }),
            ErrorCode::kProtocol);  // 11-byte param varint
  acquire(2);
  EXPECT_EQ(code_of(MsgType::kReleaseWrite,
                    [&](Buffer& p) {
                      p.append_vstring(url);
                      p.append_u8(payload_method::kRaw);
                      p.append_varint(0xFFFFFFFFu);  // from_version
                      p.append_varint(1);  // to_version overflows u32
                      p.append_varint(0);
                    }),
            ErrorCode::kProtocol);

  // None of it wedged the segment: a valid commit still lands as v3.
  acquire(2);
  Frame resp = call(MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_vstring(url);
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 2, 3);
    w.begin_block(1, 0);
    w.begin_run(3, 1);
    p.append_u32(42);
    w.end_block();
    w.finish();
  });
  EXPECT_EQ(resp.reader().read_varint32(), 3u);
}

/// A server stand-in that answers kOpenSegment and hands every
/// kAcquireRead one canned update payload.
class CannedUpdateChannel final : public ClientChannel {
 public:
  explicit CannedUpdateChannel(Buffer update) : update_(std::move(update)) {}

  using ClientChannel::call;
  Frame call(MsgType type, Buffer&) override {
    Frame resp;
    Buffer p;
    if (type == MsgType::kOpenSegment) {
      resp.type = MsgType::kOpenSegmentResp;
      p.append_u32(1);  // version
      p.append_u32(1);  // next serial
    } else if (type == MsgType::kAcquireRead) {
      resp.type = MsgType::kAcquireReadResp;
      p.append(update_.span());
    } else {
      resp.type = MsgType::kAck;
    }
    resp.payload = p.take();
    return resp;
  }
  void set_notify_handler(std::function<void(const Frame&)>) override {}
  uint64_t bytes_sent() const override { return 0; }
  uint64_t bytes_received() const override { return 0; }

 private:
  Buffer update_;
};

TEST(FuzzClient, UpdateWithTypeSerialZeroIsProtocolError) {
  // Type serials start at 1; a 0 from the wire must not index the client's
  // type table at -1.
  Buffer update;
  update.append_u8(1);     // status: update follows
  update.append_varint(1);  // n_types
  update.append_varint(0);  // serial
  update.append_varint(0);  // graph_len
  update.append_u8(payload_method::kRaw);
  DiffWriter(update, 0, 1).finish();
  update.append_u8(0);  // grant
  client::Client::Options opts;
  opts.auto_reconnect = false;
  Client c(
      [&](const std::string&) {
        return std::make_shared<CannedUpdateChannel>(std::move(update));
      },
      opts);
  ClientSegment* seg = c.open_segment("host/canned");
  try {
    c.read_lock(seg);
    ADD_FAILURE() << "update accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

TEST(FuzzServer, RandomFramesGetCleanResponses) {
  server::SegmentServer server;
  InProcChannel channel(server);
  SplitMix64 rng(4242);
  int errors = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    auto type = static_cast<MsgType>(rng.below(20));
    if (type == MsgType::kAcquireWrite) continue;  // may legitimately block
    auto payload_bytes = random_bytes(rng, 120);
    Buffer payload;
    payload.append(payload_bytes.data(), payload_bytes.size());
    try {
      channel.call(type, std::move(payload));
    } catch (const Error&) {
      ++errors;
    }
  }
  EXPECT_GT(errors, 0) << "garbage should mostly be rejected";
  // And the server must still work normally afterwards.
  Buffer open;
  open.append_lp_string("host/after-fuzz");
  open.append_u8(1);
  Frame resp = channel.call(MsgType::kOpenSegment, std::move(open));
  EXPECT_EQ(resp.type, MsgType::kOpenSegmentResp);
}

TEST(FuzzServer, MalformedReleaseDoesNotWedgeTheLock) {
  server::SegmentServer server;
  InProcChannel a(server);
  InProcChannel b(server);
  Buffer open;
  open.append_lp_string("host/wedge");
  open.append_u8(1);
  a.call(MsgType::kOpenSegment, std::move(open));

  // a acquires the write lock, then releases with garbage.
  Buffer acq;
  acq.append_vstring("host/wedge");
  acq.append_varint(0);
  a.call(MsgType::kAcquireWrite, std::move(acq));
  Buffer bad;
  bad.append_vstring("host/wedge");
  bad.append_u8(payload_method::kRaw);
  bad.append_varint(0);    // from_version
  bad.append_varint(1);    // to_version - from_version
  bad.append_varint(123);  // n_entries, none of which follow: not a valid diff
  EXPECT_THROW(a.call(MsgType::kReleaseWrite, std::move(bad)), Error);

  // b must be able to take the lock now.
  Buffer acq2;
  acq2.append_vstring("host/wedge");
  acq2.append_varint(0);
  Frame resp = b.call(MsgType::kAcquireWrite, std::move(acq2));
  EXPECT_EQ(resp.type, MsgType::kAcquireWriteResp);
  Buffer rel;
  rel.append_vstring("host/wedge");
  rel.append_u8(payload_method::kRaw);
  DiffWriter(rel, 1, 1).finish();
  b.call(MsgType::kReleaseWrite, std::move(rel));
}

// ------------------------------------------------------- payload codec

std::vector<uint8_t> compressible_bytes(SplitMix64& rng, size_t len) {
  // Runs of repeated values with occasional noise: realistic diff shape,
  // reliably beats the raw form.
  std::vector<uint8_t> out(len);
  size_t i = 0;
  while (i < len) {
    uint8_t value = static_cast<uint8_t>(rng());
    size_t run = 8 + rng.below(64);
    for (size_t j = 0; j < run && i < len; ++j) out[i++] = value;
  }
  return out;
}

TEST(FuzzCodec, LzRoundTripsEveryInputShape) {
  SplitMix64 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> raw = (trial % 2 == 0)
        ? compressible_bytes(rng, 1 + rng.below(4096))
        : random_bytes(rng, 4096);
    Buffer comp;
    if (!lz_compress(raw, comp)) continue;  // incompressible: raw is kept
    ASSERT_LT(comp.size(), raw.size());
    std::vector<uint8_t> back = lz_decompress(comp.span(), raw.size());
    ASSERT_EQ(back, raw);
  }
}

TEST(FuzzCodec, LzOutputDoesNotDependOnEarlierCalls) {
  // The match table persists across calls on a thread; whatever earlier
  // inputs left in it must read as empty, so every input compresses to the
  // bytes a fresh thread produces.
  SplitMix64 rng(53);
  std::vector<std::vector<uint8_t>> inputs;
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(compressible_bytes(rng, 64 + rng.below(3000)));
  }
  inputs.push_back(inputs[3]);  // a repeat sees its own stale positions
  std::vector<std::vector<uint8_t>> fresh(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::thread([&, i] {
      Buffer out;
      lz_compress(inputs[i], out);
      fresh[i].assign(out.data(), out.data() + out.size());
    }).join();
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    Buffer out;
    lz_compress(inputs[i], out);
    ASSERT_EQ(std::vector<uint8_t>(out.data(), out.data() + out.size()),
              fresh[i])
        << "input " << i;
  }
}

TEST(FuzzCodec, MutatedCompressedStreamsAreTypedErrors) {
  SplitMix64 rng(67);
  std::vector<uint8_t> raw = compressible_bytes(rng, 2048);
  Buffer comp;
  ASSERT_TRUE(lz_compress(raw, comp));
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(comp.data(), comp.data() + comp.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    try {
      std::vector<uint8_t> back = lz_decompress(bytes, raw.size());
      // A mutation the checksum-free block codec cannot see must still
      // produce exactly raw_len bytes — never a crash or OOB access.
      ASSERT_EQ(back.size(), raw.size());
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
    }
  }
}

TEST(FuzzCodec, RecordPayloadEnvelopeRoundTripsAndRejectsGarbage) {
  SplitMix64 rng(101);
  std::vector<uint8_t> head(4, 0x7a);
  std::vector<uint8_t> body = compressible_bytes(rng, 1500);
  Buffer packed;
  ASSERT_TRUE(compress_record_payload(head, body, packed));
  std::vector<uint8_t> back = decompress_record_payload(packed.span());
  std::vector<uint8_t> want(head);
  want.insert(want.end(), body.begin(), body.end());
  EXPECT_EQ(back, want);

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(packed.data(), packed.data() + packed.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    try {
      (void)decompress_record_payload(bytes);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
    }
  }
  // Pure garbage never crashes either.
  for (int trial = 0; trial < 1000; ++trial) {
    auto bytes = random_bytes(rng, 256);
    try {
      (void)decompress_record_payload(bytes);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
    }
  }
}

TEST(FuzzCodec, SectionEnvelopeRoundTripsWithTrailingBytes) {
  SplitMix64 rng(211);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> section = compressible_bytes(rng, 64 + rng.below(2048));
    Buffer payload;
    payload.append_u32(0xfeedface);  // leading frame field
    const size_t method_offset = payload.size();
    payload.append_u8(payload_method::kRaw);
    payload.append(section.data(), section.size());
    const bool compressed = compress_section_in_place(payload, method_offset);
    payload.append_u8(0x5c);  // trailing frame field (the grant byte shape)

    BufReader in(payload.data(), payload.size());
    ASSERT_EQ(in.read_u32(), 0xfeedface);
    std::vector<uint8_t> scratch;
    if (read_compressed_section(in, scratch)) {
      ASSERT_TRUE(compressed);
      ASSERT_EQ(scratch, section);
    } else {
      ASSERT_FALSE(compressed);
      auto raw = in.read_bytes(section.size());
      ASSERT_TRUE(std::equal(raw.begin(), raw.end(), section.begin()));
    }
    // The kLz envelope is explicitly sized: trailing bytes still line up.
    ASSERT_EQ(in.read_u8(), 0x5c);
    ASSERT_EQ(in.remaining(), 0u);
  }
}

TEST(FuzzCodec, MutatedSectionEnvelopesAreTypedErrors) {
  SplitMix64 rng(307);
  std::vector<uint8_t> section = compressible_bytes(rng, 2048);
  Buffer payload;
  const size_t method_offset = payload.size();
  payload.append_u8(payload_method::kRaw);
  payload.append(section.data(), section.size());
  ASSERT_TRUE(compress_section_in_place(payload, method_offset));
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(payload.data(), payload.data() + payload.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    BufReader in(bytes.data(), bytes.size());
    std::vector<uint8_t> scratch;
    try {
      if (read_compressed_section(in, scratch)) {
        ASSERT_EQ(scratch.size(), section.size());
      }
    } catch (const Error& e) {
      // Method-byte mutations surface as protocol-shaped errors; stream
      // mutations as kCorruptPayload. Either way: typed, never a crash.
      EXPECT_TRUE(e.code() == ErrorCode::kCorruptPayload ||
                  e.code() == ErrorCode::kProtocol)
          << static_cast<int>(e.code());
    }
  }
}

TEST(FuzzCodec, RecordScannerStopsCleanlyOnMutatedFrames) {
  SplitMix64 rng(401);
  Buffer valid;
  for (uint8_t tag = 1; tag <= 4; ++tag) {
    auto body = compressible_bytes(rng, 200 + rng.below(800));
    append_framed_record(valid, tag, body);
  }
  // The pristine run scans end to end.
  {
    RecordScanner scanner(valid.span());
    ScannedRecord rec;
    int n = 0;
    while (scanner.next(&rec) == RecordScanner::Status::kRecord) ++n;
    EXPECT_EQ(n, 4);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(valid.data(), valid.data() + valid.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    RecordScanner scanner(bytes);
    ScannedRecord rec;
    int guard = 0;
    RecordScanner::Status status;
    while ((status = scanner.next(&rec)) == RecordScanner::Status::kRecord) {
      ASSERT_LT(++guard, 64);
      // Every surfaced record passed its CRC; the flip either hit a body
      // (caught) or a record it left intact.
      ASSERT_LE(rec.end_offset, bytes.size());
    }
    // Never hangs, never reads past the buffer; any damage is kTorn.
    ASSERT_TRUE(status == RecordScanner::Status::kEnd ||
                status == RecordScanner::Status::kTorn);
  }
}

TEST(FuzzFrame, HeaderDecoding) {
  SplitMix64 rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    uint8_t header[kFrameHeaderSize];
    for (auto& b : header) b = static_cast<uint8_t>(rng());
    try {
      FrameHeader h = decode_frame_header(header);
      EXPECT_LE(h.payload_size, kMaxFramePayload);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace iw
