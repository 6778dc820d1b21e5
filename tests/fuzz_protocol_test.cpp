// Robustness fuzzing: random and truncated bytes fed to every decoder and
// to the server's protocol handler must produce clean errors, never crashes
// or hangs. Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <thread>

#include "interweave/interweave.hpp"
#include "net/inproc.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "util/crc32c.hpp"
#include "util/rand.hpp"
#include "wire/diff.hpp"
#include "wire/frame.hpp"
#include "wire/payload.hpp"
#include "wire/translate.hpp"

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
  ch.call(MsgType::kHello, hello_payload());
  call(MsgType::kOpenSegment, [&](Buffer& p) {
    p.append_varint(1);
    p.append_vstring(url);
    p.append_u8(1);
  });
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* arr =
      reg.array_of(reg.primitive(PrimitiveKind::kInt32), 4);
  Frame t = call(MsgType::kRegisterType, [&](Buffer& p) {
    p.append_varint(1);
    TypeCodec::encode_graph(arr, p);
  });
  const uint32_t type_serial = t.reader().read_varint32();

  // A new segment is at version 1; version 2 adds one four-unit block.
  auto acquire = [&](uint32_t version) {
    call(MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_varint(1);
      p.append_varint(version);
    });
  };
  acquire(1);
  call(MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_varint(1);
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
      p.append_varint(1);
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
                      p.append_varint(1);
                      p.append_u8(0x81);  // truncated cached_version
                    }),
            ErrorCode::kProtocol);
  EXPECT_EQ(code_of(MsgType::kAcquireRead,
                    [&](Buffer& p) {
                      p.append_varint(1);
                      p.append_varint(0);
                      p.append_u8(0);
                      for (int i = 0; i < 11; ++i) p.append_u8(0x80);
                    }),
            ErrorCode::kProtocol);  // 11-byte param varint
  acquire(2);
  EXPECT_EQ(code_of(MsgType::kReleaseWrite,
                    [&](Buffer& p) {
                      p.append_varint(1);
                      p.append_u8(payload_method::kRaw);
                      p.append_varint(0xFFFFFFFFu);  // from_version
                      p.append_varint(1);  // to_version overflows u32
                      p.append_varint(0);
                    }),
            ErrorCode::kProtocol);

  // None of it wedged the segment: a valid commit still lands as v3.
  acquire(2);
  Frame resp = call(MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_varint(1);
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

// Pointer units whose decode must fail with kProtocol, each the whole
// content of a one-unit run into a block of four pointer units (serial 1).
const std::vector<std::vector<uint8_t>>& malformed_pointer_units() {
  static const std::vector<std::vector<uint8_t>> units = {
      {0x03},              // unknown tag 3
      {0x04},              // tag 0 with serial bits: not null
      {0x06},              // tag 2 with serial bits: not cross
      {0x01, 0x00},        // intra, serial 0
      {0x25, 0x00},        // intra, serial 9: never allocated
      {0x05, 0x04},        // intra, block 1 unit 4 of 4
      {0x05, 0x80},        // intra, truncated unit varint
      {0x85},              // truncated head varint
      {0x02, 0x00},        // cross, empty MIP
      {0x02, 0x05, 'h'},   // cross, truncated MIP
  };
  return units;
}

TEST(FuzzServer, MalformedPointerUnitsAreProtocolErrors) {
  server::SegmentServer server;
  InProcChannel ch(server);
  auto call = [&](MsgType type, const std::function<void(Buffer&)>& build) {
    Buffer p;
    build(p);
    return ch.call(type, std::move(p));
  };
  ch.call(MsgType::kHello, hello_payload());
  call(MsgType::kOpenSegment, [&](Buffer& p) {
    p.append_varint(1);
    p.append_vstring("host/pointers");
    p.append_u8(1);
  });
  TypeRegistry reg(Platform::native().rules);
  const TypeDescriptor* ptrs = reg.array_of(reg.pointer_to(nullptr), 4);
  Frame t = call(MsgType::kRegisterType, [&](Buffer& p) {
    p.append_varint(1);
    TypeCodec::encode_graph(ptrs, p);
  });
  const uint32_t type_serial = t.reader().read_varint32();
  auto release = [&](uint32_t version, std::span<const uint8_t> unit) {
    call(MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_varint(1);
      p.append_varint(version);
    });
    return call(MsgType::kReleaseWrite, [&](Buffer& p) {
      p.append_varint(1);
      p.append_u8(payload_method::kRaw);
      DiffWriter w(p, version, version + 1);
      if (version == 1) {
        w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial);
        w.begin_run(0, 4);
        for (int i = 0; i < 4; ++i) append_null_pointer(p);
      } else {
        w.begin_block(1, 0);
        w.begin_run(2, 1);
        p.append(unit);
      }
      w.end_block();
      w.finish();
    });
  };
  release(1, {});
  for (const auto& unit : malformed_pointer_units()) {
    try {
      release(2, unit);
      ADD_FAILURE() << "accepted pointer unit starting " << int{unit[0]};
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol) << e.what();
    }
  }
  // None of it landed: a reader fetching from scratch sees four nulls (a
  // stored unit naming serial 9 would fail its fetch), and a valid pointer
  // to block 1 unit 3 still lands as v3.
  {
    Client reader([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    ClientSegment* seg = reader.open_segment("host/pointers", false);
    reader.read_lock(seg);
    const auto* blk = seg->heap().find_by_serial(1);
    ASSERT_NE(blk, nullptr);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(reinterpret_cast<void* const*>(blk->data())[i], nullptr) << i;
    }
    reader.read_unlock(seg);
  }
  const uint8_t valid[] = {0x05, 0x03};
  EXPECT_EQ(release(2, valid).reader().read_varint32(), 3u);
}

/// A server stand-in that answers kHello and kOpenSegment and hands every
/// kAcquireRead one canned update payload.
class CannedUpdateChannel final : public ClientChannel {
 public:
  explicit CannedUpdateChannel(Buffer update) : update_(std::move(update)) {}

  using ClientChannel::call;
  Frame call(MsgType type, Buffer&) override {
    Frame resp;
    Buffer p;
    if (type == MsgType::kHello) {
      resp.type = MsgType::kHelloResp;
      p.append_varint(0);  // writer leases disabled
    } else if (type == MsgType::kOpenSegment) {
      resp.type = MsgType::kOpenSegmentResp;
      p.append_varint(1);  // version
      p.append_varint(1);  // next serial
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
  Client c([&](const std::string&) {
    return std::make_shared<CannedUpdateChannel>(std::move(update));
  });
  ClientSegment* seg = c.open_segment("host/canned");
  try {
    c.read_lock(seg);
    ADD_FAILURE() << "update accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

TEST(FuzzClient, MalformedPointerUnitsAreProtocolErrors) {
  // The same units, in a from-0 update that creates block 1: the client's
  // decoder must refuse each before it stores a pointer. The one exception
  // is a well-formed pointer to a serial the reader has no block for: a
  // server keeps pointers to blocks freed since, so it reads as null.
  const std::vector<uint8_t> unknown_serial = {0x25, 0x00};
  TypeRegistry reg(Platform::native().rules);
  Buffer graph;
  TypeCodec::encode_graph(reg.array_of(reg.pointer_to(nullptr), 4), graph);
  for (const auto& unit : malformed_pointer_units()) {
    Buffer update;
    update.append_u8(1);      // status: update follows
    update.append_varint(1);  // n_types
    update.append_varint(1);  // type serial
    update.append_vstring({reinterpret_cast<const char*>(graph.data()),
                           graph.size()});
    update.append_u8(payload_method::kRaw);
    DiffWriter w(update, 0, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, 1);
    w.begin_run(0, 3);
    append_null_pointer(update);
    append_null_pointer(update);
    update.append(unit.data(), unit.size());
    w.end_block();
    w.finish();
    update.append_u8(0);  // grant
    Client c([&](const std::string&) {
      return std::make_shared<CannedUpdateChannel>(std::move(update));
    });
    ClientSegment* seg = c.open_segment("host/canned");
    if (unit == unknown_serial) {
      c.read_lock(seg);
      const client::BlockHeader* blk = seg->heap().find_by_serial(1);
      ASSERT_NE(blk, nullptr);
      EXPECT_EQ(c.read_pointer_field(
                    blk->data() + blk->type->locate_prim(3).local_offset),
                nullptr);
      c.read_unlock(seg);
      continue;
    }
    try {
      c.read_lock(seg);
      ADD_FAILURE() << "accepted pointer unit starting " << int{unit[0]};
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol) << e.what();
    }
  }
}

TEST(FuzzServer, RandomFramesGetCleanResponses) {
  server::SegmentServer server;
  InProcChannel channel(server);
  channel.call(MsgType::kHello, hello_payload());
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
  open.append_varint(1);
  open.append_vstring("host/after-fuzz");
  open.append_u8(1);
  Frame resp = channel.call(MsgType::kOpenSegment, std::move(open));
  EXPECT_EQ(resp.type, MsgType::kOpenSegmentResp);
}

TEST(FuzzServer, MalformedReleaseDoesNotWedgeTheLock) {
  server::SegmentServer server;
  InProcChannel a(server);
  InProcChannel b(server);
  a.call(MsgType::kHello, hello_payload());
  b.call(MsgType::kHello, hello_payload());
  Buffer open;
  open.append_varint(1);
  open.append_vstring("host/wedge");
  open.append_u8(1);
  Buffer open_b(open.span().size());
  open_b.append(open.span());
  a.call(MsgType::kOpenSegment, std::move(open));
  b.call(MsgType::kOpenSegment, std::move(open_b));

  // a acquires the write lock, then releases with garbage.
  Buffer acq;
  acq.append_varint(1);
  acq.append_varint(0);
  a.call(MsgType::kAcquireWrite, std::move(acq));
  Buffer bad;
  bad.append_varint(1);
  bad.append_u8(payload_method::kRaw);
  bad.append_varint(0);    // from_version
  bad.append_varint(1);    // to_version - from_version
  bad.append_varint(123);  // n_entries, none of which follow: not a valid diff
  EXPECT_THROW(a.call(MsgType::kReleaseWrite, std::move(bad)), Error);

  // b must be able to take the lock now.
  Buffer acq2;
  acq2.append_varint(1);
  acq2.append_varint(0);
  Frame resp = b.call(MsgType::kAcquireWrite, std::move(acq2));
  EXPECT_EQ(resp.type, MsgType::kAcquireWriteResp);
  Buffer rel;
  rel.append_varint(1);
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

// A populate-shaped commit diff: thousands of new linked records, each a
// whole-block run of an int, a key, a pointer to the next record and a
// double.
std::vector<uint8_t> populate_shaped_diff(size_t records) {
  Buffer out;
  DiffWriter writer(out, 1, 2);
  for (uint32_t serial = 1; serial <= records; ++serial) {
    writer.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, 1);
    writer.begin_run(0, 4);
    Buffer& b = writer.buffer();
    b.append_u32(serial * 37u);
    b.append_u32(serial ^ 0x5a5au);
    append_intra_pointer(b, serial + 1, 0);
    b.append_f64(serial * 0.25);
    writer.end_block();
  }
  writer.finish();
  return out.take();
}

TEST(FuzzCodec, LzEncoderOutputIsPinned) {
  // The encoder's bytes are part of what the server journals, replicates
  // and serves; any change to them shows up here as a changed size or
  // CRC32C. Corpus: a populate-shaped diff, run-length data with long runs
  // (length extensions), random bytes with repeated chunks (far offsets,
  // long literal runs), and plain random bytes (incompressible).
  SplitMix64 rng(4242);
  std::vector<std::vector<uint8_t>> corpus;
  corpus.push_back(populate_shaped_diff(8192));
  corpus.push_back(compressible_bytes(rng, 1 << 16));
  {
    std::vector<uint8_t> runs;
    for (int i = 0; i < 64; ++i) {
      runs.insert(runs.end(), 1 + rng.below(2000),
                  static_cast<uint8_t>(rng()));
    }
    corpus.push_back(std::move(runs));
  }
  {
    std::vector<uint8_t> mixed(1 << 15);
    for (auto& b : mixed) b = static_cast<uint8_t>(rng());
    for (int i = 0; i < 200; ++i) {
      const size_t len = 4 + rng.below(300);
      const size_t from = rng.below(mixed.size() - len);
      const size_t to = rng.below(mixed.size() - len);
      std::memmove(&mixed[to], &mixed[from], len);
    }
    corpus.push_back(std::move(mixed));
  }
  corpus.push_back(random_bytes(rng, 4096));

  struct Pin {
    bool compressed;
    size_t size;
    uint32_t crc;
  };
  const Pin want[] = {
      {true, 129355, 2994539333u},
      {true, 9346, 1348978478u},
      {true, 519, 1620241795u},
      {true, 18266, 103440912u},
      {false, 0, 0},
  };
  ASSERT_EQ(corpus.size(), std::size(want));
  for (size_t i = 0; i < corpus.size(); ++i) {
    Buffer out;
    const bool compressed = lz_compress(corpus[i], out);
    EXPECT_EQ(compressed, want[i].compressed) << "input " << i;
    EXPECT_EQ(out.size(), want[i].size) << "input " << i;
    EXPECT_EQ(crc32c(out.span()), want[i].crc) << "input " << i;
    if (compressed) {
      EXPECT_EQ(lz_decompress(out.span(), corpus[i].size()), corpus[i]);
    }
  }
}

// The literal-run length the first token of an lz_compress stream codes.
size_t first_literal_run(std::span<const uint8_t> comp) {
  size_t lit = comp[0] >> 4, i = 1;
  if (lit == 15) {
    uint8_t b;
    do {
      b = comp[i++];
      lit += b;
    } while (b == 255);
  }
  return lit;
}

/// A record as the journal, the replication stream and a checkpoint chain
/// carry it: `head`, then `body` in its section envelope, compressed when
/// that pays.
std::vector<uint8_t> record_of(std::span<const uint8_t> head,
                               std::span<const uint8_t> body) {
  Buffer out;
  out.append(head);
  if (!compress_section(body, out)) {
    out.append_u8(payload_method::kRaw);
    out.append(body);
  }
  return {out.data(), out.data() + out.size()};
}

/// The body of a record_of record, read as recovery reads it.
std::vector<uint8_t> body_of(std::span<const uint8_t> record,
                             size_t head_size) {
  BufReader in(record.data(), record.size());
  in.skip(head_size);
  std::vector<uint8_t> scratch;
  const auto body = read_record_section(in, scratch);
  return {body.begin(), body.end()};
}

bool typed_decode_error(const Error& e) {
  return e.code() == ErrorCode::kCorruptPayload ||
         e.code() == ErrorCode::kProtocol;
}

TEST(FuzzCodec, SplicedRecordPayloadsRoundTrip) {
  // A record carries the body's section envelope after its head, with the
  // LZ stream untouched: around every token-nibble and length-extension
  // boundary of the stream's first literal run, with and without the
  // 4-byte version head a journaled commit carries.
  SplitMix64 rng(907);
  for (size_t lit : {0, 10, 11, 14, 15, 254, 255, 269, 270}) {
    // `lit` random bytes, then that prefix repeated: the first match
    // starts right after the first literal run. With no prefix the body is
    // empty and goes raw.
    std::vector<uint8_t> body(lit);
    for (auto& b : body) b = static_cast<uint8_t>(rng());
    Buffer comp;
    if (lit != 0) {
      while (body.size() < 2000) body.push_back(body[body.size() - lit]);
      ASSERT_TRUE(lz_compress(body, comp));
      ASSERT_EQ(first_literal_run(comp.span()), lit);
    }
    for (size_t head_size : {0, 4}) {
      std::vector<uint8_t> head(head_size);
      for (auto& b : head) b = static_cast<uint8_t>(rng());
      const auto record = record_of(head, body);
      ASSERT_TRUE(std::equal(head.begin(), head.end(), record.begin()));
      ASSERT_EQ(body_of(record, head_size), body)
          << "literal run " << lit << ", head " << head_size;
      if (lit != 0) {
        ASSERT_EQ(record[head_size], payload_method::kLz);
        ASSERT_TRUE(std::equal(comp.span().rbegin(), comp.span().rend(),
                               record.rbegin()))
            << "the stream was re-encoded";
      }
    }
  }
  // A writer's envelope is the one the server would make of the same
  // section, so the journal stores one record either way.
  std::vector<uint8_t> body = compressible_bytes(rng, 3000);
  Buffer wire, server;
  wire.append_u8(payload_method::kRaw);
  wire.append(body);
  ASSERT_TRUE(compress_section_in_place(wire, 0));
  ASSERT_TRUE(compress_section(body, server));
  EXPECT_EQ(wire.size(), server.size());
  EXPECT_TRUE(std::equal(wire.span().begin(), wire.span().end(),
                         server.span().begin()));
}

TEST(FuzzCodec, MutatedSpliceInputsAreTypedErrors) {
  SplitMix64 rng(911);
  std::vector<uint8_t> body = compressible_bytes(rng, 2048);
  const std::vector<uint8_t> head = {0, 0, 0, 2};
  const auto record = record_of(head, body);
  ASSERT_EQ(record[head.size()], payload_method::kLz);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(record);
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      // Bias toward the envelope's method byte, its lengths and the
      // stream's first sequence.
      const size_t at = rng.below(4) == 0
                            ? head.size() + rng.below(bytes.size() -
                                                      head.size())
                            : head.size() + rng.below(12);
      bytes[at] ^= static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) {
      bytes.resize(head.size() + rng.below(bytes.size() - head.size() + 1));
    }
    try {
      const auto back = body_of(bytes, head.size());
      if (bytes[head.size()] == payload_method::kLz) {
        ASSERT_EQ(back.size(), body.size());
      }
    } catch (const Error& e) {
      EXPECT_TRUE(typed_decode_error(e)) << static_cast<int>(e.code());
    }
  }
  // Truncated inside the first token's length extension.
  Buffer truncated;
  truncated.append(head);
  truncated.append_u8(payload_method::kLz);
  truncated.append_varint(2);
  truncated.append_varint(300);
  truncated.append_u8(0xF0);
  truncated.append_u8(255);
  EXPECT_THROW(body_of(truncated.span(), head.size()), Error);
}

TEST(FuzzCodec, OverlappingMatchesDecodeByteExactly) {
  // Offsets below 8 overlap their own output and decode byte by byte;
  // 8 and up decode in 8-byte chunks. Hand-built streams cover each
  // offset 1..16 at match lengths on both sides of a chunk boundary.
  SplitMix64 rng(919);
  for (size_t offset = 1; offset <= 16; ++offset) {
    for (size_t match : {4, 7, 8, 9, 15, 16, 17, 18, 19, 40, 300}) {
      std::vector<uint8_t> lits(offset);
      for (auto& b : lits) b = static_cast<uint8_t>(rng());
      auto nibble = [](size_t len) { return len < 15 ? len : 15; };
      auto extend = [](Buffer& out, size_t len) {
        if (len < 15) return;
        for (len -= 15; len >= 255; len -= 255) out.append_u8(255);
        out.append_u8(static_cast<uint8_t>(len));
      };
      Buffer comp;
      const size_t extra = match - 4;
      comp.append_u8(static_cast<uint8_t>((nibble(offset) << 4) |
                                          nibble(extra)));
      extend(comp, offset);
      comp.append(lits.data(), lits.size());
      comp.append_u16(static_cast<uint16_t>(offset));
      extend(comp, extra);
      comp.append_u8(0x10);  // final run: one literal
      comp.append_u8(0xEE);
      std::vector<uint8_t> want(lits);
      for (size_t i = 0; i < match; ++i) {
        want.push_back(want[want.size() - offset]);
      }
      want.push_back(0xEE);
      ASSERT_EQ(lz_decompress(comp.span(), want.size()), want)
          << "offset " << offset << ", match " << match;
    }
  }
}

/// Appends one hand-built LZ sequence to `comp` and what it decodes to to
/// `raw`: `lits`, then (unless `offset` is 0, a final literals-only
/// sequence) a `match`-byte copy from `offset` bytes back.
void put_sequence(Buffer& comp, std::vector<uint8_t>& raw,
                  const std::vector<uint8_t>& lits, size_t offset = 0,
                  size_t match = 0) {
  auto nibble = [](size_t len) { return len < 15 ? len : 15; };
  auto extend = [&](size_t len) {
    if (len < 15) return;
    for (len -= 15; len >= 255; len -= 255) comp.append_u8(255);
    comp.append_u8(static_cast<uint8_t>(len));
  };
  comp.append_u8(static_cast<uint8_t>(
      (nibble(lits.size()) << 4) | (offset != 0 ? nibble(match - 4) : 0)));
  extend(lits.size());
  comp.append(lits.data(), lits.size());
  raw.insert(raw.end(), lits.begin(), lits.end());
  if (offset == 0) return;
  comp.append_u16(static_cast<uint16_t>(offset));
  extend(match - 4);
  for (size_t i = 0; i < match; ++i) raw.push_back(raw[raw.size() - offset]);
}

/// The message lz_decompress throws for these bytes, or "" when it decodes
/// them to `want`.
std::string decode_error(const std::vector<uint8_t>& comp, size_t raw_len,
                         const std::vector<uint8_t>& want = {}) {
  try {
    // Exactly sized input and output: a chunk copy past either end is an
    // out-of-bounds access the sanitizer lanes catch.
    const std::vector<uint8_t> back = lz_decompress(comp, raw_len);
    EXPECT_EQ(back, want);
    return "";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload) << e.what();
    return e.what();
  }
}

TEST(FuzzCodec, DecoderCopiesExactlyAtTheEndOfOutput) {
  // Short literal runs and matches are copied in fixed chunks that may run
  // past them, only while the output has room for the whole chunk; these
  // streams end exactly at raw_len, where the decoder must copy exactly.
  SplitMix64 rng(1201);
  auto random_run = [&](size_t len) {
    std::vector<uint8_t> v(len);
    for (auto& b : v) b = static_cast<uint8_t>(rng());
    return v;
  };
  struct Case {
    std::vector<uint8_t> comp;
    std::vector<uint8_t> raw;
    bool ends_in_match;
  };
  std::vector<Case> cases;
  for (size_t prefix : {0, 5, 40}) {
    // A final literal run of 0, 14, 15, 16 and 17 bytes.
    for (size_t lit : {0, 14, 15, 16, 17}) {
      Buffer comp;
      std::vector<uint8_t> raw;
      if (prefix != 0) put_sequence(comp, raw, random_run(prefix), 1, 6);
      put_sequence(comp, raw, random_run(lit));
      cases.push_back({{comp.data(), comp.data() + comp.size()}, raw,
                       lit == 0 && prefix != 0});
    }
    // A match at the very end, overlapping (offsets 1-9) or not.
    for (size_t offset = 1; offset <= 17; ++offset) {
      for (size_t match : {4, 7, 8, 9, 15, 16, 17, 24}) {
        Buffer comp;
        std::vector<uint8_t> raw;
        put_sequence(comp, raw, random_run(prefix + offset), offset, match);
        cases.push_back(
            {{comp.data(), comp.data() + comp.size()}, raw, true});
      }
    }
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "raw " << c.raw.size() << ", comp " << c.comp.size());
    ASSERT_EQ(decode_error(c.comp, c.raw.size(), c.raw), "");
    // One byte short: the last copy overruns the output; one byte long:
    // the stream ends early.
    if (!c.raw.empty()) {
      EXPECT_EQ(decode_error(c.comp, c.raw.size() - 1),
                c.ends_in_match ? "CorruptPayload: match run past end of output"
                                : "CorruptPayload: literal run past end of output");
    }
    EXPECT_EQ(decode_error(c.comp, c.raw.size() + 1),
              "CorruptPayload: decompressed size mismatch");
    // Every truncation is a typed error (or, when it cuts only an empty
    // final sequence, the same output), never a read past the input.
    for (size_t cut = 0; cut < c.comp.size(); ++cut) {
      const std::vector<uint8_t> head(
          c.comp.begin(), c.comp.begin() + static_cast<ptrdiff_t>(cut));
      decode_error(head, c.raw.size(), c.raw);
    }
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
  const auto record = record_of(head, body);
  ASSERT_EQ(record[head.size()], payload_method::kLz);
  EXPECT_LT(record.size(), head.size() + 1 + body.size());
  EXPECT_EQ(body_of(record, head.size()), body);
  // A body too small to compress goes raw, behind its method byte.
  const std::vector<uint8_t> small = {1, 2, 3};
  EXPECT_EQ(record_of(head, small).size(), head.size() + 1 + small.size());
  EXPECT_EQ(body_of(record_of(head, small), head.size()), small);

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(record);
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[head.size() + rng.below(bytes.size() - head.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) {
      bytes.resize(head.size() + rng.below(bytes.size() - head.size() + 1));
    }
    try {
      (void)body_of(bytes, head.size());
    } catch (const Error& e) {
      EXPECT_TRUE(typed_decode_error(e)) << static_cast<int>(e.code());
    }
  }
  // Bytes past a kLz stream are garbage, not a second body.
  std::vector<uint8_t> trailing(record);
  trailing.push_back(0);
  try {
    (void)body_of(trailing, head.size());
    ADD_FAILURE() << "trailing bytes accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
  }
  // Pure garbage never crashes either.
  for (int trial = 0; trial < 1000; ++trial) {
    auto bytes = random_bytes(rng, 256);
    try {
      (void)body_of(bytes, 0);
    } catch (const Error& e) {
      EXPECT_TRUE(typed_decode_error(e)) << static_cast<int>(e.code());
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
    uint8_t header[kMaxFrameHeaderSize];
    for (auto& b : header) b = static_cast<uint8_t>(rng());
    const size_t n = rng.below(kMaxFrameHeaderSize + 1);
    try {
      FrameHeader h;
      if (decode_frame_header(header, n, &h)) {
        EXPECT_LE(h.size, n);
        EXPECT_LE(h.payload_size, kMaxFramePayload);
      }
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace iw
