// Server persistence tests: checkpoint to disk, recovery, periodic
// checkpointing, and clients resuming against a recovered server.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <vector>

#include "interweave/interweave.hpp"
#include "wire/diff.hpp"
#include "util/crc32c.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

namespace fs = std::filesystem;

class Checkpoint : public ::testing::Test {
 protected:
  Checkpoint() {
    dir_ = fs::temp_directory_path() /
           ("iw-ckpt-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~Checkpoint() override { fs::remove_all(dir_); }

  server::SegmentServer::Options server_options() {
    server::SegmentServer::Options options;
    options.checkpoint_dir = dir_.string();
    return options;
  }

  fs::path dir_;
};

TEST_F(Checkpoint, WriteAndRecover) {
  auto options = server_options();
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 100);
    ClientSegment* seg = c.open_segment("host/persist");
    c.write_lock(seg);
    auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "nums"));
    for (int i = 0; i < 100; ++i) data[i] = i * 3;
    c.write_unlock(seg);
    server.checkpoint();
    EXPECT_GE(server.stats().checkpoints_written, 1u);
  }
  ASSERT_FALSE(fs::is_empty(dir_));

  // A new server process recovers the segment and serves it.
  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version("host/persist"), 2u);

  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment("host/persist", false);
  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("nums");
  ASSERT_NE(blk, nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[i], i * 3);
  }
  c.read_unlock(seg);
}

TEST_F(Checkpoint, PeriodicCheckpointing) {
  auto options = server_options();
  options.checkpoint_every = 2;
  server::SegmentServer server(options);
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 16);
  ClientSegment* seg = c.open_segment("host/auto");
  c.write_lock(seg);
  auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr));
  c.write_unlock(seg);
  for (int round = 1; round <= 5; ++round) {
    c.write_lock(seg);
    data[0] = round;
    c.write_unlock(seg);
  }
  // 6 versions at every-2 -> 3 checkpoints.
  EXPECT_GE(server.stats().checkpoints_written, 2u);
  ASSERT_FALSE(fs::is_empty(dir_));
}

TEST_F(Checkpoint, RecoveredServerContinuesVersioning) {
  auto options = server_options();
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt64), 8);
    ClientSegment* seg = c.open_segment("host/continue");
    c.write_lock(seg);
    c.malloc_block(seg, arr, "x");
    c.write_unlock(seg);
    server.checkpoint();
  }

  server::SegmentServer revived(server_options());
  revived.recover();
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment("host/continue", false);
  c.write_lock(seg);
  auto* blk = seg->heap().find_by_name("x");
  ASSERT_NE(blk, nullptr);
  reinterpret_cast<int64_t*>(const_cast<uint8_t*>(blk->data()))[0] = 99;
  // New blocks keep getting fresh serials after recovery.
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt64), 8);
  void* nb = c.malloc_block(seg, arr, "y");
  ASSERT_NE(nb, nullptr);
  c.write_unlock(seg);
  EXPECT_EQ(revived.segment_version("host/continue"), 3u);
  EXPECT_NE(client::BlockHeader::from_data(nb)->serial, blk->serial);
}

TEST_F(Checkpoint, ClientAheadOfRecoveredServerResyncs) {
  // Server checkpoints at v2, then advances to v4; after a crash+recovery
  // it is back at v2 while a client cached v4. The client must converge to
  // the recovered state, including blocks that only existed after v2.
  // (Journaling off: with the WAL enabled the "lost" versions would be
  // replayed and the server would come back current — this test is about
  // the degraded path.)
  auto options = server_options();
  options.wal_enabled = false;
  auto server = std::make_unique<server::SegmentServer>(options);
  auto factory = [&](const std::string&) {
    return std::make_shared<InProcChannel>(*server);
  };
  auto c = std::make_unique<Client>(factory);
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 32);
  ClientSegment* seg = c->open_segment("host/ahead");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr, "base"));
  data[0] = 1;
  c->write_unlock(seg);      // v2
  server->checkpoint();
  c->write_lock(seg);
  data[0] = 2;
  c->malloc_block(seg, arr, "extra");  // exists only at v3+
  c->write_unlock(seg);      // v3
  ASSERT_EQ(seg->version(), 3u);

  // Crash: new server from the v2 checkpoint. (The old client's channel
  // references the old server; drop it before the server goes away.)
  c.reset();
  server = std::make_unique<server::SegmentServer>(options);
  server->recover();
  ASSERT_EQ(server->segment_version("host/ahead"), 2u);

  // The client's channel factory binds to the (destroyed) old server; make
  // a fresh client with the same cached-state situation via its old copy:
  // simplest honest check — reconnect a new client and verify it converges,
  // then verify an ahead-version read against the new server resyncs.
  Client fresh(
      [&](const std::string&) { return std::make_shared<InProcChannel>(*server); });
  ClientSegment* fseg = fresh.open_segment("host/ahead", false);
  fresh.read_lock(fseg);
  auto* blk = fseg->heap().find_by_name("base");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 1);
  EXPECT_EQ(fseg->heap().find_by_name("extra"), nullptr);
  fresh.read_unlock(fseg);

  // Simulate the surviving cache: hand-craft an AcquireRead with a version
  // ahead of the server and check we get a full resync rather than an error.
  auto channel = std::make_shared<InProcChannel>(*server);
  channel->call(MsgType::kHello, hello_payload());
  Buffer open;
  open.append_varint(1);  // segment handle
  open.append_vstring("host/ahead");
  open.append_u8(0);
  channel->call(MsgType::kOpenSegment, std::move(open));
  Buffer payload;
  payload.append_varint(1);
  payload.append_varint(99);  // far ahead
  payload.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
  payload.append_varint(0);
  Frame resp = channel->call(MsgType::kAcquireRead, std::move(payload));
  BufReader r = resp.reader();
  EXPECT_EQ(r.read_u8(), 1) << "must be an update, not 'recent enough'";
  r.read_varint32();  // type count
}

// Shared setup for the corruption regressions: two segments, both
// checkpointed, then one .iwseg damaged by `damage`. recover() must
// quarantine the damaged file, keep the healthy segment, and not throw.
void corrupt_checkpoint_regression(
    const fs::path& dir, server::SegmentServer::Options options,
    const std::function<void(const fs::path&)>& damage) {
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 64);
    for (const char* name : {"host/victim", "host/healthy"}) {
      ClientSegment* seg = c.open_segment(name);
      c.write_lock(seg);
      auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
      data[0] = 7;
      c.write_unlock(seg);
    }
    server.checkpoint();
  }
  damage(dir / "host%2Fvictim.iwseg");

  server::SegmentServer revived(options);
  revived.recover();  // must not throw
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir / "host%2Fvictim.iwseg.corrupt"));
  EXPECT_FALSE(fs::exists(dir / "host%2Fvictim.iwseg"));
  EXPECT_EQ(revived.segment_version("host/healthy"), 2u);
  // The victim's journal was truncated at checkpoint time, so its data is
  // gone — but the segment comes back empty (at a fresh store's initial
  // version, via the journal's name) rather than wedging the server.
  EXPECT_EQ(revived.segment_version("host/victim"), 1u);

  // The healthy segment still serves correct data.
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment("host/healthy", false);
  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("d");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 7);
  c.read_unlock(seg);
}

TEST_F(Checkpoint, TruncatedCheckpointQuarantined) {
  corrupt_checkpoint_regression(dir_, server_options(), [](const fs::path& p) {
    fs::resize_file(p, fs::file_size(p) / 2);
  });
}

TEST_F(Checkpoint, BitFlippedCheckpointQuarantined) {
  corrupt_checkpoint_regression(dir_, server_options(), [](const fs::path& p) {
    // Flip bits in the name-length field just past the magic: the header no
    // longer parses, which is how structural bit rot presents.
    std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(4);
    f.put(static_cast<char>(0xFF));
  });
}

TEST_F(Checkpoint, CorruptPointerFieldQuarantined) {
  // A pointer field's (serial, unit) is stored verbatim in the snapshot,
  // and serial 0 makes the unit a vardata index: recovery must set aside a
  // file whose field names no block or no MIP slot, not serve or index it.
  // Block "r" is {int32 mark; pointer p} with p -> &d[37], d 64 ints.
  const std::vector<std::pair<uint32_t, uint32_t>> damages = {
      {0, 37},           // serial flipped to 0: unit 37 is no MIP slot
      {0x7FFFFFFF, 0},   // a serial the segment never allocated
      {1, 64}};          // unit past block d
  for (const auto& [serial, unit] : damages) {
    SCOPED_TRACE(serial);
    fs::remove_all(dir_);
    {
      server::SegmentServer server(server_options());
      Client c([&](const std::string&) {
        return std::make_shared<InProcChannel>(server);
      });
      TypeRegistry& t = c.types();
      const TypeDescriptor* ints =
          t.array_of(t.primitive(PrimitiveKind::kInt32), 64);
      const TypeDescriptor* rec = t.struct_builder("rec")
          .field("mark", t.primitive(PrimitiveKind::kInt32))
          .field("p", t.pointer_to(ints))
          .finish();
      ClientSegment* seg = c.open_segment("host/ptrs");
      c.write_lock(seg);
      auto* d = static_cast<int32_t*>(c.malloc_block(seg, ints, "d"));
      auto* r = static_cast<uint8_t*>(c.malloc_block(seg, rec, "r"));
      const int32_t mark = 0x5A5A5A5A;
      std::memcpy(r, &mark, sizeof mark);
      int32_t* target = d + 37;
      std::memcpy(r + rec->fields()[1].local_offset, &target, sizeof target);
      c.write_unlock(seg);
      server.checkpoint();
    }
    const fs::path file = dir_ / "host%2Fptrs.iwseg";
    std::vector<char> bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    // The stored field follows the mark: u32 serial | u32 unit, big-endian.
    const char kMark[] = {0x5A, 0x5A, 0x5A, 0x5A};
    auto at = std::search(bytes.begin(), bytes.end(), kMark, kMark + 4);
    ASSERT_NE(at, bytes.end());
    ASSERT_EQ(std::search(at + 1, bytes.end(), kMark, kMark + 4), bytes.end());
    auto* field = reinterpret_cast<uint8_t*>(&*(at + 4));
    ASSERT_EQ(load_be32(field), 1u);      // block d
    ASSERT_EQ(load_be32(field + 4), 37u);
    store_be32(field, serial);
    store_be32(field + 4, unit);
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    server::SegmentServer revived(server_options());
    revived.recover();  // must not throw
    EXPECT_EQ(revived.stats().checkpoints_quarantined, 1u);
    EXPECT_TRUE(fs::exists(dir_ / "host%2Fptrs.iwseg.corrupt"));
  }
}

TEST_F(Checkpoint, SnapshotBytesArePinned) {
  // A snapshot's bytes are a format: string slot ids and cross-segment MIP
  // slots are stored in the field bytes and in each block's vardata, so the
  // store's slot numbering must never move. Pinned by size and CRC32C.
  {
    server::SegmentServer server(server_options());
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    TypeRegistry& t = c.types();
    const TypeDescriptor* ints =
        t.array_of(t.primitive(PrimitiveKind::kInt32), 8);
    const TypeDescriptor* rec = t.struct_builder("rec")
        .field("id", t.primitive(PrimitiveKind::kInt32))
        .field("tag", t.string_type(12))
        .field("near", t.pointer_to(ints))
        .field("far", t.pointer_to(ints))
        .field("notes", t.array_of(t.string_type(6), 2))
        .finish();
    const TypeDescriptor* recs = t.array_of(rec, 5);
    ClientSegment* other = c.open_segment("host/other");
    c.write_lock(other);
    auto* away = static_cast<int32_t*>(c.malloc_block(other, ints, "away"));
    for (int32_t i = 0; i < 8; ++i) away[i] = 100 + i;
    c.write_unlock(other);
    ClientSegment* seg = c.open_segment("host/pinned");
    c.write_lock(seg);
    auto* d = static_cast<int32_t*>(c.malloc_block(seg, ints, "d"));
    for (int32_t i = 0; i < 8; ++i) d[i] = i;
    auto* r = static_cast<uint8_t*>(c.malloc_block(seg, recs, "recs"));
    const auto& f = rec->fields();
    // Native strings are inline, NUL-terminated char arrays.
    auto put = [](uint8_t* field, const std::string& text) {
      std::memcpy(field, text.c_str(), text.size() + 1);
    };
    for (uint32_t e = 0; e < 5; ++e) {
      uint8_t* at = r + e * recs->element_stride();
      const auto id = static_cast<int32_t>(e * 11);
      std::memcpy(at + f[0].local_offset, &id, sizeof id);
      put(at + f[1].local_offset, "tag-" + std::to_string(e));
      int32_t* near = d + e;
      std::memcpy(at + f[2].local_offset, &near, sizeof near);
      // Every other record points across segments: a MIP in vardata.
      int32_t* far = e % 2 == 0 ? away + e : nullptr;
      std::memcpy(at + f[3].local_offset, &far, sizeof far);
      const uint32_t stride = f[4].type->element_stride();
      put(at + f[4].local_offset, "n" + std::to_string(e));
      put(at + f[4].local_offset + stride, "m" + std::to_string(e));
    }
    c.write_unlock(seg);
    server.checkpoint();
  }
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(dir_ / "host%2Fpinned.iwseg", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(bytes.size(), 671u);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 4243832435u);
}

TEST_F(Checkpoint, CorruptCheckpointSkipped) {
  auto options = server_options();
  fs::create_directories(dir_);
  {
    std::ofstream bad(dir_ / "garbage.iwseg", std::ios::binary);
    bad << "not a checkpoint";
  }
  server::SegmentServer server(options);
  server.recover();  // must not throw
  EXPECT_THROW(server.segment_version("host/anything"), Error);
}

TEST_F(Checkpoint, SegmentNamesAreEscapedInFileNames) {
  auto options = server_options();
  server::SegmentServer server(options);
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  const TypeDescriptor* t = c.types().primitive(PrimitiveKind::kInt32);
  ClientSegment* seg = c.open_segment("some.host/deep/path/segment");
  c.write_lock(seg);
  c.malloc_block(seg, t);
  c.write_unlock(seg);
  server.checkpoint();

  int snapshots = 0, journals = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".iwseg") {
      ++snapshots;
    } else if (e.path().extension() == ".iwlog") {
      ++journals;
    } else {
      ADD_FAILURE() << "unexpected file " << e.path();
    }
    EXPECT_EQ(e.path().string().find('%') != std::string::npos, true);
  }
  EXPECT_EQ(snapshots, 1);
  EXPECT_EQ(journals, 1);

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version("some.host/deep/path/segment"), 2u);
}

// ------------------------------------------ periodic checkpoints + journal

std::vector<uint8_t> file_bytes(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const uint8_t* data, size_t size) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(data),
          static_cast<std::streamsize>(size));
}

/// Reads slot 0 of block "d" in `name` through a fresh client.
int32_t first_slot(server::SegmentServer& server, const std::string& name) {
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  ClientSegment* seg = c.open_segment(name, false);
  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("d");
  const int32_t value =
      blk == nullptr ? -1 : reinterpret_cast<const int32_t*>(blk->data())[0];
  c.read_unlock(seg);
  return value;
}

/// Writes "host/<name>": a block "d" (v2), a checkpoint there, then three
/// commits (v3..v5) that set slot 0 to 100, 200 and 300 and live only in
/// the journal. Returns the journal's records as written.
std::vector<server::WriteAheadLog::Record> journal_three_commits(
    const server::SegmentServer::Options& options, const std::string& name,
    const fs::path& journal) {
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 32);
    ClientSegment* seg = c.open_segment(name);
    c.write_lock(seg);
    auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
    c.write_unlock(seg);
    server.checkpoint();  // snapshot at v2; the journal is cut to its header
    for (int round = 1; round <= 3; ++round) {
      c.write_lock(seg);
      data[0] = round * 100;
      c.write_unlock(seg);
    }
  }
  return server::WriteAheadLog::replay(journal.string()).records;
}

TEST_F(Checkpoint, IncrementalCheckpointsFoldOnRecovery) {
  // Periodic checkpoints each write one whole snapshot; the journal holds
  // what came after the last one. Recovery is that snapshot plus the
  // journal's records, and nothing else is written beside them.
  auto options = server_options();
  options.checkpoint_every = 2;
  uint32_t final_version = 0;
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 64);
    ClientSegment* seg = c.open_segment("host/inc");
    c.write_lock(seg);
    auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
    c.write_unlock(seg);  // v2
    for (int round = 1; round <= 6; ++round) {
      c.write_lock(seg);
      data[round] = round * 11;
      c.write_unlock(seg);  // v3..v8: checkpoints at v3, v5 and v7
    }
    // The last commit lives only in the journal — the crash window between
    // two periodic checkpoints.
    final_version = seg->version();
    EXPECT_EQ(final_version, 8u);
    EXPECT_EQ(server.stats().checkpoints_written, 3u);
    EXPECT_EQ(server.stats().checkpoints_incremental, 0u);
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".iwinc") << entry.path();
  }

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version("host/inc"), final_version);
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  EXPECT_EQ(revived.stats().wal_replayed_records, 1u);
  EXPECT_EQ(revived.stats().checkpoints_incremental, 0u);

  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment("host/inc", false);
  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("d");
  ASSERT_NE(blk, nullptr);
  const auto* data = reinterpret_cast<const int32_t*>(blk->data());
  for (int round = 1; round <= 6; ++round) EXPECT_EQ(data[round], round * 11);
  c.read_unlock(seg);
}

TEST_F(Checkpoint, FullRewriteBoundsTheChain) {
  // Every checkpoint rewrites the whole `.iwseg` at the store's version and
  // cuts the journal back to its header, so recovery reads one snapshot
  // and the commits since it, never a growing history.
  server::SegmentServer server(server_options());
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 16);
  ClientSegment* seg = c.open_segment("host/bound");
  c.write_lock(seg);
  auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
  c.write_unlock(seg);
  const fs::path snapshot = dir_ / "host%2Fbound.iwseg";
  const fs::path journal = dir_ / "host%2Fbound.iwlog";
  for (uint32_t round = 1; round <= 3; ++round) {
    c.write_lock(seg);
    data[0] = static_cast<int32_t>(round);
    c.write_unlock(seg);
    EXPECT_GT(fs::file_size(journal), server::WriteAheadLog::kHeaderSize);
    server.checkpoint();
    EXPECT_EQ(server.stats().checkpoints_written, round);
    EXPECT_EQ(fs::file_size(journal), server::WriteAheadLog::kHeaderSize)
        << "round " << round;
    // The snapshot names the segment and the version it now covers.
    const std::vector<uint8_t> bytes = file_bytes(snapshot);
    BufReader in(bytes.data(), bytes.size());
    in.read_u32();  // magic
    EXPECT_EQ(in.read_lp_string(), "host/bound");
    EXPECT_EQ(in.read_u32(), seg->version()) << "round " << round;
  }
  EXPECT_EQ(server.stats().checkpoints_incremental, 0u);

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.stats().wal_replayed_records, 0u);
  EXPECT_EQ(revived.segment_version("host/bound"), 5u);
  EXPECT_EQ(first_slot(revived, "host/bound"), 3);
}

TEST_F(Checkpoint, CorruptMidChainRecordFallsBackToLastGoodFold) {
  // A record whose CRC fails in the middle of the journal: recovery serves
  // the snapshot plus the records before it, and the journal as found —
  // the records past the damage included — is set aside whole in
  // `.iwlog.corrupt` before the journal is cut.
  const fs::path journal = dir_ / "host%2Fmidrot.iwlog";
  const auto records =
      journal_three_commits(server_options(), "host/midrot", journal);
  ASSERT_EQ(records.size(), 3u);
  {
    // Flip a byte inside the second record's payload.
    std::vector<uint8_t> bytes = file_bytes(journal);
    bytes[records[0].end_offset + kFramedPrefixBytes + 2] ^= 0xFF;
    write_bytes(journal, bytes.data(), bytes.size());
  }
  const std::vector<uint8_t> found = file_bytes(journal);

  server::SegmentServer revived(server_options());
  revived.recover();  // must not throw
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  EXPECT_EQ(revived.stats().wal_replayed_records, 1u);
  EXPECT_EQ(revived.segment_version("host/midrot"), 3u);
  EXPECT_EQ(first_slot(revived, "host/midrot"), 100);
  EXPECT_EQ(revived.stats().wal_truncated_bytes,
            found.size() - records[0].end_offset);
  EXPECT_EQ(fs::file_size(journal), records[0].end_offset);
  const fs::path corrupt = dir_ / "host%2Fmidrot.iwlog.corrupt";
  ASSERT_TRUE(fs::exists(corrupt));
  EXPECT_EQ(file_bytes(corrupt), found);
}

TEST_F(Checkpoint, UndecodableChainEnvelopeQuarantinesTheTail) {
  // A CRC-clean commit whose section envelope does not decode stops
  // recovery there: the snapshot plus the records before it are served,
  // and every record the journal held replays from `.iwlog.corrupt`.
  const fs::path journal = dir_ / "host%2Fbadenv.iwlog";
  auto records =
      journal_three_commits(server_options(), "host/badenv", journal);
  ASSERT_EQ(records.size(), 3u);
  {
    // Rewrite the journal with an unknown method byte in the second
    // record, framed with a valid CRC.
    const std::vector<uint8_t> header = file_bytes(journal);
    Buffer bytes;
    bytes.append(header.data(), server::WriteAheadLog::kHeaderSize);
    records[1].payload[4] = 7;
    for (const auto& rec : records) {
      append_framed_record(bytes, static_cast<uint8_t>(rec.type),
                           rec.payload);
    }
    write_bytes(journal, bytes.data(), bytes.size());
  }
  const uint64_t found = fs::file_size(journal);
  ASSERT_FALSE(server::WriteAheadLog::replay(journal.string()).torn_tail);

  server::SegmentServer revived(server_options());
  revived.recover();  // must not throw
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  EXPECT_EQ(revived.stats().wal_replayed_records, 1u);
  EXPECT_EQ(revived.segment_version("host/badenv"), 3u);
  EXPECT_EQ(first_slot(revived, "host/badenv"), 100);
  EXPECT_EQ(revived.stats().wal_truncated_bytes,
            found - records[0].end_offset);
  auto set_aside = server::WriteAheadLog::replay(
      (dir_ / "host%2Fbadenv.iwlog.corrupt").string());
  EXPECT_FALSE(set_aside.missing);
  EXPECT_FALSE(set_aside.torn_tail);
  ASSERT_EQ(set_aside.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(set_aside.records[i].type, records[i].type);
    EXPECT_EQ(set_aside.records[i].payload, records[i].payload);
  }
}

/// Asks `server` for an update of "host/ghost" as a client whose cache is
/// at `version`, and reports whether the answer frees block `serial`.
bool update_frees(server::SegmentServer& server, uint32_t version,
                  uint32_t serial) {
  InProcChannel channel(server);
  channel.call(MsgType::kHello, hello_payload());
  Buffer open;
  open.append_varint(1);  // segment handle
  open.append_vstring("host/ghost");
  open.append_u8(0);
  channel.call(MsgType::kOpenSegment, std::move(open));
  Buffer payload;
  payload.append_varint(1);
  payload.append_varint(version);
  payload.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
  payload.append_varint(0);
  Frame resp = channel.call(MsgType::kAcquireRead, std::move(payload));
  BufReader r = resp.reader();
  EXPECT_EQ(r.read_u8(), 1) << "must be an update, not 'recent enough'";
  uint32_t n_types = r.read_varint32();
  for (uint32_t i = 0; i < n_types; ++i) {
    r.read_varint32();
    uint32_t len = r.read_varint32();
    r.read_bytes(len);
  }
  std::vector<uint8_t> scratch;
  const bool lz = read_compressed_section(r, scratch);
  BufReader section = lz ? BufReader(scratch.data(), scratch.size()) : r;
  DiffReader reader(section);
  DiffEntry entry;
  bool freed = false;
  while (reader.next(&entry)) {
    if ((entry.flags & diff_flags::kFree) != 0 && entry.serial == serial) {
      freed = true;
    }
  }
  return freed;
}

TEST_F(Checkpoint, FoldedChainPreservesFreesForMidWindowClients) {
  // A block created *and* freed after the last checkpoint: a client whose
  // cached version lies between the two saw the creation, so a recovered
  // server must still tell it about the free. So must a replica that
  // caught up over that window by a WAL-tail sync, whose one folded diff
  // omits the pair and whose fold-history tables carry it.
  auto options = server_options();
  uint32_t mid_version = 0;
  uint32_t victim_serial = 0;
  {
    server::SegmentServer server(options);
    server::SegmentServer::Options replica_options;
    replica_options.peer_dial = [&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    };
    server::SegmentServer replica(replica_options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 16);
    ClientSegment* seg = c.open_segment("host/ghost");
    c.write_lock(seg);
    c.malloc_block(seg, arr, "keep");
    c.write_unlock(seg);  // v2
    server.checkpoint();  // snapshot at v2
    EXPECT_EQ(replica.backfill_segment("host/ghost", "primary", 0), 2u);
    c.write_lock(seg);
    void* victim = c.malloc_block(seg, arr, "victim");
    victim_serial = client::BlockHeader::from_data(victim)->serial;
    c.write_unlock(seg);  // v3 — a client could have cached this
    mid_version = seg->version();
    c.write_lock(seg);
    c.free_block(seg, static_cast<uint8_t*>(victim));
    c.write_unlock(seg);  // v4: the journal holds v3 and v4

    const auto before = server.stats();
    EXPECT_EQ(replica.backfill_segment("host/ghost", "primary", 0),
              mid_version + 1);
    EXPECT_EQ(server.stats().sync_tails_served, before.sync_tails_served + 1);
    EXPECT_EQ(server.stats().sync_snapshots_served,
              before.sync_snapshots_served);
    EXPECT_TRUE(update_frees(replica, mid_version, victim_serial))
        << "the tail-synced replica lost the mid-window free";
  }

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  EXPECT_EQ(revived.stats().wal_replayed_records, 2u);
  EXPECT_EQ(revived.segment_version("host/ghost"), mid_version + 1);
  EXPECT_TRUE(update_frees(revived, mid_version, victim_serial))
      << "recovered server lost the mid-window free";
}

}  // namespace
}  // namespace iw
