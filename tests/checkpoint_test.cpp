// Server persistence tests: checkpoint to disk, recovery, periodic
// checkpointing, and clients resuming against a recovered server.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "interweave/interweave.hpp"
#include "server/checkpoint.hpp"
#include "wire/diff.hpp"
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
  Buffer payload;
  payload.append_vstring("host/ahead");
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

// ------------------------------------------- incremental checkpoint chains

TEST_F(Checkpoint, IncrementalCheckpointsFoldOnRecovery) {
  auto options = server_options();
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
    server.checkpoint();  // first checkpoint: always a full snapshot
    for (int round = 1; round <= 3; ++round) {
      c.write_lock(seg);
      data[round] = round * 11;
      c.write_unlock(seg);
      server.checkpoint();  // delta record, journal truncated each time
    }
    // One more commit lives only in the journal — the crash window between
    // incremental checkpoint writes.
    c.write_lock(seg);
    data[10] = 77;
    c.write_unlock(seg);
    final_version = seg->version();
    EXPECT_EQ(server.stats().checkpoints_incremental, 3u);
    EXPECT_EQ(server.stats().checkpoints_written, 4u);
  }
  ASSERT_TRUE(fs::exists(dir_ / "host%2Finc.iwinc"));

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version("host/inc"), final_version);
  EXPECT_EQ(revived.stats().checkpoint_chain_folds, 3u);
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  EXPECT_GT(revived.stats().wal_replayed_records, 0u);

  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment("host/inc", false);
  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("d");
  ASSERT_NE(blk, nullptr);
  const auto* data = reinterpret_cast<const int32_t*>(blk->data());
  for (int round = 1; round <= 3; ++round) EXPECT_EQ(data[round], round * 11);
  EXPECT_EQ(data[10], 77);
  c.read_unlock(seg);
}

TEST_F(Checkpoint, FullRewriteBoundsTheChain) {
  auto options = server_options();
  options.checkpoint_chain_limit = 2;
  server::SegmentServer server(options);
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 16);
  ClientSegment* seg = c.open_segment("host/bound");
  c.write_lock(seg);
  auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
  c.write_unlock(seg);
  server.checkpoint();  // full
  const fs::path chain = dir_ / "host%2Fbound.iwinc";
  for (int round = 1; round <= 2; ++round) {
    c.write_lock(seg);
    data[0] = round;
    c.write_unlock(seg);
    server.checkpoint();  // delta records while under the limit
  }
  ASSERT_TRUE(fs::exists(chain));
  EXPECT_EQ(server.stats().checkpoints_incremental, 2u);
  c.write_lock(seg);
  data[0] = 3;
  c.write_unlock(seg);
  server.checkpoint();  // limit hit: full rewrite deletes the chain
  EXPECT_FALSE(fs::exists(chain));
  EXPECT_EQ(server.stats().checkpoints_incremental, 2u);

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.stats().checkpoint_chain_folds, 0u);
  EXPECT_EQ(revived.segment_version("host/bound"), 5u);
}

TEST_F(Checkpoint, CorruptMidChainRecordFallsBackToLastGoodFold) {
  auto options = server_options();
  uint32_t good_version = 0;
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 32);
    ClientSegment* seg = c.open_segment("host/midrot");
    c.write_lock(seg);
    auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
    c.write_unlock(seg);
    server.checkpoint();  // full snapshot
    for (int round = 1; round <= 3; ++round) {
      c.write_lock(seg);
      data[0] = round * 100;
      c.write_unlock(seg);
      server.checkpoint();
      if (round == 1) good_version = seg->version();
    }
  }
  const fs::path chain = dir_ / "host%2Fmidrot.iwinc";
  ASSERT_TRUE(fs::exists(chain));

  // Flip a byte inside the *second* delta record's payload. Record sizes
  // come from the scanner itself, so the test stays valid if framing grows.
  auto scan = server::scan_chain(chain.string());
  ASSERT_EQ(scan.records.size(), 3u);
  {
    std::fstream f(chain, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(8 + scan.records[0].stored_bytes + 12));
    f.put(static_cast<char>(0xFF));
  }

  server::SegmentServer revived(server_options());
  revived.recover();  // must not throw
  // The good prefix folded; the damaged tail is quarantined; the journal
  // (truncated at the last checkpoint) has nothing to add — recovery lands
  // on the last good fold.
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 1u);
  EXPECT_EQ(revived.stats().checkpoint_chain_folds, 1u);
  EXPECT_TRUE(fs::exists(dir_ / "host%2Fmidrot.iwinc.corrupt"));
  EXPECT_FALSE(fs::exists(chain));
  EXPECT_EQ(revived.segment_version("host/midrot"), good_version);

  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment("host/midrot", false);
  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("d");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 100);
  c.read_unlock(seg);
}

TEST_F(Checkpoint, FoldedChainPreservesFreesForMidWindowClients) {
  // A block created *and* freed between two incremental checkpoints leaves
  // no trace in the window's diff — but a client whose cached version lies
  // inside the window saw the creation, so the recovered server must still
  // tell it about the free. The chain's fold-history tables carry exactly
  // this.
  auto options = server_options();
  uint32_t mid_version = 0;
  uint32_t victim_serial = 0;
  {
    server::SegmentServer server(options);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 16);
    ClientSegment* seg = c.open_segment("host/ghost");
    c.write_lock(seg);
    c.malloc_block(seg, arr, "keep");
    c.write_unlock(seg);  // v2
    server.checkpoint();  // full snapshot, base v2
    c.write_lock(seg);
    void* victim = c.malloc_block(seg, arr, "victim");
    victim_serial = client::BlockHeader::from_data(victim)->serial;
    c.write_unlock(seg);  // v3 — a client could have cached this
    mid_version = seg->version();
    c.write_lock(seg);
    c.free_block(seg, static_cast<uint8_t*>(victim));
    c.write_unlock(seg);  // v4
    server.checkpoint();  // delta v2 -> v4: create+free pair, empty diff
  }

  server::SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  EXPECT_EQ(revived.segment_version("host/ghost"), mid_version + 1);

  // A surviving cache at the mid-window version asks for an update: the
  // response diff must free the victim block.
  InProcChannel channel(revived);
  Buffer payload;
  payload.append_vstring("host/ghost");
  payload.append_varint(mid_version);
  payload.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
  payload.append_varint(0);
  Frame resp = channel.call(MsgType::kAcquireRead, std::move(payload));
  BufReader r = resp.reader();
  ASSERT_EQ(r.read_u8(), 1) << "must be an update, not 'recent enough'";
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
    if ((entry.flags & diff_flags::kFree) != 0 &&
        entry.serial == victim_serial) {
      freed = true;
    }
  }
  EXPECT_TRUE(freed) << "recovered server lost the mid-window free";
}

}  // namespace
}  // namespace iw
