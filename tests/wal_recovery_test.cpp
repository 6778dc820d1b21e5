// Durability tests for the per-segment write-ahead log.
//
// Three layers:
//  1. WalLog — unit tests of the record format: round trip, torn-tail
//     truncation, corruption stopping replay, checkpoint truncation.
//  2. WalRecovery — whole-server recovery composition: journal-only
//     recovery, snapshot+tail replay, the crash window between a
//     checkpoint landing and its journal truncate, appends that fail (a
//     file-size cap) without losing any later ack, and the stats surface.
//  3. CrashMatrix — the real thing: fork a SegmentServer, let a seeded
//     WalCrashSchedule SIGKILL it at an exact point inside an append
//     (short header / mid-record / before sync), restart in the parent,
//     and assert every acknowledged version is recovered and a fresh
//     client converges byte-identically with a fault-free oracle. The
//     matrix crosses every crash point with every sync policy; under
//     SIGKILL (process death, page cache intact) acknowledged commits
//     must survive under *all* policies, which subsumes the sync=commit
//     guarantee.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "interweave/interweave.hpp"
#include "server/replication.hpp"
#include "server/wal.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

namespace fs = std::filesystem;
using server::SegmentServer;
using server::WalRecordType;
using server::WalReplicator;
using server::WriteAheadLog;

std::vector<uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<uint8_t> file_bytes(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

fs::path fresh_dir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-wal-" + std::to_string(::getpid()) + "-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- layer 1: the log itself ---

class WalLog : public ::testing::Test {
 protected:
  WalLog() : dir_(fresh_dir(
      ::testing::UnitTest::GetInstance()->current_test_info()->name())) {}
  ~WalLog() override { fs::remove_all(dir_); }

  std::string log_path() const { return (dir_ / "seg.iwlog").string(); }

  fs::path dir_;
};

TEST_F(WalLog, MissingFileIsNotAnError) {
  auto replay = WriteAheadLog::replay(log_path());
  EXPECT_TRUE(replay.missing);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_TRUE(replay.records.empty());
}

TEST_F(WalLog, AppendAndReplayRoundTrip) {
  std::vector<uint8_t> head = bytes_of("HEAD");
  std::vector<uint8_t> body = bytes_of("the diff body");
  {
    WriteAheadLog wal(log_path(), {});
    wal.append(WalRecordType::kSegmentCreate, bytes_of("host/a"));
    wal.append(WalRecordType::kCommit, head, body);
    wal.append(WalRecordType::kSegmentDestroy, {});
  }
  auto replay = WriteAheadLog::replay(log_path());
  ASSERT_FALSE(replay.missing);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].type, WalRecordType::kSegmentCreate);
  EXPECT_EQ(replay.records[0].payload, bytes_of("host/a"));
  EXPECT_EQ(replay.records[1].type, WalRecordType::kCommit);
  EXPECT_EQ(replay.records[1].payload, bytes_of("HEADthe diff body"));
  EXPECT_EQ(replay.records[2].type, WalRecordType::kSegmentDestroy);
  EXPECT_TRUE(replay.records[2].payload.empty());
  // end_offsets are increasing and the last one covers the whole file.
  EXPECT_GT(replay.records[0].end_offset, WriteAheadLog::kHeaderSize);
  EXPECT_LT(replay.records[0].end_offset, replay.records[1].end_offset);
  EXPECT_EQ(replay.records[2].end_offset, replay.valid_bytes);
  EXPECT_EQ(replay.valid_bytes, fs::file_size(log_path()));
}

/// The body of a commit or type record, decoded from its section envelope
/// as recovery decodes it.
std::vector<uint8_t> record_body(const WriteAheadLog::Record& rec) {
  BufReader in(rec.payload.data(), rec.payload.size());
  in.skip(4);
  std::vector<uint8_t> scratch;
  const auto body = read_record_section(in, scratch);
  return {body.begin(), body.end()};
}

/// Whether a commit or type record's body is LZ-compressed.
bool lz_record(const WriteAheadLog::Record& rec) {
  return rec.payload.size() > 4 && rec.payload[4] == payload_method::kLz;
}

TEST_F(WalLog, MixedFormatJournalReplaysBothEncodings) {
  // A journal whose commits carry their diffs raw and compressed: the log
  // hands back each payload as written, and each body decodes through the
  // one section decoder to the same raw bytes.
  std::vector<uint8_t> head = bytes_of("HEAD");
  std::vector<uint8_t> body(1024, 0x42);  // compressible
  Buffer raw, packed;
  raw.append(head);
  raw.append_u8(payload_method::kRaw);
  packed.append(head);
  ASSERT_TRUE(compress_section(body, packed));
  {
    WriteAheadLog wal(log_path(), {});
    wal.append(WalRecordType::kCommit, raw.span(), body);
    wal.append(WalRecordType::kCommit, packed.span());
    wal.append(WalRecordType::kCommit, raw.span(), body);
  }
  auto replay = WriteAheadLog::replay(log_path());
  ASSERT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  for (const auto& rec : replay.records) {
    EXPECT_EQ(rec.type, WalRecordType::kCommit);
    EXPECT_EQ(record_body(rec), body);
  }
  EXPECT_FALSE(lz_record(replay.records[0]));
  EXPECT_TRUE(lz_record(replay.records[1]));
  EXPECT_FALSE(lz_record(replay.records[2]));
  EXPECT_EQ(replay.records[1].payload,
            std::vector<uint8_t>(packed.data(), packed.data() + packed.size()))
      << "the log re-encoded a payload";
  // The compressed record actually paid less for the same raw bytes.
  EXPECT_LT(replay.records[1].payload.size(),
            replay.records[0].payload.size());
}

TEST_F(WalLog, TornTailIsDetectedAndTruncatedOnReopen) {
  {
    WriteAheadLog wal(log_path(), {});
    wal.append(WalRecordType::kCommit, bytes_of("first"));
  }
  uint64_t clean_size = fs::file_size(log_path());
  {
    // A crash mid-append: a plausible record header promising more bytes
    // than the file holds.
    std::ofstream f(log_path(), std::ios::binary | std::ios::app);
    const uint8_t torn[] = {0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 3, 'x'};
    f.write(reinterpret_cast<const char*>(torn), sizeof torn);
  }
  auto replay = WriteAheadLog::replay(log_path());
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.valid_bytes, clean_size);
  EXPECT_EQ(replay.truncated_bytes, 10u);  // the torn append, byte for byte

  // Reopening at the valid prefix drops the torn bytes; appends continue on
  // a clean boundary.
  {
    WriteAheadLog wal(log_path(), {}, replay.valid_bytes);
    wal.append(WalRecordType::kCommit, bytes_of("second"));
  }
  auto again = WriteAheadLog::replay(log_path());
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.records[0].payload, bytes_of("first"));
  EXPECT_EQ(again.records[1].payload, bytes_of("second"));
}

TEST_F(WalLog, CorruptionStopsReplayAtLastGoodRecord) {
  {
    WriteAheadLog wal(log_path(), {});
    wal.append(WalRecordType::kCommit, bytes_of("aaaa"));
    wal.append(WalRecordType::kCommit, bytes_of("bbbb"));
    wal.append(WalRecordType::kCommit, bytes_of("cccc"));
  }
  auto clean = WriteAheadLog::replay(log_path());
  ASSERT_EQ(clean.records.size(), 3u);
  {
    // Flip one byte inside the second record's body: its CRC no longer
    // matches, and — record boundaries being untrustworthy past that
    // point — the third record must not be surfaced either.
    std::fstream f(log_path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(clean.records[1].end_offset - 1));
    f.put('Z');
  }
  auto replay = WriteAheadLog::replay(log_path());
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, bytes_of("aaaa"));
  EXPECT_EQ(replay.valid_bytes, replay.records[0].end_offset);
}

TEST_F(WalLog, GarbageFileReplaysAsEmpty) {
  {
    std::ofstream f(log_path(), std::ios::binary);
    f << "not a write-ahead log at all";
  }
  auto replay = WriteAheadLog::replay(log_path());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.truncated_bytes, fs::file_size(log_path()));
}

// Writes a file with `magic` and `format` as its 8-byte header followed by
// one well-framed record: the shape of a journal, snapshot or checkpoint
// chain written by an older build.
void write_versioned_file(const std::string& path, uint32_t magic,
                          uint32_t format) {
  Buffer bytes;
  bytes.append_u32(magic);
  bytes.append_u32(format);
  append_framed_record(bytes, 1, bytes_of("a payload of 12+ bytes"));
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

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

TEST_F(WalLog, FormatOneJournalIsRefused) {
  // Format 1 journals hold fixed-width diffs: replaying them as format 2
  // would misparse every commit, and discarding them would lose acked
  // commits, so both the log and whole-server recovery refuse them.
  write_versioned_file(log_path(), 0x4957414C /* "IWAL" */, 1);
  EXPECT_EQ(error_code_of([&] { WriteAheadLog::replay(log_path()); }),
            ErrorCode::kUnimplemented);
  SegmentServer::Options o;
  o.checkpoint_dir = dir_.string();
  SegmentServer server(o);
  EXPECT_EQ(error_code_of([&] { server.recover(); }),
            ErrorCode::kUnimplemented);
  // The journal is left as it was for an operator to deal with.
  EXPECT_TRUE(fs::exists(log_path()));
}

TEST_F(WalLog, FormatOneCheckpointChainIsRefused) {
  // Incremental checkpoint chains (.iwinc) are no longer written or read.
  // A chain holds acked versions its journal was already truncated past,
  // so recovery refuses any chain file, in any format, and leaves it for an
  // operator rather than recover without those versions.
  const fs::path chain = dir_ / "seg.iwinc";
  auto recover_code = [&] {
    SegmentServer::Options o;
    o.checkpoint_dir = dir_.string();
    SegmentServer server(o);
    return error_code_of([&] { server.recover(); });
  };
  for (uint32_t format : {1u, 4u}) {
    write_versioned_file(chain.string(), 0x49574943 /* "IWIC" */, format);
    EXPECT_EQ(recover_code(), ErrorCode::kUnimplemented) << format;
    EXPECT_TRUE(fs::exists(chain));
  }
  // Even an empty one.
  std::ofstream(chain, std::ios::trunc).close();
  EXPECT_EQ(recover_code(), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(chain));
  // A chain an older build already set aside is not read.
  fs::rename(chain, dir_ / "seg.iwinc.corrupt");
  EXPECT_NO_THROW({
    SegmentServer::Options o;
    o.checkpoint_dir = dir_.string();
    SegmentServer server(o);
    server.recover();
  });
}

TEST_F(WalLog, FormatTwoFilesAreRefused) {
  // Format 2 journals, chains and snapshots carry pointers as MIP strings;
  // this build reads tagged pointer units (journals, format 4) and inline
  // (serial, unit) fields (snapshots, "IWS3"), and no chains. Each old file
  // is refused whole, never misparsed, quarantined or discarded.
  auto recover_code = [&](const fs::path& dir) {
    SegmentServer::Options o;
    o.checkpoint_dir = dir.string();
    SegmentServer server(o);
    return error_code_of([&] { server.recover(); });
  };
  write_versioned_file(log_path(), 0x4957414C /* "IWAL" */, 2);
  EXPECT_EQ(error_code_of([&] { WriteAheadLog::replay(log_path()); }),
            ErrorCode::kUnimplemented);
  EXPECT_EQ(recover_code(dir_), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(log_path()));
  fs::remove(log_path());

  const fs::path chain = dir_ / "seg.iwinc";
  write_versioned_file(chain.string(), 0x49574943 /* "IWIC" */, 2);
  EXPECT_EQ(recover_code(dir_), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(chain));
  fs::remove(chain);

  // A format 2 snapshot: the bare "IWSE" magic, then the segment name.
  const fs::path snapshot = dir_ / "seg.iwseg";
  {
    Buffer bytes;
    bytes.append_u32(0x49575345);
    bytes.append_lp_string("seg");
    std::ofstream f(snapshot, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(recover_code(dir_), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(snapshot));
  // So is a snapshot of a later format ("IWS4").
  write_versioned_file(snapshot.string(), 0x49575334, 0);
  EXPECT_EQ(recover_code(dir_), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(snapshot));
}

TEST_F(WalLog, FormatThreeFilesAreRefused) {
  // Format 3 journals and chains mark a compressed payload with bit 7 of
  // the record's tag and hold `u32 raw_len | lz(head ++ body)`; this build
  // reads a head and then the body's section envelope (format 4), and no
  // chains. Each old file is refused whole, by the log and recovery.
  auto recover_code = [&] {
    SegmentServer::Options o;
    o.checkpoint_dir = dir_.string();
    SegmentServer server(o);
    return error_code_of([&] { server.recover(); });
  };
  write_versioned_file(log_path(), 0x4957414C /* "IWAL" */, 3);
  EXPECT_EQ(error_code_of([&] { WriteAheadLog::replay(log_path()); }),
            ErrorCode::kUnimplemented);
  EXPECT_EQ(recover_code(), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(log_path()));
  fs::remove(log_path());

  // A chain is refused at recovery even with its snapshot in place.
  {
    SegmentServer::Options o;
    o.checkpoint_dir = dir_.string();
    SegmentServer server(o);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    ClientSegment* seg = c.open_segment("seg");
    c.write_lock(seg);
    c.malloc_block(seg, c.types().primitive(PrimitiveKind::kInt32), "x");
    c.write_unlock(seg);
    server.checkpoint();
  }
  const std::string chain = (dir_ / "seg.iwinc").string();
  write_versioned_file(chain, 0x49574943 /* "IWIC" */, 3);
  EXPECT_EQ(recover_code(), ErrorCode::kUnimplemented);
  EXPECT_TRUE(fs::exists(chain));
}

TEST_F(WalLog, TruncateAfterCheckpointDiscardsRecords) {
  server::WalCounters counters;
  WriteAheadLog::Options opts;
  opts.counters = &counters;
  WriteAheadLog wal(log_path(), opts);
  wal.append(WalRecordType::kCommit, bytes_of("superseded"));
  wal.truncate_after_checkpoint();
  EXPECT_EQ(fs::file_size(log_path()), WriteAheadLog::kHeaderSize);
  wal.append(WalRecordType::kCommit, bytes_of("fresh"));
  auto replay = WriteAheadLog::replay(log_path());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, bytes_of("fresh"));
  EXPECT_EQ(counters.records_appended.load(), 2u);
  EXPECT_GT(counters.fsyncs.load(), 0u);
}

TEST_F(WalLog, SyncPolicyDrivesFsyncCount) {
  server::WalCounters per_commit, none;
  {
    WriteAheadLog::Options opts;
    opts.sync = WriteAheadLog::Sync::kCommit;
    opts.counters = &per_commit;
    WriteAheadLog wal(log_path(), opts);
    for (int i = 0; i < 5; ++i) {
      wal.append(WalRecordType::kCommit, bytes_of("x"));
    }
  }
  {
    WriteAheadLog::Options opts;
    opts.sync = WriteAheadLog::Sync::kNone;
    opts.counters = &none;
    WriteAheadLog wal((dir_ / "none.iwlog").string(), opts);
    for (int i = 0; i < 5; ++i) {
      wal.append(WalRecordType::kCommit, bytes_of("x"));
    }
  }
  // One header flush plus one per append vs. the header flush alone.
  EXPECT_EQ(per_commit.fsyncs.load(), 6u);
  EXPECT_EQ(none.fsyncs.load(), 1u);
}

// --- layer 2: whole-server recovery composition ---

constexpr uint32_t kUnits = 64;
const char* const kSegName = "host/durable";

int32_t workload_value(int step) {
  return static_cast<int32_t>(step) * 26'539 + 11;
}

/// Applies `steps` committed writes through a fresh client; every step s
/// sets slot s % kUnits to workload_value(s), so the array state after any
/// prefix of steps is computable without the server.
void run_commits(SegmentServer& server, int first_step, int steps,
                 std::function<void(uint32_t)> on_ack = {}) {
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), kUnits);
  ClientSegment* seg = c.open_segment(kSegName);
  c.write_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name("d");
  int32_t* data;
  if (blk == nullptr) {
    data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
    for (uint32_t u = 0; u < kUnits; ++u) data[u] = 0;
  } else {
    data = reinterpret_cast<int32_t*>(const_cast<uint8_t*>(blk->data()));
  }
  c.write_unlock(seg);
  if (on_ack) on_ack(seg->version());
  for (int s = first_step; s < first_step + steps; ++s) {
    c.write_lock(seg);
    data[static_cast<uint32_t>(s) % kUnits] = workload_value(s);
    c.write_unlock(seg);
    if (on_ack) on_ack(seg->version());
  }
}

/// Expected array contents after the first `steps` workload steps.
std::vector<int32_t> expected_after(int steps) {
  std::vector<int32_t> v(kUnits, 0);
  for (int s = 1; s <= steps; ++s) {
    v[static_cast<uint32_t>(s) % kUnits] = workload_value(s);
  }
  return v;
}

/// Reads the block back through a fresh client and compares it word for
/// word against the oracle for `steps` completed steps.
void expect_converged(SegmentServer& server, int steps) {
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  ClientSegment* seg = c.open_segment(kSegName, false);
  c.read_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name("d");
  ASSERT_NE(blk, nullptr);
  const auto* data = reinterpret_cast<const int32_t*>(blk->data());
  std::vector<int32_t> expect = expected_after(steps);
  for (uint32_t u = 0; u < kUnits; ++u) {
    ASSERT_EQ(data[u], expect[u]) << "slot " << u << " after " << steps
                                  << " steps";
  }
  c.read_unlock(seg);
}

class WalRecovery : public ::testing::Test {
 protected:
  WalRecovery() : dir_(fresh_dir(
      ::testing::UnitTest::GetInstance()->current_test_info()->name())) {}
  ~WalRecovery() override { fs::remove_all(dir_); }

  SegmentServer::Options server_options(
      WriteAheadLog::Sync sync = WriteAheadLog::Sync::kBatch) {
    SegmentServer::Options o;
    o.checkpoint_dir = dir_.string();
    o.wal_sync = sync;
    return o;
  }

  fs::path dir_;
};

TEST_F(WalRecovery, JournalAloneRecoversUncheckpointedCommits) {
  uint32_t final_version = 0;
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 10);
    final_version = server.segment_version(kSegName);
    EXPECT_GT(server.stats().wal_records_appended, 10u);
    EXPECT_GT(server.stats().wal_bytes_appended, 0u);
    // No checkpoint was ever written.
    EXPECT_EQ(server.stats().checkpoints_written, 0u);
  }
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version(kSegName), final_version);
  EXPECT_GT(revived.stats().wal_replayed_records, 0u);
  EXPECT_EQ(revived.stats().recoveries_completed, 1u);
  expect_converged(revived, 10);
}

TEST_F(WalRecovery, SnapshotPlusJournalTailComposes) {
  uint32_t final_version = 0;
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 6);
    server.checkpoint();  // snapshot at step 6; journal truncated
    run_commits(server, 7, 5);  // journal holds only the tail
    final_version = server.segment_version(kSegName);
  }
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version(kSegName), final_version);
  expect_converged(revived, 11);
}

TEST_F(WalRecovery, CrashBetweenCheckpointAndTruncateIsIdempotent) {
  // The checkpoint's rename and the journal truncate are two steps; a crash
  // between them leaves a snapshot *and* a journal that both contain the
  // same commits. Replay must skip the overlap, not double-apply it.
  uint32_t final_version = 0;
  std::vector<char> journal_before;
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 8);
    // Capture the journal as it stands before the checkpoint truncates it.
    std::ifstream f(dir_ / "host%2Fdurable.iwlog", std::ios::binary);
    journal_before.assign(std::istreambuf_iterator<char>(f),
                          std::istreambuf_iterator<char>());
    server.checkpoint();
    final_version = server.segment_version(kSegName);
  }
  // Reinstate the pre-truncate journal: the on-disk state of a crash in the
  // window.
  {
    std::ofstream f(dir_ / "host%2Fdurable.iwlog",
                    std::ios::binary | std::ios::trunc);
    f.write(journal_before.data(),
            static_cast<std::streamsize>(journal_before.size()));
  }
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version(kSegName), final_version);
  expect_converged(revived, 8);
}

TEST_F(WalRecovery, TornJournalTailRecoversCleanly) {
  uint32_t final_version = 0;
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 5);
    final_version = server.segment_version(kSegName);
  }
  {
    // Garbage after the last record — a torn append.
    std::ofstream f(dir_ / "host%2Fdurable.iwlog",
                    std::ios::binary | std::ios::app);
    const uint8_t torn[] = {0, 0, 0, 9, 1, 2, 3};
    f.write(reinterpret_cast<const char*>(torn), sizeof torn);
  }
  SegmentServer revived(server_options());
  revived.recover();  // must not throw
  EXPECT_EQ(revived.segment_version(kSegName), final_version);
  // The cost of the crash is visible: exactly the 7 torn bytes were cut.
  EXPECT_EQ(revived.stats().wal_truncated_bytes, 7u);
  expect_converged(revived, 5);
  // The reopened journal dropped the torn bytes: the revived server can
  // keep committing and recover again.
  run_commits(revived, 6, 3);
  SegmentServer third(server_options());
  third.recover();
  EXPECT_EQ(third.segment_version(kSegName), final_version + 3);
  expect_converged(third, 8);
}

TEST_F(WalRecovery, SuccessiveCutsKeepEveryCopy) {
  // Each cut sets the journal as found aside under the first free name, so
  // the second cut keeps the first cut's copy beside its own.
  const fs::path log = dir_ / "host%2Fdurable.iwlog";
  auto tear = [&] {
    std::ofstream f(log, std::ios::binary | std::ios::app);
    const uint8_t torn[] = {0, 0, 0, 9, 1, 2, 3};
    f.write(reinterpret_cast<const char*>(torn), sizeof torn);
  };
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 3);
  }
  tear();
  const std::vector<uint8_t> first_found = file_bytes(log);
  {
    SegmentServer revived(server_options());
    revived.recover();
    EXPECT_EQ(revived.stats().wal_truncated_bytes, 7u);
    run_commits(revived, 4, 2);
  }
  tear();
  const std::vector<uint8_t> second_found = file_bytes(log);
  uint32_t final_version = 0;
  {
    SegmentServer revived(server_options());
    revived.recover();
    EXPECT_EQ(revived.stats().wal_truncated_bytes, 7u);
    final_version = revived.segment_version(kSegName);
    expect_converged(revived, 5);
  }
  const fs::path first = log.string() + ".corrupt";
  const fs::path second = log.string() + ".corrupt.1";
  EXPECT_EQ(file_bytes(first), first_found);
  EXPECT_EQ(file_bytes(second), second_found);
  EXPECT_FALSE(fs::exists(log.string() + ".corrupt.2"));
  for (const fs::path& copy : {first, second}) {
    const WriteAheadLog::Replay replay = WriteAheadLog::replay(copy.string());
    EXPECT_FALSE(replay.missing) << copy;
    EXPECT_TRUE(replay.torn_tail) << copy;
    EXPECT_EQ(replay.truncated_bytes, 7u) << copy;
    EXPECT_FALSE(replay.records.empty()) << copy;
  }
  EXPECT_LT(WriteAheadLog::replay(first.string()).records.size(),
            WriteAheadLog::replay(second.string()).records.size());
  // Recovery reads neither copy: a clean restart lands where the last one
  // did, and cuts nothing.
  SegmentServer third(server_options());
  third.recover();
  EXPECT_EQ(third.segment_version(kSegName), final_version);
  EXPECT_EQ(third.stats().wal_truncated_bytes, 0u);
  expect_converged(third, 5);
}

TEST_F(WalRecovery, SuccessiveQuarantinesKeepEveryCheckpoint) {
  const fs::path snapshot = dir_ / "host%2Fdurable.iwseg";
  auto zap = [&](const char* content) {
    std::ofstream f(snapshot, std::ios::binary | std::ios::trunc);
    f << content;
  };
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 2);
    server.checkpoint();
  }
  zap("first");
  {
    SegmentServer revived(server_options());
    revived.recover();
    EXPECT_EQ(revived.stats().checkpoints_quarantined, 1u);
    revived.checkpoint();
  }
  zap("second");
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 1u);
  const std::vector<uint8_t> first = file_bytes(snapshot.string() + ".corrupt");
  const std::vector<uint8_t> second =
      file_bytes(snapshot.string() + ".corrupt.1");
  EXPECT_EQ(std::string(first.begin(), first.end()), "first");
  EXPECT_EQ(std::string(second.begin(), second.end()), "second");
}

TEST_F(WalRecovery, MixedFormatJournalAcrossCompressionToggle) {
  // A pre-compression server incarnation journals raw commits; a later
  // incarnation with compression on appends compressed ones to the same
  // file. A third recovers through the mixed journal byte-identically.
  uint32_t final_version = 0;
  {
    auto opts = server_options();
    opts.compress_payloads = false;
    SegmentServer server(opts);
    run_commits(server, 1, 5);
  }
  {
    auto opts = server_options();
    opts.compress_payloads = true;
    SegmentServer server(opts);
    server.recover();
    run_commits(server, 6, 5);
    final_version = server.segment_version(kSegName);
  }
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version(kSegName), final_version);
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 0u);
  expect_converged(revived, 10);
}

TEST_F(WalRecovery, UndecodableEnvelopeInCleanRecordStopsRecovery) {
  // A CRC-clean commit whose section envelope does not decode stops
  // recovery like a torn tail: the prefix before it is applied and served,
  // and the reopened journal is cut where it stood.
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 5);
  }
  const fs::path log = dir_ / "host%2Fdurable.iwlog";
  auto replay = WriteAheadLog::replay(log.string());
  ASSERT_FALSE(replay.torn_tail);
  // The commit of workload step 4: the fourth commit after the malloc's.
  size_t bad = 0;
  for (int commits = 0; bad < replay.records.size(); ++bad) {
    if (replay.records[bad].type == WalRecordType::kCommit &&
        commits++ == 4) {
      break;
    }
  }
  ASSERT_LT(bad, replay.records.size());
  {
    // Rewrite the journal with an unknown method byte in that record,
    // framed with a valid CRC.
    const std::vector<uint8_t> header = file_bytes(log);
    Buffer bytes;
    bytes.append(header.data(), WriteAheadLog::kHeaderSize);
    for (size_t i = 0; i < replay.records.size(); ++i) {
      std::vector<uint8_t> payload = replay.records[i].payload;
      if (i == bad) payload[4] = 7;
      append_framed_record(bytes, static_cast<uint8_t>(replay.records[i].type),
                           payload);
    }
    std::ofstream f(log, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_FALSE(WriteAheadLog::replay(log.string()).torn_tail);
  const uint64_t journal_size = fs::file_size(log);
  BufReader good(replay.records[bad - 1].payload.data(), 4);
  const uint32_t good_version = good.read_u32();
  {
    SegmentServer revived(server_options());
    revived.recover();  // must not throw
    EXPECT_EQ(revived.stats().wal_replayed_records, bad);
    EXPECT_EQ(revived.segment_version(kSegName), good_version);
    expect_converged(revived, 3);
    EXPECT_EQ(fs::file_size(log), replay.records[bad - 1].end_offset);
    // Every byte cut counts, the CRC-clean records past the bad one too.
    EXPECT_EQ(revived.stats().wal_truncated_bytes,
              journal_size - replay.records[bad - 1].end_offset);
    run_commits(revived, 4, 2);
  }
  SegmentServer third(server_options());
  third.recover();
  EXPECT_EQ(third.segment_version(kSegName), good_version + 2);
  expect_converged(third, 5);
}

TEST_F(WalRecovery, QuarantinedCheckpointStopsReplayAtVersionGap) {
  // Checkpoint at step 4 (journal truncated), then more commits. Destroy
  // the snapshot: the journal tail's base version is now missing, so replay
  // must stop cleanly at the gap instead of corrupting the store.
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 4);
    server.checkpoint();
    run_commits(server, 5, 3);
  }
  {
    std::ofstream f(dir_ / "host%2Fdurable.iwseg",
                    std::ios::binary | std::ios::trunc);
    f << "zapped";
  }
  const fs::path log = dir_ / "host%2Fdurable.iwlog";
  const WriteAheadLog::Replay before = WriteAheadLog::replay(log.string());
  ASSERT_FALSE(before.records.empty());
  SegmentServer revived(server_options());
  revived.recover();  // must not throw
  EXPECT_EQ(revived.stats().checkpoints_quarantined, 1u);
  // The segment exists (its journal names it) but the tail could not be
  // applied onto a fresh store: it is back at the initial version.
  EXPECT_EQ(revived.segment_version(kSegName), 1u);
  // The acked records the journal held are not gone: the journal as found
  // is set aside, and every one of its records replays from the copy.
  const WriteAheadLog::Replay copy =
      WriteAheadLog::replay(log.string() + ".corrupt");
  EXPECT_FALSE(copy.missing);
  EXPECT_FALSE(copy.torn_tail);
  ASSERT_EQ(copy.records.size(), before.records.size());
  for (size_t i = 0; i < copy.records.size(); ++i) {
    EXPECT_EQ(copy.records[i].type, before.records[i].type) << i;
    EXPECT_EQ(copy.records[i].payload, before.records[i].payload) << i;
    EXPECT_EQ(copy.records[i].end_offset, before.records[i].end_offset) << i;
  }
}

TEST_F(WalRecovery, StatsSurfaceCounts) {
  SegmentServer::Options opts = server_options(WriteAheadLog::Sync::kCommit);
  {
    SegmentServer server(opts);
    run_commits(server, 1, 4);
    SegmentServer::Stats s = server.stats();
    // create + type + 5 commits (malloc step + 4 workload steps).
    EXPECT_EQ(s.wal_records_appended, 7u);
    EXPECT_GT(s.wal_bytes_appended, 0u);
    // Header flush + one fdatasync per append under kCommit.
    EXPECT_GE(s.wal_fsyncs, s.wal_records_appended);
    EXPECT_EQ(s.wal_replayed_records, 0u);
    EXPECT_EQ(s.recoveries_completed, 0u);
  }
  SegmentServer revived(opts);
  revived.recover();
  SegmentServer::Stats s = revived.stats();
  EXPECT_EQ(s.wal_replayed_records, 7u);
  EXPECT_EQ(s.recoveries_completed, 1u);
  EXPECT_EQ(s.checkpoints_quarantined, 0u);
}

TEST_F(WalRecovery, DisabledWalWritesNoJournal) {
  SegmentServer::Options opts = server_options();
  opts.wal_enabled = false;
  SegmentServer server(opts);
  run_commits(server, 1, 3);
  EXPECT_EQ(server.stats().wal_records_appended, 0u);
  EXPECT_FALSE(fs::exists(dir_ / "host%2Fdurable.iwlog"));
}

// --- one LZ pass per diff: the writer's stream is journaled, replicated
// and served as it arrived; a collected diff is compressed once ---

constexpr uint32_t kBigUnits = 16'384;  // 64 KiB of ints, compresses well
const char* const kBigSeg = "host/big";

std::unique_ptr<Client> in_proc_client(SegmentServer& server) {
  return std::make_unique<Client>([&server](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
}

/// Stamps units [first, first + count) of block "big" (created on first
/// use) with a compressible pattern in one commit.
void stamp_big(Client& c, ClientSegment* seg, uint32_t first, uint32_t count,
               int32_t value) {
  c.write_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name("big");
  auto* data = blk != nullptr
      ? reinterpret_cast<int32_t*>(const_cast<uint8_t*>(blk->data()))
      : static_cast<int32_t*>(c.malloc_block(
            seg,
            c.types().array_of(c.types().primitive(PrimitiveKind::kInt32),
                               kBigUnits),
            "big"));
  for (uint32_t u = first; u < first + count; ++u) {
    data[u] = value + static_cast<int32_t>(u / 64);
  }
  c.write_unlock(seg);
}

/// The block "big" as `c` reads it now.
std::vector<int32_t> read_big(Client& c, ClientSegment* seg) {
  c.read_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name("big");
  std::vector<int32_t> out;
  if (blk != nullptr) {
    const auto* data = reinterpret_cast<const int32_t*>(blk->data());
    out.assign(data, data + kBigUnits);
  }
  c.read_unlock(seg);
  return out;
}

TEST_F(WalRecovery, WriterStreamIsJournaledReplicatedAndServedAsIs) {
  const fs::path replica_dir = dir_ / "replica";
  SegmentServer::Options ropts = server_options();
  ropts.checkpoint_dir = replica_dir.string();
  auto replica = std::make_unique<SegmentServer>(ropts);
  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 5'000;
  auto replicator = std::make_shared<WalReplicator>(wopts);
  replicator->add_replica("replica", [&replica] {
    return std::shared_ptr<ClientChannel>(
        std::make_shared<InProcChannel>(*replica));
  });
  SegmentServer::Options popts = server_options();
  popts.replicator = replicator;
  auto primary = std::make_unique<SegmentServer>(popts);
  auto lz_passes = [&] { return primary->stats().lz_passes; };

  // One writer populates: its compressed commit is journaled and
  // replicated with no LZ pass on the server.
  auto writer = in_proc_client(*primary);
  ClientSegment* wseg = writer->open_segment(kBigSeg);
  stamp_big(*writer, wseg, 0, kBigUnits, 1000);
  EXPECT_EQ(writer->stats().diffs_compressed, 1u);
  EXPECT_EQ(primary->stats().commits_compressed, 1u);
  EXPECT_LT(primary->stats().commit_stored_bytes,
            primary->stats().commit_raw_bytes);
  EXPECT_EQ(lz_passes(), 0u) << "the commit cost an LZ pass";

  // Three readers' first fetch is served the populate's diff from the
  // empty segment, with the writer's own section: no pass.
  std::vector<std::unique_ptr<Client>> readers;
  std::vector<ClientSegment*> rsegs;
  for (int r = 0; r < 3; ++r) {
    readers.push_back(in_proc_client(*primary));
    rsegs.push_back(readers.back()->open_segment(kBigSeg, false));
    EXPECT_EQ(read_big(*readers[r], rsegs[r]), read_big(*writer, wseg));
  }
  EXPECT_EQ(lz_passes(), 0u) << "fresh readers cost no LZ pass";
  EXPECT_EQ(primary->stats().updates_compressed, 3u);

  // Readers one version behind get the writer's own section: no pass.
  for (int round = 0; round < 4; ++round) {
    stamp_big(*writer, wseg, 2048u * round, 2048, 7 * round);
    const auto want = read_big(*writer, wseg);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(read_big(*readers[r], rsegs[r]), want) << "round " << round;
    }
  }
  EXPECT_EQ(lz_passes(), 0u) << "a commit's readers cost an LZ pass";
  EXPECT_EQ(primary->stats().commits_compressed, 5u);
  EXPECT_EQ(primary->stats().updates_compressed, 15u);
  const auto want = read_big(*writer, wseg);
  const uint32_t version = primary->segment_version(kBigSeg);
  readers.clear();
  writer.reset();

  // The replica journaled what the primary journaled, byte for byte.
  const std::string log_name = "host%2Fbig.iwlog";
  const auto journal = file_bytes(dir_ / log_name);
  EXPECT_GT(journal.size(), WriteAheadLog::kHeaderSize);
  EXPECT_EQ(file_bytes(replica_dir / log_name), journal);
  int compressed_commits = 0;
  for (const auto& rec : WriteAheadLog::replay((dir_ / log_name).string())
                             .records) {
    if (rec.type == WalRecordType::kCommit && lz_record(rec)) {
      ++compressed_commits;
    }
  }
  EXPECT_EQ(compressed_commits, 5);
  replicator->shutdown();
  primary.reset();
  replica.reset();

  // Both journals replay to the same bytes.
  for (const auto& opts : {server_options(), ropts}) {
    SegmentServer revived(opts);
    revived.recover();
    EXPECT_EQ(revived.segment_version(kBigSeg), version);
    auto reader = in_proc_client(revived);
    EXPECT_EQ(read_big(*reader, reader->open_segment(kBigSeg, false)), want);
  }
}

TEST_F(WalRecovery, UncompressingServerJournalsAndSendsRaw) {
  SegmentServer::Options opts = server_options();
  opts.compress_payloads = false;
  std::vector<int32_t> want;
  {
    SegmentServer server(opts);
    auto writer = in_proc_client(server);
    ClientSegment* wseg = writer->open_segment(kBigSeg);
    stamp_big(*writer, wseg, 0, kBigUnits, 1000);
    stamp_big(*writer, wseg, 4096, 2048, 3);
    EXPECT_EQ(writer->stats().diffs_compressed, 2u);
    want = read_big(*writer, wseg);
    auto reader = in_proc_client(server);
    EXPECT_EQ(read_big(*reader, reader->open_segment(kBigSeg, false)), want);
    const SegmentServer::Stats s = server.stats();
    EXPECT_EQ(s.lz_passes, 0u);
    EXPECT_EQ(s.commits_compressed, 0u);
    EXPECT_EQ(s.commit_stored_bytes, s.commit_raw_bytes);
    EXPECT_EQ(s.updates_compressed, 0u);
    // Each update pays only its method byte.
    EXPECT_EQ(s.update_wire_bytes, s.update_raw_bytes + s.updates_sent);
  }
  for (const auto& rec :
       WriteAheadLog::replay((dir_ / "host%2Fbig.iwlog").string()).records) {
    EXPECT_FALSE(lz_record(rec));
  }
  SegmentServer revived(opts);
  revived.recover();
  auto reader = in_proc_client(revived);
  EXPECT_EQ(read_big(*reader, reader->open_segment(kBigSeg, false)), want);
}

/// Caps every file this process writes at `bytes` (RLIMIT_FSIZE, with
/// SIGXFSZ ignored so an over-cap write fails with EFBIG instead of killing
/// the process) until destroyed: a journal append or a checkpoint then
/// fails on demand, partway through when the cap falls inside it.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &cap);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

TEST_F(WalRecovery, FailedTypeAppendIsCheckpointedBeforeTheNextAck) {
  // A type registration's append fails outright. The store holds the type
  // and the journal does not, and the client's retry only hits the dedup
  // path: unless the segment is re-anchored on a checkpoint before anything
  // is acked, recovery cannot apply the commit that uses the type.
  uint32_t acked = 0;
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 4);
    server.checkpoint();  // the journal is back to its bare header
    ASSERT_EQ(fs::file_size(dir_ / "host%2Fdurable.iwlog"),
              WriteAheadLog::kHeaderSize);
    Client c([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    const TypeDescriptor* pair =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 2);
    ClientSegment* seg = c.open_segment(kSegName);
    c.write_lock(seg);
    {
      FileSizeCap cap(WriteAheadLog::kHeaderSize);
      EXPECT_THROW(c.malloc_block(seg, pair, "p"), Error);
    }
    auto* p = static_cast<int32_t*>(c.malloc_block(seg, pair, "p"));
    p[0] = 7;
    p[1] = 9;
    c.write_unlock(seg);
    acked = seg->version();
  }
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version(kSegName), acked);
  expect_converged(revived, 4);
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(revived);
  });
  ClientSegment* seg = c.open_segment(kSegName, false);
  c.read_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name("p");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[1], 9);
  c.read_unlock(seg);
}

TEST_F(WalRecovery, TornCommitAppendIsCheckpointedBeforeTheNextAck) {
  // A commit's append writes 3 bytes and fails, and so does the checkpoint
  // that tries to re-anchor it, leaving a torn record at the end of the
  // journal. Recovery cuts off every record appended after it, so the
  // next commit may only be acked over a checkpoint that truncates it.
  uint32_t acked = 0;
  {
    SegmentServer server(server_options());
    run_commits(server, 1, 4);
    server.checkpoint();
    {
      FileSizeCap cap(WriteAheadLog::kHeaderSize + 3);
      EXPECT_THROW(run_commits(server, 5, 1), Error);
    }
    run_commits(server, 6, 3, [&](uint32_t v) { acked = v; });
  }
  SegmentServer revived(server_options());
  revived.recover();
  EXPECT_EQ(revived.segment_version(kSegName), acked);
  // Step 5 was applied before its append failed; the checkpoint keeps it.
  expect_converged(revived, 8);
}

TEST_F(WalRecovery, ReplicateLegRunsWhenTheJournalAppendFails) {
  // The replica keeps no files, so the cap below only fails the primary's
  // journal. The commit whose append fails is applied on the primary, so
  // it must reach the replica too: a replica that missed it would refuse
  // the next commit as a version gap and stall the link.
  SegmentServer replica;
  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 2'000;
  auto replicator = std::make_shared<WalReplicator>(wopts);
  replicator->add_replica("replica",
                          [&replica]() -> std::shared_ptr<ClientChannel> {
                            return std::make_shared<InProcChannel>(replica);
                          });
  SegmentServer::Options popts = server_options();
  popts.replicator = replicator;
  SegmentServer primary(popts);
  run_commits(primary, 1, 2);
  primary.checkpoint();
  {
    FileSizeCap cap(WriteAheadLog::kHeaderSize);
    EXPECT_THROW(run_commits(primary, 3, 1), Error);
  }
  EXPECT_EQ(replica.segment_version(kSegName),
            primary.segment_version(kSegName));
  uint32_t acked = 0;
  ASSERT_NO_THROW(run_commits(primary, 4, 2, [&](uint32_t v) { acked = v; }));
  EXPECT_EQ(replica.segment_version(kSegName), acked);
  expect_converged(replica, 5);
  replicator->shutdown();
}

/// Minimal restartable-core proxy (the chaos test has the full-featured
/// one): lets a client's channels outlive a server swap, failing requests
/// from sessions of the dead incarnation like a reset connection.
class SwappableCore final : public ServerCore {
 public:
  void set(SegmentServer* server) {
    std::lock_guard lock(mu_);
    server_ = server;
    known_.clear();
  }
  void on_connect(SessionId session, Notifier notify) override {
    std::lock_guard lock(mu_);
    if (server_ == nullptr) {
      throw Error::transport(ErrorCode::kConnReset, "server down");
    }
    known_.insert(session);
    server_->on_connect(session, std::move(notify));
  }
  void on_disconnect(SessionId session) override {
    std::lock_guard lock(mu_);
    if (server_ != nullptr && known_.erase(session) > 0) {
      server_->on_disconnect(session);
    }
  }
  Frame handle(SessionId session, const Frame& request) override {
    std::lock_guard lock(mu_);
    if (server_ == nullptr || known_.find(session) == known_.end()) {
      throw Error::transport(ErrorCode::kConnReset, "server restarted");
    }
    return server_->handle(session, request);
  }

 private:
  std::mutex mu_;
  SegmentServer* server_ = nullptr;
  std::unordered_set<SessionId> known_;
};

TEST_F(WalRecovery, ClientCountsFullResyncWhenServerRecoversBehind) {
  // Journaling off: recovery genuinely loses the post-checkpoint commits,
  // so a client that cached the newer state reconnects *ahead* of the
  // server and must take the from-0 resync — which it counts.
  SegmentServer::Options opts = server_options();
  opts.wal_enabled = false;
  auto server = std::make_unique<SegmentServer>(opts);
  SwappableCore core;
  core.set(server.get());

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 8;
  copts.reconnect.max_call_retries = 10;
  Client c([&core](const std::string&) {
    return std::make_shared<InProcChannel>(core);
  }, copts);
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), kUnits);
  ClientSegment* seg = c.open_segment(kSegName);
  c.write_lock(seg);
  auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "d"));
  for (uint32_t u = 0; u < kUnits; ++u) data[u] = 1;
  c.write_unlock(seg);  // v2
  server->checkpoint();
  for (int i = 0; i < 3; ++i) {
    c.write_lock(seg);
    data[0] = 10 + i;
    c.write_unlock(seg);  // v3..v5
  }
  ASSERT_EQ(seg->version(), 5u);
  EXPECT_EQ(c.stats().full_resyncs, 0u);

  core.set(nullptr);
  server.reset();
  server = std::make_unique<SegmentServer>(opts);
  server->recover();  // back at the v2 snapshot; the tail is gone
  core.set(server.get());
  ASSERT_EQ(server->segment_version(kSegName), 2u);

  c.read_lock(seg);
  auto* blk = seg->heap().find_by_name("d");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 1)
      << "cache must converge to the recovered (older) state";
  c.read_unlock(seg);
  EXPECT_EQ(c.stats().full_resyncs, 1u);
  EXPECT_EQ(seg->version(), 2u);
}

// --- layer 3: the fork + SIGKILL crash matrix ---

struct CrashCase {
  WalCrashPoint point;
  WriteAheadLog::Sync sync;
};

class CrashMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrashMatrix, AckedVersionsSurviveRealCrash) {
  const auto point = static_cast<WalCrashPoint>(std::get<0>(GetParam()));
  const auto sync = static_cast<WriteAheadLog::Sync>(std::get<1>(GetParam()));
  // Crash on an early commit and on a later one; the journal's append
  // counter includes the create record, the type record, and the block
  // allocation's commit (appends 1-3), so crash_at_append = 4 is the first
  // workload commit — the earliest point with an acknowledged version
  // behind it.
  for (uint64_t crash_at : {uint64_t{4}, uint64_t{11}}) {
    fs::path dir = fresh_dir("crash-" + std::to_string(std::get<0>(GetParam())) +
                             "-" + std::to_string(std::get<1>(GetParam())) +
                             "-" + std::to_string(crash_at));
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: a real server that will die by SIGKILL inside a WAL append.
      // Only async-unsafe cleanup is skipped by the SIGKILL itself; until
      // then this is ordinary single-threaded code (InProc transport only).
      ::close(pipefd[0]);
      WalCrashSchedule::Options copts;
      copts.crash_at_append = crash_at;
      copts.point = point;
      SegmentServer::Options sopts;
      sopts.checkpoint_dir = dir.string();
      sopts.wal_sync = sync;
      sopts.wal_crash = std::make_shared<WalCrashSchedule>(copts);
      SegmentServer server(sopts);
      run_commits(server, 1, 40, [&](uint32_t version) {
        // Acknowledged to the client: report it to the parent. The crash
        // happens *inside* an append, i.e. strictly before that version's
        // acknowledgement, so everything written here must be recoverable.
        ssize_t n = ::write(pipefd[1], &version, sizeof version);
        if (n != sizeof version) ::_exit(3);
      });
      ::_exit(2);  // ran to completion: the schedule never fired
    }
    // Parent: collect acknowledged versions until the child dies.
    ::close(pipefd[1]);
    uint32_t acked = 0, v = 0;
    while (::read(pipefd[0], &v, sizeof v) == sizeof v) acked = v;
    ::close(pipefd[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child did not die at the injected crash point (status " << status
        << ")";
    ASSERT_GT(acked, 0u) << "child crashed before acknowledging anything";

    // Restart "the process": a new server over the same directory.
    SegmentServer::Options ropts;
    ropts.checkpoint_dir = dir.string();
    ropts.wal_sync = sync;
    SegmentServer revived(ropts);
    revived.recover();
    EXPECT_EQ(revived.stats().recoveries_completed, 1u);
    uint32_t recovered = revived.segment_version(kSegName);
    // Every acknowledged version must be recovered. kBeforeSync crashes
    // *after* the record is fully written, so the unacknowledged crashing
    // commit may legitimately survive too — but nothing further.
    EXPECT_GE(recovered, acked) << "acknowledged commit lost";
    EXPECT_LE(recovered, acked + 1);
    if (point != WalCrashPoint::kBeforeSync) {
      // The torn record was the crashing commit: recovery lands exactly on
      // the last acknowledged version.
      EXPECT_EQ(recovered, acked);
    }
    // Byte-identical convergence with the fault-free oracle at whatever
    // step count survived (version 2 = step 0: the allocation commit).
    expect_converged(revived, static_cast<int>(recovered - 2));
    fs::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PointsBySync, CrashMatrix,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(WalCrashPoint::kShortWrite),
                          static_cast<int>(WalCrashPoint::kMidRecord),
                          static_cast<int>(WalCrashPoint::kBeforeSync)),
        ::testing::Values(static_cast<int>(WriteAheadLog::Sync::kNone),
                          static_cast<int>(WriteAheadLog::Sync::kBatch),
                          static_cast<int>(WriteAheadLog::Sync::kCommit))));

}  // namespace
}  // namespace iw
