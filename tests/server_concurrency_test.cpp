// Regression net for the sharded SegmentServer: 8 TCP client threads hammer
// 8 segments with writer locks, modifications, frees, subscriptions, and
// cross-segment traffic while a background thread checkpoints and scrapes
// stats concurrently. Final segment versions and block contents must equal
// what the (deterministic per-block) writers last committed. Run under
// ThreadSanitizer via -DIW_SANITIZE=thread to verify the two-level locking
// scheme has no races.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "wire/coherence.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

namespace fs = std::filesystem;

constexpr int kThreads = 8;
constexpr int kSegments = 8;
constexpr int kRounds = 30;
constexpr uint32_t kUnits = 64;  // int32 array units per block

std::string seg_name(int s) { return "conc/seg" + std::to_string(s); }
std::string blk_name(int t) { return "blk" + std::to_string(t); }

Frame call(TcpClientChannel& ch, MsgType type,
           const std::function<void(Buffer&)>& fill) {
  Buffer payload;
  fill(payload);
  return ch.call(type, std::move(payload));
}

/// Consumes an append_update payload (u8 flag, [types, diff]) positioned at
/// the flag; returns the server version it brings the client to (or
/// `assumed` when already up to date).
uint32_t consume_update(BufReader& r, uint32_t assumed) {
  if (r.read_u8() == 0) return assumed;
  uint32_t n_types = r.read_varint32();
  for (uint32_t i = 0; i < n_types; ++i) {
    r.read_varint32();  // serial
    r.skip(r.read_varint32());
  }
  std::vector<uint8_t> scratch;
  const bool lz = read_compressed_section(r, scratch);
  BufReader section = lz ? BufReader(scratch.data(), scratch.size()) : r;
  DiffReader dr(section);
  DiffEntry e;
  while (dr.next(&e)) {
  }
  return dr.to_version();
}

struct Shared {
  // expected_version[s] = 1 + diffs applied; written under the segment's
  // server-side writer lock semantics, read after join.
  std::atomic<uint32_t> releases[kSegments]{};
  // final_value[s][t]: last value thread t committed to its block in s,
  // -1 when the block finished freed. Written by thread t only, read after
  // join (synchronized by thread join).
  int64_t final_value[kSegments][kThreads];
  std::atomic<uint64_t> notifications{0};
  std::atomic<int> failures{0};

  Shared() {
    for (auto& row : final_value)
      for (auto& v : row) v = -1;
  }
};

void worker(uint16_t port, int t, Shared& sh) {
  try {
    TcpClientChannel ch(port);
    ch.set_notify_handler([&sh](const Frame& f) {
      if (f.type == MsgType::kNotifyVersion) {
        sh.notifications.fetch_add(1, std::memory_order_relaxed);
      }
    });

    const int own = t;
    const int neighbor = (t + 1) % kSegments;
    std::map<int, uint32_t> version;      // my synced version per segment
    std::map<int, uint32_t> block_serial;  // 0 = my block absent

    TypeRegistry scratch(Platform::native().rules);
    Buffer graph;
    TypeCodec::encode_graph(
        scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), kUnits),
        graph);

    for (int s : {own, neighbor}) {
      call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
        p.append_lp_string(seg_name(s));
        p.append_u8(1);
      });
      call(ch, MsgType::kRegisterType, [&](Buffer& p) {
        p.append_lp_string(seg_name(s));
        p.append(graph.span());
      });
      version[s] = 0;
      block_serial[s] = 0;
    }
    call(ch, MsgType::kSubscribe, [&](Buffer& p) {
      p.append_lp_string(seg_name(neighbor));
    });

    for (int round = 1; round <= kRounds; ++round) {
      // Mostly the own segment; every third round the neighbor's, so two
      // writers genuinely contend for the same writer lock.
      const int s = (round % 3 == 0) ? neighbor : own;
      const int32_t value = t * 1000 + round;

      Frame acq = call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
        p.append_vstring(seg_name(s));
        p.append_varint(version[s]);
      });
      BufReader ar = acq.reader();
      uint32_t next_serial = ar.read_varint32();
      version[s] = consume_update(ar, version[s]);

      Frame rel = call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
        p.append_vstring(seg_name(s));
        p.append_u8(payload_method::kRaw);
        DiffWriter w(p, version[s], version[s] + 1);
        if (block_serial[s] == 0) {
          block_serial[s] = next_serial;
          w.begin_block(block_serial[s],
                        diff_flags::kNew | diff_flags::kWhole, 1,
                        blk_name(t));
          w.begin_run(0, kUnits);
          for (uint32_t i = 0; i < kUnits; ++i) p.append_u32(value);
          w.end_block();
          sh.final_value[s][t] = value;
        } else if (round % 10 == 0) {
          w.add_free(block_serial[s]);
          block_serial[s] = 0;
          sh.final_value[s][t] = -1;
        } else {
          // Two runs to exercise the multi-run and subblock paths.
          w.begin_block(block_serial[s], 0);
          w.begin_run(0, 16);
          for (uint32_t i = 0; i < 16; ++i) p.append_u32(value);
          w.begin_run(16, kUnits - 16);
          for (uint32_t i = 16; i < kUnits; ++i) p.append_u32(value);
          w.end_block();
          sh.final_value[s][t] = value;
        }
        w.finish();
      });
      BufReader rr = rel.reader();
      version[s] = rr.read_varint32();
      sh.releases[s].fetch_add(1, std::memory_order_relaxed);

      // Read back the own segment under Full coherence; also drags in the
      // neighbor thread's concurrent writes.
      if (round % 4 == 0) {
        Frame rd = call(ch, MsgType::kAcquireRead, [&](Buffer& p) {
          p.append_vstring(seg_name(own));
          p.append_varint(version[own]);
          p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
          p.append_varint(0);
        });
        BufReader r = rd.reader();
        version[own] = consume_update(r, version[own]);
      }
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "worker " << t << ": " << e.what();
    sh.failures.fetch_add(1);
  }
}

TEST(ServerConcurrency, ShardedSegmentsStayConsistent) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-conc-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  server::SegmentServer::Options options;
  options.checkpoint_dir = dir.string();
  server::SegmentServer core(options);
  TcpServer server(core, 0);

  Shared sh;
  std::atomic<bool> done{false};
  // Checkpoints and stats scrapes race against live traffic: they must
  // neither wedge a segment nor trip TSan.
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      core.checkpoint();
      (void)core.stats();
      try {
        (void)core.segment_stats(seg_name(0));
        (void)core.segment_version(seg_name(0));
      } catch (const Error&) {
        // Segment not created yet.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, server.port(), t, std::ref(sh));
  }
  for (auto& t : threads) t.join();
  done = true;
  snapshotter.join();

  ASSERT_EQ(sh.failures.load(), 0);

  // Every segment's version must be exactly 1 + applied diffs (no diff was
  // lost or double-applied across the per-segment locks).
  for (int s = 0; s < kSegments; ++s) {
    EXPECT_EQ(core.segment_version(seg_name(s)),
              1u + sh.releases[s].load())
        << seg_name(s);
  }

  // Final contents: a fresh client's from-0 diff must enumerate exactly the
  // live blocks, each uniformly holding its owner's last committed value.
  TcpClientChannel verify(server.port());
  for (int s = 0; s < kSegments; ++s) {
    Frame rd = call(verify, MsgType::kAcquireRead, [&](Buffer& p) {
      p.append_vstring(seg_name(s));
      p.append_varint(0);
      p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
      p.append_varint(0);
    });
    BufReader r = rd.reader();
    ASSERT_EQ(r.read_u8(), 1) << seg_name(s);
    uint32_t n_types = r.read_varint32();
    for (uint32_t i = 0; i < n_types; ++i) {
      r.read_varint32();
      r.skip(r.read_varint32());
    }
    std::vector<uint8_t> scratch;
    const bool lz = read_compressed_section(r, scratch);
    BufReader section = lz ? BufReader(scratch.data(), scratch.size()) : r;
    DiffReader dr(section);
    DiffEntry e;
    std::map<std::string, std::vector<int32_t>> blocks;
    while (dr.next(&e)) {
      ASSERT_TRUE(e.flags & diff_flags::kNew) << seg_name(s);
      std::vector<int32_t> data(kUnits, 0);
      while (!e.runs.at_end()) {
        DiffRun run = e.read_run();
        for (uint32_t i = 0; i < run.unit_count; ++i) {
          data[run.start_unit + i] = e.runs.read_i32();
        }
      }
      blocks.emplace(e.name, std::move(data));
    }
    std::map<std::string, std::vector<int32_t>> expected;
    for (int t = 0; t < kThreads; ++t) {
      if (sh.final_value[s][t] < 0) continue;
      expected.emplace(blk_name(t),
                       std::vector<int32_t>(
                           kUnits, static_cast<int32_t>(sh.final_value[s][t])));
    }
    EXPECT_EQ(blocks, expected) << seg_name(s);
  }

  server.shutdown();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iw
