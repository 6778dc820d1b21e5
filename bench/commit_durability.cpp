// Commit durability cost: what the write-ahead log adds to a release, per
// sync policy. One in-process client runs lock/modify/release cycles with
// an 8 KiB diff against a SegmentServer journaling to a real filesystem,
// and each ReleaseWrite's wall time is recorded. Reported as JSON: commit
// throughput and p50/p99 release latency for the journal disabled, and for
// sync = none (page cache), batch (group commit), and commit (fdatasync per
// release) — the trade each deployment picks between commit latency and
// durability against OS/power failure.
//
// A second mode measures the payload pipeline: `--payload` runs the same
// cycle with journaling under sync = batch and periodic checkpoints, over a
// {compression on/off} x {compressible/incompressible diff content} matrix.
// Reported per cell: commit throughput/latency, the journal's raw vs stored
// payload bytes (the compression win on disk), the checkpoint count, and
// the time for a fresh SegmentServer::recover() over the run's snapshot +
// journal.
//
// Usage: commit_durability [cycles]             (default 2000)
//        commit_durability --payload [cycles]   (default 2000)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "net/inproc.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

constexpr uint32_t kUnits = 8192;     // int32 units per block (32 KiB)
constexpr uint32_t kRunUnits = 2048;  // units modified per commit (8 KiB)
const char* const kSeg = "bench/durable";
/// The handle each session binds kSeg to.
constexpr uint32_t kSegHandle = 1;

Frame call(InProcChannel& ch, MsgType type,
           const std::function<void(Buffer&)>& fill) {
  Buffer payload;
  fill(payload);
  return ch.call(type, std::move(payload));
}

struct RunResult {
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  server::SegmentServer::Stats stats;
};

RunResult run_config(bool wal, server::WriteAheadLog::Sync sync, int cycles) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("iw-bench-durability-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  server::SegmentServer::Options sopts;
  sopts.checkpoint_dir = dir.string();
  sopts.wal_enabled = wal;
  sopts.wal_sync = sync;
  RunResult r;
  {
    server::SegmentServer server(sopts);
    InProcChannel ch(server);

    ch.call(MsgType::kHello, hello_payload());  // before binding a handle
    call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
      p.append_varint(kSegHandle);
      p.append_vstring(kSeg);
      p.append_u8(1);
    });
    TypeRegistry scratch(Platform::native().rules);
    call(ch, MsgType::kRegisterType, [&](Buffer& p) {
      p.append_varint(kSegHandle);
      TypeCodec::encode_graph(
          scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), kUnits),
          p);
    });

    using Clock = std::chrono::steady_clock;
    uint32_t version = 1;
    uint32_t serial = 0;
    std::vector<uint64_t> latencies;
    latencies.reserve(static_cast<size_t>(cycles));
    auto run_start = Clock::now();

    for (int c = 0; c < cycles; ++c) {
      Frame acq = call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
        p.append_varint(kSegHandle);
        p.append_varint(version);
      });
      uint32_t next_serial = acq.reader().read_varint32();
      // Only the release is timed: that is where the journal append (and
      // any fdatasync) sits between the commit and its acknowledgement.
      auto start = Clock::now();
      call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
        p.append_varint(kSegHandle);
        p.append_u8(payload_method::kRaw);
        DiffWriter w(p, version, version + 1);
        if (serial == 0) {
          serial = next_serial;
          w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, 1, "d");
          w.begin_run(0, kUnits);
          for (uint32_t i = 0; i < kUnits; ++i) p.append_u32(c);
        } else {
          w.begin_block(serial, 0);
          uint32_t at = (static_cast<uint32_t>(c) * kRunUnits) % kUnits;
          w.begin_run(at, kRunUnits);
          for (uint32_t i = 0; i < kRunUnits; ++i) p.append_u32(c);
        }
        w.end_block();
        w.finish();
      });
      latencies.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()));
      ++version;
    }
    double seconds =
        std::chrono::duration<double>(Clock::now() - run_start).count();

    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double q) {
      if (latencies.empty()) return 0.0;
      size_t idx = std::min(
          latencies.size() - 1,
          static_cast<size_t>(q * static_cast<double>(latencies.size())));
      return static_cast<double>(latencies[idx]) / 1000.0;  // ns -> us
    };
    r.commits_per_sec = static_cast<double>(cycles) / seconds;
    r.p50_us = pct(0.50);
    r.p99_us = pct(0.99);
    r.stats = server.stats();
  }
  fs::remove_all(dir);
  return r;
}

struct PayloadResult {
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double recover_ms = 0;
  server::SegmentServer::Stats stats;       // from the workload server
  server::SegmentServer::Stats recovered;   // from the recovering server
};

/// One payload-pipeline cell: journaling under sync = batch, checkpoints
/// every 64 commits, and diff content that is either one constant per
/// commit (compressible) or an xorshift stream (not). The directory
/// outlives the workload server so a fresh server can time recover() over
/// the snapshot + journal the run left behind.
PayloadResult run_payload(bool compress, bool compressible, int cycles) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("iw-bench-payload-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  server::SegmentServer::Options sopts;
  sopts.checkpoint_dir = dir.string();
  sopts.wal_sync = server::WriteAheadLog::Sync::kBatch;
  sopts.checkpoint_every = 64;
  sopts.compress_payloads = compress;
  PayloadResult r;
  uint32_t noise = 0x9e3779b9u;
  {
    server::SegmentServer server(sopts);
    InProcChannel ch(server);
    ch.call(MsgType::kHello, hello_payload());  // before binding a handle
    call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
      p.append_varint(kSegHandle);
      p.append_vstring(kSeg);
      p.append_u8(1);
    });
    TypeRegistry scratch(Platform::native().rules);
    call(ch, MsgType::kRegisterType, [&](Buffer& p) {
      p.append_varint(kSegHandle);
      TypeCodec::encode_graph(
          scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), kUnits),
          p);
    });

    using Clock = std::chrono::steady_clock;
    uint32_t version = 1;
    uint32_t serial = 0;
    std::vector<uint64_t> latencies;
    latencies.reserve(static_cast<size_t>(cycles));
    auto run_start = Clock::now();
    for (int c = 0; c < cycles; ++c) {
      Frame acq = call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
        p.append_varint(kSegHandle);
        p.append_varint(version);
      });
      uint32_t next_serial = acq.reader().read_varint32();
      auto unit = [&]() -> uint32_t {
        if (compressible) return static_cast<uint32_t>(c);
        noise ^= noise << 13;
        noise ^= noise >> 17;
        noise ^= noise << 5;
        return noise;
      };
      auto start = Clock::now();
      call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
        p.append_varint(kSegHandle);
        p.append_u8(payload_method::kRaw);
        DiffWriter w(p, version, version + 1);
        if (serial == 0) {
          serial = next_serial;
          w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, 1, "d");
          w.begin_run(0, kUnits);
          for (uint32_t i = 0; i < kUnits; ++i) p.append_u32(unit());
        } else {
          w.begin_block(serial, 0);
          uint32_t at = (static_cast<uint32_t>(c) * kRunUnits) % kUnits;
          w.begin_run(at, kRunUnits);
          for (uint32_t i = 0; i < kRunUnits; ++i) p.append_u32(unit());
        }
        w.end_block();
        w.finish();
      });
      latencies.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()));
      ++version;
    }
    double seconds =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double q) {
      if (latencies.empty()) return 0.0;
      size_t idx = std::min(
          latencies.size() - 1,
          static_cast<size_t>(q * static_cast<double>(latencies.size())));
      return static_cast<double>(latencies[idx]) / 1000.0;  // ns -> us
    };
    r.commits_per_sec = static_cast<double>(cycles) / seconds;
    r.p50_us = pct(0.50);
    r.p99_us = pct(0.99);
    r.stats = server.stats();
  }
  {
    using Clock = std::chrono::steady_clock;
    server::SegmentServer revived(sopts);
    auto t0 = Clock::now();
    revived.recover();
    r.recover_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    r.recovered = revived.stats();
  }
  fs::remove_all(dir);
  return r;
}

}  // namespace
}  // namespace iw

int run_payload_main(int cycles) {
  std::printf("[\n");
  bool first = true;
  for (bool compress : {true, false}) {
    for (bool compressible : {true, false}) {
      iw::PayloadResult r = iw::run_payload(compress, compressible, cycles);
      double stored_ratio =
          r.stats.commit_raw_bytes == 0
              ? 1.0
              : static_cast<double>(r.stats.commit_stored_bytes) /
                    static_cast<double>(r.stats.commit_raw_bytes);
      std::printf(
          "%s  {\"bench\": \"payload_durability\", \"compress\": \"%s\", "
          "\"data\": \"%s\", \"cycles\": %d, \"diff_bytes\": %u, "
          "\"commits_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
          "\"commit_raw_bytes\": %llu, \"commit_stored_bytes\": %llu, "
          "\"stored_ratio\": %.3f, \"commits_compressed\": %llu, "
          "\"wal_bytes\": %llu, \"checkpoints_written\": %llu, "
          "\"recover_ms\": %.2f, \"recovered_wal_records\": %llu}",
          first ? "" : ",\n", compress ? "on" : "off",
          compressible ? "compressible" : "incompressible", cycles,
          iw::kRunUnits * 4, r.commits_per_sec, r.p50_us, r.p99_us,
          static_cast<unsigned long long>(r.stats.commit_raw_bytes),
          static_cast<unsigned long long>(r.stats.commit_stored_bytes),
          stored_ratio,
          static_cast<unsigned long long>(r.stats.commits_compressed),
          static_cast<unsigned long long>(r.stats.wal_bytes_appended),
          static_cast<unsigned long long>(r.stats.checkpoints_written),
          r.recover_ms,
          static_cast<unsigned long long>(r.recovered.wal_replayed_records));
      first = false;
    }
  }
  std::printf("\n]\n");
  return 0;
}

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--payload") {
    return run_payload_main(argc > 2 ? std::atoi(argv[2]) : 2000);
  }
  int cycles = argc > 1 ? std::atoi(argv[1]) : 2000;
  using Sync = iw::server::WriteAheadLog::Sync;
  struct Mode {
    const char* name;
    bool wal;
    Sync sync;
  };
  const Mode modes[] = {
      {"wal_off", false, Sync::kNone},
      {"none", true, Sync::kNone},
      {"batch", true, Sync::kBatch},
      {"commit", true, Sync::kCommit},
  };
  std::printf("[\n");
  bool first = true;
  for (const Mode& m : modes) {
    iw::RunResult r = iw::run_config(m.wal, m.sync, cycles);
    std::printf(
        "%s  {\"bench\": \"commit_durability\", \"sync\": \"%s\", "
        "\"cycles\": %d, \"diff_bytes\": %u, "
        "\"commits_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"wal_records\": %llu, \"wal_bytes\": %llu, \"wal_fsyncs\": %llu}",
        first ? "" : ",\n", m.name, cycles, iw::kRunUnits * 4,
        r.commits_per_sec,
        r.p50_us, r.p99_us,
        static_cast<unsigned long long>(r.stats.wal_records_appended),
        static_cast<unsigned long long>(r.stats.wal_bytes_appended),
        static_cast<unsigned long long>(r.stats.wal_fsyncs));
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}
