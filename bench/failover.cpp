// Federation cost and failover latency. Two measurements, JSON to stdout:
//
//  - Replicated-commit throughput: the same lock/modify/release cycle as
//    commit_durability, standalone vs streaming every record to one replica
//    with the ack gated on its journal (replication_factor = 1). The delta
//    is what the zero-acked-loss guarantee costs per commit.
//  - Time-to-promote: a primary that replicated a prefix of commits dies;
//    the segment directory probes it, polls the replica's version, and
//    promotes it with an epoch bump. Wall time from failover resolve to a
//    usable new primary, over many trials.
//
// Usage: failover [cycles] [trials]   (default 1000, 20)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/inproc.hpp"
#include "server/directory.hpp"
#include "server/replication.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "util/error.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

constexpr uint32_t kUnits = 8192;     // int32 units per block (32 KiB)
constexpr uint32_t kRunUnits = 2048;  // units modified per commit (8 KiB)
const char* const kSeg = "bench/failover";
/// The handle each session binds kSeg to.
constexpr uint32_t kSegHandle = 1;

Frame call(InProcChannel& ch, MsgType type,
           const std::function<void(Buffer&)>& fill) {
  Buffer payload;
  fill(payload);
  return ch.call(type, std::move(payload));
}

/// Says hello (a session binds a handle only after it), opens kSeg,
/// registers the block type, and runs `cycles` write commits against `ch`;
/// returns wall seconds for the commit loop alone.
double run_commits(InProcChannel& ch, int cycles,
                   std::vector<uint64_t>* latencies_ns) {
  ch.call(MsgType::kHello, hello_payload());
  call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
    p.append_varint(kSegHandle);
    p.append_vstring(kSeg);
    p.append_u8(1);
  });
  TypeRegistry scratch(Platform::native().rules);
  call(ch, MsgType::kRegisterType, [&](Buffer& p) {
    p.append_varint(kSegHandle);
    TypeCodec::encode_graph(
        scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), kUnits), p);
  });

  using Clock = std::chrono::steady_clock;
  uint32_t version = 1;
  uint32_t serial = 0;
  auto run_start = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    Frame acq = call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_varint(kSegHandle);
      p.append_varint(version);
    });
    uint32_t next_serial = acq.reader().read_varint32();
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
    if (latencies_ns != nullptr) {
      latencies_ns->push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()));
    }
    ++version;
  }
  return std::chrono::duration<double>(Clock::now() - run_start).count();
}

double pct(std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  size_t idx =
      std::min(sorted_ns.size() - 1,
               static_cast<size_t>(q * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[idx]) / 1000.0;  // ns -> us
}

struct Throughput {
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t records_acked = 0;
  uint64_t batches_sent = 0;
};

Throughput bench_throughput(bool replicated, int cycles) {
  Throughput t;
  std::shared_ptr<server::SegmentServer> replica;
  auto replicator = std::make_shared<server::WalReplicator>(
      server::WalReplicator::Options{});
  server::SegmentServer::Options popts;
  if (replicated) {
    replica = std::make_shared<server::SegmentServer>();
    replicator->add_replica("replica", [replica] {
      return std::make_shared<InProcChannel>(*replica);
    });
    popts.replicator = replicator;
  }
  {
    server::SegmentServer primary(popts);
    InProcChannel ch(primary);
    std::vector<uint64_t> lat;
    lat.reserve(static_cast<size_t>(cycles));
    double seconds = run_commits(ch, cycles, &lat);
    std::sort(lat.begin(), lat.end());
    t.commits_per_sec = static_cast<double>(cycles) / seconds;
    t.p50_us = pct(lat, 0.50);
    t.p99_us = pct(lat, 0.99);
    server::WalReplicator::Stats rs = replicator->stats();
    t.records_acked = rs.records_acked;
    t.batches_sent = rs.batches_sent;
  }
  replicator->shutdown();  // sever links before the replica dies
  return t;
}

struct Promote {
  double mean_ms = 0;
  double max_ms = 0;
  uint32_t replica_version = 0;  ///< from the last trial, sanity only
};

Promote bench_promote(int trials, int prefix_commits) {
  Promote out;
  double total_ms = 0;
  for (int trial = 0; trial < trials; ++trial) {
    // A replica that journaled a prefix of replicated commits, then lost
    // its primary mid-service.
    auto replica = std::make_shared<server::SegmentServer>();
    auto replicator = std::make_shared<server::WalReplicator>(
        server::WalReplicator::Options{});
    replicator->add_replica("replica", [replica] {
      return std::make_shared<InProcChannel>(*replica);
    });
    server::SegmentServer::Options popts;
    popts.replicator = replicator;
    {
      server::SegmentServer primary(popts);
      InProcChannel ch(primary);
      run_commits(ch, prefix_commits, nullptr);
      replicator->shutdown();
    }  // primary gone

    server::SegmentDirectory directory(
        {}, [replica](const std::string& address)
                -> std::shared_ptr<ClientChannel> {
          if (address == "r") return std::make_shared<InProcChannel>(*replica);
          throw Error::transport(ErrorCode::kConnReset,
                                 "primary is dead: " + address);
        });
    directory.add_node("p", "p");
    directory.add_node("r", "r");
    directory.set_placement(kSeg, {"p", "r"});

    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    server::SegmentDirectory::Placement p =
        directory.resolve_for_failover(kSeg, 1);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
    if (p.epoch != 2 || p.nodes.front() != "r") {
      std::fprintf(stderr, "trial %d: promotion went sideways\n", trial);
      std::exit(1);
    }
    total_ms += ms;
    out.max_ms = std::max(out.max_ms, ms);
    InProcChannel rch(*replica);
    Buffer req;
    req.append_varint(0);  // handle 0: a probe binds nothing
    req.append_vstring(kSeg);
    req.append_u8(0);
    Frame opened = rch.call(MsgType::kOpenSegment, std::move(req));
    out.replica_version = opened.reader().read_varint32();
  }
  out.mean_ms = trials > 0 ? total_ms / trials : 0;
  return out;
}

struct RestoreRf {
  double mean_ms = 0;
  double max_ms = 0;
  uint64_t failovers = 0;    ///< promotions performed by the repairer
  uint64_t backfills = 0;    ///< rejoin installs, summed over trials
};

/// Time-to-restore-rf: a 3-node rf=2 cluster loses its primary; the repair
/// loop promotes the most-caught-up replica and recruits the dead node's
/// (blank) restart back in via a snapshot backfill. Wall time from the kill
/// to the tick that reports the segment fully replicated again — the window
/// during which a second fault could lose acknowledged commits.
RestoreRf bench_restore_rf(int trials, int prefix_commits) {
  RestoreRf out;
  double total_ms = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::array<std::shared_ptr<server::SegmentServer>, 3> nodes;
    std::array<std::shared_ptr<server::WalReplicator>, 3> repls;
    std::array<bool, 3> alive{false, false, false};
    auto dial = [&nodes, &alive](const std::string& address)
        -> std::shared_ptr<ClientChannel> {
      int i = address[1] - '0';
      if (!alive[static_cast<size_t>(i)]) {
        throw Error::transport(ErrorCode::kConnReset, "node is dead");
      }
      return std::make_shared<InProcChannel>(*nodes[static_cast<size_t>(i)]);
    };
    auto start_node = [&](int i) {
      server::WalReplicator::Options w;
      w.replication_factor = 2;
      w.ack_timeout_ms = 2'000;
      w.reconnect_backoff_ms = 1;
      w.disconnect_grace_ms = 100;
      repls[static_cast<size_t>(i)] =
          std::make_shared<server::WalReplicator>(w);
      server::SegmentServer::Options o;
      o.replicator = repls[static_cast<size_t>(i)];
      o.peer_dial = dial;
      nodes[static_cast<size_t>(i)] =
          std::make_shared<server::SegmentServer>(o);
      nodes[static_cast<size_t>(i)]->set_node_identity(
          "n" + std::to_string(i), "n" + std::to_string(i));
      alive[static_cast<size_t>(i)] = true;
    };
    for (int i = 0; i < 3; ++i) start_node(i);

    server::SegmentDirectory::Options dopts;
    dopts.replicas = 2;
    server::SegmentDirectory directory(dopts, dial);
    for (int i = 0; i < 3; ++i) {
      directory.add_node("n" + std::to_string(i), "n" + std::to_string(i));
    }
    directory.set_placement(kSeg, {"n0", "n1", "n2"});
    server::ReplicationRepairer repairer(directory);
    {
      // Create the segment, then let the bootstrap tick recruit both
      // replicas onto the stream; every prefix commit is then acked only
      // after two replicas journaled it — the state a real kill interrupts.
      InProcChannel ch(*nodes[0]);
      ch.call(MsgType::kHello, hello_payload());
      call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
        p.append_varint(kSegHandle);
        p.append_vstring(kSeg);
        p.append_u8(1);
      });
      if (repairer.tick() != 0) {
        std::fprintf(stderr, "trial %d: bootstrap recruits failed\n", trial);
        std::exit(1);
      }
      run_commits(ch, prefix_commits, nullptr);
    }

    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    alive[0] = false;
    repls[0]->shutdown();
    nodes[0].reset();
    repairer.tick();  // promote away from the corpse
    start_node(0);    // blank restart rejoins under its old id
    int guard = 0;
    while (repairer.tick() != 0) {
      if (++guard > 1000) {
        std::fprintf(stderr, "trial %d: rf never restored\n", trial);
        std::exit(1);
      }
    }
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    total_ms += ms;
    out.max_ms = std::max(out.max_ms, ms);
    out.failovers += repairer.stats().failovers;
    for (const auto& n : nodes) {
      if (n != nullptr) out.backfills += n->stats().backfills_completed;
    }
    for (const auto& r : repls) {
      if (r != nullptr) r->shutdown();
    }
  }
  out.mean_ms = trials > 0 ? total_ms / trials : 0;
  return out;
}

}  // namespace
}  // namespace iw

int main(int argc, char** argv) {
  int cycles = argc > 1 ? std::atoi(argv[1]) : 1000;
  int trials = argc > 2 ? std::atoi(argv[2]) : 20;

  std::printf("[\n");
  for (int replicated = 0; replicated <= 1; ++replicated) {
    iw::Throughput t = iw::bench_throughput(replicated != 0, cycles);
    std::printf(
        "  {\"bench\": \"failover\", \"metric\": \"commit_throughput\", "
        "\"mode\": \"%s\", \"cycles\": %d, \"diff_bytes\": %u, "
        "\"commits_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"repl_records_acked\": %llu, \"repl_batches\": %llu},\n",
        replicated != 0 ? "replicated_rf1" : "standalone", cycles,
        iw::kRunUnits * 4, t.commits_per_sec, t.p50_us, t.p99_us,
        static_cast<unsigned long long>(t.records_acked),
        static_cast<unsigned long long>(t.batches_sent));
  }
  iw::Promote p = iw::bench_promote(trials, 50);
  std::printf(
      "  {\"bench\": \"failover\", \"metric\": \"time_to_promote\", "
      "\"trials\": %d, \"prefix_commits\": 50, "
      "\"promote_ms_mean\": %.2f, \"promote_ms_max\": %.2f, "
      "\"replica_version\": %u},\n",
      trials, p.mean_ms, p.max_ms, p.replica_version);
  iw::RestoreRf r = iw::bench_restore_rf(trials, 50);
  std::printf(
      "  {\"bench\": \"failover\", \"metric\": \"time_to_restore_rf\", "
      "\"trials\": %d, \"prefix_commits\": 50, "
      "\"restore_ms_mean\": %.2f, \"restore_ms_max\": %.2f, "
      "\"repair_failovers\": %llu, \"rejoin_backfills\": %llu}\n",
      trials, r.mean_ms, r.max_ms,
      static_cast<unsigned long long>(r.failovers),
      static_cast<unsigned long long>(r.backfills));
  std::printf("]\n");
  return 0;
}
