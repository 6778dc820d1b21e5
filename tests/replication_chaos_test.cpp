// Replication chaos test: a federation of servers (primary + replica wired
// by a WalReplicator, fronted by a SegmentDirectory) must survive the death
// of the primary with zero acknowledged-commit loss.
//
// Three suites:
//
//   * ReplicationFailoverTest — controlled kill: the primary is torn down
//     mid-workload (in-proc core swap by default, a real TcpServer shutdown
//     under IW_REPL_TRANSPORT=tcp); the client's failover connector must
//     re-resolve through the directory, which probes the dead primary and
//     promotes the replica, and the workload converges on the oracle model.
//
//   * SigkillFailoverTest — the real thing, 20 seeds: the primary runs in a
//     forked child that SIGKILLs itself *inside* a WAL append (seeded
//     WalCrashSchedule — short write / mid-record / before-sync), exactly a
//     power cut mid-commit. The parent-side client fails over to the
//     replica and the model must survive byte-identically: every commit the
//     primary acked had, by construction, already been journaled by the
//     replica, so promotion may not lose any of them.
//
//   * directory edge cases — consistent-hash placement, explicit
//     placement overrides, orphan-journal revival on a promoted replica,
//     the double-promotion race, a deposed primary's late kWalAppend
//     being fenced by epoch, a replica refusing a record that skips a
//     version or type serial, and remote resolution through DirectoryCore.
//
// The workload idiom matches chaos_test.cpp: named blocks, absolute values
// derived from (seed, step), whole-critical-section retry — so an
// applied-but-unacknowledged commit converges on retry instead of
// double-applying.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "interweave/interweave.hpp"
#include "server/replication.hpp"
#include "util/endian.hpp"

namespace iw {
namespace {

namespace fs = std::filesystem;
using server::DirectoryCore;
using server::SegmentDirectory;
using server::WalReplicator;
using server::WalRecordType;
using server::WriteAheadLog;

constexpr uint32_t kUnits = 4;
const char* const kUrl = "host/replicated";

using Model = std::map<std::string, std::vector<int32_t>>;

bool tcp_mode() {
  const char* t = std::getenv("IW_REPL_TRANSPORT");
  return t != nullptr && std::string(t) == "tcp";
}

TcpClientChannel::Options fast_tcp() {
  TcpClientChannel::Options o;
  o.connect_timeout_ms = 1'000;
  o.call_timeout_ms = 3'000;
  return o;
}

std::vector<int32_t> step_values(uint64_t seed, int step) {
  std::vector<int32_t> v(kUnits);
  for (uint32_t u = 0; u < kUnits; ++u) {
    v[u] = static_cast<int32_t>(seed * 1'000'003 + step * 101 + u);
  }
  return v;
}

void fill_block(client::BlockHeader* blk, const std::vector<int32_t>& values) {
  auto* data = reinterpret_cast<int32_t*>(const_cast<uint8_t*>(blk->data()));
  for (uint32_t u = 0; u < kUnits; ++u) data[u] = values[u];
}

Model snapshot_of(Client& c, ClientSegment* seg) {
  Model out;
  c.read_lock(seg);
  seg->heap().for_each_block([&](client::BlockHeader* blk) {
    EXPECT_NE(blk->name, nullptr) << "workload only creates named blocks";
    if (blk->name == nullptr) return;
    const auto* data = reinterpret_cast<const int32_t*>(blk->data());
    out[*blk->name] = std::vector<int32_t>(data, data + kUnits);
  });
  c.read_unlock(seg);
  return out;
}

/// ServerCore proxy whose backing server can be killed (cf. the restart
/// chaos suite): once dead, connects and requests fail like a reset
/// connection — the failure that drives a client into failover resolution.
class KillableCore final : public ServerCore {
 public:
  /// Swaps the backing server. New calls are refused at once; the swap then
  /// waits for the calls already inside the old server to return, so the
  /// caller may tear it down.
  void set_server(server::SegmentServer* server) {
    std::unique_lock lock(mu_);
    const bool had_server = server_ != nullptr;
    server_ = server;
    known_.clear();
    if (had_server) idle_.wait(lock, [&] { return in_flight_ == 0; });
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
    server::SegmentServer* server = nullptr;
    {
      std::lock_guard lock(mu_);
      if (server_ == nullptr || known_.find(session) == known_.end()) {
        throw Error::transport(ErrorCode::kConnReset, "server killed");
      }
      server = server_;
      ++in_flight_;
    }
    // The call runs without mu_: a recruit's backfill dials another node's
    // proxy from inside it, and holding mu_ across that would take two
    // proxies' mutexes in both orders.
    struct Leave {
      KillableCore& core;
      ~Leave() {
        std::lock_guard lock(core.mu_);
        if (--core.in_flight_ == 0) core.idle_.notify_all();
      }
    } leave{*this};
    return server->handle(session, request);
  }

 private:
  std::mutex mu_;
  std::condition_variable idle_;  ///< in_flight_ dropped to 0
  int in_flight_ = 0;             ///< handle() calls inside server_
  server::SegmentServer* server_ = nullptr;
  std::unordered_set<SessionId> known_;
};

// --- suite 1: controlled primary kill mid-workload ---

class ReplicationFailoverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationFailoverTest, PromotesReplicaAndConverges) {
  const uint64_t seed = GetParam();
  const bool tcp = tcp_mode();
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-failover-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed));
  fs::remove_all(dir);

  server::SegmentServer::Options ropts;
  ropts.checkpoint_dir = (dir / "replica").string();
  ropts.wal_sync = WriteAheadLog::Sync::kCommit;
  ropts.writer_lease_ms = 1'500;
  auto replica = std::make_unique<server::SegmentServer>(ropts);
  std::unique_ptr<TcpServer> replica_tcp;
  if (tcp) replica_tcp = std::make_unique<TcpServer>(*replica, 0);

  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 3'000;
  auto replicator = std::make_shared<WalReplicator>(wopts);
  if (tcp) {
    const uint16_t rport = replica_tcp->port();
    replicator->add_replica("replica", [rport] {
      return std::make_shared<TcpClientChannel>(rport, fast_tcp());
    });
  } else {
    replicator->add_replica(
        "replica", [&replica]() -> std::shared_ptr<ClientChannel> {
          return std::make_shared<InProcChannel>(*replica);
        });
  }

  server::SegmentServer::Options popts;
  popts.checkpoint_dir = (dir / "primary").string();
  popts.wal_sync = WriteAheadLog::Sync::kCommit;
  popts.writer_lease_ms = 1'500;
  popts.replicator = replicator;
  auto primary = std::make_unique<server::SegmentServer>(popts);
  KillableCore proxy;
  proxy.set_server(primary.get());
  std::unique_ptr<TcpServer> primary_tcp;
  if (tcp) primary_tcp = std::make_unique<TcpServer>(proxy, 0);

  SegmentDirectory::Dialer dial;
  if (tcp) {
    dial = [](const std::string& addr) -> std::shared_ptr<ClientChannel> {
      return std::make_shared<TcpClientChannel>(
          static_cast<uint16_t>(std::stoul(addr)), fast_tcp());
    };
  } else {
    dial = [&proxy,
            &replica](const std::string& addr) -> std::shared_ptr<ClientChannel> {
      if (addr == "primary") return std::make_shared<InProcChannel>(proxy);
      return std::make_shared<InProcChannel>(*replica);
    };
  }
  SegmentDirectory::Options dopts;
  dopts.replicas = 1;
  SegmentDirectory directory(dopts, dial);
  directory.add_node("primary",
                     tcp ? std::to_string(primary_tcp->port()) : "primary");
  directory.add_node("replica",
                     tcp ? std::to_string(replica_tcp->port()) : "replica");
  directory.set_placement(kUrl, {"primary", "replica"});

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 8;
  copts.reconnect.max_call_retries = 10;
  copts.reconnect.jitter_seed = seed + 1;
  auto connector = server::make_failover_connector(directory, kUrl, dial);
  Client client([connector](const std::string&) { return connector(); },
                copts);
  ClientSegment* seg = client.open_segment(kUrl);

  const TypeDescriptor* arr = client.types().array_of(
      client.types().primitive(PrimitiveKind::kInt32), kUnits);

  SplitMix64 rng(seed);
  Model model;
  int next_block = 0;
  constexpr int kSteps = 40;
  constexpr int kKillStep = 20;

  for (int step = 0; step < kSteps; ++step) {
    if (step == kKillStep) {
      // Kill the primary between critical sections. Every commit up to here
      // was acked only after the replica journaled it, so nothing in
      // `model` may be lost by the promotion this forces.
      proxy.set_server(nullptr);
      if (primary_tcp != nullptr) primary_tcp->shutdown();
      replicator->shutdown();
      primary.reset();
    }
    uint64_t action = rng.below(10);
    std::vector<int32_t> values = step_values(seed, step);
    std::string target;
    if (action < 3 || model.empty()) {
      target = "b" + std::to_string(next_block++);
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      target = it->first;
    }
    bool do_free = action == 8 && !model.empty();

    for (int attempt = 0;; ++attempt) {
      try {
        client.write_lock(seg);
        client::BlockHeader* blk = seg->heap().find_by_name(target);
        if (do_free) {
          if (blk != nullptr) {
            client.free_block(seg, const_cast<uint8_t*>(blk->data()));
          }
        } else {
          if (blk == nullptr) {
            client.malloc_block(seg, arr, target);
            blk = seg->heap().find_by_name(target);
          }
          fill_block(blk, values);
        }
        client.write_unlock(seg);
        break;
      } catch (const Error& e) {
        ASSERT_LT(attempt, 10) << "seed " << seed << " step " << step << ": "
                               << e.what();
      }
    }
    if (do_free) {
      model.erase(target);
    } else {
      model[target] = values;
    }
  }

  // Zero acked-commit loss: the client (now on the promoted replica) sees
  // exactly the model, including every pre-kill acknowledged commit.
  for (int attempt = 0;; ++attempt) {
    try {
      Model seen = snapshot_of(client, seg);
      EXPECT_EQ(seen, model) << "seed " << seed;
      break;
    } catch (const Error& e) {
      ASSERT_LT(attempt, 10) << e.what();
    }
  }

  EXPECT_GE(client.stats().reconnects, 1u) << "kill was never felt";
  SegmentDirectory::Stats ds = directory.stats();
  EXPECT_EQ(ds.promotions, 1u) << "seed " << seed;
  EXPECT_GE(ds.probes_failed, 1u);
  // Promotion must complete well inside the writer lease window — failover
  // may not cost more than a lease reclaim would.
  EXPECT_LT(ds.promote_ms_last, 1'500u);
  server::SegmentServer::Stats rs = replica->stats();
  EXPECT_EQ(rs.promotions_accepted, 1u);
  EXPECT_GT(rs.repl_records_applied, 0u) << "nothing was ever replicated";
  EXPECT_EQ(replica->segment_placement_epoch(kUrl), 2u);

  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationFailoverTest,
                         ::testing::Range<uint64_t>(1, 7));  // 6 seeds

// --- suite 2: SIGKILL mid WAL append, 20 seeds ---

bool read_exact(int fd, uint16_t* value) {
  auto* p = reinterpret_cast<uint8_t*>(value);
  size_t got = 0;
  while (got < sizeof *value) {
    ssize_t n = ::read(fd, p + got, sizeof *value - got);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

/// Kills and reaps the child on every exit path, so a failed assertion
/// cannot leak a paused primary process.
struct ChildReaper {
  pid_t pid = -1;
  ~ChildReaper() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

class SigkillFailoverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SigkillFailoverTest, PromotedReplicaKeepsEveryAckedCommit) {
  const uint64_t seed = GetParam();
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-sigkill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);

  int p2c[2];  // parent -> child: the replica's port
  int c2p[2];  // child -> parent: the primary's port
  ASSERT_EQ(::pipe(p2c), 0);
  ASSERT_EQ(::pipe(c2p), 0);

  // Fork FIRST, while this process is still single-threaded: the child
  // builds its entire primary (threads included) after the fork, so no
  // parent-side lock can be frozen mid-acquire in the child.
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // --- the primary, fated to die by its own hand ---
    ::close(p2c[1]);
    ::close(c2p[0]);
    try {
      uint16_t replica_port = 0;
      if (!read_exact(p2c[0], &replica_port)) _exit(3);

      WalCrashSchedule::Options crash;
      crash.crash_at_append = 4 + seed % 10;
      constexpr WalCrashPoint kPoints[] = {WalCrashPoint::kShortWrite,
                                           WalCrashPoint::kMidRecord,
                                           WalCrashPoint::kBeforeSync};
      crash.point = kPoints[seed % 3];

      WalReplicator::Options wopts;
      wopts.replication_factor = 1;
      wopts.ack_timeout_ms = 3'000;
      auto replicator = std::make_shared<WalReplicator>(wopts);
      replicator->add_replica("replica", [replica_port] {
        return std::make_shared<TcpClientChannel>(replica_port, fast_tcp());
      });

      server::SegmentServer::Options popts;
      popts.checkpoint_dir = (dir / "primary").string();
      popts.wal_sync = WriteAheadLog::Sync::kCommit;
      popts.writer_lease_ms = 1'500;
      popts.wal_crash = std::make_shared<WalCrashSchedule>(crash);
      popts.replicator = replicator;
      server::SegmentServer primary(popts);
      TcpServer tcp(primary, 0);

      uint16_t port = tcp.port();
      if (::write(c2p[1], &port, sizeof port) !=
          static_cast<ssize_t>(sizeof port)) {
        _exit(4);
      }
      // Serve until wal_crash_now() SIGKILLs this process mid-append.
      for (;;) ::pause();
    } catch (...) {
      _exit(5);
    }
  }

  ::close(p2c[0]);
  ::close(c2p[1]);
  ChildReaper reaper;
  reaper.pid = child;

  server::SegmentServer::Options ropts;
  ropts.checkpoint_dir = (dir / "replica").string();
  ropts.wal_sync = WriteAheadLog::Sync::kCommit;
  ropts.writer_lease_ms = 1'500;
  server::SegmentServer replica(ropts);
  TcpServer replica_tcp(replica, 0);

  uint16_t replica_port = replica_tcp.port();
  ASSERT_EQ(::write(p2c[1], &replica_port, sizeof replica_port),
            static_cast<ssize_t>(sizeof replica_port));
  uint16_t primary_port = 0;
  ASSERT_TRUE(read_exact(c2p[0], &primary_port)) << "child died during setup";

  SegmentDirectory::Dialer dial =
      [](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<TcpClientChannel>(
        static_cast<uint16_t>(std::stoul(addr)), fast_tcp());
  };
  SegmentDirectory::Options dopts;
  dopts.replicas = 1;
  SegmentDirectory directory(dopts, dial);
  directory.add_node("primary", std::to_string(primary_port));
  directory.add_node("replica", std::to_string(replica_port));
  directory.set_placement(kUrl, {"primary", "replica"});

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 16;
  copts.reconnect.max_call_retries = 10;
  copts.reconnect.jitter_seed = seed + 1;
  auto connector = server::make_failover_connector(directory, kUrl, dial);
  Client client([connector](const std::string&) { return connector(); },
                copts);
  ClientSegment* seg = client.open_segment(kUrl);

  const TypeDescriptor* arr = client.types().array_of(
      client.types().primitive(PrimitiveKind::kInt32), kUnits);

  // Upsert-only workload: ~26 local WAL appends (create, type, a commit per
  // step), so the seeded crash point — append 4 + seed % 10 — always fires
  // *during* a commit's append, with the client's acked history at a
  // different depth every seed.
  Model model;
  constexpr int kSteps = 24;
  for (int step = 0; step < kSteps; ++step) {
    std::string target = "b" + std::to_string(step % 6);
    std::vector<int32_t> values = step_values(seed, step);
    for (int attempt = 0;; ++attempt) {
      try {
        client.write_lock(seg);
        client::BlockHeader* blk = seg->heap().find_by_name(target);
        if (blk == nullptr) {
          client.malloc_block(seg, arr, target);
          blk = seg->heap().find_by_name(target);
        }
        fill_block(blk, values);
        client.write_unlock(seg);
        break;
      } catch (const Error& e) {
        ASSERT_LT(attempt, 10) << "seed " << seed << " step " << step << ": "
                               << e.what();
      }
    }
    // Acknowledged: a SIGKILL after this instant must never lose this step.
    model[target] = values;
  }

  // The primary must actually have died mid-append, by SIGKILL, not by a
  // clean exit — otherwise this run proved nothing.
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  reaper.pid = -1;
  ASSERT_TRUE(WIFSIGNALED(status)) << "primary exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Zero acked-commit loss across the crash: the promoted replica holds
  // exactly the model.
  for (int attempt = 0;; ++attempt) {
    try {
      Model seen = snapshot_of(client, seg);
      EXPECT_EQ(seen, model) << "seed " << seed;
      break;
    } catch (const Error& e) {
      ASSERT_LT(attempt, 10) << e.what();
    }
  }

  SegmentDirectory::Stats ds = directory.stats();
  EXPECT_EQ(ds.promotions, 1u) << "seed " << seed;
  EXPECT_GE(ds.probes_failed, 1u);
  EXPECT_LT(ds.promote_ms_last, 1'500u) << "promotion blew the lease window";
  server::SegmentServer::Stats rs = replica.stats();
  EXPECT_EQ(rs.promotions_accepted, 1u);
  EXPECT_GT(rs.repl_records_applied, 0u);
  EXPECT_EQ(replica.segment_placement_epoch(kUrl), 2u);

  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigkillFailoverTest,
                         ::testing::Range<uint64_t>(1, 21));  // 20 seeds

// --- suite 3: directory + fencing edge cases ---

TEST(SegmentDirectoryTest, ConsistentHashingIsStableAndSpreads) {
  SegmentDirectory::Options opts;
  opts.replicas = 1;
  SegmentDirectory dir(opts, [](const std::string&)
                                 -> std::shared_ptr<ClientChannel> {
    throw Error::transport(ErrorCode::kConnReset, "no dialing in this test");
  });
  EXPECT_THROW(dir.resolve("host/x"), Error) << "no nodes yet";

  dir.add_node("a", "addr-a");
  dir.add_node("b", "addr-b");
  dir.add_node("c", "addr-c");
  EXPECT_THROW(dir.add_node("a", "addr-a2"), Error) << "duplicate id";

  SegmentDirectory::Placement p = dir.resolve("host/x");
  EXPECT_EQ(p.epoch, 1u);
  ASSERT_EQ(p.nodes.size(), 2u);  // primary + 1 replica
  EXPECT_NE(p.nodes[0], p.nodes[1]);
  // Cached: the same placement comes back, even after membership grows.
  dir.add_node("d", "addr-d");
  SegmentDirectory::Placement again = dir.resolve("host/x");
  EXPECT_EQ(again.nodes, p.nodes);

  // The ring actually spreads: many segments do not all land on one
  // primary.
  std::unordered_set<std::string> primaries;
  for (int i = 0; i < 50; ++i) {
    primaries.insert(dir.resolve("host/s" + std::to_string(i)).nodes[0]);
  }
  EXPECT_GE(primaries.size(), 2u);

  EXPECT_EQ(dir.address_of("a"), "addr-a");
  EXPECT_THROW(dir.address_of("nope"), Error);
}

TEST(SegmentDirectoryTest, ExplicitPlacementOverridesTheRing) {
  SegmentDirectory::Options opts;
  opts.replicas = 1;
  SegmentDirectory dir(opts, [](const std::string&)
                                 -> std::shared_ptr<ClientChannel> {
    throw Error::transport(ErrorCode::kConnReset, "no dialing in this test");
  });
  dir.add_node("a", "addr-a");
  dir.add_node("b", "addr-b");
  EXPECT_THROW(dir.set_placement("host/p", {}), Error);
  EXPECT_THROW(dir.set_placement("host/p", {"ghost"}), Error);
  dir.set_placement("host/p", {"b", "a"});
  SegmentDirectory::Placement p = dir.resolve("host/p");
  EXPECT_EQ(p.nodes, (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(p.epoch, 1u);
}

// A replica whose only knowledge of a segment arrived over kWalAppend
// (never a client write of its own) crashes and restarts: its journal —
// an "orphan" journal with no checkpoint beside it — must revive the
// segment, and the revived server must be promotable with all data intact.
TEST(ReplicationEdgeTest, OrphanJournalRevivalOnPromotedReplica) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-orphan-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  server::SegmentServer::Options ropts;
  ropts.checkpoint_dir = dir.string();
  ropts.wal_sync = WriteAheadLog::Sync::kCommit;
  auto replica = std::make_unique<server::SegmentServer>(ropts);

  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  auto replicator = std::make_shared<WalReplicator>(wopts);
  replicator->add_replica("replica",
                          [&replica]() -> std::shared_ptr<ClientChannel> {
                            return std::make_shared<InProcChannel>(*replica);
                          });

  // The primary keeps no journal of its own: the replica's copy is the
  // only durable record of these commits anywhere.
  server::SegmentServer::Options popts;
  popts.replicator = replicator;
  server::SegmentServer primary(popts);

  std::vector<int32_t> values = step_values(7, 1);
  {
    Client client(
        [&primary](const std::string&) {
          return std::make_shared<InProcChannel>(primary);
        });
    ClientSegment* seg = client.open_segment(kUrl);
    const TypeDescriptor* arr = client.types().array_of(
        client.types().primitive(PrimitiveKind::kInt32), kUnits);
    client.write_lock(seg);
    client.malloc_block(seg, arr, "blk");
    fill_block(seg->heap().find_by_name("blk"), values);
    client.write_unlock(seg);
    client.write_lock(seg);
    fill_block(seg->heap().find_by_name("blk"), values);
    client.write_unlock(seg);
  }
  EXPECT_EQ(replica->segment_version(kUrl), 2u);

  // Crash the replica (destructors only, no checkpoint) and revive it from
  // the journal alone.
  replicator->shutdown();
  replica.reset();
  replica = std::make_unique<server::SegmentServer>(ropts);
  replica->recover();
  EXPECT_GT(replica->stats().wal_replayed_records, 0u);
  EXPECT_EQ(replica->segment_version(kUrl), 2u);

  // Promote the revived replica; it answers with the recovered version.
  auto ch = std::make_shared<InProcChannel>(*replica);
  Buffer req;
  req.append_lp_string(kUrl);
  req.append_u32(2);
  Frame resp = ch->call(MsgType::kPromote, std::move(req));
  EXPECT_EQ(resp.reader().read_u32(), 2u);
  EXPECT_EQ(replica->segment_placement_epoch(kUrl), 2u);
  EXPECT_EQ(replica->stats().promotions_accepted, 1u);

  // A client of the promoted replica sees the replicated data.
  Client reader([&replica](const std::string&) {
    return std::make_shared<InProcChannel>(*replica);
  });
  ClientSegment* seg = reader.open_segment(kUrl);
  Model seen = snapshot_of(reader, seg);
  ASSERT_EQ(seen.count("blk"), 1u);
  EXPECT_EQ(seen["blk"], values);

  fs::remove_all(dir);
}

// Two clients observe the same dead primary and race into failover: the
// directory must promote exactly once, the loser adopting the winner's
// epoch.
TEST(ReplicationEdgeTest, DoublePromotionRaceResolvesToOneEpochBump) {
  server::SegmentServer replica;
  SegmentDirectory::Dialer dial =
      [&replica](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    if (addr == "dead") {
      throw Error::transport(ErrorCode::kConnReset, "primary is down");
    }
    return std::make_shared<InProcChannel>(replica);
  };
  SegmentDirectory::Options opts;
  opts.replicas = 1;
  SegmentDirectory dir(opts, dial);
  dir.add_node("p", "dead");
  dir.add_node("r", "live");
  dir.set_placement(kUrl, {"p", "r"});
  ASSERT_EQ(dir.resolve(kUrl).epoch, 1u);

  SegmentDirectory::Placement got[2];
  std::thread t0([&] { got[0] = dir.resolve_for_failover(kUrl, 1); });
  std::thread t1([&] { got[1] = dir.resolve_for_failover(kUrl, 1); });
  t0.join();
  t1.join();

  for (const SegmentDirectory::Placement& p : got) {
    EXPECT_EQ(p.epoch, 2u);
    ASSERT_FALSE(p.nodes.empty());
    EXPECT_EQ(p.nodes.front(), "r");
  }
  EXPECT_EQ(dir.stats().promotions, 1u);
  EXPECT_EQ(replica.stats().promotions_accepted, 1u);
  EXPECT_EQ(replica.segment_placement_epoch(kUrl), 2u);
}

// A deposed primary keeps streaming: its records carry the old placement
// epoch and must be refused by the promoted replica, and the refusal must
// fence the segment inside the deposed primary's replicator so it can
// never ack again.
TEST(ReplicationEdgeTest, StalePrimaryLateWalAppendRejectedByEpoch) {
  server::SegmentServer replica;

  // The replica has been promoted to epoch 3 by the directory.
  auto ch = std::make_shared<InProcChannel>(replica);
  Buffer promote;
  promote.append_lp_string(kUrl);
  promote.append_u32(3);
  ch->call(MsgType::kPromote, std::move(promote));

  // A re-promotion to a lower epoch is itself stale.
  Buffer down;
  down.append_lp_string(kUrl);
  down.append_u32(2);
  try {
    ch->call(MsgType::kPromote, std::move(down));
    FAIL() << "stale promotion accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStaleEpoch);
  }

  // Raw wire check: an epoch-2 record in kWalAppend is reported stale, not
  // applied.
  Buffer batch;
  batch.append_u32(1);  // one record
  batch.append_lp_string(kUrl);
  batch.append_u32(2);  // stale epoch
  batch.append_u8(static_cast<uint8_t>(WalRecordType::kCommit));
  batch.append_u32(4);  // body: just the version prefix
  batch.append_u32(1);
  Frame ack = ch->call(MsgType::kWalAppend, std::move(batch));
  BufReader in = ack.reader();
  EXPECT_EQ(in.read_u32(), 0u) << "stale record was applied";
  ASSERT_EQ(in.read_u32(), 1u);
  EXPECT_EQ(in.read_lp_string(), kUrl);
  EXPECT_EQ(replica.stats().repl_stale_rejected, 1u);

  // Through the deposed primary's own replicator: the stale report turns
  // into a fence, and the committer gets kStaleEpoch instead of an ack.
  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 3'000;
  WalReplicator replicator(wopts);
  replicator.add_replica("replica",
                         [&replica]() -> std::shared_ptr<ClientChannel> {
                           return std::make_shared<InProcChannel>(replica);
                         });
  uint8_t head[4] = {0, 0, 0, 1};
  try {
    replicator.replicate(kUrl, 2, WalRecordType::kCommit, head);
    FAIL() << "deposed primary's commit was acked";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStaleEpoch);
  }
  EXPECT_TRUE(replicator.fenced(kUrl));
  EXPECT_EQ(replicator.stats().stale_epoch_fences, 1u);
  // The fence is sticky: later commits fail immediately.
  EXPECT_THROW(replicator.replicate(kUrl, 2, WalRecordType::kCommit, head),
               Error);
  replicator.shutdown();
}

// The one record apply, replica side: a kWalAppend record whose commit
// skips a version, or whose type serial skips one, is refused with
// kProtocol before it touches anything — the replica's store version, type
// table and journal stay exactly as they were, and the stream resumes once
// the missing record arrives.
TEST(ReplicationEdgeTest, ReplicaRefusesVersionAndTypeSerialGaps) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-gap-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::string log_name = "host%2Freplicated.iwlog";

  // A source server journals the real records the stream would carry: two
  // type registrations and the commits that use them.
  server::SegmentServer::Options sopts;
  sopts.checkpoint_dir = (dir / "source").string();
  sopts.compress_payloads = false;
  {
    server::SegmentServer source(sopts);
    Client client([&source](const std::string&) {
      return std::make_shared<InProcChannel>(source);
    });
    ClientSegment* seg = client.open_segment(kUrl);
    const TypeDescriptor* i32 =
        client.types().primitive(PrimitiveKind::kInt32);
    client.write_lock(seg);
    client.malloc_block(seg, client.types().array_of(i32, kUnits), "a");
    client.write_unlock(seg);  // v2
    client.write_lock(seg);
    client.malloc_block(seg, client.types().array_of(i32, kUnits + 1), "b");
    client.write_unlock(seg);  // v3
  }
  std::vector<std::vector<uint8_t>> types;
  std::vector<uint8_t> commit_v2;
  for (const WriteAheadLog::Record& rec :
       WriteAheadLog::replay((dir / "source" / log_name).string()).records) {
    if (rec.type == WalRecordType::kRegisterType) types.push_back(rec.payload);
    if (rec.type == WalRecordType::kCommit && commit_v2.empty()) {
      commit_v2 = rec.payload;
    }
  }
  ASSERT_EQ(types.size(), 2u);
  ASSERT_FALSE(commit_v2.empty());
  // Records re-labelled with another serial or version prefix.
  auto relabel = [](std::vector<uint8_t> payload, uint32_t prefix) {
    store_be32(payload.data(), prefix);
    return payload;
  };

  server::SegmentServer::Options ropts;
  ropts.checkpoint_dir = (dir / "replica").string();
  server::SegmentServer replica(ropts);
  auto ch = std::make_shared<InProcChannel>(replica);
  auto append = [&](WalRecordType type, const std::vector<uint8_t>& body) {
    Buffer batch;
    batch.append_u32(1);
    batch.append_lp_string(kUrl);
    batch.append_u32(1);  // placement epoch
    batch.append_u8(static_cast<uint8_t>(type));
    batch.append_u32(static_cast<uint32_t>(body.size()));
    batch.append(body.data(), body.size());
    ch->call(MsgType::kWalAppend, std::move(batch));
  };
  auto expect_refused = [&](WalRecordType type,
                            const std::vector<uint8_t>& body) {
    try {
      append(type, body);
      ADD_FAILURE() << "gapped record accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol) << e.what();
    }
  };
  auto type_count = [&] {
    Buffer req;
    req.append_varint(0);  // handle 0: a one-shot query binds nothing
    req.append_vstring(kUrl);
    Frame info = ch->call(MsgType::kSegmentInfo, std::move(req));
    BufReader in = info.reader();
    in.read_varint32();  // version
    return in.read_varint32();
  };
  const fs::path journal = dir / "replica" / log_name;

  append(WalRecordType::kRegisterType, types[0]);
  const uintmax_t journal_bytes = fs::file_size(journal);
  // v2's diff is well-formed against v1; only its version label skips one.
  expect_refused(WalRecordType::kCommit, relabel(commit_v2, 3));
  // The second type's graph is new; only its serial label skips one.
  expect_refused(WalRecordType::kRegisterType, relabel(types[1], 3));
  EXPECT_EQ(replica.segment_version(kUrl), 1u);
  EXPECT_EQ(type_count(), 1u);
  EXPECT_EQ(fs::file_size(journal), journal_bytes);
  EXPECT_EQ(replica.stats().repl_records_applied, 1u);

  append(WalRecordType::kCommit, commit_v2);
  append(WalRecordType::kRegisterType, types[1]);
  EXPECT_EQ(replica.segment_version(kUrl), 2u);
  EXPECT_EQ(type_count(), 2u);
  EXPECT_GT(fs::file_size(journal), journal_bytes);
  fs::remove_all(dir);
}

// Resolution over the wire: a client with no directory object of its own
// resolves through DirectoryCore, dials the returned primary address, and
// fails over on the next connect after the primary dies.
TEST(ReplicationEdgeTest, DirectoryCoreServesRemoteFailoverResolution) {
  server::SegmentServer primary_server;
  server::SegmentServer replica;
  KillableCore proxy;
  proxy.set_server(&primary_server);

  SegmentDirectory::Dialer dial =
      [&proxy, &replica](const std::string& addr)
      -> std::shared_ptr<ClientChannel> {
    if (addr == "primary") return std::make_shared<InProcChannel>(proxy);
    return std::make_shared<InProcChannel>(replica);
  };
  SegmentDirectory::Options opts;
  opts.replicas = 1;
  SegmentDirectory dir(opts, dial);
  dir.add_node("p", "primary");
  dir.add_node("r", "replica");
  dir.set_placement(kUrl, {"p", "r"});
  DirectoryCore dcore(dir);

  auto connector = server::make_failover_connector(
      [&dcore]() -> std::shared_ptr<ClientChannel> {
        return std::make_shared<InProcChannel>(dcore);
      },
      kUrl, dial);

  // First connect lands on the primary.
  auto ch = connector();
  ch->call(MsgType::kPing, Buffer());
  EXPECT_EQ(dir.stats().promotions, 0u);

  // Primary dies; the next connect resolves with failover and lands on the
  // promoted replica.
  proxy.set_server(nullptr);
  ch = connector();
  ch->call(MsgType::kPing, Buffer());
  EXPECT_EQ(dir.stats().promotions, 1u);
  EXPECT_EQ(replica.stats().promotions_accepted, 1u);
}

// --- suite 4: self-healing — repeated failover, backfill, and rejoin ---
//
// An rf=2 topology (primary + 2 replicas) survives sequential primary
// kills: after each kill the repair loop promotes the most-caught-up
// replica, the deposed primary restarts from its own checkpoint + journal
// and is recruited back as a replica (its divergent unacked suffix
// discarded by the snapshot install), and the replication factor is
// restored before the next kill. Zero acked commits may be lost across
// any number of rounds, and all three stores must converge byte-for-byte.

struct ClusterNode {
  std::string id;
  fs::path dir;
  std::shared_ptr<WalReplicator> replicator;
  std::unique_ptr<server::SegmentServer> server;
  KillableCore proxy;
  std::unique_ptr<TcpServer> tcp;
  std::string address;
};

void start_node(ClusterNode& n, bool tcp,
                const SegmentDirectory::Dialer& dial) {
  WalReplicator::Options wopts;
  wopts.replication_factor = 2;
  wopts.ack_timeout_ms = 2'000;
  wopts.reconnect_backoff_ms = 1;
  wopts.reconnect_backoff_max_ms = 8;
  wopts.disconnect_grace_ms = 150;
  n.replicator = std::make_shared<WalReplicator>(wopts);

  server::SegmentServer::Options opts;
  opts.checkpoint_dir = n.dir.string();
  opts.wal_sync = WriteAheadLog::Sync::kCommit;
  opts.writer_lease_ms = 1'500;
  opts.replicator = n.replicator;
  opts.peer_dial = dial;
  n.server = std::make_unique<server::SegmentServer>(opts);
  n.server->recover();
  n.proxy.set_server(n.server.get());
  if (tcp) {
    n.tcp = std::make_unique<TcpServer>(n.proxy, 0);
    n.address = std::to_string(n.tcp->port());
  } else {
    n.address = n.id;
  }
  n.server->set_node_identity(n.id, n.address);
}

void kill_node(ClusterNode& n) {
  n.proxy.set_server(nullptr);
  if (n.tcp != nullptr) {
    n.tcp->shutdown();
    n.tcp.reset();
  }
  n.replicator->shutdown();
  n.server.reset();
}

ClusterNode* node_by_id(std::array<ClusterNode, 3>& nodes,
                        const std::string& id) {
  for (ClusterNode& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

std::vector<uint8_t> checkpoint_bytes(const fs::path& node_dir) {
  fs::path seg;
  for (const auto& dirent : fs::directory_iterator(node_dir)) {
    if (dirent.path().extension() == ".iwseg") {
      EXPECT_TRUE(seg.empty()) << "more than one checkpoint in " << node_dir;
      seg = dirent.path();
    }
  }
  EXPECT_FALSE(seg.empty()) << "no .iwseg checkpoint in " << node_dir;
  if (seg.empty()) return {};
  std::ifstream in(seg, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

class RepeatedFailoverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepeatedFailoverTest, RepairRestoresFactorAcrossSequentialKills) {
  const uint64_t seed = GetParam();
  const bool tcp = tcp_mode();
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-repair-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed));
  fs::remove_all(dir);

  std::array<ClusterNode, 3> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes[static_cast<size_t>(i)].id = "n" + std::to_string(i);
    nodes[static_cast<size_t>(i)].dir = dir / nodes[static_cast<size_t>(i)].id;
  }
  SegmentDirectory::Dialer dial =
      [&nodes, tcp](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    if (tcp) {
      return std::make_shared<TcpClientChannel>(
          static_cast<uint16_t>(std::stoul(addr)), fast_tcp());
    }
    for (ClusterNode& n : nodes) {
      if (n.id == addr) return std::make_shared<InProcChannel>(n.proxy);
    }
    throw Error::transport(ErrorCode::kConnReset, "unknown node " + addr);
  };
  for (ClusterNode& n : nodes) start_node(n, tcp, dial);

  SegmentDirectory::Options dopts;
  dopts.replicas = 2;
  SegmentDirectory directory(dopts, dial);
  for (ClusterNode& n : nodes) directory.add_node(n.id, n.address);
  directory.set_placement(kUrl, {"n0", "n1", "n2"});
  server::ReplicationRepairer repairer(directory);

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 8;
  copts.reconnect.max_call_retries = 10;
  copts.reconnect.jitter_seed = seed + 1;
  auto connector = server::make_failover_connector(directory, kUrl, dial);
  Client client([connector](const std::string&) { return connector(); },
                copts);
  ClientSegment* seg = client.open_segment(kUrl);

  // Bootstrap: the first repair tick recruits both replicas through the
  // sync handshake (an empty WAL-tail — everyone is at v0) and flips them
  // to live links. From here every ack is gated on replication factor 2.
  ASSERT_EQ(repairer.tick(), 0u);
  ASSERT_EQ(nodes[0].replicator->replica_count(), 2u);

  const TypeDescriptor* arr = client.types().array_of(
      client.types().primitive(PrimitiveKind::kInt32), kUnits);

  SplitMix64 rng(seed);
  Model model;
  int next_block = 0;
  auto workload_step = [&](int step) -> bool {
    uint64_t action = rng.below(10);
    std::vector<int32_t> values = step_values(seed, step);
    std::string target;
    if (action < 3 || model.empty()) {
      target = "b" + std::to_string(next_block++);
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      target = it->first;
    }
    bool do_free = action == 8 && !model.empty();
    for (int attempt = 0;; ++attempt) {
      try {
        client.write_lock(seg);
        client::BlockHeader* blk = seg->heap().find_by_name(target);
        if (do_free) {
          if (blk != nullptr) {
            client.free_block(seg, const_cast<uint8_t*>(blk->data()));
          }
        } else {
          if (blk == nullptr) {
            client.malloc_block(seg, arr, target);
            blk = seg->heap().find_by_name(target);
          }
          fill_block(blk, values);
        }
        client.write_unlock(seg);
        break;
      } catch (const Error& e) {
        if (attempt >= 10) {
          ADD_FAILURE() << "seed " << seed << " step " << step << ": "
                        << e.what();
          return false;
        }
      }
    }
    if (do_free) {
      model.erase(target);
    } else {
      model[target] = values;
    }
    return true;
  };

  constexpr int kRounds = 3;
  constexpr int kStepsPerRound = 6;
  for (int round = 0; round < kRounds; ++round) {
    for (int s = 0; s < kStepsPerRound; ++s) {
      ASSERT_TRUE(workload_step(round * 100 + s));
    }

    // Kill the current primary between critical sections. Every commit in
    // `model` was acked only after both replicas journaled it.
    const std::string victim = directory.placement_of(kUrl).nodes.front();
    ClusterNode* dead = node_by_id(nodes, victim);
    ASSERT_NE(dead, nullptr);
    kill_node(*dead);

    // First tick: the repairer notices the corpse and promotes the
    // most-caught-up replica. The third copy cannot be restored yet — no
    // spare node exists outside the placement — so the segment stays on
    // the under-replicated gauge.
    EXPECT_EQ(repairer.tick(), 1u) << "round " << round;
    EXPECT_EQ(directory.placement_of(kUrl).epoch,
              static_cast<uint32_t>(round + 2));

    // The deposed primary restarts from its own checkpoint + journal and
    // rejoins the ring under its old id; repair recruits it back as a
    // replica, re-basing its history (snapshot install: its lineage is a
    // deposed epoch, so its unacked journal suffix may diverge).
    start_node(*dead, tcp, dial);
    directory.set_node_address(victim, dead->address);
    uint64_t under = 1;
    for (int i = 0; i < 200 && under != 0; ++i) {
      under = repairer.tick();
      if (under != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ASSERT_EQ(under, 0u) << "repair never restored rf=2, round " << round;
    EXPECT_EQ(dead->server->segment_lineage_epoch(kUrl),
              directory.placement_of(kUrl).epoch)
        << "round " << round;
  }

  // A final burst on the restored topology, fully gated on both replicas.
  for (int s = 0; s < kStepsPerRound; ++s) {
    ASSERT_TRUE(workload_step(1000 + s));
  }

  // Zero acked-commit loss across three promotions: the client sees
  // exactly the model.
  for (int attempt = 0;; ++attempt) {
    try {
      Model seen = snapshot_of(client, seg);
      EXPECT_EQ(seen, model) << "seed " << seed;
      break;
    } catch (const Error& e) {
      ASSERT_LT(attempt, 10) << e.what();
    }
  }

  // Quiescent anti-entropy pass: every recruit degenerates to an empty
  // WAL-tail sync and nothing is left under-replicated.
  EXPECT_EQ(repairer.tick(), 0u);

  SegmentDirectory::Stats ds = directory.stats();
  EXPECT_EQ(ds.promotions, static_cast<uint64_t>(kRounds)) << "seed " << seed;
  server::ReplicationRepairer::Stats rps = repairer.stats();
  EXPECT_EQ(rps.failovers, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(rps.under_replicated_segments, 0u);
  EXPECT_EQ(rps.substitutions, 0u) << "rejoins reuse the old id, never a spare";
  EXPECT_GE(rps.recruits_attempted, static_cast<uint64_t>(2 * kRounds + 2));
  EXPECT_GE(client.stats().reconnects, static_cast<uint64_t>(kRounds));

  // The current primary streams to both replicas with an empty backlog.
  ClusterNode* prim = node_by_id(nodes, directory.placement_of(kUrl).nodes[0]);
  ASSERT_NE(prim, nullptr);
  WalReplicator::Stats ws = prim->replicator->stats();
  ASSERT_EQ(ws.links.size(), 2u);
  for (const WalReplicator::LinkStats& l : ws.links) {
    EXPECT_FALSE(l.dead) << l.id;
    EXPECT_FALSE(l.paused) << l.id;
    EXPECT_EQ(l.replication_lag_records, 0u) << l.id;
  }
  EXPECT_EQ(ws.under_replicated_segments, 0u);
  uint64_t installs = 0;
  uint64_t syncs = 0;
  for (ClusterNode& n : nodes) {
    server::SegmentServer::Stats ss = n.server->stats();
    installs += ss.backfills_completed;
    syncs += ss.sync_requests;
  }
  EXPECT_GE(installs, static_cast<uint64_t>(kRounds)) << "rejoins never ran";
  EXPECT_GE(syncs, static_cast<uint64_t>(kRounds));

  // Byte-identical convergence: a full checkpoint of each store must
  // produce the same bytes on all three nodes.
  for (ClusterNode& n : nodes) n.server->checkpoint();
  std::vector<uint8_t> bytes0 = checkpoint_bytes(nodes[0].dir);
  EXPECT_EQ(bytes0, checkpoint_bytes(nodes[1].dir)) << "seed " << seed;
  EXPECT_EQ(bytes0, checkpoint_bytes(nodes[2].dir)) << "seed " << seed;

  for (ClusterNode& n : nodes) n.replicator->shutdown();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepeatedFailoverTest,
                         ::testing::Range<uint64_t>(1, 11));  // 10 seeds

// --- suite 5: repeated SIGKILL with repair between rounds ---

/// Kills and reaps every child still alive on exit, so failed assertions
/// cannot leak parked fleet processes.
struct FleetReaper {
  std::vector<pid_t> pids;
  ~FleetReaper() {
    for (pid_t pid : pids) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  }
};

class RepeatedSigkillRepairTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepeatedSigkillRepairTest, RepairSurvivesSequentialPrimarySigkills) {
  const uint64_t seed = GetParam();
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-resigkill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr int kNodes = 3;
  constexpr int kIncarnations = 3;  // a node is SIGKILLed at most twice
  struct Slot {
    pid_t pid = -1;
    int start_w = -1;  // parent -> child: 1 byte says "recover and serve"
    int port_r = -1;   // child -> parent: the incarnation's TCP port
  };
  Slot slots[kNodes][kIncarnations];
  FleetReaper reaper;

  // Fork the whole fleet FIRST, while this process is still
  // single-threaded. Each slot is one incarnation of one node, parked
  // until the parent starts it; a node "restarting" after SIGKILL is its
  // next incarnation recovering from the same checkpoint directory.
  for (int node = 0; node < kNodes; ++node) {
    for (int inc = 0; inc < kIncarnations; ++inc) {
      int start[2];
      int port[2];
      ASSERT_EQ(::pipe(start), 0);
      ASSERT_EQ(::pipe(port), 0);
      pid_t child = ::fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        ::close(start[1]);
        ::close(port[0]);
        try {
          uint8_t go = 0;
          ssize_t n;
          do {
            n = ::read(start[0], &go, 1);
          } while (n < 0 && errno == EINTR);
          if (n != 1) _exit(3);  // parent gone before this slot was needed

          SegmentDirectory::Dialer peer =
              [](const std::string& addr) -> std::shared_ptr<ClientChannel> {
            return std::make_shared<TcpClientChannel>(
                static_cast<uint16_t>(std::stoul(addr)), fast_tcp());
          };
          WalReplicator::Options wopts;
          wopts.replication_factor = 2;
          wopts.ack_timeout_ms = 2'000;
          wopts.reconnect_backoff_ms = 1;
          wopts.reconnect_backoff_max_ms = 8;
          wopts.disconnect_grace_ms = 150;
          auto replicator = std::make_shared<WalReplicator>(wopts);

          server::SegmentServer::Options opts;
          opts.checkpoint_dir =
              (dir / ("n" + std::to_string(node))).string();
          opts.wal_sync = WriteAheadLog::Sync::kCommit;
          opts.writer_lease_ms = 1'500;
          opts.replicator = replicator;
          opts.peer_dial = peer;
          server::SegmentServer srv(opts);
          srv.recover();
          TcpServer tcpsrv(srv, 0);
          srv.set_node_identity("n" + std::to_string(node),
                                std::to_string(tcpsrv.port()));
          uint16_t p = tcpsrv.port();
          if (::write(port[1], &p, sizeof p) !=
              static_cast<ssize_t>(sizeof p)) {
            _exit(4);
          }
          for (;;) ::pause();
        } catch (...) {
          _exit(5);
        }
      }
      ::close(start[0]);
      ::close(port[1]);
      slots[node][inc] = Slot{child, start[1], port[0]};
      reaper.pids.push_back(child);
    }
  }

  int next_inc[kNodes] = {0, 0, 0};
  pid_t live_pid[kNodes] = {-1, -1, -1};
  auto activate = [&](int node) -> std::string {
    Slot& s = slots[node][next_inc[node]++];
    uint8_t go = 1;
    EXPECT_EQ(::write(s.start_w, &go, 1), 1);
    uint16_t p = 0;
    EXPECT_TRUE(read_exact(s.port_r, &p))
        << "n" << node << " incarnation died during recovery";
    live_pid[node] = s.pid;
    return std::to_string(p);
  };

  SegmentDirectory::Dialer dial =
      [](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<TcpClientChannel>(
        static_cast<uint16_t>(std::stoul(addr)), fast_tcp());
  };
  SegmentDirectory::Options dopts;
  dopts.replicas = 2;
  SegmentDirectory directory(dopts, dial);
  for (int node = 0; node < kNodes; ++node) {
    directory.add_node("n" + std::to_string(node), activate(node));
  }
  ASSERT_FALSE(::testing::Test::HasFailure()) << "fleet failed to start";
  directory.set_placement(kUrl, {"n0", "n1", "n2"});
  server::ReplicationRepairer repairer(directory);

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 16;
  copts.reconnect.max_call_retries = 10;
  copts.reconnect.jitter_seed = seed + 1;
  auto connector = server::make_failover_connector(directory, kUrl, dial);
  Client client([connector](const std::string&) { return connector(); },
                copts);
  ClientSegment* seg = client.open_segment(kUrl);
  ASSERT_EQ(repairer.tick(), 0u) << "bootstrap recruits failed";

  const TypeDescriptor* arr = client.types().array_of(
      client.types().primitive(PrimitiveKind::kInt32), kUnits);
  SplitMix64 rng(seed);
  Model model;
  int next_block = 0;
  auto workload_step = [&](int step) -> bool {
    uint64_t action = rng.below(10);
    std::vector<int32_t> values = step_values(seed, step);
    std::string target;
    if (action < 4 || model.empty()) {
      target = "b" + std::to_string(next_block++);
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      target = it->first;
    }
    for (int attempt = 0;; ++attempt) {
      try {
        client.write_lock(seg);
        client::BlockHeader* blk = seg->heap().find_by_name(target);
        if (blk == nullptr) {
          client.malloc_block(seg, arr, target);
          blk = seg->heap().find_by_name(target);
        }
        fill_block(blk, values);
        client.write_unlock(seg);
        break;
      } catch (const Error& e) {
        if (attempt >= 10) {
          ADD_FAILURE() << "seed " << seed << " step " << step << ": "
                        << e.what();
          return false;
        }
      }
    }
    model[target] = values;
    return true;
  };

  auto sigkill = [&](int node) {
    pid_t pid = live_pid[node];
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
    for (pid_t& r : reaper.pids) {
      if (r == pid) r = -1;
    }
    live_pid[node] = -1;
  };

  constexpr int kRounds = 3;
  constexpr int kStepsPerRound = 6;
  for (int round = 0; round < kRounds; ++round) {
    for (int s = 0; s < kStepsPerRound; ++s) {
      ASSERT_TRUE(workload_step(round * 100 + s));
    }

    const std::string victim = directory.placement_of(kUrl).nodes.front();
    const int v = victim[1] - '0';
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kNodes);
    sigkill(v);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    // Promote away from the corpse; the third copy stays missing until
    // the victim's next incarnation rejoins.
    EXPECT_EQ(repairer.tick(), 1u) << "round " << round;
    directory.set_node_address(victim, activate(v));
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "respawn failed, round " << round;
    uint64_t under = 1;
    for (int i = 0; i < 400 && under != 0; ++i) {
      under = repairer.tick();
      if (under != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ASSERT_EQ(under, 0u) << "repair never restored rf=2, round " << round;
  }

  for (int s = 0; s < kStepsPerRound; ++s) {
    ASSERT_TRUE(workload_step(1000 + s));
  }

  // Zero acked-commit loss across three SIGKILLed primaries.
  for (int attempt = 0;; ++attempt) {
    try {
      Model seen = snapshot_of(client, seg);
      EXPECT_EQ(seen, model) << "seed " << seed;
      break;
    } catch (const Error& e) {
      ASSERT_LT(attempt, 10) << e.what();
    }
  }

  EXPECT_EQ(directory.stats().promotions, static_cast<uint64_t>(kRounds));
  server::ReplicationRepairer::Stats rps = repairer.stats();
  EXPECT_EQ(rps.failovers, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(rps.under_replicated_segments, 0u);
  EXPECT_EQ(rps.substitutions, 0u);
  EXPECT_GE(client.stats().reconnects, static_cast<uint64_t>(kRounds));

  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepeatedSigkillRepairTest,
                         ::testing::Range<uint64_t>(1, 11));  // 10 seeds

// --- suite 6: sync handshake edges (backfill, lineage, recruit fences) ---

/// Writes `values` into the named block of `seg` (creating it on first
/// use) through one whole critical section on `c`.
void put_block(Client& c, ClientSegment* seg, const std::string& name,
               const std::vector<int32_t>& values) {
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), kUnits);
  c.write_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name(name);
  if (blk == nullptr) {
    c.malloc_block(seg, arr, name);
    blk = seg->heap().find_by_name(name);
  }
  fill_block(blk, values);
  c.write_unlock(seg);
}

// A replica that fell off the stream (link declared dead, commits acked
// without it) pulls a WAL-tail backfill and flips back to live tailing with
// no gap: its lineage matches, so the primary serves the journal suffix
// instead of a snapshot, and the revived link resumes gating acks.
TEST(SyncHandshakeTest, TailBackfillRevivesDeadLinkGapFree) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-sync-tail-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::unique_ptr<server::SegmentServer> a;
  std::unique_ptr<server::SegmentServer> b;
  KillableCore bproxy;
  SegmentDirectory::Dialer peer =
      [&a, &bproxy](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    if (addr == "a") return std::make_shared<InProcChannel>(*a);
    return std::make_shared<InProcChannel>(bproxy);
  };

  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 2'000;
  wopts.reconnect_backoff_ms = 1;
  wopts.reconnect_backoff_max_ms = 4;
  wopts.disconnect_grace_ms = 50;
  auto replicator = std::make_shared<WalReplicator>(wopts);
  replicator->add_replica(
      "b", [peer]() -> std::shared_ptr<ClientChannel> { return peer("b"); });

  server::SegmentServer::Options aopts;
  aopts.checkpoint_dir = (dir / "a").string();
  aopts.wal_sync = WriteAheadLog::Sync::kCommit;
  aopts.replicator = replicator;
  aopts.peer_dial = peer;
  a = std::make_unique<server::SegmentServer>(aopts);
  a->set_node_identity("a", "a");

  server::SegmentServer::Options bopts;
  bopts.checkpoint_dir = (dir / "b").string();
  bopts.wal_sync = WriteAheadLog::Sync::kCommit;
  bopts.peer_dial = peer;
  b = std::make_unique<server::SegmentServer>(bopts);
  b->set_node_identity("b", "b");
  bproxy.set_server(b.get());

  Client client(
      [&a](const std::string&) { return std::make_shared<InProcChannel>(*a); });
  ClientSegment* seg = client.open_segment(kUrl);
  Model model;

  model["k0"] = step_values(11, 0);
  model["k1"] = step_values(11, 1);
  put_block(client, seg, "k0", model["k0"]);
  put_block(client, seg, "k1", model["k1"]);
  EXPECT_EQ(b->segment_version(kUrl), a->segment_version(kUrl));

  // The replica dies mid-stream. The first commit afterwards waits out the
  // disconnect grace, the link is declared dead, and commits keep flowing
  // unreplicated — availability over redundancy, counted on the gauge.
  bproxy.set_server(nullptr);
  model["k0"] = step_values(11, 2);
  model["k2"] = step_values(11, 3);
  put_block(client, seg, "k0", model["k0"]);
  put_block(client, seg, "k2", model["k2"]);
  WalReplicator::Stats ws = replicator->stats();
  EXPECT_EQ(ws.dead_links, 1u);
  EXPECT_EQ(ws.under_replicated_segments, 1u);

  // The replica comes back and pulls a backfill. Same lineage, behind in
  // versions: the primary serves the WAL tail, never a snapshot.
  bproxy.set_server(b.get());
  uint32_t v = b->backfill_segment(kUrl, "a", 0);
  EXPECT_EQ(v, a->segment_version(kUrl));
  server::SegmentServer::Stats as = a->stats();
  EXPECT_EQ(as.sync_requests, 1u);
  EXPECT_EQ(as.sync_tails_served, 1u);
  EXPECT_EQ(as.sync_snapshots_served, 0u);
  EXPECT_EQ(b->stats().backfills_completed, 1u);
  ws = replicator->stats();
  EXPECT_EQ(ws.backfills_started, 1u);
  EXPECT_EQ(ws.backfills_completed, 1u);
  EXPECT_EQ(ws.dead_links, 0u);
  ASSERT_EQ(ws.links.size(), 1u);
  EXPECT_FALSE(ws.links[0].dead);
  EXPECT_FALSE(ws.links[0].paused);

  // The revived link gates the next ack again, gap-free.
  model["k3"] = step_values(11, 4);
  put_block(client, seg, "k3", model["k3"]);
  EXPECT_EQ(b->segment_version(kUrl), a->segment_version(kUrl));
  EXPECT_EQ(replicator->stats().links[0].replication_lag_records, 0u);

  Client reader([&bproxy](const std::string&) {
    return std::make_shared<InProcChannel>(bproxy);
  });
  EXPECT_EQ(snapshot_of(reader, reader.open_segment(kUrl)), model);

  replicator->shutdown();
  fs::remove_all(dir);
}

// A recruit whose applied history comes from a different lineage cannot
// fold a WAL tail — its local versions mean different bytes. The primary
// detects the lineage mismatch and serves a full snapshot; the install
// discards the recruit's divergent history and adopts the primary's
// lineage, and all of it survives a restart.
TEST(SyncHandshakeTest, LineageMismatchForcesSnapshotInstall) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-sync-lineage-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::unique_ptr<server::SegmentServer> a;
  SegmentDirectory::Dialer peer =
      [&a](const std::string&) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<InProcChannel>(*a);
  };
  server::SegmentServer::Options aopts;
  aopts.checkpoint_dir = (dir / "a").string();
  aopts.wal_sync = WriteAheadLog::Sync::kCommit;
  a = std::make_unique<server::SegmentServer>(aopts);
  a->set_node_identity("a", "a");

  Model model;
  {
    Client ca([&a](const std::string&) {
      return std::make_shared<InProcChannel>(*a);
    });
    ClientSegment* seg = ca.open_segment(kUrl);
    model["x"] = step_values(13, 0);
    model["y"] = step_values(13, 1);
    put_block(ca, seg, "x", model["x"]);
    put_block(ca, seg, "y", model["y"]);
  }
  {
    auto ch = std::make_shared<InProcChannel>(*a);
    Buffer promote;
    promote.append_lp_string(kUrl);
    promote.append_u32(3);
    ch->call(MsgType::kPromote, std::move(promote));
  }
  ASSERT_EQ(a->segment_lineage_epoch(kUrl), 3u);

  // The recruit has its own divergent history: a block committed under
  // lineage 1 that the primary never saw.
  server::SegmentServer::Options bopts;
  bopts.checkpoint_dir = (dir / "b").string();
  bopts.wal_sync = WriteAheadLog::Sync::kCommit;
  bopts.peer_dial = peer;
  auto b = std::make_unique<server::SegmentServer>(bopts);
  b->set_node_identity("b", "b");
  {
    Client cb([&b](const std::string&) {
      return std::make_shared<InProcChannel>(*b);
    });
    ClientSegment* seg = cb.open_segment(kUrl);
    put_block(cb, seg, "divergent", step_values(13, 9));
  }

  uint32_t v = b->backfill_segment(kUrl, "a", 0);
  EXPECT_EQ(v, a->segment_version(kUrl));
  server::SegmentServer::Stats as = a->stats();
  EXPECT_EQ(as.sync_snapshots_served, 1u);
  EXPECT_EQ(as.sync_tails_served, 0u);
  EXPECT_EQ(b->segment_lineage_epoch(kUrl), 3u);
  EXPECT_EQ(b->segment_placement_epoch(kUrl), 3u);
  {
    Client cb([&b](const std::string&) {
      return std::make_shared<InProcChannel>(*b);
    });
    Model seen = snapshot_of(cb, cb.open_segment(kUrl));
    EXPECT_EQ(seen, model) << "divergent block must be gone";
  }

  // The sealed install is durable: a restart recovers the adopted lineage
  // and the re-based store.
  b.reset();
  b = std::make_unique<server::SegmentServer>(bopts);
  b->recover();
  EXPECT_EQ(b->segment_lineage_epoch(kUrl), 3u);
  EXPECT_EQ(b->segment_placement_epoch(kUrl), 3u);
  EXPECT_EQ(b->segment_version(kUrl), a->segment_version(kUrl));
  {
    Client cb([&b](const std::string&) {
      return std::make_shared<InProcChannel>(*b);
    });
    EXPECT_EQ(snapshot_of(cb, cb.open_segment(kUrl)), model);
  }
  fs::remove_all(dir);
}

// A snapshot larger than sync_chunk_bytes streams in multiple cursor-driven
// round trips, and the chunk cache serializes the store exactly once.
TEST(SyncHandshakeTest, SnapshotStreamsInBoundedChunks) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-sync-chunks-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::unique_ptr<server::SegmentServer> a;
  SegmentDirectory::Dialer peer =
      [&a](const std::string&) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<InProcChannel>(*a);
  };
  server::SegmentServer::Options aopts;
  aopts.checkpoint_dir = (dir / "a").string();
  aopts.wal_sync = WriteAheadLog::Sync::kCommit;
  aopts.sync_chunk_bytes = 64;  // force many chunks
  a = std::make_unique<server::SegmentServer>(aopts);
  a->set_node_identity("a", "a");

  Model model;
  {
    Client ca([&a](const std::string&) {
      return std::make_shared<InProcChannel>(*a);
    });
    ClientSegment* seg = ca.open_segment(kUrl);
    for (int i = 0; i < 6; ++i) {
      std::string name = "blk" + std::to_string(i);
      model[name] = step_values(17, i);
      put_block(ca, seg, name, model[name]);
    }
  }
  {
    auto ch = std::make_shared<InProcChannel>(*a);
    Buffer promote;
    promote.append_lp_string(kUrl);
    promote.append_u32(2);
    ch->call(MsgType::kPromote, std::move(promote));
  }

  server::SegmentServer::Options bopts;
  bopts.checkpoint_dir = (dir / "b").string();
  bopts.wal_sync = WriteAheadLog::Sync::kCommit;
  bopts.peer_dial = peer;
  server::SegmentServer b(bopts);
  b.set_node_identity("b", "b");
  uint32_t v = b.backfill_segment(kUrl, "a", 0);
  EXPECT_EQ(v, a->segment_version(kUrl));
  server::SegmentServer::Stats as = a->stats();
  EXPECT_GE(as.sync_requests, 3u) << "snapshot fit in one chunk";
  EXPECT_EQ(as.sync_snapshots_served, 1u) << "store serialized per chunk";
  {
    Client cb([&b](const std::string&) {
      return std::make_shared<InProcChannel>(b);
    });
    EXPECT_EQ(snapshot_of(cb, cb.open_segment(kUrl)), model);
  }
  fs::remove_all(dir);
}

// Anti-entropy recruits every placed replica each pass, so a caught-up
// replica's recruit must be a no-op: an empty WAL-tail sync that never
// pauses the live link and never rewrites a checkpoint.
TEST(SyncHandshakeTest, CaughtUpReplicaRecruitIsIdempotentEmptyTail) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-sync-idempotent-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::unique_ptr<server::SegmentServer> a;
  std::unique_ptr<server::SegmentServer> b;
  SegmentDirectory::Dialer peer =
      [&a, &b](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<InProcChannel>(addr == "a" ? *a : *b);
  };

  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 2'000;
  auto replicator = std::make_shared<WalReplicator>(wopts);
  replicator->add_replica(
      "b", [peer]() -> std::shared_ptr<ClientChannel> { return peer("b"); });

  server::SegmentServer::Options aopts;
  aopts.checkpoint_dir = (dir / "a").string();
  aopts.wal_sync = WriteAheadLog::Sync::kCommit;
  aopts.replicator = replicator;
  aopts.peer_dial = peer;
  a = std::make_unique<server::SegmentServer>(aopts);
  a->set_node_identity("a", "a");

  server::SegmentServer::Options bopts;
  bopts.checkpoint_dir = (dir / "b").string();
  bopts.wal_sync = WriteAheadLog::Sync::kCommit;
  bopts.peer_dial = peer;
  b = std::make_unique<server::SegmentServer>(bopts);
  b->set_node_identity("b", "b");

  Client client(
      [&a](const std::string&) { return std::make_shared<InProcChannel>(*a); });
  ClientSegment* seg = client.open_segment(kUrl);
  Model model;
  model["k"] = step_values(19, 0);
  put_block(client, seg, "k", model["k"]);
  ASSERT_EQ(b->segment_version(kUrl), a->segment_version(kUrl));
  const uint64_t checkpoints_before = b->stats().checkpoints_written;

  // The recruit RPC a repairer would send: the replica pulls from the
  // primary, finds itself at the same position, and nothing moves.
  auto ch = std::make_shared<InProcChannel>(*b);
  Buffer recruit;
  recruit.append_lp_string(kUrl);
  recruit.append_u32(1);
  recruit.append_lp_string("a");
  Frame resp = ch->call(MsgType::kRecruit, std::move(recruit));
  BufReader in = resp.reader();
  EXPECT_EQ(in.read_u32(), 1u);  // placement epoch
  EXPECT_EQ(in.read_u32(), a->segment_version(kUrl));

  server::SegmentServer::Stats as = a->stats();
  EXPECT_EQ(as.sync_tails_served, 1u);
  EXPECT_EQ(as.sync_snapshots_served, 0u);
  EXPECT_EQ(b->stats().checkpoints_written, checkpoints_before)
      << "empty tail must not reseal the store";
  WalReplicator::Stats ws = replicator->stats();
  EXPECT_EQ(ws.backfills_started, 0u) << "live link must not be paused";
  ASSERT_EQ(ws.links.size(), 1u);
  EXPECT_FALSE(ws.links[0].paused);

  // The stream never blinked: the next commit is acked by the link.
  model["k"] = step_values(19, 1);
  put_block(client, seg, "k", model["k"]);
  EXPECT_EQ(b->segment_version(kUrl), a->segment_version(kUrl));

  replicator->shutdown();
  fs::remove_all(dir);
}

// Backfill must never install history older than what the puller already
// fenced: a recruit at a newer epoch refuses a stale server's chunks, and
// a want_epoch ahead of the serving server is refused server-side.
TEST(SyncHandshakeTest, BackfillFromStaleLineageAborts) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-sync-stale-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::unique_ptr<server::SegmentServer> a;
  SegmentDirectory::Dialer peer =
      [&a](const std::string&) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<InProcChannel>(*a);
  };
  server::SegmentServer::Options aopts;
  aopts.checkpoint_dir = (dir / "a").string();
  aopts.wal_sync = WriteAheadLog::Sync::kCommit;
  a = std::make_unique<server::SegmentServer>(aopts);
  a->set_node_identity("a", "a");
  {
    Client ca([&a](const std::string&) {
      return std::make_shared<InProcChannel>(*a);
    });
    put_block(ca, ca.open_segment(kUrl), "k", step_values(23, 0));
  }

  server::SegmentServer::Options bopts;
  bopts.checkpoint_dir = (dir / "b").string();
  bopts.wal_sync = WriteAheadLog::Sync::kCommit;
  bopts.peer_dial = peer;
  server::SegmentServer b(bopts);
  b.set_node_identity("b", "b");
  {
    // Create the segment (no commits), then fence it at epoch 5: b now
    // knows lineage 1 content is superseded.
    Client cb([&b](const std::string&) {
      return std::make_shared<InProcChannel>(b);
    });
    cb.open_segment(kUrl);
    auto ch = std::make_shared<InProcChannel>(b);
    Buffer promote;
    promote.append_lp_string(kUrl);
    promote.append_u32(5);
    ch->call(MsgType::kPromote, std::move(promote));
  }

  // a serves lineage-1 chunks; b's install fence refuses them before
  // anything touches the store.
  ASSERT_EQ(b.segment_lineage_epoch(kUrl), 5u);
  const uint32_t vb = b.segment_version(kUrl);
  ASSERT_NE(vb, a->segment_version(kUrl)) << "abort would be undetectable";
  try {
    b.backfill_segment(kUrl, "a", 0);
    FAIL() << "stale chunks were installed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStaleEpoch) << e.what();
  }
  EXPECT_EQ(b.segment_version(kUrl), vb);
  EXPECT_EQ(b.segment_lineage_epoch(kUrl), 5u);
  EXPECT_EQ(b.segment_placement_epoch(kUrl), 5u);
  const uint64_t served_after_abort =
      a->stats().sync_tails_served + a->stats().sync_snapshots_served;

  // Asking a for an epoch it has never reached is refused server-side
  // before anything streams.
  try {
    b.backfill_segment(kUrl, "a", 7);
    FAIL() << "server served a sync it cannot satisfy";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStaleEpoch);
  }
  EXPECT_EQ(a->stats().sync_tails_served + a->stats().sync_snapshots_served,
            served_after_abort);
  fs::remove_all(dir);
}

// A kRecruit carrying an epoch behind the replica's own fence means the
// repairer's placement view is stale — refuse it, don't regress.
TEST(SyncHandshakeTest, StaleRecruitIsRefusedByNewerEpoch) {
  server::SegmentServer b;
  auto ch = std::make_shared<InProcChannel>(b);
  Buffer promote;
  promote.append_lp_string(kUrl);
  promote.append_u32(4);
  ch->call(MsgType::kPromote, std::move(promote));

  Buffer recruit;
  recruit.append_lp_string(kUrl);
  recruit.append_u32(2);
  recruit.append_lp_string("a");
  try {
    ch->call(MsgType::kRecruit, std::move(recruit));
    FAIL() << "stale recruit accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStaleEpoch);
  }
  EXPECT_EQ(b.stats().recruits_rejected_stale, 1u);
}

// The repairer's tick raced a newer failover it has not observed: its
// recruits are refused kStaleEpoch, counted, and NOT treated as transport
// death (no substitution) — the next tick re-reads the placement.
TEST(SyncHandshakeTest, RepairRacedByNewerFailoverRetriesNextTick) {
  server::SegmentServer a;
  server::SegmentServer b;
  SegmentDirectory::Dialer dial =
      [&a, &b](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    return std::make_shared<InProcChannel>(addr == "a" ? a : b);
  };
  SegmentDirectory::Options dopts;
  dopts.replicas = 1;
  SegmentDirectory directory(dopts, dial);
  directory.add_node("a", "a");
  directory.add_node("b", "b");
  directory.set_placement(kUrl, {"a", "b"});

  // Another failover domain promoted b to epoch 9 behind this directory's
  // back; the repairer still believes epoch 1.
  auto ch = std::make_shared<InProcChannel>(b);
  Buffer promote;
  promote.append_lp_string(kUrl);
  promote.append_u32(9);
  ch->call(MsgType::kPromote, std::move(promote));

  server::ReplicationRepairer repairer(directory);
  EXPECT_EQ(repairer.tick(), 1u);
  server::ReplicationRepairer::Stats rps = repairer.stats();
  EXPECT_EQ(rps.recruits_rejected_stale, 1u);
  EXPECT_EQ(rps.substitutions, 0u) << "app refusal is not transport death";
  EXPECT_EQ(rps.failovers, 0u) << "the primary answered its ping";
  EXPECT_EQ(rps.under_replicated_segments, 1u);
  EXPECT_EQ(b.stats().recruits_rejected_stale, 1u);
}

// An adopted lineage outlives the WAL records that carried it: checkpoint
// truncation re-journals the epoch, so recovery after a checkpoint still
// fences stale history.
TEST(SyncHandshakeTest, LineageSurvivesCheckpointTruncationAndRestart) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-sync-lineagewal-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  server::SegmentServer::Options opts;
  opts.checkpoint_dir = dir.string();
  opts.wal_sync = WriteAheadLog::Sync::kCommit;
  auto s = std::make_unique<server::SegmentServer>(opts);
  Model model;
  {
    Client c([&s](const std::string&) {
      return std::make_shared<InProcChannel>(*s);
    });
    ClientSegment* seg = c.open_segment(kUrl);
    model["k"] = step_values(29, 0);
    put_block(c, seg, "k", model["k"]);
    auto ch = std::make_shared<InProcChannel>(*s);
    Buffer promote;
    promote.append_lp_string(kUrl);
    promote.append_u32(7);
    ch->call(MsgType::kPromote, std::move(promote));

    // Checkpoint truncates the journal — including the kEpochAdopt record —
    // then commit once more so recovery has a tail to replay.
    s->checkpoint();
    model["k2"] = step_values(29, 1);
    put_block(c, seg, "k2", model["k2"]);
  }
  const uint32_t version = s->segment_version(kUrl);
  s.reset();

  s = std::make_unique<server::SegmentServer>(opts);
  s->recover();
  EXPECT_EQ(s->segment_lineage_epoch(kUrl), 7u);
  EXPECT_EQ(s->segment_placement_epoch(kUrl), 7u);
  EXPECT_EQ(s->segment_version(kUrl), version);
  {
    Client c([&s](const std::string&) {
      return std::make_shared<InProcChannel>(*s);
    });
    EXPECT_EQ(snapshot_of(c, c.open_segment(kUrl)), model);
  }
  fs::remove_all(dir);
}

// The full deposed-primary story, end to end: a primary partitioned away
// from its clients (but not from its replica) is promoted around; when it
// tries to commit again its own replica fences it with kStaleEpoch, the
// writing client replays onto the new primary, and the repair loop recruits
// the deposed server back as a replica — divergent journal suffix and all.
TEST(ReplicationEdgeTest, DeposedLivePrimaryIsFencedAndRejoinsViaRepair) {
  fs::path dir = fs::temp_directory_path() /
                 ("iw-repl-deposed-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::unique_ptr<server::SegmentServer> a;
  std::unique_ptr<server::SegmentServer> b;
  KillableCore aproxy;
  SegmentDirectory::Dialer dial =
      [&aproxy, &b](const std::string& addr) -> std::shared_ptr<ClientChannel> {
    if (addr == "a") return std::make_shared<InProcChannel>(aproxy);
    return std::make_shared<InProcChannel>(*b);
  };

  WalReplicator::Options wopts;
  wopts.replication_factor = 1;
  wopts.ack_timeout_ms = 2'000;
  auto arepl = std::make_shared<WalReplicator>(wopts);
  // The a->b link dials b directly: the partition below severs a from its
  // clients and the directory, not from its replica.
  arepl->add_replica("b", [&b]() -> std::shared_ptr<ClientChannel> {
    return std::make_shared<InProcChannel>(*b);
  });
  auto brepl = std::make_shared<WalReplicator>(wopts);

  server::SegmentServer::Options aopts;
  aopts.checkpoint_dir = (dir / "a").string();
  aopts.wal_sync = WriteAheadLog::Sync::kCommit;
  aopts.replicator = arepl;
  aopts.peer_dial = dial;
  a = std::make_unique<server::SegmentServer>(aopts);
  a->set_node_identity("a", "a");
  aproxy.set_server(a.get());

  server::SegmentServer::Options bopts;
  bopts.checkpoint_dir = (dir / "b").string();
  bopts.wal_sync = WriteAheadLog::Sync::kCommit;
  bopts.replicator = brepl;
  bopts.peer_dial = dial;
  b = std::make_unique<server::SegmentServer>(bopts);
  b->set_node_identity("b", "b");

  SegmentDirectory::Options dopts;
  dopts.replicas = 1;
  SegmentDirectory directory(dopts, dial);
  directory.add_node("a", "a");
  directory.add_node("b", "b");
  directory.set_placement(kUrl, {"a", "b"});

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 8;
  copts.reconnect.max_call_retries = 10;
  auto connector = server::make_failover_connector(directory, kUrl, dial);
  Client client([connector](const std::string&) { return connector(); },
                copts);
  ClientSegment* seg = client.open_segment(kUrl);
  Model model;
  for (int i = 0; i < 3; ++i) {
    std::string name = "k" + std::to_string(i);
    model[name] = step_values(31, i);
    put_block(client, seg, name, model[name]);
  }

  // Partition: clients and the directory lose a; the directory promotes b.
  aproxy.set_server(nullptr);
  SegmentDirectory::Placement p = directory.resolve_for_failover(kUrl, 1);
  EXPECT_EQ(p.epoch, 2u);
  ASSERT_FALSE(p.nodes.empty());
  EXPECT_EQ(p.nodes.front(), "b");

  // The partition heals: a is back, alive and still believing it is the
  // primary — until its own commit is refused by its replica.
  aproxy.set_server(a.get());
  {
    // A single-attempt client: its connector only ever reaches the deposed
    // server, so a stale-epoch replay would just re-fail — surface the
    // fence instead. The doomed commit still lands in a's journal before
    // the replicate is refused: that is the divergent suffix below.
    Client::Options dopts2;
    dopts2.reconnect.max_call_retries = 1;
    Client direct(
        [&aproxy](const std::string&) {
          return std::make_shared<InProcChannel>(aproxy);
        },
        dopts2);
    ClientSegment* dseg = direct.open_segment(kUrl);
    try {
      put_block(direct, dseg, "doomed", step_values(31, 99));
      FAIL() << "deposed primary acked a commit";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kStaleEpoch) << e.what();
    }
  }
  EXPECT_TRUE(arepl->fenced(kUrl));
  EXPECT_GE(arepl->stats().stale_epoch_fences, 1u);
  EXPECT_GE(b->stats().repl_stale_rejected, 1u);

  // The failover client reconnects, re-resolves, and lands on b.
  for (int i = 0; i < 2; ++i) {
    std::string name = "n" + std::to_string(i);
    std::vector<int32_t> values = step_values(31, 10 + i);
    for (int attempt = 0;; ++attempt) {
      try {
        put_block(client, seg, name, values);
        break;
      } catch (const Error& e) {
        ASSERT_LT(attempt, 10) << e.what();
      }
    }
    model[name] = values;
  }
  EXPECT_GE(client.stats().reconnects, 1u);

  // Repair recruits the deposed server back as b's replica: its divergent
  // journal suffix (the fenced "doomed" commit) is discarded by the
  // re-base, and it adopts the promoted lineage.
  server::ReplicationRepairer repairer(directory);
  EXPECT_EQ(repairer.tick(), 0u);
  EXPECT_EQ(a->segment_lineage_epoch(kUrl), 2u);
  EXPECT_EQ(a->stats().backfills_completed, 1u);
  ASSERT_EQ(brepl->stats().links.size(), 1u);
  EXPECT_FALSE(brepl->stats().links[0].paused);

  // New commits on b are now gated on the rejoined replica's ack.
  model["after"] = step_values(31, 20);
  put_block(client, seg, "after", model["after"]);
  EXPECT_EQ(a->segment_version(kUrl), b->segment_version(kUrl));

  EXPECT_EQ(snapshot_of(client, seg), model);
  {
    Client reader([&aproxy](const std::string&) {
      return std::make_shared<InProcChannel>(aproxy);
    });
    EXPECT_EQ(snapshot_of(reader, reader.open_segment(kUrl)), model)
        << "the rejoined replica must not retain its divergence";
  }

  arepl->shutdown();
  brepl->shutdown();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iw
