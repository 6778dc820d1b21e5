// Server-side writer leases: a stalled (or dead) writer cannot wedge a
// segment. Waiters reclaim an expired lease, the segment's reclaim epoch
// advances, and the stalled holder's late release is rejected with the
// typed kLeaseExpired error; a live holder renews its lease through
// mid-critical-section traffic and is never preempted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "interweave/interweave.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Frame raw_call(ClientChannel& ch, MsgType type, Buffer payload) {
  return ch.call(type, std::move(payload));
}

/// Transport under test: in-proc by default; IW_LEASE_TRANSPORT=tcp runs
/// the identical suite over real sockets and the epoll reactor server, so
/// lease reclaim / stale-release semantics are exercised end to end on the
/// wire (disconnect = genuine EOF, blocking acquires occupy real workers).
struct Harness {
  explicit Harness(ServerCore& core) : core_(&core) {
    if (const char* t = std::getenv("IW_LEASE_TRANSPORT");
        t != nullptr && std::string(t) == "tcp") {
      tcp_ = std::make_unique<TcpServer>(core, 0);
    }
  }
  /// A raw session that has said hello, so it may bind segment handles.
  std::shared_ptr<ClientChannel> channel() {
    std::shared_ptr<ClientChannel> ch;
    if (tcp_ != nullptr) {
      ch = std::make_shared<TcpClientChannel>(tcp_->port());
    } else {
      ch = std::make_shared<InProcChannel>(*core_);
    }
    ch->call(MsgType::kHello, hello_payload());
    return ch;
  }

  ServerCore* core_;
  std::unique_ptr<TcpServer> tcp_;
};

/// Each raw session below binds its one segment to this handle.
constexpr uint32_t kHandle = 1;

Buffer open_payload(const std::string& url) {
  Buffer p;
  p.append_varint(kHandle);
  p.append_vstring(url);
  p.append_u8(1);
  return p;
}

Buffer acquire_write_payload(uint32_t version = 0) {
  Buffer p;
  p.append_varint(kHandle);
  p.append_varint(version);
  return p;
}

Buffer empty_release_payload(uint32_t version) {
  Buffer p;
  p.append_varint(kHandle);
  p.append_u8(payload_method::kRaw);
  DiffWriter(p, version, version).finish();
  return p;
}

TEST(LeaseTest, WaiterReclaimsExpiredLease) {
  server::SegmentServer::Options opts;
  opts.writer_lease_ms = 100;
  server::SegmentServer server(opts);
  const std::string url = "host/lease";

  Harness h(server);
  auto a = h.channel();
  auto b = h.channel();
  raw_call(*a, MsgType::kOpenSegment, open_payload(url));
  raw_call(*b, MsgType::kOpenSegment, open_payload(url));

  raw_call(*a, MsgType::kAcquireWrite, acquire_write_payload());
  // A now stalls (no release, no renewal traffic). B must get the lock
  // once the lease runs out — roughly one lease period, not forever.
  auto start = steady_clock::now();
  raw_call(*b, MsgType::kAcquireWrite, acquire_write_payload());
  auto waited = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - start);
  EXPECT_GE(waited.count(), 50);  // B really blocked on the lease
  EXPECT_LT(waited.count(), 2'000);

  EXPECT_EQ(server.stats().lease_expirations, 1u);
  EXPECT_EQ(server.segment_epoch(url), 1u);

  // The stalled holder wakes up and tries to commit: typed rejection, not
  // a generic state error, and definitely not an applied diff.
  uint32_t version_before = server.segment_version(url);
  try {
    raw_call(*a, MsgType::kReleaseWrite, empty_release_payload(0));
    FAIL() << "stale release should be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(ErrorCode::kLeaseExpired));
    EXPECT_FALSE(e.is_transport());  // server verdict: never blindly retried
  }
  EXPECT_EQ(server.stats().stale_releases_rejected, 1u);
  EXPECT_EQ(server.segment_version(url), version_before);

  // Rejection is one-shot: a second late release is a plain state error.
  EXPECT_THROW(
      {
        try {
          raw_call(*a, MsgType::kReleaseWrite, empty_release_payload(0));
        } catch (const Error& e) {
          EXPECT_EQ(static_cast<int>(e.code()),
                    static_cast<int>(ErrorCode::kState));
          throw;
        }
      },
      Error);

  // B still holds a valid lock and can release normally.
  raw_call(*b, MsgType::kReleaseWrite, empty_release_payload(0));
}

TEST(LeaseTest, DisconnectBeatsLeaseExpiry) {
  server::SegmentServer::Options opts;
  opts.writer_lease_ms = 60'000;  // long lease: expiry cannot be the rescuer
  server::SegmentServer server(opts);
  const std::string url = "host/dead-holder";

  Harness h(server);
  auto a = h.channel();
  raw_call(*a, MsgType::kOpenSegment, open_payload(url));
  raw_call(*a, MsgType::kAcquireWrite, acquire_write_payload());

  auto b = h.channel();
  raw_call(*b, MsgType::kOpenSegment, open_payload(url));
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    raw_call(*b, MsgType::kAcquireWrite, acquire_write_payload());
    acquired.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(acquired.load());

  a.reset();  // disconnect releases the lock immediately — no lease wait
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(server.stats().lease_expirations, 0u);
  raw_call(*b, MsgType::kReleaseWrite, empty_release_payload(0));
}

TEST(LeaseTest, RenewalKeepsSlowWriterAlive) {
  server::SegmentServer::Options opts;
  opts.writer_lease_ms = 300;
  server::SegmentServer server(opts);
  const std::string url = "host/renewal";

  Harness h(server);
  auto a = h.channel();
  auto b = h.channel();
  raw_call(*a, MsgType::kOpenSegment, open_payload(url));
  raw_call(*b, MsgType::kOpenSegment, open_payload(url));
  raw_call(*a, MsgType::kAcquireWrite, acquire_write_payload());

  std::atomic<bool> a_released{false};
  std::atomic<bool> b_acquired_after_release{false};
  std::thread waiter([&] {
    raw_call(*b, MsgType::kAcquireWrite, acquire_write_payload());
    b_acquired_after_release.store(a_released.load());
  });

  // A's critical section lasts 3+ lease periods but keeps registering
  // types; each registration renews the lease, so B must keep waiting.
  TypeRegistry reg(Platform::native().rules);
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(milliseconds(100));
    Buffer p;
    p.append_varint(kHandle);
    TypeCodec::encode_graph(
        reg.array_of(reg.primitive(PrimitiveKind::kInt32), 2 + i), p);
    raw_call(*a, MsgType::kRegisterType, std::move(p));
  }
  a_released.store(true);
  raw_call(*a, MsgType::kReleaseWrite, empty_release_payload(0));

  waiter.join();
  EXPECT_TRUE(b_acquired_after_release.load());
  EXPECT_EQ(server.stats().lease_expirations, 0u);
  EXPECT_EQ(server.segment_epoch(url), 0u);
  raw_call(*b, MsgType::kReleaseWrite, empty_release_payload(0));
}

// Full client-level recovery from lease expiry: the stalled client's
// write_unlock throws kLeaseExpired, its cached copy is invalidated, and
// the next lock round-trip resynchronises onto the reclaimer's state.
TEST(LeaseTest, ClientRecoversFromExpiredLease) {
  server::SegmentServer::Options sopts;
  sopts.writer_lease_ms = 80;
  server::SegmentServer server(sopts);
  Harness h(server);
  auto factory = [&](const std::string&) { return h.channel(); };

  Client a(factory);
  Client b(factory);
  ClientSegment* sa = a.open_segment("host/recover");
  ClientSegment* sb = b.open_segment("host/recover");
  const TypeDescriptor* arr =
      a.types().array_of(a.types().primitive(PrimitiveKind::kInt32), 4);

  a.write_lock(sa);
  auto* mine = static_cast<int32_t*>(a.malloc_block(sa, arr, "mine"));
  mine[0] = 11;

  // A stalls past its lease; B reclaims the lock and commits.
  std::thread other([&] {
    b.write_lock(sb);
    auto* theirs = static_cast<int32_t*>(b.malloc_block(sb, arr, "theirs"));
    theirs[0] = 22;
    b.write_unlock(sb);
  });
  other.join();
  EXPECT_EQ(server.stats().lease_expirations, 1u);

  try {
    a.write_unlock(sa);
    FAIL() << "commit after lease expiry must fail";
  } catch (const Error& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(ErrorCode::kLeaseExpired));
  }
  EXPECT_EQ(server.stats().stale_releases_rejected, 1u);

  // Recovery: A's next critical section sees exactly the committed state —
  // B's block is present, A's never-committed block is gone.
  a.write_lock(sa);
  EXPECT_EQ(sa->heap().find_by_name("mine"), nullptr);
  auto* blk = sa->heap().find_by_name("theirs");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 22);
  a.write_unlock(sa);
}

}  // namespace
}  // namespace iw
