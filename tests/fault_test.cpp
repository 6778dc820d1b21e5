// Transport fault injection and recovery: deterministic fault schedules,
// severed connections releasing server-side state, call deadlines with
// request context, and the reconnect supervisor replaying idempotent calls
// under a new session epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(FaultSchedule, SameSeedSameProgram) {
  FaultSchedule::Options opts;
  opts.seed = 99;
  opts.sever_rate = 0.05;
  opts.truncate_rate = 0.05;
  opts.drop_response_rate = 0.1;
  opts.delay_rate = 0.2;
  FaultSchedule a(opts);
  FaultSchedule b(opts);
  for (int i = 0; i < 500; ++i) {
    FaultAction fa = a.next_for_call(MsgType::kPing);
    FaultAction fb = b.next_for_call(MsgType::kPing);
    ASSERT_EQ(static_cast<int>(fa.kind), static_cast<int>(fb.kind)) << i;
    ASSERT_EQ(fa.delay_ms, fb.delay_ms) << i;
  }
}

TEST(FaultSchedule, OnlyTypeGatesFaults) {
  FaultSchedule::Options opts;
  opts.seed = 7;
  opts.drop_response_rate = 1.0;
  opts.only_type = MsgType::kReleaseWrite;
  FaultSchedule s(opts);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(static_cast<int>(s.next_for_call(MsgType::kPing).kind),
              static_cast<int>(FaultAction::Kind::kNone));
  }
  EXPECT_EQ(static_cast<int>(s.next_for_call(MsgType::kReleaseWrite).kind),
            static_cast<int>(FaultAction::Kind::kDropResponse));
}

TEST(FaultyChannelTest, SeverAtFrameIsDeterministic) {
  server::SegmentServer server;
  FaultSchedule::Options opts;
  opts.sever_at_frame = 3;
  auto schedule = std::make_shared<FaultSchedule>(opts);
  FaultyChannel ch(std::make_shared<InProcChannel>(server), schedule);

  raw_call(ch, MsgType::kPing, Buffer{});
  raw_call(ch, MsgType::kPing, Buffer{});
  try {
    raw_call(ch, MsgType::kPing, Buffer{});
    FAIL() << "third frame should sever";
  } catch (const Error& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(ErrorCode::kConnReset));
    EXPECT_TRUE(e.is_transport());
    EXPECT_TRUE(is_retryable_transport(e));
  }
  EXPECT_TRUE(ch.severed());
  // Everything after the sever fails the same way.
  EXPECT_THROW(raw_call(ch, MsgType::kPing, Buffer{}), Error);
}

TEST(FaultyChannelTest, DropResponseManifestsAsTimeout) {
  server::SegmentServer server;
  FaultSchedule::Options opts;
  opts.drop_response_rate = 1.0;
  auto schedule = std::make_shared<FaultSchedule>(opts);
  FaultyChannel ch(std::make_shared<InProcChannel>(server), schedule);

  uint64_t before = server.stats().requests;
  try {
    raw_call(ch, MsgType::kPing, Buffer{});
    FAIL() << "response should be dropped";
  } catch (const Error& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(ErrorCode::kTimedOut));
    EXPECT_TRUE(is_retryable_transport(e));
  }
  // The request *was* handled — only the response vanished. That asymmetry
  // is exactly what retry logic must survive.
  EXPECT_EQ(server.stats().requests, before + 1);
}

// The on_disconnect regression: a client that dies holding the writer lock
// (uncleanly — its release never arrives) must not wedge other writers.
TEST(FaultyChannelTest, SeveredWriterUnblocksWaiter) {
  server::SegmentServer server;
  const std::string url = "host/severed";

  FaultSchedule::Options opts;
  opts.sever_rate = 1.0;
  opts.only_type = MsgType::kReleaseWrite;
  auto schedule = std::make_shared<FaultSchedule>(opts);
  FaultyChannel a(std::make_shared<InProcChannel>(server), schedule);
  InProcChannel b(server);

  raw_call(a, MsgType::kHello, hello_payload());
  raw_call(a, MsgType::kOpenSegment, open_payload(url));
  raw_call(a, MsgType::kAcquireWrite, acquire_write_payload());

  std::atomic<bool> b_acquired{false};
  std::thread waiter([&] {
    raw_call(b, MsgType::kHello, hello_payload());
    raw_call(b, MsgType::kOpenSegment, open_payload(url));
    raw_call(b, MsgType::kAcquireWrite, acquire_write_payload());
    b_acquired.store(true);
  });
  // Give the waiter time to block inside the server.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(b_acquired.load());

  // A's release dies on the wire; the sever runs the server's
  // on_disconnect, which must release the lock for B.
  EXPECT_THROW(raw_call(a, MsgType::kReleaseWrite,
                        empty_release_payload(0)),
               Error);
  waiter.join();
  EXPECT_TRUE(b_acquired.load());
  raw_call(b, MsgType::kReleaseWrite, empty_release_payload(0));
}

TEST(ReconnectTest, ClientSurvivesSeverTransparently) {
  server::SegmentServer server;
  FaultSchedule::Options fopts;
  fopts.sever_at_frame = 9;
  auto schedule = std::make_shared<FaultSchedule>(fopts);

  Client::Options copts;
  copts.reconnect.initial_backoff_ms = 1;
  copts.reconnect.max_backoff_ms = 4;
  Client client(
      [&](const std::string&) {
        return std::make_shared<FaultyChannel>(
            std::make_shared<InProcChannel>(server), schedule);
      },
      copts);

  ClientSegment* seg = client.open_segment("host/reconnect");
  const TypeDescriptor* arr = client.types().array_of(
      client.types().primitive(PrimitiveKind::kInt32), 8);

  int32_t* data = nullptr;
  for (int step = 0; step < 8; ++step) {
    for (int attempt = 0;; ++attempt) {
      try {
        client.write_lock(seg);
        if (auto* blk = seg->heap().find_by_name("counter")) {
          data = reinterpret_cast<int32_t*>(
              const_cast<uint8_t*>(blk->data()));
        } else {
          data = static_cast<int32_t*>(
              client.malloc_block(seg, arr, "counter"));
        }
        data[0] = step + 1;  // absolute value: re-sends converge
        client.write_unlock(seg);
        break;
      } catch (const Error& e) {
        // A release that died mid-flight is not replayed; the client
        // invalidated its cache and we redo the whole critical section.
        ASSERT_LT(attempt, 5) << e.what();
      }
    }
  }

  EXPECT_GE(client.stats().reconnects, 1u);

  // A fresh fault-free client sees the final committed value.
  Client verifier([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  ClientSegment* vseg = verifier.open_segment("host/reconnect");
  verifier.read_lock(vseg);
  auto* blk = vseg->heap().find_by_name("counter");
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 8);
  verifier.read_unlock(vseg);
}

TEST(ReconnectTest, EpochAdvancesPerReconnect) {
  server::SegmentServer server;
  FaultSchedule::Options fopts;
  fopts.sever_at_frame = 4;  // hello(1) ping(2) ping(3) then sever
  auto schedule = std::make_shared<FaultSchedule>(fopts);

  client::ReconnectingChannel::Options ropts;
  ropts.initial_backoff_ms = 1;
  client::ReconnectingChannel ch(
      [&] {
        return std::make_shared<FaultyChannel>(
            std::make_shared<InProcChannel>(server), schedule);
      },
      ropts);
  EXPECT_EQ(ch.session_epoch(), 1u);
  EXPECT_EQ(ch.server_lease_ms(), 10'000u);  // server default, via kHelloResp

  raw_call(ch, MsgType::kPing, Buffer{});
  raw_call(ch, MsgType::kPing, Buffer{});
  // Frame 4 severs; the supervisor reconnects (hello = frame 5) and
  // replays the ping on the new session.
  raw_call(ch, MsgType::kPing, Buffer{});
  EXPECT_EQ(ch.session_epoch(), 2u);
  ChannelFaultStats stats = ch.fault_stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.retried_calls, 1u);
}

/// ServerCore whose handle() stalls for a configurable time — the server
/// half of a call-deadline test.
class StallCore final : public ServerCore {
 public:
  void on_connect(SessionId, Notifier) override {}
  void on_disconnect(SessionId) override {}
  Frame handle(SessionId, const Frame&) override {
    std::this_thread::sleep_for(milliseconds(delay_ms.load()));
    Frame resp;
    resp.type = MsgType::kPingResp;
    return resp;
  }
  std::atomic<int> delay_ms{0};
};

TEST(TcpDeadlineTest, CallDeadlineCarriesContext) {
  StallCore core;
  core.delay_ms = 400;
  TcpServer server(core, 0);
  TcpClientChannel::Options opts;
  opts.call_timeout_ms = 60;
  TcpClientChannel ch(server.port(), opts);

  try {
    raw_call(ch, MsgType::kPing, Buffer{});
    FAIL() << "call should hit its deadline";
  } catch (const Error& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(ErrorCode::kTimedOut));
    EXPECT_TRUE(e.is_transport());
    std::string what = e.what();
    EXPECT_NE(what.find("kPing"), std::string::npos) << what;
    EXPECT_NE(what.find("req#"), std::string::npos) << what;
    EXPECT_NE(what.find("ms"), std::string::npos) << what;
  }
  EXPECT_EQ(ch.fault_stats().call_timeouts, 1u);

  // The late response to the abandoned request must be discarded, not
  // mistaken for the next call's response.
  std::this_thread::sleep_for(milliseconds(500));
  core.delay_ms = 0;
  Frame resp = raw_call(ch, MsgType::kPing, Buffer{});
  EXPECT_EQ(static_cast<int>(resp.type), static_cast<int>(MsgType::kPingResp));
  server.shutdown();
}

TEST(TcpDeadlineTest, ConnectFailureIsTransportError) {
  // Grab a port and close the listener so nothing is listening on it.
  uint16_t dead_port;
  {
    server::SegmentServer core;
    TcpServer probe(core, 0);
    dead_port = probe.port();
    probe.shutdown();
  }
  try {
    TcpClientChannel ch(dead_port);
    FAIL() << "connect should fail";
  } catch (const Error& e) {
    EXPECT_TRUE(e.is_transport()) << e.what();
  }
}

}  // namespace
}  // namespace iw
