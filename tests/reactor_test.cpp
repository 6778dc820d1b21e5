// TcpServer (reactor) transport tests: frame reassembly across partial
// reads, response coalescing (many tiny frames -> few syscalls),
// write-buffer backpressure against a slow reader, EMFILE accept backoff,
// elastic worker-pool growth past blocked handlers, concurrent client
// calls, and the all-in-flight-calls-drain-on-EOF client regression.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "util/logging.hpp"
#include "wire/coherence.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// --- raw-socket helpers: drive the server below the TcpClientChannel ------

int raw_connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

void raw_send(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << std::strerror(errno);
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void raw_recv_exact(int fd, uint8_t* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, data + got, n - got, 0);
    ASSERT_GT(r, 0) << "peer closed or failed: " << std::strerror(errno);
    got += static_cast<size_t>(r);
  }
}

Frame raw_read_frame(int fd) {
  // The header is read a byte at a time: its length is in its varints.
  uint8_t header[kMaxFrameHeaderSize];
  size_t got = 0;
  FrameHeader h;
  do {
    raw_recv_exact(fd, header + got, 1);
    if (::testing::Test::HasFatalFailure()) return {};
    ++got;
  } while (!decode_frame_header(header, got, &h));
  Frame frame;
  frame.type = h.type;
  frame.request_id = h.request_id;
  frame.payload.resize(h.payload_size);
  if (h.payload_size > 0) {
    raw_recv_exact(fd, frame.payload.data(), h.payload_size);
  }
  return frame;
}

Buffer encode_request(MsgType type, uint32_t request_id,
                      const Buffer& payload) {
  Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload.assign(payload.data(), payload.data() + payload.size());
  Buffer out;
  encode_frame(f, out);
  return out;
}

/// Says hello on a raw connection (request id 1): a session binds a
/// segment handle only after kHello.
void raw_hello(int fd) {
  Buffer hello = encode_request(MsgType::kHello, 1, hello_payload());
  raw_send(fd, hello.data(), hello.size());
  EXPECT_EQ(raw_read_frame(fd).type, MsgType::kHelloResp);
}

// --- frame reassembly -----------------------------------------------------

TEST(Reactor, PartialFramesSplitAcrossReads) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  int fd = raw_connect(server.port());

  // A ping dribbled one byte at a time: the session state machine must
  // buffer the partial header/payload across epoll wakeups.
  Buffer ping = encode_request(MsgType::kPing, 7, Buffer());
  for (size_t i = 0; i < ping.size(); ++i) {
    raw_send(fd, ping.data() + i, 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Frame resp = raw_read_frame(fd);
  EXPECT_EQ(resp.type, MsgType::kPingResp);
  EXPECT_EQ(resp.request_id, 7u);

  // A frame with a payload, split mid-payload.
  raw_hello(fd);
  Buffer open_payload;
  open_payload.append_varint(1);
  open_payload.append_vstring("host/partial");
  open_payload.append_u8(1);
  Buffer open = encode_request(MsgType::kOpenSegment, 8, open_payload);
  size_t half = open.size() / 2;
  raw_send(fd, open.data(), half);
  std::this_thread::sleep_for(milliseconds(5));
  raw_send(fd, open.data() + half, open.size() - half);
  resp = raw_read_frame(fd);
  EXPECT_EQ(resp.type, MsgType::kOpenSegmentResp);
  EXPECT_EQ(resp.request_id, 8u);

  ::close(fd);
}

TEST(Reactor, MultiByteHeaderVarintsArriveOneByteAtATime) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  int fd = raw_connect(server.port());
  raw_hello(fd);

  // Request id 300 and a 200-byte payload: both header varints take two
  // bytes, so the header alone spans five reads.
  const std::string name = "host/" + std::string(195, 'v');
  Buffer open_payload;
  open_payload.append_varint(1);
  open_payload.append_vstring(name);
  open_payload.append_u8(1);
  ASSERT_GE(open_payload.size(), 128u);
  Buffer open = encode_request(MsgType::kOpenSegment, 300, open_payload);
  ASSERT_EQ(frame_header_size(300, open_payload.size()), 5u);
  for (size_t i = 0; i < open.size(); ++i) {
    raw_send(fd, open.data() + i, 1);
    if (i < 8) std::this_thread::sleep_for(milliseconds(2));
  }
  Frame resp = raw_read_frame(fd);
  EXPECT_EQ(resp.type, MsgType::kOpenSegmentResp);
  EXPECT_EQ(resp.request_id, 300u);
  EXPECT_EQ(core.segment_version(name), 1u);
  ::close(fd);
}

/// True when the server closes `fd` within `timeout` without sending a
/// byte first.
bool closed_silently(int fd, milliseconds timeout) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, static_cast<int>(timeout.count())) != 1) return false;
  uint8_t byte;
  ssize_t r = ::recv(fd, &byte, 1, 0);
  return r == 0 || (r < 0 && errno == ECONNRESET);
}

TEST(Reactor, MalformedHeadersTearDownTheConnection) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  const auto ping = static_cast<uint8_t>(MsgType::kPing);

  // An overlong request-id varint: six continuation bytes.
  int fd = raw_connect(server.port());
  const uint8_t overlong[] = {ping, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80};
  raw_send(fd, overlong, sizeof overlong);
  EXPECT_TRUE(closed_silently(fd, milliseconds(5000))) << "overlong varint";
  ::close(fd);

  // A payload length over the 256 MiB cap is refused before any payload.
  fd = raw_connect(server.port());
  Buffer huge;
  huge.append_u8(ping);
  huge.append_varint(1);
  huge.append_varint(uint64_t{kMaxFramePayload} + 1);
  raw_send(fd, huge.data(), huge.size());
  EXPECT_TRUE(closed_silently(fd, milliseconds(5000))) << "payload > 256 MiB";
  ::close(fd);

  // A truncated varint waits for its rest; EOF inside it ends the session.
  fd = raw_connect(server.port());
  const uint8_t truncated[] = {ping, 0x80};
  raw_send(fd, truncated, sizeof truncated);
  EXPECT_FALSE(closed_silently(fd, milliseconds(100))) << "closed early";
  ::shutdown(fd, SHUT_WR);
  EXPECT_TRUE(closed_silently(fd, milliseconds(5000))) << "truncated varint";
  ::close(fd);

  // None of it disturbed the server.
  fd = raw_connect(server.port());
  Buffer ok = encode_request(MsgType::kPing, 1, Buffer());
  raw_send(fd, ok.data(), ok.size());
  EXPECT_EQ(raw_read_frame(fd).type, MsgType::kPingResp);
  ::close(fd);
}

TEST(Reactor, ManyTinyFramesInOneWriteAreBatched) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  int fd = raw_connect(server.port());

  constexpr uint32_t kPings = 200;
  Buffer burst;
  for (uint32_t i = 1; i <= kPings; ++i) {
    Buffer one = encode_request(MsgType::kPing, i, Buffer());
    burst.append(one.data(), one.size());
  }
  raw_send(fd, burst.data(), burst.size());
  for (uint32_t i = 1; i <= kPings; ++i) {
    Frame resp = raw_read_frame(fd);
    EXPECT_EQ(resp.type, MsgType::kPingResp);
    EXPECT_EQ(resp.request_id, i);
  }
  ::close(fd);

  // The kernel hands response bytes to the client before the flushing
  // thread finishes its post-sendmsg bookkeeping, so give the counters a
  // moment to catch up before snapshotting.
  ReactorStats stats = server.stats();
  for (int spin = 0; spin < 200 && stats.frames_sent < kPings; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = server.stats();
  }
  EXPECT_GE(stats.frames_received, kPings);
  EXPECT_GE(stats.frames_sent, kPings);
  // The whole burst arrives in one (or few) reads, the worker drains the
  // decoded queue before flushing, and all pending responses ride one
  // sendmsg: far fewer syscalls than frames.
  EXPECT_LT(stats.sendmsg_calls, kPings / 2)
      << "response coalescing not engaged";
  EXPECT_GT(stats.frames_batched, 0u);
  EXPECT_GT(stats.epoll_wakeups, 0u);
  // Edge-triggered reads: the burst is drained to EAGAIN on each readiness
  // transition, so wakeups scale with arrival transitions, not frames. A
  // regression to one-wakeup-per-frame polling would blow well past this.
  EXPECT_LT(stats.epoll_wakeups, kPings / 4)
      << "burst not amortized into few epoll wakeups";
  EXPECT_GE(stats.worker_queue_depth_max, 1u);
}

// --- backpressure ---------------------------------------------------------

TEST(Reactor, BackpressurePausesReadsForSlowReader) {
  server::SegmentServer core;
  TcpServer::Options topts;
  topts.write_high_watermark = 16u << 10;
  topts.write_low_watermark = 4u << 10;
  TcpServer server(core, 0, topts);

  // Seed a segment with one 32 KiB block so full-collection reads are big.
  constexpr uint32_t kUnits = 8192;
  const std::string seg = "host/backpressure";
  {
    TcpClientChannel setup(server.port());
    setup.call(MsgType::kHello, hello_payload());
    Buffer p;
    p.append_varint(1);
    p.append_vstring(seg);
    p.append_u8(1);
    setup.call(MsgType::kOpenSegment, std::move(p));
    TypeRegistry scratch(Platform::native().rules);
    Buffer reg;
    reg.append_varint(1);
    TypeCodec::encode_graph(
        scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), kUnits),
        reg);
    setup.call(MsgType::kRegisterType, std::move(reg));
    Buffer acq;
    acq.append_varint(1);
    acq.append_varint(1);
    Frame a = setup.call(MsgType::kAcquireWrite, std::move(acq));
    uint32_t serial = a.reader().read_varint32();
    Buffer rel;
    rel.append_varint(1);
    rel.append_u8(payload_method::kRaw);
    DiffWriter w(rel, 1, 2);
    w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, 1, "d");
    w.begin_run(0, kUnits);
    for (uint32_t i = 0; i < kUnits; ++i) rel.append_u32(i);
    w.end_block();
    w.finish();
    setup.call(MsgType::kReleaseWrite, std::move(rel));
  }

  // A slow reader: pipeline many full-collection reads without consuming
  // any response. The kernel buffers fill, the outbox crosses the high
  // watermark, and the server must stop reading instead of ballooning.
  int fd = raw_connect(server.port());
  raw_hello(fd);
  Buffer open_payload;
  open_payload.append_varint(1);
  open_payload.append_vstring(seg);
  open_payload.append_u8(0);
  Buffer open = encode_request(MsgType::kOpenSegment, 2, open_payload);
  raw_send(fd, open.data(), open.size());
  Frame opened = raw_read_frame(fd);
  EXPECT_EQ(opened.type, MsgType::kOpenSegmentResp);

  constexpr uint32_t kReads = 60;
  Buffer burst;
  for (uint32_t i = 0; i < kReads; ++i) {
    Buffer rp;
    rp.append_varint(1);
    rp.append_varint(0);  // cold: forces a full collection each time
    rp.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    rp.append_varint(0);
    Buffer one = encode_request(MsgType::kAcquireRead, 100 + i, rp);
    burst.append(one.data(), one.size());
  }
  raw_send(fd, burst.data(), burst.size());
  std::this_thread::sleep_for(milliseconds(300));  // let the outbox jam

  // Drain: every pipelined response must still arrive, in order.
  size_t total_payload = 0;
  for (uint32_t i = 0; i < kReads; ++i) {
    Frame resp = raw_read_frame(fd);
    ASSERT_EQ(resp.type, MsgType::kAcquireReadResp) << "read " << i;
    EXPECT_EQ(resp.request_id, 100 + i);
    total_payload += resp.payload.size();
  }
  EXPECT_GT(total_payload, static_cast<size_t>(kReads) * kUnits * 4 / 2);
  ::close(fd);

  ReactorStats stats = server.stats();
  EXPECT_GE(stats.backpressure_stalls, 1u)
      << "slow reader never tripped the write watermark";
}

// --- accept robustness ----------------------------------------------------

TEST(Reactor, AcceptBacksOffOnFdExhaustion) {
  server::SegmentServer core;
  TcpServer::Options topts;
  topts.accept_backoff_ms = 20;
  TcpServer server(core, 0, topts);

  // Park one connected-but-unaccepted socket in the backlog, with the
  // process out of fds: accept4 must hit EMFILE, pause the listener, and
  // resume after the backoff instead of dropping the listener for good.
  // The reactor logs a warning when accept fails below. Under UBSan, the
  // vptr check on a type it has not seen yet opens a pipe to probe the
  // object, and with every fd taken that probe fails and is reported as an
  // invalid vptr. One warning now, while fds are free, puts the log
  // stream's type in the check's cache (keyed by the real vptr, so the
  // check stays on for the reactor's own warning).
  IW_LOG(kWarn) << "reactor_test: filling the fd table to force EMFILE";
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  std::vector<int> hogs;
  for (;;) {
    int h = ::dup(0);
    if (h < 0) break;  // EMFILE: the table is full
    hogs.push_back(h);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // The reactor tries to accept and cannot. Give it a moment to trip.
  auto deadline = steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().accept_backoffs == 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_GE(server.stats().accept_backoffs, 1u);

  // Free the descriptors; the backoff timer must revive the listener and
  // accept the parked connection.
  for (int h : hogs) ::close(h);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  Buffer ping = encode_request(MsgType::kPing, 1, Buffer());
  raw_send(fd, ping.data(), ping.size());
  Frame resp = raw_read_frame(fd);
  EXPECT_EQ(resp.type, MsgType::kPingResp);
  ::close(fd);
}

// --- worker pool ----------------------------------------------------------

TEST(Reactor, ElasticWorkersOutliveBlockedHandlers) {
  // A lease longer than the test: if the pool could not grow past a
  // blocked handler, nothing would unblock it in time, so this test proves
  // elasticity (and would deadlock-then-timeout without it).
  server::SegmentServer::Options sopts;
  sopts.writer_lease_ms = 60'000;
  server::SegmentServer core(sopts);
  TcpServer::Options topts;
  topts.workers = 1;
  topts.max_workers = 8;
  TcpServer server(core, 0, topts);
  const std::string seg = "host/elastic";

  TcpClientChannel a(server.port());
  TcpClientChannel b(server.port());
  auto open = [&](TcpClientChannel& ch) {
    ch.call(MsgType::kHello, hello_payload());
    Buffer p;
    p.append_varint(1);
    p.append_vstring(seg);
    p.append_u8(1);
    ch.call(MsgType::kOpenSegment, std::move(p));
  };
  open(a);
  open(b);
  auto acquire_payload = [&] {
    Buffer p;
    p.append_varint(1);
    p.append_varint(0);
    return p;
  };
  a.call(MsgType::kAcquireWrite, acquire_payload());

  // B's acquire blocks the only base worker inside the core.
  std::atomic<bool> b_acquired{false};
  std::thread waiter([&] {
    b.call(MsgType::kAcquireWrite, acquire_payload());
    b_acquired.store(true);
  });
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(b_acquired.load());

  // A's release can only be handled by a freshly spawned worker.
  auto start = steady_clock::now();
  Buffer rel;
  rel.append_varint(1);
  rel.append_u8(payload_method::kRaw);
  DiffWriter(rel, 0, 0).finish();
  a.call(MsgType::kReleaseWrite, std::move(rel));
  waiter.join();
  auto waited =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - start);
  EXPECT_TRUE(b_acquired.load());
  EXPECT_LT(waited.count(), 5'000);
  EXPECT_GE(server.stats().workers_spawned, 2u);

  Buffer rel2;
  rel2.append_varint(1);
  rel2.append_u8(payload_method::kRaw);
  DiffWriter(rel2, 0, 0).finish();
  b.call(MsgType::kReleaseWrite, std::move(rel2));
}

// --- concurrent client calls ---------------------------------------------

TEST(Reactor, ClientWithoutWindowStillCorrectUnderConcurrency) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  TcpClientChannel channel(server.port());
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        Buffer empty;
        Frame resp = channel.call(MsgType::kPing, std::move(empty));
        if (resp.type == MsgType::kPingResp) ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 200);
}

// --- EOF drains all in-flight calls (regression) --------------------------

TEST(Reactor, ServerCloseMidBurstFailsAllInFlightCallsPromptly) {
  server::SegmentServer core;
  auto server = std::make_unique<TcpServer>(core, 0);
  TcpClientChannel::Options copts;
  copts.call_timeout_ms = 30'000;  // a hung waiter would be obvious
  TcpClientChannel channel(server->port(), copts);

  constexpr int kThreads = 8;
  std::atomic<int> transport_errors{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1'000; ++i) {
        Buffer empty;
        try {
          channel.call(MsgType::kPing, std::move(empty));
          ++completed;
        } catch (const Error& e) {
          EXPECT_TRUE(e.is_transport()) << e.what();
          ++transport_errors;
          return;
        }
      }
    });
  }
  while (completed.load() < 50) std::this_thread::yield();
  auto start = steady_clock::now();
  server->shutdown();  // closes every connection mid-burst
  for (auto& t : threads) t.join();
  auto waited =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - start);

  // Every thread either finished its loop before the close or got a
  // transport error — and nobody slept toward the 30s call deadline.
  EXPECT_GT(transport_errors.load(), 0);
  EXPECT_LT(waited.count(), 10'000)
      << "an in-flight call hung after server close";
}

}  // namespace
}  // namespace iw
