// TCP transport tests: framing over real sockets, concurrent clients,
// notifications via the receiver thread, and full client/server operation
// over TCP (the "separate processes" deployment shape). A hand-driven
// server end checks how the client channel decodes what it receives, and a
// cutting core checks that a replayed call finds its segment handle bound
// by the new session's hello.
#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "interweave/interweave.hpp"
#include "net/inproc.hpp"
#include "server/replication.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

TEST(Tcp, PingPong) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  TcpClientChannel channel(server.port());
  Buffer empty;
  Frame resp = channel.call(MsgType::kPing, std::move(empty));
  EXPECT_EQ(resp.type, MsgType::kPingResp);
  EXPECT_GT(channel.bytes_sent(), 0u);
  EXPECT_GT(channel.bytes_received(), 0u);
}

TEST(Tcp, ErrorResponsesSurfaceAsExceptions) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  TcpClientChannel channel(server.port());
  Buffer payload;
  payload.append_varint(1);  // segment handle
  payload.append_vstring("host/missing");
  payload.append_u8(0);  // no create
  try {
    channel.call(MsgType::kOpenSegment, std::move(payload));
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST(Tcp, ConnectToClosedPortFails) {
  EXPECT_THROW(TcpClientChannel(1), Error);  // port 1: nothing listening
}

TEST(Tcp, ZeroTimeoutsAreRejected) {
  // Every transport deadline is bounded: 0 is refused, never read as
  // "wait forever", even with a live server to connect to.
  server::SegmentServer core;
  TcpServer server(core, 0);
  auto expect_invalid = [](const std::function<void()>& build,
                           const char* what) {
    try {
      build();
      ADD_FAILURE() << what << " = 0 was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what;
    }
  };
  TcpClientChannel::Options call_opts;
  call_opts.call_timeout_ms = 0;
  expect_invalid([&] { TcpClientChannel(server.port(), call_opts); },
                 "call_timeout_ms");
  TcpClientChannel::Options connect_opts;
  connect_opts.connect_timeout_ms = 0;
  expect_invalid([&] { TcpClientChannel(server.port(), connect_opts); },
                 "connect_timeout_ms");
  server::WalReplicator::Options repl_opts;
  repl_opts.disconnect_grace_ms = 0;
  expect_invalid([&] { server::WalReplicator replicator(repl_opts); },
                 "disconnect_grace_ms");
  // The defaults stay valid.
  TcpClientChannel channel(server.port());
  EXPECT_EQ(channel.call(MsgType::kPing, Buffer()).type, MsgType::kPingResp);
}

TEST(Tcp, ConcurrentCallsFromMultipleThreads) {
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

TEST(Tcp, FullClientServerOverSockets) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  uint16_t port = server.port();

  auto factory = [port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  };
  Client writer(factory);
  Client reader(factory);

  const TypeDescriptor* node = writer.types().struct_builder("node")
      .field("key", writer.types().primitive(PrimitiveKind::kInt32))
      .self_pointer_field("next")
      .finish();

  ClientSegment* ws = writer.open_segment("host/tcp-list");
  writer.write_lock(ws);
  struct Node { int32_t key; Node* next; };
  auto* head = static_cast<Node*>(writer.malloc_block(ws, node, "head"));
  head->key = -1;
  head->next = nullptr;
  for (int k = 1; k <= 3; ++k) {
    auto* n = static_cast<Node*>(writer.malloc_block(ws, node));
    n->key = k;
    n->next = head->next;
    head->next = n;
  }
  writer.write_unlock(ws);

  ClientSegment* rs = reader.open_segment("host/tcp-list");
  reader.read_lock(rs);
  auto* rhead = static_cast<Node*>(reader.mip_to_ptr("host/tcp-list#head#0"));
  ASSERT_NE(rhead, nullptr);
  std::vector<int> keys;
  for (Node* p = rhead->next; p != nullptr; p = p->next) keys.push_back(p->key);
  EXPECT_EQ(keys, (std::vector<int>{3, 2, 1}));
  reader.read_unlock(rs);
}

TEST(Tcp, NotificationsFlowOverSockets) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  uint16_t port = server.port();
  auto factory = [port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  };
  Client writer(factory);
  Client reader(factory);

  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), 16);
  ClientSegment* ws = writer.open_segment("host/tcp-notify");
  writer.write_lock(ws);
  auto* data = static_cast<int32_t*>(writer.malloc_block(ws, arr));
  writer.write_unlock(ws);

  ClientSegment* rs = reader.open_segment("host/tcp-notify");
  reader.set_coherence(rs, CoherencePolicy::delta(10));
  reader.read_lock(rs);
  reader.read_unlock(rs);

  writer.write_lock(ws);
  data[0] = 1;
  writer.write_unlock(ws);

  // Give the async notification a moment to land, then verify the reader
  // can satisfy a delta-bounded lock without a server round trip.
  for (int spin = 0; spin < 100; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    uint64_t calls = reader.stats().read_lock_server_calls;
    reader.read_lock(rs);
    reader.read_unlock(rs);
    if (reader.stats().read_lock_server_calls == calls) {
      SUCCEED();
      return;
    }
  }
  // Even if every acquire contacted the server, correctness held; flag the
  // missing optimization only.
  ADD_FAILURE() << "delta read never satisfied locally via notification";
}

TEST(Tcp, ServerShutdownUnblocksClients) {
  server::SegmentServer core;
  auto server = std::make_unique<TcpServer>(core, 0);
  auto channel = std::make_unique<TcpClientChannel>(server->port());
  Buffer empty;
  channel->call(MsgType::kPing, std::move(empty));
  server->shutdown();
  Buffer empty2;
  EXPECT_THROW(channel->call(MsgType::kPing, std::move(empty2)), Error);
}

/// The server end of one connection, driven by hand: the test reads the
/// client's requests and writes whatever bytes it likes back.
class RawServer {
 public:
  RawServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawServer() {
    if (fd_ >= 0) ::close(fd_);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  /// Takes the connection a client channel already made.
  void accept_one() { fd_ = ::accept(listen_fd_, nullptr, nullptr); }

  Frame read_request() {
    for (;;) {
      Frame f;
      if (size_t used = decode_frame(in_.span(), &f)) {
        std::vector<uint8_t> rest(in_.data() + used, in_.data() + in_.size());
        in_.clear();
        in_.append(rest.data(), rest.size());
        return f;
      }
      uint8_t chunk[4096];
      ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
      if (r <= 0) throw std::runtime_error("client closed");
      in_.append(chunk, static_cast<size_t>(r));
    }
  }

  void send(const Buffer& bytes) { send(bytes.data(), bytes.size()); }
  void send(const uint8_t* p, size_t n) {
    while (n > 0) {
      ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w <= 0) throw std::runtime_error("send");
      p += w;
      n -= static_cast<size_t>(w);
    }
  }
  void close() {
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int fd_ = -1;
  uint16_t port_ = 0;
  Buffer in_;
};

Buffer encoded(MsgType type, uint32_t request_id, const Buffer& payload) {
  Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload.assign(payload.data(), payload.data() + payload.size());
  Buffer out;
  encode_frame(f, out);
  return out;
}

TEST(Tcp, ClientDecodesFramesDeliveredOneByteAtATime) {
  RawServer raw;
  TcpClientChannel channel(raw.port());
  raw.accept_one();
  std::mutex mu;
  std::vector<uint32_t> notified;
  channel.set_notify_handler([&](const Frame& f) {
    BufReader r = f.reader();
    r.read_vstring();
    std::lock_guard lock(mu);
    notified.push_back(r.read_varint32());
  });
  auto notification = [](uint32_t version) {
    Buffer p;
    p.append_vstring("host/dribble");
    p.append_varint(version);
    return encoded(MsgType::kNotifyVersion, 0, p);
  };
  Buffer body;
  for (int i = 0; i < 300; ++i) body.append_u8(static_cast<uint8_t>(i));

  // A notification then the response, every byte its own segment: the
  // 300-byte payload's length varint spans two reads.
  Frame first;
  std::thread caller([&] { first = channel.call(MsgType::kPing, Buffer()); });
  Frame req = raw.read_request();
  Buffer dribble = notification(7);
  Buffer resp = encoded(MsgType::kPingResp, req.request_id, body);
  dribble.append(resp.data(), resp.size());
  for (size_t i = 0; i < dribble.size(); ++i) {
    raw.send(dribble.data() + i, 1);
    if (i < 12) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  caller.join();
  EXPECT_EQ(first.type, MsgType::kPingResp);
  EXPECT_EQ(first.payload, std::vector<uint8_t>(body.data(),
                                                body.data() + body.size()));

  // The response and a notification in one write: one recv, two frames.
  Frame second;
  std::thread caller2([&] { second = channel.call(MsgType::kPing, Buffer()); });
  req = raw.read_request();
  Buffer burst = encoded(MsgType::kPingResp, req.request_id, Buffer());
  Buffer note = notification(8);
  burst.append(note.data(), note.size());
  raw.send(burst);
  caller2.join();
  EXPECT_EQ(second.type, MsgType::kPingResp);
  EXPECT_EQ(channel.bytes_received(), dribble.size() + burst.size());
  for (int spin = 0; spin < 400; ++spin) {
    {
      std::lock_guard lock(mu);
      if (notified.size() == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(mu);
  EXPECT_EQ(notified, (std::vector<uint32_t>{7, 8}));
}

TEST(Tcp, ThrowingNotifyHandlerLeavesChannelUsable) {
  RawServer raw;
  TcpClientChannel channel(raw.port());
  raw.accept_one();
  std::atomic<int> handled{0};
  channel.set_notify_handler([&](const Frame&) {
    handled.fetch_add(1);
    throw std::runtime_error("handler failure");
  });
  Buffer note_payload;
  note_payload.append_vstring("host/throwing");
  note_payload.append_varint(3);
  const Buffer note = encoded(MsgType::kNotifyVersion, 0, note_payload);

  // Two notifications ahead of a call's response, in one write: the
  // handler throws on the receiver thread for each, and the response
  // behind them still reaches its caller.
  for (int round = 0; round < 2; ++round) {
    Frame got;
    std::thread caller([&] { got = channel.call(MsgType::kPing, Buffer()); });
    Frame req = raw.read_request();
    Buffer burst;
    burst.append(note.data(), note.size());
    burst.append(note.data(), note.size());
    Buffer resp = encoded(MsgType::kPingResp, req.request_id, Buffer());
    burst.append(resp.data(), resp.size());
    raw.send(burst);
    caller.join();
    EXPECT_EQ(got.type, MsgType::kPingResp) << "round " << round;
    EXPECT_EQ(handled.load(), 2 * (round + 1)) << "round " << round;
  }
}

/// Threads of this process, as the kernel lists them.
size_t thread_count() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(Tcp, ChannelRunsOneThread) {
  // The hand-driven server runs on this thread, so every thread that
  // appears belongs to the channel.
  RawServer raw;
  const size_t before = thread_count();
  {
    TcpClientChannel channel(raw.port());
    raw.accept_one();
    EXPECT_EQ(thread_count(), before + 1)
        << "the receiver, which also delivers notifications, is the "
           "channel's only thread";
  }
  // A joined thread can linger in the task list for a moment.
  for (int spin = 0; spin < 200 && thread_count() != before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(thread_count(), before);
}

TEST(Tcp, MalformedResponseHeadersFailTheChannel) {
  // `reply` answers the first request; the call and every later one fail
  // as transport errors.
  auto expect_fails = [](const std::string& what,
                         const std::function<void(RawServer&, uint32_t)>&
                             reply) {
    RawServer raw;
    TcpClientChannel channel(raw.port());
    raw.accept_one();
    std::optional<Error> failure;
    std::thread caller([&] {
      try {
        channel.call(MsgType::kPing, Buffer());
      } catch (const Error& e) {
        failure = e;
      }
    });
    reply(raw, raw.read_request().request_id);
    caller.join();
    ASSERT_TRUE(failure.has_value()) << what;
    EXPECT_TRUE(failure->is_transport()) << what;
    EXPECT_EQ(failure->code(), ErrorCode::kConnReset) << what;
    EXPECT_THROW(channel.call(MsgType::kPing, Buffer()), Error) << what;
  };
  const auto pong = static_cast<uint8_t>(MsgType::kPingResp);
  expect_fails("overlong varint", [&](RawServer& raw, uint32_t) {
    const uint8_t bytes[] = {pong, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80};
    raw.send(bytes, sizeof bytes);
  });
  expect_fails("payload over 256 MiB", [&](RawServer& raw, uint32_t id) {
    Buffer bytes;
    bytes.append_u8(pong);
    bytes.append_varint(id);
    bytes.append_varint(uint64_t{kMaxFramePayload} + 1);
    raw.send(bytes);
  });
  expect_fails("truncated varint", [&](RawServer& raw, uint32_t) {
    const uint8_t bytes[] = {pong, 0x81};
    raw.send(bytes, sizeof bytes);
    raw.close();
  });
}

/// Runs one fixed session of raw frames; both transports must count the
/// same bytes for it. Request ids pass 127 and payloads pass 127 bytes, so
/// one- and two-byte header varints both occur.
void scripted_session(ClientChannel& ch) {
  for (int i = 0; i < 130; ++i) ch.call(MsgType::kPing, Buffer());
  ch.call(MsgType::kHello, hello_payload());
  Buffer open;
  open.append_varint(1);
  open.append_vstring("host/script");
  open.append_u8(1);
  ch.call(MsgType::kOpenSegment, std::move(open));
  TypeRegistry scratch(Platform::native().rules);
  Buffer reg;
  reg.append_varint(1);
  TypeCodec::encode_graph(
      scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), 64), reg);
  const uint32_t type_serial =
      ch.call(MsgType::kRegisterType, std::move(reg)).reader().read_varint32();
  Buffer acq;
  acq.append_varint(1);
  acq.append_varint(0);
  const uint32_t serial =
      ch.call(MsgType::kAcquireWrite, std::move(acq)).reader().read_varint32();
  Buffer rel;
  rel.append_varint(1);
  rel.append_u8(payload_method::kRaw);
  DiffWriter w(rel, 1, 2);
  w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, type_serial,
                "block");
  w.begin_run(0, 64);
  for (uint32_t i = 0; i < 64; ++i) rel.append_u32(i * 2654435761u);
  w.end_block();
  w.finish();
  ch.call(MsgType::kReleaseWrite, std::move(rel));
  Buffer read;
  read.append_varint(1);
  read.append_varint(0);
  read.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
  read.append_varint(0);
  ch.call(MsgType::kAcquireRead, std::move(read));
  Buffer info;
  info.append_varint(0);
  info.append_vstring("host/script");
  ch.call(MsgType::kSegmentInfo, std::move(info));
  Buffer missing;
  missing.append_varint(2);
  missing.append_vstring("host/missing");
  missing.append_u8(0);
  EXPECT_THROW(ch.call(MsgType::kOpenSegment, std::move(missing)), Error);
  Buffer close;
  close.append_varint(1);
  ch.call(MsgType::kCloseSegment, std::move(close));
}

TEST(Tcp, InProcAndTcpCountIdenticalBytes) {
  server::SegmentServer inproc_core;
  InProcChannel inproc(inproc_core);
  scripted_session(inproc);

  server::SegmentServer tcp_core;
  TcpServer server(tcp_core, 0);
  TcpClientChannel tcp(server.port());
  scripted_session(tcp);

  EXPECT_GT(inproc.bytes_sent(), 130u * 3);
  EXPECT_EQ(tcp.bytes_sent(), inproc.bytes_sent());
  EXPECT_EQ(tcp.bytes_received(), inproc.bytes_received());
}

/// Counts requests by type and, once, runs a hook inside a kAcquireWrite
/// before the server handles it.
class CuttingCore final : public ServerCore {
 public:
  explicit CuttingCore(ServerCore& inner) : inner_(inner) {}

  void cut_next_acquire_write(std::function<void()> cut) {
    std::lock_guard lock(mu_);
    cut_ = std::move(cut);
  }
  int count(MsgType type) const {
    std::lock_guard lock(mu_);
    return counts_[static_cast<uint8_t>(type)];
  }

  void on_connect(SessionId session, Notifier notify) override {
    inner_.on_connect(session, std::move(notify));
  }
  void on_disconnect(SessionId session) override {
    inner_.on_disconnect(session);
  }
  Frame handle(SessionId session, const Frame& request) override {
    std::function<void()> cut;
    {
      std::lock_guard lock(mu_);
      ++counts_[static_cast<uint8_t>(request.type)];
      if (request.type == MsgType::kAcquireWrite) cut = std::move(cut_);
      cut_ = nullptr;
    }
    if (cut) cut();
    return inner_.handle(session, request);
  }

 private:
  ServerCore& inner_;
  mutable std::mutex mu_;
  std::function<void()> cut_;
  int counts_[256] = {};
};

TEST(ReconnectTcp, AcquireCutBeforeItsResponseReplaysOnReboundHandle) {
  server::SegmentServer core;
  CuttingCore cutting(core);
  TcpServer server(cutting, 0);
  const uint16_t port = server.port();
  std::mutex mu;
  std::vector<std::shared_ptr<TcpClientChannel>> channels;
  Client client([&](const std::string&) {
    auto ch = std::make_shared<TcpClientChannel>(port);
    std::lock_guard lock(mu);
    channels.push_back(ch);
    return ch;
  });
  const TypeDescriptor* arr = client.types().array_of(
      client.types().primitive(PrimitiveKind::kInt32), 4);
  ClientSegment* seg = client.open_segment("host/cut");
  client.write_lock(seg);
  client.malloc_block(seg, arr, "data");
  client.write_unlock(seg);

  // The server takes the acquire, but the client's socket dies before the
  // response can reach it: the supervisor reconnects and replays the
  // acquire, naming the segment by the handle the new hello rebound.
  cutting.cut_next_acquire_write([&] {
    std::lock_guard lock(mu);
    channels.front()->shutdown();
  });
  client.write_lock(seg);
  auto* data = static_cast<int32_t*>(client.mip_to_ptr("host/cut#data#0"));
  data[0] = 42;
  client.write_unlock(seg);

  EXPECT_EQ(core.segment_version("host/cut"), 3u);
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_EQ(client.stats().retried_calls, 1u);
  EXPECT_EQ(cutting.count(MsgType::kHello), 2);
  EXPECT_EQ(cutting.count(MsgType::kAcquireWrite), 3);
  EXPECT_EQ(cutting.count(MsgType::kOpenSegment), 1)
      << "the new session must not need the segment reopened";

  // A second client reads the committed value.
  Client reader([port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  });
  ClientSegment* rs = reader.open_segment("host/cut");
  reader.read_lock(rs);
  EXPECT_EQ(static_cast<int32_t*>(reader.mip_to_ptr("host/cut#data#0"))[0],
            42);
  reader.read_unlock(rs);
}

}  // namespace
}  // namespace iw
