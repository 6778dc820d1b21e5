// Multi-segment server scaling: N segments × M TCP client threads doing
// lock/modify/update cycles against a live SegmentServer, reported as JSON
// (requests/sec, p50/p99 latency) at 1/2/4/8 threads.
//
// Each configuration runs twice: against the sharded server directly, and
// through a global-mutex adapter that serializes every request — the seed's
// single-`std::mutex` design — so the speedup from per-segment locking is
// recorded in the bench trajectory. Thread t works on segment t (threads ==
// segments), so the workload is embarrassingly parallel server-side and any
// shortfall is lock contention. Diffs are deliberately large (8 KiB applies,
// periodic 32 KiB from-scratch collections) so a meaningful share of each
// request's wall time is spent inside the server under the segment lock;
// that is the portion the global mutex serializes and sharding parallelizes.
//
// Aggregate throughput only scales with available cores: each row carries a
// "cores" field, and on a single-core host the two modes converge to ~1.0x
// by construction (the CPU is saturated either way; sharding then shows up
// in tail latency, not throughput).
//
// A second mode measures connection scaling on the epoll reactor:
//
//   server_scaling --connections N [--seconds S]
//
// N concurrent connections (default 1000) against one server: a small set
// of writer channels committing to 32 shared segments, and raw-socket
// reader connections that subscribe to a segment and fire bursts of
// pipelined requests (pings plus periodic cold whole-block reads) in one
// write. Bursts exercise both halves of frame coalescing — the reactor
// decodes a burst from one recv and flushes all its responses in one
// sendmsg — and writer commits fan NotifyVersion frames into the same
// connections. Reported as JSON: requests/sec, burst round-trip p50/p99,
// connections-per-core, and frames-per-syscall from the server's reactor
// counters.
//
// A third mode measures the hot-segment read workload lock caching targets:
//
//   server_scaling --hot-read [--readers N] [--seconds S]
//
// N reader clients spin on read critical sections over one shared kFull
// segment while a writer commits every ~250 ms, run once with client-side
// lock caching on and once off (readers without auto_reconnect never say
// hello, so they are never granted a cached lock). Reported as JSON: lock RPCs per critical
// section (the headline number — off pays 1.0, on amortizes one RPC across
// every CS between commits), CS/sec, CS latency p50/p99, the server's
// revocation counters, and the writer's worst-case acquire latency (bounded
// by the revocation deadline).
//
// A fourth mode measures the payload pipeline's wire direction:
//
//   server_scaling --update-bytes [--rounds N]
//
// A writer/reader pair against one in-process server: the writer commits
// a 64 KiB int array every round and the reader pulls the resulting
// update, over a {server compression on/off} x {compressible/
// incompressible content} matrix. The server setting governs only what it
// encodes (updates, journal); the client compresses its commits in every
// cell. Reported as JSON: the server's raw vs
// on-the-wire update bytes (server -> client), the client's sent bytes
// and compressed-release count (client -> server), and the reduction
// ratio per cell.
//
// Usage: server_scaling [cycles-per-thread]   (default 2000)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "interweave/interweave.hpp"
#include "net/tcp.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "wire/coherence.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

constexpr uint32_t kUnits = 8192;     // int32 array units per block (32 KiB)
constexpr uint32_t kRunUnits = 2048;  // units modified per cycle (8 KiB)

/// The seed's concurrency model: one mutex in front of the whole server.
class GlobalLockCore final : public ServerCore {
 public:
  explicit GlobalLockCore(ServerCore& inner) : inner_(inner) {}

  void on_connect(SessionId session, Notifier notify) override {
    std::lock_guard lock(mu_);
    inner_.on_connect(session, std::move(notify));
  }
  void on_disconnect(SessionId session) override {
    std::lock_guard lock(mu_);
    inner_.on_disconnect(session);
  }
  Frame handle(SessionId session, const Frame& request) override {
    std::lock_guard lock(mu_);
    return inner_.handle(session, request);
  }

 private:
  std::mutex mu_;
  ServerCore& inner_;
};

Frame call(TcpClientChannel& ch, MsgType type,
           const std::function<void(Buffer&)>& fill) {
  Buffer payload;
  fill(payload);
  return ch.call(type, std::move(payload));
}

/// One client thread's lock/modify/update loop on its own segment.
/// Returns per-cycle latencies in nanoseconds (one cycle = AcquireWrite +
/// ReleaseWrite of an 8 KiB diff, plus a from-scratch AcquireRead every 4th
/// cycle that makes the server collect the whole 32 KiB block).
std::vector<uint64_t> client_loop(uint16_t port, int thread_id, int cycles,
                                  uint64_t* requests_out) {
  using Clock = std::chrono::steady_clock;
  std::string seg = "bench/scale" + std::to_string(thread_id);
  TcpClientChannel ch(port);
  uint64_t requests = 0;

  call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
    p.append_lp_string(seg);
    p.append_u8(1);
  });
  TypeRegistry scratch(Platform::native().rules);
  call(ch, MsgType::kRegisterType, [&](Buffer& p) {
    p.append_lp_string(seg);
    TypeCodec::encode_graph(
        scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), kUnits), p);
  });
  requests += 2;

  uint32_t version = 1;
  uint32_t serial = 0;
  std::vector<uint64_t> latencies;
  latencies.reserve(cycles);

  for (int c = 0; c < cycles; ++c) {
    auto start = Clock::now();
    Frame acq = call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_vstring(seg);
      p.append_varint(version);
    });
    uint32_t next_serial = acq.reader().read_varint32();
    call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
      p.append_vstring(seg);
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
    ++version;
    requests += 2;
    if (c % 4 == 0) {
      // A cold reader: assumed version 0 forces the server to collect and
      // ship the full block under the segment lock.
      call(ch, MsgType::kAcquireRead, [&](Buffer& p) {
        p.append_vstring(seg);
        p.append_varint(0);
        p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
        p.append_varint(0);
      });
      ++requests;
    }
    latencies.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
  }
  *requests_out = requests;
  return latencies;
}

struct RunResult {
  double requests_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

RunResult run_config(bool sharded, int threads, int cycles) {
  server::SegmentServer core;
  GlobalLockCore global(core);
  TcpServer server(sharded ? static_cast<ServerCore&>(core)
                           : static_cast<ServerCore&>(global),
                   0);

  std::vector<std::vector<uint64_t>> latencies(threads);
  std::vector<uint64_t> requests(threads, 0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      latencies[t] = client_loop(server.port(), t, cycles, &requests[t]);
    });
  }
  for (auto& w : workers) w.join();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  server.shutdown();

  std::vector<uint64_t> all;
  uint64_t total_requests = 0;
  for (int t = 0; t < threads; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    total_requests += requests[t];
  }
  std::sort(all.begin(), all.end());
  auto pct = [&](double q) {
    if (all.empty()) return 0.0;
    size_t idx = std::min(all.size() - 1,
                          static_cast<size_t>(q * static_cast<double>(
                                                      all.size())));
    return static_cast<double>(all[idx]) / 1000.0;  // ns -> us
  };
  RunResult r;
  r.requests_per_sec = static_cast<double>(total_requests) / seconds;
  r.p50_us = pct(0.50);
  r.p99_us = pct(0.99);
  return r;
}

// --- connection scaling over the epoll reactor ----------------------------

constexpr int kConnSegments = 32;
constexpr uint32_t kConnUnits = 256;      // int32 units per block (1 KiB)
constexpr uint32_t kConnRunUnits = 64;    // units per writer commit (256 B)
constexpr int kBurstPings = 8;            // pipelined pings per reader burst

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string conn_segment(int index) {
  return "bench/conn" + std::to_string(index % kConnSegments);
}

/// Minimal blocking raw connection with an incremental frame parser — the
/// reader side of the bench deliberately speaks the wire format directly so
/// it can pipeline a whole burst in one write.
struct RawConn {
  int fd = -1;
  std::vector<uint8_t> buf;
  size_t pos = 0;

  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      throw std::runtime_error(std::string("connect: ") +
                               std::strerror(errno));
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send_all(const Buffer& bytes) {
    const uint8_t* p = bytes.data();
    size_t n = bytes.size();
    while (n > 0) {
      ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      if (w <= 0) throw std::runtime_error("send");
      p += static_cast<size_t>(w);
      n -= static_cast<size_t>(w);
    }
  }

  Frame read_frame() {
    for (;;) {
      if (buf.size() - pos >= kFrameHeaderSize) {
        FrameHeader h = decode_frame_header(buf.data() + pos);
        if (buf.size() - pos >= kFrameHeaderSize + h.payload_size) {
          Frame f;
          f.type = h.type;
          f.request_id = h.request_id;
          const uint8_t* body = buf.data() + pos + kFrameHeaderSize;
          f.payload.assign(body, body + h.payload_size);
          pos += kFrameHeaderSize + h.payload_size;
          if (pos == buf.size()) {
            buf.clear();
            pos = 0;
          }
          return f;
        }
      }
      if (pos > 0 && buf.size() > (64u << 10)) {
        buf.erase(buf.begin(), buf.begin() + static_cast<long>(pos));
        pos = 0;
      }
      uint8_t chunk[16 << 10];
      ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
      if (r <= 0) throw std::runtime_error("recv");
      buf.insert(buf.end(), chunk, chunk + r);
    }
  }
};

Buffer encode_req(MsgType type, uint32_t request_id, const Buffer& payload) {
  Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload.assign(payload.data(), payload.data() + payload.size());
  Buffer out;
  encode_frame(f, out);
  return out;
}

struct ConnScalingShared {
  uint16_t port = 0;
  std::vector<uint32_t> serials;   // seeded block serial per segment
  std::vector<uint32_t> versions;  // version after seeding per segment
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> notifications{0};
  std::atomic<uint64_t> errors{0};
};

/// Seeds every shared segment with one named 1 KiB block.
void seed_conn_segments(ConnScalingShared* sh) {
  TcpClientChannel ch(sh->port);
  TypeRegistry scratch(Platform::native().rules);
  for (int s = 0; s < kConnSegments; ++s) {
    std::string seg = conn_segment(s);
    call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
      p.append_lp_string(seg);
      p.append_u8(1);
    });
    call(ch, MsgType::kRegisterType, [&](Buffer& p) {
      p.append_lp_string(seg);
      TypeCodec::encode_graph(
          scratch.array_of(scratch.primitive(PrimitiveKind::kInt32),
                           kConnUnits),
          p);
    });
    Frame acq = call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_vstring(seg);
      p.append_varint(1);
    });
    uint32_t serial = acq.reader().read_varint32();
    Frame rel = call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
      p.append_vstring(seg);
      p.append_u8(payload_method::kRaw);
      DiffWriter w(p, 1, 2);
      w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, 1, "d");
      w.begin_run(0, kConnUnits);
      for (uint32_t i = 0; i < kConnUnits; ++i) p.append_u32(i);
      w.end_block();
      w.finish();
    });
    sh->serials.push_back(serial);
    sh->versions.push_back(rel.reader().read_varint32());
  }
}

/// One writer channel committing small runs to its segment; every commit
/// fans a NotifyVersion to the segment's subscribed reader connections.
void conn_writer_loop(ConnScalingShared* sh, int index) {
  try {
    std::string seg = conn_segment(index);
    TcpClientChannel ch(sh->port);
    ch.set_notify_handler([sh](const Frame&) {
      sh->notifications.fetch_add(1, std::memory_order_relaxed);
    });
    call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
      p.append_lp_string(seg);
      p.append_u8(0);
    });
    call(ch, MsgType::kSubscribe,
         [&](Buffer& p) { p.append_lp_string(seg); });
    uint32_t version = sh->versions[static_cast<size_t>(index)];
    uint32_t serial = sh->serials[static_cast<size_t>(index)];
    sh->ready.fetch_add(1);
    // Coarse poll: with ~1,000 parked threads on few cores, a tight sleep
    // loop here would starve the threads still connecting.
    while (!sh->go.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    uint64_t iter = 0;
    while (!sh->stop.load(std::memory_order_acquire)) {
      call(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
        p.append_vstring(seg);
        p.append_varint(version);
      });
      Frame rel = call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
        p.append_vstring(seg);
        p.append_u8(payload_method::kRaw);
        DiffWriter w(p, version, version + 1);
        w.begin_block(serial, 0);
        uint32_t at = static_cast<uint32_t>(iter * kConnRunUnits) %
                      kConnUnits;
        w.begin_run(at, kConnRunUnits);
        for (uint32_t i = 0; i < kConnRunUnits; ++i) {
          p.append_u32(static_cast<uint32_t>(iter));
        }
        w.end_block();
        w.finish();
      });
      version = rel.reader().read_varint32();
      sh->requests.fetch_add(2, std::memory_order_relaxed);
      ++iter;
      uint64_t jitter_us = mix64(static_cast<uint64_t>(index) * 7919 + iter) %
                           20'000;
      std::this_thread::sleep_for(
          std::chrono::microseconds(40'000 + jitter_us));
    }
  } catch (const std::exception&) {
    sh->errors.fetch_add(1, std::memory_order_relaxed);
    sh->ready.fetch_add(1);  // never wedge the start barrier
  }
}

/// One reader connection: subscribes to its segment, then fires bursts of
/// kBurstPings pipelined pings (every 4th burst also a cold whole-block
/// AcquireRead) in a single write and times the whole burst round trip.
void conn_reader_loop(ConnScalingShared* sh, int index,
                      std::vector<uint64_t>* burst_ns) {
  using Clock = std::chrono::steady_clock;
  try {
    std::string seg = conn_segment(index);
    RawConn conn(sh->port);
    Buffer open_payload;
    open_payload.append_lp_string(seg);
    open_payload.append_u8(0);
    conn.send_all(encode_req(MsgType::kOpenSegment, 1, open_payload));
    Buffer sub_payload;
    sub_payload.append_lp_string(seg);
    conn.send_all(encode_req(MsgType::kSubscribe, 2, sub_payload));
    for (int got = 0; got < 2;) {
      if (conn.read_frame().request_id != 0) ++got;
    }
    sh->ready.fetch_add(1);
    // Coarse poll: with ~1,000 parked threads on few cores, a tight sleep
    // loop here would starve the threads still connecting.
    while (!sh->go.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    uint64_t iter = 0;
    uint32_t next_id = 10;
    while (!sh->stop.load(std::memory_order_acquire)) {
      Buffer burst;
      int expected = kBurstPings;
      uint32_t first_id = next_id;
      for (int i = 0; i < kBurstPings; ++i) {
        Buffer one = encode_req(MsgType::kPing, next_id++, Buffer());
        burst.append(one.data(), one.size());
      }
      if (iter % 4 == 0) {
        Buffer rp;
        rp.append_vstring(seg);
        rp.append_varint(0);  // cold: server collects the whole block
        rp.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
        rp.append_varint(0);
        Buffer one = encode_req(MsgType::kAcquireRead, next_id++, rp);
        burst.append(one.data(), one.size());
        ++expected;
      }
      auto start = Clock::now();
      conn.send_all(burst);
      for (int got = 0; got < expected;) {
        Frame f = conn.read_frame();
        if (f.request_id == 0) {
          sh->notifications.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (f.request_id >= first_id) ++got;
      }
      burst_ns->push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()));
      sh->requests.fetch_add(static_cast<uint64_t>(expected),
                             std::memory_order_relaxed);
      ++iter;
      uint64_t jitter_us =
          mix64(static_cast<uint64_t>(index) * 104'729 + iter) % 10'000;
      std::this_thread::sleep_for(
          std::chrono::microseconds(20'000 + jitter_us));
    }
  } catch (const std::exception&) {
    sh->errors.fetch_add(1, std::memory_order_relaxed);
    sh->ready.fetch_add(1);
  }
}

int run_connection_scaling(int connections, double seconds) {
  // ~2 fds per connection (client + server end) plus slack.
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0) {
    rlim_t want = static_cast<rlim_t>(connections) * 2 + 512;
    if (lim.rlim_cur < want && want <= lim.rlim_max) {
      lim.rlim_cur = want;
      ::setrlimit(RLIMIT_NOFILE, &lim);
    }
  }

  server::SegmentServer core;
  TcpServer server(core, 0);
  ConnScalingShared sh;
  sh.port = server.port();
  seed_conn_segments(&sh);

  int writers = std::min(connections, kConnSegments);
  int readers = connections - writers;
  std::vector<std::vector<uint64_t>> bursts(
      static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back(conn_writer_loop, &sh, w);
  }
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(conn_reader_loop, &sh, writers + r,
                         &bursts[static_cast<size_t>(r)]);
  }
  while (sh.ready.load() < connections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ReactorStats before = server.stats();
  auto start = std::chrono::steady_clock::now();
  sh.go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000)));
  sh.stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ReactorStats after = server.stats();
  server.shutdown();

  std::vector<uint64_t> all;
  for (auto& b : bursts) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  auto pct = [&](double q) {
    if (all.empty()) return 0.0;
    size_t idx = std::min(
        all.size() - 1,
        static_cast<size_t>(q * static_cast<double>(all.size())));
    return static_cast<double>(all[idx]) / 1000.0;  // ns -> us
  };

  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  uint64_t frames_sent = after.frames_sent - before.frames_sent;
  uint64_t sendmsg_calls = after.sendmsg_calls - before.sendmsg_calls;
  double frames_per_syscall =
      static_cast<double>(frames_sent) /
      static_cast<double>(std::max<uint64_t>(1, sendmsg_calls));
  std::printf(
      "[\n  {\"bench\": \"connection_scaling\", \"connections\": %d, "
      "\"cores\": %u, \"connections_per_core\": %.0f, \"seconds\": %.2f, "
      "\"requests\": %llu, \"requests_per_sec\": %.0f, "
      "\"burst_p50_us\": %.1f, \"burst_p99_us\": %.1f, "
      "\"frames_sent\": %llu, \"sendmsg_calls\": %llu, "
      "\"frames_per_syscall\": %.2f, \"frames_batched\": %llu, "
      "\"epoll_wakeups\": %llu, \"recv_calls\": %llu, "
      "\"notifications\": %llu, \"backpressure_stalls\": %llu, "
      "\"worker_queue_depth_max\": %llu, \"workers_spawned\": %llu, "
      "\"errors\": %llu}\n]\n",
      connections, cores, static_cast<double>(connections) / cores, elapsed,
      static_cast<unsigned long long>(sh.requests.load()),
      static_cast<double>(sh.requests.load()) / elapsed, pct(0.50), pct(0.99),
      static_cast<unsigned long long>(frames_sent),
      static_cast<unsigned long long>(sendmsg_calls), frames_per_syscall,
      static_cast<unsigned long long>(after.frames_batched),
      static_cast<unsigned long long>(after.epoll_wakeups),
      static_cast<unsigned long long>(after.recv_calls),
      static_cast<unsigned long long>(sh.notifications.load()),
      static_cast<unsigned long long>(after.backpressure_stalls),
      static_cast<unsigned long long>(after.worker_queue_depth_max),
      static_cast<unsigned long long>(after.workers_spawned),
      static_cast<unsigned long long>(sh.errors.load()));
  return sh.errors.load() == 0 ? 0 : 1;
}

// --- hot-segment read scaling (distributed lock caching) ------------------

constexpr uint32_t kHotUnits = 4;  // one int32[4] block: the segment is hot,
                                   // not big — lock traffic dominates.

struct HotReadResult {
  uint64_t critical_sections = 0;
  double requests_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t lock_rpcs = 0;
  double lock_rpcs_per_cs = 0.0;
  uint64_t lock_cache_hits = 0;
  uint64_t revokes_sent = 0;
  uint64_t revokes_acked = 0;
  uint64_t revokes_expired = 0;
  uint64_t writer_commits = 0;
  double writer_acquire_max_us = 0.0;
};

/// One hot-read run: `readers` full clients spin on read critical sections
/// over a single shared kFull segment while a writer commits every ~250 ms.
/// The no-cache baseline runs its readers without auto_reconnect: they never
/// say hello, so the server never grants them a cached lock and every
/// critical section pays one kAcquireRead RPC (the client never sends a
/// kReleaseRead for an unmodified kFull read, so the honest baseline is 1.0
/// RPC per CS, not 2.0). With caching on, one RPC is amortized across every
/// CS between writer commits; the commits trigger revocations whose acks
/// bound the writer's acquire latency.
HotReadResult run_hot_read(bool caching, int readers, double seconds) {
  server::SegmentServer core;  // default revocation deadline: 2000 ms
  TcpServer server(core, 0);
  const uint16_t port = server.port();
  auto factory = [port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  };
  const std::string url = "bench/hot";
  const std::string mip = url + "#a#0";

  Client writer(factory);
  ClientSegment* wseg = writer.open_segment(url);
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), kHotUnits);
  writer.write_lock(wseg);
  auto* seeded = static_cast<int32_t*>(writer.malloc_block(wseg, arr, "a"));
  for (uint32_t i = 0; i < kHotUnits; ++i) seeded[i] = 1;
  writer.write_unlock(wseg);

  Client::Options ropts;
  ropts.auto_reconnect = caching;  // no hello, no cached grants
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ClientSegment*> segs;
  for (int i = 0; i < readers; ++i) {
    clients.push_back(std::make_unique<Client>(factory, ropts));
    segs.push_back(clients.back()->open_segment(url, false));
  }

  constexpr size_t kMaxSamples = 1u << 20;
  std::atomic<bool> stop{false};
  std::vector<uint64_t> cs_counts(static_cast<size_t>(readers), 0);
  std::vector<std::vector<uint64_t>> lat(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients[static_cast<size_t>(i)];
      ClientSegment* seg = segs[static_cast<size_t>(i)];
      auto& samples = lat[static_cast<size_t>(i)];
      samples.reserve(kMaxSamples / 4);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto t0 = std::chrono::steady_clock::now();
        c.read_lock(seg);
        auto* p = static_cast<volatile int32_t*>(c.mip_to_ptr(mip));
        if (p != nullptr) (void)p[0];
        c.read_unlock(seg);
        auto t1 = std::chrono::steady_clock::now();
        // Cached hits run in the millions per second; sample 1-in-16 so the
        // latency vector stays bounded over a multi-second run.
        if ((n & 15u) == 0 && samples.size() < kMaxSamples) {
          samples.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        }
        ++n;
      }
      cs_counts[static_cast<size_t>(i)] = n;
    });
  }

  // Writer: one commit every ~250 ms. Under caching each commit revokes
  // every reader's cached lock, so write_lock's latency is the revocation
  // round-trip — it must stay under the server's revocation deadline.
  uint64_t commits = 0;
  uint64_t acquire_max_ns = 0;
  auto t_start = std::chrono::steady_clock::now();
  auto t_end = t_start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < t_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    auto a0 = std::chrono::steady_clock::now();
    writer.write_lock(wseg);
    auto a1 = std::chrono::steady_clock::now();
    auto* blk = wseg->heap().find_by_name("a");
    auto* d =
        reinterpret_cast<int32_t*>(const_cast<uint8_t*>(blk->data()));
    d[0] += 1;
    writer.write_unlock(wseg);
    ++commits;
    acquire_max_ns = std::max(
        acquire_max_ns,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(a1 - a0)
                .count()));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t_start)
                       .count();

  HotReadResult r;
  std::vector<uint64_t> all;
  for (int i = 0; i < readers; ++i) {
    r.critical_sections += cs_counts[static_cast<size_t>(i)];
    auto s = clients[static_cast<size_t>(i)]->stats();
    r.lock_rpcs += s.read_lock_server_calls;
    r.lock_cache_hits += s.lock_cache_hits;
    all.insert(all.end(), lat[static_cast<size_t>(i)].begin(),
               lat[static_cast<size_t>(i)].end());
  }
  std::sort(all.begin(), all.end());
  auto pct = [&](double q) {
    if (all.empty()) return 0.0;
    size_t idx = std::min(
        all.size() - 1,
        static_cast<size_t>(q * static_cast<double>(all.size())));
    return static_cast<double>(all[idx]) / 1000.0;  // ns -> us
  };
  r.requests_per_sec = static_cast<double>(r.critical_sections) / elapsed;
  r.p50_us = pct(0.50);
  r.p99_us = pct(0.99);
  r.lock_rpcs_per_cs =
      r.critical_sections == 0
          ? 0.0
          : static_cast<double>(r.lock_rpcs) /
                static_cast<double>(r.critical_sections);
  auto ss = core.stats();
  r.revokes_sent = ss.revokes_sent;
  r.revokes_acked = ss.revokes_acked;
  r.revokes_expired = ss.revokes_expired;
  r.writer_commits = commits;
  r.writer_acquire_max_us = static_cast<double>(acquire_max_ns) / 1000.0;
  return r;
}

int run_hot_read_main(int readers, double seconds) {
  HotReadResult on = run_hot_read(true, readers, seconds);
  HotReadResult off = run_hot_read(false, readers, seconds);
  std::printf("[\n");
  bool first = true;
  for (bool caching : {true, false}) {
    const HotReadResult& r = caching ? on : off;
    std::printf(
        "%s  {\"bench\": \"hot_read\", \"lock_caching\": \"%s\", "
        "\"readers\": %d, \"seconds\": %.1f, "
        "\"critical_sections\": %llu, \"requests_per_sec\": %.0f, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, "
        "\"lock_rpcs\": %llu, \"lock_rpcs_per_cs\": %.4f, "
        "\"lock_cache_hits\": %llu, \"revokes_sent\": %llu, "
        "\"revokes_acked\": %llu, \"revokes_expired\": %llu, "
        "\"writer_commits\": %llu, \"writer_acquire_max_us\": %.0f}",
        first ? "" : ",\n", caching ? "on" : "off", readers, seconds,
        static_cast<unsigned long long>(r.critical_sections),
        r.requests_per_sec, r.p50_us, r.p99_us,
        static_cast<unsigned long long>(r.lock_rpcs), r.lock_rpcs_per_cs,
        static_cast<unsigned long long>(r.lock_cache_hits),
        static_cast<unsigned long long>(r.revokes_sent),
        static_cast<unsigned long long>(r.revokes_acked),
        static_cast<unsigned long long>(r.revokes_expired),
        static_cast<unsigned long long>(r.writer_commits),
        r.writer_acquire_max_us);
    first = false;
  }
  std::printf(
      ",\n  {\"bench\": \"hot_read\", \"readers\": %d, "
      "\"rpc_reduction\": %.1f, \"throughput_ratio_on_vs_off\": %.1f}\n]\n",
      readers,
      off.lock_rpcs_per_cs / std::max(on.lock_rpcs_per_cs, 1e-9),
      on.requests_per_sec / std::max(off.requests_per_sec, 1.0));
  return 0;
}

// ----------------------------------------------------------- update bytes

constexpr uint32_t kUpdUnits = 16384;  // int32 units per commit (64 KiB)

struct UpdateBytesResult {
  uint64_t commits = 0;
  uint64_t updates_compressed = 0;
  uint64_t update_raw_bytes = 0;
  uint64_t update_wire_bytes = 0;
  uint64_t client_bytes_sent = 0;
  uint64_t diffs_compressed = 0;
};

/// One payload-wire cell: the writer commits the whole array each round
/// (constant fill = compressible, xorshift fill = not) and the reader's
/// read_lock pulls the update, so every diff crosses the section envelope
/// in both directions.
UpdateBytesResult run_update_bytes(bool compress, bool compressible,
                                   int rounds) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = compress;
  server::SegmentServer core(sopts);
  auto factory = [&core](const std::string&) {
    return std::make_shared<InProcChannel>(core);
  };
  Client writer(factory);
  Client reader(factory);

  const std::string url = "bench/wire";
  ClientSegment* wseg = writer.open_segment(url);
  ClientSegment* rseg = reader.open_segment(url);
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), kUpdUnits);

  uint32_t noise = 0x9e3779b9u;
  int32_t* data = nullptr;
  for (int round = 0; round < rounds; ++round) {
    writer.write_lock(wseg);
    if (data == nullptr) {
      data = static_cast<int32_t*>(writer.malloc_block(wseg, arr, "w"));
    }
    for (uint32_t i = 0; i < kUpdUnits; ++i) {
      if (compressible) {
        data[i] = round;
      } else {
        noise ^= noise << 13;
        noise ^= noise >> 17;
        noise ^= noise << 5;
        data[i] = static_cast<int32_t>(noise);
      }
    }
    writer.write_unlock(wseg);
    reader.read_lock(rseg);
    reader.read_unlock(rseg);
  }

  UpdateBytesResult r;
  r.commits = static_cast<uint64_t>(rounds);
  auto ss = core.stats();
  r.updates_compressed = ss.updates_compressed;
  r.update_raw_bytes = ss.update_raw_bytes;
  r.update_wire_bytes = ss.update_wire_bytes;
  r.client_bytes_sent = writer.bytes_sent();
  r.diffs_compressed = writer.stats().diffs_compressed;
  return r;
}

int run_update_bytes_main(int rounds) {
  std::printf("[\n");
  bool first = true;
  for (bool compress : {true, false}) {
    for (bool compressible : {true, false}) {
      UpdateBytesResult r = run_update_bytes(compress, compressible, rounds);
      double wire_ratio =
          r.update_raw_bytes == 0
              ? 1.0
              : static_cast<double>(r.update_wire_bytes) /
                    static_cast<double>(r.update_raw_bytes);
      std::printf(
          "%s  {\"bench\": \"update_bytes\", \"compress\": \"%s\", "
          "\"data\": \"%s\", \"rounds\": %d, \"commit_bytes\": %u, "
          "\"updates_compressed\": %llu, \"update_raw_bytes\": %llu, "
          "\"update_wire_bytes\": %llu, \"wire_ratio\": %.3f, "
          "\"client_bytes_sent\": %llu, \"diffs_compressed\": %llu}",
          first ? "" : ",\n", compress ? "on" : "off",
          compressible ? "compressible" : "incompressible", rounds,
          kUpdUnits * 4,
          static_cast<unsigned long long>(r.updates_compressed),
          static_cast<unsigned long long>(r.update_raw_bytes),
          static_cast<unsigned long long>(r.update_wire_bytes), wire_ratio,
          static_cast<unsigned long long>(r.client_bytes_sent),
          static_cast<unsigned long long>(r.diffs_compressed));
      first = false;
    }
  }
  std::printf("\n]\n");
  return 0;
}

}  // namespace
}  // namespace iw

int main(int argc, char** argv) {
  int connections = 0;
  double bench_seconds = 5.0;
  bool hot_read = false;
  bool update_bytes = false;
  int readers = 4;
  int rounds = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      bench_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--hot-read") == 0) {
      hot_read = true;
    } else if (std::strcmp(argv[i], "--readers") == 0 && i + 1 < argc) {
      readers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--update-bytes") == 0) {
      update_bytes = true;
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    }
  }
  if (update_bytes) {
    return iw::run_update_bytes_main(rounds);
  }
  if (hot_read) {
    return iw::run_hot_read_main(readers, bench_seconds);
  }
  if (connections > 0) {
    return iw::run_connection_scaling(connections, bench_seconds);
  }

  int cycles = argc > 1 ? std::atoi(argv[1]) : 2000;
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("[\n");
  bool first = true;
  for (int threads : {1, 2, 4, 8}) {
    iw::RunResult sharded = iw::run_config(true, threads, cycles);
    iw::RunResult global = iw::run_config(false, threads, cycles);
    for (bool is_sharded : {true, false}) {
      const iw::RunResult& r = is_sharded ? sharded : global;
      std::printf(
          "%s  {\"bench\": \"server_scaling\", \"mode\": \"%s\", "
          "\"threads\": %d, \"segments\": %d, \"cores\": %u, "
          "\"cycles_per_thread\": %d, \"requests_per_sec\": %.0f, "
          "\"p50_us\": %.1f, \"p99_us\": %.1f}",
          first ? "" : ",\n", is_sharded ? "sharded" : "global_lock", threads,
          threads, cores, cycles, r.requests_per_sec, r.p50_us, r.p99_us);
      first = false;
    }
    std::printf(",\n  {\"bench\": \"server_scaling\", \"threads\": %d, "
                "\"cores\": %u, \"speedup_sharded_vs_global\": %.2f}",
                threads, cores, sharded.requests_per_sec / global.requests_per_sec);
  }
  std::printf("\n]\n");
  return 0;
}
