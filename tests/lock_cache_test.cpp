// Distributed lock caching: a client retains its reader lock after
// release and satisfies repeat acquires with zero RPCs; the server revokes
// cached locks when a writer arrives (bounded by the revocation deadline);
// concurrent local threads sub-let one cached lock. Every session caches:
// binding a segment handle requires kHello, so every lock frame comes from
// a version-checked session.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "interweave/interweave.hpp"
#include "support/thread_count.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

using client::ReconnectingChannel;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

Client::ChannelFactory inproc_factory(ServerCore& core) {
  return [&core](const std::string&) {
    return std::make_shared<InProcChannel>(core);
  };
}

/// Creates (or updates) `url`'s one named int32[4] block "a" = `value`.
void seed_segment(Client& writer, ClientSegment* seg, int32_t value) {
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), 4);
  writer.write_lock(seg);
  client::BlockHeader* blk = seg->heap().find_by_name("a");
  auto* data = blk != nullptr
                   ? reinterpret_cast<int32_t*>(
                         const_cast<uint8_t*>(blk->data()))
                   : static_cast<int32_t*>(writer.malloc_block(seg, arr, "a"));
  for (int i = 0; i < 4; ++i) data[i] = value;
  writer.write_unlock(seg);
}

int32_t read_value(Client& reader, ClientSegment* seg,
                   const std::string& url) {
  reader.read_lock(seg);
  auto* p = static_cast<int32_t*>(reader.mip_to_ptr(url + "#a#0"));
  int32_t v = p == nullptr ? -1 : p[0];
  reader.read_unlock(seg);
  return v;
}

TEST(LockCache, RepeatReadAcquiresHitCacheWithoutRpc) {
  server::SegmentServer core;
  const std::string url = "host/cache-hit";
  Client writer(inproc_factory(core));
  seed_segment(writer, writer.open_segment(url), 7);

  Client reader(inproc_factory(core));
  ClientSegment* rs = reader.open_segment(url);
  EXPECT_EQ(read_value(reader, rs, url), 7);  // pays the RPC, earns the grant
  const uint64_t server_calls = reader.stats().read_lock_server_calls;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(read_value(reader, rs, url), 7);
  }
  ClientStats stats = reader.stats();
  EXPECT_EQ(stats.lock_cache_hits, 10u);
  EXPECT_EQ(stats.lock_cache_misses, 1u);
  EXPECT_EQ(stats.read_lock_server_calls, server_calls)
      << "cached acquires must cost zero RPCs";
  EXPECT_GE(core.stats().cached_read_grants, 1u);
}

TEST(LockCache, WriterRevokesIdleCachedLock) {
  server::SegmentServer core;
  const std::string url = "host/revoke-idle";
  Client writer(inproc_factory(core));
  ClientSegment* ws = writer.open_segment(url);
  seed_segment(writer, ws, 1);

  Client reader(inproc_factory(core));
  ClientSegment* rs = reader.open_segment(url);
  EXPECT_EQ(read_value(reader, rs, url), 1);  // lock now cached, reader idle

  // The writer must drain the cached lock before committing; the reader's
  // ack thread releases it without any reader-side activity.
  seed_segment(writer, ws, 2);

  server::SegmentServer::Stats sstats = core.stats();
  EXPECT_EQ(sstats.revokes_sent, 1u);
  EXPECT_EQ(sstats.revokes_acked, 1u);
  EXPECT_EQ(sstats.revokes_expired, 0u);
  // The ack counter is bumped by the reader's ack thread just after the
  // server processes the ack; allow it a moment.
  for (int spin = 0; spin < 200 && reader.stats().revokes_acked == 0; ++spin) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(reader.stats().revokes_acked, 1u);

  // The cached entry is gone: the next read pays an RPC and sees the new
  // data (the zero-RPC fast path would have been unsound here otherwise).
  const uint64_t misses = reader.stats().lock_cache_misses;
  EXPECT_EQ(read_value(reader, rs, url), 2);
  EXPECT_EQ(reader.stats().lock_cache_misses, misses + 1);
}

/// Wraps a reader's channel and, once, runs `*race` after the server has
/// answered a kAcquireRead but before the client sees the answer: the
/// window in which a writer's kRevokeRead can overtake the grant.
class RevokeBeforeResponseChannel final : public ClientChannel {
 public:
  RevokeBeforeResponseChannel(std::shared_ptr<ClientChannel> inner,
                              std::function<void()>* race)
      : inner_(std::move(inner)), race_(race) {}

  using ClientChannel::call;
  Frame call(MsgType type, Buffer& payload) override {
    Frame resp = inner_->call(type, payload);
    if (type == MsgType::kAcquireRead && *race_) {
      std::function<void()> race = std::move(*race_);
      *race_ = nullptr;
      race();
    }
    return resp;
  }
  void set_notify_handler(std::function<void(const Frame&)> fn) override {
    inner_->set_notify_handler(std::move(fn));
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override { return inner_->bytes_received(); }

 private:
  std::shared_ptr<ClientChannel> inner_;
  std::function<void()>* race_;
};

TEST(LockCache, AckThreadStartsAtTheFirstRevoke) {
  // In-proc channels run no threads, so every thread that appears is a
  // client's revoke-ack worker.
  server::SegmentServer core;
  const std::string url = "host/ack-thread";
  const size_t before = thread_count();
  Client writer(inproc_factory(core));
  ClientSegment* ws = writer.open_segment(url);
  seed_segment(writer, ws, 1);
  {
    Client reader(inproc_factory(core));
    ClientSegment* rs = reader.open_segment(url);
    EXPECT_EQ(read_value(reader, rs, url), 1);  // caches the read lock
    EXPECT_EQ(thread_count(), before)
        << "a client that has acked nothing started its ack thread";

    seed_segment(writer, ws, 2);  // revokes the reader's cached lock
    EXPECT_EQ(core.stats().revokes_acked, 1u);
    EXPECT_EQ(thread_count(), before + 1)
        << "the revoked reader acks on a thread of its own; the writer, "
           "never revoked, runs none";
  }
  // A joined thread can linger in the task list for a moment.
  for (int spin = 0; spin < 200 && thread_count() != before; ++spin) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(thread_count(), before);
}

TEST(LockCache, RevokeOvertakingItsGrantIsNotCached) {
  server::SegmentServer core;
  const std::string url = "host/revoke-race";
  Client writer(inproc_factory(core));
  ClientSegment* ws = writer.open_segment(url);
  seed_segment(writer, ws, 1);

  std::function<void()> race;
  Client reader([&core, &race](const std::string&) {
    return std::make_shared<RevokeBeforeResponseChannel>(
        std::make_shared<InProcChannel>(core), &race);
  });
  ClientSegment* rs = reader.open_segment(url);
  // The server grants the reader a cached lock, then — before the grant
  // reaches the client — a writer commits 2. Its kRevokeRead arrives first,
  // finds no cache entry, and is acked at once, retiring the grant.
  race = [&] { seed_segment(writer, ws, 2); };
  EXPECT_EQ(read_value(reader, rs, url), 1);  // answered before the commit
  EXPECT_FALSE(race) << "the race never ran";
  server::SegmentServer::Stats sstats = core.stats();
  EXPECT_EQ(sstats.revokes_sent, 1u);
  EXPECT_EQ(sstats.revokes_acked, 1u);
  EXPECT_EQ(sstats.revokes_expired, 0u);
  // The retired grant must not be cached: the next read goes to the server
  // and sees the commit.
  const uint64_t misses = reader.stats().lock_cache_misses;
  EXPECT_EQ(read_value(reader, rs, url), 2);
  EXPECT_EQ(reader.stats().lock_cache_misses, misses + 1);
  // That read earned a fresh grant, which does cache.
  EXPECT_EQ(read_value(reader, rs, url), 2);
  EXPECT_EQ(reader.stats().lock_cache_misses, misses + 1);
}

TEST(LockCache, RevokeDefersToCriticalSectionExit) {
  server::SegmentServer core;
  const std::string url = "host/revoke-defer";
  Client writer(inproc_factory(core));
  ClientSegment* ws = writer.open_segment(url);
  seed_segment(writer, ws, 1);

  Client reader(inproc_factory(core));
  ClientSegment* rs = reader.open_segment(url);
  reader.read_lock(rs);  // inside the critical section, grant held

  std::atomic<bool> acquired{false};
  std::thread w([&] {
    writer.write_lock(ws);
    acquired.store(true);
    writer.write_unlock(ws);
  });
  // The revoke must not be honoured while a reader is inside.
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(acquired.load())
      << "writer acquired while a cached-lock reader was inside its CS";
  reader.read_unlock(rs);  // last reader out: deferred ack fires
  w.join();
  EXPECT_TRUE(acquired.load());

  server::SegmentServer::Stats sstats = core.stats();
  EXPECT_EQ(sstats.revokes_sent, 1u);
  EXPECT_EQ(sstats.revokes_acked, 1u);
  EXPECT_EQ(sstats.revokes_expired, 0u);
}

TEST(LockCache, SubletGrantsExtraLocalThreadUnderOneLock) {
  server::SegmentServer core;
  const std::string url = "host/sublet";
  Client writer(inproc_factory(core));
  seed_segment(writer, writer.open_segment(url), 5);

  Client reader(inproc_factory(core));
  ClientSegment* rs = reader.open_segment(url);
  reader.read_lock(rs);
  std::thread t([&] {
    reader.read_lock(rs);  // rides the first thread's lock: no RPC
    reader.read_unlock(rs);
  });
  t.join();
  reader.read_unlock(rs);
  EXPECT_EQ(reader.stats().sublet_grants, 1u);
  EXPECT_EQ(reader.stats().read_lock_server_calls, 1u);
}

TEST(LockCache, RevocationDeadlineBoundsWriterStall) {
  server::SegmentServer::Options sopts;
  sopts.revoke_deadline_ms = 150;
  sopts.writer_lease_ms = 60'000;  // longer than the test
  server::SegmentServer core(sopts);
  const std::string url = "host/revoke-deadline";
  Client writer(inproc_factory(core));
  ClientSegment* ws = writer.open_segment(url);
  seed_segment(writer, ws, 1);

  Client reader(inproc_factory(core));
  ClientSegment* rs = reader.open_segment(url);
  reader.read_lock(rs);  // stuck reader: never leaves the critical section

  // Writer starvation is bounded: the server force-expires the cached lock
  // at the revocation deadline instead of waiting on a sick client.
  auto start = steady_clock::now();
  writer.write_lock(ws);
  auto waited =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - start);
  writer.write_unlock(ws);
  EXPECT_GE(waited.count(), 100) << "writer did not wait for the revocation";
  EXPECT_LT(waited.count(), 2'000) << "writer stalled past the deadline";
  EXPECT_EQ(core.stats().revokes_expired, 1u);

  // The stuck reader eventually unlocks; its stale ack is idempotent and
  // the next acquire resynchronizes.
  reader.read_unlock(rs);
  seed_segment(writer, ws, 9);
  EXPECT_EQ(read_value(reader, rs, url), 9);
}

TEST(LockCache, ZeroRevokeDeadlineIsRejected) {
  // Every session caches read locks, so no deadline turns caching off; 0
  // would only let each writer force-expire every cached holder at once.
  server::SegmentServer::Options sopts;
  sopts.revoke_deadline_ms = 0;
  try {
    server::SegmentServer core(sopts);
    ADD_FAILURE() << "a zero revocation deadline was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(Lease, ZeroWriterLeaseIsRejected) {
  // Writer leases are always on: 0 would let a stalled writer hold a
  // segment until it disconnects, and no waiter could reclaim it.
  server::SegmentServer::Options sopts;
  sopts.writer_lease_ms = 0;
  try {
    server::SegmentServer core(sopts);
    ADD_FAILURE() << "a zero writer lease was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

// --- protocol level -------------------------------------------------------

/// Each raw session below binds its one segment to this handle.
constexpr uint32_t kHandle = 1;

/// Sends one raw frame. A session binds a handle only after kHello, so a
/// kOpenSegment says hello first (a repeated hello is harmless).
Frame raw_call(ClientChannel& ch, MsgType type, Buffer payload) {
  if (type == MsgType::kOpenSegment) ch.call(MsgType::kHello, hello_payload());
  return ch.call(type, std::move(payload));
}

Buffer open_payload(const std::string& url) {
  Buffer p;
  p.append_varint(kHandle);
  p.append_vstring(url);
  p.append_u8(1);
  return p;
}

Buffer acquire_read_payload() {
  Buffer p;
  p.append_varint(kHandle);
  p.append_varint(0);
  p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
  p.append_varint(0);
  return p;
}

Buffer acquire_write_payload() {
  Buffer p;
  p.append_varint(kHandle);
  p.append_varint(0);
  return p;
}

Buffer empty_release_payload(uint32_t version) {
  Buffer p;
  p.append_varint(kHandle);
  p.append_u8(payload_method::kRaw);
  DiffWriter(p, version, version).finish();
  return p;
}

TEST(LockCache, ExpiredGrantSweepReclaimsWedgedHolder) {
  server::SegmentServer::Options sopts;
  sopts.revoke_deadline_ms = 100;
  sopts.writer_lease_ms = 60'000;  // longer than the test
  server::SegmentServer core(sopts);
  const std::string url = "host/wedged";

  // A wedged holder: says hello, is granted a cached lock, and will never
  // ack a revoke. Nothing drops its grant while it is idle; the next
  // writer's drain does, at the revoke deadline.
  auto reader = std::make_shared<ReconnectingChannel>(
      [&core]() -> std::shared_ptr<ClientChannel> {
        return std::make_shared<InProcChannel>(core);
      },
      ReconnectingChannel::Options{});
  raw_call(*reader, MsgType::kOpenSegment, open_payload(url));
  Frame resp = raw_call(*reader, MsgType::kAcquireRead,
                        acquire_read_payload());
  ASSERT_FALSE(resp.payload.empty());
  ASSERT_EQ(resp.payload.back(), 1u) << "grant byte missing or denied";

  auto writer = std::make_shared<InProcChannel>(core);
  raw_call(*writer, MsgType::kOpenSegment, open_payload(url));
  auto start = steady_clock::now();
  raw_call(*writer, MsgType::kAcquireWrite, acquire_write_payload());
  auto waited =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - start);
  EXPECT_GE(waited.count(), 100) << "granted before the revoke deadline";
  EXPECT_LT(waited.count(), 5'000);
  const server::SegmentServer::Stats stats = core.stats();
  EXPECT_EQ(stats.revokes_sent, 1u);
  EXPECT_EQ(stats.revokes_acked, 0u);
  EXPECT_EQ(stats.revokes_expired, 1u);
  EXPECT_EQ(core.segment_epoch(url), 1u) << "a forced drop bumps the epoch";
  raw_call(*writer, MsgType::kReleaseWrite, empty_release_payload(0));
}

TEST(LockCache, WriterAppliesGrantTtlInlineWithoutSweep) {
  // An idle, live holder keeps its grant however long it idles: the next
  // writer revokes it, the holder acks, and its next Full read sees the
  // commit. A grant dropped without telling its holder would be served
  // from the stale cache instead.
  server::SegmentServer::Options sopts;
  sopts.revoke_deadline_ms = 400;
  sopts.writer_lease_ms = 60'000;  // longer than the test
  server::SegmentServer core(sopts);
  const std::string url = "host/idle-holder";
  Client writer(inproc_factory(core));
  ClientSegment* ws = writer.open_segment(url);
  seed_segment(writer, ws, 1);

  Client reader(inproc_factory(core));
  ClientSegment* rs = reader.open_segment(url);
  EXPECT_EQ(read_value(reader, rs, url), 1);  // earns the grant
  EXPECT_EQ(read_value(reader, rs, url), 1);
  EXPECT_EQ(reader.stats().lock_cache_hits, 1u);
  std::this_thread::sleep_for(milliseconds(120));  // idle past 60 ms

  seed_segment(writer, ws, 2);
  const server::SegmentServer::Stats stats = core.stats();
  EXPECT_EQ(stats.revokes_sent, 1u) << "the idle grant was not revoked";
  EXPECT_EQ(stats.revokes_acked, 1u);
  EXPECT_EQ(stats.revokes_expired, 0u);
  EXPECT_EQ(read_value(reader, rs, url), 2) << "a Full read served stale data";
}

// --- over real sockets ----------------------------------------------------

TEST(LockCacheTcp, RevokeRoundTripOverSockets) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  uint16_t port = server.port();
  auto factory = [port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  };

  Client writer(factory);
  ClientSegment* ws = writer.open_segment("host/tcp-revoke");
  seed_segment(writer, ws, 1);

  Client reader(factory);
  ClientSegment* rs = reader.open_segment("host/tcp-revoke");
  EXPECT_EQ(read_value(reader, rs, "host/tcp-revoke"), 1);
  EXPECT_EQ(read_value(reader, rs, "host/tcp-revoke"), 1);
  EXPECT_EQ(reader.stats().lock_cache_hits, 1u);

  seed_segment(writer, ws, 2);  // revokes the cached lock over the wire

  EXPECT_EQ(read_value(reader, rs, "host/tcp-revoke"), 2);
  server::SegmentServer::Stats sstats = core.stats();
  EXPECT_EQ(sstats.revokes_sent, 1u);
  EXPECT_EQ(sstats.revokes_acked, 1u);
  EXPECT_EQ(sstats.revokes_expired, 0u);
}

/// Forwards to `inner` and tells `seen` about each notification, on the
/// thread that handles it, before the client's handler runs.
class NotifySpyChannel final : public ClientChannel {
 public:
  NotifySpyChannel(std::shared_ptr<ClientChannel> inner,
                   std::function<void(const Frame&)> seen)
      : inner_(std::move(inner)), seen_(std::move(seen)) {}

  using ClientChannel::call;
  Frame call(MsgType type, Buffer& payload) override {
    return inner_->call(type, payload);
  }
  void set_notify_handler(std::function<void(const Frame&)> fn) override {
    if (fn == nullptr) {
      inner_->set_notify_handler(nullptr);
      return;
    }
    inner_->set_notify_handler([seen = seen_, fn](const Frame& frame) {
      seen(frame);
      fn(frame);
    });
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override { return inner_->bytes_received(); }
  void shutdown() noexcept override { inner_->shutdown(); }

 private:
  std::shared_ptr<ClientChannel> inner_;
  std::function<void(const Frame&)> seen_;
};

TEST(LockCacheTcp, RevokeReadByACallingThreadIsHandledWithoutDeadlock) {
  // A revoke that lands while the reader's thread is inside a call on the
  // same channel is read, and handled, by that thread: it holds the
  // reader's Client lock, so the handler must take neither it nor any lock
  // held across a call. Its ack is then a second call on the channel while
  // the first is still outstanding.
  server::SegmentServer::Options sopts;
  sopts.revoke_deadline_ms = 30'000;  // a lost ack would stall visibly
  server::SegmentServer core(sopts);
  TcpServer server(core, 0);
  const uint16_t port = server.port();
  auto factory = [port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  };
  const std::string a = "host/caller-revoke-a";
  const std::string b = "host/caller-revoke-b";
  Client writer(factory);
  ClientSegment* wa = writer.open_segment(a);
  seed_segment(writer, wa, 1);
  Client holder(factory);
  ClientSegment* hb = holder.open_segment(b);
  seed_segment(holder, hb, 1);

  std::mutex mu;
  std::condition_variable revoked_cv;
  std::vector<std::thread::id> revoked_on;
  Client reader([&](const std::string&) {
    return std::make_shared<NotifySpyChannel>(
        std::make_shared<TcpClientChannel>(port), [&](const Frame& frame) {
          if (frame.type != MsgType::kRevokeRead) return;
          {
            std::lock_guard lock(mu);
            revoked_on.push_back(std::this_thread::get_id());
          }
          revoked_cv.notify_all();
        });
  });
  ClientSegment* ra = reader.open_segment(a);
  ClientSegment* rb = reader.open_segment(b);
  EXPECT_EQ(read_value(reader, ra, a), 1);  // caches the read lock on a

  // The reader's write acquire on b waits behind the holder's lock.
  holder.write_lock(hb);
  std::thread::id caller_id;
  std::atomic<bool> acquired{false};
  std::thread caller([&] {
    caller_id = std::this_thread::get_id();
    reader.write_lock(rb);
    acquired.store(true);
    reader.write_unlock(rb);
  });
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(acquired.load());

  // A commit on a revokes the reader's cached lock while its thread waits.
  // The server runs the ack after the blocked acquire (one session's
  // requests run in order), so b is released once the revoke is in.
  const auto start = steady_clock::now();
  std::thread commit([&] { seed_segment(writer, wa, 2); });
  {
    std::unique_lock lock(mu);
    EXPECT_TRUE(revoked_cv.wait_for(lock, std::chrono::seconds(5),
                                    [&] { return !revoked_on.empty(); }))
        << "the revoke never arrived";
  }
  holder.write_unlock(hb);
  caller.join();
  commit.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(10))
      << "the writer waited toward the revocation deadline";
  {
    std::lock_guard lock(mu);
    ASSERT_EQ(revoked_on.size(), 1u);
    EXPECT_EQ(revoked_on[0], caller_id)
        << "the revoke was not read by the thread inside the call";
  }
  EXPECT_EQ(core.stats().revokes_acked, 1u);
  EXPECT_EQ(core.stats().revokes_expired, 0u);
  EXPECT_EQ(read_value(reader, ra, a), 2);
}

TEST(LockCacheTcp, ClientDestroyedWhileRevokesArrive) {
  // Revokes run on each channel's receiver thread (or a thread inside a
  // call on it). Destroying a reader while a writer's kRevokeRead frames
  // are landing must neither hang nor leave the last channel reference on
  // that receiver (which would have the channel join its own thread).
  server::SegmentServer::Options sopts;
  sopts.revoke_deadline_ms = 1'000;  // bounds a writer whose revoke is lost
  server::SegmentServer core(sopts);
  TcpServer server(core, 0);
  const uint16_t port = server.port();
  auto factory = [port](const std::string&) {
    return std::make_shared<TcpClientChannel>(port);
  };
  constexpr int kSegments = 4;
  auto url = [](int s) { return "host/teardown" + std::to_string(s); };
  // The committing thread takes write faults, and its SIGSEGV handler
  // looks up the fault registry while this thread unregisters the
  // reader's pages.
  Client writer(factory);
  std::vector<ClientSegment*> ws;
  for (int s = 0; s < kSegments; ++s) {
    ws.push_back(writer.open_segment(url(s)));
    seed_segment(writer, ws.back(), 0);
  }

  const auto start = steady_clock::now();
  for (int round = 0; round < 20; ++round) {
    auto reader = std::make_unique<Client>(factory);
    std::vector<ClientSegment*> rs;
    for (int s = 0; s < kSegments; ++s) {
      rs.push_back(reader->open_segment(url(s)));
      EXPECT_EQ(read_value(*reader, rs[s], url(s)), round);  // caches it
    }
    // Every commit revokes the reader's cached lock on its segment. A
    // revoke that lands after its segment's close finds no handle, and
    // one that lands mid-teardown finds the ack worker stopped: neither
    // may leave the channel pinned on the receiver thread.
    std::thread commits([&] {
      for (int s = 0; s < kSegments; ++s) {
        seed_segment(writer, ws[s], round + 1);
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(250 * (round % 4)));
    for (int s = 0; s < kSegments; s += 2) reader->close_segment(rs[s]);
    reader.reset();
    commits.join();
  }
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(30));
  EXPECT_EQ(core.stats().revokes_expired, 0u)
      << "a disconnect or an ack retires every revoke; none waits out the "
         "deadline";
}

}  // namespace
}  // namespace iw
