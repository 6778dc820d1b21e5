// Coherence-model tests: Full, Delta(x), Temporal(x), Diff(x%), the
// adaptive polling/notification protocol, and bandwidth effects.
#include <gtest/gtest.h>

#include <thread>

#include "interweave/interweave.hpp"

namespace iw {
namespace {

class Coherence : public ::testing::Test {
 protected:
  Coherence() {
    factory_ = [this](const std::string&) {
      return std::make_shared<InProcChannel>(server_);
    };
  }

  std::unique_ptr<Client> make_client() {
    return std::make_unique<Client>(factory_);
  }

  /// Writer bumps the segment version by touching one int.
  void bump(Client& writer, ClientSegment* seg, int32_t* data, int value) {
    writer.write_lock(seg);
    data[0] = value;
    writer.write_unlock(seg);
  }

  std::pair<ClientSegment*, int32_t*> make_shared_array(Client& writer,
                                                        const std::string& url) {
    const TypeDescriptor* arr = writer.types().array_of(
        writer.types().primitive(PrimitiveKind::kInt32), 1024);
    ClientSegment* seg = writer.open_segment(url);
    writer.write_lock(seg);
    auto* data = static_cast<int32_t*>(writer.malloc_block(seg, arr, "a"));
    for (int i = 0; i < 1024; ++i) data[i] = i;
    writer.write_unlock(seg);
    return {seg, data};
  }

  server::SegmentServer server_;
  Client::ChannelFactory factory_;
};

TEST_F(Coherence, FullAlwaysCurrent) {
  auto w = make_client();
  auto r = make_client();
  auto [ws, data] = make_shared_array(*w, "host/full");
  ClientSegment* rs = r->open_segment("host/full");
  r->set_coherence(rs, CoherencePolicy::full());

  for (int round = 1; round <= 5; ++round) {
    bump(*w, ws, data, round);
    r->read_lock(rs);
    EXPECT_EQ(rs->version(), ws->version());
    r->read_unlock(rs);
  }
}

TEST_F(Coherence, DeltaToleratesBoundedStaleness) {
  auto w = make_client();
  auto r = make_client();
  auto [ws, data] = make_shared_array(*w, "host/delta");
  ClientSegment* rs = r->open_segment("host/delta");
  r->set_coherence(rs, CoherencePolicy::delta(2));

  // Initial fetch.
  r->read_lock(rs);
  r->read_unlock(rs);
  uint32_t fetched_version = rs->version();

  // One write: within delta-2, reader stays on its cached copy without even
  // contacting the server (notification tells it how far behind it is).
  bump(*w, ws, data, 100);
  uint64_t calls_before = r->stats().read_lock_server_calls;
  r->read_lock(rs);
  EXPECT_EQ(rs->version(), fetched_version);
  r->read_unlock(rs);
  EXPECT_EQ(r->stats().read_lock_server_calls, calls_before);
  EXPECT_GT(r->stats().read_lock_local_hits, 0u);

  // Two more writes: now 3 behind, must update.
  bump(*w, ws, data, 101);
  bump(*w, ws, data, 102);
  r->read_lock(rs);
  EXPECT_EQ(rs->version(), ws->version());
  r->read_unlock(rs);
}

TEST_F(Coherence, TemporalSkipsServerWithinWindow) {
  auto w = make_client();
  auto r = make_client();
  auto [ws, data] = make_shared_array(*w, "host/temporal");
  ClientSegment* rs = r->open_segment("host/temporal");
  r->set_coherence(rs, CoherencePolicy::temporal(10'000));  // 10 s

  r->read_lock(rs);
  r->read_unlock(rs);
  uint32_t v0 = rs->version();
  bump(*w, ws, data, 1);

  uint64_t calls_before = r->stats().read_lock_server_calls;
  r->read_lock(rs);  // inside the 10 s window: no fetch
  EXPECT_EQ(rs->version(), v0);
  r->read_unlock(rs);
  EXPECT_EQ(r->stats().read_lock_server_calls, calls_before);
}

TEST_F(Coherence, TemporalRefreshesAfterWindow) {
  auto w = make_client();
  auto r = make_client();
  auto [ws, data] = make_shared_array(*w, "host/temporal2");
  ClientSegment* rs = r->open_segment("host/temporal2");
  r->set_coherence(rs, CoherencePolicy::temporal(20));  // 20 ms

  r->read_lock(rs);
  r->read_unlock(rs);
  bump(*w, ws, data, 7);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  r->read_lock(rs);
  EXPECT_EQ(rs->version(), ws->version());
  auto* blk = rs->heap().find_by_name("a");
  EXPECT_EQ(reinterpret_cast<const int32_t*>(blk->data())[0], 7);
  r->read_unlock(rs);
}

TEST_F(Coherence, FreshRelaxedReadersStillFetch) {
  // A copy that holds nothing is stale under every model: a fresh Delta,
  // Temporal or Diff reader is sent the whole segment on its first lock.
  auto w = make_client();
  auto [ws, data] = make_shared_array(*w, "host/fresh-relaxed");
  bump(*w, ws, data, 42);
  ASSERT_GE(ws->version(), 3u);
  for (CoherencePolicy policy :
       {CoherencePolicy::delta(100), CoherencePolicy::temporal(60'000),
        CoherencePolicy::diff(90)}) {
    auto r = make_client();
    ClientSegment* rs = r->open_segment("host/fresh-relaxed", false);
    r->set_coherence(rs, policy);
    r->read_lock(rs);
    EXPECT_EQ(rs->version(), ws->version());
    auto* blk = rs->heap().find_by_name("a");
    ASSERT_NE(blk, nullptr);
    const auto* got = reinterpret_cast<const int32_t*>(blk->data());
    EXPECT_EQ(got[0], 42);
    EXPECT_EQ(got[1023], 1023);
    r->read_unlock(rs);
    EXPECT_EQ(r->stats().updates_applied, 1u);
    EXPECT_EQ(r->stats().full_resyncs, 0u);
  }
}

TEST_F(Coherence, DiffPercentTriggersOnVolume) {
  auto w = make_client();
  auto r = make_client();
  auto [ws, data] = make_shared_array(*w, "host/diffco");
  ClientSegment* rs = r->open_segment("host/diffco");
  // Tolerate up to 25% of the segment changing.
  r->set_coherence(rs, CoherencePolicy::diff(25));

  r->read_lock(rs);
  r->read_unlock(rs);
  uint32_t v0 = rs->version();

  // Tiny write: far below 25%; reader keeps its copy.
  bump(*w, ws, data, 1);
  r->read_lock(rs);
  EXPECT_EQ(rs->version(), v0);
  r->read_unlock(rs);

  // Rewrite most of the segment: exceeds 25%, must update.
  w->write_lock(ws);
  for (int i = 0; i < 1024; ++i) data[i] = -i;
  w->write_unlock(ws);
  r->read_lock(rs);
  EXPECT_EQ(rs->version(), ws->version());
  r->read_unlock(rs);
}

TEST_F(Coherence, RelaxedModelsReduceBandwidth) {
  auto w = make_client();
  auto full_reader = make_client();
  auto delta_reader = make_client();
  auto [ws, data] = make_shared_array(*w, "host/bw");

  ClientSegment* fs = full_reader->open_segment("host/bw");
  full_reader->set_coherence(fs, CoherencePolicy::full());
  ClientSegment* ds = delta_reader->open_segment("host/bw");
  delta_reader->set_coherence(ds, CoherencePolicy::delta(3));

  // Warm both.
  full_reader->read_lock(fs);
  full_reader->read_unlock(fs);
  delta_reader->read_lock(ds);
  delta_reader->read_unlock(ds);
  uint64_t full_base = full_reader->bytes_received();
  uint64_t delta_base = delta_reader->bytes_received();

  for (int round = 1; round <= 12; ++round) {
    w->write_lock(ws);
    for (int i = 0; i < 256; ++i) data[i] = round * 1000 + i;
    w->write_unlock(ws);
    full_reader->read_lock(fs);
    full_reader->read_unlock(fs);
    delta_reader->read_lock(ds);
    delta_reader->read_unlock(ds);
  }
  uint64_t full_bytes = full_reader->bytes_received() - full_base;
  uint64_t delta_bytes = delta_reader->bytes_received() - delta_base;
  EXPECT_LT(delta_bytes, full_bytes)
      << "delta-3 reader should fetch fewer updates than a full reader";
}

TEST_F(Coherence, NotificationsArriveOnWrites) {
  auto w = make_client();
  auto r = make_client();
  auto [ws, data] = make_shared_array(*w, "host/notify");
  ClientSegment* rs = r->open_segment("host/notify");
  r->read_lock(rs);
  r->read_unlock(rs);

  // After the writer commits, the reader's channel has seen a notification
  // (reflected in received-byte growth without any reader-initiated call).
  uint64_t rx_before = r->bytes_received();
  bump(*w, ws, data, 5);
  EXPECT_GT(r->bytes_received(), rx_before)
      << "subscribed reader should receive a version notification";
}

}  // namespace
}  // namespace iw
