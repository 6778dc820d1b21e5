// Client API surface tests: error paths, multi-segment and multi-server
// operation, statistics, the IW_* C facade, and RAII lock guards.
#include <gtest/gtest.h>

#include "interweave/interweave.hpp"

namespace iw {
namespace {

class ClientApi : public ::testing::Test {
 protected:
  ClientApi() {
    factory_ = [this](const std::string& host) -> std::shared_ptr<ClientChannel> {
      // Route by host: "alpha/..." -> server_a, "beta/..." -> server_b.
      if (host == "alpha") return std::make_shared<InProcChannel>(server_a_);
      if (host == "beta") return std::make_shared<InProcChannel>(server_b_);
      return nullptr;
    };
  }
  server::SegmentServer server_a_;
  server::SegmentServer server_b_;
  Client::ChannelFactory factory_;
};

TEST_F(ClientApi, UnknownHostFailsCleanly) {
  Client c(factory_);
  try {
    c.open_segment("gamma/segment");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST_F(ClientApi, SegmentsOnDifferentServers) {
  Client c(factory_);
  const TypeDescriptor* int_t = c.types().primitive(PrimitiveKind::kInt32);
  ClientSegment* sa = c.open_segment("alpha/data");
  ClientSegment* sb = c.open_segment("beta/data");

  c.write_lock(sa);
  auto* va = static_cast<int32_t*>(c.malloc_block(sa, int_t, "v"));
  *va = 1;
  c.write_unlock(sa);
  c.write_lock(sb);
  auto* vb = static_cast<int32_t*>(c.malloc_block(sb, int_t, "v"));
  *vb = 2;
  c.write_unlock(sb);

  EXPECT_EQ(server_a_.segment_version("alpha/data"), 2u);
  EXPECT_EQ(server_b_.segment_version("beta/data"), 2u);
  EXPECT_THROW(server_a_.segment_version("beta/data"), Error);
}

TEST_F(ClientApi, CrossServerPointer) {
  // A pointer in a segment on server A referring to data on server B.
  Client writer(factory_);
  const TypeDescriptor* int_t = writer.types().primitive(PrimitiveKind::kInt32);
  ClientSegment* data_seg = writer.open_segment("beta/numbers");
  writer.write_lock(data_seg);
  auto* value = static_cast<int32_t*>(writer.malloc_block(data_seg, int_t, "x"));
  *value = 777;
  writer.write_unlock(data_seg);

  ClientSegment* ref_seg = writer.open_segment("alpha/refs");
  writer.write_lock(ref_seg);
  auto** ref = static_cast<int32_t**>(writer.malloc_block(
      ref_seg, writer.types().pointer_to(int_t), "r"));
  *ref = value;
  writer.write_unlock(ref_seg);

  Client reader(factory_);
  ClientSegment* r_ref = reader.open_segment("alpha/refs");
  reader.read_lock(r_ref);
  auto** rp = static_cast<int32_t**>(reader.mip_to_ptr("alpha/refs#r#0"));
  ASSERT_NE(rp, nullptr);
  int32_t* remote = *rp;  // beta/numbers reserved automatically
  ASSERT_NE(remote, nullptr);
  reader.read_unlock(r_ref);

  ClientSegment* r_data = reader.open_segment("beta/numbers", false);
  reader.read_lock(r_data);
  EXPECT_EQ(*remote, 777);
  reader.read_unlock(r_data);
}

TEST_F(ClientApi, MipErrorCases) {
  Client c(factory_);
  const TypeDescriptor* int_t = c.types().primitive(PrimitiveKind::kInt32);
  ClientSegment* seg = c.open_segment("alpha/mips");
  c.write_lock(seg);
  auto* arr = c.malloc_block(seg, c.types().array_of(int_t, 4), "a");
  (void)arr;
  c.write_unlock(seg);

  EXPECT_THROW(c.mip_to_ptr("no-hashes-here"), Error);
  EXPECT_THROW(c.mip_to_ptr("alpha/mips#a#99"), Error);     // unit range
  EXPECT_THROW(c.mip_to_ptr("alpha/mips#missing#0"), Error);  // bad name
  EXPECT_THROW(c.mip_to_ptr("alpha/mips#7#0"), Error);        // bad serial
  EXPECT_THROW(c.mip_to_ptr("alpha/mips#a#junk"), Error);     // bad offset
  int local = 0;
  EXPECT_THROW(c.ptr_to_mip(&local), Error);  // not a segment address
}

TEST_F(ClientApi, SegmentNameWithHashRejected) {
  Client c(factory_);
  EXPECT_THROW(c.open_segment("alpha/bad#name"), Error);
}

TEST_F(ClientApi, StatsAndByteCountersMove) {
  Client c(factory_);
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 1024);
  ClientSegment* seg = c.open_segment("alpha/stats");
  EXPECT_EQ(c.stats().diffs_collected, 0u);
  c.write_lock(seg);
  auto* d = static_cast<int32_t*>(c.malloc_block(seg, arr));
  d[0] = 1;
  c.write_unlock(seg);
  EXPECT_EQ(c.stats().diffs_collected, 1u);
  if (c.stats().diffs_compressed > 0) {
    // The near-zero 4 KiB array compressed on the wire: the counter still
    // moves but stays well under the raw diff size.
    EXPECT_LT(c.bytes_sent(), 4096u);
  } else {
    EXPECT_GT(c.bytes_sent(), 4096u);
  }
  EXPECT_GT(c.bytes_sent(), 0u);
  EXPECT_GT(c.bytes_received(), 0u);
  c.reset_stats();
  EXPECT_EQ(c.stats().diffs_collected, 0u);
}

TEST_F(ClientApi, WholeBlockReleasesCountTranslation) {
  // A block released whole (new, or under no-diff tracking) is translated
  // like a diff is, and its LZ pass is timed on its own.
  Client::Options options;
  options.tracking = client::TrackingMode::kNoDiff;
  Client c(factory_, options);
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 4096);
  ClientSegment* seg = c.open_segment("alpha/whole");
  c.write_lock(seg);
  auto* d = static_cast<int32_t*>(c.malloc_block(seg, arr));
  for (int32_t i = 0; i < 4096; ++i) d[i] = i;
  c.write_unlock(seg);
  const ClientStats created = c.stats();
  EXPECT_EQ(created.diff_releases, 0u);
  EXPECT_GT(created.translate_ns, 0u);
  EXPECT_GT(created.compress_ns, 0u);
  EXPECT_LE(created.translate_ns + created.compress_ns, created.collect_ns);

  c.write_lock(seg);
  d[7] = -7;
  c.write_unlock(seg);
  EXPECT_EQ(c.stats().no_diff_releases, 2u);
  EXPECT_GT(c.stats().translate_ns, created.translate_ns);
}

TEST_F(ClientApi, RaiiGuards) {
  Client c(factory_);
  ClientSegment* seg = c.open_segment("alpha/raii");
  {
    WriteLock lock(c, seg);
    EXPECT_TRUE(seg->write_locked());
    c.malloc_block(seg, c.types().primitive(PrimitiveKind::kInt32));
  }
  EXPECT_FALSE(seg->write_locked());
  {
    ReadLock lock(c, seg);
    EXPECT_EQ(seg->read_locks(), 1);
    ReadLock nested(c, seg);
    EXPECT_EQ(seg->read_locks(), 2);
  }
  EXPECT_EQ(seg->read_locks(), 0);
}

TEST_F(ClientApi, CApiFacade) {
  Client c(factory_);
  IW_init(&c);
  IW_handle_t h = IW_open_segment("alpha/capi");
  const TypeDescriptor* int_t = IW_client().types().primitive(PrimitiveKind::kInt32);
  IW_wl_acquire(h);
  auto* v = static_cast<int32_t*>(IW_malloc(h, int_t, "v"));
  *v = 5;
  IW_wl_release(h);
  IW_set_coherence(h, CoherencePolicy::delta(1));
  IW_rl_acquire(h);
  EXPECT_EQ(*static_cast<int32_t*>(IW_mip_to_ptr("alpha/capi#v#0")), 5);
  EXPECT_EQ(IW_ptr_to_mip(v), "alpha/capi#v#0");
  IW_rl_release(h);
  IW_wl_acquire(h);
  IW_free(h, v);
  IW_wl_release(h);
  IW_init(nullptr);
  EXPECT_THROW(IW_client(), Error);
}

TEST_F(ClientApi, ReadLockIsSharedAcrossClients) {
  Client a(factory_);
  Client b(factory_);
  ClientSegment* sa = a.open_segment("alpha/shared-read");
  ClientSegment* sb = b.open_segment("alpha/shared-read");
  a.read_lock(sa);
  b.read_lock(sb);  // does not block
  a.read_unlock(sa);
  b.read_unlock(sb);
  SUCCEED();
}

TEST_F(ClientApi, FreeErrorPaths) {
  Client c(factory_);
  const TypeDescriptor* int_t = c.types().primitive(PrimitiveKind::kInt32);
  ClientSegment* seg = c.open_segment("alpha/free-errors");
  c.write_lock(seg);
  auto* p = static_cast<int32_t*>(c.malloc_block(seg, int_t));
  // Freeing an interior/invalid pointer is rejected.
  int local;
  EXPECT_THROW(c.free_block(seg, &local), Error);
  c.free_block(seg, p);
  c.write_unlock(seg);
  // Freeing without the write lock is rejected.
  EXPECT_THROW(c.free_block(seg, p), Error);
}

}  // namespace
}  // namespace iw
