// End-to-end integration tests: client <-> server through the in-process
// transport, covering segment lifecycle, diff round trips, shared linked
// lists (the paper's Figure 1), pointer swizzling across clients, block
// free propagation, and named blocks.
#include <gtest/gtest.h>

#include "interweave/interweave.hpp"

namespace iw {
namespace {

using client::TrackingMode;

struct Node {
  int32_t key;
  Node* next;
};

class Integration : public ::testing::Test {
 protected:
  Integration() {
    factory_ = [this](const std::string&) {
      return std::make_shared<InProcChannel>(server_);
    };
  }

  std::unique_ptr<Client> make_client(Client::Options options = {}) {
    return std::make_unique<Client>(factory_, options);
  }

  static const TypeDescriptor* node_type(Client& c) {
    return c.types().struct_builder("node")
        .field("key", c.types().primitive(PrimitiveKind::kInt32))
        .self_pointer_field("next")
        .finish();
  }

  server::SegmentServer server_;
  Client::ChannelFactory factory_;
};

TEST_F(Integration, OpenCreateAndReopen) {
  auto c = make_client();
  ClientSegment* seg = c->open_segment("host/s1");
  EXPECT_EQ(seg->url(), "host/s1");
  EXPECT_EQ(c->open_segment("host/s1"), seg);  // idempotent
  EXPECT_EQ(server_.segment_version("host/s1"), 1u);
}

TEST_F(Integration, OpenMissingWithoutCreateFails) {
  auto c = make_client();
  try {
    c->open_segment("host/nope", /*create=*/false);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST_F(Integration, WriteThenReadBackSameClient) {
  auto c = make_client();
  ClientSegment* seg = c->open_segment("host/data");
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 100);

  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr, "numbers"));
  for (int i = 0; i < 100; ++i) data[i] = i * i;
  c->write_unlock(seg);
  EXPECT_EQ(seg->version(), 2u);

  c->read_lock(seg);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(data[i], i * i);
  c->read_unlock(seg);
}

TEST_F(Integration, TwoClientsShareData) {
  auto a = make_client();
  auto b = make_client();
  const TypeDescriptor* arr_a =
      a->types().array_of(a->types().primitive(PrimitiveKind::kFloat64), 16);

  ClientSegment* seg_a = a->open_segment("host/shared");
  a->write_lock(seg_a);
  auto* data_a = static_cast<double*>(a->malloc_block(seg_a, arr_a, "vals"));
  for (int i = 0; i < 16; ++i) data_a[i] = i / 3.0;
  a->write_unlock(seg_a);

  ClientSegment* seg_b = b->open_segment("host/shared");
  b->read_lock(seg_b);
  auto* block_b = seg_b->heap().find_by_name("vals");
  ASSERT_NE(block_b, nullptr);
  const auto* data_b = reinterpret_cast<const double*>(block_b->data());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(data_b[i], i / 3.0);
  b->read_unlock(seg_b);
}

TEST_F(Integration, IncrementalDiffOnlyShipsChanges) {
  auto a = make_client();
  auto b = make_client();
  const TypeDescriptor* arr =
      a->types().array_of(a->types().primitive(PrimitiveKind::kInt32), 4096);

  ClientSegment* seg_a = a->open_segment("host/inc");
  a->write_lock(seg_a);
  auto* data = static_cast<int32_t*>(a->malloc_block(seg_a, arr));
  for (int i = 0; i < 4096; ++i) data[i] = i;
  a->write_unlock(seg_a);

  ClientSegment* seg_b = b->open_segment("host/inc");
  b->read_lock(seg_b);
  b->read_unlock(seg_b);
  uint64_t baseline = b->bytes_received();

  // Small change: only ~2 subblocks should travel to b.
  a->write_lock(seg_a);
  data[17] = -1;
  a->write_unlock(seg_a);

  b->read_lock(seg_b);
  b->read_unlock(seg_b);
  // One modified int costs one 16-unit subblock (64 bytes) plus headers —
  // far below the full 16 KiB block.
  uint64_t delta = b->bytes_received() - baseline;
  EXPECT_LT(delta, 1000u);
  auto* block_b = seg_b->heap().first_block();
  ASSERT_NE(block_b, nullptr);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(block_b->data())[17], -1);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(block_b->data())[4000], 4000);
}

TEST_F(Integration, SharedLinkedListAcrossClients) {
  auto a = make_client();
  auto b = make_client();
  const TypeDescriptor* node_a = node_type(*a);

  ClientSegment* seg_a = a->open_segment("host/list");
  a->write_lock(seg_a);
  auto* head = static_cast<Node*>(a->malloc_block(seg_a, node_a, "head"));
  head->key = 0;
  head->next = nullptr;
  for (int k = 1; k <= 5; ++k) {
    auto* n = static_cast<Node*>(a->malloc_block(seg_a, node_a));
    n->key = k;
    n->next = head->next;
    head->next = n;
  }
  a->write_unlock(seg_a);

  // Client b bootstraps through a MIP, exactly like the paper's example.
  ClientSegment* seg_b = b->open_segment("host/list");
  b->read_lock(seg_b);
  auto* head_b = static_cast<Node*>(b->mip_to_ptr("host/list#head#0"));
  ASSERT_NE(head_b, nullptr);
  std::vector<int> keys;
  for (Node* p = head_b->next; p != nullptr; p = p->next) {
    keys.push_back(p->key);
  }
  EXPECT_EQ(keys, (std::vector<int>{5, 4, 3, 2, 1}));
  b->read_unlock(seg_b);

  // b inserts; a sees it.
  const TypeDescriptor* node_b = node_type(*b);
  b->write_lock(seg_b);
  auto* n = static_cast<Node*>(b->malloc_block(seg_b, node_b));
  n->key = 42;
  n->next = head_b->next;
  head_b->next = n;
  b->write_unlock(seg_b);

  a->read_lock(seg_a);
  EXPECT_EQ(head->next->key, 42);
  EXPECT_EQ(head->next->next->key, 5);
  a->read_unlock(seg_a);
}

TEST_F(Integration, FreePropagatesToOtherClients) {
  auto a = make_client();
  auto b = make_client();
  const TypeDescriptor* arr =
      a->types().array_of(a->types().primitive(PrimitiveKind::kInt32), 8);

  ClientSegment* seg_a = a->open_segment("host/free");
  a->write_lock(seg_a);
  void* b0 = a->malloc_block(seg_a, arr, "keep");
  void* b1 = a->malloc_block(seg_a, arr, "drop");
  (void)b0;
  a->write_unlock(seg_a);

  ClientSegment* seg_b = b->open_segment("host/free");
  b->read_lock(seg_b);
  EXPECT_NE(seg_b->heap().find_by_name("drop"), nullptr);
  b->read_unlock(seg_b);

  a->write_lock(seg_a);
  a->free_block(seg_a, b1);
  a->write_unlock(seg_a);

  b->read_lock(seg_b);
  EXPECT_EQ(seg_b->heap().find_by_name("drop"), nullptr);
  EXPECT_NE(seg_b->heap().find_by_name("keep"), nullptr);
  b->read_unlock(seg_b);
}

TEST_F(Integration, MallocRequiresWriteLock) {
  auto c = make_client();
  ClientSegment* seg = c->open_segment("host/guard");
  const TypeDescriptor* t = c->types().primitive(PrimitiveKind::kInt32);
  try {
    c->malloc_block(seg, t);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kState);
  }
}

TEST_F(Integration, WriteLockIsExclusiveAcrossClients) {
  auto a = make_client();
  auto b = make_client();
  ClientSegment* seg_a = a->open_segment("host/excl");
  ClientSegment* seg_b = b->open_segment("host/excl");

  a->write_lock(seg_a);
  std::atomic<bool> b_acquired{false};
  std::thread t([&] {
    b->write_lock(seg_b);
    b_acquired = true;
    b->write_unlock(seg_b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(b_acquired.load());
  a->write_unlock(seg_a);
  t.join();
  EXPECT_TRUE(b_acquired.load());
}

TEST_F(Integration, CrossSegmentPointer) {
  auto a = make_client();
  const TypeDescriptor* int_t = a->types().primitive(PrimitiveKind::kInt32);
  const TypeDescriptor* ptr_t = a->types().pointer_to(int_t);

  ClientSegment* data_seg = a->open_segment("host/data-seg");
  a->write_lock(data_seg);
  auto* value = static_cast<int32_t*>(a->malloc_block(data_seg, int_t, "v"));
  *value = 777;
  a->write_unlock(data_seg);

  ClientSegment* ref_seg = a->open_segment("host/ref-seg");
  a->write_lock(ref_seg);
  auto** ref = static_cast<int32_t**>(a->malloc_block(ref_seg, ptr_t, "r"));
  *ref = value;
  a->write_unlock(ref_seg);

  // A second client follows the cross-segment pointer; the data segment is
  // reserved automatically and filled on lock.
  auto b = make_client();
  ClientSegment* ref_b = b->open_segment("host/ref-seg");
  b->read_lock(ref_b);
  auto** ref_ptr = static_cast<int32_t**>(b->mip_to_ptr("host/ref-seg#r#0"));
  ASSERT_NE(ref_ptr, nullptr);
  int32_t* remote_value = *ref_ptr;
  ASSERT_NE(remote_value, nullptr);
  b->read_unlock(ref_b);

  // Data segment was only reserved; lock it to fetch contents.
  ClientSegment* data_b = b->open_segment("host/data-seg", false);
  b->read_lock(data_b);
  EXPECT_EQ(*remote_value, 777);
  b->read_unlock(data_b);
}

TEST_F(Integration, ReservedBlockFreedBeforeFirstLockIsSwept) {
  auto a = make_client();
  const TypeDescriptor* int_t = a->types().primitive(PrimitiveKind::kInt32);
  ClientSegment* seg = a->open_segment("host/reserved-sweep");
  a->write_lock(seg);
  *static_cast<int32_t*>(a->malloc_block(seg, int_t, "keep")) = 5;
  auto* gone = static_cast<int32_t*>(a->malloc_block(seg, int_t, "gone"));
  a->write_unlock(seg);

  // b resolves a MIP into the segment: it reserves both blocks through the
  // segment's directory and fetches no data.
  auto b = make_client();
  ASSERT_NE(b->mip_to_ptr("host/reserved-sweep#keep#0"), nullptr);
  ClientSegment* seg_b = b->open_segment("host/reserved-sweep", false);
  ASSERT_EQ(seg_b->version(), 0u);
  ASSERT_NE(seg_b->heap().find_by_name("gone"), nullptr);

  a->write_lock(seg);
  a->free_block(seg, gone);
  a->write_unlock(seg);

  // b's first lock fetches the whole segment, which no longer lists
  // "gone": the reserved block is swept.
  b->read_lock(seg_b);
  EXPECT_EQ(seg_b->version(), seg->version());
  EXPECT_EQ(seg_b->heap().find_by_name("gone"), nullptr);
  auto* keep = seg_b->heap().find_by_name("keep");
  ASSERT_NE(keep, nullptr);
  EXPECT_EQ(*reinterpret_cast<const int32_t*>(keep->data()), 5);
  b->read_unlock(seg_b);
  EXPECT_EQ(b->stats().full_resyncs, 0u);
}

TEST_F(Integration, PtrToMipRoundTrip) {
  auto c = make_client();
  const TypeDescriptor* pair = c->types().struct_builder("pair")
      .field("x", c->types().primitive(PrimitiveKind::kInt32))
      .field("y", c->types().primitive(PrimitiveKind::kFloat64))
      .finish();
  ClientSegment* seg = c->open_segment("host/mips");
  c->write_lock(seg);
  auto* p = static_cast<uint8_t*>(c->malloc_block(seg, pair, "p"));
  c->write_unlock(seg);

  EXPECT_EQ(c->ptr_to_mip(p), "host/mips#p#0");
  // Pointer to the second field maps to unit 1.
  EXPECT_EQ(c->ptr_to_mip(p + 8), "host/mips#p#1");
  EXPECT_EQ(c->mip_to_ptr("host/mips#p#1"), p + 8);
  EXPECT_EQ(c->mip_to_ptr(""), nullptr);
  EXPECT_EQ(c->ptr_to_mip(nullptr), "");
  // Serial-based reference also resolves (serial 1 = first block).
  EXPECT_EQ(c->mip_to_ptr("host/mips#1#0"), p);
}

TEST_F(Integration, ManySmallWriteSessions) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt64), 512);
  ClientSegment* seg = c->open_segment("host/sessions");
  c->write_lock(seg);
  auto* data = static_cast<int64_t*>(c->malloc_block(seg, arr));
  c->write_unlock(seg);

  for (int round = 0; round < 20; ++round) {
    c->write_lock(seg);
    data[round * 20] = round + 1;
    c->write_unlock(seg);
  }
  EXPECT_EQ(seg->version(), 22u);

  auto b = make_client();
  ClientSegment* seg_b = b->open_segment("host/sessions");
  b->read_lock(seg_b);
  const auto* d =
      reinterpret_cast<const int64_t*>(seg_b->heap().first_block()->data());
  for (int round = 0; round < 20; ++round) EXPECT_EQ(d[round * 20], round + 1);
  b->read_unlock(seg_b);
}

TEST_F(Integration, StringsInSharedStructs) {
  auto a = make_client();
  const TypeDescriptor* person = a->types().struct_builder("person")
      .field("name", a->types().string_type(32))
      .field("age", a->types().primitive(PrimitiveKind::kInt32))
      .finish();
  ClientSegment* seg = a->open_segment("host/people");
  a->write_lock(seg);
  auto* p = static_cast<char*>(a->malloc_block(seg, person, "alice"));
  std::snprintf(p, 32, "Alice Liddell");
  *reinterpret_cast<int32_t*>(p + 32) = 19;
  a->write_unlock(seg);

  auto b = make_client();
  ClientSegment* seg_b = b->open_segment("host/people");
  b->read_lock(seg_b);
  auto* blk = seg_b->heap().find_by_name("alice");
  ASSERT_NE(blk, nullptr);
  EXPECT_STREQ(reinterpret_cast<const char*>(blk->data()), "Alice Liddell");
  EXPECT_EQ(*reinterpret_cast<const int32_t*>(blk->data() + 32), 19);
  b->read_unlock(seg_b);
}

}  // namespace
}  // namespace iw
