// Unit tests for the client heap: subsegment growth, block allocation and
// reuse, metadata trees, address lookups, and the fault registry.
#include "client/heap.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/client.hpp"
#include "client/tracking.hpp"
#include "net/inproc.hpp"
#include "server/server.hpp"

namespace iw::client {
namespace {

/// A heap needs an owning ClientSegment; build one through a real client.
class HeapFixture : public ::testing::Test {
 protected:
  HeapFixture()
      : client_([this](const std::string&) {
          return std::make_shared<InProcChannel>(server_);
        }) {
    seg_ = client_.open_segment("host/heap-test");
    client_.write_lock(seg_);
  }
  ~HeapFixture() override { client_.write_unlock(seg_); }

  const TypeDescriptor* int_array(uint64_t n) {
    return client_.types().array_of(
        client_.types().primitive(PrimitiveKind::kInt32), n);
  }

  server::SegmentServer server_;
  Client client_;
  ClientSegment* seg_ = nullptr;
};

TEST_F(HeapFixture, BlocksAreZeroInitializedAndAligned) {
  auto* p = static_cast<uint8_t*>(
      client_.malloc_block(seg_, int_array(100)));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
  for (int i = 0; i < 400; ++i) EXPECT_EQ(p[i], 0);
}

TEST_F(HeapFixture, FindBySerialNameAddress) {
  auto* a = client_.malloc_block(seg_, int_array(10), "alpha");
  auto* b = client_.malloc_block(seg_, int_array(10));
  const SegmentHeap& heap = seg_->heap();

  BlockHeader* ba = heap.find_by_name("alpha");
  ASSERT_NE(ba, nullptr);
  EXPECT_EQ(ba->data(), a);
  EXPECT_EQ(heap.find_by_serial(ba->serial), ba);
  EXPECT_EQ(heap.find_by_name("beta"), nullptr);

  // Address lookup hits anywhere inside the data, not just the start.
  EXPECT_EQ(heap.find_by_address(static_cast<uint8_t*>(b) + 17),
            BlockHeader::from_data(b));
  // Addresses in headers/free space miss.
  EXPECT_EQ(heap.find_by_address(static_cast<uint8_t*>(a) - 4), nullptr);
}

TEST_F(HeapFixture, LargeBlockGetsOwnSubsegment) {
  // 1 MiB block exceeds the 64 KiB default subsegment size.
  auto* p = client_.malloc_block(seg_, int_array(256 * 1024));
  ASSERT_NE(p, nullptr);
  BlockHeader* block = BlockHeader::from_data(p);
  EXPECT_GE(block->subseg->bytes, (size_t)1 << 20);
  // And a small block still fits in a small subsegment afterwards.
  auto* q = client_.malloc_block(seg_, int_array(4));
  EXPECT_NE(q, nullptr);
}

TEST_F(HeapFixture, FreeSpaceIsReused) {
  void* p = client_.malloc_block(seg_, int_array(1000));
  client_.free_block(seg_, p);
  void* q = client_.malloc_block(seg_, int_array(1000));
  EXPECT_EQ(p, q) << "freed chunk should be reused first-fit";
}

TEST_F(HeapFixture, ManyBlocksAllFindable) {
  std::vector<void*> blocks;
  for (int i = 0; i < 500; ++i) {
    blocks.push_back(client_.malloc_block(seg_, int_array(1 + i % 37)));
  }
  const SegmentHeap& heap = seg_->heap();
  EXPECT_EQ(heap.block_count(), 500u);
  for (void* p : blocks) {
    EXPECT_EQ(heap.find_by_address(p), BlockHeader::from_data(p));
  }
  // total units = sum (1 + i%37)
  uint64_t expect_units = 0;
  for (int i = 0; i < 500; ++i) expect_units += 1 + i % 37;
  EXPECT_EQ(heap.total_prim_units(), expect_units);
}

TEST_F(HeapFixture, AdjacentFreesCoalesceForward) {
  void* a = client_.malloc_block(seg_, int_array(500));
  void* b = client_.malloc_block(seg_, int_array(500));
  client_.malloc_block(seg_, int_array(4));  // pin the tail
  size_t base_chunks = seg_->heap().free_chunk_count();
  // Free b then a: a's reclaim must merge forward into b's chunk.
  client_.free_block(seg_, b);
  client_.free_block(seg_, a);
  EXPECT_EQ(seg_->heap().free_chunk_count(), base_chunks + 1);
  // A block larger than either alone fits in the merged chunk.
  void* big = client_.malloc_block(seg_, int_array(950));
  EXPECT_EQ(big, a);
}

TEST_F(HeapFixture, AdjacentFreesCoalesceBackward) {
  void* a = client_.malloc_block(seg_, int_array(500));
  void* b = client_.malloc_block(seg_, int_array(500));
  client_.malloc_block(seg_, int_array(4));
  size_t base_chunks = seg_->heap().free_chunk_count();
  // Free a then b: b's reclaim must merge backward into a's chunk.
  client_.free_block(seg_, a);
  client_.free_block(seg_, b);
  EXPECT_EQ(seg_->heap().free_chunk_count(), base_chunks + 1);
  void* big = client_.malloc_block(seg_, int_array(950));
  EXPECT_EQ(big, a);
}

TEST_F(HeapFixture, ThreeWayCoalesce) {
  void* a = client_.malloc_block(seg_, int_array(300));
  void* b = client_.malloc_block(seg_, int_array(300));
  void* c = client_.malloc_block(seg_, int_array(300));
  client_.malloc_block(seg_, int_array(4));
  size_t base_chunks = seg_->heap().free_chunk_count();
  client_.free_block(seg_, a);
  client_.free_block(seg_, c);
  client_.free_block(seg_, b);  // merges with both neighbours
  EXPECT_EQ(seg_->heap().free_chunk_count(), base_chunks + 1);
  void* big = client_.malloc_block(seg_, int_array(850));
  EXPECT_EQ(big, a);
}

TEST_F(HeapFixture, ChurnDoesNotFragmentUnboundedly) {
  // Allocate/free in a pattern that would fragment without coalescing.
  std::vector<void*> blocks;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      blocks.push_back(client_.malloc_block(seg_, int_array(64 + i)));
    }
    for (void* p : blocks) client_.free_block(seg_, p);
    blocks.clear();
  }
  // Everything merged back: a handful of chunks (one per subsegment).
  EXPECT_LE(seg_->heap().free_chunk_count(), 4u);
}

TEST_F(HeapFixture, DuplicateNameRejected) {
  client_.malloc_block(seg_, int_array(1), "dup");
  EXPECT_THROW(client_.malloc_block(seg_, int_array(1), "dup"), Error);
}

TEST_F(HeapFixture, AllDigitNameRejected) {
  EXPECT_THROW(client_.malloc_block(seg_, int_array(1), "123"), Error);
}

TEST_F(HeapFixture, FaultRegistryFindsSubsegments) {
  auto* p = static_cast<uint8_t*>(client_.malloc_block(seg_, int_array(64)));
  FaultRegistry& registry = FaultRegistry::instance();
  Subsegment* subseg = registry.find(p);
  ASSERT_NE(subseg, nullptr);
  EXPECT_TRUE(subseg->contains(p));
  EXPECT_EQ(subseg->segment, seg_);
  // An address far outside any segment misses.
  int local;
  EXPECT_EQ(registry.find(&local), nullptr);
}

TEST_F(HeapFixture, SubsegmentChainIsWalkable) {
  // Force several subsegments.
  for (int i = 0; i < 4; ++i) {
    client_.malloc_block(seg_, int_array(20000));  // 80 KB each
  }
  int count = 0;
  for (Subsegment* s = seg_->heap().first_subsegment(); s != nullptr;
       s = s->next) {
    EXPECT_EQ(s->bytes % kPageSize, 0u);
    EXPECT_EQ(s->twins.size(), s->page_count());
    ++count;
  }
  EXPECT_GE(count, 4);
}

TEST(FaultRegistryConcurrency, ClientsMapAndUnmapWhileAnotherFaults) {
  // Two threads create and destroy clients with heaps, each adding and
  // removing fault-registry ranges, while a third takes write faults on
  // its own heap: every fault's handler looks its address up in the same
  // registry. A lookup torn by a writer must retry, never miss (a miss
  // re-raises the SIGSEGV) and never race (TSan).
  server::SegmentServer server;
  auto factory = [&server](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  };
  Client::Options vm;
  vm.tracking = TrackingMode::kVmDiff;
  Client faulter(factory, vm);
  ClientSegment* seg = faulter.open_segment("host/faulter");
  const TypeDescriptor* page_ints = faulter.types().array_of(
      faulter.types().primitive(PrimitiveKind::kInt32), kPageSize);
  faulter.write_lock(seg);
  auto* ints = static_cast<int32_t*>(faulter.malloc_block(seg, page_ints));
  faulter.write_unlock(seg);

  std::atomic<bool> stop{false};
  std::atomic<int> churned{0};
  auto churn = [&](int id) {
    for (; !stop.load(std::memory_order_relaxed); churned.fetch_add(1)) {
      Client c(factory, vm);
      ClientSegment* s = c.open_segment("host/churn" + std::to_string(id));
      const TypeDescriptor* big = c.types().array_of(
          c.types().primitive(PrimitiveKind::kInt32), 20000);
      c.write_lock(s);
      // Each block maps a subsegment of its own, which stays mapped (and
      // registered) after the free until the client goes away; the commit
      // carries nothing.
      void* blocks[4];
      for (void*& b : blocks) b = c.malloc_block(s, big);
      for (void* b : blocks) c.free_block(s, b);
      c.write_unlock(s);
    }
  };
  std::thread a(churn, 1), b(churn, 2);
  const uint64_t faults_before = fault_count();
  uint32_t rounds = 0;
  while (rounds < 200 || churned.load() < 40) {
    ++rounds;
    faulter.write_lock(seg);
    for (uint64_t i = 0; i < kPageSize; i += 1024) {
      ints[i] = static_cast<int32_t>(rounds);  // one write fault per page
    }
    faulter.write_unlock(seg);
  }
  stop.store(true);
  a.join();
  b.join();
  EXPECT_GE(fault_count() - faults_before, uint64_t{rounds} * 4);
  EXPECT_EQ(seg->version(), 2 + rounds);
}

}  // namespace
}  // namespace iw::client
