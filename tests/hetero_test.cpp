// Heterogeneity tests: clients bound to different simulated architectures
// (byte order, alignment, pointer width) share segments through one server.
// This is the paper's headline capability.
#include <gtest/gtest.h>

#include "interweave/interweave.hpp"

namespace iw {
namespace {

/// Typed accessors for a block laid out under an arbitrary platform.
class View {
 public:
  View(Client& client, uint8_t* base, const TypeDescriptor* type)
      : client_(client), rules_(client.options().platform.rules),
        base_(base), type_(type) {}

  int32_t get_i32(uint64_t unit) const {
    const uint8_t* p = base_ + type_->locate_prim(unit).local_offset;
    uint32_t v = 0;
    if (rules_.byte_order == ByteOrder::kBig) {
      for (int i = 0; i < 4; ++i) v = (v << 8) | p[i];
    } else {
      for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    }
    return static_cast<int32_t>(v);
  }

  void set_i32(uint64_t unit, int32_t value) {
    uint8_t* p = base_ + type_->locate_prim(unit).local_offset;
    auto v = static_cast<uint32_t>(value);
    if (rules_.byte_order == ByteOrder::kBig) {
      for (int i = 3; i >= 0; --i) {
        p[i] = static_cast<uint8_t>(v);
        v >>= 8;
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        p[i] = static_cast<uint8_t>(v);
        v >>= 8;
      }
    }
  }

  double get_f64(uint64_t unit) const {
    const uint8_t* p = base_ + type_->locate_prim(unit).local_offset;
    uint64_t bits = 0;
    if (rules_.byte_order == ByteOrder::kBig) {
      for (int i = 0; i < 8; ++i) bits = (bits << 8) | p[i];
    } else {
      for (int i = 7; i >= 0; --i) bits = (bits << 8) | p[i];
    }
    return std::bit_cast<double>(bits);
  }

  void set_f64(uint64_t unit, double value) {
    uint8_t* p = base_ + type_->locate_prim(unit).local_offset;
    auto bits = std::bit_cast<uint64_t>(value);
    if (rules_.byte_order == ByteOrder::kBig) {
      for (int i = 7; i >= 0; --i) {
        p[i] = static_cast<uint8_t>(bits);
        bits >>= 8;
      }
    } else {
      for (int i = 0; i < 8; ++i) {
        p[i] = static_cast<uint8_t>(bits);
        bits >>= 8;
      }
    }
  }

  void* get_ptr(uint64_t unit) const {
    return client_.read_pointer_field(base_ +
                                      type_->locate_prim(unit).local_offset);
  }
  void set_ptr(uint64_t unit, void* addr) {
    client_.write_pointer_field(base_ + type_->locate_prim(unit).local_offset,
                                addr);
  }

  std::string get_str(uint64_t unit) const {
    PrimLocation loc = type_->locate_prim(unit);
    const char* p = reinterpret_cast<const char*>(base_) + loc.local_offset;
    return std::string(p, strnlen(p, loc.string_capacity));
  }

 private:
  Client& client_;
  LayoutRules rules_;
  uint8_t* base_;
  const TypeDescriptor* type_;
};

class Hetero : public ::testing::Test {
 protected:
  Hetero() {
    factory_ = [this](const std::string&) {
      return std::make_shared<InProcChannel>(server_);
    };
  }

  std::unique_ptr<Client> make_client(Platform platform) {
    Client::Options options;
    options.platform = platform;
    return std::make_unique<Client>(factory_, options);
  }

  static const TypeDescriptor* record_type(Client& c) {
    return c.types().struct_builder("rec")
        .field("id", c.types().primitive(PrimitiveKind::kInt32))
        .field("value", c.types().primitive(PrimitiveKind::kFloat64))
        .field("label", c.types().string_type(12))
        .self_pointer_field("next")
        .finish();
  }

  server::SegmentServer server_;
  Client::ChannelFactory factory_;
};

TEST_F(Hetero, LayoutsActuallyDiffer) {
  auto native = make_client(Platform::native());
  auto sparc = make_client(Platform::sparc32());
  const TypeDescriptor* rn = record_type(*native);
  const TypeDescriptor* rs = record_type(*sparc);
  EXPECT_NE(rn->local_size(), rs->local_size());  // 8B vs 4B pointer
  EXPECT_EQ(rn->prim_units(), rs->prim_units());
}

TEST_F(Hetero, NativeWritesSparcReads) {
  auto native = make_client(Platform::native());
  auto sparc = make_client(Platform::sparc32());

  const TypeDescriptor* rec_n = record_type(*native);
  ClientSegment* seg_n = native->open_segment("host/het1");
  native->write_lock(seg_n);
  auto* raw = static_cast<uint8_t*>(native->malloc_block(seg_n, rec_n, "r"));
  View vn(*native, raw, rec_n);
  vn.set_i32(0, -123456789);
  vn.set_f64(1, 2.718281828);
  std::snprintf(reinterpret_cast<char*>(raw) +
                    rec_n->locate_prim(2).local_offset, 12, "hello");
  vn.set_ptr(3, raw);  // self reference
  native->write_unlock(seg_n);

  ClientSegment* seg_s = sparc->open_segment("host/het1");
  sparc->read_lock(seg_s);
  auto* blk = seg_s->heap().find_by_name("r");
  ASSERT_NE(blk, nullptr);
  const TypeDescriptor* rec_s = blk->type;
  View vs(*sparc, const_cast<uint8_t*>(blk->data()), rec_s);
  EXPECT_EQ(vs.get_i32(0), -123456789);
  EXPECT_EQ(vs.get_f64(1), 2.718281828);
  EXPECT_EQ(vs.get_str(2), "hello");
  // The swizzled self-pointer resolves to the sparc client's own copy.
  EXPECT_EQ(vs.get_ptr(3), blk->data());
  sparc->read_unlock(seg_s);
}

TEST_F(Hetero, SparcWritesNativeReads) {
  auto native = make_client(Platform::native());
  auto sparc = make_client(Platform::sparc32());

  const TypeDescriptor* rec_s = record_type(*sparc);
  ClientSegment* seg_s = sparc->open_segment("host/het2");
  sparc->write_lock(seg_s);
  auto* raw = static_cast<uint8_t*>(sparc->malloc_block(seg_s, rec_s, "r"));
  View vs(*sparc, raw, rec_s);
  vs.set_i32(0, 42);
  vs.set_f64(1, -0.5);
  sparc->write_unlock(seg_s);

  ClientSegment* seg_n = native->open_segment("host/het2");
  native->read_lock(seg_n);
  auto* blk = seg_n->heap().find_by_name("r");
  ASSERT_NE(blk, nullptr);
  // Native layout: plain struct access works.
  struct NativeRec { int32_t id; double value; char label[12]; void* next; };
  const auto* nr = reinterpret_cast<const NativeRec*>(blk->data());
  EXPECT_EQ(nr->id, 42);
  EXPECT_EQ(nr->value, -0.5);
  EXPECT_EQ(nr->next, nullptr);
  native->read_unlock(seg_n);
}

TEST_F(Hetero, LinkedListAcrossThreePlatforms) {
  auto native = make_client(Platform::native());
  auto sparc = make_client(Platform::sparc32());
  auto packed = make_client(Platform::packed_le32());

  // Native builds a 3-node list.
  const TypeDescriptor* rec_n = record_type(*native);
  ClientSegment* seg_n = native->open_segment("host/het3");
  native->write_lock(seg_n);
  uint8_t* nodes[3];
  for (int i = 0; i < 3; ++i) {
    nodes[i] = static_cast<uint8_t*>(native->malloc_block(
        seg_n, rec_n, i == 0 ? "head" : ""));
    View v(*native, nodes[i], rec_n);
    v.set_i32(0, i * 10);
    v.set_ptr(3, i > 0 ? nodes[i - 1] : nullptr);
  }
  // head(=nodes[0]) ... chain nodes[2] -> nodes[1] -> nodes[0].
  native->write_unlock(seg_n);

  // Each platform walks the chain from the last allocated serial (3).
  for (Client* c : {sparc.get(), packed.get()}) {
    ClientSegment* seg = c->open_segment("host/het3");
    c->read_lock(seg);
    auto* blk = seg->heap().find_by_serial(3);
    ASSERT_NE(blk, nullptr);
    std::vector<int32_t> ids;
    const client::BlockHeader* cur = blk;
    while (cur != nullptr) {
      View v(*c, const_cast<uint8_t*>(cur->data()), cur->type);
      ids.push_back(v.get_i32(0));
      void* next = v.get_ptr(3);
      cur = next == nullptr ? nullptr
                            : seg->heap().find_by_address(next);
    }
    EXPECT_EQ(ids, (std::vector<int32_t>{20, 10, 0}))
        << c->options().platform.name;
    c->read_unlock(seg);
  }
}

TEST_F(Hetero, FreshReadersShareTheWritersPopulate) {
  // A native writer populates a segment in one commit. The diff it sends
  // starts at the empty segment (version 1), so it is exactly what a
  // reader holding nothing (version 0) needs: the server serves every fresh
  // reader, of any platform, the writer's cached diff and compressed
  // section, with no collect and no LZ pass of its own.
  constexpr int kRecords = 1024;
  auto native = make_client(Platform::native());
  const TypeDescriptor* rec_n = record_type(*native);
  ClientSegment* seg_n = native->open_segment("host/populate");
  native->write_lock(seg_n);
  uint8_t* prev = nullptr;
  for (int i = 0; i < kRecords; ++i) {
    auto* raw = static_cast<uint8_t*>(
        native->malloc_block(seg_n, rec_n, i == kRecords - 1 ? "head" : ""));
    View v(*native, raw, rec_n);
    v.set_i32(0, i);
    v.set_f64(1, i * 0.5);
    std::snprintf(reinterpret_cast<char*>(raw) +
                      rec_n->locate_prim(2).local_offset, 12, "rec%d", i);
    v.set_ptr(3, prev);
    prev = raw;
  }
  native->write_unlock(seg_n);
  ASSERT_EQ(native->stats().diffs_compressed, 1u);
  ASSERT_EQ(seg_n->version(), 2u);

  const auto before = server_.stats();
  const server::StoreStats store_before = server_.segment_stats("host/populate");
  std::vector<std::unique_ptr<Client>> readers;
  readers.push_back(make_client(Platform::native()));
  readers.push_back(make_client(Platform::sparc32()));
  readers.push_back(make_client(Platform::sparc32()));
  for (auto& c : readers) {
    SCOPED_TRACE(c->options().platform.name);
    ClientSegment* seg = c->open_segment("host/populate", false);
    c->read_lock(seg);
    EXPECT_EQ(seg->version(), 2u);
    EXPECT_EQ(seg->heap().block_count(), uint64_t{kRecords});
    const client::BlockHeader* cur = seg->heap().find_by_name("head");
    int expect = kRecords - 1;
    for (; cur != nullptr; --expect) {
      View v(*c, const_cast<uint8_t*>(cur->data()), cur->type);
      ASSERT_EQ(v.get_i32(0), expect);
      ASSERT_EQ(v.get_f64(1), expect * 0.5);
      ASSERT_EQ(v.get_str(2), "rec" + std::to_string(expect));
      void* next = v.get_ptr(3);
      cur = next == nullptr ? nullptr : seg->heap().find_by_address(next);
    }
    EXPECT_EQ(expect, -1) << "the chain ends early";
    c->read_unlock(seg);
    EXPECT_EQ(c->stats().full_resyncs, 0u);
  }
  const auto after = server_.stats();
  const server::StoreStats store_after = server_.segment_stats("host/populate");
  EXPECT_EQ(after.lz_passes, before.lz_passes) << "a fresh read compressed";
  EXPECT_EQ(after.updates_compressed - before.updates_compressed, 3u);
  EXPECT_EQ(store_after.diff_cache_misses, store_before.diff_cache_misses);
  EXPECT_EQ(store_after.diffs_collected, store_before.diffs_collected);
  EXPECT_EQ(store_after.collect_ns, store_before.collect_ns);
}

TEST_F(Hetero, SparcModifiesNativeSeesDiff) {
  auto native = make_client(Platform::native());
  auto sparc = make_client(Platform::sparc32());

  const TypeDescriptor* arr_n =
      native->types().array_of(native->types().primitive(PrimitiveKind::kInt32), 1024);
  ClientSegment* seg_n = native->open_segment("host/het4");
  native->write_lock(seg_n);
  auto* data = static_cast<int32_t*>(native->malloc_block(seg_n, arr_n, "a"));
  for (int i = 0; i < 1024; ++i) data[i] = i;
  native->write_unlock(seg_n);

  ClientSegment* seg_s = sparc->open_segment("host/het4");
  sparc->read_lock(seg_s);
  sparc->read_unlock(seg_s);
  auto* blk_s = seg_s->heap().find_by_name("a");
  ASSERT_NE(blk_s, nullptr);

  sparc->write_lock(seg_s);
  View vs(*sparc, const_cast<uint8_t*>(blk_s->data()), blk_s->type);
  vs.set_i32(100, -1);
  vs.set_i32(101, -2);
  sparc->write_unlock(seg_s);

  native->read_lock(seg_n);
  EXPECT_EQ(data[100], -1);
  EXPECT_EQ(data[101], -2);
  EXPECT_EQ(data[99], 99);
  EXPECT_EQ(data[102], 102);
  native->read_unlock(seg_n);
}

TEST_F(Hetero, CrossSegmentPointerBetweenPlatforms) {
  auto native = make_client(Platform::native());
  auto big = make_client(Platform::big64());

  const TypeDescriptor* int_n = native->types().primitive(PrimitiveKind::kInt32);
  ClientSegment* tgt_n = native->open_segment("host/het5-data");
  native->write_lock(tgt_n);
  auto* value = static_cast<int32_t*>(native->malloc_block(tgt_n, int_n, "v"));
  *value = 2026;
  native->write_unlock(tgt_n);

  const TypeDescriptor* ptr_n = native->types().pointer_to(int_n);
  ClientSegment* ref_n = native->open_segment("host/het5-ref");
  native->write_lock(ref_n);
  auto* ref = static_cast<uint8_t*>(native->malloc_block(ref_n, ptr_n, "p"));
  native->write_pointer_field(ref, value);
  native->write_unlock(ref_n);

  ClientSegment* ref_b = big->open_segment("host/het5-ref");
  big->read_lock(ref_b);
  auto* blk = ref_b->heap().find_by_name("p");
  ASSERT_NE(blk, nullptr);
  void* target = big->read_pointer_field(blk->data());
  ASSERT_NE(target, nullptr);
  big->read_unlock(ref_b);

  ClientSegment* tgt_b = big->open_segment("host/het5-data", false);
  big->read_lock(tgt_b);
  // big64 stores int32 big-endian locally.
  const auto* p = static_cast<const uint8_t*>(target);
  int32_t v = (p[0] << 24) | (p[1] << 16) | (p[2] << 8) | p[3];
  EXPECT_EQ(v, 2026);
  big->read_unlock(tgt_b);
}

TEST_F(Hetero, EveryPointerFormRoundTrips) {
  // A native writer stores one pointer of each wire form into a five-slot
  // block; sparc32 (4-byte big-endian tokens) and native readers must each
  // resolve every slot to their own copy of the target unit.
  auto writer = make_client(Platform::native());
  TypeRegistry& wt = writer->types();
  const TypeDescriptor* ints = wt.array_of(wt.primitive(PrimitiveKind::kInt32), 8);
  const TypeDescriptor* slots = wt.array_of(wt.pointer_to(ints), 5);

  ClientSegment* other = writer->open_segment("host/hetptr-other");
  writer->write_lock(other);
  auto* far = static_cast<int32_t*>(writer->malloc_block(other, ints, "far"));
  writer->write_unlock(other);

  ClientSegment* seg = writer->open_segment("host/hetptr");
  writer->write_lock(seg);
  auto* holder = static_cast<void**>(writer->malloc_block(seg, slots, "holder"));
  auto* plain = static_cast<int32_t*>(writer->malloc_block(seg, ints));
  auto* named = static_cast<int32_t*>(writer->malloc_block(seg, ints, "named"));
  holder[0] = nullptr;
  holder[1] = plain + 5;  // intra-segment, unnamed block
  holder[2] = named + 3;  // intra-segment, named block: still by serial
  holder[4] = far + 6;    // cross-segment
  writer->write_unlock(seg);

  // Each slot's target as (segment, block serial, unit) and as the MIP
  // the API names it by; unit -1 = null.
  struct Target {
    const char* url;
    uint32_t serial;
    int64_t unit;
    const char* mip;
  };
  std::vector<Target> want = {{"", 0, -1, ""},
                              {"host/hetptr", 2, 5, "host/hetptr#2#5"},
                              {"host/hetptr", 3, 3, "host/hetptr#named#3"},
                              {"", 0, -1, ""},
                              {"host/hetptr-other", 1, 6,
                               "host/hetptr-other#far#6"}};
  auto check = [&](Client& reader, const std::string& stage) {
    ClientSegment* rs = reader.open_segment("host/hetptr");
    reader.read_lock(rs);
    const client::BlockHeader* blk = rs->heap().find_by_name("holder");
    ASSERT_NE(blk, nullptr);
    View view(reader, const_cast<uint8_t*>(blk->data()), blk->type);
    for (size_t i = 0; i < want.size(); ++i) {
      void* got = view.get_ptr(i);
      const std::string where = reader.options().platform.name + " " +
                                stage + " slot " + std::to_string(i);
      if (want[i].unit < 0) {
        EXPECT_EQ(got, nullptr) << where;
        continue;
      }
      ClientSegment* ts = reader.open_segment(want[i].url, false);
      const client::BlockHeader* target =
          ts->heap().find_by_serial(want[i].serial);
      ASSERT_NE(target, nullptr) << where;
      EXPECT_EQ(got, target->data() +
                         target->type->locate_prim(want[i].unit).local_offset)
          << where;
      EXPECT_EQ(reader.ptr_to_mip(got), want[i].mip) << where;
    }
    reader.read_unlock(rs);
  };
  auto sparc = make_client(Platform::sparc32());
  auto native = make_client(Platform::native());
  check(*sparc, "first fetch");
  check(*native, "first fetch");

  // Slot 3 points into a block created by the same commit; readers that
  // hold the previous version apply it as an incremental diff.
  writer->write_lock(seg);
  auto* fresh = static_cast<int32_t*>(writer->malloc_block(seg, ints));
  holder[3] = fresh + 7;
  writer->write_unlock(seg);
  want[3] = {"host/hetptr", 4, 7, "host/hetptr#4#7"};
  check(*sparc, "update");
  check(*native, "update");
  // A reader that first fetches now gets both commits in one diff.
  auto late = make_client(Platform::sparc32());
  check(*late, "late fetch");
}

TEST_F(Hetero, TokenIntoFreedBlockReadsAsDangling) {
  // The writer frees a block that an unchanged pointer still names. A
  // sparc32 reader's token for that pointer must read as dangling once the
  // free arrives, not as whatever reuses the memory.
  auto writer = make_client(Platform::native());
  TypeRegistry& wt = writer->types();
  const TypeDescriptor* ints = wt.array_of(wt.primitive(PrimitiveKind::kInt32), 4);
  const TypeDescriptor* ref = wt.pointer_to(ints);
  ClientSegment* seg = writer->open_segment("host/hetdangle");
  writer->write_lock(seg);
  auto** holder = static_cast<void**>(writer->malloc_block(seg, ref, "ref"));
  void* target = writer->malloc_block(seg, ints, "target");
  *holder = static_cast<int32_t*>(target) + 2;
  writer->write_unlock(seg);

  auto sparc = make_client(Platform::sparc32());
  ClientSegment* rs = sparc->open_segment("host/hetdangle");
  sparc->read_lock(rs);
  const client::BlockHeader* blk = rs->heap().find_by_name("ref");
  const client::BlockHeader* tgt = rs->heap().find_by_name("target");
  ASSERT_NE(blk, nullptr);
  ASSERT_NE(tgt, nullptr);
  EXPECT_EQ(sparc->read_pointer_field(blk->data()),
            tgt->data() + tgt->type->locate_prim(2).local_offset);
  sparc->read_unlock(rs);

  writer->write_lock(seg);
  writer->free_block(seg, target);
  writer->write_unlock(seg);

  sparc->read_lock(rs);
  EXPECT_EQ(rs->heap().find_by_name("target"), nullptr);
  try {
    sparc->read_pointer_field(blk->data());
    ADD_FAILURE() << "dangling token resolved";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
  sparc->read_unlock(rs);
}

TEST_F(Hetero, PointerToFreedBlockReadsAsNullOnFirstFetch) {
  // The writer frees a block that an unchanged pointer still names, and the
  // server keeps the pointer. A reader whose first fetch comes after the
  // free has no block to resolve it against: the pointer reads as null on a
  // native and a sparc32 reader alike, and the segment stays readable.
  auto writer = make_client(Platform::native());
  TypeRegistry& wt = writer->types();
  const TypeDescriptor* ints = wt.array_of(wt.primitive(PrimitiveKind::kInt32), 4);
  const TypeDescriptor* ref = wt.pointer_to(ints);
  ClientSegment* seg = writer->open_segment("host/hetfreed");
  writer->write_lock(seg);
  auto** holder = static_cast<void**>(writer->malloc_block(seg, ref, "ref"));
  void* target = writer->malloc_block(seg, ints, "target");
  *holder = static_cast<int32_t*>(target) + 2;
  writer->write_unlock(seg);
  writer->write_lock(seg);
  writer->free_block(seg, target);
  writer->write_unlock(seg);

  for (const Platform& platform : {Platform::native(), Platform::sparc32()}) {
    auto reader = make_client(platform);
    ClientSegment* rs = reader->open_segment("host/hetfreed");
    reader->read_lock(rs);
    const client::BlockHeader* blk = rs->heap().find_by_name("ref");
    ASSERT_NE(blk, nullptr) << platform.name;
    EXPECT_EQ(rs->heap().find_by_name("target"), nullptr) << platform.name;
    EXPECT_EQ(reader->read_pointer_field(blk->data()), nullptr)
        << platform.name;
    reader->read_unlock(rs);
  }
}

TEST_F(Hetero, IsoFastPathNeverEngagesAcrossMismatchedLayouts) {
  // A little-endian client's local layout can never be byte-identical to
  // the big-endian wire, so the plan's whole-block memcpy path must never
  // engage there — while the server's packed-canonical store (genuinely
  // isomorphic with the wire for numeric types) must use it.
  auto writer = make_client(Platform::native());
  const TypeDescriptor* arr = writer->types().array_of(
      writer->types().primitive(PrimitiveKind::kInt32), 512);
  writer->reset_stats();
  ClientSegment* seg = writer->open_segment("host/hetiso");
  writer->write_lock(seg);
  auto* data = static_cast<int32_t*>(writer->malloc_block(seg, arr, "a"));
  for (int i = 0; i < 512; ++i) data[i] = i - 256;
  writer->write_unlock(seg);

  // A second LE client decodes the segment; data must still be correct.
  auto reader = make_client(Platform::native());
  reader->reset_stats();
  ClientSegment* rs = reader->open_segment("host/hetiso");
  reader->read_lock(rs);
  auto* blk = rs->heap().find_by_name("a");
  ASSERT_NE(blk, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(blk->data());
  for (int i = 0; i < 512; ++i) ASSERT_EQ(rd[i], i - 256) << i;
  reader->read_unlock(rs);

  EXPECT_GT(writer->stats().bytes_encoded, 0u);
  EXPECT_EQ(writer->stats().isomorphic_fast_path_blocks, 0u);
  EXPECT_GT(reader->stats().bytes_decoded, 0u);
  EXPECT_EQ(reader->stats().isomorphic_fast_path_blocks, 0u);
  EXPECT_GT(server_.segment_stats("host/hetiso").isomorphic_fast_path_blocks,
            0u);
}

TEST_F(Hetero, AllPlatformPairsRoundTripArray) {
  const std::vector<Platform> platforms = {
      Platform::native(), Platform::sparc32(), Platform::big64(),
      Platform::packed_le32()};
  int seg_id = 0;
  for (const Platform& wp : platforms) {
    for (const Platform& rp : platforms) {
      auto writer = make_client(wp);
      auto reader = make_client(rp);
      std::string url = "host/pair" + std::to_string(seg_id++);

      const TypeDescriptor* arr = writer->types().array_of(
          writer->types().primitive(PrimitiveKind::kInt32), 64);
      ClientSegment* ws = writer->open_segment(url);
      writer->write_lock(ws);
      auto* raw = static_cast<uint8_t*>(writer->malloc_block(ws, arr, "a"));
      View wv(*writer, raw, arr);
      for (int i = 0; i < 64; ++i) wv.set_i32(i, i * 7 - 100);
      writer->write_unlock(ws);

      ClientSegment* rs = reader->open_segment(url);
      reader->read_lock(rs);
      auto* blk = rs->heap().find_by_name("a");
      ASSERT_NE(blk, nullptr);
      View rv(*reader, const_cast<uint8_t*>(blk->data()), blk->type);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(rv.get_i32(i), i * 7 - 100)
            << wp.name << " -> " << rp.name << " unit " << i;
      }
      reader->read_unlock(rs);
    }
  }
}

}  // namespace
}  // namespace iw
