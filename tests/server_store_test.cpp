// SegmentStore unit tests: subblock version tracking, version-list/marker
// maintenance, diff caching, free history, and checkpoint round trips.
#include "server/segment_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "wire/translate.hpp"

namespace iw::server {
namespace {

/// Builds a client-shaped diff that creates one int-array block.
std::vector<uint8_t> make_create_diff(SegmentStore& store, uint32_t serial,
                                      uint32_t n_ints, uint32_t type_serial,
                                      const std::string& name = {}) {
  Buffer out;
  DiffWriter w(out, store.version(), store.version() + 1);
  w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, type_serial,
                name);
  w.begin_run(0, n_ints);
  for (uint32_t i = 0; i < n_ints; ++i) out.append_u32(i);
  w.end_block();
  w.finish();
  return out.take();
}

std::vector<uint8_t> make_update_diff(SegmentStore& store, uint32_t serial,
                                      uint32_t start, uint32_t count,
                                      uint32_t value) {
  Buffer out;
  DiffWriter w(out, store.version(), store.version() + 1);
  w.begin_block(serial, 0);
  w.begin_run(start, count);
  for (uint32_t i = 0; i < count; ++i) out.append_u32(value + i);
  w.end_block();
  w.finish();
  return out.take();
}

uint32_t register_int_array(SegmentStore& store, uint32_t n) {
  TypeRegistry scratch(Platform::native().rules);
  Buffer graph;
  TypeCodec::encode_graph(
      scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), n), graph);
  return store.register_type(graph.span());
}

TEST(SegmentStore, FreshStoreState) {
  SegmentStore store("s", {});
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.next_block_serial(), 1u);
  EXPECT_EQ(store.block_count(), 0u);
}

TEST(SegmentStore, TypeRegistrationDedups) {
  SegmentStore store("s", {});
  uint32_t a = register_int_array(store, 100);
  uint32_t b = register_int_array(store, 100);
  uint32_t c = register_int_array(store, 200);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(store.type_count(), 2u);
}

TEST(SegmentStore, ApplyCreateDiff) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 64);
  uint32_t v = store.apply_diff(make_create_diff(store, 1, 64, t, "data"));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.next_block_serial(), 2u);
  const SvrBlock* blk = store.find_block(1);
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(blk->name, "data");
  EXPECT_EQ(blk->created_version, 2u);
  EXPECT_EQ(store.find_block_by_name("data"), blk);
  // 64 units / 16 per subblock = 4 subblocks, all at version 2.
  ASSERT_EQ(blk->subblock_count(), 4u);
  for (uint32_t sv : blk->subblock_versions) EXPECT_EQ(sv, 2u);
}

TEST(SegmentStore, SubblockVersionsTrackPartialUpdates) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 64);
  store.apply_diff(make_create_diff(store, 1, 64, t));
  store.apply_diff(make_update_diff(store, 1, 20, 4, 999));  // units 20-23
  const SvrBlock* blk = store.find_block(1);
  // Units 20-23 live in subblock 1 only.
  EXPECT_EQ(blk->subblock_versions[0], 2u);
  EXPECT_EQ(blk->subblock_versions[1], 3u);
  EXPECT_EQ(blk->subblock_versions[2], 2u);
  EXPECT_EQ(blk->version, 3u);
}

TEST(SegmentStore, CollectDiffForStaleClientSendsOnlyNewSubblocks) {
  SegmentStore::Options options;
  options.enable_diff_cache = false;
  SegmentStore store("s", options);
  uint32_t t = register_int_array(store, 256);
  store.apply_diff(make_create_diff(store, 1, 256, t));  // v2

  auto full = store.collect_diff(0);
  store.apply_diff(make_update_diff(store, 1, 0, 2, 5));  // v3, subblock 0

  auto incr = store.collect_diff(2);
  EXPECT_LT(incr->size(), full->size() / 4)
      << "incremental diff must be much smaller than a full send";

  // Parse: one block entry, one run covering exactly subblock 0 (units 0-15).
  BufReader in(incr->data(), incr->size());
  DiffReader r(in);
  EXPECT_EQ(r.from_version(), 2u);
  EXPECT_EQ(r.to_version(), 3u);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  EXPECT_EQ(e.serial, 1u);
  EXPECT_EQ(e.flags, 0);
  DiffRun run = e.read_run();
  EXPECT_EQ(run.start_unit, 0u);
  EXPECT_EQ(run.unit_count, 16u);
}

TEST(SegmentStore, CollectMergesAdjacentDirtySubblocks) {
  SegmentStore::Options options;
  options.enable_diff_cache = false;
  SegmentStore store("s", options);
  uint32_t t = register_int_array(store, 256);
  store.apply_diff(make_create_diff(store, 1, 256, t));
  store.apply_diff(make_update_diff(store, 1, 10, 30, 7));  // subblocks 0,1,2

  auto diff = store.collect_diff(2);
  BufReader in(diff->data(), diff->size());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  DiffRun run = e.read_run();
  EXPECT_EQ(run.start_unit, 0u);
  EXPECT_EQ(run.unit_count, 48u);  // one merged run, 3 subblocks
  EXPECT_TRUE(e.runs.remaining() == 48 * 4);
}

TEST(SegmentStore, FreeHistoryInformsStaleClients) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 16);
  store.apply_diff(make_create_diff(store, 1, 16, t));  // v2
  store.apply_diff(make_create_diff(store, 2, 16, t));  // v3

  // Free block 1 at v4.
  Buffer out;
  DiffWriter w(out, store.version(), store.version() + 1);
  w.add_free(1);
  w.finish();
  store.apply_diff(out.span());

  // A client at v3 saw block 1: it gets the free entry.
  auto diff = store.collect_diff(3);
  BufReader in(diff->data(), diff->size());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  EXPECT_TRUE(e.flags & diff_flags::kFree);
  EXPECT_EQ(e.serial, 1u);

  // A fresh client never saw it: no free entry, one create entry.
  auto fresh = store.collect_diff(0);
  BufReader in2(fresh->data(), fresh->size());
  DiffReader r2(in2);
  ASSERT_TRUE(r2.next(&e));
  EXPECT_FALSE(e.flags & diff_flags::kFree);
  EXPECT_EQ(e.serial, 2u);
  EXPECT_FALSE(r2.next(&e));
}

TEST(SegmentStore, DiffCacheServesRepeatRequests) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 64);
  store.apply_diff(make_create_diff(store, 1, 64, t));
  store.apply_diff(make_update_diff(store, 1, 0, 4, 9));

  // The applied diff (v2 -> v3) was cached; a client at v2 reuses it.
  auto d1 = store.collect_diff(2);
  EXPECT_EQ(store.stats().diff_cache_hits, 1u);
  auto d2 = store.collect_diff(2);
  EXPECT_EQ(store.stats().diff_cache_hits, 2u);
  EXPECT_EQ(d1.get(), d2.get()) << "same cached bytes object";

  // A different from-version misses and is built.
  auto d0 = store.collect_diff(0);
  EXPECT_EQ(store.stats().diff_cache_misses, 1u);
  // ... and is itself now cached.
  auto d0b = store.collect_diff(0);
  EXPECT_EQ(d0.get(), d0b.get());
}

TEST(SegmentStore, DiffCacheKeepsAnAppliedCommitsBytesAndSection) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 64);
  auto diff = std::make_shared<const std::vector<uint8_t>>(
      make_create_diff(store, 1, 64, t));
  auto section = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>{1, 2, 3});
  EXPECT_EQ(store.apply_diff(diff, section), 2u);
  // A reader one version behind is served the commit's own objects.
  EXPECT_EQ(store.collect_diff(1).get(), diff.get()) << "no copy";
  EXPECT_EQ(store.cached_section(1).get(), section.get());
  EXPECT_EQ(store.stats().diff_cache_hits, 1u);

  // A collected diff has no section until one is recorded for it.
  store.collect_diff(0);
  EXPECT_EQ(store.cached_section(0), nullptr);
  store.cache_section(0, section);
  EXPECT_EQ(store.cached_section(0).get(), section.get());
  // Sections belong to a (from, to) pair: a new version retires them.
  store.apply_diff(make_update_diff(store, 1, 0, 4, 9));
  EXPECT_EQ(store.cached_section(1), nullptr);
  EXPECT_EQ(store.cached_section(0), nullptr);
}

TEST(SegmentStore, DiffCacheEvictsOldestByBytes) {
  // Blocks of about a quarter of the byte bound each: the cache runs out
  // of bytes long before it runs out of entries.
  constexpr uint32_t kQuarter =
      static_cast<uint32_t>(SegmentStore::kDiffCacheBytes / 4 / 4);
  static_assert(SegmentStore::kDiffCacheEntries > 4);
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, kQuarter);
  for (uint32_t serial = 1; serial <= 3; ++serial) {
    store.apply_diff(make_create_diff(store, serial, kQuarter, t));
  }
  // Cached: (1,2), (2,3), (3,4) — three quarters of the bound.
  auto hits = [&] { return store.stats().diff_cache_hits; };
  store.collect_diff(3);
  EXPECT_EQ(hits(), 1u);
  // (2,4) is half the bound: the two oldest entries make room for it.
  auto from2 = store.collect_diff(2);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(store.collect_diff(2).get(), from2.get());
  EXPECT_EQ(store.collect_diff(3).get(), store.collect_diff(3).get());
  EXPECT_EQ(hits(), 4u);
  // (0,4) is three quarters: everything older goes, (3,4) included.
  auto from0 = store.collect_diff(0);
  EXPECT_EQ(store.collect_diff(0).get(), from0.get());
  EXPECT_EQ(hits(), 5u);
  const uint64_t misses = store.stats().diff_cache_misses;
  EXPECT_NE(store.collect_diff(2).get(), from2.get()) << "evicted by bytes";
  EXPECT_EQ(store.stats().diff_cache_misses, misses + 1);
}

TEST(SegmentStore, DiffCacheDisabledAlwaysBuilds) {
  SegmentStore::Options options;
  options.enable_diff_cache = false;
  SegmentStore store("s", options);
  uint32_t t = register_int_array(store, 64);
  store.apply_diff(make_create_diff(store, 1, 64, t));
  auto d1 = store.collect_diff(0);
  auto d2 = store.collect_diff(0);
  EXPECT_NE(d1.get(), d2.get());
  EXPECT_EQ(store.stats().diff_cache_hits, 0u);
}

TEST(SegmentStore, StaleBaseVersionRejected) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 16);
  store.apply_diff(make_create_diff(store, 1, 16, t));
  Buffer out;
  DiffWriter w(out, 1, 2);  // base v1, but store is at v2
  w.begin_block(1, 0);
  w.begin_run(0, 1);
  out.append_u32(1);
  w.end_block();
  w.finish();
  try {
    store.apply_diff(out.span());
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kState);
  }
}

TEST(SegmentStore, MalformedDiffsRejected) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 16);
  store.apply_diff(make_create_diff(store, 1, 16, t));

  // Run beyond block bounds.
  Buffer out;
  DiffWriter w(out, store.version(), store.version() + 1);
  w.begin_block(1, 0);
  w.begin_run(10, 100);
  for (int i = 0; i < 100; ++i) out.append_u32(0);
  w.end_block();
  w.finish();
  EXPECT_THROW(store.apply_diff(out.span()), Error);

  // Update of unknown block.
  EXPECT_THROW(store.apply_diff(make_update_diff(store, 99, 0, 1, 0)), Error);

  // New block with unknown type.
  Buffer out2;
  DiffWriter w2(out2, store.version(), store.version() + 1);
  w2.begin_block(5, diff_flags::kNew, 42, "x");
  w2.begin_run(0, 1);
  out2.append_u32(0);
  w2.end_block();
  w2.finish();
  EXPECT_THROW(store.apply_diff(out2.span()), Error);
}

TEST(SegmentStore, StringsOutOfLineAndPointersInline) {
  SegmentStore store("s", {});
  TypeRegistry scratch(Platform::native().rules);
  const TypeDescriptor* rec = scratch.struct_builder("rec")
      .field("name", scratch.string_type(16))
      .field("next", scratch.pointer_to(nullptr))
      .field("self", scratch.pointer_to(nullptr))
      .field("none", scratch.pointer_to(nullptr))
      .finish();
  Buffer graph;
  TypeCodec::encode_graph(rec, graph);
  uint32_t t = store.register_type(graph.span());

  // Golden run bytes: a string unit, then the three pointer-unit forms.
  const std::vector<uint8_t> units = {
      0x05, 'h', 'e', 'l', 'l', 'o',                 // vs "hello"
      0x02, 0x0e, 'h', 'o', 's', 't', '/', 'o', 't',  // cross: v 2, vs mip
      'h', 'e', 'r', '#', '1', '#', '0',
      0x05, 0x03,                                    // intra: serial 1, unit 3
      0x00};                                         // null
  Buffer out;
  DiffWriter w(out, 1, 2);
  w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, t, "");
  w.begin_run(0, 4);
  out.append(units.data(), units.size());
  w.end_block();
  w.finish();
  store.apply_diff(out.span());

  // The string and the cross-segment MIP live out of line; the string's
  // slot comes first, and the MIP takes the slot of its pointer field.
  const SvrBlock* blk = store.find_block(1);
  ASSERT_EQ(blk->vardata.size(), 2u);
  EXPECT_EQ(blk->vardata[0], "hello");
  EXPECT_EQ(blk->vardata[1], "host/other#1#0");
  // Pointer fields are inline u32 serial | u32 unit after the 4-byte
  // string slot id: cross names vardata slot 1 (unit 2), intra block 1
  // unit 3, null all zero.
  ASSERT_EQ(blk->data.size(), 4u + 3 * LayoutRules::kPackedPointerBytes);
  const std::vector<uint8_t> fields(blk->data.begin() + 4, blk->data.end());
  EXPECT_EQ(fields, (std::vector<uint8_t>{0, 0, 0, 0, 0, 0, 0, 2,  //
                                          0, 0, 0, 1, 0, 0, 0, 3,  //
                                          0, 0, 0, 0, 0, 0, 0, 0}));

  // Collecting re-emits the committed unit bytes exactly.
  auto diff = store.collect_diff(0);
  BufReader in(diff->data(), diff->size());
  DiffReader r(in);
  DiffEntry e;
  ASSERT_TRUE(r.next(&e));
  e.read_run();
  auto back = e.runs.read_bytes(e.runs.remaining());
  EXPECT_EQ(std::vector<uint8_t>(back.begin(), back.end()), units);
}

// The slot numbering a store has always used, from a walk over every unit:
// string n in visit order holds slot n, pointer n slot string_units() + n.
struct VisitOrderSlot {
  PrimitiveKind kind;
  uint32_t offset;  // packed-canonical byte offset of the field
  uint32_t slot;
};
std::vector<VisitOrderSlot> visit_order_slots(const TypeDescriptor& type) {
  std::vector<VisitOrderSlot> strings, pointers;
  type.visit_runs(0, type.prim_units(), [&](const PrimRun& run) {
    auto& out = run.kind == PrimitiveKind::kString ? strings : pointers;
    if (run.kind != PrimitiveKind::kString &&
        run.kind != PrimitiveKind::kPointer) {
      return;
    }
    for (uint64_t i = 0; i < run.unit_count; ++i) {
      out.push_back({run.kind,
                     run.local_offset +
                         static_cast<uint32_t>(i * run.local_stride),
                     0});
    }
  });
  for (size_t i = 0; i < strings.size(); ++i) {
    strings[i].slot = static_cast<uint32_t>(i);
  }
  for (size_t i = 0; i < pointers.size(); ++i) {
    pointers[i].slot = static_cast<uint32_t>(strings.size() + i);
  }
  strings.insert(strings.end(), pointers.begin(), pointers.end());
  return strings;
}

TEST(SegmentStore, VarSlotsFollowVisitOrder) {
  TypeRegistry t(Platform::native().rules);
  const TypeDescriptor* ptr = t.pointer_to(nullptr);
  const TypeDescriptor* two_strings = t.struct_builder("two")
      .field("a", t.primitive(PrimitiveKind::kInt32))
      .field("s", t.string_type(8))
      .field("d", t.primitive(PrimitiveKind::kFloat64))
      .field("u", t.string_type(9))
      .field("p", ptr)
      .finish();
  const TypeDescriptor* holds_array = t.struct_builder("holds")
      .field("x", t.primitive(PrimitiveKind::kInt16))
      .field("names", t.array_of(t.string_type(10), 4))
      .field("p", ptr)
      .field("q", ptr)
      .finish();
  const TypeDescriptor* cell = t.struct_builder("cell")
      .field("p", ptr)
      .field("s", t.string_type(12))
      .field("v", t.primitive(PrimitiveKind::kInt32))
      .finish();
  const TypeDescriptor* flat = t.struct_builder("flat")
      .field("a", t.string_type(16))
      .field("b", t.primitive(PrimitiveKind::kInt32))
      .field("p", ptr)
      .field("c", t.string_type(9))
      .finish();
  const std::vector<const TypeDescriptor*> shapes = {
      t.array_of(two_strings, 6), holds_array,
      t.array_of(t.array_of(cell, 4), 3), t.array_of(t.string_type(11), 5),
      flat};

  for (const TypeDescriptor* shape : shapes) {
    SegmentStore store("s", {});
    Buffer graph;
    TypeCodec::encode_graph(shape, graph);
    const uint32_t type_serial = store.register_type(graph.span());
    // Create one block: string n holds "s<n>", pointer n the MIP "m#<n>#0".
    uint32_t strings = 0, pointers = 0;
    Buffer out;
    DiffWriter w(out, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial, "");
    w.begin_run(0, static_cast<uint32_t>(shape->prim_units()));
    shape->visit_runs(0, shape->prim_units(), [&](const PrimRun& run) {
      for (uint64_t i = 0; i < run.unit_count; ++i) {
        if (run.kind == PrimitiveKind::kString) {
          out.append_vstring("s" + std::to_string(strings++));
        } else if (run.kind == PrimitiveKind::kPointer) {
          append_cross_pointer_tag(out);
          out.append_vstring("m#" + std::to_string(pointers++) + "#0");
        } else {
          for (uint32_t b = 0; b < wire_size_of(run.kind); ++b) out.append_u8(0);
        }
      }
    });
    w.end_block();
    w.finish();
    ASSERT_EQ(store.apply_diff(out.span()), 2u);

    const SvrBlock* blk = store.find_block(1);
    ASSERT_NE(blk, nullptr);
    const TypeDescriptor& type = *blk->type;
    EXPECT_EQ(type.string_units(), strings);
    EXPECT_EQ(type.pointer_units(), pointers);
    EXPECT_EQ(store.total_data_bytes(),
              type.fixed_wire_size() + 8ull * (strings + pointers));
    const std::vector<VisitOrderSlot> slots = visit_order_slots(type);
    ASSERT_EQ(slots.size(), strings + pointers);
    ASSERT_EQ(blk->vardata.size(), strings + pointers);
    for (const VisitOrderSlot& v : slots) {
      const uint8_t* field = blk->data.data() + v.offset;
      if (v.kind == PrimitiveKind::kString) {
        EXPECT_EQ(type.var_unit_index(v.kind, v.offset), v.slot);
        EXPECT_EQ(blk->vardata[v.slot], "s" + std::to_string(v.slot));
        EXPECT_EQ(load_be32(field), v.slot);  // the field stores its slot
      } else {
        EXPECT_EQ(type.var_unit_index(v.kind, v.offset), v.slot - strings);
        EXPECT_EQ(blk->vardata[v.slot],
                  "m#" + std::to_string(v.slot - strings) + "#0");
        EXPECT_EQ(load_be32(field), 0u);           // no block: a MIP
        EXPECT_EQ(load_be32(field + 4), v.slot + 1);  // its slot, plus one
      }
      // No unit of either kind starts inside a field, and a field is not
      // the other kind.
      EXPECT_EQ(type.var_unit_index(v.kind, v.offset + 1), TypeDescriptor::kNoVarUnit);
      const PrimitiveKind other = v.kind == PrimitiveKind::kString
                                      ? PrimitiveKind::kPointer
                                      : PrimitiveKind::kString;
      EXPECT_EQ(type.var_unit_index(other, v.offset), TypeDescriptor::kNoVarUnit);
    }
    EXPECT_EQ(type.var_unit_index(PrimitiveKind::kString, type.local_size()),
              TypeDescriptor::kNoVarUnit);

    // Collect re-emits every string and MIP from its slot.
    auto diff = store.collect_diff(1);
    SegmentStore copy("t", {});
    copy.register_type(graph.span());
    copy.apply_diff(*diff);
    EXPECT_EQ(copy.find_block(1)->vardata, blk->vardata);
    EXPECT_EQ(copy.find_block(1)->data, blk->data);
  }
}

TEST(SegmentStore, PointerTargetsAreChecked) {
  // Blocks of two pointer units each.
  TypeRegistry scratch(Platform::native().rules);
  Buffer graph;
  TypeCodec::encode_graph(
      scratch.array_of(scratch.pointer_to(nullptr), 2), graph);
  // Each malformed commit creates block 1 with `units` on a fresh store.
  auto code_of = [&](std::vector<uint8_t> units) {
    SegmentStore store("s", {});
    uint32_t t = store.register_type(graph.span());
    Buffer out;
    DiffWriter w(out, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, t, "");
    w.begin_run(0, 2);
    out.append(units.data(), units.size());
    w.end_block();
    w.finish();
    try {
      store.apply_diff(out.span());
    } catch (const Error& e) {
      EXPECT_EQ(store.version(), 1u);
      return e.code();
    }
    return ErrorCode::kInternal;
  };
  // Serial 5 was never allocated; block 1 has two units, not four; head 6
  // is an unknown tag.
  EXPECT_EQ(code_of({0x15, 0x00, 0x00}), ErrorCode::kProtocol);
  EXPECT_EQ(code_of({0x05, 0x04, 0x00}), ErrorCode::kProtocol);
  EXPECT_EQ(code_of({0x06, 0x00, 0x00}), ErrorCode::kProtocol);

  {
    // A pointer past a block the same diff creates later is refused before
    // it is stored, and the store is left as it was: the diff's free, its
    // writes to an existing block (a cross-segment MIP among them) and the
    // block it created before the bad unit are all taken back. The diff
    // cache is off, so every collect below is built from the store.
    SegmentStore::Options options;
    options.enable_diff_cache = false;
    SegmentStore store("s", options);
    uint32_t t = store.register_type(graph.span());
    Buffer first;  // 1 -> 2: blocks 1 and 2
    DiffWriter w1(first, 1, 2);
    for (uint32_t serial : {1u, 2u}) {
      w1.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, t, "");
      w1.begin_run(0, 2);
      append_null_pointer(first);
      append_intra_pointer(first, 3 - serial, 1);
      w1.end_block();
    }
    w1.finish();
    ASSERT_EQ(store.apply_diff(first.span()), 2u);
    Buffer second;  // 2 -> 3: block 1 points at block 2
    DiffWriter w2(second, 2, 3);
    w2.begin_block(1, 0);
    w2.begin_run(0, 1);
    append_intra_pointer(second, 2, 0);
    w2.end_block();
    w2.finish();
    ASSERT_EQ(store.apply_diff(second.span()), 3u);

    auto state = [&] {
      Buffer snapshot;
      store.serialize(snapshot);
      std::vector<std::vector<uint8_t>> collects;
      for (uint32_t v = 0; v <= store.version(); ++v) {
        collects.push_back(*store.collect_diff(v));
      }
      return std::make_pair(snapshot.take(), collects);
    };
    const auto before = state();
    const uint32_t next_serial = store.next_block_serial();

    Buffer bad;  // 3 -> 4, refused at block 3's second unit
    DiffWriter w3(bad, 3, 4);
    w3.add_free(2);
    w3.begin_block(1, 0);
    w3.begin_run(0, 2);
    append_cross_pointer_tag(bad);
    bad.append_vstring("other#1#0");
    append_intra_pointer(bad, 1, 0);
    w3.end_block();
    w3.begin_block(3, diff_flags::kNew | diff_flags::kWhole, t, "");
    w3.begin_run(0, 2);
    append_intra_pointer(bad, 4, 0);
    append_intra_pointer(bad, 4, 2);
    w3.end_block();
    w3.begin_block(4, diff_flags::kNew | diff_flags::kWhole, t, "");
    w3.begin_run(0, 2);
    append_null_pointer(bad);
    append_null_pointer(bad);
    w3.end_block();
    w3.finish();
    EXPECT_THROW(store.apply_diff(bad.span()), Error);
    EXPECT_EQ(store.version(), 3u);
    EXPECT_EQ(store.next_block_serial(), next_serial);
    EXPECT_EQ(store.find_block(3), nullptr);
    EXPECT_NE(store.find_block(2), nullptr);
    EXPECT_EQ(state(), before);
    // The store still takes the next commit, at the version it refused.
    Buffer next;
    DiffWriter w4(next, 3, 4);
    w4.begin_block(1, 0);
    w4.begin_run(1, 1);
    append_null_pointer(next);
    w4.end_block();
    w4.finish();
    EXPECT_EQ(store.apply_diff(next.span()), 4u);
  }

  SegmentStore store("s", {});
  uint32_t t = store.register_type(graph.span());
  // A pointer may name a block created later in the same diff.
  Buffer out;
  DiffWriter w(out, 1, 2);
  w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, t, "");
  w.begin_run(0, 2);
  append_intra_pointer(out, 2, 1);
  append_null_pointer(out);
  w.end_block();
  w.begin_block(2, diff_flags::kNew | diff_flags::kWhole, t, "");
  w.begin_run(0, 1);
  append_intra_pointer(out, 1, 0);
  w.end_block();
  w.finish();
  EXPECT_EQ(store.apply_diff(out.span()), 2u);
  // Freeing block 2 leaves block 1's pointer dangling; the segment still
  // accepts pointers to the freed serial (a later diff may resend them).
  Buffer free_diff;
  DiffWriter fw(free_diff, 2, 3);
  fw.add_free(2);
  fw.begin_block(1, 0);
  fw.begin_run(1, 1);
  append_intra_pointer(free_diff, 2, 0);
  fw.end_block();
  fw.finish();
  EXPECT_EQ(store.apply_diff(free_diff.span()), 3u);
}

TEST(SegmentStore, RefusedDiffRestoresStrings) {
  // Records {string<8>, pointer}: a refused diff first rewrites block 1's
  // strings (one longer than its capacity, which a store keeps) and then
  // names a unit block 1 does not have; the strings come back too.
  TypeRegistry scratch(Platform::native().rules);
  Buffer graph;
  TypeCodec::encode_graph(
      scratch.array_of(scratch.struct_builder("r")
                           .field("s", scratch.string_type(8))
                           .field("p", scratch.pointer_to(nullptr))
                           .finish(),
                       3),
      graph);
  SegmentStore::Options options;
  options.enable_diff_cache = false;
  SegmentStore store("s", options);
  const uint32_t t = store.register_type(graph.span());
  Buffer first;
  DiffWriter w1(first, 1, 2);
  w1.begin_block(1, diff_flags::kNew | diff_flags::kWhole, t, "");
  w1.begin_run(0, 6);
  for (const char* text : {"a", "bb", "ccc"}) {
    first.append_vstring(text);
    append_null_pointer(first);
  }
  w1.end_block();
  w1.finish();
  ASSERT_EQ(store.apply_diff(first.span()), 2u);
  Buffer before;
  store.serialize(before);
  const std::vector<uint8_t> collect_before = *store.collect_diff(0);

  Buffer bad;
  DiffWriter w2(bad, 2, 3);
  w2.begin_block(1, 0);
  w2.begin_run(0, 4);
  bad.append_vstring("xxxxxxxxxxxx");
  append_intra_pointer(bad, 1, 5);
  bad.append_vstring("y");
  append_intra_pointer(bad, 1, 6);  // block 1 has 6 units
  w2.end_block();
  w2.finish();
  EXPECT_THROW(store.apply_diff(bad.span()), Error);
  Buffer after;
  store.serialize(after);
  EXPECT_EQ(after.take(), before.take());
  EXPECT_EQ(*store.collect_diff(0), collect_before);
  EXPECT_EQ(store.find_block(1)->vardata,
            (std::vector<std::string>{"a", "bb", "ccc"}));
}

TEST(SegmentStore, SerializeDeserializeRoundTrip) {
  // Disable the diff cache so both stores build diffs from subblock state
  // (the cache would give the original store finer-grained cached bytes).
  SegmentStore::Options options;
  options.enable_diff_cache = false;
  SegmentStore store("s", options);
  uint32_t t = register_int_array(store, 64);
  store.apply_diff(make_create_diff(store, 1, 64, t, "a"));
  store.apply_diff(make_create_diff(store, 2, 64, t, "b"));
  store.apply_diff(make_update_diff(store, 1, 16, 4, 77));

  Buffer snapshot;
  store.serialize(snapshot);
  BufReader in(snapshot.span());
  auto restored = SegmentStore::deserialize("s", {}, in);
  EXPECT_TRUE(in.at_end());

  EXPECT_EQ(restored->version(), store.version());
  EXPECT_EQ(restored->next_block_serial(), store.next_block_serial());
  EXPECT_EQ(restored->block_count(), 2u);
  const SvrBlock* blk = restored->find_block(1);
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(blk->version, 4u);
  EXPECT_EQ(blk->subblock_versions[1], 4u);
  EXPECT_EQ(blk->subblock_versions[0], 2u);

  // Diffs collected from the restored store match the original's content.
  auto d_orig = store.collect_diff(3);
  auto d_rest = restored->collect_diff(3);
  ASSERT_EQ(d_orig->size(), d_rest->size());
  EXPECT_EQ(0, memcmp(d_orig->data(), d_rest->data(), d_orig->size()));
}

/// Checks that on `store` the diff from version 1, the empty segment, lists
/// what the diff from 0 lists: the same entries, one per live block, with
/// only the header's base differing.
void expect_empty_segment_diff_is_whole(SegmentStore& store) {
  auto from0 = store.collect_diff(0);
  auto from1 = store.collect_diff(kEmptySegmentVersion);
  BufReader in0(from0->data(), from0->size());
  BufReader in1(from1->data(), from1->size());
  DiffReader r0(in0);
  DiffReader r1(in1);
  EXPECT_EQ(r0.from_version(), 0u);
  EXPECT_EQ(r1.from_version(), 1u);
  EXPECT_EQ(r1.to_version(), store.version());
  EXPECT_EQ(r0.to_version(), store.version());
  EXPECT_EQ(r1.entry_count(), store.block_count());
  EXPECT_EQ(r0.entry_count(), r1.entry_count());
  auto entries0 = in0.read_bytes(in0.remaining());
  auto entries1 = in1.read_bytes(in1.remaining());
  EXPECT_TRUE(std::equal(entries0.begin(), entries0.end(), entries1.begin(),
                         entries1.end()));
}

TEST(SegmentStore, DiffFromEmptySegmentListsWhatDiffFromZeroDoes) {
  // Collected, not cached, so both diffs are built from the store's state.
  SegmentStore::Options options;
  options.enable_diff_cache = false;
  SegmentStore store("s", options);
  const uint32_t t = register_int_array(store, 40);
  store.apply_diff(make_create_diff(store, 1, 40, t, "a"));  // v2
  store.apply_diff(make_create_diff(store, 2, 40, t));       // v3
  store.apply_diff(make_create_diff(store, 3, 40, t));       // v4
  store.apply_diff(make_update_diff(store, 1, 20, 4, 9));    // v5
  Buffer free_diff;
  DiffWriter w(free_diff, store.version(), store.version() + 1);
  w.add_free(2);
  w.finish();
  store.apply_diff(free_diff.span());  // v6
  ASSERT_EQ(store.block_count(), 2u);

  {
    SCOPED_TRACE("by commits");
    expect_empty_segment_diff_is_whole(store);
  }
  {
    SCOPED_TRACE("by snapshot");
    Buffer snapshot;
    store.serialize(snapshot);
    BufReader in(snapshot.span());
    auto restored = SegmentStore::deserialize("s", options, in);
    expect_empty_segment_diff_is_whole(*restored);
  }
  {
    // A WAL-tail sync from the empty segment folds the whole window.
    SCOPED_TRACE("by WAL-tail fold");
    Buffer body;
    store.collect_fold_history(kEmptySegmentVersion, body);
    auto diff = store.collect_diff(kEmptySegmentVersion);
    body.append(diff->data(), diff->size());
    SegmentStore folded("s", options);
    ASSERT_EQ(register_int_array(folded, 40), t);
    BufReader in(body.span());
    EXPECT_EQ(folded.apply_fold(store.version(), in), store.version());
    expect_empty_segment_diff_is_whole(folded);
  }
}

TEST(SegmentStore, SnapshotDatingAChangeAtTheEmptySegmentIsRefused) {
  // A v3 snapshot with one free record (block 1, created at `created`,
  // freed at v3) and no blocks.
  auto load = [](uint32_t created) {
    Buffer snapshot;
    snapshot.append_u32(3);  // version
    snapshot.append_u32(2);  // next serial
    snapshot.append_u32(0);  // types
    snapshot.append_u32(1);  // free records
    snapshot.append_u32(1);
    snapshot.append_u32(created);
    snapshot.append_u32(3);
    snapshot.append_u32(0);  // version-list nodes
    BufReader in(snapshot.span());
    return SegmentStore::deserialize("s", {}, in);
  };
  EXPECT_EQ(load(2)->version(), 3u);
  try {
    load(kEmptySegmentVersion);
    ADD_FAILURE() << "a change dated at the empty segment was loaded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

TEST(SegmentStore, LastBlockPredictionHitsOnSequentialDiffs) {
  SegmentStore store("s", {});
  uint32_t t = register_int_array(store, 32);
  // Create 10 blocks in one diff.
  {
    Buffer out;
    DiffWriter w(out, 1, 2);
    for (uint32_t serial = 1; serial <= 10; ++serial) {
      w.begin_block(serial, diff_flags::kNew | diff_flags::kWhole, t, "");
      w.begin_run(0, 32);
      for (int i = 0; i < 32; ++i) out.append_u32(i);
      w.end_block();
    }
    w.finish();
    store.apply_diff(out.span());
  }
  // Update all 10 in serial order, twice. The second pass should follow the
  // version-list order established by the first and hit the prediction.
  for (int round = 0; round < 2; ++round) {
    Buffer out;
    DiffWriter w(out, store.version(), store.version() + 1);
    for (uint32_t serial = 1; serial <= 10; ++serial) {
      w.begin_block(serial, 0);
      w.begin_run(0, 1);
      out.append_u32(round);
      w.end_block();
    }
    w.finish();
    store.apply_diff(out.span());
  }
  EXPECT_GT(store.stats().prediction_hits, 8u);
}

}  // namespace
}  // namespace iw::server
