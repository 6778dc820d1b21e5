// Unit tests of the benchmark harness itself: each checker must flag a
// synthetic history that contains its fault (and pass a clean one), and the
// span arithmetic must be exact on a hand-built tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "history.hpp"
#include "trace.hpp"

namespace pb {
namespace {

constexpr uint64_t kSeed = 42;
constexpr uint32_t kRecords = 256;
constexpr uint32_t kTouch = 16;
constexpr uint32_t kRelink = 4;
constexpr uint32_t kBase = 1;

/// A segment's records as a writer following the plans would leave them.
struct Model {
  std::vector<Rec> recs = std::vector<Rec>(kRecords);
  std::vector<uint32_t> next = std::vector<uint32_t>(kRecords);

  Model() {
    for (uint32_t i = 0; i < kRecords; ++i) {
      next[i] = (i + 1) % kRecords;
      stamp(recs[i], i, kBase, recs.data(), next[i]);
    }
  }
  void commit(uint32_t version) {
    CommitPlan plan = plan_commit(kSeed, 0, version, kRecords, kTouch, kRelink);
    for (size_t i = 0; i < plan.touched.size(); ++i) {
      uint32_t idx = plan.touched[i];
      if (i < plan.relinks.size()) next[idx] = plan.relinks[i];
      stamp(recs[idx], idx, version, recs.data(), next[idx]);
    }
  }
  RecordVals get(uint32_t i) const {
    const Rec& r = recs[i];
    return {r.id, r.x, r.y, std::string(r.tag), r.next - recs.data()};
  }
  std::string check(uint32_t version) const {
    std::vector<uint32_t> all(kRecords);
    for (uint32_t i = 0; i < kRecords; ++i) all[i] = i;
    return check_read([this](uint32_t i) { return get(i); }, kSeed, 0, version,
                      kBase, kRecords, kTouch, kRelink, all);
  }
};

TEST(CommitPlan, IsAFunctionOfSeedSegmentAndVersion) {
  CommitPlan a = plan_commit(kSeed, 0, 7, kRecords, kTouch, kRelink);
  CommitPlan b = plan_commit(kSeed, 0, 7, kRecords, kTouch, kRelink);
  EXPECT_EQ(a.touched, b.touched);
  EXPECT_EQ(a.relinks, b.relinks);
  EXPECT_NE(a.touched, plan_commit(kSeed, 1, 7, kRecords, kTouch, kRelink).touched);
  std::vector<uint32_t> sorted = a.touched;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(a.relinks.size(), kRelink);
}

TEST(ContentCheck, AcceptsEveryVersionOfACleanHistory) {
  Model m;
  EXPECT_EQ(m.check(kBase), "");
  for (uint32_t v = kBase + 1; v < kBase + 20; ++v) {
    m.commit(v);
    EXPECT_EQ(m.check(v), "") << "version " << v;
  }
}

TEST(ContentCheck, FlagsATornRecord) {
  Model m;
  m.commit(2);
  m.commit(3);
  // A diff applied halfway: x moved to the new version, y did not.
  uint32_t idx = plan_commit(kSeed, 0, 3, kRecords, kTouch, kRelink).touched[5];
  m.recs[idx].y = y_of(idx, 2);
  EXPECT_NE(m.check(3), "");
}

TEST(ContentCheck, FlagsContentOlderThanTheReportedVersion) {
  Model m;
  m.commit(2);
  // Data of version 2 reported as version 3: version 3's records are absent.
  EXPECT_NE(m.check(3), "");
}

TEST(ContentCheck, FlagsContentNewerThanTheReportedVersion) {
  Model m;
  m.commit(2);
  m.commit(3);
  EXPECT_NE(m.check(2), "");
}

TEST(ContentCheck, FlagsAMisSwizzledLink) {
  Model m;
  m.commit(2);
  uint32_t idx = plan_commit(kSeed, 0, 2, kRecords, kTouch, kRelink).touched[0];
  m.recs[idx].next = m.recs.data() + (m.next[idx] + 1) % kRecords;
  EXPECT_NE(m.check(2), "");
}

TEST(StaleReadCheck, FlagsAReadBelowItsAckedFloor) {
  std::vector<ReadObs> clean = {{3, 3}, {3, 4}, {5, 5}};
  EXPECT_EQ(count_stale(clean), 0u);
  std::vector<ReadObs> stale = {{3, 3}, {5, 4}, {5, 5}, {9, 7}};
  EXPECT_EQ(count_stale(stale), 2u);
}

TEST(LostAckCheck, FlagsARecoveredVersionBelowTheAck) {
  std::vector<SegmentVersions> acked = {{"a", 10}, {"b", 20}};
  EXPECT_TRUE(lost_acks(acked, {{"a", 10}, {"b", 20}}).empty());
  EXPECT_TRUE(lost_acks(acked, {{"a", 11}, {"b", 20}}).empty());
  auto lost = lost_acks(acked, {{"a", 10}, {"b", 19}});
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_NE(lost[0].find("b"), std::string::npos);
  EXPECT_EQ(lost_acks(acked, {{"a", 10}}).size(), 1u);  // segment missing
}

TEST(ReplicaCheck, FlagsAReplicaThatDiffers) {
  std::vector<SegmentVersions> primary = {{"a", 10}, {"b", 20}};
  EXPECT_TRUE(replica_mismatches(primary, primary).empty());
  EXPECT_EQ(replica_mismatches(primary, {{"a", 10}, {"b", 18}}).size(), 1u);
}

Span span(const char* name, uint64_t id, uint64_t parent, int64_t start, int64_t end,
          Side side = Side::kBench, uint64_t rid = 0) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.side = side;
  s.rid = rid;
  return s;
}

std::vector<Span> hand_built_tree() {
  // write_cs [0,100): write_lock [2,20), modify [20,30), write_unlock [31,97)
  // write_unlock: rpc [40,90) whose server handle [50,70) is linked by rid.
  return {
      span("write_cs", 1, 0, 0, 100),
      span("write_lock", 2, 1, 2, 20),
      span("modify", 3, 1, 20, 30),
      span("write_unlock", 4, 1, 31, 97),
      span("rpc", 5, 4, 40, 90, Side::kClient, 77),
      span("server.handle", 6, 0, 50, 70, Side::kServer, 77),
  };
}

TEST(SpanArithmetic, SelfTimesOnAHandBuiltTree) {
  std::vector<Span> spans = hand_built_tree();
  EXPECT_EQ(link_by_request_id(spans), 1u);
  EXPECT_EQ(spans[5].parent, 5u);
  auto self = self_times(spans);
  EXPECT_EQ(self[1], 100 - 18 - 10 - 66);  // unattributed: 6
  EXPECT_EQ(self[2], 18);
  EXPECT_EQ(self[4], 66 - 50);  // release self time
  EXPECT_EQ(self[5], 50 - 20);  // transit
  EXPECT_EQ(self[6], 20);
}

TEST(SpanArithmetic, LedgerAddsUpOnAHandBuiltTree) {
  std::vector<Span> spans = hand_built_tree();
  link_by_request_id(spans);
  LedgerCheck c = check_ledger(spans, "write_cs");
  EXPECT_EQ(c.roots, 1u);
  EXPECT_EQ(c.violations, 0u);
  ASSERT_EQ(c.unattributed_ns.size(), 1u);
  EXPECT_EQ(c.unattributed_ns[0], 6);
}

TEST(SpanArithmetic, LedgerFlagsOverlappingChildren) {
  std::vector<Span> spans = hand_built_tree();
  spans[2].start = 15;  // modify overlaps write_lock
  EXPECT_EQ(check_ledger(spans, "write_cs").violations, 1u);
  spans = hand_built_tree();
  spans[3].end = 120;  // write_unlock escapes its parent
  EXPECT_EQ(check_ledger(spans, "write_cs").violations, 1u);
}

TEST(Tracer, NestsSpansOnOneThreadAndDrains) {
  Tracer& t = Tracer::global();
  t.drain();
  t.set_enabled(true);
  uint64_t outer = t.open("outer");
  {
    Scope inner("inner");
  }
  t.close(outer, 9);
  t.set_enabled(false);
  EXPECT_EQ(t.open("ignored"), 0u);
  std::vector<Span> spans = t.drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].rid, 9u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[1].end, spans[0].end);
  EXPECT_TRUE(t.drain().empty());
}

TEST(Windowed, MedianOverSlicesIgnoresOneDisturbedSlice) {
  Windowed w(0, 100, 4);  // four 25 ns slices
  for (int64_t t = 0; t < 100; ++t) w.add(t, t >= 75 ? 1000.0 : 10.0);
  EXPECT_EQ(w.size(), 100u);
  EXPECT_EQ(w.percentile(0.5), 10.0);
  // 100 samples leave no group ten beyond a p99: it spans the whole run.
  EXPECT_EQ(w.percentile(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(w.rate(), 25 / 25e-9);
  w.add(-5, 1.0);  // clamped into the first slice
  w.add(500, 1.0);  // and the last
  EXPECT_EQ(w.size(), 102u);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({5, 1, 3}, 0.5), 3.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 0.5), 2.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 0.99), 4.0);
}

}  // namespace
}  // namespace pb
