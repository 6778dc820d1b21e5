#include "history.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "util/rand.hpp"

namespace pb {

CommitPlan plan_commit(uint64_t seed, uint32_t segment, uint32_t version,
                       uint32_t records, uint32_t touch, uint32_t relink) {
  iw::SplitMix64 rng(seed ^ (static_cast<uint64_t>(segment) << 48) ^
                     (static_cast<uint64_t>(version) * 0x9E3779B97F4A7C15ULL));
  CommitPlan plan;
  touch = std::min(touch, records);
  std::unordered_set<uint32_t> seen;
  while (plan.touched.size() < touch) {
    auto idx = static_cast<uint32_t>(rng.below(records));
    if (seen.insert(idx).second) plan.touched.push_back(idx);
  }
  for (uint32_t i = 0; i < std::min(relink, touch); ++i) {
    plan.relinks.push_back(static_cast<uint32_t>(rng.below(records)));
  }
  return plan;
}

double y_of(uint32_t index, uint32_t version) {
  // Exact in a double: both operands fit in 32 bits.
  return static_cast<double>((index * 2654435761u) ^ version);
}

std::string tag_of(uint32_t version, uint32_t target) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u>%u", version, target);
  return buf;
}

void stamp(Rec& r, uint32_t index, uint32_t version, Rec* base, uint32_t target) {
  r.id = static_cast<int32_t>(index);
  r.x = version;
  r.y = y_of(index, version);
  std::string t = tag_of(version, target);
  std::memset(r.tag, 0, sizeof r.tag);
  std::memcpy(r.tag, t.data(), std::min(t.size(), sizeof r.tag - 1));
  r.next = base + target;
}

std::string check_record(uint32_t index, const RecordVals& r, uint32_t version) {
  char buf[160];
  if (r.id != index) {
    std::snprintf(buf, sizeof buf, "record %u: id %lld", index,
                  static_cast<long long>(r.id));
    return buf;
  }
  if (r.x < 0 || r.x > version || r.x != static_cast<double>(static_cast<uint32_t>(r.x))) {
    std::snprintf(buf, sizeof buf, "record %u: x %.17g beyond version %u", index,
                  r.x, version);
    return buf;
  }
  auto x = static_cast<uint32_t>(r.x);
  if (r.y != y_of(index, x)) {
    std::snprintf(buf, sizeof buf, "record %u: y %.17g disagrees with x %u", index,
                  r.y, x);
    return buf;
  }
  if (r.next < 0 || r.tag != tag_of(x, static_cast<uint32_t>(r.next))) {
    std::snprintf(buf, sizeof buf, "record %u: tag '%s' disagrees with x %u next %lld",
                  index, r.tag.c_str(), x, static_cast<long long>(r.next));
    return buf;
  }
  return "";
}

std::string check_read(const std::function<RecordVals(uint32_t)>& get,
                       uint64_t seed, uint32_t segment, uint32_t version,
                       uint32_t base_version, uint32_t records, uint32_t touch,
                       uint32_t relink, const std::vector<uint32_t>& sample) {
  if (version > base_version) {
    CommitPlan plan = plan_commit(seed, segment, version, records, touch, relink);
    for (size_t i = 0; i < plan.touched.size(); ++i) {
      uint32_t idx = plan.touched[i];
      RecordVals r = get(idx);
      if (r.x != version) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "version %u: touched record %u holds x %.17g", version, idx,
                      r.x);
        return buf;
      }
      if (i < plan.relinks.size() && r.next != plan.relinks[i]) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "version %u: record %u links to %lld, plan says %u", version,
                      idx, static_cast<long long>(r.next), plan.relinks[i]);
        return buf;
      }
      std::string bad = check_record(idx, r, version);
      if (!bad.empty()) return bad;
    }
  }
  for (uint32_t idx : sample) {
    std::string bad = check_record(idx, get(idx), version);
    if (!bad.empty()) return bad;
  }
  return "";
}

uint64_t count_stale(const std::vector<ReadObs>& reads) {
  uint64_t n = 0;
  for (const ReadObs& r : reads) n += r.version < r.floor ? 1 : 0;
  return n;
}

std::vector<std::string> lost_acks(const std::vector<SegmentVersions>& acked,
                                   const std::vector<SegmentVersions>& held) {
  std::vector<std::string> out;
  for (size_t i = 0; i < acked.size(); ++i) {
    uint32_t have = i < held.size() ? held[i].version : 0;
    if (have < acked[i].version) {
      out.push_back(acked[i].name + ": acked " + std::to_string(acked[i].version) +
                    ", recovered " + std::to_string(have));
    }
  }
  return out;
}

std::vector<std::string> replica_mismatches(
    const std::vector<SegmentVersions>& primary,
    const std::vector<SegmentVersions>& replica) {
  std::vector<std::string> out;
  for (size_t i = 0; i < primary.size(); ++i) {
    uint32_t have = i < replica.size() ? replica[i].version : 0;
    if (have != primary[i].version) {
      out.push_back(primary[i].name + ": primary " +
                    std::to_string(primary[i].version) + ", replica " +
                    std::to_string(have));
    }
  }
  return out;
}

}  // namespace pb
