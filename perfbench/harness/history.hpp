// The benchmark's data model and its correctness checkers.
//
// Every segment is one array block of pointer-linked records
//   { int32 id; double x, y; string<16> tag; rec* next; }
// and every write is a pure function of (seed, segment, version): the
// records a commit touches and the links it re-aims come from a SplitMix64
// stream keyed by those three numbers. A record therefore carries enough
// to be checked on its own — x is the version that last wrote it, y and
// tag are derived from (id, x, link target) — and any reader that knows
// the seed can tell whether the content it holds is the version it was
// told it holds.
//
// The checkers work on plain values so they can be fed synthetic
// histories: a stale Full read, a torn record, a lost acknowledgement.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

/// Native layout of one record (matches the registry's native layout; the
/// harness asserts this at startup).
struct Rec {
  int32_t id;
  double x;
  double y;
  char tag[16];
  Rec* next;
};

/// One record as a reader sees it, in platform-neutral values.
struct RecordVals {
  int64_t id = 0;
  double x = 0;
  double y = 0;
  std::string tag;
  int64_t next = -1;  ///< index of the record `next` points at; -1 = bad
};

/// The write a commit makes: which records it stamps and which links it
/// re-aims (relinks[i] applies to touched[i] for i < relinks.size()).
struct CommitPlan {
  std::vector<uint32_t> touched;
  std::vector<uint32_t> relinks;
};
CommitPlan plan_commit(uint64_t seed, uint32_t segment, uint32_t version,
                       uint32_t records, uint32_t touch, uint32_t relink);

/// Derived fields of record `index` last written at `version` linking to
/// `target`.
double y_of(uint32_t index, uint32_t version);
std::string tag_of(uint32_t version, uint32_t target);
/// Writes record `index` as stamped at `version` with link `target`.
void stamp(Rec& r, uint32_t index, uint32_t version, Rec* base, uint32_t target);

/// Self-consistency of one record: id, y and tag agree with x and the
/// record's link, and x is no newer than `version`. Returns "" when the
/// record is consistent, else what is wrong.
std::string check_record(uint32_t index, const RecordVals& r, uint32_t version);

/// Content check of one read that reports `version`: every record the plan
/// of `version` touched must carry x == version (unless `version` is the
/// populated base), and every sampled record must be self-consistent.
/// Returns "" or the first problem found.
std::string check_read(const std::function<RecordVals(uint32_t)>& get,
                       uint64_t seed, uint32_t segment, uint32_t version,
                       uint32_t base_version, uint32_t records, uint32_t touch,
                       uint32_t relink, const std::vector<uint32_t>& sample);

/// One Full-coherence read: the newest version acknowledged to a writer
/// before read_lock began (`floor`) and the version the read returned.
struct ReadObs {
  uint32_t floor = 0;
  uint32_t version = 0;
};
/// Reads that returned a version below their floor.
uint64_t count_stale(const std::vector<ReadObs>& reads);

/// Acknowledged versions that a recovered (or replica) server does not
/// hold: one entry per segment whose recovered version is below the last
/// version acknowledged for it. Segments are matched by position.
struct SegmentVersions {
  std::string name;
  uint32_t version = 0;
};
std::vector<std::string> lost_acks(const std::vector<SegmentVersions>& acked,
                                   const std::vector<SegmentVersions>& held);

/// Segments whose replica version differs from the primary's.
std::vector<std::string> replica_mismatches(
    const std::vector<SegmentVersions>& primary,
    const std::vector<SegmentVersions>& replica);

}  // namespace pb
