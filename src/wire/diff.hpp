// Machine-independent segment diffs — the paper's central wire artifact.
//
// A segment diff describes how a segment changed between two versions as a
// sequence of block entries. Each entry is either a freed block, a newly
// created block (carrying its type serial and optional symbolic name,
// followed by its full contents as one run), or a modified block carrying
// run-length-encoded changes. Runs address *primitive data units*, never
// bytes, so a diff collected on one architecture applies on any other.
//
// Layout (v = LEB128 varint, see util/buffer.hpp):
//   v from_version, v (to_version - from_version), v n_entries
//   entry:
//     v  serial
//     u8 flags (kNew | kFree | kWhole)
//     [kNew]  v type_serial, v name_len, name
//     [!kFree] v diff_bytes               -- paper's "block diff length"
//              runs, diff_bytes long:
//                v gap, v unit_count, unit data (wire format)
//
// A run starts `gap` units after the end of the previous run of the same
// entry (the first run: after unit 0), so runs are ascending and disjoint
// by construction; unit_count is never 0.
//
// DiffWriter streams entries into a Buffer (patching lengths); DiffReader
// re-walks them. Translation of unit data is done by the caller via
// encode_units/decode_units so the same format serves client and server.
#pragma once

#include <optional>
#include <string>

#include "util/buffer.hpp"

namespace iw {

namespace diff_flags {
inline constexpr uint8_t kNew = 1;    ///< block created in this diff
inline constexpr uint8_t kFree = 2;   ///< block deleted in this diff
inline constexpr uint8_t kWhole = 4;  ///< runs cover the entire block
}  // namespace diff_flags

/// The version every segment is born at, empty. The diff from it lists the
/// whole segment, as a diff from 0 would (SegmentStore::version_ says why),
/// and it is what a copy that holds nothing (version 0) is sent.
inline constexpr uint32_t kEmptySegmentVersion = 1;

/// Streaming writer for one segment diff.
class DiffWriter {
 public:
  /// Writes the diff header. The diff describes (from_version, to_version].
  DiffWriter(Buffer& out, uint32_t from_version, uint32_t to_version);

  /// Appends a freed-block entry.
  void add_free(uint32_t serial);

  /// Opens a block entry; runs follow until end_block(). `section_bytes`
  /// is the expected size of the entry's run section, when the caller can
  /// tell (see run_bytes): the section's varint length goes in front of it,
  /// and a right guess lets end_block fill it in without moving the
  /// section. A wrong or absent guess only costs that move.
  void begin_block(uint32_t serial, uint8_t flags, uint32_t type_serial = 0,
                   std::string_view name = {}, uint64_t section_bytes = 0);

  /// Encoded size of one run: its gap and unit count, then `unit_bytes` of
  /// unit data.
  static uint64_t run_bytes(uint64_t gap, uint64_t unit_count,
                            uint64_t unit_bytes) {
    return varint_size(gap) + varint_size(unit_count) + unit_bytes;
  }

  /// Opens one run; the caller must then append exactly the wire encoding of
  /// `unit_count` units (via encode_units) to buffer(). Runs of a block must
  /// be ascending and disjoint, and `unit_count` nonzero.
  void begin_run(uint32_t start_unit, uint32_t unit_count);

  /// Buffer run data is appended to.
  Buffer& buffer() noexcept { return out_; }

  /// Closes the current block entry, patching its diff_bytes.
  void end_block();

  /// Closes the diff, patching the entry count. Returns total encoded bytes
  /// of the diff (for bandwidth accounting).
  uint64_t finish();

 private:
  Buffer& out_;
  size_t start_offset_;
  size_t count_offset_;
  size_t block_len_offset_ = 0;
  size_t block_len_width_ = 0;
  size_t block_data_start_ = 0;
  uint64_t run_end_ = 0;  ///< end unit of the open block's last run
  uint32_t entries_ = 0;
  bool in_block_ = false;
  bool finished_ = false;
};

/// One run header inside an entry's run section.
struct DiffRun {
  uint32_t start_unit;
  uint32_t unit_count;
};

/// One parsed diff entry header. For data-carrying entries, `runs` is
/// positioned at the first run and spans exactly the entry's run section.
struct DiffEntry {
  uint32_t serial = 0;
  uint8_t flags = 0;
  uint32_t type_serial = 0;  ///< valid when kNew
  std::string name;          ///< valid when kNew
  BufReader runs{nullptr, 0};
  uint64_t run_end = 0;      ///< end unit of the last run read

  /// Reads the next run header from `runs`; the caller then decodes the
  /// run's units from `runs`. Throws Error(kProtocol) for a zero-count run
  /// or one that ends past unit 2^32 - 1.
  DiffRun read_run();
};

/// Sequential reader over a segment diff.
class DiffReader {
 public:
  explicit DiffReader(BufReader& in);

  uint32_t from_version() const noexcept { return from_version_; }
  uint32_t to_version() const noexcept { return to_version_; }
  uint32_t entry_count() const noexcept { return entry_count_; }

  /// Reads the next entry; returns false when the diff is exhausted.
  bool next(DiffEntry* entry);

 private:
  BufReader& in_;
  uint32_t from_version_;
  uint32_t to_version_;
  uint32_t entry_count_;
  uint32_t consumed_ = 0;
};

}  // namespace iw
