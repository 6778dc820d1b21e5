#include "wire/diff.hpp"

namespace iw {

namespace {

// Out of line: keeps the per-run decode path free of string construction.
[[noreturn, gnu::noinline]] void malformed(const char* what) {
  throw Error(ErrorCode::kProtocol, what);
}

}  // namespace

DiffWriter::DiffWriter(Buffer& out, uint32_t from_version, uint32_t to_version)
    : out_(out), start_offset_(out.size()) {
  check_internal(to_version >= from_version, "diff to_version < from_version");
  out_.append_varint(from_version);
  out_.append_varint(to_version - from_version);
  count_offset_ = out_.append_varint_placeholder();
}

void DiffWriter::add_free(uint32_t serial) {
  check_internal(!in_block_ && !finished_, "add_free inside block");
  out_.append_varint(serial);
  out_.append_u8(diff_flags::kFree);
  ++entries_;
}

void DiffWriter::begin_block(uint32_t serial, uint8_t flags,
                             uint32_t type_serial, std::string_view name,
                             uint64_t section_bytes) {
  check_internal(!in_block_ && !finished_, "begin_block while block open");
  check_internal((flags & diff_flags::kFree) == 0, "use add_free for frees");
  out_.append_varint(serial);
  out_.append_u8(flags);
  if (flags & diff_flags::kNew) {
    out_.append_varint(type_serial);
    out_.append_vstring(name);
  }
  block_len_width_ = varint_size(section_bytes);
  block_len_offset_ = out_.append_varint_placeholder(block_len_width_);
  block_data_start_ = out_.size();
  run_end_ = 0;
  in_block_ = true;
  ++entries_;
}

void DiffWriter::begin_run(uint32_t start_unit, uint32_t unit_count) {
  check_internal(in_block_, "begin_run outside block");
  check_internal(unit_count != 0, "empty diff run");
  check_internal(start_unit >= run_end_, "diff runs out of order");
  out_.append_varint(start_unit - run_end_);
  out_.append_varint(unit_count);
  run_end_ = static_cast<uint64_t>(start_unit) + unit_count;
}

void DiffWriter::end_block() {
  check_internal(in_block_, "end_block without begin_block");
  out_.patch_varint(block_len_offset_, block_len_width_,
                    out_.size() - block_data_start_);
  in_block_ = false;
}

uint64_t DiffWriter::finish() {
  check_internal(!in_block_ && !finished_, "finish with open block");
  // Diffs of 128 entries or more move up by a byte or two here.
  out_.patch_varint(count_offset_, 1, entries_);
  finished_ = true;
  return out_.size() - start_offset_;
}

DiffReader::DiffReader(BufReader& in) : in_(in) {
  from_version_ = in_.read_varint32();
  const uint64_t to = uint64_t{from_version_} + in_.read_varint32();
  if (to > UINT32_MAX) malformed("diff to_version overflows");
  to_version_ = static_cast<uint32_t>(to);
  entry_count_ = in_.read_varint32();
}

bool DiffReader::next(DiffEntry* entry) {
  if (consumed_ == entry_count_) return false;
  ++consumed_;
  entry->serial = in_.read_varint32();
  entry->flags = in_.read_u8();
  entry->type_serial = 0;
  entry->name.clear();
  entry->run_end = 0;
  if (entry->flags & diff_flags::kFree) {
    entry->runs = BufReader(nullptr, 0);
    return true;
  }
  if (entry->flags & diff_flags::kNew) {
    entry->type_serial = in_.read_varint32();
    entry->name = in_.read_vstring();
  }
  auto section = in_.read_bytes(in_.read_varint32());
  entry->runs = BufReader(section.data(), section.size());
  return true;
}

DiffRun DiffEntry::read_run() {
  const uint64_t start = run_end + runs.read_varint32();
  const uint32_t count = runs.read_varint32();
  if (count == 0) malformed("empty diff run");
  if (start + count > UINT32_MAX) malformed("diff run past unit 2^32");
  run_end = start + count;
  return {static_cast<uint32_t>(start), count};
}

}  // namespace iw
