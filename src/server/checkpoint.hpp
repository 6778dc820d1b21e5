// Incremental checkpoint chains — the delta half of the server's
// snapshot+journal durability discipline.
//
// A full checkpoint rewrites a segment's entire wire-format state into
// `<segment>.iwseg` even when one subblock changed since the last one. An
// incremental checkpoint instead appends one *delta record* to
// `<segment>.iwinc`: the segment diff since the previous checkpoint (full
// or incremental) plus any type graphs registered since, anchored to the
// base snapshot's version. recover() folds base + chain; chain length is
// bounded by a periodic full rewrite that deletes the chain file.
//
// On-disk layout (all integers big-endian):
//
//   file   := header record*
//   header := magic u32 "IWIC" | format u32 (=4; a format 1 chain holds
//             fixed-width diffs, a format 2 one MIP-string pointer units
//             and a format 3 one a compressed payload marked by bit 7 of
//             the tag: all are refused with Error(kUnimplemented))
//   record := the shared CRC32C framing (wire/payload.hpp):
//             body_len u32 | crc u32 | tag u8 | payload
//   tag    := kChainDelta (1)
//   payload :=
//     u32 base_version     -- version of the .iwseg this chain extends
//     u32 from_version     -- version covered before this record
//     u32 to_version       -- version covered after this record
//     section(             -- the wire section envelope (wire/payload.hpp):
//                             a method byte, then these bytes raw (kRaw)
//                             or `v comp_len, v raw_len, lz` (kLz)
//       u32 new_type_count | (u32 serial, u32 len, graph)*
//       fold history tables  -- SegmentStore::collect_fold_history: exact
//         created_versions for blocks newer than from_version and every
//         free since, so the fold reconstructs version history precisely
//         (a bare diff would misdate creations at to_version and lose
//         create+free pairs inside the window — resurrecting freed blocks
//         for clients whose cached version lies inside it)
//       diff bytes           -- SegmentStore::collect_diff(from_version)
//     )
//
// Validity rules mirror the WAL's torn-tail discipline, with one extra
// cross-file check: every record's base_version must equal the version of
// the snapshot actually loaded. A mismatched *first* record is a stale
// chain — the expected residue of a crash between a full rewrite landing
// and the old chain's unlink — and is discarded silently; a mid-chain
// violation (CRC, gap, undecodable payload) quarantines the tail and
// recovery proceeds from the last good fold, exactly like a quarantined
// snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/buffer.hpp"

namespace iw::server {

/// Chain record kinds (the tag byte).
inline constexpr uint8_t kChainDelta = 1;

/// Result of scanning one chain file.
struct ChainRecord {
  uint32_t base_version = 0;
  uint32_t from_version = 0;
  uint32_t to_version = 0;
  /// On-disk size of the whole framed record.
  uint64_t stored_bytes = 0;
  /// The rest of the payload as stored: `u32 new_type_count | types |
  /// fold history | diff bytes` in its section envelope, decoded where it
  /// is folded (read_record_section).
  std::vector<uint8_t> body;
};

struct ChainScan {
  std::vector<ChainRecord> records;
  /// True when bytes past the last valid record did not parse (torn append
  /// or corruption); the caller quarantines rather than truncates — a
  /// checkpoint chain, unlike a journal, is never resumed in place.
  bool torn = false;
  uint64_t valid_bytes = 0;
  bool missing = false;
};

/// Scans `path`, parsing every valid record. Torn or corrupt content is
/// reported via the result; genuine I/O failure throws Error(kIo), and a
/// chain in another format Error(kUnimplemented).
ChainScan scan_chain(const std::string& path);

/// Appends one delta record to `path`, creating the file (with header) on
/// first use, and makes the append durable (fdatasync; plus a parent
/// directory fsync when the file was created) before returning. `sections`
/// is the raw payload after the three version fields; it is compressed
/// when `try_compress` and the envelope pays, else journaled as kRaw.
/// Returns the framed bytes written (for stats).
uint64_t append_chain_record(const std::string& path, uint32_t base_version,
                             uint32_t from_version, uint32_t to_version,
                             std::span<const uint8_t> sections,
                             bool try_compress);

}  // namespace iw::server
