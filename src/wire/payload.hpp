// Shared record codec pipeline: encode → optional LZ compression → CRC32C
// frame. Every byte path that persists or ships diff records — wire update
// frames, the write-ahead log, the replication stream, and checkpoint
// chains — encodes and decodes through this one module, so the framing and
// compression rules exist in exactly one place.
//
// Three layers, separable because the byte paths compose them differently:
//
//  1. An LZ4-style block codec (lz_compress / lz_decompress). Greedy
//     hash-chain matcher, token = (literal-nibble | match-nibble) with
//     255-run length extensions, 2-byte big-endian match offsets, minimum
//     match 4. Written in-repo: no external dependency, and the decoder is
//     hardened — every malformed input is a typed Error(kCorruptPayload),
//     never UB.
//
//  2. Payload envelopes. Record payloads (WAL / replication) prepend
//     `u32 raw_len` to the compressed bytes and mark the record's tag byte
//     with kPayloadCompressedTagBit. Wire diff sections use a leading
//     method byte on every session (payload_method::kRaw leaves the
//     section bytes untouched so the zero-copy iovec path survives; kLz
//     carries `varint comp_len | varint raw_len | bytes`, explicitly
//     sized so trailing frame bytes still parse). Compression is always *measured*:
//     when the encoded bytes would not beat the raw bytes, the raw form is
//     kept and the flag says so.
//
//  3. CRC32C record framing: `u32 body_len | u32 crc | body` where
//     `body := u8 tag | payload` and the CRC covers the whole body. This is
//     the WAL's on-disk record format, reused verbatim by incremental
//     checkpoint chains; RecordScanner is the one decoder (torn or corrupt
//     tails are reported, never thrown) and build_record_prefix /
//     append_framed_record are the one encoder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/buffer.hpp"

namespace iw {

// ---------------------------------------------------------------------------
// LZ block codec
// ---------------------------------------------------------------------------

/// Inputs shorter than this never compress (the token overhead dominates);
/// both compressors bail out early below it.
inline constexpr size_t kMinCompressInput = 64;

/// Compresses `raw` and appends the encoding to `out`. Returns false — with
/// `out` restored to its original size — when the input is too small or the
/// encoding would not be smaller than the input. The encoding is
/// self-contained given the original length (see lz_decompress).
bool lz_compress(std::span<const uint8_t> raw, Buffer& out);

/// Decompresses an lz_compress encoding into `dst`, which must hold exactly
/// `raw_len` bytes. Throws Error(kCorruptPayload) on any malformed input:
/// truncated streams, out-of-range match offsets, or a decoded size other
/// than `raw_len`. Never reads or writes out of bounds.
void lz_decompress(std::span<const uint8_t> comp, uint8_t* dst,
                   size_t raw_len);

/// Convenience form returning a freshly allocated vector of `raw_len` bytes.
std::vector<uint8_t> lz_decompress(std::span<const uint8_t> comp,
                                   size_t raw_len);

// ---------------------------------------------------------------------------
// Record payload envelope (WAL / replication stream)
// ---------------------------------------------------------------------------

/// Set on a framed record's tag byte when its payload is compressed. The
/// low 7 bits keep their original meaning (WalRecordType, chain record
/// kind), so old readers that mask nothing see an unknown type and stop —
/// they never misparse compressed bytes as a diff.
inline constexpr uint8_t kPayloadCompressedTagBit = 0x80;

/// Compresses a record payload (`head` ++ `body`) into `out` as
/// `u32 raw_len | lz bytes`. Returns false — with `out` cleared — when
/// compression does not pay; the caller then journals the raw payload with
/// an unmarked tag, byte-identical to the pre-compression format.
bool compress_record_payload(std::span<const uint8_t> head,
                             std::span<const uint8_t> body, Buffer& out);

/// Inverse of compress_record_payload: parses `u32 raw_len | lz bytes` and
/// returns the raw payload. Throws Error(kCorruptPayload) on malformed
/// input.
std::vector<uint8_t> decompress_record_payload(
    std::span<const uint8_t> payload);

// ---------------------------------------------------------------------------
// Wire diff-section envelope
// ---------------------------------------------------------------------------

namespace payload_method {
/// Section bytes follow unmodified (self-delimiting; parse in place).
inline constexpr uint8_t kRaw = 0;
/// Section is `varint comp_len | varint raw_len | comp bytes`.
inline constexpr uint8_t kLz = 1;
}  // namespace payload_method

/// Attempts to compress, in place, the section `buf[method_offset + 1 ..)`
/// of a wire payload whose method byte sits at `method_offset` (already
/// written as kRaw). On success rewrites the tail as a kLz envelope and
/// returns true; otherwise leaves the buffer untouched (raw section, zero
/// extra copies) and returns false. Only the decision is in the frame —
/// the receiver never guesses.
bool compress_section_in_place(Buffer& buf, size_t method_offset);

/// Reads a section envelope's method byte from `in`. For kRaw returns
/// false: the caller parses the (self-delimiting) section straight from
/// `in`. For kLz decompresses into `scratch` and returns true: the caller
/// parses `scratch`, and `in` has been advanced past the compressed bytes
/// so trailing frame fields still line up. Unknown methods and corrupt
/// streams throw Error(kCorruptPayload).
bool read_compressed_section(BufReader& in, std::vector<uint8_t>& scratch);

// ---------------------------------------------------------------------------
// CRC32C record framing
// ---------------------------------------------------------------------------

/// Frame header: `u32 body_len | u32 crc` (big-endian), followed by
/// `body_len` body bytes whose first byte is the tag.
inline constexpr size_t kFramedHeaderBytes = 8;
inline constexpr size_t kFramedPrefixBytes = kFramedHeaderBytes + 1;

/// Sanity ceiling on a single framed record body; anything larger is
/// treated as corruption, not allocated.
inline constexpr size_t kMaxFramedBody = 256u << 20;

/// Fills the 9-byte frame prefix (header + tag) for a record whose body is
/// `tag | head | body`. Callers that scatter-gather (the WAL's writev path)
/// write the prefix and then head/body unchanged.
void build_record_prefix(uint8_t tag, std::span<const uint8_t> head,
                         std::span<const uint8_t> body,
                         uint8_t prefix[kFramedPrefixBytes]);

/// Appends one complete framed record to `out`.
void append_framed_record(Buffer& out, uint8_t tag,
                          std::span<const uint8_t> head,
                          std::span<const uint8_t> body = {});

/// One record surfaced by RecordScanner. `payload` borrows the scanned
/// bytes: valid only while the underlying storage is.
struct ScannedRecord {
  uint8_t tag = 0;
  std::span<const uint8_t> payload;
  uint64_t end_offset = 0;  ///< file offset just past this record
};

/// Streaming decoder over a run of framed records (a WAL journal body, a
/// checkpoint chain body). Corruption and truncation surface as kTorn —
/// the caller decides whether that means "truncate the tail" (WAL) or
/// "quarantine the chain" (checkpoints); the scanner never throws.
class RecordScanner {
 public:
  /// `data` is the byte run after any file header; `base_offset` is that
  /// header's size, so reported offsets are real file offsets.
  RecordScanner(std::span<const uint8_t> data, uint64_t base_offset = 0)
      : data_(data), base_(base_offset) {}

  enum class Status {
    kRecord,  ///< one record scanned
    kEnd,     ///< clean end of input
    kTorn,    ///< truncated or corrupt tail at offset()
  };

  Status next(ScannedRecord* rec);

  /// Offset of the first byte not covered by a cleanly scanned record.
  uint64_t offset() const noexcept { return base_ + pos_; }

  /// Bytes past offset() (the torn tail's size once kTorn is returned).
  uint64_t remaining_bytes() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  uint64_t base_;
  size_t pos_ = 0;
};

}  // namespace iw
