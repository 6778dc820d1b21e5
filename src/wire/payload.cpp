#include "wire/payload.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/crc32c.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"

namespace iw {

namespace {

// --- LZ codec internals -----------------------------------------------------

constexpr size_t kMinMatch = 4;
constexpr int kHashBits = 13;
constexpr size_t kMaxOffset = 0xFFFF;

inline uint32_t load_raw32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline uint64_t load_raw64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Fibonacci-hash the 4-byte sequence at a position into the match table.
inline uint32_t sequence_slot(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of `a` and `b`, at most `limit` bytes:
// eight bytes per step, the first differing byte found from the XOR.
inline size_t common_prefix(const uint8_t* a, const uint8_t* b,
                            size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t x = load_raw64(a + len) ^ load_raw64(b + len);
    if (x != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<size_t>(std::countr_zero(x) >> 3);
      } else {
        return len + static_cast<size_t>(std::countl_zero(x) >> 3);
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Writes a 255-run length extension (the amount beyond the token nibble).
inline uint8_t* put_length(uint8_t* op, size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<uint8_t>(len);
  return op;
}

// Bytes a short literal run or match is copied in, as one fixed-size copy
// that may run past it: the codec writes output front to back, so whatever
// lands past the run is overwritten next (or cut off by the caller).
constexpr size_t kChunk = 16;

// Writes a sequence's token, literal length extension and literals; the
// caller adds the match offset and match extension, if any. `src_end` ends
// the input the literals come from; `op` has kChunk bytes of room past them.
inline uint8_t* put_literals(uint8_t* op, const uint8_t* lits, size_t lit,
                             size_t match_nib, const uint8_t* src_end) {
  *op++ = static_cast<uint8_t>(((lit < 15 ? lit : 15) << 4) | match_nib);
  if (lit >= 15) op = put_length(op, lit - 15);
  if (lit <= kChunk && static_cast<size_t>(src_end - lits) >= kChunk) {
    std::memcpy(op, lits, kChunk);
  } else {
    std::memcpy(op, lits, lit);
  }
  return op + lit;
}

[[noreturn]] void corrupt(const char* what) {
  throw Error(ErrorCode::kCorruptPayload, what);
}

}  // namespace

bool lz_compress(std::span<const uint8_t> raw, Buffer& out) {
  const size_t n = raw.size();
  if (n < kMinCompressInput || n > kMaxFramedBody) return false;
  const uint8_t* src = raw.data();
  const size_t start = out.size();

  // The match table outlives the call, so no call pays to clear its 8K
  // slots. A slot holds base + position + 1, and each call's base is the
  // previous call's base plus its input size: whatever an earlier call
  // stored is at most this call's base, so it reads as empty. When the
  // bases would pass 2^32 the table is cleared once and they restart at 0.
  static thread_local std::vector<uint32_t> table(size_t{1} << kHashBits, 0);
  static thread_local uint32_t next_base = 0;
  if (n > UINT32_MAX - next_base) {
    std::fill(table.begin(), table.end(), 0);
    next_base = 0;
  }
  // Plain locals: the matcher loop should not go through TLS per access.
  const uint32_t base = next_base;
  next_base = static_cast<uint32_t>(base + n);
  uint32_t* const slots = table.data();

  // Every sequence encodes at most its literals plus a 1/255 extension
  // overhead (a match never costs more than it covers), so this worst case
  // is reserved once and tokens are written through a pointer. Its 16 spare
  // bytes also cover put_literals' chunk, which it copies only while 16
  // input bytes remain.
  static_assert(kChunk <= 16);
  uint8_t* const dst = out.extend(n + n / 255 + 16);
  uint8_t* op = dst;
  size_t ip = 0, anchor = 0;
  while (ip + kMinMatch <= n) {
    const uint32_t seq = load_raw32(src + ip);
    uint32_t& slot = slots[sequence_slot(seq)];
    const uint32_t stored = slot;
    const uint32_t tag = static_cast<uint32_t>(base + ip + 1);
    slot = tag;
    const uint32_t dist = tag - stored;  // ip - candidate position
    if (stored > base && dist <= kMaxOffset) {
      const size_t cpos = ip - dist;
      if (load_raw32(src + cpos) == seq) {
        const size_t len =
            kMinMatch + common_prefix(src + cpos + kMinMatch,
                                      src + ip + kMinMatch,
                                      n - ip - kMinMatch);
        const size_t extra = len - kMinMatch;
        op = put_literals(op, src + anchor, ip - anchor,
                          extra < 15 ? extra : 15, src + n);
        *op++ = static_cast<uint8_t>(dist >> 8);
        *op++ = static_cast<uint8_t>(dist);
        if (extra >= 15) op = put_length(op, extra - 15);

        ip += len;
        anchor = ip;
        // Already bigger than the input: incompressible, stop wasting work.
        if (static_cast<size_t>(op - dst) >= n) {
          out.truncate(start);
          return false;
        }
        continue;
      }
    }
    ++ip;
  }

  // Final literals-only sequence (no offset follows; the decoder knows by
  // reaching the end of input).
  op = put_literals(op, src + anchor, n - anchor, 0, src + n);
  const size_t written = static_cast<size_t>(op - dst);
  if (written >= n) {
    out.truncate(start);
    return false;
  }
  out.truncate(start + written);
  return true;
}

void lz_decompress(std::span<const uint8_t> comp, uint8_t* dst,
                   size_t raw_len) {
  const uint8_t* in = comp.data();
  const uint8_t* const in_end = in + comp.size();
  size_t written = 0;

  // Reads a 255-run length extension when the token nibble saturated.
  auto read_length = [&](size_t base) -> size_t {
    size_t len = base;
    if (base == 15) {
      uint8_t b;
      do {
        if (in == in_end) corrupt("truncated length extension");
        b = *in++;
        len += b;
      } while (b == 255);
    }
    return len;
  };

  if (comp.empty() && raw_len != 0) corrupt("empty compressed stream");
  while (in != in_end) {
    const uint8_t token = *in++;
    const size_t lit = read_length(token >> 4);
    if (lit > static_cast<size_t>(in_end - in)) {
      corrupt("literal run past end of input");
    }
    if (lit > raw_len - written) corrupt("literal run past end of output");
    // A short run is one fixed chunk while both sides have room for it.
    if (lit <= kChunk && static_cast<size_t>(in_end - in) >= kChunk &&
        raw_len - written >= kChunk) {
      std::memcpy(dst + written, in, kChunk);
    } else if (lit != 0) {  // an empty output may have no storage (dst null)
      std::memcpy(dst + written, in, lit);
    }
    in += lit;
    written += lit;

    if (in == in_end) break;  // final literals-only sequence

    if (in_end - in < 2) corrupt("truncated match offset");
    const size_t offset = (size_t{in[0]} << 8) | in[1];
    in += 2;
    if (offset == 0 || offset > written) corrupt("match offset out of range");
    const size_t match = kMinMatch + read_length(token & 0xF);
    if (match > raw_len - written) corrupt("match run past end of output");
    uint8_t* const to = dst + written;
    const uint8_t* const from = to - offset;
    // Whole chunks, the last running past the match, while the output has
    // room for that: a chunk no longer than the offset reads only bytes
    // already final, so no chunk reads bytes it writes.
    const size_t room = raw_len - written;
    if (offset >= 16 && room - match >= 15) {
      for (size_t i = 0; i < match; i += 16) std::memcpy(to + i, from + i, 16);
    } else if (offset >= 8 && room - match >= 7) {
      for (size_t i = 0; i < match; i += 8) std::memcpy(to + i, from + i, 8);
    } else {
      size_t i = 0;
      if (offset >= 8) {
        for (; i + 8 <= match; i += 8) std::memcpy(to + i, from + i, 8);
      }
      // Byte-wise: a nearer match overlaps its own output (RLE-style).
      for (; i < match; ++i) to[i] = from[i];
    }
    written += match;
  }
  if (written != raw_len) corrupt("decompressed size mismatch");
}

std::vector<uint8_t> lz_decompress(std::span<const uint8_t> comp,
                                   size_t raw_len) {
  if (raw_len > kMaxFramedBody) corrupt("raw length implausible");
  std::vector<uint8_t> out(raw_len);
  lz_decompress(comp, out.data(), raw_len);
  return out;
}

// --- Section envelope ---------------------------------------------

namespace {

// Compresses a section's raw bytes into this thread's scratch stream.
// Returns the stream when its kLz envelope beats the raw section, else an
// empty span. The scratch is reused by the next call on the thread.
std::span<const uint8_t> section_stream(std::span<const uint8_t> raw) {
  static thread_local Buffer scratch;
  scratch.clear();
  if (raw.size() < kMinCompressInput || !lz_compress(raw, scratch)) return {};
  // The envelope adds two varint lengths; require a real saving.
  if (scratch.size() + varint_size(scratch.size()) + varint_size(raw.size()) >=
      raw.size()) {
    return {};
  }
  return scratch.span();
}

void append_lz_section(Buffer& out, std::span<const uint8_t> stream,
                       size_t raw_len) {
  out.append_u8(payload_method::kLz);
  out.append_varint(stream.size());
  out.append_varint(raw_len);
  out.append(stream);
}

}  // namespace

bool compress_section(std::span<const uint8_t> raw, Buffer& out) {
  const auto stream = section_stream(raw);
  if (stream.empty()) return false;
  append_lz_section(out, stream, raw.size());
  return true;
}

bool compress_section_in_place(Buffer& buf, size_t method_offset) {
  check_internal(method_offset < buf.size(), "method offset past end");
  const size_t raw_len = buf.size() - method_offset - 1;
  // The stream lands in scratch first: appending to `buf` while reading
  // from it could reallocate the storage out from under the source span.
  const auto stream =
      section_stream({buf.data() + method_offset + 1, raw_len});
  if (stream.empty()) return false;
  buf.truncate(method_offset);
  append_lz_section(buf, stream, raw_len);
  return true;
}

bool read_compressed_section(BufReader& in, std::vector<uint8_t>& scratch,
                             std::span<const uint8_t>* envelope) {
  const uint8_t* const at = in.cursor();
  const uint8_t method = in.read_u8();
  if (method == payload_method::kRaw) return false;
  if (method != payload_method::kLz) corrupt("unknown payload method");
  const uint32_t comp_len = in.read_varint32();
  const uint32_t raw_len = in.read_varint32();
  if (raw_len > kMaxFramedBody) corrupt("section raw length implausible");
  if (comp_len > in.remaining()) corrupt("section truncated");
  auto comp = in.read_bytes(comp_len);
  scratch.resize(raw_len);
  lz_decompress(comp, scratch.data(), raw_len);
  if (envelope != nullptr) *envelope = {at, in.cursor()};
  return true;
}

std::span<const uint8_t> read_record_section(BufReader& in,
                                             std::vector<uint8_t>& scratch) {
  if (!read_compressed_section(in, scratch)) {
    return in.read_bytes(in.remaining());
  }
  if (in.remaining() != 0) corrupt("bytes past a record's section");
  return scratch;
}

// --- CRC32C record framing --------------------------------------------------

void build_record_prefix(uint8_t tag, std::span<const uint8_t> head,
                         std::span<const uint8_t> body,
                         uint8_t prefix[kFramedPrefixBytes]) {
  const size_t body_len = 1 + head.size() + body.size();
  check_internal(body_len <= kMaxFramedBody, "framed record too large");
  uint32_t crc = crc32c(&tag, 1);
  crc = crc32c_extend(crc, head);
  crc = crc32c_extend(crc, body);
  store_be32(prefix, static_cast<uint32_t>(body_len));
  store_be32(prefix + 4, crc);
  prefix[kFramedHeaderBytes] = tag;
}

void append_framed_record(Buffer& out, uint8_t tag,
                          std::span<const uint8_t> head,
                          std::span<const uint8_t> body) {
  uint8_t prefix[kFramedPrefixBytes];
  build_record_prefix(tag, head, body, prefix);
  out.append(prefix, sizeof prefix);
  out.append(head);
  out.append(body);
}

RecordScanner::Status RecordScanner::next(ScannedRecord* rec) {
  if (pos_ == data_.size()) return Status::kEnd;
  if (data_.size() - pos_ < kFramedHeaderBytes) return Status::kTorn;
  const uint8_t* p = data_.data() + pos_;
  const uint32_t body_len = load_be32(p);
  const uint32_t crc = load_be32(p + 4);
  if (body_len == 0 || body_len > kMaxFramedBody) return Status::kTorn;
  if (data_.size() - pos_ - kFramedHeaderBytes < body_len) return Status::kTorn;
  const uint8_t* body = p + kFramedHeaderBytes;
  if (crc32c(body, body_len) != crc) return Status::kTorn;
  rec->tag = body[0];
  rec->payload = {body + 1, body_len - 1};
  pos_ += kFramedHeaderBytes + body_len;
  rec->end_offset = base_ + pos_;
  return Status::kRecord;
}

}  // namespace iw
