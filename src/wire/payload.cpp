#include "wire/payload.hpp"

#include <algorithm>
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

// Fibonacci-hash the 4-byte sequence at a position into the match table.
inline uint32_t sequence_slot(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Appends a 255-run length extension (the amount beyond the token nibble).
void emit_length(Buffer& out, size_t len) {
  while (len >= 255) {
    out.append_u8(255);
    len -= 255;
  }
  out.append_u8(static_cast<uint8_t>(len));
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
        size_t len = kMinMatch;
        while (ip + len < n && src[cpos + len] == src[ip + len]) ++len;

        const size_t lit = ip - anchor;
        const size_t lit_nib = lit < 15 ? lit : 15;
        const size_t match_nib = (len - kMinMatch) < 15 ? len - kMinMatch : 15;
        out.append_u8(static_cast<uint8_t>((lit_nib << 4) | match_nib));
        if (lit >= 15) emit_length(out, lit - 15);
        out.append(src + anchor, lit);
        out.append_u16(static_cast<uint16_t>(ip - cpos));
        if (len - kMinMatch >= 15) emit_length(out, len - kMinMatch - 15);

        ip += len;
        anchor = ip;
        // Already bigger than the input: incompressible, stop wasting work.
        if (out.size() - start >= n) {
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
  const size_t lit = n - anchor;
  const size_t lit_nib = lit < 15 ? lit : 15;
  out.append_u8(static_cast<uint8_t>(lit_nib << 4));
  if (lit >= 15) emit_length(out, lit - 15);
  out.append(src + anchor, lit);

  if (out.size() - start >= n) {
    out.truncate(start);
    return false;
  }
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
    std::memcpy(dst + written, in, lit);
    in += lit;
    written += lit;

    if (in == in_end) break;  // final literals-only sequence

    if (in_end - in < 2) corrupt("truncated match offset");
    const size_t offset = (size_t{in[0]} << 8) | in[1];
    in += 2;
    if (offset == 0 || offset > written) corrupt("match offset out of range");
    const size_t match = kMinMatch + read_length(token & 0xF);
    if (match > raw_len - written) corrupt("match run past end of output");
    // Byte-wise: matches may overlap their own output (RLE-style).
    const uint8_t* from = dst + written - offset;
    for (size_t i = 0; i < match; ++i) dst[written + i] = from[i];
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

// --- Record payload envelope ------------------------------------------------

bool compress_record_payload(std::span<const uint8_t> head,
                             std::span<const uint8_t> body, Buffer& out) {
  const size_t raw_len = head.size() + body.size();
  out.clear();
  if (raw_len < kMinCompressInput || raw_len > kMaxFramedBody) return false;
  out.append_u32(static_cast<uint32_t>(raw_len));
  bool ok;
  if (head.empty()) {
    ok = lz_compress(body, out);
  } else if (body.empty()) {
    ok = lz_compress(head, out);
  } else {
    std::vector<uint8_t> joined;
    joined.reserve(raw_len);
    joined.insert(joined.end(), head.begin(), head.end());
    joined.insert(joined.end(), body.begin(), body.end());
    ok = lz_compress(joined, out);
  }
  // The 4-byte raw_len prefix counts against the savings.
  if (!ok || out.size() >= raw_len) {
    out.clear();
    return false;
  }
  return true;
}

std::vector<uint8_t> decompress_record_payload(
    std::span<const uint8_t> payload) {
  if (payload.size() < 4) corrupt("compressed record too short");
  const uint32_t raw_len = load_be32(payload.data());
  if (raw_len > kMaxFramedBody) corrupt("compressed record raw length");
  return lz_decompress(payload.subspan(4), raw_len);
}

// --- Wire diff-section envelope ---------------------------------------------

bool compress_section_in_place(Buffer& buf, size_t method_offset) {
  check_internal(method_offset < buf.size(), "method offset past end");
  const size_t raw_len = buf.size() - method_offset - 1;
  if (raw_len < kMinCompressInput) return false;
  // Compress into a scratch buffer first: appending to `buf` while reading
  // from it could reallocate the storage out from under the source span.
  static thread_local Buffer scratch;
  scratch.clear();
  if (!lz_compress({buf.data() + method_offset + 1, raw_len}, scratch)) {
    return false;
  }
  // The envelope adds two varint lengths; require a real saving.
  if (scratch.size() + varint_size(scratch.size()) + varint_size(raw_len) >=
      raw_len) {
    return false;
  }
  buf.truncate(method_offset);
  buf.append_u8(payload_method::kLz);
  buf.append_varint(scratch.size());
  buf.append_varint(raw_len);
  buf.append(scratch.span());
  return true;
}

bool read_compressed_section(BufReader& in, std::vector<uint8_t>& scratch) {
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
  return true;
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
