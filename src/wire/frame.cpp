#include "wire/frame.hpp"

namespace iw {

std::string msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kError: return "kError";
    case MsgType::kOpenSegment: return "kOpenSegment";
    case MsgType::kOpenSegmentResp: return "kOpenSegmentResp";
    case MsgType::kRegisterType: return "kRegisterType";
    case MsgType::kRegisterTypeResp: return "kRegisterTypeResp";
    case MsgType::kAcquireRead: return "kAcquireRead";
    case MsgType::kAcquireReadResp: return "kAcquireReadResp";
    case MsgType::kReleaseRead: return "kReleaseRead";
    case MsgType::kAcquireWrite: return "kAcquireWrite";
    case MsgType::kAcquireWriteResp: return "kAcquireWriteResp";
    case MsgType::kReleaseWrite: return "kReleaseWrite";
    case MsgType::kReleaseWriteResp: return "kReleaseWriteResp";
    case MsgType::kSegmentInfo: return "kSegmentInfo";
    case MsgType::kSegmentInfoResp: return "kSegmentInfoResp";
    case MsgType::kSubscribe: return "kSubscribe";
    case MsgType::kNotifyVersion: return "kNotifyVersion";
    case MsgType::kPing: return "kPing";
    case MsgType::kPingResp: return "kPingResp";
    case MsgType::kAck: return "kAck";
    case MsgType::kCloseSegment: return "kCloseSegment";
    case MsgType::kHello: return "kHello";
    case MsgType::kHelloResp: return "kHelloResp";
    case MsgType::kRevokeRead: return "kRevokeRead";
    case MsgType::kRevokeAck: return "kRevokeAck";
    case MsgType::kWalAppend: return "kWalAppend";
    case MsgType::kWalAck: return "kWalAck";
    case MsgType::kDirResolve: return "kDirResolve";
    case MsgType::kDirResolveResp: return "kDirResolveResp";
    case MsgType::kPromote: return "kPromote";
    case MsgType::kPromoteResp: return "kPromoteResp";
    case MsgType::kSyncRequest: return "kSyncRequest";
    case MsgType::kSyncChunk: return "kSyncChunk";
    case MsgType::kSyncDone: return "kSyncDone";
    case MsgType::kRecruit: return "kRecruit";
    case MsgType::kRecruitResp: return "kRecruitResp";
  }
  return "kMsg" + std::to_string(static_cast<int>(type));
}

void encode_frame(const Frame& frame, Buffer& out) {
  uint8_t header[kMaxFrameHeaderSize];
  out.append(header, encode_frame_header(frame.type, frame.request_id,
                                         frame.payload.size(), header));
  out.append(frame.payload.data(), frame.payload.size());
}

size_t encode_frame_header(MsgType type, uint32_t request_id,
                           size_t payload_size,
                           uint8_t out[kMaxFrameHeaderSize]) {
  if (payload_size > kMaxFramePayload) {
    throw Error(ErrorCode::kProtocol, "frame payload too large");
  }
  size_t n = 0;
  out[n++] = static_cast<uint8_t>(type);
  n += encode_varint(request_id, out + n);
  n += encode_varint(payload_size, out + n);
  return n;
}

namespace {

/// Decodes one header varint of at most five bytes (a u32) from the `n`
/// bytes at `p`. Returns the bytes it took, 0 when they end inside it.
size_t decode_header_varint(const uint8_t* p, size_t n, uint32_t* out) {
  uint64_t v = 0;
  for (size_t i = 0; i < 5; ++i) {
    if (i == n) return 0;
    v |= static_cast<uint64_t>(p[i] & 0x7F) << (7 * i);
    if ((p[i] & 0x80) != 0) continue;
    if ((p[i] == 0 && i > 0) || v > UINT32_MAX) break;
    *out = static_cast<uint32_t>(v);
    return i + 1;
  }
  throw Error(ErrorCode::kProtocol, "frame header varint overlong");
}

}  // namespace

bool decode_frame_header(const uint8_t* bytes, size_t n, FrameHeader* out) {
  if (n == 0) return false;
  FrameHeader h;
  h.type = static_cast<MsgType>(bytes[0]);
  const size_t id_len = decode_header_varint(bytes + 1, n - 1, &h.request_id);
  if (id_len == 0) return false;
  const size_t len_len = decode_header_varint(
      bytes + 1 + id_len, n - 1 - id_len, &h.payload_size);
  if (len_len == 0) return false;
  if (h.payload_size > kMaxFramePayload) {
    throw Error(ErrorCode::kProtocol, "frame payload too large");
  }
  h.size = 1 + id_len + len_len;
  *out = h;
  return true;
}

size_t decode_frame(std::span<const uint8_t> bytes, Frame* out) {
  FrameHeader h;
  if (!decode_frame_header(bytes.data(), bytes.size(), &h) ||
      bytes.size() - h.size < h.payload_size) {
    return 0;
  }
  out->type = h.type;
  out->request_id = h.request_id;
  const uint8_t* p = bytes.data() + h.size;
  out->payload.assign(p, p + h.payload_size);
  return h.size + h.payload_size;
}

Buffer hello_payload(uint64_t client_id, uint64_t session_epoch,
                     const std::map<uint32_t, std::string>& bindings) {
  Buffer hello;
  hello.append_u8(kProtocolVersion);
  hello.append_varint(client_id);
  hello.append_varint(session_epoch);
  hello.append_varint(bindings.size());
  for (const auto& [handle, name] : bindings) {
    hello.append_varint(handle);
    hello.append_vstring(name);
  }
  return hello;
}

}  // namespace iw
