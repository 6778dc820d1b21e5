// Protocol frames exchanged between InterWeave clients and servers.
//
// Every message is one frame: a header (u8 type, v request id, v payload
// length; 1 to 11 bytes, 5 in steady state) followed by an opaque payload
// whose layout depends on the type. Request/response pairs share a request
// id; notifications pushed by the server use request id 0. A channel
// numbers its requests from 1 upward and never reuses an id.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/buffer.hpp"

namespace iw {

/// Version of the client/server protocol, sent as the first byte of every
/// kHello. There is one dialect per version: every field below is required,
/// and any change to a frame layout bumps this number. A server answers a
/// hello carrying another version with a kProtocol error.
inline constexpr uint8_t kProtocolVersion = 5;

// Field notation: u8/u32/u64 fixed width (big-endian), v LEB128 varint,
// vs varint-length string, lp u32-length string. "envelope diff" is a diff
// behind the one-byte section method of wire/payload.hpp (kRaw or kLz).
// "handle" is a segment handle: a small number the client picks per open
// segment and binds to the segment's name for the session (kOpenSegment,
// kSegmentInfo or kHello); later frames name the segment by it. Handle 0
// binds nothing (a one-shot probe), and naming a handle the session never
// bound is a kProtocol error.
enum class MsgType : uint8_t {
  kError = 0,            ///< response: lp error-code name, lp message
  kOpenSegment = 1,      ///< v handle, vs segment name, u8 create_if_missing
  kOpenSegmentResp = 2,  ///< v version, v next_block_serial
  kRegisterType = 3,     ///< v handle, type graph
  kRegisterTypeResp = 4, ///< v type serial (segment-scoped)
  kAcquireRead = 5,      ///< v handle, v cached version, u8 model, v param
  kAcquireReadResp = 6,  ///< u8 uptodate, [v n_types, types, envelope diff],
                         ///< u8 granted: lock may stay cached client-side
  // Reserved: no peer sends kReleaseRead and the server refuses it with
  // kProtocol; the name stays because perfbench counts it.
  kReleaseRead = 7,
  kAcquireWrite = 8,     ///< v handle, v cached version
  kAcquireWriteResp = 9, ///< v next_block_serial, u8 uptodate, [v n_types,
                         ///< types, envelope diff]
  kReleaseWrite = 10,    ///< v handle, envelope diff
  kReleaseWriteResp = 11,///< v new version
  kSegmentInfo = 12,     ///< v handle, vs segment name (metadata for space
                         ///< reservation)
  kSegmentInfoResp = 13, ///< v version, v n_types, n x vs type graph,
                         ///< v n_blocks, n x (v serial, v type serial, vs
                         ///< name)
  kSubscribe = 14,       ///< v handle
  kNotifyVersion = 15,   ///< notification: vs segment, v new version
  kPing = 16,            ///< liveness probe
  kPingResp = 17,
  kAck = 18,             ///< generic empty success response
  kCloseSegment = 19,    ///< v handle: drop this session's segment state and
                         ///< unbind the handle
  kHello = 20,           ///< u8 protocol version, v client id, v session
                         ///< epoch (reconnects), v n, n x (v handle, vs
                         ///< segment name) to rebind; the session caches
                         ///< locks
  kHelloResp = 21,       ///< v writer lease ms
  kRevokeRead = 22,      ///< notification: vs segment, v revoke_gen —
                         ///< release cached lock, echo gen in the ack
  kRevokeAck = 23,       ///< v handle, v revoke_gen: cached read lock
                         ///< has been dropped (stale gen = ignored)
  // --- federation (server-to-server replication + segment directory) ---
  kWalAppend = 24,       ///< primary -> replica: u32 record count, then per
                         ///< record lp segment, u32 placement epoch, u8 WAL
                         ///< record type, u32 length, payload (wal.hpp)
  kWalAck = 25,          ///< u32 records journaled (the whole batch)
  kDirResolve = 26,      ///< lp segment url, u32 observed epoch (0 = none),
                         ///< u8 failover: caller found the primary dead
  kDirResolveResp = 27,  ///< u32 placement epoch, u8 node count, then per
                         ///< node lp node id, lp address; first is primary
  kPromote = 28,         ///< directory -> replica: lp segment, u32 new
                         ///< placement epoch — serve as primary from here
  kPromoteResp = 29,     ///< u32 segment version after promotion
  // --- self-healing replication (replica backfill + anti-entropy repair) ---
  kSyncRequest = 30,     ///< replica -> primary: lp segment, u32 have version,
                         ///< u32 have lineage epoch, u32 have type count,
                         ///< u32 want placement epoch (0 = any), u64 cursor
                         ///< (0 starts a sync), lp replica node id, lp replica
                         ///< address (both may be empty: anonymous pull)
  kSyncChunk = 31,       ///< u32 placement epoch, u32 version covered, u8 mode
                         ///< (0 = WAL-tail fold, 1 = snapshot), u8 done, u64
                         ///< next cursor, chunk bytes
  kSyncDone = 32,        ///< replica -> primary: lp segment, lp replica node
                         ///< id, lp replica address, u32 adopted epoch, u32
                         ///< version — flip my link to live kWalAppend tailing
  kRecruit = 33,         ///< repairer -> replica: lp segment, u32 placement
                         ///< epoch, lp primary address — backfill yourself
  kRecruitResp = 34,     ///< u32 placement epoch, u32 version after backfill
};

/// Human-readable name of a MsgType ("kAcquireWrite", ...) for error
/// context; unknown values render as "kMsg<N>".
std::string msg_type_name(MsgType type);

/// One framed protocol message.
struct Frame {
  MsgType type = MsgType::kError;
  uint32_t request_id = 0;
  std::vector<uint8_t> payload;

  BufReader reader() const { return BufReader(payload.data(), payload.size()); }
};

/// Most bytes a frame header takes: u8 type, then the request id and the
/// payload length as varints of at most five bytes each.
inline constexpr size_t kMaxFrameHeaderSize = 11;

/// Maximum accepted payload size; guards against corrupt length fields.
inline constexpr uint32_t kMaxFramePayload = 256u << 20;

/// Bytes the header of a frame with this request id and payload length
/// takes on the wire.
constexpr size_t frame_header_size(uint32_t request_id,
                                   size_t payload_size) noexcept {
  return 1 + varint_size(request_id) + varint_size(payload_size);
}

/// Appends the wire encoding of `frame` to `out`.
void encode_frame(const Frame& frame, Buffer& out);

/// Encodes just the header into a caller-provided array and returns its
/// length; the transports pair it with the payload in one vectored send so
/// the payload bytes are never copied into a contiguous frame. Throws
/// Error(kProtocol) when the payload exceeds kMaxFramePayload.
size_t encode_frame_header(MsgType type, uint32_t request_id,
                           size_t payload_size,
                           uint8_t out[kMaxFrameHeaderSize]);

struct FrameHeader {
  MsgType type = MsgType::kError;
  uint32_t request_id = 0;
  uint32_t payload_size = 0;
  size_t size = 0;  ///< encoded header bytes
};

/// Decodes a header from the first `n` received bytes. Returns false when
/// they end inside the header (the caller waits for more bytes). Throws
/// Error(kProtocol) on an overlong varint or a payload length over
/// kMaxFramePayload: the stream is poisoned and the connection must go.
bool decode_frame_header(const uint8_t* bytes, size_t n, FrameHeader* out);

/// Decodes one complete frame from the front of `bytes` and returns the
/// bytes it took, or 0 when they do not yet hold a whole frame. Throws as
/// decode_frame_header does.
size_t decode_frame(std::span<const uint8_t> bytes, Frame* out);

/// Total encoded size of a frame (header + payload) — used by the transport
/// byte accounting that backs the bandwidth experiments.
inline uint64_t frame_wire_size(const Frame& frame) {
  return frame_header_size(frame.request_id, frame.payload.size()) +
         frame.payload.size();
}

/// The kHello payload that opens every client session: kProtocolVersion,
/// the client id, the session epoch, and the segment handles to rebind.
/// A session must say hello before it binds a non-zero handle; the
/// defaults suit a hand-built first session that rebinds nothing.
Buffer hello_payload(uint64_t client_id = 0, uint64_t session_epoch = 1,
                     const std::map<uint32_t, std::string>& bindings = {});

}  // namespace iw
