// Protocol frames exchanged between InterWeave clients and servers.
//
// Every message is one frame: a fixed header (type, request id, payload
// length) followed by an opaque payload whose layout depends on the type.
// Request/response pairs share a request id; notifications pushed by the
// server use request id 0.
#pragma once

#include <cstdint>
#include <vector>

#include "util/buffer.hpp"

namespace iw {

/// Version of the client/server protocol, sent as the first byte of every
/// kHello. There is one dialect per version: every field below is required,
/// and any change to a frame layout bumps this number. A server answers a
/// hello carrying another version with a kProtocol error.
inline constexpr uint8_t kProtocolVersion = 1;

// Field notation: u8/u32/u64 fixed width (big-endian), v LEB128 varint,
// vs varint-length string, lp u32-length string. "envelope diff" is a diff
// behind the one-byte section method of wire/payload.hpp (kRaw or kLz).
enum class MsgType : uint8_t {
  kError = 0,            ///< response: lp error-code name, lp message
  kOpenSegment = 1,      ///< lp segment name, u8 create_if_missing
  kOpenSegmentResp = 2,  ///< u32 version, u32 next_block_serial
  kRegisterType = 3,     ///< lp segment name, type graph
  kRegisterTypeResp = 4, ///< u32 type serial (segment-scoped)
  kAcquireRead = 5,      ///< vs segment, v cached version, u8 model, v param
  kAcquireReadResp = 6,  ///< u8 uptodate, [v n_types, types, envelope diff],
                         ///< u8 granted: lock may stay cached client-side
  // No client sends kReleaseRead; it stays because perfbench counts it.
  kReleaseRead = 7,      ///< vs segment, u8 keep_cached
  kAcquireWrite = 8,     ///< vs segment, v cached version
  kAcquireWriteResp = 9, ///< v next_block_serial, u8 uptodate, [v n_types,
                         ///< types, envelope diff]
  kReleaseWrite = 10,    ///< vs segment, envelope diff
  kReleaseWriteResp = 11,///< v new version
  kSegmentInfo = 12,     ///< lp segment name (metadata for space reservation)
  kSegmentInfoResp = 13, ///< block directory: serials, types, names
  kSubscribe = 14,       ///< lp segment
  kNotifyVersion = 15,   ///< notification: vs segment, v new version
  kPing = 16,            ///< liveness probe
  kPingResp = 17,
  kAck = 18,             ///< generic empty success response
  kCloseSegment = 19,    ///< lp segment: drop this session's segment state
  kHello = 20,           ///< u8 protocol version, v client id, v session
                         ///< epoch (reconnects); the session caches locks
  kHelloResp = 21,       ///< v writer lease ms (0 = leases disabled)
  kRevokeRead = 22,      ///< notification: vs segment, v revoke_gen —
                         ///< release cached lock, echo gen in the ack
  kRevokeAck = 23,       ///< vs segment, v revoke_gen: cached read lock
                         ///< has been dropped (stale gen = ignored)
  // --- federation (server-to-server replication + segment directory) ---
  kWalAppend = 24,       ///< primary -> replica: u32 record count, then per
                         ///< record lp segment, u32 placement epoch, u8 WAL
                         ///< record type, u32 body length, body bytes
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

/// Serialized frame header size in bytes (u8 type + u32 id + u32 length).
inline constexpr size_t kFrameHeaderSize = 9;

/// Maximum accepted payload size; guards against corrupt length fields.
inline constexpr uint32_t kMaxFramePayload = 256u << 20;

/// Appends the wire encoding of `frame` to `out`.
void encode_frame(const Frame& frame, Buffer& out);

/// Encodes just the header into a caller-provided kFrameHeaderSize-byte
/// array; the transports pair it with the payload in one vectored send so
/// the payload bytes are never copied into a contiguous frame.
void encode_frame_header(MsgType type, uint32_t request_id,
                         size_t payload_size,
                         uint8_t out[kFrameHeaderSize]);

/// Parses one frame from exactly kFrameHeaderSize header bytes; returns the
/// payload length the caller must then read. Throws Error(kProtocol) on a
/// malformed header.
struct FrameHeader {
  MsgType type;
  uint32_t request_id;
  uint32_t payload_size;
};
FrameHeader decode_frame_header(const uint8_t* header_bytes);

/// Total encoded size of a frame (header + payload) — used by the transport
/// byte accounting that backs the bandwidth experiments.
inline uint64_t frame_wire_size(const Frame& frame) {
  return kFrameHeaderSize + frame.payload.size();
}

}  // namespace iw
