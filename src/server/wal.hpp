// Per-segment write-ahead diff log — the journal half of the server's
// snapshot+journal durability discipline.
//
// Every committed diff (and segment create / type registration / destroy)
// is appended to `<segment>.iwlog` *before* the commit is acknowledged to
// the client, so a crashed server recovers every acknowledged version by
// loading the newest valid checkpoint and replaying the log tail.
//
// On-disk layout (all integers big-endian, matching the wire format):
//
//   file   := header record*
//   header := magic u32 "IWAL" | format u32 (=4)
//   record := body_len u32 | crc u32 | body
//   body   := type u8 | payload         (body_len = 1 + payload size)
//   payload, by type (WalRecordType):
//     kSegmentCreate  := lp segment name
//     kRegisterType   := u32 serial | section(type graph)
//     kCommit         := u32 version | section(diff)
//     kSegmentDestroy := (empty)
//     kEpochAdopt     := u32 epoch
//
// `section(x)` is x in the wire section envelope (wire/payload.hpp): a
// method byte, then the raw bytes (kRaw) or `v comp_len, v raw_len, lz`
// (kLz). A commit a writer sent compressed carries the writer's envelope
// unchanged. The log neither encodes nor decodes it: append writes the
// bytes it is handed and replay returns them, and the record's body is
// decoded where it is applied (SegmentServer::apply_record_locked). The
// record framing is the shared codec's; this file composes it with the
// WAL's header, sync policies, and torn-tail rule. A journal in format 1
// (fixed-width diffs), 2 (MIP-string pointer units) or 3 (a compressed
// payload marked by bit 7 of the type) is refused with
// Error(kUnimplemented).
//
// `crc` is CRC-32C over the whole body. The torn-tail rule: a record is
// valid only if its full header fits, its length is sane, its full body
// fits, the CRC matches, and its type is known; replay stops cleanly at the
// first violation (a crash mid-append leaves exactly such a tail) and
// reopening for append truncates the torn bytes. Corruption *before* the
// tail also stops replay — bytes after a bad record cannot be trusted
// because record boundaries are lost. A CRC-clean record whose body does
// not decode stops recovery the same way: recover() applies records up to
// the first it cannot apply and truncates the reopened journal there. Before
// any cut, recover() copies the journal as found, whole and durably, to
// the first free name of `<segment>.iwlog.corrupt`, `.corrupt.1`, ... (an
// earlier cut's copy is never replaced), which replay() reads like any
// journal.
//
// Sync policies trade commit latency for durability against OS/power
// failure (process death alone never loses a completed append):
//   kNone   — never fdatasync; the page cache decides.
//   kBatch  — group commit: fdatasync at most once per kBatchIntervalMs,
//             piggybacking every commit in between on one flush.
//   kCommit — fdatasync before every commit acknowledgement.
//
// Thread-safety: none. A WriteAheadLog belongs to one SegmentEntry and is
// only touched under that entry's mutex, exactly like the store.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "util/counters.hpp"

namespace iw::server {

enum class WalRecordType : uint8_t {
  kSegmentCreate = 1,  ///< payload: lp segment name
  kRegisterType = 2,   ///< payload: u32 serial, section(type graph)
  kCommit = 3,         ///< payload: u32 resulting version, section(diff)
  kSegmentDestroy = 4, ///< payload: empty; replay resets the segment
  kEpochAdopt = 5,     ///< payload: u32 adopted placement epoch. Local-only
                       ///< lineage marker written at promotion and after a
                       ///< backfill install; never replicated (kWalAppend
                       ///< accepts only types 1..4), so a deposed primary's
                       ///< replayed history carries the epoch it last served
                       ///< under and a rejoin can tell whether its version
                       ///< lineage matches the promoted one.
};

/// Journal counters (util/counters.hpp); the owning server aggregates one
/// WalCounters across every segment's log.
#define IW_WAL_COUNTERS(X) X(records_appended) X(bytes_appended) X(fsyncs)

struct WalCounters {
  IW_COUNTER_ATOMICS(IW_WAL_COUNTERS)
};

class WriteAheadLog {
 public:
  enum class Sync : uint8_t { kNone, kBatch, kCommit };

  /// Size of the file header (magic + format); the offset of the first
  /// record, and the smallest meaningful `resume_at`.
  static constexpr uint64_t kHeaderSize = 8;
  /// Group-commit flush interval for Sync::kBatch.
  static constexpr uint32_t kBatchIntervalMs = 5;

  struct Options {
    Sync sync = Sync::kBatch;
    /// Aggregated server-wide counters; may be null.
    WalCounters* counters = nullptr;
    /// Crash injection (tests only); may be null.
    std::shared_ptr<WalCrashSchedule> crash;
  };

  struct Record {
    WalRecordType type;
    /// The payload as journaled; a body is still in its section envelope.
    std::vector<uint8_t> payload;
    /// File offset just past this record — the truncation point when a
    /// recovery applies only a prefix of the records.
    uint64_t end_offset = 0;
  };

  /// Result of scanning a log file up to the first invalid record.
  struct Replay {
    std::vector<Record> records;
    /// Byte offset of the end of the last valid record (or the header);
    /// reopening for append truncates the file here.
    uint64_t valid_bytes = 0;
    /// True when bytes past valid_bytes existed but did not parse — a torn
    /// or corrupt tail. Never an error: this is the expected shape of a
    /// crash mid-append.
    bool torn_tail = false;
    /// How many tail bytes did not parse (file size - valid_bytes when
    /// torn_tail, else 0) — counted, with any CRC-clean records recovery
    /// could not apply, in the server's wal_truncated_bytes stat so
    /// operators can see how much a crash actually cost.
    uint64_t truncated_bytes = 0;
    /// True when the file does not exist (fresh segment, or WAL disabled
    /// when the state was written).
    bool missing = false;
  };

  /// Scans `path` and parses every valid record. Throws Error(kIo) on
  /// genuine I/O failure (open/read of an existing file) and
  /// Error(kUnimplemented) for a journal in another format; torn or
  /// corrupt content is reported via the result, never thrown.
  static Replay replay(const std::string& path);

  /// Opens `path` for appending. `resume_at` is Replay::valid_bytes from a
  /// preceding replay: the file is truncated there (discarding any torn
  /// tail) before appends continue. Passing 0 starts the log fresh — the
  /// previous content (if any) is discarded and a new header written, which
  /// is also how a brand-new segment's log is born.
  WriteAheadLog(std::string path, Options options, uint64_t resume_at = 0);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record whose payload is `head` followed by `body` (two
  /// spans so a commit's version prefix needs no copy of the diff bytes),
  /// then applies the sync policy. Must complete before the corresponding
  /// commit is acknowledged. The bytes are journaled as handed over, so a
  /// replica journaling a primary's stream stores it byte for byte.
  void append(WalRecordType type, std::span<const uint8_t> head,
              std::span<const uint8_t> body = {});

  /// fdatasyncs now if any append since the last flush; no-op otherwise.
  void sync();

  /// Discards every record — the checkpoint that just landed durably
  /// supersedes them. Truncates back to the file header and flushes, so a
  /// crash right after checkpointing cannot replay stale records on top of
  /// the new snapshot.
  void truncate_after_checkpoint();

  const std::string& path() const noexcept { return path_; }

 private:
  void write_all(const uint8_t* p, size_t n);
  void fdatasync_now();

  std::string path_;
  Options options_;
  int fd_ = -1;
  bool dirty_ = false;
  std::chrono::steady_clock::time_point last_flush_{};
};

}  // namespace iw::server
