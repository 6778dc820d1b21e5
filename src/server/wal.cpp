#include "server/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/fsync.hpp"
#include "util/logging.hpp"
#include "wire/payload.hpp"

namespace iw::server {

namespace {

constexpr uint32_t kWalMagic = 0x4957414C;  // "IWAL"
// Format 4: a record's body is in the wire section envelope, and commit
// diffs use the varint encoding (wire/diff.hpp) with tagged pointer units.
// Formats 1 to 3 are refused (see wal.hpp).
constexpr uint32_t kWalFormat = 4;
constexpr size_t kHeaderBytes = WriteAheadLog::kHeaderSize;

}  // namespace

WriteAheadLog::Replay WriteAheadLog::replay(const std::string& path) {
  Replay out;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      out.missing = true;
      return out;
    }
    throw_errno("open(" + path + ")");
  }
  std::vector<uint8_t> bytes;
  {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("fstat(" + path + ")");
    }
    bytes.resize(static_cast<size_t>(st.st_size));
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::read(fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("read(" + path + ")");
      }
      if (n == 0) break;  // concurrent truncation; parse what we have
      off += static_cast<size_t>(n);
    }
    bytes.resize(off);
    ::close(fd);
  }

  if (bytes.size() >= kHeaderBytes && load_be32(bytes.data()) == kWalMagic &&
      load_be32(bytes.data() + 4) != kWalFormat) {
    // A real journal in another format: refuse it rather than discard
    // acknowledged commits or misparse their diffs.
    throw Error(ErrorCode::kUnimplemented,
                path + ": journal format " +
                    std::to_string(load_be32(bytes.data() + 4)) +
                    " (this build reads format " +
                    std::to_string(kWalFormat) + ")");
  }
  if (bytes.size() < kHeaderBytes || load_be32(bytes.data()) != kWalMagic) {
    // Not a log we can trust at all; the caller starts fresh (valid_bytes 0
    // makes the reopen rewrite the header).
    out.torn_tail = !bytes.empty();
    out.truncated_bytes = bytes.size();
    out.valid_bytes = 0;
    return out;
  }

  // The record framing is the shared codec's; WAL-specific policy on top:
  // an unknown type stops replay exactly like a CRC failure, because record
  // boundaries past a record we cannot interpret are not trustworthy.
  RecordScanner scanner({bytes.data() + kHeaderBytes,
                         bytes.size() - kHeaderBytes}, kHeaderBytes);
  uint64_t accepted_end = kHeaderBytes;
  ScannedRecord sr;
  while (scanner.next(&sr) == RecordScanner::Status::kRecord) {
    if (sr.tag < static_cast<uint8_t>(WalRecordType::kSegmentCreate) ||
        sr.tag > static_cast<uint8_t>(WalRecordType::kEpochAdopt)) {
      break;
    }
    out.records.push_back({static_cast<WalRecordType>(sr.tag),
                           {sr.payload.begin(), sr.payload.end()},
                           sr.end_offset});
    accepted_end = sr.end_offset;
  }
  out.valid_bytes = accepted_end;
  out.torn_tail = accepted_end < bytes.size();
  out.truncated_bytes = bytes.size() - accepted_end;
  return out;
}

WriteAheadLog::WriteAheadLog(std::string path, Options options,
                             uint64_t resume_at)
    : path_(std::move(path)), options_(options) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) throw_errno("open(" + path_ + ")");
  try {
    if (resume_at < kHeaderBytes) {
      // Fresh log (new segment, or prior content declared untrustworthy).
      if (::ftruncate(fd_, 0) != 0) throw_errno("ftruncate(" + path_ + ")");
      uint8_t header[kHeaderBytes];
      store_be32(header, kWalMagic);
      store_be32(header + 4, kWalFormat);
      write_all(header, sizeof header);
      // The header (and the file's very existence) must survive a crash
      // regardless of sync policy, or recovery of the first records has
      // nothing to anchor on. Once per segment lifetime: cheap.
      fdatasync_fd(fd_, path_);
      fsync_parent_dir(path_);
      if (options_.counters != nullptr) {
        options_.counters->fsyncs.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // Resume after replay: drop any torn tail so the next record lands
      // on a clean boundary.
      if (::ftruncate(fd_, static_cast<off_t>(resume_at)) != 0) {
        throw_errno("ftruncate(" + path_ + ")");
      }
      if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("lseek(" + path_ + ")");
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  last_flush_ = std::chrono::steady_clock::now();
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::write_all(const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write(" + path_ + ")");
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
}

void WriteAheadLog::fdatasync_now() {
  fdatasync_fd(fd_, path_);
  dirty_ = false;
  last_flush_ = std::chrono::steady_clock::now();
  if (options_.counters != nullptr) {
    options_.counters->fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
}

void WriteAheadLog::append(WalRecordType type, std::span<const uint8_t> head,
                           std::span<const uint8_t> body) {
  uint8_t prefix[kFramedPrefixBytes];
  build_record_prefix(static_cast<uint8_t>(type), head, body, prefix);

  WalCrashPoint crash = options_.crash != nullptr
                            ? options_.crash->next_append()
                            : WalCrashPoint::kNone;
  if (crash == WalCrashPoint::kShortWrite) {
    // Die with only part of the record *header* on disk: replay must see
    // fewer bytes than a header and stop.
    write_all(prefix, kFramedHeaderBytes / 2);
    wal_crash_now();
  }
  if (crash == WalCrashPoint::kMidRecord) {
    // Header complete, payload cut short: the length field promises more
    // bytes than the file holds (and the CRC cannot match a prefix).
    write_all(prefix, sizeof prefix);
    write_all(head.data(), head.size());
    write_all(body.data(), body.size() / 2);
    wal_crash_now();
  }

  struct iovec iov[3];
  int iovcnt = 0;
  iov[iovcnt++] = {prefix, sizeof prefix};
  if (!head.empty()) {
    iov[iovcnt++] = {const_cast<uint8_t*>(head.data()), head.size()};
  }
  if (!body.empty()) {
    iov[iovcnt++] = {const_cast<uint8_t*>(body.data()), body.size()};
  }
  size_t total = sizeof prefix + head.size() + body.size();
  // writev keeps the common small-record case one syscall; fall back to
  // write_all per part only when the vectored write came up short.
  ssize_t w = ::writev(fd_, iov, iovcnt);
  if (w < 0 || static_cast<size_t>(w) != total) {
    if (w < 0 && errno != EINTR) throw_errno("writev(" + path_ + ")");
    size_t done = w < 0 ? 0 : static_cast<size_t>(w);
    for (int i = 0; i < iovcnt; ++i) {
      const auto* base = static_cast<const uint8_t*>(iov[i].iov_base);
      size_t len = iov[i].iov_len;
      size_t skip = std::min(done, len);
      done -= skip;
      write_all(base + skip, len - skip);
    }
  }
  dirty_ = true;
  if (options_.counters != nullptr) {
    options_.counters->records_appended.fetch_add(1,
                                                  std::memory_order_relaxed);
    options_.counters->bytes_appended.fetch_add(total,
                                                std::memory_order_relaxed);
  }

  if (crash == WalCrashPoint::kBeforeSync) wal_crash_now();

  switch (options_.sync) {
    case Sync::kNone:
      break;
    case Sync::kBatch: {
      auto now = std::chrono::steady_clock::now();
      if (now - last_flush_ >= std::chrono::milliseconds(kBatchIntervalMs)) {
        fdatasync_now();
      }
      break;
    }
    case Sync::kCommit:
      fdatasync_now();
      break;
  }
}

void WriteAheadLog::sync() {
  if (dirty_) fdatasync_now();
}

void WriteAheadLog::truncate_after_checkpoint() {
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) != 0) {
    throw_errno("ftruncate(" + path_ + ")");
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("lseek(" + path_ + ")");
  dirty_ = false;
  fdatasync_fd(fd_, path_);
  if (options_.counters != nullptr) {
    options_.counters->fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace iw::server
