#include "server/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/fsync.hpp"
#include "wire/payload.hpp"

namespace iw::server {

namespace {

constexpr uint32_t kChainMagic = 0x49574943;  // "IWIC"
// Format 4: a record's sections are in the wire section envelope, and the
// folded diffs use the varint encoding (wire/diff.hpp) with tagged pointer
// units; formats 1 to 3 are refused.
constexpr uint32_t kChainFormat = 4;
constexpr size_t kChainHeaderBytes = 8;

void write_all(int fd, const std::string& path, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write(" + path + ")");
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
}

}  // namespace

ChainScan scan_chain(const std::string& path) {
  ChainScan out;
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
      if (n == 0) break;
      off += static_cast<size_t>(n);
    }
    bytes.resize(off);
    ::close(fd);
  }

  if (bytes.size() >= kChainHeaderBytes &&
      load_be32(bytes.data()) == kChainMagic &&
      load_be32(bytes.data() + 4) != kChainFormat) {
    throw Error(ErrorCode::kUnimplemented,
                path + ": checkpoint chain format " +
                    std::to_string(load_be32(bytes.data() + 4)) +
                    " (this build reads format " +
                    std::to_string(kChainFormat) + ")");
  }
  if (bytes.size() < kChainHeaderBytes ||
      load_be32(bytes.data()) != kChainMagic) {
    out.torn = !bytes.empty();
    out.valid_bytes = 0;
    return out;
  }

  RecordScanner scanner(
      {bytes.data() + kChainHeaderBytes, bytes.size() - kChainHeaderBytes},
      kChainHeaderBytes);
  uint64_t accepted_end = kChainHeaderBytes;
  ScannedRecord sr;
  while (scanner.next(&sr) == RecordScanner::Status::kRecord) {
    // Three versions, then at least the sections' method byte.
    if (sr.tag != kChainDelta || sr.payload.size() < 13) break;
    ChainRecord rec;
    rec.base_version = load_be32(sr.payload.data());
    rec.from_version = load_be32(sr.payload.data() + 4);
    rec.to_version = load_be32(sr.payload.data() + 8);
    rec.body.assign(sr.payload.begin() + 12, sr.payload.end());
    rec.stored_bytes = sr.end_offset - accepted_end;
    accepted_end = sr.end_offset;
    out.records.push_back(std::move(rec));
  }
  out.valid_bytes = accepted_end;
  out.torn = accepted_end < bytes.size();
  return out;
}

uint64_t append_chain_record(const std::string& path, uint32_t base_version,
                             uint32_t from_version, uint32_t to_version,
                             std::span<const uint8_t> sections,
                             bool try_compress) {
  // The three versions, then the method byte when the sections go raw.
  uint8_t head[13];
  store_be32(head, base_version);
  store_be32(head + 4, from_version);
  store_be32(head + 8, to_version);
  Buffer framed;
  Buffer section;
  if (try_compress && compress_section(sections, section)) {
    append_framed_record(framed, kChainDelta, {head, 12}, section.span());
  } else {
    head[12] = payload_method::kRaw;
    append_framed_record(framed, kChainDelta, head, sections);
  }

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("open(" + path + ")");
  try {
    struct stat st;
    if (::fstat(fd, &st) != 0) throw_errno("fstat(" + path + ")");
    const bool created = st.st_size == 0;
    if (created) {
      uint8_t header[kChainHeaderBytes];
      store_be32(header, kChainMagic);
      store_be32(header + 4, kChainFormat);
      write_all(fd, path, header, sizeof header);
    }
    write_all(fd, path, framed.data(), framed.size());
    // The record must be on disk before the WAL it supersedes is truncated,
    // whatever the journal's sync policy; once per checkpoint is cheap next
    // to the full-snapshot rewrite it replaces.
    fdatasync_fd(fd, path);
    ::close(fd);
    if (created) fsync_parent_dir(path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return framed.size();
}

}  // namespace iw::server
