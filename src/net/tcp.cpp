#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "util/logging.hpp"

namespace iw {

namespace {

/// Sends every slice of `chain` in order via sendmsg, so a frame header and
/// its payload go out in one syscall without being glued into a contiguous
/// copy first.
void write_all_vec(int fd, const IoChain& chain) {
  iovec iov[IoChain::kMaxSlices];
  size_t count = chain.count();
  for (size_t i = 0; i < count; ++i) {
    iov[i].iov_base = const_cast<void*>(chain.slices()[i].data);
    iov[i].iov_len = chain.slices()[i].len;
  }
  size_t idx = 0;
  while (idx < count) {
    msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = count - idx;
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("sendmsg");
    }
    size_t rem = static_cast<size_t>(w);
    while (idx < count && rem >= iov[idx].iov_len) {
      rem -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < count) {  // partial write into slice idx
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + rem;
      iov[idx].iov_len -= rem;
    }
  }
}

/// Receive buffer of a client channel: grows only for a frame larger than
/// it, and shrinks back once such a frame has been delivered.
constexpr size_t kRecvBufferBytes = 64 * 1024;

/// "kAcquireWrite req#42 after 123ms" — the request context every transport
/// throw out of TcpClientChannel::call carries, so a failure in a long
/// multi-call operation identifies which call died and how long it waited.
std::string call_context(MsgType type, uint32_t request_id,
                         std::chrono::steady_clock::time_point start) {
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return msg_type_name(type) + " req#" + std::to_string(request_id) +
         " after " + std::to_string(elapsed_ms) + "ms";
}

/// Non-blocking connect with a poll()-based deadline, so a black-holed
/// server address fails in bounded time instead of the OS default (minutes).
void connect_with_timeout(int fd, const sockaddr_in& addr,
                          uint32_t timeout_ms) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) throw_errno("connect");
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready == 0) {
      throw Error::transport(ErrorCode::kTimedOut,
                             "connect timed out after " +
                                 std::to_string(timeout_ms) + "ms");
    }
    if (ready < 0) throw_errno("poll(connect)");
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      errno = err;
      throw_errno("connect");
    }
  }
  ::fcntl(fd, F_SETFL, flags);
}

}  // namespace

// --- client ---------------------------------------------------------------

TcpClientChannel::TcpClientChannel(uint16_t port, Options options)
    : options_(options) {
  if (options_.call_timeout_ms == 0 || options_.connect_timeout_ms == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "call_timeout_ms and connect_timeout_ms must be positive");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  // Socket options before connect, so they apply from the first byte.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  try {
    connect_with_timeout(fd_, addr, options_.connect_timeout_ms);
  } catch (...) {
    ::close(fd_);
    throw;
  }
  receiver_ = std::thread([this] { receive_loop(); });
}

TcpClientChannel::~TcpClientChannel() {
  ::shutdown(fd_, SHUT_RDWR);
  if (receiver_.joinable()) receiver_.join();
  ::close(fd_);
}

void TcpClientChannel::receive_loop() {
  std::string reason = "connection closed by server";
  try {
    // One recv takes whatever the socket holds; every complete frame in
    // it is delivered before the next recv, and a partial one (a header
    // may end mid-varint) waits at the front of the buffer for its rest.
    std::vector<uint8_t> buf(kRecvBufferBytes);
    size_t begin = 0;
    size_t end = 0;
    for (;;) {
      Frame frame;
      while (size_t used = decode_frame({buf.data() + begin, end - begin},
                                        &frame)) {
        begin += used;
        bytes_received_.fetch_add(used, std::memory_order_relaxed);
        deliver(std::move(frame));
      }
      if (begin == end) {
        begin = end = 0;
        if (buf.size() > kRecvBufferBytes) {
          buf.assign(kRecvBufferBytes, 0);
          buf.shrink_to_fit();
        }
      } else if (end == buf.size()) {
        std::memmove(buf.data(), buf.data() + begin, end - begin);
        end -= begin;
        begin = 0;
        // A frame that alone fills the buffer: its header is in, so grow
        // to exactly its size.
        FrameHeader h;
        if (end == buf.size() && decode_frame_header(buf.data(), end, &h)) {
          buf.resize(h.size + h.payload_size);
        }
      }
      ssize_t r = ::recv(fd_, buf.data() + end, buf.size() - end, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw_errno("recv");
      }
      if (r == 0) {
        if (begin == end) break;  // clean EOF at a frame boundary
        throw Error::transport(ErrorCode::kConnReset,
                               "connection closed mid-frame");
      }
      end += static_cast<size_t>(r);
    }
  } catch (const Error& e) {
    IW_LOG(kDebug) << "tcp receive loop: " << e.what();
    reason = e.what();
  } catch (const std::exception& e) {
    // A non-Error exception (an allocation failure) must still drain every
    // in-flight call, not kill the process via an escaped thread
    // exception.
    IW_LOG(kWarn) << "tcp receive loop: " << e.what();
    reason = e.what();
  }
  fail_channel(Error::transport(ErrorCode::kConnReset, reason));
}

void TcpClientChannel::deliver(Frame&& frame) {
  if (frame.request_id == 0) {
    std::function<void(const Frame&)> fn;
    {
      std::lock_guard lock(notify_mu_);
      fn = notify_;
    }
    if (!fn) return;
    try {
      fn(frame);
    } catch (const std::exception& e) {
      // The handler's failure is its own: the stream is intact, so the
      // connection and every call in flight on it carry on.
      IW_LOG(kWarn) << "notify handler threw: " << e.what();
    }
    return;
  }
  std::lock_guard lock(mu_);
  // Late response to a call whose caller already hit its deadline: discard
  // rather than park it in `responses_` forever.
  if (abandoned_.erase(frame.request_id) > 0) return;
  responses_.emplace(frame.request_id, std::move(frame));
  cv_.notify_all();
}

void TcpClientChannel::fail_channel(const Error& reason) {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    close_reason_ = reason.what();
  }
  cv_.notify_all();
}

void TcpClientChannel::send_frame(const uint8_t* header, size_t header_len,
                                  const Buffer& payload) {
  std::lock_guard lock(send_mu_);
  if (send_error_) throw *send_error_;
  IoChain chain;
  chain.add(header, header_len);
  chain.add(payload.slice());
  try {
    write_all_vec(fd_, chain);
  } catch (const Error& e) {
    send_error_ = e;
    throw;
  }
  bytes_sent_.fetch_add(header_len + payload.size(),
                        std::memory_order_relaxed);
}

Frame TcpClientChannel::call(MsgType type, Buffer& payload) {
  const auto start = std::chrono::steady_clock::now();
  Frame request;
  request.type = type;
  {
    std::lock_guard lock(mu_);
    if (closed_) {
      throw Error::transport(
          ErrorCode::kConnReset,
          "channel closed: " + close_reason_ + " (" +
              call_context(type, next_request_id_, start) + ")");
    }
    request.request_id = next_request_id_++;
  }
  uint8_t header[kMaxFrameHeaderSize];
  const size_t header_len = encode_frame_header(
      request.type, request.request_id, payload.size(), header);
  try {
    send_frame(header, header_len, payload);
  } catch (const Error& e) {
    throw Error::transport(e.code(),
                           std::string(e.what()) + " (sending " +
                               call_context(type, request.request_id, start) +
                               ")");
  }
  payload.clear();

  std::unique_lock lock(mu_);
  auto ready = [&] {
    return closed_ || responses_.count(request.request_id) > 0;
  };
  if (!cv_.wait_for(lock, std::chrono::milliseconds(options_.call_timeout_ms),
                   ready)) {
    abandoned_.insert(request.request_id);
    faults_.call_timeouts.fetch_add(1, std::memory_order_relaxed);
    throw Error::transport(ErrorCode::kTimedOut,
                           "call deadline exceeded (" +
                               call_context(type, request.request_id, start) +
                               ")");
  }
  auto it = responses_.find(request.request_id);
  if (it == responses_.end()) {
    throw Error::transport(ErrorCode::kConnReset,
                           "connection closed awaiting response: " +
                               close_reason_ + " (" +
                               call_context(type, request.request_id, start) +
                               ")");
  }
  Frame response = std::move(it->second);
  responses_.erase(it);
  lock.unlock();
  return check_response(std::move(response));
}

void TcpClientChannel::set_notify_handler(std::function<void(const Frame&)> fn) {
  std::lock_guard lock(notify_mu_);
  notify_ = std::move(fn);
}

}  // namespace iw
