#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

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

/// Receive buffer of a client channel. A frame larger than it is received
/// straight into its payload.
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
    : options_(options), rbuf_(new uint8_t[kRecvBufferBytes]) {
  if (options_.call_timeout_ms == 0 || options_.connect_timeout_ms == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "call_timeout_ms and connect_timeout_ms must be positive");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
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
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("epoll_create1");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &ev) < 0) {
      throw_errno("epoll_ctl");
    }
  } catch (...) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    ::close(fd_);
    throw;
  }
  receiver_ = std::thread([this] { receive_loop(); });
}

TcpClientChannel::~TcpClientChannel() {
  ::shutdown(fd_, SHUT_RDWR);
  if (receiver_.joinable()) receiver_.join();
  ::close(epoll_fd_);
  ::close(fd_);
}

void TcpClientChannel::receive_loop() {
  for (;;) {
    epoll_event ev{};
    if (::epoll_wait(epoll_fd_, &ev, 1, -1) < 0) {
      if (errno == EINTR) continue;
      fail_channel(Error::transport(ErrorCode::kIo,
                                    std::string("epoll_wait: ") +
                                        std::strerror(errno)));
      return;
    }
    {
      std::unique_lock lock(mu_);
      if (outstanding_ > 0 && !closed_) {
        // Woken by a hang-up (reported whatever the interest) or by bytes
        // that came just as a call began: the callers read the socket now.
        receiver_parked_ = true;
        receiver_cv_.wait(lock, [this] { return closed_ || outstanding_ == 0; });
        receiver_parked_ = false;
        if (!closed_) continue;
      }
      if (closed_) return;
      reading_ = true;
    }
    const bool ok = read_idle();
    {
      std::lock_guard lock(mu_);
      reading_ = false;
    }
    cv_.notify_all();  // a call that began meanwhile waits for the token
    if (!ok) return;
  }
}

bool TcpClientChannel::read_idle() {
  try {
    for (bool more = true; more;) {
      more = receive_some();
      deliver_buffered(0, nullptr);
    }
    return true;
  } catch (const std::exception& e) {
    fail_read(e);
    return false;
  }
}

void TcpClientChannel::fail_read(const std::exception& e) {
  // A non-Error exception (an allocation failure) must still drain every
  // in-flight call, not kill the process via an escaped thread exception.
  if (dynamic_cast<const Error*>(&e) != nullptr) {
    IW_LOG(kDebug) << "tcp read: " << e.what();
  } else {
    IW_LOG(kWarn) << "tcp read: " << e.what();
  }
  fail_channel(Error::transport(ErrorCode::kConnReset, e.what()));
}

std::optional<Frame> TcpClientChannel::read_own(
    uint32_t request_id, std::chrono::steady_clock::time_point deadline) {
  std::optional<Frame> mine;
  try {
    while (!mine) {
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= left.zero()) break;
      const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left);
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(ms.count()));
      if (ready < 0 && errno != EINTR) throw_errno("poll");
      for (bool more = ready > 0; more && !mine;) {
        more = receive_some();
        deliver_buffered(request_id, &mine);
      }
    }
  } catch (const std::exception& e) {
    fail_read(e);
  }
  return mine;
}

bool TcpClientChannel::receive_some() {
  const bool large = large_size_ != 0;
  uint8_t* to = large ? large_.payload.data() + large_have_ : rbuf_.get() + rend_;
  const size_t room = large ? large_size_ - large_have_ : kRecvBufferBytes - rend_;
  for (;;) {
    const ssize_t r = ::recv(fd_, to, room, MSG_DONTWAIT);
    if (r > 0) {
      (large ? large_have_ : rend_) += static_cast<size_t>(r);
      return static_cast<size_t>(r) == room;
    }
    if (r == 0) {
      throw Error::transport(ErrorCode::kConnReset,
                             !large && rbegin_ == rend_
                                 ? "connection closed by server"
                                 : "connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    throw_errno("recv");
  }
}

void TcpClientChannel::deliver_buffered(uint32_t want,
                                        std::optional<Frame>* mine) {
  auto deliver = [&](Frame&& frame) {
    if (want != 0 && frame.request_id == want) {
      mine->emplace(std::move(frame));
    } else {
      route(std::move(frame));
    }
  };
  if (large_size_ != 0) {
    if (large_have_ < large_size_) return;
    bytes_received_.fetch_add(large_header_ + large_size_,
                              std::memory_order_relaxed);
    large_size_ = large_have_ = 0;
    deliver(std::exchange(large_, Frame{}));
  }
  // Every complete frame goes; a partial tail (a header may end mid-varint)
  // waits at the front of the buffer for its rest.
  for (;;) {
    Frame frame;
    const size_t used =
        decode_frame({rbuf_.get() + rbegin_, rend_ - rbegin_}, &frame);
    if (used == 0) break;
    rbegin_ += used;
    bytes_received_.fetch_add(used, std::memory_order_relaxed);
    deliver(std::move(frame));
  }
  const size_t tail = rend_ - rbegin_;
  const uint8_t* at = rbuf_.get() + rbegin_;
  FrameHeader h;
  if (tail > 0 && decode_frame_header(at, tail, &h) &&
      h.size + h.payload_size > kRecvBufferBytes) {
    // A frame that cannot fit the buffer: the rest of it is received
    // straight into its payload.
    large_.type = h.type;
    large_.request_id = h.request_id;
    large_.payload.resize(h.payload_size);
    large_header_ = h.size;
    large_size_ = h.payload_size;
    large_have_ = tail - h.size;
    std::memcpy(large_.payload.data(), at + h.size, large_have_);
    rbegin_ = rend_ = 0;
  } else if (rbegin_ > 0) {
    std::memmove(rbuf_.get(), at, tail);
    rbegin_ = 0;
    rend_ = tail;
  }
}

void TcpClientChannel::route(Frame&& frame) {
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
  {
    std::lock_guard lock(mu_);
    // Late response to a call whose caller already hit its deadline:
    // discard rather than park it in `responses_` forever.
    if (abandoned_.erase(frame.request_id) > 0) return;
    responses_.emplace(frame.request_id, std::move(frame));
  }
  cv_.notify_all();
}

void TcpClientChannel::end_call_locked() {
  if (--outstanding_ > 0 || closed_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
  if (receiver_parked_) receiver_cv_.notify_one();
}

void TcpClientChannel::fail_channel(const Error& reason) {
  {
    std::lock_guard lock(mu_);
    if (closed_) return;
    closed_ = true;
    close_reason_ = reason.what();
  }
  cv_.notify_all();
  receiver_cv_.notify_all();
  // A hang-up reaches the receiver's epoll set whatever its interest.
  ::shutdown(fd_, SHUT_RDWR);
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
    if (outstanding_++ == 0) {
      // Calls read the socket themselves from now on: take it from the
      // receiver, so a response wakes only the thread waiting for it.
      epoll_event ev{};
      ev.data.fd = fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
    }
  }
  uint8_t header[kMaxFrameHeaderSize];
  const size_t header_len = encode_frame_header(
      request.type, request.request_id, payload.size(), header);
  try {
    send_frame(header, header_len, payload);
  } catch (const Error& e) {
    {
      std::lock_guard lock(mu_);
      end_call_locked();
    }
    throw Error::transport(e.code(),
                           std::string(e.what()) + " (sending " +
                               call_context(type, request.request_id, start) +
                               ")");
  }
  payload.clear();
  return check_response(await_response(
      request.request_id,
      start + std::chrono::milliseconds(options_.call_timeout_ms), type,
      start));
}

Frame TcpClientChannel::await_response(
    uint32_t request_id, std::chrono::steady_clock::time_point deadline,
    MsgType type, std::chrono::steady_clock::time_point start) {
  std::unique_lock lock(mu_);
  for (;;) {
    auto it = responses_.find(request_id);
    if (it != responses_.end()) {
      Frame response = std::move(it->second);
      responses_.erase(it);
      end_call_locked();
      return response;
    }
    if (closed_) {
      end_call_locked();
      throw Error::transport(ErrorCode::kConnReset,
                             "connection closed awaiting response: " +
                                 close_reason_ + " (" +
                                 call_context(type, request_id, start) + ")");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      abandoned_.insert(request_id);
      end_call_locked();
      faults_.call_timeouts.fetch_add(1, std::memory_order_relaxed);
      throw Error::transport(ErrorCode::kTimedOut,
                             "call deadline exceeded (" +
                                 call_context(type, request_id, start) + ")");
    }
    if (reading_) {
      cv_.wait_until(lock, deadline);
      continue;
    }
    reading_ = true;
    lock.unlock();
    std::optional<Frame> mine = read_own(request_id, deadline);
    lock.lock();
    reading_ = false;
    cv_.notify_all();  // the token is free for the next waiting caller
    if (mine) {
      end_call_locked();
      return std::move(*mine);
    }
  }
}

void TcpClientChannel::set_notify_handler(std::function<void(const Frame&)> fn) {
  std::lock_guard lock(notify_mu_);
  notify_ = std::move(fn);
}

}  // namespace iw
