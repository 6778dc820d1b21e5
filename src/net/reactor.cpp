#include "net/reactor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "util/logging.hpp"
#include "wire/frame.hpp"

namespace iw {

namespace {

/// Frames coalesced into one sendmsg. Each frame contributes two iovec
/// slices (header, payload), so this stays far below IOV_MAX.
constexpr size_t kMaxFramesPerSendmsg = 64;

/// Run-side flush trigger: responses accumulated past this many bytes
/// are flushed even though more decoded frames are waiting, so a long
/// request burst cannot balloon the outbox unboundedly between flushes.
constexpr size_t kRunFlushBytes = 256u << 10;

/// A follower retires after this long idle while `Options::workers` others
/// are idle (extra threads are for bursts and blocked handlers, not steady
/// state).
constexpr auto kFollowerIdleRetire = std::chrono::seconds(2);

/// Bytes one recv asks for while no large frame is in progress; a frame
/// whose payload is larger is received straight into that payload.
constexpr size_t kReadChunk = 64 * 1024;

/// A large frame's payload buffer is never more than this many times the
/// bytes of the frame received so far, so a header alone cannot make the
/// server reserve the size it declares.
constexpr size_t kRecvGrowth = 8;

std::atomic<SessionId> g_next_reactor_session{1u << 20};

int make_listener(uint16_t port, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("bind");
  }
  // Deep backlog: a connection-scaling client may dial hundreds of
  // sockets at once, and a SYN dropped on backlog overflow costs a full
  // retransmit timeout (the kernel clamps this to somaxconn).
  if (::listen(fd, 4096) < 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

struct TcpServer::AtomicStats {
  IW_COUNTER_ATOMICS(IW_REACTOR_COUNTERS)

  static void bump_max(std::atomic<uint64_t>& max, uint64_t v) {
    uint64_t cur = max.load(std::memory_order_relaxed);
    while (v > cur &&
           !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
};

/// One connection's session state machine. The leader owns the read side
/// (rdbuf, large) exclusively; everything else is guarded by `mu`,
/// which is a leaf lock — nothing else is ever acquired under it, so the
/// notifier path (called under a segment entry lock) cannot deadlock.
struct TcpServer::Conn {
  /// One encoded response/notification awaiting flush.
  struct OutFrame {
    uint8_t header[kMaxFrameHeaderSize];
    uint8_t header_len = 0;
    std::vector<uint8_t> payload;

    size_t wire_size() const { return header_len + payload.size(); }
  };

  std::mutex mu;  // guards fd lifecycle, inbox, outbox, and flags below
  int fd = -1;    // -1 once closed by retire()
  SessionId session = 0;

  // Read side: the leader only, no lock needed.
  std::vector<uint8_t> rdbuf;
  /// A frame whose header is in and whose payload outgrows one read chunk:
  /// the rest of it is received straight into `large.payload`, which holds
  /// `large_have` of its `large_size` bytes (0: no such frame).
  Frame large;
  size_t large_have = 0;
  size_t large_size = 0;

  std::deque<Frame> inbox;  // decoded requests awaiting their turn
  bool scheduled = false;   // queued for (or being run by) a pool thread
  bool eof = false;         // peer closed, read failed, or protocol error
  bool dead = false;        // write side failed; responses undeliverable
  bool disconnected = false;  // core_.on_disconnect already ran

  std::deque<OutFrame> outbox;
  size_t out_bytes = 0;     // total unsent bytes across outbox
  size_t out_head_off = 0;  // bytes of outbox.front() already on the wire
  bool want_epollout = false;
  bool read_paused = false;  // EPOLLIN dropped while the outbox drains
};

TcpServer::TcpServer(ServerCore& core, uint16_t port, Options options)
    : core_(core), options_(options), stats_(std::make_unique<AtomicStats>()) {
  options_.workers = std::max(options_.workers, 0);
  // A leader hands off only to another thread, so the pool needs two.
  options_.max_workers =
      std::max({options_.max_workers, options_.workers + 1, 2});
  options_.write_low_watermark =
      std::min(options_.write_low_watermark, options_.write_high_watermark);

  listen_fd_ = make_listener(port, &port_);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || timer_fd_ < 0) {
    int err = errno;
    for (int fd : {listen_fd_, epoll_fd_, wake_fd_, timer_fd_}) {
      if (fd >= 0) ::close(fd);
    }
    errno = err;
    throw_errno("reactor setup");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.data.fd = timer_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);

  std::lock_guard lock(pool_mu_);
  if (!spawn_locked()) {
    for (int fd : {listen_fd_, epoll_fd_, wake_fd_, timer_fd_}) ::close(fd);
    throw Error(ErrorCode::kIo, "reactor setup: cannot start a thread");
  }
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::wake_leader() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void TcpServer::shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    wake_leader();
    // The leader runs the drain: it closes the listener, shuts every
    // socket down (so blocked-in-core handlers unblock via their peers'
    // disconnects), retires the resulting EOFs, and stops the pool once
    // the last connection has been retired. Every thread then exits.
    ThreadList threads;
    std::thread retired;
    {
      std::unique_lock lock(pool_mu_);
      pool_cv_.wait(lock, [this] { return pool_stopping_ && live_ == 0; });
      threads.swap(threads_);
      retired = std::move(retired_);
    }
    for (auto& t : threads) t.join();
    if (retired.joinable()) retired.join();
    for (int fd : {epoll_fd_, wake_fd_, timer_fd_}) {
      if (fd >= 0) ::close(fd);
    }
  });
}

ReactorStats TcpServer::stats() const {
  ReactorStats s;
  stats_->snapshot_into(s);
  return s;
}

// --- pool -----------------------------------------------------------------

bool TcpServer::spawn_locked() {
  auto it = threads_.emplace(threads_.end());
  try {
    // The thread reads `it` under pool_mu_, which the caller holds.
    *it = std::thread([this, it] { thread_main(it); });
  } catch (const std::system_error& e) {
    threads_.erase(it);
    IW_LOG(kWarn) << "reactor: cannot start a thread: " << e.what();
    return false;
  }
  ++live_;
  stats_->workers_spawned.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool TcpServer::recruit_locked(int& notify) {
  if (pool_stopping_) return false;  // shutdown() joins a closed set
  if (idle_ > 0) {
    --idle_;
    ++claimed_;
    ++notify;
    return true;
  }
  return live_ < options_.max_workers && spawn_locked();
}

void TcpServer::thread_main(ThreadList::iterator self) {
  std::unique_lock lock(pool_mu_);
  for (;;) {
    if (!ready_.empty()) {
      std::shared_ptr<Conn> conn = std::move(ready_.front());
      ready_.pop_front();
      lock.unlock();
      process(conn, false);
      lock.lock();
      continue;
    }
    if (pool_stopping_) break;
    if (!leader_present_) {
      leader_present_ = true;
      lock.unlock();
      if (std::shared_ptr<Conn> conn = lead()) process(conn, true);
      lock.lock();
      continue;
    }
    ++idle_;
    const bool claimed = pool_cv_.wait_for(lock, kFollowerIdleRetire, [this] {
      return claimed_ > 0 || pool_stopping_;
    });
    if (claimed_ > 0) {
      --claimed_;  // whoever claimed a follower already took it off idle_
      continue;
    }
    --idle_;
    if (!claimed && ready_.empty() && leader_present_ &&
        idle_ >= options_.workers) {
      // Retire: park this thread's handle for the next one to join.
      --live_;
      std::thread me = std::move(*self);
      threads_.erase(self);
      std::swap(me, retired_);
      lock.unlock();
      if (me.joinable()) me.join();
      return;
    }
  }
  if (--live_ == 0) pool_cv_.notify_all();  // shutdown() waits for this
}

std::shared_ptr<TcpServer::Conn> TcpServer::hand_off(
    std::vector<std::shared_ptr<Conn>>& to_run) {
  std::shared_ptr<Conn> mine;
  int notify = 0;
  {
    std::lock_guard lock(pool_mu_);
    if (recruit_locked(notify)) {
      leader_present_ = false;
      stats_->leader_handoffs.fetch_add(1, std::memory_order_relaxed);
      mine = std::move(to_run.front());
    }
    for (auto& conn : to_run) {
      if (conn != nullptr) queue_locked(std::move(conn), notify);
    }
  }
  for (int i = 0; i < notify; ++i) pool_cv_.notify_one();
  to_run.clear();
  return mine;
}

void TcpServer::queue_locked(std::shared_ptr<Conn> conn, int& notify) {
  ready_.push_back(std::move(conn));
  AtomicStats::bump_max(stats_->worker_queue_depth_max, ready_.size());
  recruit_locked(notify);
}

void TcpServer::schedule(const std::shared_ptr<Conn>& conn) {
  int notify = 0;
  {
    std::lock_guard lock(pool_mu_);
    queue_locked(conn, notify);
  }
  if (notify > 0) pool_cv_.notify_one();
}

// --- leader ---------------------------------------------------------------

std::shared_ptr<TcpServer::Conn> TcpServer::lead() {
  epoll_event events[128];
  std::vector<std::shared_ptr<Conn>> to_run;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !draining_) {
      start_drain();
    }
    if (draining_) {
      std::lock_guard lock(conns_mu_);
      if (conns_.empty()) break;
    }
    int n = ::epoll_wait(epoll_fd_, events, 128, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      IW_LOG(kWarn) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    stats_->epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t buf;
        while (::read(wake_fd_, &buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (fd == timer_fd_) {
        uint64_t expirations;
        while (::read(timer_fd_, &expirations, sizeof expirations) > 0) {
        }
        resume_listener();
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining_) handle_accept();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard lock(conns_mu_);
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // retired earlier in this batch
        conn = it->second;
      }
      if (events[i].events & EPOLLOUT) flush(conn);
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) &&
          handle_readable(conn)) {
        to_run.push_back(std::move(conn));
      }
    }
    // Retire connections whose teardown other threads requested. Only the
    // leader touches epoll registration and closes fds, and it hands off
    // only between batches, so a stale epoll event can never race a
    // descriptor being reused.
    std::vector<std::shared_ptr<Conn>> retire_now;
    {
      std::lock_guard lock(retire_mu_);
      retire_now.swap(retire_queue_);
    }
    for (auto& conn : retire_now) retire(conn);

    if (!to_run.empty()) {
      if (std::shared_ptr<Conn> mine = hand_off(to_run)) return mine;
    }
  }
  {
    std::lock_guard lock(pool_mu_);
    pool_stopping_ = true;
    leader_present_ = false;
  }
  pool_cv_.notify_all();
  return nullptr;
}

void TcpServer::start_drain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Conn>> all;
  {
    std::lock_guard lock(conns_mu_);
    for (auto& [_, c] : conns_) all.push_back(c);
  }
  // Shut every socket down before waiting on any teardown: a thread can
  // be blocked in the core waiting for a writer lock that only drops when
  // the holder's connection disconnects.
  for (auto& conn : all) {
    std::lock_guard lock(conn->mu);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void TcpServer::pause_listener() {
  if (listener_paused_ || listen_fd_ < 0) return;
  listener_paused_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  itimerspec spec{};
  spec.it_value.tv_sec = options_.accept_backoff_ms / 1000;
  spec.it_value.tv_nsec =
      static_cast<long>(options_.accept_backoff_ms % 1000) * 1'000'000L;
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1'000'000L;
  }
  ::timerfd_settime(timer_fd_, 0, &spec, nullptr);
  stats_->accept_backoffs.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::resume_listener() {
  if (!listener_paused_ || listen_fd_ < 0) return;
  listener_paused_ = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
}

void TcpServer::handle_accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors: pause the listener and retry on a timer
        // instead of spinning on a failure that cannot clear instantly.
        IW_LOG(kWarn) << "accept: " << std::strerror(errno)
                      << "; backing off " << options_.accept_backoff_ms
                      << "ms";
        pause_listener();
        return;
      }
      if (errno == ECONNABORTED || errno == EPROTO) continue;
      IW_LOG(kWarn) << "accept: " << std::strerror(errno);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->session = g_next_reactor_session.fetch_add(1);
    {
      std::lock_guard lock(conns_mu_);
      conns_.emplace(fd, conn);
    }
    stats_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    core_.on_connect(conn->session, [this, conn](const Frame& frame) {
      enqueue_frame(conn, frame);
      flush(conn);
    });
    epoll_event ev{};
    // Edge-triggered: one wakeup per readiness *transition*, not one per
    // epoll_wait while data sits buffered. handle_readable must therefore
    // drain to EAGAIN, and every MOD below keeps EPOLLET set (a MOD also
    // re-arms the edge, redelivering an event if the fd is still ready).
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void TcpServer::decode_frames(Conn& conn, std::vector<Frame>& decoded) {
  // Every complete frame goes; a partial tail stays (a header may end
  // mid-varint: it waits for the next read like a payload), unless it is
  // the start of a large frame.
  std::vector<uint8_t>& buf = conn.rdbuf;
  size_t off = 0;
  for (;;) {
    const std::span<const uint8_t> rest{buf.data() + off, buf.size() - off};
    Frame frame;
    if (const size_t used = decode_frame(rest, &frame)) {
      decoded.push_back(std::move(frame));
      off += used;
      continue;
    }
    FrameHeader h;
    if (decode_frame_header(rest.data(), rest.size(), &h) &&
        h.payload_size > kReadChunk) {
      conn.large.type = h.type;
      conn.large.request_id = h.request_id;
      conn.large_size = h.payload_size;
      conn.large_have = rest.size() - h.size;
      reserve_large(conn, rest.size());
      std::copy(rest.begin() + static_cast<ptrdiff_t>(h.size), rest.end(),
                conn.large.payload.begin());
      off = buf.size();
    }
    break;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
}

void TcpServer::reserve_large(Conn& conn, size_t received) {
  const size_t size = std::min(conn.large_size, kRecvGrowth * received);
  conn.large.payload.reserve(size);
  conn.large.payload.resize(size);
  AtomicStats::bump_max(stats_->recv_reserved_max,
                        conn.large.payload.capacity());
}

bool TcpServer::handle_readable(const std::shared_ptr<Conn>& conn) {
  // The leader is the only reader and the only closer, so the fd can be
  // used lock-free here; retire() only runs on the leader.
  const int fd = conn->fd;
  if (fd < 0) return false;
  bool eof = false;
  bool rearm = false;
  std::vector<Frame> decoded;
  uint8_t chunk[kReadChunk];
  // Edge-triggered read: drain until EAGAIN — the kernel will not repeat
  // this event while data sits buffered. A chunk budget keeps one firehose
  // connection from starving the rest of the loop; on exhaustion the MOD
  // below re-arms the edge so epoll redelivers immediately.
  int budget = 16;
  while (!eof) {
    uint8_t* to = chunk;
    size_t room = sizeof chunk;
    if (conn->large_size != 0) {
      if (conn->large_have == conn->large.payload.size()) {
        reserve_large(*conn, conn->large_have);
      }
      to = conn->large.payload.data() + conn->large_have;
      room = conn->large.payload.size() - conn->large_have;
    }
    ssize_t r = ::recv(fd, to, room, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof = true;  // ECONNRESET and friends: same teardown as EOF
      break;
    }
    stats_->recv_calls.fetch_add(1, std::memory_order_relaxed);
    if (r == 0) {
      eof = true;
      break;
    }
    if (to != chunk) {
      conn->large_have += static_cast<size_t>(r);
      if (conn->large_have == conn->large_size) {
        decoded.push_back(std::exchange(conn->large, Frame{}));
        conn->large_size = conn->large_have = 0;
      }
    } else {
      conn->rdbuf.insert(conn->rdbuf.end(), chunk, chunk + r);
      try {
        decode_frames(*conn, decoded);
      } catch (const Error& e) {
        IW_LOG(kDebug) << "protocol error from session " << conn->session
                       << ": " << e.what();
        eof = true;  // poisoned stream: tear the connection down
      }
    }
    if (--budget == 0) {
      rearm = true;
      break;
    }
  }
  if (rearm && !eof) {
    std::lock_guard lock(conn->mu);
    if (conn->fd >= 0 && !conn->eof) {
      epoll_event ev{};
      ev.events = (conn->read_paused ? 0u : EPOLLIN) |
                  (conn->want_epollout ? EPOLLOUT : 0u) | EPOLLET;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    }
  }

  if (!decoded.empty()) {
    stats_->frames_received.fetch_add(decoded.size(),
                                      std::memory_order_relaxed);
  }
  if (decoded.empty() && !eof) return false;

  bool need_schedule = false;
  {
    std::lock_guard lock(conn->mu);
    for (auto& f : decoded) conn->inbox.push_back(std::move(f));
    if (eof) conn->eof = true;
    if (!conn->scheduled) {
      conn->scheduled = true;
      need_schedule = true;
    }
  }
  if (eof && fd >= 0) {
    // Stop watching a half-closed socket; writes may still proceed.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  return need_schedule;
}

void TcpServer::request_retire(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard lock(retire_mu_);
    retire_queue_.push_back(conn);
  }
  wake_leader();
}

void TcpServer::retire(const std::shared_ptr<Conn>& conn) {
  int fd;
  {
    std::lock_guard lock(conn->mu);
    fd = conn->fd;
    conn->fd = -1;
    conn->outbox.clear();
    conn->out_bytes = 0;
  }
  if (fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    std::lock_guard lock(conns_mu_);
    conns_.erase(fd);
  }
  stats_->connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::process(const std::shared_ptr<Conn>& conn, bool reader) {
  // The frames in the inbox now are the ones a reader decoded itself;
  // frames the next leader adds meanwhile are not.
  size_t read_here = 0;
  if (reader) {
    std::lock_guard lock(conn->mu);
    read_here = conn->inbox.size();
  }
  for (;;) {
    Frame request;
    bool run_disconnect = false;
    {
      std::lock_guard lock(conn->mu);
      if (conn->inbox.empty() || conn->dead) {
        conn->inbox.clear();
        if ((conn->eof || conn->dead) && !conn->disconnected) {
          conn->disconnected = true;
          run_disconnect = true;
        } else {
          conn->scheduled = false;
          return;
        }
      } else {
        request = std::move(conn->inbox.front());
        conn->inbox.pop_front();
      }
    }
    if (run_disconnect) {
      flush(conn);  // last chance for already-queued responses
      core_.on_disconnect(conn->session);
      request_retire(conn);
      std::lock_guard lock(conn->mu);
      conn->scheduled = false;
      return;
    }
    // An AcquireWrite can block for a long time on a contended writer
    // lock; push completed responses out first so the old transport's
    // response-before-next-request ordering is preserved where it can be
    // observed.
    bool flush_now = request.type == MsgType::kAcquireWrite;
    if (flush_now) flush(conn);
    Frame response;
    try {
      response = core_.handle(conn->session, request);
    } catch (const Error& e) {
      response = make_error_frame(e);
    } catch (const std::exception& e) {
      response = make_error_frame(Error(ErrorCode::kInternal, e.what()));
    }
    response.request_id = request.request_id;
    enqueue_frame(conn, std::move(response));
    if (read_here > 0) {
      --read_here;
      stats_->frames_run_by_reader.fetch_add(1, std::memory_order_relaxed);
    }
    bool inbox_empty;
    size_t out_bytes;
    {
      std::lock_guard lock(conn->mu);
      inbox_empty = conn->inbox.empty();
      out_bytes = conn->out_bytes;
    }
    // Coalesce: while more requests are already decoded, let responses
    // pile up and ride one sendmsg when the burst is drained (or the
    // outbox grows past the flush threshold).
    if (inbox_empty || out_bytes >= kRunFlushBytes) flush(conn);
  }
}

// --- write path -----------------------------------------------------------

void TcpServer::enqueue_frame(const std::shared_ptr<Conn>& conn,
                            const Frame& frame) {
  // Copy up front: notification frames are shared across many sessions.
  Frame copy;
  copy.type = frame.type;
  copy.request_id = frame.request_id;
  copy.payload = frame.payload;
  enqueue_frame(conn, std::move(copy));
}

void TcpServer::enqueue_frame(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  std::lock_guard lock(conn->mu);
  if (conn->fd < 0 || conn->dead) return;  // connection is going away
  Conn::OutFrame out;
  out.header_len = static_cast<uint8_t>(encode_frame_header(
      frame.type, frame.request_id, frame.payload.size(), out.header));
  out.payload = std::move(frame.payload);
  conn->out_bytes += out.wire_size();
  conn->outbox.push_back(std::move(out));
  update_read_interest(conn);
}

/// Recomputes the connection's read interest from its outbox size, with
/// hysteresis. Caller holds conn->mu. Backpressure: a slow reader's outbox
/// crossing the high watermark pauses reads until the flush path drains it
/// below the low watermark.
void TcpServer::update_read_interest(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0 || conn->eof) return;
  bool pause = conn->read_paused
                   ? conn->out_bytes > options_.write_low_watermark
                   : conn->out_bytes >= options_.write_high_watermark;
  if (pause == conn->read_paused) return;
  conn->read_paused = pause;
  if (pause) {
    stats_->backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
  }
  epoll_event ev{};
  // The MOD re-arms the edge: resuming a paused read redelivers an EPOLLIN
  // event if bytes arrived while reads were off.
  ev.events = (conn->read_paused ? 0u : EPOLLIN) |
              (conn->want_epollout ? EPOLLOUT : 0u) | EPOLLET;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServer::flush(const std::shared_ptr<Conn>& conn) {
  bool fatal = false;
  {
    std::lock_guard lock(conn->mu);
    while (!conn->outbox.empty() && conn->fd >= 0) {
      iovec iov[2 * kMaxFramesPerSendmsg];
      size_t niov = 0;
      size_t nframes = 0;
      for (const auto& f : conn->outbox) {
        if (nframes == kMaxFramesPerSendmsg) break;
        size_t skip = nframes == 0 ? conn->out_head_off : 0;
        if (f.header_len > skip) {
          iov[niov].iov_base = const_cast<uint8_t*>(f.header + skip);
          iov[niov].iov_len = f.header_len - skip;
          ++niov;
        }
        size_t pay_skip = skip > f.header_len ? skip - f.header_len : 0;
        if (f.payload.size() > pay_skip) {
          iov[niov].iov_base =
              const_cast<uint8_t*>(f.payload.data() + pay_skip);
          iov[niov].iov_len = f.payload.size() - pay_skip;
          ++niov;
        }
        ++nframes;
      }
      if (niov == 0) {  // fully-sent head (zero-payload edge); pop it
        conn->outbox.pop_front();
        conn->out_head_off = 0;
        continue;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = niov;
      ssize_t w = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!conn->want_epollout) {
            conn->want_epollout = true;
            epoll_event ev{};
            ev.events = (conn->read_paused || conn->eof ? 0u : EPOLLIN) |
                        EPOLLOUT | EPOLLET;
            ev.data.fd = conn->fd;
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
          }
          break;
        }
        // Peer is gone: responses are undeliverable. Tear down through
        // process() so on_disconnect runs exactly once.
        conn->dead = true;
        conn->outbox.clear();
        conn->out_bytes = 0;
        conn->out_head_off = 0;
        fatal = true;
        break;
      }
      stats_->sendmsg_calls.fetch_add(1, std::memory_order_relaxed);
      if (nframes > 1) {
        stats_->frames_batched.fetch_add(nframes, std::memory_order_relaxed);
      }
      size_t rem = static_cast<size_t>(w);
      conn->out_bytes -= rem;
      while (rem > 0 && !conn->outbox.empty()) {
        const auto& head = conn->outbox.front();
        size_t head_left = head.wire_size() - conn->out_head_off;
        if (rem >= head_left) {
          rem -= head_left;
          conn->outbox.pop_front();
          conn->out_head_off = 0;
          stats_->frames_sent.fetch_add(1, std::memory_order_relaxed);
        } else {
          conn->out_head_off += rem;
          rem = 0;
        }
      }
    }
    if (conn->outbox.empty() && conn->want_epollout && conn->fd >= 0) {
      conn->want_epollout = false;
      epoll_event ev{};
      ev.events =
          (conn->read_paused || conn->eof ? 0u : EPOLLIN) | EPOLLET;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    update_read_interest(conn);
    if (fatal && !conn->scheduled) {
      conn->scheduled = true;
    } else {
      fatal = false;
    }
  }
  if (fatal) schedule(conn);
}

}  // namespace iw
