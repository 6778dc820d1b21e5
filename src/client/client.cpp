#include "client/client.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <unordered_set>

#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "wire/payload.hpp"
#include "wire/translate.hpp"

namespace iw::client {

namespace {

constexpr int kPtrIdx = static_cast<int>(PrimitiveKind::kPointer);

bool is_all_digits(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

std::string host_of(const std::string& url) {
  auto slash = url.find('/');
  return slash == std::string::npos ? url : url.substr(0, slash);
}

}  // namespace

/// Translation hooks bound to one client: pointer units swizzle through the
/// client's metadata trees; string units are inline char arrays.
class ClientHooks final : public InlineStringHooks {
 public:
  explicit ClientHooks(Client* client) : client_(client) {}

  std::string swizzle_out(const void* field) override {
    ++client_->stats_.swizzles_out;
    void* addr = client_->read_pointer_field(field);
    return addr == nullptr ? std::string()
                           : client_->ptr_to_mip_locked(addr);
  }

  void swizzle_out_append(const void* field, Buffer& out) override {
    ++client_->stats_.swizzles_out;
    void* addr = client_->read_pointer_field(field);
    if (addr == nullptr) {
      out.append_varint(0);  // null pointer: empty MIP
      return;
    }
    client_->ptr_to_mip_append_locked(addr, out);
  }

  void swizzle_in(std::string_view mip, void* field) override {
    ++client_->stats_.swizzles_in;
    void* addr = mip.empty() ? nullptr : client_->mip_to_ptr_locked(mip);
    client_->write_pointer_field(field, addr);
  }

 private:
  Client* client_;
};

Client::Client(ChannelFactory factory, Options options)
    : options_(std::move(options)),
      registry_(options_.platform.rules, options_.type_options),
      factory_(std::move(factory)) {
  const LayoutRules& rules = options_.platform.rules;
  const LayoutRules native = Platform::native().rules;
  native_pointers_ = rules.size[kPtrIdx] == native.size[kPtrIdx] &&
                     rules.byte_order == native.byte_order;
  // Only the reconnect supervisor says hello, and only sessions that did
  // are granted cached read locks.
  lock_cache_enabled_ = options_.auto_reconnect;
  if (lock_cache_enabled_) {
    revoke_ack_worker_ = std::thread([this] { revoke_ack_loop(); });
  }
}

Client::~Client() {
  // Stop the ack worker first: it holds channel references and issues
  // calls; it must be gone before the channel maps below are torn down.
  // Un-acked revokes are surrendered by the disconnect that follows.
  if (revoke_ack_worker_.joinable()) {
    {
      std::lock_guard cl(lock_cache_mu_);
      revoke_ack_stop_ = true;
    }
    revoke_ack_cv_.notify_all();
    revoke_ack_worker_.join();
  }
  // Channels own receiver threads that call back into note_version() with
  // `this` captured; destroy them (joining those threads) before default
  // member destruction tears down latest_versions_/notify_mu_ underneath a
  // late notification. Each ClientSegment also holds a shared_ptr to its
  // channel, so segments_ must go first or the channels (and their
  // receiver threads) would outlive this clear via those references.
  segments_.clear();
  channels_.clear();
}

// ------------------------------------------------------------------ wiring

std::shared_ptr<ClientChannel> Client::channel_for(const std::string& url) {
  std::string host = host_of(url);
  auto it = channels_.find(host);
  if (it != channels_.end()) return it->second;
  std::shared_ptr<ClientChannel> channel;
  if (options_.auto_reconnect) {
    // The supervisor calls the factory again on every reconnect; an absent
    // host must therefore fail by throwing, not by returning nullptr.
    auto connector = [factory = factory_,
                      host]() -> std::shared_ptr<ClientChannel> {
      auto ch = factory(host);
      if (ch == nullptr) {
        throw Error(ErrorCode::kNotFound, "no server for host '" + host + "'");
      }
      return ch;
    };
    channel = std::make_shared<ReconnectingChannel>(std::move(connector),
                                                    options_.reconnect);
  } else {
    channel = factory_(host);
  }
  if (channel == nullptr) {
    throw Error(ErrorCode::kNotFound, "no server for host '" + host + "'");
  }
  // Weak capture: a shared_ptr would be a reference cycle (the handler
  // lives inside the channel), and a raw pointer could dangle if a late
  // notification raced channel teardown. lock() either pins the channel
  // for the ack or observes it already dying, in which case the disconnect
  // surrenders the cached lock without our help.
  std::weak_ptr<ClientChannel> weak = channel;
  channel->set_notify_handler([this, weak](const Frame& frame) {
    try {
      if (frame.type == MsgType::kNotifyVersion) {
        BufReader r = frame.reader();
        std::string url = r.read_vstring();
        uint32_t version = r.read_varint32();
        note_version(url, version);
      } else if (frame.type == MsgType::kRevokeRead) {
        BufReader r = frame.reader();
        std::string url = r.read_vstring();
        uint32_t gen = r.read_varint32();
        handle_revoke(url, gen, weak);
      }
    } catch (const Error&) {
      // Malformed notification: ignore; polling still keeps us correct.
    }
  });
  channels_.emplace(std::move(host), channel);
  return channel;
}

uint32_t Client::latest_known_version(const std::string& url) const {
  std::lock_guard lock(notify_mu_);
  auto it = latest_versions_.find(url);
  return it == latest_versions_.end() ? 0 : it->second;
}

void Client::note_version(const std::string& url, uint32_t version) {
  // Overwrite rather than max(): notifications are ordered per channel, and
  // a *lower* version is meaningful — it means the server restarted from an
  // older checkpoint and we must resynchronize.
  std::lock_guard lock(notify_mu_);
  latest_versions_[url] = version;
}

void Client::handle_revoke(const std::string& url, uint32_t gen,
                           const std::weak_ptr<ClientChannel>& ch) {
  bool ack_now = false;
  {
    std::lock_guard cl(lock_cache_mu_);
    ++revoke_seq_[url];
    auto it = lock_cache_.find(url);
    if (it == lock_cache_.end() || it->second.active == 0) {
      // Idle (or nothing cached — a duplicate or raced revoke): release
      // immediately. An ack for a lock we no longer hold is harmless; the
      // server ignores acks whose generation doesn't match a pending
      // revocation.
      lock_cache_.erase(url);
      if (std::shared_ptr<ClientChannel> strong = ch.lock()) {
        revoke_ack_queue_.push_back({url, gen, std::move(strong)});
        ack_now = true;
      }
    } else {
      // Readers are inside the critical section: defer the release (and
      // the ack) to the last reader's unlock.
      it->second.revoked = true;
      it->second.revoke_gen = gen;
    }
  }
  if (ack_now) revoke_ack_cv_.notify_one();
}

void Client::revoke_ack_loop() {
  std::unique_lock cl(lock_cache_mu_);
  for (;;) {
    revoke_ack_cv_.wait(cl, [this] {
      return revoke_ack_stop_ || !revoke_ack_queue_.empty();
    });
    if (revoke_ack_stop_) return;
    RevokeAck ack = std::move(revoke_ack_queue_.front());
    revoke_ack_queue_.pop_front();
    cl.unlock();
    try {
      Buffer payload;
      payload.append_vstring(ack.url);
      payload.append_varint(ack.gen);
      ack.channel->call(MsgType::kRevokeAck, std::move(payload));
      revokes_acked_.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error&) {
      // Channel died: the disconnect (or reconnect's new session)
      // surrenders the cached lock server-side without our help.
    }
    // Drop the channel reference outside the lock: if it is the last one,
    // the channel (and its threads) are destroyed here, on a thread that
    // can safely join them.
    ack.channel.reset();
    cl.lock();
  }
}

void Client::forget_cached_lock(const std::string& url) {
  std::lock_guard cl(lock_cache_mu_);
  lock_cache_.erase(url);
}

// ---------------------------------------------------------------- segments

ClientSegment* Client::open_segment(const std::string& url, bool create) {
  std::lock_guard lock(mu_);
  return segment_for_url_locked(url, create);
}

ClientSegment* Client::segment_for_url_locked(const std::string& url,
                                              bool create) {
  if (url.find('#') != std::string::npos) {
    throw Error(ErrorCode::kInvalidArgument, "segment URL contains '#'");
  }
  auto it = segments_.find(url);
  if (it != segments_.end()) return it->second.get();

  auto channel = channel_for(url);
  Buffer payload;
  payload.append_lp_string(url);
  payload.append_u8(create ? 1 : 0);
  Frame resp = channel->call(MsgType::kOpenSegment, std::move(payload));
  BufReader r = resp.reader();
  uint32_t server_version = r.read_u32();
  (void)r.read_u32();  // next serial; only meaningful under a write lock

  auto seg = std::unique_ptr<ClientSegment>(
      new ClientSegment(this, url, channel));
  ClientSegment* raw = seg.get();
  raw->channel_epoch_ = channel->session_epoch();
  segments_.emplace(url, std::move(seg));
  note_version(url, server_version);

  if (options_.subscribe_notifications) {
    Buffer sub;
    sub.append_lp_string(url);
    channel->call(MsgType::kSubscribe, std::move(sub));
  }
  return raw;
}

ClientSegment* Client::reserve_remote_segment_locked(const std::string& url) {
  auto channel = channel_for(url);
  Buffer payload;
  payload.append_lp_string(url);
  Frame resp = channel->call(MsgType::kSegmentInfo, std::move(payload));
  BufReader r = resp.reader();
  uint32_t server_version = r.read_u32();

  auto seg = std::unique_ptr<ClientSegment>(
      new ClientSegment(this, url, channel));
  ClientSegment* raw = seg.get();
  raw->channel_epoch_ = channel->session_epoch();
  segments_.emplace(url, std::move(seg));
  note_version(url, server_version);

  uint32_t n_types = r.read_u32();
  for (uint32_t serial = 1; serial <= n_types; ++serial) {
    uint32_t len = r.read_u32();
    auto graph = r.read_bytes(len);
    BufReader gr(graph.data(), graph.size());
    raw->types_.push_back(TypeCodec::decode_graph(gr, registry_));
  }
  uint32_t n_blocks = r.read_u32();
  for (uint32_t i = 0; i < n_blocks; ++i) {
    uint32_t serial = r.read_u32();
    uint32_t type_serial = r.read_u32();
    std::string name = r.read_lp_string();
    const std::string* name_ptr = nullptr;
    if (!name.empty()) {
      raw->name_arena_.push_back(std::move(name));
      name_ptr = &raw->name_arena_.back();
    }
    raw->heap_.allocate(type_by_serial(raw, type_serial), serial, name_ptr);
  }
  // Data was not fetched: the copy stays at version 0, so the first lock
  // acquisition pulls everything (and reconciles the directory).
  if (options_.subscribe_notifications) {
    Buffer sub;
    sub.append_lp_string(url);
    channel->call(MsgType::kSubscribe, std::move(sub));
  }
  return raw;
}

void Client::close_segment(ClientSegment* segment) {
  std::lock_guard lock(mu_);
  if (segment->write_locked_ || segment->read_locks_ > 0) {
    throw Error(ErrorCode::kState, "close_segment with locks held");
  }
  mip_cache_seg_ = nullptr;
  mip_cache_block_ = nullptr;
  // Tell the server to forget this session's segment state (in particular
  // which type definitions it has been sent); ignore transport failures —
  // the local drop must succeed regardless.
  try {
    Buffer payload;
    payload.append_lp_string(segment->url_);
    segment->channel_->call(MsgType::kCloseSegment, std::move(payload));
  } catch (const Error&) {
  }
  // kCloseSegment dropped our per-segment server state, cached lock
  // included.
  forget_cached_lock(segment->url_);
  // The heap destructor unregisters every subsegment and unmaps its pages.
  segments_.erase(segment->url_);
}

void Client::set_coherence(ClientSegment* segment, CoherencePolicy policy) {
  std::lock_guard lock(mu_);
  segment->policy_ = policy;
}

const TypeDescriptor* Client::type_by_serial(ClientSegment* seg,
                                             uint32_t serial) const {
  if (serial == 0 || serial > seg->types_.size() ||
      seg->types_[serial - 1] == nullptr) {
    throw Error(ErrorCode::kProtocol,
                "unknown type serial " + std::to_string(serial));
  }
  return seg->types_[serial - 1];
}

uint32_t Client::ensure_type_registered_locked(ClientSegment* seg,
                                               const TypeDescriptor* type) {
  auto it = seg->type_serials_.find(type);
  if (it != seg->type_serials_.end()) return it->second;

  Buffer payload;
  payload.append_lp_string(seg->url_);
  TypeCodec::encode_graph(type, payload);
  Frame resp = seg->channel_->call(MsgType::kRegisterType, std::move(payload));
  BufReader r = resp.reader();
  uint32_t serial = r.read_u32();

  if (seg->types_.size() < serial) seg->types_.resize(serial, nullptr);
  if (seg->types_[serial - 1] == nullptr) seg->types_[serial - 1] = type;
  seg->type_serials_.emplace(type, serial);
  return serial;
}

// --------------------------------------------------------- pointer fields

void* Client::read_pointer_field(const void* field) const {
  const LayoutRules& rules = options_.platform.rules;
  const uint32_t size = rules.size[kPtrIdx];
  if (native_pointers_) {
    void* addr;
    std::memcpy(&addr, field, sizeof addr);
    return addr;
  }
  uint64_t token = 0;
  const auto* p = static_cast<const uint8_t*>(field);
  if (rules.byte_order == ByteOrder::kBig) {
    for (uint32_t i = 0; i < size; ++i) token = (token << 8) | p[i];
  } else {
    for (uint32_t i = size; i > 0; --i) token = (token << 8) | p[i - 1];
  }
  if (token == 0) return nullptr;
  if (token > ptr_tokens_.size()) {
    throw Error(ErrorCode::kInternal, "dangling pointer token");
  }
  return ptr_tokens_[token - 1];
}

void Client::write_pointer_field(void* field, void* addr) {
  const LayoutRules& rules = options_.platform.rules;
  const uint32_t size = rules.size[kPtrIdx];
  if (native_pointers_) {
    std::memcpy(field, &addr, sizeof addr);
    return;
  }
  uint64_t token = 0;
  if (addr != nullptr) {
    auto it = token_by_ptr_.find(addr);
    if (it != token_by_ptr_.end()) {
      token = it->second;
    } else {
      ptr_tokens_.push_back(addr);
      token = ptr_tokens_.size();
      token_by_ptr_.emplace(addr, static_cast<uint32_t>(token));
    }
  }
  auto* p = static_cast<uint8_t*>(field);
  uint64_t v = token;
  if (rules.byte_order == ByteOrder::kBig) {
    for (uint32_t i = size; i > 0; --i) {
      p[i - 1] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  } else {
    for (uint32_t i = 0; i < size; ++i) {
      p[i] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  }
}

// ------------------------------------------------------------------- MIPs

std::string Client::ptr_to_mip(const void* ptr) {
  std::lock_guard lock(mu_);
  return ptr == nullptr ? std::string() : ptr_to_mip_locked(ptr);
}

void* Client::mip_to_ptr(const std::string& mip) {
  std::lock_guard lock(mu_);
  return mip.empty() ? nullptr : mip_to_ptr_locked(mip);
}

BlockHeader* Client::resolve_ptr_locked(const void* ptr) {
  // Last-block cache (§3.3 flavour): consecutive swizzles usually target
  // the same block (arrays of pointers into one structure).
  BlockHeader* block = mip_cache_block_;
  if (block != nullptr) {
    const auto* a = static_cast<const uint8_t*>(ptr);
    if (a < block->data() || a >= block->data() + block->data_size) {
      block = nullptr;
    }
  }
  if (block == nullptr) {
    Subsegment* subseg = FaultRegistry::instance().find(ptr);
    if (subseg == nullptr || subseg->segment->client_ != this) {
      throw Error(ErrorCode::kInvalidArgument,
                  "pointer is not into a segment of this client");
    }
    block = subseg->blocks_by_addr.floor(reinterpret_cast<uintptr_t>(ptr));
    if (block != nullptr) {
      const auto* a = static_cast<const uint8_t*>(ptr);
      if (a < block->data() || a >= block->data() + block->data_size) {
        block = nullptr;
      }
    }
    if (block == nullptr) {
      throw Error(ErrorCode::kInvalidArgument,
                  "pointer into segment metadata or free space");
    }
    mip_cache_block_ = block;
  }
  return block;
}

/// Formats "<url>#<block>#<unit>" for `ptr` into `out` (varint length
/// first).
void Client::ptr_to_mip_append_locked(const void* ptr, Buffer& out) {
  BlockHeader* block = resolve_ptr_locked(ptr);
  uint32_t byte_off =
      static_cast<uint32_t>(static_cast<const uint8_t*>(ptr) - block->data());
  uint64_t unit = block->type->unit_at_local_offset(byte_off).unit_index;
  const std::string& url = block->subseg->segment->url_;
  const std::string* name = block->name;

  // Format the "#<serial>#<unit>" tail (or "#" + name + "#<unit>") first,
  // so the length prefix is known before any byte is appended.
  char digits[2 * 20 + 3];
  char* d = digits;
  *d++ = '#';
  if (name == nullptr) {
    d = std::to_chars(d, digits + sizeof digits, block->serial).ptr;
  }
  char* unit_start = d;
  *d++ = '#';
  d = std::to_chars(d, digits + sizeof digits, unit).ptr;
  const size_t name_len = name != nullptr ? name->size() : 0;
  out.append_varint(url.size() + name_len + static_cast<size_t>(d - digits));
  out.append(url.data(), url.size());
  if (name != nullptr) {
    out.append(digits, 1);
    out.append(name->data(), name->size());
    out.append(unit_start, static_cast<size_t>(d - unit_start));
  } else {
    out.append(digits, static_cast<size_t>(d - digits));
  }
}

std::string Client::ptr_to_mip_locked(const void* ptr) {
  Buffer tmp;
  ptr_to_mip_append_locked(ptr, tmp);
  BufReader r(tmp.span());
  return r.read_vstring();
}

void* Client::mip_to_ptr_locked(std::string_view mip) {
  auto fail = [&] [[noreturn]] {
    throw Error(ErrorCode::kInvalidArgument,
                "malformed MIP: " + std::string(mip));
  };
  auto p2 = mip.rfind('#');
  if (p2 == std::string_view::npos || p2 == 0) fail();
  auto p1 = mip.rfind('#', p2 - 1);
  if (p1 == std::string_view::npos) fail();
  std::string_view url_view = mip.substr(0, p1);
  std::string_view block_ref = mip.substr(p1 + 1, p2 - p1 - 1);
  std::string_view unit_str = mip.substr(p2 + 1);
  if (block_ref.empty()) fail();
  uint64_t unit = 0;
  if (!unit_str.empty()) {
    auto [end, ec] =
        std::from_chars(unit_str.data(), unit_str.data() + unit_str.size(), unit);
    if (ec != std::errc() || end != unit_str.data() + unit_str.size()) fail();
  }

  ClientSegment* seg;
  if (mip_cache_seg_ != nullptr && mip_cache_seg_->url_ == url_view) {
    seg = mip_cache_seg_;  // consecutive MIPs usually share a segment
  } else {
    std::string url(url_view);
    auto it = segments_.find(url);
    if (it != segments_.end()) {
      seg = it->second.get();
    } else {
      // Reserve address space for the not-yet-cached segment (§2.1: space
      // is reserved; data arrives when the segment is locked).
      seg = reserve_remote_segment_locked(url);
    }
    mip_cache_seg_ = seg;
  }

  BlockHeader* block;
  uint32_t serial = 0;
  auto [end, ec] = std::from_chars(
      block_ref.data(), block_ref.data() + block_ref.size(), serial);
  if (ec == std::errc() && end == block_ref.data() + block_ref.size()) {
    block = seg->heap_.find_by_serial(serial);
  } else {
    block = seg->heap_.find_by_name(std::string(block_ref));
  }
  if (block == nullptr) {
    throw Error(ErrorCode::kNotFound, "MIP block '" + std::string(block_ref) +
                                          "' in " + std::string(url_view));
  }
  if (unit >= block->type->prim_units()) {
    throw Error(ErrorCode::kInvalidArgument, "MIP offset out of range");
  }
  PrimLocation loc = block->type->locate_prim(unit);
  return block->data() + loc.local_offset;
}

// ------------------------------------------------------------- allocation

void* Client::malloc_block(ClientSegment* seg, const TypeDescriptor* type,
                           const std::string& name) {
  std::lock_guard lock(mu_);
  if (!seg->write_locked_) {
    throw Error(ErrorCode::kState, "IW_malloc requires the write lock");
  }
  if (!name.empty() && is_all_digits(name)) {
    throw Error(ErrorCode::kInvalidArgument,
                "block names must not be all digits");
  }
  uint32_t type_serial = ensure_type_registered_locked(seg, type);
  (void)type_serial;  // re-fetched at collect time from type_serials_

  const std::string* name_ptr = nullptr;
  if (!name.empty()) {
    seg->name_arena_.push_back(name);
    name_ptr = &seg->name_arena_.back();
  }
  uint32_t serial = seg->next_serial_++;
  BlockHeader* block = seg->heap_.allocate(type, serial, name_ptr);
  block->created_this_cs = true;
  seg->new_blocks_.push_back(block);
  return block->data();
}

void Client::free_block(ClientSegment* seg, void* data) {
  std::lock_guard lock(mu_);
  if (!seg->write_locked_) {
    throw Error(ErrorCode::kState, "IW_free requires the write lock");
  }
  BlockHeader* block = seg->heap_.find_by_address(data);
  if (block == nullptr || block->data() != data) {
    throw Error(ErrorCode::kInvalidArgument, "IW_free of non-block address");
  }
  mip_cache_block_ = nullptr;
  if (block->created_this_cs) {
    auto& nb = seg->new_blocks_;
    nb.erase(std::remove(nb.begin(), nb.end(), block), nb.end());
    seg->heap_.release(block);
  } else if (seg->in_transaction_) {
    // Deferred: keep the storage intact so abort can resurrect the block.
    seg->heap_.unlink(block);
    seg->deferred_frees_.push_back(block);
  } else {
    seg->freed_serials_.push_back(block->serial);
    seg->heap_.release(block);
  }
}

// ------------------------------------------------------------------ locks

void Client::revalidate_if_reconnected_locked(ClientSegment* seg) {
  uint64_t epoch = seg->channel_->session_epoch();
  if (epoch == seg->channel_epoch_) return;
  seg->channel_epoch_ = epoch;
  // The server-side session died with the old connection: its subscription
  // and sent-type prefix are gone (the server tolerantly resends type
  // definitions), and any notifications sent while we were dark were lost —
  // so notification-derived freshness is void until the next round trip.
  // The cached read lock died with the session too (on_disconnect dropped
  // it), and any revoke sent while we were dark was lost with it.
  seg->needs_revalidation_ = true;
  forget_cached_lock(seg->url_);
  {
    std::lock_guard nl(notify_mu_);
    latest_versions_.erase(seg->url_);
  }
  if (options_.subscribe_notifications) {
    Buffer sub;
    sub.append_lp_string(seg->url_);
    seg->channel_->call(MsgType::kSubscribe, std::move(sub));
  }
}

void Client::recover_failed_release_locked(ClientSegment* seg) {
  end_tracking_locked(seg);
  // The blocks created this critical section may or may not exist on the
  // server, and — if the writer lock was reclaimed — their serials may
  // since have been handed to a *different* writer's blocks. Discard them
  // locally: the from-0 resync below recreates whatever the server actually
  // committed, under the committed name, without colliding on serial.
  for (BlockHeader* block : seg->new_blocks_) {
    seg->heap_.release(block);
  }
  seg->write_locked_ = false;
  seg->in_transaction_ = false;
  seg->new_blocks_.clear();
  seg->freed_serials_.clear();
  seg->deferred_frees_.clear();
  seg->version_ = 0;  // next lock pulls a full sync and sweeps dead blocks
  seg->needs_revalidation_ = true;
  mip_cache_block_ = nullptr;
  forget_cached_lock(seg->url_);
  std::lock_guard nl(notify_mu_);
  latest_versions_.erase(seg->url_);
}

bool Client::read_needs_server_locked(ClientSegment* seg) const {
  if (seg->needs_revalidation_) return true;
  if (seg->version_ == 0) return true;  // never fetched
  const CoherencePolicy& policy = seg->policy_;
  const bool have_notifications = options_.subscribe_notifications;
  switch (policy.model) {
    case CoherenceModel::kFull:
      // Conservative: notifications may lag on asynchronous transports.
      return true;
    case CoherenceModel::kDelta: {
      if (!have_notifications) return true;
      uint32_t latest = latest_known_version(seg->url_);
      if (latest < seg->version_) return true;  // server regressed: resync
      return latest - seg->version_ > policy.param;
    }
    case CoherenceModel::kTemporal: {
      int64_t age_ns = monotonic_ns() - seg->last_update_ns_;
      return age_ns > static_cast<int64_t>(policy.param) * 1'000'000;
    }
    case CoherenceModel::kDiff: {
      if (!have_notifications) return true;
      // Only the server knows the modified fraction; ask unless we know we
      // are exactly current.
      return latest_known_version(seg->url_) != seg->version_;
    }
  }
  return true;
}

void Client::read_lock(ClientSegment* seg) {
  std::lock_guard lock(mu_);
  if (seg->read_locks_ > 0 || seg->write_locked_) {
    ++seg->read_locks_;  // nested; already coherent
    if (lock_cache_enabled_) {
      // Sub-let: another local thread enters under the lock (cached or
      // live) the first one brought in — no server involvement.
      std::lock_guard cl(lock_cache_mu_);
      auto it = lock_cache_.find(seg->url_);
      if (it != lock_cache_.end() && it->second.active > 0) {
        ++it->second.active;
        sublet_grants_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return;
  }
  revalidate_if_reconnected_locked(seg);
  uint64_t revokes_before = 0;
  if (lock_cache_enabled_) {
    std::lock_guard cl(lock_cache_mu_);
    revokes_before = revoke_seq_[seg->url_];
    auto it = lock_cache_.find(seg->url_);
    // A cached, unrevoked lock makes the repeat acquire free. Under Full
    // coherence the cached data is provably current — a committing writer
    // would have had to revoke us first — so the coherence predicate is
    // implied; other models still consult read_needs_server_locked.
    if (it != lock_cache_.end() && it->second.cached && !it->second.revoked &&
        (seg->policy_.model == CoherenceModel::kFull ||
         !read_needs_server_locked(seg))) {
      ++it->second.active;
      lock_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      ++stats_.read_lock_local_hits;
      ++seg->read_locks_;
      return;
    }
  }
  if (!read_needs_server_locked(seg)) {
    ++stats_.read_lock_local_hits;
    ++seg->read_locks_;
    return;
  }
  if (lock_cache_enabled_) {
    lock_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  ++stats_.read_lock_server_calls;
  Buffer payload;
  payload.append_vstring(seg->url_);
  payload.append_varint(seg->version_);
  payload.append_u8(static_cast<uint8_t>(seg->policy_.model));
  payload.append_varint(seg->policy_.param);
  Frame resp = seg->channel_->call(MsgType::kAcquireRead, std::move(payload));
  BufReader r = resp.reader();
  apply_update_locked(seg, r);
  // Grant byte: the server registered us as a cached holder — or refused,
  // implicitly surrendering any stale registration. It never grants a
  // session that did not say hello.
  const bool granted = r.read_u8() != 0;
  if (lock_cache_enabled_) {
    std::lock_guard cl(lock_cache_mu_);
    // A revoke received while the RPC was in flight may have retired this
    // very grant (it was acked at once, with no entry to defer on): a
    // cached copy would then serve reads no writer ever revokes.
    if (granted && revoke_seq_[seg->url_] == revokes_before) {
      lock_cache_[seg->url_] = LockCacheEntry{true, false, 1};
    } else {
      lock_cache_.erase(seg->url_);
    }
  }
  seg->needs_revalidation_ = false;
  seg->last_update_ns_ = monotonic_ns();
  note_version(seg->url_, seg->version_);
  ++seg->read_locks_;
}

void Client::read_unlock(ClientSegment* seg) {
  std::lock_guard lock(mu_);
  if (seg->read_locks_ == 0) {
    throw Error(ErrorCode::kState, "read unlock without read lock");
  }
  --seg->read_locks_;
  if (!lock_cache_enabled_) return;
  bool ack = false;
  {
    std::lock_guard cl(lock_cache_mu_);
    auto it = lock_cache_.find(seg->url_);
    if (it == lock_cache_.end()) return;
    if (it->second.active > 0) --it->second.active;
    if (it->second.revoked && it->second.active == 0) {
      // Deferred revoke: the last local reader just left the critical
      // section, so honour it now (the worker sends the ack — the waiting
      // writer is unblocked by it, not by this thread).
      uint32_t gen = it->second.revoke_gen;
      lock_cache_.erase(it);
      revoke_ack_queue_.push_back({seg->url_, gen, seg->channel_});
      ack = true;
    }
  }
  if (ack) revoke_ack_cv_.notify_one();
}

void Client::write_lock(ClientSegment* seg) {
  std::lock_guard lock(mu_);
  if (seg->write_locked_) {
    throw Error(ErrorCode::kState, "write lock is not recursive");
  }
  if (seg->read_locks_ > 0) {
    throw Error(ErrorCode::kState, "read-to-write upgrade is not supported");
  }
  revalidate_if_reconnected_locked(seg);
  Buffer payload;
  payload.append_vstring(seg->url_);
  payload.append_varint(seg->version_);
  Frame resp = seg->channel_->call(MsgType::kAcquireWrite, std::move(payload));
  BufReader r = resp.reader();
  seg->next_serial_ = r.read_varint32();
  try {
    apply_update_locked(seg, r);
  } catch (...) {
    // We hold the server-side writer lock; release it with an empty diff so
    // other clients are not wedged by our failure. Every release carries
    // the section envelope, so even the empty diff has its kRaw byte.
    Buffer release;
    release.append_vstring(seg->url_);
    release.append_u8(payload_method::kRaw);
    DiffWriter(release, seg->version_, seg->version_).finish();
    try {
      seg->channel_->call(MsgType::kReleaseWrite, std::move(release));
    } catch (...) {
      // Nothing more we can do; surface the original error.
    }
    throw;
  }
  seg->needs_revalidation_ = false;
  seg->last_update_ns_ = monotonic_ns();
  seg->write_locked_ = true;
  seg->new_blocks_.clear();
  seg->freed_serials_.clear();
  // The write lock subsumes our cached read lock server-side; the cache
  // registration is gone, so the local mirror must go too.
  forget_cached_lock(seg->url_);
  begin_tracking_locked(seg);
}

void Client::write_unlock(ClientSegment* seg) {
  std::lock_guard lock(mu_);
  if (!seg->write_locked_) {
    throw Error(ErrorCode::kState, "write unlock without write lock");
  }
  try {
    collect_and_release_locked(seg);
  } catch (...) {
    // Transport died mid-release (outcome unknown) or the server reclaimed
    // our lease and rejected the release: either way the critical section
    // is over and the cached copy can no longer be trusted.
    recover_failed_release_locked(seg);
    throw;
  }
  end_tracking_locked(seg);
  seg->write_locked_ = false;
  seg->new_blocks_.clear();
  seg->freed_serials_.clear();
  seg->last_update_ns_ = monotonic_ns();
  note_version(seg->url_, seg->version_);
}

void Client::begin_transaction(ClientSegment* seg) {
  write_lock(seg);  // takes mu_ internally; transaction flag set below
  std::lock_guard lock(mu_);
  seg->in_transaction_ = true;
  seg->deferred_frees_.clear();
  // write_lock already began tracking; re-arm it if the mode chosen there
  // cannot roll back (kNoDiff keeps no pre-images).
  if (seg->active_tracking_ == TrackingMode::kNoDiff) {
    seg->active_tracking_ = TrackingMode::kSoftware;
    for (Subsegment* s = seg->heap_.first_subsegment(); s != nullptr;
         s = s->next) {
      twin_all_pages(*s);
    }
  }
}

void Client::commit_transaction(ClientSegment* seg) {
  {
    std::lock_guard lock(mu_);
    if (!seg->in_transaction_) {
      throw Error(ErrorCode::kState, "commit without transaction");
    }
    for (BlockHeader* block : seg->deferred_frees_) {
      seg->freed_serials_.push_back(block->serial);
      seg->heap_.reclaim(block);
    }
    seg->deferred_frees_.clear();
    seg->in_transaction_ = false;
  }
  write_unlock(seg);
}

void Client::abort_transaction(ClientSegment* seg) {
  std::lock_guard lock(mu_);
  if (!seg->in_transaction_) {
    throw Error(ErrorCode::kState, "abort without transaction");
  }
  // 1. Discard blocks created inside the transaction (the server never
  //    heard of them).
  mip_cache_block_ = nullptr;
  for (BlockHeader* block : seg->new_blocks_) {
    seg->heap_.release(block);
  }
  seg->new_blocks_.clear();
  // 2. Resurrect deferred frees so their data is restorable below.
  for (BlockHeader* block : seg->deferred_frees_) {
    seg->heap_.relink(block);
  }
  seg->deferred_frees_.clear();
  // 3. Restore every modified byte of pre-existing blocks from the twins.
  //    (Heap metadata — headers, free chunks — is intentionally *not*
  //    restored; the C++-side structures describing it were never rolled
  //    forward, so the live state is the consistent one.)
  for (Subsegment* s = seg->heap_.first_subsegment(); s != nullptr;
       s = s->next) {
    if (!s->any_twin.load(std::memory_order_acquire)) continue;
    for (size_t page = 0; page < s->page_count(); ++page) {
      const uint8_t* twin = s->twins[page];
      if (twin == nullptr) continue;
      uintptr_t page_lo =
          reinterpret_cast<uintptr_t>(s->base) + page * kPageSize;
      uintptr_t page_hi = page_lo + kPageSize;
      BlockHeader* block = s->blocks_by_addr.floor(page_lo);
      if (block == nullptr) block = s->blocks_by_addr.lower_bound(page_lo);
      for (; block != nullptr; block = s->blocks_by_addr.next(*block)) {
        auto data_lo = reinterpret_cast<uintptr_t>(block->data());
        if (data_lo >= page_hi) break;
        if (block->created_this_cs) continue;  // nothing existed before
        uintptr_t data_hi = data_lo + block->data_size;
        uintptr_t lo = std::max(page_lo, data_lo);
        uintptr_t hi = std::min(page_hi, data_hi);
        if (lo >= hi) continue;
        std::memcpy(reinterpret_cast<void*>(lo), twin + (lo - page_lo),
                    hi - lo);
      }
    }
  }
  // 4. Release the server-side writer lock with an empty critical section.
  Buffer release;
  release.append_vstring(seg->url_);
  release.append_u8(payload_method::kRaw);
  DiffWriter(release, seg->version_, seg->version_).finish();
  Frame resp;
  try {
    resp = seg->channel_->call(MsgType::kReleaseWrite, std::move(release));
  } catch (...) {
    recover_failed_release_locked(seg);
    throw;
  }
  BufReader r = resp.reader();
  seg->version_ = r.read_varint32();

  end_tracking_locked(seg);
  seg->write_locked_ = false;
  seg->in_transaction_ = false;
  seg->freed_serials_.clear();
  seg->last_update_ns_ = monotonic_ns();
}

void Client::begin_tracking_locked(ClientSegment* seg) {
  TrackingMode mode = options_.tracking;
  if (mode == TrackingMode::kAuto) {
    mode = seg->no_diff_active_ ? TrackingMode::kNoDiff
                                : TrackingMode::kVmDiff;
  }
  if (seg->in_transaction_ && mode == TrackingMode::kNoDiff) {
    // Rollback needs pre-images; force twin-based tracking.
    mode = TrackingMode::kSoftware;
  }
  seg->active_tracking_ = mode;
  switch (mode) {
    case TrackingMode::kVmDiff:
      FaultRegistry::ensure_handler_installed();
      for (Subsegment* s = seg->heap_.first_subsegment(); s != nullptr;
           s = s->next) {
        // Pages fully covered by per-block no-diff blocks stay writable:
        // their content travels whole anyway, so faults and twins would be
        // pure overhead.
        bool any_skip = false;
        std::vector<bool> skip;
        if (options_.per_block_no_diff) {
          skip.assign(s->page_count(), false);
          auto base = reinterpret_cast<uintptr_t>(s->base);
          for (BlockHeader* b = s->blocks_by_addr.first(); b != nullptr;
               b = s->blocks_by_addr.next(*b)) {
            if (!b->block_no_diff) continue;
            auto start = reinterpret_cast<uintptr_t>(b);
            auto end = reinterpret_cast<uintptr_t>(b->data()) + b->data_size;
            size_t first = (start - base + kPageSize - 1) / kPageSize;
            size_t last = (end - base) / kPageSize;
            for (size_t p = first; p < last && p < skip.size(); ++p) {
              skip[p] = true;
              any_skip = true;
            }
          }
        }
        if (any_skip) {
          protect_subsegment_except(*s, skip);
        } else {
          protect_subsegment(*s);
        }
      }
      break;
    case TrackingMode::kSoftware:
      for (Subsegment* s = seg->heap_.first_subsegment(); s != nullptr;
           s = s->next) {
        twin_all_pages(*s);
      }
      break;
    default:
      break;
  }
}

void Client::end_tracking_locked(ClientSegment* seg) {
  for (Subsegment* s = seg->heap_.first_subsegment(); s != nullptr;
       s = s->next) {
    if (seg->active_tracking_ == TrackingMode::kVmDiff) {
      unprotect_subsegment(*s);
    }
    drop_all_twins(*s);
  }
}

// ---------------------------------------------------------- diff collection

void Client::collect_and_release_locked(ClientSegment* seg) {
  Stopwatch total;
  ClientHooks hooks(this);
  const LayoutRules& rules = options_.platform.rules;

  // The collect buffer is owned by the segment and reused across lock
  // cycles: clear() keeps the capacity, and the channel hands the
  // allocation back (in-proc) or sends straight from it (TCP vectored
  // send), so steady-state releases allocate nothing for the payload.
  Buffer& payload = seg->collect_buf_;
  payload.clear();
  payload.append_vstring(seg->url_);
  // The diff section sits behind a method byte; the whole section is
  // collected into this reuse buffer first and compressed in place only
  // when it pays, so the vectored-send shape (one contiguous payload
  // straight from collect_buf_) is unchanged.
  const size_t method_offset = payload.size();
  payload.append_u8(payload_method::kRaw);
  DiffWriter writer(payload, seg->version_, seg->version_ + 1);

  for (uint32_t serial : seg->freed_serials_) {
    writer.add_free(serial);
  }

  uint64_t units_sent = 0;
  uint64_t modified_units = 0;  // excludes newly created blocks
  auto emit_whole = [&](BlockHeader* block) {
    uint8_t flags = diff_flags::kWhole;
    uint32_t type_serial = 0;
    std::string_view name;
    if (block->created_this_cs) {
      flags |= diff_flags::kNew;
      type_serial = seg->type_serials_.at(block->type);
      if (block->name != nullptr) name = *block->name;
    }
    uint64_t units = block->type->prim_units();
    std::optional<uint64_t> wire =
        fixed_wire_size(*block->type, rules, 0, units);
    writer.begin_block(block->serial, flags, type_serial, name,
                       wire ? DiffWriter::run_bytes(0, units, *wire) : 0);
    writer.begin_run(0, static_cast<uint32_t>(units));
    encode_units(*block->type, rules, block->data(), 0, units, hooks,
                 writer.buffer());
    writer.end_block();
    units_sent += units;
    if (!block->created_this_cs) modified_units += units;
  };

  const bool no_diff = seg->active_tracking_ == TrackingMode::kNoDiff;
  if (no_diff) {
    ++stats_.no_diff_releases;
    seg->heap_.for_each_block(emit_whole);
  } else {
    ++stats_.diff_releases;
    // New blocks travel whole regardless of twins.
    for (BlockHeader* block : seg->new_blocks_) {
      emit_whole(block);
    }
    // Blocks individually in no-diff mode also travel whole (§3.3); the
    // probe countdown periodically returns them to diffing.
    if (options_.per_block_no_diff) {
      std::vector<BlockHeader*> whole_blocks;
      seg->heap_.for_each_block([&](BlockHeader* block) {
        if (block->block_no_diff && !block->created_this_cs) {
          whole_blocks.push_back(block);
        }
      });
      for (BlockHeader* block : whole_blocks) {
        emit_whole(block);
        ++stats_.block_no_diff_emissions;
        if (block->nodiff_probe > 0 && --block->nodiff_probe == 0) {
          block->block_no_diff = false;
          block->nodiff_streak = 0;
        }
      }
    }

    // Phase 1: word-by-word comparison of dirty pages against their twins,
    // producing subsegment-relative modified byte ranges with run splicing.
    Stopwatch word_timer;
    std::vector<std::pair<Subsegment*, std::vector<ByteRange>>> modified;
    for (Subsegment* s = seg->heap_.first_subsegment(); s != nullptr;
         s = s->next) {
      if (!s->any_twin.load(std::memory_order_acquire)) continue;
      std::vector<ByteRange> ranges;
      for (size_t page = 0; page < s->page_count(); ++page) {
        uint8_t* twin = s->twins[page];
        if (twin == nullptr) continue;
        size_t before = ranges.size();
        diff_words(s->base + page * kPageSize, twin, kPageSize,
                   options_.splice_gap_words, ranges);
        // Rebase page-relative ranges and merge across the page boundary.
        uint32_t base_off = static_cast<uint32_t>(page * kPageSize);
        for (size_t i = before; i < ranges.size(); ++i) {
          ranges[i].begin += base_off;
          ranges[i].end += base_off;
        }
        if (before > 0 && ranges.size() > before &&
            ranges[before - 1].end == ranges[before].begin) {
          ranges[before - 1].end = ranges[before].end;
          ranges.erase(ranges.begin() + static_cast<ptrdiff_t>(before));
        }
      }
      if (!ranges.empty()) modified.emplace_back(s, std::move(ranges));
    }
    stats_.word_diff_ns += word_timer.elapsed_ns();

    // Phase 2: translate modified ranges to per-block wire-format runs.
    Stopwatch translate_timer;
    BlockHeader* open_block = nullptr;
    uint64_t open_block_last_unit = 0;
    uint64_t open_block_units = 0;
    auto update_streak = [&](BlockHeader* block, uint64_t mod_units) {
      if (!options_.per_block_no_diff) return;
      uint64_t total = block->type->prim_units();
      if (total > 0 && static_cast<double>(mod_units) >
                           options_.no_diff_threshold *
                               static_cast<double>(total)) {
        if (block->nodiff_streak < 255) ++block->nodiff_streak;
        if (block->nodiff_streak >= 2) {
          block->block_no_diff = true;
          block->nodiff_probe = static_cast<uint8_t>(
              std::min<uint32_t>(255, options_.no_diff_probe_period));
        }
      } else {
        block->nodiff_streak = 0;
      }
    };
    auto close_block = [&] {
      if (open_block != nullptr) {
        writer.end_block();
        update_streak(open_block, open_block_units);
        open_block = nullptr;
        open_block_units = 0;
      }
    };
    for (auto& [subseg, ranges] : modified) {
      for (const ByteRange& range : ranges) {
        uintptr_t lo = reinterpret_cast<uintptr_t>(subseg->base) + range.begin;
        uintptr_t hi = reinterpret_cast<uintptr_t>(subseg->base) + range.end;
        BlockHeader* block = subseg->blocks_by_addr.floor(lo);
        if (block == nullptr) {
          block = subseg->blocks_by_addr.lower_bound(lo);
        }
        for (; block != nullptr;
             block = subseg->blocks_by_addr.next(*block)) {
          auto data = reinterpret_cast<uintptr_t>(block->data());
          if (data >= hi) break;
          uintptr_t data_end = data + block->data_size;
          uintptr_t clip_lo = std::max(lo, data);
          uintptr_t clip_hi = std::min(hi, data_end);
          if (clip_lo >= clip_hi || block->created_this_cs ||
              block->block_no_diff) {
            continue;
          }

          uint64_t ub = block->type
                            ->unit_at_local_offset(
                                static_cast<uint32_t>(clip_lo - data))
                            .unit_index;
          uint64_t ue = block->type
                            ->unit_at_local_offset(
                                static_cast<uint32_t>(clip_hi - 1 - data))
                            .unit_index +
                        1;
          if (open_block == block && ub < open_block_last_unit) {
            ub = open_block_last_unit;  // padding rounding overlap
          }
          if (ub >= ue) continue;
          if (open_block != block) {
            close_block();
            writer.begin_block(block->serial, 0);
            open_block = block;
          }
          writer.begin_run(static_cast<uint32_t>(ub),
                           static_cast<uint32_t>(ue - ub));
          encode_units(*block->type, rules, block->data(), ub, ue, hooks,
                       writer.buffer());
          open_block_last_unit = ue;
          open_block_units += ue - ub;
          units_sent += ue - ub;
          modified_units += ue - ub;
        }
      }
      close_block();
    }
    close_block();
    stats_.translate_ns += translate_timer.elapsed_ns();
  }

  writer.finish();
  if (compress_section_in_place(payload, method_offset)) {
    ++stats_.diffs_compressed;
  }
  stats_.units_sent += units_sent;
  ++stats_.diffs_collected;
  stats_.collect_ns += total.elapsed_ns();

  Frame resp = seg->channel_->call(MsgType::kReleaseWrite, payload);
  BufReader r = resp.reader();
  seg->version_ = r.read_varint32();

  // The critical section is over; its blocks are ordinary blocks now.
  for (BlockHeader* block : seg->new_blocks_) {
    block->created_this_cs = false;
  }

  // No-diff adaptation (kAuto): switch modes based on the *modified*
  // fraction of this critical section (freshly created blocks always travel
  // whole and say nothing about write density); probe again periodically.
  if (options_.tracking == TrackingMode::kAuto) {
    uint64_t total_units = seg->heap_.total_prim_units();
    if (!no_diff) {
      if (total_units > 0 &&
          static_cast<double>(modified_units) >
              options_.no_diff_threshold * static_cast<double>(total_units)) {
        seg->no_diff_active_ = true;
        seg->no_diff_probe_countdown_ = options_.no_diff_probe_period;
      }
    } else if (seg->no_diff_probe_countdown_ > 0 &&
               --seg->no_diff_probe_countdown_ == 0) {
      seg->no_diff_active_ = false;  // probe diffing next critical section
    }
  }
}

// --------------------------------------------------------- diff application

bool Client::apply_update_locked(ClientSegment* seg, BufReader& in) {
  uint8_t status = in.read_u8();
  if (status == 0) return false;

  uint32_t n_types = in.read_varint32();
  for (uint32_t i = 0; i < n_types; ++i) {
    uint32_t serial = in.read_varint32();
    auto graph = in.read_bytes(in.read_varint32());
    if (serial == 0) throw Error(ErrorCode::kProtocol, "type serial 0");
    if (seg->types_.size() < serial) seg->types_.resize(serial, nullptr);
    if (seg->types_[serial - 1] == nullptr) {
      BufReader gr(graph.data(), graph.size());
      seg->types_[serial - 1] = TypeCodec::decode_graph(gr, registry_);
    }
  }
  // The diff section sits behind the method-byte envelope (kLz is
  // explicitly sized, so the trailing kAcquireRead grant byte still parses
  // from `in` afterwards).
  std::vector<uint8_t> scratch;
  if (read_compressed_section(in, scratch)) {
    BufReader section(scratch.data(), scratch.size());
    apply_diff_locked(seg, section);
  } else {
    apply_diff_locked(seg, in);
  }
  ++stats_.updates_applied;
  return true;
}

void Client::apply_diff_locked(ClientSegment* seg, BufReader& in) {
  Stopwatch timer;
  DiffReader reader(in);
  if (reader.from_version() != 0 && reader.from_version() != seg->version_) {
    throw Error(ErrorCode::kProtocol, "diff base does not match cached copy");
  }
  const bool full_sync = reader.from_version() == 0;
  if (full_sync && seg->version_ != 0) ++stats_.full_resyncs;

  std::vector<DiffEntry> entries;
  entries.reserve(reader.entry_count());
  DiffEntry entry;
  while (reader.next(&entry)) {
    entries.push_back(entry);
  }

  // Pass A: materialize new blocks first so intra-diff pointers (swizzled
  // during pass B) can resolve forward references.
  for (DiffEntry& e : entries) {
    if (!(e.flags & diff_flags::kNew)) continue;
    BlockHeader* existing = seg->heap_.find_by_serial(e.serial);
    if (existing != nullptr) continue;  // reserved earlier via SegmentInfo
    const std::string* name_ptr = nullptr;
    if (!e.name.empty()) {
      seg->name_arena_.push_back(e.name);
      name_ptr = &seg->name_arena_.back();
    }
    seg->heap_.allocate(type_by_serial(seg, e.type_serial), e.serial,
                        name_ptr);
  }

  // Pass B: frees and data, with last-block ("next block in memory")
  // prediction to skip the serial-tree search (§3.3).
  ClientHooks hooks(this);
  const LayoutRules& rules = options_.platform.rules;
  std::unordered_set<uint32_t> mentioned;
  BlockHeader* last_applied = nullptr;
  for (DiffEntry& e : entries) {
    if (e.flags & diff_flags::kFree) {
      BlockHeader* block = seg->heap_.find_by_serial(e.serial);
      if (block != nullptr) {
        if (block == last_applied) last_applied = nullptr;
        mip_cache_block_ = nullptr;
        seg->heap_.release(block);
      }
      continue;
    }
    mentioned.insert(e.serial);
    BlockHeader* block = nullptr;
    if (options_.last_block_prediction && last_applied != nullptr) {
      BlockHeader* candidate = next_block_in_memory(last_applied);
      if (candidate != nullptr && candidate->serial == e.serial) {
        block = candidate;
        ++stats_.prediction_hits;
      }
    }
    if (block == nullptr) {
      ++stats_.prediction_misses;
      block = seg->heap_.find_by_serial(e.serial);
    }
    if (block == nullptr) {
      throw Error(ErrorCode::kProtocol,
                  "diff references unknown block " + std::to_string(e.serial));
    }
    const uint64_t units = block->type->prim_units();
    while (!e.runs.at_end()) {
      DiffRun run = e.read_run();
      if (run.start_unit + static_cast<uint64_t>(run.unit_count) > units) {
        throw Error(ErrorCode::kProtocol, "diff run exceeds block");
      }
      decode_units(*block->type, rules, block->data(), run.start_unit,
                   run.start_unit + run.unit_count, hooks, e.runs);
    }
    last_applied = block;
  }

  if (full_sync) {
    // The from-0 diff enumerates every live block; reserved blocks that
    // were freed on the server in the meantime are swept here.
    std::vector<BlockHeader*> dead;
    seg->heap_.for_each_block([&](BlockHeader* b) {
      if (!mentioned.count(b->serial)) dead.push_back(b);
    });
    if (!dead.empty()) mip_cache_block_ = nullptr;
    for (BlockHeader* b : dead) seg->heap_.release(b);
  }

  seg->version_ = reader.to_version();
  stats_.apply_ns += timer.elapsed_ns();
}

BlockHeader* Client::next_block_in_memory(BlockHeader* block) const {
  Subsegment* subseg = block->subseg;
  BlockHeader* next = subseg->blocks_by_addr.next(*block);
  while (next == nullptr) {
    subseg = subseg->next;
    if (subseg == nullptr) return nullptr;
    next = subseg->blocks_by_addr.first();
  }
  return next;
}

uint64_t Client::bytes_sent() const {
  std::lock_guard lock(mu_);
  uint64_t total = 0;
  for (const auto& [host, channel] : channels_) total += channel->bytes_sent();
  return total;
}

uint64_t Client::bytes_received() const {
  std::lock_guard lock(mu_);
  uint64_t total = 0;
  for (const auto& [host, channel] : channels_) {
    total += channel->bytes_received();
  }
  return total;
}

}  // namespace iw::client
