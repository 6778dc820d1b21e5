#include "server/server.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "util/endian.hpp"
#include "util/fsync.hpp"
#include "util/logging.hpp"
#include "wire/payload.hpp"

namespace iw::server {

namespace {

// A full checkpoint (.iwseg) starts with a magic "IWS" + one format byte.
// Format 3 ("IWS3") stores pointer fields inline as (serial, unit); format
// 2 files carry "IWSE". Any "IWS" file in another format is refused.
constexpr uint32_t kCheckpointMagic = 0x49575333;  // "IWS3"
constexpr uint32_t kCheckpointMagicFamily = 0x49575300;

/// Segment names become file names; escape path separators.
std::string encode_file_name(const std::string& name, const char* extension) {
  std::string out;
  for (char c : name) {
    if (c == '/' || c == '%' || c == '\\') {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + extension;
}

/// Inverse of encode_file_name on the stem (file name minus extension), so
/// recovery can learn a segment's name from an orphan journal whose
/// checkpoint is missing or quarantined.
std::string decode_file_name(const std::string& stem) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  for (size_t i = 0; i < stem.size(); ++i) {
    int hi, lo;
    if (stem[i] == '%' && i + 2 < stem.size() &&
        (hi = hex(stem[i + 1])) >= 0 && (lo = hex(stem[i + 2])) >= 0) {
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += stem[i];
    }
  }
  return out;
}

/// The whole content of `path`, in one sized read; throws kIo when it
/// cannot be opened or read.
std::vector<uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = f ? static_cast<std::streamoff>(f.tellg()) : -1;
  if (size < 0) throw Error(ErrorCode::kIo, "cannot read " + path.string());
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  f.seekg(0);
  if (!f.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw Error(ErrorCode::kIo, "cannot read " + path.string());
  }
  return bytes;
}

/// Where a damaged `path` is set aside: the first of `<path>.corrupt`,
/// `<path>.corrupt.1`, `<path>.corrupt.2`, ... that does not exist, so a
/// later cut never replaces the copy an earlier one kept.
std::string set_aside_name(const std::string& path) {
  std::string name = path + ".corrupt";
  for (int i = 1; std::filesystem::exists(name); ++i) {
    name = path + ".corrupt." + std::to_string(i);
  }
  return name;
}

Error gap_error(const SegmentStore& store, const char* what, uint32_t record,
                uint32_t at) {
  return Error(ErrorCode::kProtocol,
               std::string(what) + " gap on '" + store.name() + "' (record " +
                   std::to_string(record) + ", store at " +
                   std::to_string(at) + ")");
}

/// A frame named a segment handle its session never bound.
Error unbound_handle(uint32_t handle) {
  return Error(ErrorCode::kProtocol,
               "segment handle " + std::to_string(handle) + " is not bound");
}

/// Writes what a store at (`from_version`, `from_types`) lacks to reach the
/// store's head, as a WAL-tail sync carries it: the type graphs registered
/// since, the fold history, one diff. Throws when the store's history no
/// longer reaches back to `from_version`.
void append_tail(SegmentStore& store, uint32_t from_version,
                 uint32_t from_types, Buffer& out) {
  const uint32_t types = store.type_count();
  out.append_u32(types - from_types);
  for (uint32_t serial = from_types + 1; serial <= types; ++serial) {
    auto graph = store.type_graph(serial);
    out.append_u32(serial);
    out.append_u32(static_cast<uint32_t>(graph.size()));
    out.append(graph.data(), graph.size());
  }
  store.collect_fold_history(from_version, out);
  auto diff = store.collect_diff(from_version);
  out.append(diff->data(), diff->size());
}

/// Applies an append_tail body: registers the type graphs the store lacks,
/// then folds up to `to_version` unless the store is already there.
/// Throws kProtocol on a type serial or version gap.
void apply_tail(SegmentStore& store, uint32_t to_version, BufReader& in) {
  const uint32_t new_types = in.read_u32();
  for (uint32_t i = 0; i < new_types; ++i) {
    const uint32_t serial = in.read_u32();
    auto graph = in.read_bytes(in.read_u32());
    if (serial <= store.type_count()) continue;
    if (serial != store.type_count() + 1 ||
        store.register_type(graph) != serial) {
      throw gap_error(store, "type serial", serial, store.type_count());
    }
  }
  if (to_version > store.version() &&
      store.apply_fold(to_version, in) != to_version) {
    throw gap_error(store, "version", to_version, store.version());
  }
}

}  // namespace

SegmentServer::SegmentServer() : SegmentServer(Options{}) {}

SegmentServer::SegmentServer(Options options) : options_(std::move(options)) {
  if (options_.revoke_deadline_ms == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "revoke_deadline_ms must be positive");
  }
  if (options_.writer_lease_ms == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "writer_lease_ms must be positive");
  }
  if (!options_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  }
}

SegmentServer::~SegmentServer() = default;

void SegmentServer::on_connect(SessionId session, Notifier notify) {
  std::unique_lock lock(sessions_mu_);
  sessions_[session] = SessionRecord{std::move(notify), false, {}};
}

void SegmentServer::on_disconnect(SessionId session) {
  // Release any writer locks the departing client held and drop its
  // per-segment state. Directory shared + one entry at a time, so live
  // traffic on other segments is not stalled.
  {
    std::shared_lock dir(dir_mu_);
    for (auto& [name, entry] : segments_) {
      std::unique_lock el(entry->mu);
      if (entry->locks.writer() == session) {
        IW_LOG(kWarn) << "session " << session
                      << " disconnected holding write lock on " << name;
      }
      entry->sessions.erase(session);
      carry_out(*entry, entry->locks.forget(session), el);
    }
  }
  std::unique_lock lock(sessions_mu_);
  sessions_.erase(session);
}

SegmentServer::SegmentEntry* SegmentServer::find_segment(
    const std::string& name, bool create) {
  {
    std::shared_lock lock(dir_mu_);
    auto it = segments_.find(name);
    if (it != segments_.end()) return it->second.get();
  }
  if (!create) return nullptr;
  std::unique_lock lock(dir_mu_);
  auto it = segments_.find(name);
  if (it == segments_.end()) {
    auto entry = std::make_unique<SegmentEntry>(name, options_);
    // Journal the segment's birth before any client can commit to it. The
    // entry is not yet published, so no entry lock is needed; segment
    // creation is rare enough that the fsyncs under the directory lock do
    // not matter.
    if (wal_on()) open_fresh_wal(*entry, name);
    it = segments_.emplace(name, std::move(entry)).first;
  }
  return it->second.get();
}

bool SegmentServer::wal_on() const noexcept {
  return options_.wal_enabled && !options_.checkpoint_dir.empty();
}

WriteAheadLog::Options SegmentServer::wal_options() {
  WriteAheadLog::Options o;
  o.sync = options_.wal_sync;
  o.counters = &wal_counters_;
  o.crash = options_.wal_crash;
  return o;
}

std::string SegmentServer::wal_file_path(const std::string& name) const {
  namespace fs = std::filesystem;
  return (fs::path(options_.checkpoint_dir) / encode_file_name(name, ".iwlog"))
      .string();
}

void SegmentServer::open_fresh_wal(SegmentEntry& entry,
                                   const std::string& name) {
  entry.wal =
      std::make_unique<WriteAheadLog>(wal_file_path(name), wal_options(), 0);
  Buffer created;
  created.append_lp_string(name);
  entry.wal->append(WalRecordType::kSegmentCreate,
                    {created.data(), created.size()});
  journal_lineage_locked(entry);
}

void SegmentServer::journal_lineage_locked(SegmentEntry& entry) {
  if (entry.lineage_epoch <= 1) return;
  uint8_t head[4];
  store_be32(head, entry.lineage_epoch);
  append_locked(entry, WalRecordType::kEpochAdopt, {head, sizeof head});
}

void SegmentServer::adopt_epoch_locked(SegmentEntry& entry, uint32_t epoch) {
  entry.repl_epoch = std::max(entry.repl_epoch, epoch);
  if (epoch == entry.lineage_epoch) return;
  entry.lineage_epoch = epoch;
  journal_lineage_locked(entry);
  // A checkpoint re-journals the lineage after truncating the journal.
  if (entry.wal_broken) checkpoint_segment_locked(entry);
}

void SegmentServer::append_locked(SegmentEntry& entry, WalRecordType type,
                                  std::span<const uint8_t> head,
                                  std::span<const uint8_t> body) {
  if (entry.wal == nullptr || entry.wal_broken) return;
  try {
    entry.wal->append(type, head, body);
  } catch (const std::exception& e) {
    // The failed append may have left a torn record, and a record appended
    // after it would be cut off with it at recovery.
    entry.wal_broken = true;
    IW_LOG(kWarn) << "journal append on " << entry.store->name()
                  << " failed (" << e.what() << "); re-anchoring on a "
                  << "checkpoint";
  }
}

bool SegmentServer::lz_pass(size_t n) {
  if (!options_.compress_payloads || n < kMinCompressInput ||
      n > kMaxFramedBody) {
    return false;
  }
  stats_.lz_passes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SegmentServer::journal_locked(SegmentEntry& entry,
                                   const std::string& name,
                                   WalRecordType type, uint32_t head_value,
                                   std::span<const uint8_t> body,
                                   std::span<const uint8_t> envelope) {
  if (entry.wal == nullptr && options_.replicator == nullptr) return;
  // The record is the head, then the body in its section envelope: the
  // writer's envelope as it arrived, one compressed here, or kRaw and the
  // body. The journal and the replication stream carry the one encoding,
  // so replicas journal what the primary journaled, byte for byte.
  uint8_t head[5];
  store_be32(head, head_value);
  head[4] = payload_method::kRaw;
  std::span<const uint8_t> lead{head, sizeof head};
  const uint64_t raw_bytes = lead.size() + body.size();
  Buffer packed;
  if (!options_.compress_payloads) {
    envelope = {};
  } else if (envelope.empty() && lz_pass(body.size()) &&
             compress_section(body, packed)) {
    envelope = packed.span();
  }
  if (!envelope.empty()) {
    lead = lead.first(4);
    body = envelope;
  }
  if (type == WalRecordType::kCommit) {
    stats_.commit_raw_bytes.fetch_add(raw_bytes, std::memory_order_relaxed);
    stats_.commit_stored_bytes.fetch_add(lead.size() + body.size(),
                                         std::memory_order_relaxed);
    if (!envelope.empty()) {
      stats_.commits_compressed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  append_locked(entry, type, lead, body);
  // Replicate before ack, even when the journal leg failed: the store holds
  // the record, and a replica that missed it would refuse every later one
  // as a version gap. A replicate that throws (factor not confirmed in
  // time, or this server fenced as deposed) leaves the record queued on the
  // links, so a retried commit lands after it in stream order.
  if (options_.replicator != nullptr) {
    options_.replicator->replicate(name, entry.repl_epoch, type, lead, body);
  }
  // Nothing is acked over a broken journal: a checkpoint, which covers this
  // record, re-anchors the segment, and if that fails the ack fails too.
  if (entry.wal_broken) checkpoint_segment_locked(entry);
}

SegmentServer::SegmentEntry& SegmentServer::segment(const std::string& name) {
  SegmentEntry* entry = find_segment(name, false);
  if (entry == nullptr) {
    throw Error(ErrorCode::kNotFound, "segment '" + name + "'");
  }
  return *entry;
}

const SegmentServer::SegmentEntry& SegmentServer::segment(
    const std::string& name) const {
  return const_cast<SegmentServer*>(this)->segment(name);
}

SegmentServer::SessionRecord& SegmentServer::session_locked(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) throw Error(ErrorCode::kState, "unknown session");
  return it->second;
}

void SegmentServer::bind_handle(SessionId session, uint32_t handle,
                                const std::string& name, SegmentEntry* entry) {
  if (handle == 0) return;
  std::unique_lock lock(sessions_mu_);
  SessionRecord& record = session_locked(session);
  // Only a version-checked session holds handles, so every session that
  // reaches a lock frame has said hello.
  if (!record.said_hello) {
    throw Error(ErrorCode::kProtocol,
                "segment handle " + std::to_string(handle) +
                    " bound before kHello");
  }
  auto [it, fresh] =
      record.handles.try_emplace(handle, HandleBinding{name, entry});
  if (fresh) return;
  if (it->second.name != name) {
    throw Error(ErrorCode::kProtocol,
                "handle " + std::to_string(handle) + " is bound to '" +
                    it->second.name + "', not '" + name + "'");
  }
  if (entry != nullptr) it->second.entry = entry;
}

SegmentServer::HandleBinding SegmentServer::resolve_handle(SessionId session,
                                                           BufReader& in) {
  const uint32_t handle = in.read_varint32();
  HandleBinding bound;
  {
    std::shared_lock lock(sessions_mu_);
    const auto& handles = session_locked(session).handles;
    auto it = handles.find(handle);
    if (it == handles.end()) throw unbound_handle(handle);
    bound = it->second;
  }
  if (bound.entry != nullptr) return bound;
  // Bound by a hello: look the name up now, exactly as a by-name call
  // would, and keep the entry (entries are never removed) for next time.
  bound.entry = &segment(bound.name);
  std::unique_lock lock(sessions_mu_);
  auto& handles = session_locked(session).handles;
  auto it = handles.find(handle);
  if (it != handles.end() && it->second.name == bound.name) {
    it->second.entry = bound.entry;
  }
  return bound;
}

SegmentServer::SegmentSession& SegmentServer::seg_session(SegmentEntry& entry,
                                                          SessionId id) {
  auto it = entry.sessions.find(id);
  if (it != entry.sessions.end()) return it->second;
  // First touch of this segment by this session: capture the notifier so
  // notification fan-out later needs no lock beyond the entry's.
  SegmentSession ss;
  {
    std::shared_lock lock(sessions_mu_);
    ss.notify = session_locked(id).notify;
  }
  return entry.sessions.emplace(id, std::move(ss)).first->second;
}

void SegmentServer::carry_out(SegmentEntry& entry,
                              const LockTable::Decision& d,
                              std::unique_lock<std::mutex>& el) {
  using Verdict = LockTable::Verdict;
  const std::string& name = entry.store->name();
  if (d.wake) entry.writer_cv.notify_all();
  if (d.leases_reclaimed != 0) {
    IW_LOG(kWarn) << "reclaimed an expired writer lease on " << name;
    stats_.lease_expirations.fetch_add(d.leases_reclaimed,
                                       std::memory_order_relaxed);
  }
  if (d.revokes_expired != 0) {
    IW_LOG(kWarn) << "revocation deadline passed on " << name << "; dropped "
                  << d.revokes_expired << " cached read locks";
    stats_.revokes_expired.fetch_add(d.revokes_expired,
                                     std::memory_order_relaxed);
  }
  if (d.verdict == Verdict::kRevoke) {
    Frame note;
    note.type = MsgType::kRevokeRead;
    Buffer np;
    np.append_vstring(name);
    np.append_varint(d.gen);
    note.payload = np.take();
    std::vector<Notifier> targets;
    for (SessionId sid : d.revoke) {
      auto it = entry.sessions.find(sid);
      if (it != entry.sessions.end()) targets.push_back(it->second.notify);
    }
    stats_.revokes_sent.fetch_add(targets.size(), std::memory_order_relaxed);
    // In-process transports run the holder's revoke handler, and its
    // kRevokeAck call back into handle(), on this thread.
    el.unlock();
    for (Notifier& n : targets) n(note);
    el.lock();
  } else if (d.verdict == Verdict::kLeaseExpired) {
    // A waiter reclaimed the lock: no diff of this writer may be applied
    // (another writer may have committed on top of the reclaimed state).
    stats_.stale_releases_rejected.fetch_add(1, std::memory_order_relaxed);
    throw Error(ErrorCode::kLeaseExpired,
                "writer lease on '" + name + "' expired and was reclaimed");
  } else if (d.verdict == Verdict::kNotHeld ||
             d.verdict == Verdict::kAlreadyHeld) {
    throw Error(ErrorCode::kState, d.verdict == Verdict::kNotHeld
                                       ? "write lock not held"
                                       : "write lock already held");
  }
}

bool SegmentServer::is_stale(SegmentEntry& entry, const SegmentSession& ss,
                             uint32_t client_version,
                             CoherencePolicy policy) const {
  const uint32_t current = entry.store->version();
  if (client_version >= current) return false;
  // Version 0 means the client has no data at all (fresh open or address
  // reservation); every model must fetch.
  if (client_version == 0) return true;
  switch (policy.model) {
    case CoherenceModel::kFull:
      return true;
    case CoherenceModel::kDelta:
      return current - client_version > policy.param;
    case CoherenceModel::kTemporal:
      // The client enforces the time bound locally and only asks when it
      // has expired; an expired bound means it wants the current version.
      return true;
    case CoherenceModel::kDiff: {
      uint64_t total = entry.store->total_data_bytes();
      if (total == 0) return true;
      return ss.modified_since_update * 100 > policy.param * total;
    }
  }
  return true;
}

bool SegmentServer::append_update(SegmentEntry& entry, SegmentSession& ss,
                                  uint32_t client_version,
                                  CoherencePolicy policy, Buffer& payload) {
  // The base of the diff sent. A copy that holds nothing is sent the diff
  // from the empty segment: it lists the same entries as one from 0, and a
  // populate's readers find it cached with the writer's section, so they
  // cost no collect and no LZ pass.
  uint32_t base =
      client_version == 0 ? kEmptySegmentVersion : client_version;
  if (client_version > entry.store->version()) {
    // The client is ahead of us — we recovered from an older checkpoint.
    // Force a full resync: the from-0 diff enumerates every live block and
    // the client sweeps the rest.
    IW_LOG(kWarn) << "client ahead of segment " << entry.store->name()
                  << " (v" << client_version << " > v"
                  << entry.store->version() << "); full resync";
    client_version = 0;
    base = 0;
    ss.types_sent = 0;
  }
  if (!is_stale(entry, ss, client_version, policy)) {
    payload.append_u8(0);  // up to date
    return false;
  }
  payload.append_u8(1);
  // Ship type definitions the client has not seen yet.
  SegmentStore& store = *entry.store;
  uint32_t count = store.type_count();
  payload.append_varint(count - ss.types_sent);
  for (uint32_t serial = ss.types_sent + 1; serial <= count; ++serial) {
    payload.append_varint(serial);
    auto graph = store.type_graph(serial);
    payload.append_varint(graph.size());
    payload.append(graph.data(), graph.size());
  }
  ss.types_sent = count;
  auto diff = store.collect_diff(base);
  // The diff travels behind a method byte. With compress_payloads on, the
  // section is compressed once per diff and cached beside it (a commit's
  // arrives with it from the writer): every later reader of the same diff
  // gets the same bytes with no LZ pass. The compressor measures and keeps
  // the raw form (plus the one-byte flag) whenever the envelope would not
  // pay, so incompressible diffs cost one byte, not a wasted pass
  // downstream.
  static const SharedBytes kRawSection =
      std::make_shared<const std::vector<uint8_t>>(1, payload_method::kRaw);
  SharedBytes section;
  if (options_.compress_payloads) {
    section = store.cached_section(base);
    if (section == nullptr) {
      Buffer lz;
      section = lz_pass(diff->size()) && compress_section(*diff, lz)
                    ? std::make_shared<const std::vector<uint8_t>>(lz.take())
                    : kRawSection;
      store.cache_section(base, section);
    }
  }
  const size_t method_offset = payload.size();
  if (section != nullptr && section->front() == payload_method::kLz) {
    payload.append(section->data(), section->size());
    stats_.updates_compressed.fetch_add(1, std::memory_order_relaxed);
  } else {
    payload.append_u8(payload_method::kRaw);
    payload.append(diff->data(), diff->size());
  }
  stats_.update_raw_bytes.fetch_add(diff->size(), std::memory_order_relaxed);
  stats_.update_wire_bytes.fetch_add(payload.size() - method_offset,
                                     std::memory_order_relaxed);
  ss.modified_since_update = 0;
  return true;
}

Frame SegmentServer::handle(SessionId session, const Frame& request) {
  std::vector<PendingNotify> notifies;
  Frame response;
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  try {
    response = dispatch(session, request, &notifies);
  } catch (const Error& e) {
    response = make_error_frame(e);
  } catch (const std::exception& e) {
    response = make_error_frame(Error(ErrorCode::kInternal, e.what()));
  }
  // Notifications go out after every server lock is dropped so a
  // notification handler that grabs client-side locks cannot deadlock
  // against us.
  for (PendingNotify& pn : notifies) {
    pn.notify(pn.frame);
  }
  response.request_id = request.request_id;
  return response;
}

Frame SegmentServer::dispatch(SessionId session, const Frame& request,
                              std::vector<PendingNotify>* notifies) {
  Frame resp;
  Buffer payload;
  BufReader in = request.reader();

  switch (request.type) {
    case MsgType::kPing: {
      resp.type = MsgType::kPingResp;
      break;
    }

    case MsgType::kHello: {
      // Session handshake, the first frame of every client session: checks
      // the protocol version, identifies the client across channel
      // incarnations and announces its session epoch (1 = first connect, +1
      // per reconnect). Only a session that said hello binds segment
      // handles, so every lock frame comes from a version-checked session,
      // which caches read locks and honours kRevokeRead. The response tells
      // the client how long its writer leases last so it can pace renewals.
      const uint8_t version = in.read_u8();
      if (version != kProtocolVersion) {
        throw Error(ErrorCode::kProtocol,
                    "client speaks protocol version " +
                        std::to_string(version) + ", server speaks " +
                        std::to_string(kProtocolVersion));
      }
      uint64_t client_id = in.read_varint64();
      uint32_t epoch = in.read_varint32();
      if (epoch > 1) {
        IW_LOG(kInfo) << "client " << client_id << " reconnected (epoch "
                      << epoch << ") as session " << session;
      }
      {
        std::unique_lock lock(sessions_mu_);
        session_locked(session).said_hello = true;
      }
      // A reconnecting client rebinds the handles of the segments it has
      // open, so its replayed calls need no extra round trip. Names are
      // resolved on first use, like a by-name call.
      for (uint32_t n = in.read_varint32(); n > 0; --n) {
        const uint32_t handle = in.read_varint32();
        bind_handle(session, handle, in.read_vstring(), nullptr);
      }
      resp.type = MsgType::kHelloResp;
      payload.append_varint(options_.writer_lease_ms);
      break;
    }

    case MsgType::kOpenSegment: {
      const uint32_t handle = in.read_varint32();
      std::string name = in.read_vstring();
      bool create = in.read_u8() != 0;
      SegmentEntry* entry = find_segment(name, create);
      if (entry == nullptr) {
        throw Error(ErrorCode::kNotFound, "segment '" + name + "'");
      }
      bind_handle(session, handle, name, entry);
      std::lock_guard el(entry->mu);
      resp.type = MsgType::kOpenSegmentResp;
      payload.append_varint(entry->store->version());
      payload.append_varint(entry->store->next_block_serial());
      break;
    }

    case MsgType::kRegisterType: {
      const HandleBinding bound = resolve_handle(session, in);
      const std::string& name = bound.name;
      SegmentEntry& entry = *bound.entry;
      auto graph = in.read_bytes(in.remaining());
      std::lock_guard el(entry.mu);
      // Mid-critical-section activity proves the writer is alive: renew its
      // lease so a long sequence of type registrations is not reclaimed.
      entry.locks.renew(session, LockTable::Clock::now());
      uint32_t types_before = entry.store->type_count();
      uint32_t serial = entry.store->register_type(graph);
      if (entry.store->type_count() != types_before) {
        // A genuinely new type (not a dedup hit): recovery must know it
        // before replaying any diff that references it — and so must the
        // replicas, before any streamed commit references it.
        journal_locked(entry, name, WalRecordType::kRegisterType, serial,
                       graph);
      } else if (entry.wal_broken) {
        // A dedup hit may be the retry of a registration whose append
        // failed: re-anchor before acking it.
        checkpoint_segment_locked(entry);
      }
      // The registering client now knows this serial; extend its known
      // prefix when contiguous.
      SegmentSession& ss = seg_session(entry, session);
      if (serial == ss.types_sent + 1) ss.types_sent = serial;
      resp.type = MsgType::kRegisterTypeResp;
      payload.append_varint(serial);
      break;
    }

    case MsgType::kAcquireRead: {
      SegmentEntry& entry = *resolve_handle(session, in).entry;
      uint32_t client_version = in.read_varint32();
      CoherencePolicy policy;
      policy.model = static_cast<CoherenceModel>(in.read_u8());
      policy.param = in.read_varint64();
      std::unique_lock el(entry.mu);
      SegmentSession& ss = seg_session(entry, session);
      resp.type = MsgType::kAcquireReadResp;
      if (append_update(entry, ss, client_version, policy, payload)) {
        stats_.updates_sent.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.uptodate_responses.fetch_add(1, std::memory_order_relaxed);
      }
      // Full is the only model whose repeat acquires otherwise always pay
      // an RPC, so only a Full reader is offered a cached lock.
      const LockTable::Decision d = entry.locks.acquire_read(
          session, policy.model == CoherenceModel::kFull);
      carry_out(entry, d, el);
      const bool grant = d.verdict == LockTable::Verdict::kGranted;
      if (grant) {
        stats_.cached_read_grants.fetch_add(1, std::memory_order_relaxed);
      }
      payload.append_u8(grant ? 1 : 0);
      break;
    }

    case MsgType::kRevokeAck: {
      // Idempotent: a stale ack (lock already force-expired, or re-earned)
      // is still success.
      SegmentEntry& entry = *resolve_handle(session, in).entry;
      uint32_t gen = in.read_varint32();
      std::unique_lock el(entry.mu);
      const LockTable::Decision d = entry.locks.revoke_ack(session, gen);
      carry_out(entry, d, el);
      if (d.verdict == LockTable::Verdict::kOk) {
        stats_.revokes_acked.fetch_add(1, std::memory_order_relaxed);
      }
      resp.type = MsgType::kAck;
      break;
    }

    case MsgType::kAcquireWrite: {
      const HandleBinding bound = resolve_handle(session, in);
      const std::string& name = bound.name;
      SegmentEntry& entry = *bound.entry;
      uint32_t client_version = in.read_varint32();
      std::unique_lock el(entry.mu);
      if (options_.replicator != nullptr && options_.replicator->fenced(name)) {
        // Deposed primary: fail the acquire fast so the client re-resolves
        // placement now, instead of building a commit that can only die
        // with kStaleEpoch at release time.
        throw Error(ErrorCode::kStaleEpoch,
                    "segment '" + name + "' is owned by a newer primary");
      }
      // Waiting here blocks only this segment's entry lock; traffic on
      // other segments is unaffected.
      for (LockTable::Decision d =
               entry.locks.acquire_write(session, LockTable::Clock::now());
           ; d = entry.locks.resume_write(session, LockTable::Clock::now())) {
        carry_out(entry, d, el);
        if (d.verdict == LockTable::Verdict::kGranted) break;
        if (d.verdict == LockTable::Verdict::kWait) {
          entry.writer_cv.wait_until(el, d.until);
        }
      }
      SegmentSession& ss = seg_session(entry, session);
      resp.type = MsgType::kAcquireWriteResp;
      payload.append_varint(entry.store->next_block_serial());
      // A writer must start from the current version.
      if (append_update(entry, ss, client_version, CoherencePolicy::full(),
                        payload)) {
        stats_.updates_sent.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.uptodate_responses.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }

    case MsgType::kReleaseWrite: {
      const HandleBinding bound = resolve_handle(session, in);
      const std::string& name = bound.name;
      SegmentEntry& entry = *bound.entry;
      std::unique_lock el(entry.mu);
      // The lock drops here, so however the release ends (a malformed diff
      // or envelope, a failed journal or replication leg) the segment does
      // not wedge; waiters need `el` to see it.
      carry_out(entry, entry.locks.release_write(session), el);
      // A compressed section is inflated once and kept: the store caches
      // the inflated diff itself, and its envelope is reused as is for the
      // journal, the replicas and the readers one version behind.
      std::vector<uint8_t> inflated;
      std::span<const uint8_t> envelope;  // the writer's kLz envelope
      SharedBytes diff;  // keeps diff_bytes alive, cached or not
      std::span<const uint8_t> diff_bytes;
      const uint32_t old_version = entry.store->version();
      uint32_t new_version;
      if (read_compressed_section(in, inflated, &envelope)) {
        diff =
            std::make_shared<const std::vector<uint8_t>>(std::move(inflated));
        diff_bytes = *diff;
        // Readers get the writer's section only when it beats the raw one,
        // as a section the server compressed would.
        SharedBytes section;
        if (options_.compress_payloads && envelope.size() < 1 + diff->size()) {
          section = std::make_shared<const std::vector<uint8_t>>(
              envelope.begin(), envelope.end());
        }
        new_version = entry.store->apply_diff(diff, std::move(section));
      } else {
        diff_bytes = in.read_bytes(in.remaining());
        new_version = entry.store->apply_diff(diff_bytes);
      }
      // Apply first (it validates the diff, so garbage never reaches the
      // log), journal and replicate second, ack last. A crash after the
      // append is recoverable; a crash before it was never acknowledged.
      if (new_version != old_version) {
        journal_locked(entry, name, WalRecordType::kCommit, new_version,
                       diff_bytes, envelope);
      }

      // Conservative Diff-coherence accounting and notifications, all from
      // this entry's session table: fan-out for this segment never touches
      // another segment's lock or the connection table.
      for (auto& [sid, ss] : entry.sessions) {
        if (sid == session) {
          ss.modified_since_update = 0;
          continue;
        }
        ss.modified_since_update += diff_bytes.size();
        if (ss.subscribed) {
          Frame note;
          note.type = MsgType::kNotifyVersion;
          Buffer np;
          np.append_vstring(name);
          np.append_varint(new_version);
          note.payload = np.take();
          notifies->push_back({ss.notify, std::move(note)});
          stats_.notifications_sent.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // The writer itself is now current.
      seg_session(entry, session).types_sent = entry.store->type_count();

      if (options_.checkpoint_every > 0 &&
          ++entry.versions_since_checkpoint >= options_.checkpoint_every) {
        checkpoint_segment_locked(entry);
      }
      resp.type = MsgType::kReleaseWriteResp;
      payload.append_varint(new_version);
      break;
    }

    case MsgType::kSegmentInfo: {
      const uint32_t handle = in.read_varint32();
      std::string name = in.read_vstring();
      SegmentEntry& entry = segment(name);
      bind_handle(session, handle, name, &entry);
      std::lock_guard el(entry.mu);
      SegmentStore& store = *entry.store;
      resp.type = MsgType::kSegmentInfoResp;
      payload.append_varint(store.version());
      uint32_t count = store.type_count();
      payload.append_varint(count);
      for (uint32_t serial = 1; serial <= count; ++serial) {
        auto graph = store.type_graph(serial);
        payload.append_varint(graph.size());
        payload.append(graph.data(), graph.size());
      }
      payload.append_varint(store.block_count());
      store.for_each_block([&](const SvrBlock& b) {
        payload.append_varint(b.serial);
        payload.append_varint(b.type_serial);
        payload.append_vstring(b.name);
      });
      // The directory lets a client reserve address space; it still fetches
      // data with a from-version of 0, so mark the session as having seen
      // all current types.
      seg_session(entry, session).types_sent = count;
      break;
    }

    case MsgType::kCloseSegment: {
      // The client dropped its cache: forget what we sent it (type-table
      // prefix, subscription, coherence counters) and the handle. A handle
      // bound by a hello to a segment this server never saw just unbinds.
      const uint32_t handle = in.read_varint32();
      HandleBinding bound;
      {
        std::unique_lock lock(sessions_mu_);
        auto& handles = session_locked(session).handles;
        auto it = handles.find(handle);
        if (it == handles.end()) throw unbound_handle(handle);
        bound = std::move(it->second);
        handles.erase(it);
      }
      SegmentEntry* entry = bound.entry != nullptr
                                ? bound.entry
                                : find_segment(bound.name, false);
      if (entry != nullptr) {
        std::unique_lock el(entry->mu);
        entry->sessions.erase(session);
        carry_out(*entry, entry->locks.forget(session), el);
      }
      resp.type = MsgType::kAck;
      break;
    }

    case MsgType::kSubscribe: {
      SegmentEntry& entry = *resolve_handle(session, in).entry;
      std::lock_guard el(entry.mu);
      seg_session(entry, session).subscribed = true;
      resp.type = MsgType::kAck;
      break;
    }

    case MsgType::kWalAppend: {
      // A batch of WAL records streamed by a primary (this server is the
      // replica). Records for a segment whose placement epoch has moved on
      // come from a deposed primary: they are reported as stale instead of
      // applied, which fences that primary (see replication.hpp). Everything
      // else is applied to the store and journaled before the ack — the ack
      // is this replica's durability promise to the primary's client.
      uint32_t count = in.read_u32();
      uint32_t applied = 0;
      std::vector<std::string> stale;
      for (uint32_t i = 0; i < count; ++i) {
        std::string name = in.read_lp_string();
        uint32_t epoch = in.read_u32();
        // Only types 1..4 travel the replication stream; kEpochAdopt is a
        // local lineage marker each server journals for itself.
        const uint8_t type = in.read_u8();
        if (type < static_cast<uint8_t>(WalRecordType::kSegmentCreate) ||
            type > static_cast<uint8_t>(WalRecordType::kSegmentDestroy)) {
          throw Error(ErrorCode::kProtocol, "unknown replicated record type");
        }
        const auto rtype = static_cast<WalRecordType>(type);
        auto record = in.read_bytes(in.read_u32());
        SegmentEntry* entry = find_segment(name, true);
        std::lock_guard el(entry->mu);
        if (epoch < entry->repl_epoch) {
          stats_.repl_stale_rejected.fetch_add(1, std::memory_order_relaxed);
          if (std::find(stale.begin(), stale.end(), name) == stale.end()) {
            stale.push_back(std::move(name));
          }
          continue;
        }
        if (epoch > entry->lineage_epoch) {
          // First record from a newer primary: from here this replica's
          // applied history *is* the promoted lineage; record the adoption
          // before the records produced under it.
          adopt_epoch_locked(*entry, epoch);
        }
        entry->repl_epoch = epoch;
        // Journal before the batch is acked: the ack tells the primary this
        // record survives *this* server's crash too. The primary's bytes go
        // in verbatim, envelope and all. A record the store already holds (a
        // batch re-sent after a link reconnect) is skipped, but may be the
        // re-send of one whose append failed here: a broken journal is
        // re-anchored before the ack either way.
        if (apply_record_locked(*entry, rtype, record)) {
          stats_.repl_records_applied.fetch_add(1, std::memory_order_relaxed);
          append_locked(*entry, rtype, record);
        }
        if (entry->wal_broken) checkpoint_segment_locked(*entry);
        ++applied;
      }
      resp.type = MsgType::kWalAck;
      payload.append_u32(applied);
      payload.append_u32(static_cast<uint32_t>(stale.size()));
      for (const std::string& s : stale) payload.append_lp_string(s);
      break;
    }

    case MsgType::kPromote: {
      // The directory elected this server the segment's primary under a new
      // placement epoch. Adopting the epoch makes any late kWalAppend from
      // the old primary stale; answering with our version lets the caller
      // verify it promoted the most-caught-up replica.
      std::string name = in.read_lp_string();
      uint32_t new_epoch = in.read_u32();
      SegmentEntry* entry = find_segment(name, true);
      std::lock_guard el(entry->mu);
      if (new_epoch < entry->repl_epoch) {
        throw Error(ErrorCode::kStaleEpoch,
                    "promotion of '" + name + "' to epoch " +
                        std::to_string(new_epoch) + " is behind epoch " +
                        std::to_string(entry->repl_epoch));
      }
      adopt_epoch_locked(*entry, new_epoch);
      if (options_.replicator != nullptr) {
        // Whatever fenced this server is now behind it: it owns the
        // segment's newest epoch and may gate commits on its links again.
        options_.replicator->unfence(name);
      }
      stats_.promotions_accepted.fetch_add(1, std::memory_order_relaxed);
      IW_LOG(kInfo) << "promoted to primary of " << name << " (epoch "
                    << new_epoch << ", v" << entry->store->version() << ")";
      resp.type = MsgType::kPromoteResp;
      payload.append_u32(entry->store->version());
      break;
    }

    case MsgType::kSyncRequest: {
      return serve_sync_request(session, in);
    }

    case MsgType::kSyncDone: {
      // A replica finished pulling its backfill: flip its link from the
      // paused sync registration to live kWalAppend tailing. Records
      // enqueued since the sync cut are retained on the link and replay
      // now, completing the gap-free handoff.
      std::string name = in.read_lp_string();
      std::string replica_id = in.read_lp_string();
      std::string replica_address = in.read_lp_string();
      const uint32_t adopted_epoch = in.read_u32();
      const uint32_t version = in.read_u32();
      if (options_.replicator != nullptr && !replica_id.empty()) {
        const bool resumed = options_.replicator->resume_replica(replica_id);
        if (!resumed && options_.peer_dial != nullptr &&
            !replica_address.empty()) {
          // The paused registration is gone (sync grace expired during a
          // long pull); the completed backfill still covers the history, so
          // register the link live from here.
          auto dial = options_.peer_dial;
          options_.replicator->add_replica(
              replica_id,
              [dial, replica_address] { return dial(replica_address); });
        }
      }
      IW_LOG(kInfo) << "replica " << replica_id << " completed sync of "
                    << name << " (epoch " << adopted_epoch << ", v" << version
                    << ")";
      resp.type = MsgType::kAck;
      break;
    }

    case MsgType::kRecruit: {
      // The repair loop asks this server to (re)join a segment's replica
      // set: fence-check the recruitment epoch, pull the backfill from the
      // primary, and report the resulting position. A recruit for a
      // caught-up replica degenerates to an empty WAL-tail sync, so the
      // repairer can re-recruit every tick as idempotent anti-entropy.
      std::string name = in.read_lp_string();
      uint32_t epoch = in.read_u32();
      std::string primary_address = in.read_lp_string();
      {
        SegmentEntry* entry = find_segment(name, true);
        std::lock_guard el(entry->mu);
        if (epoch < entry->repl_epoch) {
          // Repair racing a newer failover: this replica already follows a
          // newer placement than the recruiter knows about.
          stats_.recruits_rejected_stale.fetch_add(1,
                                                   std::memory_order_relaxed);
          throw Error(ErrorCode::kStaleEpoch,
                      "recruitment of '" + name + "' at epoch " +
                          std::to_string(epoch) + " is behind epoch " +
                          std::to_string(entry->repl_epoch));
        }
      }
      const uint32_t version = backfill_segment(name, primary_address, epoch);
      resp.type = MsgType::kRecruitResp;
      payload.append_u32(segment_placement_epoch(name));
      payload.append_u32(version);
      break;
    }

    default:
      throw Error(ErrorCode::kProtocol, "unexpected message type");
  }

  resp.payload = payload.take();
  return resp;
}

bool SegmentServer::apply_record_locked(SegmentEntry& entry,
                                        WalRecordType type,
                                        std::span<const uint8_t> payload) {
  SegmentStore& store = *entry.store;
  BufReader in(payload.data(), payload.size());
  std::vector<uint8_t> scratch;  // a kLz body, decoded
  switch (type) {
    case WalRecordType::kSegmentCreate:
      // The segment exists already; the record only anchors the journal.
      if (in.read_lp_string() != store.name()) {
        throw Error(ErrorCode::kProtocol,
                    "record for '" + store.name() + "' names another segment");
      }
      return false;
    case WalRecordType::kRegisterType: {
      const uint32_t serial = in.read_u32();
      if (serial <= store.type_count()) return false;
      if (serial != store.type_count() + 1 ||
          store.register_type(read_record_section(in, scratch)) != serial) {
        throw gap_error(store, "type serial", serial, store.type_count());
      }
      return true;
    }
    case WalRecordType::kCommit: {
      const uint32_t version = in.read_u32();
      if (version <= store.version()) return false;
      const auto diff = read_record_section(in, scratch);
      // Where the diff lands is checked before it is applied, so a record
      // that skips a version leaves the store untouched.
      BufReader header(diff.data(), diff.size());
      const uint32_t lands =
          std::max(DiffReader(header).to_version(), store.version() + 1);
      if (lands != version) {
        throw gap_error(store, "version", version, store.version());
      }
      // A body inflated into `scratch` is handed to the store's diff cache
      // as is, as a release hands over the diff it inflated; moving the
      // vector keeps `diff` pointing at the same bytes.
      const uint32_t landed =
          diff.data() == scratch.data()
              ? store.apply_diff(std::make_shared<const std::vector<uint8_t>>(
                                     std::move(scratch)),
                                 nullptr)
              : store.apply_diff(diff);
      if (landed != version) {
        throw gap_error(store, "version", version, store.version());
      }
      return true;
    }
    case WalRecordType::kSegmentDestroy:
      entry.store = std::make_unique<SegmentStore>(store.name(),
                                                   options_.store);
      return true;
    case WalRecordType::kEpochAdopt:
      entry.lineage_epoch = std::max(entry.lineage_epoch, in.read_u32());
      return false;
  }
  return false;
}

void SegmentServer::set_node_identity(std::string id, std::string address) {
  std::lock_guard lock(node_mu_);
  node_id_ = std::move(id);
  node_address_ = std::move(address);
}

Frame SegmentServer::serve_sync_request(SessionId session, BufReader& in) {
  std::string name = in.read_lp_string();
  const uint32_t have_version = in.read_u32();
  const uint32_t have_lineage = in.read_u32();
  const uint32_t have_types = in.read_u32();
  const uint32_t want_epoch = in.read_u32();
  const uint64_t cursor = in.read_u64();
  std::string replica_id = in.read_lp_string();
  std::string replica_address = in.read_lp_string();
  stats_.sync_requests.fetch_add(1, std::memory_order_relaxed);

  SegmentEntry& entry = segment(name);
  std::unique_lock el(entry.mu);
  if (want_epoch > entry.repl_epoch) {
    // The requester was recruited under a placement newer than anything
    // this server has seen: it is asking a deposed primary. Refuse rather
    // than seed it with a dead lineage.
    throw Error(ErrorCode::kStaleEpoch,
                "sync of '" + name + "' wants epoch " +
                    std::to_string(want_epoch) + " but this server is at " +
                    std::to_string(entry.repl_epoch));
  }
  SegmentSession& ss = seg_session(entry, session);
  Frame resp;
  resp.type = MsgType::kSyncChunk;
  Buffer payload;
  if (cursor == 0) {
    if (options_.replicator != nullptr && options_.peer_dial != nullptr &&
        !replica_id.empty() && !replica_address.empty()) {
      // Park the requester's link with its ack cursor pinned *before* the
      // cut below: the sync covers everything up to the pin, the retained
      // log replays everything after it once kSyncDone resumes the link. A
      // link already streaming live is left alone (see register_sync).
      auto dial = options_.peer_dial;
      options_.replicator->register_sync(
          replica_id,
          [dial, replica_address] { return dial(replica_address); });
    }
    const uint32_t version = entry.store->version();
    const uint32_t types = entry.store->type_count();
    bool tail_ok = false;
    Buffer tail;
    if (have_lineage == entry.lineage_epoch && have_version <= version &&
        have_types <= types) {
      // Same lineage and not ahead of us: the requester's gap is the type
      // graphs registered since, the fold history and one diff (the sync
      // tail); an equal-position requester gets an empty body.
      try {
        if (have_version != version || have_types != types) {
          append_tail(*entry.store, have_version, have_types, tail);
        }
        tail_ok = true;
      } catch (const std::exception&) {
        // The store's fold history no longer reaches back to have_version;
        // fall through to a snapshot.
        tail.clear();
      }
    }
    if (tail_ok) {
      stats_.sync_tails_served.fetch_add(1, std::memory_order_relaxed);
      // The epoch stamped on the chunk is the *lineage* of the content: a
      // puller recruited under a newer epoch than our history was produced
      // under must reject it (we may be a deposed primary serving stale
      // state), which its install-side fence does by comparing this value.
      payload.append_u32(entry.lineage_epoch);
      payload.append_u32(version);
      payload.append_u8(0);  // mode: WAL-tail fold
      payload.append_u8(1);  // done
      payload.append_u64(0);
      payload.append(tail.data(), tail.size());
      resp.payload = payload.take();
      return resp;
    }
    // Snapshot: cut once under the lock, cache it on the session, slice per
    // chunk — a large segment streams consistently even while new commits
    // land between chunk requests.
    Buffer full;
    entry.store->serialize(full);
    ss.sync_snapshot =
        std::make_shared<const std::vector<uint8_t>>(full.take());
    ss.sync_version = version;
    ss.sync_epoch = entry.lineage_epoch;
    stats_.sync_snapshots_served.fetch_add(1, std::memory_order_relaxed);
  }
  if (ss.sync_snapshot == nullptr) {
    throw Error(ErrorCode::kState, "no sync in progress for '" + name + "'");
  }
  const std::vector<uint8_t>& snap = *ss.sync_snapshot;
  if (cursor > snap.size()) {
    throw Error(ErrorCode::kProtocol, "sync cursor past snapshot end");
  }
  const size_t step = std::max<uint32_t>(options_.sync_chunk_bytes, 1);
  const size_t n = std::min(step, snap.size() - static_cast<size_t>(cursor));
  const bool done = cursor + n == snap.size();
  payload.append_u32(ss.sync_epoch);
  payload.append_u32(ss.sync_version);
  payload.append_u8(1);  // mode: snapshot
  payload.append_u8(done ? 1 : 0);
  payload.append_u64(cursor + n);
  payload.append(snap.data() + cursor, n);
  if (done) ss.sync_snapshot.reset();
  resp.payload = payload.take();
  return resp;
}

uint32_t SegmentServer::backfill_segment(const std::string& name,
                                         const std::string& primary_address,
                                         uint32_t want_epoch) {
  if (options_.peer_dial == nullptr) {
    throw Error(ErrorCode::kState,
                "backfill of '" + name + "' needs a peer dialer");
  }
  SegmentEntry* entry = find_segment(name, true);
  uint32_t have_version = 0;
  uint32_t have_lineage = 1;
  uint32_t have_types = 0;
  {
    std::lock_guard el(entry->mu);
    have_version = entry->store->version();
    have_lineage = entry->lineage_epoch;
    have_types = entry->store->type_count();
  }
  std::string self_id;
  std::string self_address;
  {
    std::lock_guard nl(node_mu_);
    self_id = node_id_;
    self_address = node_address_;
  }
  auto channel = options_.peer_dial(primary_address);

  uint64_t cursor = 0;
  uint32_t epoch = 0;
  uint32_t version = 0;
  bool done = false;
  bool snapshot_mode = false;
  // A WAL-tail fold (same lineage) is a single chunk by construction; a
  // snapshot streams in as many as it takes.
  std::vector<uint8_t> body;
  while (!done) {
    Buffer req;
    req.append_lp_string(name);
    req.append_u32(have_version);
    req.append_u32(have_lineage);
    req.append_u32(have_types);
    req.append_u32(want_epoch);
    req.append_u64(cursor);
    req.append_lp_string(self_id);
    req.append_lp_string(self_address);
    Frame chunk = channel->call(MsgType::kSyncRequest, std::move(req));
    BufReader cin = chunk.reader();
    epoch = cin.read_u32();
    version = cin.read_u32();
    snapshot_mode = cin.read_u8() != 0;
    done = cin.read_u8() != 0;
    cursor = cin.read_u64();
    auto bytes = cin.read_bytes(cin.remaining());
    body.insert(body.end(), bytes.begin(), bytes.end());
  }
  {
    std::lock_guard el(entry->mu);
    // Content from a lineage older than either what this replica already
    // follows or what the recruiter demanded is refused: repair racing a
    // newer failover resolves toward the newer lineage.
    if (epoch < entry->repl_epoch ||
        (want_epoch != 0 && epoch < want_epoch)) {
      throw Error(ErrorCode::kStaleEpoch,
                  "sync of '" + name + "' carries epoch " +
                      std::to_string(epoch) + " behind epoch " +
                      std::to_string(std::max(entry->repl_epoch,
                                              want_epoch)));
    }
    const uint32_t before_version = entry->store->version();
    const uint32_t before_types = entry->store->type_count();
    BufReader bin(body.data(), body.size());
    if (snapshot_mode) {
      entry->store = SegmentStore::deserialize(name, options_.store, bin);
    } else if (!body.empty()) {
      apply_tail(*entry->store, version, bin);
    }
    if (snapshot_mode || entry->store->version() != before_version ||
        entry->store->type_count() != before_types ||
        epoch != entry->lineage_epoch) {
      // Make the install durable: adopt the sync's lineage, then a
      // checkpoint and the journal truncation that follows it retire any
      // divergent unacked suffix this server's deposed incarnation may have
      // journaled.
      entry->repl_epoch = std::max(entry->repl_epoch, epoch);
      entry->lineage_epoch = epoch;
      checkpoint_segment_locked(*entry);
    }
    version = entry->store->version();
  }
  stats_.backfills_completed.fetch_add(1, std::memory_order_relaxed);
  IW_LOG(kInfo) << "backfilled " << name << " from " << primary_address
                << " (epoch " << epoch << ", v" << version << ", "
                << (snapshot_mode ? "snapshot" : "tail") << ")";
  // Complete the handshake: the primary flips (or re-adds) this server's
  // link to live kWalAppend tailing from the sync's pin.
  Buffer fin;
  fin.append_lp_string(name);
  fin.append_lp_string(self_id);
  fin.append_lp_string(self_address);
  fin.append_u32(epoch);
  fin.append_u32(version);
  channel->call(MsgType::kSyncDone, std::move(fin));
  return version;
}

void SegmentServer::checkpoint_segment_locked(SegmentEntry& entry) {
  if (options_.checkpoint_dir.empty()) return;
  SegmentStore& store = *entry.store;
  Buffer out;
  out.append_u32(kCheckpointMagic);
  out.append_lp_string(store.name());
  store.serialize(out);
  namespace fs = std::filesystem;
  // tmp + fdatasync + rename + parent fsync: the snapshot is durable before
  // it becomes visible under its final name.
  write_file_durable(
      (fs::path(options_.checkpoint_dir) /
       encode_file_name(store.name(), ".iwseg")).string(),
      {out.data(), out.size()});
  stats_.checkpoints_written.fetch_add(1, std::memory_order_relaxed);
  // Only once the checkpoint is durably in place may the journal records it
  // supersedes be discarded. A crash between the two is benign: replay
  // skips records at or below the covered version. The truncation also
  // drops whatever a failed append left behind. The lineage marker is not
  // covered by the snapshot, so it is re-journaled after the cut.
  if (entry.wal != nullptr) {
    entry.wal->truncate_after_checkpoint();
    entry.wal_broken = false;
    journal_lineage_locked(entry);
    if (entry.wal_broken) {
      throw Error(ErrorCode::kIo, "cannot journal the lineage of '" +
                                      store.name() + "' after a checkpoint");
    }
  }
  entry.versions_since_checkpoint = 0;
}

void SegmentServer::checkpoint() {
  std::shared_lock dir(dir_mu_);
  for (auto& [name, entry] : segments_) {
    std::lock_guard el(entry->mu);
    checkpoint_segment_locked(*entry);
  }
}

void SegmentServer::quarantine(const std::string& path,
                               const std::string& why) {
  std::error_code ec;
  const std::string to = set_aside_name(path);
  std::filesystem::rename(path, to, ec);
  IW_LOG(kWarn) << "quarantining " << path << " as " << to << " (" << why
                << ")" << (ec ? "; rename failed: " + ec.message() : "");
  stats_.checkpoints_quarantined.fetch_add(1, std::memory_order_relaxed);
}

void SegmentServer::recover() {
  if (options_.checkpoint_dir.empty()) return;
  namespace fs = std::filesystem;
  std::unique_lock dir(dir_mu_);
  // Collect paths first: quarantining renames files, which must not race
  // the directory iteration.
  std::vector<fs::path> snapshots;
  std::vector<fs::path> journals;
  for (const auto& dirent : fs::directory_iterator(options_.checkpoint_dir)) {
    if (dirent.path().extension() == ".iwseg") {
      snapshots.push_back(dirent.path());
    } else if (dirent.path().extension() == ".iwlog") {
      journals.push_back(dirent.path());
    } else if (dirent.path().extension() == ".iwinc") {
      // An incremental checkpoint chain from an older build holds acked
      // versions its journal was already truncated past: refuse, and leave
      // it for an operator, rather than recover without them.
      throw Error(ErrorCode::kUnimplemented,
                  dirent.path().string() +
                      ": incremental checkpoint chains are not read by this "
                      "build");
    }
  }

  // Pass 1: load snapshots. A corrupt checkpoint (bad magic, truncation,
  // flipped bits — deserialize validates throughout) is quarantined and
  // recovery continues; one damaged file must not take down every segment.
  for (const fs::path& path : snapshots) {
    std::string name;
    std::unique_ptr<SegmentStore> store;
    try {
      const std::vector<uint8_t> bytes = read_file(path);
      BufReader in(bytes.data(), bytes.size());
      const uint32_t magic = in.read_u32();
      if (magic != kCheckpointMagic &&
          (magic & 0xFFFFFF00) == kCheckpointMagicFamily) {
        throw Error(ErrorCode::kUnimplemented,
                    path.string() + ": checkpoint in another format (this "
                                    "build reads \"IWS3\")");
      }
      if (magic != kCheckpointMagic) {
        throw Error(ErrorCode::kProtocol, "bad checkpoint magic");
      }
      name = in.read_lp_string();
      store = SegmentStore::deserialize(name, options_.store, in);
    } catch (const Error& e) {
      // A snapshot in another format is whole, not corrupt: refuse to
      // recover rather than set it aside and serve without it.
      if (e.code() == ErrorCode::kUnimplemented) throw;
      quarantine(path.string(), std::string("corrupt checkpoint: ") + e.what());
      continue;
    }
    auto it = segments_.find(name);
    if (it != segments_.end()) {
      // Replace the store in place: entry addresses must stay stable.
      std::lock_guard el(it->second->mu);
      it->second->store = std::move(store);
      it->second->versions_since_checkpoint = 0;
      it->second->wal.reset();  // reopened against the journal below
      it->second->wal_broken = false;
    } else {
      auto entry = std::make_unique<SegmentEntry>(name, options_);
      entry->store = std::move(store);
      segments_.emplace(std::move(name), std::move(entry));
    }
    IW_LOG(kInfo) << "recovered segment " << path.filename().string();
  }

  // Pass 2: replay each journal's tail on top of its snapshot (or from
  // scratch for a segment that was never checkpointed), then reopen the log
  // for appending at exactly the applied prefix.
  for (const fs::path& path : journals) {
    std::string name = decode_file_name(path.stem().string());
    WriteAheadLog::Replay replay = WriteAheadLog::replay(path.string());
    auto it = segments_.find(name);
    if (it == segments_.end()) {
      auto entry = std::make_unique<SegmentEntry>(name, options_);
      it = segments_.emplace(std::move(name), std::move(entry)).first;
    }
    SegmentEntry& entry = *it->second;
    std::lock_guard el(entry.mu);
    // Records apply in order up to the first that cannot be (a version gap
    // after a quarantined checkpoint, a malformed payload): everything after
    // it depends on state we do not have. The prefix applied is kept and
    // the reopened journal is cut to match it.
    uint64_t resume = 0;
    uint64_t applied = 0;
    for (const WriteAheadLog::Record& rec : replay.records) {
      try {
        apply_record_locked(entry, rec.type, rec.payload);
      } catch (const std::exception& e) {
        IW_LOG(kWarn) << "journal replay for " << it->first
                      << " stopped after " << applied << " records: "
                      << e.what();
        break;
      }
      resume = rec.end_offset;
      ++applied;
    }
    stats_.wal_replayed_records.fetch_add(applied, std::memory_order_relaxed);
    // A recovered replica resumes fenced at the lineage it had adopted (the
    // replayed kEpochAdopt records): a deposed primary that restarts must
    // not believe it still owns the segment's newest epoch.
    entry.repl_epoch = std::max(entry.repl_epoch, entry.lineage_epoch);
    if (!wal_on()) continue;  // journal preserved but not extended
    // What the reopen below cuts: a torn tail (the expected residue of a
    // crash mid-append), and every CRC-clean record past one that did not
    // apply. Those may be acked commits, so the journal as found is first
    // set aside whole, durably, beside the one that replaces it.
    const uint64_t found = replay.valid_bytes + replay.truncated_bytes;
    const uint64_t kept = applied == replay.records.size()
                              ? replay.valid_bytes
                              : std::max(resume, WriteAheadLog::kHeaderSize);
    if (found > kept) {
      const std::vector<uint8_t> bytes = read_file(path);
      if (bytes.size() != found) {
        throw Error(ErrorCode::kIo, path.string() + " changed during recovery");
      }
      const std::string copy = set_aside_name(path.string());
      write_file_durable(copy, bytes);
      IW_LOG(kWarn) << "journal " << path.filename().string() << " cut by "
                    << found - kept << " bytes; copied whole to " << copy;
      stats_.wal_truncated_bytes.fetch_add(found - kept,
                                           std::memory_order_relaxed);
    }
    if (resume >= WriteAheadLog::kHeaderSize) {
      entry.wal = std::make_unique<WriteAheadLog>(path.string(), wal_options(),
                                                  resume);
    } else {
      open_fresh_wal(entry, it->first);
    }
  }

  // Pass 3: segments recovered from a snapshot alone (pre-journal state, or
  // a journal lost with its device) still need a live journal.
  if (wal_on()) {
    for (auto& [name, entry] : segments_) {
      std::lock_guard el(entry->mu);
      if (entry->wal == nullptr) open_fresh_wal(*entry, name);
    }
  }
  stats_.recoveries_completed.fetch_add(1, std::memory_order_relaxed);
}

SegmentServer::Stats SegmentServer::stats() const {
  Stats s;
  stats_.snapshot_into(s);
#define IW_SERVER_WAL_LOAD(name) \
  s.wal_##name = wal_counters_.name.load(std::memory_order_relaxed);
  IW_WAL_COUNTERS(IW_SERVER_WAL_LOAD)
#undef IW_SERVER_WAL_LOAD
  return s;
}

StoreStats SegmentServer::segment_stats(const std::string& name) const {
  // StoreStats counters are relaxed atomics; no entry lock needed.
  return segment(name).store->stats();
}

uint32_t SegmentServer::segment_version(const std::string& name) const {
  const SegmentEntry& entry = segment(name);
  std::lock_guard el(entry.mu);
  return entry.store->version();
}

uint32_t SegmentServer::segment_epoch(const std::string& name) const {
  const SegmentEntry& entry = segment(name);
  std::lock_guard el(entry.mu);
  return entry.locks.epoch();
}

uint32_t SegmentServer::segment_placement_epoch(const std::string& name) const {
  const SegmentEntry& entry = segment(name);
  std::lock_guard el(entry.mu);
  return entry.repl_epoch;
}

uint32_t SegmentServer::segment_lineage_epoch(const std::string& name) const {
  const SegmentEntry& entry = segment(name);
  std::lock_guard el(entry.mu);
  return entry.lineage_epoch;
}

}  // namespace iw::server
