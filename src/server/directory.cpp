#include "server/directory.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace iw::server {

namespace {

/// FNV-1a with a SplitMix64-style finisher: cheap, seedless, and spreads
/// the short id/url strings a ring sees well enough for placement. The
/// salt's bytes go through the multiply-mix loop like ordinary input —
/// XOR-ing it into the seed instead would let (salt, first char) pairs
/// cancel (e.g. ("b", 0) vs ("c", 1)), collapsing short ids' virtual
/// nodes onto one ring position.
uint64_t ring_hash(const std::string& s, uint64_t salt) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= (salt >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

SegmentDirectory::SegmentDirectory(Options options, Dialer dial)
    : options_(options), dial_(std::move(dial)) {}

void SegmentDirectory::add_node(const std::string& id,
                                const std::string& address) {
  std::lock_guard lock(mu_);
  if (!nodes_.emplace(id, address).second) {
    throw Error(ErrorCode::kAlreadyExists, "node '" + id + "'");
  }
  for (uint32_t v = 0; v < options_.virtual_nodes; ++v) {
    ring_.emplace(ring_hash(id, v), id);
  }
}

void SegmentDirectory::set_node_address(const std::string& id,
                                        const std::string& address) {
  std::lock_guard lock(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    it->second = address;  // restarted node: same ring positions
    return;
  }
  nodes_.emplace(id, address);
  for (uint32_t v = 0; v < options_.virtual_nodes; ++v) {
    ring_.emplace(ring_hash(id, v), id);
  }
}

void SegmentDirectory::set_placement(const std::string& segment,
                                     std::vector<std::string> node_ids) {
  std::lock_guard lock(mu_);
  if (node_ids.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "empty placement");
  }
  for (const std::string& id : node_ids) {
    if (nodes_.count(id) == 0) {
      throw Error(ErrorCode::kNotFound, "node '" + id + "'");
    }
  }
  Placement p;
  p.epoch = 1;
  p.nodes = std::move(node_ids);
  placements_[segment] = std::move(p);
}

SegmentDirectory::Placement SegmentDirectory::compute_locked(
    const std::string& segment) const {
  if (nodes_.empty()) {
    throw Error(ErrorCode::kState, "directory has no nodes");
  }
  const size_t want = std::min<size_t>(1 + options_.replicas, nodes_.size());
  Placement p;
  p.epoch = 1;
  // Clockwise walk from the segment's ring position, collecting distinct
  // nodes: the primary plus its successor replicas, so a node joining
  // elsewhere on the ring does not reshuffle this segment. One full cycle
  // bounds the walk — hash collisions can leave the ring with fewer
  // distinct nodes than the membership has, and a shorter placement beats
  // an endless search for one.
  auto it = ring_.lower_bound(ring_hash(segment, 0));
  if (it == ring_.end()) it = ring_.begin();
  for (size_t seen = 0; seen < ring_.size() && p.nodes.size() < want;
       ++seen) {
    if (std::find(p.nodes.begin(), p.nodes.end(), it->second) ==
        p.nodes.end()) {
      p.nodes.push_back(it->second);
    }
    if (++it == ring_.end()) it = ring_.begin();
  }
  return p;
}

SegmentDirectory::Placement SegmentDirectory::resolve(
    const std::string& segment) {
  counters_.resolves.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  auto it = placements_.find(segment);
  if (it == placements_.end()) {
    it = placements_.emplace(segment, compute_locked(segment)).first;
  }
  return it->second;
}

SegmentDirectory::Placement SegmentDirectory::resolve_for_failover(
    const std::string& segment, uint32_t observed_epoch) {
  using clock = std::chrono::steady_clock;
  counters_.resolves.fetch_add(1, std::memory_order_relaxed);
  counters_.failover_resolves.fetch_add(1, std::memory_order_relaxed);
  // One mutex for the whole probe-and-promote: two callers that observed
  // the same dead primary serialize here, and the second sees the bumped
  // epoch instead of promoting again.
  std::lock_guard lock(mu_);
  auto it = placements_.find(segment);
  if (it == placements_.end()) {
    it = placements_.emplace(segment, compute_locked(segment)).first;
  }
  Placement& p = it->second;
  if (p.epoch > observed_epoch) return p;  // already failed over

  const auto started = clock::now();
  try {
    auto probe = dial_(address_of_locked(p.nodes.front()));
    probe->call(MsgType::kPing, Buffer());
    return p;  // primary alive; the caller's failure was transient
  } catch (const std::exception&) {
    counters_.probes_failed.fetch_add(1, std::memory_order_relaxed);
  }

  // The primary is dead: promote the most-caught-up reachable replica.
  // Version is the tie-breaker that preserves every acked commit — an ack
  // required `replication_factor` journaled copies, so the highest version
  // among survivors contains all of them.
  std::shared_ptr<ClientChannel> best_channel;
  std::string best_node;
  uint32_t best_version = 0;
  for (size_t i = 1; i < p.nodes.size(); ++i) {
    const std::string& node = p.nodes[i];
    try {
      auto ch = dial_(address_of_locked(node));
      Buffer req;
      req.append_varint(0);  // handle 0: a probe binds nothing
      req.append_vstring(segment);
      req.append_u8(0);  // do not create: we are asking, not writing
      uint32_t version = 0;
      try {
        Frame resp = ch->call(MsgType::kOpenSegment, std::move(req));
        version = resp.reader().read_varint32();
      } catch (const Error& e) {
        if (e.is_transport() || e.code() != ErrorCode::kNotFound) throw;
        // Reachable but never saw the segment: a viable version-0 pick
        // when no replica has data (nothing was ever acked).
      }
      if (best_channel == nullptr || version > best_version) {
        best_channel = std::move(ch);
        best_node = node;
        best_version = version;
      }
    } catch (const std::exception& e) {
      IW_LOG(kWarn) << "failover probe of replica " << node << " for "
                    << segment << " failed: " << e.what();
    }
  }
  if (best_channel == nullptr) {
    throw Error(ErrorCode::kIo, "no replica of '" + segment +
                                    "' is reachable; cannot fail over");
  }

  Buffer promote;
  promote.append_lp_string(segment);
  promote.append_u32(p.epoch + 1);
  best_channel->call(MsgType::kPromote, std::move(promote));

  // Republish: winner first, the dead primary demoted to the tail (it can
  // rejoin as a replica once it catches up).
  std::string old_primary = p.nodes.front();
  p.nodes.erase(std::remove(p.nodes.begin(), p.nodes.end(), best_node),
                p.nodes.end());
  p.nodes.erase(p.nodes.begin());  // old primary
  p.nodes.insert(p.nodes.begin(), best_node);
  p.nodes.push_back(std::move(old_primary));
  ++p.epoch;

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           clock::now() - started)
                           .count();
  counters_.promotions.fetch_add(1, std::memory_order_relaxed);
  counters_.promote_ms_last.store(static_cast<uint64_t>(elapsed),
                                  std::memory_order_relaxed);
  uint64_t prev = counters_.promote_ms_max.load(std::memory_order_relaxed);
  while (static_cast<uint64_t>(elapsed) > prev &&
         !counters_.promote_ms_max.compare_exchange_weak(
             prev, static_cast<uint64_t>(elapsed),
             std::memory_order_relaxed)) {
  }
  IW_LOG(kInfo) << "promoted " << best_node << " to primary of " << segment
                << " (epoch " << p.epoch << ", v" << best_version << ", "
                << elapsed << " ms)";
  return p;
}

std::string SegmentDirectory::address_of(const std::string& node_id) const {
  std::lock_guard lock(mu_);
  return address_of_locked(node_id);
}

std::string SegmentDirectory::address_of_locked(
    const std::string& node_id) const {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    throw Error(ErrorCode::kNotFound, "node '" + node_id + "'");
  }
  return it->second;
}

std::vector<std::string> SegmentDirectory::placed_segments() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(placements_.size());
  for (const auto& [segment, p] : placements_) out.push_back(segment);
  return out;
}

SegmentDirectory::Placement SegmentDirectory::placement_of(
    const std::string& segment) const {
  std::lock_guard lock(mu_);
  auto it = placements_.find(segment);
  if (it == placements_.end()) {
    throw Error(ErrorCode::kNotFound, "no placement for '" + segment + "'");
  }
  return it->second;
}

void SegmentDirectory::substitute_replica(const std::string& segment,
                                          const std::string& dead,
                                          const std::string& substitute) {
  std::lock_guard lock(mu_);
  auto it = placements_.find(segment);
  if (it == placements_.end()) {
    throw Error(ErrorCode::kNotFound, "no placement for '" + segment + "'");
  }
  if (nodes_.count(substitute) == 0) {
    throw Error(ErrorCode::kNotFound, "node '" + substitute + "'");
  }
  Placement& p = it->second;
  if (std::find(p.nodes.begin(), p.nodes.end(), substitute) !=
      p.nodes.end()) {
    throw Error(ErrorCode::kInvalidArgument,
                "node '" + substitute + "' is already placed for '" +
                    segment + "'");
  }
  auto pos = std::find(p.nodes.begin(), p.nodes.end(), dead);
  if (pos == p.nodes.end()) {
    throw Error(ErrorCode::kNotFound,
                "node '" + dead + "' is not placed for '" + segment + "'");
  }
  if (pos == p.nodes.begin()) {
    throw Error(ErrorCode::kInvalidArgument,
                "cannot substitute the primary of '" + segment +
                    "'; fail over instead");
  }
  *pos = substitute;
  IW_LOG(kInfo) << "substituted replica " << dead << " -> " << substitute
                << " for " << segment << " (epoch " << p.epoch << ")";
}

std::vector<std::string> SegmentDirectory::node_ids() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [id, address] : nodes_) out.push_back(id);
  return out;
}

SegmentDirectory::Stats SegmentDirectory::stats() const {
  Stats s;
  counters_.snapshot_into(s);
  return s;
}

ReplicationRepairer::ReplicationRepairer(SegmentDirectory& directory)
    : ReplicationRepairer(directory, Options{}) {}

ReplicationRepairer::ReplicationRepairer(SegmentDirectory& directory,
                                         Options options)
    : directory_(directory), options_(options) {}

ReplicationRepairer::~ReplicationRepairer() { stop(); }

void ReplicationRepairer::start() {
  std::lock_guard lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  worker_ = std::thread([this] {
    std::unique_lock lock(mu_);
    while (!stop_) {
      lock.unlock();
      try {
        tick();
      } catch (const std::exception& e) {
        IW_LOG(kWarn) << "repair tick failed: " << e.what();
      }
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_; });
    }
  });
}

void ReplicationRepairer::stop() {
  std::thread worker;
  {
    std::lock_guard lock(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    cv_.notify_all();
    worker = std::move(worker_);
  }
  if (worker.joinable()) worker.join();
}

bool ReplicationRepairer::recruit(const std::string& segment, uint32_t epoch,
                                  const std::string& node,
                                  const std::string& primary_address,
                                  bool* transport_dead) {
  counters_.recruits_attempted.fetch_add(1, std::memory_order_relaxed);
  try {
    auto channel = directory_.dialer()(directory_.address_of(node));
    Buffer req;
    req.append_lp_string(segment);
    req.append_u32(epoch);
    req.append_lp_string(primary_address);
    channel->call(MsgType::kRecruit, std::move(req));
    return true;
  } catch (const Error& e) {
    counters_.recruits_failed.fetch_add(1, std::memory_order_relaxed);
    if (e.is_transport()) {
      if (transport_dead != nullptr) *transport_dead = true;
    } else if (e.code() == ErrorCode::kStaleEpoch) {
      // Raced a newer failover: the replica (or the primary it pulled
      // from) already follows a newer epoch than our placement snapshot.
      // The next tick re-reads the placement and recruits under it.
      counters_.recruits_rejected_stale.fetch_add(1, std::memory_order_relaxed);
    }
    IW_LOG(kWarn) << "recruit of " << node << " for " << segment
                  << " (epoch " << epoch << ") failed: " << e.what();
    return false;
  } catch (const std::exception& e) {
    counters_.recruits_failed.fetch_add(1, std::memory_order_relaxed);
    IW_LOG(kWarn) << "recruit of " << node << " for " << segment
                  << " (epoch " << epoch << ") failed: " << e.what();
    return false;
  }
}

uint64_t ReplicationRepairer::tick() {
  counters_.ticks.fetch_add(1, std::memory_order_relaxed);
  SegmentDirectory::Dialer dial = directory_.dialer();
  const std::vector<std::string> ids = directory_.node_ids();
  uint64_t under = 0;
  for (const std::string& segment : directory_.placed_segments()) {
    SegmentDirectory::Placement p;
    try {
      p = directory_.placement_of(segment);
    } catch (const Error&) {
      continue;  // unplaced since the listing; nothing to repair
    }
    // 1. Primary health: promote away from a dead primary now, instead of
    // waiting for a client to trip over the corpse.
    bool primary_ok = false;
    try {
      auto probe = dial(directory_.address_of(p.nodes.front()));
      probe->call(MsgType::kPing, Buffer());
      primary_ok = true;
    } catch (const std::exception&) {
    }
    if (!primary_ok) {
      try {
        SegmentDirectory::Placement np =
            directory_.resolve_for_failover(segment, p.epoch);
        if (np.epoch != p.epoch) {
          counters_.failovers.fetch_add(1, std::memory_order_relaxed);
        }
        p = std::move(np);
      } catch (const std::exception& e) {
        IW_LOG(kWarn) << "repair cannot fail over " << segment << ": "
                      << e.what();
        ++under;
        continue;
      }
    }
    std::string primary_address;
    try {
      primary_address = directory_.address_of(p.nodes.front());
    } catch (const Error&) {
      ++under;
      continue;
    }
    // 2. Recruit every replica in the placement; 3. substitute the
    // unreachable ones from ring nodes outside it.
    const size_t target = std::min<size_t>(
        directory_.replica_target(), ids.empty() ? 0 : ids.size() - 1);
    size_t live = 0;
    for (size_t i = 1; i < p.nodes.size(); ++i) {
      const std::string node = p.nodes[i];
      bool transport_dead = false;
      if (recruit(segment, p.epoch, node, primary_address,
                  &transport_dead)) {
        ++live;
        continue;
      }
      if (!transport_dead) continue;  // app-level refusal: retry next tick
      for (const std::string& candidate : ids) {
        if (std::find(p.nodes.begin(), p.nodes.end(), candidate) !=
            p.nodes.end()) {
          continue;
        }
        if (!recruit(segment, p.epoch, candidate, primary_address,
                     nullptr)) {
          continue;
        }
        try {
          directory_.substitute_replica(segment, node, candidate);
          counters_.substitutions.fetch_add(1, std::memory_order_relaxed);
          p.nodes[i] = candidate;
          ++live;
        } catch (const Error& e) {
          // The placement changed under us (another failover or repair);
          // the backfill itself was still useful. Reconcile next tick.
          IW_LOG(kWarn) << "substitution of " << node << " -> " << candidate
                        << " for " << segment << " lost a race: " << e.what();
        }
        break;
      }
    }
    if (live < target) ++under;
  }
  counters_.under_replicated_segments.store(under, std::memory_order_relaxed);
  return under;
}

ReplicationRepairer::Stats ReplicationRepairer::stats() const {
  Stats s;
  counters_.snapshot_into(s);
  return s;
}

Frame DirectoryCore::handle(SessionId, const Frame& request) {
  Frame resp;
  try {
    Buffer payload;
    BufReader in = request.reader();
    switch (request.type) {
      case MsgType::kPing:
        resp.type = MsgType::kPingResp;
        break;
      case MsgType::kDirResolve: {
        std::string segment = in.read_lp_string();
        uint32_t observed = in.read_u32();
        bool failover = in.read_u8() != 0;
        SegmentDirectory::Placement p =
            failover ? directory_.resolve_for_failover(segment, observed)
                     : directory_.resolve(segment);
        resp.type = MsgType::kDirResolveResp;
        payload.append_u32(p.epoch);
        payload.append_u8(static_cast<uint8_t>(p.nodes.size()));
        for (const std::string& node : p.nodes) {
          payload.append_lp_string(node);
          payload.append_lp_string(directory_.address_of(node));
        }
        break;
      }
      default:
        throw Error(ErrorCode::kProtocol,
                    "unexpected message for directory: " +
                        msg_type_name(request.type));
    }
    resp.payload = payload.take();
  } catch (const Error& e) {
    resp = make_error_frame(e);
  } catch (const std::exception& e) {
    resp = make_error_frame(Error(ErrorCode::kInternal, e.what()));
  }
  resp.request_id = request.request_id;
  return resp;
}

std::function<std::shared_ptr<ClientChannel>()> make_failover_connector(
    SegmentDirectory& directory, std::string segment,
    SegmentDirectory::Dialer dial) {
  auto observed = std::make_shared<uint32_t>(0);
  return [dir = &directory, segment = std::move(segment),
          dial = std::move(dial), observed]() {
    SegmentDirectory::Placement p =
        *observed == 0 ? dir->resolve(segment)
                       : dir->resolve_for_failover(segment, *observed);
    *observed = p.epoch;
    return dial(dir->address_of(p.nodes.front()));
  };
}

std::function<std::shared_ptr<ClientChannel>()> make_failover_connector(
    std::function<std::shared_ptr<ClientChannel>()> dial_directory,
    std::string segment, SegmentDirectory::Dialer dial) {
  auto observed = std::make_shared<uint32_t>(0);
  return [dial_directory = std::move(dial_directory),
          segment = std::move(segment), dial = std::move(dial), observed]() {
    auto dch = dial_directory();
    Buffer req;
    req.append_lp_string(segment);
    req.append_u32(*observed);
    req.append_u8(*observed == 0 ? 0 : 1);
    Frame resp = dch->call(MsgType::kDirResolve, std::move(req));
    BufReader in = resp.reader();
    uint32_t epoch = in.read_u32();
    uint8_t count = in.read_u8();
    if (count == 0) {
      throw Error(ErrorCode::kNotFound, "empty placement for " + segment);
    }
    in.read_lp_string();  // primary node id (informational)
    std::string address = in.read_lp_string();
    *observed = epoch;
    return dial(address);
  };
}

}  // namespace iw::server
